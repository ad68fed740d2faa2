"""Arithmetic in binary fields GF(2^k) on bit-packed polynomials.

An element of F2[t]/<m(t)> is stored as an int whose bit i is the
coefficient of t^i; the modulus m(t) uses the same encoding.  Addition
is XOR.  A `FieldSpec` builds its full multiplication table (carry-less
products reduced modulo m(t)), its inverse table and the name of every
element when it is made, and multiplication and inversion are lookups
in them; `projmat` reads the same tables through `FieldSpec.tables()`
and `FieldSpec.names`.  The degree is capped at 8, where the
multiplication table has 65,536 entries.  The two fields the rest of
the package relies on are module constants:

    GF2     m(t) = t + 1            mask 0b11
    GF16    m(t) = t^4 + t + 1      mask 0b10011

Any other irreducible modulus up to degree 8 is accepted, which lets
tests cross-check GF(16) against an independently constructed copy.
"""

from __future__ import annotations

__all__ = [
    "FieldSpec",
    "GF2",
    "GF16",
    "format_poly",
    "parse_poly",
]

_MAX_DEGREE = 8


def _poly_mul_bits(a: int, b: int) -> int:
    """Carry-less product of two polynomial bitmasks."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _poly_mod_bits(a: int, m: int) -> int:
    """Remainder of a modulo m (polynomial division over GF(2))."""
    dm = m.bit_length()
    da = a.bit_length()
    while da >= dm:
        a ^= m << (da - dm)
        da = a.bit_length()
    return a


def _is_irreducible(m: int) -> bool:
    """Trial division by every polynomial of degree 1..deg(m)/2."""
    deg = m.bit_length() - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for cand in range(1 << d, 1 << (d + 1)):
            if _poly_mod_bits(m, cand) == 0:
                return False
    return True


def format_poly(bits: int) -> str:
    """Render a coefficient bitmask as a polynomial string in t."""
    if bits < 0:
        raise ValueError("negative bitmask")
    if bits == 0:
        return "0"
    terms = []
    for k in range(bits.bit_length() - 1, -1, -1):
        if bits >> k & 1:
            terms.append("1" if k == 0 else "t" if k == 1 else f"t^{k}")
    return "+".join(terms)


def parse_poly(text: str) -> int:
    """Parse a polynomial string such as 't^3+t+1' into a bitmask.

    'x' is accepted as a synonym for 't'.  Repeated monomials add, so
    't+t' parses to 0.
    """
    s = text.replace(" ", "").lower().replace("x", "t")
    if s in ("", "0"):
        return 0
    bits = 0
    for term in s.split("+"):
        if term == "1":
            k = 0
        elif term == "t":
            k = 1
        elif term.startswith("t^") and term[2:].isdigit():
            k = int(term[2:])
        else:
            raise ValueError(f"bad polynomial term {term!r} in {text!r}")
        bits ^= 1 << k
    return bits


class FieldSpec:
    """A binary field GF(2^k) = F2[t]/<m(t)>.

    Besides its multiplication and inverse tables it holds `names`,
    where `names[b]` is `format_poly(b)` for each of the 2^k elements.

    Parameters
    ----------
    modulus : int
        Bitmask of an irreducible polynomial m(t).  For GF(16) with
        m(t) = t^4 + t + 1 this is 0b10011.

    Raises
    ------
    ValueError
        If the modulus is reducible or its degree is outside 1..8.
    """

    __slots__ = ("modulus", "degree", "size", "names", "_tables")

    def __init__(self, modulus: int) -> None:
        degree = modulus.bit_length() - 1
        if degree < 1 or degree > _MAX_DEGREE:
            raise ValueError(
                f"modulus degree must be in 1..{_MAX_DEGREE}, got {degree}"
            )
        if not _is_irreducible(modulus):
            raise ValueError(
                f"modulus {format_poly(modulus)} is reducible over GF(2)"
            )
        self.modulus = modulus
        self.degree = degree
        self.size = size = 1 << degree
        mul_rows = [[0] * size for _ in range(size)]
        for x in range(size):
            row = mul_rows[x]
            for y in range(x, size):
                v = _poly_mod_bits(_poly_mul_bits(x, y), modulus)
                row[y] = v
                mul_rows[y][x] = v
        inv = [0] + [row.index(1) for row in mul_rows[1:]]
        self._tables = (mul_rows, inv)
        self.names = tuple(map(format_poly, range(size)))

    # fields with the same modulus are the same field
    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldSpec) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("FieldSpec", self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(2^{self.degree}; m={format_poly(self.modulus)})"

    # ------------------------------------------------------------------
    # arithmetic on element bitmasks

    def tables(self) -> tuple[list[list[int]], list[int]]:
        """Multiplication rows and inverse table.

        `mul_rows[a][b]` is a*b and `inv[a]` is 1/a (`inv[0]` is 0).
        """
        return self._tables

    def mul(self, a: int, b: int) -> int:
        """Product of two elements given as bitmasks."""
        return self._tables[0][a][b]

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero element bitmask."""
        if a == 0:
            raise ValueError("zero has no multiplicative inverse")
        return self._tables[1][a]


GF2 = FieldSpec(0b11)
GF16 = FieldSpec(0b10011)

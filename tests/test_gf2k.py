import random

import pytest

from arithcx.gf2k import GF2, GF16, FieldSpec, format_poly, parse_poly
from arithcx.projmat import identity, lsv_generators, matrix


# an element is its bitmask: addition is XOR, products and inverses
# read the spec's tables
elem = parse_poly
mul = GF16.mul

T = elem("t")
ONE = 1
ZERO = 0


# ----------------------------------------------------------------------
# independent oracles, written here and not read from gf2k: a plain
# carry-less product, a shift-and-add product that reduces modulo m at
# every step, and the irreducible moduli as the polynomials that are no
# product of two polynomials of degree >= 1


def clmul(a, b):
    p = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            p ^= a << i
    return p


def clmul_mod(a, b, m):
    deg = m.bit_length() - 1
    p = 0
    while b:
        if b & 1:
            p ^= a
        b >>= 1
        a <<= 1
        if a >> deg & 1:
            a ^= m
    return p


def brute_inverse(spec, a):
    # oracle: scan every nonzero element for the inverse
    for b in range(1, spec.size):
        if clmul_mod(a, b, spec.modulus) == 1:
            return b
    return None


def irreducible_moduli(max_degree):
    top = 1 << (max_degree + 1)
    products = {
        clmul(a, b)
        for a in range(2, top)
        for b in range(a, top)
        if a.bit_length() + b.bit_length() - 2 <= max_degree
    }
    return [m for m in range(2, top) if m not in products]


def test_modulus_validation():
    with pytest.raises(ValueError):
        FieldSpec(0b101)  # t^2+1 = (t+1)^2
    with pytest.raises(ValueError):
        FieldSpec(0b10001)  # t^4+1 = (t+1)^4
    with pytest.raises(ValueError):
        FieldSpec(1)  # degree 0
    with pytest.raises(ValueError):
        FieldSpec(1 << 17 | 1)  # degree beyond the cap


def test_tables_against_carryless_oracle_every_modulus():
    moduli = irreducible_moduli(8)
    by_degree = [sum(m.bit_length() - 1 == d for m in moduli) for d in range(1, 9)]
    # the number of irreducible binary polynomials of degree 1..8
    assert by_degree == [2, 1, 2, 3, 6, 9, 18, 30]
    for m in range(2, 1 << 9):
        if m not in moduli:
            with pytest.raises(ValueError, match="reducible"):
                FieldSpec(m)
    rng = random.Random(20261018)
    for m in moduli:
        spec = FieldSpec(m)
        q = spec.size
        if spec.degree <= 6:
            pairs = [(a, b) for a in range(q) for b in range(q)]
        else:
            pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
        for a, b in pairs:
            assert spec.mul(a, b) == clmul_mod(a, b, m), (m, a, b)
        for a in range(1, q):
            b = spec.inv(a)
            assert 0 < b < q and clmul_mod(a, b, m) == 1, (m, a)
        with pytest.raises(ValueError):
            spec.inv(0)
        assert len(spec.names) == q
        for b in range(q):
            assert spec.names[b] == format_poly(b), (m, b)
            assert parse_poly(spec.names[b]) == b, (m, b)


def test_gf16_has_sixteen_elements():
    assert GF16.degree == 4
    assert GF16.size == 16


def test_addition_group_exhaustive():
    elems = range(GF16.size)
    for a in elems:
        assert a ^ ZERO == a
        assert a ^ a == ZERO  # characteristic 2
        for b in elems:
            assert a ^ b == b ^ a
            for c in elems:
                assert (a ^ b) ^ c == a ^ (b ^ c)


def test_multiplication_ring_axioms_exhaustive():
    elems = range(GF16.size)
    for a in elems:
        assert mul(a, ONE) == a
        for b in elems:
            assert mul(a, b) == mul(b, a)
            for c in elems:
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)


def test_spec_examples():
    t = T
    assert t ^ t == ZERO
    assert t ^ ONE == elem("t+1")
    assert elem("t^3+1") ^ elem("t^3+t") == elem("t+1")
    # t * t^3 = t^4 = t + 1 under m(t) = t^4 + t + 1
    assert mul(t, elem("t^3")) == elem("t+1")
    assert GF16.inv(ONE) == ONE
    assert GF16.inv(t) == elem("t^3+1")
    for a in range(GF16.size):
        assert mul(a, ONE) == a


def test_inverses_against_brute_force_oracle():
    for a in range(1, 16):
        expect = brute_inverse(GF16, a)
        assert expect is not None
        assert GF16.inv(a) == expect
        assert GF16.mul(a, GF16.inv(a)) == 1
        assert GF16.inv(GF16.inv(a)) == a
    with pytest.raises(ValueError):
        GF16.inv(ZERO)


def test_nonzero_elements_cyclic_of_order_15():
    # t generates the multiplicative group of GF(16)
    seen = set()
    x = 1
    for _ in range(15):
        x = GF16.mul(x, T)
        seen.add(x)
    assert len(seen) == 15
    assert x == 1  # t^15 = 1
    # t^4 = t + 1
    p = 1
    for _ in range(4):
        p = GF16.mul(p, T)
    assert p == parse_poly("t+1")


def test_parse_format_round_trip():
    for bits in range(16):
        assert parse_poly(format_poly(bits)) == bits
    assert parse_poly("x^3 + x") == parse_poly("t^3+t")
    assert parse_poly("x+x^2") == parse_poly("t^2+t")
    assert parse_poly("0") == 0
    assert parse_poly("t+t") == 0
    assert format_poly(parse_poly("1+t+t^2+t^3")) == "t^3+t^2+t+1"
    with pytest.raises(ValueError):
        parse_poly("t^-1")
    with pytest.raises(ValueError):
        parse_poly("2t")


def test_gf2_arithmetic():
    zero, one = range(GF2.size)
    assert one ^ one == zero
    assert GF2.mul(one, one) == one
    assert GF2.inv(one) == one


def test_independent_gf16_copy():
    # same field size built from a different irreducible quartic
    other = FieldSpec(0b11001)  # t^4 + t^3 + 1
    assert other.size == 16
    assert other != GF16
    elems = range(other.size)
    for a in elems:
        for b in elems:
            assert other.mul(a, b) == other.mul(b, a)
    # multiplicative group is cyclic of order 15: some element generates it
    orders = set()
    for g in range(2, 16):
        x, k = 1, 0
        while True:
            x = other.mul(x, g)
            k += 1
            if x == 1:
                break
        orders.add(k)
    assert 15 in orders


def test_matrix_rows_read_the_name_table():
    rng = random.Random(20261019)
    big = FieldSpec(0b100011011)  # t^8 + t^4 + t^3 + t + 1
    cases = [identity(GF16), *lsv_generators().matrices]
    cases += [
        matrix(spec, [[rng.randrange(spec.size) for _ in range(3)] for _ in range(3)])
        for spec in (GF2, GF16, big)
        for _ in range(3)
    ]
    for m in cases:
        e = [format_poly(b) for b in m.entries]
        assert m.rows() == (tuple(e[0:3]), tuple(e[3:6]), tuple(e[6:9]))

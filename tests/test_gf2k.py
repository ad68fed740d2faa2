import pytest

from arithcx.gf2k import GF2, GF16, FieldSpec, format_poly, parse_poly

T = GF16.parse("t")
ONE = GF16.one
ZERO = GF16.zero


def brute_inverse(spec, a):
    # oracle: scan every nonzero element for the inverse
    for b in range(1, spec.size):
        if spec.mul(a, b) == 1:
            return b
    return None


def test_modulus_validation():
    with pytest.raises(ValueError):
        FieldSpec(0b101)  # t^2+1 = (t+1)^2
    with pytest.raises(ValueError):
        FieldSpec(0b10001)  # t^4+1 = (t+1)^4
    with pytest.raises(ValueError):
        FieldSpec(1)  # degree 0
    with pytest.raises(ValueError):
        FieldSpec(1 << 17 | 1)  # degree beyond the cap


def test_gf16_has_sixteen_elements():
    assert GF16.degree == 4
    assert GF16.size == 16
    assert len(list(GF16.elements())) == 16


def test_addition_group_exhaustive():
    elems = list(GF16.elements())
    for a in elems:
        assert a + ZERO == a
        assert a + a == ZERO  # characteristic 2
        for b in elems:
            assert a + b == b + a
            for c in elems:
                assert (a + b) + c == a + (b + c)


def test_multiplication_ring_axioms_exhaustive():
    elems = list(GF16.elements())
    for a in elems:
        assert a * ONE == a
        for b in elems:
            assert a * b == b * a
            for c in elems:
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_spec_examples():
    t = T
    assert t + t == ZERO
    assert t + ONE == GF16.parse("t+1")
    assert GF16.parse("t^3+1") + GF16.parse("t^3+t") == GF16.parse("t+1")
    # t * t^3 = t^4 = t + 1 under m(t) = t^4 + t + 1
    assert t * GF16.parse("t^3") == GF16.parse("t+1")
    assert ONE.inv() == ONE
    assert t.inv() == GF16.parse("t^3+1")
    for a in GF16.elements():
        assert a * ONE == a


def test_inverses_against_brute_force_oracle():
    for a in range(1, 16):
        expect = brute_inverse(GF16, a)
        assert expect is not None
        assert GF16.inv(a) == expect
        assert GF16.mul(a, GF16.inv(a)) == 1
        assert GF16.inv(GF16.inv(a)) == a
    with pytest.raises(ValueError):
        ZERO.inv()


def test_nonzero_elements_cyclic_of_order_15():
    # t generates the multiplicative group of GF(16)
    seen = set()
    x = 1
    for _ in range(15):
        x = GF16.mul(x, T.bits)
        seen.add(x)
    assert len(seen) == 15
    assert x == 1  # t^15 = 1
    # t^4 = t + 1
    p = 1
    for _ in range(4):
        p = GF16.mul(p, T.bits)
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


def test_mismatched_field_specs_rejected():
    with pytest.raises(ValueError):
        GF2.one + GF16.one
    with pytest.raises(ValueError):
        GF2.one * GF16.one


def test_gf2_arithmetic():
    one = GF2.one
    zero = GF2.zero
    assert one + one == zero
    assert one * one == one
    assert one.inv() == one


def test_independent_gf16_copy():
    # same field size built from a different irreducible quartic
    other = FieldSpec(0b11001)  # t^4 + t^3 + 1
    assert other.size == 16
    assert other != GF16
    elems = list(other.elements())
    for a in elems:
        for b in elems:
            assert other.mul(a.bits, b.bits) == other.mul(b.bits, a.bits)
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
    # elements of the two copies do not mix
    with pytest.raises(ValueError):
        other.one + GF16.one

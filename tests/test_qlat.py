import itertools
import random
import sys
from collections import Counter, deque
from decimal import Decimal

import pytest

from arithcx.autoeng import automorphisms_fixing, verify_permutation
from arithcx.errors import BudgetExceededError
from arithcx.qlat import (
    FIBER_IMAGE,
    GENERATOR_INVERSE,
    GENERATOR_NAMES,
    MATCHING_COLOR,
    Quaternion,
    canonical_rep,
    color_automorphism_count,
    free_group_check,
    lift_coloring,
    norm5_generators,
    quotient_graph,
    ray_flip,
)


def conj(q):
    return Quaternion(q.a0, -q.a1, -q.a2, -q.a3)


# the identity class
ONE = Quaternion(1, 0, 0, 0)


def random_quaternion(rng, lo=-9, hi=9):
    return Quaternion(*(rng.randint(lo, hi) for _ in range(4)))


def random_norm5_word_product(rng, max_len=4):
    gens = norm5_generators()
    w = [rng.randint(0, 5)]
    for _ in range(rng.randint(0, max_len - 1)):
        g = rng.randint(0, 5)
        if g != GENERATOR_INVERSE[w[-1]]:
            w.append(g)
    q = Quaternion(1, 0, 0, 0)
    for g in w:
        q = q * gens[g]
    return q


# ----------------------------------------------------------------------
# quaternion arithmetic


def to_matrix(q):
    # q = a0+a1*i+a2*j+a3*k as [[a0+a1*I, a2+a3*I], [-a2+a3*I, a0-a1*I]]
    return (
        (q.a0 + q.a1 * 1j, q.a2 + q.a3 * 1j),
        (-q.a2 + q.a3 * 1j, q.a0 - q.a1 * 1j),
    )


def matrix_mul(m, n):
    return tuple(
        tuple(sum(m[r][t] * n[t][c] for t in range(2)) for c in range(2))
        for r in range(2)
    )


def test_product_matches_complex_matrix_model():
    rng = random.Random(314)
    for _ in range(1000):
        a, b = random_quaternion(rng), random_quaternion(rng)
        m = matrix_mul(to_matrix(a), to_matrix(b))
        assert a * b == Quaternion(
            round(m[0][0].real),
            round(m[0][0].imag),
            round(m[0][1].real),
            round(m[0][1].imag),
        )


def test_unit_table():
    i, j, k = Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)
    assert i * j == k
    assert j * k == i
    assert k * i == j
    assert j * i == -k
    for u in (i, j, k):
        assert u * u == Quaternion(-1, 0, 0, 0)


def test_norm_multiplicative_and_conj_identity():
    rng = random.Random(315)
    for _ in range(10**4):
        a, b = random_quaternion(rng, -5, 5), random_quaternion(rng, -5, 5)
        assert (a * b).norm() == a.norm() * b.norm()
    a = random_quaternion(rng)
    assert a * conj(a) == Quaternion(a.norm(), 0, 0, 0)


def test_quaternion_str():
    assert str(Quaternion(1, 2, 0, 0)) == "1+2i"
    assert str(Quaternion(1, 0, 0, -2)) == "1-2k"
    assert str(Quaternion(0, -1, 1, 0)) == "-i+j"
    assert str(Quaternion(0, 0, 0, 0)) == "0"


# ----------------------------------------------------------------------
# generators and classes


def test_norm5_generators_golden():
    gens = norm5_generators()
    assert gens == (
        Quaternion(1, 2, 0, 0),
        Quaternion(1, 0, 2, 0),
        Quaternion(1, 0, 0, 2),
        Quaternion(1, -2, 0, 0),
        Quaternion(1, 0, -2, 0),
        Quaternion(1, 0, 0, -2),
    )
    assert all(g.norm() == 5 for g in gens)
    assert len(GENERATOR_NAMES) == len(gens) == 6


def test_generator_tables_consistent():
    gens = norm5_generators()
    for i in range(6):
        assert gens[GENERATOR_INVERSE[i]] == conj(gens[i])
        assert canonical_rep(gens[i] * gens[GENERATOR_INVERSE[i]]) == ONE
        assert FIBER_IMAGE[GENERATOR_INVERSE[i]] == (-FIBER_IMAGE[i]) % 4


def test_canonical_rep_golden_and_errors():
    assert canonical_rep(Quaternion(-5, 10, 0, 0)) == Quaternion(1, -2, 0, 0)
    assert canonical_rep(Quaternion(1, 0, 0, 0)) == ONE
    with pytest.raises(ValueError):
        canonical_rep(Quaternion(0, 0, 0, 0))
    with pytest.raises(ValueError):
        canonical_rep(Quaternion(1, 1, 0, 0))  # norm 2


def test_canonical_rep_scale_invariance():
    rng = random.Random(316)
    for _ in range(100):
        q = random_norm5_word_product(rng)
        for k in range(4):
            scaled = Quaternion(*(c * 5**k for c in q.coefficients()))
            assert canonical_rep(scaled) == canonical_rep(q)
            assert canonical_rep(-scaled) == canonical_rep(q)


def test_class_inverse():
    rng = random.Random(317)
    for _ in range(50):
        cls = canonical_rep(random_norm5_word_product(rng))
        # cls * conj(cls) is the scalar norm(cls), a power of 5
        assert canonical_rep(cls * conj(cls)) == ONE


def test_free_group_counts():
    assert free_group_check(3) == {1: 6, 2: 30, 3: 150}
    assert free_group_check(5) == {l: 6 * 5 ** (l - 1) for l in range(1, 6)}
    with pytest.raises(ValueError):
        free_group_check(8)
    with pytest.raises(ValueError):
        free_group_check(0)


# ----------------------------------------------------------------------
# the colored tree ball


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_tree_ball_structure(r):
    ball = lift_coloring(r)
    n = ball.vertex_count()
    assert n == 1 + 6 * (5**r - 1) // 4
    assert ball.sphere_sizes() == tuple(
        1 if d == 0 else 6 * 5 ** (d - 1) for d in range(r + 1)
    )
    # a tree: connected with exactly n-1 edges
    assert len(ball.edges) == n - 1
    adj = {i: [] for i in range(n)}
    for u, v, _, _ in ball.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    assert len(seen) == n
    # interior vertices have 2 edges of each color
    color_count = {i: Counter() for i in range(n)}
    for u, v, _, col in ball.edges:
        color_count[u][col] += 1
        color_count[v][col] += 1
    for i in range(n):
        if ball.dist[i] < r:
            assert sum(color_count[i].values()) == 6
            assert set(color_count[i].values()) == {2}
    # fiber labels, read from the words, are a homomorphism onto the
    # quotient, and each edge has the color of its fibers' matching
    fibers = [sum(FIBER_IMAGE[g] for g in w) % 4 for w in ball.words]
    for u, v, g, col in ball.edges:
        assert fibers[v] == (fibers[u] + FIBER_IMAGE[g]) % 4
        assert col == MATCHING_COLOR[frozenset({fibers[u], fibers[v]})]
    assert all(len(w) == d for w, d in zip(ball.words, ball.dist))


def test_tree_ball_classes_distinct():
    ball = lift_coloring(4)
    assert len(set(ball.classes)) == ball.vertex_count()


def test_tree_ball_errors():
    with pytest.raises(ValueError):
        lift_coloring(0)
    with pytest.raises(BudgetExceededError):
        lift_coloring(9, vertex_budget=1000)


def test_tree_ball_complex_and_dot():
    ball = lift_coloring(2)
    cx = ball.to_complex()
    assert cx.dimension == 1
    assert len(cx.simplices(1)) == 36
    assert set(cx.chamber_colors.values()) == {"A", "B", "C"}
    dot = "".join(ball.to_dot())
    assert dot == "".join(ball.to_dot())
    assert 'label="1+2i"' in dot and "color=red" in dot


# ----------------------------------------------------------------------
# the quotient


def test_quotient_graph_golden():
    qg = quotient_graph()
    assert qg.vertices == (0, 1, 2, 3)
    assert len(qg.edges) == 12
    assert all(qg.degree(v) == 6 for v in range(4))
    pairs = list(itertools.combinations(range(4), 2))
    assert all(qg.parallel_count(u, v) == 2 for u, v in pairs)
    assert qg.simple_edges() == tuple(pairs)
    for e in qg.edges:
        assert e.color == MATCHING_COLOR[frozenset({e.u, e.v})]
        assert (e.u + FIBER_IMAGE[e.gen_from_u]) % 4 == e.v
        assert GENERATOR_INVERSE[e.gen_from_u] == e.gen_from_v


def test_quotient_colored_automorphisms_klein_four():
    k4 = quotient_graph().to_complex()
    grp = automorphisms_fixing(k4, ())
    assert grp.order == 4
    images = sorted(tuple(p(v) for v in range(4)) for p in grp.perms)
    assert images == [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]


# ----------------------------------------------------------------------
# growth counts


def test_count_everything_fixed_is_one():
    c = color_automorphism_count(1, 1)
    assert (c.count, c.enumerated, c.chain_order) == (1, 1, 1)
    assert c.log2_count == 0 and c.consistent


def test_count_free_root():
    c = color_automorphism_count(1, 0)
    assert (c.count, c.enumerated, c.chain_order) == (8, 8, 8)


def test_count_radius_two_golden():
    c = color_automorphism_count(2, 1)
    assert c.count == 4096 == 4**6
    assert c.enumerated == 4096 and c.chain_order == 4096
    assert c.log2_count == 12 and c.consistent


def test_count_radius_three_via_chain():
    c = color_automorphism_count(3, 1)
    assert c.count == 4**36
    assert c.enumerated is None  # beyond the enumeration cap
    assert c.chain_order == 4**36 and c.consistent
    assert c.log2_count == 72


def test_count_factorization_grid():
    grid = {
        (r, s): color_automorphism_count(r, s, check=False).count
        for r in range(6)
        for s in range(r + 1)
    }
    assert grid[(4, 1)] == 4**186
    for (r, s), v in grid.items():
        if (r + 1, s) in grid:
            assert grid[(r + 1, s)] >= v
        if (r, s + 1) in grid:
            assert grid[(r, s + 1)] <= v
        if r > s >= 1:
            assert v >= 2
    assert grid[(2, 1)] < grid[(3, 1)] < grid[(4, 1)]


def test_count_json_and_errors():
    c = color_automorphism_count(4, 1, check=False)
    d = c.to_json_dict()
    assert d["log2_count"] == 372 and d["count"] == str(4**186)
    assert d["enumerated"] is None and d["consistent"] is True
    for bad in [(-1, 0), (2, 3), (9, 1)]:
        with pytest.raises(ValueError):
            color_automorphism_count(*bad)


def test_count_json_past_the_digit_limit():
    # 4^23436 has 14,110 digits and 8 * 4^117186 has 70,554: each is
    # written in full, as the decimal module writes it
    for r, s in [(7, 1), (8, 0)]:
        c = color_automorphism_count(r, s, check=False)
        digits = c.to_json_dict()["count"]
        assert digits == str(Decimal(c.count))
        assert len(digits) > 4300
    if hasattr(sys, "set_int_max_str_digits"):
        # the lowest limit the interpreter accepts
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert c.to_json_dict()["count"] == digits
        finally:
            sys.set_int_max_str_digits(old)


# ----------------------------------------------------------------------
# flips


def test_ray_flip_at_all_interior_vertices():
    ball = lift_coloring(3)
    cx = ball.to_complex()
    for v in range(ball.vertex_count()):
        if ball.dist[v] == 3:
            break
        flip = ray_flip(ball, v)
        assert not flip.is_identity()
        assert flip.compose(flip).is_identity()
        assert all(
            flip(i) == i
            for i in range(ball.vertex_count())
            if ball.dist[i] <= ball.dist[v]
        )
        assert verify_permutation(cx, flip)


def test_ray_flip_is_in_the_enumerated_group():
    ball = lift_coloring(2)
    flip = ray_flip(ball, 1)
    fixed = [i for i in range(ball.vertex_count()) if ball.dist[i] <= 1]
    grp = automorphisms_fixing(
        ball.to_complex(), fixed, cap=10**4
    )
    assert grp.order == 4096
    assert flip in set(grp.perms)


def test_ray_flip_prefers_first_generator_pair():
    ball = lift_coloring(2)
    kids = {g: w for u, w, g, _ in ball.edges if u == 1}
    # vertex 1 is the a1-child of the root: its inbound edge excludes
    # generator a1c, leaving the (a1, a3c) pair fully outward
    assert sorted(kids) == [0, 1, 2, 4, 5]
    flip = ray_flip(ball, 1)
    assert flip(kids[0]) == kids[5] and flip(kids[5]) == kids[0]
    assert flip(kids[1]) == kids[1] and flip(kids[2]) == kids[2]


def test_ray_flip_errors():
    ball = lift_coloring(2)
    with pytest.raises(ValueError):
        ray_flip(ball, ball.vertex_count() - 1)  # a leaf
    with pytest.raises(ValueError):
        ray_flip(ball, ball.vertex_count())

import itertools
import json
import random
from collections import Counter, deque

import pytest

from arithcx import projmat
from arithcx.autoeng import ball_side, panel_flip_check
from arithcx.errors import BudgetExceededError
from arithcx.gf2k import GF2, GF16, FieldSpec, format_poly, parse_poly
from arithcx.projmat import (
    GeneratorTable,
    SymmetricGenerators,
    cayley_ball,
    determinant,
    identity,
    lsv_generators,
    lsv_raw_matrices,
    matrix,
    pgl_inv,
    pgl_mul,
    pgl_normalize,
    proj_plane_points,
    projective_plane_orbit,
    symmetrize,
)
from arithcx.scx import clique_complex

from oracles import (
    ball_complex,
    ball_json_dict,
    ball_matrices,
    inverse_closed_plane_orbits,
    link,
    random_generators,
)

# ----------------------------------------------------------------------
# independent oracles: GF(16) as carry-less multiplication reduced modulo
# t^4+t+1 (written here, not read from gf2k's tables), the Leibniz
# determinant, the explicit adjugate, and plain tuple-level products

F16_MODULUS = 0b10011  # t^4 + t + 1


def f16_mul(a, b):
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        b >>= 1
    for i in (6, 5, 4):
        if p >> i & 1:
            p ^= F16_MODULUS << (i - 4)
    return p


def f16_inv(a):
    return next(b for b in range(1, 16) if f16_mul(a, b) == 1)


def leibniz_det(entries):
    total = 0
    for perm in itertools.permutations(range(3)):
        prod = 1
        for i in range(3):
            prod = f16_mul(prod, entries[3 * i + perm[i]])
        total ^= prod
    return total


def oracle_scale(entries):
    for b in entries:
        if b:
            lam = f16_inv(b)
            return tuple(f16_mul(lam, e) for e in entries)
    raise ValueError("zero matrix")


def oracle_act(entries, point):
    # m times the column vector p, scaled to a canonical point
    return oracle_scale(
        tuple(
            f16_mul(entries[3 * i], point[0])
            ^ f16_mul(entries[3 * i + 1], point[1])
            ^ f16_mul(entries[3 * i + 2], point[2])
            for i in range(3)
        )
    )


def oracle_mul(x, y):
    out = []
    for i in range(3):
        for j in range(3):
            acc = 0
            for k in range(3):
                acc ^= f16_mul(x[3 * i + k], y[3 * k + j])
            out.append(acc)
    return oracle_scale(out)


def oracle_word(gens_by_label, word):
    acc = IDENT
    for lab in word:
        acc = oracle_mul(acc, gens_by_label[lab])
    return acc


def oracle_ball(gens, labels, radius, mul=oracle_mul):
    """Vertices in (distance, bytes) order, distances, labelled edges and
    the first reduced-word collision of the ball, by a plain BFS over
    entry tuples with `mul`.

    The scan multiplies every vertex, in discovery order, by every
    generator, in table order.  The collision is the first step whose
    product is already known, whose word does not end in a generator
    next to its own inverse (inverses found by `mul`), and whose
    word differs from the known vertex's word, as (position, known
    word, new word); None if there is none.
    """
    inverse = {
        lab: next(b for h, b in zip(gens, labels) if mul(g, h) == IDENT)
        for g, lab in zip(gens, labels)
    }
    dist = {IDENT: 0}
    word = {IDENT: ()}
    steps = {}
    collision = None
    frontier = [IDENT]
    for d in range(radius + 1):
        nxt = []
        for x in frontier:
            steps[x] = []
            for g, lab in zip(gens, labels):
                y = mul(x, g)
                steps[x].append((y, lab))
                if y not in dist:
                    if d < radius:
                        dist[y] = d + 1
                        word[y] = word[x] + (lab,)
                        nxt.append(y)
                elif collision is None and word[y] != word[x] + (lab,):
                    # reduced: no generator next to its own inverse
                    if not word[x] or inverse[word[x][-1]] != lab:
                        collision = (y, word[y], word[x] + (lab,))
        frontier = nxt
    order = sorted(dist, key=lambda e: (dist[e], bytes(e)))
    pos = {e: i for i, e in enumerate(order)}
    edges = sorted(
        (pos[x], pos[y], lab)
        for x, out in steps.items()
        for y, lab in out
        if y in pos and pos[x] < pos[y]
    )
    if collision is not None:
        collision = (pos[collision[0]],) + collision[1:]
    return order, [dist[e] for e in order], edges, collision


def oracle_adjugate(entries):
    a = entries

    def m2(r0, r1, c0, c1):
        return f16_mul(a[3 * r0 + c0], a[3 * r1 + c1]) ^ f16_mul(
            a[3 * r0 + c1], a[3 * r1 + c0]
        )

    return oracle_scale(
        (
            m2(1, 2, 1, 2), m2(0, 2, 1, 2), m2(0, 1, 1, 2),
            m2(1, 2, 0, 2), m2(0, 2, 0, 2), m2(0, 1, 0, 2),
            m2(1, 2, 0, 1), m2(0, 2, 0, 1), m2(0, 1, 0, 1),
        )
    )


IDENT = (1, 0, 0, 0, 1, 0, 0, 0, 1)


def first_row_forms(entries):
    """How many entry tuples lead with each form of a canonical point of
    P^2 as their first row, (1, y, z), (0, 1, z) or (0, 0, 1), keyed by
    the entries up to the leading 1."""
    return dict(Counter(e[: e.index(1) + 1] for e in entries))


@pytest.fixture(scope="module")
def table():
    return lsv_generators()


@pytest.fixture(scope="module")
def sym(table):
    return symmetrize(table)


@pytest.fixture(scope="module")
def ball2(sym):
    return cayley_ball(sym, 2)


@pytest.fixture(scope="module")
def ball3(sym):
    return cayley_ball(sym, 3)


# ----------------------------------------------------------------------
# generator table


def test_raw_table_as_printed():
    raw = lsv_raw_matrices()
    assert len(raw) == 7
    # first matrix, first row, exactly as printed
    assert raw[0].rows()[0] == ("t^3+t", "t^2", "t^2+t")
    assert raw[0].entries[0] == parse_poly("t+t^3")
    # the published "x+x^2" entry parses with x == t
    assert raw[6].entries[7] == parse_poly("t+t^2")
    assert not raw[0].canonical


def test_determinants_nonzero_with_leibniz_oracle():
    for m in lsv_raw_matrices():
        d = determinant(m)
        assert d == leibniz_det(m.entries)
        assert d != 0
        # golden from the oracle run: every generator has det t^2+1
        assert format_poly(d) == "t^2+1"


def test_determinant_matches_leibniz_on_seeded_ball_sample(ball2):
    # ball elements with their entries scaled by a random nonzero
    # scalar (det scales by its cube), and uniformly random entry tables,
    # some of them singular
    rng = random.Random(20261018)
    verts = ball_matrices(ball2)
    singular = 0
    for _ in range(500):
        m = verts[rng.randrange(len(verts))]
        lam = rng.randrange(1, 16)
        scaled = matrix(GF16, [[f16_mul(lam, e) for e in m.entries[r:r + 3]]
                               for r in (0, 3, 6)])
        d = determinant(scaled)
        assert d == leibniz_det(scaled.entries) != 0
        assert d == f16_mul(f16_mul(f16_mul(lam, lam), lam), determinant(m))
        entries = tuple(rng.randrange(16) for _ in range(9))
        d = determinant(matrix(GF16, [entries[0:3], entries[3:6], entries[6:9]]))
        assert d == leibniz_det(entries)
        singular += not d
    assert 0 < singular < 500


def test_normalize_scales_first_nonzero_to_one(table):
    raw = lsv_raw_matrices()
    m1 = table.matrices[0]
    assert m1.canonical
    assert m1.entries[0] == 1
    # golden: canonical M1 row 0, scaled by inv(t^3+t) = t^3+t^2
    assert m1.rows()[0] == ("1", "t^2+1", "t^3+t^2+t")
    lam = GF16.inv(raw[0].entries[0])
    assert lam == parse_poly("t^3+t^2")
    assert m1.entries == tuple(GF16.mul(lam, e) for e in raw[0].entries)
    # idempotent
    assert pgl_normalize(m1) == m1


def test_normalize_rejects_singular():
    singular = matrix(GF16, [["1", "0", "0"], ["1", "0", "0"], ["0", "0", "1"]])
    with pytest.raises(ValueError):
        pgl_normalize(singular)
    with pytest.raises(ValueError):
        pgl_inv(singular)


def test_scalar_multiples_normalize_identically(table):
    for m in lsv_raw_matrices():
        for lam in range(2, 16):
            scaled = matrix(GF16, [[GF16.mul(lam, e) for e in row] for row in
                                   ((m.entries[0:3]), (m.entries[3:6]), (m.entries[6:9]))])
            assert pgl_normalize(scaled) == pgl_normalize(m)


def test_pgl_inv_matches_adjugate_oracle(table, ball2):
    m1 = table.matrices[0]
    inv1 = pgl_inv(m1)
    assert inv1.entries == oracle_adjugate(m1.entries)
    for m in ball_matrices(ball2):
        assert pgl_inv(m).entries == oracle_adjugate(m.entries)
    # golden from the oracle run
    assert inv1.rows() == (
        ("1", "t^3+t^2", "t^3"),
        ("0", "t^2+t+1", "t^3+t^2"),
        ("t^3+t^2", "t^3+t^2", "t+1"),
    )
    for m in table.matrices:
        mi = pgl_inv(m)
        assert pgl_mul(m, mi) == identity(GF16)
        assert pgl_mul(mi, m) == identity(GF16)
        assert pgl_inv(mi) == m


def test_pgl_mul_associative_on_seeded_ball_sample(ball2):
    rng = random.Random(20260816)
    verts = ball_matrices(ball2)
    for _ in range(10_000):
        a, b, c = (verts[rng.randrange(len(verts))] for _ in range(3))
        assert pgl_mul(pgl_mul(a, b), c) == pgl_mul(a, pgl_mul(b, c))


def test_f16_oracle_is_a_field():
    # the oracle's own axioms, so it can stand on its own against gf2k
    for a in range(16):
        assert f16_mul(a, 1) == a and f16_mul(a, 0) == 0
        for b in range(16):
            assert f16_mul(a, b) == f16_mul(b, a) < 16
    assert all(f16_mul(a, f16_inv(a)) == 1 for a in range(1, 16))
    assert f16_mul(0b1000, 0b10) == 0b0011  # t^4 = t + 1


def test_pgl_mul_agrees_with_oracle(sym, ball2):
    mats = sym.matrices
    for a in mats:
        for b in mats:
            assert pgl_mul(a, b).entries == oracle_mul(a.entries, b.entries)
    rng = random.Random(7)
    verts = ball_matrices(ball2)
    for _ in range(2000):
        a = verts[rng.randrange(len(verts))]
        b = verts[rng.randrange(len(verts))]
        ab = pgl_mul(a, b)
        assert ab.canonical
        assert ab.entries == oracle_mul(a.entries, b.entries)


def test_mismatched_specs_rejected():
    with pytest.raises(ValueError):
        pgl_mul(identity(GF16), identity(GF2))


def test_field_above_table_degree_rejected():
    # t^9 + t^4 + 1 is irreducible, but fields stop at degree 8
    with pytest.raises(ValueError, match=r"1\.\.8, got 9"):
        FieldSpec(0b1000010001)


def test_matrix_input_validation():
    with pytest.raises(ValueError):
        matrix(GF16, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        matrix(GF16, [[16, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_generator_table_validation(table):
    with pytest.raises(ValueError):
        GeneratorTable("dup", GF16, (table.matrices[0], table.matrices[0]))
    with pytest.raises(ValueError):
        GeneratorTable("raw", GF16, (lsv_raw_matrices()[0],))


# ----------------------------------------------------------------------
# symmetrized set


def test_symmetrize_golden(sym):
    assert len(sym) == 14
    assert sym.inverses == {l: -l for l in sym.labels}
    assert sym.labels == (1, 2, 3, 4, 5, 6, 7, -1, -2, -3, -4, -5, -6, -7)
    ents = {m.entries for m in sym.matrices}
    assert len(ents) == 14
    assert IDENT not in ents
    by_label = dict(zip(sym.labels, sym.matrices))
    for lab in range(1, 8):
        assert pgl_mul(by_label[lab], by_label[-lab]) == identity(GF16)
    assert sym.inverse_label(3) == -3
    assert sym.inverse_label(-3) == 3


def test_symmetrize_empty_table():
    empty = GeneratorTable("none", GF16, ())
    assert len(symmetrize(empty)) == 0


# ----------------------------------------------------------------------
# Cayley balls


def second_bfs_distances(n, edges, start=0):
    # independent distance check over the plain edge list
    adj = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * n
    dist[start] = 0
    q = deque([start])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def test_ball_radius_zero(sym):
    b = cayley_ball(sym, 0)
    assert len(b) == 1
    assert ball_matrices(b) == [identity(GF16)]
    assert list(b.edges()) == []
    assert b.steps == ((-1,) * 14,)
    assert b.sphere_sizes() == (1,)


def test_ball_radius_one_golden(sym):
    b = cayley_ball(sym, 1)
    # 15 vertices; 14 spokes plus the 21 edges among the neighbors
    assert len(b) == 15
    assert len(list(b.edges())) == 35
    assert b.sphere_sizes() == (1, 14)


def test_ball_radius_two_golden(ball2):
    assert ball2.sphere_sizes() == (1, 14, 98)
    assert len(ball2) == 113
    assert len(list(ball2.edges())) == 343
    verts = ball_matrices(ball2)
    assert verts[0] == identity(GF16)
    assert len({m.entries for m in verts}) == 113


def test_ball_distances_against_second_bfs(ball2):
    assert list(ball2.dist) == second_bfs_distances(len(ball2), ball2.edges())


def test_ball_edge_labels_consistent(ball3):
    # pgl_mul is a second route to every edge, in both directions: the
    # ball multiplies each edge out once, from its lower end
    by_label = dict(zip(ball3.generators.labels, ball3.generators.matrices))
    edges = list(ball3.edges())
    assert len(edges) > 2 * len(ball3)
    verts = ball_matrices(ball3)
    for u, v, lab in edges:
        assert pgl_mul(verts[u], by_label[lab]) == verts[v]
        back = ball3.generators.inverse_label(lab)
        assert pgl_mul(verts[v], by_label[back]) == verts[u]


def test_sphere_sizes_against_word_enumeration_oracle(sym, ball3):
    # enumerate all products of length <= 3 with tuple-level arithmetic
    gens = [m.entries for m in sym.matrices]
    ball = {IDENT}
    frontier = [IDENT]
    levels = [1]
    for _ in range(3):
        nxt = set()
        for x in frontier:
            for g in gens:
                y = oracle_mul(x, g)
                if y not in ball:
                    nxt.add(y)
        ball |= nxt
        frontier = sorted(nxt)
        levels.append(len(nxt))
    # golden, and cross-checked against the BFS implementation
    assert levels == [1, 14, 98, 560]
    assert ball3.sphere_sizes() == (1, 14, 98, 560)
    assert {m.entries for m in ball_matrices(ball3)} == ball
    assert first_row_forms(ball) == {(1,): 646, (0, 1): 26, (0, 0, 1): 1}



def a2_shape_count(a, b, q=2):
    """Vertices of shape (a, b) from a fixed vertex of an A~2 building
    of order q, at graph distance a + b."""
    if a == b == 0:
        return 1
    if a == 0 or b == 0:
        return (q * q + q + 1) * q ** (2 * (a + b - 1))
    return (q * q + q + 1) * (q * q + q) * q ** (2 * (a + b - 2))


def test_sphere_sizes_in_closed_form(sym, ball3):
    # a second route for ball growth: up to radius 5 the ball is a ball
    # of the A~2 building of order 2, the shells the shape sums
    sizes = cayley_ball(sym, 5).sphere_sizes()
    assert sizes == tuple(
        sum(a2_shape_count(a, n - a) for a in range(n + 1)) for n in range(6)
    )
    assert sizes[2:] == tuple(14 * (3 * n + 1) * 4 ** (n - 2) for n in range(2, 6))
    assert sizes == (1, 14, 98, 560, 2912, 14336)
    assert ball3.sphere_sizes() == sizes[:4]

def test_ball_radius_four_matches_oracle_bfs(sym):
    ball = cayley_ball(sym, 4)
    gens = [m.entries for m in sym.matrices]
    order, dist, edges, collision = oracle_ball(gens, sym.labels, 4)
    assert len(order) == 3585
    assert [m.entries for m in ball_matrices(ball)] == order
    assert all(next(filter(None, m.entries)) == 1 for m in ball_matrices(ball))
    # the ball's products start from all three first-row forms of P^2
    assert first_row_forms(order) == {(1,): 3342, (0, 1): 232, (0, 0, 1): 11}
    assert list(ball.dist) == dist
    assert list(ball.edges()) == edges
    col = ball.collision
    assert col is not None and col.word_a != col.word_b
    assert (col.vertex, col.word_a, col.word_b) == collision
    for word in (col.word_a, col.word_b):
        # reduced: no generator next to its own inverse
        assert all(sym.inverse_label(a) != b for a, b in zip(word, word[1:]))
        assert oracle_word(dict(zip(sym.labels, gens)), word) == order[col.vertex]


@pytest.mark.parametrize(
    "modulus, count, radius",
    [
        (0b11, 2, 4),  # GF(2): every product leads with 1 already
        (0b111, 2, 4),  # GF(4)
        (0b1011, 3, 3),  # GF(8)
        (0b100011011, 2, 3),  # GF(256), the largest field
    ],
)
def test_ball_over_another_field_matches_plain_products(modulus, count, radius):
    # the first-row tables are indexed by k-bit entries, so a ball over a
    # field other than GF(16) is grown from the cyclic permutation and
    # seeded random generators, and compared with a plain BFS over
    # `_product`, the general kernel; the ball holds all three first-row
    # forms
    spec = FieldSpec(modulus)
    gens = random_generators(spec, count, seed=modulus)
    ball = cayley_ball(gens, radius)
    mul_rows, inv = spec.tables()
    order, dist, edges, collision = oracle_ball(
        [m.entries for m in gens.matrices],
        gens.labels,
        radius,
        mul=lambda x, y: projmat._product(mul_rows, inv, x, y),
    )
    assert len(order) > 1 + len(gens)
    assert [m.entries for m in ball_matrices(ball)] == order
    assert list(ball.dist) == dist
    assert list(ball.edges()) == edges
    col = ball.collision
    assert (col and (col.vertex, col.word_a, col.word_b)) == collision
    assert_collision_is_two_reduced_words(ball)
    # every vertex's entries fit in 9k bits
    assert max(ball.vertices) < 1 << 9 * spec.degree
    assert set(first_row_forms(order)) == {(1,), (0, 1), (0, 0, 1)}


@pytest.mark.parametrize(
    "picks, radius, sizes, collides",
    [
        # the full LSV set: the first collision is a triangle at the
        # identity, found while shell 1 is expanded
        (range(7), 1, (1, 14), True),
        (range(7), 2, (1, 14, 98), True),
        (range(7), 3, (1, 14, 98, 560), True),
        # two generators: a tree up to radius 5, so every back-edge the
        # ball skips is a parent edge; the first collision is at radius 6
        ((0, 1), 5, (1, 4, 12, 36, 108, 324), False),
        ((0, 1), 6, (1, 4, 12, 36, 108, 324, 948), True),
        # three generators: no collision until shell 2 is expanded
        ((0, 1, 2), 3, (1, 6, 30, 128), True),
    ],
)
def test_ball_and_collision_match_oracle_bfs(table, picks, radius, sizes, collides):
    sub = symmetrize(
        GeneratorTable("sub", GF16, tuple(table.matrices[j] for j in picks))
    )
    ball = cayley_ball(sub, radius)
    gens = [m.entries for m in sub.matrices]
    order, dist, edges, collision = oracle_ball(gens, sub.labels, radius)
    assert ball.sphere_sizes() == sizes
    assert [m.entries for m in ball_matrices(ball)] == order
    assert list(ball.dist) == dist
    assert list(ball.edges()) == edges
    assert (collision is not None) == collides
    col = ball.collision
    assert (col and (col.vertex, col.word_a, col.word_b)) == collision


def test_first_collision_found_from_its_lower_end(table):
    # a first collision is met on a step from u to a known w > u: had
    # w < u, w would have stepped to u already, unless u is w's parent,
    # and then u < w; so the ball, which steps to a known vertex only
    # from the lower end, reports the collision of the oracle BFS, which
    # takes every step, on every symmetrized subset of the LSV table and
    # on a table that holds a generator and its inverse
    g1 = table.matrices[0]
    tables = [GeneratorTable("pair", GF16, (g1, pgl_inv(g1), table.matrices[1]))]
    tables += [
        GeneratorTable("sub", GF16, picks)
        for k in range(1, 8)
        for picks in itertools.combinations(table.matrices, k)
    ]
    assert len(tables) == 128
    dims = set()
    for tbl in tables:
        sub = symmetrize(tbl)
        ball = cayley_ball(sub, 2)
        gens = [m.entries for m in sub.matrices]
        order, _, edges, collision = oracle_ball(gens, sub.labels, 2)
        assert list(ball.edges()) == edges
        col = ball.collision
        assert (col and (col.vertex, col.word_a, col.word_b)) == collision
        # the triangles walked from the identity are the clique search's,
        # and no table here has a 4-clique; every answer read from the
        # rows is the clique complex's, edges in no triangle included
        pairs = [(u, v) for u, v, _ in edges]
        cx = clique_complex(range(len(order)), pairs, max_dim=3)
        assert ball_complex(ball) == cx
        assert (ball.edge_count(), ball.triangle_count()) == (
            cx.simplex_count(1), cx.simplex_count(2)
        )
        everywhere = range(len(ball))
        assert sorted(ball.maximal_simplices(everywhere)) == sorted(cx.maximal_simplices())
        assert ball.identity_link() == link(cx, 0)
        dims.add(cx.dimension)
    assert dims == {1, 2}


def test_complex_refused_when_the_identity_lies_in_a_4_clique(table):
    # g1, g1^2, g1^3 and the identity are pairwise one step apart: the
    # flag complex has tetrahedra, which the translated triangles lack
    g1 = table.matrices[0]
    g2 = pgl_mul(g1, g1)
    sub = symmetrize(GeneratorTable("powers", GF16, (g1, g2, pgl_mul(g2, g1))))
    ball = cayley_ball(sub, 2)
    pairs = [(u, v) for u, v, _ in ball.edges()]
    assert clique_complex(range(len(ball)), pairs, max_dim=3).simplex_count(3) == 10
    # every answer read from the rows, and the engine's rows feeder,
    # refuse it alike
    refusals = [
        ball.chambers,
        lambda: list(ball.maximal_simplices([0])),
        ball.identity_link,
        lambda: ball_side(ball, sorted(ball.triangles())),
        lambda: panel_flip_check(ball, frozenset([0])),
        lambda: ball_complex(ball),
    ]
    for refused in refusals:
        with pytest.raises(ValueError, match="identity and labels 1, 2, 3 span a 4-clique"):
            refused()


def test_table_holding_a_generator_and_its_inverse(table):
    # the inverse labels come from the matrices: g1 and g1^-1 are each
    # other's inverse under their own labels, and only g2 gains one
    g1, g2 = table.matrices[0], table.matrices[1]
    sym = symmetrize(GeneratorTable("pair", GF16, (g1, pgl_inv(g1), g2)))
    assert sym.labels == (1, 2, 3, -3)
    by_label = dict(zip(sym.labels, sym.matrices))
    for lab in sym.labels:
        back = sym.inverse_label(lab)
        assert back in sym.labels and sym.inverse_label(back) == lab
        assert pgl_mul(by_label[lab], by_label[back]) == identity(GF16)
    ball = cayley_ball(sym, 3)
    gens = [m.entries for m in sym.matrices]
    order, dist, edges, collision = oracle_ball(gens, sym.labels, 3)
    assert ball.sphere_sizes() == (1, 4, 12, 36)
    assert [m.entries for m in ball_matrices(ball)] == order
    assert list(ball.dist) == dist
    assert list(ball.edges()) == edges
    assert ball.collision is None and collision is None
    stepped = {lab for row in ball.steps for lab, w in zip(sym.labels, row) if w >= 0}
    assert stepped == set(sym.labels)
    assert_collision_is_two_reduced_words(ball)
    assert sym.inverses == {1: 2, 2: 1, 3: -3, -3: 3}


def test_mislabelled_inverses_rejected(table):
    # the sign rule's labels for a table holding g and g^-1: the ball
    # refuses inverse labels that the matrices do not bear out
    g = table.matrices[0]
    gens = SymmetricGenerators(GF16, (g, pgl_inv(g)), (1, 2), {1: -1, -1: 1})
    with pytest.raises(ValueError, match="inverse labels wrong, at label 1"):
        cayley_ball(gens, 2)


def test_collision_report(ball2):
    col = ball2.collision
    assert col is not None
    # earliest collision: a generator equals a product of two others,
    # i.e. the 1-skeleton has triangles at the identity
    assert sorted((len(col.word_a), len(col.word_b))) == [1, 2]
    by_label = dict(zip(ball2.generators.labels, ball2.generators.matrices))

    def prod(word):
        acc = identity(GF16)
        for lab in word:
            acc = pgl_mul(acc, by_label[lab])
        return acc

    assert prod(col.word_a) == prod(col.word_b) == ball_matrices(ball2)[col.vertex]
    assert col.word_a != col.word_b


def assert_collision_is_two_reduced_words(ball):
    """The ball's collision, when it has one, is two distinct words with
    no label next to its inverse label, each multiplying out from the
    identity to the collision vertex."""
    col = ball.collision
    if col is None:
        return
    gens = ball.generators
    by_label = dict(zip(gens.labels, gens.matrices))
    assert col.word_a != col.word_b
    for word in (col.word_a, col.word_b):
        assert all(gens.inverse_label(a) != b for a, b in zip(word, word[1:]))
        acc = identity(gens.fieldspec)
        for lab in word:
            acc = pgl_mul(acc, by_label[lab])
        assert acc == ball_matrices(ball)[col.vertex]


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_lsv_collision_is_two_reduced_words(sym, radius):
    ball = cayley_ball(sym, radius)
    assert ball.collision is not None
    assert_collision_is_two_reduced_words(ball)


def test_subset_collisions_are_two_reduced_words(table):
    # every symmetrized subset of the LSV table at radius 2
    collided = 0
    for k in range(1, 8):
        for picks in itertools.combinations(table.matrices, k):
            ball = cayley_ball(symmetrize(GeneratorTable("sub", GF16, picks)), 2)
            collided += ball.collision is not None
            assert_collision_is_two_reduced_words(ball)
    assert collided == 71


def test_ball_vertex_symmetry_under_left_multiplication(ball2):
    # left multiplication by g at distance d maps B(2-d) into the ball,
    # preserving edges and their labels
    verts = ball_matrices(ball2)
    index = {m.entries: i for i, m in enumerate(verts)}
    by_label = dict(zip(ball2.generators.labels, ball2.generators.matrices))
    rng = random.Random(11)
    picks = rng.sample(range(len(verts)), 12)
    inner = {}
    for r_inner in (0, 1, 2):
        inner[r_inner] = [
            i for i, d in enumerate(ball2.dist) if d <= r_inner
        ]
    edge_set = {(u, v): lab for u, v, lab in ball2.edges()}
    for gi in picks:
        g = verts[gi]
        d = ball2.dist[gi]
        keep = inner[2 - d]
        img = {}
        for i in keep:
            gm = pgl_mul(g, verts[i])
            assert gm.entries in index, "left translate left the ball"
            img[i] = index[gm.entries]
        for (u, v), lab in edge_set.items():
            if u in img and v in img:
                a, b = img[u], img[v]
                if a < b:
                    assert edge_set.get((a, b)) == lab
                else:
                    back = ball2.generators.inverse_label(lab)
                    assert edge_set.get((b, a)) == back


def test_vertex_budget_enforced(sym):
    # shells 0 and 1 hold 15 vertices, so 50 runs out in shell 2
    with pytest.raises(BudgetExceededError) as exc:
        cayley_ball(sym, 2, vertex_budget=50)
    assert str(exc.value) == (
        "ball exceeds vertex budget 50 while growing shell 2 of radius 2: "
        "50 vertices built, 35 of them in shell 2"
    )
    # shells 0..3 hold 673 vertices, so 2000 runs out in shell 4
    with pytest.raises(BudgetExceededError) as exc:
        cayley_ball(sym, 9, vertex_budget=2000)
    assert str(exc.value) == (
        "ball exceeds vertex budget 2000 while growing shell 4 of radius 9: "
        "2000 vertices built, 1327 of them in shell 4"
    )
    # below one vertex, not even the identity fits
    for budget in (0, -1):
        with pytest.raises(BudgetExceededError) as exc:
            cayley_ball(sym, 0, vertex_budget=budget)
        assert str(exc.value) == f"vertex budget {budget} is below one vertex"
    # a budget that the whole ball fits is no error
    assert len(cayley_ball(sym, 2, vertex_budget=113)) == 113


def test_ball_json_and_dot_deterministic(sym):
    def to_json(ball):
        return json.dumps(ball_json_dict(ball), indent=2, sort_keys=True)

    a = cayley_ball(sym, 1)
    b = cayley_ball(sym, 1)
    assert to_json(a) == to_json(b)
    assert "".join(a.to_dot()) == "".join(b.to_dot())
    doc = json.loads(to_json(a))
    assert doc["vertex_count"] == 15
    assert doc["sphere_sizes"] == [1, 14]
    assert len(doc["edges"]) == 35
    assert doc["collision"] is None or isinstance(doc["collision"], dict)


# ----------------------------------------------------------------------
# projective plane


def test_projective_plane_points_count():
    assert len(proj_plane_points(GF16)) == 273
    assert len(set(proj_plane_points(GF16))) == 273
    assert len(proj_plane_points(GF2)) == 7  # Fano plane


def test_action_on_points_matches_oracle(sym):
    # a transposed action has the same orbit sizes, so check every image
    for m in sym.matrices:
        for p in proj_plane_points(GF16):
            assert projmat._act(m, p) == oracle_act(m.entries, p)


def test_projective_plane_single_orbit(sym):
    assert projective_plane_orbit(sym.matrices) == [273]


def small_orbit_diagonals():
    """diag(1, a, b) for a and b of order dividing 3 or 5 in GF(16)*,
    the identity aside: each point's orbit under a few of them is small."""
    mul_rows = GF16.tables()[0]
    roots = []
    for x in range(1, 16):
        powers = [1]
        for _ in range(5):
            powers.append(mul_rows[powers[-1]][x])
        if powers[3] == 1 or powers[5] == 1:
            roots.append(x)
    assert len(roots) == 7  # the cube roots and fifth roots of unity
    return [
        matrix(GF16, ((1, 0, 0), (0, a, 0), (0, 0, b)))
        for a in roots for b in roots if (a, b) != (1, 1)
    ]


def test_forward_orbits_match_inverse_closed_oracle(table):
    # every subset of the LSV table, and diagonal matrices alone and in
    # pairs, whose orbits are small and many
    sets = [
        picks for k in range(1, 8) for picks in itertools.combinations(table.matrices, k)
    ]
    diagonals = small_orbit_diagonals()
    sets += [(m,) for m in diagonals]
    sets += list(itertools.combinations(diagonals[::4], 2))
    for mats in sets:
        assert projective_plane_orbit(mats) == inverse_closed_plane_orbits(mats)
    assert projective_plane_orbit(diagonals[:1]) != [273]


def test_projective_plane_identity_fixes_everything():
    sizes = projective_plane_orbit([identity(GF16)])
    assert sizes == [1] * 273

import itertools
import random
import sys
import time
import tracemalloc

import pytest

import arithcx.autoeng as autoeng
from arithcx.autoeng import (
    VertexMap,
    VertexPermutation,
    _carried,
    _first_leaf,
    _graph,
    _leaf_ok,
    _reference,
    _root,
    _search,
    _star_side,
    _Side,
    _step_label,
    automorphism_order,
    automorphisms_fixing,
    ball_side,
    is_isomorphic,
    panel_flip_check,
    verify_permutation,
)
from arithcx.errors import CapExceededError
from arithcx.projmat import cayley_ball, lsv_generators, symmetrize
from arithcx.qlat import lift_coloring
from arithcx.scx import (
    Complex,
    chamber_count,
    clique_complex,
    color_chambers,
    fano_incidence_graph,
    induced_subcomplex,
    purity_report,
    star_vertices,
)
from oracles import (
    all_simplices,
    ball_complex,
    ball_graph,
    link,
    naive_automorphisms,
    naive_refine,
    random_coloring,
    random_graph,
    random_two_complex,
    relabel,
    searched_first_leaf,
)

K4_EDGES = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]
# opposite edges share a color: three perfect matchings of K4
K4_MATCHING_COLORS = {
    (0, 1): "A", (2, 3): "A",
    (0, 2): "B", (1, 3): "B",
    (0, 3): "C", (1, 2): "C",
}


def cycle(n):
    return Complex(range(n), [(i, (i + 1) % n) for i in range(n)])


def edge_colored_cycle():
    """The 4-cycle with its edges, the chambers, colored x, y, x, y."""
    return Complex(
        range(4),
        [(0, 1), (1, 2), (2, 3), (0, 3)],
        chamber_colors={(0, 1): "x", (1, 2): "y", (2, 3): "x", (0, 3): "y"},
    )


def engine_images(c):
    ids = sorted(c.vertices)
    grp = automorphisms_fixing(c, ())
    return sorted(tuple(p(v) for v in ids) for p in grp.perms)


@pytest.fixture(scope="module")
def ball2():
    return cayley_ball(symmetrize(lsv_generators()), 2)


@pytest.fixture(scope="module")
def ballcx(ball2):
    return ball_complex(ball2)


# ----------------------------------------------------------------------
# vertex maps


def test_vertex_map_basics():
    m = VertexMap({1: "a", 2: "b"})
    assert m(1) == "a" and m(2) == "b"
    assert m.domain() == (1, 2)
    assert m.apply_simplex((2, 1)) == ("a", "b")
    with pytest.raises(ValueError):
        VertexMap({1: "a", 2: "a"})


def test_vertex_permutation_basics():
    p = VertexPermutation({0: 1, 1: 0, 2: 2})
    assert not p.is_identity()
    assert p.moved() == (0, 1)
    assert p.compose(p).is_identity()
    assert p == VertexPermutation({1: 0, 0: 1, 2: 2})
    assert hash(p) == hash(VertexPermutation({1: 0, 0: 1, 2: 2}))
    with pytest.raises(ValueError):
        VertexPermutation({0: 1, 1: 2, 2: 3})  # not onto its domain
    q = VertexPermutation({0: 1, 1: 2, 2: 0})
    assert q.compose(VertexPermutation({1: 0, 2: 1, 0: 2})).is_identity()
    # compose applies the right factor first
    assert q.compose(p)(0) == q(p(0)) == q(1) == 2


def test_vertex_map_json_round_trip():
    p = VertexPermutation({0: 2, 2: 0, 5: 5})
    d = p.to_json_dict()
    assert d == {"mapping": [[0, 2], [2, 0], [5, 5]]}
    assert VertexPermutation(dict(d["mapping"])) == p


# ----------------------------------------------------------------------
# enumeration against the all-permutations filter


def test_engine_matches_naive_on_random_graphs():
    rng = random.Random(424)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7), rng.choice([0.2, 0.5, 0.8]))
        assert engine_images(g) == naive_automorphisms(g)


def test_engine_matches_naive_on_random_two_complexes():
    rng = random.Random(425)
    for _ in range(15):
        g = random_two_complex(rng, rng.randint(3, 6), 0.6, 0.7)
        assert engine_images(g) == naive_automorphisms(g)


def assert_colored_engine_matches_naive(c):
    expected = naive_automorphisms(c)
    assert engine_images(c) == expected
    assert automorphism_order(c).order == len(expected)


def test_engine_matches_naive_on_edge_colored_graphs():
    # edges are the chambers, so chamber colors become edge labels
    rng = random.Random(430)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 7), rng.uniform(0.3, 0.9))
        while g.dimension < 1:
            g = random_graph(rng, rng.randint(2, 7), rng.uniform(0.3, 0.9))
        c = random_coloring(rng, g, rng.choice((2, 3)))
        assert_colored_engine_matches_naive(c)


def test_engine_matches_naive_on_chamber_colored_two_complexes():
    rng = random.Random(431)
    for _ in range(30):
        g = random_two_complex(rng, rng.randint(3, 7), 0.7, 0.7)
        while g.dimension < 2:
            g = random_two_complex(rng, rng.randint(3, 7), 0.7, 0.7)
        c = random_coloring(rng, g, rng.choice((2, 3)))
        assert_colored_engine_matches_naive(c)


def joint_cells(ca, cb):
    cells: dict = {}
    for side, colors in (("a", ca), ("b", cb)):
        for v, col in enumerate(colors):
            cells.setdefault(col, set()).add((side, v))
    return {frozenset(cell) for cell in cells.values()}


def assert_refine_matches_naive(sa, sb, a, b):
    rank = {k: i for i, k in enumerate(sorted(set(sa.keys) | set(sb.keys)))}
    ca = [rank[k] for k in sa.keys]
    cb = [rank[k] for k in sb.keys]
    p = _root(sa, sb, {})
    naive = naive_refine(sa, sb, ca, cb)
    assert (p is None) == (naive is None)
    if p is not None:
        assert joint_cells(p.col_a, p.col_b) == joint_cells(*naive)
    # individualize (a, b): from scratch for the oracle, incrementally
    # from the equitable partition for the engine
    ca[a] = cb[b] = len(rank)
    naive = naive_refine(sa, sb, ca, cb)
    if p is None:
        assert naive is None
        return
    cell = p.individualize(a, b)
    ok = cell is not None and p.refine([cell])
    assert ok == (naive is not None)
    if ok:
        assert joint_cells(p.col_a, p.col_b) == joint_cells(*naive)


def test_refine_matches_naive_refine():
    rng = random.Random(432)
    for i in range(120):
        n = rng.randint(2, 8)
        if i % 2:
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        else:
            g = random_two_complex(rng, n, rng.uniform(0.4, 0.9), 0.7)
        colors = i % 3 != 0 and g.dimension >= 1
        if colors:
            g = random_coloring(rng, g, rng.choice((2, 3)))
        perm = dict(zip(range(n), rng.sample(range(n), n)))
        if i % 2:
            other = random_graph(rng, n, rng.uniform(0.2, 0.8))
        else:
            other = random_two_complex(rng, n, rng.uniform(0.4, 0.9), 0.7)
        if colors and other.dimension >= 1:
            other = random_coloring(rng, other, rng.choice((2, 3)))
        sa = _Side(g)
        a = rng.randrange(n)
        for b_complex, b in (
            (relabel(g, perm), perm[a]),  # isomorphic, a pair in one orbit
            (relabel(g, perm), rng.randrange(n)),  # isomorphic, any pair
            (other, rng.randrange(n)),  # independent, mostly not isomorphic
        ):
            assert_refine_matches_naive(sa, _Side(b_complex), a, b)


def test_matching_colored_k4_is_klein_four():
    k4 = Complex(range(4), K4_EDGES, chamber_colors=K4_MATCHING_COLORS)
    grp = automorphisms_fixing(k4, ())
    assert grp.order == 4 and grp.perms is not None
    images = sorted(tuple(p(v) for v in range(4)) for p in grp.perms)
    assert images == [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    assert images == naive_automorphisms(k4)
    # dropping the colors restores the full symmetric group
    assert automorphisms_fixing(Complex(range(4), K4_EDGES), ()).order == 24


def test_group_closure_on_k4():
    grp = automorphisms_fixing(Complex(range(4), K4_EDGES), ())
    perms = set(grp.perms)
    assert len(perms) == 24
    for p in grp.perms:
        assert VertexPermutation({p(v): v for v in p.domain()}) in perms
        for q in grp.perms:
            assert p.compose(q) in perms


def test_heawood_group_order_336():
    grp = automorphisms_fixing(fano_incidence_graph(), ())
    assert grp.order == 336
    assert len(grp.perms) == 336
    for p in grp.perms[:10]:
        assert verify_permutation(fano_incidence_graph(), p)


def test_single_vertex_and_empty():
    one = automorphisms_fixing(Complex([7]), ())
    assert one.order == 1 and one.perms[0].is_identity()
    empty = automorphisms_fixing(Complex([]), ())
    assert empty.order == 1 and empty.perms[0].domain() == ()


def test_enumeration_is_deterministic():
    g = fano_incidence_graph()
    a = automorphisms_fixing(g, ())
    b = automorphisms_fixing(g, ())
    assert a.perms == b.perms


def test_cap_exceeded():
    k6 = Complex(range(6), list(itertools.combinations(range(6), 2)))
    with pytest.raises(CapExceededError):
        automorphisms_fixing(k6, (), cap=10)
    assert automorphisms_fixing(k6, (), cap=720).order == 720


# ----------------------------------------------------------------------
# pointwise stabilizers


def test_fixing_c4_vertex():
    c4 = cycle(4)
    grp = automorphisms_fixing(c4, [0])
    images = sorted(tuple(p(v) for v in range(4)) for p in grp.perms)
    assert images == [(0, 1, 2, 3), (0, 3, 2, 1)]
    for p in grp.perms:
        assert verify_permutation(c4, p, fixed=[0])
    assert automorphisms_fixing(c4, [0, 1]).order == 1


def test_fixing_unknown_vertex_raises():
    with pytest.raises(ValueError):
        automorphisms_fixing(cycle(4), [9])


def test_fixing_matches_naive_filter():
    rng = random.Random(427)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 6), 0.5)
        fixed = [0]
        grp = automorphisms_fixing(g, fixed)
        ids = sorted(g.vertices)
        expected = [
            img for img in naive_automorphisms(g) if img[ids.index(0)] == 0
        ]
        assert sorted(tuple(p(v) for v in ids) for p in grp.perms) == expected


# ----------------------------------------------------------------------
# isomorphism witnesses


def test_relabeled_heawood_witness():
    hea = fano_incidence_graph()
    rng = random.Random(7)
    ids = sorted(hea.vertices)
    shuffled = list(ids)
    rng.shuffle(shuffled)
    relabel = dict(zip(ids, shuffled))
    other = Complex(
        shuffled,
        [tuple(sorted((relabel[u], relabel[v]))) for u, v in hea.simplices(1)],
    )
    w = is_isomorphic(hea, other)
    assert w is not None
    target = set(map(tuple, other.simplices(1)))
    assert all(w.apply_simplex(e) in target for e in hea.simplices(1))


def test_non_isomorphic_pairs():
    k33 = Complex(range(6), [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])
    assert is_isomorphic(cycle(6), k33) is None
    assert is_isomorphic(cycle(6), cycle(5)) is None


def test_isomorphism_with_required_pins():
    c5 = cycle(5)
    w = is_isomorphic(c5, c5, require={0: 2, 1: 3})
    assert w is not None and w(0) == 2 and w(1) == 3
    # 0 and 1 are adjacent, 0 and 2 are not: no rotation does this
    assert is_isomorphic(c5, c5, require={0: 0, 1: 2}) is None
    with pytest.raises(ValueError):
        is_isomorphic(c5, c5, require={0: 9})


def test_link_of_identity_is_heawood_shaped(ballcx):
    lk = link(ballcx, ballcx.vertices[0])
    w = is_isomorphic(lk, fano_incidence_graph())
    assert w is not None
    assert isinstance(w, VertexMap) and not isinstance(w, VertexPermutation)


# ----------------------------------------------------------------------
# verification


def test_verify_permutation_rejects_bad_maps():
    c4 = cycle(4)
    assert verify_permutation(c4, VertexPermutation({0: 0, 1: 1, 2: 2, 3: 3}))
    swap = VertexPermutation({0: 1, 1: 0, 2: 2, 3: 3})
    assert not verify_permutation(c4, swap)  # breaks edges (1,2)/(0,3)
    rot = VertexPermutation({0: 1, 1: 2, 2: 3, 3: 0})
    assert verify_permutation(c4, rot)
    assert not verify_permutation(c4, rot, fixed=[0])
    assert not verify_permutation(c4, VertexPermutation({0: 0, 1: 1}))
    # the rotation keeps every edge of the x,y,x,y 4-cycle but no edge
    # color; turning twice keeps both
    colored = edge_colored_cycle()
    assert verify_permutation(colored, rot.compose(rot))
    assert not verify_permutation(colored, rot)


def leaf_ok(sa, sb, images):
    """The engine's leaf check on the bijection i -> images[i], given as
    a search leaf gives it: its moves when a side is checked against
    itself, every vertex when the sides differ."""
    full = dict(enumerate(images))
    return _leaf_ok(sa, sb, full if sb is not sa else {a: b for a, b in full.items() if a != b})


def test_leaf_check_enforces_chamber_colors():
    # the leaf check must reject the rotation of the x,y,x,y 4-cycle on
    # its own, without the refinement that separates the edge colors
    side = _Side(edge_colored_cycle())
    assert not leaf_ok(side, side, [1, 2, 3, 0])
    assert leaf_ok(side, side, [2, 3, 0, 1])
    plain = _Side(cycle(4))
    assert leaf_ok(plain, plain, [1, 2, 3, 0])
    assert is_isomorphic(edge_colored_cycle(), cycle(4)) is None
    assert is_isomorphic(cycle(4), edge_colored_cycle()) is None
    # edges are checked as ordered pairs: (0, 1) lands on (1, 0), of the
    # same color, or (0, 2), color B, on an edge of color C
    k4 = _Side(Complex(range(4), K4_EDGES, chamber_colors=K4_MATCHING_COLORS))
    assert leaf_ok(k4, k4, [1, 0, 3, 2])
    assert not leaf_ok(k4, k4, [0, 1, 3, 2])
    assert not leaf_ok(k4, k4, [1, 0, 2, 3])


def test_leaf_check_compares_every_dimension_of_both_sides():
    # the hollow triangle has no 2-simplex to map onto the filled one's
    hollow = _Side(Complex(range(3), [(0, 1), (1, 2), (0, 2)]))
    filled = _Side(Complex(range(3), [(0, 1, 2)]))
    assert not leaf_ok(hollow, filled, [0, 1, 2])
    assert not leaf_ok(filled, hollow, [0, 1, 2])
    assert leaf_ok(filled, filled, [2, 0, 1])
    # an edge onto a non-edge, and every edge's image reversed
    path = _Side(Complex(range(3), [(0, 1), (1, 2)]))
    assert not leaf_ok(path, path, [0, 2, 1])
    assert leaf_ok(path, path, [2, 1, 0])
    solid = _Side(clique_complex(range(4), K4_EDGES, max_dim=3))
    assert 3 in solid.simplices and leaf_ok(solid, solid, [3, 1, 0, 2])
    # a solid and a hollow tetrahedron: swapping them keeps every edge
    # and triangle, and only the tetrahedron family rejects it
    both = _Side(
        Complex(range(8), [(0, 1, 2, 3), *itertools.combinations(range(4, 8), 3)])
    )
    assert leaf_ok(both, both, [1, 0, 2, 3, 4, 5, 7, 6])
    assert not leaf_ok(both, both, [4, 5, 6, 7, 0, 1, 2, 3])


def test_leaf_check_rejects_label_mismatch_both_ways():
    # the same simplices, colored on one side only: each direction fails
    for c in (
        Complex(range(3), [(0, 1, 2)]),
        Complex(range(3), [(0, 1), (1, 2), (0, 2)]),
        Complex(range(3)),
    ):
        colored = _Side(color_chambers(c, {t: "x" for t in c.chambers()}))
        plain = _Side(c)
        assert leaf_ok(colored, colored, [0, 1, 2])
        assert not leaf_ok(colored, plain, [0, 1, 2])
        assert not leaf_ok(plain, colored, [0, 1, 2])
    # colored vertices and a colored tetrahedron keep the sorting check
    points = _Side(color_chambers(Complex(range(3)), {(0,): "x", (1,): "y", (2,): "x"}))
    assert leaf_ok(points, points, [2, 1, 0])
    assert not leaf_ok(points, points, [1, 0, 2])
    k4 = clique_complex(range(4), K4_EDGES, max_dim=3)
    tet = _Side(color_chambers(k4, {(0, 1, 2, 3): "x"}))
    assert leaf_ok(tet, tet, [1, 2, 3, 0])
    assert not leaf_ok(tet, _Side(k4), [0, 1, 2, 3])


def test_enumeration_is_the_naive_group_in_a_repeatable_order():
    # perms come in search order: each is one automorphism, and a second
    # run lists them in the same order
    for c in (
        Complex([10, 8, 11, 9], [(8, 9), (9, 10), (10, 11), (8, 11)]),
        Complex([3, 1, 0, 2], K4_EDGES),
        edge_colored_cycle(),
        cycle(5),
    ):
        ids = sorted(c.vertices)
        runs = [
            [tuple(p(v) for v in ids) for p in automorphisms_fixing(c, ()).perms]
            for _ in range(2)
        ]
        assert len(runs[0]) > 1 and len(set(runs[0])) == len(runs[0])
        assert sorted(runs[0]) == naive_automorphisms(c)
        assert runs[0] == runs[1]


def test_vertex_maps_equal_by_dict_alone():
    a = VertexMap({0: 1, 1: 0, 2: 2})
    b = VertexPermutation({2: 2, 1: 0, 0: 1})
    assert a == b and b == a and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != VertexMap({0: 0, 1: 1, 2: 2})
    assert a.domain() == b.domain() == (0, 1, 2) and b.moved() == (0, 1)


# ----------------------------------------------------------------------
# order without enumeration


def assert_orbit_pruned(chain):
    # the chain's level of a witness is the first vertex it moves; each
    # witness must reach a vertex outside the orbit that the witnesses
    # found before it at that level already generate
    by_level: dict = {}
    for g in chain.generators:
        v = g.moved()[0]
        earlier = by_level.setdefault(v, [])
        orbit, frontier = {v}, [v]
        while frontier:
            x = frontier.pop()
            for h in earlier:
                if h(x) not in orbit:
                    orbit.add(h(x))
                    frontier.append(h(x))
        assert g(v) not in orbit
        earlier.append(g)


def test_chain_order_matches_enumeration():
    cases = [
        cycle(5),
        Complex(range(4), K4_EDGES),
        fano_incidence_graph(),
        Complex(range(4), K4_EDGES, chamber_colors=K4_MATCHING_COLORS),
    ]
    rng = random.Random(428)
    for _ in range(10):
        cases.append(random_graph(rng, rng.randint(1, 7), 0.5))
    for i in range(24):
        n = rng.randint(3, 7)
        g = random_graph(rng, n, 0.7) if i % 2 else random_two_complex(rng, n, 0.7, 0.7)
        if g.dimension < 1:
            continue
        cases.append(random_coloring(rng, g, rng.choice((1, 2))))
    for c in cases:
        ids = list(c.vertices)
        fixed_sets = [[], rng.sample(ids, min(len(ids), rng.randint(1, 2)))]
        for fixed in fixed_sets:
            chain = automorphism_order(c, fixed=fixed)
            enum = automorphisms_fixing(c, fixed)
            assert chain.order == enum.order
            assert chain.perms is None
            for p in chain.generators:
                assert verify_permutation(c, p, fixed=fixed)
            assert_orbit_pruned(chain)
            if len(ids) <= 7:
                at = {v: i for i, v in enumerate(sorted(ids))}
                naive = [
                    img
                    for img in naive_automorphisms(c)
                    if all(img[at[v]] == v for v in fixed)
                ]
                assert chain.order == len(naive)


def test_chain_order_with_colors_and_fixing():
    k4 = Complex(range(4), K4_EDGES, chamber_colors=K4_MATCHING_COLORS)
    assert automorphism_order(k4).order == 4
    assert automorphism_order(cycle(4), fixed=[0]).order == 2


def tree_chain(r, traced=True):
    """The orbit-stabilizer chain of the radius-r colored tree ball with
    ball(1) fixed, the number of witness entries it holds, and its
    tracemalloc peak in bytes (None when not traced)."""
    ball = lift_coloring(r)
    fixed = [v for v in range(ball.vertex_count()) if ball.dist[v] <= 1]
    cx = ball.to_complex()
    peak = None
    if traced:
        tracemalloc.start()
    try:
        grp = automorphism_order(cx, fixed=fixed)
        if traced:
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grp.order == 4 ** sum(6 * 5 ** (d - 1) for d in range(1, r))
    return grp, sum(len(g.moved()) for g in grp.generators), peak


def test_radius_four_tree_chain_work_is_pinned():
    # the search's node order fixes these counts; any change to the order
    # in which cells and candidates are tried shows up here
    grp, entries, _ = tree_chain(4)
    # each search's first-path guess is verified at once: one node each
    assert grp.stats == {
        "mode": "chain", "searches": 372, "nodes": 372, "first_leaf_misses": 0,
        "refine_scans": 2326,
    }
    # a witness holds the vertices it moves, not all 937
    assert entries == 2064


def test_radius_five_tree_chain_work_and_memory_are_pinned():
    grp, entries, peak = tree_chain(5)
    assert grp.stats == {
        "mode": "chain", "searches": 1872, "nodes": 1872, "first_leaf_misses": 0,
        "refine_scans": 12604,
    }
    # full witnesses would hold 1,872 x 4,687 entries
    assert entries == 14064
    assert peak < 8 * 2**20


def test_radius_six_tree_chain_within_ceiling():
    # 4^4686 on 23,437 vertices: 2.7 s on a shared 2-CPU host
    t0 = time.monotonic()
    grp, entries, _ = tree_chain(6, traced=False)
    elapsed = time.monotonic() - t0
    assert grp.stats == {
        "mode": "chain", "searches": 9372, "nodes": 9372, "first_leaf_misses": 0,
        "refine_scans": 65938,
    }
    assert entries == 89064
    assert elapsed < 60.0, f"the r = 6 tree chain took {elapsed:.1f}s >= 60s"


def engine_inputs(ball, colors=None):
    """The ball as the engine takes it, by both routes: its complex,
    colored by `colors` in sorted-chamber order, and its rows-fed side."""
    chambers = ball.chambers()
    cx = ball_complex(ball)
    if colors is not None:
        cx = color_chambers(cx, dict(zip(chambers, colors)))
    return {"complex": cx, "rows": ball_side(ball, chambers, colors)}


def test_radius_two_building_chain_work_is_pinned(ball2):
    # the building-side counterpart of the tree pin: uncolored, center
    # fixed, order 336 * 2^8
    for route, c in engine_inputs(ball2).items():
        grp = automorphism_order(c, fixed=[0])
        assert grp.order == 86016, route
        # the guess misses on all but one search, which then descends as
        # it would have without it
        assert grp.stats == {
            "mode": "chain", "searches": 14, "nodes": 101, "first_leaf_misses": 13,
            "refine_scans": 2020,
        }, route


def test_rigid_verdict_refines_one_side(ball3):
    # rigidity --colors 2 -r 3 --seed 5: the root is discrete, and each of
    # its 672 splitters is scanned once, not once per side
    rng = random.Random(5)
    colors = [rng.randrange(2) for _ in ball3.chambers()]
    for route, c in engine_inputs(ball3, colors).items():
        grp = automorphisms_fixing(c, [0])
        assert grp.order == 1, route
        assert grp.stats == {"mode": "enumerate", "nodes": 1, "refine_scans": 672}, route


@pytest.mark.parametrize("r", range(5))
def test_ball_side_matches_the_complex_side(r):
    # the rows feeder builds, slot by slot, the side that the generic
    # sweep builds from the ball's clique complex, uncolored and colored
    ball = cayley_ball(symmetrize(lsv_generators()), r)
    chambers = ball.chambers()
    assert chambers == list(ball_complex(ball).chambers())
    cases = [None]
    for seed in (0, 5):
        rng = random.Random(seed)
        cases.append([rng.randrange(2) for _ in chambers])
    for colors in cases:
        inputs = engine_inputs(ball, colors)
        want, got = _Side(inputs["complex"]), inputs["rows"]
        for slot in _Side.__slots__:
            assert getattr(got, slot) == getattr(want, slot), (colors is None, slot)
    with pytest.raises(ValueError, match="2 colors for 1 chambers"):
        ball_side(cayley_ball(symmetrize(lsv_generators()), 0), [(0,)], [0, 1])


def test_shared_refinement_skips_singleton_cells(monkeypatch, ball3):
    # with shared lists, refine groups the hits on every cell but the
    # singletons; two sides apart still group them all, and the root
    # comes out the same
    hits, dropped = autoeng._hits, []

    def checked(adj, splitter, col, end=None):
        out = hits(adj, splitter, col, end)
        if end is not None:
            every = hits(adj, splitter, col)
            assert out == {c: ts for c, ts in every.items() if end[c] - c > 1}
            dropped.append(len(every) - len(out))
        return out

    monkeypatch.setattr(autoeng, "_hits", checked)
    rng = random.Random(5)
    colors = [rng.randrange(2) for _ in ball3.chambers()]
    side, twin = (ball_side(ball3, ball3.chambers(), colors) for _ in range(2))
    shared, apart = _root(side, side, {0: 0}), _root(side, twin, {0: 0})
    assert shared.target_cell() is None and shared.scans == 672
    assert (shared.elems_a, shared.col_a, shared.end, shared.trail) == (
        apart.elems_b, apart.col_b, apart.end, apart.trail)
    assert len(dropped) == 672 and sum(dropped) > 0


def test_tree_enumeration_work_is_pinned():
    # the 4,096 automorphisms of the radius-2 tree ball fixing ball(1):
    # a node whose pair leaves the partition discrete is checked without
    # a refinement, and the witnesses hold only the vertices they move
    ball = lift_coloring(2)
    fixed = [v for v in range(ball.vertex_count()) if ball.dist[v] <= 1]
    grp = automorphisms_fixing(ball.to_complex(), fixed)
    assert grp.order == 4096
    assert grp.stats == {"mode": "enumerate", "nodes": 8191, "refine_scans": 8201}
    assert grp.perms[0].is_identity()
    assert sum(len(p.moved()) for p in grp.perms) == 49152


def assert_shared_partition_matches_unshared(c, fixed):
    """The root and the ordered search leaves are the same whether the
    partition of c against itself shares one set of lists or holds two
    equal sets, built from two _Side copies of c."""
    side, twin = _Side(c), _Side(c)
    lists = (side.elems[:], side.pos[:], side.col[:])
    require = {side.idx[v]: side.idx[v] for v in fixed}
    shared, apart = _root(side, side, require), _root(side, twin, require)
    assert shared.elems_b is shared.elems_a and apart.elems_b is not apart.elems_a
    root = (shared.elems_a, shared.col_a, shared.end)
    assert root == (apart.elems_a, apart.col_a, apart.end)
    assert root == (apart.elems_b, apart.col_b, apart.end)
    assert shared.scans * 2 == apart.scans
    # the first a != b pair gives side b lists of its own; undoing it
    # restores the partition and never touches the _Side's lists
    cell = shared.target_cell()
    if cell is not None:
        mark = len(shared.trail)
        a, b = sorted(shared.elems_a[cell : shared.end[cell]])[:2]
        shared.refine([shared.individualize(a, b)])
        assert shared.elems_b is not shared.elems_a
        shared.undo(mark)
        assert (shared.col_a, shared.end) == root[1:]
        assert (shared.col_b, shared.end) == root[1:]
        # back at the trail length that parted them, b shares a's lists
        assert shared.elems_b is shared.elems_a
    assert (side.elems, side.pos, side.col) == lists
    shared = _root(side, side, require)
    stats_shared: dict = {}
    stats_apart: dict = {}
    # shared leaves hold the vertices they move, apart ones every vertex
    leaves = list(_search(side, side, shared, len(shared.trail), stats_shared))
    full = [[m.get(i, i) for i in range(len(side.ids))] for m in leaves]
    apart_leaves = list(_search(side, twin, apart, len(apart.trail), stats_apart))
    assert full == [[m[i] for i in range(len(side.ids))] for m in apart_leaves]
    assert stats_shared == stats_apart
    assert (side.elems, side.pos, side.col) == lists
    return len(leaves)


def test_shared_partition_matches_unshared_on_building_balls(ball2, ballcx):
    ball1 = [v for v in ballcx.vertices if ball2.dist[v] <= 1]
    assert assert_shared_partition_matches_unshared(ballcx, ball1) == 256
    rng = random.Random(0)
    colored = color_chambers(ballcx, {t: rng.randrange(2) for t in ballcx.chambers()})
    assert assert_shared_partition_matches_unshared(colored, [0]) == 1
    assert assert_shared_partition_matches_unshared(colored, []) == 1


def test_shared_partition_matches_unshared_on_tree_ball():
    ball = lift_coloring(2)
    fixed = [v for v in range(ball.vertex_count()) if ball.dist[v] <= 1]
    assert assert_shared_partition_matches_unshared(ball.to_complex(), fixed) == 4**6


@pytest.fixture
def checked_first_leaf(monkeypatch):
    """Replaces the engine's _first_leaf by one that asserts that its
    answer is the search's first leaf; counts calls and guess misses."""
    tally = {"calls": 0, "first_leaf_misses": 0}

    def checked(sa, sb, p, pairs, stats):
        expected = searched_first_leaf(sa, sb, p, pairs)
        own: dict = {}
        leaf = _first_leaf(sa, sb, p, pairs, own)
        assert leaf == expected
        tally["calls"] += 1
        tally["first_leaf_misses"] += own.get("first_leaf_misses", 0)
        return leaf

    monkeypatch.setattr(autoeng, "_first_leaf", checked)
    return tally


@pytest.mark.parametrize("r, order", [(2, 4**6), (3, 4**36)], ids=["r2", "r3"])
def test_first_leaf_guess_is_the_search_first_leaf_on_tree_chains(
    r, order, checked_first_leaf
):
    ball = lift_coloring(r)
    fixed = [v for v in range(ball.vertex_count()) if ball.dist[v] <= 1]
    grp = automorphism_order(ball.to_complex(), fixed=fixed)
    assert grp.order == order
    assert checked_first_leaf == {"calls": grp.stats["searches"], "first_leaf_misses": 0}


def test_first_leaf_guess_is_the_search_first_leaf_on_building_chain(
    ballcx, checked_first_leaf
):
    grp = automorphism_order(ballcx, fixed=[0])
    assert grp.order == 86016
    assert checked_first_leaf == {"calls": 14, "first_leaf_misses": 13}


def test_first_leaf_guess_is_the_search_first_leaf_on_flip_stars(
    ball3, checked_first_leaf
):
    # the three choices at each of the 7 reference stars of lsv verify -r 3
    cx = ball_complex(ball3)
    rep = panel_flip_check(cx, ball_marks(ball3), steps=ball3.steps)
    assert rep.choices_satisfied == 1029 and rep.searches == 21
    assert checked_first_leaf["calls"] == 21


def test_search_depth_is_not_bounded_by_recursion_limit():
    # a perfect matching with one pair pinned: each search level splits
    # off one more edge, so the search path is about 1,200 levels deep
    n = 2400
    c = Complex(range(n), [(2 * i, 2 * i + 1) for i in range(n // 2)])
    assert n // 2 > sys.getrecursionlimit() - 100
    w = is_isomorphic(c, c, require={0: 1})
    assert w is not None and w(0) == 1 and w(1) == 0
    assert verify_permutation(c, w)


# ----------------------------------------------------------------------
# local flips at interior 3-chamber edges


def all_interior(c):
    return frozenset(c.vertices)


def three_page_book(colors=None):
    tris = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)]
    return Complex(range(5), edges + tris, chamber_colors=colors)


def test_panel_flips_on_plain_book():
    book = three_page_book()
    rep = panel_flip_check(book, all_interior(book))
    assert rep.edges_eligible == 1 and rep.edges_skipped == 6
    assert rep.choices_total == 3 and rep.choices_satisfied == 3
    assert rep.fraction == 1.0 and rep.failures == ()


def test_panel_flips_blocked_by_distinct_colors():
    book = three_page_book({(0, 1, 2): "r", (0, 1, 3): "g", (0, 1, 4): "b"})
    rep = panel_flip_check(book, all_interior(book))
    assert rep.fraction == 0.0 and len(rep.failures) == 3


def test_panel_flips_vacuous_on_tetrahedron():
    tet = Complex(
        range(4),
        list(itertools.combinations(range(4), 2))
        + list(itertools.combinations(range(4), 3)),
    )
    rep = panel_flip_check(tet, all_interior(tet))
    assert rep.edges_eligible == 0 and rep.edges_skipped == 6
    assert rep.fraction is None


def test_panel_flips_require_dimension_two():
    with pytest.raises(ValueError):
        panel_flip_check(cycle(4), all_interior(cycle(4)))


def test_panel_flip_thickness_is_the_interior_chamber_counts(ball2, ballcx):
    book = three_page_book()
    tet = Complex(range(4), list(itertools.combinations(range(4), 3)))
    # the interior edge (1, 5) hangs off the book's spine in no triangle
    tail = Complex(range(6), [*book.simplices(1), *book.simplices(2), (1, 5)])
    cases = [
        (ballcx, ball_marks(ball2), (3,)),
        (book, all_interior(book), (1, 3)),
        (tet, all_interior(tet), (2,)),
        (tail, all_interior(tail), (0, 1, 3)),
    ]
    for c, interior, expected in cases:
        counts = sorted(
            {chamber_count(c, e) for e in c.simplices(1) if interior.issuperset(e)}
        )
        assert list(panel_flip_check(c, interior).thickness) == counts
        assert counts == list(expected)
    carried = panel_flip_check(ballcx, cases[0][1], steps=ball2.steps)
    assert carried.thickness == (3,)


def test_panel_flips_on_radius_two_ball(ball2, ballcx):
    rep = panel_flip_check(ballcx, ball_marks(ball2))
    assert rep.edges_eligible == 35 and rep.edges_skipped == 0
    assert rep.choices_total == 105 and rep.choices_satisfied == 105
    assert rep.fraction == 1.0


def fresh_root_flips(c, interior):
    """panel_flip_check's colored verdicts with a fresh root per choice:
    one is_isomorphic call pinning the edge, the fixed apex and the swap."""
    satisfied, failures = 0, []
    for edge in c.simplices(1):
        if not interior.issuperset(edge):
            continue
        apexes = sorted(
            w for t in c.simplices(2) if set(edge) <= set(t) for w in t if w not in edge
        )
        if len(apexes) != 3:
            continue
        star = induced_subcomplex(c, star_vertices(c, edge))
        u, v = edge
        for f in apexes:
            j, k = (w for w in apexes if w != f)
            require = {u: u, v: v, f: f, j: k, k: j}
            if is_isomorphic(star, star, require=require):
                satisfied += 1
            else:
                failures.append((edge, f))
    return satisfied, tuple(failures)


def test_panel_flips_match_fresh_root_choices(ball2, ballcx):
    # each star's three choices share one root partition; the verdicts
    # must equal those of a fresh root with all five vertices pinned
    interior = ball_marks(ball2)
    cases = [(ballcx, interior)]
    rng = random.Random(440)
    for _ in range(2):
        colors = {t: rng.randrange(2) for t in ballcx.chambers()}
        cases.append((color_chambers(ballcx, colors), interior))
    for i in range(12):
        g = random_two_complex(rng, rng.randint(5, 8), 0.8, 0.8)
        if g.dimension == 2:
            g = random_coloring(rng, g, 2) if i % 2 else g
            cases.append((g, all_interior(g)))
    # swapping 2 and 3 moves the pendant edges (0, 5), (2, 5) only onto
    # (1, 6), (3, 6): every flip would have to swap the edge's own ends
    book = three_page_book()
    twisted = Complex(
        range(7), all_simplices(book, 1) + [(0, 5), (2, 5), (1, 6), (3, 6)]
    )
    cases.append((twisted, all_interior(twisted)))
    total_satisfied = total_failed = 0
    for c, interior in cases:
        rep = panel_flip_check(c, interior)
        satisfied, failures = fresh_root_flips(c, interior)
        assert (rep.choices_satisfied, rep.failures) == (satisfied, failures)
        assert rep.choices_total == satisfied + len(failures)
        total_satisfied += satisfied
        total_failed += len(failures)
    assert total_satisfied >= 20 and total_failed >= 20


@pytest.fixture(scope="module")
def ball3():
    return cayley_ball(symmetrize(lsv_generators()), 3)


def ball_marks(ball):
    return frozenset(i for i, d in enumerate(ball.dist) if d < ball.radius)


def flips_with_and_without(c, interior, steps):
    """panel_flip_check with the step map and without it; the two must
    agree choice by choice."""
    fast = panel_flip_check(c, interior, steps=steps)
    plain = panel_flip_check(c, interior)
    verdict = lambda r: (  # noqa: E731
        r.choices_satisfied, r.failures, r.edges_eligible, r.edges_skipped
    )
    assert verdict(fast) == verdict(plain)
    assert plain.searches == plain.choices_total
    return fast, plain


def test_transported_flips_on_uncolored_radius_two_ball(ball2, ballcx):
    fast, plain = flips_with_and_without(ballcx, ball_marks(ball2), ball2.steps)
    assert fast.choices_satisfied == 105
    # one searched reference edge per generator pair {g, g^-1}
    assert fast.searches == 21


def test_transported_flips_on_uncolored_radius_three_ball(ball3):
    # the lsv verify -r 3 inputs: the search count pins the work
    cx = ball_complex(ball3)
    # every 3-clique is an uncolored triangle: no labels to test
    assert _graph(cx)[1] is None
    fast, plain = flips_with_and_without(cx, ball_marks(ball3), ball3.steps)
    assert fast.choices_satisfied == 1029 and fast.failures == ()
    assert plain.searches == 1029
    assert fast.searches == 21


def test_transported_flips_rejected_by_one_recolored_chamber(ball3):
    # every chamber color 0 except one far from the identity: the stars
    # that hold it are not carried, and the search decides those edges
    cx = ball_complex(ball3)
    d = ball3.dist
    odd = next(t for t in cx.chambers() if [d[x] for x in t] == [2, 2, 3])
    colored = color_chambers(cx, {t: int(t == odd) for t in cx.chambers()})
    fast, _ = flips_with_and_without(colored, ball_marks(ball3), ball3.steps)
    assert len(fast.failures) >= 6
    assert 21 < fast.searches < fast.choices_total
    # 9 edges searched beyond the 7 references
    assert fast.searches == 48


def test_transported_flips_see_a_vertex_the_step_map_lacks(ball3):
    # a new vertex x joined to an edge (u, w) from shell 2 to shell 3:
    # the stars at u gain a vertex that no label reaches, and x blocks
    # every flip that moves w
    verts, edges = ball_graph(ball3)
    d, x = ball3.dist, len(verts)
    u, w = next((a, b) for a, b in edges if (d[a], d[b]) == (2, 3))
    cx = clique_complex([*verts, x], [*edges, (u, x), (w, x)], max_dim=3)
    fast, _ = flips_with_and_without(cx, ball_marks(ball3), ball3.steps)
    assert fast.failures
    assert 21 < fast.searches < fast.choices_total
    assert fast.searches == 33


@pytest.mark.parametrize("change", ["chord", "gap"])
def test_transported_flips_see_a_simplex_only_one_star_has(ball3, change):
    # a chord between two shell-3 neighbours of a shell-2 vertex, or a
    # gap where an edge between two shell-3 vertices was: the stars
    # around it keep their vertices but gain or lose simplices.  Only
    # tau^-1 sees a gained simplex, only tau a lost one.
    verts, edges = ball_graph(ball3)
    d = ball3.dist
    if change == "chord":
        nbrs = {v: set() for v in verts}
        for a, b in edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        chord = next(
            (a, b)
            for s in verts if d[s] == 2
            for a, b in itertools.combinations(sorted(w for w in nbrs[s] if d[w] == 3), 2)
            if b not in nbrs[a]
        )
        edges = [*edges, chord]
    else:
        gone = next((a, b) for a, b in edges if d[a] == d[b] == 3)
        edges = [e for e in edges if e != gone]
    cx = clique_complex(list(verts), edges, max_dim=2)
    fast, _ = flips_with_and_without(cx, ball_marks(ball3), ball3.steps)
    assert (fast.choices_satisfied, len(fast.failures)) == (1021, 8)
    assert fast.searches == 33


def test_transported_flips_see_a_hollow_chamber(ball3):
    # one chamber from shell 2 to shell 3 removed, its edges kept: the
    # stars that hold it have the same graph as their references, and
    # only the labels of the 3-cliques tell the hollow one apart
    verts, edges = ball_graph(ball3)
    cx = ball_complex(ball3)
    d = ball3.dist
    odd = next(t for t in cx.chambers() if [d[x] for x in t] == [2, 2, 3])
    hollow = Complex(verts, [*edges, *(t for t in cx.chambers() if t != odd)])
    # one 3-clique is not a triangle, so the labels are kept
    labels = _graph(hollow)[1]
    assert labels is not None and odd not in labels
    assert len(labels) == hollow.simplex_count(2) and set(labels.values()) == {""}
    fast, plain = flips_with_and_without(hollow, ball_marks(ball3), ball3.steps)
    assert fast.edges_eligible == 342
    assert (fast.choices_satisfied, len(fast.failures)) == (1010, 16)
    assert (fast.searches, plain.searches) == (45, 1026)


def test_carried_needs_a_bijection_onto_the_star():
    # two claws: u0 = 0 with leaves 1, 2, 3, and u = 10 with leaves 11-14
    edges = [(0, 1), (0, 2), (0, 3), (10, 11), (10, 12), (10, 13), (10, 14)]
    c = Complex([0, 1, 2, 3, 10, 11, 12, 13, 14], edges)
    # label k at position k - 1, its inverse at k + 3
    steps = [[-1] * 8 for _ in range(15)]
    for u, v in edges:
        steps[u][v % 10 - 1] = v
        steps[v][v % 10 + 3] = u
    graph = _graph(c)
    ref = _reference((0, 1), frozenset({0, 1, 2, 3}), steps, *graph, None)
    # the star in walk order, the steps as (parent position, label), the
    # upper end's position, the star's size, the edges as position pairs
    # and no 3-cliques
    assert ref[:6] == (
        [0, 1, 2, 3], [(0, 0), (0, 1), (0, 2)], 1, 4, [(0, 1), (0, 2), (0, 3)], []
    )
    star = frozenset({10, 11, 12, 13})
    assert _carried(ref, steps, 10, (10, 11), star, *graph) == {
        10: 0, 11: 1, 12: 2, 13: 3,
    }
    # tau is an isomorphism of the stars, but maps (0, 1) onto (10, 11),
    # not onto the edge asked about
    assert _carried(ref, steps, 10, (10, 12), star, *graph) is None
    # a star of the same size that tau does not map onto
    other = frozenset({10, 11, 12, 14})
    assert _carried(ref, steps, 10, (10, 11), other, *graph) is None
    # a step map without the label to 3: the walk reaches only 0, 1
    # and 2, and tau maps them onto {10, 11, 12} and the claw's edges
    # onto its edges, but the reference star has four vertices
    blind = [row[:] for row in steps]
    blind[0][2] = -1
    partial = _reference((0, 1), frozenset({0, 1, 2, 3}), blind, *graph, None)
    assert partial[0] == [0, 1, 2] and partial[3] == 4
    small = frozenset({10, 11, 12})
    assert _carried(partial, blind, 10, (10, 11), small, *graph) is None
    # a step map that sends two labels to one vertex: tau is onto the
    # smaller star {10, 11, 12} but not injective
    steps[10][2] = 12
    assert _carried(ref, steps, 10, (10, 11), small, *graph) is None


def test_carried_needs_the_edges_not_only_their_number():
    # a claw at 0 and a path 23 - 21 - 20 - 22: three edges each, no
    # 3-clique in either, and a step map that makes tau a bijection
    # from the claw onto the path's vertices; (0, 3) maps onto no edge
    edges = [(0, 1), (0, 2), (0, 3), (20, 21), (20, 22), (21, 23)]
    c = Complex([0, 1, 2, 3, 20, 21, 22, 23], edges)
    steps = [[-1] * 3 for _ in range(24)]
    steps[0], steps[20] = [1, 2, 3], [21, 22, 23]
    graph = _graph(c)
    ref = _reference((0, 1), frozenset({0, 1, 2, 3}), steps, *graph, None)
    # tau = [20, 21, 22, 23] is onto the path, whose edges are as many
    assert ref[1] == [(0, 0), (0, 1), (0, 2)] and ref[4] == [(0, 1), (0, 2), (0, 3)]
    path = frozenset({20, 21, 22, 23})
    assert _carried(ref, steps, 20, (20, 21), path, *graph) is None


def chamber_types(ball, c):
    """Each chamber's type: the unsigned generator labels of its three
    edges, one of the 7 lines of the Fano plane."""
    label = {(u, v): abs(lab) for u, v, lab in ball.edges()}
    return {
        t: frozenset(label[e] for e in itertools.combinations(t, 2))
        for t in c.chambers()
    }


def test_transported_flips_carry_failures_of_a_chamber_type_coloring(ball3):
    # a coloring by chamber type is invariant under left translation, so
    # every edge is carried, its failed choices with it
    cx = ball_complex(ball3)
    types = chamber_types(ball3, cx)
    assert len(set(types.values())) == 7
    first = min(types.values(), key=sorted)
    colored = color_chambers(cx, {t: int(ty == first) for t, ty in types.items()})
    fast, _ = flips_with_and_without(colored, ball_marks(ball3), ball3.steps)
    assert (fast.choices_satisfied, len(fast.failures)) == (147, 882)
    assert fast.searches == 21


def test_transported_flips_on_two_colored_radius_two_balls(ball2, ballcx):
    rng = random.Random(441)
    for _ in range(2):
        colored = color_chambers(
            ballcx, {t: rng.randrange(2) for t in ballcx.chambers()}
        )
        assert set(_graph(colored)[1].values()) == {"0", "1"}
        fast, _ = flips_with_and_without(colored, ball_marks(ball2), ball2.steps)
        assert fast.failures
        assert fast.searches > 21
        assert fast.searches == 105


def test_garbage_step_map_costs_searches_not_verdicts(ball2, ballcx):
    rng = random.Random(442)
    steps = [rng.sample(row, len(row)) for row in ball2.steps]
    fast, plain = flips_with_and_without(ballcx, ball_marks(ball2), steps)
    assert fast.searches == plain.searches


def interior_flip_edges(c, interior, steps):
    """Each interior edge with its sorted apexes, hop-1 star, and labels
    read from its lower and from its upper end."""
    for edge in c.simplices(1):
        if not interior.issuperset(edge):
            continue
        u, v = edge
        apexes = sorted(
            w for t in c.simplices(2) if set(edge) <= set(t) for w in t if w not in edge
        )
        assert len(apexes) == 3
        labels = (_step_label(steps, u, v), _step_label(steps, v, u))
        yield edge, apexes, star_vertices(c, edge), labels


def test_carried_star_conjugates_each_searched_flip(ball2, ballcx):
    # a second route for the carried verdicts: each flip sigma0 of the
    # reference star, found by is_isomorphic, conjugated by tau, is a
    # flip of the rebuilt star at the carried edge.  An edge whose
    # lower-end label has no reference is carried from the reference of
    # its upper-end label, with the ends swapped.
    c, marks, steps = ballcx, ball_marks(ball2), ball2.steps
    graph = _graph(c)
    refs: dict = {}
    carried = swapped = 0
    for edge, apexes, star, labels in interior_flip_edges(c, marks, steps):
        (u, v), (label, upper) = edge, labels
        start, key = (u, label) if label in refs else (v, upper)
        if key not in refs:
            ref = _reference(edge, star, steps, *graph, None)
            refs[label] = (edge, apexes, star, ref)
            continue
        (u0, v0), apexes0, star0, ref = refs[key]
        back = _carried(ref, steps, start, edge, star, *graph)
        assert back is not None
        assert back[start] == u0 and {back[u], back[v]} == {u0, v0}
        assert sorted(back[f] for f in apexes) == apexes0
        tau = {x: y for y, x in back.items()}
        star0cx = induced_subcomplex(c, star0)
        starcx = induced_subcomplex(c, star)
        for f in apexes:
            f0 = back[f]
            j0, k0 = (w for w in apexes0 if w != f0)
            sigma0 = is_isomorphic(
                star0cx, star0cx, require={u0: u0, v0: v0, f0: f0, j0: k0, k0: j0}
            )
            assert sigma0 is not None
            sigma = VertexPermutation({y: tau[sigma0(x)] for x, y in tau.items()})
            j, k = (w for w in apexes if w != f)
            assert (sigma(j), sigma(k)) == (k, j)
            assert verify_permutation(starcx, sigma, fixed=(u, v, f))
        carried += 1
        swapped += start == v
    assert (len(refs), carried, swapped) == (7, 28, 15)


def test_carried_from_the_upper_end_matches_fresh_searches(ball2, ballcx):
    # a chamber-type coloring fails most flips.  An edge (u, v) with
    # u * g^-1 = v is the left translate of the reference edge (0, g),
    # ends swapped: tau starts at v, and its carried verdicts must equal
    # a fresh search's, kept and failed alike
    types = chamber_types(ball2, ballcx)
    first = min(types.values(), key=sorted)
    c = color_chambers(ballcx, {t: int(ty == first) for t, ty in types.items()})
    marks, steps = ball_marks(ball2), ball2.steps
    graph = _graph(c)
    labels, inverse = ball2.generators.labels, ball2.generators.inverse_label
    refs: dict = {}
    verdicts = []
    for edge, apexes, star, (label, upper) in interior_flip_edges(c, marks, steps):
        u, v = edge
        assert labels[upper] == inverse(labels[label])
        if upper not in refs:
            side = _Side(induced_subcomplex(c, star))
            held = dict(zip(apexes, autoeng._star_flips(side, edge, apexes)))
            refs.setdefault(label, _reference(edge, star, steps, *graph, held))
            continue
        ref = refs[upper]
        back = _carried(ref, steps, v, edge, star, *graph)
        # the reference edge: the walk's first vertex and the upper end
        order, end = ref[0], ref[2]
        assert back is not None and {back[u], back[v]} == {order[0], order[end]}
        # started at the wrong end, tau maps the reference edge elsewhere
        assert _carried(ref, steps, u, edge, star, *graph) is None
        starcx = induced_subcomplex(c, star)
        for f in apexes:
            j, k = (w for w in apexes if w != f)
            fresh = is_isomorphic(starcx, starcx, require={u: u, v: v, f: f, j: k, k: j})
            verdicts.append((ref[-1][back[f]], fresh is not None))
    assert all(held == fresh for held, fresh in verdicts)
    assert len(verdicts) == 3 * 15
    assert {fresh for _, fresh in verdicts} == {True, False}


def flip_pass_stars(monkeypatch, c, interior):
    """The apexes and star the plain flip pass derives for each edge it
    would search, and its thickness; the searches are not made."""
    seen = {}

    def record(side, edge, apexes):
        seen[edge] = (apexes, frozenset(side.ids))
        return [True] * len(apexes)

    monkeypatch.setattr(autoeng, "_star_flips", record)
    return seen, panel_flip_check(c, interior).thickness


def test_flip_stars_and_apexes_match_the_incidence_index(monkeypatch, ball2, ball3):
    # the flip pass reads stars and apexes from `_graph`'s neighbour
    # tuples; star_vertices and incident_maximal read the complex's
    # incidence index, the oracle here
    cases = []
    for ball in (ball2, ball3):
        cx, marks = ball_complex(ball), ball_marks(ball)
        types = chamber_types(ball, cx)
        first = min(types.values(), key=sorted)
        typed = color_chambers(cx, {t: int(ty == first) for t, ty in types.items()})
        cases += [(cx, marks), (typed, marks)]
    book = three_page_book()
    tet = Complex(range(4), list(itertools.combinations(range(4), 3)))
    # the edge (2, 3) closes the 3-cliques (0, 2, 3) and (1, 2, 3), which
    # are not triangles, so the apexes must read the labels
    chorded = Complex(range(5), [*book.simplices(1), *book.simplices(2), (2, 3)])
    colored = three_page_book({(0, 1, 2): "r", (0, 1, 3): "g", (0, 1, 4): "b"})
    cases += [(g, all_interior(g)) for g in (book, tet, chorded, colored)]
    rng = random.Random(443)
    for i in range(12):
        g = random_two_complex(rng, rng.randint(5, 8), 0.8, 0.8)
        if g.dimension == 2:
            g = random_coloring(rng, g, 2) if i % 2 else g
            cases.append((g, all_interior(g)))
    assert _graph(cases[0][0])[1] is None and _graph(chorded)[1] is not None
    checked = 0
    for c, interior in cases:
        seen, thickness = flip_pass_stars(monkeypatch, c, interior)
        counts = set()
        for edge in c.simplices(1):
            if not interior.issuperset(edge):
                continue
            u, v = edge
            apexes = sorted(
                w for t in c.incident_maximal(u) if len(t) == 3 and v in t
                for w in t if w not in edge
            )
            counts.add(len(apexes))
            if len(apexes) == 3:
                assert seen.pop(edge) == (apexes, star_vertices(c, edge))
                checked += 1
        assert seen == {}
        assert thickness == tuple(sorted(counts))
    # 35 and 343 interior edges at r = 2 and 3, plain and typed, three
    # book spines, and 57 edges of the random complexes
    assert checked == 2 * (35 + 343) + 3 + 57


def test_step_map_inverts_each_edge(ball2):
    steps, gens = ball2.steps, ball2.generators
    labels = gens.labels
    back = [labels.index(gens.inverse_label(lab)) for lab in labels]
    assert {len(row) for row in steps} == {14}
    # the steps of every vertex short of the boundary stay in the ball
    assert all(-1 not in row for row, d in zip(steps, ball2.dist) if d < 2)
    assert sum(-1 in row for row in steps) == 98
    for u, row in enumerate(steps):
        for i, w in enumerate(row):
            if w >= 0:
                assert steps[w][back[i]] == u
    # each edge once, from its lower end, labelled by its generator there
    assert list(ball2.edges()) == sorted(
        (u, w, lab)
        for u, row in enumerate(steps)
        for w, lab in zip(row, labels)
        if w > u
    )


# ----------------------------------------------------------------------
# an outside oracle: networkx's VF2 matcher


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


def vf2_automorphism_count(nx, c, label=lambda v: None, edge_colors=False):
    """Automorphisms of c's 1-skeleton that keep every vertex label and,
    when edge_colors is set, every edge's chamber color."""
    g = nx.Graph()
    g.add_nodes_from((v, {"label": label(v)}) for v in c.vertices)
    g.add_edges_from(
        (u, v, {"color": c.chamber_colors[(u, v)] if edge_colors else None})
        for u, v in c.simplices(1)
    )
    same = lambda key: lambda x, y: x[key] == y[key]  # noqa: E731
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        g, g, node_match=same("label"), edge_match=same("color")
    )
    return sum(1 for _ in matcher.isomorphisms_iter())


def test_vf2_heawood_group(nx):
    hea = fano_incidence_graph()
    assert vf2_automorphism_count(nx, hea) == 336
    assert automorphisms_fixing(hea, ()).order == 336


def test_vf2_radius_one_building_ball_with_center_fixed(nx):
    # a clique complex: its automorphisms are those of its 1-skeleton
    ball = cayley_ball(symmetrize(lsv_generators()), 1)
    cx = ball_complex(ball)
    assert vf2_automorphism_count(nx, cx, label=lambda v: v == 0) == 336
    assert automorphisms_fixing(cx, [0]).order == 336
    assert automorphism_order(cx, fixed=[0]).order == 336


def test_vf2_colored_tree_with_inner_ball_fixed(nx):
    ball = lift_coloring(2)
    cx = ball.to_complex()
    fixed = [v for v in range(ball.vertex_count()) if ball.dist[v] <= 1]
    label = lambda v: v if ball.dist[v] <= 1 else None  # noqa: E731
    assert vf2_automorphism_count(nx, cx, label=label, edge_colors=True) == 4096
    assert automorphisms_fixing(cx, fixed).order == 4096


def vf2_hasse_automorphism_count(nx, c, center):
    """Automorphisms of c's Hasse diagram (a node per simplex, joined to
    its facets) that keep every node's dimension, the chamber colors and
    the center.  The 1-skeleton's edges join the vertex nodes as well:
    they follow from the diagram, and they let VF2++ prune early."""
    colors = c.chamber_colors or {}
    g = nx.Graph()
    for d in c.dims():
        for t in c.simplices(d):
            g.add_node(t, label=(d, colors.get(t), t == (center,)))
            g.add_edges_from((t, f) for f in itertools.combinations(t, d) if f)
    g.add_edges_from(((a,), (b,)) for a, b in c.simplices(1))
    return sum(1 for _ in nx.vf2pp_all_isomorphisms(g, g, node_label="label"))


def test_vf2_confirms_rigid_two_colorings(nx, ballcx):
    # criterion 6's colorings of the radius-2 ball for seeds 0, 1, 2
    for seed in range(3):
        rng = random.Random(seed)
        colored = color_chambers(
            ballcx, {t: rng.randrange(2) for t in ballcx.chambers()}
        )
        order = automorphisms_fixing(colored, [0]).order
        assert vf2_hasse_automorphism_count(nx, colored, 0) == order


def test_vf2_confirms_a_coloring_kept_by_a_witness(nx, ballcx):
    # positive control: alternate two colors over the chamber orbits of
    # the chain's last witness, which then keeps the coloring; the early
    # witnesses move more vertices and leave VF2++ far more to search
    witness = automorphism_order(ballcx, fixed=[0]).generators[-1]
    colors: dict = {}
    orbits = 0
    for t in ballcx.chambers():
        if t in colors:
            continue
        orbits += 1
        while t not in colors:
            colors[t] = orbits % 2
            t = witness.apply_simplex(t)
    colored = color_chambers(ballcx, colors)
    assert verify_permutation(colored, witness, fixed=[0])
    order = automorphisms_fixing(colored, [0]).order
    assert order >= 2
    assert vf2_hasse_automorphism_count(nx, colored, 0) == order


# ----------------------------------------------------------------------
# an outside oracle: sympy's Schreier-Sims


@pytest.fixture(scope="module")
def sympy_groups():
    return pytest.importorskip("sympy.combinatorics")


def assert_witnesses_generate_chain_order(groups, c, fixed):
    """The group that the chain's witnesses generate, ordered by
    Schreier-Sims, has the chain's order: the witnesses give the lower
    bound by another algorithm, the chain's failed searches the upper."""
    chain = automorphism_order(c, fixed=fixed)
    ids = sorted(c.vertices)
    at = {v: i for i, v in enumerate(ids)}
    gens = [groups.Permutation([at[g(v)] for v in ids]) for g in chain.generators]
    group = groups.PermutationGroup(gens or [groups.Permutation(len(ids) - 1)])
    assert group.order() == chain.order
    return chain.order


@pytest.mark.parametrize("r, order", [(2, 4**6), (3, 4**36)], ids=["r2", "r3"])
def test_schreier_sims_confirms_tree_chain(sympy_groups, r, order):
    ball = lift_coloring(r)
    fixed = [v for v in range(ball.vertex_count()) if ball.dist[v] <= 1]
    got = assert_witnesses_generate_chain_order(sympy_groups, ball.to_complex(), fixed)
    assert got == order


def test_schreier_sims_confirms_building_chains(sympy_groups, ballcx, ball3):
    assert assert_witnesses_generate_chain_order(sympy_groups, ballcx, [0]) == 86016
    cx3 = ball_complex(ball3)
    assert assert_witnesses_generate_chain_order(sympy_groups, cx3, [0]) == 336 * 2**17


# ----------------------------------------------------------------------
# lsv verify's row answers against the whole-ball complex


def flip_verdicts(rep):
    """Every PanelFlipReport field but the search count, which the step
    map exists to lower."""
    return (
        rep.edges_eligible, rep.edges_skipped, rep.choices_satisfied,
        rep.failures, rep.thickness,
    )


def assert_flip_routes_agree(ball, c, interior, plain=True):
    """panel_flip_check on the ball's rows, on the complex c with the
    steps and, when `plain`, with none: the rows route gives the steps
    route's report field for field, searches included, and a plain
    search per choice gives the same verdicts."""
    fast = panel_flip_check(c, interior, steps=ball.steps)
    if c.chamber_colors is None:
        assert panel_flip_check(ball, interior) == fast
    if plain:
        slow = panel_flip_check(c, interior)
        assert flip_verdicts(slow) == flip_verdicts(fast)
        assert slow.searches == slow.choices_total
    return fast


@pytest.mark.parametrize("r", range(5))
def test_row_answers_match_the_complex_route(r):
    # lsv verify reads every global answer from the rows; the ball's
    # clique complex answers each one by its own routine, uncolored and
    # with its chambers colored by type (invariant under translation,
    # so the colored stars are carried) and at random (searched)
    ball = cayley_ball(symmetrize(lsv_generators()), r)
    cx = ball_complex(ball)
    interior = ball_marks(ball)
    assert ball.edge_count() == cx.simplex_count(1)
    assert ball.triangle_count() == cx.simplex_count(2) == len(ball.triangles())
    everywhere = range(len(ball))
    assert sorted(ball.maximal_simplices(everywhere)) == sorted(cx.maximal_simplices())
    purity = purity_report(cx.maximal_simplices(), interior)
    assert purity_report(ball.maximal_simplices(interior), interior) == purity
    assert purity_report(ball.maximal_simplices(everywhere), interior) == purity
    if r == 0:
        for c in (ball, cx):
            with pytest.raises(ValueError, match="2-dimensional"):
                panel_flip_check(c, interior)
        assert purity.interior_maximal_by_dim == {}
        return
    types = chamber_types(ball, cx)
    first = min(types.values(), key=sorted)
    rng = random.Random(r)
    colorings = [
        color_chambers(cx, {t: int(ty == first) for t, ty in types.items()}),
        color_chambers(cx, {t: rng.randrange(2) for t in cx.chambers()}),
    ]
    # a search per choice costs 5 s uncolored at r = 4, and under the
    # random coloring, which no star carries, every route searches each
    # choice (2.5 s at r = 4): the slow test runs those
    lk, fano = ball.identity_link(), fano_incidence_graph()
    witness = is_isomorphic(lk, fano)
    assert witness is not None
    for c in (cx, *colorings):
        assert link(c, 0) == lk
        assert is_isomorphic(link(c, 0), fano) == witness
        assert sorted(c.maximal_simplices()) == sorted(ball.maximal_simplices(everywhere))
        assert purity_report(c.maximal_simplices(), interior) == purity
    if r == 4:
        colorings.pop()
    reports = [assert_flip_routes_agree(ball, cx, interior, plain=r <= 3)]
    reports += [assert_flip_routes_agree(ball, c, interior, plain=r <= 3) for c in colorings]
    if r >= 2:
        assert reports[0].searches == 21 and reports[0].thickness == (3,)
        assert all(rep.failures for rep in reports[1:])


@pytest.mark.slow
def test_row_flips_match_plain_searches_at_radius_four():
    ball = cayley_ball(symmetrize(lsv_generators()), 4)
    cx = ball_complex(ball)
    rng = random.Random(4)
    colored = color_chambers(cx, {t: rng.randrange(2) for t in cx.chambers()})
    for c in (cx, colored):
        assert_flip_routes_agree(ball, c, ball_marks(ball))


@pytest.mark.parametrize("r", [2, 3])
def test_star_side_from_rows_matches_the_induced_subcomplex(r):
    # the searched stars of the rows route are indexed from the rows,
    # slot by slot as _Side indexes the full subcomplex on the star
    ball = cayley_ball(symmetrize(lsv_generators()), r)
    cx, steps = ball_complex(ball), ball.steps
    nb, _ = _graph(cx)
    checked = 0
    for u, v in cx.simplices(1):
        if ball.dist[u] < r and ball.dist[v] < r:
            star = frozenset(nb[u] + nb[v])
            want, got = _Side(induced_subcomplex(cx, star)), _star_side(steps, star)
            for slot in _Side.__slots__:
                assert getattr(got, slot) == getattr(want, slot), slot
            checked += 1
    assert checked == {2: 35, 3: 343}[r]


def test_row_flips_need_full_interior_rows(ball2):
    # a vertex of the outer shell has steps off the ball: its star is cut
    outer = ball_marks(ball2) | {len(ball2) - 1}
    with pytest.raises(ValueError, match="off the ball"):
        panel_flip_check(ball2, outer)

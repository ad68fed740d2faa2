import random
from collections import Counter, deque
from itertools import combinations

import pytest

from arithcx.projmat import cayley_ball, lsv_generators, symmetrize
from oracles import (
    all_simplices,
    ball_graph,
    link,
    naive_chamber_count,
    naive_induced_subcomplex,
    naive_link,
)

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


@pytest.fixture(scope="module")
def ball2():
    return cayley_ball(symmetrize(lsv_generators()), 2)


@pytest.fixture(scope="module")
def ballcx(ball2):
    verts, edges = ball_graph(ball2)
    return clique_complex(verts, edges, max_dim=3)


def adjacency(c):
    """Each vertex's neighbours in c's 1-skeleton, sorted."""
    adj = {v: [] for v in c.vertices}
    for u, v in c.simplices(1):
        adj[u].append(v)
        adj[v].append(u)
    return {v: sorted(ns) for v, ns in adj.items()}


def graph_girth(vertices, adj):
    # shortest cycle via BFS from every vertex
    best = None
    for s in vertices:
        dist = {s: 0}
        parent = {s: None}
        q = deque([s])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    q.append(w)
                elif parent[u] != w:
                    cyc = dist[u] + dist[w] + 1
                    if best is None or cyc < best:
                        best = cyc
    return best


def is_bipartite(vertices, adj):
    color = {}
    for s in vertices:
        if s in color:
            continue
        color[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    q.append(w)
                elif color[w] == color[u]:
                    return False
    return True


# ----------------------------------------------------------------------
# basic construction


def test_constructor_closes_downward():
    closed = Complex([1, 2, 3], [(1, 2), (1, 3), (2, 3), (1, 2, 3)])
    # the faces of a given simplex are added, not required
    assert Complex([1, 2, 3], [(1, 2, 3)]) == closed
    with pytest.raises(ValueError):
        Complex([1, 2], [(1, 2), (1, 2, 3)])  # unknown vertex
    # the message names the first unknown vertex of the sorted simplex
    with pytest.raises(ValueError, match=r"^unknown vertex 3 in simplex \(1, 3, 5\)$"):
        Complex([1, 2], [(5, 1, 3)])
    # closure down to the vertices, including one in no simplex
    c = Complex([1, 2, 3, 4], [(3, 2, 1)])
    assert c.simplices(0) == ((1,), (2,), (3,), (4,))
    assert c.simplices(1) == ((1, 2), (1, 3), (2, 3))
    with pytest.raises(ValueError):
        Complex([1, 1], [])  # repeated vertex
    with pytest.raises(ValueError):
        Complex([1, 2], [(1, 1)])  # repeated vertex in a simplex
    with pytest.raises(ValueError, match="empty simplex"):
        Complex([1, 2], [(1, 2), ()])


def test_constructor_closes_a_tetrahedron():
    c = Complex(range(4), [(0, 1, 2, 3)])
    assert c.dimension == 3
    assert c.simplex_count(2) == 4
    assert c.simplex_count(1) == 6
    assert c.has_simplex((2, 0))
    assert not c.has_simplex((4,)) if 4 not in c.vertices else True


def test_simplices_sorted_once_and_reused():
    c = Complex(range(5), [(3, 1, 4), (0, 2, 1), (4, 2)])
    edges = c.simplices(1)
    assert edges == ((0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4))
    # one sort per dimension: later requests return the same tuple
    assert c.simplices(1) is edges
    assert c.simplices(7) == () and c.simplices(7) is c.simplices(7)
    assert c.dims() == (0, 1, 2) and c.simplices(2) == ((0, 1, 2), (1, 3, 4))
    assert all_simplices(c, 1) == list(edges) + [(0, 1, 2), (1, 3, 4)]
    assert c.chambers() is c.simplices(2)
    assert c.maximal_simplices() == ((2, 4), (0, 1, 2), (1, 3, 4))


def random_complex(rng, n: int) -> Complex:
    """The closure of a few random simplices of dimension 0-3 on n
    vertices listed in shuffled order: usually non-pure, with maximal
    edges and isolated vertices; sometimes chamber-colored."""
    verts = list(range(n))
    rng.shuffle(verts)
    maximal = [
        rng.sample(verts, rng.randrange(1, min(n, 4) + 1))
        for _ in range(rng.randrange(n + 1))
    ]
    c = Complex(verts, maximal)
    # the constructor closes downward: every face given explicitly
    # builds the same complex
    faces = {f for m in maximal for k in range(1, len(m) + 1) for f in combinations(m, k)}
    closed = Complex(verts, faces)
    assert c == closed and c.maximal_simplices() == closed.maximal_simplices()
    if rng.random() < 0.5:
        c = color_chambers(c, {t: rng.choice("xy") for t in c.chambers()})
    return c


def test_incidence_index_matches_whole_complex_scans():
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(300):
        c = random_complex(rng, rng.randrange(1, 9))
        pure = len({len(t) for t in c.maximal_simplices()}) == 1
        seen["pure" if pure else "non-pure"] += 1
        for v in c.vertices:
            assert c.incident_maximal(v) == tuple(
                t for t in c.maximal_simplices() if v in t
            )
            assert link(c, v) == naive_link(c, v)
        for t in all_simplices(c):
            assert chamber_count(c, t) == naive_chamber_count(c, t)
        for _ in range(4):
            keep = rng.sample(c.vertices, rng.randrange(len(c.vertices) + 1))
            sub = induced_subcomplex(c, keep)
            assert sub == naive_induced_subcomplex(c, keep)
            if c.chamber_colors is not None:
                seen["colors kept" if sub.chamber_colors else "colors dropped"] += 1
    # every case the index must get right came up
    assert min(seen.values()) >= 20 and len(seen) == 4, seen


def test_incident_maximal_unknown_vertex():
    c = Complex(range(3), [(0, 1), (2,)])
    assert c.incident_maximal(2) == ((2,),)
    with pytest.raises(ValueError, match="unknown vertex"):
        c.incident_maximal(7)


def test_clique_complex_small_graphs():
    tri = clique_complex([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    assert tri.dimension == 2
    assert tri.simplices(2) == ((0, 1, 2),)
    square = clique_complex("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert square.dimension == 1
    k4 = clique_complex(range(4), [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert k4.dimension == 3
    assert k4.simplices(3) == ((0, 1, 2, 3),)
    k4_trunc = clique_complex(
        range(4), [(i, j) for i in range(4) for j in range(i + 1, 4)], max_dim=2
    )
    assert k4_trunc.dimension == 2
    assert k4_trunc.simplex_count(2) == 4


def test_clique_complex_rejects_non_simple():
    with pytest.raises(ValueError, match="loop at 0"):
        clique_complex([0, 1], [(0, 0)])
    with pytest.raises(ValueError, match="repeated edge"):
        clique_complex([0, 1], [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="repeated edge"):
        clique_complex([0, 1], [(1, 0), (0, 1)])
    with pytest.raises(ValueError, match="repeated edge"):
        clique_complex([0, 1, 2], [(2, 1), (0, 1), (2, 1)])
    with pytest.raises(ValueError, match="unknown endpoint"):
        clique_complex([0, 1], [(0, 2)])
    with pytest.raises(ValueError, match="^repeated vertex id$"):
        clique_complex([0, 1, 2, 2], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="^repeated vertex id$"):
        clique_complex(["a", "a"], [])
    with pytest.raises(ValueError, match="max_dim"):
        clique_complex([0, 1], [(0, 1)], max_dim=0)


def brute_force_cliques(vertices, edges, max_dim):
    """dim -> the sorted cliques of dim+1 vertices, from every subset."""
    es = {frozenset(e) for e in edges}
    out = {}
    for k in range(1, max_dim + 2):
        found = [
            t
            for t in combinations(sorted(vertices), k)
            if all(frozenset(p) in es for p in combinations(t, 2))
        ]
        if found:
            out[k - 1] = tuple(found)
    return out


def test_clique_complex_matches_brute_force_enumeration():
    rng = random.Random(20261018)
    for trial in range(60):
        n = rng.randint(1, 9)
        ids = list(range(n)) if trial % 2 else [f"v{i}" for i in range(n)]
        rng.shuffle(ids)
        density = rng.random()
        edges = [
            (u, v) if rng.random() < 0.5 else (v, u)
            for u, v in combinations(ids, 2)
            if rng.random() < density
        ]
        rng.shuffle(edges)
        for max_dim in range(1, 5):
            cx = clique_complex(ids, edges, max_dim=max_dim)
            expect = brute_force_cliques(ids, edges, max_dim)
            assert cx.vertices == tuple(ids)
            assert cx.dims() == tuple(expect)
            for d, cliques in expect.items():
                assert cx.simplices(d) == cliques, (trial, max_dim, d)


def test_link_of_clique_complex_matches_neighbor_subgraph():
    # link(v) of a flag complex is the flag complex of the neighbor-
    # induced subgraph; checked on seeded random graphs
    rng = random.Random(1234)
    for trial in range(25):
        n = rng.randrange(4, 13)
        verts = list(range(n))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.45
        ]
        cx = clique_complex(verts, edges, max_dim=4)
        v = rng.randrange(n)
        lk = link(cx, v)
        nbrs = set(adjacency(cx)[v])
        sub_edges = [e for e in cx.simplices(1) if set(e) <= nbrs]
        if nbrs:
            expect = clique_complex(sorted(nbrs), sub_edges, max_dim=4)
            assert set(lk.vertices) == nbrs
            for d in range(1, 5):
                assert set(lk.simplices(d)) == set(expect.simplices(d))
        else:
            assert lk.vertices == ()


def test_link_unknown_vertex(ballcx):
    with pytest.raises(ValueError):
        link(ballcx, 10**9)


def test_chamber_count_examples():
    tri = clique_complex([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    assert chamber_count(tri, (0, 1)) == 1
    assert chamber_count(tri, (0, 1, 2)) == 1
    with pytest.raises(ValueError):
        chamber_count(tri, (0, 3))
    with pytest.raises(ValueError):
        chamber_count(tri, (0, 0))


def test_purity_tetrahedron_boundary():
    c = Complex(range(4), [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    rep = purity_report(c.maximal_simplices(), frozenset(c.vertices))
    assert rep.pure
    assert rep.dimension == 2
    assert rep.interior_maximal_by_dim == {2: 4}
    # every edge lies in exactly 2 of the 4 faces
    assert {chamber_count(c, e) for e in c.simplices(1)} == {2}


def test_purity_detects_isolated_vertex():
    c = Complex([0, 1, 2, 9], [(0, 1), (1, 2), (0, 2), (0, 1, 2)])
    rep = purity_report(c.maximal_simplices(), frozenset(c.vertices))
    assert not rep.pure
    assert rep.interior_maximal_by_dim == {0: 1, 2: 1}


# ----------------------------------------------------------------------
# chamber colors


def rebuilt_with_colors(c: Complex, assignment) -> Complex:
    """c colored the slow way: a new complex from every simplex of c."""
    return Complex(c.vertices, all_simplices(c, 1), chamber_colors=assignment)


def test_color_chambers_total_assignment():
    tri = clique_complex([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    total = "total assignment on the top-dimensional simplices"
    # the constructor validates a coloring as color_chambers does
    for color in (color_chambers, rebuilt_with_colors):
        colored = color(tri, {(0, 1, 2): "red"})
        assert colored.chamber_colors == {(0, 1, 2): "red"}
        # keys in any vertex order, or as sets, name the sorted chamber
        assert color(tri, {(2, 0, 1): "red"}).chamber_colors == {(0, 1, 2): "red"}
        assert color(tri, {frozenset(range(3)): "red"}).chamber_colors == {
            (0, 1, 2): "red"
        }
        with pytest.raises(ValueError, match=total):
            color(tri, {frozenset((0, 1)): "red"})
        with pytest.raises(ValueError, match=total):
            color(tri, {(1, 0): "red"})
        with pytest.raises(ValueError, match=total):
            color(tri, {})
        with pytest.raises(ValueError, match=total):
            color(tri, {(0, 1): "red"})
        with pytest.raises(ValueError, match=total):
            color(tri, {(0, 1, 2): "red", (0, 1): "blue"})
        with pytest.raises(ValueError, match="repeated vertex"):
            color(tri, {(0, 1, 1): "red"})


def test_a_chamber_colored_twice_is_rejected():
    # two vertex orders of one chamber would otherwise keep the last color
    tri = Complex(range(3), [(0, 1, 2)])
    edge = Complex(range(2), [(0, 1)])
    for color in (color_chambers, rebuilt_with_colors):
        with pytest.raises(ValueError, match=r"chamber \(0, 1, 2\) is colored twice"):
            color(tri, {(0, 1, 2): "x", (2, 1, 0): "y"})
        with pytest.raises(ValueError, match=r"chamber \(0, 1\) is colored twice"):
            color(edge, {(0, 1): "a", (1, 0): "b"})
        # a sorted key after an unsorted or set one, and the other way round
        for keys in [
            ((1, 0, 2), (0, 1, 2)),
            (frozenset(range(3)), (0, 1, 2)),
            ((0, 1, 2), frozenset(range(3))),
            (frozenset(range(3)), (2, 1, 0)),
        ]:
            with pytest.raises(ValueError, match=r"\(0, 1, 2\) is colored twice"):
                color(tri, dict(zip(keys, "xy")))


def test_color_chambers_matches_the_rebuilt_complex(ballcx):
    rng = random.Random(1415)
    cases = [ballcx, Complex(()), Complex(range(3))]
    cases += [random_complex(rng, rng.randrange(1, 9)) for _ in range(80)]
    for c in cases:
        before = c.chamber_colors
        # half the cases ask for the caches a coloring must carry over
        if rng.random() < 0.5:
            c.maximal_simplices(), c._local_index(), c.simplices(1)
        keys = [tuple(rng.sample(t, len(t))) for t in c.chambers()]
        assignment = {t: rng.choice("xyz") for t in keys}
        colored = color_chambers(c, assignment)
        expect = rebuilt_with_colors(c, assignment)
        assert colored == expect
        assert colored.chamber_colors == expect.chamber_colors
        assert list(colored.chamber_colors) == list(expect.chamber_colors)
        assert colored.dimension == expect.dimension
        assert colored.maximal_simplices() == expect.maximal_simplices()
        for d in range(-1, c.dimension + 2):
            assert colored.simplices(d) == expect.simplices(d)
        for v in c.vertices:
            assert colored.incident_maximal(v) == expect.incident_maximal(v)
        # the input keeps its own colors; the copy shares its structure
        assert c.chamber_colors is before
        assert colored.vertices is c.vertices
        assert colored.simplices(0) is c.simplices(0)


def test_seeded_two_coloring_of_ball_chambers_golden(ballcx):
    rng = random.Random(0)
    assign = {t: rng.randrange(2) for t in ballcx.chambers()}
    colored = color_chambers(ballcx, assign)
    sizes = Counter(colored.chamber_colors.values())
    # golden from the first oracle run, seed 0
    assert dict(sizes) == {0: 123, 1: 108}


# ----------------------------------------------------------------------
# LSV ball clique complex goldens


def test_ball_complex_goldens(ballcx):
    assert ballcx.dimension == 2
    assert ballcx.simplex_count(0) == 113
    assert ballcx.simplex_count(1) == 343
    assert ballcx.simplex_count(2) == 231  # golden
    assert ballcx.simplex_count(3) == 0  # no 4-cliques in the 1-skeleton


def test_triangle_count_equals_the_clique_complex_count():
    # the triangles translated from the identity are the clique search's
    sym = symmetrize(lsv_generators())
    counts = []
    for r in range(5):
        ball = cayley_ball(sym, r)
        verts, edges = ball_graph(ball)
        tris = ball.triangles()
        counts.append(len(tris))
        assert sorted(tris) == list(clique_complex(verts, edges).simplices(2))
    assert counts == [0, 21, 231, 1575, 8967]


def test_triangle_count_against_networkx():
    nx = pytest.importorskip("networkx")
    ball = cayley_ball(symmetrize(lsv_generators()), 3)
    verts, edges = ball_graph(ball)
    g = nx.Graph()
    g.add_nodes_from(verts)
    g.add_edges_from(edges)
    assert len(ball.triangles()) == sum(nx.triangles(g).values()) // 3 == 1575


def test_ball_triangles_against_adjacency_oracle(ball2, ballcx):
    verts, edges = ball_graph(ball2)
    adj = {v: set() for v in verts}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    tris = set()
    for u, v in edges:
        for w in adj[u] & adj[v]:
            tris.add(tuple(sorted((u, v, w))))
    assert set(ballcx.simplices(2)) == tris
    assert sorted(ball2.triangles()) == sorted(tris)


def test_ball_interior_thickness(ball2, ballcx):
    interior = frozenset(i for i, d in enumerate(ball2.dist) if d < 2)
    interior_edges = [e for e in ballcx.simplices(1) if interior.issuperset(e)]
    assert len(interior_edges) == 35  # 14 spokes + 21 link edges
    for e in interior_edges:
        assert chamber_count(ballcx, e) == 3


def test_ball_purity_report(ball2, ballcx):
    interior = frozenset(i for i, d in enumerate(ball2.dist) if d < 2)
    rep = purity_report(ballcx.maximal_simplices(), interior)
    assert rep.pure
    assert rep.dimension == 2
    assert rep.interior_maximal_by_dim == {2: 21}


def test_link_of_identity_shape(ballcx):
    lk = link(ballcx, 0)
    assert len(lk.vertices) == 14
    assert lk.simplex_count(1) == 21
    assert lk.dimension == 1
    adj = adjacency(lk)
    assert all(len(ns) == 3 for ns in adj.values())
    assert is_bipartite(lk.vertices, adj)
    assert graph_girth(lk.vertices, adj) == 6


def test_fano_incidence_graph_shape():
    g = fano_incidence_graph()
    assert len(g.vertices) == 14
    assert g.simplex_count(1) == 21
    adj = adjacency(g)
    assert all(len(ns) == 3 for ns in adj.values())
    assert is_bipartite(g.vertices, adj)
    assert graph_girth(g.vertices, adj) == 6


# ----------------------------------------------------------------------
# star and induced subcomplex


def test_star_and_induced(ballcx):
    w = star_vertices(ballcx, (0,))
    assert len(w) == 15
    sub = induced_subcomplex(ballcx, w)
    assert len(sub.vertices) == 15
    assert sub.simplex_count(1) == 35
    assert sub.simplex_count(2) == 21
    assert sub.vertices == tuple(v for v in ballcx.vertices if v in w)
    with pytest.raises(ValueError):
        induced_subcomplex(ballcx, [10**9])
    with pytest.raises(ValueError):
        star_vertices(ballcx, (0, 10**9))


def test_induced_keeps_total_chamber_colors():
    c = Complex(
        range(4),
        [(0, 1, 2), (1, 2, 3)],
    )
    colored = color_chambers(c, {(0, 1, 2): "x", (1, 2, 3): "y"})
    sub = induced_subcomplex(colored, [0, 1, 2])
    assert sub.chamber_colors == {(0, 1, 2): "x"}


def test_dot_export():
    c = Complex(
        [0, 1],
        [(0, 1)],
        chamber_colors={(0, 1): "A"},
    )
    dot = list(c.to_dot())
    assert '  "0" -- "1" [label="A"];\n' in dot

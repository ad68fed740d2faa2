"""End-to-end acceptance suite: eight checks, one test per check.

Each test prints one CRITERION line on success and enforces a pinned
runtime ceiling.  Expected values come from independent routes computed
here (cofactor expansion, all-permutations filters, BFS girth and
bipartiteness) or from goldens frozen off those routes; nothing is read
back from the code under test.
"""

import hashlib
import itertools
import random
import subprocess
import sys
import time

from oracles import ball_graph, link, naive_automorphisms, random_graph, random_two_complex

from arithcx.autoeng import (
    automorphism_order,
    automorphisms_fixing,
    is_isomorphic,
    panel_flip_check,
    verify_permutation,
)
from arithcx.gf2k import GF16
from arithcx.projmat import (
    cayley_ball,
    determinant,
    lsv_generators,
    projective_plane_orbit,
    symmetrize,
)
from arithcx.qlat import (
    color_automorphism_count,
    free_group_check,
    lift_coloring,
    norm5_generators,
    quotient_graph,
    ray_flip,
)
from arithcx.scx import (
    chamber_count,
    clique_complex,
    color_chambers,
    fano_incidence_graph,
    purity_report,
)


def _done(n: int, t0: float, ceiling: float, blurb: str) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < ceiling, f"criterion {n} took {elapsed:.1f}s >= {ceiling}s"
    print(f"CRITERION {n} PASS ({elapsed:.2f}s < {ceiling:.0f}s): {blurb}")


def _lsv_ball_complex(radius: int):
    ball = cayley_ball(symmetrize(lsv_generators()), radius)
    verts, edges = ball_graph(ball)
    return ball, clique_complex(verts, edges, max_dim=3)


# ----------------------------------------------------------------------


def test_criterion_1_gf16_field_axioms():
    t0 = time.monotonic()
    # an element is its bitmask: addition is XOR
    mul, inv = GF16.mul, GF16.inv
    els = range(GF16.size)
    zero, one = 0, 1
    assert len(els) == 16
    for a in els:
        assert a ^ zero == a
        assert mul(a, one) == a
        assert a ^ a == zero
        assert mul(a, zero) == zero
        if a:
            assert mul(a, inv(a)) == one
        for b in els:
            assert a ^ b == b ^ a
            assert mul(a, b) == mul(b, a)
            for c in els:
                assert (a ^ b) ^ c == a ^ (b ^ c)
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)
    t = 0b10
    assert mul(mul(mul(t, t), t), t) == t ^ one
    acc = one
    for _ in range(15):
        acc = mul(acc, t)
    assert acc == one
    _done(1, t0, 1.0, "GF(16) axioms exhaustive; t^4 = t+1 and t^15 = 1")


# ----------------------------------------------------------------------


def _cofactor_det(m):
    # direct 3x3 expansion; characteristic 2, so cofactor signs vanish
    mul = m.spec.mul

    def e(i, j):
        return m.entries[3 * i + j]

    def minor(c1, c2):
        return mul(e(1, c1), e(2, c2)) ^ mul(e(1, c2), e(2, c1))

    return (
        mul(e(0, 0), minor(1, 2))
        ^ mul(e(0, 1), minor(0, 2))
        ^ mul(e(0, 2), minor(0, 1))
    )


def test_criterion_2_generator_tables():
    t0 = time.monotonic()
    tbl = lsv_generators()
    assert len(tbl.matrices) == 7
    for m in tbl.matrices:
        d = determinant(m)
        assert bool(d)
        assert d == _cofactor_det(m)
    sym = symmetrize(tbl)
    assert len({m.encode() for m in sym.matrices}) == 14
    assert projective_plane_orbit(tbl.matrices) == [273]
    _done(2, t0, 10.0, "7 generators, nonzero cofactor-checked dets, "
          "14 distinct symmetrized, plane orbit [273]")


# ----------------------------------------------------------------------


def _adjacency(c):
    adj = {v: set() for v in c.vertices}
    for u, v in c.simplices(1):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _is_bipartite(adj):
    side = {}
    for s in adj:
        if s in side:
            continue
        side[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in side:
                    side[w] = side[u] ^ 1
                    queue.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def _girth(adj):
    best = None
    for s in adj:
        dist = {s: 0}
        parent = {s: None}
        queue = [s]
        while queue:
            u = queue.pop(0)
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cyc = dist[u] + dist[w] + 1
                    if best is None or cyc < best:
                        best = cyc
    return best


def test_criterion_3_building_ball_structure():
    t0 = time.monotonic()
    ball, cx = _lsv_ball_complex(2)
    interior = frozenset(i for i, d in enumerate(ball.dist) if d < 2)

    rep = purity_report(cx.maximal_simplices(), interior)
    assert rep.pure and rep.dimension == 2

    interior_edges = [t for t in cx.simplices(1) if interior.issuperset(t)]
    assert interior_edges
    assert all(chamber_count(cx, t) == 3 for t in interior_edges)

    lk = link(cx, 0)
    adj = _adjacency(lk)
    assert len(adj) == 14
    assert all(len(nb) == 3 for nb in adj.values())
    assert _is_bipartite(adj)
    assert _girth(adj) == 6
    assert is_isomorphic(lk, fano_incidence_graph()) is not None
    assert automorphisms_fixing(lk, ()).order == 336

    flips = panel_flip_check(cx, interior)
    assert flips.fraction == 1.0
    assert not flips.failures
    _done(3, t0, 120.0, "pure dim 2, interior thickness 3, link is the "
          "Fano incidence graph (|Aut| = 336), panel-flip fraction 1.0")


# ----------------------------------------------------------------------


def test_criterion_4_quaternion_suite():
    t0 = time.monotonic()
    gens = {q.coefficients() for q in norm5_generators()}
    assert gens == {
        (1, 2, 0, 0), (1, -2, 0, 0),
        (1, 0, 2, 0), (1, 0, -2, 0),
        (1, 0, 0, 2), (1, 0, 0, -2),
    }
    assert free_group_check(3) == {1: 6, 2: 30, 3: 150}
    qg = quotient_graph()
    assert len(qg.vertices) == 4
    assert len(qg.edges) == 12
    assert all(qg.degree(v) == 6 for v in qg.vertices)
    assert all(
        qg.parallel_count(u, v) == 2
        for u, v in itertools.combinations(qg.vertices, 2)
    )
    assert qg.simple_edges() == (
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    )
    _done(4, t0, 10.0, "norm-5 generators exact, word counts 6/30/150, "
          "quotient 4v/12e/deg 6/K4 with doubled edges")


# ----------------------------------------------------------------------


def test_criterion_5_tree_color_group_growth_and_flips():
    t0 = time.monotonic()
    c21 = color_automorphism_count(2, 1)
    assert c21.count == 4096
    assert c21.enumerated == 4096
    assert c21.chain_order == 4096

    c31 = color_automorphism_count(3, 1)
    assert c31.count == 4 ** 36
    assert c31.chain_order == c31.count
    assert c31.consistent

    c41 = color_automorphism_count(4, 1, check=False)
    assert c41.count == 4 ** 186
    assert c41.log2_count == 372

    assert c21.count < c31.count < c41.count

    ball = lift_coloring(3)
    cx = ball.to_complex()
    n = ball.vertex_count()
    eligible = [v for v in range(n) if ball.dist[v] < 3]
    assert len(eligible) == 37
    for v in eligible:
        flip = ray_flip(ball, v)
        assert not flip.is_identity()
        assert flip.compose(flip).is_identity()
        assert all(flip(u) == u for u in range(n) if ball.dist[u] <= ball.dist[v])
        assert verify_permutation(cx, flip)
    _done(5, t0, 300.0, "counts 4096 = 4^6 < 4^36 < 4^186 (enumerated, "
          "chained, formula), verified involution flips at all 37 sites")


# ----------------------------------------------------------------------


def test_criterion_6_rigidity_contrast():
    t0 = time.monotonic()
    _, cx = _lsv_ball_complex(2)
    chambers = cx.chambers()
    trivial = 0
    for seed in range(100):
        rng = random.Random(seed)
        colored = color_chambers(cx, {t: rng.randrange(2) for t in chambers})
        grp = automorphisms_fixing(colored, [0])
        trivial += grp.order == 1
    assert trivial >= 95

    plain = automorphism_order(cx, fixed=[0]).order
    assert plain >= 2
    _done(6, t0, 600.0, f"2-color group trivial for {trivial}/100 seeds; "
          f"1-color group order {plain}")


# ----------------------------------------------------------------------


def _engine_images(c):
    ids = sorted(c.vertices)
    grp = automorphisms_fixing(c, ())
    assert grp.perms is not None
    return sorted(tuple(p(v) for v in ids) for p in grp.perms)


def test_criterion_7_engine_matches_naive_oracle():
    t0 = time.monotonic()
    rng = random.Random(90907)
    for _ in range(200):
        c = random_graph(rng, rng.randint(1, 8), rng.uniform(0.2, 0.8))
        assert _engine_images(c) == naive_automorphisms(c)
    for _ in range(50):
        c = random_two_complex(
            rng, rng.randint(1, 7), rng.uniform(0.3, 0.9), rng.uniform(0.3, 0.9)
        )
        assert _engine_images(c) == naive_automorphisms(c)
    _done(7, t0, 60.0, "engine equals the all-permutations filter on "
          "200 graphs and 50 two-complexes")


# ----------------------------------------------------------------------

_CLI = (sys.executable, "-m", "arithcx.cli")

# sha256 of each config's stdout, pinned from a known-good build, so a
# change to any report byte fails here, not only a non-deterministic one
_CONFIGS = {
    ("lsv", "verify", "--radius", "2"):
        "5e2da16d83d3947e67f8a021cf1c61182f4d6458a503b292c2976d92f846a501",
    ("lsv", "ball", "--radius", "1"):
        "d203160a98090d3883d08810a3e9f6a84f73036df22ae3767b5e3b2825802ac4",
    ("lsv", "ball", "--radius", "1", "--format", "dot"):
        "09413d508b0610e07648ea54909a0483ef9d0f72b4db83a4837367b063e7d721",
    ("tree", "experiment", "--r", "2", "--s", "1"):
        "763a148f4ba7901a63f1274bad428952a2b6a0194910c258ab12a79c1b975829",
    ("tree", "quotient"):
        "8ca89bda9a63609e6c76b21f7331711e8719b885c1084460c6e79c343d48d3f5",
    ("tree", "quotient", "--format", "dot"):
        "00d9f93dbd3d0dc4057fa525ab24e8e4613e798182c725e4ae21a3dfe0dacbef",
    ("tree", "flip", "--r", "3", "--s", "1"):
        "01b517fbbc453eee6f9be84e7ec3b0f011420387f980575eb8c6d18aabda0910",
    ("rigidity", "--colors", "2", "--seed", "0", "--radius", "2"):
        "529eba1d784a0f533853112577ba8889259d3e35a07f3a063e0aa0e94634866c",
    ("rigidity", "--colors", "1", "--radius", "2"):
        "7db3c01d8950cc03be82a863a839ce8a2ee19b8069832ae9883131abec24e95f",
}


def test_criterion_8_cli_reports_byte_identical():
    t0 = time.monotonic()
    for argv, digest in _CONFIGS.items():
        first = subprocess.run(_CLI + argv, capture_output=True)
        second = subprocess.run(_CLI + argv, capture_output=True)
        assert first.returncode == 0, argv
        assert second.returncode == 0, argv
        assert first.stdout == second.stdout, argv
        assert first.stdout
        assert hashlib.sha256(first.stdout).hexdigest() == digest, argv
    elapsed = time.monotonic() - t0
    print(f"CRITERION 8 PASS ({elapsed:.2f}s): {len(_CONFIGS)} command "
          "configs re-run byte-identically and match their pinned digests")

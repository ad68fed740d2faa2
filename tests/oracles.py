"""Slow, independent reference implementations used to pin expected values."""

import itertools
import random
from collections import Counter

from arithcx.autoeng import _search
from arithcx.gf2k import format_poly
from arithcx.projmat import (
    GeneratorTable,
    ProjMatrix,
    _act,
    determinant,
    matrix,
    pgl_inv,
    pgl_normalize,
    proj_plane_points,
    symmetrize,
)
from arithcx.scx import Complex


def all_simplices(c: Complex, min_dim: int = 0) -> list[tuple]:
    """Every simplex of c of dimension >= min_dim, by dimension, each
    dimension in `simplices(d)` order."""
    return [t for d in c.dims() if d >= min_dim for t in c.simplices(d)]


def naive_automorphisms(c: Complex) -> list[tuple]:
    """Filter all |V|! candidate bijections, keeping the chamber colors
    when c has them; exact but tiny-only.

    Returns the sorted image tuples over sorted(vertices).
    """
    ids = sorted(c.vertices)
    out = []
    for image in itertools.permutations(ids):
        m = dict(zip(ids, image))
        ok = True
        for d in c.dims():
            if d < 1:
                continue
            fam = set(c.simplices(d))
            for t in fam:
                if tuple(sorted(m[v] for v in t)) not in fam:
                    ok = False
                    break
            if not ok:
                break
        if ok and c.chamber_colors is not None:
            ok = all(
                c.chamber_colors.get(tuple(sorted(m[v] for v in t))) == col
                for t, col in c.chamber_colors.items()
            )
        if ok:
            out.append(tuple(m[v] for v in ids))
    return sorted(out)


def inverse_closed_plane_orbits(mats) -> list[int]:
    """Orbit sizes on P^2 of the group the matrices generate, descending,
    by a closure under the matrices and their inverses alike."""
    action = list(mats) + [pgl_inv(m) for m in mats]
    pts = proj_plane_points(action[0].spec)
    seen: set = set()
    sizes = []
    for p in pts:
        if p in seen:
            continue
        orbit = {p}
        frontier = [p]
        while frontier:
            x = frontier.pop()
            for m in action:
                y = _act(m, x)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        sizes.append(len(orbit))
    return sorted(sizes, reverse=True)


def ball_graph(ball) -> tuple[range, list[tuple[int, int]]]:
    """A Cayley ball's vertex indices and its unlabelled edges (u, v),
    u < v, sorted."""
    return range(len(ball)), [(u, v) for u, v, _ in ball.edges()]


def ball_complex(ball) -> Complex:
    """A Cayley ball's clique complex, built from its edges and its
    translated triangles (`CayleyBall.triangles`): the whole-ball complex
    whose questions `lsv verify` answers from the rows.  ValueError when
    the identity lies in a 4-clique, whose tetrahedra it would lack."""
    ball._refuse_4_cliques()
    edges = [(u, v) for u, v, _ in ball.edges()]
    return Complex(range(len(ball)), edges + ball.triangles())


def link(c: Complex, v) -> Complex:
    """The link of a vertex: all simplices s with s + {v} in c, the
    complex generated by m - {v} over the maximal simplices m at v, read
    from c's incidence index; chamber colors are dropped.  The oracle of
    `CayleyBall.identity_link`."""
    rests = [tuple(x for x in t if x != v) for t in c.incident_maximal(v)]
    return Complex(c._in_order({x for r in rests for x in r}), [r for r in rests if r])


def naive_chamber_count(c: Complex, s) -> int:
    """Chambers containing s, by a scan of every chamber."""
    if not c.has_simplex(s):
        raise ValueError(f"unknown simplex {s!r}")
    ts = set(s)
    return sum(1 for ch in c.chambers() if ts.issubset(ch))


def naive_link(c: Complex, v) -> Complex:
    """The link of v, by a scan of every simplex for those holding v."""
    if v not in set(c.vertices):
        raise ValueError(f"unknown vertex {v!r}")
    nbrs = {x for e in c.simplices(1) if v in e for x in e if x != v}
    keep = [u for u in c.vertices if u in nbrs]
    simplices = []
    for t in all_simplices(c, 1):
        if v in t:
            rest = tuple(x for x in t if x != v)
            if rest:
                simplices.append(rest)
    return Complex(keep, simplices)


def naive_induced_subcomplex(c: Complex, vertices) -> Complex:
    """The full subcomplex on vertices, by a scan of every simplex for
    those inside the set; chamber colors kept only when every chamber of
    the result is a colored chamber of c."""
    keep = set(vertices)
    unknown = keep - set(c.vertices)
    if unknown:
        raise ValueError(f"unknown vertices {unknown!r}")
    verts = tuple(v for v in c.vertices if v in keep)
    simplices = [t for t in all_simplices(c, 1) if keep.issuperset(t)]
    sub = Complex(verts, simplices)
    if c.chamber_colors is not None:
        retained = {
            t: c.chamber_colors[t] for t in sub.chambers() if t in c.chamber_colors
        }
        if len(retained) == len(sub.chambers()):
            sub = Complex(verts, simplices, chamber_colors=retained)
    return sub


def random_graph(rng, n: int, p: float) -> Complex:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Complex(range(n), edges)


def random_two_complex(rng, n: int, p: float, pt: float) -> Complex:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    es = set(map(tuple, edges))
    tris = [
        t
        for t in itertools.combinations(range(n), 3)
        if {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])} <= es and rng.random() < pt
    ]
    return Complex(range(n), edges + tris)


def random_coloring(rng, c: Complex, k: int) -> Complex:
    """c with each chamber given one of k colors."""
    palette = "ABC"[:k]
    return Complex(
        c.vertices,
        all_simplices(c, 1),
        chamber_colors={t: rng.choice(palette) for t in c.chambers()},
    )


def relabel(c: Complex, perm: dict) -> Complex:
    """c with every vertex v renamed perm[v], colors carried along."""

    def image(t):
        return tuple(sorted(perm[v] for v in t))

    return Complex(
        [perm[v] for v in c.vertices],
        [image(t) for t in all_simplices(c, 1)],
        chamber_colors=None
        if c.chamber_colors is None
        else {image(t): col for t, col in c.chamber_colors.items()},
    )


def labelled_edges(side) -> list[list[tuple[str, int]]]:
    """Each vertex's (edge label, neighbor) pairs, rebuilt from an engine
    side's labelled edge family: the label is the edge's chamber color
    when edges are the colored chambers, else ""."""
    nbrs: list[list[tuple[str, int]]] = [[] for _ in side.ids]
    for (u, v), label in side.simplices.get(1, {}).items():
        nbrs[u].append((label, v))
        nbrs[v].append((label, u))
    return nbrs


def naive_refine(sa, sb, ca: list[int], cb: list[int]):
    """Joint 1-WL refinement of two engine sides from scratch: every round
    re-keys every vertex by its color and the sorted (edge label, neighbor
    color) pairs of its edges, until the number of colors stops growing.
    Returns the stable (ca, cb), or None as soon as the color histograms
    of the two sides differ."""
    if Counter(ca) != Counter(cb):
        return None
    adj_a, adj_b = labelled_edges(sa), labelled_edges(sb)
    ncolors = len(set(ca))
    while True:
        keys_a = [
            (ca[v], tuple(sorted((label, ca[u]) for label, u in nbrs)))
            for v, nbrs in enumerate(adj_a)
        ]
        keys_b = [
            (cb[v], tuple(sorted((label, cb[u]) for label, u in nbrs)))
            for v, nbrs in enumerate(adj_b)
        ]
        rank = {k: i for i, k in enumerate(sorted(set(keys_a) | set(keys_b)))}
        ca = [rank[k] for k in keys_a]
        cb = [rank[k] for k in keys_b]
        if Counter(ca) != Counter(cb):
            return None
        if len(rank) == ncolors:
            return ca, cb
        ncolors = len(rank)


def searched_first_leaf(sa, sb, p, pairs):
    """The search's first verified leaf once each pair is individualized
    and refined in turn, or None; p is undone afterwards."""
    mark = len(p.trail)
    leaf = None
    for a, b in pairs:
        c = p.individualize(a, b)
        if c is None or not p.refine([c]):
            break
    else:
        leaf = next(_search(sa, sb, p, mark, {}), None)
    p.undo(mark)
    return leaf


def full_leaf_ok(sa, sb, images) -> bool:
    """The leaf check over every simplex of both engine sides: the
    families have the same dimensions and sizes, and every simplex of sa
    lands, under i -> images[i], on a simplex of sb with the same
    label."""
    if sa.simplices.keys() != sb.simplices.keys():
        return False
    for d, fam in sa.simplices.items():
        target = sb.simplices[d]
        if len(fam) != len(target):
            return False
        for t, label in fam.items():
            if target.get(tuple(sorted(images[i] for i in t))) != label:
                return False
    return True


class FullMap:
    """A witness held as one dict from every vertex id to its image: the
    reference for the engine's sparse VertexMap."""

    def __init__(self, mapping) -> None:
        self.map = dict(mapping)

    def __call__(self, v):
        return self.map[v]

    def domain(self) -> tuple:
        return tuple(sorted(self.map))

    def moved(self) -> tuple:
        return tuple(sorted(k for k, v in self.map.items() if k != v))

    def compose(self, other: "FullMap") -> "FullMap":
        return FullMap({v: self.map[w] for v, w in other.map.items()})

    def to_json_dict(self) -> dict:
        return {"mapping": [[k, v] for k, v in sorted(self.map.items())]}


def ball_matrices(ball) -> list[ProjMatrix]:
    """A Cayley ball's vertices as canonical matrices, in ball order:
    each packed int cut into its nine k-bit entries, entry 0 in the top
    bits."""
    spec = ball.generators.fieldspec
    k, mask = spec.degree, spec.size - 1
    return [
        ProjMatrix(spec, tuple(x >> s & mask for s in range(8 * k, -1, -k)), True)
        for x in ball.vertices
    ]


def random_generators(spec, count: int, seed: int):
    """The cyclic permutation matrix, whose first row is (0, 0, 1) and
    its inverse's (0, 1, 0), and `count` seeded random invertible
    matrices over spec, canonical, pairwise distinct and not the
    identity, symmetrized."""
    rng = random.Random(seed)
    cycle = matrix(spec, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    mats = {cycle.entries: pgl_normalize(cycle)}
    while len(mats) < 1 + count:
        m = matrix(spec, [[rng.randrange(spec.size) for _ in range(3)] for _ in range(3)])
        if determinant(m):
            m = pgl_normalize(m)
            if m.entries != (1, 0, 0, 0, 1, 0, 0, 0, 1):
                mats.setdefault(m.entries, m)
    return symmetrize(GeneratorTable("random", spec, tuple(mats.values())))


def ball_json_dict(ball) -> dict:
    """A Cayley ball's JSON record materialised whole, every vertex a
    dict and every edge a tuple: the reference for `lsv ball`'s data,
    which is written straight from the ball."""
    return {
        "field": {"modulus": format_poly(ball.generators.fieldspec.modulus)},
        "radius": ball.radius,
        "generator_labels": list(ball.generators.labels),
        "generators": [m.rows() for m in ball.generators.matrices],
        "vertex_count": len(ball.vertices),
        "sphere_sizes": list(ball.sphere_sizes()),
        "vertices": [
            {"index": i, "distance": ball.dist[i], "rows": m.rows()}
            for i, m in enumerate(ball_matrices(ball))
        ],
        "edges": list(ball.edges()),
        "collision": None
        if ball.collision is None
        else ball.collision.to_json_dict(),
    }

"""Finite abstract simplicial complexes with chamber colors.

A Complex stores the downward closure of the simplices it is given,
grouped by dimension, and an optional total coloring of its chambers
(the top-dimensional simplices).  Vertex ids are opaque but must be
hashable and orderable within one complex.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Complex",
    "PurityReport",
    "clique_complex",
    "star_vertices",
    "induced_subcomplex",
    "chamber_count",
    "purity_report",
    "color_chambers",
    "dot_graph",
    "fano_incidence_graph",
]

VertexId = Hashable


def _norm_simplex(s: Iterable[VertexId]) -> tuple:
    out = tuple(sorted(s))
    if len(set(out)) != len(out):
        raise ValueError(f"repeated vertex in simplex {out!r}")
    return out


class Complex:
    """An abstract simplicial complex, generated by the given
    simplices: it holds every face of each of them.

    Local questions (chambers through a simplex, stars, full
    subcomplexes) read one incidence index, which maps each vertex to
    its position in `vertices` and to the maximal simplices containing
    it, in `maximal_simplices()` order.  It is built from
    `maximal_simplices()` when the first such question is asked, so a
    complex that is never asked one never pays for it.

    Args:
        vertices: iterable of distinct vertex ids, order preserved.
        simplices: iterable of simplices (any dimensions) that
            generate the complex: every face of a given simplex is
            added, and so is the singleton of every vertex.
        chamber_colors: optional map simplex -> color, total on the
            top-dimensional simplices.
    """

    def __init__(
        self,
        vertices: Iterable[VertexId],
        simplices: Iterable[Iterable[VertexId]] = (),
        *,
        chamber_colors: Mapping[Iterable[VertexId], object] | None = None,
    ) -> None:
        verts = tuple(vertices)
        vset = set(verts)
        if len(vset) != len(verts):
            raise ValueError("repeated vertex id")
        by_dim: dict[int, set[tuple]] = {0: {(v,) for v in verts}}
        for s in simplices:
            t = _norm_simplex(s)
            if not t:
                raise ValueError("empty simplex")
            if not vset.issuperset(t):
                v = next(v for v in t if v not in vset)
                raise ValueError(f"unknown vertex {v!r} in simplex {t!r}")
            by_dim.setdefault(len(t) - 1, set()).add(t)
        # downward closure, top dimension first: each facet of a simplex
        # joins the dimension below before that dimension is read; it
        # stops at edges, whose vertices are all singletons already
        for d in range(max(by_dim), 1, -1):
            lower = by_dim.setdefault(d - 1, set())
            for t in by_dim[d]:
                lower.update(combinations(t, d))
        self._set(verts, by_dim, chamber_colors)

    def _set(
        self,
        vertices: tuple,
        by_dim: Mapping[int, Iterable[tuple]],
        chamber_colors: Mapping | None,
    ) -> None:
        """Store distinct vertices and, by dimension, simplices that are
        sorted, distinct, of known vertices and closed under faces, the
        vertices' singletons included; nothing is checked here."""
        self._vertices = vertices
        self._simplices: dict[int, frozenset[tuple]] = {
            d: frozenset(ss) for d, ss in by_dim.items() if ss
        }
        self._dimension = max(self._simplices) if self._simplices else -1
        # each dimension sorted on first request, then reused
        self._sorted: dict[int, tuple[tuple, ...]] = {}
        self.chamber_colors: dict[tuple, object] | None = (
            None if chamber_colors is None else _checked_colors(self, chamber_colors)
        )
        self._maximal: tuple[tuple, ...] | None = None
        self._incident: dict | None = None

    # -- structure ------------------------------------------------------

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def dimension(self) -> int:
        return self._dimension

    def dims(self) -> tuple[int, ...]:
        return tuple(sorted(self._simplices))

    def simplices(self, dim: int) -> tuple[tuple, ...]:
        out = self._sorted.get(dim)
        if out is None:
            out = tuple(sorted(self._simplices.get(dim, frozenset())))
            self._sorted[dim] = out
        return out

    def simplex_count(self, dim: int) -> int:
        return len(self._simplices.get(dim, frozenset()))

    def has_simplex(self, s: Iterable[VertexId]) -> bool:
        t = _norm_simplex(s)
        return t in self._simplices.get(len(t) - 1, frozenset())

    def chambers(self) -> tuple[tuple, ...]:
        if self._dimension < 0:
            return ()
        return self.simplices(self._dimension)

    def maximal_simplices(self) -> tuple[tuple, ...]:
        """Simplices that are not a face of any larger simplex."""
        if self._maximal is None:
            non_max: set[tuple] = set()
            for d in self._simplices:
                if d == 0:
                    continue
                for t in self._simplices[d]:
                    for face in combinations(t, d):
                        non_max.add(face)
            out = []
            for d in sorted(self._simplices):
                for t in self.simplices(d):
                    if t not in non_max:
                        out.append(t)
            self._maximal = tuple(out)
        return self._maximal

    def _local_index(self) -> dict:
        """vertex -> (its position in `vertices`, the maximal simplices
        containing it), built on first use."""
        if self._incident is None:
            inc: dict = {v: (i, []) for i, v in enumerate(self._vertices)}
            for t in self.maximal_simplices():
                for v in t:
                    inc[v][1].append(t)
            self._incident = {v: (i, tuple(ts)) for v, (i, ts) in inc.items()}
        return self._incident

    def incident_maximal(self, v: VertexId) -> tuple[tuple, ...]:
        """The maximal simplices containing v, in `maximal_simplices()`
        order."""
        entry = self._local_index().get(v)
        if entry is None:
            raise ValueError(f"unknown vertex {v!r}")
        return entry[1]

    def _in_order(self, vs: set) -> tuple:
        """The vertex set vs in the order of `vertices`."""
        index = self._local_index()
        # difference with the dict itself walks vs, not the whole index
        unknown = vs.difference(index)
        if unknown:
            raise ValueError(f"unknown vertices {unknown!r}")
        return tuple(sorted(vs, key=lambda v: index[v][0]))

    # -- equality and export ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Complex)
            and self._vertices == other._vertices
            and self._simplices == other._simplices
            and self.chamber_colors == other.chamber_colors
        )

    def __repr__(self) -> str:
        counts = ", ".join(
            f"{d}:{len(self._simplices[d])}" for d in sorted(self._simplices)
        )
        return f"Complex(dim={self._dimension}, counts=[{counts}])"

    def to_dot(self) -> Iterator[str]:
        """The DOT lines of the 1-skeleton, with chamber colors as edge
        labels when the complex is 1-dimensional and colored."""
        colored = self._dimension == 1 and self.chamber_colors
        edges = []
        for u, v in self.simplices(1):
            lab = self.chamber_colors.get((u, v)) if colored else None
            edges.append((f'"{u}"', f'"{v}"', "" if lab is None else f'label="{lab}"'))
        return dot_graph("complex", [(f'"{v}"', "") for v in self._vertices], edges)


def _checked_colors(c: Complex, chamber_colors: Mapping) -> dict[tuple, object]:
    """The coloring keyed by sorted chambers, in the given order; it
    must name each chamber of c exactly once."""
    chambers = c._simplices.get(c.dimension, frozenset())
    norm: dict[tuple, object] = {}
    for s, col in chamber_colors.items():
        # a key that is one of c's chambers is sorted already
        t = s if s in chambers else _norm_simplex(s)
        if t in norm:
            raise ValueError(f"chamber {t!r} is colored twice")
        norm[t] = col
    if norm.keys() != chambers:
        raise ValueError(
            "chamber colors must be a total assignment on the "
            "top-dimensional simplices"
        )
    return norm


# ----------------------------------------------------------------------
# construction helpers


def clique_complex(
    vertices: Sequence[VertexId],
    edges: Iterable[tuple[VertexId, VertexId]],
    max_dim: int = 3,
) -> Complex:
    """Flag complex of a simple graph: faces are cliques of size <= max_dim+1.

    Raises ValueError on repeated vertex ids, loops, repeated edges, or
    unknown endpoints.
    """
    if max_dim < 1:
        raise ValueError("max_dim must be >= 1")
    verts = tuple(vertices)
    # each vertex's neighbours above it: a clique grown only by vertices
    # above all of its own is found once and already sorted
    forward: dict[VertexId, set] = {}
    for v in verts:
        if v in forward:
            raise ValueError("repeated vertex id")
        forward[v] = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at {u!r}: input graph must be simple")
        if u not in forward or v not in forward:
            raise ValueError(f"edge ({u!r}, {v!r}) has an unknown endpoint")
        if v < u:
            u, v = v, u
        if v in forward[u]:
            raise ValueError(f"repeated edge {(u, v)!r}: input graph must be simple")
        forward[u].add(v)
    # by_dim[d] holds the cliques of d + 1 vertices; each is found once,
    # sorted, and after every clique it extends, so the families are
    # closed under faces as they stand
    by_dim: list[list[tuple]] = [[(v,) for v in verts]]
    by_dim += [[] for _ in range(max_dim)]
    # (clique, the forward neighbours common to all its vertices)
    stack = [((v,), forward[v]) for v in verts]
    while stack:
        t, common = stack.pop()
        found = by_dim[len(t)]
        for w in common:
            s = t + (w,)
            found.append(s)
            if len(s) <= max_dim:
                stack.append((s, common & forward[w]))
    c = Complex.__new__(Complex)
    c._set(verts, dict(enumerate(by_dim)), None)
    return c


def star_vertices(c: Complex, seed: Iterable[VertexId]) -> frozenset:
    """The seed vertices and their neighbours in the 1-skeleton,
    unordered: `induced_subcomplex` puts them in `vertices` order."""
    index = c._local_index()
    seed = set(seed)
    unknown = seed.difference(index)
    if unknown:
        raise ValueError(f"unknown vertices {unknown!r}")
    # a vertex's neighbours are the other vertices of its maximal
    # simplices, and every vertex lies in one of them
    return frozenset(w for u in seed for t in index[u][1] for w in t)


def induced_subcomplex(c: Complex, vertices: Iterable[VertexId]) -> Complex:
    """Full subcomplex on a vertex subset: the complex generated by the
    intersections m & vertices over the maximal simplices m meeting it.

    Chamber colors are retained when every chamber of the result was a
    colored chamber of the original; otherwise they are dropped.
    """
    keep = set(vertices)
    verts = c._in_order(keep)
    meeting: set[tuple] = set()
    for v in verts:
        meeting.update(c.incident_maximal(v))
    parts = {tuple(filter(keep.__contains__, t)) for t in meeting}
    cc = None
    if c.chamber_colors is not None:
        # the result's chambers are the longest intersections, which are
        # its vertices when it has no edges
        top = max(map(len, parts), default=0)
        chambers = sorted(t for t in parts if len(t) == top)
        if all(t in c.chamber_colors for t in chambers):
            cc = {t: c.chamber_colors[t] for t in chambers}
    return Complex(verts, parts, chamber_colors=cc)


# ----------------------------------------------------------------------
# purity


@dataclass(frozen=True)
class PurityReport:
    """Counts of interior maximal simplices by dimension.

    `pure` means every interior maximal simplex has the same dimension
    (vacuously true when there are none); `dimension` is that shared
    top dimension.
    """

    interior_maximal_by_dim: dict[int, int]
    pure: bool
    dimension: int | None


def chamber_count(c: Complex, s: Iterable[VertexId]) -> int:
    """Number of top-dimensional simplices containing the simplex."""
    t = _norm_simplex(s)
    if not c.has_simplex(t):
        raise ValueError(f"unknown simplex {t!r}")
    ts, size = set(t), c.dimension + 1
    return sum(1 for m in c.incident_maximal(t[0]) if len(m) == size and ts.issubset(m))


def purity_report(maximal: Iterable[tuple], interior: frozenset) -> PurityReport:
    """Count the maximal simplices, given as an iterable of vertex
    tuples, whose vertices all lie in `interior`; every other vertex is
    boundary.  A complex gives `maximal_simplices()` and a Cayley ball
    the same simplices read from its rows (`CayleyBall.maximal_simplices`).
    For a ball of radius r the interior vertices are those at distance
    at most r - 1 from the center."""
    by_dim: dict[int, int] = {}
    for t in maximal:
        if interior.issuperset(t):
            by_dim[len(t) - 1] = by_dim.get(len(t) - 1, 0) + 1
    pure = len(by_dim) <= 1
    dimension = max(by_dim) if by_dim else None
    return PurityReport(by_dim, pure, dimension)


# ----------------------------------------------------------------------
# chamber colorings


def color_chambers(c: Complex, assignment: Mapping) -> Complex:
    """c with a total chamber coloring; partial assignments fail.

    The result shares c's vertices, simplices and caches, which a
    coloring does not change; c itself keeps its own colors."""
    out = copy.copy(c)
    out.chamber_colors = _checked_colors(c, assignment)
    return out


# ----------------------------------------------------------------------
# export


def dot_graph(
    name: str, nodes: Iterable[tuple], edges: Iterable[tuple]
) -> Iterator[str]:
    """The lines of an undirected DOT graph with one statement per
    (node, attrs) and (u, v, attrs) row, made as they are read; ids come
    rendered, and attrs is a rendered attribute list or "" for none."""
    yield f"graph {name} {{\n"
    for s, a in chain(nodes, ((f"{u} -- {v}", attrs) for u, v, attrs in edges)):
        yield f"  {s} [{a}];\n" if a else f"  {s};\n"
    yield "}\n"


# ----------------------------------------------------------------------
# reference structure


def fano_incidence_graph() -> Complex:
    """Point-line incidence graph of the smallest projective plane.

    Lines are the translates of the difference set {0, 1, 3} mod 7.
    14 vertices, 3-regular, bipartite, girth 6 (the Heawood graph).
    """
    points = [f"p{i}" for i in range(7)]
    lines = [f"l{i}" for i in range(7)]
    edges = []
    for i in range(7):
        for k in (0, 1, 3):
            edges.append((f"p{(i + k) % 7}", f"l{i}"))
    return Complex(points + lines, edges)

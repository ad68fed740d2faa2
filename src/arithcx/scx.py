"""Finite abstract simplicial complexes with chamber colors and
locality marks.

A Complex stores its full downward-closed simplex family grouped by
dimension and an optional total coloring of its chambers (the
top-dimensional simplices).  Vertex ids are opaque but must be
hashable and orderable within one complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Complex",
    "InteriorMark",
    "PurityReport",
    "clique_complex",
    "link",
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
    """An abstract simplicial complex.

    Local questions (chambers through a simplex, links, stars, full
    subcomplexes) read one incidence index, which maps each vertex to
    its position in `vertices` and to the maximal simplices containing
    it, in `maximal_simplices()` order.  It is built from
    `maximal_simplices()` when the first such question is asked, so a
    complex that is never asked one never pays for it.

    Args:
        vertices: iterable of distinct vertex ids, order preserved.
        simplices: iterable of simplices (any dimensions); singletons
            for every vertex are added automatically and downward
            closure is validated.
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
        self._vertices = tuple(vertices)
        vset = set(self._vertices)
        if len(vset) != len(self._vertices):
            raise ValueError("repeated vertex id")
        by_dim: dict[int, set[tuple]] = {0: {(v,) for v in self._vertices}}
        for s in simplices:
            t = _norm_simplex(s)
            if not t:
                raise ValueError("empty simplex")
            for v in t:
                if v not in vset:
                    raise ValueError(f"unknown vertex {v!r} in simplex {t!r}")
            by_dim.setdefault(len(t) - 1, set()).add(t)
        # downward closure: every facet of a simplex must be present
        for d in sorted(by_dim, reverse=True):
            if d == 0:
                continue
            lower = by_dim.setdefault(d - 1, set())
            for t in by_dim[d]:
                for face in combinations(t, d):
                    if face not in lower:
                        raise ValueError(
                            f"missing face {face!r} of simplex {t!r}"
                        )
        self._simplices: dict[int, frozenset[tuple]] = {
            d: frozenset(ss) for d, ss in by_dim.items() if ss
        }
        self._dimension = max(self._simplices) if self._simplices else -1
        # each dimension sorted on first request, then reused
        self._sorted: dict[int, tuple[tuple, ...]] = {}

        if chamber_colors is not None:
            norm = {_norm_simplex(s): c for s, c in chamber_colors.items()}
            chams = set(self.chambers())
            if set(norm) != chams:
                raise ValueError(
                    "chamber colors must be a total assignment on the "
                    "top-dimensional simplices"
                )
            self.chamber_colors: dict[tuple, object] | None = norm
        else:
            self.chamber_colors = None

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

    def iter_simplices(self, min_dim: int = 0) -> Iterator[tuple]:
        for d in sorted(self._simplices):
            if d >= min_dim:
                yield from self.simplices(d)

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
        unknown = vs - index.keys()
        if unknown:
            raise ValueError(f"unknown vertices {unknown!r}")
        return tuple(sorted(vs, key=lambda v: index[v][0]))

    def neighbors(self, v: VertexId) -> tuple:
        """The vertices that share an edge with v, sorted."""
        return tuple(sorted({x for t in self.incident_maximal(v) for x in t if x != v}))

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

    def to_dot(self) -> str:
        """1-skeleton in DOT, with chamber colors as edge labels when
        the complex is 1-dimensional and colored."""
        colored = self._dimension == 1 and self.chamber_colors
        edges = []
        for u, v in self.simplices(1):
            lab = self.chamber_colors.get((u, v)) if colored else None
            edges.append((f'"{u}"', f'"{v}"', "" if lab is None else f'label="{lab}"'))
        return dot_graph("complex", [(f'"{v}"', "") for v in self._vertices], edges)

    @classmethod
    def from_maximal(
        cls,
        vertices: Iterable[VertexId],
        maximal: Iterable[Iterable[VertexId]],
        **kw,
    ) -> "Complex":
        """Build the downward closure of the given simplices."""
        return cls(vertices, _closure(_norm_simplex(s) for s in maximal), **kw)


def _closure(simplices: Iterable[tuple]) -> set[tuple]:
    """Every nonempty face of the given sorted simplices."""
    closed: set[tuple] = set()
    for t in simplices:
        for k in range(1, len(t) + 1):
            closed.update(combinations(t, k))
    return closed


# ----------------------------------------------------------------------
# construction helpers


def clique_complex(
    vertices: Sequence[VertexId],
    edges: Iterable[tuple[VertexId, VertexId]],
    max_dim: int = 3,
) -> Complex:
    """Flag complex of a simple graph: faces are cliques of size <= max_dim+1.

    Raises ValueError on loops, repeated edges, or unknown endpoints.
    """
    if max_dim < 1:
        raise ValueError("max_dim must be >= 1")
    verts = tuple(vertices)
    vset = set(verts)
    adj: dict[VertexId, set] = {v: set() for v in verts}
    seen = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at {u!r}: input graph must be simple")
        if u not in vset or v not in vset:
            raise ValueError(f"edge ({u!r}, {v!r}) has an unknown endpoint")
        key = _norm_simplex((u, v))
        if key in seen:
            raise ValueError(f"repeated edge {key!r}: input graph must be simple")
        seen.add(key)
        adj[u].add(v)
        adj[v].add(u)
    simplices: list[tuple] = sorted(seen)
    current = simplices[:]
    for _ in range(2, max_dim + 1):
        nxt = []
        for t in current:
            common = set.intersection(*(adj[x] for x in t)) if t else set()
            last = t[-1]
            for w in sorted(common):
                if w > last:
                    nxt.append(t + (w,))
        if not nxt:
            break
        simplices.extend(nxt)
        current = nxt
    return Complex(verts, simplices)


def link(c: Complex, v: VertexId) -> Complex:
    """The link of a vertex: all simplices s with s + {v} in c, the
    downward closure of m - {v} over the maximal simplices m at v.

    Chamber colors are dropped: the link's chambers are different
    simplices.
    """
    rests = [tuple(x for x in t if x != v) for t in c.incident_maximal(v)]
    simplices = _closure(r for r in rests if r)
    return Complex(c._in_order({x for r in rests for x in r}), simplices)


def star_vertices(c: Complex, seed: Iterable[VertexId], hops: int) -> tuple:
    """Vertices within `hops` steps of the seed set in the 1-skeleton."""
    frontier = list(dict.fromkeys(seed))
    seen = set(frontier)
    for _ in range(hops):
        nxt = []
        for u in frontier:
            for w in c.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return c._in_order(seen)


def induced_subcomplex(c: Complex, vertices: Iterable[VertexId]) -> Complex:
    """Full subcomplex on a vertex subset: the downward closure of the
    intersections m & vertices over the maximal simplices m meeting it.

    Chamber colors are retained when every chamber of the result was a
    colored chamber of the original; otherwise they are dropped.
    """
    keep = set(vertices)
    verts = c._in_order(keep)
    meeting: set[tuple] = set()
    for v in verts:
        meeting.update(c.incident_maximal(v))
    simplices = _closure({tuple(filter(keep.__contains__, t)) for t in meeting})
    cc = None
    if c.chamber_colors is not None:
        # the result's chambers: its top-dimensional simplices, which are
        # its vertices when it has no edges
        top = max(map(len, simplices), default=0)
        chambers = sorted(t for t in simplices if len(t) == top)
        if all(t in c.chamber_colors for t in chambers):
            cc = {t: c.chamber_colors[t] for t in chambers}
    return Complex(verts, simplices, chamber_colors=cc)


# ----------------------------------------------------------------------
# interiority and purity


@dataclass(frozen=True)
class InteriorMark:
    """Per-vertex interior flags for boundary-aware claims.

    For a ball of radius r, a vertex is interior iff its distance from
    the center is at most r - 1; a simplex is interior iff all of its
    vertices are.
    """

    flags: Mapping[VertexId, bool]

    @classmethod
    def from_distances(
        cls, distances: Mapping[VertexId, int], radius: int
    ) -> "InteriorMark":
        return cls({v: d <= radius - 1 for v, d in distances.items()})

    @classmethod
    def all_interior(cls, c: Complex) -> "InteriorMark":
        return cls({v: True for v in c.vertices})

    def vertex_interior(self, v: VertexId) -> bool:
        return bool(self.flags.get(v, False))

    def simplex_interior(self, s: Iterable[VertexId]) -> bool:
        return all(self.flags.get(v, False) for v in s)


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


def purity_report(c: Complex, marks: InteriorMark) -> PurityReport:
    by_dim: dict[int, int] = {}
    for t in c.maximal_simplices():
        if marks.simplex_interior(t):
            by_dim[len(t) - 1] = by_dim.get(len(t) - 1, 0) + 1
    pure = len(by_dim) <= 1
    dimension = max(by_dim) if by_dim else None
    return PurityReport(by_dim, pure, dimension)


# ----------------------------------------------------------------------
# chamber colorings


def color_chambers(c: Complex, assignment: Mapping) -> Complex:
    """Attach a total chamber coloring; partial assignments fail."""
    return Complex(
        c.vertices,
        list(c.iter_simplices(min_dim=1)),
        chamber_colors=dict(assignment),
    )


# ----------------------------------------------------------------------
# export


def dot_graph(name: str, nodes: Iterable[tuple], edges: Iterable[tuple]) -> str:
    """An undirected DOT graph with one statement per (node, attrs) and
    (u, v, attrs) row; ids come rendered, and attrs is a rendered
    attribute list or "" for none."""
    rows = [*nodes, *((f"{u} -- {v}", attrs) for u, v, attrs in edges)]
    body = "".join(f"  {s} [{a}];\n" if a else f"  {s};\n" for s, a in rows)
    return f"graph {name} {{\n{body}}}\n"


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

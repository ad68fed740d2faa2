"""Backtracking search for isomorphisms and automorphisms of complexes.

The search individualizes one vertex at a time and re-refines a vertex
coloring to a fixpoint, branching on the smallest non-singleton cell
(smallest vertex id first).  A refinement key combines a vertex's
current color with the multiset of (edge label, neighbor color) pairs
over its incident edges; the edge label is the chamber color of the
edge whenever edges are the chambers.  Initial colors fold in the
vertex color, per-dimension incident simplex counts, and the multiset
of incident chamber colors.  Every emitted bijection is verified
against the full simplex family and all color data before it is
returned: refinement only prunes, it never vouches.

Counting without enumeration is done by an orbit-stabilizer chain of
find-one searches, which stays exact for groups far beyond any
enumeration cap.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import CapExceededError
from .scx import Complex, InteriorMark, induced_subcomplex, star_vertices

__all__ = [
    "VertexMap",
    "VertexPermutation",
    "AutomorphismSet",
    "PanelFlipReport",
    "automorphism_group",
    "automorphisms_fixing",
    "automorphism_order",
    "is_isomorphic",
    "verify_permutation",
    "panel_flip_check",
]

DEFAULT_CAP = 10**6


def _sorted_ids(ids: Iterable) -> list:
    ids = list(ids)
    try:
        return sorted(ids)
    except TypeError:
        return sorted(ids, key=repr)


class VertexMap:
    """An injective map between vertex id sets."""

    __slots__ = ("_map", "_key")

    def __init__(self, mapping: Mapping) -> None:
        m = dict(mapping)
        if len(set(m.values())) != len(m):
            raise ValueError("mapping is not injective")
        self._map = m
        self._key = tuple((k, m[k]) for k in _sorted_ids(m))

    def __call__(self, v):
        return self._map[v]

    def domain(self) -> tuple:
        return tuple(k for k, _ in self._key)

    def apply_simplex(self, s: Iterable) -> tuple:
        return tuple(sorted(self._map[v] for v in s))

    def compose(self, other: "VertexMap") -> "VertexMap":
        """self after other: (self.compose(other))(v) = self(other(v))."""
        return type(self)({v: self._map[other(v)] for v in other.domain()})

    def inverse(self) -> "VertexMap":
        return type(self)({v: k for k, v in self._map.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexMap) and other._key == self._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        mv = {k: v for k, v in self._key if k != v}
        name = type(self).__name__
        return f"{name}(moves={mv!r})" if mv else f"{name}(id)"

    def to_json_dict(self) -> dict:
        return {"mapping": [[k, v] for k, v in self._key]}


class VertexPermutation(VertexMap):
    """A bijection of a vertex set onto itself."""

    __slots__ = ()

    def __init__(self, mapping: Mapping) -> None:
        super().__init__(mapping)
        if set(self._map.values()) != set(self._map):
            raise ValueError("mapping is not a permutation of its domain")

    def is_identity(self) -> bool:
        return all(k == v for k, v in self._map.items())

    def moved(self) -> tuple:
        return tuple(k for k, v in self._key if k != v)


@dataclass(frozen=True)
class AutomorphismSet:
    """Result of an automorphism computation.

    When `complete` is True, `perms` holds the whole group (sorted
    canonically) and `order == len(perms)`.  Otherwise `perms` is None
    and `order` was computed by an orbit-stabilizer chain whose
    witnesses are in `generators`.
    """

    order: int
    complete: bool
    perms: tuple[VertexPermutation, ...] | None
    generators: tuple[VertexPermutation, ...]
    stats: dict = field(default_factory=dict, compare=False)


# ----------------------------------------------------------------------
# internal indexed representation


class _Side:
    """A complex indexed by the positions of its sorted vertex ids.

    adj[i] holds one (edge label, neighbor) pair per incident edge; the
    label is the edge's chamber color when edges are the chambers and
    colors are respected, else "".
    """

    __slots__ = ("ids", "idx", "adj", "simplices", "chamber_colors", "base_keys")

    def __init__(self, c: Complex, respect_colors: bool) -> None:
        self.ids = _sorted_ids(c.vertices)
        self.idx = idx = {v: i for i, v in enumerate(self.ids)}
        n = len(self.ids)
        colors = c.chamber_colors if respect_colors and c.chamber_colors else {}
        self.adj: list[list[tuple[str, int]]] = [[] for _ in range(n)]
        self.simplices: dict[int, frozenset] = {}
        self.chamber_colors: dict[tuple, str] = {}
        counts = [[0] * (c.dimension + 1) for _ in range(n)]
        incident_chamber: list[list[str]] = [[] for _ in range(n)]
        # one sweep: index each simplex, count incidences, label edges
        for d in c.dims():
            colored = bool(colors) and d == c.dimension
            if d == 0 and not colored:
                continue
            fam = []
            for t in c.simplices(d):
                it = tuple(sorted(idx[v] for v in t))
                fam.append(it)
                label = repr(colors[t]) if colored else ""
                if colored:
                    self.chamber_colors[it] = label
                for i in it:
                    counts[i][d] += 1
                    if colored:
                        incident_chamber[i].append(label)
                if d == 1:
                    self.adj[it[0]].append((label, it[1]))
                    self.adj[it[1]].append((label, it[0]))
            if d:
                self.simplices[d] = frozenset(fam)

        vertex_colors = c.vertex_colors if respect_colors else None
        self.base_keys: list[tuple] = [
            (
                "" if vertex_colors is None else repr(vertex_colors.get(v)),
                len(self.adj[i]),
                tuple(counts[i][1:]),
                tuple(sorted(incident_chamber[i])),
            )
            for i, v in enumerate(self.ids)
        ]


def _initial_colors(
    sa: _Side, sb: _Side, require: dict[int, int]
) -> tuple[list[int], list[int]]:
    """Base keys ranked jointly over both sides, then one fresh color per
    required pair (in index order)."""
    rank = {k: i for i, k in enumerate(sorted(set(sa.base_keys) | set(sb.base_keys)))}
    ca = [rank[k] for k in sa.base_keys]
    cb = [rank[k] for k in sb.base_keys]
    for fresh, (a_i, b_i) in enumerate(sorted(require.items()), len(rank)):
        ca[a_i] = fresh
        cb[b_i] = fresh
    return ca, cb


def _refine_keys(side: _Side, colors: list[int]) -> list[tuple]:
    return [
        (colors[v], tuple(sorted((label, colors[u]) for label, u in nbrs)))
        for v, nbrs in enumerate(side.adj)
    ]


def _refine(sa: _Side, sb: _Side, ca: list[int], cb: list[int]):
    """Joint 1-WL refinement; None when the color histograms split."""
    if Counter(ca) != Counter(cb):
        return None
    ncolors = len(set(ca))
    while True:
        keys_a = _refine_keys(sa, ca)
        keys_b = _refine_keys(sb, cb)
        rank = {k: i for i, k in enumerate(sorted(set(keys_a) | set(keys_b)))}
        na = [rank[k] for k in keys_a]
        nb = [rank[k] for k in keys_b]
        if Counter(na) != Counter(nb):
            return None
        new_colors = len(rank)
        ca, cb = na, nb
        if new_colors == ncolors:
            return ca, cb
        ncolors = new_colors


def _leaf_ok(sa: _Side, sb: _Side, mapping: list[int]) -> bool:
    # exhaustive: every simplex must land on a simplex, colors included
    for d, fam in sa.simplices.items():
        target = sb.simplices.get(d, frozenset())
        if len(fam) != len(target):
            return False
        for t in fam:
            if tuple(sorted(mapping[v] for v in t)) not in target:
                return False
    if sa.chamber_colors or sb.chamber_colors:
        if len(sa.chamber_colors) != len(sb.chamber_colors):
            return False
        for t, col in sa.chamber_colors.items():
            it = tuple(sorted(mapping[v] for v in t))
            if sb.chamber_colors.get(it) != col:
                return False
    return True


def _search(
    sa: _Side,
    sb: _Side,
    require: dict[int, int],
    mode: str,
    cap: int,
    stats: dict,
):
    """Yield index mappings a->b. mode 'all' or 'first'."""
    n = len(sa.ids)
    if len(sb.ids) != n:
        return
    found = 0

    def rec(ca: list[int], cb: list[int]):
        nonlocal found
        res = _refine(sa, sb, ca, cb)
        if res is None:
            return
        ca, cb = res
        stats["nodes"] = stats.get("nodes", 0) + 1
        cells_a: dict[int, list[int]] = {}
        cells_b: dict[int, list[int]] = {}
        for v, c in enumerate(ca):
            cells_a.setdefault(c, []).append(v)
        for v, c in enumerate(cb):
            cells_b.setdefault(c, []).append(v)
        target = None
        for color, cell in cells_a.items():
            if len(cell) > 1:
                k = (len(cell), color)
                if target is None or k < target:
                    target = k
        if target is None:
            mapping = [0] * n
            for color, cell in cells_a.items():
                mapping[cell[0]] = cells_b[color][0]
            if _leaf_ok(sa, sb, mapping):
                found += 1
                if mode == "all" and found > cap:
                    raise CapExceededError(
                        f"more than {cap} permutations; raise the cap or "
                        "use the order computation"
                    )
                yield mapping
            return
        color = target[1]
        a = cells_a[color][0]
        fresh2 = len(set(ca) | set(cb))
        for b in cells_b[color]:
            ca2 = list(ca)
            cb2 = list(cb)
            ca2[a] = fresh2
            cb2[b] = fresh2
            yield from rec(ca2, cb2)
            if mode == "first" and found:
                return

    yield from rec(*_initial_colors(sa, sb, require))


def _to_perm(sa: _Side, sb: _Side, mapping: Sequence[int]) -> VertexMap:
    m = {sa.ids[i]: sb.ids[j] for i, j in enumerate(mapping)}
    cls = VertexPermutation if set(m) == set(m.values()) else VertexMap
    return cls(m)


def _require_indices(
    sa: _Side, sb: _Side, require: Mapping | None, fixed: Iterable
) -> dict[int, int]:
    out: dict[int, int] = {}
    for v in fixed:
        if v not in sa.idx:
            raise ValueError(f"fixed vertex {v!r} not in the complex")
        out[sa.idx[v]] = sb.idx[v]
    if require:
        for a, b in require.items():
            if a not in sa.idx or b not in sb.idx:
                raise ValueError(f"required pair ({a!r}, {b!r}) not in the complexes")
            out[sa.idx[a]] = sb.idx[b]
    if len(set(out.values())) != len(out):
        raise ValueError("required mapping is not injective")
    return out


# ----------------------------------------------------------------------
# public API


def is_isomorphic(
    a: Complex,
    b: Complex,
    *,
    respect_colors: bool = False,
    require: Mapping | None = None,
) -> VertexMap | None:
    """A verified witness bijection a -> b, or None when none exists.

    `require` pins chosen vertices of a to chosen images in b.  The
    witness is a VertexPermutation when the two vertex sets coincide.
    """
    sa = _Side(a, respect_colors)
    sb = sa if b is a else _Side(b, respect_colors)
    req = _require_indices(sa, sb, require, ())
    stats: dict = {}
    for mapping in _search(sa, sb, req, "first", DEFAULT_CAP, stats):
        return _to_perm(sa, sb, mapping)
    return None


def automorphism_group(
    c: Complex,
    *,
    respect_colors: bool = False,
    cap: int = DEFAULT_CAP,
) -> AutomorphismSet:
    """Complete enumeration of the (color-preserving) automorphisms.

    Raises CapExceededError when the group is larger than `cap`.
    """
    return automorphisms_fixing(c, (), respect_colors=respect_colors, cap=cap)


def automorphisms_fixing(
    c: Complex,
    fixed: Iterable,
    *,
    respect_colors: bool = False,
    cap: int = DEFAULT_CAP,
) -> AutomorphismSet:
    """All (color-preserving) automorphisms fixing `fixed` pointwise."""
    side = _Side(c, respect_colors)
    req = _require_indices(side, side, None, fixed)
    stats: dict = {"mode": "enumerate"}
    perms = [
        _to_perm(side, side, m) for m in _search(side, side, req, "all", cap, stats)
    ]
    perms.sort(key=lambda p: p._key)
    return AutomorphismSet(
        order=len(perms),
        complete=True,
        perms=tuple(perms),
        generators=(),
        stats=stats,
    )


def automorphism_order(
    c: Complex,
    *,
    respect_colors: bool = False,
    fixed: Iterable = (),
) -> AutomorphismSet:
    """Exact group order via an orbit-stabilizer chain, no enumeration.

    Each orbit membership question is settled by a find-one search, so
    the result is exact for groups far beyond any enumeration cap.
    """
    side = _Side(c, respect_colors)
    require = _require_indices(side, side, None, fixed)
    order = 1
    gens: list[VertexPermutation] = []
    stats: dict = {"mode": "chain", "searches": 0}
    n = len(side.ids)
    for v in range(n):
        if v in require:
            continue
        res = _refine(side, side, *_initial_colors(side, side, require))
        assert res is not None  # identity is always present
        colors = res[0]
        cell = [w for w in range(n) if colors[w] == colors[v] and w != v]
        orbit = 1
        for w in cell:
            if w in require:
                continue
            stats["searches"] += 1
            req2 = dict(require)
            req2[v] = w
            witness = None
            for mapping in _search(side, side, req2, "first", DEFAULT_CAP, stats):
                witness = _to_perm(side, side, mapping)
                break
            if witness is not None:
                orbit += 1
                gens.append(witness)
        order *= orbit
        require[v] = v
    return AutomorphismSet(
        order=order,
        complete=False,
        perms=None,
        generators=tuple(gens),
        stats=stats,
    )


def verify_permutation(
    c: Complex,
    perm: VertexPermutation,
    *,
    respect_colors: bool = False,
    fixed: Iterable = (),
) -> bool:
    """Exhaustively check that perm is a (color-preserving) automorphism
    of c fixing `fixed` pointwise."""
    if set(perm.domain()) != set(c.vertices):
        return False
    for v in fixed:
        if perm(v) != v:
            return False
    for d in c.dims():
        if d < 1:
            continue
        fam = set(c.simplices(d))
        for t in fam:
            if perm.apply_simplex(t) not in fam:
                return False
    if respect_colors:
        if c.vertex_colors is not None:
            for v in c.vertices:
                if c.vertex_colors.get(v) != c.vertex_colors.get(perm(v)):
                    return False
        if c.chamber_colors is not None:
            for t, col in c.chamber_colors.items():
                if c.chamber_colors.get(perm.apply_simplex(t)) != col:
                    return False
    return True


# ----------------------------------------------------------------------
# local panel flips


@dataclass(frozen=True)
class PanelFlipReport:
    """Outcome of searching local flips at interior codimension-1 cells.

    A choice is one (edge, fixed chamber) selection: fix one of the
    three chambers pointwise and ask for an automorphism of the
    hop-limited star that swaps the other two.
    """

    hops: int
    edges_eligible: int
    edges_skipped: int
    choices_satisfied: int
    failures: tuple

    @property
    def choices_total(self) -> int:
        return 3 * self.edges_eligible

    @property
    def fraction(self) -> float | None:
        if self.choices_total == 0:
            return None
        return self.choices_satisfied / self.choices_total


def panel_flip_check(
    c: Complex,
    marks: InteriorMark,
    *,
    hops: int = 1,
    respect_colors: bool = False,
) -> PanelFlipReport:
    """For every interior edge with exactly 3 chambers, try all three
    fix-one-swap-two flips on the hop-limited star around the edge."""
    if c.dimension != 2:
        raise ValueError("panel flips are defined for 2-dimensional complexes")
    chambers = c.chambers()
    eligible = 0
    skipped = 0
    satisfied = 0
    failures: list[tuple] = []
    for edge in c.simplices(1):
        if not marks.simplex_interior(edge):
            continue
        u, v = edge
        es = set(edge)
        apexes = sorted(
            next(iter(set(t) - es)) for t in chambers if es.issubset(t)
        )
        if len(apexes) != 3:
            skipped += 1
            continue
        eligible += 1
        sub = induced_subcomplex(c, star_vertices(c, edge, hops))
        for i in range(3):
            w_fix = apexes[i]
            w_j, w_k = (apexes[j] for j in range(3) if j != i)
            witness = is_isomorphic(
                sub,
                sub,
                respect_colors=respect_colors,
                require={u: u, v: v, w_fix: w_fix, w_j: w_k, w_k: w_j},
            )
            if witness is not None:
                satisfied += 1
            else:
                failures.append((edge, w_fix))
    return PanelFlipReport(
        hops=hops,
        edges_eligible=eligible,
        edges_skipped=skipped,
        choices_satisfied=satisfied,
        failures=tuple(failures),
    )

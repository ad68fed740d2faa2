"""Backtracking search for isomorphisms and automorphisms of complexes.

The search works on one ordered partition of the vertices of both
complexes, kept equitable: within a cell, every vertex receives the same
multiset of edge labels from every cell.  A complex's chamber colors,
when it has them, are part of it and always respected: the edge label
is the chamber color of the edge whenever edges are the chambers, and
the root partition comes from per-dimension incident simplex counts and
the multiset of incident chamber colors.  Refinement is driven by a
worklist of splitter cells (Paige and Tarjan; McKay and Piperno): a
splitter splits each cell by the multiset of labels it sends there, and
a cell split outside the worklist queues all its parts but the largest
(Hopcroft).  Every new cell must hold as many vertices of one complex as
of the other.  A complex searched against itself starts with one set of
partition lists, shared by both sides and refined once per splitter,
until a search individualizes two distinct vertices, and again once it
undoes that step; a search whose root refinement leaves discrete never
parts them.

Each search node individualizes one pair of vertices in the smallest
non-singleton cell and, unless that leaves the partition discrete,
refines with the new cell as the only splitter; leaving the node undoes
its splits.  Each side holds its simplices once, as one labelled family
per dimension (the chamber color on the colored chambers, "" elsewhere).
Every emitted bijection is verified, labels included: refinement only
prunes, it never vouches.  A leaf is held and checked by the vertices
it moves (all of them when the sides differ): the check reads each
simplex that meets a moved vertex once, from its least moved vertex.
That is exhaustive: the map fixes every other vertex, so it sends every
other simplex to itself.  A witness is a VertexMap of its moves over
its side's id tuple.

A find-one search first tries the leaf its first path would reach, each
cell's vertices in sorted order onto the other side's, and descends
only when the leaf check rejects it.  Counting without enumeration is
done by an orbit-stabilizer chain of find-one searches, which stays
exact for groups far beyond any enumeration cap.  The witnesses found
at a level merge orbits, so no search is made whose answer they
already give, and the chain stops once the partition is discrete.
"""

from __future__ import annotations

import heapq
from bisect import bisect
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import CapExceededError
from .scx import Complex, induced_subcomplex

if TYPE_CHECKING:
    from .projmat import CayleyBall

__all__ = [
    "VertexMap",
    "VertexPermutation",
    "AutomorphismSet",
    "PanelFlipReport",
    "ball_side",
    "automorphisms_fixing",
    "automorphism_order",
    "is_isomorphic",
    "verify_permutation",
    "panel_flip_check",
]

DEFAULT_CAP = 10**6


class VertexMap:
    """An injective map between vertex id sets, held sparsely: its
    domain, a sorted id tuple that the maps found on one complex share,
    and a dict from each id it moves to its image.  Equality and hashing
    read the domain and the moves alone, so a map found by a search
    equals the same map built from a full dict in any order.
    """

    __slots__ = ("_domain", "_moves")

    def __init__(self, mapping: Mapping) -> None:
        m = dict(mapping)
        if len(set(m.values())) != len(m):
            raise ValueError("mapping is not injective")
        self._domain = tuple(sorted(m))
        self._moves = {k: v for k, v in m.items() if k != v}

    @classmethod
    def _sparse(cls, domain: tuple, moves: dict) -> "VertexMap":
        """The map on `domain` that moves exactly the keys of `moves`."""
        out = cls.__new__(cls)
        out._domain, out._moves = domain, moves
        return out

    def __call__(self, v):
        return self._moves.get(v, v)

    def domain(self) -> tuple:
        return self._domain

    def apply_simplex(self, s: Iterable) -> tuple:
        return tuple(sorted(self._moves.get(v, v) for v in s))

    def compose(self, other: "VertexMap") -> "VertexMap":
        """self after other: (self.compose(other))(v) = self(other(v))."""
        return type(self)({v: self(other(v)) for v in other._domain})

    def __eq__(self, other) -> bool:
        # tuple comparison's identity shortcut spares a shared domain
        return isinstance(other, VertexMap) and (other._moves, other._domain) == (
            self._moves, self._domain)

    def __hash__(self) -> int:
        return hash((len(self._domain), frozenset(self._moves.items())))

    def __repr__(self) -> str:
        mv = dict(sorted(self._moves.items()))
        name = type(self).__name__
        return f"{name}(moves={mv!r})" if mv else f"{name}(id)"

    def to_json_dict(self) -> dict:
        return {"mapping": [[k, self(k)] for k in self._domain]}


class VertexPermutation(VertexMap):
    """A bijection of a vertex set onto itself."""

    __slots__ = ()

    def __init__(self, mapping: Mapping) -> None:
        super().__init__(mapping)
        # it is onto its domain iff it permutes the ids it moves
        if set(self._moves.values()) != self._moves.keys():
            raise ValueError("mapping is not a permutation of its domain")

    def is_identity(self) -> bool:
        return not self._moves

    def moved(self) -> tuple:
        return tuple(sorted(self._moves))


@dataclass(frozen=True)
class AutomorphismSet:
    """Result of an automorphism computation.

    After an enumeration, `perms` holds the whole group in the order the
    search finds it, which is the same on every run, and `order ==
    len(perms)`.  After an orbit-stabilizer chain, `perms` is None and
    the chain's witnesses, held by their moves, are in `generators`.
    """

    order: int
    perms: tuple[VertexPermutation, ...] | None
    generators: tuple[VertexPermutation, ...]
    stats: dict = field(default_factory=dict, compare=False)


# ----------------------------------------------------------------------
# internal indexed representation


class _Side:
    """A complex indexed by the positions of its sorted vertex ids, built
    once for every search on it: from a Complex by `_Side(c)`, or from a
    Cayley ball's rows by `ball_side`, both through `_fill`.

    simplices[d] maps each sorted index simplex of dimension d to its
    label: repr(color) on the colored chambers, "" elsewhere; vertices
    count only as colored chambers.  keys[i], vertex i's base key, counts
    its incident simplices of each dimension from 1 up and sorts the
    labels of its colored chambers.  inc[i] lists the index simplices,
    edges aside, that hold vertex i.  adj[i] holds one (label weight,
    neighbor) pair per edge, neighbours in sorted order: each label
    weighs a distinct power of a base above every degree, so the weights
    a vertex receives from a splitter sum to a code of their labels,
    shared by sides with equal base-key multisets.  elems, pos, col and
    end arrange the vertices by base key: every search's root.
    """

    __slots__ = (
        "ids", "idx", "adj", "inc", "simplices", "keys", "elems", "pos", "col", "end",
    )

    def __init__(self, c: Complex) -> None:
        ids = tuple(sorted(c.vertices))
        idx = {v: i for i, v in enumerate(ids)}
        colors = c.chamber_colors or {}
        top = c.dimension if colors else None
        families = {
            d: {
                tuple(map(idx.__getitem__, t)): repr(colors[t]) if d == top else ""
                for t in c.simplices(d)
            }
            for d in c.dims()
            if d or d == top
        }
        self._fill(ids, idx, families, top is not None)

    def _fill(
        self, ids: tuple, idx: dict, simplices: dict[int, dict], colored: bool
    ) -> None:
        """Every field from the sorted vertex ids, their positions and the
        labelled index families, each sorted and in ascending dimension:
        vertices only as colored chambers, the top family's labels the
        chamber colors' reprs when `colored`, every other label ""."""
        self.ids, self.idx, self.simplices = ids, idx, simplices
        n = len(ids)
        top = max(simplices, default=0)
        labelled: list[list[tuple]] = [[] for _ in range(n)]
        self.inc = inc = [[] for _ in range(n)]
        chamber_labels: list[list[str]] = [[] for _ in range(n)]
        # each vertex's simplex counts, one list per dimension from 1 up
        counts = [[0] * n for _ in range(top)]
        for d, fam in simplices.items():
            chamber = colored and d == top
            if d == 1:
                for (u, v), label in fam.items():
                    labelled[u].append((label, v))
                    labelled[v].append((label, u))
                counts[0] = list(map(len, labelled))
                if chamber:
                    chamber_labels = [[L for L, _ in nbrs] for nbrs in labelled]
                continue
            before = list(map(len, inc))
            for it, label in fam.items():
                for i in it:
                    inc[i].append(it)
                    if chamber:
                        chamber_labels[i].append(label)
            if d:
                counts[d - 1] = list(map(int.__sub__, map(len, inc), before))
        self.keys: list[tuple] = list(zip(
            zip(*counts) if counts else [()] * n,
            map(tuple, map(sorted, chamber_labels)),
        ))
        labels = sorted(set(simplices.get(1, {}).values()))
        base = 1 + max(map(len, labelled), default=0)
        weight = {L: base**i for i, L in enumerate(labels)}
        # in place, so that one vertex's pairs at a time exist twice
        for nbrs in labelled:
            nbrs[:] = [(weight[L], x) for L, x in nbrs]
        self.adj = labelled
        self.elems, self.pos, self.col, self.end = _arrange(self.keys)


class _Partition:
    """An ordered partition of both sides' vertices into shared cells.

    Cell c occupies positions [c, end[c]) of both elems_a and elems_b,
    and its start is its color (col_a[v] == c for each a-vertex v there),
    so colors follow cell sizes and the canonical order of splits, never
    vertex ids.  Every split is logged on `trail` for undo.  `heap` holds
    (size, start) for every non-singleton cell, plus stale entries that
    target_cell() drops lazily; `scans` counts sides scanned per splitter.
    A side against itself starts with b's lists being a's, until a pair
    (a, b) with a != b gives b copies; an undo back to that trail length,
    `apart_at`, shares them again.
    """

    __slots__ = (
        "adj_a", "adj_b", "elems_a", "elems_b", "pos_a", "pos_b",
        "col_a", "col_b", "end", "trail", "heap", "scans", "apart_at",
    )

    def __init__(self, sa: _Side, sb: _Side) -> None:
        self.adj_a, self.adj_b = sa.adj, sb.adj
        self.elems_a, self.pos_a, self.col_a = sa.elems[:], sa.pos[:], sa.col[:]
        if sb is sa:
            self.elems_b, self.pos_b, self.col_b = self.elems_a, self.pos_a, self.col_a
        else:
            self.elems_b, self.pos_b, self.col_b = sb.elems[:], sb.pos[:], sb.col[:]
        self.end = end = sa.end[:]
        self.trail: list[tuple[int, int]] = []
        self.heap = [(end[s] - s, s) for s in set(self.col_a) if end[s] - s > 1]
        heapq.heapify(self.heap)
        self.scans, self.apart_at = 0, None

    def _sides(self) -> list[tuple[list[int], list[int], list[int]]]:
        """(elems, pos, col) of side a, then of side b unless shared."""
        out = [(self.elems_a, self.pos_a, self.col_a)]
        if self.elems_b is not self.elems_a:
            out.append((self.elems_b, self.pos_b, self.col_b))
        return out

    def undo(self, mark: int) -> None:
        """Merge back every split made since the trail had length `mark`,
        newest first."""
        trail, end = self.trail, self.end
        sides = self._sides()
        while len(trail) > mark:
            s, e = trail.pop()
            m = end[s]
            for elems, _, col in sides:
                for x in elems[m:e]:
                    col[x] = s
            end[s] = e
            heapq.heappush(self.heap, (e - s, s))
        if self.apart_at is not None and mark <= self.apart_at:
            self.elems_b, self.pos_b, self.col_b = self.elems_a, self.pos_a, self.col_a
            self.apart_at = None

    def target_cell(self) -> int | None:
        """The smallest non-singleton cell by (size, color), or None when
        the partition is discrete."""
        heap, end, col, elems = self.heap, self.end, self.col_a, self.elems_a
        while heap:
            size, s = heap[0]
            if end[s] - s == size and col[elems[s]] == s:
                return s
            heapq.heappop(heap)
        return None

    def leaf(self, mark: int) -> dict[int, int]:
        """The map of each cell's a-vertices in sorted order onto its
        b-vertices in sorted order, every vertex kept when the sides
        differ.  A side against itself must hold the same cells on both
        sides at trail length `mark`; a cell not split since then maps
        onto itself, so only the cells split since are read, and only
        the vertices that move are kept."""
        ea, eb, end = self.elems_a, self.elems_b, self.end
        if eb is ea:
            return {}
        every = self.adj_b is not self.adj_a
        # logged ranges nest or are disjoint
        spans = [(0, len(ea))] if every else sorted(self.trail[mark:])
        out, done = {}, 0
        for c, ce in spans:
            if ce <= done:
                continue
            s, done = c if c > done else done, ce
            while s < ce:
                e = end[s]
                if e == s + 1:
                    if every or ea[s] != eb[s]:
                        out[ea[s]] = eb[s]
                else:
                    for a, b in zip(sorted(ea[s:e]), sorted(eb[s:e])):
                        if every or a != b:
                            out[a] = b
                s = e
        return out

    def individualize(self, a: int, b: int) -> int | None:
        """Split the pair (a, b) off into a new last cell of their shared
        cell and return its color; None when a and b differ in color."""
        c = self.col_a[a]
        if self.col_b[b] != c:
            return None
        if self.end[c] - c == 1:
            return c
        if a != b and self.elems_b is self.elems_a:
            self.apart_at = len(self.trail)
            self.elems_b, self.pos_b = self.elems_a[:], self.pos_a[:]
            self.col_b = self.col_a[:]
        # _split(c, [(0, a)], [(0, b)])[-1], without its general bookkeeping
        last = self.end[c] - 1
        for (elems, pos, col), x in zip(self._sides(), (a, b)):
            y, px = elems[last], pos[x]
            elems[px], pos[y] = y, px
            elems[last], pos[x] = x, last
            col[x] = last
        self.trail.append((c, self.end[c]))
        self.end[c], self.end[last] = last, self.end[c]
        if last - c > 1:
            heapq.heappush(self.heap, (last - c, c))
        return last

    def _split(self, c: int, ta: list, tb: list) -> list[int]:
        """Split cell c by the (key, vertex) pairs of ta and tb, sorted and
        with equal keys on both sides: the untouched vertices keep color
        c, and the touched ones move to the end of the cell, one new cell
        per key in key order.  Returns the starts of the parts."""
        ce = self.end[c]
        mid = ce - len(ta)
        keys = [k for k, _ in ta]
        parts = [c] if mid > c else []
        parts += [mid + i for i, k in enumerate(keys) if not i or k != keys[i - 1]]
        bounds = parts + [ce]
        for (elems, pos, col), touched in zip(self._sides(), (ta, tb)):
            if mid > c:
                # swap the touched vertices into the tail [mid, ce)
                tail = ce
                for _, x in touched:
                    tail -= 1
                    y, px = elems[tail], pos[x]
                    elems[px], pos[y] = y, px
                    elems[tail], pos[x] = x, tail
            for i, (_, x) in enumerate(touched, mid):
                elems[i] = x
                pos[x] = i
            for g, h in zip(bounds[1:], bounds[2:]):
                for x in elems[g:h]:
                    col[x] = g
        for g, h in zip(bounds, bounds[1:]):
            self.end[g] = h
            if h - g > 1:
                heapq.heappush(self.heap, (h - g, g))
        self.trail.append((c, ce))
        return parts

    def refine(self, splitters: Iterable[int]) -> bool:
        """Refine to the coarsest equitable partition, given that it is
        equitable with respect to every cell but the splitters; False as
        soon as a cell would hold unequal numbers of a- and b-vertices.
        A cell split outside the worklist does not queue its largest part
        (Hopcroft).  Shared lists are scanned once, and their hits on
        singleton cells, which cannot split and match themselves, are not
        grouped; apart, a singleton cell's hit must carry the same weight
        on both sides."""
        end = self.end
        queue = deque(splitters)
        queued = set(queue)
        while queue:
            s = queue.popleft()
            queued.discard(s)
            cell = self.elems_a[s : end[s]]
            if self.elems_b is self.elems_a:
                self.scans += 1
                hits_a = hits_b = _hits(self.adj_a, cell, self.col_a, end)
            else:
                self.scans += 2
                hits_a = _hits(self.adj_a, cell, self.col_a)
                hits_b = _hits(self.adj_b, self.elems_b[s : end[s]], self.col_b)
                if hits_a.keys() != hits_b.keys():
                    return False
            split = []
            for c, ta in hits_a.items():
                if end[c] - c > 1:
                    split.append(c)
                elif ta[0][0] != hits_b[c][0][0]:
                    return False
            # split in color order, so the queue order is canonical
            for c in sorted(split):
                ta, tb = hits_a[c], hits_b[c]
                ta.sort()
                keys = [k for k, _ in ta]
                if tb is not ta:
                    tb.sort()
                    if keys != [k for k, _ in tb]:
                        return False
                if len(ta) == end[c] - c and keys[0] == keys[-1]:
                    continue
                parts = self._split(c, ta, tb)
                if c in queued:
                    fresh = parts[1:]
                else:
                    sizes = [end[g] - g for g in parts]
                    skip = sizes.index(max(sizes))
                    fresh = parts[:skip] + parts[skip + 1 :]
                queue.extend(fresh)
                queued.update(fresh)
        return True


def _arrange(keys: list) -> tuple[list[int], list[int], list[int], list[int]]:
    """Vertices sorted by key, their positions, each one's color (the
    first position holding its key) and each cell's end."""
    n = len(keys)
    elems = sorted(range(n), key=keys.__getitem__)
    pos, col, end = [0] * n, [0] * n, list(range(1, n + 1))
    start = 0
    for i, v in enumerate(elems):
        if keys[v] != keys[elems[start]]:
            start = i
        pos[v] = i
        col[v] = start
        end[start] = i + 1
    return elems, pos, col, end


def _hits(
    adj: list[list[tuple[int, int]]],
    splitter: list[int],
    col: list[int],
    end: list[int] | None = None,
) -> dict[int, list[tuple[int, int]]]:
    """The vertices with a neighbor in the splitter, as (weight received,
    vertex) pairs grouped by color; given the cell ends, those alone in
    their cell are left out."""
    got: dict[int, int] = {}
    for u in splitter:
        for w, x in adj[u]:
            got[x] = got.get(x, 0) + w
    out: dict[int, list[tuple[int, int]]] = {}
    for x, k in got.items():
        c = col[x]
        if c in out:
            out[c].append((k, x))
        elif end is None or end[c] - c > 1:
            out[c] = [(k, x)]
    return out


def _root(sa: _Side, sb: _Side, require: dict[int, int]) -> _Partition | None:
    """The equitable partition refining the base keys, with each required
    pair individualized; None when the sides cannot match."""
    if sb is not sa and Counter(sa.keys) != Counter(sb.keys):
        return None
    p = _Partition(sa, sb)
    for a_i, b_i in sorted(require.items()):
        if p.individualize(a_i, b_i) is None:
            return None
    # base keys fix each vertex's number of edges of every label, so the
    # partition is equitable with respect to the whole vertex set, and
    # one largest cell need not be a splitter
    cells = sorted(set(p.col_a))
    if cells:
        sizes = [p.end[c] - c for c in cells]
        del cells[sizes.index(max(sizes))]
    return p if p.refine(cells) else None


def _leaf_ok(sa: _Side, sb: _Side, moves: dict[int, int]) -> bool:
    """Exhaustive check of the bijection that sends each key of `moves`
    (every vertex when the sides differ) to its value, and fixes the
    rest.  Each simplex that meets a moved vertex is checked once, from
    its least moved vertex, to land on a simplex with its label; the
    others map onto themselves.  Each family then maps injectively into
    the other side's, which is as large, hence onto it."""
    fa, fb = sa.simplices, sb.simplices
    if sb is not sa and (
        fa.keys() != fb.keys() or any(len(f) != len(fb[d]) for d, f in fa.items())
    ):
        return False
    ea, eb, adj, inc, image = fa.get(1), fb.get(1), sa.adj, sa.inc, moves.get
    for a, b in moves.items():
        for _, x in adj[a]:
            y = image(x)
            if y is None:
                y = x
            elif x < a:
                continue
            if eb.get((b, y) if b < y else (y, b)) != ea[(a, x) if a < x else (x, a)]:
                return False
        for t in inc[a]:
            for x in t:
                if x in moves:
                    break
            if x == a:
                d = len(t) - 1
                if fb[d].get(tuple(sorted([image(x, x) for x in t]))) != fa[d][t]:
                    return False
    return True


def _search(sa: _Side, sb: _Side, p: _Partition, mark: int, stats: dict):
    """Lazily yield the verified leaves below the equitable partition p,
    as `p.leaf(mark)` gives them; p is left as found once the generator
    is exhausted, and a caller that stops early undoes p itself.  The
    path lives on an explicit stack of [a, candidate images, next
    candidate, trail mark] entries, so recursion does not bound depth,
    and a node left discrete by its pair is checked without a refinement.
    """
    stack: list[list] = []
    while True:
        # enter a node
        stats["nodes"] = stats.get("nodes", 0) + 1
        c = p.target_cell()
        if c is None:
            leaf = p.leaf(mark)
            if _leaf_ok(sa, sb, leaf):
                yield leaf
        else:
            e = p.end[c]
            stack.append([min(p.elems_a[c:e]), sorted(p.elems_b[c:e]), 0, len(p.trail)])
        # advance to the next child of the deepest open node
        while stack:
            top = stack[-1]
            a, cands, i, m = top
            if i:
                p.undo(m)  # leave the previous child
            if i == len(cands):
                stack.pop()
                continue
            top[2] = i + 1
            c = p.individualize(a, cands[i])
            if p.target_cell() is None or p.refine([c]):
                break
        else:
            return


def _first_leaf(
    sa: _Side, sb: _Side, p: _Partition, pairs: Sequence[tuple[int, int]], stats: dict
) -> dict[int, int] | None:
    """The first verified leaf below p once each index pair (a, b) is
    individualized and refined in turn, or None; p is left as it was.
    The first path's leaf, p.leaf's cellwise sorted map, is checked
    before any descent: it is increasing on every cell, and refinement
    splits both sides alike under it, so it is the search's first leaf
    when it passes.  It then counts as one node; when it fails, it
    counts in `first_leaf_misses` and the search runs instead.
    """
    mark, leaf = len(p.trail), None
    for a, b in pairs:
        c = p.individualize(a, b)
        if c is None or not (p.target_cell() is None or p.refine([c])):
            break
    else:
        guess = p.leaf(mark)
        if _leaf_ok(sa, sb, guess):
            stats["nodes"] = stats.get("nodes", 0) + 1
            leaf = guess
        else:
            stats["first_leaf_misses"] = stats.get("first_leaf_misses", 0) + 1
            leaf = next(_search(sa, sb, p, mark, stats), None)
    p.undo(mark)
    return leaf


def _to_perm(sa: _Side, sb: _Side, leaf: dict[int, int]) -> VertexMap:
    moves = {sa.ids[i]: sb.ids[j] for i, j in leaf.items()}
    cls = VertexPermutation if sb is sa or sa.ids == sb.ids else VertexMap
    return cls._sparse(sa.ids, {k: v for k, v in moves.items() if k != v})


def _require_indices(sa: _Side, sb: _Side, require: Mapping | None) -> dict[int, int]:
    out: dict[int, int] = {}
    for a, b in (require or {}).items():
        if a not in sa.idx or b not in sb.idx:
            raise ValueError(f"required pair ({a!r}, {b!r}) not in the complexes")
        out[sa.idx[a]] = sb.idx[b]
    if len(set(out.values())) != len(out):
        raise ValueError("required mapping is not injective")
    return out


def _find(links: dict[int, int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while links[x] != x:
        links[x] = links[links[x]]
        x = links[x]
    return x


# ----------------------------------------------------------------------
# public API


def ball_side(
    ball: CayleyBall, chambers: Sequence[tuple], colors: Sequence | None = None
) -> _Side:
    """The engine's index of `ball.to_complex()`, colored by `colors` when
    given, read off the ball's rows with no complex built: the ids are
    the row indices, each row's neighbours above it are its edges, and
    `chambers`, which must be `ball.chambers()` (listed once by a caller
    that draws their colors), are the top family; colors[i] colors
    chambers[i].  `automorphisms_fixing` and `automorphism_order` take
    the result in place of a complex.  ValueError as for `to_complex`."""
    ball._refuse_4_cliques()
    if colors is not None and len(colors) != len(chambers):
        raise ValueError(f"{len(colors)} colors for {len(chambers)} chambers")
    n = len(ball.steps)
    ids = tuple(range(n))
    edges = {(u, v): "" for u, row in enumerate(ball.steps) for v in sorted(row) if v > u}
    families = {1: edges} if edges else {}
    top = len(chambers[0]) - 1
    if colors is not None:
        families[top] = dict(zip(chambers, map(repr, colors)))
    elif top:
        families[top] = dict.fromkeys(chambers, "")
    side = _Side.__new__(_Side)
    side._fill(ids, dict(zip(ids, ids)), families, colors is not None)
    return side


def _side_of(c: Complex | _Side) -> _Side:
    return c if isinstance(c, _Side) else _Side(c)


def is_isomorphic(
    a: Complex, b: Complex, *, require: Mapping | None = None
) -> VertexMap | None:
    """A verified witness bijection a -> b that maps chamber colors onto
    chamber colors, or None when none exists.

    `require` pins chosen vertices of a to chosen images in b.  The
    witness is a VertexPermutation when the two vertex sets coincide.
    """
    sa = _Side(a)
    sb = sa if b is a else _Side(b)
    p = _root(sa, sb, _require_indices(sa, sb, require))
    # the sides coincide at trail length 0 when b is a
    leaf = None if p is None else next(_search(sa, sb, p, 0, {}), None)
    return None if leaf is None else _to_perm(sa, sb, leaf)


def automorphisms_fixing(
    c: Complex | _Side, fixed: Iterable, *, cap: int = DEFAULT_CAP
) -> AutomorphismSet:
    """All automorphisms fixing `fixed` pointwise, preserving the chamber
    colors when c has them; `fixed=()` enumerates the whole group.  They
    are listed as the search finds them, with no sort.  c is a complex
    or a Cayley ball's `ball_side`.

    Raises CapExceededError when there are more than `cap` of them.
    """
    side = _side_of(c)
    p = _root(side, side, _require_indices(side, side, {v: v for v in fixed}))
    assert p is not None  # identity is always present
    stats: dict = {"mode": "enumerate"}
    perms: list[VertexMap] = []
    for m in _search(side, side, p, len(p.trail), stats):
        if len(perms) == cap:
            raise CapExceededError(
                f"more than {cap} permutations; raise the cap or "
                "use the order computation"
            )
        perms.append(_to_perm(side, side, m))
    stats["refine_scans"] = p.scans
    return AutomorphismSet(len(perms), tuple(perms), generators=(), stats=stats)


def automorphism_order(
    c: Complex | _Side, *, fixed: Iterable = ()
) -> AutomorphismSet:
    """Exact order of the group of automorphisms fixing `fixed`
    pointwise (preserving the chamber colors when c has them) via an
    orbit-stabilizer chain, no enumeration; c is a complex or a Cayley
    ball's `ball_side`.

    Level by level, the chain fixes one more vertex v and multiplies the
    order by the size of v's orbit under the stabilizer of the vertices
    fixed so far, each membership settled by a find-one search.  A
    level's witnesses merge orbits in a union-find, and no search is made
    for a w known to share an orbit with v or with a w whose search
    failed.  The chain stops once the partition is discrete.
    """
    side = _side_of(c)
    p = _root(side, side, _require_indices(side, side, {v: v for v in fixed}))
    assert p is not None  # identity is always present
    n = len(side.ids)
    order = 1
    gens: list[VertexPermutation] = []
    stats: dict = {"mode": "chain", "searches": 0, "first_leaf_misses": 0}
    for v in range(n):
        if p.target_cell() is None:
            break
        s = p.col_a[v]
        cell = sorted(p.elems_b[s : p.end[s]])
        if len(cell) == 1:
            continue
        orbit = {w: w for w in cell}  # union-find links within the cell
        failed: set[int] = set()  # roots of orbits that v cannot reach
        for w in cell:
            r = _find(orbit, w)
            if r == _find(orbit, v) or r in failed:
                continue
            stats["searches"] += 1
            witness = _first_leaf(side, side, p, [(v, w)], stats)
            if witness is None:
                failed.add(r)
                continue
            gens.append(_to_perm(side, side, witness))
            # the witness fixes all earlier levels, so it maps the cell
            # onto itself
            for x, y in witness.items():
                if p.col_a[x] != s:
                    continue
                rx, ry = _find(orbit, x), _find(orbit, y)
                if rx != ry:
                    orbit[rx] = ry
                    if rx in failed:
                        failed.add(ry)
        root = _find(orbit, v)
        order *= sum(1 for w in cell if _find(orbit, w) == root)
        ok = p.refine([p.individualize(v, v)])
        assert ok  # identity is always present
    stats["refine_scans"] = p.scans
    return AutomorphismSet(order=order, perms=None, generators=tuple(gens), stats=stats)


def verify_permutation(
    c: Complex, perm: VertexPermutation, *, fixed: Iterable = ()
) -> bool:
    """Exhaustively check that perm is an automorphism of c fixing
    `fixed` pointwise, preserving the chamber colors when c has them."""
    if set(perm.domain()) != set(c.vertices) or any(perm(v) != v for v in fixed):
        return False
    fams = [set(c.simplices(d)) for d in c.dims() if d >= 1]
    colors = c.chamber_colors or {}
    return all(perm.apply_simplex(t) in fam for fam in fams for t in fam) and all(
        colors.get(perm.apply_simplex(t)) == col for t, col in colors.items()
    )


# ----------------------------------------------------------------------
# local panel flips


@dataclass(frozen=True)
class PanelFlipReport:
    """Outcome of searching local flips at interior codimension-1 cells.

    A choice fixes one of an edge's three chambers pointwise and asks for
    an automorphism of the edge's star that swaps the other two.
    `searches` counts the find-one searches: three per eligible edge not
    carried (see panel_flip_check), so 21 for a Cayley ball of the 14
    LSV generators whose stars all carry, one per pair {g, g^-1}.
    `thickness` lists the distinct chamber counts of the interior edges,
    eligible or skipped, in ascending order; an edge's chamber count is
    the number of its apexes, one per triangle through it.
    """

    edges_eligible: int
    edges_skipped: int
    choices_satisfied: int
    failures: tuple
    searches: int
    thickness: tuple[int, ...]

    @property
    def choices_total(self) -> int:
        return 3 * self.edges_eligible

    @property
    def fraction(self) -> float | None:
        if self.choices_total == 0:
            return None
        return self.choices_satisfied / self.choices_total


def _star_flips(c: Complex, edge: tuple, apexes: list, star: frozenset) -> list[bool]:
    """For each apex f, whether a search finds a flip of the star that
    fixes the edge and f and swaps the other two apexes."""
    # one index and one root partition, the edge's ends fixed, serve all three
    side = _Side(induced_subcomplex(c, star))
    p = _root(side, side, {side.idx[x]: side.idx[x] for x in edge})
    assert p is not None  # identity is always present
    out = []
    for f in apexes:
        j, k = (side.idx[w] for w in apexes if w != f)
        f = side.idx[f]
        out.append(_first_leaf(side, side, p, [(f, f), (j, k), (k, j)], {}) is not None)
    return out


def _graph(c: Complex) -> tuple[dict, dict | None]:
    """Each vertex's sorted neighbour tuple (a quarter of a frozenset's
    memory), and each triangle's label: repr of its chamber color, or ""
    when c is uncolored.  The labels are None when c is uncolored and
    each 3-clique of its graph is a triangle (they are as many): then a
    star graph's isomorphism carries the triangles unlabelled."""
    colors = c.chamber_colors
    # sorted: the sorted edges list a vertex's lower neighbours first
    lists: dict = {v: [] for v in c.vertices}
    for u, v in c.simplices(1):
        lists[u].append(v)
        lists[v].append(u)
    nb = {v: tuple(ns) for v, ns in lists.items()}
    labels = None
    if colors is None:
        # each 3-clique u < v < w once, from the neighbours above u and v
        cliques = 0
        for u, around in nb.items():
            up = around[bisect(around, u):]
            ups = set(up)
            for v in up:
                cliques += len(ups.intersection(nb[v][bisect(nb[v], v):]))
    if colors is not None or cliques != c.simplex_count(2):
        labels = {t: "" if colors is None else repr(colors[t]) for t in c.simplices(2)}
    return nb, labels


def _step_label(steps, x, y):
    """The first position of y in x's row of steps, or None."""
    return steps[x].index(y) if y in steps[x] else None


def _reference(edge: tuple, star: frozenset, steps, nb, labels, held) -> tuple:
    """A searched edge's entry for `_carried`: the star's vertices in the
    order a breadth-first walk inside it from the edge's lower end reaches
    them, each step after the first as (parent position, label), the upper
    end's position, the star's size (a walk that misses part of it replays
    onto no star), each edge of its graph once as a position pair, each
    3-clique as a position triple with its label (None when it is not a
    triangle; no 3-cliques when `labels` is None), and the verdicts."""
    order, walk, at = [edge[0]], [], {edge[0]: 0}
    for i, x in enumerate(order):
        for lab, x1 in enumerate(steps[x]):
            if x1 in star and x1 not in at:
                at[x1] = len(order)
                order.append(x1)
                walk.append((i, lab))
    up = [[at[b] for b in nb[a] if at.get(b, -1) > i] for i, a in enumerate(order)]
    edges = [(i, j) for i, js in enumerate(up) for j in js]
    cliques = [] if labels is None else [
        ((i, j, k), labels.get(tuple(sorted((order[i], order[j], order[k])))))
        for i, j in edges for k in up[j] if k in up[i]
    ]
    return order, walk, at.get(edge[1]), len(star), edges, cliques, held


def _carried(ref: tuple, steps, start, edge: tuple, star: frozenset, nb, labels):
    """tau^-1, for the map tau that replays the reference walk from
    start, when tau maps the reference edge onto edge (either way round)
    and is a color-keeping isomorphism of the reference star onto star;
    else None.  Stars are full subcomplexes of a 2-dimensional complex,
    so a bijection that maps the reference graph's edges onto edges of
    star's, which has as many, is a graph isomorphism, and equal labels
    on the 3-cliques (or none, see `_graph`) carry the triangles."""
    order, walk, p, n, edges0, cliques0, _ = ref
    tau = [start]
    for i, lab in walk:
        y = steps[tau[i]][lab]
        if y < 0:
            return None
        tau.append(y)
    image = tau.__getitem__
    if (
        len(tau) != n or len(star) != n or set(tau) != star
        or {tau[0], tau[p]} != set(edge)
        or not all(tau[j] in nb[tau[i]] for i, j in edges0)
        or sum(len(star.intersection(nb[y])) for y in tau) != 2 * len(edges0)
        or any(labels.get(tuple(sorted(map(image, t)))) != lab for t, lab in cliques0)
    ):
        return None
    return dict(zip(tau, order))


def panel_flip_check(
    c: Complex, interior: frozenset, *, steps: Sequence[Sequence[int]] | None = None
) -> PanelFlipReport:
    """For every edge with both ends in `interior` and exactly 3
    chambers, try all three fix-one-swap-two flips on the edge's star,
    its ends and their neighbours; a flip must preserve the star's
    chamber colors when it has them.  Stars, apexes and carried checks
    all read `_graph`'s neighbour tuples.

    Without `steps`, a find-one search on the star settles each choice.
    `steps[x]` is vertex x's row, entry i its neighbour x*g_i or
    negative for none, as in a Cayley ball (`CayleyBall.steps`); an edge
    read from one end has the label of the first position of the other
    end in that end's row.  An edge (u, v) is carried from the reference
    of its lower-end label, starting at u, or, when that label has none,
    from the reference of its upper-end label, starting at v: in a
    Cayley ball, edge (u, v) with u*g = v is the left translate of
    (1, g) and, ends swapped, of (1, g^-1), so one reference serves each
    pair {g, g^-1}.  An edge that is not carried is searched, and
    becomes the reference of its lower-end label when neither of its
    labels has one.  Carrying needs the map tau that follows equal
    labels from the reference edge's lower end to the start to map the
    reference edge onto (u, v) and to be an isomorphism of the reference
    star onto this one that keeps the chamber colors (`_carried`).
    Conjugation by tau then turns the flips of the reference star, which
    fix both ends of its edge, into those of this one, so the choice
    that fixes apex f has the verdict of the reference's choice that
    fixes tau^-1(f), kept or failed.  The steps save work but never
    change a verdict.
    """
    if c.dimension != 2:
        raise ValueError("panel flips are defined for 2-dimensional complexes")
    eligible = skipped = searches = 0
    failures: list[tuple] = []
    thickness: set[int] = set()
    # label -> `_reference` entry of its first eligible edge
    refs: dict = {}
    nb, labels = _graph(c)
    for edge in c.simplices(1):
        if not interior.issuperset(edge):
            continue
        u, v = edge
        # dimension 2: an apex is a common neighbour closing a triangle
        nv = nb[v]
        apexes = [w for w in nb[u] if w in nv
                  and (labels is None or tuple(sorted((u, v, w))) in labels)]
        thickness.add(len(apexes))
        if len(apexes) != 3:
            skipped += 1
            continue
        eligible += 1
        star = frozenset(nb[u] + nv)  # the closed neighbourhoods of u and v
        label = ref = back = None
        if steps is not None:
            label = _step_label(steps, u, v)
            start, ref = u, refs.get(label)
            if ref is None:
                # the edge read from its upper end: (v, u) translates
                # the reference of v's label with the ends swapped
                start, ref = v, refs.get(_step_label(steps, v, u))
            if ref is not None:
                back = _carried(ref, steps, start, edge, star, nb, labels)
        if back is not None:
            held = [ref[-1][back[f]] for f in apexes]
        else:
            held = _star_flips(c, edge, apexes, star)
            searches += 3
            if label is not None and ref is None:
                verdicts = dict(zip(apexes, held))
                refs[label] = _reference(edge, star, steps, nb, labels, verdicts)
        failures += [(edge, f) for f, ok in zip(apexes, held) if not ok]
    return PanelFlipReport(
        edges_eligible=eligible,
        edges_skipped=skipped,
        choices_satisfied=3 * eligible - len(failures),
        failures=tuple(failures),
        searches=searches,
        thickness=tuple(sorted(thickness)),
    )

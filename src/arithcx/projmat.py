"""Projective 3x3 matrices over GF(2^k) and Cayley-ball construction.

A point of PGL3 is represented by the matrix scaled so that its first
nonzero entry in row-major order is 1; two matrices are the same group
element iff their canonical forms coincide.  The module carries the
seven Lubotzky-Samuels-Vishne generator matrices over GF(16) and grows
breadth-first Cayley balls around the identity, held as packed entry
ints and rows of steps: entry i of row u is the index of u*g_i.  Each
triangle of a ball is the left translate of one at the identity, so
its edges, triangles, maximal simplices and the identity's link are
read from the rows, with no complex of the whole ball built.

General products go through one kernel, `_product`, which multiplies
two row-major 9-tuples of entry bitmasks with the field's
multiplication rows (`FieldSpec.tables()`, XOR for addition) and
normalizes by one table row.  The determinant, the adjugate and the
action on P^2 read the same rows.  `cayley_ball` instead multiplies by
tables built in each call as they are first needed: for each generator
g, one entry per canonical first row of P^2 that a vertex leads with
(at most q^2+q+1 = 273 over GF(16)), holding the packed-row tables of
the scalar multiple of g that makes the product canonical.  Its
breadth-first search holds each vertex as one packed int, and so does
the ball it returns; no `ProjMatrix` is built for a vertex.

References:
    Lubotzky, Samuels, Vishne.  "Explicit constructions of Ramanujan
    complexes of type A_d."  European J. Combinatorics 26 (2005).
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError
from .gf2k import GF16, FieldSpec, parse_poly
from .scx import Complex, dot_graph

__all__ = [
    "ProjMatrix",
    "GeneratorTable",
    "SymmetricGenerators",
    "CollisionReport",
    "CayleyBall",
    "matrix",
    "identity",
    "determinant",
    "pgl_normalize",
    "pgl_mul",
    "pgl_inv",
    "lsv_raw_matrices",
    "lsv_generators",
    "symmetrize",
    "cayley_ball",
    "proj_plane_points",
    "projective_plane_orbit",
]

DEFAULT_VERTEX_BUDGET = 10**6


@dataclass(frozen=True, slots=True)
class ProjMatrix:
    """A 3x3 matrix over a binary field, entries as row-major bitmasks.

    `canonical` is True when the matrix has been scaled so its first
    nonzero entry is 1; only canonical matrices compare equal as group
    elements.
    """

    spec: FieldSpec
    entries: tuple[int, int, int, int, int, int, int, int, int]
    canonical: bool = False

    def rows(self) -> tuple[tuple[str, str, str], ...]:
        """Entries as polynomial strings, row by row."""
        n = self.spec.names
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = self.entries
        return ((n[a0], n[a1], n[a2]), (n[a3], n[a4], n[a5]), (n[a6], n[a7], n[a8]))

    def encode(self) -> bytes:
        """Canonical byte encoding used for reproducible orderings."""
        return bytes(self.entries)

    def __repr__(self) -> str:
        rows = "; ".join(", ".join(r) for r in self.rows())
        return f"ProjMatrix[{rows}]"


def matrix(spec: FieldSpec, rows: Sequence[Sequence]) -> ProjMatrix:
    """Build a (not yet canonical) matrix from 3x3 entries.

    Entries may be element bitmasks (ints) or polynomial strings such
    as 't^2+1'.
    """
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("expected a 3x3 entry table")
    bits = []
    for row in rows:
        for e in row:
            b = parse_poly(e) if isinstance(e, str) else int(e)
            if not 0 <= b < spec.size:
                raise ValueError(f"entry {e!r} out of range for {spec!r}")
            bits.append(b)
    return ProjMatrix(spec, tuple(bits))


def identity(spec: FieldSpec) -> ProjMatrix:
    return ProjMatrix(spec, (1, 0, 0, 0, 1, 0, 0, 0, 1), canonical=True)


def determinant(m: ProjMatrix) -> int:
    """Determinant by cofactor expansion along the first row.

    The result is the element's bitmask d; `m.spec.names[d]` writes it
    as a polynomial in t.
    """
    mul_rows = m.spec.tables()[0]
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = m.entries
    r3, r4, r5 = mul_rows[a3], mul_rows[a4], mul_rows[a5]
    # char 2: minus signs vanish
    return (
        mul_rows[a0][r4[a8] ^ r5[a7]]
        ^ mul_rows[a1][r3[a8] ^ r5[a6]]
        ^ mul_rows[a2][r3[a7] ^ r4[a6]]
    )


def _canonical(
    mul_rows: list[list[int]], inv: list[int], entries: tuple[int, ...]
) -> tuple[int, ...]:
    """Scale entries so the first nonzero one is 1, by one table row."""
    for b in entries:
        if b == 1:
            return entries
        if b:
            return tuple(map(mul_rows[inv[b]].__getitem__, entries))
    raise ValueError("all-zero entries cannot be normalized")


def _product(
    mul_rows: list[list[int]], inv: list[int], x: tuple, y: tuple
) -> tuple[int, ...]:
    """Canonical entries of x*y, for row-major 3x3 entry tuples.

    The general PGL3 product, called with the field's `tables()`;
    `cayley_ball` multiplies by its own generator tables instead.
    """
    y0, y1, y2, y3, y4, y5, y6, y7, y8 = y
    a, b, c = mul_rows[x[0]], mul_rows[x[1]], mul_rows[x[2]]
    e0 = a[y0] ^ b[y3] ^ c[y6]
    e1 = a[y1] ^ b[y4] ^ c[y7]
    e2 = a[y2] ^ b[y5] ^ c[y8]
    a, b, c = mul_rows[x[3]], mul_rows[x[4]], mul_rows[x[5]]
    e3 = a[y0] ^ b[y3] ^ c[y6]
    e4 = a[y1] ^ b[y4] ^ c[y7]
    e5 = a[y2] ^ b[y5] ^ c[y8]
    a, b, c = mul_rows[x[6]], mul_rows[x[7]], mul_rows[x[8]]
    e6 = a[y0] ^ b[y3] ^ c[y6]
    e7 = a[y1] ^ b[y4] ^ c[y7]
    e8 = a[y2] ^ b[y5] ^ c[y8]
    return _canonical(mul_rows, inv, (e0, e1, e2, e3, e4, e5, e6, e7, e8))


def pgl_normalize(m: ProjMatrix) -> ProjMatrix:
    """Scale so the first nonzero row-major entry is 1.

    Raises ValueError on a singular matrix: canonical forms are only
    issued for group elements.
    """
    if not determinant(m):
        raise ValueError(f"singular matrix has no canonical form: {m!r}")
    entries = _canonical(*m.spec.tables(), m.entries)
    return ProjMatrix(m.spec, entries, canonical=True)


def pgl_mul(a: ProjMatrix, b: ProjMatrix) -> ProjMatrix:
    """Canonical form of the product a*b."""
    if a.spec != b.spec:
        raise ValueError("mismatched field specs")
    return ProjMatrix(
        a.spec, _product(*a.spec.tables(), a.entries, b.entries), canonical=True
    )


def pgl_inv(m: ProjMatrix) -> ProjMatrix:
    """Canonical form of the inverse, via the adjugate.

    In PGL the adjugate itself represents the inverse class, since it
    differs from the actual inverse by the (scalar) determinant.
    """
    if not determinant(m):
        raise ValueError(f"singular matrix has no inverse: {m!r}")
    mul_rows, inv = m.spec.tables()
    a = m.entries

    def minor(r0, r1, c0, c1):
        return (
            mul_rows[a[3 * r0 + c0]][a[3 * r1 + c1]]
            ^ mul_rows[a[3 * r0 + c1]][a[3 * r1 + c0]]
        )

    # adj[j][i] = minor with row i, column j removed (char 2: no signs)
    adj = (
        minor(1, 2, 1, 2), minor(0, 2, 1, 2), minor(0, 1, 1, 2),
        minor(1, 2, 0, 2), minor(0, 2, 0, 2), minor(0, 1, 0, 2),
        minor(1, 2, 0, 1), minor(0, 2, 0, 1), minor(0, 1, 0, 1),
    )
    return ProjMatrix(m.spec, _canonical(mul_rows, inv, adj), canonical=True)


# ----------------------------------------------------------------------
# generator tables


@dataclass(frozen=True)
class GeneratorTable:
    """A named list of canonical, invertible, pairwise distinct matrices."""

    name: str
    fieldspec: FieldSpec
    matrices: tuple[ProjMatrix, ...]

    def __post_init__(self) -> None:
        seen = set()
        for m in self.matrices:
            if m.spec != self.fieldspec:
                raise ValueError("generator from a different field")
            if not m.canonical:
                raise ValueError("generator table requires canonical matrices")
            if not determinant(m):
                raise ValueError(f"singular generator: {m!r}")
            if m.entries in seen:
                raise ValueError(f"repeated generator: {m!r}")
            seen.add(m.entries)

    def __len__(self) -> int:
        return len(self.matrices)


# The seven LSV generators for PGL3 over GF(16), as printed in the
# published table (row-major).  The last matrix is printed with an
# "x+x^2" entry where every other entry uses t; the parser reads x as t.
# See README for the note on that entry.
LSV_GENERATOR_STRINGS: tuple[tuple[tuple[str, str, str], ...], ...] = (
    (("t+t^3", "t^2", "t+t^2"),
     ("t", "t^3", "1+t+t^2"),
     ("t+t^2", "1+t^2", "1+t^3")),
    (("1+t+t^2+t^3", "t+t^2", "1+t^2"),
     ("1+t", "t^2+t^3", "1"),
     ("1+t^2", "t", "t^3")),
    (("1+t^2+t^3", "1+t^2", "t"),
     ("1+t+t^2", "t+t^3", "t^2"),
     ("t", "1+t", "t^2+t^3")),
    (("t+t^2+t^3", "t", "1+t"),
     ("1", "1+t+t^2+t^3", "t+t^2"),
     ("1+t", "1+t+t^2", "t+t^3")),
    (("1+t^3", "1+t", "1+t+t^2"),
     ("t^2", "1+t^2+t^3", "1+t^2"),
     ("1+t+t^2", "1", "1+t+t^2+t^3")),
    (("t^3", "1+t+t^2", "1"),
     ("t+t^2", "t+t^2+t^3", "t"),
     ("1", "t^2", "1+t^2+t^3")),
    (("t^2+t^3", "1", "t^2"),
     ("1+t^2", "1+t^3", "1+t"),
     ("t^2", "x+x^2", "t+t^2+t^3")),
)


def lsv_raw_matrices() -> tuple[ProjMatrix, ...]:
    """The seven generators exactly as printed (not canonicalized)."""
    return tuple(matrix(GF16, rows) for rows in LSV_GENERATOR_STRINGS)


def lsv_generators() -> GeneratorTable:
    """Canonical generator table for the PGL3(GF(16)) construction."""
    mats = tuple(pgl_normalize(m) for m in lsv_raw_matrices())
    return GeneratorTable("lsv-gf16", GF16, mats)


@dataclass(frozen=True)
class SymmetricGenerators:
    """A generator list closed under inverses.

    Labels are 1-based indices into the source table, negated for the
    inverses that `symmetrize` appends.  `inverses` maps each label to
    the label of its generator's inverse, as read from the matrices: a
    generator whose inverse is already in the table keeps that entry's
    label, and a self-inverse one maps to itself.
    """

    fieldspec: FieldSpec
    matrices: tuple[ProjMatrix, ...]
    labels: tuple[int, ...]
    inverses: dict[int, int]

    def __len__(self) -> int:
        return len(self.matrices)

    def inverse_label(self, label: int) -> int:
        return self.inverses[label]


def symmetrize(tbl: GeneratorTable) -> SymmetricGenerators:
    """Append the inverses of a table, deduplicating canonical forms."""
    mats = list(tbl.matrices)
    labels = list(range(1, len(mats) + 1))
    label_of = {g.entries: lab for g, lab in zip(mats, labels)}
    inverses: dict[int, int] = {}
    for lab, g in enumerate(tbl.matrices, 1):
        gi = pgl_inv(g)
        back = label_of.get(gi.entries)
        if back is None:
            back = label_of[gi.entries] = -lab
            mats.append(gi)
            labels.append(back)
        inverses[lab] = back
        inverses[back] = lab
    return SymmetricGenerators(tbl.fieldspec, tuple(mats), tuple(labels), inverses)


# ----------------------------------------------------------------------
# Cayley balls


@dataclass(frozen=True)
class CollisionReport:
    """Two distinct reduced words that reach the same ball vertex."""

    vertex: int
    word_a: tuple[int, ...]
    word_b: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "vertex": self.vertex,
            "word_a": list(self.word_a),
            "word_b": list(self.word_b),
        }


@dataclass(frozen=True)
class CayleyBall:
    """A breadth-first ball around the identity in a Cayley graph.

    Each vertex is a canonical matrix packed into one int, its nine
    k-bit entries in row-major order with entry 0 most significant.
    Index 0 is the identity, and the vertex order is sorted by packed
    int, which is by encoded bytes, within each distance shell.
    `steps[u][i]` is the index of u*g_i, for g_i the i-th generator, or
    -1 off the ball: the full induced graph, edges between two outermost
    vertices included, with one label per neighbour.  `edges()` reads
    the edges off the steps as they are used: no edge list is held.

    Every question about the ball's clique complex is answered from the
    rows and the identity's label pairs, with no `Complex` of the whole
    ball: its edge and triangle counts, its chambers and maximal
    simplices, and the link of the identity, the one `Complex` built.
    `autoeng.ball_side` and `autoeng.panel_flip_check` read the rows
    the same way.
    """

    generators: SymmetricGenerators
    radius: int
    vertices: tuple[int, ...]
    dist: tuple[int, ...]
    steps: tuple[tuple[int, ...], ...]
    collision: CollisionReport | None

    def __len__(self) -> int:
        return len(self.vertices)

    def sphere_sizes(self) -> tuple[int, ...]:
        counts = Counter(self.dist)
        return tuple(counts.get(d, 0) for d in range(self.radius + 1))

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Each edge as (u, v, label) with u < v and v = u*g_label,
        sorted; one label per neighbour makes (u, v) the sort key."""
        labels = self.generators.labels
        for u, row in enumerate(self.steps):
            for v, lab in sorted([(v, lab) for v, lab in zip(row, labels) if v > u]):
                yield u, v, lab

    def _identity_pairs(self) -> list[tuple[int, int]]:
        """The positions i < j of the triangles {1, g_i, g_j}."""
        at, steps = self.steps[0], self.steps
        n = len(at) if self.radius else 0  # radius 0: no steps
        return [(i, j) for i, j in combinations(range(n), 2) if at[j] in steps[at[i]]]

    def _translates(self, lowest: Iterable[int]) -> Iterator[tuple[int, int, int]]:
        """Each triangle (u, v, w) with u < v < w and u in `lowest`, once:
        the translate {u, u*g_i, u*g_j} of each triangle {1, g_i, g_j},
        kept from its lowest vertex u.  Two vertices of the ball that are
        adjacent in the Cayley graph are adjacent in the ball."""
        pairs = self._identity_pairs()
        steps = self.steps
        for u in lowest:
            row = steps[u]
            for i, j in pairs:
                v, w = row[i], row[j]
                if v > u and w > u:
                    yield (u, v, w) if v < w else (u, w, v)

    def triangles(self) -> list[tuple[int, int, int]]:
        """Every triangle as `_translates` finds it, listed."""
        return list(self._translates(range(len(self.steps))))

    def edge_count(self) -> int:
        """The edges, counted from both ends of each row's steps."""
        return sum(len(row) - row.count(-1) for row in self.steps) // 2

    def triangle_count(self) -> int:
        """The triangles as `_translates` finds them, counted and not
        listed."""
        pairs = self._identity_pairs()
        count = 0
        for u, row in enumerate(self.steps):
            for i, j in pairs:
                if row[i] > u and row[j] > u:
                    count += 1
        return count

    def _refuse_4_cliques(self) -> None:
        """ValueError when the identity lies in a 4-clique, whose
        tetrahedra the triangles would lack."""
        pairs = set(self._identity_pairs())
        labels = self.generators.labels
        for i, j, k in combinations(range(len(labels)), 3):
            if {(i, j), (i, k), (j, k)} <= pairs:
                lab = f"{labels[i]}, {labels[j]}, {labels[k]}"
                raise ValueError(f"the identity and labels {lab} span a 4-clique")

    def chambers(self) -> list[tuple]:
        """The chambers of the clique complex, sorted, with no complex
        built: the triangles, else the edges, else the identity alone
        at radius 0.  ValueError when the identity lies in a 4-clique,
        whose tetrahedra the triangles would lack."""
        self._refuse_4_cliques()
        edges = ((u, v) for u, v, _ in self.edges())
        return sorted(self.triangles()) or list(edges) or [(0,)]

    def maximal_simplices(self, lowest: Iterable[int]) -> Iterator[tuple]:
        """The clique complex's maximal simplices whose lowest vertex is
        in `lowest`, read from the rows with no complex built: the
        triangles as `_translates` finds them, then vertex by vertex,
        ascending, each edge (u, u*g_i), u < u*g_i, that no pair of the
        identity holding position i closes in the ball, and each vertex
        with no step in the ball.  ValueError as for `chambers`."""
        self._refuse_4_cliques()
        us = sorted(lowest)
        yield from self._translates(us)
        partners: list[list[int]] = [[] for _ in self.generators.labels]
        for i, j in self._identity_pairs():
            partners[i].append(j)
            partners[j].append(i)
        for u in us:
            row = self.steps[u]
            for v, others in zip(row, partners):
                if v > u and all(row[k] < 0 for k in others):
                    yield (u, v)
            if row.count(-1) == len(row):
                yield (u,)

    def identity_link(self) -> Complex:
        """The link of the identity in the clique complex, from row 0 and
        the identity's pairs: its vertices are the identity's neighbours,
        ascending, and its edges the pairs {g_i, g_j} of the triangles
        {1, g_i, g_j}.  ValueError as for `chambers`."""
        self._refuse_4_cliques()
        at = self.steps[0]
        pairs = [(at[i], at[j]) for i, j in self._identity_pairs()]
        return Complex(sorted(v for v in at if v >= 0), pairs)

    def to_dot(self) -> Iterator[str]:
        """The DOT lines of the 1-skeleton; edge labels are signed
        generator indices."""
        return dot_graph(
            "cayley_ball",
            ((f"v{i}", f'label="{i} (d={d})"') for i, d in enumerate(self.dist)),
            ((f"v{u}", f"v{v}", f'label="{lab}"') for u, v, lab in self.edges()),
        )


def _row_tables(mul_rows: list[list[int]], g: tuple, k: int) -> tuple:
    """Packed-row product tables of generator g: `Tj[x]` is row j of g
    scaled by x, packed as three k-bit entries with the first one most
    significant.  Row i of the product x*g is then
    `T0[x_i0] ^ T1[x_i1] ^ T2[x_i2]`."""
    return tuple(
        [row[b0] << 2 * k | row[b1] << k | row[b2] for row in mul_rows]
        for b0, b1, b2 in (g[0:3], g[3:6], g[6:9])
    )


def cayley_ball(
    gens: SymmetricGenerators,
    radius: int,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
) -> CayleyBall:
    """Grow the ball of a given radius around the identity.

    Args:
        gens: symmetric generator set (validated: canonical, closed
            under inverse with `inverses` read from the matrices,
            identity excluded).
        radius: ball radius, >= 0.
        vertex_budget: abort with BudgetExceededError as soon as the
            ball exceeds this many vertices (below 1, at once).

    Returns:
        CayleyBall with exact BFS distance labels, the steps of the
        full induced graph, and the first reduced-word collision seen.

    The search holds each vertex as one int, its nine k-bit entries
    packed with entry 0 most significant, so ordering by (distance,
    packed int) is ordering by (distance, encoded bytes).  Row 0 of a
    product x*g depends only on row 0 of x, a canonical point of P^2:
    (1, y, z), (0, 1, z) or (0, 0, 1), whose packed value p is below
    2*q^2.  So each generator has a table indexed by p, filled on first
    use, whose entry holds the row tables of the multiple c*g that makes
    the product lead with 1 and that product's row 0, shifted into
    place; a product is one entry read and the six reads of rows 1 and
    2, and comes out canonical.  The tables of a multiple are built
    when an entry first needs them.  Each edge is multiplied out once,
    from its lower end, which fills both ends' entries of a flat step
    array; a vertex skips the steps whose entries are known.  So a step
    that meets a known vertex meets it from below and not along its
    parent edge, and the first such step is the first collision.  Until
    then each vertex knows only its parent edge, at the position of the
    matrix inverse.  The budget error names the shell being grown, the
    radius and the vertex count.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if vertex_budget < 1:
        raise BudgetExceededError(f"vertex budget {vertex_budget} is below one vertex")
    spec = gens.fieldspec
    mul_rows, inv = spec.tables()
    ident = identity(spec).entries
    position = {}
    for i, m in enumerate(gens.matrices):
        if not m.canonical:
            raise ValueError("generators must be canonical")
        if m.entries == ident:
            raise ValueError("identity cannot be a generator")
        position[m.entries] = i
    labels = gens.labels
    k = spec.degree
    mask = spec.size - 1
    k2, k3, k6 = 2 * k, 3 * k, 6 * k
    # scalers[e] turns a row table of g into that of g/e, by
    # x*(c*g_j) = (c*x)*g_j with c = 1/e
    scalers = [None, None]
    scalers += [itemgetter(*mul_rows[inv[e]]) for e in range(2, spec.size)]

    # moves[i]: (generator i, its label, its entries by packed first row,
    # the row tables of g_i/e by lead e, the position of the generator
    # that steps back); entries and tables are filled on first use
    moves = []
    for i, (m, lab) in enumerate(zip(gens.matrices, labels)):
        back = position.get(pgl_inv(m).entries)
        if back is None or labels[back] != gens.inverses.get(lab):
            raise ValueError(
                f"generator set not symmetric, or its inverse labels wrong, "
                f"at label {lab}"
            )
        multiples = [None] * spec.size
        multiples[1] = _row_tables(mul_rows, m.entries, k)
        moves.append((i, lab, [None] * (2 << k2), multiples, back))
    width = len(moves)
    unknown = array("i", [-1]) * width

    x = 1 << 8 * k | 1 << 4 * k | 1  # the identity, packed
    index: dict[int, int] = {x: 0}
    verts: list[int] = [x]
    dist: list[int] = [0]
    parent: list[int] = [-1]
    parent_step: list[int] = [-1]
    # adj[u * width + i]: the vertex u*g_i, -1 until known or off the ball
    adj = array("i", unknown)
    collision: tuple[int, tuple[int, ...], tuple[int, ...]] | None = None

    def word_of(i: int) -> tuple[int, ...]:
        out: list[int] = []
        while i > 0:
            out.append(labels[parent_step[i]])
            i = parent[i]
        return tuple(reversed(out))

    lookup = index.get
    s3, s4, s5, s6, s7 = range(5 * k, 0, -k)
    u = 0
    while u < len(verts):
        x = verts[u]
        du = dist[u]
        p = x >> k6
        a3, a4, a5 = x >> s3 & mask, x >> s4 & mask, x >> s5 & mask
        a6, a7, a8 = x >> s6 & mask, x >> s7 & mask, x & mask
        base = u * width
        for i, lab, table, multiples, back in moves:
            if adj[base + i] >= 0:
                continue
            entry = table[p]
            if entry is None:
                # row 0 of x*g leads with `lead`, so x*(g/lead) is canonical
                p0, p1, p2 = p >> k2, p >> k & mask, p & mask
                t0, t1, t2 = multiples[1]
                r0 = t0[p0] ^ t1[p1] ^ t2[p2]
                lead = r0 >> k2 or r0 >> k or r0
                tables = multiples[lead]
                if tables is None:
                    scale = scalers[lead]
                    tables = multiples[lead] = (scale(t0), scale(t1), scale(t2))
                t0, t1, t2 = tables
                entry = table[p] = (t0, t1, t2, (t0[p0] ^ t1[p1] ^ t2[p2]) << k6)
            t0, t1, t2, head = entry
            v = head | (t0[a3] ^ t1[a4] ^ t2[a5]) << k3 | t0[a6] ^ t1[a7] ^ t2[a8]
            w = lookup(v)
            if w is None:
                if du >= radius:
                    continue
                if len(verts) + 1 > vertex_budget:
                    raise BudgetExceededError(
                        f"ball exceeds vertex budget {vertex_budget} while "
                        f"growing shell {du + 1} of radius {radius}: "
                        f"{len(verts)} vertices built, "
                        f"{dist.count(du + 1)} of them in shell {du + 1}"
                    )
                w = len(verts)
                index[v] = w
                verts.append(v)
                dist.append(du + 1)
                parent.append(u)
                parent_step.append(i)
                adj += unknown
            elif collision is None:
                # met from below (w > u), and w is not u's child
                collision = (w, word_of(w), word_of(u) + (lab,))
            adj[base + i] = w
            adj[w * width + back] = u
        u += 1

    # canonical order: by (distance, encoded bytes), as ProjMatrix.encode;
    # each shell is a run of the search's order, sorted by packed int
    starts = [dist.index(d) for d in range(dist[-1] + 1)] + [len(verts)]
    order: list[int] = []
    for a, b in zip(starts, starts[1:]):
        order += sorted(range(a, b), key=verts.__getitem__)
    # a step off the ball, -1, reads pos[-1], which stays -1
    pos = [0] * len(verts) + [-1]
    for new, old in enumerate(order):
        pos[old] = new
    # the remapped entries, cut into rows of `width` by one shared iterator
    rows = list(zip(*[iter(map(pos.__getitem__, adj))] * width))
    report = None
    if collision is not None:
        report = CollisionReport(pos[collision[0]], collision[1], collision[2])
    return CayleyBall(
        generators=gens,
        radius=radius,
        vertices=tuple(map(verts.__getitem__, order)),
        dist=tuple(map(dist.__getitem__, order)),
        steps=tuple(map(rows.__getitem__, order)),
        collision=report,
    )


# ----------------------------------------------------------------------
# projective plane action


def proj_plane_points(spec: FieldSpec) -> tuple[tuple[int, int, int], ...]:
    """Canonical points of P^2: first nonzero coordinate scaled to 1."""
    pts = []
    q = spec.size
    for y in range(q):
        for z in range(q):
            pts.append((1, y, z))
    for z in range(q):
        pts.append((0, 1, z))
    pts.append((0, 0, 1))
    return tuple(pts)


def _act(m: ProjMatrix, p: tuple[int, int, int]) -> tuple[int, int, int]:
    """Canonical point m*p, for p a column vector."""
    mul_rows, inv = m.spec.tables()
    a = m.entries
    x, y, z = mul_rows[p[0]], mul_rows[p[1]], mul_rows[p[2]]
    return _canonical(mul_rows, inv, (
        x[a[0]] ^ y[a[1]] ^ z[a[2]],
        x[a[3]] ^ y[a[4]] ^ z[a[5]],
        x[a[6]] ^ y[a[7]] ^ z[a[8]],
    ))


def projective_plane_orbit(gens: Iterable[ProjMatrix]) -> list[int]:
    """Orbit sizes of the generated group acting on P^2, descending.

    Only the matrices themselves are applied, never their inverses: each
    permutes the finite set P^2, so its inverse is one of its powers, and
    the points reachable from p by products of the matrices are already
    p's orbit under the group they generate.
    """
    action = list(gens)
    if not action:
        raise ValueError("need at least one matrix")
    spec = action[0].spec
    pts = proj_plane_points(spec)
    idx = {p: i for i, p in enumerate(pts)}
    seen = [False] * len(pts)
    sizes = []
    for start in range(len(pts)):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        size = 0
        while queue:
            i = queue.pop()
            size += 1
            p = pts[i]
            for m in action:
                j = idx[_act(m, p)]
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
        sizes.append(size)
    return sorted(sizes, reverse=True)

"""Integer quaternions and the norm-5 lattice acting on a 6-regular tree.

The six integer quaternions of norm 5 with odd positive real part
generate, modulo the scaling relation 5^k1 * a = +-5^k2 * b, a free
group of rank 3.  Its Cayley graph is a 6-regular tree.  Reducing each
generator to Z/4Z (a_i -> i, conjugates to -i) labels every vertex with
a fiber in Z/4Z; quotienting by the label-preserving subgroup collapses
the tree onto a 6-regular multigraph on 4 vertices whose underlying
simple graph is K4, every pair of vertices joined by 2 parallel edges.

Coloring the quotient's edge pairs by the three perfect matchings of K4
(A: {0,1},{2,3}; B: {0,2},{1,3}; C: {0,3},{1,2}) and pulling back along
the fiber labels gives every tree vertex exactly 2 incident edges of
each color.  Color-preserving automorphisms of a finite ball may then
swap same-colored sibling subtrees independently at every interior
vertex: the group of those fixing an inner ball pointwise grows
doubly exponentially with the radius, the counting experiment exposed
by color_automorphism_count and witnessed explicitly by ray_flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .autoeng import VertexPermutation, automorphism_order, automorphisms_fixing
from .errors import BudgetExceededError
from .scx import Complex, dot_graph

__all__ = [
    "Quaternion",
    "ColoredTreeBall",
    "QuotientEdge",
    "QuotientGraph",
    "ColorAutCount",
    "norm5_generators",
    "canonical_rep",
    "free_group_check",
    "lift_coloring",
    "quotient_graph",
    "color_automorphism_count",
    "ray_flip",
    "GENERATOR_NAMES",
    "GENERATOR_INVERSE",
    "FIBER_IMAGE",
    "MATCHING_COLOR",
]


@dataclass(frozen=True, slots=True)
class Quaternion:
    """An integer quaternion a0 + a1*i + a2*j + a3*k."""

    a0: int
    a1: int
    a2: int
    a3: int

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        # Hamilton product: i*i = j*j = k*k = -1, i*j = k
        a0, a1, a2, a3 = self.a0, self.a1, self.a2, self.a3
        b0, b1, b2, b3 = other.a0, other.a1, other.a2, other.a3
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a0, -self.a1, -self.a2, -self.a3)

    def __bool__(self) -> bool:
        return bool(self.a0 or self.a1 or self.a2 or self.a3)

    def norm(self) -> int:
        return self.a0**2 + self.a1**2 + self.a2**2 + self.a3**2

    def coefficients(self) -> tuple[int, int, int, int]:
        return (self.a0, self.a1, self.a2, self.a3)

    def __str__(self) -> str:
        parts = []
        for coeff, unit in zip(self.coefficients(), ("", "i", "j", "k")):
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else ("+" if parts else "")
            mag = abs(coeff)
            body = unit if unit and mag == 1 else f"{mag}{unit}"
            parts.append(f"{sign}{body}")
        return "".join(parts) or "0"


def norm5_generators() -> tuple[Quaternion, ...]:
    """The 6 quaternions of norm 5 with odd positive real part and even
    imaginary parts: 1+-2i, 1+-2j, 1+-2k, found by brute force.

    Ordered as (a1, a2, a3, conj(a1), conj(a2), conj(a3)) where a_m has
    +2 on the m-th imaginary axis.
    """
    found = []
    span = range(-2, 3)
    for a0 in span:
        for a1 in span:
            for a2 in span:
                for a3 in span:
                    q = Quaternion(a0, a1, a2, a3)
                    if (
                        q.norm() == 5
                        and a0 > 0
                        and a0 % 2 == 1
                        and a1 % 2 == a2 % 2 == a3 % 2 == 0
                    ):
                        found.append(q)
    def key(q: Quaternion):
        axis = max(range(1, 4), key=lambda m: abs(q.coefficients()[m]))
        return (q.coefficients()[axis] < 0, axis)
    found.sort(key=key)
    return tuple(found)


GENERATOR_NAMES = ("a1", "a2", "a3", "a1c", "a2c", "a3c")

# generator i times generator GENERATOR_INVERSE[i] is the scalar 5,
# which is the identity class
GENERATOR_INVERSE = (3, 4, 5, 0, 1, 2)

# image in Z/4Z under a_m -> m; conjugates land on -m mod 4
FIBER_IMAGE = (1, 2, 3, 3, 2, 1)

# the three perfect matchings of K4 on the fiber set Z/4Z
MATCHING_COLOR = {
    frozenset({0, 1}): "A", frozenset({2, 3}): "A",
    frozenset({0, 2}): "B", frozenset({1, 3}): "B",
    frozenset({0, 3}): "C", frozenset({1, 2}): "C",
}

# generator index pairs whose edges share a color at every vertex
# (equal fiber images); preference order for ray_flip
SAME_COLOR_PAIRS = ((0, 5), (1, 4), (2, 3))


def _strip_fives(q: Quaternion) -> Quaternion:
    while all(c % 5 == 0 for c in q.coefficients()):
        q = Quaternion(*(c // 5 for c in q.coefficients()))
    return q


def _is_power_of_5(n: int) -> bool:
    if n < 1:
        return False
    while n % 5 == 0:
        n //= 5
    return n == 1


def canonical_rep(a: Quaternion) -> Quaternion:
    """The class of a quaternion whose norm is a power of 5, up to
    scaling by +-5^k: its primitive multiple (not every coefficient
    divisible by 5) whose first nonzero coefficient is positive."""
    if not a:
        raise ValueError("the zero quaternion has no class")
    if not _is_power_of_5(a.norm()):
        raise ValueError(f"norm {a.norm()} of {a} is not a power of 5")
    a = _strip_fives(a)
    for c in a.coefficients():
        if c:
            return -a if c < 0 else a
    raise AssertionError("unreachable")


def _generator_classes() -> tuple[Quaternion, ...]:
    return tuple(canonical_rep(q) for q in norm5_generators())


# the longest reduced words free_group_check counts
MAX_WORD_LENGTH = 7


def free_group_check(limit: int) -> dict[int, int]:
    """Distinct class counts over reduced words of lengths 1..limit,
    read from the radius-`limit` ball (`ColoredTreeBall.class_counts`).

    The generators act freely at scale `limit` iff the count at every
    length l equals 6 * 5**(l-1), i.e. no two reduced words collide.
    Two words of lengths up to `limit` that share a class give a
    relation of even length (a class keeps the parity of its norm's
    power of 5) at most 2 * limit, whose halves collide at one length.
    """
    if not 1 <= limit <= MAX_WORD_LENGTH:
        raise ValueError(f"limit must be within 1..{MAX_WORD_LENGTH}, got {limit}")
    return lift_coloring(limit).class_counts(limit)


# ----------------------------------------------------------------------
# the colored tree ball


@dataclass(frozen=True)
class ColoredTreeBall:
    """A radius-r ball in the 6-regular tree, breadth-first order.

    Parallel tuples: words[i] is the reduced generator-index word of
    vertex i, classes[i] its lattice class (`canonical_rep` of the
    word's product), dist[i] = len(words[i]).  Edges are (parent,
    child, generator index applied at the parent, color), each
    parent's in generator order; the color is read from the Z/4Z fiber
    labels of the two ends.
    """

    radius: int
    words: tuple[tuple[int, ...], ...]
    classes: tuple[Quaternion, ...]
    dist: tuple[int, ...]
    edges: tuple[tuple[int, int, int, str], ...]

    def sphere_sizes(self) -> tuple[int, ...]:
        sizes = [0] * (self.radius + 1)
        for d in self.dist:
            sizes[d] += 1
        return tuple(sizes)

    def class_counts(self, limit: int) -> dict[int, int]:
        """The number of distinct classes at each distance 1..limit."""
        found: dict[int, set[Quaternion]] = {l: set() for l in range(1, limit + 1)}
        for cls, d in zip(self.classes, self.dist):
            if 1 <= d <= limit:
                found[d].add(cls)
        return {l: len(classes) for l, classes in found.items()}

    def vertex_count(self) -> int:
        return len(self.words)

    def to_complex(self) -> Complex:
        """The ball as an edge-colored 1-dimensional complex on the
        vertex indices."""
        return Complex(
            range(len(self.words)),
            [(u, v) for u, v, _, _ in self.edges],
            chamber_colors={(u, v): color for u, v, _, color in self.edges},
        )

    def to_dot(self) -> Iterator[str]:
        """The DOT lines of the ball, edges colored and labelled."""
        render = {"A": "red", "B": "green", "C": "blue"}
        nodes = ((f"n{i}", f'label="{cls}"') for i, cls in enumerate(self.classes))
        edges = (
            (f"n{u}", f"n{v}", f'label="{c}:{GENERATOR_NAMES[g]}", color={render[c]}')
            for u, v, g, c in self.edges
        )
        return dot_graph("treeball", nodes, edges)


def _edge_color(fiber_u: int, fiber_v: int) -> str:
    return MATCHING_COLOR[frozenset({fiber_u, fiber_v})]


def lift_coloring(r: int, *, vertex_budget: int = 10**6) -> ColoredTreeBall:
    """Build the radius-r tree ball with the matching coloring pulled
    back from the quotient along the Z/4Z fiber labels, which are kept
    only while the edges are colored.

    One vertex per reduced word, whether or not two words share a
    class: `class_counts` shows a collision.  Raises
    BudgetExceededError past `vertex_budget` vertices.
    """
    if r < 1:
        raise ValueError(f"radius must be at least 1, got {r}")
    expected = 1 + 6 * (5**r - 1) // 4
    if expected > vertex_budget:
        raise BudgetExceededError(
            f"radius {r} needs {expected} vertices, budget is {vertex_budget}"
        )
    gens = _generator_classes()
    words: list[tuple[int, ...]] = [()]
    classes: list[Quaternion] = [Quaternion(1, 0, 0, 0)]
    fibers: list[int] = [0]
    dist: list[int] = [0]
    edges: list[tuple[int, int, int, str]] = []
    frontier = [0]
    for depth in range(1, r + 1):
        nxt = []
        for u in frontier:
            word = words[u]
            for g in range(6):
                if word and g == GENERATOR_INVERSE[word[-1]]:
                    continue
                v = len(words)
                fiber = (fibers[u] + FIBER_IMAGE[g]) % 4
                words.append(word + (g,))
                classes.append(canonical_rep(classes[u] * gens[g]))
                fibers.append(fiber)
                dist.append(depth)
                color = _edge_color(fibers[u], fiber)
                edges.append((u, v, g, color))
                nxt.append(v)
        frontier = nxt
    return ColoredTreeBall(
        radius=r,
        words=tuple(words),
        classes=tuple(classes),
        dist=tuple(dist),
        edges=tuple(edges),
    )


# ----------------------------------------------------------------------
# the quotient over Z/4Z


@dataclass(frozen=True, slots=True)
class QuotientEdge:
    """An orbit of tree edges: from fiber u via generator gen_from_u,
    equivalently from fiber v via gen_from_v."""

    u: int
    v: int
    gen_from_u: int
    gen_from_v: int
    color: str


@dataclass(frozen=True, slots=True)
class QuotientGraph:
    """The 6-regular multigraph on Z/4Z covering the tree: K4 with
    every pair of vertices joined by 2 parallel edges."""

    vertices: tuple[int, int, int, int]
    edges: tuple[QuotientEdge, ...]

    def degree(self, v: int) -> int:
        return sum((e.u == v) + (e.v == v) for e in self.edges)

    def parallel_count(self, u: int, v: int) -> int:
        a, b = min(u, v), max(u, v)
        return sum(1 for e in self.edges if (e.u, e.v) == (a, b))

    def simple_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted({(e.u, e.v) for e in self.edges}))

    def to_complex(self) -> Complex:
        """The underlying simple K4 with each edge colored by the
        matching its parallel pair belongs to."""
        colors = {(e.u, e.v): e.color for e in self.edges}
        return Complex(self.vertices, colors.keys(), chamber_colors=colors)


def quotient_graph() -> QuotientGraph:
    """Quotient the tree by the fiber-label action: orbits of directed
    (fiber, generator) pairs, paired with their reversals."""
    orbits: dict[tuple[int, int], QuotientEdge] = {}
    for u in range(4):
        for g in range(6):
            v = (u + FIBER_IMAGE[g]) % 4
            ginv = GENERATOR_INVERSE[g]
            key = min((u, g), (v, ginv))
            if key not in orbits:
                a, ga = key
                b, gb = max((u, g), (v, ginv))
                orbits[key] = QuotientEdge(
                    u=min(a, b),
                    v=max(a, b),
                    gen_from_u=ga if a <= b else gb,
                    gen_from_v=gb if a <= b else ga,
                    color=_edge_color(u, v),
                )
    edges = tuple(sorted(orbits.values(), key=lambda e: (e.u, e.v, e.gen_from_u)))
    return QuotientGraph(vertices=(0, 1, 2, 3), edges=edges)


# ----------------------------------------------------------------------
# color-preserving automorphism growth


@dataclass(frozen=True, slots=True)
class ColorAutCount:
    """Exact count of color-preserving automorphisms of the radius-r
    ball fixing the radius-s ball pointwise.

    The count factorizes over independent local choices: 8 ways to
    permute the root's three same-colored edge pairs when the root is
    free, and 4 ways (2 swappable pairs) at each of the
    `pair_choice_sites` interior vertices with unfixed children.
    `enumerated` and `chain_order` hold engine cross-checks when they
    were run.
    """

    r: int
    s: int
    count: int
    log2_count: int
    root_choices: int
    pair_choice_sites: int
    enumerated: int | None
    chain_order: int | None

    @property
    def consistent(self) -> bool:
        return all(
            x == self.count for x in (self.enumerated, self.chain_order)
            if x is not None
        )

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "s": self.s,
            "count": _decimal(self.count),
            "log2_count": self.log2_count,
            "root_choices": self.root_choices,
            "pair_choice_sites": self.pair_choice_sites,
            "enumerated": self.enumerated,
            "chain_order": str(self.chain_order) if self.chain_order is not None else None,
            "consistent": self.consistent,
        }


def _decimal(n: int) -> str:
    """The decimal digits of n >= 0, written in pieces short enough for
    str() under any digit limit the interpreter accepts (640 or more)."""
    if n.bit_length() < 2000:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's digits
    hi, lo = divmod(n, 10**k)
    return _decimal(hi) + _decimal(lo).zfill(k)


def _fixed_ball_indices(ball: ColoredTreeBall, s: int) -> list[int]:
    return [i for i, d in enumerate(ball.dist) if d <= s]


# the largest radius color_automorphism_count accepts, and the largest
# predicted count its engine cross-check still enumerates in full
MAX_COUNT_RADIUS = 8
ENUMERATION_CAP = 10**4


def color_automorphism_count(r: int, s: int, *, check: bool = True) -> ColorAutCount:
    """Count color-preserving automorphisms of ball(r) fixing ball(s).

    Always exact: the factorized product is an integer no matter how
    large.  When `check` is set and the ball is small (r <= 5) the
    result is cross-validated by the search engine, by full enumeration
    when the prediction is within ENUMERATION_CAP and by an
    orbit-stabilizer order computation regardless.
    """
    if not 0 <= s <= r:
        raise ValueError(f"need 0 <= s <= r, got r={r}, s={s}")
    if r > MAX_COUNT_RADIUS:
        raise ValueError(f"radius {r} exceeds the bound {MAX_COUNT_RADIUS}")
    root_choices = 8 if s == 0 and r >= 1 else 1
    sites = sum(6 * 5 ** (d - 1) for d in range(max(s, 1), r))
    count = root_choices * 4**sites
    log2 = (3 if root_choices == 8 else 0) + 2 * sites
    enumerated = None
    chain_order = None
    if check and 1 <= r <= 5:
        ball = lift_coloring(r)
        cx = ball.to_complex()
        fixed = _fixed_ball_indices(ball, s)
        if count <= ENUMERATION_CAP:
            enumerated = automorphisms_fixing(cx, fixed, cap=ENUMERATION_CAP).order
        chain_order = automorphism_order(cx, fixed=fixed).order
    return ColorAutCount(
        r=r,
        s=s,
        count=count,
        log2_count=log2,
        root_choices=root_choices,
        pair_choice_sites=sites,
        enumerated=enumerated,
        chain_order=chain_order,
    )


# ----------------------------------------------------------------------
# the explicit flip witness


def ray_flip(ball: ColoredTreeBall, v: int) -> VertexPermutation:
    """Swap two same-colored outward subtrees at vertex v, identity
    everywhere else: a color-preserving involution of the ball fixing
    the ball of radius dist(v) pointwise.

    The pair of rays is the first fully-outward entry of
    SAME_COLOR_PAIRS, so the (a1, conj(a3)) pair whenever both edges
    point outward.  Raises ValueError when v has no same-colored
    outward pair inside the ball.  The flip is not verified here:
    `verify_permutation` on `ball.to_complex()` is its check.
    """
    if not 0 <= v < ball.vertex_count():
        raise ValueError(f"no vertex {v} in the ball")
    # each vertex's (generator, child, color) triples, generator order
    children: list[list[tuple[int, int, str]]] = [[] for _ in ball.words]
    for u, w, g, color in ball.edges:
        children[u].append((g, w, color))
    kids = {g: (w, color) for g, w, color in children[v]}
    pair = next(
        ((a, b) for a, b in SAME_COLOR_PAIRS if a in kids and b in kids),
        None,
    )
    if pair is None:
        raise ValueError(
            f"vertex {v} at distance {ball.dist[v]} has no same-colored "
            f"outward pair within radius {ball.radius}"
        )
    c1, color1 = kids[pair[0]]
    c2, color2 = kids[pair[1]]
    assert color1 == color2  # equal fiber images
    mapping = {i: i for i in range(ball.vertex_count())}

    def match(u1: int, u2: int) -> None:
        mapping[u1] = u2
        mapping[u2] = u1
        by_color_1: dict[str, list[int]] = {}
        by_color_2: dict[str, list[int]] = {}
        for _, w, color in children[u1]:
            by_color_1.setdefault(color, []).append(w)
        for _, w, color in children[u2]:
            by_color_2.setdefault(color, []).append(w)
        # matched vertices have equal inbound colors, hence equal
        # outward color profiles; tie-break by generator order
        assert sorted(by_color_1) == sorted(by_color_2)
        for color, group1 in sorted(by_color_1.items()):
            group2 = by_color_2[color]
            assert len(group1) == len(group2)
            for w1, w2 in zip(group1, group2):
                match(w1, w2)

    match(c1, c2)
    return VertexPermutation(mapping)

"""Property tests: engine verdicts do not depend on vertex names, a
find-one search's first-path guess is its first leaf, the leaf check
local to the moved vertices agrees with a check of every simplex, a
sparse witness behaves as its full dict, a graph's triangle count is
its clique complex's, its clique complex is the complex of all its
cliques, and the pieces the CLI's report writer writes join to what
json.dumps writes.

hypothesis is not a declared dependency, so the module is skipped when
it is missing.
"""

import itertools
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import FullMap, all_simplices, full_leaf_ok, relabel, searched_first_leaf

from arithcx.autoeng import (
    VertexPermutation,
    _first_leaf,
    _leaf_ok,
    _root,
    _Side,
    automorphism_order,
    automorphisms_fixing,
    is_isomorphic,
    verify_permutation,
)
from arithcx.cli import _emit
from arithcx.scx import Complex, clique_complex


@st.composite
def complexes(draw, n=None):
    """A complex on n vertices (1..7 when n is None) with edges and
    triangles, its chambers colored or not."""
    n = draw(st.integers(1, 7)) if n is None else n
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    es = set(edges)
    tris = [
        t
        for t in itertools.combinations(range(n), 3)
        if set(itertools.combinations(t, 2)) <= es
    ]
    chosen = draw(st.lists(st.sampled_from(tris), unique=True)) if tris else []
    c = Complex(range(n), edges + chosen)
    if c.dimension >= 1 and draw(st.booleans()):
        palette = st.sampled_from("AB")
        c = Complex(
            range(n),
            edges + chosen,
            chamber_colors={t: draw(palette) for t in c.chambers()},
        )
    return c


def with_edge(c: Complex, e: tuple) -> Complex:
    colors = c.chamber_colors
    if colors is not None and c.dimension == 1:
        colors = {**colors, e: "A"}
    return Complex(
        c.vertices,
        all_simplices(c, 1) + [e],
        chamber_colors=colors,
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_orders_and_isomorphism_survive_relabelling(data):
    c = data.draw(complexes())
    perm = dict(zip(c.vertices, data.draw(st.permutations(c.vertices))))
    d = relabel(c, perm)

    order = automorphisms_fixing(c, ()).order
    assert automorphisms_fixing(d, ()).order == order
    assert automorphism_order(c).order == order
    assert automorphism_order(d).order == order

    w = is_isomorphic(c, d)
    assert w is not None
    back = VertexPermutation({b: a for a, b in perm.items()})
    assert verify_permutation(c, back.compose(w))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_extra_edge_is_not_isomorphic(data):
    c = data.draw(complexes())
    missing = [e for e in itertools.combinations(c.vertices, 2) if not c.has_simplex(e)]
    assume(missing)
    bigger = with_edge(c, data.draw(st.sampled_from(missing)))
    perm = dict(zip(c.vertices, data.draw(st.permutations(c.vertices))))
    assert is_isomorphic(c, relabel(bigger, perm)) is None
    assert is_isomorphic(relabel(bigger, perm), c) is None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_first_leaf_guess_is_the_search_first_leaf(data):
    # onto a relabelled copy, so that the leaf is seldom the identity
    c = data.draw(complexes())
    perm = dict(zip(c.vertices, data.draw(st.permutations(c.vertices))))
    sa, sb = _Side(c), _Side(relabel(c, perm))
    p = _root(sa, sb, {})
    assert p is not None
    s = data.draw(st.sampled_from(sorted(set(p.col_a))))
    a = data.draw(st.sampled_from(p.elems_a[s : p.end[s]]))
    b = data.draw(st.sampled_from(p.elems_b[s : p.end[s]]))
    pairs = [(a, b)]
    assert _first_leaf(sa, sb, p, pairs, {}) == searched_first_leaf(sa, sb, p, pairs)


def bijections(data, c: Complex) -> list[int]:
    """Index images of a bijection of c's vertices: a random one, or an
    automorphism of c's graph or of c without its colors, which keeps
    the edges and leaves the triangles or colors to decide."""
    n = len(c.vertices)
    kind = data.draw(st.sampled_from(["random", "graph", "uncolored"]))
    if kind == "random" or c.dimension < 1:
        return data.draw(st.permutations(range(n)))
    plain = Complex(c.vertices, c.simplices(1) if kind == "graph" else all_simplices(c, 1))
    perm = data.draw(st.sampled_from(automorphisms_fixing(plain, ()).perms))
    ids = sorted(c.vertices)
    at = {v: i for i, v in enumerate(ids)}
    return [at[perm(v)] for v in ids]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_local_leaf_check_agrees_with_the_full_check(data):
    c = data.draw(complexes())
    side = _Side(c)
    images = bijections(data, c)
    moves = {i: j for i, j in enumerate(images) if i != j}
    assert _leaf_ok(side, side, moves) == full_leaf_ok(side, side, images)
    # onto a relabelled copy or another complex on as many vertices,
    # every vertex counts
    n = len(side.ids)
    sigma = data.draw(st.permutations(range(n)))
    copy = relabel(c, dict(zip(range(n), sigma)))
    other = _Side(data.draw(st.sampled_from([copy, data.draw(complexes(n))])))
    onto = [sigma[j] for j in images]
    assert _leaf_ok(side, other, dict(enumerate(onto))) == full_leaf_ok(side, other, onto)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_witnesses_match_full_dicts(data):
    c = data.draw(complexes())
    fixed = data.draw(st.lists(st.sampled_from(c.vertices), max_size=2, unique=True))
    perms = automorphisms_fixing(c, fixed).perms
    p, q = data.draw(st.sampled_from(perms)), data.draw(st.sampled_from(perms))
    fp, fq = (FullMap({v: g(v) for v in g.domain()}) for g in (p, q))
    rebuilt = VertexPermutation(dict(reversed(list(fp.map.items()))))
    assert p == rebuilt and rebuilt == p and hash(p) == hash(rebuilt)
    assert (p == q) == (fp.map == fq.map)
    assert p.to_json_dict() == fp.to_json_dict()
    assert (p.domain(), p.moved()) == (fp.domain(), fp.moved())
    assert p.compose(q) == VertexPermutation(fp.compose(fq).map)
    assert p.compose(q).to_json_dict() == fp.compose(fq).to_json_dict()
    assert all(p(v) == fp(v) for v in c.vertices)
    assert p.is_identity() == (fp.moved() == ())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_clique_complex_is_the_complex_of_all_cliques(data):
    # clique_complex stores its cliques as found; Complex sorts, checks
    # and closes the same cliques, handed over in any order
    n = data.draw(st.integers(0, 9))
    names = [f"v{i}" for i in range(n)] if n % 2 else list(range(n))
    ids = data.draw(st.permutations(names))
    pairs = list(itertools.combinations(ids, 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [e if data.draw(st.booleans()) else e[::-1] for e in chosen]
    max_dim = data.draw(st.integers(1, 3))
    linked = {frozenset(e) for e in edges}
    cliques = [
        t
        for k in range(2, max_dim + 2)
        for t in itertools.combinations(ids, k)
        if all(frozenset(e) in linked for e in itertools.combinations(t, 2))
    ]
    fast = clique_complex(ids, edges, max_dim=max_dim)
    slow = Complex(ids, data.draw(st.permutations(cliques)))
    assert fast == slow
    assert fast.vertices == slow.vertices and fast.dims() == slow.dims()
    for d in slow.dims():
        assert fast.simplices(d) == slow.simplices(d)
    assert fast.maximal_simplices() == slow.maximal_simplices()
    assert fast.chambers() == slow.chambers()


_TEXT = st.text() | st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'))
_NUMBERS = st.integers(-(2**200), 2**200) | st.booleans() | st.floats()
_SCALARS = st.none() | _NUMBERS | _TEXT


def _containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(_TEXT, children, max_size=5)
        # int, bool and float keys sort together, and nan keys too
        | st.dictionaries(_NUMBERS, children, max_size=5)
        | st.dictionaries(st.none(), children, max_size=1)
    )


@settings(max_examples=400, deadline=None)
@given(st.recursive(_SCALARS, _containers, max_leaves=40))
def test_render_matches_json_dumps(obj):
    pieces = []
    _emit(obj, pieces.append)
    assert "".join(pieces) == json.dumps(obj, indent=2, sort_keys=True) + "\n"

"""Property tests: engine verdicts do not depend on vertex names, a
find-one search's first-path guess is its first leaf, a graph's
triangle count is its clique complex's, its clique complex is the
complex of all its cliques, and the CLI's report renderer writes what
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
from oracles import all_simplices, relabel, searched_first_leaf

from arithcx.autoeng import (
    VertexPermutation,
    _first_leaf,
    _root,
    _Side,
    automorphism_order,
    automorphisms_fixing,
    is_isomorphic,
    verify_permutation,
)
from arithcx.cli import _render
from arithcx.scx import Complex, clique_complex, triangle_count


@st.composite
def complexes(draw):
    """A complex on 1..7 vertices with edges and triangles, its chambers
    colored or not."""
    n = draw(st.integers(1, 7))
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_triangle_count_is_the_clique_complex_count(data):
    n = data.draw(st.integers(0, 12))
    names = [f"v{i}" for i in range(n)] if n % 2 else list(range(n))
    ids = data.draw(st.permutations(names))
    pairs = list(itertools.combinations(ids, 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    # each edge in either orientation
    edges = [e if data.draw(st.booleans()) else e[::-1] for e in chosen]
    expect = clique_complex(ids, edges, max_dim=2).simplex_count(2)
    assert triangle_count(ids, edges) == expect


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
    assert _render(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cantorv.stein as stein_module
from cantorv.stein import (
    ComplexError,
    SimplicialComplex,
    build_stein,
    classify_vertex,
    coarsening_vertex,
    complexes_isomorphic_via,
    descending_link,
    h_descending_link,
    height,
    homology,
    l0_matches_model,
    link_vertices,
    model_Kn,
    vertex_height,
    vertex_le,
    very_elementary_link,
)
from cantorv.terms import Basis, enumerate_bases, expand, leq, elementary_leq
from conftest import SPEC_SOURCES
from oracles import _gf2_rank, _rational_rank, dense_homology, walk_far_above


def _expand_all(basis, color):
    for cell in list(basis.cells):
        basis = expand(basis, cell, color)
    return basis


def _grid(brin2v):
    x = Basis.roots(brin2v)
    return _expand_all(expand(x, x.cells[0], 0), 1)


# -- complexes and homology -----------------------------------------------

def test_point_has_trivial_reduced_homology():
    cx = SimplicialComplex({0: [frozenset(("p",))]})
    rep = homology(cx, rational=True)
    assert rep.reduced_vanishes()
    assert rep.betti_rational == rep.betti_gf2


def test_circle_has_one_loop():
    edges = [frozenset((i, (i + 1) % 4)) for i in range(4)]
    cx = SimplicialComplex.from_maximal(edges)
    rep = homology(cx, rational=True)
    assert rep.betti_gf2 == {0: 0, 1: 1}
    assert rep.betti_rational == {0: 0, 1: 1}


def test_two_points():
    cx = SimplicialComplex({0: [frozenset(("a",)), frozenset(("b",))]})
    rep = homology(cx)
    assert rep.betti_gf2 == {0: 1}


def test_filled_triangle_contractible():
    cx = SimplicialComplex.from_maximal([frozenset((0, 1, 2))])
    assert homology(cx, rational=True).reduced_vanishes()


def test_empty_complex_reduced_homology():
    rep = homology(SimplicialComplex({}))
    assert rep.betti_gf2 == {-1: 1}


def test_euler_equals_alternating_count():
    cx = SimplicialComplex.from_maximal(
        [frozenset((0, 1, 2)), frozenset((2, 3))]
    )
    rep = homology(cx)
    f = cx.f_vector()
    assert rep.euler == f[0] - f[1] + f.get(2, 0)


def test_join_with_point_is_cone():
    base = SimplicialComplex.from_maximal(
        [frozenset((0, 1)), frozenset((1, 2)), frozenset((2, 0))]
    )
    cone = base.join(SimplicialComplex({0: [frozenset(("apex",))]}))
    assert homology(cone).reduced_vanishes()


def test_projective_plane_has_2_torsion():
    # the 6-vertex RP^2: H_1 = Z/2 shows over GF(2) and vanishes over Q
    facets = "123 134 145 156 162 235 346 452 563 624".split()
    cx = SimplicialComplex.from_maximal([frozenset(map(int, f)) for f in facets])
    assert cx.f_vector() == {0: 6, 1: 15, 2: 10}
    rep = homology(cx, rational=True)
    assert rep.betti_gf2 == {0: 0, 1: 1, 2: 1}
    assert rep.betti_rational == {0: 0, 1: 0, 2: 0}


def _overcount(reduce_column):
    # one spurious pivot per dimension, whatever the columns
    def wrong(d, faces, pivots):
        reduce_column(d, faces, pivots)
        pivots.setdefault(-1, {})
    return wrong


def _undercount(reduce_column):
    # the first column of each dimension is dropped unreduced
    seen = set()

    def wrong(d, faces, pivots):
        if d in seen:
            reduce_column(d, faces, pivots)
        seen.add(d)
    return wrong


@pytest.mark.parametrize(
    "name, wrong, message",
    [("_reduce_gf2", _overcount, "ranks exceed the chain group sizes"),
     ("_reduce_rational", _undercount, "rational Betti number exceeds")],
    ids=["gf2_overcount", "rational_undercount"],
)
def test_homology_rejects_inconsistent_ranks(monkeypatch, name, wrong, message):
    # an overcounted GF(2) rank makes a Betti number negative; an
    # undercounted rational rank puts a rational Betti number above GF(2)
    cx = SimplicialComplex.from_maximal([frozenset((0, 1, 2))])
    monkeypatch.setattr(stein_module, name, wrong(getattr(stein_module, name)))
    with pytest.raises(ComplexError, match=message):
        homology(cx, rational=name == "_reduce_rational")


@pytest.mark.parametrize(
    "simplices",
    [
        {1: [frozenset({0, 1})]},
        {0: [frozenset({0}), frozenset({1})], 1: [frozenset({0, 2})]},
        # homology would clear the edge {1, 2} and never build its column;
        # the constructor rejects the complex before that
        {0: [frozenset({0}), frozenset({1})],
         1: [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})],
         2: [frozenset({0, 1, 2})]},
    ],
    ids=["no_vertices", "missing_vertex", "missing_vertex_of_cleared_edge"],
)
@pytest.mark.parametrize("rational", [False, True])
def test_homology_rejects_complex_not_closed_under_faces(simplices, rational):
    with pytest.raises(ComplexError, match="not closed under faces"):
        homology(SimplicialComplex(simplices), rational=rational)


@pytest.mark.parametrize(
    "simplices, message",
    [
        ({1: [frozenset({0, 1})]}, "not closed under faces"),
        ({0: [frozenset({0}), frozenset({1})],
          1: [frozenset({0, 1})],
          2: [frozenset({0, 1, 2})]}, "not closed under faces"),
        ({0: [frozenset({0, 1})]}, "listed in dimension 0 has another size"),
    ],
    ids=["no_vertices", "missing_edges", "wrong_dimension"],
)
def test_constructor_rejects_malformed_complex(simplices, message):
    with pytest.raises(ComplexError, match=message):
        SimplicialComplex(simplices)


def _dense_rank(matrix, reduce):
    """Rank by textbook Gauss-Jordan elimination on dense rows; ``reduce``
    maps an entry into the field."""
    m = [[reduce(x) for x in row] for row in matrix]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [reduce(x - f * y) for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _matrices(entries):
    return st.integers(1, 7).flatmap(
        lambda cols: st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=8)
    )


@given(matrix=_matrices(st.integers(0, 1)))
@settings(max_examples=200, deadline=None)
def test_gf2_rank_matches_dense_elimination(matrix):
    rows = [sum(x << j for j, x in enumerate(row)) for row in matrix]
    assert _gf2_rank(rows) == _dense_rank(matrix, lambda x: Fraction(x) % 2)


@given(matrix=_matrices(st.integers(-1, 1)))
@settings(max_examples=200, deadline=None)
def test_rational_rank_matches_dense_elimination(matrix):
    rows = [{j: x for j, x in enumerate(row) if x} for row in matrix]
    assert _rational_rank(rows) == _dense_rank(matrix, Fraction)


def _assert_same_homology(cx, rational=True):
    got, want = homology(cx, rational=rational), dense_homology(cx, rational=rational)
    assert (got.betti_gf2, got.betti_rational, got.euler) == (
        want.betti_gf2, want.betti_rational, want.euler
    )


@pytest.mark.parametrize("name", sorted(SPEC_SOURCES))
def test_homology_matches_dense_reference_on_catalogue(specs, name):
    # the complexes the topology benchmark ranks: links and very-elementary
    # links for t = 4-6, the complex-of-bases windows, and the h-links of
    # the case-i vertices at t = 6
    spec = specs[name]
    complexes = []
    for t in range(4, 7):
        complexes += [descending_link(spec, t), very_elementary_link(spec, t)]
    for cap in (4, 5) if name in ("2v", "mixed232") else (4, 5, 6):
        complexes.append(build_stein(spec, cap))
    for v in link_vertices(spec, 6):
        if classify_vertex(spec, v) == "i":
            rep = h_descending_link(spec, 6, v)
            complexes += [rep.uplink, rep.downlink]
    for cx in complexes:
        _assert_same_homology(cx)


def test_homology_matches_dense_reference_on_models_and_surfaces(specs):
    for spec in specs.values():
        for n in range(1, 8):
            _assert_same_homology(model_Kn(spec, n))
    rp2 = "123 134 145 156 162 235 346 452 563 624".split()
    # the 7-vertex torus
    torus = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    torus += [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
    for facets in (rp2, torus):
        _assert_same_homology(SimplicialComplex.from_maximal(map(frozenset, facets)))


def test_homology_matches_dense_reference_on_2v_link_at_seven_leaves(brin2v):
    _assert_same_homology(descending_link(brin2v, 7), rational=False)


@given(st.lists(st.frozensets(st.integers(0, 7), min_size=1, max_size=5), max_size=10))
@settings(max_examples=200, deadline=None)
def test_homology_matches_dense_reference_from_maximal(maximal):
    _assert_same_homology(SimplicialComplex.from_maximal(maximal))


@given(st.integers(0, 9).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
))
@settings(max_examples=200, deadline=None)
def test_homology_matches_dense_reference_on_flag_complexes(neighbours):
    _assert_same_homology(SimplicialComplex.flag(list(range(len(neighbours))), neighbours))


# -- model complex ----------------------------------------------------------

@pytest.mark.parametrize(
    "build", [link_vertices, descending_link, very_elementary_link, model_Kn],
    ids=["link_vertices", "descending_link", "very_elementary_link", "model_Kn"],
)
def test_negative_sizes_are_rejected(v21, build):
    with pytest.raises(ComplexError, match="negative"):
        build(v21, -1)


def test_size_zero_gives_empty_complexes(v21):
    assert link_vertices(v21, 0) == []
    assert descending_link(v21, 0).is_empty() and model_Kn(v21, 0).is_empty()


def test_model_k4_matching_complex(v21):
    k4 = model_Kn(v21, 4)
    assert k4.f_vector() == {0: 6, 1: 3}
    assert k4.connected_components() == 3
    rep = homology(k4, rational=True)
    assert rep.betti_gf2[0] == 2
    assert rep.betti_rational[0] == 2


def test_model_empty_below_min_arity(v31):
    assert model_Kn(v31, 2).is_empty()


def test_model_vertex_count(specs):
    from math import comb

    for spec in specs.values():
        n = 5
        cx = model_Kn(spec, n)
        expected = sum(
            comb(n, spec.arity(c)) for c in range(spec.num_colors) if spec.arity(c) <= n
        )
        assert len(cx.vertices()) == expected


def test_model_simplices_are_disjoint_families(stein23):
    cx = model_Kn(stein23, 5)
    for d, simplices in cx.simplices.items():
        for s in simplices:
            members = list(s)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    assert not (members[i][1] & members[j][1])


# -- the truncated complex ---------------------------------------------------

def test_build_stein_smallest_window(v21):
    cx = build_stein(v21, 2)
    assert cx.f_vector() == {0: 2, 1: 1}


def test_build_stein_vertices_match_enumeration(v21, stein23):
    for spec, cap in [(v21, 4), (stein23, 4)]:
        cx = build_stein(spec, cap)
        assert len(cx.vertices()) == len(enumerate_bases(spec, cap))


def test_build_stein_edges_are_elementary(v21):
    cx = build_stein(v21, 4)
    for d, simplices in cx.simplices.items():
        if d == 0:
            continue
        for s in simplices:
            chain = sorted(s, key=len)
            assert leq(chain[0], chain[-1])
            assert elementary_leq(chain[0], chain[-1])


def test_build_stein_faces_closed(v21):
    cx = build_stein(v21, 4)
    for d in cx.simplices:
        if d == 0:
            continue
        for s in cx.simplices[d]:
            for v in s:
                assert cx.contains_simplex(s - {v})


@pytest.mark.parametrize(
    "name, cap, f",
    [("v21", 5, {0: 23, 1: 36, 2: 14}),
     ("stein23", 5, {0: 53, 1: 94, 2: 48, 3: 6}),
     ("2v", 4, {0: 50, 1: 87, 2: 42, 3: 4}),
     ("mixed232", 4, {0: 61, 1: 108, 2: 52, 3: 4}),
     ("2v", 5, {0: 262, 1: 627, 2: 482, 3: 116}),
     ("mixed232", 5, {0: 360, 1: 875, 2: 696, 3: 180})],
    ids=["v21-5", "stein23-5", "2v-4", "mixed232-4", "2v-5", "mixed232-5"],
)
def test_build_stein_edges_match_pairwise_scan(specs, name, cap, f):
    spec = specs[name]
    cx = build_stein(spec, cap)
    bases = enumerate_bases(spec, cap)
    pairs = {
        frozenset((a, b))
        for a in bases
        for b in bases
        if a != b and leq(a, b) and elementary_leq(a, b)
    }
    assert set(cx.simplices[1]) == pairs
    assert cx.f_vector() == f
    assert cx.simplices == _chain_stein(spec, cap).simplices


def _chain_stein(spec, cap):
    """The complex of bases grown chain by chain, each new top tested
    against the chain's bottom: the construction ``build_stein`` had before
    it handed elementary comparability to ``SimplicialComplex.flag``."""
    bases = enumerate_bases(spec, cap)
    n = len(bases)
    less = [[j for j in range(i + 1, n) if leq(bases[i], bases[j])] for i in range(n)]
    by_dim = {0: [frozenset((b,)) for b in bases]}
    chains = [(i,) for i in range(n)]
    while chains:
        nxt = []
        for chain in chains:
            for j in less[chain[-1]]:
                if elementary_leq(bases[chain[0]], bases[j]):
                    nxt.append(chain + (j,))
                    by_dim.setdefault(len(chain), []).append(
                        frozenset(bases[k] for k in chain + (j,))
                    )
        chains = nxt
    return SimplicialComplex(by_dim)


@pytest.mark.parametrize("name", ["stein23", "brin23"])
def test_build_stein_matches_chains_at_six_leaves(specs, name):
    cx = build_stein(specs[name], 6)
    assert cx.simplices == _chain_stein(specs[name], 6).simplices


@pytest.mark.parametrize("name", sorted(SPEC_SOURCES))
def test_far_above_matches_parent_walk(specs, name):
    # the coarse-to-fine recurrence against a walk up from each cell, on the
    # cells of every build_stein window up to five leaves above the roots;
    # such a window holds every parent of its cells, so seeded random halves
    # of it check the routes around missing parents too
    spec = specs[name]
    rng = random.Random(name)
    far_pairs = 0
    for size_cap in range(spec.roots, spec.roots + 6):
        cells: dict = {}
        for b in enumerate_bases(spec, size_cap):
            cells.update(dict.fromkeys(b.cells))
        for kept in [list(cells)] + [rng.sample(list(cells), len(cells) // 2) for _ in range(3)]:
            window = {cell: k for k, cell in enumerate(kept)}
            far = stein_module._far_above(spec, window)
            assert far == [walk_far_above(spec, cell, window) for cell in window]
            far_pairs += sum(bin(mask).count("1") for mask in far)
    assert far_pairs > 0


def test_simplex_order_is_by_vertex_reprs(v21, stein23):
    for cx in (descending_link(stein23, 5), build_stein(v21, 4)):
        for d, simplices in cx.simplices.items():
            assert simplices == sorted(simplices, key=lambda s: sorted(repr(v) for v in s))
        assert cx.vertices() == sorted(cx.vertices(), key=repr)


def test_flag_reprs_match_plain_reprs(specs, monkeypatch):
    # flag sorts vertices by memoised member reprs; they must be the reprs
    received = []
    memoised = stein_module._reprs
    monkeypatch.setattr(
        stein_module, "_reprs", lambda vertices: received.append(vertices) or memoised(vertices)
    )
    for spec in specs.values():
        for t in range(1, 7):
            descending_link(spec, t)
            very_elementary_link(spec, t)
            model_Kn(spec, t).barycentric_subdivision()
            build_stein(spec, t)
            for vertex in link_vertices(spec, t):
                h_descending_link(spec, t, vertex)
    assert len(received) > 1000
    nested = frozenset({frozenset({(0, frozenset({1, 2}))}), frozenset(), "a"})
    received.append([frozenset(), nested, frozenset({nested, 3}), (frozenset(),), 7])
    for vertices in received:
        assert memoised(vertices) == [repr(v) for v in vertices]


@pytest.mark.parametrize("name", sorted(SPEC_SOURCES))
def test_link_vertices_keep_order_and_reprs(specs, name):
    # sorted by their sorted (leaves, colours) block lists, each inserting
    # its blocks by least leaf
    spec = specs[name]
    for t in range(1, 7):
        for very in (False, True):
            verts = link_vertices(spec, t, very=very)
            assert verts == sorted(
                verts, key=lambda v: sorted((sorted(ls), sorted(cs)) for ls, cs in v)
            )
            assert [repr(v) for v in verts] == [
                repr(frozenset(sorted(v, key=lambda block: min(block[0])))) for v in verts
            ]


# -- flag complexes against the generic constructor ---------------------------

def _generic(cx):
    """The same complex rebuilt from its frozensets by the generic
    constructor."""
    return SimplicialComplex({d: list(ss) for d, ss in cx.simplices.items()})


def _assert_same_complex(a, b):
    # ordered dicts: the same simplices in the same order
    assert list(a.simplices.items()) == list(b.simplices.items())
    assert a.vertices() == b.vertices()
    for rational in (False, True):
        ha, hb = homology(a, rational=rational), homology(b, rational=rational)
        assert (ha.betti_gf2, ha.betti_rational, ha.euler) == (
            hb.betti_gf2, hb.betti_rational, hb.euler
        )


def _edge_masks(cx):
    """Symmetric neighbour bitsets over ``cx.vertices()``, read off its edges."""
    index = {v: i for i, v in enumerate(cx.vertices())}
    masks = [0] * len(index)
    for edge in cx.simplices.get(1, []):
        a, b = (index[v] for v in edge)
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


@pytest.mark.parametrize("name", sorted(SPEC_SOURCES))
def test_flag_keeps_edges_given_by_either_end(specs, name):
    # build_stein hands flag upward bits only; a vertex's edges must
    # survive whichever side of the re-indexing into repr order gives them.
    # The vertices are given in reverse repr order, so that re-indexing
    # turns every upward bit into a downward one
    spec = specs[name]
    for cx in (descending_link(spec, 5), build_stein(spec, 4), model_Kn(spec, 4)):
        verts = list(reversed(cx.vertices()))
        masks = list(reversed(_edge_masks(cx)))
        n = len(masks)
        masks = [sum(1 << n - 1 - j for j in stein_module._bits(m)) for m in masks]
        upward = [m >> i + 1 << i + 1 for i, m in enumerate(masks)]
        downward = [m & (1 << i) - 1 for i, m in enumerate(masks)]
        for given in (masks, upward, downward):
            _assert_same_complex(SimplicialComplex.flag(verts, given), cx)


@pytest.mark.parametrize("name", sorted(SPEC_SOURCES))
def test_flag_matches_generic_constructor(specs, name):
    spec = specs[name]
    complexes = [model_Kn(spec, 5), descending_link(spec, 5), build_stein(spec, 4)]
    complexes.append(complexes[0].barycentric_subdivision())
    for cx in complexes:
        _assert_same_complex(cx, _generic(cx))
        _assert_same_complex(cx, SimplicialComplex.from_maximal(
            s for ss in cx.simplices.values() for s in ss
        ))


def test_from_maximal_matches_flag_of_its_edges():
    # the octahedron is the flag complex of its graph (the 6-vertex RP^2
    # is not: its graph is complete)
    octahedron = [
        frozenset((x, y, z)) for x in "aA" for y in "bB" for z in "cC"
    ]
    cx = SimplicialComplex.from_maximal(octahedron)
    verts = cx.vertices()
    flagged = SimplicialComplex.flag(verts, _edge_masks(cx))
    _assert_same_complex(flagged, cx)
    assert homology(cx, rational=True).betti_rational == {0: 0, 1: 0, 2: 1}


def test_topology_requests_build_no_frozenset_simplices(specs, monkeypatch):
    # f-vectors, homology, isomorphism checks and subdivisions read the
    # index tuples; only ``simplices`` builds the frozenset view
    def unread(cx):
        raise AssertionError("frozenset simplices built")

    monkeypatch.setattr(SimplicialComplex, "simplices", property(unread))
    spec = specs["mixed232"]
    for cx in (descending_link(spec, 5), build_stein(spec, 4), model_Kn(spec, 5)):
        cx.f_vector()
        homology(cx, rational=True)
        cx.connected_components()
    assert l0_matches_model(spec, 5)
    vertex = next(v for v in link_vertices(spec, 6) if classify_vertex(spec, v) == "i")
    rep = h_descending_link(spec, 6, vertex)
    assert homology(rep.uplink).reduced_vanishes()
    rep.downlink.f_vector()


def test_simplices_view_is_built_once(v21):
    cx = build_stein(v21, 4)
    assert "simplices" not in vars(cx)
    assert cx.simplices is cx.simplices
    assert cx.f_vector() == {d: len(ss) for d, ss in cx.simplices.items()}


# -- links --------------------------------------------------------------------

def test_link_of_halves_is_a_point(v21):
    cx = descending_link(v21, 2)
    assert cx.f_vector() == {0: 1}


def test_link_vertices_have_smaller_size(stein23):
    for t in range(2, 6):
        for v in link_vertices(stein23, t):
            assert len(v) < t


def test_link_of_grid_contains_expected_bases(brin2v):
    grid = _grid(brin2v)
    x = Basis.roots(brin2v)
    vs = set(link_vertices(brin2v, 4))
    assert coarsening_vertex(brin2v, grid, x) in vs
    vsplit = expand(x, x.cells[0], 0)
    hsplit = expand(x, x.cells[0], 1)
    assert coarsening_vertex(brin2v, grid, vsplit) in vs
    assert coarsening_vertex(brin2v, grid, hsplit) in vs


def test_l0_subcomplex_of_link(stein23):
    for t in (3, 4, 5):
        full = set(link_vertices(stein23, t))
        very = set(link_vertices(stein23, t, very=True))
        assert very <= full


def test_l0_isomorphic_to_model_subdivision(v21, stein23, brin2v):
    for spec in (v21, stein23, brin2v):
        for t in range(2, 6):
            assert l0_matches_model(spec, t)


def test_link_order_is_partial(stein23):
    vs = link_vertices(stein23, 4)
    for u in vs:
        assert vertex_le(u, u)
    for u in vs:
        for v in vs:
            if vertex_le(u, v) and vertex_le(v, u):
                assert u == v


# -- heights ------------------------------------------------------------------

def test_height_of_grid_coarsening(brin2v):
    grid = _grid(brin2v)
    x = Basis.roots(brin2v)
    assert height(grid, x) == (4, 1)


def test_height_of_very_elementary_is_zero_vector(brin2v):
    grid = _grid(brin2v)
    x = Basis.roots(brin2v)
    vsplit = expand(x, x.cells[0], 0)
    h = height(grid, vsplit)
    assert h[:-1] == (0,)
    assert h[-1] == 2


def test_heights_totally_ordered(stein23):
    hs = [vertex_height(stein23, v) for v in link_vertices(stein23, 5)]
    for a in hs:
        for b in hs:
            assert a <= b or b <= a


def test_height_rejects_non_elementary(v21):
    x = Basis.roots(v21)
    four = _expand_all(expand(x, x.cells[0], 0), 0)
    with pytest.raises(Exception):
        height(four, x)


# -- height-descending links --------------------------------------------------

def test_classification(brin2v):
    full = frozenset(((frozenset(range(4)), frozenset((0, 1))),))
    assert classify_vertex(brin2v, full) == "ii"
    for v in link_vertices(brin2v, 6):
        kinds = {"very-elementary", "i", "ii"}
        assert classify_vertex(brin2v, v) in kinds


def test_uplink_empty_for_maximal_vertex(brin2v):
    # the all-singletons-with-one-pair vertex at t=2: nothing finer below h
    vs = link_vertices(brin2v, 2)
    rep = h_descending_link(brin2v, 2, vs[0])
    assert rep.uplink.is_empty()


def test_join_structure(brin2v):
    lv = [v for v in link_vertices(brin2v, 6) if classify_vertex(brin2v, v) == "i"]
    rep = h_descending_link(brin2v, 6, lv[0])
    down_simplices = {s for ss in rep.downlink.simplices.values() for s in ss}
    up_simplices = {s for ss in rep.uplink.simplices.values() for s in ss}
    joined = {s for ss in rep.complex.simplices.values() for s in ss}
    for a in down_simplices:
        for b in up_simplices:
            assert (a | b) in joined
    assert down_simplices <= joined and up_simplices <= joined


def test_case_i_uplinks_contractible_homology(brin2v, stein23):
    for spec in (brin2v, stein23):
        for t in range(2, 7):
            for v in link_vertices(spec, t):
                if classify_vertex(spec, v) != "i":
                    continue
                rep = h_descending_link(spec, t, v)
                assert rep.uplink_cone_witness is not None
                assert homology(rep.uplink).reduced_vanishes()


def test_downlink_preserves_c_vector(brin2v):
    for t in (4, 6):
        for v in link_vertices(brin2v, t):
            if classify_vertex(brin2v, v) == "very-elementary":
                continue
            h_descending_link(brin2v, t, v)  # raises on violations


def test_h_link_rejects_foreign_vertex(brin2v, stein23):
    # a vertex with a 3-element block is valid for the 2,3-block spec only
    v = next(
        vert
        for vert in link_vertices(stein23, 4)
        if any(len(leaves) == 3 for leaves, _ in vert)
    )
    with pytest.raises(ComplexError):
        h_descending_link(brin2v, 4, v)


# -- flag complexes against the pairwise construction -------------------------

def _pairwise_flag(vertices, compatible):
    """All cliques found by testing every pair of vertices: the construction
    ``SimplicialComplex.flag`` had before it took neighbour bitsets."""
    verts = list(vertices)
    n = len(verts)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if compatible(verts[i], verts[j]):
                adj[i].add(j)
                adj[j].add(i)
    by_dim = {}
    cliques = [(i,) for i in range(n)]
    while cliques:
        for c in cliques:
            by_dim.setdefault(len(c) - 1, []).append(frozenset(verts[i] for i in c))
        nxt = []
        for c in cliques:
            options = set(range(c[-1] + 1, n))
            for i in c:
                options &= adj[i]
            nxt.extend(c + (j,) for j in sorted(options))
        cliques = nxt
    return SimplicialComplex(by_dim)


def _comparable(a, b):
    return vertex_le(a, b) or vertex_le(b, a)


def _pairwise_model(spec, n):
    vertices = [
        (color, frozenset(members))
        for color in range(spec.num_colors)
        for members in itertools.combinations(range(n), spec.arity(color))
    ]
    return _pairwise_flag(vertices, lambda a, b: not (a[1] & b[1]))


@pytest.mark.parametrize("name", sorted(SPEC_SOURCES))
def test_links_match_pairwise_flag(specs, name):
    spec = specs[name]
    for t in range(1, 7 if name == "2v" else 6):
        full = _pairwise_flag(link_vertices(spec, t), _comparable)
        very = _pairwise_flag(link_vertices(spec, t, very=True), _comparable)
        assert descending_link(spec, t).simplices == full.simplices
        assert very_elementary_link(spec, t).simplices == very.simplices


@pytest.mark.parametrize("name", sorted(SPEC_SOURCES))
def test_model_and_subdivision_match_pairwise_flag(specs, name):
    spec = specs[name]
    ref = _pairwise_model(spec, 5)
    model = model_Kn(spec, 5)
    assert model.simplices == ref.simplices
    faces = [s for ss in ref.simplices.values() for s in ss]
    ref_sd = _pairwise_flag(faces, lambda a, b: a < b or b < a)
    assert model.barycentric_subdivision().simplices == ref_sd.simplices
    # faces listed from the top dimension down pair each face with its
    # subsets before its supersets
    top_down = SimplicialComplex(dict(reversed(model.simplices.items())))
    assert top_down.barycentric_subdivision().simplices == ref_sd.simplices


@pytest.mark.parametrize("name", ["2v", "mixed232"])
def test_case_i_h_links_match_pairwise_flag(specs, name):
    # stein23 has no case-i vertex at t = 6: its two-colour block fills all
    # six leaves; mixed232 is the other bundled spec that has them
    spec = specs[name]
    verts = link_vertices(spec, 6)
    case_i = [v for v in verts if classify_vertex(spec, v) == "i"]
    assert case_i
    for vertex in case_i:
        h0 = vertex_height(spec, vertex)
        below = [v for v in verts if v != vertex and vertex_height(spec, v) <= h0]
        down = [v for v in below if vertex_le(v, vertex)]
        up = [v for v in below if vertex_le(vertex, v) and not vertex_le(v, vertex)]
        rep = h_descending_link(spec, 6, vertex)
        assert rep.downlink.simplices == _pairwise_flag(down, _comparable).simplices
        assert rep.uplink.simplices == _pairwise_flag(up, _comparable).simplices


# -- h-links against the whole-link construction ------------------------------

def _whole_link_h_links(spec, t):
    """``vertex -> (case, downlink, uplink, complex, witness)`` built from
    the whole t-link: every link vertex, their order bitsets, and the order
    complex of down and up together as the whole h-link; the construction
    ``h_descending_link`` had before it enumerated only the vertex's own
    neighbourhood and took the whole h-link as a join.  The link and its
    bitsets are built once and shared by the returned function."""
    verts = link_vertices(spec, t)
    index = {v: i for i, v in enumerate(verts)}
    masks = stein_module._order_masks(verts, t)

    def h_link(vertex):
        i0 = index[vertex]
        coarser, finer = (m[i0] for m in masks)
        h0 = vertex_height(spec, vertex)
        down, up = [], []
        for i in stein_module._bits((coarser | finer) & ~(1 << i0)):
            if vertex_height(spec, verts[i]) <= h0:
                (down if coarser >> i & 1 else up).append(verts[i])
        down_c = stein_module._order_complex(down, t)
        up_c = stein_module._order_complex(up, t)
        witness = None
        case = classify_vertex(spec, vertex)
        if case == "i":
            kept = next(block for block in vertex if len(block[1]) == 1)
            witness = frozenset([kept] + [
                (frozenset((p,)), frozenset())
                for block in vertex if block != kept for p in block[0]
            ])
            assert witness in up
        return case, down_c, up_c, stein_module._order_complex(down + up, t), witness

    return h_link


def _assert_h_link_matches(spec, t, vertex, reference):
    case, down, up, whole, witness = reference(vertex)
    rep = h_descending_link(spec, t, vertex)
    assert rep.case == case
    assert rep.uplink_cone_witness == witness
    # ordered dicts: the same simplices in the same order
    assert list(rep.downlink.simplices.items()) == list(down.simplices.items())
    assert list(rep.uplink.simplices.items()) == list(up.simplices.items())
    assert list(rep.complex.simplices.items()) == list(whole.simplices.items())
    return rep


@pytest.mark.parametrize("name", sorted(SPEC_SOURCES))
def test_h_links_match_whole_link_construction(specs, name):
    spec = specs[name]
    for t in range(1, 7):
        reference = _whole_link_h_links(spec, t)
        for vertex in link_vertices(spec, t):
            _assert_h_link_matches(spec, t, vertex, reference)


def test_case_i_h_links_at_seven_leaves_match_whole_link(brin2v):
    reference = _whole_link_h_links(brin2v, 7)
    case_i = [v for v in link_vertices(brin2v, 7) if classify_vertex(brin2v, v) == "i"]
    assert len(case_i) == 210
    for vertex in case_i:
        rep = _assert_h_link_matches(brin2v, 7, vertex, reference)
        assert len(rep.uplink.vertices()) == 49


def _vertex(*blocks):
    return frozenset((frozenset(ls), frozenset(cs)) for ls, cs in blocks)


@pytest.mark.parametrize(
    "vertex",
    [
        _vertex(((0, 1), (0,)), ((1, 2), (1,)), ((3,), ())),
        _vertex(((0, 1), (0,)), ((2,), ())),
        _vertex(((0, 1), (0,)), ((2, 3), ())),
        _vertex(((0, 1, 2), (0,)), ((3,), ())),
        _vertex(((0, 1), (2,)), ((2,), ()), ((3,), ())),
        _vertex(((0,), ()), ((1,), ()), ((2,), ()), ((3,), ())),
    ],
    ids=[
        "overlapping_blocks",
        "missing_leaf",
        "uncoloured_pair",
        "coloured_block_of_wrong_size",
        "colour_set_not_in_spec",
        "no_coloured_block",
    ],
)
def test_h_link_rejects_invalid_vertex(brin2v, vertex):
    assert vertex not in link_vertices(brin2v, 4)
    with pytest.raises(ComplexError, match="does not belong to the link"):
        h_descending_link(brin2v, 4, vertex)


def test_2v_link_at_seven_leaves(brin2v):
    cx = descending_link(brin2v, 7)
    assert cx.f_vector() == {0: 1547, 1: 17220, 2: 36120, 3: 20160}
    assert homology(cx).betti_gf2 == {0: 0, 1: 0, 2: 496, 3: 210}


# -- isomorphism helper ---------------------------------------------------------

def test_iso_helper_detects_mismatch():
    a = SimplicialComplex.from_maximal([frozenset((0, 1))])
    b = SimplicialComplex.from_maximal([frozenset((10,)), frozenset((11,))])
    assert not complexes_isomorphic_via(a, b, lambda v: v + 10)
    c = SimplicialComplex.from_maximal([frozenset((10, 11))])
    assert complexes_isomorphic_via(a, c, lambda v: v + 10)

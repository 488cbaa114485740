import itertools
import random

import pytest
from fractions import Fraction as F

from cantorv.algebra import parse_spec
from cantorv.cones import (
    Cone,
    ConeError,
    ConeTuple,
    act,
    act_tuple,
    cone_disjoint,
    cone_equals,
    cone_intersection,
    cone_norm,
    cone_to_text,
    disjointify,
    parse_cone_text,
    stabilizer_shape_report,
    tuple_classify,
    tuple_stabilizer_shape,
    tuple_witness,
    witness_basis,
)
from cantorv.elements import compose, identity, invert, permutation_element, random_element
from cantorv.terms import Basis, Leaf, expand, enumerate_bases, root_leaf, split_leaf


def _halves(spec):
    x = Basis.roots(spec)
    return expand(x, x.cells[0], 0)


def _full(spec):
    return Cone.from_leaves(spec, [root_leaf(spec, r) for r in range(spec.roots)])


def _random_cone(spec, seed, size_bound=6):
    rng = random.Random(seed)
    bases = enumerate_bases(spec, size_bound)
    basis = bases[rng.randrange(len(bases))]
    cells = [c for c in basis.cells if rng.random() < 0.55]
    return Cone.from_leaves(spec, cells), basis


# -- equality -----------------------------------------------------------------

def test_root_cone_equals_children_cone(specs):
    for spec in specs.values():
        full = _full(spec)
        for color in range(spec.num_colors):
            kids = [
                child
                for r in range(spec.roots)
                for child in split_leaf(spec, root_leaf(spec, r), color)
            ]
            assert cone_equals(full, Cone.from_leaves(spec, kids))


def test_empty_differs_from_nonempty(v21):
    assert not cone_equals(Cone.empty(v21), _full(v21))
    assert cone_equals(Cone.empty(v21), Cone.empty(v21))


def test_full_cone_from_any_basis(stein23):
    full = _full(stein23)
    for b in enumerate_bases(stein23, 5):
        assert cone_equals(full, Cone.from_leaves(stein23, b.cells))


def test_equality_is_equivalence_on_samples(v21):
    cones = [_random_cone(v21, s)[0] for s in range(12)]
    for a in cones:
        assert cone_equals(a, a)
    for a, b in itertools.combinations(cones, 2):
        assert cone_equals(a, b) == cone_equals(b, a)
    for a, b, c in itertools.combinations(cones, 3):
        if cone_equals(a, b) and cone_equals(b, c):
            assert cone_equals(a, c)


# -- norms --------------------------------------------------------------------

def test_norms_mod_two_in_v31(v31):
    x = Basis.roots(v31)
    thirds = expand(x, x.cells[0], 0)
    assert cone_norm(Cone.from_leaves(v31, [thirds.cells[0]])) == 1
    assert cone_norm(Cone.from_leaves(v31, thirds.cells[:2])) == 2
    assert cone_norm(Cone.from_leaves(v31, thirds.cells)) == 1
    assert cone_norm(Cone.empty(v31)) == 0


def test_norm_zero_only_for_empty(specs):
    for spec in specs.values():
        for seed in range(8):
            cone, _ = _random_cone(spec, seed)
            assert (cone_norm(cone) == 0) == cone.is_empty()


def test_norm_invariant_under_support_refinement(specs):
    for spec in specs.values():
        for seed in range(12):
            cone, _ = _random_cone(spec, seed)
            if cone.is_empty():
                continue
            rng = random.Random(seed)
            cells = list(cone.cells)
            target = cells[rng.randrange(len(cells))]
            color = rng.randrange(spec.num_colors)
            refined = [c for c in cells if c != target] + list(
                split_leaf(spec, target, color)
            )
            refined_cone = Cone.from_leaves(spec, refined)
            assert cone_equals(cone, refined_cone)
            assert cone_norm(cone) == cone_norm(refined_cone)


# -- disjointness -------------------------------------------------------------

def test_halves_disjoint(v21):
    h = _halves(v21)
    left = Cone.from_leaves(v21, [h.cells[0]])
    right = Cone.from_leaves(v21, [h.cells[1]])
    assert cone_disjoint(left, right)
    assert not cone_disjoint(left, left)


def test_cone_not_disjoint_from_subcone(v21):
    h = _halves(v21)
    sub = expand(h, h.cells[0], 0)
    assert not cone_disjoint(
        Cone.from_leaves(v21, [h.cells[0]]),
        Cone.from_leaves(v21, [sub.cells[0]]),
    )


def test_disjointness_stable_under_refinement(stein23):
    h = _halves(stein23)
    left = Cone.from_leaves(stein23, [h.cells[0]])
    right = Cone.from_leaves(stein23, [h.cells[1]])
    fine = expand(h, h.cells[1], 1)
    right_fine = Cone.from_leaves(
        stein23, [c for c in fine.cells if c.intervals[0][0] >= F(1, 2)]
    )
    assert cone_equals(right, right_fine)
    assert cone_disjoint(left, right_fine)


def test_intersection_plumbing(stein23):
    x = Basis.roots(stein23)
    h = expand(x, x.cells[0], 0)
    t = expand(x, x.cells[0], 1)
    left = Cone.from_leaves(stein23, [h.cells[0]])       # [0,1/2)
    first = Cone.from_leaves(stein23, [t.cells[0]])      # [0,1/3)
    inter = cone_intersection(left, first)
    assert cone_equals(inter, first)
    mid = Cone.from_leaves(stein23, [t.cells[1]])        # [1/3,2/3)
    overlap = cone_intersection(left, mid)
    assert overlap.volume() == F(1, 6)


# -- the action ---------------------------------------------------------------

def test_action_identity_and_full(specs):
    for spec in specs.values():
        e = identity(spec)
        for seed in range(6):
            cone, _ = _random_cone(spec, seed)
            assert cone_equals(act(e, cone), cone)
        assert cone_equals(act(e, _full(spec)), _full(spec))


def test_action_of_swap(v21):
    h = _halves(v21)
    sigma = permutation_element(h, [1, 0])
    left = Cone.from_leaves(v21, [h.cells[0]])
    right = Cone.from_leaves(v21, [h.cells[1]])
    assert cone_equals(act(sigma, left), right)
    assert cone_equals(act(sigma, _full(v21)), _full(v21))


def test_action_axioms_random(specs):
    for spec in specs.values():
        for seed in range(10):
            g = random_element(spec, spec.roots + 4, seed)
            h = random_element(spec, spec.roots + 4, seed + 50)
            cone, _ = _random_cone(spec, seed)
            assert cone_equals(act(invert(g), act(g, cone)), cone)
            assert cone_equals(act(compose(g, h), cone), act(g, act(h, cone)))


def test_action_preserves_norm_and_disjointness(v31):
    for seed in range(10):
        g = random_element(v31, 5, seed)
        u, basis = _random_cone(v31, seed)
        v = Cone.from_leaves(
            v31, [c for c in basis.cells if c not in set(u.cells)]
        )
        assert cone_norm(act(g, u)) == cone_norm(u)
        assert cone_disjoint(act(g, u), act(g, v)) == cone_disjoint(u, v)


# -- tuples -------------------------------------------------------------------

def _partition_tuple(spec, basis, n, seed):
    rng = random.Random(seed)
    groups = [[] for _ in range(n)]
    for c in basis.cells:
        groups[rng.randrange(n)].append(c)
    return ConeTuple(spec, [Cone.from_leaves(spec, g) for g in groups])


def test_tuple_flags_recomputed(v21):
    h = _halves(v21)
    left = Cone.from_leaves(v21, [h.cells[0]])
    right = Cone.from_leaves(v21, [h.cells[1]])
    t = ConeTuple(v21, [left, right])
    assert t.covering and t.disjoint
    t2 = ConeTuple(v21, [left, left])
    assert not t2.covering and not t2.disjoint
    t3 = ConeTuple(v21, [left, _full(v21)])
    assert t3.covering and not t3.disjoint


def test_classify_requires_flags(v21):
    h = _halves(v21)
    left = Cone.from_leaves(v21, [h.cells[0]])
    with pytest.raises(ConeError):
        tuple_classify(ConeTuple(v21, [left, left]))


def test_classification_example(v21):
    h = _halves(v21)
    q = expand(h, h.cells[0], 0)
    t1 = ConeTuple(
        v21,
        [Cone.from_leaves(v21, [h.cells[0]]), Cone.from_leaves(v21, [h.cells[1]])],
    )
    t2 = ConeTuple(
        v21,
        [
            Cone.from_leaves(v21, [q.cells[0]]),
            Cone.from_leaves(v21, q.cells[1:]),
        ],
    )
    assert tuple_classify(t1) == tuple_classify(t2) == (1, 1)
    g = tuple_witness(t1, t2)
    assert g is not None
    for a, b in zip(t1.cones, t2.cones):
        assert cone_equals(act(g, a), b)


def test_witness_none_on_mismatch(v31):
    x = Basis.roots(v31)
    thirds = expand(x, x.cells[0], 0)
    t1 = ConeTuple(
        v31,
        [
            Cone.from_leaves(v31, [thirds.cells[0]]),
            Cone.from_leaves(v31, thirds.cells[1:]),
        ],
    )
    t2 = ConeTuple(v31, [Cone.empty(v31), _full(v31)])
    assert tuple_classify(t1) != tuple_classify(t2)
    assert tuple_witness(t1, t2) is None


def test_witness_on_self(specs):
    for spec in specs.values():
        basis = enumerate_bases(spec, spec.roots + 2)[-1]
        t = _partition_tuple(spec, basis, 2, 3)
        if not (t.covering and t.disjoint):
            continue
        g = tuple_witness(t, t)
        assert g is not None
        for a, b in zip(t.cones, t.cones):
            assert cone_equals(act(g, a), b)


def test_action_preserves_tuple_flags(v21):
    for seed in range(10):
        basis = enumerate_bases(v21, 5)[seed % 10]
        t = _partition_tuple(v21, basis, 2, seed)
        g = random_element(v21, 5, seed)
        image = act_tuple(g, t)
        assert image.covering == t.covering
        assert image.disjoint == t.disjoint


def test_stabilizer_shape(v21):
    h = _halves(v21)
    t = ConeTuple(
        v21,
        [Cone.from_leaves(v21, [h.cells[0]]), Cone.from_leaves(v21, [h.cells[1]])],
    )
    assert tuple_stabilizer_shape(t) == (1, 1)
    full = ConeTuple(v21, [_full(v21)])
    assert tuple_stabilizer_shape(full) == (1,)
    assert stabilizer_shape_report(full) == "V_1(S)"


def test_sampled_stabilizer_elements_fix_tuple(v21):
    h = _halves(v21)
    t = ConeTuple(
        v21,
        [Cone.from_leaves(v21, [h.cells[0]]), Cone.from_leaves(v21, [h.cells[1]])],
    )
    basis, parts = witness_basis(v21, list(t.cones))
    refined = expand(basis, parts[0][0], 0)
    stab = permutation_element(
        refined, [1, 0] + list(range(2, len(refined)))
    )
    for cone, _ in zip(t.cones, parts):
        assert cone_equals(act(stab, cone), cone)


# -- disjointify --------------------------------------------------------------

def test_disjointify_already_disjoint(v21):
    h = _halves(v21)
    left = Cone.from_leaves(v21, [h.cells[0]])
    right = Cone.from_leaves(v21, [h.cells[1]])
    parts = disjointify(ConeTuple(v21, [left, right]))
    assert len(parts) == 3
    assert cone_equals(parts.cones[0], left)
    assert cone_equals(parts.cones[1], right)
    assert parts.cones[2].is_empty()
    assert parts.covering and parts.disjoint


def test_disjointify_full_pair(v21):
    parts = disjointify(ConeTuple(v21, [_full(v21), _full(v21)]))
    assert parts.cones[0].is_empty()
    assert parts.cones[1].is_empty()
    assert cone_equals(parts.cones[2], _full(v21))


def test_disjointify_requires_covering(v21):
    h = _halves(v21)
    left = Cone.from_leaves(v21, [h.cells[0]])
    with pytest.raises(ConeError):
        disjointify(ConeTuple(v21, [left, left]))


def test_disjointify_equivariance_samples(specs):
    for spec in specs.values():
        for seed in range(6):
            basis = enumerate_bases(spec, spec.roots + 3)[-1]
            rng = random.Random(seed)
            cones = []
            for i in range(2):
                cells = [c for c in basis.cells if rng.random() < 0.7]
                cones.append(Cone.from_leaves(spec, cells))
            t = ConeTuple(spec, [cones[0], Cone.from_leaves(spec, basis.cells)])
            if not t.covering:
                continue
            g = random_element(spec, spec.roots + 3, seed)
            lhs = disjointify(act_tuple(g, t))
            rhs = act_tuple(g, disjointify(t))
            for a, b in zip(lhs.cones, rhs.cones):
                assert cone_equals(a, b)


def test_break_grid_outside_the_arity_monoid():
    """In block[4,6] the break 1/6 - 1/4 sits on denominator 12, which is
    no product of 4s and 6s, so the cells land on the 24-grid."""
    spec = parse_spec("roots=1; block[4,6]")

    def leaf(lo, hi):
        return Leaf(0, ((F(lo), F(hi)),))

    def text(cone):
        return cone_to_text(cone).splitlines()

    u = Cone.from_leaves(spec, [leaf(0, F(1, 4)), leaf(0, F(1, 6))])
    assert text(u) == ["root:0 [0/1,1/6)", "root:0 [1/6,5/24)", "root:0 [5/24,1/4)"]
    meet = cone_intersection(u, Cone.from_leaves(spec, [leaf(F(1, 6), F(1, 3))]))
    assert text(meet) == ["root:0 [1/6,5/24)", "root:0 [5/24,1/4)"]
    rest = Cone.from_leaves(
        spec, [leaf(F(1, 4), F(1, 2)), leaf(F(1, 2), F(3, 4)), leaf(F(3, 4), 1)]
    )
    slots = disjointify(ConeTuple(spec, [u, meet, rest]))
    assert [text(c) for c in slots.cones] == [
        ["root:0 [0/1,1/6)"],
        ["EMPTY"],
        ["root:0 [1/6,5/24)", "root:0 [5/24,1/4)"],
        ["root:0 [1/4,1/2)", "root:0 [1/2,3/4)", "root:0 [3/4,1/1)"],
        ["EMPTY"],
        ["EMPTY"],
        ["EMPTY"],
    ]
    basis, parts = witness_basis(spec, [meet])
    assert len(basis) == 24
    assert [len(p) for p in parts] == [2]


# -- serialisation ------------------------------------------------------------

def test_cone_text_round_trip(specs):
    for spec in specs.values():
        for seed in range(6):
            cone, _ = _random_cone(spec, seed)
            assert cone_equals(parse_cone_text(spec, cone_to_text(cone)), cone)
    assert parse_cone_text(next(iter(specs.values())), "EMPTY\n").is_empty()

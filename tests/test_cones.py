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
from cantorv.terms import (
    Basis,
    Leaf,
    expand,
    enumerate_bases,
    leaf_contains,
    lub,
    relative_exponents,
    root_leaf,
    split_leaf,
)


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


def _leafwise_act(g, u):
    """Reference ``act``: the support cells of a common refinement of the
    witness basis and g's domain mapped leaf by leaf."""
    if u.is_empty():
        return u
    basis, _ = witness_basis(u.spec, [u])
    mid = lub(basis, g.domain)
    return Cone.from_leaves(u.spec, [
        g.image_of_leaf(cell) for cell in mid.cells if any(leaf_contains(s, cell) for s in u.cells)
    ])


def test_action_matches_leafwise_reference(specs):
    for spec in specs.values():
        for seed in range(10):
            g = random_element(spec, spec.roots + 5, seed)
            cone, _ = _random_cone(spec, seed)
            assert act(g, cone).cells == _leafwise_act(g, cone).cells


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


# -- the break-grid sweep against volume references -----------------------------

def _ref_equals(u, v):
    """Same point set by exact volume accounting: equal volumes, and the
    pairwise cell overlaps add up to that volume."""

    def overlap(a, b):
        if a.root != b.root:
            return F(0)
        vol = F(1)
        for (p, q), (r, s) in zip(a.intervals, b.intervals):
            vol *= max(F(0), min(q, s) - max(p, r))
        return vol

    inter = sum((overlap(a, b) for a in u.cells for b in v.cells), F(0))
    return u.volume() == v.volume() == inter


def _uncovered(spec, cells):
    """The boxes of the roots that no cell covers, by box subtraction."""
    rest = [(r, ((F(0), F(1)),) * spec.num_blocks) for r in range(spec.roots)]
    for c in cells:
        nxt = []
        for r, box in rest:
            ivs = c.intervals
            if r != c.root or any(q <= lo or hi <= p for (lo, hi), (p, q) in zip(box, ivs)):
                nxt.append((r, box))
                continue
            core = list(box)
            for k, ((lo, hi), (p, q)) in enumerate(zip(box, ivs)):
                for piece in ((lo, p), (q, hi)):
                    if piece[0] < piece[1]:
                        nxt.append((r, tuple(core[:k]) + (piece,) + tuple(core[k + 1 :])))
                core[k] = (max(lo, p), min(hi, q))
        rest = nxt
    return rest


def _ref_flags(spec, cones):
    """(covering, disjoint) from pairwise disjointness and, for a disjoint
    tuple, the volume sum; otherwise from box subtraction."""
    disjoint = all(cone_disjoint(a, b) for a, b in itertools.combinations(cones, 2))
    if disjoint:
        covering = sum((c.volume() for c in cones), F(0)) == spec.roots
    else:
        covering = not _uncovered(spec, [c for cone in cones for c in cone.cells])
    return covering, disjoint


def _ref_norm(u):
    """The support size re-expanded on a full grid fine enough for every
    cell, represented in (0, d]; 0 for the empty cone."""
    spec = u.spec
    if u.is_empty():
        return 0
    count = 0
    for r in range(spec.roots):
        root = root_leaf(spec, r)
        exps = [relative_exponents(spec, root, c) for c in u.cells if c.root == r]
        depths = [max((e[k] for e in exps), default=0) for k in range(spec.num_colors)]
        for e in exps:
            n = 1
            for color, (e_grid, e_cell) in enumerate(zip(depths, e)):
                n *= spec.arity(color) ** (e_grid - e_cell)
            count += n
    return ((count - 1) % spec.d) + 1


def _sample_cones(spec, seed, count):
    """Random cones, each from the cells of one or two bases (two bases give
    overlapping ``from_leaves`` input), with empty cones among them."""
    rng = random.Random(seed)
    bases = enumerate_bases(spec, spec.roots + 5)
    cones = [Cone.empty(spec)]
    for _ in range(count):
        cells = []
        for _ in range(rng.choice((1, 1, 2))):
            basis = bases[rng.randrange(len(bases))]
            cells += [c for c in basis.cells if rng.random() < 0.5]
        cones.append(Cone.from_leaves(spec, cells))
    return cones


def _sweep_specs(specs):
    extra = ["roots=2; block[2,3]", "roots=1; block[4]"]
    return list(specs.values()) + [parse_spec(src) for src in extra]


def test_sweep_equality_and_norm_match_references(specs):
    outcomes = set()
    for spec in _sweep_specs(specs):
        cones = _sample_cones(spec, 7, 16)
        cones.append(_full(spec))
        cones.append(Cone.from_leaves(spec, enumerate_bases(spec, spec.roots + 3)[-1].cells))
        for u in cones:
            assert cone_norm(u) == _ref_norm(u)
        for u, v in itertools.product(cones, repeat=2):
            expected = _ref_equals(u, v)
            assert cone_equals(u, v) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_sweep_equality_across_grids(stein23):
    h, thirds = _halves(stein23), expand(Basis.roots(stein23), root_leaf(stein23, 0), 1)
    left = Cone.from_leaves(stein23, [h.cells[0]])
    first = Cone.from_leaves(stein23, [thirds.cells[0]])
    both = Cone.from_leaves(stein23, [h.cells[0], thirds.cells[0]])
    sixths = lub(h, thirds)
    left_sixths = Cone.from_leaves(stein23, [c for c in sixths.cells if c.intervals[0][1] <= F(1, 2)])
    for u, v in itertools.product([left, first, both, left_sixths], repeat=2):
        assert cone_equals(u, v) == _ref_equals(u, v)
    assert cone_equals(left, both) and cone_equals(left, left_sixths)
    assert not cone_equals(left, first)
    assert _ref_flags(stein23, [left, first]) == (False, False)
    t = ConeTuple(stein23, [first, left])
    assert (t.covering, t.disjoint) == (False, False)


def test_sweep_tuple_flags_match_references(specs):
    outcomes = set()
    for spec in _sweep_specs(specs):
        cones = _sample_cones(spec, 11, 8)
        rng = random.Random(5)
        basis = enumerate_bases(spec, spec.roots + 3)[-1]
        tuples = [[], [_full(spec)], [Cone.empty(spec), _full(spec)]]
        for n in (2, 3):
            part = _partition_tuple(spec, basis, n, n)
            tuples.append(list(part.cones))
            tuples.append(list(part.cones[1:]))
        for _ in range(20):
            tuples.append([rng.choice(cones) for _ in range(rng.randrange(1, 4))])
        for cones_t in tuples:
            t = ConeTuple(spec, cones_t)
            expected = _ref_flags(spec, cones_t)
            assert (t.covering, t.disjoint) == expected
            outcomes.add(expected)
            if t.disjoint:
                _, parts = witness_basis(spec, cones_t)
                for cone, part in zip(cones_t, parts):
                    assert cone_equals(Cone.from_leaves(spec, part), cone)
                    assert (len(part) - cone_norm(cone)) % spec.d == 0
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_witness_basis_rejects_overlapping_supports(specs):
    for spec in specs.values():
        h = _halves(spec)
        left = Cone.from_leaves(spec, [h.cells[0]])
        for cones in ([left, _full(spec)], [left, left]):
            with pytest.raises(ConeError, match="disjoint supports"):
                witness_basis(spec, cones)


# -- serialisation ------------------------------------------------------------

def test_cone_text_round_trip(specs):
    for spec in specs.values():
        for seed in range(6):
            cone, _ = _random_cone(spec, seed)
            assert cone_equals(parse_cone_text(spec, cone_to_text(cone)), cone)
    assert parse_cone_text(next(iter(specs.values())), "EMPTY\n").is_empty()

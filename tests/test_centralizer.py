import collections
import importlib.util
import itertools
import pathlib
import random
import re
import sys

import pytest

import cantorv.centralizer as Z
import cantorv.cones as C
import cantorv.elements as E
import cantorv.terms as T
from cantorv.centralizer import (
    BruteForceCapError,
    KernelElement,
    build_kernel_element,
    centralizer_structure,
    decompose_fixing_element,
    encode_kernel_element,
    expand_kernel,
    invariant_basis,
    invariant_basis_report,
    kernel_action,
    kernel_equals,
    minimize_invariant_basis,
    normalizer_analysis,
    orbit_types,
    quotient_spec,
    splitting_lift,
    type_centralizer_L,
)
from cantorv.cones import cone_equals, act as cone_act
from cantorv.elements import (
    CapExceededError,
    _perm_inv,
    _perm_mul,
    close_subgroup,
    compose,
    equals,
    identity,
    invert,
    parse_element_text,
    permutation_element,
    random_element,
    represent_on,
)
from cantorv import parse_spec
from cantorv.terms import (
    Basis,
    TermError,
    enumerate_bases,
    expand,
    find_ancestor,
    lower_closure,
    lub,
    max_elementary,
    split_leaf,
)

from oracles import (
    conjugation_orbit_types,
    copywise_kernel_element,
    copywise_lift,
    iterated_invariant_basis,
    scan_close_subgroup,
    scan_letter_centralizer,
    scan_normalizer,
)

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _halves(spec):
    x = Basis.roots(spec)
    return expand(x, x.cells[0], 0)


def _sigma_group(v21):
    return close_subgroup([permutation_element(_halves(v21), [1, 0])], 8)


def _three_cycle_group(v31):
    x = Basis.roots(v31)
    thirds = expand(x, x.cells[0], 0)
    return close_subgroup([permutation_element(thirds, [1, 2, 0])], 8)


def _mixed_group(v21):
    h = _halves(v21)
    b3 = expand(h, h.cells[1], 0)
    return close_subgroup([permutation_element(b3, [0, 2, 1])], 8)


# -- invariant bases ----------------------------------------------------------

def test_invariant_basis_trivial_group(v21):
    q = close_subgroup([identity(v21)], 4)
    assert invariant_basis(q) == Basis.roots(v21)


def test_invariant_basis_sigma(v21):
    q = _sigma_group(v21)
    y = invariant_basis(q)
    assert y == _halves(v21)
    for g in q:
        rep = represent_on(g, y)
        assert rep is not None and rep[0] == y


def test_invariant_basis_three_cycle(v31):
    q = _three_cycle_group(v31)
    y = invariant_basis(q)
    x = Basis.roots(v31)
    assert y == expand(x, x.cells[0], 0)


def test_invariant_basis_mixed(v21):
    q = _mixed_group(v21)
    y = invariant_basis(q)
    assert len(y) == 3
    for g in q:
        rep = represent_on(g, y)
        assert rep is not None and rep[0] == y


def test_minimize_recovers_small_basis(v21):
    q = _sigma_group(v21)
    y = invariant_basis(q)
    blown = max_elementary(y)
    assert minimize_invariant_basis(blown, q) == y
    assert minimize_invariant_basis(y, q) == y


def test_minimize_trivial_group_contracts_to_roots(v21):
    q = close_subgroup([identity(v21)], 4)
    blown = max_elementary(max_elementary(Basis.roots(v21)))
    assert minimize_invariant_basis(blown, q) == Basis.roots(v21)


# -- orbit types --------------------------------------------------------------

def test_orbit_types_sigma(v21):
    q = _sigma_group(v21)
    rep = orbit_types(invariant_basis(q), q)
    assert len(rep.orbits) == 1
    assert rep.orbits[0].type_id == "regular"
    tdata = rep.types["regular"]
    assert tdata.m == 2 and tdata.r == 1


def test_orbit_types_identity_group(stein23):
    q = close_subgroup([identity(stein23)], 4)
    y = expand(Basis.roots(stein23), Basis.roots(stein23).cells[0], 1)
    rep = orbit_types(y, q)
    assert len(rep.orbits) == 3
    assert all(o.type_id == "trivial" for o in rep.orbits)
    assert rep.types["trivial"].r == 3


def test_orbit_types_mixed(v21):
    q = _mixed_group(v21)
    rep = orbit_types(minimize_invariant_basis(invariant_basis(q), q), q)
    kinds = sorted(o.type_id for o in rep.orbits)
    assert kinds == ["regular", "trivial"]
    assert rep.types["trivial"].r == 1
    assert rep.types["regular"].r == 1


def test_marked_elements_are_least(v21):
    q = _mixed_group(v21)
    rep = orbit_types(minimize_invariant_basis(invariant_basis(q), q), q)
    for orb in rep.orbits:
        assert orb.marked == min(orb.indices)


def test_numbering_intertwines_same_type_orbits(v31):
    # two 3-cycles acting on disjoint components of a 5-leaf basis
    x = Basis.roots(v31)
    thirds = expand(x, x.cells[0], 0)
    fine = expand(thirds, thirds.cells[0], 0)  # 5 leaves
    rho = permutation_element(fine, [1, 2, 0, 4, 3][:0] or [1, 2, 0, 3, 4])
    q = close_subgroup([rho], 8)
    rep = orbit_types(fine, q)
    regular = [o for o in rep.orbits if len(o.indices) == 3]
    assert len(regular) == 1


# -- letter centralisers ------------------------------------------------------

def test_L_for_sigma(v21):
    q = _sigma_group(v21)
    rep = orbit_types(invariant_basis(q), q)
    L = type_centralizer_L(rep, "regular")
    assert set(L) == {(0, 1), (1, 0)}


def test_L_trivial_type(v21):
    q = close_subgroup([identity(v21)], 4)
    rep = orbit_types(Basis.roots(v21), q)
    assert type_centralizer_L(rep, "trivial") == ((0,),)


def test_L_for_three_cycle(v31):
    q = _three_cycle_group(v31)
    rep = orbit_types(invariant_basis(q), q)
    L = type_centralizer_L(rep, "regular")
    assert len(L) == 3
    image = {rep.types["regular"].phi[i] for i in range(len(q))}
    assert set(L) == image


def _s3_group(v21):
    """S_3 on three v21 leaves: one orbit type, of three letters."""
    h = _halves(v21)
    b3 = expand(h, h.cells[0], 0)
    return close_subgroup(
        [permutation_element(b3, [1, 0, 2]), permutation_element(b3, [1, 2, 0])], 24
    )


def test_L_for_symmetric_group(v21):
    rep = invariant_basis_report(_s3_group(v21))
    (tid,) = rep.types
    L = type_centralizer_L(rep, tid)
    assert L == ((0, 1, 2),)  # symmetric groups of degree >= 3 are centreless


def test_L_of_a_cyclic_group_is_its_image(v21, v31):
    # a transitive abelian group is its own centraliser in S_m, so every
    # orbit type of a cyclic group has L equal to its image
    h = _halves(v21)
    b3 = expand(h, h.cells[0], 0)
    b5 = expand(expand(b3, b3.cells[0], 0), b3.cells[2], 0)
    # order 6 from a transposition and a disjoint 3-cycle: two orbit types
    c6 = close_subgroup(
        [permutation_element(b5, [1, 0, 2, 3, 4]), permutation_element(b5, [0, 1, 3, 4, 2])],
        8,
    )
    assert len(c6) == 6
    groups = [_sigma_group(v21), _three_cycle_group(v31), c6, _nine_cycle_group(v31)]
    for q in groups:
        report = invariant_basis_report(q)
        for tid, tdata in report.types.items():
            assert type_centralizer_L(report, tid) == tuple(sorted(set(tdata.phi)))
    assert [t.m for t in invariant_basis_report(c6).types.values()] == [2, 3]


def test_labels_outside_the_letter_centralizer_are_refused(v21):
    # (1, 0, 2) is a permutation, but L of S_3 holds only the identity
    report = invariant_basis_report(_s3_group(v21))
    (tid,) = report.types
    qs = quotient_spec(v21, 1)
    roots = Basis.roots(qs)
    k = KernelElement(qs, roots, {c: (1, 0, 2) for c in roots.cells})
    refused = rf"^label \(1, 0, 2\) is not in the letter centraliser of type {tid}$"
    with pytest.raises(TermError, match=refused):
        build_kernel_element(report, tid, k)
    with pytest.raises(TermError, match=r"^label \(1, 0, 2\) is not among the letters$"):
        encode_kernel_element(k, type_centralizer_L(report, tid))


# -- structure reports --------------------------------------------------------

def test_structure_sigma(v21):
    q = _sigma_group(v21)
    cs = centralizer_structure(q)
    lines = cs.lines()
    assert lines[0] == "t_realized=1"
    assert lines[1].startswith("type=regular m=2 r=1 |L|=2")


def test_structure_trivial_group_is_whole_group(stein23):
    q = close_subgroup([identity(stein23)], 4)
    cs = centralizer_structure(q)
    assert len(cs.factors) == 1
    f = cs.factors[0]
    assert f.type_id == "trivial" and f.m == 1 and f.r == stein23.roots


def test_structure_mixed_two_factors(v21):
    q = _mixed_group(v21)
    cs = centralizer_structure(q)
    assert len(cs.factors) == 2
    assert {f.type_id for f in cs.factors} == {"trivial", "regular"}


# -- kernel elements ----------------------------------------------------------

def _regular_setup(v21):
    q = _sigma_group(v21)
    rep = orbit_types(minimize_invariant_basis(invariant_basis(q), q), q)
    L = type_centralizer_L(rep, "regular")
    qs = quotient_spec(v21, rep.types["regular"].r)
    return q, rep, L, qs


def test_kernel_identity_labels(v21):
    q, rep, L, qs = _regular_setup(v21)
    a = Basis.roots(qs)
    k = KernelElement(qs, a, {a.cells[0]: (0, 1)})
    assert equals(build_kernel_element(rep, "regular", k), identity(v21))


def test_kernel_single_swap_label_is_sigma(v21):
    q, rep, L, qs = _regular_setup(v21)
    sigma = q.generators[0]
    a = Basis.roots(qs)
    k = KernelElement(qs, a, {a.cells[0]: (1, 0)})
    assert equals(build_kernel_element(rep, "regular", k), sigma)


@pytest.mark.parametrize("label", [(0, 0), (1, 1), (1, 2), (1,)])
def test_kernel_labels_must_be_permutations(v21, label):
    q, rep, L, qs = _regular_setup(v21)
    a = Basis.roots(qs)
    with pytest.raises(TermError, match=re.escape(f"label {label} is not a permutation")):
        KernelElement(qs, a, {a.cells[0]: label})


def test_kernel_elements_commute_with_group(v21):
    q, rep, L, qs = _regular_setup(v21)
    rng = random.Random(5)
    a = Basis.roots(qs)
    fine = expand(a, a.cells[0], 0)
    fine = expand(fine, fine.cells[0], 0)
    for _ in range(20):
        labels = {c: L[rng.randrange(len(L))] for c in fine.cells}
        x = build_kernel_element(rep, "regular", KernelElement(qs, fine, labels))
        for g in q:
            assert equals(compose(x, g), compose(g, x))


def _leafwise_kernel_action(v, k):
    """Reference ``kernel_action``: each cell of the common refinement
    carried leaf by leaf with its label, the image basis certified from the
    image cells."""
    mid = lub(v.domain, k.basis)
    labels = {v.image_of_leaf(c): k.labels[find_ancestor(k.basis, c)] for c in mid.cells}
    return KernelElement(k.qspec, Basis.from_cells(k.qspec, labels), labels)


def test_kernel_action_matches_leafwise_reference(specs):
    for spec in specs.values():
        for seed in range(6):
            rng = random.Random(seed)
            v = random_element(spec, spec.roots + 5, seed)
            basis = random_element(spec, spec.roots + 4, seed + 30).domain
            k = KernelElement(spec, basis, {c: tuple(rng.sample(range(3), 3)) for c in basis.cells})
            got, ref = kernel_action(v, k), _leafwise_kernel_action(v, k)
            assert got.basis == ref.basis and got.labels == ref.labels


def test_kernel_diagonal_expansion_is_equal(v21):
    q, rep, L, qs = _regular_setup(v21)
    a = Basis.roots(qs)
    k = KernelElement(qs, a, {a.cells[0]: (1, 0)})
    k2 = expand_kernel(k, a.cells[0], 0)
    assert kernel_equals(k, k2)
    assert equals(
        build_kernel_element(rep, "regular", k),
        build_kernel_element(rep, "regular", k2),
    )


def test_encode_kernel_identity(v21):
    q, rep, L, qs = _regular_setup(v21)
    a = Basis.roots(qs)
    k = KernelElement(qs, a, {a.cells[0]: L[0]})
    tup = encode_kernel_element(k, L)
    assert tup.covering
    assert not tup.cones[0].is_empty()
    assert tup.cones[1].is_empty()


def test_encode_injective_on_samples(v21):
    q, rep, L, qs = _regular_setup(v21)
    a = Basis.roots(qs)
    fine = expand(a, a.cells[0], 0)
    kernels = []
    for labels in itertools.product(L, repeat=2):
        kernels.append(
            KernelElement(qs, fine, dict(zip(fine.cells, labels)))
        )
    encodings = [encode_kernel_element(k, L) for k in kernels]
    for (i, ei), (j, ej) in itertools.combinations(enumerate(encodings), 2):
        same = all(cone_equals(a_, b_) for a_, b_ in zip(ei.cones, ej.cones))
        assert same == kernel_equals(kernels[i], kernels[j])


def test_encode_delta_invariance(v21):
    q, rep, L, qs = _regular_setup(v21)
    rng = random.Random(11)
    a = Basis.roots(qs)
    fine = expand(a, a.cells[0], 0)
    for _ in range(20):
        labels = {c: L[rng.randrange(len(L))] for c in fine.cells}
        k = KernelElement(qs, fine, labels)
        cell = fine.cells[rng.randrange(len(fine))]
        k2 = expand_kernel(k, cell, 0)
        e1 = encode_kernel_element(k, L)
        e2 = encode_kernel_element(k2, L)
        assert all(cone_equals(x, y) for x, y in zip(e1.cones, e2.cones))


def test_encode_equivariance(v21):
    q, rep, L, qs = _regular_setup(v21)
    rng = random.Random(3)
    a = Basis.roots(qs)
    fine = expand(a, a.cells[0], 0)
    for seed in range(15):
        labels = {c: L[rng.randrange(len(L))] for c in fine.cells}
        k = KernelElement(qs, fine, labels)
        g = random_element(qs, 5, seed)
        lhs = encode_kernel_element(kernel_action(g, k), L)
        rhs = [cone_act(g, c) for c in encode_kernel_element(k, L).cones]
        assert all(cone_equals(x, y) for x, y in zip(lhs.cones, rhs))


# -- lifts ---------------------------------------------------------------------

def test_lift_identity(v21):
    q, rep, L, qs = _regular_setup(v21)
    assert equals(splitting_lift(rep, "regular", identity(qs)), identity(v21))


def test_lift_is_homomorphism(v21):
    q, rep, L, qs = _regular_setup(v21)
    for seed in range(10):
        a = random_element(qs, 5, seed)
        b = random_element(qs, 5, seed + 40)
        assert equals(
            splitting_lift(rep, "regular", compose(a, b)),
            compose(
                splitting_lift(rep, "regular", a),
                splitting_lift(rep, "regular", b),
            ),
        )


def test_lift_commutes_with_group(v21):
    q, rep, L, qs = _regular_setup(v21)
    for seed in range(10):
        v = random_element(qs, 5, seed)
        lifted = splitting_lift(rep, "regular", v)
        for g in q:
            assert equals(compose(lifted, g), compose(g, lifted))


def test_distinct_type_factors_commute(v21):
    q = _mixed_group(v21)
    rep = orbit_types(minimize_invariant_basis(invariant_basis(q), q), q)
    qs_t = quotient_spec(v21, rep.types["trivial"].r)
    qs_r = quotient_spec(v21, rep.types["regular"].r)
    at = Basis.roots(qs_t)
    ar = Basis.roots(qs_r)
    xs = [
        build_kernel_element(
            rep, "trivial", KernelElement(qs_t, at, {at.cells[0]: (0,)})
        ),
        build_kernel_element(
            rep, "regular", KernelElement(qs_r, ar, {ar.cells[0]: (1, 0)})
        ),
        splitting_lift(rep, "trivial", random_element(qs_t, 4, 1)),
        splitting_lift(rep, "regular", random_element(qs_r, 4, 2)),
    ]
    trivial_factor = [xs[0], xs[2]]
    regular_factor = [xs[1], xs[3]]
    for a in trivial_factor:
        for b in regular_factor:
            assert equals(compose(a, b), compose(b, a))
    for x in xs:
        for g in q:
            assert equals(compose(x, g), compose(g, x))


# -- normalisers ---------------------------------------------------------------

def test_weyl_sigma(v21):
    rep = normalizer_analysis(_sigma_group(v21))
    assert rep.weyl_order == 1
    assert rep.normalizer_order == rep.centralizer_order == 2


def test_weyl_trivial(v21):
    rep = normalizer_analysis(close_subgroup([identity(v21)], 4))
    assert rep.weyl_order == 1


def test_weyl_three_cycle(v31):
    rep = normalizer_analysis(_three_cycle_group(v31))
    assert rep.sy_order == 6
    assert rep.normalizer_order == 6
    assert rep.centralizer_order == 3
    assert rep.weyl_order == 2
    assert len(rep.coset_reps) == 2


def test_normalizer_products_normalize(v31):
    q = _three_cycle_group(v31)
    rep = normalizer_analysis(q)
    y = rep.basis
    group_elems = list(q.elements)
    for perm in rep.coset_reps:
        n = permutation_element(y, perm)
        for c in [identity(v31), group_elems[1]]:
            cand = compose(c, n)
            for g in q:
                conj = compose(compose(cand, g), invert(cand))
                assert any(equals(conj, h) for h in q)


def test_orbit_type_transport(v31):
    # conjugation by normaliser elements permutes realized types preserving r
    q = _three_cycle_group(v31)
    nrep = normalizer_analysis(q)
    y = nrep.basis
    rep = orbit_types(y, q)
    image = set(rep.perms)
    for perm in nrep.coset_reps:
        conj_perms = {
            _perm_mul(_perm_mul(perm, s), _perm_inv(perm)) for s in image
        }
        assert conj_perms == image


def _conjugated_group(source, size, seed):
    """A permutation of a basis with ``size`` leaves, conjugated by a random
    element, as the symmetry benchmark builds its subgroups."""
    spec = parse_spec(source)
    bases = [b for b in enumerate_bases(spec, size) if len(b) == size]
    rng = random.Random(seed)
    b = rng.choice(bases)
    perm = list(range(size))
    while perm == sorted(perm):
        rng.shuffle(perm)
    p = permutation_element(b, perm)
    c = random_element(spec, spec.roots + 2, rng.randrange(2**31))
    return close_subgroup([compose(compose(c, p), invert(c))], 64)


def _klein_group(v21):
    """A Klein four-group on the quarters, with the quarters: the first
    generator alone keeps the halves invariant, the second does not."""
    h = _halves(v21)
    quarters = expand(expand(h, h.cells[0], 0), h.cells[1], 0)
    klein = close_subgroup(
        [permutation_element(quarters, [2, 3, 0, 1]), permutation_element(quarters, [1, 0, 3, 2])],
        8,
    )
    return klein, quarters


def _reference_groups(v21, v31):
    """(subgroup, invariant basis) pairs for the reference tests."""
    h = _halves(v21)
    b3 = expand(h, h.cells[0], 0)
    s3 = close_subgroup(
        [permutation_element(b3, [1, 0, 2]), permutation_element(b3, [1, 2, 0])],
        24,
    )
    spec2 = parse_spec("roots=2; block[2]")
    out = [(s3, b3), _klein_group(v21), (close_subgroup([identity(spec2)], 4), Basis.roots(spec2))]
    groups = [_sigma_group(v21), _three_cycle_group(v31), _mixed_group(v21)]
    groups += [
        _conjugated_group(source, size, seed)
        for source, size, seed in [
            ("roots=1; block[2]", 4, 1),
            ("roots=1; block[2,3]", 3, 1),
            ("roots=1; block[2,3]", 4, 2),
            ("roots=1; block[2]; block[3]", 4, 1),
            ("roots=2; block[2]", 4, 0),
        ]
    ]
    return out + [(q, invariant_basis(q)) for q in groups]


def test_group_data_matches_diagram_composition(v21, v31):
    # reference: the table built from diagrams, n^2 compose and a linear
    # equals search per entry, against products of the permutations
    for q, y in _reference_groups(v21, v31):
        perms = orbit_types(y, q).perms
        elems = list(q.elements)
        n = len(elems)
        ident = next(i for i, g in enumerate(elems) if equals(g, identity(q.spec)))
        mult = [
            [next(k for k, c in enumerate(elems) if equals(compose(a, b), c)) for b in elems]
            for a in elems
        ]
        inv = [next(j for j in range(n) if mult[i][j] == ident) for i in range(n)]
        assert perms[ident] == tuple(range(len(y)))
        for a in range(n):
            assert perms[inv[a]] == _perm_inv(perms[a])
            for b in range(n):
                assert perms[mult[a][b]] == _perm_mul(perms[a], perms[b])

        def generated(gens):
            span, frontier = {ident}, [ident]
            while frontier:
                x = frontier.pop()
                for g in gens:
                    if mult[g][x] not in span:
                        span.add(mult[g][x])
                        frontier.append(mult[g][x])
            return span

        # the greedy generating set, read off the table
        for first in range(n):
            gens = [first]
            for g in range(n):
                if g not in generated(gens):
                    gens.append(g)
            assert Z._generating_set(perms, first) == gens


def test_group_data_rejects_repeated_permutations(v21, monkeypatch):
    q = _sigma_group(v21)
    monkeypatch.setattr(
        E.FiniteSubgroup, "perms_along_words", lambda self, gen_perms: [gen_perms[0]] * len(self)
    )
    with pytest.raises(TermError, match="two elements act by the same permutation"):
        orbit_types(invariant_basis(q), q)


def test_group_law_needs_no_multiplication_table(v21, monkeypatch):
    # the order-720 group of random seed 10: the structure and normaliser
    # multiply permutations a few times per element, not |Q|^2 times
    gens = next(itertools.islice(_random_generators(v21), 10, None))
    q = close_subgroup(gens, 720)
    assert len(q) == 720
    calls = 0
    real = E._perm_mul

    def counted(p, r):
        nonlocal calls
        calls += 1
        return real(p, r)

    monkeypatch.setattr(E, "_perm_mul", counted)
    monkeypatch.setattr(Z, "_perm_mul", counted)
    centralizer_structure(q)
    normalizer_analysis(q)
    assert 0 < calls <= 10 * len(q)


def test_generators_decide_invariance(v21, v31):
    for q, y in _reference_groups(v21, v31):
        for cand in lower_closure(y):
            reps = [represent_on(g, cand) for g in q.elements]
            scan = all(rep is not None and rep[0] == cand for rep in reps)
            assert (Z._generator_perms(q, cand) is not None) == scan


def _minimize_by_scan(y, q):
    """The exhaustive reference: the first invariant basis of the lower
    closure of y, which lists bases by size and then canonically."""
    return next(cand for cand in lower_closure(y) if Z._generator_perms(q, cand) is not None)


def _blown_up(y):
    """y with every leaf split once by the first colour; invariant when y
    is, since the group acts on the leaves of y by transport."""
    return Basis.from_cells(y.spec, [c for leaf in y for c in split_leaf(y.spec, leaf, 0)])


def _normalizer_by_set_scan(q):
    """(|N|, |C|) by the set-building scan ``normalizer_analysis`` used to
    run: every conjugate of the image is built whole and compared."""
    y = minimize_invariant_basis(invariant_basis(q), q)
    report = orbit_types(y, q)
    image = set(report.perms)
    normal = central = 0
    for perm in itertools.permutations(range(len(y))):
        conj = {_perm_mul(_perm_mul(perm, s), _perm_inv(perm)) for s in image}
        if conj == image:
            normal += 1
            central += all(_perm_mul(perm, s) == _perm_mul(s, perm) for s in image)
    return normal, central


@pytest.fixture(scope="module")
def benchmark_subgroups():
    """Every subgroup the symmetry benchmark builds, with its invariant
    basis.  ``perfbench/workloads.py`` is loaded from its file, read only;
    the subgroups are the same for every seed."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("oracle", "workloads"):
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            wl = importlib.util.module_from_spec(spec)
            mp.setitem(sys.modules, name, wl)
            spec.loader.exec_module(wl)
    symmetry = wl.Symmetry()
    out = []
    for request in symmetry.setup(0).requests:
        spec = parse_spec(wl.SPEC_SOURCES[request["spec"]])
        gen = parse_element_text(spec, request["generator"])
        q = close_subgroup([gen], symmetry.CLOSE_CAP)
        out.append((q, invariant_basis(q)))
    return out


def test_minimize_matches_lower_closure_scan(v21, v31):
    for q, y in _reference_groups(v21, v31):
        for start in (y, _blown_up(y)):
            assert minimize_invariant_basis(start, q).cells == _minimize_by_scan(start, q).cells


def test_minimize_matches_scan_on_benchmark_subgroups(benchmark_subgroups):
    # y is already minimal for every one of them, so the blow-ups small
    # enough for the scan (251 of 336) are what exercise the merges
    assert len(benchmark_subgroups) == 336
    for q, y in benchmark_subgroups:
        blown = _blown_up(y)
        for start in (y, blown) if len(blown) <= 10 else (y,):
            assert minimize_invariant_basis(start, q).cells == _minimize_by_scan(start, q).cells


def test_normalizer_matches_set_scan(v21, v31, benchmark_subgroups):
    groups = [q for q, _ in _reference_groups(v21, v31)]
    groups += [
        q for q, y in benchmark_subgroups if len(minimize_invariant_basis(y, q)) <= 7
    ]
    for q in groups:
        rep = normalizer_analysis(q)
        assert (rep.normalizer_order, rep.centralizer_order) == _normalizer_by_set_scan(q)
        assert rep.basis is invariant_basis_report(q).basis


def psl27_generators(v21):
    """Generators of PSL(2, 7), 168 elements, acting on the projective line
    over F_7: the points 0..6 and infinity are the leaves of the balanced
    v21 basis with 8 leaves, and the generators are x + 1 and -1/x."""
    b = Basis.roots(v21)
    for _ in range(3):
        for cell in list(b.cells):
            b = expand(b, cell, 0)
    shift = [(x + 1) % 7 for x in range(7)] + [7]
    inverse = [7] + [-pow(x, -1, 7) % 7 for x in range(1, 7)] + [0]
    return [permutation_element(b, shift), permutation_element(b, inverse)]


@pytest.fixture(scope="module")
def psl27(v21):
    return close_subgroup(psl27_generators(v21), 200)


def _random_generators(v21):
    """One or two seeded random permutations of a basis with 3 to 8
    leaves, of v21, v31 or v21 with two roots, for each of 40 seeds."""
    pools = [
        [b for b in enumerate_bases(spec, 8) if len(b) >= 3]
        for spec in (v21, parse_spec("roots=1; block[3]"), parse_spec("roots=2; block[2]"))
    ]
    for seed in range(40):
        rng = random.Random(seed)
        b = rng.choice(rng.choice(pools))
        gens = []
        for _ in range(rng.randint(1, 2)):
            perm = list(range(len(b)))
            rng.shuffle(perm)
            gens.append(permutation_element(b, perm))
        yield gens


def _random_subgroups(v21):
    """The subgroups ``_random_generators`` generate; those above 64
    elements are skipped."""
    out = []
    for gens in _random_generators(v21):
        try:
            out.append(close_subgroup(gens, 64))
        except CapExceededError:
            pass
    return out


def test_normalizer_and_letter_centralizers_match_scans(v21, v31, benchmark_subgroups, psl27):
    groups = [q for q, _ in _reference_groups(v21, v31)]
    groups.append(close_subgroup([identity(v21)], 4))
    groups += [
        q for q, y in benchmark_subgroups if len(minimize_invariant_basis(y, q)) <= 7
    ]
    randoms = _random_subgroups(v21)
    assert len(randoms) >= 20
    assert max(len(invariant_basis_report(q).basis) for q in randoms) == 8
    assert len(psl27) == 168
    groups += randoms + [psl27, _nine_cycle_group(v31)]
    for q in groups:
        assert normalizer_analysis(q).lines() == scan_normalizer(q).lines()
    # letter centralisers on every benchmark subgroup: its orbits are short
    for q in groups + [q for q, _ in benchmark_subgroups]:
        report = invariant_basis_report(q)
        for tid in report.types:
            assert type_centralizer_L(report, tid) == scan_letter_centralizer(report, tid)


def _orbit_type_signature(report):
    orbits = [(o.indices, o.marked, o.stabilizer, o.type_id, o.numbering) for o in report.orbits]
    types = [(tid, t.m, t.orbit_ids, t.phi) for tid, t in report.types.items()]
    return orbits, types


def test_orbit_types_match_conjugation_reference(v21, v31, benchmark_subgroups, psl27):
    # on the basis the iteration stops at and on the minimal one
    cases = _reference_groups(v21, v31) + benchmark_subgroups
    cases += [(q, invariant_basis(q)) for q in _random_subgroups(v21) + [psl27]]
    for q, y in cases:
        for basis in (y, invariant_basis_report(q).basis):
            assert _orbit_type_signature(orbit_types(basis, q)) == _orbit_type_signature(
                conjugation_orbit_types(basis, q)
            )


def test_closure_matches_scan_references(v21, v31, benchmark_subgroups, psl27):
    # the equals scan's elements, diagrams and order; the all-element
    # iteration's basis; and products along the words equal to each
    # element's own permutation, on q.basis and on the minimal basis
    groups = [q for q, _ in _reference_groups(v21, v31) + benchmark_subgroups]
    groups += _random_subgroups(v21) + [psl27]
    for q in groups:
        assert [g.key() for g in q] == [g.key() for g in scan_close_subgroup(q.generators, len(q))]
        assert q.basis == iterated_invariant_basis(q)
        for y in (q.basis, invariant_basis_report(q).basis):
            assert orbit_types(y, q).perms == [represent_on(g, y)[1] for g in q]


def test_closure_refuses_what_the_scan_refuses(v21):
    refused = 0
    for gens in _random_generators(v21):
        try:
            close_subgroup(gens, 64)
        except CapExceededError as exc:
            refused += 1
            with pytest.raises(CapExceededError, match=f"^{re.escape(str(exc))}$"):
                scan_close_subgroup(gens, 64)
    assert refused > 0


def test_closure_orders_elements_without_leaf_keys(v21, psl27, monkeypatch):
    def refuse(leaf):
        raise AssertionError("Leaf.key called")

    with monkeypatch.context() as mp:
        mp.setattr(T.Leaf, "key", refuse)
        q = close_subgroup(psl27_generators(v21), 200)
    by_keys = sorted(q.elements, key=lambda g: (
        len(g.domain),
        tuple(c.key() for c in g.domain.cells),
        tuple(c.key() for c in g.range.cells),
        g.perm,
    ))
    assert q.elements == tuple(by_keys) == psl27.elements


def test_report_asks_represent_on_only_for_generators_on_new_bases(
    benchmark_subgroups, monkeypatch
):
    # minimisation starts from the closure's own permutations of q.basis,
    # and orbit types multiply along the words: represent_on runs once per
    # generator on each candidate basis and on a final basis that is not
    # q.basis (none here, as every benchmark q.basis is minimal)
    calls = []
    real = Z.represent_on

    def counted(g, y):
        calls.append((g, y))
        return real(g, y)

    monkeypatch.setattr(Z, "represent_on", counted)
    for q, _ in benchmark_subgroups[::24]:
        q = close_subgroup(q.generators, 64)  # a fresh report
        start = len(calls)
        invariant_basis_report(q)
        for g, y in calls[start:]:
            assert g in q.generators and y != q.basis
    assert len(calls) == 6


def test_normalizer_cap_counts_candidates(psl27, v31):
    # the cap bounds the candidates tested, not |Y|!: PSL(2,7) has 336, one
    # conjugator of a 7-cycle to each of the 48 7-cycles per element of its
    # cyclic centraliser; the nine-cycle group on |Y| = 9 has 54
    with pytest.raises(BruteForceCapError, match="^336 normaliser candidates exceed cap 335$"):
        normalizer_analysis(psl27, cap=335)
    assert normalizer_analysis(psl27, cap=336).normalizer_order == 336
    rep = normalizer_analysis(_nine_cycle_group(v31))
    assert (rep.sy_order, rep.normalizer_order, rep.centralizer_order) == (362880, 54, 9)
    assert rep.weyl_order == 6


def test_conjugators_are_the_conjugating_permutations():
    perms = list(itertools.permutations(range(5)))
    for s in perms[::7]:
        for t in perms[::11]:
            found = list(Z._conjugators(s, t))
            assert len(found) == len(set(found))
            assert set(found) == {
                pi for pi in perms if _perm_mul(_perm_mul(pi, s), _perm_inv(pi)) == t
            }


# -- the shared invariant-basis report --------------------------------------------

def test_normalizer_uses_the_structure_report(v21):
    q = _sigma_group(v21)
    assert normalizer_analysis(q).basis is centralizer_structure(q).report.basis


def test_structure_and_normalizer_build_orbit_types_once(v21, monkeypatch):
    calls = []
    real = Z.orbit_types

    def counted(y, q):
        calls.append(q)
        return real(y, q)

    monkeypatch.setattr(Z, "orbit_types", counted)
    q = _mixed_group(v21)
    centralizer_structure(q)
    normalizer_analysis(q)
    assert calls == [q]


def test_equal_subgroups_keep_their_own_report(v21):
    a, b = _sigma_group(v21), _sigma_group(v21)
    assert a == b and a is not b
    assert invariant_basis_report(a) is invariant_basis_report(a)
    assert invariant_basis_report(a) is not invariant_basis_report(b)


# -- decomposition attempt ------------------------------------------------------

def test_decompose_fixing_element_round_trip(v21):
    from cantorv.centralizer import decompose_fixing_element

    q = _sigma_group(v21)
    rep = orbit_types(minimize_invariant_basis(invariant_basis(q), q), q)
    sigma = q.generators[0]
    decomposition = decompose_fixing_element(rep, sigma)
    assert decomposition == {"regular": (((1, 0),), (0,))}
    assert decompose_fixing_element(rep, identity(v21)) == {
        "regular": (((0, 1),), (0,))
    }


def test_decompose_rejects_non_centralizing(v21):
    from cantorv.centralizer import decompose_fixing_element

    q = _mixed_group(v21)
    rep = orbit_types(minimize_invariant_basis(invariant_basis(q), q), q)
    moved = permutation_element(rep.basis, [1, 0, 2])
    assert decompose_fixing_element(rep, moved) is None
    tau = q.generators[0]
    assert decompose_fixing_element(rep, tau) is not None


def test_decompose_handles_root_swaps():
    from cantorv import parse_spec
    from cantorv.centralizer import decompose_fixing_element

    spec2 = parse_spec("roots=2; block[2]")
    x2 = Basis.roots(spec2)
    q = close_subgroup([identity(spec2)], 4)
    rep = orbit_types(x2, q)
    swap = permutation_element(x2, [1, 0])
    decomposition = decompose_fixing_element(rep, swap)
    assert decomposition is not None
    assert decomposition["trivial"][1] == (1, 0)


def _nine_cycle_group(v31):
    """A 9-cycle on the nine leaves of the balanced v31 basis: one regular
    orbit of nine letters, and |Y|! = 9! above the normaliser's cap."""
    x = Basis.roots(v31)
    b = expand(x, x.cells[0], 0)
    for cell in b.cells:
        b = expand(b, cell, 0)
    return close_subgroup([permutation_element(b, [*range(1, 9), 0])], 9)


def test_decompose_reads_letter_centralisers_without_the_cap(v31):
    q = _nine_cycle_group(v31)
    report = invariant_basis_report(q)
    assert [(t.m, t.r) for t in report.types.values()] == [(9, 1)]
    assert decompose_fixing_element(report, identity(v31)) == {
        "regular": ((tuple(range(9)),), (0,))
    }
    assert decompose_fixing_element(report, q.generators[0]) == {
        "regular": (((*range(1, 9), 0),), (0,))
    }


def _diagonal_cases(v21, v31, benchmark_subgroups, psl27):
    groups = [q for q, _ in benchmark_subgroups + _reference_groups(v21, v31)]
    return groups + _random_subgroups(v21) + [psl27, _nine_cycle_group(v31)]


def _seeded_labels(report, tid, cells, rng):
    """A seeded letter-centraliser label per cell."""
    L = type_centralizer_L(report, tid)
    return {c: rng.choice(L) for c in cells}


def test_diagonal_map_matches_copywise_references(v21, v31, benchmark_subgroups, psl27):
    rng = random.Random(25)
    for q in _diagonal_cases(v21, v31, benchmark_subgroups, psl27):
        report = invariant_basis_report(q)
        for tid, tdata in report.types.items():
            qs = quotient_spec(q.spec, tdata.r)
            roots = Basis.roots(qs)
            fine = expand(roots, rng.choice(roots.cells), rng.randrange(qs.num_colors))
            for basis in (roots, fine):
                k = KernelElement(qs, basis, _seeded_labels(report, tid, basis.cells, rng))
                got = build_kernel_element(report, tid, k)
                assert got.key() == copywise_kernel_element(report, tid, k).key()
            v = random_element(qs, qs.roots + 2, rng.randrange(2**31))
            assert splitting_lift(report, tid, v).key() == copywise_lift(report, tid, v).key()


def test_decompose_returns_the_labels_and_root_permutation(
    v21, v31, benchmark_subgroups, psl27
):
    rng = random.Random(26)
    for q in _diagonal_cases(v21, v31, benchmark_subgroups, psl27):
        report = invariant_basis_report(q)
        unmoved = {
            tid: ((tuple(range(t.m)),) * t.r, tuple(range(t.r)))
            for tid, t in report.types.items()
        }
        for tid, tdata in report.types.items():
            roots = Basis.roots(quotient_spec(q.spec, tdata.r))
            labels = _seeded_labels(report, tid, roots.cells, rng)
            root_perm = rng.sample(range(tdata.r), tdata.r)
            kernel = build_kernel_element(report, tid, KernelElement(roots.spec, roots, labels))
            lift = splitting_lift(report, tid, permutation_element(roots, root_perm))
            expected = dict(unmoved)
            expected[tid] = (tuple(labels[c] for c in roots.cells), tuple(root_perm))
            assert decompose_fixing_element(report, compose(lift, kernel)) == expected


def _count_calls_beneath(monkeypatch, callers):
    """Count the calls of ``Basis.from_cells``, ``expand``, ``check_leaf``
    and ``boxes_intersect`` made while a function named in ``callers`` is
    on the stack, keyed (callee, caller).  Every module's binding of a
    function is wrapped, as the benchmark's tracer does."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            frame, on_stack = sys._getframe(1), set()
            while frame is not None:
                on_stack.add(frame.f_code.co_name)
                frame = frame.f_back
            for caller in callers & on_stack:
                counts[name, caller] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Basis, "from_cells", staticmethod(counting("from_cells", Basis.from_cells)))
    for name in ("expand", "check_leaf", "boxes_intersect"):
        original = getattr(T, name)
        wrapper = counting(name, original)
        for module in (T, E, C, Z):
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, wrapper)
    return counts


def test_engine_made_cells_are_not_revalidated(benchmark_subgroups, monkeypatch):
    callers = {"represent_on", "tuple_witness", "act", "disjointify", "from_leaves"}
    counts = _count_calls_beneath(monkeypatch, callers)
    for q, _ in benchmark_subgroups[::24]:
        spec = q.spec
        gen = q.generators[0]
        centralizer_structure(close_subgroup([gen], 64))  # a fresh report
        cells = gen.domain.cells
        t = C.ConeTuple(spec, [C.Cone.from_leaves(spec, cells[k::2]) for k in (0, 1)])
        assert C.tuple_witness(t, C.act_tuple(gen, t)) is not None
        full = C.Cone.from_leaves(spec, cells)
        C.disjointify(C.ConeTuple(spec, [full, C.Cone.from_leaves(spec, cells[:1])]))
    assert counts["from_cells", "represent_on"] == 0
    assert counts["expand", "tuple_witness"] == 0
    for callee in ("check_leaf", "boxes_intersect"):
        assert counts[callee, "act"] == counts[callee, "disjointify"] == 0
        # outside cells are still validated
        assert counts[callee, "from_leaves"] > 0

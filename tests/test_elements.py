import itertools

import pytest

from cantorv.elements import (
    CapExceededError,
    Element,
    UNKNOWN,
    apply_to_basis,
    expand_diagram,
    close_subgroup,
    compose,
    construct_from_images,
    element_to_text,
    equals,
    group_to_text,
    identity,
    invert,
    order_of,
    parse_element_text,
    parse_group_text,
    permutation_element,
    random_element,
    reduce,
    represent_on,
)
from cantorv.elements import _from_mapping, _image
from cantorv.centralizer import centralizer_structure, quotient_spec
from cantorv.terms import (
    Basis,
    Leaf,
    TermError,
    check_leaf,
    enumerate_bases,
    expand,
    expansion_script,
    find_ancestor,
    glb,
    is_admissible,
    leq,
    lub,
    root_leaf,
    split_leaf,
    transport,
)
from cantorv.terms import _push, _tree_cells

import cantorv.elements as E
from oracles import replay_trees, restart_reduce, stepwise_expansion_script

from fractions import Fraction as F


def _halves(v21):
    x = Basis.roots(v21)
    return expand(x, x.cells[0], 0)


def _sigma(v21):
    return permutation_element(_halves(v21), [1, 0])


def _x0(v21):
    """The standard infinite-order 3-leaf shift."""
    h = _halves(v21)
    left = expand(h, h.cells[0], 0)
    right = expand(h, h.cells[1], 0)
    return Element(v21, left, right, [0, 1, 2])


# -- basics -------------------------------------------------------------------

def test_identity_fixes_random_elements(v21):
    e = identity(v21)
    for seed in range(10):
        g = random_element(v21, 6, seed)
        assert equals(compose(e, g), g)
        assert equals(compose(g, e), g)


def test_sigma_has_order_two(v21):
    sigma = _sigma(v21)
    assert order_of(sigma, 10) == 2
    assert equals(compose(sigma, sigma), identity(v21))


def test_inverse_laws(v21):
    for seed in range(20):
        g = random_element(v21, 6, seed)
        assert equals(compose(g, invert(g)), identity(v21))
        assert equals(invert(invert(g)), g)
    assert equals(invert(identity(v21)), identity(v21))


def test_x0_has_unknown_order(v21):
    assert order_of(_x0(v21), 64) is UNKNOWN


def test_associativity_samples(specs):
    for spec in specs.values():
        for seed in range(8):
            f = random_element(spec, spec.roots + 5, 3 * seed)
            g = random_element(spec, spec.roots + 5, 3 * seed + 1)
            h = random_element(spec, spec.roots + 5, 3 * seed + 2)
            assert equals(compose(compose(f, g), h), compose(f, compose(g, h)))


def test_spec_mismatch_raises(v21, v31):
    with pytest.raises(TermError):
        compose(identity(v21), identity(v31))


# -- equality -----------------------------------------------------------------

def test_equality_ignores_presentation(v21):
    sigma = _sigma(v21)
    h = _halves(v21)
    refined = expand(h, h.cells[0], 0)
    blown = Element(
        v21,
        refined,
        apply_to_basis(sigma, refined),
        [
            apply_to_basis(sigma, refined).index_of(sigma.image_of_leaf(c))
            for c in refined.cells
        ],
    )
    assert equals(sigma, blown)


def test_equality_distinguishes_2v_swaps(brin2v):
    x = Basis.roots(brin2v)
    v_split = expand(x, x.cells[0], 0)
    h_split = expand(x, x.cells[0], 1)
    swap_v = permutation_element(v_split, [1, 0])
    swap_h = permutation_element(h_split, [1, 0])
    assert not equals(swap_v, swap_h)


def test_equality_is_congruence(v21):
    for seed in range(10):
        g = random_element(v21, 5, seed)
        h = random_element(v21, 5, seed + 100)
        k = random_element(v21, 5, seed + 200)
        if equals(g, h):
            assert equals(compose(g, k), compose(h, k))
    g = random_element(v21, 5, 7)
    assert equals(g, compose(identity(v21), g))


# -- reduction ----------------------------------------------------------------

def test_identity_on_fine_basis_reduces_to_roots(specs):
    from cantorv.terms import max_elementary

    for spec in specs.values():
        e = max_elementary(Basis.roots(spec))
        g = permutation_element(e, range(len(e)))
        r = reduce(g)
        assert len(r.domain) == spec.roots
        assert equals(r, identity(spec))


def test_reduce_is_fixpoint_and_preserves_value(specs):
    for spec in specs.values():
        for seed in range(12):
            g = random_element(spec, spec.roots + 5, seed)
            r = reduce(g)
            assert equals(r, g)
            assert reduce(r).key() == r.key()
            assert reduce(r) is r


def test_reduced_swap_stays_two_leaves(v21):
    sigma = _sigma(v21)
    assert len(reduce(sigma).domain) == 2


def _unreduced(monkeypatch, g, h):
    """compose(g, h) as the product diagram, before any contraction."""
    with monkeypatch.context() as m:
        m.setattr(E, "reduce", lambda x: x)
        return compose(g, h)


def test_reduce_matches_restart_reference(specs, monkeypatch):
    # the heap takes the moves the restart loop takes, and never retries a
    # rejected family; the corpus must hold a call where a family fails
    # admissibility and a later move is still accepted
    outcomes = []
    admissible = E.cells_admissible

    def spy(spec, cells):
        outcomes.append(admissible(spec, cells))
        return outcomes[-1]

    products = []
    for base in specs.values():
        for roots in (1, 2, 3, 4):
            spec = base if roots == 1 else quotient_spec(base, roots)
            for extra in (5, 11):
                for seed in range(8):
                    g = random_element(spec, spec.roots + extra, seed)
                    h = random_element(spec, spec.roots + extra, seed + 1000)
                    for a, b in [(g, h), (h, g), (g, invert(g)), (g, g)]:
                        products.append(_unreduced(monkeypatch, a, b))
    mixed = specs["mixed232"]
    case = _unreduced(monkeypatch, random_element(mixed, 9, 86), random_element(mixed, 9, 1086))
    assert len(case.domain) == 33
    products.append(case)
    retried_past = 0
    monkeypatch.setattr(E, "cells_admissible", spy)
    for p in products:
        outcomes.clear()
        r = reduce(p)
        assert r.key() == restart_reduce(p).key()
        # each candidate is one check that fails, or a domain pass then a
        # range check; two passes are an accepted move
        moves, i = [], 0
        while i < len(outcomes):
            moves.append(outcomes[i] and outcomes[i + 1])
            i += 1 + outcomes[i]
        if False in moves and True in moves[moves.index(False):]:
            retried_past += 1
    assert len(reduce(case).domain) == 29
    assert retried_past > 0


# -- permutation elements -----------------------------------------------------

def test_permutation_elements_distinct(v21):
    h = _halves(v21)
    b3 = expand(h, h.cells[0], 0)
    elems = [permutation_element(b3, p) for p in itertools.permutations(range(3))]
    assert len(elems) == 6
    for a, b in itertools.combinations(elems, 2):
        assert not equals(a, b)


def test_transposition_order_two(v21):
    h = _halves(v21)
    b3 = expand(h, h.cells[0], 0)
    t = permutation_element(b3, [0, 2, 1])
    assert order_of(t, 5) == 2


def test_permutation_size_mismatch(v21):
    with pytest.raises(TermError, match="^permutation does not match basis size$"):
        permutation_element(_halves(v21), [0, 2, 1])


@pytest.mark.parametrize("perm", [[1, 5], [1, 1], [0, -1]])
def test_permutation_entries_out_of_range_or_repeated(v21, perm):
    with pytest.raises(TermError, match=r"^permutation must list each of 0\.\.1 once$"):
        permutation_element(_halves(v21), perm)


# -- represent_on -------------------------------------------------------------

def test_represent_on_own_domain(v21):
    for seed in range(10):
        g = random_element(v21, 6, seed)
        rep = represent_on(g, g.domain)
        assert rep is not None
        rng, mapping = rep
        assert rng == g.range or equals(
            Element(v21, g.domain, rng, mapping), g
        )


def test_represent_on_sigma(v21):
    sigma = _sigma(v21)
    h = _halves(v21)
    rep = represent_on(sigma, h)
    assert rep is not None and rep[0] == h and rep[1] == (1, 0)
    assert represent_on(sigma, Basis.roots(v21)) is None


def test_represent_on_identity_any_basis(stein23):
    from cantorv.terms import enumerate_bases

    e = identity(stein23)
    for y in enumerate_bases(stein23, 4):
        rep = represent_on(e, y)
        assert rep is not None
        assert rep[0] == y and list(rep[1]) == list(range(len(y)))


def test_represent_on_respects_nontransport_twists(v21):
    # an element acting nontrivially below y admits no diagram with domain y
    h = _halves(v21)
    b3 = expand(h, h.cells[1], 0)
    twist = permutation_element(b3, [0, 2, 1])
    assert represent_on(twist, h) is None
    assert represent_on(twist, Basis.roots(v21)) is None
    rep = represent_on(twist, b3)
    assert rep is not None and rep[0] == b3


# -- automorphism extension ---------------------------------------------------

def test_construct_from_images_succeeds_iff_admissible(v21):
    h = _halves(v21)
    el = construct_from_images(v21, [Leaf(0, ((F(0), F(1)),))])
    assert equals(el, identity(v21))
    with pytest.raises(TermError):
        construct_from_images(v21, [h.cells[0]])


def test_construct_from_images_multiroot():
    from cantorv import parse_spec

    spec2 = parse_spec("roots=2; block[2]")
    x = Basis.roots(spec2)
    el = construct_from_images(spec2, [x.cells[1], x.cells[0]])
    assert order_of(el, 4) == 2


def test_construct_matches_admissibility_on_enumeration(v21):
    from cantorv.terms import enumerate_bases

    for b in enumerate_bases(v21, 1):
        for perm in itertools.permutations(b.cells):
            el = construct_from_images(v21, list(perm))
            assert el.range == b


# -- randomness ---------------------------------------------------------------

def test_random_element_deterministic(specs):
    for spec in specs.values():
        a = random_element(spec, spec.roots + 5, 99)
        b = random_element(spec, spec.roots + 5, 99)
        c = random_element(spec, spec.roots + 5, 100)
        assert a.key() == b.key()
        assert a.key() != c.key() or equals(a, c)


def test_random_element_invariants(specs):
    for spec in specs.values():
        for seed in range(25):
            g = random_element(spec, spec.roots + 6, seed)
            assert len(g.domain) == len(g.range) <= spec.roots + 6
            assert is_admissible(spec, g.domain.cells)[0]
            assert is_admissible(spec, g.range.cells)[0]
            assert sorted(g.perm) == list(range(len(g.domain)))


# -- subgroups ----------------------------------------------------------------

def test_close_subgroup_sigma(v21):
    q = close_subgroup([_sigma(v21)], 10)
    assert len(q) == 2


def test_close_subgroup_three_cycle(v31):
    x = Basis.roots(v31)
    thirds = expand(x, x.cells[0], 0)
    rho = permutation_element(thirds, [1, 2, 0])
    q = close_subgroup([rho], 10)
    assert len(q) == 3


def test_close_subgroup_symmetric(v21):
    h = _halves(v21)
    b3 = expand(h, h.cells[0], 0)
    q = close_subgroup(
        [permutation_element(b3, [1, 0, 2]), permutation_element(b3, [1, 2, 0])],
        24,
    )
    assert len(q) == 6


def test_close_subgroup_cap_exceeded(v21):
    with pytest.raises(CapExceededError):
        close_subgroup([_x0(v21)], 100)


def test_close_subgroup_refuses_infinite_order_by_round_bound(v21):
    # x0's generator-invariant basis iteration gains leaves every round,
    # so no cap on the element count is reached before the round bound
    with pytest.raises(CapExceededError, match="within 64 rounds"):
        close_subgroup([_x0(v21)], 4096)


# A permutation of a four-leaf basis conjugated by a random element, as the
# symmetry benchmark builds its subgroups.  Three of its elements share a
# domain size but differ in a leaf, which a sort on the leaves themselves
# cannot order.
FOUR_LEAF_CONJUGATE = """\
domain:
E 0 0
E 0 0
E 0 0
E 0 0
E 2 0
range:
E 0 0
E 0 0
E 0 0
E 1 0
E 1 0
perm: 5 4 3 0 2 1
"""


def test_close_subgroup_orders_elements_by_leaf_keys(v21):
    q = close_subgroup([parse_element_text(v21, FOUR_LEAF_CONJUGATE)], 64)
    keys = [
        (len(g.domain), [c.key() for c in g.domain], [c.key() for c in g.range], g.perm)
        for g in q
    ]
    assert len(q) == 4 and keys == sorted(keys)
    assert centralizer_structure(q).statement() == "C = (K[regular] x| V_2)"


def test_subgroup_closed(v21):
    q = close_subgroup([_sigma(v21)], 10)
    for a in q:
        for b in q:
            p = compose(a, b)
            assert any(equals(p, c) for c in q)
        assert any(equals(invert(a), c) for c in q)


# -- serialisation ------------------------------------------------------------

def test_element_round_trip(specs):
    for spec in specs.values():
        for seed in range(6):
            g = random_element(spec, spec.roots + 5, seed)
            text = element_to_text(g)
            assert equals(parse_element_text(spec, text), g)


def test_expansion_script_matches_stepwise_reference(specs):
    for base in specs.values():
        for spec in (base, quotient_spec(base, 2), quotient_spec(base, 3)):
            for seed in range(8):
                g = random_element(spec, spec.roots + 11, seed)
                h = random_element(spec, spec.roots + 11, seed + 100)
                gh = compose(g, h)
                for b in (g.domain, g.range, gh.domain, gh.range, lub(g.domain, h.range)):
                    assert expansion_script(b) == stepwise_expansion_script(b)


def test_element_text_is_reduced_and_stable(v21):
    g = random_element(v21, 6, 4)
    assert element_to_text(g) == element_to_text(reduce(g))
    assert element_to_text(g) == element_to_text(parse_element_text(v21, element_to_text(g)))


def test_group_round_trip(v21):
    q = close_subgroup([_sigma(v21)], 10)
    text = group_to_text(q)
    q2 = parse_group_text(v21, text)
    assert len(q2) == len(q)


# -- actions on bases ---------------------------------------------------------

def test_apply_to_basis_respects_order(v21):
    sigma = _sigma(v21)
    h = _halves(v21)
    fine = expand(h, h.cells[0], 0)
    image = apply_to_basis(sigma, fine)
    assert len(image) == len(fine)
    assert leq(_halves(v21), image)


def test_apply_requires_refinement(v21):
    sigma = _sigma(v21)
    with pytest.raises(TermError):
        apply_to_basis(sigma, Basis.roots(v21))


def test_apply_rejects_a_cuboid_refinement_that_is_no_expansion(stein23):
    # the overlay of halves and thirds refines the halves cell by cell, but
    # no splitting moves reach it from them
    x = Basis.roots(stein23)
    h = expand(x, x.cells[0], 0)
    overlay = Basis.from_cells(stein23, [
        Leaf(0, ((F(0), F(1, 3)),)),
        Leaf(0, ((F(1, 3), F(1, 2)),)),
        Leaf(0, ((F(1, 2), F(2, 3)),)),
        Leaf(0, ((F(2, 3), F(1)),)),
    ])
    swap = permutation_element(h, [1, 0])
    with pytest.raises(TermError, match="does not refine"):
        apply_to_basis(swap, overlay)


def test_image_of_leaf_transport(v21):
    sigma = _sigma(v21)
    h = _halves(v21)
    quarter = Leaf(0, ((F(0), F(1, 4)),))
    assert sigma.image_of_leaf(quarter) == Leaf(0, ((F(1, 2), F(3, 4)),))


# -- images of bases by clip-and-graft ----------------------------------------

def _assert_trees_replay(b):
    cells = replay_trees(b)
    assert len(cells) == len(b) and set(cells) == b.cellset()


def _leafwise_compose(g, h):
    """Reference product: every cell of the common refinement mapped leaf
    by leaf through both factors, the bases certified from the cells."""
    mid = lub(h.range, g.domain)
    h_inv = invert(h)
    return reduce(_from_mapping(g.spec, {h_inv.image_of_leaf(c): g.image_of_leaf(c) for c in mid.cells}))


def test_images_carry_trees_that_replay(specs):
    for spec in specs.values():
        for seed in range(6):
            g = random_element(spec, spec.roots + 5, seed)
            h = random_element(spec, spec.roots + 5, seed + 100)
            product = compose(g, h)
            assert product.key() == _leafwise_compose(g, h).key()
            _assert_trees_replay(product.domain)
            _assert_trees_replay(product.range)
            mid = lub(h.range, g.domain)
            image, to_image = _image(g, mid)
            _assert_trees_replay(image)
            assert set(to_image) == mid.cellset()
            assert all(to_image[c] == g.image_of_leaf(c) for c in mid.cells)
            applied = apply_to_basis(g, mid)
            _assert_trees_replay(applied)
            assert applied == image
            rewritten = expand_diagram(g, mid)
            _assert_trees_replay(rewritten.range)
            assert rewritten.domain == mid and equals(rewritten, g)


def _cuboid_clip(spec, cuboid, path, tree, out):
    """Map each leaf cell of ``path``, a tree of ``cuboid``, to the part of
    ``tree`` below it, pushing the path's colours into ``tree``."""
    if path[0] == "leaf":
        out[cuboid] = tree
        return
    color = path[1]
    tree = _push(spec, tree, color)
    for part, p, t in zip(split_leaf(spec, cuboid, color), path[2], tree[2]):
        _cuboid_clip(spec, part, p, t, out)


def _cuboid_graft(spec, cuboid, tree, subs):
    """``tree`` of ``cuboid`` with the leaf at each cell of ``subs`` replaced
    by that cell's subtree."""
    if tree[0] == "leaf":
        return subs.get(cuboid, tree)
    color = tree[1]
    return ("split", color, tuple(
        _cuboid_graft(spec, part, sub, subs)
        for part, sub in zip(split_leaf(spec, cuboid, color), tree[2])
    ))


def _cuboid_image(g, b):
    """Reference ``_image``: clip and graft keyed by the cells they reach,
    splitting every cuboid on the way."""
    spec = g.spec
    clipped = {}
    for r in range(spec.roots):
        _cuboid_clip(spec, root_leaf(spec, r), g.domain.trees[r], b.trees[r], clipped)
    subs, cells = {}, {}
    for leaf, p in zip(g.domain.cells, g.perm):
        target = g.range.cells[p]
        subs[target] = sub = clipped[leaf]
        before, after = [], []
        _tree_cells(spec, leaf, sub, before)
        _tree_cells(spec, target, sub, after)
        cells.update(zip(before, after))
    if len(cells) != len(b):
        raise TermError("basis does not refine the element's domain")
    trees = {r: _cuboid_graft(spec, root_leaf(spec, r), g.range.trees[r], subs)
             for r in range(spec.roots)}
    ordered = []
    for r in range(spec.roots):
        _tree_cells(spec, root_leaf(spec, r), trees[r], ordered)
    return Basis(spec, ordered, trees=trees), cells


def _cuboid_compose(g, h):
    """Reference product: the lub of h's range and g's domain carried by
    h^-1 and g through the cuboid-keyed clip and graft."""
    mid = lub(h.range, g.domain)
    dom, to_dom = _cuboid_image(invert(h), mid)
    rng, to_rng = _cuboid_image(g, mid)
    pairs = {to_dom[c]: to_rng[c] for c in mid.cells}
    return reduce(Element(g.spec, dom, rng, [rng.index_of(pairs[c]) for c in dom.cells]))


@pytest.mark.parametrize("roots", [1, 2, 3, 4])
def test_compose_matches_cuboid_reference(specs, roots):
    # over r roots, leaf positions run across the roots' trees
    for name, base in specs.items():
        spec = base if roots == 1 else quotient_spec(base, roots)
        for seed in range(12):
            size = spec.roots + (5 if seed % 2 else 8)
            g = random_element(spec, size, seed)
            h = random_element(spec, size, seed + 100)
            gh = compose(g, h)
            # products carry merged, labelled trees into the next product
            for a, b in [(g, h), (h, g), (g, invert(g)), (gh, h), (g, gh), (gh, gh)]:
                assert compose(a, b).key() == _cuboid_compose(a, b).key(), (name, roots, seed)


def _assert_leaf_order(b):
    cells = []
    for r in range(b.spec.roots):
        _tree_cells(b.spec, root_leaf(b.spec, r), b.trees[r], cells)
    assert [b.cells[i] for i in b.leaf_order] == cells
    assert sorted(b.leaf_order) == list(range(len(b)))


def test_leaf_order_follows_the_trees_of_every_constructor(specs):
    for name, base in specs.items():
        for spec in (base, quotient_spec(base, 3)):
            roots = Basis.roots(spec)
            bases = [roots, Basis.from_cells(spec, roots.cells)]
            bases += enumerate_bases(spec, spec.roots + 3)
            for seed in range(4):
                g = random_element(spec, spec.roots + 5, seed)
                h = random_element(spec, spec.roots + 5, seed + 100)
                leaf = g.domain.cells[seed % len(g.domain)]
                finer = expand(g.domain, leaf, seed % spec.num_colors)
                mid = lub(h.range, g.domain)
                product = compose(g, h)
                bases += [g.domain, g.range, finer, mid, _image(g, mid)[0], _image(g, finer)[0],
                          product.domain, product.range,
                          reduce(expand_diagram(g, finer)).range,
                          Basis.from_cells(spec, finer.cells),
                          glb(g.domain, h.range), glb(mid, finer)]
            for b in bases:
                _assert_leaf_order(b)


def test_image_requires_a_refinement_of_the_domain(v21, brin2v):
    with pytest.raises(TermError):
        _image(_sigma(v21), Basis.roots(v21))
    x = Basis.roots(brin2v)
    swap = permutation_element(expand(x, x.cells[0], 0), [1, 0])
    with pytest.raises(TermError):
        _image(swap, expand(x, x.cells[0], 1))
    with pytest.raises(TermError):
        expand_diagram(swap, expand(x, x.cells[0], 1))


# -- leafwise references for the callers of the image map ---------------------

def _leafwise_equals(g, h):
    """Reference ``equals``: every cell of the common refined domain mapped
    leaf by leaf through both elements."""
    common = lub(g.domain, h.domain)
    return all(g.image_of_leaf(c) == h.image_of_leaf(c) for c in common.cells)


def _leafwise_represent_on(g, y):
    """Reference ``represent_on``: the images of the cells below each
    y-leaf taken leaf by leaf, the range certified from its cells."""
    mid = lub(g.domain, y)
    under = {cell: [] for cell in y.cells}
    for c in mid.cells:
        under[find_ancestor(y, c)].append(c)
    targets = []
    for cell, below in under.items():
        target = transport(below[0], g.image_of_leaf(below[0]), cell)
        try:
            check_leaf(g.spec, target)
        except TermError:
            return None
        if any(g.image_of_leaf(c) != transport(cell, target, c) for c in below):
            return None
        targets.append(target)
    try:
        rng = Basis.from_cells(g.spec, targets)
    except TermError:
        return None
    return rng, tuple(rng.index_of(t) for t in targets)


def test_equals_matches_leafwise_reference(specs):
    outcomes = []
    for spec in specs.values():
        for seed in range(8):
            g = random_element(spec, spec.roots + 5, seed)
            h = random_element(spec, spec.roots + 5, seed + 100)
            leaf = g.domain.cells[seed % len(g.domain)]
            finer = expand_diagram(g, expand(g.domain, leaf, seed % spec.num_colors))
            # same bases, another bijection: equal off two leaves at most
            turned = Element(spec, g.domain, g.range, g.perm[1:] + g.perm[:1])
            pairs = [(g, h), (finer, g), (finer, h), (turned, g), (turned, finer),
                     (compose(g, h), compose(finer, h)), (compose(g, invert(g)), identity(spec))]
            for a, b in pairs:
                outcomes.append(equals(a, b))
                assert outcomes[-1] == _leafwise_equals(a, b)
    assert True in outcomes and False in outcomes


def test_represent_on_matches_leafwise_reference(specs):
    outcomes = []
    for spec in specs.values():
        ys = enumerate_bases(spec, spec.roots + 3)
        for seed in range(6):
            g = random_element(spec, spec.roots + 4, seed)
            for y in ys + [g.domain, g.range, lub(g.domain, g.range)]:
                rep = represent_on(g, y)
                outcomes.append(rep is None)
                assert rep == _leafwise_represent_on(g, y)
    assert True in outcomes and False in outcomes

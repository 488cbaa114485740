import itertools
import random
import time
from fractions import Fraction as F

import pytest

from cantorv import terms
from cantorv.algebra import parse_spec
from cantorv.centralizer import quotient_spec
from cantorv.elements import random_element
from cantorv.terms import (
    Basis,
    Leaf,
    ResourceCapError,
    TermError,
    basis_to_text,
    canonical_order,
    cells_admissible,
    check_leaf,
    contract,
    elementary_core,
    elementary_leq,
    enumerate_bases,
    expand,
    expansion_script,
    glb,
    is_admissible,
    leaf_to_text,
    leq,
    lower_closure,
    lub,
    max_elementary,
    parent_of_family,
    parse_basis_text,
    parse_leaf,
    relative_exponents,
    replay_script,
    root_leaf,
    sibling_families,
    split_leaf,
    transport,
    very_elementary_leq,
)
from cantorv.terms import SORT_SCALE, _admissible_pattern, _parent, _split_assignment

from conftest import SPEC_SOURCES
from oracles import (
    certified_enumerate,
    enumerate_partitions,
    reachable_cellsets,
    reachable_from,
    replay_trees,
    search_glb,
)


def _expand_all(basis, color):
    for cell in list(basis.cells):
        basis = expand(basis, cell, color)
    return basis


def halves(v21):
    x = Basis.roots(v21)
    return expand(x, x.cells[0], 0)


# -- expand / contract ------------------------------------------------------

def test_expand_splits_into_halves(v21):
    x = Basis.roots(v21)
    b = expand(x, x.cells[0], 0)
    assert [c.intervals[0] for c in b.cells] == [
        (F(0), F(1, 2)),
        (F(1, 2), F(1)),
    ]


def test_contract_inverts_expand(v21):
    x = Basis.roots(v21)
    b = expand(x, x.cells[0], 0)
    assert contract(b, b.cells, 0) == x


def test_expand_contract_round_trip_all_specs(specs):
    for spec in specs.values():
        x = Basis.roots(spec)
        for color in range(spec.num_colors):
            b = expand(x, x.cells[0], color)
            assert contract(b, b.cells, color) == x
            assert expand(x, x.cells[0], color) == b


def test_contract_thirds(v31):
    x = Basis.roots(v31)
    b = expand(x, x.cells[0], 0)
    assert len(b) == 3
    assert contract(b, b.cells, 0) == x


def test_contract_partial_family_in_2v(brin2v):
    x = Basis.roots(brin2v)
    grid = _expand_all(expand(x, x.cells[0], 0), 1)
    fam = [c for c in grid.cells if c.intervals[0] == (F(0), F(1, 2))]
    merged = contract(grid, fam, 1)
    assert len(merged) == 3


@pytest.mark.parametrize("color", [99, -1])
def test_contract_rejects_a_colour_out_of_range(v21, color):
    b = halves(v21)
    with pytest.raises(TermError, match=f"^invalid colour {color}$"):
        contract(b, b.cells, color)


def test_contract_rejects_non_family(v21):
    x = Basis.roots(v21)
    b = expand(x, x.cells[0], 0)
    b = expand(b, b.cells[0], 0)
    with pytest.raises(TermError):
        contract(b, [b.cells[0], b.cells[2]], 0)


def test_contract_rejects_repeated_leaf(v21):
    h = halves(v21)
    with pytest.raises(TermError, match="repeated leaf"):
        contract(h, [h.cells[0], h.cells[1], h.cells[1]], 0)


def test_expand_rejects_foreign_leaf(v21, v31):
    x21 = Basis.roots(v21)
    with pytest.raises(TermError):
        expand(x21, root_leaf(v31, 0), 1)


# -- identification golden tests ---------------------------------------------

def test_stein_identification_gives_sixths(stein23):
    x = Basis.roots(stein23)
    ht = _expand_all(expand(x, x.cells[0], 0), 1)
    th = _expand_all(expand(x, x.cells[0], 1), 0)
    assert ht == th
    assert len(ht) == 6
    assert [c.intervals[0][0] for c in ht.cells] == [F(k, 6) for k in range(6)]


def test_brin_identification_gives_grid(brin2v):
    x = Basis.roots(brin2v)
    a = _expand_all(expand(x, x.cells[0], 0), 1)
    b = _expand_all(expand(x, x.cells[0], 1), 0)
    assert a == b
    assert len(a) == 4


# -- admissibility ----------------------------------------------------------

def test_root_basis_is_admissible(specs):
    for spec in specs.values():
        cells = [root_leaf(spec, r) for r in range(spec.roots)]
        ok, cert = is_admissible(spec, cells)
        assert ok and set(cert) == set(range(spec.roots))


def test_grid_is_admissible(brin2v):
    x = Basis.roots(brin2v)
    grid = _expand_all(expand(x, x.cells[0], 0), 1)
    ok, _ = is_admissible(brin2v, grid.cells)
    assert ok


def test_known_inadmissible_witness(stein23):
    witness = [
        Leaf(0, ((F(0), F(1, 2)),)),
        Leaf(0, ((F(1, 2), F(2, 3)),)),
        Leaf(0, ((F(2, 3), F(1)),)),
    ]
    ok, cert = is_admissible(stein23, witness)
    assert not ok and cert is None


def test_non_partition_is_error_not_false(v21):
    with pytest.raises(TermError):
        is_admissible(v21, [Leaf(0, ((F(0), F(1, 2)),))])


def test_uncovered_cuboid_is_not_admissible(v21):
    # a cell group that leaves part of its cuboid uncovered is no pattern
    left = halves(v21).cells[0]
    assert not cells_admissible(v21, [left])
    two = parse_spec("roots=2; block[2]")
    x = Basis.roots(two)
    root0 = [c for c in expand(x, x.cells[0], 0).cells if c.root == 0]
    assert not cells_admissible(two, root0)
    with pytest.raises(TermError):
        Basis.from_cells_trusted(two, root0)
    with pytest.raises(TermError):
        Basis.from_cells_trusted(two, [root_leaf(two, 0)])


def test_malformed_leaf_is_error(stein23):
    with pytest.raises(TermError):
        is_admissible(stein23, [Leaf(0, ((F(0), F(2, 3)),)), Leaf(0, ((F(2, 3), F(1)),))])


def test_certificate_replays(stein23):
    x = Basis.roots(stein23)
    b = _expand_all(expand(x, x.cells[0], 1), 0)
    script = expansion_script(b)
    assert replay_script(stein23, script) == b


@pytest.mark.parametrize("name", ["v21", "stein23"])
def test_checker_agrees_with_bfs_oracle_size4(specs, name):
    spec = specs[name]
    admissible = reachable_cellsets(spec, 4)
    for candidate in enumerate_partitions(spec, 4):
        assert is_admissible(spec, candidate)[0] == (candidate in admissible)


# -- the expansion order ----------------------------------------------------

def test_roots_below_everything(specs):
    for spec in specs.values():
        x = Basis.roots(spec)
        for b in enumerate_bases(spec, spec.roots + 3):
            assert leq(x, b)


def test_incomparable_splits_in_2v(brin2v):
    x = Basis.roots(brin2v)
    vsplit = expand(x, x.cells[0], 0)
    hsplit = expand(x, x.cells[0], 1)
    assert not leq(vsplit, hsplit)
    assert not leq(hsplit, vsplit)


@pytest.mark.parametrize("name", ["v21", "stein23", "2v"])
def test_leq_matches_reachability_oracle(specs, name):
    spec = specs[name]
    bases = enumerate_bases(spec, 5)
    for a in bases:
        reach = reachable_from(a, 5)
        for b in bases:
            assert leq(a, b) == (b.cellset() in reach)


def test_refinement_without_reachability_is_not_leq(stein23):
    # the 4-cell overlay of halves and thirds refines the halves cell-wise
    # but is not an expansion of it
    x = Basis.roots(stein23)
    h = expand(x, x.cells[0], 0)
    overlay = Basis.from_cells(
        stein23,
        [
            Leaf(0, ((F(0), F(1, 3)),)),
            Leaf(0, ((F(1, 3), F(1, 2)),)),
            Leaf(0, ((F(1, 2), F(2, 3)),)),
            Leaf(0, ((F(2, 3), F(1)),)),
        ],
    )
    assert all(
        any(
            oc.intervals[0][0] >= hc.intervals[0][0]
            and oc.intervals[0][1] <= hc.intervals[0][1]
            for hc in h.cells
        )
        for oc in overlay.cells
    )
    assert not leq(h, overlay)


# -- lub / glb ---------------------------------------------------------------

def test_lub_of_halves_and_thirds_is_sixths(stein23):
    x = Basis.roots(stein23)
    h = expand(x, x.cells[0], 0)
    t = expand(x, x.cells[0], 1)
    join = lub(h, t)
    assert len(join) == 6
    assert [c.intervals[0][0] for c in join.cells] == [F(k, 6) for k in range(6)]


def test_lub_of_transverse_splits_is_grid(brin2v):
    x = Basis.roots(brin2v)
    vsplit = expand(x, x.cells[0], 0)
    hsplit = expand(x, x.cells[0], 1)
    grid = _expand_all(expand(x, x.cells[0], 0), 1)
    assert lub(vsplit, hsplit) == grid


def test_lub_idempotent(specs):
    for spec in specs.values():
        x = Basis.roots(spec)
        b = expand(x, x.cells[0], 0)
        assert lub(b, b) == b


@pytest.mark.parametrize("name", ["v21", "v31", "stein23", "2v"])
def test_lattice_laws_on_enumerated_poset(specs, name):
    spec = specs[name]
    bases = enumerate_bases(spec, 4)
    for a, b in itertools.combinations(bases, 2):
        j = lub(a, b)
        assert leq(a, j) and leq(b, j)
        for c in bases:
            if leq(a, c) and leq(b, c):
                assert leq(j, c)
        assert lub(b, a) == j
        m = glb(a, b)
        assert leq(m, a) and leq(m, b)
        for c in bases:
            if leq(c, a) and leq(c, b):
                assert leq(c, m)


def test_lub_associative_samples(stein23):
    bases = enumerate_bases(stein23, 4)
    for a, b, c in itertools.islice(itertools.combinations(bases, 3), 60):
        assert lub(lub(a, b), c) == lub(a, lub(b, c))


def test_glb_of_halves_and_thirds_is_root(stein23):
    x = Basis.roots(stein23)
    h = expand(x, x.cells[0], 0)
    t = expand(x, x.cells[0], 1)
    assert glb(h, t) == x


def test_glb_idempotent(v21):
    b = halves(v21)
    assert glb(b, b) == b


def _with_quotients(spec):
    """The spec on 1 root and its quotient specs on 2 and 3 roots."""
    return (spec, quotient_spec(spec, 2), quotient_spec(spec, 3))


def _assert_meets_match_search(a, b):
    """``glb`` and, for comparable pairs, ``elementary_core`` against the
    contraction-search reference."""
    meet = glb(a, b)
    assert meet == search_glb(a, b)
    for lo, hi in ((a, b), (b, a)):
        if meet == lo != hi:  # lo < hi
            assert elementary_core(lo, hi) == search_glb(max_elementary(lo), hi)


@pytest.mark.parametrize("name", list(SPEC_SOURCES))
def test_glb_matches_search_reference_on_windows(specs, name):
    for spec in _with_quotients(specs[name]):
        for a, b in itertools.combinations(enumerate_bases(spec, 5), 2):
            _assert_meets_match_search(a, b)


def _random_expansion(b, steps, rng):
    for _ in range(steps):
        b = expand(b, rng.choice(b.cells), rng.randrange(b.spec.num_colors))
    return b


def test_glb_matches_search_reference_below_a_shared_prefix(specs):
    # two random expansions of one random basis, past the size-5 window
    rng = random.Random(18)
    for spec in (q for base in specs.values() for q in _with_quotients(base)):
        for _ in range(10):
            prefix = _random_expansion(Basis.roots(spec), 2, rng)
            a = _random_expansion(prefix, 3, rng)
            b = _random_expansion(prefix, 3, rng)
            _assert_meets_match_search(a, b)
            _assert_meets_match_search(prefix, a)


def _balanced(spec, depth):
    b = Basis.roots(spec)
    for _ in range(depth):
        b = _expand_all(b, 0)
    return b


def test_glb_of_deep_bases_searches_no_lower_closure(v21, monkeypatch):
    # the lower closure of these bases is far too large to list: fail at
    # once if glb starts to list it
    def no_search(*args, **kwargs):
        raise AssertionError("glb listed a lower closure")

    monkeypatch.setattr(terms, "lower_closure", no_search)
    start = time.perf_counter()
    for depth in (5, 8):
        x = _balanced(v21, depth)
        first = expand(x, x.cells[0], 0)
        last = expand(x, x.cells[-1], 0)
        assert glb(first, last) == x
    x = _balanced(v21, 5)
    both = expand(expand(x, x.cells[0], 0), x.cells[-1], 0)
    assert elementary_core(x, both) == both
    assert time.perf_counter() - start < 10.0


# -- carried split trees and the tree-merge lub ------------------------------

def _first_colors(spec, cuboid, cells):
    """Colours that can open a derivation of ``cells`` from ``cuboid``,
    each mapped to its parts and the cells inside each part."""
    out = {}
    for color in range(spec.num_colors):
        split = _split_assignment(spec, cuboid, cells, color)
        if split is None:
            continue
        parts, subs = split[0], [frozenset(sub) for sub in split[1]]
        if all(_admissible_pattern(spec, p, sub) is not None for p, sub in zip(parts, subs)):
            out[color] = (parts, subs)
    return out


def _lub_pattern(spec, cuboid, A, B):
    """Set-based reference lub of two admissible patterns of one cuboid:
    recurse into a common opening colour, else refine both through the
    double split by the two opening colours."""
    single = frozenset((cuboid,))
    if A == single:
        return B
    if B == single:
        return A
    fsa = _first_colors(spec, cuboid, A)
    fsb = _first_colors(spec, cuboid, B)
    assert fsa and fsb
    common = fsa.keys() & fsb.keys()
    if common:
        color = min(common)
        (parts, subs_a), (_, subs_b) = fsa[color], fsb[color]
        out = set()
        for part, sub_a, sub_b in zip(parts, subs_a, subs_b):
            out |= _lub_pattern(spec, part, sub_a, sub_b)
        return frozenset(out)
    i, j = min(fsa), min(fsb)
    grid = frozenset(q for p in split_leaf(spec, cuboid, i) for q in split_leaf(spec, p, j))
    parts, subs_a = _split_assignment(spec, cuboid, _lub_pattern(spec, cuboid, A, grid), i)
    _, subs_b = _split_assignment(spec, cuboid, _lub_pattern(spec, cuboid, B, grid), i)
    out = set()
    for part, sub_a, sub_b in zip(parts, subs_a, subs_b):
        kids, in_a = _split_assignment(spec, part, sub_a, j)
        _, in_b = _split_assignment(spec, part, sub_b, j)
        for kid, kid_a, kid_b in zip(kids, in_a, in_b):
            out |= _lub_pattern(spec, kid, frozenset(kid_a), frozenset(kid_b))
    return frozenset(out)


def _reference_lub(a, b):
    spec = a.spec
    cells = set()
    for r in range(spec.roots):
        ra = frozenset(c for c in a.cells if c.root == r)
        rb = frozenset(c for c in b.cells if c.root == r)
        cells |= _lub_pattern(spec, root_leaf(spec, r), ra, rb)
    return cells


def _assert_trees_replay(b):
    cells = replay_trees(b)
    assert len(cells) == len(b) and set(cells) == b.cellset()


def _random_basis(spec, rng, splits):
    basis = Basis.roots(spec)
    for _ in range(splits):
        basis = expand(basis, basis.cells[rng.randrange(len(basis))], rng.randrange(spec.num_colors))
    return basis


@pytest.mark.parametrize(
    "name", ["v21", "v31", "2v", "stein23", "brin23", "mixed232", "two_roots"]
)
def test_tree_merge_lub_matches_set_based_reference(specs, name):
    import random as _random

    spec = parse_spec("roots=2; block[2,3]") if name == "two_roots" else specs[name]
    rng = _random.Random(name)
    for k in range(64):
        a = _random_basis(spec, rng, rng.randrange(7))
        b = _random_basis(spec, rng, rng.randrange(7))
        if k % 3 == 0:
            # canonical trees, as bases built from bare cells carry
            a = Basis.from_cells_trusted(spec, a.cells)
        join = lub(a, b)
        assert join.cellset() == _reference_lub(a, b)
        assert lub(b, a) == join
        for x in (a, b, join):
            _assert_trees_replay(x)
        assert replay_script(spec, expansion_script(join)) == join


def test_carried_tree_differs_from_certificate_on_2v_grid(brin2v):
    x = Basis.roots(brin2v)
    grid = _expand_all(expand(x, x.cells[0], 1), 0)
    assert len(grid) == 4
    assert grid.trees[0][:2] == ("split", 1)
    assert grid.certificate[0][:2] == ("split", 0)
    _assert_trees_replay(grid)
    assert expansion_script(grid) == [(0, 0), (0, 1), (2, 1)]
    assert expansion_script(grid) == expansion_script(Basis.from_cells(brin2v, grid.cells))


def test_split_assignment_rejects_a_cell_across_a_child_boundary(v21, stein23):
    root = root_leaf(v21, 0)
    middle = Leaf(0, ((F(1, 4), F(3, 4)),))
    assert _split_assignment(v21, root, [middle], 0) is None
    # [1/3, 2/3) starts in the first half of [0, 1) and ends in the second
    third = split_leaf(stein23, root_leaf(stein23, 0), 1)[1]
    assert _split_assignment(stein23, root_leaf(stein23, 0), [third], 0) is None
    parts, assignment = _split_assignment(
        stein23, root_leaf(stein23, 0), split_leaf(stein23, root_leaf(stein23, 0), 1), 1
    )
    assert [len(cells) for cells in assignment] == [1, 1, 1]


class _PeakDict(dict):
    """A memo that records the most entries it ever held."""

    peak = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))


def _window_with_pattern_memo():
    spec = parse_spec("roots=1; block[2,3]; block[2]")
    memo = spec._caches["patterns"] = _PeakDict()
    bases = enumerate_bases(spec, 6)
    return [(b.cells, b.certificate) for b in bases], memo


def test_pattern_memo_is_cleared_at_its_bound(monkeypatch):
    import cantorv.terms as terms

    full, memo = _window_with_pattern_memo()
    assert memo.peak > 16
    monkeypatch.setattr(terms, "PATTERN_CACHE_LIMIT", 16)
    bounded, memo = _window_with_pattern_memo()
    assert bounded == full
    assert 0 < memo.peak <= 16


def _expand_replay(spec, script):
    """``replay_script`` as one ``expand`` per step."""
    basis = Basis.roots(spec)
    for idx, color in script:
        if not 0 <= idx < len(basis):
            raise TermError(f"script index {idx} out of range")
        basis = expand(basis, basis.cells[idx], color)
    return basis


def _random_script(spec, rng, steps):
    script, size = [], spec.roots
    for _ in range(steps):
        color = rng.randrange(spec.num_colors)
        script.append((rng.randrange(size), color))
        size += spec.arity(color) - 1
    return script


@pytest.mark.parametrize(
    "name", ["v21", "v31", "2v", "stein23", "brin23", "mixed232", "two_roots"]
)
def test_replay_script_matches_expand_by_expand(specs, name):
    import random as _random

    spec = parse_spec("roots=2; block[2,3]") if name == "two_roots" else specs[name]
    rng = _random.Random(name)
    for _ in range(48):
        script = _random_script(spec, rng, rng.randrange(9))
        got, want = replay_script(spec, script), _expand_replay(spec, script)
        assert got.cells == want.cells
        assert got.trees == want.trees
        assert [got.cells[i] for i in got.leaf_order] == [want.cells[i] for i in want.leaf_order]
        assert expansion_script(got) == expansion_script(want)


def test_replay_script_errors_fire_at_the_same_step(stein23):
    # one split by colour 1 (thirds) leaves indices 0..2; index 3 is out of range
    bad_index = [(0, 1), (3, 0), (0, 7)]
    bad_color = [(0, 1), (2, 7), (9, 0)]
    for script, message in [(bad_index, "script index 3 out of range"),
                            (bad_color, "invalid colour 7")]:
        for replay in (replay_script, _expand_replay):
            with pytest.raises(TermError, match=message):
                replay(stein23, script)
    with pytest.raises(TermError, match="script index -1 out of range"):
        replay_script(stein23, [(-1, 0)])
    with pytest.raises(TermError, match="invalid colour -1"):
        replay_script(stein23, [(0, -1)])


def test_split_parent_and_root_are_shared_objects():
    spec = parse_spec("roots=2; block[2,3]; block[2]")
    root = root_leaf(spec, 1)
    assert root_leaf(spec, 1) is root
    kids = split_leaf(spec, root, 1)
    assert split_leaf(spec, root, 1) is kids
    # an equal leaf built anew meets the same children
    twin = Leaf(1, ((F(0), F(1)), (F(0), F(1))))
    assert twin is not root and split_leaf(spec, twin, 1) is kids
    for kid in kids:
        assert terms._parent(spec, kid, 1) == root
        assert terms._parent(spec, kid, 1) is terms._parent(spec, kid, 1)
    grand = split_leaf(spec, kids[2], 2)[1]
    fresh = Leaf(grand.root, grand.intervals)
    assert terms._parent(spec, fresh, 2) is terms._parent(spec, grand, 2) == kids[2]
    # a root has no parent, and the answer is kept
    assert terms._parent(spec, root, 0) is None
    assert (root, 0) in spec.cache("parents")


def _window_with_leaf_memos():
    spec = parse_spec("roots=1; block[2,3]; block[2]")
    memos = [spec._caches.setdefault(name, _PeakDict()) for name in ("splits", "parents")]
    bases = enumerate_bases(spec, 6)
    out = [(b.cells, b.trees, b.leaf_order, sibling_families(spec, b.cells)) for b in bases]
    return out, memos


def test_leaf_memos_are_cleared_at_their_bound(monkeypatch):
    full, memos = _window_with_leaf_memos()
    assert all(memo.peak > 16 for memo in memos)
    monkeypatch.setattr(terms, "LEAF_CACHE_LIMIT", 16)
    bounded, memos = _window_with_leaf_memos()
    assert bounded == full
    assert all(0 < memo.peak <= 16 for memo in memos)


# -- elementary structure ----------------------------------------------------

def test_two_level_tree_not_elementary(v21):
    x = Basis.roots(v21)
    four = _expand_all(expand(x, x.cells[0], 0), 0)
    assert not elementary_leq(x, four)


def test_grid_is_elementary_from_root(brin2v):
    x = Basis.roots(brin2v)
    grid = _expand_all(expand(x, x.cells[0], 0), 1)
    assert elementary_leq(x, grid)
    assert not very_elementary_leq(x, grid)


def test_reflexive_elementary(v21):
    b = halves(v21)
    assert elementary_leq(b, b)
    assert very_elementary_leq(b, b)


def test_simple_expansion_is_very_elementary(specs):
    for spec in specs.values():
        x = Basis.roots(spec)
        for color in range(spec.num_colors):
            b = expand(x, x.cells[0], color)
            assert very_elementary_leq(x, b)


def test_elementary_incomparable_raises(brin2v):
    x = Basis.roots(brin2v)
    vsplit = expand(x, x.cells[0], 0)
    hsplit = expand(x, x.cells[0], 1)
    with pytest.raises(TermError):
        elementary_leq(vsplit, hsplit)


def test_sandwich_stability(stein23):
    x = Basis.roots(stein23)
    e = max_elementary(x)
    for mid in enumerate_bases(stein23, len(e)):
        if leq(mid, e) and leq(x, mid):
            assert elementary_leq(x, mid)
            assert elementary_leq(mid, e)


def test_max_elementary_sizes(specs):
    import math

    for spec in specs.values():
        x = Basis.roots(spec)
        prod = math.prod(spec.arity(c) for c in range(spec.num_colors))
        e = max_elementary(x)
        assert len(e) == spec.roots * prod
        assert elementary_leq(x, e)
        b = expand(x, x.cells[0], 0)
        assert len(max_elementary(b)) == len(b) * prod


def test_max_elementary_carries_valid_trees(specs):
    # reference: every leaf split by each colour in turn, certified from
    # the bare cells
    for base in specs.values():
        for spec in (base, quotient_spec(base, 2)):
            bases = enumerate_bases(spec, spec.roots + 3)
            bases += [random_element(spec, spec.roots + 6, seed).domain for seed in range(3)]
            for b in bases:
                cells = list(b.cells)
                for color in range(spec.num_colors):
                    cells = [child for c in cells for child in split_leaf(spec, c, color)]
                e = max_elementary(b)
                assert e == Basis.from_cells(spec, cells)
                assert replay_trees(e) == [e.cells[i] for i in e.leaf_order]
                assert sorted(e.leaf_order) == list(range(len(e)))


def test_max_elementary_dominates_elementary_descendants(stein23):
    x = Basis.roots(stein23)
    e = max_elementary(x)
    for b in enumerate_bases(stein23, 6):
        if elementary_leq(x, b):
            assert leq(b, e)


def test_elementary_core_simple_cases(v21):
    x = Basis.roots(v21)
    e = max_elementary(x)
    assert elementary_core(x, e) == e
    staircase = expand(halves(v21), halves(v21).cells[0], 0)
    assert elementary_core(x, staircase) == halves(v21)


def test_elementary_core_matches_bruteforce(stein23):
    x = Basis.roots(stein23)
    bases = enumerate_bases(stein23, 6)
    for b in bases:
        if b == x or not leq(x, b):
            continue
        core = elementary_core(x, b)
        best = [c for c in bases if leq(c, b) and elementary_leq(x, c)]
        assert core in best
        for c in best:
            assert leq(c, core)


def test_elementary_core_requires_strict_order(v21):
    x = Basis.roots(v21)
    with pytest.raises(TermError):
        elementary_core(x, x)


# -- enumeration -------------------------------------------------------------

def test_enumeration_counts_v21(v21):
    sizes = [len(b) for b in enumerate_bases(v21, 3)]
    assert sorted(sizes) == [1, 2, 3, 3]


def test_enumeration_counts_2v(brin2v):
    bases = enumerate_bases(brin2v, 2)
    assert sum(1 for b in bases if len(b) == 2) == 2


def test_enumeration_respects_mod_d(specs):
    for spec in specs.values():
        d = spec.d
        for b in enumerate_bases(spec, spec.roots + 4):
            assert (len(b) - spec.roots) % d == 0


def test_enumeration_deduplicates(stein23):
    bases = enumerate_bases(stein23, 6)
    assert len({b.cellset() for b in bases}) == len(bases)


def test_lower_closure_contains_interval(v21):
    x = Basis.roots(v21)
    four = _expand_all(halves(v21), 0)
    below = lower_closure(four)
    assert x in below and four in below and halves(v21) in below


def test_enumeration_cap_is_exact(stein23):
    bases = enumerate_bases(stein23, 5)
    assert enumerate_bases(stein23, 5, cap=len(bases)) == bases
    with pytest.raises(ResourceCapError):
        enumerate_bases(stein23, 5, cap=len(bases) - 1)


def test_enumeration_matches_certified_search(specs):
    for spec in specs.values():
        got = enumerate_bases(spec, spec.roots + 5)
        want = certified_enumerate(spec, spec.roots + 5)
        assert [b.cells for b in got] == [b.cells for b in want]
        for b, c in zip(got, want):
            assert b.certificate == c.certificate
            assert b.trees == c.trees


def test_enumeration_certifies_nothing(specs, monkeypatch):
    # every cell set reached by splits from the roots is admissible
    calls = []
    certificate = terms._certificate
    monkeypatch.setattr(terms, "_certificate", lambda *a: calls.append(a) or certificate(*a))
    for spec in specs.values():
        assert enumerate_bases(spec, spec.roots + 4)
    assert calls == []


def test_lower_closure_is_the_interval_below(stein23, brin2v):
    # some contractions of the sixths of stein23 are not admissible
    sixths = _expand_all(halves(stein23), 1)
    grid = _expand_all(halves(brin2v), 1)
    for top in (sixths, grid):
        below = lower_closure(top)
        assert below == [c for c in enumerate_bases(top.spec, len(top)) if leq(c, top)]
        assert lower_closure(top, cap=len(below)) == below
        with pytest.raises(ResourceCapError):
            lower_closure(top, cap=len(below) - 1)


# -- partition exactness ------------------------------------------------------

def test_partition_exactness(specs):
    for spec in specs.values():
        for b in enumerate_bases(spec, spec.roots + 3):
            per_root = {}
            for c in b.cells:
                per_root.setdefault(c.root, F(0))
                per_root[c.root] += c.volume()
            assert all(v == 1 for v in per_root.values())


# -- serialisation ------------------------------------------------------------

def test_basis_text_round_trip(specs):
    for spec in specs.values():
        for b in enumerate_bases(spec, spec.roots + 2):
            assert parse_basis_text(spec, basis_to_text(b)) == b


def test_basis_text_format(v21):
    assert basis_to_text(halves(v21)) == "root:0 [0/1,1/2)\nroot:0 [1/2,1/1)\n"


def test_leaf_text_matches_fraction_formatting(specs):
    # leaf_to_text reduces each end on the integer grid; it must print
    # what the Fraction ends print, on every cell of every cap-5 window
    for spec in specs.values():
        cells = {c for b in enumerate_bases(spec, 5) for c in b.cells}
        for cell in cells:
            expected = " ".join([f"root:{cell.root}"] + [
                f"[{lo.numerator}/{lo.denominator},{hi.numerator}/{hi.denominator})"
                for lo, hi in cell.intervals
            ])
            assert leaf_to_text(cell) == expected


def test_script_round_trip(specs):
    from cantorv.terms import parse_script_text, script_to_text

    for spec in specs.values():
        for b in enumerate_bases(spec, spec.roots + 2):
            script = expansion_script(b)
            parsed = parse_script_text(script_to_text(script))
            assert replay_script(spec, parsed) == b


# -- prefix uniqueness and validity sanity -------------------------------------

def test_prefix_uniqueness(stein23):
    bases = enumerate_bases(stein23, 5)
    for a in bases:
        for b in bases:
            if leq(a, b):
                for cell in b.cells:
                    ancestors = [
                        c
                        for c in a.cells
                        if c.intervals[0][0] <= cell.intervals[0][0]
                        and cell.intervals[0][1] <= c.intervals[0][1]
                    ]
                    assert len(ancestors) == 1


def test_expansions_never_collide(specs):
    # every split adds arity-1 genuinely new leaves
    import random

    for spec in specs.values():
        rng = random.Random(0)
        basis = Basis.roots(spec)
        for _ in range(12):
            leaf = basis.cells[rng.randrange(len(basis))]
            color = rng.randrange(spec.num_colors)
            bigger = expand(basis, leaf, color)
            assert len(bigger) == len(basis) + spec.arity(color) - 1
            basis = bigger


from hypothesis import given, settings, strategies as st


@given(seed=st.integers(min_value=0, max_value=10**6), data=st.data())
@settings(max_examples=30, deadline=None)
def test_random_scripts_yield_valid_bases(specs, seed, data):
    import random as _random

    name = data.draw(st.sampled_from(sorted(specs)))
    spec = specs[name]
    rng = _random.Random(seed)
    basis = Basis.roots(spec)
    for _ in range(rng.randrange(5)):
        leaf = basis.cells[rng.randrange(len(basis))]
        basis = expand(basis, leaf, rng.randrange(spec.num_colors))
    total = {r: F(0) for r in range(spec.roots)}
    for c in basis.cells:
        total[c.root] += c.volume()
    assert all(v == 1 for v in total.values())
    assert (len(basis) - spec.roots) % spec.d == 0
    assert parse_basis_text(spec, basis_to_text(basis)) == basis
    assert replay_script(spec, expansion_script(basis)) == basis


# -- the integer grid against the Fraction formulas ---------------------------

def _fraction_relative_exponents(spec, outer, inner):
    """Split counts from outer to inner, computed on Fraction intervals."""
    if outer.root != inner.root:
        return None
    pairs = list(zip(outer.intervals, inner.intervals))
    if any(ilo < olo or ohi < ihi for (olo, ohi), (ilo, ihi) in pairs):
        return None
    out = []
    for blk, ((olo, ohi), (ilo, ihi)) in zip(spec.blocks, pairs):
        exps = blk.exponents((ohi - olo) / (ihi - ilo))
        if exps is None or any(e < 0 for e in exps):
            return None
        if ((ilo - olo) / (ihi - ilo)).denominator != 1:
            return None
        out.extend(exps)
    return tuple(out)


def _fraction_transport(outer_from, outer_to, inner):
    """Intervals of inner carried affinely from outer_from onto outer_to."""
    ivs = []
    for (flo, fhi), (tlo, thi), (lo, hi) in zip(
        outer_from.intervals, outer_to.intervals, inner.intervals
    ):
        scale = (thi - tlo) / (fhi - flo)
        ivs.append((tlo + (lo - flo) * scale, tlo + (hi - flo) * scale))
    return tuple(ivs)


def test_integer_grid_matches_fraction_formulas(specs):
    for spec in specs.values():
        bases = enumerate_bases(spec, spec.roots + 4)
        leaves = sorted({c for b in bases for c in b.cells}, key=Leaf.key)
        root = root_leaf(spec, 0)
        targets = [root, split_leaf(spec, root, spec.num_colors - 1)[-1]]
        for b in bases:
            assert list(b.cells) == sorted(b.cells, key=Leaf.key)
            assert [b.index_of(c) for c in b.cells] == list(range(len(b)))
        for leaf in leaves:
            for color in range(spec.num_colors):
                bi, n = spec.colors[color]
                lo, hi = leaf.intervals[bi]
                w = (hi - lo) / n
                children = split_leaf(spec, leaf, color)
                for k, child in enumerate(children):
                    ivs = list(leaf.intervals)
                    ivs[bi] = (lo + k * w, lo + (k + 1) * w)
                    assert child.intervals == tuple(ivs)
                    rebuilt = Leaf(leaf.root, ivs)
                    assert rebuilt == child and hash(rebuilt) == hash(child)
                    check_leaf(spec, child)
                    for outer, inner in ((leaf, child), (child, leaf)):
                        assert relative_exponents(spec, outer, inner) == (
                            _fraction_relative_exponents(spec, outer, inner)
                        )
                    for target in targets:
                        for outer, inner in ((leaf, child), (child, leaf)):
                            # a larger inner leaf lands off the grid in general,
                            # and off-grid leaves are carried on as well
                            moved = transport(outer, target, inner)
                            for f, t, x in (
                                (outer, target, inner),
                                (inner, moved, outer),
                                (moved, inner, target),
                            ):
                                got = transport(f, t, x)
                                assert got.intervals == _fraction_transport(f, t, x)
                                assert got == Leaf(t.root, got.intervals)
                                assert relative_exponents(spec, t, got) == (
                                    _fraction_relative_exponents(spec, t, got)
                                )
            for other in leaves:
                assert relative_exponents(spec, leaf, other) == (
                    _fraction_relative_exponents(spec, leaf, other)
                )
        rest = ((F(0), F(1)),) * (spec.num_blocks - 1)
        for bad in ((F(0), F(2, 3)), (F(1, 4), F(3, 4))):
            with pytest.raises(TermError):
                check_leaf(spec, Leaf(0, (bad,) + rest))
            assert relative_exponents(spec, root, Leaf(0, (bad,) + rest)) is None
        with pytest.raises(ValueError):
            Basis.roots(spec).index_of(leaves[-1])
    # 36/4 = 9 is an integer but not a product of the arities 4 and 6
    spec46 = parse_spec("roots=1; block[4,6]")
    quarter, cell36 = Leaf(0, ((F(0), F(1, 4)),)), Leaf(0, ((F(0), F(1, 36)),))
    assert relative_exponents(spec46, quarter, cell36) is None
    assert _fraction_relative_exponents(spec46, quarter, cell36) is None
    split_ninth = [Leaf(0, ((F(k, 36), F(k + 1, 36)),)) for k in range(4)]
    assert parent_of_family(spec46, split_ninth, 0) is None


# -- sibling families against brute force -------------------------------------

def _brute_force_sibling_families(spec, cells, images=None):
    """Reference ``sibling_families``: the one candidate parent of every
    cell along every colour (the aligned cell n times as wide in the
    colour's block), kept when it is a valid leaf whose children all lie
    in ``cells`` and ``parent_of_family`` accepts them; given ``images``,
    kept only when the children's images, in order, are the children of
    the parent ``parent_of_family`` finds for them."""
    cellset = set(cells)
    found = {}
    for color, (bi, n) in enumerate(spec.colors):
        for cell in cellset:
            lo, hi = cell.intervals[bi]
            width = (hi - lo) * n
            start = lo // width * width
            ivs = list(cell.intervals)
            ivs[bi] = (start, start + width)
            parent = Leaf(cell.root, ivs)
            try:
                check_leaf(spec, parent)
            except TermError:
                continue
            fam = split_leaf(spec, parent, color)
            if not (set(fam) <= cellset and parent_of_family(spec, fam, color) == parent):
                continue
            if images is not None:
                targets = tuple(images[c] for c in fam)
                img_parent = parent_of_family(spec, targets, color)
                if img_parent is None or split_leaf(spec, img_parent, color) != targets:
                    continue
            found[color, fam] = parent
    return sorted(
        ((color, fam, parent) for (color, fam), parent in found.items()),
        key=lambda t: (t[0], t[1][0].key()),
    )


def test_sibling_families_match_brute_force(specs):
    checked = matched = dropped = 0
    rng = random.Random(0)
    for spec in specs.values():
        bases = enumerate_bases(spec, spec.roots + 4)
        same_size = {}
        for b in bases:
            same_size.setdefault(len(b), []).append(b)
        for b in bases:
            families = sibling_families(spec, b.cells)
            assert families == _brute_force_sibling_families(spec, b.cells)
            checked += len(families)
            # images onto bases of the same size, in canonical order and shuffled
            for other in same_size[len(b)][:4]:
                targets = list(other.cells)
                for _ in range(2):
                    images = dict(zip(b.cells, targets))
                    got = sibling_families(spec, b.cells, images)
                    assert got == _brute_force_sibling_families(spec, b.cells, images)
                    matched += len(got)
                    dropped += len(families) - len(got)
                    rng.shuffle(targets)
        # overlapping cell sets: two bases together
        for a, b in zip(bases, reversed(bases)):
            cells = a.cellset() | b.cellset()
            assert sibling_families(spec, cells) == _brute_force_sibling_families(spec, cells)
    assert checked > 0 and matched > 0 and dropped > 0


def test_sibling_families_skip_parents_off_the_arity_monoid():
    # four consecutive 1/36 cells would have the parent [0, 1/9), and 9 is
    # not a product of the arities 4 and 6
    spec46 = parse_spec("roots=1; block[4,6]")
    split_ninth = [Leaf(0, ((F(k, 36), F(k + 1, 36)),)) for k in range(4)]
    assert sibling_families(spec46, split_ninth) == []
    assert _brute_force_sibling_families(spec46, split_ninth) == []
    # a sixth split by 6 gives 1/36 cells with a valid parent along colour 1
    sixth = Leaf(0, ((F(0), F(1, 6)),))
    cells = split_ninth + list(split_leaf(spec46, sixth, 1))
    expected = _brute_force_sibling_families(spec46, cells)
    assert sibling_families(spec46, cells) == expected
    assert [(color, parent) for color, _, parent in expected] == [(1, sixth)]
    # sixteenths of a quarter are a family, but their images on the 1/36
    # grid would have that ninth as their parent
    sixteenths = split_leaf(spec46, Leaf(0, ((F(0), F(1, 4)),)), 0)
    assert len(sibling_families(spec46, sixteenths)) == 1
    images = dict(zip(sixteenths, split_ninth))
    assert sibling_families(spec46, sixteenths, images) == []
    assert _brute_force_sibling_families(spec46, sixteenths, images) == []


# -- carried sort keys against Leaf.key ---------------------------------------

def _descents(spec, rng, count, depth, colors=None, least=0):
    """Every cell met on ``count`` random descents from the roots, each of
    ``least`` to ``depth`` splits by colours drawn from ``colors`` (all by
    default), with each split's siblings."""
    colors = range(spec.num_colors) if colors is None else colors
    out = set()
    for _ in range(count):
        cell = root_leaf(spec, rng.randrange(spec.roots))
        out.add(cell)
        for _ in range(rng.randint(least, depth)):
            kids = split_leaf(spec, cell, rng.choice(colors))
            out.update(kids)
            cell = rng.choice(kids)
    return list(out)


def _assert_sorted_as_leaf_key(leaves, rng):
    leaves = list(leaves)
    rng.shuffle(leaves)
    want = sorted(leaves, key=Leaf.key)
    assert canonical_order(leaves) == want
    assert [c.sort_key for c in want] == sorted(c.sort_key for c in leaves)
    keys = [c.key() for c in want]
    for i in range(len(want) - 1):
        assert keys[i] < keys[i + 1] and want[i].sort_key < want[i + 1].sort_key


def _past_the_scale(leaf) -> bool:
    return any(SORT_SCALE % n for _, _, n in leaf.grid)


def test_sort_keys_from_every_constructor_order_as_leaf_key():
    spec = parse_spec("roots=2; block[2,3]; block[2]")
    rng = random.Random(28)
    made = [root_leaf(spec, r) for r in range(spec.roots)]
    made += _descents(spec, rng, 12, 6) + _descents(spec, rng, 4, 70, colors=[1])
    made += [p for c in list(made) for color in range(spec.num_colors)
             if (p := _parent(spec, c, color)) is not None]
    for _ in range(60):
        # transport carries a cell into a target of another shape, on or off the grid
        outer, target = rng.sample(made, 2)
        inner = rng.choice(split_leaf(spec, outer, rng.randrange(spec.num_colors)))
        made += [transport(outer, target, inner), transport(inner, target, outer)]
    assert any(map(_past_the_scale, made)) and not all(map(_past_the_scale, made))
    parsed = 0
    for leaf in made:
        assert Leaf(leaf.root, leaf.intervals).sort_key == leaf.sort_key
        try:
            check_leaf(spec, leaf)
        except TermError:
            continue  # off the grid: no leaf text parses to it
        assert parse_leaf(spec, leaf_to_text(leaf)).sort_key == leaf.sort_key
        parsed += 1
    assert 0 < parsed < len(made)
    distinct = list(set(made))
    keys = {leaf: leaf.key() for leaf in distinct}
    for x, y in itertools.combinations(distinct, 2):
        assert (x.sort_key < y.sort_key) == (keys[x] < keys[y])
        assert x.sort_key != y.sort_key
    _assert_sorted_as_leaf_key(distinct, rng)


def test_canonical_order_is_leaf_key_order_on_random_leaf_sets(specs):
    rng = random.Random(28)
    for spec in specs.values():
        for _ in range(8):
            _assert_sorted_as_leaf_key(_descents(spec, rng, 10, 8), rng)


def test_canonical_order_mixes_shallow_leaves_with_leaves_past_the_scale(specs):
    # v21 past 2^-90 and stein23 past 3^-54, where a scaled step of the
    # deepest cells is below 1
    rng = random.Random(29)
    for name, colors, depth in [("v21", [0], 100), ("stein23", [1], 60), ("stein23", [0, 1], 90)]:
        spec = specs[name]
        for _ in range(4):
            leaves = _descents(spec, rng, 6, 4) + _descents(spec, rng, 3, depth, colors, depth - 6)
            assert any(map(_past_the_scale, leaves))
            _assert_sorted_as_leaf_key(set(leaves), rng)


@pytest.mark.parametrize("source", ["roots=1; block[11]", "roots=2; block[13,2]; block[2]"])
def test_canonical_order_for_arities_the_scale_lacks(source):
    spec = parse_spec(source)
    rng = random.Random(source)
    for _ in range(6):
        leaves = _descents(spec, rng, 8, 30)
        assert any(map(_past_the_scale, leaves))
        _assert_sorted_as_leaf_key(set(leaves), rng)


@pytest.mark.parametrize("name, colors, depth", [("v21", [0], 100), ("stein23", [0, 1], 80)])
def test_scripts_round_trip_through_a_leaf_past_the_scale(specs, name, colors, depth):
    spec = specs[name]
    rng = random.Random(name)
    basis, script = Basis.roots(spec), []
    cell = basis.cells[0]
    for _ in range(depth):
        color = rng.choice(colors)
        script.append((basis.index_of(cell), color))
        basis = expand(basis, cell, color)
        cell = rng.choice(split_leaf(spec, cell, color))
    assert _past_the_scale(cell) and list(basis.cells) == sorted(basis.cells, key=Leaf.key)
    replayed = replay_script(spec, script)
    assert replayed.cells == basis.cells and replayed.trees == basis.trees
    canonical = expansion_script(replayed)
    again = replay_script(spec, canonical)
    assert again.cells == basis.cells and expansion_script(again) == canonical
    assert _expand_replay(spec, canonical).cells == basis.cells

"""Independent oracles used by the tests.

These are deliberately naive: exhaustive placement enumeration for cuboid
partitions, and breadth-first reachability over single splitting moves.
They share no code path with the recursive admissibility checker or the
lattice operations they cross-check.  The last thirteen are the engine's
own earlier loops, kept as references for the versions that replaced
them: ``certified_enumerate``, ``restart_reduce``,
``stepwise_expansion_script``, ``search_glb``,
``scan_normalizer``, ``scan_letter_centralizer``,
``copywise_kernel_element`` and ``copywise_lift`` (each type's orbit
copies walked one by one, where the engine has one diagonal map),
``conjugation_orbit_types`` (orbits searched point by point, types
found by conjugating whole stabilisers), ``scan_close_subgroup`` (a
breadth-first search over diagrams, each new one compared with every
element found so far by ``equals``), ``iterated_invariant_basis`` (the
images of the basis under every element of the subgroup, round after
round), ``dense_homology`` (every face list of every dimension, ranked
as dense rows by ``_gf2_rank`` and ``_rational_rank``, with no clearing)
and ``walk_far_above`` (one cell's far-above set by a walk up through its
parents, where the engine has one recurrence over all cells of the
window).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from fractions import Fraction

from cantorv.algebra import AlgebraSpec
from cantorv.centralizer import (
    InvariantBasisReport,
    NormalizerReport,
    OrbitData,
    TypeData,
    _orbit,
    invariant_basis_report,
)
from cantorv.elements import (
    INVARIANT_BASIS_ROUNDS,
    CapExceededError,
    Element,
    IterationCapExceededError,
    _from_mapping,
    _perm_inv,
    _perm_mul,
    apply_to_basis,
    compose,
    equals,
    identity,
    invert,
    reduce,
    represent_on,
)
from cantorv.stein import ChainComplexReport, ComplexError, SimplicialComplex
from cantorv.terms import (
    Basis,
    Leaf,
    _canonical_bases,
    _certificate,
    _parent,
    _single_splits,
    canonical_order,
    cells_admissible,
    enumerate_bases,
    expand,
    leq,
    lower_closure,
    lub,
    root_leaf,
    sibling_families,
    split_leaf,
    transport,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def _block_widths_at_least(spec: AlgebraSpec, block_index: int, bound: Fraction):
    """All valid interval widths >= bound for one block, descending."""
    blk = spec.blocks[block_index]
    widths = set()
    frontier = {ONE}
    while frontier:
        widths |= frontier
        nxt = set()
        for w in frontier:
            for a in blk.arities:
                w2 = w / a
                if w2 >= bound and w2 not in widths:
                    nxt.add(w2)
        frontier = nxt
    return sorted(widths, reverse=True)


def _volumes_at_least(spec: AlgebraSpec, bound: Fraction):
    """All cell volumes >= bound (products of per-block widths)."""
    per_block = [
        _block_widths_at_least(spec, bi, bound) for bi in range(spec.num_blocks)
    ]
    out = set()
    for combo in itertools.product(*per_block):
        v = ONE
        for w in combo:
            v *= w
        if v >= bound:
            out.add(v)
    return out


def _volume_multisets(spec: AlgebraSpec, max_cells: int):
    """All descending volume multisets summing to 1 with <= max_cells terms."""
    results = []

    def rec(remaining: Fraction, budget: int, ceiling: Fraction, acc):
        if remaining == 0:
            results.append(tuple(acc))
            return
        if budget == 0:
            return
        bound = remaining / budget
        for v in sorted(_volumes_at_least(spec, bound), reverse=True):
            if v > ceiling or v > remaining:
                continue
            acc.append(v)
            rec(remaining - v, budget - 1, v, acc)
            acc.pop()

    rec(ONE, max_cells, ONE, [])
    return results


def _cells_with_volume(spec: AlgebraSpec, root: int, anchor, volume: Fraction):
    """All valid cells of the given volume whose lower corner is anchor."""
    per_block = []
    for bi in range(spec.num_blocks):
        opts = []
        for w in _block_widths_at_least(spec, bi, volume):
            lo = anchor[bi]
            if (lo / w).denominator != 1:
                continue
            if lo + w > 1:
                continue
            opts.append(w)
        per_block.append(opts)
    out = []
    for combo in itertools.product(*per_block):
        v = ONE
        for w in combo:
            v *= w
        if v != volume:
            continue
        ivs = tuple((anchor[bi], anchor[bi] + w) for bi, w in enumerate(combo))
        out.append(Leaf(root, ivs))
    return out


def _first_uncovered(spec: AlgebraSpec, placed):
    """Lexicographically least uncovered corner, via breakpoint boxes."""
    breaks = []
    for bi in range(spec.num_blocks):
        pts = {ZERO, ONE}
        for c in placed:
            lo, hi = c.intervals[bi]
            pts.add(lo)
            pts.add(hi)
        breaks.append(sorted(pts))
    for corner in itertools.product(*(range(len(b) - 1) for b in breaks)):
        point = tuple(breaks[bi][k] for bi, k in enumerate(corner))
        covered = False
        for c in placed:
            if all(
                lo <= point[bi] < hi
                for bi, (lo, hi) in enumerate(c.intervals)
            ):
                covered = True
                break
        if not covered:
            return point
    return None


def enumerate_partitions(spec: AlgebraSpec, max_cells: int):
    """Every partition of the root cuboid into <= max_cells valid cells
    (admissible or not), for single-root specs."""
    assert spec.roots == 1
    results: set[frozenset] = set()
    for volumes in _volume_multisets(spec, max_cells):
        pool = list(volumes)

        def rec(placed: list[Leaf], remaining: list[Fraction]):
            anchor = _first_uncovered(spec, placed)
            if anchor is None:
                results.add(frozenset(placed))
                return
            tried = set()
            for i, v in enumerate(remaining):
                if v in tried:
                    continue
                tried.add(v)
                rest = remaining[:i] + remaining[i + 1 :]
                for cell in _cells_with_volume(spec, 0, anchor, v):
                    if all(
                        not _overlap(cell, other) for other in placed
                    ):
                        rec(placed + [cell], rest)

        rec([], pool)
    return sorted(results, key=lambda s: (len(s), sorted(c.key() for c in s)))


def _overlap(a: Leaf, b: Leaf) -> bool:
    return all(
        max(alo, blo) < min(ahi, bhi)
        for (alo, ahi), (blo, bhi) in zip(a.intervals, b.intervals)
    )


def reachable_cellsets(spec: AlgebraSpec, max_size: int) -> set[frozenset]:
    """Cell sets of every basis reachable from the roots by single splits."""
    return {b.cellset() for b in enumerate_bases(spec, max_size)}


def reachable_from(basis: Basis, max_size: int) -> set[frozenset]:
    """Cell sets reachable from one basis by splits, up to a size bound."""
    seen = {basis.cellset()}
    frontier = [basis]
    while frontier:
        nxt = []
        for cur in frontier:
            for leaf in cur.cells:
                for color in range(cur.spec.num_colors):
                    if len(cur) + cur.spec.arity(color) - 1 > max_size:
                        continue
                    child = expand(cur, leaf, color)
                    if child.cellset() not in seen:
                        seen.add(child.cellset())
                        nxt.append(child)
        frontier = nxt
    return seen


def replay_trees(b: Basis) -> list[Leaf]:
    """The cells that the basis's carried split trees give when replayed
    by splits from the roots, in tree order.  A leaf is ``("leaf",)`` or a
    labelled ``("leaf", k)``."""
    spec = b.spec
    out: list[Leaf] = []

    def walk(cuboid: Leaf, tree: tuple) -> None:
        if tree[0] == "leaf":
            assert len(tree) <= 2
            out.append(cuboid)
            return
        _, color, kids = tree
        children = split_leaf(spec, cuboid, color)
        assert len(kids) == len(children)
        for child, kid in zip(children, kids):
            walk(child, kid)

    assert sorted(b.trees) == list(range(spec.roots))
    for r in range(spec.roots):
        walk(root_leaf(spec, r), b.trees[r])
    return out


def certified_enumerate(spec: AlgebraSpec, max_size: int) -> list[Basis]:
    """Reference ``enumerate_bases``: breadth first over single splits from
    the roots, certifying each new cell set and handing its basis the
    certificate."""
    start = Basis.roots(spec)
    seen = {start.cellset(): start}
    queue = deque([start])
    while queue:
        for cells in _single_splits(queue.popleft(), max_size):
            if cells in seen:
                continue
            cert = _certificate(spec, cells)
            if cert is None:
                continue
            seen[cells] = nxt = Basis(spec, cells, cert)
            queue.append(nxt)
    return _canonical_bases(seen.values())


def restart_reduce(g: Element) -> Element:
    """Reference ``reduce``: scan the sibling families of the domain in
    order, contract the first whose images are the same-colour children of
    one cell, in order, and whose two contracted sides stay admissible,
    then start the scan over; stop when a scan contracts nothing."""
    spec = g.spec
    dom_cells = list(g.domain.cells)
    rng_cells = list(g.range.cells)
    mapping = {dom_cells[i]: rng_cells[g.perm[i]] for i in range(len(dom_cells))}
    changed = True
    while changed:
        changed = False
        for color, fam, parent in sibling_families(spec, mapping.keys()):
            images = [mapping[c] for c in fam]
            img_parent = _parent(spec, images[0], color)
            if img_parent is None or tuple(images) != split_leaf(spec, img_parent, color):
                continue
            new_dom = set(mapping) - set(fam) | {parent}
            new_rng = set(mapping.values()) - set(images) | {img_parent}
            if not cells_admissible(spec, new_dom):
                continue
            if not cells_admissible(spec, new_rng):
                continue
            for c in fam:
                del mapping[c]
            mapping[parent] = img_parent
            changed = True
            break
    if len(mapping) == len(g.domain):
        return g
    return _from_mapping(spec, mapping)


def stepwise_expansion_script(b: Basis) -> list[tuple[int, int]]:
    """Reference ``expansion_script``: after every split, sort the current
    cells again and split the first one whose certificate subtree splits."""
    spec = b.spec
    trees: dict[Leaf, tuple] = {}
    for r in range(spec.roots):
        trees[root_leaf(spec, r)] = b.certificate[r]
    cells = canonical_order(trees)
    script: list[tuple[int, int]] = []
    while True:
        for idx, cell in enumerate(cells):
            tree = trees[cell]
            if tree[0] == "split":
                _, color, subtrees = tree
                script.append((idx, color))
                del trees[cell]
                for child, sub in zip(split_leaf(spec, cell, color), subtrees):
                    trees[child] = sub
                cells = canonical_order(trees)
                break
        else:
            return script


@functools.lru_cache(maxsize=1 << 12)
def _bases_below(b: Basis) -> list[Basis]:
    return lower_closure(b)


def search_glb(a: Basis, b: Basis) -> Basis:
    """Reference ``glb``: list every basis below the smaller argument by
    contraction search (memoised per basis), keep those below the other,
    and fold them with ``lub``."""
    if a == b:
        return a
    small, other = (a, b) if len(a) <= len(b) else (b, a)
    candidates = [c for c in _bases_below(small) if leq(c, other)]
    out = candidates[0]
    for c in candidates[1:]:
        out = lub(out, c)
    return out


def scan_normalizer(q) -> NormalizerReport:
    """Reference ``normalizer_analysis``: test every permutation of the
    minimal invariant basis Y for normalising and centralising the image
    of Q in S(Y)."""
    report = invariant_basis_report(q)
    y = report.basis
    n = len(y)
    image = set(report.perms)
    normal = []
    central = []
    for perm in itertools.permutations(range(n)):
        # conjugation is injective, so conj(image) <= image means equality
        inv = _perm_inv(perm)
        if all(_perm_mul(_perm_mul(perm, s), inv) in image for s in image):
            normal.append(perm)
            if all(_perm_mul(perm, s) == _perm_mul(s, perm) for s in image):
                central.append(perm)
    reps = []
    covered = set()
    for p in sorted(normal):
        if p in covered:
            continue
        reps.append(p)
        covered |= {_perm_mul(p, c) for c in central}
    return NormalizerReport(
        basis=y,
        sy_order=math.factorial(n),
        normalizer_order=len(normal),
        centralizer_order=len(central),
        weyl_order=len(normal) // len(central),
        coset_reps=tuple(reps),
    )


def scan_letter_centralizer(report, type_id: str) -> tuple[tuple[int, ...], ...]:
    """Reference ``type_centralizer_L``: every permutation of the orbit
    letters that commutes with the type's representation, sorted."""
    tdata = report.types[type_id]
    image = set(tdata.phi)
    return tuple(
        perm
        for perm in itertools.permutations(range(tdata.m))
        if all(_perm_mul(perm, s) == _perm_mul(s, perm) for s in image)
    )


def _orbit_copies_and_rest(report, type_id: str):
    """For each orbit of the type, in quotient root order, the list of its
    Y-leaves by letter; and the identity on the Y-leaves of every orbit
    not of the type."""
    tdata = report.types[type_id]
    cells = report.basis.cells
    copies = [[cells[pos] for pos in report.orbits[oid].numbering] for oid in tdata.orbit_ids]
    rest = {
        cells[pos]: cells[pos]
        for orb in report.orbits
        if orb.type_id != type_id
        for pos in orb.indices
    }
    return copies, rest


def copywise_kernel_element(report, type_id: str, k) -> Element:
    """Reference ``build_kernel_element``: each orbit copy of the type in
    turn, and inside it each quotient cell under its root carried to every
    letter and to the letter its label names."""
    copies, mapping = _orbit_copies_and_rest(report, type_id)
    for j, letter_cells in enumerate(copies):
        qroot = root_leaf(k.qspec, j)
        for a in k.basis.cells:
            if a.root != j:
                continue
            lab = k.labels[a]
            for pos_k, target in enumerate(letter_cells):
                src = transport(qroot, target, a)
                dst = transport(qroot, letter_cells[lab[pos_k]], a)
                mapping[src] = dst
    return _from_mapping(report.basis.spec, mapping)


def copywise_lift(report, type_id: str, v: Element) -> Element:
    """Reference ``splitting_lift``: each domain cell of the quotient
    element carried, letter by letter, from its root's orbit copy onto its
    range cell in the range root's orbit copy."""
    copies, mapping = _orbit_copies_and_rest(report, type_id)
    qspec = v.spec
    for i, dcell in enumerate(v.domain.cells):
        rcell = v.range.cells[v.perm[i]]
        src_root = root_leaf(qspec, dcell.root)
        dst_root = root_leaf(qspec, rcell.root)
        for letter in range(report.types[type_id].m):
            src = transport(src_root, copies[dcell.root][letter], dcell)
            dst = transport(dst_root, copies[rcell.root][letter], rcell)
            mapping[src] = dst
    return _from_mapping(report.basis.spec, mapping)


def conjugation_orbit_types(y: Basis, q) -> InvariantBasisReport:
    """Reference ``orbit_types``: each orbit is searched from its least
    position by ``_orbit``, and an orbit joins the first reference orbit
    whose marked stabiliser some g conjugates onto its own, for the least
    such g, found by conjugating the whole stabiliser by each g in turn."""
    perms = [represent_on(g, y)[1] for g in q.elements]
    index = {p: gi for gi, p in enumerate(perms)}

    def conjugator(h1, h2):
        for g, p in enumerate(perms):
            inv = _perm_inv(p)
            if frozenset(index[_perm_mul(_perm_mul(p, perms[x]), inv)] for x in h1) == h2:
                return g
        return None

    seen: set[int] = set()
    orbits: list[OrbitData] = []
    for start in range(len(y)):
        if start in seen:
            continue
        orbit = frozenset().union(*_orbit(frozenset((start,)), perms))
        seen |= orbit
        indices = tuple(sorted(orbit))
        marked = indices[0]
        stab = frozenset(gi for gi, p in enumerate(perms) if p[marked] == marked)
        orbits.append(OrbitData(indices=indices, marked=marked, stabilizer=stab))
    types: dict[str, TypeData] = {}
    refs: list[OrbitData] = []
    for oid, orb in enumerate(orbits):
        found = [
            (ref, g0) for ref in refs
            if (g0 := conjugator(ref.stabilizer, orb.stabilizer)) is not None
        ]
        if not found:
            orb.numbering = orb.indices
            m = len(orb.indices)
            letter = {pos: k for k, pos in enumerate(orb.numbering)}
            phi = [tuple(letter[p[pos]] for pos in orb.numbering) for p in perms]
            if m == 1:
                tid = "trivial"
            elif len(orb.stabilizer) == 1 and m == len(perms):
                tid = "regular"
            else:
                tid = f"type{len(refs)}"
            orb.type_id = tid
            types[tid] = TypeData(type_id=tid, m=m, orbit_ids=(oid,), phi=phi)
            refs.append(orb)
            continue
        ref, g0 = found[0]
        orb.type_id = ref.type_id
        tdata = types[ref.type_id]
        t = perms[g0][ref.marked]
        letter = {pos: k for k, pos in enumerate(ref.numbering)}
        numbering = [0] * tdata.m
        for p in perms:
            numbering[letter[p[t]]] = p[orb.marked]
        orb.numbering = tuple(numbering)
        tdata.orbit_ids += (oid,)
    return InvariantBasisReport(basis=y, perms=perms, orbits=orbits, types=types)


def scan_close_subgroup(gens, cap: int) -> tuple[Element, ...]:
    """Reference ``close_subgroup``: the elements, in its order, found by
    composing every element with every generator and inverse, and keeping
    a product unless its diagram or an ``equals`` scan over the elements
    found so far has seen it."""
    gens = [reduce(g) for g in gens]
    seeds = gens + [invert(g) for g in gens]
    elems = [identity(gens[0].spec)]
    keys = {elems[0].key()}
    frontier = [elems[0]]
    while frontier:
        nxt = []
        for x in frontier:
            for g in seeds:
                y = compose(g, x)
                if y.key() in keys:
                    continue
                keys.add(y.key())
                if any(equals(y, z) for z in elems):
                    continue
                elems.append(y)
                nxt.append(y)
                if len(elems) > cap:
                    raise CapExceededError(f"subgroup closure exceeded cap {cap}")
        frontier = nxt
    return tuple(sorted(elems, key=lambda e: (
        len(e.domain),
        tuple(c.key() for c in e.domain.cells),
        tuple(c.key() for c in e.range.cells),
        e.perm,
    )))


def iterated_invariant_basis(q) -> Basis:
    """Reference ``invariant_basis``: Y <- lub(Y, images of the refined Y
    through every element of q) from the roots until Y stabilises, with
    the fixed point checked for invariance on every element."""
    y = Basis.roots(q.spec)
    for _ in range(INVARIANT_BASIS_ROUNDS):
        acc = y
        for g in q.elements:
            acc = lub(acc, apply_to_basis(g, lub(g.domain, y)))
        if acc == y:
            for g in q.elements:
                rep = represent_on(g, y)
                if rep is None or rep[0] != y:
                    raise IterationCapExceededError("fixed point is not invariant")
            return y
        y = acc
    raise IterationCapExceededError(f"no invariant basis within {INVARIANT_BASIS_ROUNDS} rounds")


def _gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of bitmask rows, with pivots keyed by leading bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length()
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row ^= pivot
    return len(pivots)


def _rational_rank(rows: list[dict[int, int]]) -> int:
    """Rank over Q of sparse integer rows ``{column: entry}``, by
    fraction-free elimination with pivots keyed by leading column."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: x for c, x in row.items() if x}
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            g = math.gcd(pivot[lead], row[lead])
            a, b = pivot[lead] // g, row[lead] // g
            new = {c: a * x for c, x in row.items()}
            for c, x in pivot.items():
                y = new.get(c, 0) - b * x
                if y:
                    new[c] = y
                else:
                    del new[c]
            g = math.gcd(*new.values())
            row = {c: x // g for c, x in new.items()} if g > 1 else new
    return len(pivots)


def dense_homology(
    complex_: SimplicialComplex, rational: bool = False
) -> ChainComplexReport:
    """Reference ``homology``: build the face list of every simplex of every
    dimension, turn each into a bitmask row (GF(2)) or a ``{face: ±1}`` row
    (Q), and rank every boundary matrix in full."""
    if complex_.is_empty():
        report = {-1: 1}
        return ChainComplexReport(
            betti_gf2=dict(report),
            betti_rational=dict(report) if rational else None,
            euler=0,
        )
    simplices = complex_._tuples
    top = max(simplices)
    sizes = {d: len(simplices.get(d, [])) for d in range(top + 1)}
    # the boundary of each d-simplex as the indices of its faces, in the
    # order of its vertices; dimension 0 bounds the empty simplex, index 0
    faces: dict[int, list[list[int]]] = {0: [[0]] * sizes[0]}
    for d in range(1, top + 1):
        lower = {s: i for i, s in enumerate(simplices[d - 1])}
        faces[d] = [[lower[s[:i] + s[i + 1 :]] for i in range(d + 1)] for s in simplices[d]]

    def betti(ranks: dict[int, int]) -> dict[int, int]:
        out = {d: sizes[d] - ranks[d] - ranks.get(d + 1, 0) for d in range(top + 1)}
        if any(b < 0 for b in out.values()):
            raise ComplexError("boundary ranks exceed the chain group sizes")
        return out

    betti_gf2 = betti({
        d: _gf2_rank([sum(1 << j for j in row) for row in rows])
        for d, rows in faces.items()
    })
    betti_rat = None
    if rational:
        betti_rat = betti({
            d: _rational_rank([{j: (-1) ** i for i, j in enumerate(row)} for row in rows])
            for d, rows in faces.items()
        })
        if any(betti_rat[d] > betti_gf2[d] for d in betti_rat):
            raise ComplexError("a rational Betti number exceeds the GF(2) one")
    return ChainComplexReport(
        betti_gf2=betti_gf2,
        betti_rational=betti_rat,
        euler=complex_.euler_characteristic(),
    )


def walk_far_above(spec: AlgebraSpec, cell, window: dict) -> int:
    """Reference for one cell of ``_far_above``: the bitset, over the
    numbers that ``window`` gives its cells, of the window cells above
    ``cell`` with some colour split at least twice on the way down to it,
    found by walking up through parents inside the window.  Split counts do
    not depend on the route, and once one of them reaches 2 every cell
    further up is far too."""
    k = spec.num_colors
    out = 0
    seen = {cell}
    stack = [(cell, (0,) * k)]
    while stack:
        child, counts = stack.pop()
        for c in range(k):
            parent = _parent(spec, child, c)
            if parent is None or parent in seen or parent not in window:
                continue
            seen.add(parent)
            up = counts[:c] + (counts[c] + 1,) + counts[c + 1 :]
            if max(up) > 1:
                out |= 1 << window[parent]
            stack.append((parent, up))
    return out

"""Cones: descendant-closures of finite leaf sets, and tuples of them.

A cone is determined by the point set covered by its support cuboids; two
supports describe the same cone exactly when those unions coincide.  Equality,
the covering and disjointness of tuples, and the complement of a witness basis
come from one integer sweep that cuts each root cuboid at every interval end
of the cells involved and records, per box, which cones cover it.  A cone's
norm is its cell count mod d.  The group acts on cones by mapping supports
through element diagrams.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .algebra import AlgebraSpec
from .terms import (
    Basis,
    Leaf,
    ZERO,
    _certificate,
    _on_grid,
    boxes_intersect,
    canonical_order,
    check_leaf,
    leaf_contains,
    leaf_to_text,
    lub,
    parse_leaf,
    relative_exponents,
    root_leaf,
    sibling_families,
    split_leaf,
)
from .elements import Element, _cell_images, _from_mapping


class ConeError(ValueError):
    """Malformed cone input or a tuple without the required flags."""


def _contract_support(spec: AlgebraSpec, cells: set[Leaf]) -> tuple[Leaf, ...]:
    """Deterministic greedy contraction of a disjoint cell set.

    Maximal contraction is applied scan-by-scan in canonical order; the
    result is a fixed function of the input cell set (uniqueness across
    different representations of the same cone is tested, not assumed).
    """
    cells = set(cells)
    while families := sibling_families(spec, cells):
        _, fam, parent = families[0]
        cells -= set(fam)
        cells.add(parent)
    return tuple(canonical_order(cells))


def _box_intersection(a: Leaf, b: Leaf) -> tuple | None:
    """The common box of two leaves as ``(lo, hi, n)`` triples, or None."""
    if a.root != b.root:
        return None
    box = []
    for (p, q, n), (r, s, m) in zip(a.grid, b.grid):
        # [p/n, q/n) meets [r/m, s/m) in [lo, hi) / (n * m)
        lo = max(p * m, r * n)
        hi = min(q * m, s * n)
        if lo >= hi:
            return None
        box.append((lo, hi, n * m))
    return tuple(box)


def _refinement_size(spec: AlgebraSpec, block_index: int, denom: int) -> int:
    """The arity product of the first per-colour exponent vector, breadth
    first, whose product is divisible by ``denom``."""
    arities = spec.blocks[block_index].arities
    start = (0,) * len(arities)
    frontier = [(start, 1)]
    seen = {start}
    while frontier:
        nxt = []
        for e, n in frontier:
            if n % denom == 0:
                return n
            for i, a in enumerate(arities):
                e2 = e[:i] + (e[i] + 1,) + e[i + 1 :]
                if e2 not in seen:
                    seen.add(e2)
                    nxt.append((e2, n * a))
        frontier = nxt
    raise ConeError(f"denominator {denom} unreachable in block {block_index}")


def _box_to_cells(spec: AlgebraSpec, root: int, box) -> list[Leaf]:
    """Decompose a box of ``(lo, hi, n)`` triples, one per block, into
    leaves on the grid ``_refinement_size`` picks for the denominators of
    each block's interval ends in lowest terms."""
    per_block: list[list[tuple[int, int, int]]] = []
    for bi, (lo, hi, n) in enumerate(box):
        denom = math.lcm(n // math.gcd(lo, n), n // math.gcd(hi, n))
        size = _refinement_size(spec, bi, denom)
        per_block.append([(k, k + 1, size) for k in range(lo * size // n, hi * size // n)])
    return [_on_grid(root, grid) for grid in itertools.product(*per_block)]


def _sweep(spec: AlgebraSpec, root: int, groups):
    """Cut the root cuboid at every interval end of the cells in ``groups``
    (leaf collections; cells of other roots are ignored) and yield each grid
    box, as ``(lo, hi, n)`` triples, with the mask of the groups whose cells
    cover it.  A box lies inside or outside each cell, never across one."""
    cells = [(1 << i, c) for i, group in enumerate(groups) for c in group if c.root == root]
    dens = [math.lcm(1, *(c.grid[bi][2] for _, c in cells)) for bi in range(spec.num_blocks)]
    scaled = [
        (bit, tuple((a * (d // n), e * (d // n)) for (a, e, n), d in zip(c.grid, dens)))
        for bit, c in cells
    ]
    breaks = [
        sorted({0, d, *(x for _, iv in scaled for x in iv[bi])}) for bi, d in enumerate(dens)
    ]
    for corner in itertools.product(*(range(len(b) - 1) for b in breaks)):
        ends = [(breaks[bi][k], breaks[bi][k + 1]) for bi, k in enumerate(corner)]
        mask = 0
        for bit, iv in scaled:
            if not mask & bit and all(
                lo <= p and q <= hi for (lo, hi), (p, q) in zip(iv, ends)
            ):
                mask |= bit
        yield mask, tuple((p, q, d) for (p, q), d in zip(ends, dens))


class Cone:
    """A union of leaf cuboids, canonically stored as a contracted antichain."""

    __slots__ = ("spec", "cells")

    def __init__(self, spec: AlgebraSpec, cells: tuple[Leaf, ...]):
        self.spec = spec
        self.cells = cells

    @staticmethod
    def empty(spec: AlgebraSpec) -> "Cone":
        return Cone(spec, ())

    @staticmethod
    def from_leaves(spec: AlgebraSpec, leaves) -> "Cone":
        """The cone of outside cells: each is validated, and overlapping
        cells are normalised through their union."""
        cells = list(dict.fromkeys(leaves))
        for c in cells:
            check_leaf(spec, c)
        if not cells:
            return Cone.empty(spec)
        disjoint = all(
            not boxes_intersect(a, b) for a, b in itertools.combinations(cells, 2)
        )
        if not disjoint:
            # overlapping input: normalise through the union's point set
            cells = [
                cell
                for r in range(spec.roots)
                for mask, box in _sweep(spec, r, [cells])
                if mask
                for cell in _box_to_cells(spec, r, box)
            ]
        return Cone(spec, _contract_support(spec, set(cells)))

    def is_empty(self) -> bool:
        return not self.cells

    def volume(self) -> Fraction:
        return sum((c.volume() for c in self.cells), ZERO)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cone({len(self.cells)} cells)"


def cone_equals(u: Cone, v: Cone) -> bool:
    """Same point set: no box of the sweep over both supports lies in
    exactly one of them."""
    _same_spec(u, v)
    groups = [u.cells, v.cells]
    return all(
        mask in (0, 3) for r in range(u.spec.roots) for mask, _ in _sweep(u.spec, r, groups)
    )


def _same_spec(u: Cone, v: Cone) -> None:
    if u.spec != v.spec:
        raise ConeError("cones belong to different specs")


def cone_disjoint(u: Cone, v: Cone) -> bool:
    _same_spec(u, v)
    return not any(boxes_intersect(a, b) for a in u.cells for b in v.cells)


def cone_intersection(u: Cone, v: Cone) -> Cone:
    """Point-set intersection; plumbing beyond the disjoint-or-not test."""
    _same_spec(u, v)
    cells: list[Leaf] = []
    for a in u.cells:
        for b in v.cells:
            box = _box_intersection(a, b)
            if box is not None:
                cells.extend(_box_to_cells(u.spec, a.root, box))
    return Cone.from_leaves(u.spec, cells)


def cone_norm(u: Cone) -> int:
    """0 for the empty cone, else the representative in (0, d] of the
    support size mod d."""
    if u.is_empty():
        return 0
    # a split by colour c adds arity(c) - 1 = 0 (mod d) cells to a support
    return ((len(u.cells) - 1) % u.spec.d) + 1


def witness_basis(spec: AlgebraSpec, cones) -> tuple[Basis, list[list[Leaf]]]:
    """A basis containing every cone's support as a set of its cells.

    Requires pairwise disjoint supports.  Tries the supports plus a cell
    decomposition of the complement; if that partition is not admissible,
    falls back to a per-root full grid.
    """
    groups = [cone.cells for cone in cones]
    cover_cells = [c for group in groups for c in group]
    candidate = list(cover_cells)
    for r in range(spec.roots):
        for mask, box in _sweep(spec, r, groups):
            if mask & (mask - 1):
                raise ConeError("witness basis requires disjoint supports")
            if not mask:
                candidate.extend(_box_to_cells(spec, r, box))
    cert = _certificate(spec, candidate)
    basis = _grid_basis(spec, cover_cells) if cert is None else Basis(spec, candidate, cert)
    assignment: list[list[Leaf]] = [[] for _ in cones]
    for cell in basis.cells:
        for i, cone in enumerate(cones):
            if any(leaf_contains(s, cell) for s in cone.cells):
                assignment[i].append(cell)
                break
    return basis, assignment


def _grid_basis(spec: AlgebraSpec, cells) -> Basis:
    """Per-root full grids fine enough that every given cell is a grid union."""
    out: list[Leaf] = []
    for r in range(spec.roots):
        root = root_leaf(spec, r)
        exps = [relative_exponents(spec, root, c) for c in cells if c.root == r]
        grid = [root]
        for color in range(spec.num_colors):
            for _ in range(max((e[color] for e in exps), default=0)):
                grid = [child for g in grid for child in split_leaf(spec, g, color)]
        out.extend(grid)
    return Basis.from_cells_trusted(spec, out)


def act(g: Element, u: Cone) -> Cone:
    """The image cone; supports map leafwise through the diagram, onto
    disjoint cells of one basis, which are contracted unchecked."""
    if g.spec != u.spec:
        raise ConeError("element and cone belong to different specs")
    if u.is_empty():
        return u
    basis, assignment = witness_basis(u.spec, [u])
    mid = lub(basis, g.domain)
    to_image = _cell_images(g, mid)
    images = [
        to_image[cell]
        for cell in mid.cells
        if any(leaf_contains(s, cell) for s in u.cells)
    ]
    return Cone(u.spec, _contract_support(u.spec, images))


# ---------------------------------------------------------------------------
# tuples
# ---------------------------------------------------------------------------

class ConeTuple:
    """An ordered tuple of cones with recomputed covering/disjoint flags."""

    __slots__ = ("spec", "cones", "covering", "disjoint")

    def __init__(self, spec: AlgebraSpec, cones):
        self.spec = spec
        self.cones = tuple(cones)
        for c in self.cones:
            if c.spec != spec:
                raise ConeError("cone tuple mixes specs")
        groups = [cone.cells for cone in self.cones]
        masks = [mask for r in range(spec.roots) for mask, _ in _sweep(spec, r, groups)]
        self.covering = all(masks)
        # a cone's own cells are disjoint, so two bits mean two cones
        self.disjoint = not any(mask & (mask - 1) for mask in masks)

    def __len__(self) -> int:
        return len(self.cones)

    def __iter__(self):
        return iter(self.cones)


def act_tuple(g: Element, t: ConeTuple) -> ConeTuple:
    return ConeTuple(t.spec, [act(g, c) for c in t.cones])


def tuple_classify(t: ConeTuple) -> tuple[int, ...]:
    """The orbit invariant: the tuple of norms (zeros mark empty slots)."""
    if not (t.covering and t.disjoint):
        raise ConeError("classification requires a covering, disjoint tuple")
    return tuple(cone_norm(c) for c in t.cones)


def _representable(target: int, steps: list[int]) -> list[int] | None:
    """Write ``target`` as a nonnegative combination of ``steps``; returns
    per-step counts or None (small dynamic program)."""
    best: dict[int, list[int]] = {0: [0] * len(steps)}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for i, s in enumerate(steps):
                w = v + s
                if w > target or w in best:
                    continue
                counts = list(best[v])
                counts[i] += 1
                best[w] = counts
                nxt.append(w)
        frontier = nxt
    return best.get(target)


def tuple_witness(t1: ConeTuple, t2: ConeTuple) -> Element | None:
    """An element carrying t1 to t2 componentwise, when the invariants match.

    Supports are laid out on witness bases; component sizes agree mod d, so
    both sides' cone parts are padded by splitting cells until the counts
    match exactly, then the matched cells are paired off in canonical
    order.  Nothing reads the witness bases after the layout, so padding
    does not rebuild them.
    """
    if tuple_classify(t1) != tuple_classify(t2):
        return None
    spec = t1.spec
    _, parts1 = witness_basis(spec, list(t1.cones))
    _, parts2 = witness_basis(spec, list(t2.cones))
    steps = sorted({spec.arity(c) - 1 for c in range(spec.num_colors)})
    step_colors = {
        spec.arity(c) - 1: c for c in range(spec.num_colors - 1, -1, -1)
    }

    def pad(part: list[Leaf], combo: list[int]) -> None:
        for count, step in zip(combo, steps):
            color = step_colors[step]
            for _ in range(count):
                cell = canonical_order(part)[0]
                part.remove(cell)
                part.extend(split_leaf(spec, cell, color))

    for i in range(len(t1.cones)):
        a, b = len(parts1[i]), len(parts2[i])
        if a == b:
            continue
        target = max(a, b)
        while True:
            ca = _representable(target - a, steps)
            cb = _representable(target - b, steps)
            if ca is not None and cb is not None:
                break
            target += spec.d
        pad(parts1[i], ca)
        pad(parts2[i], cb)
    mapping: dict[Leaf, Leaf] = {}
    for cells1, cells2 in zip(parts1, parts2):
        mapping.update(zip(canonical_order(cells1), canonical_order(cells2)))
    return _from_mapping(spec, mapping)


def tuple_stabilizer_shape(t: ConeTuple) -> tuple[int, ...]:
    """Component support sizes on a common witness basis; the setwise
    stabiliser is the direct product of the groups over these sizes."""
    if not (t.covering and t.disjoint):
        raise ConeError("stabiliser shape requires a covering, disjoint tuple")
    _, parts = witness_basis(t.spec, list(t.cones))
    return tuple(len(p) for p in parts)


def stabilizer_shape_report(t: ConeTuple) -> str:
    ks = tuple_stabilizer_shape(t)
    return " x ".join(f"V_{k}(S)" for k in ks)


def disjointify(t: ConeTuple) -> ConeTuple:
    """Refine a covering tuple into the covering, disjoint tuple indexed by
    nonempty subsets of the components, in binary-counter order.

    Slot S collects the points lying in exactly the components of S: the
    grid cells of the sweep's boxes with mask S, which are valid and
    pairwise disjoint, so they are contracted unchecked.
    """
    if not t.covering:
        raise ConeError("disjointify requires a covering tuple")
    spec = t.spec
    n = len(t.cones)
    groups = [cone.cells for cone in t.cones]
    label_cells: dict[int, list[Leaf]] = {}
    for r in range(spec.roots):
        for mask, box in _sweep(spec, r, groups):
            if mask == 0:
                raise ConeError("covering flag inconsistent with cells")
            label_cells.setdefault(mask, []).extend(_box_to_cells(spec, r, box))
    slots = (label_cells.get(mask) for mask in range(1, 2**n))
    return ConeTuple(spec, [
        Cone(spec, _contract_support(spec, cells)) if cells else Cone.empty(spec) for cells in slots
    ])


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def cone_to_text(u: Cone) -> str:
    if u.is_empty():
        return "EMPTY\n"
    return "\n".join(leaf_to_text(c) for c in u.cells) + "\n"


def parse_cone_text(spec: AlgebraSpec, text: str) -> Cone:
    lines = [line for line in text.splitlines() if line.strip()]
    if lines == ["EMPTY"]:
        return Cone.empty(spec)
    return Cone.from_leaves(spec, [parse_leaf(spec, line) for line in lines])

"""Leaves, cuboids and admissible bases, with the expansion order.

A leaf is a root index plus one half-open interval per block; a basis is a
finite leaf set that partitions the root cuboids and is reachable from the
roots by splitting moves.  Every interval a splitting move produces is a
grid cell ``[k/N, (k+1)/N)`` with ``N`` a product of the block's arities,
so a leaf stores each interval as integers on that grid, and splitting,
containment, transport and relative exponents are exact integer
arithmetic.  ``Fraction`` remains only at the text boundary, in volumes, in
the read-only ``Leaf.intervals`` view and in the sort keys of cells finer
than ``SORT_SCALE``.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
from collections import deque
from fractions import Fraction

from .algebra import AlgebraSpec

ZERO = Fraction(0)
ONE = Fraction(1)
PATTERN_CACHE_LIMIT = 1 << 15  # entries of a spec's "patterns" memo, cleared when full
LEAF_CACHE_LIMIT = 1 << 15  # entries of a spec's "splits" and "parents" memos, cleared when full


class TermError(ValueError):
    """Malformed leaves, non-partitions, or misused operations."""


class ResourceCapError(RuntimeError):
    """An enumeration exceeded its configured cap."""


class Leaf:
    """A cuboid: root index plus one half-open interval per block.

    ``grid`` holds one integer triple ``(a, c, n)`` per block, the interval
    ``[a/n, c/n)`` with ``n > 0`` and ``gcd(a, c, n) == 1``.  A leaf that
    splitting moves can reach has ``c == a + 1`` in every block.  The
    constructor takes ``(lo, hi)`` pairs of rationals; ``intervals`` is the
    same data as ``Fraction`` pairs.  ``sort_key``, built once with the
    leaf, is ``key()`` flattened with every interval end times
    ``SORT_SCALE``: an ``int`` where ``n`` divides the scale, else the exact
    ``Fraction``, so comparing two keys compares the leaves exactly.
    """

    __slots__ = ("root", "grid", "_hash", "sort_key")

    def __init__(self, root: int, intervals):
        grid = []
        for lo, hi in intervals:
            n = math.lcm(lo.denominator, hi.denominator)
            grid.append(
                (lo.numerator * (n // lo.denominator), hi.numerator * (n // hi.denominator), n)
            )
        self.root = root
        self.grid = tuple(grid)
        self._hash = hash((root, self.grid))
        self.sort_key = _sort_key(root, self.grid)

    @property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((Fraction(a, n), Fraction(c, n)) for a, c, n in self.grid)

    def key(self):
        """Canonical order as ``Fraction``s: root, then per block interval
        lo then hi.  The reference that ``sort_key`` is checked against."""
        return (self.root, self.intervals)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Leaf)
            and self._hash == other._hash
            and self.root == other.root
            and self.grid == other.grid
        )

    def volume(self) -> Fraction:
        num = den = 1
        for a, c, n in self.grid:
            num *= c - a
            den *= n
        return Fraction(num, den)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ivs = " ".join(f"[{lo},{hi})" for lo, hi in self.intervals)
        return f"Leaf(root={self.root} {ivs})"


# Every leaf holds its key, so the scale is the least one that 32 splits by
# each bundled arity (2 and 3, mixed freely within a block) divide: an end
# then scales to an int of at most 83 bits, three 30-bit digits.  Deeper
# cells and other arities fall to exact Fractions.
SORT_SCALE = 2**32 * 3**32
_new_leaf = object.__new__
_by_sort_key = operator.attrgetter("sort_key")


def _sort_key(root: int, grid: tuple) -> tuple:
    """``Leaf.key`` flattened, with each interval end times SORT_SCALE."""
    out = [root]
    for a, c, n in grid:
        f, r = divmod(SORT_SCALE, n)
        if r:
            out += (Fraction(a * SORT_SCALE, n), Fraction(c * SORT_SCALE, n))
        else:
            out += (a * f, c * f)
    return tuple(out)


def _on_grid(root: int, grid: tuple) -> Leaf:
    """A leaf from grid triples that are already in lowest terms."""
    leaf = _new_leaf(Leaf)
    leaf.root = root
    leaf.grid = grid
    leaf._hash = hash((root, grid))
    leaf.sort_key = _sort_key(root, grid)
    return leaf


def _coord(a: int, c: int, n: int) -> tuple[int, int, int]:
    """The interval [a/n, c/n) as a grid triple in lowest terms."""
    g = math.gcd(a, c, n)
    return (a // g, c // g, n // g)


def canonical_order(cells) -> list[Leaf]:
    """Leaves of one spec sorted by ``Leaf.key``: one sort on the keys the
    leaves carry."""
    return sorted(cells, key=_by_sort_key)


def root_leaf(spec: AlgebraSpec, root: int) -> Leaf:
    """The spec's own leaf of root ``root``, one object per root."""
    roots = spec.cache("roots")
    if root not in roots:
        roots[root] = _on_grid(root, ((0, 1, 1),) * spec.num_blocks)
    return roots[root]


def _valid_coord(spec: AlgebraSpec, block_index: int, coord) -> bool:
    """Interval invariants: a cell [a/n, (a+1)/n) of the unit interval with
    n in the block's arity monoid."""
    a, c, n = coord
    if not (0 <= a and c == a + 1 and c <= n):
        return False
    exps = spec.blocks[block_index].exponents(n)
    return exps is not None and min(exps) >= 0


def check_leaf(spec: AlgebraSpec, leaf: Leaf) -> None:
    if not 0 <= leaf.root < spec.roots:
        raise TermError(f"root {leaf.root} out of range")
    if len(leaf.grid) != spec.num_blocks:
        raise TermError("leaf has wrong number of block coordinates")
    for bi, coord in enumerate(leaf.grid):
        if not _valid_coord(spec, bi, coord):
            lo, hi = leaf.intervals[bi]
            raise TermError(f"invalid interval [{lo},{hi}) in block {bi}")


def _bounded_memo(spec: AlgebraSpec, name: str, limit: int) -> dict:
    """The spec's memo ``name``, cleared first if it holds ``limit``
    entries."""
    cache = spec.cache(name)
    if len(cache) >= limit:
        cache.clear()
    return cache


def split_leaf(spec: AlgebraSpec, leaf: Leaf, color: int) -> tuple[Leaf, ...]:
    """The ordered children of ``leaf`` under one splitting move.

    Memoised per spec, so a cell split twice yields the same child objects
    and dict and set lookups of those children meet identical keys."""
    kids = spec.cache("splits").get((leaf, color))
    if kids is not None:
        return kids
    bi, n = spec.colors[color]
    a, c, m = leaf.grid[bi]
    w = c - a
    root, head, tail = leaf.root, leaf.grid[:bi], leaf.grid[bi + 1 :]
    lo, den = a * n, m * n
    if w == 1:
        # consecutive numerators are coprime: the children are in lowest terms
        kids = tuple(_on_grid(root, head + ((x, x + 1, den),) + tail) for x in range(lo, lo + n))
    else:
        kids = tuple(
            _on_grid(root, head + (_coord(lo + k * w, lo + (k + 1) * w, den),) + tail)
            for k in range(n)
        )
    _bounded_memo(spec, "splits", LEAF_CACHE_LIMIT)[leaf, color] = kids
    return kids


def leaf_contains(outer: Leaf, inner: Leaf) -> bool:
    if outer.root != inner.root:
        return False
    for (a, c, n), (b, d, m) in zip(outer.grid, inner.grid):
        # a/n <= b/m and d/m <= c/n
        if a * m > b * n or d * n > c * m:
            return False
    return True


def relative_exponents(spec: AlgebraSpec, outer: Leaf, inner: Leaf) -> tuple[int, ...] | None:
    """Per-colour split counts taking ``outer`` to ``inner``, or None.

    Exponents are read off the interval-width ratios; they are unique by
    multiplicative independence of each block's arities.  Also validates the
    relative alignment, i.e. that inner sits on outer's subdivision grid.
    """
    if not leaf_contains(outer, inner):
        return None
    out: list[int] = []
    for blk, (a, c, n), (b, d, m) in zip(spec.blocks, outer.grid, inner.grid):
        # width ratio ((c - a)/n) / ((d - b)/m) must be a product of arities
        ratio, rest = divmod((c - a) * m, (d - b) * n)
        if rest:
            return None
        exps = blk.exponents(ratio)
        if exps is None or min(exps) < 0:
            return None
        # the offset b/m - a/n must be a whole number of inner widths
        if (b * n - a * m) % ((d - b) * n):
            return None
        out.extend(exps)
    return tuple(out)


def transport(outer_from: Leaf, outer_to: Leaf, inner: Leaf) -> Leaf:
    """Carry ``inner`` (inside outer_from) to the cell with the same
    relative coordinates inside outer_to."""
    grid = []
    for (fa, fc, fn), (ta, tc, tn), (a, c, n) in zip(
        outer_from.grid, outer_to.grid, inner.grid
    ):
        # x -> ta/tn + (x - fa/fn) * ((tc - ta)/tn) / ((fc - fa)/fn),
        # over the common denominator n * tn * (fc - fa)
        base = ta * n * (fc - fa)
        scale = tc - ta
        grid.append(
            _coord(
                base + (a * fn - fa * n) * scale,
                base + (c * fn - fa * n) * scale,
                n * tn * (fc - fa),
            )
        )
    return _on_grid(outer_to.root, tuple(grid))


# ---------------------------------------------------------------------------
# admissible patterns
# ---------------------------------------------------------------------------

def _split_assignment(spec: AlgebraSpec, cuboid: Leaf, cells, color: int):
    """The children of ``cuboid`` under ``color`` with the cells inside
    each, or None if some cell lies in no single child.  The cells must lie
    inside ``cuboid``, so only the split block can cross a child boundary."""
    bi, n = spec.colors[color]
    a, c, m = cuboid.grid[bi]
    assignment = [[] for _ in range(n)]
    for cell in cells:
        # the child holding the cell's lower corner b/q is number
        # floor((b/q - a/m) / ((c - a)/(m n)))
        b, d, q = cell.grid[bi]
        k = (b * m - a * q) * n // ((c - a) * q)
        # child k ends at (a n + (k + 1)(c - a)) / (m n)
        if d * m * n > (a * n + (k + 1) * (c - a)) * q:
            return None
        assignment[k].append(cell)
    return split_leaf(spec, cuboid, color), assignment


def _admissible_pattern(spec: AlgebraSpec, cuboid: Leaf, cells: frozenset):
    """Certificate tree if ``cells`` is reachable from ``cuboid`` by splits,
    else None.  Backtracking over the first split colour, memoised: a greedy
    single-choice split is not assumed sufficient.
    """
    if not cells:
        # every split tree has a leaf, so an empty group covers no cuboid
        return None
    if len(cells) == 1 and cuboid in cells:
        return _LEAF
    cache = spec.cache("patterns")
    key = (cuboid, cells)
    if key in cache:
        return cache[key]
    result = None
    for color in range(spec.num_colors):
        split = _split_assignment(spec, cuboid, cells, color)
        if split is None:
            continue
        subtrees = []
        for part, sub in zip(*split):
            t = _admissible_pattern(spec, part, frozenset(sub))
            if t is None:
                break
            subtrees.append(t)
        else:
            result = ("split", color, tuple(subtrees))
            break
    _bounded_memo(spec, "patterns", PATTERN_CACHE_LIMIT)[key] = result
    return result


def _certificate(spec: AlgebraSpec, cells) -> dict[int, tuple] | None:
    """The split tree of each root's cells in ``cells``, or None if some
    root's cells are not an admissible pattern."""
    cert: dict[int, tuple] = {}
    for r in range(spec.roots):
        group = frozenset(c for c in cells if c.root == r)
        tree = _admissible_pattern(spec, root_leaf(spec, r), group)
        if tree is None:
            return None
        cert[r] = tree
    return cert


# ---------------------------------------------------------------------------
# split trees
# ---------------------------------------------------------------------------
#
# A split tree of a cuboid is ``("leaf",)`` or ``("split", colour, subtrees)``
# with one subtree per child of the split, in child order.  A tree says
# nothing about where its cuboid lies, so a subtree moves unchanged to any
# cell of the same shape.  Its leaves, depth first, are its leaf positions;
# a leaf may carry a label, ``("leaf", k)``, through clips and grafts.

_LEAF = ("leaf",)


def _tree_cells(spec: AlgebraSpec, cuboid: Leaf, tree: tuple, out: list, labels=None) -> None:
    """Append the cells that ``tree`` splits ``cuboid`` into, in leaf
    order, and each leaf's label to ``labels`` if given."""
    if tree[0] == "leaf":
        out.append(cuboid)
        if labels is not None:
            labels.append(tree[1])
        return
    for part, sub in zip(split_leaf(spec, cuboid, tree[1]), tree[2]):
        _tree_cells(spec, part, sub, out, labels)


def _graft(tree: tuple, subs) -> tuple:
    """``tree`` with its leaves replaced, in leaf order, by the subtrees
    the iterator ``subs`` yields."""
    if tree[0] == "leaf":
        return next(subs)
    return ("split", tree[1], tuple([_graft(sub, subs) for sub in tree[2]]))


def _push(spec: AlgebraSpec, tree: tuple, color: int) -> tuple:
    """A tree opening with ``color`` (j below) of the least refinement of
    ``tree`` that splits its cuboid by j.

    A leaf is split, each child keeping its label.  An inner node by
    another colour i pushes j into each child, which gives the i-then-j
    double split with subtrees at its cells, and then swaps the two
    levels: splits by distinct colours commute, within one block by the
    order-preserving identification of the n_i n_j cells and across
    blocks coordinate-wise."""
    if tree[0] == "leaf":
        return ("split", color, (tree,) * spec.arity(color))
    i = tree[1]
    if i == color:
        return tree
    grand = [_push(spec, kid, color)[2] for kid in tree[2]]
    bi, ni = spec.colors[i]
    bj, nj = spec.colors[color]
    if bi == bj:
        # cell m of the block is (k, l) = divmod(m, n_j) of i-then-j and
        # divmod(m, n_i) of j-then-i
        return ("split", color, tuple(
            ("split", i, tuple(grand[m // nj][m % nj] for m in range(l * ni, (l + 1) * ni)))
            for l in range(nj)
        ))
    return ("split", color, tuple(
        ("split", i, tuple(grand[k][l] for k in range(ni))) for l in range(nj)
    ))


def _merge(spec: AlgebraSpec, s: tuple, t: tuple) -> tuple:
    """A split tree of the least common refinement of two trees of one
    cuboid.  Where the roots split by different colours, ``t``'s colour is
    pushed into ``s``; so every node of ``t`` is a node of the result."""
    if s[0] == "leaf" or s is t:
        return t
    if t[0] == "leaf":
        return s
    color = t[1]
    if s[1] != color:
        s = _push(spec, s, color)
    return ("split", color, tuple(_merge(spec, x, y) for x, y in zip(s[2], t[2])))


def _clip(spec: AlgebraSpec, path: tuple, tree: tuple, out: list) -> None:
    """Append the part of ``tree`` below each leaf of ``path``, a tree of
    the same cuboid, in ``path``'s leaf order; the colours ``path`` splits
    by are pushed into ``tree`` where it opens otherwise."""
    if path[0] == "leaf":
        out.append(tree)
        return
    tree = _push(spec, tree, path[1])
    for p, t in zip(path[2], tree[2]):
        _clip(spec, p, t, out)


def is_admissible(spec: AlgebraSpec, leaves) -> tuple[bool, dict | None]:
    """Decide reachability-from-the-roots for a cuboid partition.

    Returns (flag, certificate); the certificate maps each root to its split
    tree and replays to the input.  Malformed leaves or a non-partition are
    errors, not False.
    """
    cells = list(leaves)
    for leaf in cells:
        check_leaf(spec, leaf)
    if len(set(cells)) != len(cells):
        raise TermError("repeated leaves")
    by_root: dict[int, list[Leaf]] = {r: [] for r in range(spec.roots)}
    for c in cells:
        by_root[c.root].append(c)
    for r, group in by_root.items():
        total = sum((c.volume() for c in group), ZERO)
        if total != ONE:
            raise TermError(f"leaves of root {r} do not have total volume 1")
        for a, b in itertools.combinations(group, 2):
            if boxes_intersect(a, b):
                raise TermError(f"overlapping leaves in root {r}")
    cert = _certificate(spec, cells)
    return cert is not None, cert


def cells_admissible(spec: AlgebraSpec, cells) -> bool:
    """Pattern-only admissibility for internally produced partitions."""
    return _certificate(spec, cells) is not None


def boxes_intersect(a: Leaf, b: Leaf) -> bool:
    if a.root != b.root:
        return False
    # per block [p/n, q/n) and [r/m, s/m) meet iff p/n < s/m and r/m < q/n
    return all(
        p * m < s * n and r * n < q * m
        for (p, q, n), (r, s, m) in zip(a.grid, b.grid)
    )


# ---------------------------------------------------------------------------
# Basis
# ---------------------------------------------------------------------------

class Basis:
    """An admissible leaf set, stored in canonical order (one sort on the
    leaves' ``sort_key``s), with a split tree per root.

    ``trees`` maps each root to a split tree that replays to the basis's
    cells on that root; the k-th leaf of the trees, root by root, is
    ``cells[leaf_order[k]]``.  ``expand``, ``replay_script``,
    ``max_elementary``, ``lub``, ``glb`` and the images and products of
    elements carry the trees they built, passing the cells in their leaf
    order.  Every other constructor (``from_cells``, ``from_cells_trusted``,
    ``roots`` and the bases of ``_search``: parsed bases, contractions,
    reductions, enumerations and cones) takes the canonical trees, the
    ``certificate``, and ``leaf_order`` is read off them on first use.
    The certificate is a function of the cells alone and is computed on
    first read when none is passed; enumerations and lower closures
    (``_search``) pass none, since their moves yield admissible cell sets
    only.
    """

    __slots__ = ("spec", "cells", "_cellset", "_index", "_cert", "_trees", "_order", "_hash")

    def __init__(self, spec: AlgebraSpec, cells, certificate: dict | None = None,
                 trees: dict | None = None):
        self.spec = spec
        self.cells: tuple[Leaf, ...] = tuple(canonical_order(cells))
        self._cellset = frozenset(self.cells)
        self._index: dict[Leaf, int] | None = None
        self._cert = certificate
        self._trees = trees
        self._order = None if trees is None else tuple(map(self.index_of, cells))
        self._hash = hash(self._cellset)
        d = spec.d
        if (len(self.cells) - spec.roots) % d != 0:
            raise TermError(
                f"basis size {len(self.cells)} violates size = roots mod {d}"
            )

    @property
    def certificate(self) -> dict:
        """The canonical split tree of each root's cells."""
        if self._cert is None:
            self._cert = _certificate(self.spec, self.cells)
        return self._cert

    @property
    def trees(self) -> dict:
        """A split tree of each root's cells: the carried one, else the
        certificate."""
        if self._trees is None:
            self._trees = self.certificate
        return self._trees

    @property
    def leaf_order(self) -> tuple[int, ...]:
        """The canonical index of each leaf position of ``trees``."""
        if self._order is None:
            cells: list[Leaf] = []
            for r in range(self.spec.roots):
                _tree_cells(self.spec, root_leaf(self.spec, r), self.trees[r], cells)
            self._order = tuple(map(self.index_of, cells))
        return self._order

    @staticmethod
    def from_cells(spec: AlgebraSpec, cells) -> "Basis":
        ok, cert = is_admissible(spec, cells)
        if not ok:
            raise TermError("leaf set is a partition but is not admissible")
        return Basis(spec, cells, cert)

    @staticmethod
    def from_cells_trusted(spec: AlgebraSpec, cells) -> "Basis":
        """Internal fast path for cell sets produced by our own moves, such
        as contractions and cone witnesses; the basis derives its
        certificate, and so its tree, from the cells.

        A successful pattern certificate already proves the partition
        property, so the quadratic disjointness pre-check is skipped.
        """
        cells = list(cells)
        cert = _certificate(spec, cells)
        if cert is None:
            raise TermError("cell set is not admissible")
        return Basis(spec, cells, cert)

    @staticmethod
    def roots(spec: AlgebraSpec) -> "Basis":
        cells = [root_leaf(spec, r) for r in range(spec.roots)]
        return Basis(spec, cells, {r: _LEAF for r in range(spec.roots)})

    def cellset(self) -> frozenset:
        return self._cellset

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def __contains__(self, leaf: Leaf) -> bool:
        return leaf in self._cellset

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Basis)
            and (self.spec is other.spec or self.spec == other.spec)
            and self._cellset == other._cellset
        )

    def __hash__(self) -> int:
        return self._hash

    def index_of(self, leaf: Leaf) -> int:
        if self._index is None:
            self._index = {c: i for i, c in enumerate(self.cells)}
        try:
            return self._index[leaf]
        except KeyError:
            raise ValueError("leaf not in basis") from None

    def __repr__(self) -> str:
        inner = "; ".join(leaf_to_text(c) for c in self.cells)
        return f"Basis[{inner}]"


def _require_same_spec(a: Basis, b: Basis) -> None:
    if a.spec is not b.spec and a.spec != b.spec:
        raise TermError("bases belong to different specs")


def expand(b: Basis, leaf: Leaf, color: int) -> Basis:
    """Replace ``leaf`` by its ordered children under ``color``; the split
    is grafted onto ``b``'s trees at the leaf's position."""
    if leaf not in b:
        raise TermError("leaf not in basis")
    spec = b.spec
    if not 0 <= color < spec.num_colors:
        raise TermError(f"invalid colour {color}")
    k = b.leaf_order.index(b.index_of(leaf))
    cells = [b.cells[i] for i in b.leaf_order]
    cells[k : k + 1] = split_leaf(spec, leaf, color)
    split = ("split", color, (_LEAF,) * spec.arity(color))
    subs = itertools.chain(itertools.repeat(_LEAF, k), (split,), itertools.repeat(_LEAF))
    trees = {r: _graft(b.trees[r], subs) for r in range(spec.roots)}
    return Basis(spec, cells, trees=trees)


def _parent(spec: AlgebraSpec, child: Leaf, color: int) -> Leaf | None:
    """The cell that one split by ``color`` has ``child`` as a child of, or
    None if there is no such cell; memoised per spec, None answers too."""
    parents = spec.cache("parents")
    key = (child, color)
    if key in parents:
        return parents[key]
    bi, n = spec.colors[color]
    # a child [a/m, (a+1)/m) has the parent [(a//n)/(m/n), (a//n + 1)/(m/n))
    a, c, m = child.grid[bi]
    parent = None
    if c == a + 1 and m % n == 0:
        coord = (a // n, a // n + 1, m // n)
        if _valid_coord(spec, bi, coord):
            parent = _on_grid(child.root, child.grid[:bi] + (coord,) + child.grid[bi + 1 :])
    _bounded_memo(spec, "parents", LEAF_CACHE_LIMIT)[key] = parent
    return parent


def parent_of_family(spec: AlgebraSpec, family, color: int) -> Leaf | None:
    """The parent leaf if ``family`` is a complete ordered sibling family
    along ``color``, else None."""
    fam = list(family)
    if len(fam) != spec.arity(color):
        return None
    parent = _parent(spec, fam[0], color)
    if parent is None or set(fam) != set(split_leaf(spec, parent, color)):
        return None
    return parent


def contract(b: Basis, family, color: int) -> Basis:
    """Replace a complete sibling family along ``color`` by its parent."""
    family = list(family)
    fam = set(family)
    if len(fam) != len(family):
        raise TermError("repeated leaf in family")
    if not fam <= b.cellset():
        raise TermError("family not contained in basis")
    if not 0 <= color < b.spec.num_colors:
        raise TermError(f"invalid colour {color}")
    parent = parent_of_family(b.spec, fam, color)
    if parent is None:
        raise TermError("not a complete sibling family for this colour")
    cells = set(b.cells) - fam
    cells.add(parent)
    return Basis.from_cells(b.spec, cells)  # strict: contractions can leave the window


def sibling_families(
    spec: AlgebraSpec, cells, images=None
) -> list[tuple[int, tuple[Leaf, ...], Leaf]]:
    """All (color, family, parent) contractions available in a cell set,
    in canonical order.  Given ``images``, a map from each cell to a cell,
    only the families whose images are the children of one cell by the
    same colour, child by child."""
    out = []
    cellset = set(cells)
    for color, (bi, n) in enumerate(spec.colors):
        # the n children of one parent share everything but their offset
        # in block bi, and that offset divided by n
        groups: dict[tuple, list[Leaf]] = {}
        for cell in cellset:
            a, c, m = cell.grid[bi]
            if c != a + 1 or m % n:
                continue
            key = (cell.root, cell.grid[:bi], cell.grid[bi + 1 :], a // n, m)
            if images is not None:
                # the image is the same child of an image parent
                img = images[cell]
                b, d, q = img.grid[bi]
                if d != b + 1 or q % n or b % n != a % n:
                    continue
                key += (img.root, img.grid[:bi], img.grid[bi + 1 :], b // n, q)
            groups.setdefault(key, []).append(cell)
        for group in groups.values():
            # n distinct cells under one key are all the children of one cell
            if len(group) == n:
                parent = _parent(spec, group[0], color)
                if parent is not None and (
                    images is None or _parent(spec, images[group[0]], color) is not None
                ):
                    group.sort(key=lambda x: x.grid[bi][0])
                    out.append((color, tuple(group), parent))
    # families of one colour are disjoint, so their first leaves order them
    out.sort(key=lambda t: (t[0], t[1][0].sort_key))
    return out


# ---------------------------------------------------------------------------
# the expansion order
# ---------------------------------------------------------------------------

def find_ancestor(a: Basis, leaf: Leaf) -> Leaf | None:
    """The cell of ``a`` that contains ``leaf``, by a linear scan, or None.
    Containment is as cuboids: the leaf need not be reachable from it."""
    for c in a.cells:
        if leaf_contains(c, leaf):
            return c
    return None


def leq(a: Basis, b: Basis) -> bool:
    """True iff b is reachable from a by splitting moves.

    Checked as: every b-leaf nests in an a-leaf with exact grid-compatible
    relative coordinates, and each a-leaf's restriction is an admissible
    pattern.  Mere cuboid refinement is not assumed sufficient.
    """
    _require_same_spec(a, b)
    return a == b or _split_walk(a, b) is not None


def _split_walk(a: Basis, b: Basis) -> list[tuple[Leaf, tuple[int, ...]]] | None:
    """Each b-leaf's ancestor in a with the per-colour split counts from
    it to the leaf, leaf by leaf, or None unless a <= b."""
    if len(a) > len(b):
        return None
    spec = a.spec
    grouped: dict[Leaf, list[Leaf]] = {c: [] for c in a.cells}
    paths = []
    for cell in b.cells:
        anc = find_ancestor(a, cell)
        if anc is None:
            return None
        exps = relative_exponents(spec, anc, cell)
        if exps is None:
            return None
        grouped[anc].append(cell)
        paths.append((anc, exps))
    for anc, cells in grouped.items():
        if _admissible_pattern(spec, anc, frozenset(cells)) is None:
            return None
    return paths


def lub(a: Basis, b: Basis) -> Basis:
    """The least upper bound in the expansion order, read off the merge of
    the two bases' split trees."""
    _require_same_spec(a, b)
    if a == b:
        return a
    spec = a.spec
    ta, tb = a.trees, b.trees
    trees = {r: _merge(spec, ta[r], tb[r]) for r in range(spec.roots)}
    cells: list[Leaf] = []
    for r, tree in trees.items():
        _tree_cells(spec, root_leaf(spec, r), tree, cells)
    # the lub refines a and b, so it is the one of them with as many cells
    for x in (a, b):
        if len(x) == len(cells):
            return x
    return Basis(spec, cells, trees=trees)


def lower_closure(b: Basis, cap: int | None = None) -> list[Basis]:
    """All bases C with roots <= C <= b, by contraction search from b."""
    return _search(b, _single_contractions, cap, "lower closure")


def _search(start: Basis, moves, cap: int | None, what: str) -> list[Basis]:
    """Every basis that ``moves`` reaches from ``start``, breadth first, in
    canonical order.  ``moves(b)`` yields admissible cell sets only: the
    search builds each new one as a basis and certifies none of them."""
    spec = start.spec
    seen = {start.cellset(): start}
    queue = deque([start])
    while queue:
        for cells in moves(queue.popleft()):
            if cells in seen:
                continue
            seen[cells] = nxt = Basis(spec, cells)
            if cap is not None and len(seen) > cap:
                raise ResourceCapError(f"{what} exceeded cap")
            queue.append(nxt)
    return _canonical_bases(seen.values())


def _canonical_bases(bases) -> list[Basis]:
    """Bases sorted by size, then by their leaves' ``Leaf.key`` tuples."""
    return sorted(bases, key=lambda x: (len(x), tuple(map(_by_sort_key, x.cells))))


def glb(a: Basis, b: Basis) -> Basis:
    """The greatest lower bound in the expansion order, the meet of the
    two bases' split trees.  Below a cuboid X holding the cells A of a and
    B of b, a common lower bound is the leaf X or a tree opening with a
    colour whose children each hold admissible parts of A and of B, with a
    common lower bound of the two parts below each child.  The glb is the
    join of them all: the split by each colour that passes, with the meets
    of its children, merged over the colours by ``_merge``, or the leaf X
    if no colour passes (as when X is a cell of a or b).  Each cuboid fixes
    its parts, so its meet is made once."""
    _require_same_spec(a, b)
    if a == b:
        return a
    spec = a.spec
    memo: dict[Leaf, tuple] = {}

    def meet(cuboid: Leaf, xs, ys) -> tuple:
        if cuboid in memo:
            return memo[cuboid]
        tree = _LEAF
        for color in range(spec.num_colors):
            sx = _split_assignment(spec, cuboid, xs, color)
            sy = sx and _split_assignment(spec, cuboid, ys, color)
            if sy is None:
                continue
            parts = [(p, frozenset(x), frozenset(y)) for p, x, y in zip(*sx, sy[1])]
            if all(_admissible_pattern(spec, p, x) and _admissible_pattern(spec, p, y)
                   for p, x, y in parts):
                tree = _merge(spec, tree, ("split", color, tuple(meet(*p) for p in parts)))
        memo[cuboid] = tree
        return tree

    trees, cells = {}, []
    for r in range(spec.roots):
        trees[r] = meet(root_leaf(spec, r), *([c for c in x.cells if c.root == r] for x in (a, b)))
        _tree_cells(spec, root_leaf(spec, r), trees[r], cells)
    return Basis(spec, cells, trees=trees)


def _split_paths(a: Basis, b: Basis) -> list[tuple[Leaf, tuple[int, ...]]]:
    """``_split_walk`` of a <= b; TermError if the bases are not comparable."""
    _require_same_spec(a, b)
    paths = _split_walk(a, b)
    if paths is None:
        raise TermError("bases are not comparable")
    return paths


def elementary_leq(a: Basis, b: Basis) -> bool:
    """a <= b with no colour repeated along any split path."""
    return all(max(exps) <= 1 for _, exps in _split_paths(a, b))


def very_elementary_leq(a: Basis, b: Basis) -> bool:
    """a <= b with every split path of length at most 1."""
    return all(sum(exps) <= 1 for _, exps in _split_paths(a, b))


def max_elementary(a: Basis) -> Basis:
    """Split every leaf once by every colour: the largest elementary
    refinement, of size len(a) * product of all arities.  One tree that
    splits by each colour in turn is grafted onto every leaf of a's trees."""
    spec = a.spec
    full = _LEAF
    for color in reversed(range(spec.num_colors)):
        full = ("split", color, (full,) * spec.arity(color))
    trees = {r: _graft(a.trees[r], itertools.repeat(full)) for r in range(spec.roots)}
    cells: list[Leaf] = []
    for r in range(spec.roots):
        _tree_cells(spec, root_leaf(spec, r), trees[r], cells)
    return Basis(spec, cells, trees=trees)


def elementary_core(a: Basis, b: Basis) -> Basis:
    """The largest elementary refinement of a that b still refines."""
    _require_same_spec(a, b)
    if a == b or not leq(a, b):
        raise TermError("requires a < b")
    return glb(max_elementary(a), b)


def enumerate_bases(spec: AlgebraSpec, max_size: int, cap: int | None = None) -> list[Basis]:
    """All bases above the roots with at most ``max_size`` leaves,
    deduplicated, in canonical order (breadth-first over single splits)."""
    if max_size < spec.roots:
        raise TermError("max_size smaller than the root basis")
    return _search(
        Basis.roots(spec), lambda b: _single_splits(b, max_size), cap, "basis enumeration"
    )


def _single_splits(b: Basis, max_size: int):
    """The cell sets of the bases one split of one leaf of ``b`` reaches,
    those with at most ``max_size`` leaves: the covers of ``b`` in the
    expansion order, restricted to that window.  Each is admissible, being
    reached from the roots by splits if ``b`` is."""
    spec = b.spec
    cells = b.cellset()
    for leaf in b.cells:
        rest = cells - {leaf}
        for color in range(spec.num_colors):
            if len(b) + spec.arity(color) - 1 <= max_size:
                yield rest.union(split_leaf(spec, leaf, color))


def _single_contractions(b: Basis):
    """The admissible cell sets one contraction of a sibling family of
    ``b`` gives; the others are dropped."""
    cells = b.cellset()
    for _, fam, parent in sibling_families(b.spec, b.cells):
        out = cells.difference(fam) | {parent}
        if cells_admissible(b.spec, out):
            yield out


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def _ratio_text(a: int, n: int) -> str:
    """a/n in lowest terms, as ``Fraction(a, n)`` would print its parts."""
    g = math.gcd(a, n)
    return f"{a // g}/{n // g}"


def leaf_to_text(leaf: Leaf) -> str:
    parts = [f"root:{leaf.root}"]
    for a, c, n in leaf.grid:
        parts.append(f"[{_ratio_text(a, n)},{_ratio_text(c, n)})")
    return " ".join(parts)


def basis_to_text(b: Basis) -> str:
    return "\n".join(leaf_to_text(c) for c in b.cells) + "\n"


def parse_leaf(spec: AlgebraSpec, line: str) -> Leaf:
    parts = line.split()
    if not parts or not parts[0].startswith("root:"):
        raise TermError(f"bad leaf line: {line!r}")
    try:
        root = int(parts[0][5:])
    except ValueError:
        raise TermError(f"bad leaf line: {line!r}") from None
    ivs = []
    for tok in parts[1:]:
        if not (tok.startswith("[") and tok.endswith(")")):
            raise TermError(f"bad interval token: {tok!r}")
        try:
            lo_s, hi_s = tok[1:-1].split(",")
            ivs.append((Fraction(lo_s), Fraction(hi_s)))
        except (ValueError, ZeroDivisionError):
            raise TermError(f"bad interval token: {tok!r}") from None
    leaf = Leaf(root, tuple(ivs))
    check_leaf(spec, leaf)
    return leaf


def parse_basis_text(spec: AlgebraSpec, text: str) -> Basis:
    cells = [parse_leaf(spec, line) for line in text.splitlines() if line.strip()]
    return Basis.from_cells(spec, cells)


def expansion_script(b: Basis) -> list[tuple[int, int]]:
    """A deterministic (leaf index, colour) script replaying the basis from
    the roots, derived from the admissibility certificate: each step splits
    the canonically first cell whose certificate subtree still splits."""
    spec = b.spec
    roots = [root_leaf(spec, r) for r in range(spec.roots)]
    keys = [c.sort_key for c in roots]  # the current cells, sorted
    trees = [b.certificate[r] for r in range(spec.roots)]
    pending = [x for x in zip(keys, roots, trees) if x[2][0] == "split"]  # cells still to split
    script: list[tuple[int, int]] = []
    while pending:
        k, cell, (_, color, subtrees) = heapq.heappop(pending)
        idx = bisect.bisect_left(keys, k)
        script.append((idx, color))
        del keys[idx]
        for child, sub in zip(split_leaf(spec, cell, color), subtrees):
            ck = child.sort_key
            bisect.insort(keys, ck)
            if sub[0] == "split":
                heapq.heappush(pending, (ck, child, sub))
    return script


def replay_script(spec: AlgebraSpec, script) -> Basis:
    """The basis a (leaf index, colour) script reaches from the roots, each
    index counted in the canonical order of the cells at its step.

    The current cells are kept sorted by their ``sort_key``s.  The splits
    are recorded and the split trees read off them, so only the final
    basis is built."""
    roots = [root_leaf(spec, r) for r in range(spec.roots)]
    cells = list(roots)  # the current cells, sorted
    splits: dict[Leaf, int] = {}  # each split cell and its colour
    for idx, color in script:
        if not 0 <= idx < len(cells):
            raise TermError(f"script index {idx} out of range")
        if not 0 <= color < spec.num_colors:
            raise TermError(f"invalid colour {color}")
        cell = cells.pop(idx)
        splits[cell] = color
        for child in split_leaf(spec, cell, color):
            bisect.insort(cells, child, key=_by_sort_key)

    def tree(cell: Leaf, out: list) -> tuple:
        if cell not in splits:
            out.append(cell)
            return _LEAF
        color = splits[cell]
        return ("split", color, tuple([tree(kid, out) for kid in split_leaf(spec, cell, color)]))

    ordered: list[Leaf] = []
    trees = {r: tree(root, ordered) for r, root in enumerate(roots)}
    return Basis(spec, ordered, trees=trees)


def script_to_text(script) -> str:
    return "".join(f"E {idx} {color}\n" for idx, color in script)


def parse_script_text(text: str) -> list[tuple[int, int]]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] != "E":
            raise TermError(f"bad script line: {line!r}")
        try:
            out.append((int(parts[1]), int(parts[2])))
        except ValueError:
            raise TermError(f"bad script line: {line!r}") from None
    return out

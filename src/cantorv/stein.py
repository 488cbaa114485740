"""Desk-scale complexes: the truncated chain complex of bases, descending
links, the labelled-subsets model complex, and simplicial homology.

Links of a basis A are computed combinatorially over A's leaf set: a link
vertex is a partition of the leaves into blocks, each block carrying the
set of colours split exactly once on the way back up (no repeats, so every
block of colour set S has exactly prod(arity) leaves).  Blocks are
unordered; comparisons are partition refinement with colour containment.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from operator import and_, or_

from .algebra import AlgebraSpec
from .terms import (
    Basis,
    TermError,
    _parent,
    _single_splits,
    _split_paths,
    enumerate_bases,
)


class ComplexError(ValueError):
    pass


# ---------------------------------------------------------------------------
# abstract simplicial complexes
# ---------------------------------------------------------------------------

class SimplicialComplex:
    """Face-closed abstract complex over hashable vertices.

    The vertices are listed once, sorted by their reprs, and each simplex is
    the increasing tuple of its vertices' indices in that list.  Each
    dimension's tuples are kept in lexicographic order, which orders
    simplices by the sorted reprs of their vertices.  ``simplices``, the
    same complex as lists of frozensets, is built on first read.

    The order follows reprs, not values: equal frozensets built in a
    different insertion order can have different reprs, and then list
    their simplices differently.  Code that builds link vertices inserts
    their blocks by least leaf, as ``link_vertices`` does.  ``flag``
    renders a frozenset vertex from memoised member reprs, which gives the
    same strings as long as equal members have equal reprs, as they do in
    every vertex the engine builds.

    The constructor raises ComplexError unless each simplex is listed in
    its own dimension and every face of it is listed too.
    """

    def __init__(self, simplices_by_dim: dict[int, list[frozenset]]):
        verts = sorted({v for ss in simplices_by_dim.values() for s in ss for v in s}, key=repr)
        index = {v: i for i, v in enumerate(verts)}
        self._verts = verts
        self._tuples = tuples = {
            d: sorted({tuple(sorted(index[v] for v in s)) for s in ss})
            for d, ss in simplices_by_dim.items()
            if ss
        }
        # the facets of every simplex suffice: their faces are checked in turn
        for d, ss in tuples.items():
            if any(len(s) != d + 1 for s in ss):
                raise ComplexError(f"a simplex listed in dimension {d} has another size")
            if d > 0:
                faces = set(tuples.get(d - 1, ()))
                if not all(f in faces for s in ss for f in itertools.combinations(s, d)):
                    raise ComplexError("the complex is not closed under faces")

    @classmethod
    def _of(cls, verts: list, tuples: dict[int, list[tuple]]) -> "SimplicialComplex":
        """A complex from vertices in repr order and each dimension's
        increasing index tuples in lexicographic order."""
        cx = cls.__new__(cls)
        cx._verts = verts
        cx._tuples = tuples
        return cx

    @cached_property
    def simplices(self) -> dict[int, list[frozenset]]:
        """Each dimension's simplices as frozensets of vertices, in order."""
        verts = self._verts
        return {
            d: [frozenset([verts[i] for i in s]) for s in ss] for d, ss in self._tuples.items()
        }

    @staticmethod
    def from_maximal(maximal) -> "SimplicialComplex":
        by_dim: dict[int, set[frozenset]] = {}
        for simplex in maximal:
            simplex = frozenset(simplex)
            for k in range(1, len(simplex) + 1):
                for face in itertools.combinations(sorted(simplex, key=repr), k):
                    by_dim.setdefault(k - 1, set()).add(frozenset(face))
        return SimplicialComplex({d: list(s) for d, s in by_dim.items()})

    @staticmethod
    def flag(vertices, neighbours) -> "SimplicialComplex":
        """All cliques of the graph where bit j of ``neighbours[i]`` or bit
        i of ``neighbours[j]`` joins vertices i and j.

        The vertices are put in repr order, by ``_reprs``, and each edge is
        kept as a bit of its lower end's mask of higher neighbours.  Cliques
        grow one dimension at a time, each by the vertices after its last
        one that are adjacent to all of it, so every dimension comes out in
        lexicographic order.  The result is face-closed by construction and
        is not checked again."""
        reprs = _reprs(vertices)
        order = sorted(range(len(reprs)), key=reprs.__getitem__)
        new = [0] * len(order)
        for k, i in enumerate(order):
            new[i] = k
        upper = [0] * len(order)
        for i, mask in enumerate(neighbours):
            a = new[i]
            for j in _bits(mask):
                b = new[j]
                if a < b:
                    upper[a] |= 1 << b
                elif b < a:
                    upper[b] |= 1 << a
        by_dim: dict[int, list[tuple]] = {}
        level = [((k,), mask) for k, mask in enumerate(upper)]
        while level:
            by_dim[len(by_dim)] = [c for c, _ in level]
            level = [(c + (j,), mask & upper[j]) for c, mask in level for j in _bits(mask)]
        return SimplicialComplex._of([vertices[i] for i in order], by_dim)

    def vertices(self) -> list:
        verts = self._verts
        return [verts[s[0]] for s in self._tuples.get(0, [])]

    def f_vector(self) -> dict[int, int]:
        return {d: len(s) for d, s in self._tuples.items()}

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(s) for d, s in self._tuples.items())

    def is_empty(self) -> bool:
        return not self._tuples

    def contains_simplex(self, s) -> bool:
        index = {v: i for i, v in enumerate(self._verts)}
        s = frozenset(s)
        if not s <= index.keys():
            return False
        key = tuple(sorted(index[v] for v in s))
        return key in set(self._tuples.get(len(key) - 1, []))

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        by_dim: dict[int, set[frozenset]] = {}
        mine = [frozenset()] + [s for ss in self.simplices.values() for s in ss]
        theirs = [frozenset()] + [s for ss in other.simplices.values() for s in ss]
        for a in mine:
            for b in theirs:
                s = a | b
                if s:
                    by_dim.setdefault(len(s) - 1, set()).add(s)
        return SimplicialComplex({d: list(s) for d, s in by_dim.items()})

    def barycentric_subdivision(self) -> "SimplicialComplex":
        faces = [s for ss in self._tuples.values() for s in ss]
        holding = _holding(faces)
        full = (1 << len(faces)) - 1
        neighbours = []
        for i, face in enumerate(faces):
            # the faces holding all its vertices, and those holding none it lacks
            up = reduce(and_, (holding[v] for v in face))
            lacked = reduce(or_, (mask for v, mask in holding.items() if v not in face), 0)
            neighbours.append((up | full & ~lacked) & ~(1 << i))
        verts = self._verts
        return SimplicialComplex.flag(
            [frozenset([verts[i] for i in face]) for face in faces], neighbours
        )

    def connected_components(self) -> int:
        parent = list(range(len(self._verts)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for a, b in self._tuples.get(1, []):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        return len({find(s[0]) for s in self._tuples.get(0, [])})


def _reprs(vertices) -> list[str]:
    """``[repr(v) for v in vertices]``, with the repr of each distinct
    member of the frozenset vertices taken once: a non-empty frozenset's
    repr joins its members' reprs, in iteration order, inside
    ``frozenset({...})``.  Equal members are taken to have equal reprs."""
    member = cache(repr)
    return [
        "frozenset({" + ", ".join(map(member, v)) + "})" if type(v) is frozenset and v
        else repr(v)
        for v in vertices
    ]


def _bits(mask: int):
    """The indices of the set bits of a non-negative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _holding(sets) -> dict:
    """Each element of some sets -> the bitset of the sets that hold it."""
    out: dict = {}
    for i, members in enumerate(sets):
        for x in members:
            out[x] = out.get(x, 0) | 1 << i
    return out


def complexes_isomorphic_via(
    a: SimplicialComplex, b: SimplicialComplex, vertex_map
) -> bool:
    """Check that vertex_map is a simplicial isomorphism a -> b."""
    images = [vertex_map(v) for v in a._verts]
    index = {v: i for i, v in enumerate(b._verts)}
    if len(set(images)) != len(images) or set(images) != set(b.vertices()):
        return False
    to_b = [index[v] for v in images]
    for d, simplices in a._tuples.items():
        bs = set(b._tuples.get(d, []))
        if len(simplices) != len(bs):
            return False
        for s in simplices:
            if tuple(sorted([to_b[i] for i in s])) not in bs:
                return False
    return True


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

@dataclass
class ChainComplexReport:
    betti_gf2: dict[int, int]
    betti_rational: dict[int, int] | None
    euler: int

    def reduced_vanishes(self) -> bool:
        return all(v == 0 for v in self.betti_gf2.values())


def _reduce_gf2(d: int, faces, pivots: dict[int, set[int]]) -> None:
    """Reduce the GF(2) boundary column of a d-simplex, given by the indices
    of its faces, against ``pivots`` (keyed by each column's largest face),
    and add it there unless it reduces to zero."""
    column = set(faces)
    while column:
        low = max(column)
        pivot = pivots.get(low)
        if pivot is None:
            pivots[low] = column
            return
        column ^= pivot


def _reduce_rational(d: int, faces, pivots: dict[int, dict[int, int]]) -> None:
    """The same over Q, by fraction-free elimination on ``{face: entry}``
    columns.  Faces come in ``itertools.combinations`` order, so the k-th
    omits vertex d - k and has sign (-1)^(d - k)."""
    column = {f: -1 if (d - k) % 2 else 1 for k, f in enumerate(faces)}
    while column:
        low = max(column)
        pivot = pivots.get(low)
        if pivot is None:
            pivots[low] = column
            return
        g = math.gcd(pivot[low], column[low])
        a, b = pivot[low] // g, column[low] // g
        new = {c: a * x for c, x in column.items()}
        for c, x in pivot.items():
            y = new.get(c, 0) - b * x
            if y:
                new[c] = y
            else:
                del new[c]
        g = math.gcd(*new.values())
        column = {c: x // g for c, x in new.items()} if g > 1 else new


def _boundary_ranks(simplices: dict[int, list[tuple]], reduce_column) -> dict[int, int]:
    """The rank of each boundary map of a non-empty complex, by column
    reduction from the top dimension down with clearing (Chen and Kerber,
    "Persistent homology computation with a twist", 2011): a d-simplex that
    is the pivot of a reduced (d+1)-column never gets a column.

    That is exact for plain ranks.  The reduced column R is a boundary, so
    ∂R = 0 puts the pivot's column in the span of the columns of R's other,
    smaller simplices; by induction every cleared column lies in the span
    of the built ones.  Dimension 0 bounds the empty simplex, rank 1."""
    ranks = {0: 1}
    cleared: dict = {}
    for d in range(max(simplices), 0, -1):
        index = {s: i for i, s in enumerate(simplices.get(d - 1, ()))}.__getitem__
        pivots: dict = {}
        for k, s in enumerate(simplices[d]):
            if k not in cleared:
                reduce_column(d, map(index, itertools.combinations(s, d)), pivots)
        ranks[d] = len(pivots)
        cleared = pivots
    return ranks


def homology(
    complex_: SimplicialComplex, rational: bool = False
) -> ChainComplexReport:
    """Reduced Betti numbers via boundary-matrix ranks.

    Exact elimination on sparse columns of face indices, with clearing
    (``_boundary_ranks``): over GF(2) by default, and over Q on demand, to
    catch 2-torsion masking.  Dimension -1 reports the reduced homology of
    the empty complex.  Raises ComplexError if the ranks give a negative
    Betti number, or if a rational Betti number is above the GF(2) one.
    """
    if complex_.is_empty():
        report = {-1: 1}
        return ChainComplexReport(
            betti_gf2=dict(report),
            betti_rational=dict(report) if rational else None,
            euler=0,
        )
    simplices = complex_._tuples
    sizes = {d: len(simplices.get(d, ())) for d in range(max(simplices) + 1)}

    def betti(reduce_column) -> dict[int, int]:
        ranks = _boundary_ranks(simplices, reduce_column)
        out = {d: n - ranks[d] - ranks.get(d + 1, 0) for d, n in sizes.items()}
        if any(b < 0 for b in out.values()):
            raise ComplexError("boundary ranks exceed the chain group sizes")
        return out

    betti_gf2 = betti(_reduce_gf2)
    betti_rat = None
    if rational:
        betti_rat = betti(_reduce_rational)
        if any(betti_rat[d] > betti_gf2[d] for d in betti_rat):
            raise ComplexError("a rational Betti number exceeds the GF(2) one")
    return ChainComplexReport(
        betti_gf2=betti_gf2,
        betti_rational=betti_rat,
        euler=complex_.euler_characteristic(),
    )


# ---------------------------------------------------------------------------
# the truncated complex of bases
# ---------------------------------------------------------------------------

def build_stein(spec: AlgebraSpec, size_cap: int, cap: int | None = None) -> SimplicialComplex:
    """The complex of bases over all bases with at most ``size_cap`` leaves
    above the roots: chains of expansions with an elementary bottom-to-top
    pair.

    That is the flag complex of "comparable and elementary": split counts
    add along a chain, so if q <= p <= l then exps(q->l) = exps(q->p) +
    exps(p->l) with both terms >= 0, and every pair of a chain whose ends
    are elementary is elementary too.

    Restricted to root-refining bases: the full poset of the algebra also
    has contraction-only vertices, which this window drops.
    """
    bases = enumerate_bases(spec, size_cap, cap=cap)
    n = len(bases)
    index = {b.cellset(): i for i, b in enumerate(bases)}
    # a <= b means b is reachable from a by single splits, all of them
    # inside the window, so the strict order is the transitive closure of
    # the covers; bases come by size, so the covers of i come after i
    above = [0] * n
    for i in range(n - 1, -1, -1):
        for cells in _single_splits(bases[i], size_cap):
            j = index[cells]
            above[i] |= (1 << j) | above[j]
    # i <= j is elementary unless a cell of i lies far above a cell of j;
    # the splits from i to j pass through bases of the window, so every
    # cell of i above a cell of j is reached by parents inside the window
    window: dict = {}
    own = [0] * n
    for i, b in enumerate(bases):
        for cell in b.cells:
            own[i] |= window.setdefault(cell, 1 << len(window))
    far = {cell: _far_above(spec, cell, window) for cell in window}
    far_below = [reduce(or_, (far[cell] for cell in b.cells)) for b in bases]
    return SimplicialComplex.flag(bases, [
        sum(1 << j for j in _bits(up) if not own[i] & far_below[j])
        for i, up in enumerate(above)
    ])


def _far_above(spec: AlgebraSpec, cell, window: dict) -> int:
    """The bitset of the ``window`` cells above a cell with some colour
    split at least twice on the way down to it, found by walking up through
    parents inside the window.  Split counts do not depend on the route, and
    once one of them reaches 2 every cell further up is far too."""
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
                out |= window[parent]
            stack.append((parent, up))
    return out


# ---------------------------------------------------------------------------
# link vertices: partitions into colour-labelled blocks
# ---------------------------------------------------------------------------

# a block is (frozenset of leaf positions, frozenset of colour indices);
# a vertex is a frozenset of blocks partitioning range(t)

def _block_sizes(spec: AlgebraSpec) -> dict[frozenset, int]:
    out = {}
    for k in range(1, spec.num_colors + 1):
        for colors in itertools.combinations(range(spec.num_colors), k):
            size = 1
            for c in colors:
                size *= spec.arity(c)
            out[frozenset(colors)] = size
    return out


def _block_choices(spec: AlgebraSpec) -> list[tuple[frozenset, int]]:
    """(colour set, leaf count) of every kind of block, the uncoloured
    singleton first and then by number and value of colours."""
    sizes = sorted(_block_sizes(spec).items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    return [(frozenset(), 1)] + sizes


def _partitions(leaves: frozenset, choices) -> list[tuple]:
    """The partitions of some leaf positions into blocks of the kinds in
    ``choices``, each a tuple of (leaves, colours) blocks by least leaf."""
    out: list[tuple] = []

    def rec(remaining: frozenset, blocks: tuple):
        if not remaining:
            out.append(blocks)
            return
        least = min(remaining)
        rest = remaining - {least}
        for colors, size in choices:
            if size - 1 > len(rest):
                continue
            for members in itertools.combinations(sorted(rest), size - 1):
                block = (frozenset((least,) + members), colors)
                rec(rest - set(members), blocks + (block,))

    rec(leaves, ())
    return out


def link_vertices(spec: AlgebraSpec, t: int, very: bool = False) -> list[frozenset]:
    """All contraction patterns of a t-leaf basis: partitions of the leaf
    positions into blocks, at least one of them coloured; ``very`` keeps
    single-colour blocks only."""
    choices = [(cs, n) for cs, n in _block_choices(spec) if not very or len(cs) <= 1]
    parts = [
        blocks for blocks in _partitions(frozenset(range(t)), choices)
        if any(cs for _, cs in blocks)
    ]
    # vertices sort by their sorted (leaves, colours) block lists; blocks
    # come by least leaf, which is already that order
    key = cache(lambda block: (sorted(block[0]), sorted(block[1])))
    parts.sort(key=lambda blocks: list(map(key, blocks)))
    return [frozenset(blocks) for blocks in parts]


def vertex_le(u: frozenset, v: frozenset) -> bool:
    """u <= v iff v refines u: every v-block nests in a u-block with a
    colour subset (u is the coarser basis)."""
    return all(any(ls <= owner and cs <= owner_cs for owner, owner_cs in u) for ls, cs in v)


def vertex_height(spec: AlgebraSpec, vertex: frozenset) -> tuple:
    """(c_s, ..., c_2, b) lexicographic: c_i counts leaves whose path back
    to their block root has length i."""
    s = spec.num_colors
    counts = [0] * (s + 1)
    for leaves, colors in vertex:
        counts[len(colors)] += len(leaves)
    c = tuple(counts[i] for i in range(s, 1, -1))
    return c + (len(vertex),)


def vertex_c(spec: AlgebraSpec, vertex: frozenset) -> tuple:
    return vertex_height(spec, vertex)[:-1]


def _order_masks(verts: list[frozenset], t: int) -> tuple[list[int], list[int]]:
    """For each vertex of the t-link, the bitsets over ``verts`` of the
    vertices coarser and finer than it, itself included: u <= v exactly
    when, at every leaf position, v's block nests in u's.  A position holds
    at most 33 distinct blocks at t = 6, nested as ``leaves | colours << t``."""
    members: list[dict[tuple, int]] = [{} for _ in range(t)]
    for i, v in enumerate(verts):
        for block in v:
            for p in block[0]:
                members[p][block] = members[p].get(block, 0) | 1 << i
    tables = []
    for at_p in members:
        coded = [(sum(1 << q for q in ls) | sum(1 << t + c for c in cs), mask)
                 for (ls, cs), mask in at_p.items()]
        table = {}
        for block, (a, _) in zip(at_p, coded):
            above = below = 0
            for b, mask in coded:
                if a & b == a:
                    above |= mask
                if a & b == b:
                    below |= mask
            table[block] = (above, below)
        tables.append(table)
    coarser, finer = [-1] * len(verts), [-1] * len(verts)
    for i, v in enumerate(verts):
        for block in v:
            for p in block[0]:
                above, below = tables[p][block]
                coarser[i] &= above
                finer[i] &= below
    return coarser, finer


def _order_complex(verts: list[frozenset], t: int) -> SimplicialComplex:
    """The order complex of some vertices of the t-link: its simplices are
    the chains of the refinement order."""
    coarser, finer = _order_masks(verts, t)
    return SimplicialComplex.flag(
        verts, [(c | f) & ~(1 << i) for i, (c, f) in enumerate(zip(coarser, finer))]
    )


def descending_link(spec: AlgebraSpec, t: int, very: bool = False) -> SimplicialComplex:
    """The order complex of proper contraction patterns of a t-leaf basis.

    Every vertex B satisfies |B| < t; chains automatically have elementary
    endpoints since all vertices sit below the basis elementarily.
    """
    return _order_complex(link_vertices(spec, t, very=very), t)


def very_elementary_link(spec: AlgebraSpec, t: int) -> SimplicialComplex:
    return descending_link(spec, t, very=True)


def coarsening_vertex(spec: AlgebraSpec, a: Basis, b: Basis) -> frozenset:
    """The link vertex of an actual elementary coarsening b of a."""
    blocks: dict[int, tuple[list[int], set[int]]] = {}
    for pos, (anc, exps) in enumerate(_split_paths(b, a)):
        if max(exps) > 1:
            raise TermError("not an elementary coarsening")
        entry = blocks.setdefault(b.index_of(anc), ([], set()))
        entry[0].append(pos)
        entry[1].update(c for c, e in enumerate(exps) if e == 1)
    return frozenset(
        (frozenset(leaves), frozenset(colors)) for leaves, colors in blocks.values()
    )


def height(a: Basis, b: Basis) -> tuple:
    """Height of an elementary coarsening, read off the actual bases."""
    spec = a.spec
    return vertex_height(spec, coarsening_vertex(spec, a, b))


@dataclass
class HLinkReport:
    vertex: frozenset
    case: str                      # "very-elementary", "i" or "ii"
    downlink: SimplicialComplex
    uplink: SimplicialComplex
    uplink_cone_witness: frozenset | None

    @cached_property
    def complex(self) -> SimplicialComplex:
        """The whole h-link, the join of downlink and uplink, built on first
        read."""
        return self.downlink.join(self.uplink)


def classify_vertex(spec: AlgebraSpec, vertex: frozenset) -> str:
    colored = [cs for _, cs in vertex if cs]
    if all(len(cs) <= 1 for cs in colored):
        return "very-elementary"
    if any(len(cs) == 1 for cs in colored):
        return "i"
    return "ii"


def _groupings(items: list) -> list[list[list]]:
    """The set partitions of a list, each a list of groups."""
    if not items:
        return [[]]
    first, out = items[0], []
    for rest in _groupings(items[1:]):
        out.append([[first]] + rest)
        out.extend(rest[:i] + [[first] + g] + rest[i + 1 :] for i, g in enumerate(rest))
    return out


def _by_least_leaf(blocks) -> frozenset:
    """A vertex from its blocks, inserted as ``link_vertices`` inserts them
    so that the vertex has the same repr."""
    return frozenset(sorted(blocks, key=lambda block: min(block[0])))


def _neighbourhood(spec: AlgebraSpec, t: int, vertex: frozenset):
    """The link vertices coarser and finer than a vertex of the t-link,
    itself excluded; ComplexError unless it is a vertex of that link."""
    choices = _block_choices(spec)
    kinds = dict(choices)
    leaves = [p for ls, _ in vertex for p in ls]
    if (
        sorted(leaves) != list(range(t))
        or any(kinds.get(cs) != len(ls) for ls, cs in vertex)
        or not any(cs for _, cs in vertex)
    ):
        raise ComplexError("vertex does not belong to the link")
    # coarser: merge each group of blocks into one block whose colours hold
    # all of theirs
    coarser = []
    for groups in _groupings(list(vertex)):
        merged = []
        for group in groups:
            ls = frozenset(sorted(p for b in group for p in b[0]))
            cs = frozenset().union(*(b[1] for b in group))
            merged.append([(ls, kind) for kind, n in choices if n == len(ls) and cs <= kind])
        coarser.extend(_by_least_leaf(blocks) for blocks in itertools.product(*merged))
    # finer: split each block into blocks with colours among its own
    finer = []
    for parts in itertools.product(*(
        _partitions(ls, [(kind, n) for kind, n in choices if kind <= cs]) for ls, cs in vertex
    )):
        blocks = [block for part in parts for block in part]
        if any(cs for _, cs in blocks):
            finer.append(_by_least_leaf(blocks))
    return [v for v in coarser if v != vertex], [v for v in finer if v != vertex]


def h_descending_link(spec: AlgebraSpec, t: int, vertex: frozenset) -> HLinkReport:
    """Split the height-descending link of a vertex of the t-link into the
    downlink (coarser, equal c-vector) and uplink (finer, smaller c-vector).

    Both are built from the vertex's own coarsenings and refinements, not
    from the whole t-link.  Every coarser vertex lies below every finer one
    through the vertex itself, so the order complex of down and up together
    is their join, which ``HLinkReport.complex`` builds when it is read.
    """
    coarser, finer = _neighbourhood(spec, t, vertex)
    h0 = vertex_height(spec, vertex)
    c0 = vertex_c(spec, vertex)
    down = [v for v in coarser if vertex_height(spec, v) <= h0]
    up = [v for v in finer if vertex_height(spec, v) <= h0]
    if any(vertex_c(spec, v) != c0 for v in down):
        raise ComplexError("coarser link vertex changed its c-vector")
    if not all(vertex_c(spec, v) < c0 for v in up):
        raise ComplexError("finer link vertex failed to drop c")
    witness = None
    case = classify_vertex(spec, vertex)
    if case == "i":
        kept = next(block for block in vertex if len(block[1]) == 1)
        witness = frozenset([kept] + [
            (frozenset((p,)), frozenset()) for block in vertex if block != kept for p in block[0]
        ])
        if witness not in up:
            raise ComplexError("case-i cone witness missing from the uplink")
    return HLinkReport(
        vertex=vertex,
        case=case,
        downlink=_order_complex(down, t),
        uplink=_order_complex(up, t),
        uplink_cone_witness=witness,
    )


# ---------------------------------------------------------------------------
# the model complex
# ---------------------------------------------------------------------------

def model_Kn(spec: AlgebraSpec, n: int) -> SimplicialComplex:
    """Vertices are colour-labelled subsets of an n-element set (a subset
    labelled by colour c has arity(c) members); simplices are pairwise
    disjoint families.  For a single colour of arity 2 this is the matching
    complex on n points."""
    vertices = []
    for color in range(spec.num_colors):
        k = spec.arity(color)
        if k > n:
            continue
        for members in itertools.combinations(range(n), k):
            vertices.append((color, frozenset(members)))
    holding = _holding(members for _, members in vertices)
    full = (1 << len(vertices)) - 1
    # a vertex's neighbours avoid each of its points
    return SimplicialComplex.flag(vertices, [
        full & ~reduce(or_, (holding[x] for x in members)) for _, members in vertices
    ])


def l0_matches_model(spec: AlgebraSpec, t: int) -> bool:
    """The very-elementary link is the barycentric subdivision of the model
    complex, via the labelled-subsets correspondence."""
    l0 = very_elementary_link(spec, t)
    model_sd = model_Kn(spec, t).barycentric_subdivision()

    def vmap(vertex):
        # a link vertex is a face of the model: its coloured blocks
        return frozenset(
            (min(cs), leaves) for leaves, cs in vertex if cs
        )

    return complexes_isomorphic_via(l0, model_sd, vmap)

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
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraSpec
from .terms import (
    Basis,
    TermError,
    elementary_leq,
    enumerate_bases,
    find_ancestor,
    leq,
    relative_exponents,
)


class ComplexError(ValueError):
    pass


# ---------------------------------------------------------------------------
# abstract simplicial complexes
# ---------------------------------------------------------------------------

class SimplicialComplex:
    """Face-closed abstract complex over hashable vertices."""

    def __init__(self, simplices_by_dim: dict[int, list[frozenset]]):
        self.simplices = {
            d: sorted(set(s), key=lambda s: sorted(repr(v) for v in s))
            for d, s in simplices_by_dim.items()
            if s
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
    def flag(vertices, compatible) -> "SimplicialComplex":
        """All cliques of the compatibility relation (which must be one
        whose simplices are determined pairwise, e.g. disjointness or
        comparability)."""
        verts = list(vertices)
        n = len(verts)
        adj = [set() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if compatible(verts[i], verts[j]):
                    adj[i].add(j)
                    adj[j].add(i)
        by_dim: dict[int, list[frozenset]] = {}
        cliques: list[tuple[int, ...]] = [(i,) for i in range(n)]
        while cliques:
            for c in cliques:
                by_dim.setdefault(len(c) - 1, []).append(
                    frozenset(verts[i] for i in c)
                )
            nxt = []
            for c in cliques:
                last = c[-1]
                options = set(range(last + 1, n))
                for i in c:
                    options &= adj[i]
                for j in sorted(options):
                    nxt.append(c + (j,))
            cliques = nxt
        return SimplicialComplex(by_dim)

    def dimension(self) -> int:
        return max(self.simplices, default=-1)

    def vertices(self) -> list:
        return [next(iter(s)) for s in self.simplices.get(0, [])]

    def f_vector(self) -> dict[int, int]:
        return {d: len(s) for d, s in self.simplices.items()}

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(s) for d, s in self.simplices.items())

    def is_empty(self) -> bool:
        return not self.simplices

    def contains_simplex(self, s) -> bool:
        s = frozenset(s)
        return s in set(self.simplices.get(len(s) - 1, []))

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
        faces = [s for ss in self.simplices.values() for s in ss]
        return SimplicialComplex.flag(
            faces, lambda a, b: a < b or b < a
        )

    def connected_components(self) -> int:
        verts = self.vertices()
        index = {v: i for i, v in enumerate(verts)}
        parent = list(range(len(verts)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for edge in self.simplices.get(1, []):
            a, b = sorted(index[v] for v in edge)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        return len({find(i) for i in range(len(verts))})


def complexes_isomorphic_via(
    a: SimplicialComplex, b: SimplicialComplex, vertex_map
) -> bool:
    """Check that vertex_map is a simplicial isomorphism a -> b."""
    averts = a.vertices()
    images = [vertex_map(v) for v in averts]
    if len(set(images)) != len(images):
        return False
    if set(images) != set(b.vertices()):
        return False
    for d, simplices in a.simplices.items():
        bs = set(b.simplices.get(d, []))
        if len(simplices) != len(bs):
            return False
        for s in simplices:
            if frozenset(vertex_map(v) for v in s) not in bs:
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


def _gf2_rank(rows: list[int]) -> int:
    rank = 0
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
            pivots.sort(reverse=True)
            rank += 1
    return rank


def _rational_rank(rows: list[list[Fraction]]) -> int:
    if not rows:
        return 0
    m = [r[:] for r in rows]
    cols = len(m[0])
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][c]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] / inv
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def homology(
    complex_: SimplicialComplex, rational: bool = False
) -> ChainComplexReport:
    """Reduced Betti numbers via boundary-matrix ranks.

    GF(2) elimination over bitmask rows by default; exact rational ranks on
    demand to catch 2-torsion masking.  Dimension -1 reports the reduced
    homology of the empty complex.
    """
    if complex_.is_empty():
        report = {-1: 1}
        return ChainComplexReport(
            betti_gf2=dict(report),
            betti_rational=dict(report) if rational else None,
            euler=0,
        )
    dims = sorted(complex_.simplices)
    top = max(dims)
    index: dict[int, dict[frozenset, int]] = {
        d: {s: i for i, s in enumerate(complex_.simplices[d])} for d in dims
    }
    orders: dict[frozenset, tuple] = {}
    for d in dims:
        for s in complex_.simplices[d]:
            orders[s] = tuple(sorted(s, key=repr))

    def boundary_rows_gf2(d: int) -> list[int]:
        if d == 0:
            return [1] * len(complex_.simplices[0])
        rows = []
        lower = index[d - 1]
        for s in complex_.simplices[d]:
            verts = orders[s]
            mask = 0
            for i in range(len(verts)):
                face = frozenset(verts[:i] + verts[i + 1 :])
                mask |= 1 << lower[face]
            rows.append(mask)
        return rows

    def boundary_rows_rational(d: int) -> list[list[Fraction]]:
        if d == 0:
            return [[Fraction(1)] for _ in complex_.simplices[0]]
        rows = []
        lower = index[d - 1]
        width = len(complex_.simplices[d - 1])
        for s in complex_.simplices[d]:
            verts = orders[s]
            row = [Fraction(0)] * width
            for i in range(len(verts)):
                face = frozenset(verts[:i] + verts[i + 1 :])
                row[lower[face]] = Fraction((-1) ** i)
            rows.append(row)
        return rows

    ranks_gf2 = {d: _gf2_rank(boundary_rows_gf2(d)) for d in range(top + 1)}
    betti_gf2 = {}
    for d in range(top + 1):
        n_d = len(complex_.simplices.get(d, []))
        null = n_d - ranks_gf2[d]
        betti_gf2[d] = null - ranks_gf2.get(d + 1, 0)
    betti_rat = None
    if rational:
        ranks_rat = {
            d: _rational_rank(boundary_rows_rational(d)) for d in range(top + 1)
        }
        betti_rat = {}
        for d in range(top + 1):
            n_d = len(complex_.simplices.get(d, []))
            betti_rat[d] = n_d - ranks_rat[d] - ranks_rat.get(d + 1, 0)
    report = ChainComplexReport(
        betti_gf2=betti_gf2,
        betti_rational=betti_rat,
        euler=complex_.euler_characteristic(),
    )
    if report.euler != complex_.euler_characteristic():
        raise ComplexError("euler characteristic self-check failed")
    return report


# ---------------------------------------------------------------------------
# the truncated complex of bases
# ---------------------------------------------------------------------------

def build_stein(spec: AlgebraSpec, size_cap: int, cap: int | None = None) -> SimplicialComplex:
    """Chains of expansions with an elementary bottom-to-top pair, over all
    bases with at most ``size_cap`` leaves above the roots.

    Restricted to root-refining bases: the full poset of the algebra also
    has contraction-only vertices, which this window drops.
    """
    bases = enumerate_bases(spec, size_cap, cap=cap)
    n = len(bases)
    less: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, a in enumerate(bases):
        for j, b in enumerate(bases):
            if i != j and len(a) <= len(b) and a != b and leq(a, b):
                less[i].append(j)
    elem: dict[tuple[int, int], bool] = {}

    def elementary(i: int, j: int) -> bool:
        if (i, j) not in elem:
            elem[(i, j)] = elementary_leq(bases[i], bases[j])
        return elem[(i, j)]

    by_dim: dict[int, list[frozenset]] = {0: [frozenset((b,)) for b in bases]}
    chains = [(i,) for i in range(n)]
    while chains:
        nxt = []
        for chain in chains:
            for j in less[chain[-1]]:
                if elementary(chain[0], j):
                    new = chain + (j,)
                    nxt.append(new)
                    by_dim.setdefault(len(new) - 1, []).append(
                        frozenset(bases[k] for k in new)
                    )
        chains = nxt
    return SimplicialComplex(by_dim)


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


def link_vertices(spec: AlgebraSpec, t: int, very: bool = False) -> list[frozenset]:
    """All contraction patterns of a t-leaf basis: partitions of the leaf
    positions into blocks, at least one of them coloured; ``very`` keeps
    single-colour blocks only."""
    sizes = _block_sizes(spec)
    if very:
        sizes = {cs: sz for cs, sz in sizes.items() if len(cs) == 1}
    choices = sorted(sizes.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    out: list[frozenset] = []

    def rec(remaining: frozenset, blocks: tuple):
        if not remaining:
            if any(cs for _, cs in blocks):
                out.append(frozenset(blocks))
            return
        least = min(remaining)
        rest = remaining - {least}
        rec(rest, blocks + ((frozenset((least,)), frozenset()),))
        for colors, size in choices:
            if size - 1 > len(rest):
                continue
            for members in itertools.combinations(sorted(rest), size - 1):
                block = (frozenset((least,) + members), colors)
                rec(rest - set(members), blocks + (block,))

    rec(frozenset(range(t)), ())
    return sorted(out, key=lambda v: sorted((sorted(ls), sorted(cs)) for ls, cs in v))


def vertex_le(u: frozenset, v: frozenset) -> bool:
    """u <= v iff v refines u: every v-block nests in a u-block with a
    colour subset (u is the coarser basis)."""
    if u == v:
        return True
    cover: dict[int, tuple] = {}
    for leaves, colors in u:
        for pos in leaves:
            cover[pos] = (leaves, colors)
    for leaves, colors in v:
        owner_leaves, owner_colors = cover[min(leaves)]
        if not (leaves <= owner_leaves and colors <= owner_colors):
            return False
    return True


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


def descending_link(spec: AlgebraSpec, t: int, very: bool = False) -> SimplicialComplex:
    """The order complex of proper contraction patterns of a t-leaf basis.

    Every vertex B satisfies |B| < t; chains automatically have elementary
    endpoints since all vertices sit below the basis elementarily.
    """
    verts = link_vertices(spec, t, very=very)
    return SimplicialComplex.flag(
        verts, lambda a, b: vertex_le(a, b) or vertex_le(b, a)
    )


def very_elementary_link(spec: AlgebraSpec, t: int) -> SimplicialComplex:
    return descending_link(spec, t, very=True)


def coarsening_vertex(spec: AlgebraSpec, a: Basis, b: Basis) -> frozenset:
    """The link vertex of an actual elementary coarsening b of a."""
    if not elementary_leq(b, a):
        raise TermError("not an elementary coarsening")
    blocks: dict[int, tuple[list[int], set[int]]] = {}
    for pos, cell in enumerate(a.cells):
        anc = find_ancestor(b, cell)
        anc_pos = b.index_of(anc)
        exps = relative_exponents(spec, anc, cell)
        entry = blocks.setdefault(anc_pos, ([], set()))
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
    complex: SimplicialComplex     # the join
    uplink_cone_witness: frozenset | None


def classify_vertex(spec: AlgebraSpec, vertex: frozenset) -> str:
    colored = [cs for _, cs in vertex if cs]
    if all(len(cs) <= 1 for cs in colored):
        return "very-elementary"
    if any(len(cs) == 1 for cs in colored):
        return "i"
    return "ii"


def h_descending_link(spec: AlgebraSpec, t: int, vertex: frozenset) -> HLinkReport:
    """Split the height-descending link of a vertex of the t-link into the
    downlink (coarser, equal c-vector) and uplink (finer, smaller c-vector);
    the whole link is their join."""
    verts = link_vertices(spec, t)
    if vertex not in set(verts):
        raise ComplexError("vertex does not belong to the link")
    h0 = vertex_height(spec, vertex)
    c0 = vertex_c(spec, vertex)
    down = []
    up = []
    for v in verts:
        if v == vertex:
            continue
        hv = vertex_height(spec, v)
        if hv > h0:
            continue
        if vertex_le(v, vertex):
            if vertex_c(spec, v) != c0:
                raise ComplexError("coarser link vertex changed its c-vector")
            down.append(v)
        elif vertex_le(vertex, v):
            if not vertex_c(spec, v) < c0:
                raise ComplexError("finer link vertex failed to drop c")
            up.append(v)
    comparable = lambda a, b: vertex_le(a, b) or vertex_le(b, a)
    down_c = SimplicialComplex.flag(down, comparable)
    up_c = SimplicialComplex.flag(up, comparable)
    witness = None
    case = classify_vertex(spec, vertex)
    if case == "i":
        kept = next(
            (leaves, cs) for leaves, cs in vertex if len(cs) == 1
        )
        blocks = [kept]
        for leaves, cs in vertex:
            if (leaves, cs) == kept:
                continue
            blocks.extend(((frozenset((p,)), frozenset()) for p in leaves))
        witness = frozenset(blocks)
        if witness not in set(up):
            raise ComplexError("case-i cone witness missing from the uplink")
    return HLinkReport(
        vertex=vertex,
        case=case,
        downlink=down_c,
        uplink=up_c,
        complex=down_c.join(up_c),
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
    return SimplicialComplex.flag(
        vertices, lambda a, b: not (a[1] & b[1])
    )


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

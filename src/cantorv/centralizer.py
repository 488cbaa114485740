"""Centralisers and normalisers of finite subgroups.

Pipeline: take the setwise-invariant basis the subgroup's closure settled
on, minimise it, split it into orbit types, and read off the centraliser's
factors: for each realized type, a locally finite kernel of label maps
glued along diagonal refinement, and a copy of the group over one root per
orbit of that type, acting diagonally.
``invariant_basis_report`` runs the first three steps once per subgroup.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .algebra import AlgebraSpec
from .cones import Cone, ConeTuple
from .elements import (
    Element,
    FiniteSubgroup,
    _carry,
    _from_mapping,
    _labelled,
    _perm_mul,
    equals,
    represent_on,
)
from .terms import (
    Basis,
    Leaf,
    TermError,
    _canonical_bases,
    _certificate,
    _require_same_spec,
    expand,
    find_ancestor,
    lub,
    parent_of_family,
    root_leaf,
    sibling_families,
    split_leaf,
    transport,
)


class BruteForceCapError(RuntimeError):
    """The normaliser's candidate permutations outnumber its cap."""


# ---------------------------------------------------------------------------
# group bookkeeping
# ---------------------------------------------------------------------------

def _conjugate(pi, g):
    """pi g pi^-1, which sends pi[i] to pi[g[i]]."""
    out = [0] * len(g)
    for i, v in enumerate(g):
        out[pi[i]] = pi[v]
    return tuple(out)


def _cycles(p) -> list[tuple[int, ...]]:
    """The cycles of a permutation, each from its least point."""
    out, seen = [], set()
    for i in range(len(p)):
        if i not in seen:
            cycle = [i]
            while p[cycle[-1]] != i:
                cycle.append(p[cycle[-1]])
            seen.update(cycle)
            out.append(tuple(cycle))
    return out


def _cycle_type(p) -> tuple[int, ...]:
    return tuple(sorted(map(len, _cycles(p))))


def _centralizer_order(cycle_type) -> int:
    """|C_{S_n}(p)| for p of the cycle type: the product of k^c c! over the
    cycle lengths k, c cycles of each."""
    return math.prod(k**c * math.factorial(c) for k, c in Counter(cycle_type).items())


def _conjugators(s, t):
    """Every permutation pi with pi s pi^-1 = t, each once.  Such a pi
    carries each cycle (a_0 ... a_{k-1}) of s onto a cycle of t of the same
    length, a_j to t^j(b) for some point b of it; so pi is a choice of the
    target cycle and of b, made cycle by cycle.  There are |C_{S_n}(s)| of
    them when s and t have one cycle type, and none otherwise."""
    cs, ct = _cycles(s), _cycles(t)
    pi = [0] * len(s)
    free = [True] * len(ct)

    def place(k):
        if k == len(cs):
            yield tuple(pi)
            return
        a = cs[k]
        for j, b in enumerate(ct):
            if free[j] and len(b) == len(a):
                free[j] = False
                for r in range(len(b)):
                    for x, y in zip(a, b[r:] + b[:r]):
                        pi[x] = y
                    yield from place(k + 1)
                free[j] = True

    return place(0)


def _generating_set(perms, first: int) -> list[int]:
    """Indices of elements that generate the group of ``perms``:
    ``first``, then each element, in order, that those before it do not
    generate.  The span is closed under left multiplication by the
    generators so far; a new generator multiplies all of it, and every
    generator multiplies what that adds."""
    gens: list[int] = []
    span = {tuple(range(len(perms[0])))}
    for i in (first, *range(len(perms))):
        if gens and (len(span) == len(perms) or perms[i] in span):
            continue
        gens.append(i)
        frontier = [p for p in (_perm_mul(perms[i], x) for x in span) if p not in span]
        span.update(frontier)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = _perm_mul(perms[g], x)
                if y not in span:
                    span.add(y)
                    frontier.append(y)
    return gens


# ---------------------------------------------------------------------------
# invariant bases
# ---------------------------------------------------------------------------

def invariant_basis(q: FiniteSubgroup) -> Basis:
    """A basis fixed setwise by every element of q: the one its closure
    settled on, which the generators and so every element permute by
    transport (see ``close_subgroup``)."""
    return q.basis


def _generator_perms(q: FiniteSubgroup, y: Basis) -> list[tuple[int, ...]] | None:
    """The generators' permutations of y's leaves, or None unless every
    element of q carries each leaf of y onto a leaf of y by transport.
    Such maps are closed under products and inverses, so the generators
    decide it for the whole group.  On q's own basis these are the
    permutations its closure certified."""
    if y == q.basis:
        return list(q.generator_perms)
    perms = []
    for g in q.generators:
        rep = represent_on(g, y)
        if rep is None or rep[0] != y:
            return None
        perms.append(rep[1])
    return perms


def _orbit(start: frozenset, maps) -> set[frozenset]:
    """The orbit of a set of positions under permutations of the positions."""
    orbit = {start}
    frontier = [start]
    while frontier:
        s = frontier.pop()
        for p in maps:
            image = frozenset(p[i] for i in s)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def minimize_invariant_basis(y: Basis, q: FiniteSubgroup) -> Basis:
    """The least invariant basis below y, by size and then canonically.

    Only orbit merges are searched: at an invariant basis, take a sibling
    family, close it under q's permutations of the basis, and contract
    the whole orbit at once.  This reaches every invariant basis below y.
    Let Z < Y both be invariant and take a derivation of Y from Z.  Its
    last split is a family F of Y-leaves, the children of a cell P inside
    a Z-leaf z.  Each g in q carries z onto a Z-leaf by transport, so it
    carries F onto the same-colour children of g(P), which are Y-leaves.
    If g(P) meets P, then g(z) = z, g is the identity on z, and g(F) = F.
    So the orbit of F is a set of disjoint same-colour families, at most
    one in each Z-leaf, and contracting all of them gives an invariant
    basis Y' with Z <= Y' < Y.  By induction on |Y| - |Z|, orbit merges
    lead from y to Z.  Orbits that are not disjoint families are skipped,
    and every contraction kept is certified and tested for invariance."""
    perms = _generator_perms(q, y)
    if perms is None:
        raise TermError("basis is not invariant")
    spec = y.spec
    seen = {y.cellset()}
    found = [y]
    stack = [(y, perms)]
    while stack:
        b, perms = stack.pop()
        for color, fam, _ in sibling_families(spec, b.cells):
            orbit = _orbit(frozenset(b.index_of(c) for c in fam), perms)
            gone = frozenset().union(*orbit)
            if len(gone) != len(fam) * len(orbit):
                continue
            parents = [
                parent_of_family(spec, [b.cells[i] for i in s], color) for s in orbit
            ]
            if None in parents:
                continue
            cells = b.cellset().difference(b.cells[i] for i in gone).union(parents)
            if cells in seen:
                continue
            seen.add(cells)
            cert = _certificate(spec, cells)
            if cert is None:
                continue
            cand = Basis(spec, cells, cert)
            cand_perms = _generator_perms(q, cand)
            if cand_perms is not None:
                found.append(cand)
                stack.append((cand, cand_perms))
    return _canonical_bases(found)[0]


# ---------------------------------------------------------------------------
# orbit types
# ---------------------------------------------------------------------------

@dataclass
class OrbitData:
    indices: tuple[int, ...]          # positions in Y, canonical order
    marked: int                       # least position
    stabilizer: frozenset[int]        # subgroup of Q fixing the marked leaf
    type_id: str = ""
    numbering: tuple[int, ...] = ()   # orbit letter k -> position in Y


@dataclass
class TypeData:
    type_id: str
    m: int                            # orbit length
    orbit_ids: tuple[int, ...]        # which orbits realize the type
    phi: list[tuple[int, ...]]        # each Q element's permutation of [m]

    @property
    def r(self) -> int:
        return len(self.orbit_ids)


@dataclass
class InvariantBasisReport:
    basis: Basis
    perms: list[tuple[int, ...]]      # each Q element's permutation of Y
    orbits: list[OrbitData]
    types: dict[str, TypeData]


def orbit_types(y: Basis, q: FiniteSubgroup) -> InvariantBasisReport:
    """Split an invariant basis into orbits and classify their types.

    The generators' permutations of y (``_generator_perms``, which also
    certifies that y is invariant) give every element's as a product
    along its word from the closure.  The action is faithful, so two
    elements with one permutation are refused.  ``perms`` holds the whole
    group, so a position's orbit is its set of images, and each position's
    stabiliser is read off once.  Types are the point stabilisers up to
    conjugacy: an orbit joins the first reference orbit some g carries
    onto a position with the orbit's marked stabiliser, since
    Stab(g r) = g Stab(r) g^-1.  The marked element of each orbit is its
    canonically least leaf, and every orbit of a type is numbered
    compatibly with the type's reference orbit, so one permutation
    representation serves all of them.
    """
    gen_perms = _generator_perms(q, y)
    if gen_perms is None:
        raise TermError("basis is not invariant under the subgroup")
    perms = q.perms_along_words(gen_perms)
    if len(set(perms)) != len(perms):
        raise TermError("two elements act by the same permutation")
    stab = [frozenset(gi for gi, p in enumerate(perms) if p[x] == x) for x in range(len(y))]
    seen: set[int] = set()
    orbits: list[OrbitData] = []
    for start in range(len(y)):
        if start not in seen:
            indices = tuple(sorted({p[start] for p in perms}))
            seen.update(indices)
            orbits.append(OrbitData(indices=indices, marked=start, stabilizer=stab[start]))

    types: dict[str, TypeData] = {}
    refs: list[OrbitData] = []  # the reference orbit of each type
    for oid, orb in enumerate(orbits):
        # the first reference orbit, and the least g0 for it, with
        # g0 stab(ref_marked) g0^-1 = stab(g0(ref_marked)) = stab(marked)
        assigned, g0 = next(((ref, g) for ref in refs for g, p in enumerate(perms)
                             if stab[p[ref.marked]] == orb.stabilizer), (None, None))
        if assigned is None:
            # new type: reference numbering is the canonical position order
            orb.numbering = orb.indices
            m = len(orb.indices)
            pos_to_letter = {pos: k for k, pos in enumerate(orb.numbering)}
            phi = [tuple(pos_to_letter[p[pos]] for pos in orb.numbering) for p in perms]
            if m == 1:
                tid = "trivial"
            elif len(orb.stabilizer) == 1 and m == len(perms):
                tid = "regular"
            else:
                tid = f"type{len(refs)}"
            orb.type_id = tid
            types[tid] = TypeData(type_id=tid, m=m, orbit_ids=(oid,), phi=phi)
            refs.append(orb)
        else:
            orb.type_id = assigned.type_id
            tdata = types[orb.type_id]
            # Transport the reference numbering through the equivariant
            # bijection sending t = g0(ref_marked) to marked, which exists
            # since stab(t) = stab(marked).
            t = perms[g0][assigned.marked]
            numbering = [0] * tdata.m
            pos_to_letter_ref = {pos: k for k, pos in enumerate(assigned.numbering)}
            for p in perms:
                numbering[pos_to_letter_ref[p[t]]] = p[orb.marked]
            orb.numbering = tuple(numbering)
            tdata.orbit_ids += (oid,)
    report = InvariantBasisReport(basis=y, perms=perms, orbits=orbits, types=types)
    _check_numbering(report)
    return report


def _check_numbering(report: InvariantBasisReport) -> None:
    """Every orbit's numbering must intertwine the type's representation."""
    for orb in report.orbits:
        tdata = report.types[orb.type_id]
        for p, phi in zip(report.perms, tdata.phi):
            for k in range(tdata.m):
                if p[orb.numbering[k]] != orb.numbering[phi[k]]:
                    raise TermError("orbit numbering fails equivariance")


def invariant_basis_report(q: FiniteSubgroup) -> InvariantBasisReport:
    """The orbit types of q on its minimal invariant basis, built on the
    first call and kept on q, so every later caller shares it."""
    if "report" not in q._cache:
        y = minimize_invariant_basis(invariant_basis(q), q)
        q._cache["report"] = orbit_types(y, q)
    return q._cache["report"]


def _in_letter_centralizer(lab, tdata: TypeData) -> bool:
    """Whether a letter map commutes with every permutation of the type's
    image."""
    return all(_perm_mul(lab, g) == _perm_mul(g, lab) for g in tdata.phi)


def type_centralizer_L(
    report: InvariantBasisReport, type_id: str
) -> tuple[tuple[int, ...], ...]:
    """All permutations of the orbit letters commuting with the type's
    representation, sorted.

    The image P is transitive; let P_1 be the stabiliser of letter 0.  A
    commuting c is determined by f = c(0), as c(g(0)) = g(f) for g in P,
    and P_1 fixes f, as h(f) = c(h(0)) = f for h in P_1.  Conversely each
    f in Fix(P_1) gives one, c_f: g(0) -> g(f), well defined because
    g(0) = h(0) puts g^-1 h in P_1, which fixes f (Dixon and Mortimer,
    "Permutation Groups", Thm 4.2A).  The work is O(m |P|).
    """
    tdata = report.types[type_id]
    image = set(tdata.phi)
    fixed = [f for f in range(tdata.m) if all(g[f] == f for g in image if g[0] == 0)]
    out = []
    for f in fixed:
        c_f = {g[0]: g[f] for g in image}
        out.append(tuple(c_f[k] for k in range(tdata.m)))
    return tuple(sorted(out))


@dataclass
class TypeFactor:
    type_id: str
    m: int
    r: int
    L: tuple[tuple[int, ...], ...]


@dataclass
class CentralizerStructure:
    spec: AlgebraSpec
    report: InvariantBasisReport
    factors: list[TypeFactor]
    d: int

    def statement(self) -> str:
        parts = [f"(K[{f.type_id}] x| V_{f.r})" for f in self.factors]
        return "C = " + " x ".join(parts)

    def lines(self) -> list[str]:
        out = [f"t_realized={len(self.factors)}"]
        for f in self.factors:
            perm_list = " ".join(",".join(str(v) for v in p) for p in f.L)
            out.append(
                f"type={f.type_id} m={f.m} r={f.r} |L|={len(f.L)} L={perm_list}"
            )
        out.append(self.statement())
        out.append(
            f"note: raw orbit counts reported; counts mod d={self.d} lie in (0, d]"
        )
        return out


def centralizer_structure(q: FiniteSubgroup) -> CentralizerStructure:
    report = invariant_basis_report(q)
    factors = [
        TypeFactor(
            type_id=tid,
            m=tdata.m,
            r=tdata.r,
            L=type_centralizer_L(report, tid),
        )
        for tid, tdata in report.types.items()
    ]
    return CentralizerStructure(
        spec=q.spec, report=report, factors=factors, d=q.spec.d
    )


# ---------------------------------------------------------------------------
# kernel elements and lifts
# ---------------------------------------------------------------------------

def quotient_spec(spec: AlgebraSpec, r: int) -> AlgebraSpec:
    return AlgebraSpec(r, spec.blocks)


@dataclass
class KernelElement:
    """A basis over the type quotient with one letter-centralising label
    per leaf; equal elements are related by diagonal refinement."""

    qspec: AlgebraSpec
    basis: Basis
    labels: dict[Leaf, tuple[int, ...]]

    def __post_init__(self) -> None:
        if set(self.labels) != set(self.basis.cells):
            raise TermError("labels must cover exactly the basis leaves")
        for lab in self.labels.values():
            if sorted(lab) != list(range(len(lab))):
                raise TermError(f"label {lab} is not a permutation")


def expand_kernel(k: KernelElement, leaf: Leaf, color: int) -> KernelElement:
    """Diagonal refinement: children inherit the parent's label."""
    basis = expand(k.basis, leaf, color)
    labels = dict(k.labels)
    lab = labels.pop(leaf)
    for child in split_leaf(k.qspec, leaf, color):
        labels[child] = lab
    return KernelElement(k.qspec, basis, labels)


def kernel_equals(a: KernelElement, b: KernelElement) -> bool:
    """Equality in the glued system: same labels over a common refinement."""
    common = lub(a.basis, b.basis)
    for cell in common.cells:
        la = a.labels[find_ancestor(a.basis, cell)]
        lb = b.labels[find_ancestor(b.basis, cell)]
        if la != lb:
            return False
    return True


def kernel_action(v: Element, k: KernelElement) -> KernelElement:
    """The quotient group acts by carrying labels along the diagram: k's
    trees, each leaf labelled by its letter map, carried by v."""
    _require_same_spec(v.domain, k.basis)
    trees, cells, labels = _carry(v, _labelled(k.basis, k.labels.__getitem__))
    return KernelElement(k.qspec, Basis(k.qspec, cells, trees=trees), dict(zip(cells, labels)))


def _diagonal(report: InvariantBasisReport, moves) -> Element:
    """The element acting diagonally across the orbit copies of each type
    listed in ``moves``, a dict from type id to (a, b, lab) triples of
    quotient cells and a letter map: letter k of a goes to letter lab[k]
    of b.  Letter k of a quotient cell under root j is the same cell
    carried into the Y-leaf at letter k of the type's orbit j, position
    ``numbering[k]`` of that orbit.  The leaves of every other type are
    fixed."""
    spec, cells = report.basis.spec, report.basis.cells
    mapping = {cells[pos]: cells[pos] for orb in report.orbits
               if orb.type_id not in moves for pos in orb.indices}
    for tid, triples in moves.items():
        tdata = report.types[tid]
        qspec = quotient_spec(spec, tdata.r)
        letters = [
            (root_leaf(qspec, j), [cells[pos] for pos in report.orbits[oid].numbering])
            for j, oid in enumerate(tdata.orbit_ids)
        ]
        for a, b, lab in triples:
            a_root, a_letters = letters[a.root]
            b_root, b_letters = letters[b.root]
            for k, l in enumerate(lab):
                mapping[transport(a_root, a_letters[k], a)] = transport(b_root, b_letters[l], b)
    return _from_mapping(spec, mapping)


def build_kernel_element(
    report: InvariantBasisReport, type_id: str, k: KernelElement
) -> Element:
    """Realize a kernel element as an automorphism: inside every orbit copy
    of the quotient leaf a, permute the copies by a's label; fix the rest."""
    spec = report.basis.spec
    tdata = report.types[type_id]
    if k.qspec.roots != tdata.r or k.qspec.blocks != spec.blocks:
        raise TermError("kernel element is over the wrong quotient")
    for lab in k.labels.values():
        if len(lab) != tdata.m:
            raise TermError("label degree does not match the orbit length")
        if not _in_letter_centralizer(lab, tdata):
            raise TermError(f"label {lab} is not in the letter centraliser of type {type_id}")
    return _diagonal(report, {type_id: [(a, a, k.labels[a]) for a in k.basis.cells]})


def encode_kernel_element(k: KernelElement, letters) -> ConeTuple:
    """The covering cone tuple indexed by a fixed order on the labels:
    slot s is the cone of leaves labelled s, so every label must be one of
    the letters."""
    for lab in k.labels.values():
        if lab not in letters:
            raise TermError(f"label {lab} is not among the letters")
    cones = []
    for s in letters:
        cells = [a for a in k.basis.cells if k.labels[a] == s]
        cones.append(Cone.from_leaves(k.qspec, cells))
    return ConeTuple(k.qspec, cones)


def splitting_lift(
    report: InvariantBasisReport, type_id: str, v: Element
) -> Element:
    """Lift a quotient element diagonally across the orbits of one type."""
    spec = report.basis.spec
    tdata = report.types[type_id]
    if v.spec.roots != tdata.r or v.spec.blocks != spec.blocks:
        raise TermError("element is over the wrong quotient")
    same = tuple(range(tdata.m))
    return _diagonal(report, {type_id: [
        (d, v.range.cells[v.perm[i]], same) for i, d in enumerate(v.domain.cells)
    ]})


# ---------------------------------------------------------------------------
# normalisers
# ---------------------------------------------------------------------------

@dataclass
class NormalizerReport:
    basis: Basis
    sy_order: int
    normalizer_order: int
    centralizer_order: int
    weyl_order: int
    coset_reps: tuple[tuple[int, ...], ...]

    def lines(self) -> list[str]:
        return [
            f"|Y|={len(self.basis)} |S(Y)|={self.sy_order}",
            f"|N_S(Y)(Q)|={self.normalizer_order} |C_S(Y)(Q)|={self.centralizer_order}",
            f"weyl={self.weyl_order}",
            "coset_reps="
            + " ".join(",".join(str(v) for v in p) for p in self.coset_reps),
        ]


def normalizer_analysis(q: FiniteSubgroup, cap: int = 40320) -> NormalizerReport:
    """Normaliser, centraliser and Weyl group of Q inside S(Y), the setwise
    stabiliser of the minimal invariant basis Y; ``cap`` bounds the number
    of candidates tested.

    A normalising pi conjugates an image element s to an image element t
    of s's cycle type, so the candidates are the conjugators of s to each
    such t, for the s that makes them fewest: |C_{S_n}(s)| per t.  They
    are distinct, so never more than |Y|!, the size of a scan.  A
    candidate normalises when it conjugates a generating set of the image
    that includes s into the image: it then conjugates the whole image
    into it, and conjugation is injective.  It centralises when it fixes
    each of those generators.  The coset representatives are the least
    element of each coset of C in N.

    The Weyl group of Q in V can be larger: expanding a whole orbit
    changes the orbit-type counts, so V may realise an automorphism of Q
    that swaps types whose counts differ in Y."""
    report = invariant_basis_report(q)
    y = report.basis
    perms = report.perms
    image = set(perms)
    by_type: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for p in image:
        by_type.setdefault(_cycle_type(p), []).append(p)
    candidates = {ct: _centralizer_order(ct) * len(ps) for ct, ps in by_type.items()}
    si = min(range(len(perms)), key=lambda gi: candidates[_cycle_type(perms[gi])])
    fewest = min(candidates.values())
    if fewest > cap:
        raise BruteForceCapError(f"{fewest} normaliser candidates exceed cap {cap}")
    gens = [perms[gi] for gi in _generating_set(perms, si)]
    normal: list[tuple[int, ...]] = []
    central: list[tuple[int, ...]] = []
    for t in by_type[_cycle_type(gens[0])]:
        for pi in _conjugators(gens[0], t):
            conj = [_conjugate(pi, g) for g in gens]
            if all(c in image for c in conj):
                normal.append(pi)
                if conj == gens:
                    central.append(pi)
    normal.sort()
    reps: list[tuple[int, ...]] = []
    covered: set[tuple[int, ...]] = set()
    for p in normal:
        if p in covered:
            continue
        reps.append(p)
        covered |= {_perm_mul(p, c) for c in central}
    return NormalizerReport(
        basis=y,
        sy_order=math.factorial(len(y)),
        normalizer_order=len(normal),
        centralizer_order=len(central),
        weyl_order=len(normal) // len(central),
        coset_reps=tuple(reps),
    )


def decompose_fixing_element(report: InvariantBasisReport, x: Element):
    """Attempt to split a centralising element that fixes the invariant
    basis setwise into per-type (kernel labels, root permutation) data.

    Returns {type_id: (labels per quotient root, root permutation)} and
    verifies the reconstruction; None when x does not fix the basis, does
    not centralise, or its letter maps leave the letter centralisers.
    Each Y position is looked up once in the types' letter index, and a
    letter map is in the letter centraliser when it commutes with the
    type's whole image.  Membership testing beyond basis-fixing elements
    is not attempted.
    """
    y = report.basis
    rep = represent_on(x, y)
    if rep is None or rep[0] != y:
        return None
    perm = rep[1]
    if any(_perm_mul(perm, p) != _perm_mul(p, perm) for p in report.perms):
        return None
    letter_at = {
        pos: (j, k)
        for tdata in report.types.values()
        for j, oid in enumerate(tdata.orbit_ids)
        for k, pos in enumerate(report.orbits[oid].numbering)
    }
    out: dict[str, tuple[tuple, tuple]] = {}
    moves = {}
    for tid, tdata in report.types.items():
        # x commutes with Q and keeps each point's stabiliser, so it carries
        # the type's orbits onto one another, each onto one
        targets = [
            [letter_at[perm[pos]] for pos in report.orbits[oid].numbering]
            for oid in tdata.orbit_ids
        ]
        root_perm = tuple(t[0][0] for t in targets)
        labels = tuple(tuple(k for _, k in t) for t in targets)
        if not all(_in_letter_centralizer(lab, tdata) for lab in labels):
            return None
        out[tid] = (labels, root_perm)
        roots = Basis.roots(quotient_spec(y.spec, tdata.r)).cells
        moves[tid] = [(roots[j], roots[root_perm[j]], labels[j]) for j in range(tdata.r)]
    if not equals(_diagonal(report, moves), x):
        return None
    return out

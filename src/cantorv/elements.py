"""Group elements as basis-pair diagrams with a leaf bijection.

An element is (domain basis, range basis, permutation); the automorphism
sends the i-th domain leaf (canonical order) to the perm[i]-th range leaf,
extending to finer cells by relative-coordinate transport.  Composition is
right-to-left: (g * h)(u) = g(h(u)).
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field

from .algebra import AlgebraSpec
from .terms import (
    Basis,
    cells_admissible,
    Leaf,
    TermError,
    check_leaf,
    expansion_script,
    find_ancestor,
    lub,
    parse_script_text,
    relative_exponents,
    replay_script,
    root_leaf,
    script_to_text,
    sibling_families,
    split_leaf,
    transport,
    _certificate,
    _clip,
    _graft,
    _merge,
    _parent,
    _require_same_spec,
    _tree_cells,
)


class CapExceededError(RuntimeError):
    """Subgroup closure went past its cap: infinite or large subgroup."""


class IterationCapExceededError(RuntimeError):
    """A subgroup's generator-invariant basis iteration settled on a basis
    the generators do not permute: a model violation."""


# Rounds the generator-invariant basis iteration may take before the
# subgroup is refused as infinite or out of reach.
INVARIANT_BASIS_ROUNDS = 64


UNKNOWN = "unknown"


class Element:
    """An automorphism given by a pair of equal-size bases and a bijection."""

    __slots__ = ("spec", "domain", "range", "perm", "_hash")

    def __init__(self, spec: AlgebraSpec, domain: Basis, range_: Basis, perm):
        if (domain.spec is not spec and domain.spec != spec) or (
            range_.spec is not spec and range_.spec != spec
        ):
            raise TermError("element bases belong to a different spec")
        if len(domain) != len(range_):
            raise TermError("domain and range have different sizes")
        perm = tuple(perm)
        if sorted(perm) != list(range(len(domain))):
            raise TermError("map is not a bijection of leaf indices")
        self.spec = spec
        self.domain = domain
        self.range = range_
        self.perm = perm
        self._hash = hash((domain.cellset(), range_.cellset(), perm))

    def key(self):
        return (self.domain.cells, self.range.cells, self.perm)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        """Identical diagram; semantic equality is ``equals``."""
        return isinstance(other, Element) and self.key() == other.key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Element({len(self.domain)} leaves)"

    def image_of_leaf(self, leaf: Leaf) -> Leaf:
        """Image of any cell lying under the domain basis.

        This is the per-leaf query; library code maps a whole refinement of
        the domain at once with ``_image`` (or ``_cell_images``).
        """
        anc = find_ancestor(self.domain, leaf)
        if anc is None or relative_exponents(self.spec, anc, leaf) is None:
            raise TermError("cell does not lie under the domain basis")
        target = self.range.cells[self.perm[self.domain.index_of(anc)]]
        return transport(anc, target, leaf)


def _from_mapping(spec: AlgebraSpec, mapping: dict[Leaf, Leaf]) -> Element:
    """The element sending each key leaf to its value; the keys and the
    values must each form an admissible basis."""
    dom = Basis.from_cells_trusted(spec, mapping.keys())
    rng = Basis.from_cells_trusted(spec, mapping.values())
    return Element(spec, dom, rng, [rng.index_of(mapping[c]) for c in dom.cells])


def identity(spec: AlgebraSpec) -> Element:
    base = Basis.roots(spec)
    return Element(spec, base, base, range(len(base)))


def invert(g: Element) -> Element:
    inv = [0] * len(g.perm)
    for i, p in enumerate(g.perm):
        inv[p] = i
    return Element(g.spec, g.range, g.domain, inv)


def _same_spec(g: Element, h: Element) -> None:
    if g.spec is not h.spec and g.spec != h.spec:
        raise TermError("elements belong to different specs")


def _cell_images(g: Element, b: Basis) -> dict[Leaf, Leaf]:
    """Each b-cell's image under g for b >= g.domain: b's trees clipped
    along g.domain's, each part replayed below its domain leaf and below
    that leaf's image.  Pushes in the clip split cells of b, so more cells
    than b has mean that b does not refine g.domain: TermError."""
    spec = g.spec
    clipped: list[tuple] = []
    for r in range(spec.roots):
        _clip(spec, g.domain.trees[r], b.trees[r], clipped)
    cells: dict[Leaf, Leaf] = {}
    for sub, i in zip(clipped, g.domain.leaf_order):
        leaf, target = g.domain.cells[i], g.range.cells[g.perm[i]]
        if sub[0] == "leaf":
            cells[leaf] = target
            continue
        before, after = [], []
        _tree_cells(spec, leaf, sub, before)
        _tree_cells(spec, target, sub, after)
        cells.update(zip(before, after))
    if len(cells) != len(b):
        raise TermError("basis does not refine the element's domain")
    return cells


def _carry(g: Element, trees: list, size: int) -> tuple[Basis, list]:
    """The image under g of labelled ``trees`` (one per root) of ``size``
    leaves, with the label at each image leaf position: the trees clipped
    along g.domain's, each part grafted onto its domain leaf's image in
    g.range's trees.  A clip that splits a leaf gives more leaves than
    ``size``: then the trees do not refine g.domain, and this raises
    TermError."""
    spec = g.spec
    clipped: list[tuple] = []
    for r in range(spec.roots):
        _clip(spec, g.domain.trees[r], trees[r], clipped)
    by_image: list = [None] * len(clipped)
    for sub, i in zip(clipped, g.domain.leaf_order):
        by_image[g.perm[i]] = sub
    subs = iter([by_image[p] for p in g.range.leaf_order])
    image_trees, cells, labels = {}, [], []
    for r in range(spec.roots):
        image_trees[r] = _graft(g.range.trees[r], subs)
        _tree_cells(spec, root_leaf(spec, r), image_trees[r], cells, labels)
    if len(cells) != size:
        raise TermError("basis does not refine the element's domain")
    return Basis(spec, cells, trees=image_trees), labels


def _image(g: Element, b: Basis) -> tuple[Basis, dict[Leaf, Leaf]]:
    """The image basis g(b) for b >= g.domain, with each b-cell's image:
    b's trees, each leaf labelled by its canonical index, carried by g."""
    leaves = (("leaf", i) for i in b.leaf_order)
    image, labels = _carry(g, [_graft(b.trees[r], leaves) for r in range(g.spec.roots)], len(b))
    return image, {b.cells[i]: image.cells[j] for i, j in zip(labels, image.leaf_order)}


def expand_diagram(g: Element, refined_domain: Basis) -> Element:
    """Rewrite g on a finer domain basis (refined_domain >= g.domain)."""
    image, to_image = _image(g, refined_domain)
    perm = [image.index_of(to_image[c]) for c in refined_domain.cells]
    return Element(g.spec, refined_domain, image, perm)


def compose(g: Element, h: Element) -> Element:
    """g * h, applying h first: the merge of h.range's and g.domain's trees,
    its leaves numbered, is carried by h^-1 and by g to the two sides of the
    product, where each number pairs a domain leaf with a range leaf."""
    _same_spec(g, h)
    spec = g.spec
    numbers = itertools.count()
    leaves = (("leaf", k) for k in numbers)
    mid = [_graft(_merge(spec, h.range.trees[r], g.domain.trees[r]), leaves)
           for r in range(spec.roots)]
    size = next(numbers)  # the number of labels handed out
    dom, dom_labels = _carry(invert(h), mid, size)
    rng, rng_labels = _carry(g, mid, size)
    at = dict(zip(rng_labels, rng.leaf_order))
    label = dict(zip(dom.leaf_order, dom_labels))
    return reduce(Element(spec, dom, rng, [at[label[i]] for i in range(size)]))


def equals(g: Element, h: Element) -> bool:
    """Semantic equality, decided over the common refined domain."""
    _same_spec(g, h)
    if g.key() == h.key():
        return True
    common = lub(g.domain, h.domain)
    return _cell_images(g, common) == _cell_images(h, common)


def reduce(g: Element) -> Element:
    """Contract matching sibling families on both sides until none remain.

    A family matches when its images are the children of one cell by the
    same colour, in order; a move is accepted only if both contracted leaf
    sets stay admissible, so diagrams stay over root-refining bases.
    Reduced diagrams are not unique, so each move is the first acceptable
    matched family in ``sibling_families`` order.  The matched families
    wait in a heap in that order; a move adds those that hold its parent.
    A family F -> P once rejected is never retried: admissibility is closed
    upward, and after a later move G -> Q the set S - F + P is S2 - F + P
    with Q split, so S2 - F + P is not admissible either.  The range side
    is alike and the image test reads only F's cells, so the heap minimum
    is the move a rescan from the start would take.
    """
    spec = g.spec
    mapping = {c: g.range.cells[p] for c, p in zip(g.domain.cells, g.perm)}
    heap = [(color, fam[0].sort_key, fam, parent)
            for color, fam, parent in sibling_families(spec, mapping, mapping)]
    heapq.heapify(heap)
    while heap:
        color, _, fam, parent = heapq.heappop(heap)
        if any(c not in mapping for c in fam):
            continue
        images = [mapping[c] for c in fam]
        img_parent = _parent(spec, images[0], color)
        if not cells_admissible(spec, mapping.keys() - fam | {parent}):
            continue
        if not cells_admissible(spec, set(mapping.values()).difference(images) | {img_parent}):
            continue
        for c in fam:
            del mapping[c]
        mapping[parent] = img_parent
        siblings = {x for i in range(spec.num_colors) if (up := _parent(spec, parent, i))
                    for x in split_leaf(spec, up, i) if x in mapping}
        for color, fam, new in sibling_families(spec, siblings, mapping):
            if parent in fam:
                heapq.heappush(heap, (color, fam[0].sort_key, fam, new))
    if len(mapping) == len(g.domain):
        return g
    return _from_mapping(spec, mapping)


def order_of(g: Element, cap: int):
    """Least k <= cap with g^k the identity, else the UNKNOWN sentinel."""
    if cap < 1:
        raise TermError("cap must be at least 1")
    e = identity(g.spec)
    power = g
    for k in range(1, cap + 1):
        if equals(power, e):
            return k
        power = compose(g, power)
    return UNKNOWN


def permutation_element(b: Basis, perm) -> Element:
    """The automorphism permuting the leaves of one basis."""
    perm = tuple(perm)
    if len(perm) != len(b):
        raise TermError("permutation does not match basis size")
    if set(perm) != set(range(len(b))):
        raise TermError(f"permutation must list each of 0..{len(b) - 1} once")
    return Element(b.spec, b, b, perm)


def apply_to_basis(g: Element, b: Basis) -> Basis:
    """The image basis g(b); requires b to refine g's domain."""
    _require_same_spec(g.domain, b)
    return _image(g, b)[0]


def represent_on(g: Element, y: Basis):
    """Rewrite g as a diagram with domain exactly y, if possible.

    Succeeds iff for every y-leaf there is a target cell such that g acts on
    everything below that leaf by plain relative-coordinate transport onto
    the target, and the targets are admissible; returns (range basis, index
    map) or None.  The targets are the images of y's leaves, so they
    partition the roots: they are certified, not validated as outside input.
    """
    if g.spec != y.spec:
        raise TermError("element and basis belong to different specs")
    mid = lub(g.domain, y)
    spec = g.spec
    images = _cell_images(g, mid)
    under: dict[Leaf, list[Leaf]] = {cell: [] for cell in y.cells}
    for c in mid.cells:
        under[find_ancestor(y, c)].append(c)
    targets: list[Leaf] = []
    for cell, below in under.items():
        first = below[0]
        target = transport(first, images[first], cell)
        try:
            check_leaf(spec, target)
        except TermError:
            return None
        for c in below:
            if images[c] != transport(cell, target, c):
                return None
        targets.append(target)
    cert = _certificate(spec, targets)
    if cert is None:
        return None
    rng = Basis(spec, targets, cert)
    return rng, tuple(rng.index_of(t) for t in targets)


def construct_from_images(spec: AlgebraSpec, images) -> Element:
    """Extend roots -> images to an automorphism; the images must form an
    admissible basis (in any order), which is exactly when this succeeds."""
    images = list(images)
    rng = Basis.from_cells(spec, images)
    dom = Basis.roots(spec)
    if len(images) != len(dom):
        raise TermError("need exactly one image per root")
    perm = [rng.index_of(img) for img in images]
    return Element(spec, dom, rng, perm)


def random_element(spec: AlgebraSpec, size_bound: int, seed: int) -> Element:
    """Seed-deterministic random element with bases of equal size <= bound."""
    if size_bound < spec.roots:
        raise TermError("size bound below the root count")
    rng = random.Random(seed)
    colors: list[int] = []
    size = spec.roots
    while True:
        options = [c for c in range(spec.num_colors) if size + spec.arity(c) - 1 <= size_bound]
        if not options or (colors and rng.random() < 0.25):
            break
        c = rng.choice(options)
        colors.append(c)
        size += spec.arity(c) - 1

    def build(order):
        script, size = [], spec.roots
        for color in order:
            script.append((rng.randrange(size), color))
            size += spec.arity(color) - 1
        return replay_script(spec, script)

    domain = build(colors)
    shuffled = list(colors)
    rng.shuffle(shuffled)
    range_ = build(shuffled)
    perm = list(range(len(domain)))
    rng.shuffle(perm)
    return reduce(Element(spec, domain, range_, perm))


@dataclass(frozen=True)
class FiniteSubgroup:
    """A finite set of elements closed under composition and inverse.

    ``basis`` is a basis whose leaves every element permutes by transport,
    and ``generator_perms`` the generators' permutations of its leaves.
    ``words[i]`` is (s, j) when element i was found as seed s times
    element j, where the seeds are the generators and then their inverses
    in the same order; it is None for the identity.  So each element's
    permutation of any invariant basis is a product along its word
    (``perms_along_words``).  ``_cache`` keeps what is derived from the
    subgroup once and shared by its callers, such as its invariant-basis
    report in ``centralizer``.
    """

    spec: AlgebraSpec
    elements: tuple[Element, ...]
    generators: tuple[Element, ...]
    basis: Basis
    generator_perms: tuple[tuple[int, ...], ...]
    words: tuple[tuple[int, int] | None, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def perms_along_words(self, generator_perms) -> list[tuple[int, ...]]:
        """Each element's permutation of an invariant basis, in element
        order, given the generators' permutations of that basis."""
        seeds = [*generator_perms, *map(_perm_inv, generator_perms)]
        out: list = [None] * len(self.elements)
        out[self.words.index(None)] = tuple(range(len(seeds[0])))
        for i in range(len(out)):
            chain, j = [], i  # the elements i's word passes through, not yet done
            while out[j] is None:
                chain.append(j)
                j = self.words[j][1]
            for k in reversed(chain):
                s, x = self.words[k]
                out[k] = _perm_mul(seeds[s], out[x])
        return out


def _perm_mul(p, q):
    """(p ∘ q)[i] = p[q[i]]: apply q first, matching left actions."""
    return tuple(p[q[i]] for i in range(len(p)))


def _perm_inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _generator_basis(seeds: list[Element]) -> Basis:
    """The least fixed point of Y <- lub(Y, s(lub(s.domain, Y))) over the
    seeds, from the roots.  If it has not settled within
    ``INVARIANT_BASIS_ROUNDS`` rounds, the group is infinite or out of
    reach: CapExceededError."""
    y = Basis.roots(seeds[0].spec)
    for _ in range(INVARIANT_BASIS_ROUNDS):
        acc = y
        for s in seeds:
            acc = lub(acc, apply_to_basis(s, lub(s.domain, y)))
        if acc == y:
            return y
        y = acc
    raise CapExceededError(
        f"no generator-invariant basis within {INVARIANT_BASIS_ROUNDS} rounds: "
        "infinite or out-of-reach subgroup"
    )


def close_subgroup(gens, cap: int) -> FiniteSubgroup:
    """Closure of the generators, or CapExceededError past ``cap``.

    The generators and their inverses (the seeds) fix a basis Y by
    ``_generator_basis``, and permute its leaves by transport, which
    ``represent_on`` certifies.  An element acting so on Y is determined
    by its permutation of Y's leaves, so the closure is a breadth-first
    search over the seeds' permutations: an element is composed as a
    diagram, seed times the element it was reached from, only when its
    permutation is new, and no two elements are compared as diagrams.
    The elements are sorted by domain size, then by the ``Leaf.key``
    tuples of domain and range, compared on the leaves' ``sort_key``s,
    then by permutation.
    """
    if cap < 1:
        raise TermError("cap must be at least 1")
    gens = [reduce(g) for g in gens]
    if not gens:
        raise TermError("need at least one generator")
    spec = gens[0].spec
    for g in gens:
        if g.spec != spec:
            raise TermError("generators belong to different specs")
    seeds = gens + [invert(g) for g in gens]
    y = _generator_basis(seeds)
    gen_perms = []
    for g in gens:
        rep = represent_on(g, y)
        if rep is None or rep[0] != y:
            raise IterationCapExceededError("fixed point is not invariant; model violation")
        gen_perms.append(rep[1])
    seed_perms = gen_perms + [_perm_inv(p) for p in gen_perms]
    elems: list[Element] = [identity(spec)]
    words: list[tuple[int, int] | None] = [None]
    frontier = [(0, tuple(range(len(y))))]
    seen = {frontier[0][1]}
    while frontier:
        nxt = []
        for x, xp in frontier:
            for s, sp in enumerate(seed_perms):
                p = _perm_mul(sp, xp)
                if p in seen:
                    continue
                seen.add(p)
                nxt.append((len(elems), p))
                elems.append(compose(seeds[s], elems[x]))
                words.append((s, x))
                if len(elems) > cap:
                    raise CapExceededError(
                        f"subgroup closure exceeded cap {cap}"
                    )
        frontier = nxt
    order = sorted(range(len(elems)), key=lambda i: (
        len(elems[i].domain),
        tuple(c.sort_key for c in elems[i].domain.cells),
        tuple(c.sort_key for c in elems[i].range.cells),
        elems[i].perm,
    ))
    at = {i: k for k, i in enumerate(order)}
    return FiniteSubgroup(
        spec,
        tuple(elems[i] for i in order),
        tuple(gens),
        y,
        tuple(gen_perms),
        tuple(None if words[i] is None else (words[i][0], at[words[i][1]]) for i in order),
    )


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def element_to_text(g: Element) -> str:
    g = reduce(g)
    out = ["domain:"]
    out.append(script_to_text(expansion_script(g.domain)).rstrip("\n"))
    out.append("range:")
    out.append(script_to_text(expansion_script(g.range)).rstrip("\n"))
    out.append("perm: " + " ".join(str(p) for p in g.perm))
    return "\n".join(line for line in out if line != "") + "\n"


def parse_element_text(spec: AlgebraSpec, text: str) -> Element:
    section = None
    dom_lines: list[str] = []
    rng_lines: list[str] = []
    perm: tuple[int, ...] | None = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line == "domain:":
            section = dom_lines
        elif line == "range:":
            section = rng_lines
        elif line.startswith("perm:"):
            try:
                perm = tuple(int(x) for x in line[5:].split())
            except ValueError:
                raise TermError(f"bad perm line in element text: {line!r}") from None
            section = None
        elif section is not None:
            section.append(line)
        else:
            raise TermError(f"unexpected line in element text: {line!r}")
    if perm is None:
        raise TermError("element text has no perm line")
    dom = replay_script(spec, parse_script_text("\n".join(dom_lines)))
    rng = replay_script(spec, parse_script_text("\n".join(rng_lines)))
    return Element(spec, dom, rng, perm)


def group_to_text(q: FiniteSubgroup) -> str:
    return "--\n".join(element_to_text(g) for g in q.elements)


def parse_group_text(spec: AlgebraSpec, text: str, cap: int = 4096) -> FiniteSubgroup:
    blocks = [blk for blk in text.split("--") if blk.strip()]
    gens = [parse_element_text(spec, blk) for blk in blocks]
    return close_subgroup(gens, cap)

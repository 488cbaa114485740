"""The three seeded workloads: inputs built in set-up, one request at a time.

Each workload has
  * ``setup(seed)``: builds every input from the seed with fresh specs and
    returns ``Inputs``: plain text and numbers only, grouped in cycles of a
    fixed mix, with a digest of all of them and a digest of the part that
    does not depend on the seed (pinned in ``input_digests.json``);
  * ``execute(request, session)``: the timed library work for one request;
  * ``check(request, result)``: verifies the outputs outside the timed
    region and returns a canonical signature of them, or raises
    ``CheckFailed``.

The library is reached only through module attributes (``T.lub`` and so
on), so the wrappers the traced run installs see every call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass

import cantorv.algebra as A
import cantorv.centralizer as Z
import cantorv.cones as C
import cantorv.elements as E
import cantorv.stein as S
import cantorv.terms as T

from oracle import (
    Map,
    OracleMismatch,
    cone_cells,
    expect_equal,
    in_cone,
    point_in,
    probe_points,
)

SPEC_SOURCES = {
    "v21": "roots=1; block[2]",
    "v31": "roots=1; block[3]",
    "2v": "roots=1; block[2]; block[2]",
    "stein23": "roots=1; block[2,3]",
    "brin23": "roots=1; block[2]; block[3]",
    "mixed232": "roots=1; block[2,3]; block[2]",
}


class CheckFailed(AssertionError):
    """A request returned an output that its check rejects."""


@dataclass
class Inputs:
    requests: list
    cycle: int    # requests per cycle; a timed run covers whole cycles
    traced: int   # requests the traced run covers, once plain and once traced
    digest: str   # of every request
    fixed: str    # of the inputs that are the same for every seed


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _sig(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def diagram_key(g) -> tuple:
    """Canonical, engine-free description of a diagram's data."""
    cell = lambda c: (c.root, tuple((str(lo), str(hi)) for lo, hi in c.intervals))
    return (
        tuple(cell(c) for c in g.domain.cells),
        tuple(cell(c) for c in g.range.cells),
        tuple(g.perm),
    )


class Session:
    """Client-side state carried between requests (a words session)."""

    def __init__(self):
        self.key = None
        self.spec = None
        self.elements: dict = {}


# ---------------------------------------------------------------------------
# words: group axioms under exact equality
# ---------------------------------------------------------------------------

class Words:
    name = "words"
    # sessions per cycle, leaning toward the mixed-block specs
    SESSION_SPECS = ("v21", "v31", "2v", "2v", "brin23", "brin23",
                     "stein23", "stein23", "mixed232", "mixed232", "mixed232")
    EXTRA = (5, 11)          # size bound = roots + extra: the test's, and larger
    POOL = 32                # elements per (spec, bound)
    # a session forms one triple of every size pattern, in this order, each
    # of f, g, h from the smaller or the larger bound; so its first request,
    # which meets a cold cache, is always a small one
    PATTERNS = tuple(itertools.product(range(len(EXTRA)), repeat=3))
    # A round of 11 sessions takes about 4.5 s on a 2-core 2.1 GHz Xeon
    # virtual machine, checks included, so a 30 s run times the cycle of
    # six rounds once, whatever the seed.
    ROUNDS = 6
    TRACE_ROUNDS = 2
    SETUP_CHILDREN = 4       # cold set-ups in fresh processes, besides the run's own
    # latency_tail_ms percentile: a run has 528 requests, so 26 lie beyond
    # p95, and which triples the seed forms moves it little (a symmetry run
    # has 336 requests, 13 beyond p96; topology 124, 12 beyond p90)
    TAIL_PERCENTILE = 95

    def setup(self, seed: int) -> Inputs:
        """The element pool and the triples are the same for every seed:
        element k of a (spec, bound) class is ``random_element`` with seed
        k, as in the acceptance suite, and each session forms one triple of
        every size pattern, drawing each factor from a shuffled deck of its
        (spec, bound) class, so every element is used equally often and
        every round has the same mix of sizes.  The run seed orders the
        sessions of each round and picks the probe points.  So every run
        times the same products: with triples picked by the seed, the
        heaviest ones, and with them the tail, moved by 20% from seed to
        seed.  A cycle is every round."""
        rng = random.Random(seed)
        deal = random.Random(0)
        pools = {}
        for name, src in SPEC_SOURCES.items():
            spec = A.parse_spec(src)
            pools[name] = [
                [f"{name}/{extra}", k, E.element_to_text(
                    E.random_element(spec, spec.roots + extra, k))]
                for extra in self.EXTRA
                for k in range(self.POOL)
            ]
        decks = {}

        def draw(name, j):
            deck = decks.setdefault((name, j), [])
            if not deck:
                deck.extend(pools[name][j * self.POOL:(j + 1) * self.POOL])
                deal.shuffle(deck)
            return deck.pop()

        requests = []
        for _ in range(self.ROUNDS):
            sessions = [
                (name, [[draw(name, j) for j in pattern] for pattern in self.PATTERNS])
                for name in self.SESSION_SPECS
            ]
            rng.shuffle(sessions)
            for name, triples in sessions:
                for k, fgh in enumerate(triples):
                    requests.append({
                        "spec": name,
                        "new_session": k == 0,
                        "fgh": fgh,
                        "points": rng.randrange(2**31),
                    })
        rounds = len(self.SESSION_SPECS) * len(self.PATTERNS)
        return Inputs(requests, len(requests), self.TRACE_ROUNDS * rounds,
                      _digest(requests), _digest(pools))

    def execute(self, req, session: Session):
        if req["new_session"] or session.key != req["spec"]:
            session.key = req["spec"]
            session.spec = A.parse_spec(SPEC_SOURCES[req["spec"]])
            session.elements = {}
        spec = session.spec
        f, g, h = (self._element(session, key, idx, text) for key, idx, text in req["fgh"])
        e = E.identity(spec)
        fg = E.compose(f, g)
        gh = E.compose(g, h)
        left = E.compose(fg, h)
        right = E.compose(f, gh)
        f_inv = E.invert(f)
        ffi = E.compose(f, f_inv)
        ef = E.compose(e, f)
        verdicts = (E.equals(left, right), E.equals(ffi, e), E.equals(ef, f))
        return spec, (f, g, h, f_inv), (fg, gh, left, right, ffi, ef), verdicts

    @staticmethod
    def _element(session: Session, key, idx, text):
        k = (key, idx)
        if k not in session.elements:
            session.elements[k] = E.parse_element_text(session.spec, text)
        return session.elements[k]

    def check(self, req, result) -> str:
        spec, inputs, products, verdicts = result
        if not all(verdicts):
            raise CheckFailed(f"group axiom rejected by equals: {verdicts}")
        f, g, h, f_inv = (Map(x) for x in inputs)
        fg, gh, left, right, ffi, ef = (Map(x) for x in products)
        rng = random.Random(req["points"])
        # (claim, map whose leaves are probed, left side, right side)
        claims = (
            ("f.g", fg, fg, lambda p: f(g(p))),
            ("g.h", gh, gh, lambda p: g(h(p))),
            ("(f.g).h", left, left, lambda p: f(g(h(p)))),
            ("f.(g.h)", right, right, lambda p: f(g(h(p)))),
            ("f.f^-1", ffi, ffi, lambda p: p),
            ("f^-1.f", f, lambda p: f_inv(f(p)), lambda p: p),
            ("e.f", ef, ef, f),
        )
        try:
            for what, probed, got, want in claims:
                for p in probe_points((probed,), spec.roots, spec.num_blocks, rng, extra=2):
                    expect_equal(what, got(p), want(p))
        except OracleMismatch as exc:
            raise CheckFailed(str(exc)) from None
        return _sig([diagram_key(x) for x in products])


# ---------------------------------------------------------------------------
# topology: descending links, model complexes and the complex of bases
# ---------------------------------------------------------------------------

def _fvec(cx) -> dict:
    return {str(d): n for d, n in sorted(cx.f_vector().items())}


def _betti(b) -> dict | None:
    return None if b is None else {str(d): n for d, n in sorted(b.items())}


def _vertex_to_json(vertex) -> list:
    return sorted([sorted(leaves), sorted(colors)] for leaves, colors in vertex)


def _vertex_from_json(data) -> frozenset:
    return frozenset((frozenset(ls), frozenset(cs)) for ls, cs in data)


class Topology:
    name = "topology"
    # links of t <= 3 leaves are trivial; t = 7 is out of reach (minutes)
    LINK_T = range(4, 7)
    RATIONAL_T = range(4, 6)
    CASE_I_T = 6             # the smallest t with case-i vertices
    STEIN_CAPS = {"v21": (4, 5, 6), "v31": (4, 5, 6), "stein23": (4, 5, 6),
                  "brin23": (4, 5, 6), "2v": (4, 5), "mixed232": (4, 5)}
    # A cycle is the whole catalogue once, in seeded order, so every run
    # times every request.  On a 2-core 2.1 GHz Xeon virtual machine a cycle
    # takes 22-36 s, over 80% of it in its seven slowest requests.
    CYCLES = 4
    TRACE_CYCLES = 1
    SETUP_CHILDREN = 8       # its set-up takes a tenth of a second: take more
    TAIL_PERCENTILE = 90

    def __init__(self, golden: dict | None = None):
        self.golden = golden

    def catalog(self) -> list[dict]:
        """Every request kind for every bundled spec, in a fixed order;
        case-i entries carry their vertex, found by the library in set-up."""
        out = []
        for name, src in SPEC_SOURCES.items():
            for t in self.LINK_T:
                out.append({"kind": "link", "spec": name, "t": t})
                out.append({"kind": "l0", "spec": name, "t": t})
            for t in self.RATIONAL_T:
                out.append({"kind": "rational", "spec": name, "t": t})
            for cap in self.STEIN_CAPS[name]:
                out.append({"kind": "stein", "spec": name, "t": cap})
            spec = A.parse_spec(src)
            verts = S.link_vertices(spec, self.CASE_I_T)
            case_i = [v for v in verts if S.classify_vertex(spec, v) == "i"]
            for k, v in enumerate(case_i):
                out.append({"kind": "case_i", "spec": name, "t": self.CASE_I_T,
                            "index": k, "vertex": _vertex_to_json(v)})
        for req in out:
            req["key"] = ":".join(
                str(req[k]) for k in ("kind", "spec", "t", "index") if k in req
            )
        return out

    def setup(self, seed: int) -> Inputs:
        rng = random.Random(seed)
        catalog = self.catalog()
        requests = []
        for _ in range(self.CYCLES):
            order = list(catalog)
            rng.shuffle(order)
            requests.extend(order)
        return Inputs(requests, len(catalog), self.TRACE_CYCLES * len(catalog),
                      _digest(requests), _digest(catalog))

    def execute(self, req, session: Session):
        spec = A.parse_spec(SPEC_SOURCES[req["spec"]])
        kind, t = req["kind"], req["t"]
        if kind == "link":
            verts = S.link_vertices(spec, t)
            link = S.descending_link(spec, t)
            hom = S.homology(link)
            return {"vertices": len(verts), "f": _fvec(link), "betti": _betti(hom.betti_gf2)}
        if kind == "l0":
            return {"l0_is_sd_model": S.l0_matches_model(spec, t)}
        if kind == "rational":
            link = S.descending_link(spec, t)
            hom = S.homology(link, rational=True)
            return {"f": _fvec(link), "betti": _betti(hom.betti_gf2),
                    "betti_q": _betti(hom.betti_rational)}
        if kind == "case_i":
            rep = S.h_descending_link(spec, t, _vertex_from_json(req["vertex"]))
            hom = S.homology(rep.uplink)
            return {"case": rep.case, "down_f": _fvec(rep.downlink),
                    "up_f": _fvec(rep.uplink), "up_betti": _betti(hom.betti_gf2),
                    "uplink_vanishes": hom.reduced_vanishes(),
                    "has_cone_witness": rep.uplink_cone_witness is not None}
        if kind == "stein":
            cx = S.build_stein(spec, t)
            hom = S.homology(cx)
            return {"f": _fvec(cx), "betti": _betti(hom.betti_gf2)}
        raise ValueError(f"unknown topology request {kind}")

    def check(self, req, result) -> str:
        want = self.golden.get(req["key"])
        if want is None:
            raise CheckFailed(f"no golden output for {req['key']}")
        if result != want:
            raise CheckFailed(f"{req['key']}: {result} != golden {want}")
        return _sig(sorted(result.items()))


# ---------------------------------------------------------------------------
# symmetry: finite subgroups, centralisers, normalisers and cone tuples
# ---------------------------------------------------------------------------

class Symmetry:
    name = "symmetry"
    SPECS = ("v21", "v31", "2v", "stein23", "brin23", "mixed232")
    # One slot per (spec, basis size).  Bases have up to roots + 4 leaves;
    # 3 for the three-colour spec, whose invariant bases grow fastest.
    MAX_EXTRA = {"mixed232": 3}
    INSTANCES = 16           # subgroups per slot
    CONJUGATOR_EXTRA = 2     # conjugating elements have bases of <= roots + 2
    CLOSE_CAP = 64
    NORMALIZER_CAP = 5040    # run normalizer_analysis when |Y|! <= 7!
    TRACE_ROUNDS = 4
    SETUP_CHILDREN = 2       # its set-up takes 2 s: take fewer
    TAIL_PERCENTILE = 96

    def setup(self, seed: int) -> Inputs:
        """The subgroups are the same for every seed: instance k of a slot
        permutes a basis of that size and is conjugated by a random element,
        all drawn from a generator seeded by the slot and k.  Round k takes
        instance k of every slot; the run seed orders the slots within each
        round and picks the kernel labels, the lift, the cone tuples and the
        probe points, so that the costly part of the mix is fixed and runs
        stay comparable.  A cycle is every round, so that each timed run
        meets each subgroup, and the ones ``close_subgroup`` fails on, equally
        often; the traced run covers the first rounds."""
        rng = random.Random(seed)
        slots = []
        fixed = []
        for si, name in enumerate(self.SPECS):
            spec = A.parse_spec(SPEC_SOURCES[name])
            by_size: dict[int, list] = {}
            for b in T.enumerate_bases(spec, spec.roots + self.MAX_EXTRA.get(name, 4)):
                if len(b) >= 2:
                    by_size.setdefault(len(b), []).append(b)
            for size, bases in sorted(by_size.items()):
                instances = [
                    self._subgroup(random.Random(1000 * (100 * si + size) + k), spec, bases)
                    for k in range(self.INSTANCES)
                ]
                fixed.append([name, instances])
                slots.append((name, instances))
        requests = []
        for r in range(self.INSTANCES):
            rng.shuffle(slots)
            for name, instances in slots:
                requests.append(self._request(rng, name, *instances[r]))
        return Inputs(requests, len(requests), self.TRACE_ROUNDS * len(slots),
                      _digest(requests), _digest(fixed))

    def _subgroup(self, rng, spec, bases):
        b = rng.choice(bases)
        perm = list(range(len(b)))
        while perm == sorted(perm):
            rng.shuffle(perm)
        p = E.permutation_element(b, perm)
        c = E.random_element(spec, spec.roots + self.CONJUGATOR_EXTRA, rng.randrange(2**31))
        gen = E.compose(E.compose(c, p), E.invert(c))
        return E.element_to_text(gen), [T.leaf_to_text(cell) for cell in b.cells]

    @staticmethod
    def _request(rng, name, generator, leaves) -> dict:
        split = [[], []]
        cover = [[], []]
        for leaf in leaves:
            split[rng.randrange(2)].append(leaf)
            mask = rng.randrange(1, 4)
            for i in range(2):
                if mask >> i & 1:
                    cover[i].append(leaf)
        return {
            "spec": name,
            "generator": generator,
            "type_pick": rng.randrange(2**31),
            "label_seed": rng.randrange(2**31),
            "lift_seed": rng.randrange(2**31),
            "disjoint_tuple": split,
            "covering_tuple": cover,
            "points": rng.randrange(2**31),
        }

    @staticmethod
    def _tuple(spec, groups):
        return C.ConeTuple(spec, [
            C.Cone.from_leaves(spec, [T.parse_leaf(spec, line) for line in g])
            for g in groups
        ])

    def execute(self, req, session: Session):
        spec = A.parse_spec(SPEC_SOURCES[req["spec"]])
        gen = E.parse_element_text(spec, req["generator"])
        q = E.close_subgroup([gen], self.CLOSE_CAP)
        structure = Z.centralizer_structure(q)
        report = structure.report
        y = report.basis
        weyl = None
        if math.factorial(len(y)) <= self.NORMALIZER_CAP:
            nrep = Z.normalizer_analysis(q, cap=self.NORMALIZER_CAP)
            weyl = (nrep.normalizer_order, nrep.centralizer_order, nrep.weyl_order)
        factors = sorted(structure.factors, key=lambda f: f.type_id)
        factor = factors[req["type_pick"] % len(factors)]
        qspec = Z.quotient_spec(spec, factor.r)
        roots = T.Basis.roots(qspec)
        lrng = random.Random(req["label_seed"])
        labels = {c: factor.L[lrng.randrange(len(factor.L))] for c in roots.cells}
        kernel = Z.build_kernel_element(
            report, factor.type_id, Z.KernelElement(qspec, roots, labels))
        v = E.random_element(qspec, qspec.roots + 2, req["lift_seed"])
        lift = Z.splitting_lift(report, factor.type_id, v)
        both = E.compose(kernel, lift)
        commutes = E.equals(E.compose(both, gen), E.compose(gen, both))

        t = self._tuple(spec, req["disjoint_tuple"])
        image = C.act_tuple(gen, t)
        invariants = (C.tuple_classify(t), C.tuple_classify(image))
        witness = C.tuple_witness(t, image)
        cover = self._tuple(spec, req["covering_tuple"])
        refined = C.disjointify(cover)
        return {
            "spec": spec, "gen": gen, "order": len(q), "basis": y,
            "statement": structure.statement(), "weyl": weyl,
            "kernel": kernel, "lift": lift, "both": both, "commutes": commutes,
            "tuple": t, "image": image, "invariants": invariants,
            "witness": witness, "cover": cover, "refined": refined,
        }

    def check(self, req, r) -> str:
        spec = r["spec"]
        if not r["commutes"]:
            raise CheckFailed("kernel element times lift does not commute under equals")
        if r["invariants"][0] != r["invariants"][1]:
            raise CheckFailed(f"tuple invariant changed under the action: {r['invariants']}")
        if r["witness"] is None:
            raise CheckFailed("no witness between a tuple and its image")
        gen, kernel, lift, both, witness = (
            Map(r[k]) for k in ("gen", "kernel", "lift", "both", "witness"))
        rng = random.Random(req["points"])
        try:
            # the minimal invariant basis: each leaf goes onto one leaf
            ycells = [(c.root, tuple(c.intervals)) for c in r["basis"].cells]
            for cell in ycells:
                a, b = gen(point_in(cell, rng)), gen(point_in(cell, rng))
                hits = [c for c in ycells if in_cone([c], a)]
                if len(hits) != 1 or not in_cone(hits, b):
                    raise OracleMismatch("invariant basis leaf not carried onto a leaf")
            # the constructed centralising element
            for p in probe_points((both, gen), spec.roots, spec.num_blocks, rng):
                kl = kernel(lift(p))
                expect_equal("kernel.lift", both(p), kl)
                expect_equal("commutes with the generator", kernel(lift(gen(p))), gen(kl))
            # the action and the witness, component by component
            for i, (src, dst) in enumerate(zip(r["tuple"].cones, r["image"].cones)):
                src_cells, dst_cells = cone_cells(src), cone_cells(dst)
                for cell in src_cells:
                    p = point_in(cell, rng)
                    if not in_cone(dst_cells, gen(p)):
                        raise OracleMismatch(f"act: point of component {i} left it")
                    if not in_cone(dst_cells, witness(p)):
                        raise OracleMismatch(f"witness: point of component {i} left it")
            # disjointify: slot S holds the points in exactly the components of S
            comps = [cone_cells(c) for c in r["cover"].cones]
            slots = [cone_cells(c) for c in r["refined"].cones]
            for cell in [c for comp in comps for c in comp]:
                p = point_in(cell, rng)
                mask = sum(1 << i for i, comp in enumerate(comps) if in_cone(comp, p))
                found = [s + 1 for s, cells in enumerate(slots) if in_cone(cells, p)]
                if found != [mask]:
                    raise OracleMismatch(f"disjointify: slot {found} for mask {mask}")
        except OracleMismatch as exc:
            raise CheckFailed(str(exc)) from None
        return _sig([
            r["order"], r["statement"], r["weyl"], r["invariants"],
            diagram_key(r["both"]), diagram_key(r["witness"]),
            [cone_cells(c) for c in r["refined"].cones],
        ])


WORKLOADS = {"words": Words, "topology": Topology, "symmetry": Symmetry}

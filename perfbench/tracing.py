"""Span tracing installed from outside the library.

``Tracer.install`` swaps timing wrappers in for the public functions the
engine's modules call across module boundaries (for example ``terms.lub``
in every module that imported it) and restores the originals on
``uninstall``.  Each wrapped call records a span: name, start, end, parent
span and request id, kept in flat arrays in memory and written out once
the run ends.  A few tiny, very hot functions get call counters instead of
spans.  Per-layer metrics are derived from the spans: a function's self
time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from array import array
from collections import Counter

import cantorv.algebra as A
import cantorv.centralizer as Z
import cantorv.cones as C
import cantorv.elements as E
import cantorv.stein as S
import cantorv.terms as T

LAYERS = {"algebra": A, "terms": T, "elements": E, "cones": C, "centralizer": Z, "stein": S}


def _n(x) -> int:
    return len(x)


def _simplices(cx) -> int:
    return sum(len(s) for s in cx.simplices.values())


# (layer, attribute, span name, counter name, counter function of the result)
SPANNED_FUNCTIONS = [
    ("algebra", "parse_spec", "algebra.parse_spec", None, None),
    ("terms", "lub", "terms.lub", "terms.lub.out_leaves", _n),
    ("terms", "leq", "terms.leq", None, None),
    ("terms", "elementary_leq", "terms.elementary_leq", None, None),
    ("terms", "expand", "terms.expand", None, None),
    ("terms", "enumerate_bases", "terms.enumerate_bases", None, None),
    ("terms", "lower_closure", "terms.lower_closure", "terms.lower_closure.bases", _n),
    ("terms", "sibling_families", "terms.sibling_families", None, None),
    ("terms", "cells_admissible", "terms.cells_admissible", None, None),
    ("terms", "replay_script", "terms.replay_script", None, None),
    ("elements", "compose", "elements.compose", None, None),
    ("elements", "invert", "elements.invert", None, None),
    ("elements", "equals", "elements.equals", "elements.equals.true", bool),
    ("elements", "random_element", "elements.random_element", None, None),
    ("elements", "close_subgroup", "elements.close_subgroup", "elements.close_subgroup.elements", _n),
    ("elements", "apply_to_basis", "elements.apply_to_basis", None, None),
    ("elements", "represent_on", "elements.represent_on", None, None),
    ("elements", "parse_element_text", "elements.parse_element_text", None, None),
    ("cones", "act", "cones.act", None, None),
    ("cones", "act_tuple", "cones.act_tuple", None, None),
    ("cones", "witness_basis", "cones.witness_basis", None, None),
    ("cones", "tuple_classify", "cones.tuple_classify", None, None),
    ("cones", "tuple_witness", "cones.tuple_witness", "cones.tuple_witness.out_leaves",
     lambda w: 0 if w is None else len(w.domain)),
    ("cones", "disjointify", "cones.disjointify", None, None),
    ("centralizer", "invariant_basis", "centralizer.invariant_basis", None, None),
    ("centralizer", "minimize_invariant_basis", "centralizer.minimize_invariant_basis", None, None),
    ("centralizer", "orbit_types", "centralizer.orbit_types", None, None),
    ("centralizer", "type_centralizer_L", "centralizer.type_centralizer_L", None, None),
    ("centralizer", "centralizer_structure", "centralizer.centralizer_structure", None, None),
    ("centralizer", "normalizer_analysis", "centralizer.normalizer_analysis", None, None),
    ("centralizer", "build_kernel_element", "centralizer.build_kernel_element", None, None),
    ("centralizer", "splitting_lift", "centralizer.splitting_lift", None, None),
    ("stein", "link_vertices", "stein.link_vertices", "stein.link_vertices.vertices", _n),
    ("stein", "descending_link", "stein.descending_link", None, None),
    ("stein", "homology", "stein.homology", None, None),
    ("stein", "h_descending_link", "stein.h_descending_link", None, None),
    ("stein", "build_stein", "stein.build_stein", None, None),
    ("stein", "l0_matches_model", "stein.l0_matches_model", None, None),
    ("stein", "model_Kn", "stein.model_Kn", None, None),
]

# (class, attribute, span name, counter name, counter function); static
# methods are rewrapped as static methods
SPANNED_METHODS = [
    (T.Basis, "from_cells_trusted", "terms.basis_build", None, None),
    (T.Basis, "from_cells", "terms.basis_build", None, None),
    (S.SimplicialComplex, "flag", "stein.flag", "stein.flag.simplices", _simplices),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("H")
        self.parent_col = array("i")
        self.request_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.error_col = array("b")
        self.stack = [-1]
        self.request = -1
        self.counts: Counter = Counter()
        self.exponent_args: set = set()
        self._specs: list[list] = []  # [weakref to spec, most patterns seen]
        self._new_specs: list = []    # parsed during the current request
        self._restore: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn, counter, measure):
        nid = self._id(name)
        names, parents, requests = self.name_col, self.parent_col, self.request_col
        starts, ends, errors, stack = self.start_col, self.end_col, self.error_col, self.stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(self.request)
            ends.append(0.0)
            errors.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                errors[idx] = 1
                stack.pop()
                raise
            ends[idx] = clock()
            stack.pop()
            if counter is not None:
                counts[counter] += measure(out)
            return out

        return wrapper

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for layer, attr, name, counter, measure in SPANNED_FUNCTIONS:
            original = getattr(LAYERS[layer], attr)
            wrapper = self._span(name, original, counter, measure)
            for module in LAYERS.values():
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)
        for cls, attr, name, counter, measure in SPANNED_METHODS:
            original = getattr(cls, attr)
            self._patch(cls, attr, staticmethod(self._span(name, original, counter, measure)))
        self._patch(A, "parse_spec", self._watch_specs(A.parse_spec))
        self._patch(A.Block, "exponents", self._count_exponents(A.Block.exponents))
        self._patch(E.Element, "image_of_leaf", self._count_calls(
            "elements.image_of_leaf.calls", E.Element.image_of_leaf))
        self._patch(E, "reduce", self._measure_reduce(E.reduce))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _watch_specs(self, parse):
        def wrapper(*args, **kwargs):
            spec = parse(*args, **kwargs)
            self._specs.append([weakref.ref(spec), 0])
            self._new_specs.append(spec)
            return spec

        return wrapper

    def _count_exponents(self, fn):
        counts, seen = self.counts, self.exponent_args

        def exponents(block, ratio):
            counts["algebra.exponents.calls"] += 1
            seen.add((block.arities, ratio))
            return fn(block, ratio)

        return exponents

    def _count_calls(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _measure_reduce(self, fn):
        counts = self.counts
        span = self._span("elements.reduce", fn, None, None)

        def reduce(g):
            out = span(g)
            counts["elements.reduce.leaves_in"] += len(g.domain)
            counts["elements.reduce.leaves_out"] += len(out.domain)
            return out

        return reduce

    # -- requests ---------------------------------------------------------

    def begin_request(self, rid: int) -> None:
        self.request = rid

    def end_request(self) -> None:
        """Record pattern-cache sizes while the request's specs are alive."""
        for entry in self._specs:
            spec = entry[0]()
            if spec is not None:
                entry[1] = max(entry[1], len(spec.cache("patterns")))
        self._new_specs.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-function self times and counters, per-layer totals."""
        n = len(self.start_col)
        names, parents, errors = self.name_col, self.parent_col, self.error_col
        starts, ends = self.start_col, self.end_col
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        layer_of = [name.split(".")[0] for name in self.names]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        failed: Counter = Counter()
        tried_in_closure = 0
        compose_id = self._ids.get("elements.compose")
        closure_id = self._ids.get("elements.close_subgroup")
        for i in range(n):
            nid = names[i]
            self_s[nid] += (ends[i] - starts[i]) - child[i]
            calls[nid] += 1
            p = parents[i]
            if errors[i] and (p < 0 or layer_of[names[p]] != layer_of[nid]):
                failed[layer_of[nid]] += 1
            if nid == compose_id and p >= 0 and names[p] == closure_id and not errors[p]:
                tried_in_closure += 1
        out: dict[str, float] = {}
        layer_self: Counter = Counter()
        for nid, name in enumerate(self.names):
            out[f"{name}.self_s"] = self_s[nid]
            out[f"{name}.calls"] = calls[nid]
            layer_self[layer_of[nid]] += self_s[nid]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.failed"] = failed[layer]
        c = self.counts
        out.update({k: v for k, v in c.items()})
        out["algebra.exponents.distinct_ratio"] = _ratio(
            len(self.exponent_args), c["algebra.exponents.calls"])
        out["elements.reduce.shrink_ratio"] = _ratio(
            c["elements.reduce.leaves_out"], c["elements.reduce.leaves_in"])
        out["elements.equals.true_ratio"] = _ratio(
            c["elements.equals.true"], out.get("elements.equals.calls", 0))
        out["elements.close_subgroup.compose_per_element"] = _ratio(
            tried_in_closure, c["elements.close_subgroup.elements"])
        sizes = [entry[1] for entry in self._specs]
        out["terms.pattern_cache.entries"] = _ratio(sum(sizes), len(sizes))
        out["trace.spans"] = n
        return out

    def write(self, path_stem) -> None:
        """Spans as raw little-endian columns plus a JSON header."""
        cols = [
            ("name", self.name_col), ("parent", self.parent_col),
            ("request", self.request_col), ("start", self.start_col),
            ("end", self.end_col), ("error", self.error_col),
        ]
        with open(f"{path_stem}.bin", "wb") as fh:
            for _, col in cols:
                col.tofile(fh)
        header = {
            "spans": len(self.start_col),
            "names": self.names,
            "columns": [[name, col.typecode] for name, col in cols],
        }
        with open(f"{path_stem}.json", "w") as fh:
            json.dump(header, fh)


def _ratio(num, den) -> float:
    return num / den if den else 0.0

"""The benchmark's tracer must keep seeing the engine's calls.

``perfbench/tracing.py`` wraps engine functions by module attribute, so a
call that a refactor inlines, renames or imports under another name stops
recording spans and its per-layer metrics silently read 0.  This test
installs the tracer as the benchmark does, runs a small mix of element,
centraliser, cone and complex operations, and checks that the spans the
``words``, ``symmetry`` and ``topology`` metrics rest on all record calls.
"""

import importlib.util
import pathlib
from fractions import Fraction as F

import cantorv.centralizer as Z
import cantorv.cones as C
import cantorv.elements as E
import cantorv.stein as S
import cantorv.terms as T
from cantorv.terms import Basis, Leaf

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

EXPECTED_SPANS = [
    "terms.lub",
    "elements.compose",
    "terms.cells_admissible",
    "terms.sibling_families",
    "terms.basis_build",
    "terms.expand",
    "terms.replay_script",
    "terms.enumerate_bases",
    "elements.reduce",
    "elements.equals",
    "elements.close_subgroup",
    "cones.witness_basis",
    "cones.disjointify",
    "cones.act",
    "cones.act_tuple",
    "cones.tuple_classify",
    "cones.tuple_witness",
    "elements.represent_on",
    "centralizer.invariant_basis",
    "centralizer.minimize_invariant_basis",
    "centralizer.orbit_types",
    "centralizer.centralizer_structure",
    "centralizer.type_centralizer_L",
    "centralizer.normalizer_analysis",
    "centralizer.build_kernel_element",
    "centralizer.splitting_lift",
    "stein.flag",
    "stein.build_stein",
    "stein.homology",
    "stein.descending_link",
    "stein.h_descending_link",
    "stein.link_vertices",
    "stein.model_Kn",
]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_mix(spec):
    """Operations called through module attributes, as the workloads do."""
    g = E.random_element(spec, 4, 1)
    h = E.random_element(spec, 4, 2)
    E.compose(g, h)
    # g * g^-1 contracts, so reduce tests admissibility
    E.compose(g, E.invert(g))
    assert not E.equals(g, h)

    x = Basis.roots(spec)
    halves = T.expand(x, x.cells[0], 0)
    q = E.close_subgroup([E.permutation_element(halves, [1, 0])], 8)
    report = Z.centralizer_structure(q).report
    Z.normalizer_analysis(q)
    for tid, tdata in report.types.items():
        qspec = Z.quotient_spec(spec, tdata.r)
        roots = Basis.roots(qspec)
        labels = {c: tuple(range(tdata.m)) for c in roots.cells}
        Z.build_kernel_element(report, tid, Z.KernelElement(qspec, roots, labels))
        Z.splitting_lift(report, tid, E.identity(qspec))

    left = C.Cone.from_leaves(spec, [halves.cells[0]])
    full = C.Cone.from_leaves(spec, x.cells)
    parts = C.disjointify(C.ConeTuple(spec, [left, full]))
    C.tuple_witness(parts, C.act_tuple(g, parts))

    S.homology(S.build_stein(spec, 4), rational=True)
    S.descending_link(spec, 4)
    S.h_descending_link(spec, 4, S.link_vertices(spec, 4)[0])
    S.l0_matches_model(spec, 4)


def test_traced_spans_record_calls(v21):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        _run_mix(v21)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    silent = [name for name in EXPECTED_SPANS if not metrics.get(f"{name}.calls")]
    assert silent == []
    assert not hasattr(E.compose, "__wrapped__"), "tracer left installed"


def test_witness_fallback_records_no_failure(stein23):
    # {[0,1/3), [1/3,1/2), [1/2,1)} is not admissible: witness_basis falls
    # back to the grid basis without an exception crossing a layer
    cone = C.Cone.from_leaves(stein23, [Leaf(0, ((F(1, 3), F(1, 2)),))])
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        basis, _ = C.witness_basis(stein23, [cone])
    finally:
        tracer.uninstall()
    assert len(basis) == 6
    metrics = tracer.metrics()
    assert metrics["cones.witness_basis.calls"] == 1
    assert metrics["terms.failed"] == 0


def test_represent_on_none_records_no_failure(stein23):
    # y's targets [1/2,1), [0,1/3), [1/3,1/2) partition the root but are not
    # admissible: represent_on answers None without an exception
    def cells(*ends):
        return [Leaf(0, ((F(a), F(b)),)) for a, b in zip(ends, ends[1:])]

    domain = Basis.from_cells(stein23, cells(0, F(1, 6), F(1, 3), F(1, 2), F(5, 8), F(3, 4), 1))
    sixths = Basis.from_cells(stein23, cells(*(F(k, 6) for k in range(7))))
    g = E.Element(stein23, domain, sixths, [3, 4, 5, 0, 1, 2])
    y = Basis.from_cells(stein23, cells(0, F(1, 2), F(3, 4), 1))
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert E.represent_on(g, y) is None
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["elements.represent_on.calls"] == 1
    assert metrics["terms.failed"] == 0

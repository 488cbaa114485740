"""Which end-to-end metric, on which workload, each per-layer metric should move.

Names, units and directions live in ``BENCHMARK.json`` at the repository
root; the traced run prints this map beside each per-layer value.
"""

WORDS_RATE = "throughput_rps on words"
WORDS_TAIL = "latency_tail_ms on words"
WORDS_BOTH = "throughput_rps and latency_p50_ms on words"
TOPO = "throughput_rps and latency_tail_ms on topology"
SYM_RATE = "throughput_rps on symmetry"
SYM_TAIL = "latency_tail_ms on symmetry"

MOVES = {
    "algebra.exponents.calls": WORDS_RATE,
    "algebra.exponents.distinct_ratio": WORDS_RATE,
    "terms.lub.calls": WORDS_RATE,
    "terms.lub.self_s": f"{WORDS_RATE}, {WORDS_TAIL}",
    "terms.lub.out_leaves": WORDS_RATE,
    "terms.basis_build.calls": WORDS_RATE,
    "terms.basis_build.self_s": f"{WORDS_RATE}, {WORDS_TAIL}",
    "terms.sibling_families.self_s": f"{WORDS_RATE}, {WORDS_TAIL}",
    "terms.cells_admissible.self_s": WORDS_RATE,
    # mean over the specs a run parses of the largest size their "patterns" cache reached
    "terms.pattern_cache.entries": "peak_rss_mb on words",
    "terms.leq.calls": "throughput_rps on topology",
    "terms.leq.self_s": "throughput_rps on topology",
    "terms.enumerate_bases.self_s": "throughput_rps on topology",
    "terms.lower_closure.calls": SYM_TAIL,
    "terms.lower_closure.self_s": SYM_TAIL,
    "terms.lower_closure.bases": SYM_TAIL,
    "elements.compose.calls": WORDS_BOTH,
    "elements.compose.self_s": WORDS_BOTH,
    "elements.reduce.self_s": WORDS_BOTH,
    "elements.reduce.shrink_ratio": WORDS_BOTH,
    "elements.equals.calls": WORDS_BOTH,
    "elements.equals.true_ratio": WORDS_BOTH,
    "elements.image_of_leaf.calls": WORDS_BOTH,
    "elements.close_subgroup.self_s": SYM_RATE,
    "elements.close_subgroup.compose_per_element": SYM_RATE,
    "cones.act.self_s": SYM_TAIL,
    "cones.witness_basis.self_s": SYM_TAIL,
    "cones.tuple_witness.self_s": SYM_TAIL,
    "cones.tuple_witness.out_leaves": SYM_TAIL,
    "cones.disjointify.self_s": SYM_TAIL,
    "centralizer.invariant_basis.self_s": SYM_RATE,
    "centralizer.minimize_invariant_basis.self_s": SYM_RATE,
    "centralizer.orbit_types.self_s": SYM_RATE,
    "centralizer.type_centralizer_L.self_s": SYM_RATE,
    "centralizer.normalizer_analysis.self_s": SYM_RATE,
    "stein.link_vertices.self_s": TOPO,
    "stein.link_vertices.vertices": TOPO,
    "stein.flag.self_s": TOPO,
    "stein.flag.simplices": TOPO,
    "stein.homology.self_s": TOPO,
    "stein.h_descending_link.self_s": TOPO,
    "stein.build_stein.self_s": TOPO,
    **{
        f"{layer}.{kind}": f"every end-to-end metric on the workloads using {layer}"
        for layer in ("algebra", "terms", "elements", "cones", "centralizer", "stein")
        for kind in ("self_s", "failed")
    },
    "trace.overhead_ratio": "none: traced over untraced request time at the reference speed, minus 1",
    "trace.spans": "none: spans recorded in the traced run",
}

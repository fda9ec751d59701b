"""Which gpdkit callables the traced run wraps, and the per-layer metrics.

A layer is a module of src/gpdkit.  Each span wraps one public function
or method (the generators share one span).  A span's self time counts
callees that are not wrapped themselves, e.g. validate_morphism inside
run_checks or identity_ggt inside build_gauge_groupoid.
"""

from __future__ import annotations

from tracer import SpanStats, Target

BENCH_SPAN = "bench.task"


def _pinned_bundle(tracer, B, *rest):
    return (tracer.pin(B),) + rest


TARGETS = [
    Target("core.validate_action", "gpdkit.core", "validate_action",
           size=lambda args, r: {"act_entries": len(args[0].act)}),
    Target("core.pair_id", "gpdkit.core", "pair_id", key=lambda tr, a, b: (a, b)),
    Target("core.product_groupoid", "gpdkit.core", "product_groupoid"),
    Target("core.generalized_conjugation", "gpdkit.core", "generalized_conjugation"),
    Target("core.validate_groupoid", "gpdkit.core", "validate_groupoid"),
    Target("bundles.fiber", "gpdkit.bundles", "fiber", owner="PrincipalBundle",
           key=_pinned_bundle),
    Target("bundles.division_map", "gpdkit.bundles", "division_map", key=_pinned_bundle),
    Target("bundles.validate_bundle", "gpdkit.bundles", "validate_bundle"),
    Target("bundles.verify_division_properties", "gpdkit.bundles",
           "verify_division_properties"),
    Target("bundles.fibred_product", "gpdkit.bundles", "fibred_product"),
    Target("gauge.star", "gpdkit.gauge", "star"),
    Target("gauge.build_gauge_groupoid", "gpdkit.gauge", "build_gauge_groupoid",
           size=lambda args, r: {"compose_entries": len(r.groupoid.compose)}),
    Target("gauge.gauge_group", "gpdkit.gauge", "gauge_group"),
    Target("gauge.morphism_to_ggt", "gpdkit.gauge", "morphism_to_ggt"),
    Target("gauge.check_division_invariance", "gpdkit.gauge", "check_division_invariance"),
    Target("gauge.validate_ggt", "gpdkit.gauge", "validate_ggt"),
    Target("hs.build_hs_gauge_groupoid", "gpdkit.hs", "build_hs_gauge_groupoid"),
    Target("hs.hs_gauge_group", "gpdkit.hs", "hs_gauge_group"),
    Target("hs.is_left_invariant_ggt", "gpdkit.hs", "is_left_invariant_ggt"),
    Target("hs.validate_hs", "gpdkit.hs", "validate_hs"),
    Target("builders.enumerate_ggts", "gpdkit.builders", "enumerate_ggts",
           size=lambda args, r: {"ggts_out": len(r)}),
    Target("builders.enumerate_bundle_morphisms", "gpdkit.builders",
           "enumerate_bundle_morphisms"),
    Target("builders.generators", "gpdkit.builders", "random_groupoid"),
    Target("builders.generators", "gpdkit.builders", "random_bundle"),
    Target("builders.generators", "gpdkit.builders", "random_hs"),
    Target("serialize.loads", "gpdkit.serialize", "loads",
           size=lambda args, r: {"bytes": len(args[0].encode())}),
    Target("serialize.dumps", "gpdkit.serialize", "dumps"),
    Target("theorems.run_checks", "gpdkit.theorems", "run_checks"),
    Target("cli.main", "gpdkit.cli", "main"),
]

# name -> unit; the field after the span name selects what is reported
LAYER_METRICS = {
    "core.validate_action.calls": "count",
    "core.validate_action.self_s": "s",
    "core.validate_action.act_entries": "count",
    "core.pair_id.calls": "count",
    "core.pair_id.self_s": "s",
    "core.pair_id.distinct_ratio": "ratio",
    "core.product_groupoid.self_s": "s",
    "core.generalized_conjugation.self_s": "s",
    "core.validate_groupoid.calls": "count",
    "core.validate_groupoid.self_s": "s",
    "bundles.fiber.calls": "count",
    "bundles.fiber.self_s": "s",
    "bundles.fiber.distinct_ratio": "ratio",
    "bundles.division_map.calls": "count",
    "bundles.division_map.self_s": "s",
    "bundles.division_map.distinct_ratio": "ratio",
    "bundles.validate_bundle.calls": "count",
    "bundles.validate_bundle.self_s": "s",
    "bundles.verify_division_properties.self_s": "s",
    "bundles.fibred_product.self_s": "s",
    "gauge.star.calls": "count",
    "gauge.star.self_s": "s",
    "gauge.build_gauge_groupoid.self_s": "s",
    "gauge.build_gauge_groupoid.compose_entries": "count",
    "gauge.gauge_group.self_s": "s",
    "gauge.morphism_to_ggt.self_s": "s",
    "gauge.check_division_invariance.self_s": "s",
    "gauge.validate_ggt.self_s": "s",
    "hs.build_hs_gauge_groupoid.self_s": "s",
    "hs.hs_gauge_group.self_s": "s",
    "hs.is_left_invariant_ggt.calls": "count",
    "hs.is_left_invariant_ggt.self_s": "s",
    "hs.validate_hs.self_s": "s",
    "builders.enumerate_ggts.calls": "count",
    "builders.enumerate_ggts.self_s": "s",
    "builders.enumerate_ggts.ggts_out": "count",
    "builders.enumerate_bundle_morphisms.self_s": "s",
    "builders.generators.self_s": "s",
    "serialize.loads.calls": "count",
    "serialize.loads.self_s": "s",
    "serialize.loads.bytes": "bytes",
    "serialize.dumps.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "theorems.run_checks.self_s": "s",
    "bench.task.self_s": "s",
}
# metrics computed by the run itself rather than read from one span
RUN_METRICS = {
    "builders.generators.setup_self_s": "s",
    "trace.wall_s": "s",
    "trace.loop_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_values(passes: list[dict[str, SpanStats]]) -> dict[str, float]:
    """Per-layer metric values from the traced passes of one run.

    Counts and ratios come from the first pass (they repeat exactly for
    a seed); self times are the least over the passes.
    """
    first = passes[0]
    values = {}
    for metric in LAYER_METRICS:
        span, field = metric.rsplit(".", 1)
        st = first.get(span, SpanStats())
        if field == "calls":
            values[metric] = st.calls
        elif field == "self_s":
            values[metric] = min(
                p[span].self_ns / 1e9 if span in p else 0.0 for p in passes
            )
        elif field == "distinct_ratio":
            values[metric] = len(st.keys) / st.calls if st.calls else 0.0
        else:
            values[metric] = st.sizes.get(field, 0)
    return values

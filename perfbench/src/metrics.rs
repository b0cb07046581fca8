//! The metric catalogue (names and units, mirrored in `BENCHMARK.json`) and
//! the values one run collects.

use crate::Workload;
use std::collections::BTreeMap;

/// End-to-end metrics, printed with tracing off, on every workload.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("gda_ratio", "x"),
    ("gene_ratio", "x"),
    ("kmeans_ratio", "x"),
    ("logreg_ratio", "x"),
    ("pagerank_ratio", "x"),
    ("q1_ratio", "x"),
    ("triangles_ratio", "x"),
    ("handopt_ratio", "x"),
    ("ok_ratio", "fraction"),
    ("peak_rss_mb", "MiB"),
];

/// `BatchIneligible::key` values, counted per reason.
pub const BATCH_REASONS: [&str; 15] = [
    "boxed_array_read",
    "boxed_operand",
    "dynamic_coercion",
    "dynamic_length",
    "fallback_primitive",
    "tuple_op",
    "struct_op",
    "bucket_op",
    "outside_whitelist",
    "nested_trip_count_varies",
    "nested_loop_in_body",
    "nested_boxed_reduce",
    "boxed_gen_result",
    "segmented_boxed_value",
    "segmented_reducer_varies",
];

/// `NativeIneligible::key` values, counted per reason.
pub const NATIVE_REASONS: [&str; 11] = [
    "compiler_unavailable",
    "compile_failed",
    "load_failed",
    "unsupported_platform",
    "nested_loop",
    "bucket_collect",
    "untyped_bucket_key",
    "non_scalar_value",
    "transcendental_math",
    "unsupported_free_var",
    "unsupported_op",
];

/// `RejectReason::label` values, counted per reason.
pub const REJECT_REASONS: [&str; 5] = [
    "queue_full",
    "rate_limited",
    "cost_shed",
    "tenant_shed",
    "shutting_down",
];

/// Per-layer metrics, printed with tracing on, on every workload (a layer
/// a workload does not exercise reads 0; see [`applies`]).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    add("apps.marshal_s", "s");
    add("apps.decode_s", "s");
    for app in crate::apps::App::ALL {
        add(&format!("app.{}_s", app.key()), "s");
    }
    add("app.gibbs_ratio", "x");
    add("frontend.stage_s", "s");
    add("transform.optimize_s", "s");
    add("transform.fusion_applied", "count");
    add("transform.fusion_rejected", "count");
    add("analysis.plan_s", "s");
    add("analysis.partitioned_reads", "count");
    add("analysis.broadcast_reads", "count");
    add("analysis.fallback_reads", "count");
    for (name, unit) in [
        ("run_s", "s"),
        ("unattributed_s", "s"),
        ("compile_s", "s"),
        ("kernels_compiled", "count"),
        ("kernel_cache_hits", "count"),
        ("batched_s", "s"),
        ("batched_elements", "count"),
        ("simd_blocks", "count"),
        ("segmented_blocks", "count"),
        ("scatter_loops", "count"),
        ("treewalk_s", "s"),
        ("fallback_loops", "count"),
        ("batch_ineligible", "count"),
        ("tasks_stolen", "count"),
    ] {
        add(&format!("interp.{name}"), unit);
    }
    for r in BATCH_REASONS {
        add(&format!("interp.batch_ineligible.{r}"), "count");
    }
    add("native.compile_s", "s");
    add("native.exec_s", "s");
    add("native.loops", "count");
    add("native.fallbacks", "count");
    for r in NATIVE_REASONS {
        add(&format!("native.fallbacks.{r}"), "count");
    }
    for (name, unit) in [
        ("tasks", "count"),
        ("sends", "count"),
        ("send_bytes", "bytes"),
        ("staged_values", "count"),
        ("halo_exchanges", "count"),
        ("shuffles", "count"),
        ("single_node_s", "s"),
        ("network_model_s", "s"),
    ] {
        add(&format!("cluster.{name}"), unit);
    }
    for (name, unit) in [
        ("query_p50_ms", "ms"),
        ("query_p99_ms", "ms"),
        ("max_qps", "queries/s"),
        ("queue_wait_p50_ms", "ms"),
        ("queue_wait_p99_ms", "ms"),
        ("exec_ms", "ms"),
        ("gen_lag_ms", "ms"),
        ("admitted", "count"),
        ("rejected", "count"),
    ] {
        add(&format!("service.{name}"), unit);
    }
    for r in REJECT_REASONS {
        add(&format!("service.rejected.{r}"), "count");
    }
    for (name, unit) in [
        ("open_low_p50_ms", "ms"),
        ("open_low_p99_ms", "ms"),
        ("open_high_p50_ms", "ms"),
        ("open_high_p99_ms", "ms"),
        ("ladder_max_qps", "queries/s"),
        ("generator_behind", "count"),
    ] {
        add(&format!("service.{name}"), unit);
    }
    add("service.cache_hit_ratio_repeat", "fraction");
    add("service.cache_hit_ratio_adhoc", "fraction");
    add("service.max_degrade_level", "level");
    add("service.completed_error", "count");
    for app in crate::apps::App::ALL {
        add(&format!("handopt.{}_s", app.key()), "s");
    }
    for layer in crate::trace::LAYERS {
        add(&format!("self.{layer}_s"), "s");
    }
    add("trace.overhead_ms", "ms");
    add("trace.span_coverage", "fraction");
    m
}

/// Does per-layer metric `name` apply to workload `w`? A traced run must
/// record every metric that applies; one that does not reads 0.
pub fn applies(w: Workload, name: &str) -> bool {
    let table2 = matches!(w, Workload::Table2Seq | Workload::Table2ParNative);
    if name.contains("gibbs") {
        table2
    } else if name.starts_with("analysis.") || name.starts_with("cluster.") {
        w == Workload::Cluster2Node
    } else if name.starts_with("service.") {
        w == Workload::ServiceMix
    } else if name.starts_with("native.") {
        w == Workload::Table2ParNative
    } else {
        true
    }
}

/// Metric values collected by one run, by name.
#[derive(Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.0.entry(name.into()).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, f64)> {
        self.0.iter().map(|(k, v)| (k, *v))
    }

    /// Divide every value by `n`.
    pub fn scale(&mut self, n: f64) {
        for v in self.0.values_mut() {
            *v /= n;
        }
    }
}

//! Closed-loop workloads: `table2-seq`, `table2-par-native` and
//! `cluster-2node`.
//!
//! One process runs one workload. It generates the inputs, sets every app
//! up cold (staging through the first checked result), then runs passes
//! until the measuring time is up. A pass runs every app once, interleaved,
//! each right after its hand-optimized counterpart, so drift in machine
//! speed cancels out of the per-pass ratio. An operation runs from the host
//! data through marshalling, execution and decoding to the host result.

use crate::apps::{self, App, HostData, Output};
use crate::config::{Sizes, PROCESSES, SETUP_PROCESSES, THREADS};
use crate::metrics::{Values, BATCH_REASONS, NATIVE_REASONS};
use crate::stats::{geomean, median, peak_rss_mb, quantile};
use crate::trace::Trace;
use crate::Run;
use dmll_core::Program;
use dmll_interp::{
    batch_reject_reasons, eval_cluster_measured, eval_parallel, eval_parallel_report,
    native_fallback_reasons, tier_totals, ClusterOptions, ClusterReport, Externs, Interp,
    ParallelOptions, TierTotals, Value,
};
use dmll_transform::{pipeline, Target};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a closed-loop workload executes its programs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// The default `Interp` on one thread: fusion hook and the batched,
    /// SIMD and segmented tiers on, native off.
    Seq,
    /// `eval_parallel_report` on [`THREADS`] workers with the native tier on.
    ParNative,
    /// `eval_cluster_measured` on 2 nodes with a [`THREADS`]-wide task plan
    /// and the exported analysis plan attached, no faults.
    Cluster,
}

/// Fewest passes a run makes, however long they take.
const MIN_PASSES: usize = 3;

/// One app, set up.
struct Case {
    app: App,
    data: HostData,
    program: Program,
    externs: Externs,
    cluster: Option<ClusterOptions>,
    /// Cluster only: the `eval_parallel` result at the same plan width.
    reference: Option<Value>,
}

/// Run one app; the cluster also returns its report.
fn execute(
    path: Path,
    case: &Case,
    inputs: &[(&str, Value)],
) -> Result<(Value, Option<ClusterReport>), String> {
    match path {
        Path::Seq => Interp::new(&case.program)
            .with_externs(case.externs.clone())
            .run(inputs)
            .map(|v| (v, None))
            .map_err(|e| e.to_string()),
        Path::ParNative => {
            let options = ParallelOptions::new(THREADS)
                .with_native()
                .with_externs(case.externs.clone());
            eval_parallel_report(&case.program, inputs, &options)
                .map(|(v, _)| (v, None))
                .map_err(|e| e.to_string())
        }
        Path::Cluster => {
            let options = case.cluster.as_ref().expect("cluster options set up");
            eval_cluster_measured(&case.program, inputs, options)
                .map(|(v, r)| (v, Some(r)))
                .map_err(|e| e.to_string())
        }
    }
}

/// One timed operation: marshal, run, decode. Returns the decoded output
/// and the operation's wall seconds; layer figures go into `layers`.
fn operation(
    trace: &Trace,
    path: Path,
    case: &Case,
    op: u64,
    parent: Option<usize>,
    layers: &mut Values,
) -> Result<(Output, f64), String> {
    let run_layer = if path == Path::Cluster {
        "cluster"
    } else {
        "interp"
    };
    let before = trace.on().then(tier_totals);
    let t0 = Instant::now();
    let root = trace.open("bench", "op", op, parent);
    let (inputs, marshal_s) = trace.span("apps", "marshal", op, root, || {
        apps::marshal(&case.program, &case.data)
    });
    let (ran, run_s) = trace.span(run_layer, "run", op, root, || {
        execute(path, case, &apps::borrowed(&inputs))
    });
    let (decoded, decode_s) = trace.span("apps", "decode", op, root, || {
        // Releasing the operation's interpreter values is part of it.
        let out = ran.map(|(v, extra)| (apps::decode(case.app, &v), v, extra));
        drop(inputs);
        out
    });
    trace.close(root);
    let secs = t0.elapsed().as_secs_f64();
    let (decoded, value, extra) = decoded?;
    if let Some(before) = before {
        layers.add("apps.marshal_s", marshal_s);
        layers.add("apps.decode_s", decode_s);
        layers.add("interp.run_s", run_s);
        tier_delta(&before, &tier_totals(), run_s, layers);
        if let Some(r) = extra {
            for (name, v) in [
                ("tasks", r.tasks as f64),
                ("sends", r.sends as f64),
                ("send_bytes", r.send_bytes as f64),
                ("staged_values", r.staged_values as f64),
                ("halo_exchanges", r.halo_exchanges as f64),
                ("shuffles", r.shuffles as f64),
                ("network_model_s", r.network_nanos as f64 / 1e9),
            ] {
                layers.add(format!("cluster.{name}"), v);
            }
        }
    }
    if let Some(reference) = &case.reference {
        if &value != reference {
            return Err("cluster result differs from eval_parallel at the same plan width".into());
        }
    }
    Ok((decoded?, secs))
}

/// Add the execution tier counters between two snapshots to `layers`;
/// `run_s` is the execution time they happened in.
pub(crate) fn tier_delta(a: &TierTotals, b: &TierTotals, run_s: f64, layers: &mut Values) {
    let secs = |x: u64, y: u64| (y - x) as f64 / 1e9;
    let count = |x: u64, y: u64| (y - x) as f64;
    let counted = secs(a.compiled_nanos, b.compiled_nanos)
        + secs(a.treewalk_nanos, b.treewalk_nanos)
        + secs(a.compile_nanos, b.compile_nanos)
        + secs(a.native_compile_nanos, b.native_compile_nanos);
    layers.add("interp.unattributed_s", run_s - counted);
    layers.add("interp.batched_s", secs(a.batched_nanos, b.batched_nanos));
    layers.add(
        "interp.batched_elements",
        count(a.batched_elements, b.batched_elements),
    );
    layers.add("interp.simd_blocks", count(a.simd_blocks, b.simd_blocks));
    layers.add(
        "interp.segmented_blocks",
        count(a.segmented_blocks, b.segmented_blocks),
    );
    layers.add(
        "interp.scatter_loops",
        count(a.scatter_loops, b.scatter_loops),
    );
    layers.add(
        "interp.treewalk_s",
        secs(a.treewalk_nanos, b.treewalk_nanos),
    );
    layers.add(
        "interp.fallback_loops",
        count(a.fallback_loops, b.fallback_loops),
    );
    layers.add(
        "interp.batch_ineligible",
        count(a.batch_ineligible, b.batch_ineligible),
    );
    layers.add("native.exec_s", secs(a.native_nanos, b.native_nanos));
    layers.add("native.loops", count(a.native_loops, b.native_loops));
    layers.add(
        "native.fallbacks",
        count(a.native_fallbacks, b.native_fallbacks),
    );
    layers.add("interp.tasks_stolen", count(a.tasks_stolen, b.tasks_stolen));
}

/// Set-up-scoped tier counters: compiles, cache hits, fusion.
pub(crate) fn setup_counters(a: &TierTotals, b: &TierTotals, layers: &mut Values) {
    layers.add(
        "interp.compile_s",
        (b.compile_nanos - a.compile_nanos) as f64 / 1e9,
    );
    layers.add(
        "interp.kernels_compiled",
        (b.kernels_compiled - a.kernels_compiled) as f64,
    );
    layers.add(
        "interp.kernel_cache_hits",
        (b.kernel_cache_hits - a.kernel_cache_hits) as f64,
    );
    layers.add(
        "native.compile_s",
        (b.native_compile_nanos - a.native_compile_nanos) as f64 / 1e9,
    );
    layers.add(
        "transform.fusion_applied",
        (b.fusion_applied - a.fusion_applied) as f64,
    );
    layers.add(
        "transform.fusion_rejected",
        (b.fusion_rejected - a.fusion_rejected) as f64,
    );
}

/// Per-reason decline counts seen since `batch0`/`native0`.
pub fn reason_delta(
    batch0: &BTreeMap<String, u64>,
    native0: &BTreeMap<String, u64>,
    layers: &mut Values,
    unknown: &mut BTreeMap<String, f64>,
) {
    let (batch1, native1) = reasons();
    for (prefix, known, before, after) in [
        (
            "interp.batch_ineligible",
            &BATCH_REASONS[..],
            batch0,
            &batch1,
        ),
        ("native.fallbacks", &NATIVE_REASONS[..], native0, &native1),
    ] {
        for reason in known {
            layers.add(format!("{prefix}.{reason}"), 0.0);
        }
        for (reason, n) in after {
            let d = (n - before.get(reason).copied().unwrap_or(0)) as f64;
            let name = format!("{prefix}.{reason}");
            if known.contains(&reason.as_str()) {
                layers.add(name, d);
            } else {
                *unknown.entry(name).or_insert(0.0) += d;
            }
        }
    }
}

/// Snapshot of the batch and native decline reasons, by key.
pub fn reasons() -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    (
        batch_reject_reasons()
            .into_iter()
            .map(|(r, n)| (r.key().to_string(), n))
            .collect(),
        native_fallback_reasons()
            .into_iter()
            .map(|(r, n)| (r.to_string(), n))
            .collect(),
    )
}

/// Stage, optimize (and for the cluster, fuse and plan) one app.
fn prepare(
    trace: &Trace,
    path: Path,
    app: App,
    data: HostData,
    parent: Option<usize>,
    layers: &mut Values,
) -> Case {
    let op = app as u64;
    let (mut program, stage_s) =
        trace.span("frontend", "stage", op, parent, || apps::stage(app, &data));
    let (_, mut optimize_s) = trace.span("transform", "optimize", op, parent, || {
        pipeline::optimize_unfused(&mut program, Target::Cpu)
    });
    let mut cluster = None;
    if path == Path::Cluster {
        // Fuse first, then plan: the plan must describe the loops that
        // execute, so the analyzed program runs with the hook off.
        let (report, fuse_s) = trace.span("transform", "fuse", op, parent, || {
            pipeline::optimize_runtime(&mut program, Target::Cpu)
        });
        optimize_s += fuse_s;
        layers.add("transform.fusion_applied", report.applied_total() as f64);
        layers.add("transform.fusion_rejected", report.rejected_total() as f64);
        let (plan, plan_s) = trace.span("analysis", "plan", op, parent, || {
            dmll_analysis::export_plan(&dmll_analysis::analyze(&mut program))
        });
        layers.add("analysis.plan_s", plan_s);
        for name in [
            "analysis.partitioned_reads",
            "analysis.broadcast_reads",
            "analysis.fallback_reads",
        ] {
            layers.add(name, 0.0);
        }
        for lp in plan.per_loop.values() {
            for p in lp.placements.values() {
                let name = match p {
                    dmll_analysis::Placement::Partitioned { .. } => "analysis.partitioned_reads",
                    dmll_analysis::Placement::Broadcast => "analysis.broadcast_reads",
                    dmll_analysis::Placement::Fallback => "analysis.fallback_reads",
                };
                layers.add(name, 1.0);
            }
        }
        cluster = Some(
            ClusterOptions::new(2, THREADS)
                .with_plan(Arc::new(plan))
                .without_fusion(),
        );
    }
    layers.add("frontend.stage_s", stage_s);
    layers.add("transform.optimize_s", optimize_s);
    Case {
        app,
        externs: app.externs(),
        data,
        program,
        cluster,
        reference: None,
    }
}

/// Outcome of one cold set-up.
pub struct Setup {
    pub secs: f64,
    pub attempted: u64,
    pub failed: u64,
}

fn apps_of(path: Path) -> &'static [App] {
    if path == Path::Cluster {
        &App::WITHOUT_EXTERNS
    } else {
        &App::ALL
    }
}

/// Generate inputs and expected outputs for every app of the workload.
fn generate(path: Path, sizes: &Sizes, seed: u64) -> Vec<(App, HostData, Output)> {
    apps_of(path)
        .iter()
        .map(|&app| {
            let data = apps::generate(app, sizes, seed);
            let expected = apps::handopt(&data);
            (app, data, expected)
        })
        .collect()
}

/// Cold set-up: from the first staging call to the first checked result
/// of every app. Returns the cases and what the set-up measured.
fn setup(
    trace: &Trace,
    path: Path,
    inputs: Vec<(App, HostData, Output)>,
    layers: &mut Values,
) -> (Vec<Case>, Setup) {
    let before = tier_totals();
    let t0 = Instant::now();
    let root = trace.open("bench", "setup", u64::MAX, None);
    let mut cases = Vec::new();
    let mut failed = 0;
    for (app, data, expected) in inputs {
        let case = prepare(trace, path, app, data, root, layers);
        let checked = operation(trace, path, &case, app as u64, root, &mut Values::default())
            .and_then(|(out, _)| apps::check(&out, &expected));
        if let Err(e) = checked {
            eprintln!("setup: {} failed: {e}", app.key());
            failed += 1;
        }
        cases.push(case);
    }
    trace.close(root);
    let secs = t0.elapsed().as_secs_f64();
    setup_counters(&before, &tier_totals(), layers);
    let attempted = cases.len() as u64;
    (
        cases,
        Setup {
            secs,
            attempted,
            failed,
        },
    )
}

/// A set-up-only child process's share of a run: generate, set up cold.
pub fn child_setup(path: Path, sizes: &Sizes, seed: u64) -> Setup {
    let inputs = generate(path, sizes, seed);
    setup(&Trace::new(false), path, inputs, &mut Values::default()).1
}

/// A child process's share of a run: generate, set up cold, measure for
/// `seconds`. Returns the set-up (with every operation attempted and
/// failed) and the median per-pass ratio to handopt of each app.
pub fn child(path: Path, sizes: &Sizes, seed: u64, seconds: f64) -> (Setup, BTreeMap<App, f64>) {
    let trace = Trace::new(false);
    let inputs = generate(path, sizes, seed);
    let (mut cases, mut setup) = setup(&trace, path, inputs, &mut Values::default());
    let m = measure(&trace, path, &mut cases, seconds, false);
    setup.attempted += m.attempted;
    setup.failed += m.failed;
    let ratios = m
        .samples
        .iter()
        .map(|(app, s)| (*app, median(&s.ratio)))
        .collect();
    (setup, ratios)
}

/// Per-app samples over the measured passes.
#[derive(Default)]
struct Samples {
    op: Vec<f64>,
    op_traced: Vec<f64>,
    handopt: Vec<f64>,
    ratio: Vec<f64>,
}

/// What one process's measured passes recorded.
#[derive(Default)]
struct Measured {
    samples: BTreeMap<App, Samples>,
    passes: usize,
    traced_passes: usize,
    /// Per-layer sums over the traced passes.
    layers: Values,
    unknown_reasons: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

/// Run passes over the set-up cases until `seconds` are up (at least
/// [`MIN_PASSES`]). With `traced`, every other pass records spans.
fn measure(trace: &Trace, path: Path, cases: &mut [Case], seconds: f64, traced: bool) -> Measured {
    let mut m = Measured::default();
    if path == Path::Cluster {
        for case in cases.iter_mut() {
            let inputs = apps::marshal(&case.program, &case.data);
            match eval_parallel(&case.program, &apps::borrowed(&inputs), THREADS) {
                Ok(v) => case.reference = Some(v),
                Err(e) => {
                    eprintln!(
                        "setup: {} eval_parallel reference failed: {e}",
                        case.app.key()
                    );
                    m.failed += 1;
                }
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut op = 0u64;
    let untraced = Trace::new(false);
    while m.passes < MIN_PASSES || Instant::now() < deadline {
        // A traced run alternates traced and untraced passes; the
        // difference of their medians is the tracing overhead.
        let traced = traced && m.passes.is_multiple_of(2);
        let pass_trace = if traced { trace } else { &untraced };
        let (batch0, native0) = reasons();
        for case in cases.iter() {
            op += 1;
            let s = m.samples.entry(case.app).or_default();
            let (want, handopt_s) = pass_trace.span("handopt", case.app.key(), op, None, || {
                apps::handopt(&case.data)
            });
            m.attempted += 1;
            match operation(pass_trace, path, case, op, None, &mut m.layers)
                .and_then(|(out, secs)| apps::check(&out, &want).map(|()| secs))
            {
                Ok(secs) if traced => s.op_traced.push(secs),
                Ok(secs) => {
                    s.op.push(secs);
                    s.handopt.push(handopt_s);
                    s.ratio.push(secs / handopt_s);
                }
                Err(e) => {
                    eprintln!("pass {}: {} failed: {e}", m.passes, case.app.key());
                    m.failed += 1;
                }
            }
            if traced && path == Path::Cluster {
                let inputs = apps::marshal(&case.program, &case.data);
                let t = Instant::now();
                let _ = eval_parallel(&case.program, &apps::borrowed(&inputs), THREADS);
                m.layers
                    .add("cluster.single_node_s", t.elapsed().as_secs_f64());
            }
        }
        if traced {
            reason_delta(&batch0, &native0, &mut m.layers, &mut m.unknown_reasons);
            m.traced_passes += 1;
        }
        m.passes += 1;
    }
    m
}

/// Run one closed-loop workload and fill `run`'s end-to-end and per-layer
/// values. The run measures in [`PROCESSES`] fresh processes, this one and
/// its children, a share of the time each: per-process state (where data
/// lands in memory, hash seeds) moved one app's figures by half between
/// processes, so each per-app figure is the mean of the processes'
/// medians, and `peak_rss_mb` the median of the processes' peaks.
/// [`SETUP_PROCESSES`] more children only time a cold set-up.
pub fn run(path: Path, sizes: &Sizes, run: &mut Run) {
    let trace = Trace::new(run.trace);
    let inputs = generate(path, sizes, run.seed);
    let (mut cases, first) = setup(&trace, path, inputs, &mut run.layers);
    let share = run.seconds / PROCESSES as f64;
    let setup_only = SETUP_PROCESSES[path as usize];
    let mut kids = crate::children(run, &first, PROCESSES - 1, setup_only, share);
    let m = measure(&trace, path, &mut cases, share, run.trace);
    kids.rss.push(peak_rss_mb());
    run.end.set("peak_rss_mb", median(&kids.rss));
    run.attempted += m.attempted;
    run.failed += m.failed;
    let Measured {
        samples,
        passes,
        traced_passes,
        layers: mut pass_layers,
        unknown_reasons,
        ..
    } = m;

    // End-to-end: untraced samples only (a traced run's untraced passes).
    let mut ratios = Vec::new();
    for (app, s) in &samples {
        let key = app.key();
        let mut per_process = kids.ratios.remove(key).unwrap_or_default();
        per_process.push(median(&s.ratio));
        per_process.retain(|r| r.is_finite());
        let m = median(&s.op);
        let ratio = per_process.iter().sum::<f64>() / per_process.len() as f64;
        run.note(format!(
            "{key}: median {m:.6} s, p90 {:.6} s, n {}; handopt median {:.6} s; ratio {ratio:.2}x (mean of per-process medians {per_process:.2?})",
            quantile(&s.op, 0.9),
            s.op.len(),
            median(&s.handopt),
        ));
        // Gibbs runs only where externs do, so its ratio is a layer figure.
        if *app == App::Gibbs {
            run.layers.set("app.gibbs_ratio", ratio);
        } else {
            run.end.set(format!("{key}_ratio"), ratio);
        }
        run.layers.set(format!("app.{key}_s"), m);
        run.layers
            .set(format!("handopt.{key}_s"), median(&s.handopt));
        ratios.push(ratio);
    }
    run.end.set("handopt_ratio", geomean(&ratios));
    run.end.set("setup_s", median(&kids.setups));
    run.note(format!(
        "setup_s samples {:?}; peak_rss_mb samples {:?}; {passes} passes ({traced_passes} traced)",
        kids.setups, kids.rss
    ));

    if run.trace {
        let n = traced_passes.max(1) as f64;
        pass_layers.scale(n);
        for (k, v) in pass_layers.iter() {
            run.layers.add(k.clone(), v);
        }
        for (k, v) in unknown_reasons {
            run.note(format!("unlisted decline reason {k}: {}", v / n));
        }
        let overheads: Vec<f64> = samples
            .values()
            .filter(|s| !s.op.is_empty() && !s.op_traced.is_empty())
            .map(|s| median(&s.op_traced) - median(&s.op))
            .collect();
        run.layers.set(
            "trace.overhead_ms",
            overheads.iter().sum::<f64>() / overheads.len().max(1) as f64 * 1e3,
        );
        run.layers
            .set("trace.span_coverage", trace.min_child_coverage("op"));
        let setup_self = trace.self_times(|root| root.name == "setup");
        let pass_self = trace.self_times(|root| root.name != "setup");
        for (layer, s) in &setup_self {
            let p = pass_self.get(layer).copied().unwrap_or(0.0) / n;
            run.note(format!(
                "self time {layer:<9} set-up {s:>10.6} s   per pass {p:>10.6} s"
            ));
            run.layers.set(format!("self.{layer}_s"), s + p);
        }
        run.spans = trace.spans();
    }
}

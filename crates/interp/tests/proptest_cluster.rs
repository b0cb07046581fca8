//! Differential properties for the measured cluster executor: for any
//! input data, node count, and seeded fault scenario (node deaths at
//! epoch/shuffle boundaries, link flakes, straggler speculation), the
//! cluster result is bit-identical to the sequential tree-walker and to
//! the single-node parallel tiers at the same task-plan width — across
//! all four generator kinds (collect, reduce, bucket-collect,
//! bucket-reduce), float folds, and loops the kernel compiler declines —
//! and a faulting task reports the same error as sequential evaluation.

use dmll_core::{LayoutHint, Ty};
use dmll_frontend::Stage;
use dmll_interp::cluster::{shuffle_step, ClusterOptions};
use dmll_interp::{
    eval, eval_cluster_measured, eval_parallel, ClusterReport, EvalError, ExecError, Value,
};
use dmll_runtime::{FaultPlan, SpeculationPolicy};
use proptest::prelude::*;
use std::time::Duration;

/// One program exercising every generator kind: a map (collect), a sum
/// (reduce), keyed sums (bucket-reduce), and keyed groups
/// (bucket-collect). Integer arithmetic keeps every fold associative, so
/// sequential, parallel, and cluster agree exactly.
fn all_kinds_program() -> dmll_core::Program {
    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let mapped = st.map(&x, |st, e| {
        let three = st.lit_i(3);
        st.mul(e, &three)
    });
    let total = st.sum(&mapped);
    let zero = st.lit_i(0);
    let sums = st.group_by_reduce(
        &x,
        |st, e| {
            let seven = st.lit_i(7);
            st.rem(e, &seven)
        },
        |_st, e| e.clone(),
        |st, a, b| st.add(a, b),
        Some(&zero),
    );
    let groups = st.group_by(&x, |st, e| {
        let five = st.lit_i(5);
        st.rem(e, &five)
    });
    let sk = st.bucket_keys(&sums);
    let sv = st.bucket_values(&sums);
    let gk = st.bucket_keys(&groups);
    let gv = st.bucket_values(&groups);
    let out = st.tuple(&[&total, &sk, &sv, &gk, &gv]);
    st.finish(&out)
}

/// Floats end to end: a map, a float sum, and keyed float sums. Float
/// folds associate per task plan, so the reference is the single-node
/// parallel tier at the same width.
fn float_program() -> dmll_core::Program {
    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Partitioned);
    let scaled = st.map(&x, |st, e| {
        let k = st.lit_f(1.5);
        let b = st.lit_f(0.25);
        let m = st.mul(e, &k);
        st.add(&m, &b)
    });
    let total = st.sum(&scaled);
    let zero = st.lit_f(0.0);
    let sums = st.group_by_reduce(
        &x,
        |st, e| {
            let i = st.f2i(e);
            let seven = st.lit_i(7);
            st.rem(&i, &seven)
        },
        |_st, e| e.clone(),
        |st, a, b| st.add(a, b),
        Some(&zero),
    );
    let sk = st.bucket_keys(&sums);
    let sv = st.bucket_values(&sums);
    let out = st.tuple(&[&scaled, &total, &sk, &sv]);
    st.finish(&out)
}

/// A loop the kernel compiler declines: its filtered branch calls an
/// effectful extern, which no compiled tier may run. The filter never
/// passes on the generated data, so the tree-walker never makes the call
/// and the run succeeds with every node on the tree-walker.
fn declined_program() -> dmll_core::Program {
    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let n = st.len(&x);
    let audited = st.collect_if(
        &n,
        |st, i| {
            let e = st.read(&x, i);
            let limit = st.lit_i(1_000_000);
            st.gt(&e, &limit)
        },
        |st, i| {
            let e = st.read(&x, i);
            st.extern_call("audit", &[&e], Ty::I64, true, false)
        },
    );
    let total = st.sum(&x);
    let out = st.tuple(&[&audited, &total]);
    st.finish(&out)
}

/// Reads one element past the end in the last task: every tier must
/// fail with the sequential tree-walker's exact error.
fn out_of_bounds_program() -> dmll_core::Program {
    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let n = st.len(&x);
    let shifted = st.collect(&n, |st, i| {
        let one = st.lit_i(1);
        let next = st.add(i, &one);
        st.read(&x, &next)
    });
    st.finish(&shifted)
}

/// One seeded cluster scenario: node count, plan width, and faults.
#[derive(Clone, Debug)]
struct Scenario {
    nodes: usize,
    threads: usize,
    /// Worker node killed at the pre-shuffle boundary of epoch `.1`.
    kill: Option<(usize, u64)>,
    flake_tenths: u32,
    speculate: bool,
    seed: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (2usize..5, 2usize..4),
        (any::<bool>(), 0usize..8, 0u64..3),
        (0u32..3, any::<bool>(), 0u64..1_000),
    )
        .prop_map(
            |(
                (nodes, threads),
                (kill_some, kill_node, kill_epoch),
                (flake_tenths, speculate, seed),
            )| {
                // Only worker nodes die; the coordinator is co-located
                // with node 0.
                let kill = kill_some.then(|| (1 + kill_node % (nodes - 1).max(1), kill_epoch));
                Scenario {
                    nodes,
                    threads,
                    kill,
                    flake_tenths,
                    speculate,
                    seed,
                }
            },
        )
}

impl Scenario {
    fn options(&self) -> ClusterOptions {
        let mut faults = FaultPlan::new(self.seed);
        if let Some((victim, epoch)) = self.kill {
            // Deaths land on epoch/shuffle step boundaries.
            faults = faults.kill_node(victim, shuffle_step(epoch));
        }
        if self.flake_tenths > 0 {
            faults = faults.drop_remote_reads(self.flake_tenths as f64 * 0.1);
        }
        let mut opts = ClusterOptions::new(self.nodes, self.threads).with_faults(faults);
        if self.speculate {
            opts = opts.with_speculation(SpeculationPolicy {
                enabled: true,
                min_samples: 3,
                percentile: 75.0,
                multiplier: 2.0,
                floor: Duration::from_micros(100),
            });
        }
        opts
    }

    /// Run `p` on the cluster. `Ok(None)` is a flaky link exhausting its
    /// retry budget — a typed error, never a wrong answer.
    fn run(
        &self,
        p: &dmll_core::Program,
        inputs: &[(&str, Value)],
    ) -> Result<Option<(Value, ClusterReport)>, TestCaseError> {
        match eval_cluster_measured(p, inputs, &self.options()) {
            Ok(out) => Ok(Some(out)),
            Err(ExecError::Runtime(_)) if self.flake_tenths > 0 => Ok(None),
            Err(other) => Err(TestCaseError::fail(format!("untyped failure: {other:?}"))),
        }
    }

    /// The epoch-0 death is always observable: the first shuffle boundary
    /// is always reached, while later kill steps may fall past the last
    /// loop once fusion merges epochs.
    fn check_deaths(&self, report: &ClusterReport) -> Result<(), TestCaseError> {
        if matches!(self.kill, Some((_, 0))) {
            prop_assert!(report.node_deaths >= 1, "epoch-0 death fired: {:?}", report);
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cluster == tree-walker == single-node parallel, under any
    /// combination of node death, link flakes, and speculation, with
    /// every cluster loop on the batched kernel tier.
    #[test]
    fn cluster_is_bit_identical_under_faults(
        data in prop::collection::vec(-1_000i64..1_000, 64..600),
        sc in scenario(),
    ) {
        let p = all_kinds_program();
        let inputs = [("x", Value::i64_arr(data))];
        let seq = eval(&p, &inputs).unwrap();
        let par = eval_parallel(&p, &inputs, sc.threads).unwrap();
        prop_assert_eq!(&seq, &par, "tree-walker vs single-node parallel");
        if let Some((clu, report)) = sc.run(&p, &inputs)? {
            prop_assert_eq!(&seq, &clu, "cluster diverged: {:?}", report);
            prop_assert!(report.cluster_loops > 0, "large loops ran on the cluster");
            prop_assert_eq!(report.batched_loops, report.cluster_loops, "{:?}", report);
            prop_assert_eq!(report.treewalk_loops, 0, "{:?}", report);
            sc.check_deaths(&report)?;
        }
    }

    /// Float maps, sums and keyed sums fold in the same task order as the
    /// single-node parallel tier at the same width: equal bit-for-bit.
    #[test]
    fn cluster_float_folds_match_parallel_bitwise(
        data in prop::collection::vec(-1_000.0f64..1_000.0, 64..600),
        sc in scenario(),
    ) {
        let p = float_program();
        let inputs = [("x", Value::f64_arr(data))];
        let par = eval_parallel(&p, &inputs, sc.threads).unwrap();
        if let Some((clu, report)) = sc.run(&p, &inputs)? {
            prop_assert_eq!(&par, &clu, "cluster diverged: {:?}", report);
            prop_assert!(report.cluster_loops > 0, "large loops ran on the cluster");
            prop_assert_eq!(report.batched_loops, report.cluster_loops, "{:?}", report);
            sc.check_deaths(&report)?;
        }
    }

    /// A loop the kernel compiler declines runs on the nodes' tree-walker
    /// and still matches both references.
    #[test]
    fn cluster_declined_loops_fall_back_to_tree_walker(
        data in prop::collection::vec(-1_000i64..1_000, 64..600),
        sc in scenario(),
    ) {
        let p = declined_program();
        let inputs = [("x", Value::i64_arr(data))];
        let seq = eval(&p, &inputs).unwrap();
        let par = eval_parallel(&p, &inputs, sc.threads).unwrap();
        prop_assert_eq!(&seq, &par, "tree-walker vs single-node parallel");
        if let Some((clu, report)) = sc.run(&p, &inputs)? {
            prop_assert_eq!(&seq, &clu, "cluster diverged: {:?}", report);
            prop_assert!(report.treewalk_loops > 0, "declined loop tree-walked: {:?}", report);
            sc.check_deaths(&report)?;
        }
    }

    /// An out-of-bounds read inside a node task surfaces as the
    /// sequential tree-walker's exact error.
    #[test]
    fn cluster_task_errors_match_sequential(
        data in prop::collection::vec(-1_000i64..1_000, 64..600),
        sc in scenario(),
    ) {
        let p = out_of_bounds_program();
        let inputs = [("x", Value::i64_arr(data))];
        let seq = eval(&p, &inputs).unwrap_err();
        prop_assert!(matches!(seq, EvalError::IndexOutOfBounds { .. }), "{:?}", seq);
        match eval_cluster_measured(&p, &inputs, &sc.options()) {
            Err(ExecError::Eval(e)) => prop_assert_eq!(e, seq),
            Err(ExecError::Runtime(_)) if sc.flake_tenths > 0 => {}
            other => {
                return Err(TestCaseError::fail(format!("expected {seq:?}, got {other:?}")));
            }
        }
    }
}

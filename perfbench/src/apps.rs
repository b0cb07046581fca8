//! The eight Table 2 applications as the benchmark drives them: seeded
//! host data from `dmll-data`, staging through `dmll-apps`, marshalling into
//! interpreter values, decoding of the result, the hand-optimized
//! counterpart from `dmll-baselines`, and the output check between the two.
//!
//! Every step is a public function of the workspace's crates; the decoders
//! mirror what the `dmll-apps` runners do after their `eval` call, so an
//! operation can be split into its marshal, run and decode layers.

use crate::config::{Sizes, REL_TOL};
use dmll_baselines::handopt;
use dmll_core::Program;
use dmll_data::graph::CsrGraph;
use dmll_data::matrix::DenseMatrix;
use dmll_data::tpch::LineItemColumns;
use dmll_data::FactorGraph;
use dmll_interp::{Externs, Value};

/// One of the eight applications of the paper's Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum App {
    Gda,
    Gene,
    Kmeans,
    Logreg,
    Pagerank,
    Q1,
    Gibbs,
    Triangles,
}

impl App {
    /// Every app, in the order a pass runs them.
    pub const ALL: [App; 8] = [
        App::Gda,
        App::Gene,
        App::Kmeans,
        App::Logreg,
        App::Pagerank,
        App::Q1,
        App::Gibbs,
        App::Triangles,
    ];

    /// The apps every executor can run. Gibbs needs the `hash_unit` extern,
    /// and neither the cluster nor the service takes an extern registry.
    pub const WITHOUT_EXTERNS: [App; 7] = [
        App::Gda,
        App::Gene,
        App::Kmeans,
        App::Logreg,
        App::Pagerank,
        App::Q1,
        App::Triangles,
    ];

    /// Metric-name stem (`<key>_s`, `handopt.<key>_s`).
    pub fn key(self) -> &'static str {
        match self {
            App::Gda => "gda",
            App::Gene => "gene",
            App::Kmeans => "kmeans",
            App::Logreg => "logreg",
            App::Pagerank => "pagerank",
            App::Q1 => "q1",
            App::Gibbs => "gibbs",
            App::Triangles => "triangles",
        }
    }

    /// Extern handlers the app's program calls.
    pub fn externs(self) -> Externs {
        match self {
            App::Gibbs => dmll_apps::gibbs::externs(),
            _ => Externs::new(),
        }
    }
}

/// Host-side inputs of one app, as the `dmll-data` generators produce them.
#[derive(Clone)]
pub enum HostData {
    Gda {
        x: DenseMatrix,
        y: Vec<f64>,
    },
    Gene {
        barcode: Vec<i64>,
        quality: Vec<i64>,
        barcodes: usize,
    },
    Kmeans {
        x: DenseMatrix,
        centroids: DenseMatrix,
    },
    Logreg {
        x: DenseMatrix,
        y: Vec<f64>,
        theta: Vec<f64>,
    },
    Pagerank {
        graph: CsrGraph,
        reversed: CsrGraph,
        ranks: Vec<f64>,
        damping: f64,
    },
    Q1 {
        cols: LineItemColumns,
    },
    Gibbs {
        graph: FactorGraph,
        assignment: Vec<i8>,
        seed: u64,
        sweep: u64,
    },
    Triangles {
        graph: CsrGraph,
    },
}

/// Learning rate of the LogReg step.
const LOGREG_ALPHA: f64 = 0.01;

/// PageRank damping of the repeat programs.
pub const DAMPING: f64 = 0.85;

/// Generate `app`'s inputs at `sizes` from `seed`. The same seed gives the
/// same inputs.
pub fn generate(app: App, sizes: &Sizes, seed: u64) -> HostData {
    let seed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(app as u64 + 1);
    match app {
        App::Gda => {
            let (x, y) = dmll_data::matrix::labeled_binary(sizes.gda.0, sizes.gda.1, seed);
            HostData::Gda { x, y }
        }
        App::Gene => {
            let (reads, barcodes, genes) = sizes.gene;
            let cols = dmll_data::gene::to_columns(&dmll_data::gene::gen_reads(
                reads, barcodes, genes, seed,
            ));
            HostData::Gene {
                barcode: cols.barcode,
                quality: cols.quality,
                barcodes,
            }
        }
        App::Kmeans => {
            let (rows, cols, k) = sizes.kmeans;
            let (x, centroids, _) = dmll_data::matrix::gaussian_clusters(rows, cols, k, 0.5, seed);
            HostData::Kmeans { x, centroids }
        }
        App::Logreg => {
            let (x, y) = dmll_data::matrix::labeled_binary(sizes.logreg.0, sizes.logreg.1, seed);
            let theta = vec![0.0; sizes.logreg.1];
            HostData::Logreg { x, y, theta }
        }
        App::Pagerank => pagerank_data(sizes.pagerank, seed, DAMPING),
        App::Q1 => HostData::Q1 {
            cols: dmll_data::tpch::to_columns(&dmll_data::tpch::gen_lineitems(sizes.q1, seed)),
        },
        App::Gibbs => {
            let graph = dmll_data::factor::gen_factor_graph(sizes.gibbs, 4, seed);
            let assignment = (0..graph.num_vars())
                .map(|v| {
                    if handopt::hash_unit(seed, u64::MAX, v as u64) < 0.5 {
                        1
                    } else {
                        -1
                    }
                })
                .collect();
            HostData::Gibbs {
                graph,
                assignment,
                seed,
                sweep: 1,
            }
        }
        App::Triangles => HostData::Triangles {
            graph: dmll_data::graph::rmat(sizes.triangles.0, sizes.triangles.1, seed).symmetrized(),
        },
    }
}

/// PageRank push inputs over an RMAT graph of `(scale, edge_factor)`.
pub fn pagerank_data(graph: (u32, usize), seed: u64, damping: f64) -> HostData {
    let graph = dmll_data::graph::rmat(graph.0, graph.1, seed);
    let n = graph.num_vertices();
    HostData::Pagerank {
        reversed: graph.reversed(),
        graph,
        ranks: vec![1.0 / n as f64; n],
        damping,
    }
}

/// Stage `app`'s program exactly as its `dmll-apps` constructor writes it.
pub fn stage(app: App, data: &HostData) -> Program {
    match (app, data) {
        (App::Gda, _) => dmll_apps::gda::stage_gda(),
        (App::Gene, _) => dmll_apps::gene::stage_gene(),
        (App::Kmeans, HostData::Kmeans { centroids, .. }) => {
            dmll_apps::kmeans::stage_kmeans(centroids.rows as i64)
        }
        (App::Logreg, _) => dmll_apps::logreg::stage_logreg(LOGREG_ALPHA),
        (App::Pagerank, HostData::Pagerank { damping, .. }) => {
            dmll_apps::pagerank::stage_pagerank_push(*damping)
        }
        (App::Q1, _) => dmll_apps::q1::stage_q1(),
        (App::Gibbs, _) => dmll_apps::gibbs::stage_gibbs_sweep(),
        (App::Triangles, _) => dmll_apps::triangles::stage_triangles(),
        _ => unreachable!("host data of another app"),
    }
}

fn owned(inputs: Vec<(&'static str, Value)>) -> Vec<(String, Value)> {
    inputs
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect()
}

/// Marshal host data into the named input values `program` declares.
pub fn marshal(program: &Program, data: &HostData) -> Vec<(String, Value)> {
    match data {
        HostData::Gda { x, y } => owned(vec![
            ("x", dmll_apps::util::matrix_value(x)),
            ("y", Value::f64_arr(y.clone())),
        ]),
        HostData::Gene {
            barcode, quality, ..
        } => owned(vec![
            ("barcode", Value::i64_arr(barcode.clone())),
            ("quality", Value::i64_arr(quality.clone())),
        ]),
        HostData::Kmeans { x, centroids } => owned(vec![
            ("matrix", dmll_apps::util::matrix_value(x)),
            ("clusters", dmll_apps::util::matrix_value(centroids)),
        ]),
        HostData::Logreg { x, y, theta } => owned(vec![
            ("x", dmll_apps::util::matrix_value(x)),
            ("y", Value::f64_arr(y.clone())),
            ("theta", Value::f64_arr(theta.clone())),
        ]),
        HostData::Pagerank { graph, ranks, .. } => {
            owned(dmll_apps::pagerank::inputs_push(graph, ranks))
        }
        HostData::Q1 { cols } => dmll_apps::q1::inputs_for(program, cols),
        HostData::Gibbs {
            graph,
            assignment,
            seed,
            sweep,
        } => owned(dmll_apps::gibbs::inputs_for(
            graph, assignment, *seed, *sweep,
        )),
        HostData::Triangles { graph } => owned(dmll_apps::triangles::inputs_for(graph)),
    }
}

/// Borrowed view of marshalled inputs, as the executors take them.
pub fn borrowed(inputs: &[(String, Value)]) -> Vec<(&str, Value)> {
    inputs
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect()
}

/// A decoded host-side result.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    /// `(phi, mu0, mu1, sigma)`.
    Gda(f64, Vec<f64>, Vec<f64>, Vec<f64>),
    /// `(barcode, count, mean quality)` sorted by barcode.
    Gene(Vec<(i64, i64, f64)>),
    /// New centroids (row-major) and the assignment.
    Kmeans(Vec<f64>, Vec<i64>),
    /// The new parameter vector.
    Logreg(Vec<f64>),
    /// The new rank vector.
    Pagerank(Vec<f64>),
    /// `(group key, [sum_qty, sum_base, sum_disc, sum_charge], count)`
    /// sorted by key.
    Q1(Vec<(i64, [f64; 4], i64)>),
    /// The new assignment.
    Gibbs(Vec<i64>),
    /// The triangle count.
    Triangles(i64),
}

fn tuple(v: &Value, arity: usize) -> Result<&[Value], String> {
    match v {
        Value::Tuple(parts) if parts.len() == arity => Ok(parts),
        other => Err(format!("expected a {arity}-tuple, got {}", kind(other))),
    }
}

fn kind(v: &Value) -> &'static str {
    match v {
        Value::Tuple(_) => "tuple",
        Value::I64(_) => "i64",
        Value::F64(_) => "f64",
        _ => "other value",
    }
}

fn f64s(v: &Value) -> Result<Vec<f64>, String> {
    v.to_f64_vec()
        .ok_or_else(|| "expected a float collection".to_string())
}

fn i64s(v: &Value) -> Result<Vec<i64>, String> {
    v.to_i64_vec()
        .ok_or_else(|| "expected an integer collection".to_string())
}

/// Decode an app's result value into its host form.
pub fn decode(app: App, v: &Value) -> Result<Output, String> {
    Ok(match app {
        App::Gda => {
            let p = tuple(v, 4)?;
            Output::Gda(
                p[0].as_f64().ok_or("phi is not a float")?,
                f64s(&p[1])?,
                f64s(&p[2])?,
                f64s(&p[3])?,
            )
        }
        App::Gene => {
            let p = tuple(v, 3)?;
            let (keys, counts, means) = (i64s(&p[0])?, i64s(&p[1])?, f64s(&p[2])?);
            let mut rows: Vec<(i64, i64, f64)> = keys
                .into_iter()
                .zip(counts)
                .zip(means)
                .map(|((k, c), m)| (k, c, m))
                .collect();
            rows.sort_by_key(|r| r.0);
            Output::Gene(rows)
        }
        App::Kmeans => {
            let p = tuple(v, 2)?;
            let rows = p[0].as_arr().ok_or("centroids are not a collection")?;
            let mut data = Vec::new();
            for i in 0..rows.len() {
                data.extend(f64s(&rows.get(i).ok_or("missing centroid row")?)?);
            }
            Output::Kmeans(data, i64s(&p[1])?)
        }
        App::Logreg => Output::Logreg(f64s(v)?),
        App::Pagerank => Output::Pagerank(f64s(v)?),
        App::Q1 => {
            let p = tuple(v, 6)?;
            let keys = i64s(&p[0])?;
            let sums = [f64s(&p[1])?, f64s(&p[2])?, f64s(&p[3])?, f64s(&p[4])?];
            let counts = i64s(&p[5])?;
            if sums.iter().any(|s| s.len() != keys.len()) || counts.len() != keys.len() {
                return Err("ragged Q1 result columns".into());
            }
            let mut rows: Vec<(i64, [f64; 4], i64)> = (0..keys.len())
                .map(|i| {
                    (
                        keys[i],
                        [sums[0][i], sums[1][i], sums[2][i], sums[3][i]],
                        counts[i],
                    )
                })
                .collect();
            rows.sort_by_key(|r| r.0);
            Output::Q1(rows)
        }
        App::Gibbs => Output::Gibbs(i64s(v)?),
        App::Triangles => Output::Triangles(v.as_i64().ok_or("count is not an integer")?),
    })
}

/// The hand-optimized counterpart of one operation, from the same host
/// data (for Gibbs, the plain-Rust Jacobi sweep of `dmll-apps`).
pub fn handopt(data: &HostData) -> Output {
    match data {
        HostData::Gda { x, y } => {
            let m = handopt::gda(x, y);
            Output::Gda(m.phi, m.mu0, m.mu1, m.sigma)
        }
        HostData::Gene {
            barcode,
            quality,
            barcodes,
        } => {
            let (counts, means) = handopt::gene_barcode_stats(barcode, quality, *barcodes);
            Output::Gene(
                (0..*barcodes)
                    .filter(|b| counts[*b] > 0)
                    .map(|b| (b as i64, counts[b], means[b]))
                    .collect(),
            )
        }
        HostData::Kmeans { x, centroids } => {
            let (c, a) = handopt::kmeans_iter(x, centroids);
            Output::Kmeans(c.data, a)
        }
        HostData::Logreg { x, y, theta } => {
            Output::Logreg(handopt::logreg_iter(x, y, theta, LOGREG_ALPHA))
        }
        HostData::Pagerank {
            graph,
            reversed,
            ranks,
            damping,
        } => Output::Pagerank(handopt::pagerank_iter(graph, reversed, ranks, *damping)),
        HostData::Q1 { cols } => Output::Q1(
            handopt::q1(cols)
                .into_iter()
                .map(|r| {
                    (
                        r.return_flag * 2 + r.line_status,
                        [r.sum_qty, r.sum_base_price, r.sum_disc_price, r.sum_charge],
                        r.count,
                    )
                })
                .collect(),
        ),
        HostData::Gibbs {
            graph,
            assignment,
            seed,
            sweep,
        } => Output::Gibbs(
            dmll_apps::gibbs::jacobi_reference(graph, assignment, *seed, *sweep)
                .into_iter()
                .map(i64::from)
                .collect(),
        ),
        HostData::Triangles { graph } => Output::Triangles(handopt::triangles(graph) as i64),
    }
}

/// The hand-optimized PageRank step at another damping over the same graph
/// (what an ad-hoc restaged query must return).
pub fn pagerank_at(data: &HostData, damping: f64) -> Output {
    match data {
        HostData::Pagerank {
            graph,
            reversed,
            ranks,
            ..
        } => Output::Pagerank(handopt::pagerank_iter(graph, reversed, ranks, damping)),
        _ => unreachable!("host data of another app"),
    }
}

fn close(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, expected {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        // Written so that a NaN on either side fails the check.
        let within = (g - w).abs() <= REL_TOL * (1.0 + g.abs().max(w.abs()));
        if !within {
            return Err(format!("{what}[{i}] = {g}, expected {w}"));
        }
    }
    Ok(())
}

fn exact<T: PartialEq + std::fmt::Debug>(what: &str, got: &[T], want: &[T]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(g, w)| g != w) {
        Some(i) => Err(format!(
            "{what}[{i}] = {:?}, expected {:?}",
            got[i], want[i]
        )),
        None => Ok(()),
    }
}

/// Check a decoded result against the hand-optimized one: integer outputs
/// exactly, float outputs within [`REL_TOL`].
pub fn check(got: &Output, want: &Output) -> Result<(), String> {
    match (got, want) {
        (Output::Gda(p, m0, m1, s), Output::Gda(wp, wm0, wm1, ws)) => {
            close("phi", &[*p], &[*wp])?;
            close("mu0", m0, wm0)?;
            close("mu1", m1, wm1)?;
            close("sigma", s, ws)
        }
        (Output::Gene(rows), Output::Gene(want)) => {
            let key = |r: &[(i64, i64, f64)]| r.iter().map(|x| (x.0, x.1)).collect::<Vec<_>>();
            exact("barcode counts", &key(rows), &key(want))?;
            let mean = |r: &[(i64, i64, f64)]| r.iter().map(|x| x.2).collect::<Vec<_>>();
            close("mean quality", &mean(rows), &mean(want))
        }
        (Output::Kmeans(c, a), Output::Kmeans(wc, wa)) => {
            exact("assignment", a, wa)?;
            close("centroids", c, wc)
        }
        (Output::Logreg(t), Output::Logreg(wt)) => close("theta", t, wt),
        (Output::Pagerank(r), Output::Pagerank(wr)) => close("ranks", r, wr),
        (Output::Q1(rows), Output::Q1(want)) => {
            let key = |r: &[(i64, [f64; 4], i64)]| r.iter().map(|x| (x.0, x.2)).collect::<Vec<_>>();
            exact("group keys and counts", &key(rows), &key(want))?;
            let sums = |r: &[(i64, [f64; 4], i64)]| r.iter().flat_map(|x| x.1).collect::<Vec<_>>();
            close("aggregates", &sums(rows), &sums(want))
        }
        (Output::Gibbs(a), Output::Gibbs(wa)) => exact("assignment", a, wa),
        (Output::Triangles(c), Output::Triangles(wc)) => exact("count", &[*c], &[*wc]),
        _ => Err("result of another app".into()),
    }
}

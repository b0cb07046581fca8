//! Frozen benchmark parameters: input sizes per workload, the service load
//! (measured capacity, fixed rates, ladder, latency limit), the output
//! tolerance and the seeds. Changing any of these changes the benchmark,
//! which is a change of its own.

/// Relative tolerance for float outputs against the hand-optimized code:
/// `|got - want| <= REL_TOL * (1 + max(|got|, |want|))`. Integer outputs
/// must match exactly.
pub const REL_TOL: f64 = 1e-9;

/// The seed runs default to.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning, for validating a later performance claim.
pub const HELD_OUT_SEED: u64 = 7919;

/// Input sizes of one workload, per app.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// GDA `(rows, cols)`.
    pub gda: (usize, usize),
    /// Gene `(reads, barcodes, genes)`.
    pub gene: (usize, usize, usize),
    /// k-means `(rows, cols, k)`.
    pub kmeans: (usize, usize, usize),
    /// LogReg `(rows, cols)`.
    pub logreg: (usize, usize),
    /// PageRank push RMAT `(scale, edge factor)`.
    pub pagerank: (u32, usize),
    /// Q1 lineitem rows.
    pub q1: usize,
    /// Gibbs variables (4 factors per variable).
    pub gibbs: usize,
    /// Triangles RMAT `(scale, edge factor)`, symmetrized.
    pub triangles: (u32, usize),
}

/// Table 2 sizes (`table2-seq`, `table2-par-native`): about half to a
/// quarter of the largest apps' full sizes (GDA 10k rows, Gene 2M reads,
/// LogReg 100k rows, PageRank RMAT-17, Q1 1M rows, Triangles RMAT-12), so
/// that a run makes a dozen passes and its medians hold still on a shared
/// 2-vCPU machine.
pub const TABLE2: Sizes = Sizes {
    gda: (4_000, 16),
    gene: (1_000_000, 1024, 64),
    kmeans: (30_000, 16, 8),
    logreg: (50_000, 16),
    pagerank: (16, 8),
    q1: 400_000,
    gibbs: 200_000,
    triangles: (11, 4),
};

/// `cluster-2node` sizes. The cluster nodes tree-walk, so apps other than
/// Q1 and PageRank run at sizes where one operation takes a few tenths of
/// a second. Gibbs is not run (no extern registry on the cluster).
pub const CLUSTER: Sizes = Sizes {
    gda: (600, 16),
    gene: (100_000, 1024, 64),
    kmeans: (2_000, 16, 8),
    logreg: (8_000, 16),
    pagerank: (15, 8),
    q1: 120_000,
    gibbs: 0,
    triangles: (7, 4),
};

/// `service-mix` dataset sizes. Gibbs is not served (no extern registry on
/// the service).
pub const SERVICE: Sizes = Sizes {
    gda: (100, 16),
    gene: (40_000, 1024, 64),
    kmeans: (500, 16, 8),
    logreg: (1_000, 16),
    pagerank: (12, 8),
    q1: 30_000,
    gibbs: 0,
    triangles: (6, 4),
};

/// Smoke sizes for `--self-check`.
pub const SMOKE: Sizes = Sizes {
    gda: (500, 8),
    gene: (20_000, 256, 16),
    kmeans: (1_000, 8, 4),
    logreg: (2_000, 8),
    pagerank: (10, 4),
    q1: 10_000,
    gibbs: 2_000,
    triangles: (8, 4),
};

/// Worker threads of the parallel, cluster and service workloads (the
/// machine's 2 vCPUs).
pub const THREADS: usize = 2;

/// Fresh processes per run: this one and its children. Each times a cold
/// set-up (`setup_s` is their median); in the closed-loop workloads each
/// also measures for a share of the run.
pub const PROCESSES: usize = 3;

/// Extra fresh processes per closed-loop run that only time a cold set-up,
/// for `table2-seq`, `table2-par-native` and `cluster-2node`: `setup_s` is
/// the median of these and the [`PROCESSES`] set-ups. With the median of
/// three, `table2-seq`'s `setup_s` spread by 0.27 of its median over ten
/// seeds; the other two take over 2 s per set-up, which limits how many fit
/// in a run.
pub const SETUP_PROCESSES: [usize; 3] = [4, 2, 2];

/// Fresh processes per `service-mix` run, each timing one cold set-up:
/// its set-up takes tens of milliseconds, and the median of three moved by
/// a quarter between sets of runs.
pub const SERVICE_PROCESSES: usize = 9;

/// Service load, frozen at the commit that defined the benchmark.
pub struct ServiceLoad {
    /// Share of each run's measuring time spent in the closed loop.
    pub closed_share: f64,
    /// Capacity of the 2 workers measured on the 2-vCPU reference machine
    /// with 4 closed-loop clients, queries/s; the fixed rates are set from
    /// it.
    pub capacity_qps: f64,
    /// The lower fixed open-loop rate, queries/s (40% of capacity).
    pub low_qps: f64,
    /// The higher fixed open-loop rate, queries/s (80% of capacity).
    pub high_qps: f64,
    /// Open-loop rates tried in order; the first that misses a condition
    /// ends the ladder.
    pub ladder_qps: &'static [f64],
    /// p99 limit a ladder rate must meet, milliseconds. A rate also fails
    /// when one of its queries is refused or fails, or when its backlog
    /// grows: the last query completes more than half this limit after the
    /// send window closes.
    pub p99_limit_ms: f64,
    /// Share of each run's measuring time spent at the lower fixed rate.
    pub low_share: f64,
    /// Share of each run's measuring time spent at the higher fixed rate.
    pub high_share: f64,
    /// Share of each run's measuring time spent at each ladder rate.
    pub rung_share: f64,
    /// Share of queries sent by the ad-hoc tenant.
    pub adhoc_share: f64,
    /// Distinct dampings the ad-hoc tenant draws from: more than the
    /// 512-entry kernel cache and the 64-entry fusion memo hold.
    pub adhoc_pool: usize,
}

/// The `service-mix` load.
pub const SERVICE_LOAD: ServiceLoad = ServiceLoad {
    closed_share: 0.4,
    capacity_qps: 360.0,
    low_qps: 144.0,
    high_qps: 288.0,
    ladder_qps: &[180.0, 220.0, 260.0, 300.0, 340.0, 380.0, 420.0],
    p99_limit_ms: 200.0,
    low_share: 0.1,
    high_share: 0.2,
    rung_share: 0.05,
    adhoc_share: 0.05,
    adhoc_pool: 1024,
};

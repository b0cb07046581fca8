//! The DMLL benchmark: one command runs one workload for one seed and
//! prints every metric by name and unit, with the last line of standard
//! output a JSON object.
//!
//! ```text
//! dmll-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dmll-perfbench --self-check
//! ```
//!
//! With `--trace 0` the JSON carries the end-to-end metrics, with
//! `--trace 1` the per-layer ones. `--smoke` runs at smoke sizes;
//! `--child` (used by the benchmark on itself) runs one fresh process's
//! share of a run, with `--setup-only` just its cold set-up. See
//! `perfbench/README.md`.

mod apps;
mod closed;
mod config;
mod metrics;
mod service;
mod stats;
mod trace;

use closed::Path;
use metrics::{Values, END_TO_END};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Table2Seq,
    Table2ParNative,
    Cluster2Node,
    ServiceMix,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Table2Seq,
        Workload::Table2ParNative,
        Workload::Cluster2Node,
        Workload::ServiceMix,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Table2Seq => "table2-seq",
            Workload::Table2ParNative => "table2-par-native",
            Workload::Cluster2Node => "cluster-2node",
            Workload::ServiceMix => "service-mix",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn sizes(self, smoke: bool) -> config::Sizes {
        match (self, smoke) {
            (_, true) => config::SMOKE,
            (Workload::Table2Seq | Workload::Table2ParNative, false) => config::TABLE2,
            (Workload::Cluster2Node, false) => config::CLUSTER,
            (Workload::ServiceMix, false) => config::SERVICE,
        }
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    child: bool,
    setup_only: bool,
}

const USAGE: &str =
    "usage: dmll-perfbench --workload <table2-seq|table2-par-native|cluster-2node|service-mix> \
--seed <n> --seconds <s> --trace <0|1> [--smoke] [--child [--setup-only]]\n       dmll-perfbench --self-check";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = config::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut smoke = false;
    let mut child = false;
    let mut setup_only = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {v}"))?;
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace {v}")),
                }
            }
            "--smoke" => smoke = true,
            "--child" => child = true,
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if setup_only && !child {
        return Err("--setup-only needs --child".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
        child,
        setup_only,
    })
}

/// One run's settings and everything it measured.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end: Values,
    pub layers: Values,
    pub spans: Vec<trace::Span>,
}

impl Run {
    /// Print one human-readable line (before the final JSON line).
    pub fn note(&self, line: String) {
        println!("{} {line}", self.workload.name());
    }
}

/// What [`children`] collected from the child processes.
#[derive(Default)]
pub struct Children {
    /// Every set-up's seconds, the in-process one first.
    pub setups: Vec<f64>,
    /// The measuring children's per-app median ratios, by app key.
    pub ratios: BTreeMap<String, Vec<f64>>,
    /// The measuring children's peak resident set, MiB.
    pub rss: Vec<f64>,
}

/// Count the in-process cold set-up `first` into `run`, then run child
/// processes of this same program, one after another, each with a cold
/// set-up of its own: `measuring` children that then measure closed-loop
/// passes for `seconds`, and `setup_only` children that stop after set-up.
pub fn children(
    run: &mut Run,
    first: &closed::Setup,
    measuring: usize,
    setup_only: usize,
    seconds: f64,
) -> Children {
    let exe = std::env::current_exe().expect("own executable path");
    let mut kids = Children {
        setups: vec![first.secs],
        ..Children::default()
    };
    run.attempted += first.attempted;
    run.failed += first.failed;
    let kinds = std::iter::repeat_n(false, measuring).chain(std::iter::repeat_n(true, setup_only));
    for only_setup in kinds {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            run.workload.name(),
            "--seed",
            &run.seed.to_string(),
        ])
        .args(["--seconds", &seconds.to_string(), "--trace", "0", "--child"]);
        if run.smoke {
            cmd.arg("--smoke");
        }
        if only_setup {
            cmd.arg("--setup-only");
        }
        let out = cmd.output().ok().filter(|o| o.status.success());
        let text = out.map(|o| String::from_utf8_lossy(&o.stdout).to_string());
        let mut setup = None;
        for line in text.as_deref().unwrap_or("").lines() {
            match line.split_whitespace().collect::<Vec<_>>().as_slice() {
                ["ratio", app, r] => {
                    if let Ok(r) = r.parse() {
                        kids.ratios.entry(app.to_string()).or_default().push(r);
                    }
                }
                ["rss", mb] => kids.rss.extend(mb.parse::<f64>().ok()),
                ["setup", secs, attempted, failed] => {
                    setup = (|| {
                        Some((
                            secs.parse::<f64>().ok()?,
                            attempted.parse::<u64>().ok()?,
                            failed.parse::<u64>().ok()?,
                        ))
                    })();
                }
                _ => {}
            }
        }
        match setup {
            Some((secs, attempted, failed)) => {
                kids.setups.push(secs);
                run.attempted += attempted;
                run.failed += failed;
            }
            None => {
                eprintln!("child process failed");
                run.attempted += 1;
                run.failed += 1;
            }
        }
    }
    kids
}

/// Where spans and native-compiler scratch files go, inside the checkout.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new("perfbench").join("out")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--self-check"] {
        return self_check();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\n{USAGE}\ndefault seed {}, held-out seed {}",
                config::DEFAULT_SEED,
                config::HELD_OUT_SEED
            );
            return ExitCode::from(2);
        }
    };
    // The native tier's compiler writes its scratch files under TMPDIR;
    // keep them inside the checkout. Set before any thread starts.
    let tmp = std::env::current_dir()
        .expect("working directory")
        .join(out_dir())
        .join("tmp")
        .join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    std::env::set_var("TMPDIR", &tmp);
    let code = run_workload(&args);
    // Loaded native kernels stay mapped; their files are no longer needed.
    let _ = std::fs::remove_dir_all(&tmp);
    code
}

fn run_workload(args: &Args) -> ExitCode {
    let sizes = args.workload.sizes(args.smoke);
    let path = match args.workload {
        Workload::Table2Seq => Some(Path::Seq),
        Workload::Table2ParNative => Some(Path::ParNative),
        Workload::Cluster2Node => Some(Path::Cluster),
        Workload::ServiceMix => None,
    };
    if args.child {
        let s = match path {
            Some(p) if args.setup_only => closed::child_setup(p, &sizes, args.seed),
            Some(p) => {
                let (s, ratios) = closed::child(p, &sizes, args.seed, args.seconds);
                for (app, r) in ratios {
                    println!("ratio {} {r}", app.key());
                }
                println!("rss {}", stats::peak_rss_mb());
                s
            }
            None => service::child(&sizes, args.seed),
        };
        println!("setup {} {} {}", s.secs, s.attempted, s.failed);
        return ExitCode::SUCCESS;
    }

    let mut run = Run {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        attempted: 0,
        failed: 0,
        end: Values::default(),
        layers: Values::default(),
        spans: Vec::new(),
    };
    match path {
        Some(p) => closed::run(p, &sizes, &mut run),
        None => service::run(&sizes, &mut run),
    }
    let attempted = run.attempted.max(1);
    run.end.set(
        "ok_ratio",
        (attempted - run.failed.min(attempted)) as f64 / attempted as f64,
    );
    run.note(format!(
        "failed_ratio {} ({} of {} operations)",
        run.failed as f64 / attempted as f64,
        run.failed,
        attempted
    ));
    if run.trace {
        let file = out_dir().join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match trace::Trace::write_spans(&run.spans, &file) {
            Ok(()) => run.note(format!(
                "{} spans written to {}",
                run.spans.len(),
                file.display()
            )),
            Err(e) => eprintln!("cannot write spans to {}: {e}", file.display()),
        }
    }
    for (name, unit) in END_TO_END {
        let v = run.end.get(name).unwrap_or(f64::NAN);
        run.note(format!("metric {name} = {v} {unit}"));
    }
    let chosen: Vec<(String, f64, &str)> = if run.trace {
        metrics::per_layer()
            .into_iter()
            .map(|(n, u)| {
                // A layer the workload should have measured but did not
                // prints as NaN and fails the run; one that does not
                // apply to it reads 0.
                let missing = if metrics::applies(args.workload, &n) {
                    f64::NAN
                } else {
                    0.0
                };
                let v = run.layers.get(&n).unwrap_or(missing);
                (n, v, u)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), run.end.get(n).unwrap_or(f64::NAN), *u))
            .collect()
    };
    if run.trace {
        for (n, v, u) in &chosen {
            run.note(format!("layer {n} = {v} {u}"));
        }
    }
    let body: Vec<String> = chosen
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    let finite = chosen.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0 && finite,
        attempted,
        run.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Smoke-size self-check: run every workload at smoke sizes, untraced and
/// traced, each in its own process, and check that every metric named in
/// `BENCHMARK.json` is printed with its unit and a finite value, that no
/// operation failed, and that the traced spans account for each
/// operation's wall time.
fn self_check() -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let declared = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    let mut problems = Vec::new();
    let layers = metrics::per_layer();
    for (name, _) in END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u))
        .chain(layers.iter().map(|(n, u)| (n.clone(), u)))
    {
        if !declared.contains(&format!("\"name\": \"{name}\"")) {
            problems.push(format!("{name} is not declared in BENCHMARK.json"));
        }
    }
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    w.name(),
                    "--seed",
                    &config::DEFAULT_SEED.to_string(),
                ])
                .args(["--seconds", "1", "--trace", trace, "--smoke"])
                .output();
            let Ok(out) = out else {
                problems.push(format!("{}: cannot start", w.name()));
                continue;
            };
            let text = String::from_utf8_lossy(&out.stdout).to_string();
            let last = text.lines().last().unwrap_or("").to_string();
            println!("{} trace {trace}: {last}", w.name());
            if !out.status.success() {
                problems.push(format!("{} trace {trace}: exit {}", w.name(), out.status));
            }
            if !last.contains("\"failed\": 0,") || !last.contains("\"correct\": true") {
                problems.push(format!(
                    "{} trace {trace}: failures or incorrect output",
                    w.name()
                ));
            }
            let expected: Vec<(String, &str)> = if trace == "1" {
                layers.clone()
            } else {
                END_TO_END
                    .iter()
                    .map(|(n, u)| (n.to_string(), *u))
                    .collect()
            };
            for (name, unit) in expected {
                let key = format!("\"{name}\": {{\"value\": ");
                let finite = last.split(&key).nth(1).is_some_and(|rest| {
                    let (num, tail) = rest.split_once(',').unwrap_or(("", ""));
                    num.trim().parse::<f64>().is_ok_and(f64::is_finite)
                        && tail
                            .trim_start()
                            .starts_with(&format!("\"unit\": \"{unit}\""))
                });
                if !finite {
                    problems.push(format!(
                        "{} trace {trace}: {name} missing, not finite or wrong unit",
                        w.name()
                    ));
                }
            }
            if trace == "1" {
                let coverage = last
                    .split("\"trace.span_coverage\": {\"value\": ")
                    .nth(1)
                    .and_then(|r| r.split(',').next())
                    .and_then(|v| v.trim().parse::<f64>().ok())
                    .unwrap_or(0.0);
                if coverage < 0.95 {
                    problems.push(format!(
                        "{}: child spans cover only {coverage:.3} of an operation",
                        w.name()
                    ));
                }
            }
        }
    }
    for p in &problems {
        println!("self-check: {p}");
    }
    if problems.is_empty() {
        println!("self-check: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

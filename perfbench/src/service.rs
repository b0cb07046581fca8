//! The `service-mix` workload: four tenants at two priorities query
//! datasets published in a `QueryService` with 2 workers.
//!
//! Three tenants repeat a fixed set of programs; the fourth is ad hoc: each
//! of its queries restages PageRank push with a damping drawn from a pool
//! larger than the kernel cache and the fusion memo hold.
//!
//! The end-to-end figures come from a closed loop: a client sends each
//! query after the previous one's outcome. Then one generator thread sends
//! seeded open-loop Poisson arrivals at two fixed rates and up a rate
//! ladder; each of those queries is timed from its scheduled send time to
//! its outcome, so a stalled generator shows up in latency, and the
//! generator's own lateness is reported beside it.

use crate::apps::{self, App, HostData, Output};
use crate::closed::{reason_delta, reasons, setup_counters, tier_delta, Setup};
use crate::config::{Sizes, SERVICE_LOAD, SERVICE_PROCESSES, THREADS};
use crate::metrics::{Values, REJECT_REASONS};
use crate::stats::{geomean, median, quantile, windowed_quantile, WINDOWS};
use crate::trace::Trace;
use crate::Run;
use dmll_core::Program;
use dmll_interp::{tier_totals, CacheStats};
use dmll_service::{
    DegradePolicy, QueryOutcome, QueryRequest, QueryService, ServiceBuilder, ServiceConfig,
    TenantId, TenantPolicy,
};
use dmll_transform::{pipeline, Target};
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Small deterministic generator (SplitMix64) for arrivals and choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A tenant and the apps it queries; `None` is the ad-hoc tenant.
struct Tenant {
    name: &'static str,
    priority: u8,
    apps: Option<&'static [App]>,
}

const TENANTS: [Tenant; 4] = [
    Tenant {
        name: "dashboard",
        priority: 2,
        apps: Some(&[App::Q1, App::Gene, App::Pagerank]),
    },
    Tenant {
        name: "science",
        priority: 1,
        apps: Some(&[App::Gda, App::Kmeans, App::Logreg, App::Triangles]),
    },
    Tenant {
        name: "reports",
        priority: 1,
        apps: Some(&App::WITHOUT_EXTERNS),
    },
    Tenant {
        name: "adhoc",
        priority: 1,
        apps: None,
    },
];

const ADHOC: usize = 3;

/// One published dataset and its repeat program.
struct Served {
    app: App,
    program: Arc<Program>,
    data: HostData,
    expected: Output,
}

/// The running service and what it serves.
struct Live {
    service: QueryService,
    tenants: Vec<TenantId>,
    served: Vec<Served>,
}

impl Live {
    fn served(&self, app: App) -> &Served {
        self.served
            .iter()
            .find(|s| s.app == app)
            .expect("app is served")
    }
}

/// Damping of the ad-hoc pool entry `i`.
fn adhoc_damping(i: usize) -> f64 {
    0.5 + 0.45 * i as f64 / SERVICE_LOAD.adhoc_pool as f64
}

/// Cold set-up: stage and optimize every program, start the service,
/// publish the datasets, and run the first query of every program to its
/// checked result.
fn setup(trace: &Trace, sizes: &Sizes, seed: u64, layers: &mut Values) -> (Live, Setup) {
    let generated: Vec<(App, HostData, Output)> = App::WITHOUT_EXTERNS
        .iter()
        .map(|&app| {
            let data = apps::generate(app, sizes, seed);
            let expected = apps::handopt(&data);
            (app, data, expected)
        })
        .collect();

    let t0 = Instant::now();
    let root = trace.open("bench", "setup", u64::MAX, None);
    let mut builder = ServiceBuilder::new(ServiceConfig {
        workers: THREADS,
        query_threads: 1,
        cost_budget: 1e12,
        // The degrade ladder engages only far past the latency limit, so
        // the fixed rates and the ladder's passing rates run at Normal.
        degrade: DegradePolicy {
            enter_queue: 4096,
            exit_queue: 1024,
            enter_p99: Duration::from_secs(2),
            exit_p99: Duration::from_secs(1),
            ..DegradePolicy::default()
        },
    });
    let tenants = TENANTS
        .iter()
        .map(|t| {
            builder.tenant(
                t.name,
                TenantPolicy {
                    priority: t.priority,
                    deadline: Duration::from_secs(10),
                    rate_per_sec: 1e9,
                    burst: 1e9,
                    queue_cap: 1 << 16,
                    ..TenantPolicy::default()
                },
            )
        })
        .collect();
    let mut served = Vec::new();
    for (app, data, expected) in generated {
        let op = app as u64;
        let (mut program, stage_s) =
            trace.span("frontend", "stage", op, root, || apps::stage(app, &data));
        let (_, optimize_s) = trace.span("transform", "optimize", op, root, || {
            pipeline::optimize_unfused(&mut program, Target::Cpu)
        });
        let (bindings, marshal_s) = trace.span("apps", "marshal", op, root, || {
            apps::marshal(&program, &data)
        });
        builder.dataset(app.key(), bindings);
        layers.add("frontend.stage_s", stage_s);
        layers.add("transform.optimize_s", optimize_s);
        layers.add("apps.marshal_s", marshal_s);
        served.push(Served {
            app,
            program: Arc::new(program),
            data,
            expected,
        });
    }
    let (service, _) = trace.span("service", "start", u64::MAX, root, || builder.start());
    let live = Live {
        service,
        tenants,
        served,
    };
    let mut failed = 0;
    for s in &live.served {
        let request = QueryRequest::new(Arc::clone(&s.program)).with_dataset(s.app.key());
        let outcome = live
            .service
            .submit(live.tenants[2], request)
            .map_err(|e| e.to_string())
            .and_then(|rx| rx.recv().map_err(|e| e.to_string()));
        let checked = outcome.and_then(|o| {
            let v = o.result.map_err(|e| e.to_string())?;
            apps::check(&apps::decode(s.app, &v)?, &s.expected)
        });
        if let Err(e) = checked {
            eprintln!("setup: {} failed: {e}", s.app.key());
            failed += 1;
        }
    }
    trace.close(root);
    let secs = t0.elapsed().as_secs_f64();
    let attempted = live.served.len() as u64;
    (
        live,
        Setup {
            secs,
            attempted,
            failed,
        },
    )
}

/// A child process's share of a run: one cold set-up.
pub fn child(sizes: &Sizes, seed: u64) -> Setup {
    let (live, s) = setup(&Trace::new(false), sizes, seed, &mut Values::default());
    live.service.shutdown();
    s
}

/// What the generator knows about one admitted query.
struct Meta {
    scheduled: Instant,
    submitted: Instant,
    app: App,
    tenant: usize,
    damping: Option<f64>,
}

/// One completed (or failed) query.
struct Done {
    app: App,
    tenant: usize,
    /// Send time (scheduled, in an open loop), seconds into the phase.
    at: f64,
    latency: f64,
    queued: f64,
    exec: f64,
    /// Closed loop only: the paired hand-optimized run's seconds.
    handopt: f64,
}

/// Everything one load phase measured.
#[derive(Default)]
struct Phase {
    sent: u64,
    admitted: u64,
    rejected: BTreeMap<&'static str, u64>,
    errors: u64,
    wrong: u64,
    done: Vec<Done>,
    lags: Vec<f64>,
    /// Seconds from the end of the send window to the last completion.
    drain: f64,
    max_level: u8,
    decode_s: f64,
}

impl Phase {
    fn failed(&self) -> u64 {
        self.rejected.values().sum::<u64>() + self.errors + self.wrong
    }

    fn latencies(&self) -> Vec<f64> {
        self.done.iter().map(|d| d.latency).collect()
    }

    fn p99_ms(&self) -> f64 {
        quantile(&self.latencies(), 0.99) * 1e3
    }

    /// Latencies in the order the queries were sent.
    fn latencies_in_order(&self) -> Vec<f64> {
        let mut done: Vec<&Done> = self.done.iter().collect();
        done.sort_by(|a, b| a.at.total_cmp(&b.at));
        done.iter().map(|d| d.latency).collect()
    }
}

/// Pick a tenant and build its next request.
fn next_request(
    live: &Live,
    rng: &mut Rng,
    trace: &Trace,
    op: u64,
) -> (usize, App, Option<f64>, QueryRequest) {
    let tenant = if rng.unit() < SERVICE_LOAD.adhoc_share {
        ADHOC
    } else {
        rng.below(ADHOC)
    };
    let (app, damping, program) = match TENANTS[tenant].apps {
        Some(list) => {
            let app = list[rng.below(list.len())];
            (app, None, Arc::clone(&live.served(app).program))
        }
        None => {
            let d = adhoc_damping(rng.below(SERVICE_LOAD.adhoc_pool));
            let (mut p, _) = trace.span("frontend", "stage", op, None, || {
                dmll_apps::pagerank::stage_pagerank_push(d)
            });
            trace.span("transform", "optimize", op, None, || {
                pipeline::optimize_unfused(&mut p, Target::Cpu)
            });
            (App::Pagerank, Some(d), Arc::new(p))
        }
    };
    (
        tenant,
        app,
        damping,
        QueryRequest::new(program).with_dataset(app.key()),
    )
}

/// Check every collected result once the phase is over, so checking takes
/// no processor time from the load it measures.
fn check_results(live: &Live, results: Vec<Checked>, trace: &Trace, out: &mut Phase) {
    for (id, app, damping, result) in results {
        match result {
            Ok(value) => {
                let want = match damping {
                    Some(d) => apps::pagerank_at(&live.served(App::Pagerank).data, d),
                    None => live.served(app).expected.clone(),
                };
                let (checked, decode_s) = trace.span("apps", "decode", id, None, || {
                    apps::decode(app, &value).and_then(|got| apps::check(&got, &want))
                });
                out.decode_s += decode_s;
                if let Err(e) = checked {
                    eprintln!("query {id} ({}): {e}", app.key());
                    out.wrong += 1;
                }
            }
            Err(e) => {
                eprintln!("query {id} ({}): {e}", app.key());
                out.errors += 1;
            }
        }
    }
}

type Checked = (
    u64,
    App,
    Option<f64>,
    Result<dmll_interp::Value, dmll_service::ServiceError>,
);

/// Wall time the paired hand-optimized runs of one closed-loop query fill:
/// about the median query's own. With one run of tens of microseconds
/// against a query of milliseconds, a stretch when the host ran the
/// benchmark slowly raised the queries' times by 60% and the runs' not at
/// all.
const HANDOPT_WINDOW: Duration = Duration::from_millis(4);

/// Closed loop: one client sends a query and waits for its outcome before
/// sending the next, for `secs`.
fn closed_phase(live: &Live, secs: f64, rng: &mut Rng, trace: &Trace) -> Phase {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let mut p = Phase::default();
    let mut results = Vec::new();
    let mut op = 0;
    while Instant::now() < end {
        op += 1;
        let (tenant, app, damping, request) = next_request(live, rng, trace, op);
        // The paired hand-optimized runs, right before the query and on a
        // fresh copy of the data (at microseconds per run, where the data
        // sits in memory moves the time), back to back for about a query's
        // own time, so that a stall of the host lands on either side of the
        // pair alike; one run's time is their mean.
        let data = live.served(app).data.clone();
        let (runs, window) = trace.span("handopt", app.key(), op, None, || {
            let t0 = Instant::now();
            let mut runs = 0u32;
            while runs == 0 || t0.elapsed() < HANDOPT_WINDOW {
                std::hint::black_box(match damping {
                    Some(d) => apps::pagerank_at(&data, d),
                    None => apps::handopt(&data),
                });
                runs += 1;
            }
            runs
        });
        let handopt = window / f64::from(runs);
        drop(data);
        p.sent += 1;
        let sent = Instant::now();
        let root = trace.open("bench", "op", op, None);
        let (submitted, _) = trace.span("service", "submit", op, root, || {
            live.service
                .submit(live.tenants[tenant], request)
                .map_err(|e| e.label())
        });
        let rx = match submitted {
            Ok(rx) => rx,
            Err(label) => {
                trace.close(root);
                *p.rejected.entry(label).or_insert(0) += 1;
                continue;
            }
        };
        p.admitted += 1;
        let wait = trace.open("service", "wait", op, root);
        let waited = Instant::now();
        let outcome = rx.recv();
        let received = Instant::now();
        trace.close(wait);
        trace.close(root);
        let Ok(outcome) = outcome else {
            p.errors += 1;
            continue;
        };
        // The service's own timestamps split the wait into queueing,
        // execution and delivery.
        let queued = outcome.queued_for.as_secs_f64();
        let picked = (sent + outcome.queued_for).clamp(waited, received);
        let completed = (sent + outcome.latency).clamp(picked, received);
        trace.record("service", "queue", op, wait, waited, picked);
        trace.record("interp", "exec", op, wait, picked, completed);
        trace.record("bench", "deliver", op, wait, completed, received);
        p.max_level = p.max_level.max(outcome.level as u8);
        p.done.push(Done {
            app,
            tenant,
            at: (sent - start).as_secs_f64(),
            latency: (received - sent).as_secs_f64(),
            queued,
            exec: outcome.latency.as_secs_f64() - queued,
            handopt,
        });
        results.push((outcome.id, app, damping, outcome.result));
    }
    check_results(live, results, trace, &mut p);
    p.drain = Instant::now().saturating_duration_since(end).as_secs_f64();
    p
}

/// Send Poisson arrivals at `rate` for `secs` and collect every outcome.
fn phase(live: &Live, rate: f64, secs: f64, rng: &mut Rng, trace: &Trace, op0: u64) -> Phase {
    let (tx, rx) = channel::<QueryOutcome>();
    let metas: Mutex<HashMap<u64, Meta>> = Mutex::new(HashMap::new());
    let mut gen_rng = Rng(rng.next());
    let start = Instant::now();
    let window = Duration::from_secs_f64(secs);
    let mut out = Phase::default();
    let mut last_done = start;
    let mut results = Vec::new();
    std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            let tx = tx;
            let mut g = Phase::default();
            let mut due = start;
            let mut op = op0;
            loop {
                due += Duration::from_secs_f64(-gen_rng.unit().ln() / rate);
                if due >= start + window {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                op += 1;
                let (tenant, app, damping, request) = next_request(live, &mut gen_rng, trace, op);
                g.sent += 1;
                let mut map = metas.lock().expect("meta lock poisoned");
                let submitted = Instant::now();
                g.lags.push((submitted - due).as_secs_f64());
                match live
                    .service
                    .submit_with(live.tenants[tenant], request, tx.clone())
                {
                    Ok(id) => {
                        g.admitted += 1;
                        map.insert(
                            id,
                            Meta {
                                scheduled: due,
                                submitted,
                                app,
                                tenant,
                                damping,
                            },
                        );
                    }
                    Err(e) => *g.rejected.entry(e.label()).or_insert(0) += 1,
                }
            }
            g
        });

        // Every sender lives in the generator or in a queued job, so the
        // channel closes once the generator is done and every query is out.
        while let Ok(outcome) = rx.recv() {
            let meta = metas
                .lock()
                .expect("meta lock poisoned")
                .remove(&outcome.id)
                .expect("outcome of a query the generator sent");
            let completed = meta.submitted + outcome.latency;
            last_done = last_done.max(completed);
            let queued = outcome.queued_for.as_secs_f64();
            let latency = (completed - meta.scheduled).as_secs_f64();
            out.max_level = out.max_level.max(outcome.level as u8);
            let root = trace.record("bench", "op", op0, None, meta.scheduled, completed);
            trace.record(
                "bench",
                "gen_lag",
                op0,
                root,
                meta.scheduled,
                meta.submitted,
            );
            let picked = meta.submitted + outcome.queued_for;
            trace.record("service", "queue", op0, root, meta.submitted, picked);
            trace.record("interp", "exec", op0, root, picked, completed);
            out.done.push(Done {
                app: meta.app,
                tenant: meta.tenant,
                at: (meta.scheduled - start).as_secs_f64(),
                latency,
                queued,
                exec: latency - queued - (meta.submitted - meta.scheduled).as_secs_f64(),
                handopt: f64::NAN,
            });
            results.push((outcome.id, meta.app, meta.damping, outcome.result));
        }
        let g = generator.join().expect("generator thread panicked");
        out.sent = g.sent;
        out.admitted = g.admitted;
        out.rejected = g.rejected;
        out.lags = g.lags;
    });
    check_results(live, results, trace, &mut out);
    out.drain = last_done
        .saturating_duration_since(start + window)
        .as_secs_f64();
    out
}

/// Did the generator fall behind its schedule (p99 lag over 5 ms)?
fn lagging(p: &Phase) -> bool {
    quantile(&p.lags, 0.99) * 1e3 > 5.0
}

/// Report a phase's headline numbers.
fn note_phase(run: &Run, label: &str, p: &Phase) {
    let lat = p.latencies();
    let exec = |adhoc: bool| -> Vec<f64> {
        p.done
            .iter()
            .filter(|d| (d.tenant == ADHOC) == adhoc)
            .map(|d| d.exec * 1e3)
            .collect()
    };
    let (repeat, adhoc) = (exec(false), exec(true));
    run.note(format!(
        "{label}: sent {}, completed {}, latency p50 {:.3} ms, p99 {:.3} ms; pickup to outcome p50/p99 repeat {:.3}/{:.3} ms, ad hoc {:.3}/{:.3} ms; refused {}, errors {}, wrong {}; drain {:.1} ms{}",
        p.sent,
        lat.len(),
        median(&lat) * 1e3,
        quantile(&lat, 0.99) * 1e3,
        median(&repeat),
        quantile(&repeat, 0.99),
        median(&adhoc),
        quantile(&adhoc, 0.99),
        p.rejected.values().sum::<u64>(),
        p.errors,
        p.wrong,
        p.drain * 1e3,
        if p.lags.is_empty() {
            String::new()
        } else {
            format!(
                "; generator lateness p99 {:.3} ms{}",
                quantile(&p.lags, 0.99) * 1e3,
                if lagging(p) { " GENERATOR FELL BEHIND" } else { "" }
            )
        }
    ));
}

fn cache_views(live: &Live) -> Vec<CacheStats> {
    live.service
        .tenant_stats()
        .into_iter()
        .map(|t| t.cache)
        .collect()
}

/// Hit ratio of the lookups tenants `pick` made between two snapshots.
fn hit_ratio(a: &[CacheStats], b: &[CacheStats], pick: impl Fn(usize) -> bool) -> f64 {
    let (mut hits, mut total) = (0u64, 0u64);
    for i in (0..a.len()).filter(|i| pick(*i)) {
        hits += b[i].hits - a[i].hits;
        total += (b[i].hits + b[i].misses) - (a[i].hits + a[i].misses);
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Layer figures of one traced phase: queueing, caches and tier counters.
fn phase_layers(p: &Phase, caches: (&[CacheStats], &[CacheStats]), l: &mut Values) {
    let ms = |v: Vec<f64>, q: f64| quantile(&v, q) * 1e3;
    l.set(
        "service.queue_wait_p50_ms",
        ms(p.done.iter().map(|d| d.queued).collect(), 0.5),
    );
    l.set(
        "service.queue_wait_p99_ms",
        ms(p.done.iter().map(|d| d.queued).collect(), 0.99),
    );
    l.set(
        "service.exec_ms",
        ms(p.done.iter().map(|d| d.exec).collect(), 0.5),
    );
    l.set("service.admitted", p.admitted as f64);
    l.set("service.rejected", p.rejected.values().sum::<u64>() as f64);
    for r in REJECT_REASONS {
        l.set(
            format!("service.rejected.{r}"),
            p.rejected.get(r).copied().unwrap_or(0) as f64,
        );
    }
    let (a, b) = caches;
    l.set(
        "service.cache_hit_ratio_repeat",
        hit_ratio(a, b, |i| i != ADHOC),
    );
    l.set(
        "service.cache_hit_ratio_adhoc",
        hit_ratio(a, b, |i| i == ADHOC),
    );
    l.set("service.completed_error", p.errors as f64);
    l.set("apps.decode_s", p.decode_s);
    l.set("interp.run_s", p.done.iter().map(|d| d.exec).sum::<f64>());
}

/// Run the `service-mix` workload and fill `run`.
pub fn run(sizes: &Sizes, run: &mut Run) {
    let trace = Trace::new(run.trace);
    let untraced = Trace::new(false);
    let tiers0 = tier_totals();
    let (live, first) = setup(&trace, sizes, run.seed, &mut run.layers);
    setup_counters(&tiers0, &tier_totals(), &mut run.layers);
    let setups = crate::children(run, &first, 0, SERVICE_PROCESSES - 1, run.seconds).setups;
    let load = &SERVICE_LOAD;
    let secs = |share: f64| run.seconds * share;
    let mut rng = Rng(run.seed ^ 0x5EED);
    let (mut attempted, mut failed) = (0, 0);
    let mut account = |p: &Phase| {
        attempted += p.sent;
        failed += p.failed();
    };

    // The end-to-end figures: a closed loop with one query at a time, so a
    // query's time does not depend on whether the host lets both workers
    // run at full speed at once (with 2 or 4 clients, figures moved by up
    // to 40% between runs).
    let closed = closed_phase(&live, secs(load.closed_share), &mut rng, &untraced);
    note_phase(run, "closed loop", &closed);
    account(&closed);

    // Traced runs repeat the closed loop with tracing on; the per-layer
    // numbers come from it and the difference of the two p50s is the
    // tracing overhead.
    if run.trace {
        let caches0 = cache_views(&live);
        let tiers1 = tier_totals();
        let (batch0, native0) = reasons();
        let traced = closed_phase(&live, secs(load.closed_share), &mut rng, &trace);
        note_phase(run, "closed loop, traced", &traced);
        account(&traced);
        let tiers2 = tier_totals();
        phase_layers(&traced, (&caches0, &cache_views(&live)), &mut run.layers);
        setup_counters(&tiers1, &tiers2, &mut run.layers);
        let run_s = run.layers.get("interp.run_s").unwrap_or(0.0);
        tier_delta(&tiers1, &tiers2, run_s, &mut run.layers);
        let mut unknown = BTreeMap::new();
        reason_delta(&batch0, &native0, &mut run.layers, &mut unknown);
        for (k, v) in unknown {
            run.note(format!("unlisted decline reason {k}: {v}"));
        }
        let l = &mut run.layers;
        l.set(
            "trace.overhead_ms",
            (median(&traced.latencies()) - median(&closed.latencies())) * 1e3,
        );
        l.set("trace.span_coverage", trace.min_child_coverage("op"));
        for (layer, s) in trace.self_times(|_| true) {
            run.note(format!(
                "self time {layer:<9} set-up + traced phase {s:>10.6} s"
            ));
            run.layers.set(format!("self.{layer}_s"), s);
        }
        run.spans = trace.spans();
    }

    // Open loop: seeded Poisson arrivals at the two fixed rates, then the
    // ladder; the first rate that misses a condition ends it.
    let low = phase(
        &live,
        load.low_qps,
        secs(load.low_share),
        &mut rng,
        &untraced,
        0,
    );
    note_phase(run, &format!("open loop {} q/s", load.low_qps), &low);
    account(&low);
    let high = phase(
        &live,
        load.high_qps,
        secs(load.high_share),
        &mut rng,
        &untraced,
        0,
    );
    note_phase(run, &format!("open loop {} q/s", load.high_qps), &high);
    account(&high);
    let limit_s = load.p99_limit_ms / 1e3;
    let mut ladder_max = 0.0;
    let mut behind = u64::from(lagging(&low)) + u64::from(lagging(&high));
    let mut max_level = closed.max_level.max(low.max_level).max(high.max_level);
    for &rate in load.ladder_qps {
        let p = phase(&live, rate, secs(load.rung_share), &mut rng, &untraced, 0);
        note_phase(run, &format!("ladder {rate} q/s"), &p);
        account(&p);
        behind += u64::from(lagging(&p));
        max_level = max_level.max(p.max_level);
        let ok = p.p99_ms() <= load.p99_limit_ms && p.failed() == 0 && p.drain <= limit_s / 2.0;
        if !ok {
            break;
        }
        ladder_max = rate;
    }
    live.service.shutdown();
    run.attempted += attempted;
    run.failed += failed;
    let l = &mut run.layers;
    for (name, p) in [("low", &low), ("high", &high)] {
        let lat = p.latencies();
        l.set(format!("service.open_{name}_p50_ms"), median(&lat) * 1e3);
        l.set(
            format!("service.open_{name}_p99_ms"),
            quantile(&lat, 0.99) * 1e3,
        );
    }
    l.set("service.gen_lag_ms", quantile(&high.lags, 0.99) * 1e3);
    l.set("service.generator_behind", behind as f64);
    l.set("service.ladder_max_qps", ladder_max);
    l.set("service.max_degrade_level", f64::from(max_level));

    let mut ratios = Vec::new();
    for app in App::WITHOUT_EXTERNS {
        // One repeat query of the app, from the client's submit call to
        // the outcome in its hands (admission, queueing, dispatch,
        // execution and delivery), over its paired hand-optimized run.
        let repeat: Vec<&Done> = closed
            .done
            .iter()
            .filter(|d| d.app == app && d.tenant != ADHOC)
            .collect();
        let latency: Vec<f64> = repeat.iter().map(|d| d.latency).collect();
        let exec: Vec<f64> = repeat.iter().map(|d| d.exec).collect();
        let handopt: Vec<f64> = repeat.iter().map(|d| d.handopt).collect();
        let ratio: Vec<f64> = repeat.iter().map(|d| d.latency / d.handopt).collect();
        let key = app.key();
        run.note(format!(
            "{key}: submit to outcome median {:.6} s, p90 {:.6} s, n {}; pickup to outcome median {:.6} s; handopt median {:.6} s; ratio median {:.2}x",
            median(&latency),
            quantile(&latency, 0.9),
            latency.len(),
            median(&exec),
            median(&handopt),
            median(&ratio)
        ));
        run.end.set(format!("{key}_ratio"), median(&ratio));
        run.layers.set(format!("app.{key}_s"), median(&exec));
        run.layers.set(format!("handopt.{key}_s"), median(&handopt));
        ratios.push(median(&ratio));
    }
    let adhoc: Vec<f64> = closed
        .done
        .iter()
        .filter(|d| d.tenant == ADHOC)
        .map(|d| d.latency / d.handopt)
        .collect();
    run.note(format!(
        "adhoc: ratio median {:.2}x, n {}",
        median(&adhoc),
        adhoc.len()
    ));
    // The ad-hoc queries, restaged and compiled where the repeat ones hit
    // the kernel cache, count in the geometric mean as one more factor.
    ratios.push(median(&adhoc));
    run.end.set("handopt_ratio", geomean(&ratios));
    let closed_secs = secs(load.closed_share);
    let in_order = closed.latencies_in_order();
    let l = &mut run.layers;
    l.set(
        "service.query_p50_ms",
        windowed_quantile(&in_order, 0.5, WINDOWS) * 1e3,
    );
    l.set(
        "service.query_p99_ms",
        windowed_quantile(&in_order, 0.99, WINDOWS) * 1e3,
    );
    l.set("service.max_qps", closed.done.len() as f64 / closed_secs);
    run.end.set("setup_s", median(&setups));
    run.end.set("peak_rss_mb", crate::stats::peak_rss_mb());
    run.note(format!(
        "setup_s samples {setups:?}; frozen capacity {} q/s, fixed rates {} and {} q/s, p99 limit {} ms, ladder max {ladder_max} q/s",
        load.capacity_qps, load.low_qps, load.high_qps, load.p99_limit_ms
    ));
}

//! The two in-process workloads against the engine's library API:
//! `cold_lattice` (a fresh default engine per repetition builds the
//! extended lattice cold) and `edit_loop` (one warm engine answers a
//! closed loop of seeded `redefine` requests).

use std::time::Instant;

use engine::{Engine, EngineConfig, EngineError, Request, Response};
use families_stlc::{Feature, LatticeReport};
use fpop::universe::FamilyUniverse;
use modsys::CheckLedger;

use crate::expect::Expected;
use crate::report::Report;
use crate::spans::{self, SpanStats};
use crate::util::{median, ms, quantile, Prom, Rng, Samples};
use crate::Opts;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The extended feature set in a seeded order (the engine normalizes it,
/// so every order names the same 32-variant lattice).
pub fn seeded_features(rng: &mut Rng) -> Vec<Feature> {
    let mut f = Feature::all_extended().to_vec();
    for i in (1..f.len()).rev() {
        f.swap(i, rng.below(i + 1));
    }
    f
}

/// Checks a lattice verdict against the expected variant set; returns
/// the report and ledger when it matches.
fn check_lattice(
    r: Result<Response, EngineError>,
    exp: &Expected,
    rep: &mut Report,
    what: &str,
) -> Option<(LatticeReport, CheckLedger)> {
    match r {
        Ok(Response::Lattice { report, ledger }) => {
            let names: Vec<&str> = report.rows.iter().map(|r| r.name.as_str()).collect();
            if names != exp.variants {
                rep.wrong(format!(
                    "{what}: variant set differs from expected ({} rows)",
                    names.len()
                ));
                return None;
            }
            Some((report, ledger))
        }
        Ok(other) => {
            rep.wrong(format!("{what}: not a lattice verdict: {other:?}"));
            None
        }
        Err(e) => {
            rep.fail(format!("{what}: {e}"));
            None
        }
    }
}

/// Every variant must answer every expected theorem with its own
/// qualified statement.
fn check_theorems(e: &Engine, exp: &Expected, rep: &mut Report) -> bool {
    for v in &exp.variants {
        for t in &exp.theorems {
            let r = e.run(Request::QueryTheorem {
                family: v.clone(),
                field: t.clone(),
            });
            let ok = matches!(&r, Ok(Response::Theorem { statement, .. })
                if statement.starts_with(&format!("{v}.{t} :")));
            if !ok {
                rep.wrong(format!("theorem {v}.{t} not verified: {r:?}"));
                return false;
            }
        }
    }
    true
}

/// Per-layer accumulators of a traced phase of in-process engine ops.
#[derive(Default)]
struct LayerAcc {
    elab_self_ms: Vec<f64>,
    kernel_self_ms: Vec<f64>,
    kernel_checks: Vec<f64>,
    service_us: Vec<f64>,
    unattributed_ms: Vec<f64>,
    unattributed_frac: Vec<f64>,
    variant_ms: Vec<f64>,
    fields: Vec<f64>,
    checked: Vec<f64>,
    shared: Vec<f64>,
    nodes: Vec<f64>,
    critical: Vec<f64>,
    steals: Vec<f64>,
    exec_per_worker: Vec<f64>,
    par_eff: Vec<f64>,
    incr: [Vec<f64>; 3],
    spans_dropped: u64,
    sched_workers: usize,
}

impl LayerAcc {
    fn op(
        &mut self,
        lat_ms: f64,
        spans: &[trace::SpanRecord],
        report: &LatticeReport,
        ledger: &CheckLedger,
        g0: &Prom,
        g1: &Prom,
    ) {
        if spans.len() >= spans::RING_CAPACITY {
            self.spans_dropped += 1;
        }
        let st: SpanStats = spans::analyze(spans);
        self.elab_self_ms.push(st.self_ms(&spans::ELAB));
        self.kernel_self_ms.push(st.self_ms(&spans::KERNEL));
        self.kernel_checks.push(st.count_of(&spans::KERNEL) as f64);
        let service_ns: u64 = st.execute_ns.iter().sum();
        self.service_us
            .extend(st.execute_ns.iter().map(|&n| n as f64 / 1e3));
        let unattributed = (lat_ms - st.layer_covered_ns as f64 / 1e6).max(0.0);
        self.unattributed_ms.push(unattributed);
        self.unattributed_frac.push(unattributed / lat_ms);
        let elapsed: f64 = report.rows.iter().map(|r| ms(r.elapsed)).sum();
        self.variant_ms
            .extend(report.rows.iter().map(|r| ms(r.elapsed)));
        self.fields
            .push(report.rows.iter().map(|r| r.fields as f64).sum());
        self.checked.push(ledger.checked_count() as f64);
        self.shared.push(ledger.shared_count() as f64);
        self.nodes.push(g1.get("fpop_sched_dag_nodes"));
        self.critical.push(g1.get("fpop_sched_critical_path"));
        self.steals.push(
            g1.delta_family(g0, "fpop_sched_worker_", "_steals_total")
                .iter()
                .sum(),
        );
        let exec = g1.delta_family(g0, "fpop_sched_worker_", "_executed_total");
        let active: Vec<f64> = exec.into_iter().filter(|&x| x > 0.0).collect();
        if !active.is_empty() {
            self.exec_per_worker
                .push(active.iter().sum::<f64>() / active.len() as f64);
        }
        if service_ns > 0 {
            self.par_eff
                .push(elapsed / (self.sched_workers as f64 * service_ns as f64 / 1e6));
        }
        for (i, k) in ["dirty", "cutoff", "replay"].iter().enumerate() {
            let key = format!("fpop_incr_{k}_total");
            self.incr[i].push(g1.delta(g0, &key));
        }
    }

    fn emit(&self, rep: &mut Report) {
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let n = self.elab_self_ms.len();
        rep.layer("elab.self_ms", median(&self.elab_self_ms), n);
        rep.layer("kernel.prove_self_ms", median(&self.kernel_self_ms), n);
        rep.layer("kernel.checks", mean(&self.kernel_checks), n);
        rep.layer(
            "engine.service_us_p50",
            median(&self.service_us),
            self.service_us.len(),
        );
        rep.layer(
            "engine.service_us_p99",
            quantile(&self.service_us, 0.99),
            self.service_us.len(),
        );
        rep.layer(
            "elab.variant_ms_p50",
            median(&self.variant_ms),
            self.variant_ms.len(),
        );
        rep.layer("elab.fields", mean(&self.fields), n);
        rep.layer("ledger.checked", mean(&self.checked), n);
        rep.layer("ledger.shared", mean(&self.shared), n);
        rep.layer("sched.nodes", mean(&self.nodes), n);
        rep.layer("sched.critical_path", mean(&self.critical), n);
        rep.layer("sched.steals", mean(&self.steals), n);
        rep.layer("sched.executed_per_worker", mean(&self.exec_per_worker), n);
        rep.layer(
            "sched.parallel_eff",
            median(&self.par_eff),
            self.par_eff.len(),
        );
        rep.layer("incr.dirty", mean(&self.incr[0]), n);
        rep.layer("incr.cutoff", mean(&self.incr[1]), n);
        rep.layer("incr.replay", mean(&self.incr[2]), n);
        rep.layer("trace.spans_dropped", self.spans_dropped as f64, n);
    }
}

/// Engine-level counters over a traced window, for every engine of the
/// workload (one, or one per fleet shard).
pub struct EngineWindow {
    proms: Vec<Prom>,
    metrics: Vec<engine::EngineMetrics>,
    sessions: Vec<fpop::StatsSnapshot>,
    started: Instant,
}

impl EngineWindow {
    pub fn open(engines: &[&Engine]) -> EngineWindow {
        EngineWindow {
            proms: engines
                .iter()
                .map(|e| Prom::parse(&e.prometheus()))
                .collect(),
            metrics: engines.iter().map(|e| e.metrics()).collect(),
            sessions: engines.iter().map(|e| e.stats()).collect(),
            started: Instant::now(),
        }
    }

    /// Per-engine `completed` deltas (fleet shard balance).
    pub fn completed(&self, engines: &[&Engine]) -> Vec<f64> {
        engines
            .iter()
            .zip(&self.metrics)
            .map(|(e, m)| (e.metrics().completed - m.completed) as f64)
            .collect()
    }

    /// Emits queue, service-pool, session and VM metrics for the window.
    pub fn emit(&self, engines: &[&Engine], workers: usize, rep: &mut Report) {
        let proms: Vec<Prom> = engines
            .iter()
            .map(|e| Prom::parse(&e.prometheus()))
            .collect();
        let pairs: Vec<(&Prom, &Prom)> = self.proms.iter().zip(&proms).collect();
        let metrics: Vec<_> = self
            .metrics
            .iter()
            .zip(engines)
            .map(|(m, e)| (*m, e.metrics()))
            .collect();
        let wall_us = self.started.elapsed().as_secs_f64() * 1e6;
        emit_engine_deltas(rep, &pairs, &metrics, workers, wall_us);
        let (mut hits, mut misses, mut inserts, mut cached) = (0u64, 0u64, 0u64, 0u64);
        for (e, s0) in engines.iter().zip(&self.sessions) {
            let s = e.stats();
            hits += s.hits - s0.hits;
            misses += s.misses - s0.misses;
            inserts += s.inserts - s0.inserts;
            cached += s.cached_proofs;
        }
        rep.layer("session.hits", hits as f64, 1);
        rep.layer("session.misses", misses as f64, 1);
        rep.layer("session.inserts", inserts as f64, 1);
        rep.layer(
            "session.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            (hits + misses) as usize,
        );
        rep.layer("session.cached_proofs", cached as f64, 1);
    }
}

/// Queue, pool and VM metrics from engine counter deltas, summed over
/// every engine of the workload (one, or one per shard).
fn emit_engine_deltas(
    rep: &mut Report,
    proms: &[(&Prom, &Prom)],
    metrics: &[(engine::EngineMetrics, engine::EngineMetrics)],
    workers: usize,
    wall_us: f64,
) {
    let mut wait = crate::util::HistAcc::default();
    let mut busy = 0.0;
    let (mut exec, mut deopt, mut compiled, mut hits, mut misses) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (before, after) in proms {
        wait.add(before, after, "engine_wait_micros");
        busy += after.delta(before, "engine_worker_busy_micros_total");
        exec += after.delta(before, "objlang_vm_exec_total");
        deopt += after.delta(before, "objlang_vm_exec_deopt_total");
        compiled += after.delta(before, "fpop_session_code_compiled_total");
        hits += after.delta(before, "fpop_session_code_cache_hits_total");
        misses += after.delta(before, "fpop_session_code_cache_misses_total");
    }
    // The VM counters live in the process-wide registry, which every
    // engine's exposition repeats: count them once.
    let engines = proms.len().max(1) as f64;
    rep.layer("engine.queue_wait_us_p50", wait.quantile(0.5), wait.count());
    rep.layer(
        "engine.queue_wait_us_p99",
        wait.quantile(0.99),
        wait.count(),
    );
    rep.layer(
        "engine.busy_frac",
        busy / (workers as f64 * engines * wall_us),
        1,
    );
    rep.layer("vm.exec", exec / engines, 1);
    rep.layer("vm.deopt", deopt / engines, 1);
    rep.layer("vm.compiled", compiled, 1);
    rep.layer(
        "code_cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        (hits + misses) as usize,
    );
    let d = |f: fn(&engine::EngineMetrics) -> u64| -> f64 {
        metrics.iter().map(|(a, b)| (f(b) - f(a)) as f64).sum()
    };
    rep.layer("engine.dedup_hits", d(|m| m.dedup_hits), 1);
    rep.layer("engine.rejected", d(|m| m.rejected), 1);
    rep.layer("engine.expired", d(|m| m.expired), 1);
    rep.layer("engine.failed", d(|m| m.failed), 1);
}

/// `FamilyUniverse::plan` over the extended lattice (merge layer).
fn time_plan(reps: usize) -> f64 {
    let feats = Feature::all_extended();
    let defs = families_stlc::subset_defs(&feats);
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let u = FamilyUniverse::new();
            let t = Instant::now();
            let planned = u.plan(defs.iter()).expect("plan the extended lattice");
            let d = ms(t.elapsed());
            assert_eq!(planned.len(), defs.len());
            d
        })
        .collect();
    median(&v)
}

fn registry() -> Prom {
    Prom::parse(&trace::registry().render())
}

/// Runs `op` in a closed loop for `secs` (at least `min_ops` times).
fn closed_loop(secs: f64, min_ops: usize, mut op: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0;
    while start.elapsed().as_secs_f64() < secs || n < min_ops {
        op();
        n += 1;
    }
}

pub fn cold_lattice(o: &Opts, exp: &Expected) -> Report {
    let mut rep = Report::default();
    let mut rng = Rng::new(o.seed);
    let req = Request::BuildLattice {
        features: seeded_features(&mut rng),
    };
    let cfg = EngineConfig::default();
    let sched_workers = fpop::sched::default_workers();
    rep.note(format!(
        "settings: engine workers={} sched workers={} features={:?}",
        cfg.workers, sched_workers, req
    ));

    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let e = Engine::start(cfg.clone());
            rep.attempted += 1;
            check_lattice(e.run(req.clone()), exp, &mut rep, "warm-up build");
            let _ = e.shutdown();
            t.elapsed().as_secs_f64()
        })
        .collect();
    rep.e2e("setup_s", median(&setups), "s", setups.len());

    // One repetition: a fresh engine, one timed build, verification.
    let rep_op = |rep: &mut Report, acc: Option<&mut LayerAcc>, lat: &mut Samples| {
        let e = Engine::start(cfg.clone());
        let g0 = acc.as_ref().map(|_| registry());
        if acc.is_some() {
            trace::drain();
        }
        rep.attempted += 1;
        let t = Instant::now();
        let r = e.submit(req.clone()).and_then(|tk| tk.wait());
        let d = ms(t.elapsed());
        let spans = if acc.is_some() {
            trace::drain()
        } else {
            Vec::new()
        };
        if let Some((report, ledger)) = check_lattice(r, exp, rep, "cold build") {
            if check_theorems(&e, exp, rep) {
                lat.push(d);
                if let (Some(acc), Some(g0)) = (acc, g0) {
                    acc.op(d, &spans, &report, &ledger, &g0, &registry());
                }
            }
        }
        let _ = e.shutdown();
    };

    let measure_secs = if o.trace { o.seconds / 2.0 } else { o.seconds };
    let mut lat = Samples::default();
    closed_loop(measure_secs, 3, || rep_op(&mut rep, None, &mut lat));
    emit_latency(
        &mut rep,
        "lattice_cold_ms",
        &lat,
        0.90,
        "lattice_builds_per_s",
    );

    if o.trace {
        trace::install(spans::RING_CAPACITY);
        let mut acc = LayerAcc {
            sched_workers,
            ..LayerAcc::default()
        };
        let mut traced = Samples::default();
        closed_loop(measure_secs, 3, || {
            rep_op(&mut rep, Some(&mut acc), &mut traced)
        });
        trace::set_active(false);
        acc.emit(&mut rep);
        rep.layer(
            "gap.cold_unattributed_ms",
            median(&acc.unattributed_ms),
            acc.unattributed_ms.len(),
        );
        rep.layer(
            "gap.cold_unattributed_frac",
            median(&acc.unattributed_frac),
            acc.unattributed_frac.len(),
        );
        rep.layer(
            "trace.overhead_frac",
            traced.quantile(0.5) / lat.quantile(0.5) - 1.0,
            traced.len(),
        );
        rep.layer("merge.plan_ms", time_plan(5), 5);
        // A session's counters for one cold build, on a fresh engine.
        let e = Engine::start(cfg.clone());
        let w = EngineWindow::open(&[&e]);
        rep.attempted += 1;
        check_lattice(e.run(req.clone()), exp, &mut rep, "counter build");
        w.emit(&[&e], cfg.workers, &mut rep);
        let _ = e.shutdown();
    }
    rep
}

/// Records `<name>_p50` and the tail percentile, plus closed-loop
/// throughput, from exact samples.
pub fn emit_latency(rep: &mut Report, name: &str, lat: &Samples, tail: f64, tput: &str) {
    let n = lat.len();
    rep.e2e(&format!("{name}_p50"), lat.quantile(0.5), "ms", n);
    rep.e2e(
        &format!("{name}_p{}", (tail * 100.0).round() as u32),
        lat.quantile(tail),
        "ms",
        n,
    );
    rep.e2e(tput, n as f64 / (lat.sum() / 1e3).max(1e-9), "1/s", n);
}

/// The seeded `(variant, field)` touches of the edit loop: every round of
/// 32 touches visits each variant once in a seeded order (cones from one
/// variant to the whole lattice, in the same proportion for every seed),
/// each with a seeded field.
pub struct Touches<'a> {
    exp: &'a Expected,
    rng: Rng,
    round: Vec<usize>,
}

impl<'a> Touches<'a> {
    pub fn new(exp: &'a Expected, rng: Rng) -> Touches<'a> {
        Touches {
            exp,
            rng,
            round: Vec::new(),
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<(String, String)> {
        (0..n).map(|_| self.next_touch()).collect()
    }

    fn next_touch(&mut self) -> (String, String) {
        if self.round.is_empty() {
            self.round = (0..self.exp.variants.len()).collect();
            for i in (1..self.round.len()).rev() {
                self.round.swap(i, self.rng.below(i + 1));
            }
        }
        let v = self.round.pop().expect("refilled above");
        let f = self.rng.below(self.exp.touch_fields.len());
        (
            self.exp.variants[v].clone(),
            self.exp.touch_fields[f].clone(),
        )
    }
}

fn redefine(touch: &(String, String)) -> Request {
    Request::Redefine {
        family: touch.0.clone(),
        field: touch.1.clone(),
        features: Feature::all_extended().to_vec(),
    }
}

pub fn edit_loop(o: &Opts, exp: &Expected) -> Report {
    let mut rep = Report::default();
    let rng = Rng::new(o.seed);
    let cfg = EngineConfig::default();
    let sched_workers = fpop::sched::default_workers();
    rep.note(format!(
        "settings: engine workers={} sched workers={} closed loop, 1 client",
        cfg.workers, sched_workers
    ));
    let warmups = Touches::new(exp, rng.fork(1)).take(3);

    let mut engine = None;
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let t = Instant::now();
        let e = Engine::start(cfg.clone());
        rep.attempted += 1;
        check_lattice(
            e.run(Request::lattice_extended()),
            exp,
            &mut rep,
            "memo build",
        );
        for w in &warmups {
            rep.attempted += 1;
            check_lattice(e.run(redefine(w)), exp, &mut rep, "warm-up redefine");
        }
        setups.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    rep.e2e("setup_s", median(&setups), "s", setups.len());
    let e = engine.expect("set-up ran");

    let mut touches = Touches::new(exp, rng.fork(2));
    let mut step = |rep: &mut Report, acc: Option<&mut LayerAcc>, lat: &mut Samples| {
        let touch = touches.next_touch();
        let g0 = acc.as_ref().map(|_| registry());
        if acc.is_some() {
            trace::drain();
        }
        rep.attempted += 1;
        let t = Instant::now();
        let r = e.submit(redefine(&touch)).and_then(|tk| tk.wait());
        let d = ms(t.elapsed());
        let spans = if acc.is_some() {
            trace::drain()
        } else {
            Vec::new()
        };
        let what = format!("redefine {}.{}", touch.0, touch.1);
        if let Some((report, ledger)) = check_lattice(r, exp, rep, &what) {
            lat.push(d);
            if let (Some(acc), Some(g0)) = (acc, g0) {
                acc.op(d, &spans, &report, &ledger, &g0, &registry());
            }
        }
    };

    let measure_secs = if o.trace { o.seconds / 2.0 } else { o.seconds };
    let mut lat = Samples::default();
    closed_loop(measure_secs, 3, || step(&mut rep, None, &mut lat));
    emit_latency(&mut rep, "edit_ms", &lat, 0.90, "edits_per_s");

    if o.trace {
        trace::install(spans::RING_CAPACITY);
        let mut acc = LayerAcc {
            sched_workers,
            ..LayerAcc::default()
        };
        let w = EngineWindow::open(&[&e]);
        let mut traced = Samples::default();
        closed_loop(measure_secs * 0.8, 3, || {
            step(&mut rep, Some(&mut acc), &mut traced)
        });
        trace::set_active(false);
        w.emit(&[&e], cfg.workers, &mut rep);
        acc.emit(&mut rep);
        rep.layer(
            "trace.overhead_frac",
            traced.quantile(0.5) / lat.quantile(0.5) - 1.0,
            traced.len(),
        );
        rep.layer(
            "incr.memo_entries",
            e.session().incr_memos().len() as f64,
            1,
        );
        in_process_recheck(exp, &rng, sched_workers, lat.quantile(0.5), &mut rep);
    }
    let _ = e.shutdown();
    rep
}

/// The library-level twin of the edit loop, on the same seeded touches:
/// `recheck_lattice_subset_with` against a warm in-process universe, the
/// zero-dirty resubmission, replanning and planning. Gives ROADMAP's
/// serving tax and no-op floor.
fn in_process_recheck(exp: &Expected, rng: &Rng, workers: usize, edit_p50: f64, rep: &mut Report) {
    let feats = Feature::all_extended();
    let defs = families_stlc::subset_defs(&feats);
    let (warm, _, _) = families_stlc::build_lattice_defs_incr_with(
        &FamilyUniverse::new(),
        &feats,
        defs.clone(),
        &[],
        workers,
    )
    .expect("cold in-process lattice");
    let touches = Touches::new(exp, rng.fork(2)).take(32);
    let mut recheck = Vec::new();
    for t in &touches {
        rep.attempted += 1;
        let start = Instant::now();
        match families_stlc::recheck_lattice_subset_with(&warm, &feats, &t.0, &t.1, workers) {
            Ok((_, report, _)) => {
                recheck.push(ms(start.elapsed()));
                let names: Vec<&str> = report.rows.iter().map(|r| r.name.as_str()).collect();
                if names != exp.variants {
                    rep.wrong(format!(
                        "in-process recheck {}.{}: variant set differs",
                        t.0, t.1
                    ));
                }
            }
            Err(e) => rep.fail(format!("in-process recheck {}.{}: {e}", t.0, t.1)),
        }
    }
    let noop: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let (_, _, outcome) = families_stlc::build_lattice_defs_incr_with(
                &warm,
                &feats,
                defs.clone(),
                &[],
                workers,
            )
            .expect("no-op recheck");
            let d = ms(start.elapsed());
            if outcome.dirty != 0 {
                rep.wrong(format!("no-op recheck re-ran {} variants", outcome.dirty));
            }
            d
        })
        .collect();
    let replan: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            warm.replan_after_edit(defs.iter()).expect("replan");
            ms(start.elapsed())
        })
        .collect();
    let recheck_p50 = median(&recheck);
    let noop_ms = median(&noop);
    rep.layer("incr.recheck_ms_p50", recheck_p50, recheck.len());
    rep.layer("incr.noop_ms", noop_ms, noop.len());
    rep.layer("incr.replan_ms", median(&replan), replan.len());
    rep.layer("merge.plan_ms", time_plan(5), 5);
    rep.layer("gap.serving_tax_ms", edit_p50 - recheck_p50, recheck.len());
    rep.layer(
        "gap.noop_per_variant_ms",
        noop_ms / exp.variants.len() as f64,
        noop.len(),
    );
    rep.note(format!(
        "gaps: serving tax = edit_ms_p50 {edit_p50:.3} - incr.recheck_ms_p50 {recheck_p50:.3} ms; \
         no-op floor = incr.noop_ms {noop_ms:.3} / {} variants",
        exp.variants.len()
    ));
}

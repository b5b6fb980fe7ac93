//! Engine throughput: req/sec of the `fpopd` worker pool over a mixed
//! `CheckSource` + `BuildLattice` batch, cold cache vs warm
//! (snapshot-restored) cache — the ENGINE-tput experiment — plus the
//! service-level `redefine` and fleet failover recovery. Warm serving
//! over the wire, direct and through the fleet router, is measured end
//! to end by `fpopbench` (`serve_direct`, `serve_fleet`), which also
//! verifies every reply.

use crate::harness::Bencher;
use engine::{Engine, EngineConfig, Request};
use families_stlc::Feature;
use std::sync::Arc;
use std::time::Instant;

const PEANO: &str = include_str!("../../../examples/peano.fpop");

/// A mixed request batch: vernacular checks + lattice subsets of mixed
/// arity. Distinct sources defeat in-flight dedup so every request costs
/// real scheduling (the cache, not the dedup map, provides the reuse).
fn batch() -> Vec<Request> {
    let mut reqs = Vec::new();
    for i in 0..4 {
        reqs.push(Request::CheckSource {
            source: format!("(* batch item {i} *)\n{PEANO}"),
        });
    }
    for features in [
        vec![Feature::Fix],
        vec![Feature::Prod],
        vec![Feature::Sum],
        vec![Feature::Fix, Feature::Prod],
        vec![Feature::Prod, Feature::Isorec],
        vec![Feature::Fix, Feature::Prod, Feature::Sum],
    ] {
        reqs.push(Request::BuildLattice { features });
    }
    reqs
}

fn run_batch(engine: &Arc<Engine>, reqs: &[Request]) -> usize {
    let tickets: Vec<_> = reqs
        .iter()
        .map(|r| engine.submit(r.clone()).expect("submit"))
        .collect();
    tickets.iter().filter(|t| t.wait().is_ok()).count()
}

fn engine_with(workers: usize, snapshot: Option<std::path::PathBuf>) -> Arc<Engine> {
    Arc::new(Engine::start(EngineConfig {
        workers,
        queue_capacity: 256,
        snapshot_path: snapshot,
        ..EngineConfig::default()
    }))
}

/// Registers the engine series on `b`.
pub fn run(b: &mut Bencher) {
    eprintln!("\n== engine: fpopd request throughput ==");
    let reqs = batch();
    let n = reqs.len() as f64;
    let dir = std::env::temp_dir().join(format!("fpop-engine-bench-{}", std::process::id()));
    let snap = dir.join("proofs.snap");

    // Produce the warm snapshot once.
    let seed = engine_with(4, Some(snap.clone()));
    run_batch(&seed, &reqs);
    seed.shutdown().unwrap();

    for workers in [1usize, 4] {
        b.bench_time(&format!("engine/batch_cold_{workers}w"), n, || {
            let cold = engine_with(workers, None);
            let t = Instant::now();
            let ok = run_batch(&cold, &reqs);
            let d = t.elapsed();
            assert_eq!(ok, reqs.len());
            cold.shutdown().unwrap();
            d
        });
        b.bench_time(&format!("engine/batch_warm_{workers}w"), n, || {
            let warm = engine_with(workers, Some(snap.clone()));
            assert!(warm.warm_loaded() > 0, "snapshot must load");
            let t = Instant::now();
            let ok = run_batch(&warm, &reqs);
            let d = t.elapsed();
            assert_eq!(ok, reqs.len());
            assert_eq!(warm.stats().misses, 0, "warm batch must not miss");
            warm.shutdown().unwrap();
            d
        });
    }
    // The 1-worker batch is the sequential baseline for the pool series.
    b.mark_speedup("engine/batch_cold_4w", "engine/batch_cold_1w");
    b.mark_speedup("engine/batch_warm_4w", "engine/batch_warm_1w");
    std::fs::remove_dir_all(&dir).ok();

    redefine_series(b);

    #[cfg(unix)]
    failover_series(b);
}

/// The `redefine` verb end to end: a warm engine holds the full lattice's
/// elaboration memo in its session; each iteration touches one field of
/// `STLCFix` and re-verifies the whole lattice through the incremental
/// path (one variant dirty, the cone early-cut, the rest replayed). This
/// is the service-level twin of the kernel `lattice/recheck_one_field`
/// row — what a client actually waits for after an edit.
fn redefine_series(b: &mut Bencher) {
    eprintln!("\n== engine: redefine (incremental recheck) ==");
    let engine = engine_with(1, None);
    engine
        .submit(Request::BuildLattice {
            features: Feature::all().to_vec(),
        })
        .expect("submit warm lattice")
        .wait()
        .expect("warm lattice");
    b.bench("engine/redefine_warm", 1.0, || {
        engine
            .submit(Request::Redefine {
                family: "STLCFix".to_string(),
                field: "step_fix_inv".to_string(),
                features: Feature::all().to_vec(),
            })
            .expect("submit redefine")
            .wait()
            .expect("redefine")
    });
    engine.shutdown().expect("engine shutdown");
}

/// ENGINE-fleet failover: wall time from losing a digest's home shard to
/// the router answering that digest with a real verdict again
/// (detection + re-route; the surviving shard is already warm).
#[cfg(unix)]
fn failover_series(b: &mut Bencher) {
    use engine::fleet::{Fleet, Ring};
    use engine::fpopb;
    use engine::request::Priority;

    eprintln!("\n== engine: fleet failover recovery ==");
    let req = Request::CheckSource {
        source: format!("(* fleet item 0 *)\n{PEANO}"),
    };
    b.bench_time("engine/fleet_failover_recovery", 1.0, || {
        let mut fleet = Fleet::start_default(2).expect("fleet start");
        // Only `req`'s digest is measured; warming just it keeps the
        // untimed per-iteration setup (a fresh fleet every time) cheap.
        for shard in &fleet.shards {
            shard.engine.run(req.clone()).expect("fleet warmup");
        }
        let key = req.dedup_key().expect("checks have digests");
        let victim = Ring::new(2).route(key, &[true, true]).expect("route");
        let mut c = fpopb::Client::connect(fleet.addr).expect("connect router");
        // Pin the digest's home shard on this connection, then lose it.
        match c.roundtrip(&req, Priority::Normal).expect("pre-kill") {
            fpopb::Reply::Ok(_) => {}
            other => panic!("pre-kill answered {other:?}"),
        }
        fleet.stop_shard(victim).expect("stop shard");
        let t = Instant::now();
        loop {
            match c.roundtrip(&req, Priority::Normal).expect("roundtrip") {
                fpopb::Reply::Ok(_) => break,
                fpopb::Reply::Err(fpopb::ErrCode::Unavailable, _) => continue,
                other => panic!("failover answered {other:?}"),
            }
        }
        let d = t.elapsed();
        fleet.stop().expect("fleet stop");
        d
    });
}

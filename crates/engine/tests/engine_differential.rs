//! Differential oracle 4: **engine vs. in-process elaboration**.
//!
//! Random batches of requests — vernacular checks with known verdicts,
//! lattice builds, `redefine` rechecks, theorem queries — go through the
//! full `fpopd` engine (worker pool, dedup coalescing, deadlines,
//! cancellation, cached lattice plans, the theorem and signature
//! registries) and must produce exactly the verdicts direct in-process
//! elaboration produces.
//! Scheduling outcomes (`Cancelled`, `DeadlineExpired`, `Rejected`) are
//! legitimate engine answers but never count as verdicts; whenever the
//! engine *does* answer, it must agree with the kernel.

use std::time::Duration;

use engine::{Engine, EngineConfig, EngineError, Priority, Request, Response};
use families_stlc::{build_lattice, recheck_lattice_subset_with, subset_defs, LatticeReport};
use fpop::universe::FamilyUniverse;
use modsys::CheckLedger;
use testkit::family_gen::gen_feature_subset;
use testkit::lattice_ref::{export_bytes, reports_match};
use testkit::script_gen::{gen_vernacular, Verdict, VernacularProgram};
use testkit::{run_cases, Rng};

fn no_snapshot(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        snapshot_path: None,
        ..EngineConfig::default()
    }
}

/// What the engine said, reduced to a verdict when it said anything.
enum Outcome {
    Accepted,
    Rejected,
    Scheduling(EngineError),
}

fn classify(r: Result<Response, EngineError>) -> Outcome {
    match r {
        Ok(Response::Checked { .. }) => Outcome::Accepted,
        Ok(other) => panic!("CheckSource answered with {other:?}"),
        Err(EngineError::Failed(_)) => Outcome::Rejected,
        Err(e) => Outcome::Scheduling(e),
    }
}

fn expect_accept(p: &VernacularProgram) -> bool {
    p.expect == Verdict::Accept
}

/// Random request batches — with duplicate submissions injected — settle
/// to the generator's expected verdicts, and coalesced duplicates always
/// agree with their primaries.
#[test]
fn random_batches_match_in_process_verdicts() {
    let engine = Engine::start(no_snapshot(3));
    run_cases("engine_batch_verdicts", 0xE7611E, 8, |r: &mut Rng| {
        let batch: Vec<VernacularProgram> = (0..r.range(2, 6)).map(|_| gen_vernacular(r)).collect();
        let mut tickets = Vec::new();
        for p in &batch {
            let req = Request::CheckSource {
                source: p.source.clone(),
            };
            let primary = engine.submit(req.clone()).expect("submit");
            // ~Half the programs are double-submitted while the primary
            // is (possibly) still in flight, exercising dedup coalescing.
            let dup = if r.flip() {
                Some(engine.submit(req).expect("submit dup"))
            } else {
                None
            };
            tickets.push((p, primary, dup));
        }
        for (p, primary, dup) in tickets {
            let want_accept = expect_accept(p);
            match classify(primary.wait()) {
                Outcome::Accepted => assert!(want_accept, "engine accepted:\n{}", p.source),
                Outcome::Rejected => assert!(!want_accept, "engine rejected:\n{}", p.source),
                Outcome::Scheduling(e) => panic!("unexpected scheduling outcome {e:?}"),
            }
            if let Some(d) = dup {
                match classify(d.wait()) {
                    Outcome::Accepted => {
                        assert!(want_accept, "duplicate diverged on:\n{}", p.source)
                    }
                    Outcome::Rejected => {
                        assert!(!want_accept, "duplicate diverged on:\n{}", p.source)
                    }
                    Outcome::Scheduling(e) => panic!("duplicate got {e:?}"),
                }
            }
        }
    });
    let m = engine.metrics();
    assert!(m.submitted > 0);
    engine.shutdown().unwrap();
}

/// Cancellation and expired deadlines never corrupt verdicts: a ticket
/// either reports a scheduling outcome or the correct verdict, and the
/// engine keeps answering correctly afterwards.
#[test]
fn cancellation_and_deadlines_never_corrupt_verdicts() {
    let engine = Engine::start(no_snapshot(2));
    run_cases("engine_cancel_deadline", 0xCA9CE1, 8, |r: &mut Rng| {
        let p = gen_vernacular(r);
        let req = Request::CheckSource {
            source: p.source.clone(),
        };
        let outcome = if r.flip() {
            // Cancel immediately after submitting.
            let t = engine.submit(req).expect("submit");
            t.cancel();
            t.wait()
        } else {
            // A deadline that has effectively already expired.
            engine
                .submit_with(req, Priority::Normal, Some(Duration::from_nanos(1)))
                .expect("submit")
                .wait()
        };
        match classify(outcome) {
            // If the job still ran, its verdict must be the true one.
            Outcome::Accepted => assert!(expect_accept(&p), "accepted:\n{}", p.source),
            Outcome::Rejected => assert!(!expect_accept(&p), "rejected:\n{}", p.source),
            Outcome::Scheduling(
                EngineError::Cancelled | EngineError::DeadlineExpired | EngineError::Rejected,
            ) => {}
            Outcome::Scheduling(e) => panic!("unexpected scheduling outcome {e:?}"),
        }
        // The engine still answers fresh uncontested work correctly.
        let q = gen_vernacular(r);
        match classify(engine.run(Request::CheckSource {
            source: q.source.clone(),
        })) {
            Outcome::Accepted => assert!(expect_accept(&q), "accepted:\n{}", q.source),
            Outcome::Rejected => assert!(!expect_accept(&q), "rejected:\n{}", q.source),
            Outcome::Scheduling(e) => panic!("follow-up got {e:?}"),
        }
    });
    engine.shutdown().unwrap();
}

/// Engine lattice builds agree row-for-row with direct in-process builds
/// of the same random feature subset, and the theorems they register are
/// queryable with the statements the kernel proved.
#[test]
fn engine_lattice_matches_in_process_lattice() {
    let engine = Engine::start(no_snapshot(3));
    run_cases("engine_lattice_differential", 0x1A77DE, 3, |r: &mut Rng| {
        let subset = gen_feature_subset(r);
        let (report, ledger) = match engine.run(Request::BuildLattice {
            features: subset.raw.clone(),
        }) {
            Ok(Response::Lattice { report, ledger }) => (report, ledger),
            other => panic!("lattice request answered {other:?}"),
        };
        let mut u = FamilyUniverse::new();
        let direct = build_lattice(&mut u, &subset.normalized, 1).expect("in-process build");
        assert_eq!(report.rows.len(), direct.rows.len(), "row counts differ");
        for (e, d) in report.rows.iter().zip(&direct.rows) {
            assert_eq!(e.name, d.name, "variant order differs");
            assert_eq!(
                (e.arity, e.fields),
                (d.arity, d.fields),
                "{}: engine and in-process structure differs",
                e.name
            );
            // The engine's long-lived session may be warm from earlier
            // requests, shifting units from `checked` into `shared` — but
            // the per-variant unit *total* is scheduling-independent.
            assert_eq!(
                e.checked + e.shared,
                d.checked + d.shared,
                "{}: unit totals differ (engine {}+{}, in-process {}+{})",
                e.name,
                e.checked,
                e.shared,
                d.checked,
                d.shared
            );
        }
        assert!(ledger.checked_count() > 0 || ledger.shared_count() > 0);
        // The subset's top variant is queryable for its safety theorem.
        match engine.run(Request::QueryTheorem {
            family: subset.top_variant(),
            field: "typesafe".into(),
        }) {
            Ok(Response::Theorem { statement, .. }) => {
                assert!(!statement.is_empty());
            }
            other => panic!("theorem query answered {other:?}"),
        }
    });
    engine.shutdown().unwrap();
}

/// Every family's ledger in `u`, combined — what the engine's
/// `absorb_universe` returns for a finished universe.
fn combined_ledger(u: &FamilyUniverse) -> CheckLedger {
    let mut all = CheckLedger::new();
    for name in u.names() {
        all.absorb(&u.family(name.as_str()).expect("listed family").ledger);
    }
    all
}

/// One engine answer against its in-process twin: row-identical reports,
/// `same_counts` ledgers, and every theorem of every variant queryable
/// with the statement `u.check` renders.
fn engine_step_matches(
    engine: &Engine,
    answer: Result<Response, EngineError>,
    direct: &LatticeReport,
    u: &FamilyUniverse,
    what: &str,
) {
    let (report, ledger) = match answer {
        Ok(Response::Lattice { report, ledger }) => (report, ledger),
        other => panic!("{what}: answered {other:?}"),
    };
    reports_match(direct, &report).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(
        ledger.same_counts(&combined_ledger(u)),
        "{what}: ledgers differ"
    );
    for name in u.names() {
        let fam = u.family(name.as_str()).expect("listed family");
        for field in fam.theorems.keys() {
            let want = u
                .check(name.as_str(), field.as_str())
                .expect("in-process check");
            match engine.run(Request::QueryTheorem {
                family: name.to_string(),
                field: field.to_string(),
            }) {
                Ok(Response::Theorem { statement, .. }) => {
                    assert_eq!(statement, want, "{what}: {name}.{field}")
                }
                other => panic!("{what}: query {name}.{field} answered {other:?}"),
            }
        }
    }
}

/// Extracts a plain `name value` sample from a Prometheus exposition.
fn gauge(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from the exposition"))
}

/// `Redefine` through the engine — cached plan, memo replay, registries
/// that skip memo-served families — agrees step for step with a chain of
/// in-process `recheck_lattice_subset_with` calls on a twin session, at
/// one and two workers; afterwards both sessions hold the same proofs.
/// One touch resubmits the features shuffled and duplicated (the same
/// cached plan); an unknown family and an unknown field fail with the
/// in-process error strings.
#[test]
fn engine_redefine_matches_in_process_recheck_chain() {
    run_cases(
        "engine_redefine_differential",
        0x4EDEF1,
        3,
        redefine_chain_case,
    );
}

/// One case of [`engine_redefine_matches_in_process_recheck_chain`].
fn redefine_chain_case(r: &mut Rng) {
    let subset = gen_feature_subset(r);
    let feats = &subset.normalized;
    let variants = subset_defs(feats).len() as u64;
    // (variant index, field draw): the field is drawn modulo the
    // variant's merged field count once the lattice is built.
    let touches: Vec<(usize, u64)> = (0..8)
        .map(|_| (r.below(variants) as usize, r.next_u64()))
        .collect();
    let mut shuffled = subset.raw.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, r.below(i as u64 + 1) as usize);
    }
    shuffled.push(shuffled[0]);

    for workers in [1, 2] {
        let engine = Engine::start(EngineConfig {
            sched_workers: workers,
            ..no_snapshot(workers)
        });
        let mut twin = FamilyUniverse::new();
        let direct = build_lattice(&mut twin, feats, 1).expect("in-process build");
        let answer = engine.run(Request::BuildLattice {
            features: subset.raw.clone(),
        });
        engine_step_matches(&engine, answer, &direct, &twin, "build");

        for (step, &(v, draw)) in touches.iter().enumerate() {
            let family = twin.names()[v].to_string();
            let fields = &twin.family(&family).expect("variant built").fields;
            let field = fields[(draw % fields.len() as u64) as usize]
                .name
                .to_string();
            let features = if step == 3 {
                shuffled.clone()
            } else {
                subset.raw.clone()
            };
            let answer = engine.run(Request::Redefine {
                family: family.clone(),
                field: field.clone(),
                features,
            });
            let (next, direct, _) = recheck_lattice_subset_with(&twin, feats, &family, &field, 1)
                .expect("in-process recheck");
            let what = format!("{workers}w step {step} redefine {family}.{field}");
            engine_step_matches(&engine, answer, &direct, &next, &what);
            twin = next;
        }
        assert_eq!(
            gauge(&engine.prometheus(), "engine_lattice_plans"),
            1,
            "every request over this feature set shares one plan"
        );

        let top = subset.top_variant();
        let rejects = [
            (
                "STLCNoSuch",
                "typesafe",
                format!(
                    "redefine: STLCNoSuch is not a variant of this \
                 sub-lattice (features {feats:?})"
                ),
            ),
            (
                top.as_str(),
                "no_such_field",
                format!("redefine: family {top} has no field no_such_field"),
            ),
        ];
        for (family, field, says) in rejects {
            let want = recheck_lattice_subset_with(&twin, feats, family, field, 1)
                .expect_err("in-process recheck rejects")
                .to_string();
            assert!(want.contains(&says), "{want}");
            match engine.run(Request::Redefine {
                family: family.into(),
                field: field.into(),
                features: subset.raw.clone(),
            }) {
                Err(EngineError::Failed(msg)) => assert_eq!(msg, want),
                other => panic!("redefine {family}.{field} answered {other:?}"),
            }
        }
        assert!(
            format!("{:?}", engine.session().export()).into_bytes() == export_bytes(&twin),
            "{workers}w: engine and in-process sessions differ after the script"
        );
        engine.shutdown().unwrap();
    }
}

//! Differential oracle 2, scheduler side: the **task-DAG build** under
//! schedules with more workers than the lattice has independent chains,
//! against the from-scratch reference.
//!
//! Every DAG build here goes through [`dag_matches_reference`], so it is
//! run at 1, 2, 4 and 8 workers and must reproduce the one-by-one
//! reference exactly: identical verdicts, row-identical reports,
//! `same_counts` aggregate ledgers and **byte-identical session
//! contents**, so everything downstream of the session (snapshots, warm
//! restarts, the engine's `FPOPSNAP` codec) is oblivious to how the
//! lattice was scheduled. A deliberately cyclic task graph fails
//! *loudly* with a diagnostic naming the cycle, instead of hanging the
//! build.

use families_stlc::Feature;
use fpop::sched::{SchedError, TaskDag};
use testkit::family_gen::{gen_feature_subset, FeatureSubset};
use testkit::forall;
use testkit::lattice_ref::dag_matches_reference;

/// Random sublattices elaborate identically under every DAG schedule up
/// to 8 workers and in the reference, down to the exported proofs' bytes.
#[test]
fn random_sublattices_dag_8_workers_match_sequential_bytes() {
    forall(
        "sched_dag_8w_eq_reference",
        0x5C4ED11F,
        4,
        gen_feature_subset,
        |s: &FeatureSubset| dag_matches_reference(&s.normalized).map(drop),
    );
}

/// Stress: the full 15-variant Venn lattice at 1, 2, 4 and 8 workers —
/// every schedule must reproduce the reference exactly, including the
/// session's exported bytes.
#[test]
fn full_lattice_stress_across_worker_counts() {
    let (_, report) = dag_matches_reference(&Feature::all()).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(report.rows.len(), 16); // base + 15 variants
}

/// A deliberately cyclic dependency graph is rejected with a loud
/// diagnostic naming the cycle — it must not hang a worker pool.
#[test]
fn deliberate_cycle_is_a_loud_diagnostic_not_a_hang() {
    let mut dag = TaskDag::new();
    let a = dag.add_node("STLCLoop◦tm");
    let b = dag.add_node("STLCLoop◦subst");
    let c = dag.add_node("STLCLoop◦typesafe");
    dag.add_edge(a, b);
    dag.add_edge(b, c);
    dag.add_edge(c, a);
    let err = dag
        .run(8, |_| Ok::<(), String>(()))
        .expect_err("a cyclic graph must not execute");
    match err {
        SchedError::Cycle(diag) => {
            let msg = diag.to_string();
            assert!(msg.contains("dependency cycle"), "weak diagnostic: {msg}");
            assert!(
                msg.contains("refusing to schedule"),
                "weak diagnostic: {msg}"
            );
            assert!(msg.contains("STLCLoop◦tm"), "cycle not named: {msg}");
        }
        SchedError::Task { label, .. } => panic!("ran {label} despite the cycle"),
    }
}

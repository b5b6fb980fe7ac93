//! Differential oracle 2: the **task-DAG lattice build** against the
//! from-scratch reference, on *randomized* feature subsets.
//!
//! [`families_stlc::build_lattice`] elaborates every field of every
//! variant as a node of a work-stealing task graph, with nothing
//! committed during the run, then commits the variants in canonical
//! order. Its claim is that the worker count and the order the workers
//! ran in are unobservable: the universe and the session end exactly as
//! if each variant had been defined one by one in plan order, which is
//! what [`testkit::lattice_ref::build_reference`] does.
//! [`dag_matches_reference`] builds the reference once and the DAG at 1,
//! 2, 4 and 8 workers and checks each against it (rows, ledgers,
//! exported session bytes, cache hits).
//!
//! This file drives that check across random sublattices drawn by
//! [`testkit::family_gen`], with integrated shrinking: a failing subset
//! is minimized feature by feature before the harness reports its replay
//! seed. `sched_differential.rs` runs more random subsets and the full
//! Venn lattice; `parallel_lattice.rs` the extended lattice and what the
//! built lattices are for.

use families_stlc::{normalize_features, variant_name};
use testkit::family_gen::{gen_composition_chain, gen_feature_subset, FeatureSubset};
use testkit::lattice_ref::dag_matches_reference;
use testkit::{forall, run_cases};

/// Random sublattices elaborate identically on the DAG at every worker
/// count and in the one-by-one reference, and the subset's top variant
/// is present under its canonical name.
#[test]
fn random_sublattices_build_identically_parallel_and_sequential() {
    forall(
        "sublattice_dag_eq_reference",
        0x1A771CE,
        4,
        gen_feature_subset,
        |s: &FeatureSubset| {
            let (_, report) = dag_matches_reference(&s.normalized)?;
            let top = s.top_variant();
            if !report.rows.iter().any(|r| r.name == top) {
                return Err(format!("top variant {top} missing from report"));
            }
            Ok(())
        },
    );
}

/// Rebuilding the same random subset in a *fresh* universe is fully
/// deterministic: every rebuild, at every worker count, reproduces the
/// one reference build's rows, ledger counts and session bytes.
#[test]
fn sublattice_rebuilds_are_deterministic() {
    forall(
        "sublattice_determinism",
        0xD37E12,
        3,
        gen_feature_subset,
        |s: &FeatureSubset| dag_matches_reference(&s.normalized).map(drop),
    );
}

/// Feature normalization is a retraction and variant naming is
/// order-invariant: every prefix of a random composition chain names the
/// same variant no matter how its features are permuted.
#[test]
fn chain_prefixes_name_canonical_variants() {
    run_cases("chain_canonical_names", 0xC0FFEE, 200, |r| {
        let chain = gen_composition_chain(r);
        for step in &chain {
            let n = normalize_features(step);
            assert_eq!(n, normalize_features(&n), "normalize not idempotent");
            let mut rev = step.clone();
            rev.reverse();
            assert_eq!(
                variant_name(&normalize_features(&rev)),
                variant_name(&n),
                "variant name depends on composition order: {step:?}"
            );
        }
        // Chains grow monotonically: each step's normalized set contains
        // the previous step's.
        for w in chain.windows(2) {
            let prev = normalize_features(&w[0]);
            let next = normalize_features(&w[1]);
            assert!(
                prev.iter().all(|f| next.contains(f)),
                "chain step dropped features: {prev:?} -> {next:?}"
            );
        }
    });
}

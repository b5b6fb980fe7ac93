//! Differential oracle 2 on the fixed lattices, and the shared-session
//! reuse channel the lattice build rides on.
//!
//! [`build_lattice`] must be *observationally identical* to the
//! one-by-one reference at every worker count
//! ([`dag_matches_reference`]: same rows, same per-variant checked/shared
//! counts, same aggregate ledger, same session bytes and cache hits);
//! `differential_lattice.rs` and `sched_differential.rs` check that on
//! random sublattices and the full Venn lattice, this file on the
//! 31-variant extended lattice. It also pins what the build is for: the
//! DAG-built Venn lattice answers every Check query with no assumptions
//! left open, the shared session demonstrably serves proofs across
//! variants (strictly positive cache-hit count, quad reuse > 0.6), the
//! ledger and session instruments agree, and one session serves two
//! universes.

use families_stlc::{build_lattice, Feature, LatticeReport};
use fpop::universe::FamilyUniverse;
use testkit::lattice_ref::{dag_matches_reference, export_bytes, reports_match};

/// The quad composite's reuse ratio clears the bar the case study sets.
fn assert_quad_reuse(report: &LatticeReport) {
    let quad = report
        .rows
        .iter()
        .find(|r| r.name == "STLCFixProdSumIsorec")
        .expect("quad composite built");
    assert!(quad.reuse_ratio > 0.6, "quad reuse {}", quad.reuse_ratio);
}

/// Two default-worker builds of the 15-variant Venn lattice agree row
/// for row and byte for byte, and the DAG-built universe answers every
/// variant's `typesafe` Check query with no assumptions left open.
#[test]
fn parallel_venn_lattice_is_deterministic() {
    let workers = fpop::sched::default_workers();
    let mut first_u = FamilyUniverse::new();
    let first = build_lattice(&mut first_u, &Feature::all(), workers).expect("first build");
    let mut u = FamilyUniverse::new();
    let report = build_lattice(&mut u, &Feature::all(), workers).expect("second build");
    reports_match(&first, &report).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(export_bytes(&first_u), export_bytes(&u));
    assert_eq!(report.rows.len(), 16); // base + 15 variants
    for row in &report.rows {
        let out = u.check(&row.name, "typesafe").unwrap();
        assert!(out.contains(&format!("{}.typesafe", row.name)), "{out}");
        assert!(u.family(&row.name).unwrap().assumptions.is_empty());
    }
    assert_quad_reuse(&report);
}

/// The default-worker extended lattice's shared session serves proofs
/// across variants, and its per-family ledgers sum to the session's
/// cache counters.
#[test]
fn parallel_extended_lattice_shares_through_the_session() {
    let mut u = FamilyUniverse::new();
    let report = build_lattice(
        &mut u,
        &Feature::all_extended(),
        fpop::sched::default_workers(),
    )
    .expect("extended lattice");
    assert_eq!(report.rows.len(), 32); // base + 31 variants

    let stats = u.session().stats();
    assert!(
        stats.cache_hits > 0,
        "expected cross-variant cache hits, got {stats:?}"
    );
    assert!(stats.cache_inserts > 0, "no proofs committed: {stats:?}");
    assert_quad_reuse(&report);

    // Per-family ledger cache counters sum to the session's totals: the
    // two instruments (local ledgers, global session) agree.
    let (mut hits, mut misses) = (0u64, 0u64);
    for name in u.names().to_vec() {
        let fam = u.family(name.as_str()).unwrap();
        hits += fam.ledger.cache_hits() as u64;
        misses += fam.ledger.cache_misses() as u64;
    }
    assert_eq!(hits, stats.cache_hits);
    assert_eq!(misses, stats.cache_misses);
}

/// The 31-variant extended lattice matches the reference at every worker
/// count, cache hits included, and those hits are strictly positive.
#[test]
fn extended_lattices_agree_and_report_hits() {
    let (u, report) =
        dag_matches_reference(&Feature::all_extended()).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(report.rows.len(), 32); // base + 31 variants
    let stats = u.session().stats();
    assert!(
        stats.cache_hits > 0,
        "expected cross-variant cache hits, got {stats:?}"
    );
}

#[test]
fn one_session_spans_universes() {
    // Build the Venn lattice twice, in two *different* universes drawing on
    // one session: the second build's proofs are all cache hits, which is
    // the cross-family reuse channel of the CS1-share experiment.
    let workers = fpop::sched::default_workers();
    let session = fpop::Session::new();
    let mut first = FamilyUniverse::with_session(session.clone());
    build_lattice(&mut first, &Feature::all(), workers).expect("first lattice");
    let after_first = session.stats();

    let mut second = FamilyUniverse::with_session(session.clone());
    build_lattice(&mut second, &Feature::all(), workers).expect("second lattice");
    let after_second = session.stats();

    // Every proof the second build looked up was served by the session.
    assert_eq!(
        after_second.cache_inserts, after_first.cache_inserts,
        "second build re-inserted proofs instead of reusing them"
    );
    let second_lookups = (after_second.cache_hits + after_second.cache_misses)
        - (after_first.cache_hits + after_first.cache_misses);
    let second_hits = after_second.cache_hits - after_first.cache_hits;
    assert!(second_lookups > 0);
    assert_eq!(
        second_hits, second_lookups,
        "second universe must hit on every lookup"
    );
}

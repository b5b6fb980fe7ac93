//! The from-scratch reference for the composition-lattice build.
//!
//! [`families_stlc::build_lattice`] elaborates a sub-lattice on a
//! field-level task DAG with detached environments, overlay reads and a
//! canonical-order commit loop; [`families_stlc::build_lattice_defs_incr_with`]
//! adds fingerprint memos and early cutoff on top. Both claim to leave the
//! universe and the session exactly as if every variant had been defined
//! one by one, in plan order. This module is that "one by one": a plain
//! loop of [`FamilyUniverse::define`] over a definition list, sharing no
//! code path with the builders it checks (the oracle #6 pattern). Oracle
//! #2 compares the DAG against it at several worker counts
//! ([`dag_matches_reference`]); oracle #10 uses it as the control for
//! incremental recheck.

use std::time::Instant;

use families_stlc::{
    build_lattice, normalize_features, subset_defs, variant_name, Feature, LatticeReport,
    VariantStat,
};
use fpop::family::FamilyDef;
use fpop::universe::FamilyUniverse;
use objlang::error;

/// Defines `defs` in `u` in order and records one [`VariantStat`] row per
/// definition, read off the freshly defined family. `features` names the
/// sub-lattice the definitions belong to; a row's arity is the size of
/// the feature subset its variant is named after.
///
/// # Errors
///
/// Propagates the first elaboration failure.
///
/// # Panics
///
/// Panics if a definition is not named after a subset of `features`.
pub fn build_reference(
    u: &mut FamilyUniverse,
    features: &[Feature],
    defs: Vec<FamilyDef>,
) -> error::Result<LatticeReport> {
    let mut report = LatticeReport::default();
    for def in defs {
        let name = def.name.to_string();
        let t = Instant::now();
        let fam = u.define(def)?;
        report.rows.push(VariantStat {
            arity: arity_of(features, &name),
            fields: fam.fields.len(),
            checked: fam.ledger.checked_count(),
            shared: fam.ledger.shared_count(),
            reuse_ratio: fam.ledger.reuse_ratio(),
            elapsed: t.elapsed(),
            name,
        });
    }
    Ok(report)
}

/// The number of features in the subset of `features` whose variant is
/// called `name` (`STLC` is the empty subset), found by trying them all.
fn arity_of(features: &[Feature], name: &str) -> usize {
    let feats = normalize_features(features);
    (0u32..1 << feats.len())
        .map(|mask| {
            feats
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &f)| f)
                .collect::<Vec<_>>()
        })
        .find(|subset| variant_name(subset) == name)
        .map(|subset| subset.len())
        .unwrap_or_else(|| panic!("{name} is not a variant of {feats:?}"))
}

/// The DAG worker counts [`dag_matches_reference`] builds at. 8 is more
/// workers than any lattice has independent chains, maximizing
/// steal/park churn.
pub const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Row-by-row comparison modulo wall time (which is never deterministic).
///
/// # Errors
///
/// Describes the first row that differs in order, arity, fields, checked
/// or shared count.
pub fn reports_match(reference: &LatticeReport, dag: &LatticeReport) -> Result<(), String> {
    if reference.rows.len() != dag.rows.len() {
        return Err(format!(
            "row count differs: reference {} vs dag {}",
            reference.rows.len(),
            dag.rows.len()
        ));
    }
    for (r, d) in reference.rows.iter().zip(&dag.rows) {
        if r.name != d.name {
            return Err(format!("variant order differs: {} vs {}", r.name, d.name));
        }
        if (r.arity, r.fields, r.checked, r.shared) != (d.arity, d.fields, d.checked, d.shared) {
            return Err(format!(
                "{}: (arity, fields, checked, shared) = ({}, {}, {}, {}) reference vs ({}, {}, {}, {}) dag",
                r.name, r.arity, r.fields, r.checked, r.shared, d.arity, d.fields, d.checked,
                d.shared
            ));
        }
    }
    Ok(())
}

/// The session's exported entries as comparable bytes. `export()` orders
/// entries content-deterministically, and every `Debug` rendering in the
/// payload is structural (names, never interner ids), so equal bytes ⇔
/// equal session contents.
#[must_use]
pub fn export_bytes(u: &FamilyUniverse) -> Vec<u8> {
    format!("{:?}", u.session().export()).into_bytes()
}

/// Oracle #2: builds the sub-lattice of `features` with
/// [`build_reference`] and with [`build_lattice`] at every count in
/// [`WORKERS`], each in a fresh universe, and checks every DAG build
/// against the reference: row-identical reports, `same_counts` ledgers
/// with the same variants timed, byte-identical [`export_bytes`] and
/// equal session cache-hit counts. Returns the last DAG build.
///
/// # Errors
///
/// Describes the first build that fails or differs from the reference.
pub fn dag_matches_reference(
    features: &[Feature],
) -> Result<(FamilyUniverse, LatticeReport), String> {
    let mut ref_u = FamilyUniverse::new();
    let reference = build_reference(&mut ref_u, features, subset_defs(features))
        .map_err(|e| format!("reference build failed: {e:?}"))?;
    let ref_ledger = &ref_u.modenv.ledger;
    let ref_bytes = export_bytes(&ref_u);
    let ref_hits = ref_u.session().stats().cache_hits;
    let mut last = None;
    for workers in WORKERS {
        let mut u = FamilyUniverse::new();
        let report = build_lattice(&mut u, features, workers)
            .map_err(|e| format!("{workers}-worker DAG build failed: {e:?}"))?;
        reports_match(&reference, &report).map_err(|e| format!("{workers} workers: {e}"))?;
        let ledger = &u.modenv.ledger;
        if !ref_ledger.same_counts(ledger) {
            return Err(format!(
                "{workers} workers: aggregate ledgers diverge: reference checked={} shared={} vs dag checked={} shared={}",
                ref_ledger.checked_count(),
                ref_ledger.shared_count(),
                ledger.checked_count(),
                ledger.shared_count(),
            ));
        }
        for row in &reference.rows {
            if ref_ledger.unit_time(&row.name).is_some() != ledger.unit_time(&row.name).is_some() {
                return Err(format!("{workers} workers: {} timed differently", row.name));
            }
        }
        if export_bytes(&u) != ref_bytes {
            return Err(format!(
                "{workers} workers: exported session entries differ byte-for-byte"
            ));
        }
        let hits = u.session().stats().cache_hits;
        if hits != ref_hits {
            return Err(format!(
                "{workers} workers: {hits} cache hits vs {ref_hits} in the reference"
            ));
        }
        last = Some((u, report));
    }
    Ok(last.expect("WORKERS is non-empty"))
}

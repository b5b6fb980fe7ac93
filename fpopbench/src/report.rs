//! What one run reports: end-to-end metrics (named as in the benchmark's
//! issue table), per-layer metrics of the traced run, the operation
//! tally, and every wrong verdict.

use std::collections::BTreeMap;

/// Every per-layer metric, with its unit. A traced run of any workload
/// prints all of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // engine::fpopb, engine::conn / poll
    ("fpopb.codec_ns_per_frame", "ns"),
    ("fpopb.bytes_per_req", "B"),
    ("conn.flushes_per_frame", "ratio"),
    ("conn.template_fast_hit_frac", "frac"),
    ("conn.decode_errors", "count"),
    ("wire.rtt_minus_service_us_p50", "us"),
    // engine::engine, engine::queue
    ("engine.queue_wait_us_p50", "us"),
    ("engine.queue_wait_us_p99", "us"),
    ("engine.service_us_p50", "us"),
    ("engine.service_us_p99", "us"),
    ("engine.busy_frac", "frac"),
    ("engine.dedup_hits", "count"),
    ("engine.rejected", "count"),
    ("engine.expired", "count"),
    ("engine.failed", "count"),
    // engine::fleet
    ("fleet.hop_us_p50", "us"),
    ("fleet.shard_imbalance", "ratio"),
    ("fleet.unavailable", "count"),
    // engine::snapshot, engine::store, engine::diff
    ("snapshot.load_ms", "ms"),
    ("snapshot.entries", "count"),
    ("snapshot.bytes", "B"),
    ("store.catchup_ms", "ms"),
    ("store.entries", "count"),
    // fpop::parse
    ("parse.us_per_kib", "us/KiB"),
    // fpop::merge, fpop::universe
    ("merge.plan_ms", "ms"),
    ("incr.replan_ms", "ms"),
    // fpop::incr
    ("incr.dirty", "count"),
    ("incr.cutoff", "count"),
    ("incr.replay", "count"),
    ("incr.memo_entries", "count"),
    ("incr.recheck_ms_p50", "ms"),
    ("incr.noop_ms", "ms"),
    // fpop::elab, families_stlc::lattice
    ("elab.variant_ms_p50", "ms"),
    ("elab.fields", "count"),
    ("ledger.checked", "count"),
    ("ledger.shared", "count"),
    ("elab.self_ms", "ms"),
    // fpop::sched
    ("sched.nodes", "count"),
    ("sched.critical_path", "count"),
    ("sched.steals", "count"),
    ("sched.executed_per_worker", "count"),
    ("sched.parallel_eff", "frac"),
    // fpop::session
    ("session.hits", "count"),
    ("session.misses", "count"),
    ("session.inserts", "count"),
    ("session.hit_ratio", "frac"),
    ("session.cached_proofs", "count"),
    // objlang::proof, objlang::tactic
    ("kernel.prove_self_ms", "ms"),
    ("kernel.checks", "count"),
    // objlang::eval, objlang::vm
    ("vm.exec", "count"),
    ("vm.deopt", "count"),
    ("vm.compiled", "count"),
    ("code_cache.hit_ratio", "frac"),
    // load generator
    ("gen.late_ms_p99", "ms"),
    ("gen.backlog_max", "count"),
    // trace
    ("trace.overhead_frac", "frac"),
    ("trace.spans_dropped", "count"),
    // attribution gaps
    ("gap.serving_tax_ms", "ms"),
    ("gap.noop_per_variant_ms", "ms"),
    ("gap.router_hop_us", "us"),
    ("gap.cold_unattributed_ms", "ms"),
    ("gap.cold_unattributed_frac", "frac"),
    ("error_frac", "frac"),
];

#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for counts and single timings).
    pub samples: usize,
}

#[derive(Clone, Debug, Default)]
pub struct Report {
    /// End-to-end metrics under their issue-table names.
    pub e2e: BTreeMap<String, Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<String, Metric>,
    /// Host, settings and derivation notes.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong verdicts (a wrong verdict also counts as failed).
    pub wrong: u64,
    /// The first few problems, for the log.
    pub problems: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.e2e.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    pub fn layer(&mut self, name: &str, value: f64, samples: usize) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not in the catalog"));
        let value = if value.is_finite() { value } else { 0.0 };
        self.layers.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// An operation that was refused, timed out or errored unexpectedly.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.problem(why.into());
    }

    /// An operation whose answer disagrees with the known answer.
    pub fn wrong(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.wrong += 1;
        self.problem(format!("WRONG: {}", why.into()));
    }

    fn problem(&mut self, s: String) {
        if self.problems.len() < 8 {
            self.problems.push(s);
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

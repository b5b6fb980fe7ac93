//! In-repo measurement loop: calibration, batched sampling, median
//! extraction, and machine-readable JSON emission.
//!
//! No external dependencies — the repository builds fully offline, so the
//! harness reimplements the small slice of a bench framework the
//! experiments actually need: per-sample batching for sub-microsecond
//! operations, a median over enough samples to be robust against
//! scheduling noise, and a `--quick` mode that runs every workload exactly
//! once so CI can prove the bench crate still compiles and runs without
//! paying for a calibrated series.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured workload: its median per-iteration wall time and derived
/// throughput.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Stable bench name (`group/case`).
    pub name: String,
    /// Iterations folded into each timed sample (batch size).
    pub batch: u64,
    /// Number of timed samples the median is taken over.
    pub samples: u64,
    /// Median wall time of one iteration, in nanoseconds.
    pub median_ns: f64,
    /// Work items completed per iteration (1 unless the workload is a
    /// batch, e.g. engine requests); used for the throughput column.
    pub items_per_iter: f64,
    /// For parallel workloads: median time of the sequential baseline
    /// divided by this result's median (>1 ⇒ faster than sequential).
    /// `None` for workloads without a sequential counterpart.
    pub speedup_vs_seq: Option<f64>,
    /// For VM-served evaluation workloads: median time of the
    /// tree-walking interpreter baseline divided by this result's median
    /// (>1 ⇒ the bytecode path is faster). `None` for workloads without
    /// an interpreter counterpart.
    pub speedup_vs_interp: Option<f64>,
    /// For incremental-recheck workloads: median time of the warm
    /// full-rebuild baseline divided by this result's median (>1 ⇒ the
    /// fingerprint memo beats re-elaborating the whole lattice). `None`
    /// for workloads without a full-rebuild counterpart.
    pub speedup_vs_full_rebuild: Option<f64>,
}

impl BenchResult {
    /// Items per second at the median iteration time.
    pub fn throughput_per_s(&self) -> f64 {
        if self.median_ns <= 0.0 {
            0.0
        } else {
            self.items_per_iter / (self.median_ns * 1e-9)
        }
    }
}

/// Collects [`BenchResult`]s for one JSON artifact.
pub struct Bencher {
    /// `--quick`: run each workload exactly once (CI smoke mode).
    pub quick: bool,
    /// Accumulated results in registration order.
    pub results: Vec<BenchResult>,
}

/// Target wall time for one timed sample during calibration.
const SAMPLE_TARGET: Duration = Duration::from_millis(10);
/// Target wall time for a whole calibrated series.
const SERIES_TARGET: Duration = Duration::from_secs(2);
const MIN_SAMPLES: u64 = 7;
const MAX_SAMPLES: u64 = 31;

impl Bencher {
    /// New collector. `quick` selects the one-iteration smoke mode.
    pub fn new(quick: bool) -> Bencher {
        Bencher {
            quick,
            results: Vec::new(),
        }
    }

    /// Times `f` (whole closure = one iteration). `items` is the number of
    /// work items one call completes, for the throughput column.
    pub fn bench<T>(&mut self, name: &str, items: f64, mut f: impl FnMut() -> T) {
        self.bench_time(name, items, move || {
            let t = Instant::now();
            black_box(f());
            t.elapsed()
        });
    }

    /// Times a workload that excludes its own setup: `f` returns the
    /// duration of the measured region only.
    pub fn bench_time(&mut self, name: &str, items: f64, mut f: impl FnMut() -> Duration) {
        // Calibration / smoke iteration.
        let first = f();
        if self.quick {
            self.push(name, 1, 1, first.as_nanos() as f64, items);
            return;
        }
        // Batch enough iterations that one sample is ≳ SAMPLE_TARGET.
        let per_iter = first.max(Duration::from_nanos(1));
        let batch = (SAMPLE_TARGET.as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;
        let sample_cost = per_iter * batch as u32;
        let samples = (SERIES_TARGET.as_nanos() / sample_cost.as_nanos().max(1))
            .clamp(MIN_SAMPLES as u128, MAX_SAMPLES as u128) as u64;
        let mut medians: Vec<f64> = Vec::with_capacity(samples as usize);
        for _ in 0..samples {
            let mut total = Duration::ZERO;
            for _ in 0..batch {
                total += f();
            }
            medians.push(total.as_nanos() as f64 / batch as f64);
        }
        medians.sort_by(|a, b| a.total_cmp(b));
        let median = medians[medians.len() / 2];
        self.push(name, batch, samples, median, items);
    }

    /// Stamps `name`'s `speedup_vs_seq` as `baseline`'s median over its
    /// own. Both workloads must already have run; bench-smoke CI reads
    /// the resulting JSON field to catch parallel-path regressions.
    pub fn mark_speedup(&mut self, name: &str, baseline: &str) {
        let base_ns = self
            .results
            .iter()
            .find(|r| r.name == baseline)
            .unwrap_or_else(|| panic!("speedup baseline {baseline:?} has not run"))
            .median_ns;
        let r = self
            .results
            .iter_mut()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("speedup target {name:?} has not run"));
        if r.median_ns > 0.0 {
            r.speedup_vs_seq = Some(base_ns / r.median_ns);
        }
    }

    /// Stamps `name`'s `speedup_vs_interp` as `baseline`'s median over
    /// its own (the VM-vs-interpreter analogue of [`Self::mark_speedup`];
    /// bench-smoke CI reads the field to catch VM-path regressions).
    pub fn mark_speedup_vs_interp(&mut self, name: &str, baseline: &str) {
        let base_ns = self
            .results
            .iter()
            .find(|r| r.name == baseline)
            .unwrap_or_else(|| panic!("interp baseline {baseline:?} has not run"))
            .median_ns;
        let r = self
            .results
            .iter_mut()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("speedup target {name:?} has not run"));
        if r.median_ns > 0.0 {
            r.speedup_vs_interp = Some(base_ns / r.median_ns);
        }
    }

    /// Stamps `name`'s `speedup_vs_full_rebuild` as `baseline`'s median
    /// over its own (the incremental-recheck analogue of
    /// [`Self::mark_speedup`]; the baseline is the warm full rebuild, so
    /// the ratio isolates what the fingerprint memo saves on an edit).
    pub fn mark_speedup_vs_full_rebuild(&mut self, name: &str, baseline: &str) {
        let base_ns = self
            .results
            .iter()
            .find(|r| r.name == baseline)
            .unwrap_or_else(|| panic!("full-rebuild baseline {baseline:?} has not run"))
            .median_ns;
        let r = self
            .results
            .iter_mut()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("speedup target {name:?} has not run"));
        if r.median_ns > 0.0 {
            r.speedup_vs_full_rebuild = Some(base_ns / r.median_ns);
        }
    }

    fn push(&mut self, name: &str, batch: u64, samples: u64, median_ns: f64, items: f64) {
        let r = BenchResult {
            name: name.to_string(),
            batch,
            samples,
            median_ns,
            items_per_iter: items,
            speedup_vs_seq: None,
            speedup_vs_interp: None,
            speedup_vs_full_rebuild: None,
        };
        eprintln!(
            "{:<44} {:>14.0} ns/iter {:>14.1} items/s  ({} x {})",
            r.name,
            r.median_ns,
            r.throughput_per_s(),
            r.samples,
            r.batch
        );
        self.results.push(r);
    }

    /// Renders the collected results as the `fpop-bench-v1` JSON artifact.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"fpop-bench-v1\",\n");
        s.push_str(&format!(
            "  \"mode\": \"{}\",\n",
            if self.quick { "quick" } else { "full" }
        ));
        s.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let mut speedup = match r.speedup_vs_seq {
                Some(x) => format!(", \"speedup_vs_seq\": {x:.3}"),
                None => String::new(),
            };
            if let Some(x) = r.speedup_vs_interp {
                speedup.push_str(&format!(", \"speedup_vs_interp\": {x:.3}"));
            }
            if let Some(x) = r.speedup_vs_full_rebuild {
                speedup.push_str(&format!(", \"speedup_vs_full_rebuild\": {x:.3}"));
            }
            s.push_str(&format!(
                "    {{\"name\": {}, \"median_ns\": {:.1}, \"throughput_per_s\": {:.3}, \
                 \"samples\": {}, \"batch\": {}, \"items_per_iter\": {}{}}}{}\n",
                json_str(&r.name),
                r.median_ns,
                r.throughput_per_s(),
                r.samples,
                r.batch,
                r.items_per_iter,
                speedup,
                if i + 1 == self.results.len() { "" } else { "," }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Writes the JSON artifact to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())?;
        eprintln!("wrote {}", path.display());
        Ok(())
    }
}

/// Minimal JSON string escaping (bench names are ASCII identifiers, but
/// stay total anyway).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

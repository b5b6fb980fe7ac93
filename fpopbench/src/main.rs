//! `fpopbench` — the seeded end-to-end benchmark of the fpopd stack.
//!
//! ```text
//! cargo run --release --manifest-path fpopbench/Cargo.toml -- \
//!     --workload <cold_lattice|edit_loop|serve_direct|serve_fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints the host and settings stamp and
//! every metric by name, unit and sample count, then, as the last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Every operation is checked against a known answer (see
//! `expected/`); a wrong verdict fails the run (exit code 1).

mod expect;
mod lattice;
mod mix;
mod report;
#[cfg(test)]
mod selftest;
mod serve;
mod spans;
mod util;

use std::path::PathBuf;
use std::time::Instant;

use report::{Report, PER_LAYER};

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 4] = ["cold_lattice", "edit_loop", "serve_direct", "serve_fleet"];

/// End-to-end metrics as the JSON result names them (the same set for
/// every workload), with units.
const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
];

/// Which issue-table metric each generic JSON name carries, per workload.
fn aliases(workload: &str) -> [(&'static str, &'static str); 3] {
    match workload {
        "cold_lattice" => [
            ("op_ms_p50", "lattice_cold_ms_p50"),
            ("op_ms_p90", "lattice_cold_ms_p90"),
            ("ops_per_s", "lattice_builds_per_s"),
        ],
        "edit_loop" => [
            ("op_ms_p50", "edit_ms_p50"),
            ("op_ms_p90", "edit_ms_p90"),
            ("ops_per_s", "edits_per_s"),
        ],
        // The open-loop `serve_ms_p50`/`serve_ms_p99` are printed but not
        // carried: on a shared 2-core host their run-to-run spread
        // (scheduling delays of the sleeping generator) exceeds any usable
        // bound.
        _ => [
            ("op_ms_p50", "serve_closed_ms_p50"),
            ("op_ms_p90", "serve_closed_ms_p90"),
            ("ops_per_s", "serve_sat_rps"),
        ],
    }
}

/// Run options shared by every workload.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for snapshots and stores (removed at exit).
    pub work: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: fpopbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Opts) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = val.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = val == "1",
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    if !WORKLOADS.contains(&workload.as_str()) || seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    (
        workload,
        Opts {
            seed,
            seconds,
            trace,
            work,
        },
    )
}

/// Runs one workload to its report.
pub fn run(workload: &str, o: &Opts, exp: &expect::Expected) -> std::io::Result<Report> {
    std::fs::create_dir_all(&o.work)?;
    let rep = match workload {
        "cold_lattice" => Ok(lattice::cold_lattice(o, exp)),
        "edit_loop" => Ok(lattice::edit_loop(o, exp)),
        "serve_direct" => serve::serve(o, exp, false),
        "serve_fleet" => serve::serve(o, exp, true),
        other => Err(std::io::Error::other(format!("unknown workload {other}"))),
    };
    std::fs::remove_dir_all(&o.work).ok();
    if let Some(parent) = o.work.parent() {
        // Only succeeds once no other run is using the directory.
        std::fs::remove_dir(parent).ok();
    }
    rep
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let (workload, o) = parse_args();
    let exp = match expect::Expected::load() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("fpopbench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let jiffies0 = util::cpu_jiffies();
    let mut rep = match run(&workload, &o, &exp) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fpopbench: {workload}: {e}");
            std::process::exit(2);
        }
    };
    if !rep.e2e.contains_key("peak_rss_mib") {
        rep.e2e("peak_rss_mib", util::peak_rss_mib(), "MiB", 1);
    }
    let attempted = rep.attempted as usize;
    rep.e2e("error_frac", rep.error_frac(), "frac", attempted);
    rep.layer("error_frac", rep.error_frac(), attempted);

    println!(
        "# fpopbench workload={workload} seed={} seconds={} trace={} wall={:.1}s",
        o.seed,
        o.seconds,
        u8::from(o.trace),
        started.elapsed().as_secs_f64()
    );
    let jiffies1 = util::cpu_jiffies();
    let steal = (jiffies1.0 - jiffies0.0) as f64 / (jiffies1.1 - jiffies0.1).max(1) as f64;
    println!(
        "# host: nproc={} cpu=\"{}\" commit={} steal={:.1}% of host CPU time during the run",
        util::nproc(),
        util::cpu_model(),
        util::commit_stamp(std::path::Path::new(".")),
        100.0 * steal
    );
    for n in &rep.notes {
        println!("# {n}");
    }
    let names = aliases(&workload);
    for (name, m) in &rep.e2e {
        let json = names
            .iter()
            .find(|(_, issue)| issue == name)
            .map(|(j, _)| format!("  [json {j}]"))
            .unwrap_or_default();
        println!(
            "metric {name} = {} {} (n={}){json}",
            json_number(m.value),
            m.unit,
            m.samples
        );
    }
    if o.trace {
        for (name, unit) in PER_LAYER {
            match rep.layers.get(*name) {
                Some(m) => println!(
                    "layer {name} = {} {unit} (n={})",
                    json_number(m.value),
                    m.samples
                ),
                None => println!("layer {name} = 0 {unit} (not exercised by {workload})"),
            }
        }
    }
    for p in &rep.problems {
        println!("# problem: {p}");
    }

    let metrics: Vec<String> = if o.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = rep.layers.get(*name).map(|m| m.value).unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect()
    } else {
        E2E.iter()
            .map(|(json, unit)| {
                let issue = names
                    .iter()
                    .find(|(j, _)| j == json)
                    .map(|(_, i)| *i)
                    .unwrap_or(json);
                let v = rep.e2e.get(issue).map(|m| m.value).unwrap_or(0.0);
                format!(
                    "\"{json}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.correct(),
        rep.attempted.max(1),
        rep.failed,
        metrics.join(", ")
    );
    if !rep.correct() {
        std::process::exit(1);
    }
}

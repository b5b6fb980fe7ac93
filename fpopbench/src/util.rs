//! Small std-only helpers: a seeded PRNG, exact-sample statistics, a
//! Prometheus text reader, and host/process facts for the result stamp.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// SplitMix64: tiny, seedable, and identical on every platform, so a seed
/// names one operation sequence for good.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_f00d_cafe_beef)
    }

    /// An independent stream for one purpose (`tag`) of the same seed.
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean (open-loop inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Exact per-operation samples (no bucketing).
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Linear-interpolated quantile, `q` in `[0, 1]`; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Parsed Prometheus text exposition: `name{labels}` → value. Later
/// duplicates (the global registry rendered twice) overwrite earlier ones.
#[derive(Clone, Debug, Default)]
pub struct Prom(BTreeMap<String, f64>);

impl Prom {
    pub fn parse(text: &str) -> Prom {
        let mut m = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            if let Some((key, val)) = line.rsplit_once(' ') {
                if let Ok(v) = val.trim().parse::<f64>() {
                    m.insert(key.trim().to_string(), v);
                }
            }
        }
        Prom(m)
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `self - before` for one key (counters).
    pub fn delta(&self, before: &Prom, key: &str) -> f64 {
        self.get(key) - before.get(key)
    }

    /// Sum of deltas over every key starting with `prefix` and ending
    /// with `suffix` (per-worker counter families).
    pub fn delta_family(&self, before: &Prom, prefix: &str, suffix: &str) -> Vec<f64> {
        self.0
            .keys()
            .filter(|k| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|k| self.delta(before, k))
            .collect()
    }
}

/// Accumulated deltas of a log2 histogram over several windows/engines.
#[derive(Clone, Debug, Default)]
pub struct HistAcc(BTreeMap<u64, f64>);

impl HistAcc {
    /// Adds `after - before` of histogram `name`, bucket by bucket
    /// (cumulative `le` counts; `+Inf` is kept as `u64::MAX`).
    pub fn add(&mut self, before: &Prom, after: &Prom, name: &str) {
        let prefix = format!("{name}_bucket{{le=\"");
        for k in after.0.keys() {
            let Some(le) = k.strip_prefix(&prefix).and_then(|r| r.strip_suffix("\"}")) else {
                continue;
            };
            let bound = if le == "+Inf" {
                u64::MAX
            } else {
                match le.parse() {
                    Ok(b) => b,
                    Err(_) => continue,
                }
            };
            *self.0.entry(bound).or_default() += after.delta(before, k);
        }
    }

    pub fn count(&self) -> usize {
        self.0.values().copied().fold(0.0, f64::max) as usize
    }

    /// Bucket upper bound holding quantile `q` (log2 resolution).
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.0.values().copied().fold(0.0, f64::max);
        if total <= 0.0 {
            return 0.0;
        }
        let want = (q * total).ceil().max(1.0);
        self.0
            .iter()
            .find(|(_, &cum)| cum >= want)
            .map(|(&le, _)| {
                if le == u64::MAX {
                    f64::INFINITY
                } else {
                    le as f64
                }
            })
            .unwrap_or(0.0)
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set of this process (`VmRSS`), MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Restarts `VmHWM` from the current resident set (Linux `clear_refs`
/// mode 5), so [`peak_rss_mib`] covers only what runs afterwards. False
/// when the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Cumulative (steal, total) CPU jiffies of the host, from `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit under test, read from `.git/HEAD`; "unknown" outside a
/// git work tree.
pub fn commit_stamp(root: &Path) -> String {
    git_head(root).unwrap_or_else(|| "unknown".to_string())
}

fn git_head(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string()),
    }
}

/// Copies the files of the flat directory `from` into `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for ent in std::fs::read_dir(from)? {
        let ent = ent?;
        std::fs::copy(ent.path(), to.join(ent.file_name()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn rng_is_deterministic_per_seed_and_tag() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7).fork(1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7).fork(1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7).fork(2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn histogram_deltas_accumulate_and_read_bucket_bounds() {
        let before =
            Prom::parse("h_bucket{le=\"1\"} 1\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 1\n");
        let after =
            Prom::parse("h_bucket{le=\"1\"} 6\nh_bucket{le=\"2\"} 10\nh_bucket{le=\"+Inf\"} 11\n");
        let mut acc = HistAcc::default();
        acc.add(&before, &after, "h");
        assert_eq!(acc.count(), 10);
        assert_eq!(acc.quantile(0.5), 1.0);
        assert_eq!(acc.quantile(0.9), 2.0);
        assert_eq!(acc.quantile(1.0), f64::INFINITY);
    }
}

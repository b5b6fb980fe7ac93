//! Per-layer self time from the program's existing spans, drained from
//! the `trace` ring. A span's self time is its duration minus the part
//! its direct children (same thread, one level deeper, nested inside it)
//! cover.

use std::collections::{BTreeMap, HashMap};

use trace::SpanRecord;

/// Span names the program emits today, one per measured layer.
pub const ENGINE_EXECUTE: &str = "engine.execute";
pub const ELAB: [&str; 2] = ["fpop.elaborate", "fpop.field"];
pub const KERNEL: [&str; 2] = ["objlang.prove", "objlang.prove_sequent"];

/// Ring slots installed for a traced run; a drain returning this many
/// records may have lost some to wrap-around.
pub const RING_CAPACITY: usize = 1 << 18;

/// Aggregates of one batch of spans.
#[derive(Clone, Debug, Default)]
pub struct SpanStats {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub count: BTreeMap<&'static str, u64>,
    /// Durations of every `engine.execute` span (service times), ns.
    pub execute_ns: Vec<u64>,
    /// Wall time covered by at least one span other than
    /// `engine.execute` on any thread (union of intervals), ns.
    pub layer_covered_ns: u64,
}

impl SpanStats {
    pub fn self_ms(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|n| self.self_ns.get(n).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / 1e6
    }

    pub fn count_of(&self, names: &[&str]) -> u64 {
        names
            .iter()
            .map(|n| self.count.get(n).copied().unwrap_or(0))
            .sum()
    }
}

pub fn analyze(spans: &[SpanRecord]) -> SpanStats {
    let mut st = SpanStats::default();
    let mut by_thread: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        by_thread.entry(s.thread).or_default().push(s);
        *st.count.entry(s.name).or_default() += 1;
        if s.name == ENGINE_EXECUTE {
            st.execute_ns.push(s.dur_ns);
        }
    }
    for recs in by_thread.values_mut() {
        // Parents open before (or with) their children; on a tie the
        // shallower span is the parent.
        recs.sort_by_key(|s| (s.start_ns, s.depth));
        let mut child_ns = vec![0u64; recs.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, s) in recs.iter().enumerate() {
            while let Some(&top) = stack.last() {
                let t = recs[top];
                let inside = s.start_ns >= t.start_ns
                    && s.start_ns + s.dur_ns <= t.start_ns + t.dur_ns
                    && s.depth > t.depth;
                if inside {
                    break;
                }
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                if recs[top].depth + 1 == s.depth {
                    child_ns[top] += s.dur_ns;
                }
            }
            stack.push(i);
        }
        for (i, s) in recs.iter().enumerate() {
            *st.self_ns.entry(s.name).or_default() += s.dur_ns.saturating_sub(child_ns[i]);
        }
    }
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name != ENGINE_EXECUTE)
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect();
    iv.sort_unstable();
    let (mut cur_s, mut cur_e) = (0u64, 0u64);
    for (s, e) in iv {
        if s > cur_e {
            st.layer_covered_ns += cur_e - cur_s;
            cur_s = s;
            cur_e = e;
        } else {
            cur_e = cur_e.max(e);
        }
    }
    st.layer_covered_ns += cur_e - cur_s;
    st
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, thread: u64, depth: u32, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            name,
            detail: String::new(),
            start_ns: start,
            dur_ns: dur,
            thread,
            depth,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            rec("engine.execute", 0, 0, 0, 100),
            rec("fpop.elaborate", 0, 1, 10, 60),
            rec("objlang.prove", 0, 2, 20, 30),
            rec("objlang.prove", 1, 0, 5, 40),
        ];
        let st = analyze(&spans);
        assert_eq!(st.self_ns["engine.execute"], 40);
        assert_eq!(st.self_ns["fpop.elaborate"], 30);
        assert_eq!(st.self_ns["objlang.prove"], 70);
        // Layers other than engine.execute cover [5, 70).
        assert_eq!(st.layer_covered_ns, 65);
        assert_eq!(st.execute_ns, vec![100]);
    }
}

//! Sample summaries, span self times and process memory.

use hpf_obs::{Body, TraceEvent};
use std::collections::BTreeMap;

/// Median of the samples (0 when there are none).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Smallest sample (0 when there are none).
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`; `None` with ten samples or fewer.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= 10 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let k = n - 11;
    Some((100.0 * (k + 1) as f64 / n as f64, s[k]))
}

/// Per span name, the summed (self, total) time in seconds of every span
/// in a well-nested event stream. A span's self time is its duration
/// minus the time its direct children cover.
pub fn span_times(events: &[TraceEvent]) -> BTreeMap<String, (f64, f64)> {
    let mut open: Vec<(&str, u64, u64)> = Vec::new();
    let mut out: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for e in events {
        match &e.body {
            Body::Begin { name } => open.push((name, e.t_us, 0)),
            Body::End { .. } => {
                let Some((name, start, children)) = open.pop() else {
                    continue;
                };
                let total = e.t_us.saturating_sub(start);
                let slot = out.entry(name.to_string()).or_default();
                slot.0 += total.saturating_sub(children) as f64 / 1e6;
                slot.1 += total as f64 / 1e6;
                if let Some(parent) = open.last_mut() {
                    parent.2 += total;
                }
            }
            _ => {}
        }
    }
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

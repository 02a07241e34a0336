//! What one workload run hands back to `run.py`: operation counts,
//! every metric with the samples it summarizes, the per-layer span
//! table of a traced run, and the output digests it checked.

use crate::spans::Layer;
use sp_serve::Json;
use std::collections::BTreeMap;

/// One reported metric. `value` is what the run claims; `samples` are
/// the repeated measurements it summarizes (one pass, set-up, window or
/// request each), so the reader can see the spread inside a run.
pub struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

/// The result of one workload run.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (grid points or requests).
    pub attempted: u64,
    /// Operations that failed or whose output differed from the reference.
    pub failed: u64,
    /// One line per failure, printed for the reader.
    pub failures: Vec<String>,
    metrics: Vec<Metric>,
    /// Output digests checked by this run, by surface name.
    pub digests: BTreeMap<String, u64>,
    /// Extra facts about the run (sample counts beyond a percentile,
    /// offered rate, grid sizes).
    pub notes: Vec<(String, f64)>,
    /// Per-layer span totals of a traced run.
    pub layers: BTreeMap<&'static str, Layer>,
}

impl Report {
    /// Record a metric whose value is the median of `samples`.
    pub fn median_of(&mut self, name: &str, unit: &'static str, samples: Vec<f64>) {
        let value = median(&samples);
        self.metric(name, unit, value, samples);
    }

    /// Record a metric with an explicit value.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: Vec<f64>) {
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Record a single-valued metric.
    pub fn single(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metric(name, unit, value, vec![value]);
    }

    /// Count one operation and whether its output was correct.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Record a note.
    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_string(), value));
    }

    /// Encode for `run.py` (one JSON line).
    pub fn to_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            metrics = metrics.push(
                &m.name,
                Json::obj()
                    .push("value", Json::num(m.value))
                    .push("unit", Json::str(m.unit))
                    .push(
                        "samples",
                        Json::Arr(m.samples.iter().map(|&s| Json::num(s)).collect()),
                    ),
            );
        }
        let mut layers = Json::obj();
        for (name, l) in &self.layers {
            layers = layers.push(
                name,
                Json::obj()
                    .push("count", Json::num(l.count as f64))
                    .push("total_ms", Json::num(l.total_ns as f64 / 1e6))
                    .push("self_ms", Json::num(l.self_ns as f64 / 1e6)),
            );
        }
        let mut digests = Json::obj();
        for (name, d) in &self.digests {
            digests = digests.push(name, Json::str(format!("{d:016x}")));
        }
        let mut notes = Json::obj();
        for (name, v) in &self.notes {
            notes = notes.push(name, Json::num(*v));
        }
        Json::obj()
            .push("workload", Json::str(workload))
            .push("seed", Json::num(seed as f64))
            .push("trace", Json::Bool(trace))
            .push("attempted", Json::num(self.attempted as f64))
            .push("failed", Json::num(self.failed as f64))
            .push(
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| Json::str(f.as_str()))
                        .collect(),
                ),
            )
            .push("metrics", metrics)
            .push("layers", layers)
            .push("digests", digests)
            .push("notes", notes)
            .encode()
    }
}

/// Linear-interpolated quantile of `samples` (`q` in `[0, 1]`); 0 when
/// empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's clock id for the CPU time of the calling process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time of this process (all threads), in seconds,
/// with nanosecond resolution.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and the clock id is one the kernel defines; the function
    // writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0u64);
        }
        assert!(cpu_seconds() > 0.0);
    }
}

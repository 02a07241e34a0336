//! Prometheus text exposition (format version 0.0.4) for the daemon's
//! counters, the request-latency histogram, and the aggregate prefetch
//! event totals — plus the `sp_loadgen_*` families `spt loadgen
//! --prom` writes, rendered here so one name lint covers both bodies.
//!
//! Everything rendered here reads the **same** atomics the JSON `stats`
//! reply reads, and the histogram series are derived from the same
//! [`LogLinearHist::nonzero_buckets`] table `latency_us` renders from —
//! there is no second bucket-bound list to drift out of sync. Latency
//! is exposed in integer microseconds (`_us` metric names) rather than
//! float seconds so the body stays byte-deterministic for a given
//! counter state. Only occupied buckets emit `le` series (the
//! log-linear table has thousands of slots); the `+Inf` bucket always
//! appears, so `histogram_quantile` stays well-formed at zero samples.

use crate::engine::LifecycleTotals;
use crate::metrics::{Metrics, StageTimes, KINDS};
use sp_cachesim::{PfClass, PollutionCase, Timeliness};
use sp_obs::LogLinearHist;
use std::fmt::Write;
use std::sync::atomic::Ordering;

/// The `git describe` of the tree this binary was built from (set by
/// the build script; `"unknown"` outside a git checkout).
pub const GIT_DESCRIBE: &str = env!("SP_GIT_DESCRIBE");

/// The crate version baked into `sp_build_info`.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// A point-in-time view of everything the exposition covers. The
/// gauge-ish fields (queue depth, cache occupancy, uptime) are sampled
/// by the caller so this module stays free of server plumbing.
pub struct PromSnapshot<'a> {
    /// Request counters and the latency histogram.
    pub metrics: &'a Metrics,
    /// Aggregate event totals from eventful runs.
    pub events: &'a LifecycleTotals,
    /// Aggregate epoch-telemetry totals from epoch-recorded runs.
    pub epochs: &'a LifecycleTotals,
    /// Daemon uptime, milliseconds.
    pub uptime_ms: u64,
    /// Result-cache entries currently held.
    pub cache_entries: usize,
    /// Result-cache capacity.
    pub cache_capacity: usize,
    /// Admission-queue depth right now.
    pub queue_depth: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Pool workers.
    pub workers: usize,
    /// Jobs the pool has completed.
    pub completed: u64,
    /// Per-stage wall-time histograms folded from sp-obs spans.
    pub stages: &'a StageTimes,
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    header(out, name, "counter", help);
    let _ = writeln!(out, "{name} {value}");
}

fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    header(out, name, "gauge", help);
    let _ = writeln!(out, "{name} {value}");
}

fn gauge_f64(out: &mut String, name: &str, help: &str, value: f64) {
    header(out, name, "gauge", help);
    let _ = writeln!(out, "{name} {value}");
}

/// One labelled counter family: `name{label="key"} value` per sample.
fn labelled(out: &mut String, name: &str, help: &str, label: &str, samples: &[(&str, u64)]) {
    header(out, name, "counter", help);
    for (key, value) in samples {
        let _ = writeln!(out, "{name}{{{label}=\"{key}\"}} {value}");
    }
}

/// The `sp_build_info` identity gauge: constant value 1, the useful
/// content in the `version`/`git` labels (the Prometheus `*_info`
/// convention).
fn build_info(out: &mut String) {
    header(
        out,
        "sp_build_info",
        "gauge",
        "Build identity; value is constant 1, see the version/git labels.",
    );
    let _ = writeln!(
        out,
        "sp_build_info{{version=\"{VERSION}\",git=\"{GIT_DESCRIBE}\"}} 1"
    );
}

/// Render a histogram in exposition format: cumulative `_bucket{le=..}`
/// series over the **occupied** buckets (bounds in microseconds, the
/// table's final slot and the always-present trailing series as
/// `+Inf`), then `_sum` and `_count`. The series are folded from the
/// same [`LogLinearHist::nonzero_buckets`] table the JSON surface
/// renders, so the two can't disagree on bounds or counts.
pub fn render_histogram(out: &mut String, name: &str, help: &str, h: &LogLinearHist) {
    header(out, name, "histogram", help);
    hist_series(out, name, "", h);
}

/// The `_bucket`/`_sum`/`_count` series for one histogram, with an
/// optional pre-rendered label (e.g. `stage="simulate",`) spliced
/// before `le`.
fn hist_series(out: &mut String, name: &str, label: &str, h: &LogLinearHist) {
    let mut cumulative = 0u64;
    for (bound, count) in h.nonzero_buckets() {
        if bound == u64::MAX {
            // The table's overflow slot; covered by the +Inf series.
            break;
        }
        cumulative += count;
        let _ = writeln!(out, "{name}_bucket{{{label}le=\"{bound}\"}} {cumulative}");
    }
    let total = h.count();
    let _ = writeln!(out, "{name}_bucket{{{label}le=\"+Inf\"}} {total}");
    if label.is_empty() {
        let _ = writeln!(out, "{name}_sum {}", h.sum());
        let _ = writeln!(out, "{name}_count {total}");
    } else {
        let lbl = label.trim_end_matches(',');
        let _ = writeln!(out, "{name}_sum{{{lbl}}} {}", h.sum());
        let _ = writeln!(out, "{name}_count{{{lbl}}} {total}");
    }
}

/// A microsecond quantity as a seconds string. `f64` `Display` prints
/// the shortest round-tripping form, so bucket bounds render as stable
/// literals (`100` → `0.0001`, `5_000_000` → `5`).
fn seconds(us: u64) -> String {
    format!("{}", us as f64 / 1e6)
}

/// Render the per-stage wall-time histograms as one family with a
/// `stage` label. Bounds are the shared log-linear bucket table
/// converted to seconds; all [`crate::metrics::STAGES`] series appear
/// even at zero counts (each at least `+Inf`/`_sum`/`_count`), so
/// dashboards see a stable label set.
pub fn render_stage_seconds(out: &mut String, name: &str, help: &str, stages: &StageTimes) {
    header(out, name, "histogram", help);
    for (stage, h) in stages.iter() {
        let mut cumulative = 0u64;
        for (bound, count) in h.nonzero_buckets() {
            if bound == u64::MAX {
                break;
            }
            cumulative += count;
            let _ = writeln!(
                out,
                "{name}_bucket{{stage=\"{stage}\",le=\"{}\"}} {cumulative}",
                seconds(bound)
            );
        }
        let total = h.count();
        let _ = writeln!(
            out,
            "{name}_bucket{{stage=\"{stage}\",le=\"+Inf\"}} {total}"
        );
        let _ = writeln!(out, "{name}_sum{{stage=\"{stage}\"}} {}", seconds(h.sum()));
        let _ = writeln!(out, "{name}_count{{stage=\"{stage}\"}} {total}");
    }
}

/// One `spt loadgen` run, as the Prometheus body `--prom FILE` writes.
/// Lives here (not in the CLI) so the exposition name lint below
/// covers the `sp_loadgen_*` families alongside the daemon's.
pub struct LoadgenSnapshot<'a> {
    /// `"open"` or `"closed"` — the arrival model used.
    pub mode: &'a str,
    /// Requests the schedule offered (sent or attempted).
    pub offered: u64,
    /// Successful replies.
    pub ok: u64,
    /// `busy` backpressure replies.
    pub busy: u64,
    /// Deadline-exceeded replies.
    pub timeouts: u64,
    /// Transport or protocol errors.
    pub errors: u64,
    /// Offered arrival rate, requests/second (0 in closed-loop mode).
    pub offered_rate: f64,
    /// Achieved completion rate, requests/second.
    pub achieved_rate: f64,
    /// Latency of **successful** replies only, microseconds.
    pub latency: &'a LogLinearHist,
}

/// Render the loadgen exposition body (`sp_loadgen_*` families plus
/// `sp_build_info`).
pub fn render_loadgen(snap: &LoadgenSnapshot) -> String {
    let mut out = String::new();
    build_info(&mut out);
    labelled(
        &mut out,
        "sp_loadgen_requests_total",
        "Loadgen requests by outcome.",
        "outcome",
        &[
            ("ok", snap.ok),
            ("busy", snap.busy),
            ("timeout", snap.timeouts),
            ("error", snap.errors),
        ],
    );
    counter(
        &mut out,
        "sp_loadgen_offered_total",
        "Requests the arrival schedule offered.",
        snap.offered,
    );
    gauge_f64(
        &mut out,
        "sp_loadgen_offered_rate",
        "Offered arrival rate, requests/second (0 in closed-loop mode).",
        snap.offered_rate,
    );
    gauge_f64(
        &mut out,
        "sp_loadgen_achieved_rate",
        "Achieved completion rate, requests/second.",
        snap.achieved_rate,
    );
    let mode_val = u64::from(snap.mode == "open");
    gauge(
        &mut out,
        "sp_loadgen_open_loop",
        "1 when the run used the open-loop arrival model, else 0.",
        mode_val,
    );
    render_histogram(
        &mut out,
        "sp_loadgen_latency_us",
        "Latency of successful replies, microseconds (open loop: from intended send time).",
        snap.latency,
    );
    out
}

/// Render the full daemon exposition body.
pub fn render(snap: &PromSnapshot) -> String {
    let m = snap.metrics;
    let mut out = String::new();

    build_info(&mut out);
    gauge(
        &mut out,
        "sp_uptime_ms",
        "Daemon uptime in milliseconds.",
        snap.uptime_ms,
    );
    counter(
        &mut out,
        "sp_requests_total",
        "Requests received, including malformed ones.",
        m.requests.load(Ordering::Relaxed),
    );
    let by_kind: Vec<(&str, u64)> = KINDS
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, m.by_kind[i].load(Ordering::Relaxed)))
        .collect();
    labelled(
        &mut out,
        "sp_requests_by_kind_total",
        "Requests by wire type.",
        "kind",
        &by_kind,
    );
    counter(
        &mut out,
        "sp_cache_hits_total",
        "Result-cache hits.",
        m.cache_hits.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "sp_cache_misses_total",
        "Result-cache misses (cacheable requests only).",
        m.cache_misses.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "sp_busy_rejections_total",
        "Requests shed with a busy reply.",
        m.busy_rejections.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "sp_timeouts_total",
        "Requests that hit their deadline.",
        m.timeouts.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "sp_errors_total",
        "Malformed or failed requests.",
        m.errors.load(Ordering::Relaxed),
    );
    gauge(
        &mut out,
        "sp_cache_entries",
        "Result-cache entries currently held.",
        snap.cache_entries as u64,
    );
    gauge(
        &mut out,
        "sp_cache_capacity",
        "Result-cache capacity.",
        snap.cache_capacity as u64,
    );
    gauge(
        &mut out,
        "sp_queue_depth",
        "Admission-queue depth.",
        snap.queue_depth as u64,
    );
    gauge(
        &mut out,
        "sp_queue_capacity",
        "Admission-queue capacity.",
        snap.queue_capacity as u64,
    );
    gauge(&mut out, "sp_workers", "Pool workers.", snap.workers as u64);
    counter(
        &mut out,
        "sp_jobs_completed_total",
        "Jobs the pool has completed.",
        snap.completed,
    );
    render_histogram(
        &mut out,
        "sp_request_latency_us",
        "End-to-end request latency, microseconds.",
        &m.latency,
    );
    render_stage_seconds(
        &mut out,
        "sp_stage_seconds",
        "Wall-clock time per pipeline stage, seconds (folded from runtime spans).",
        snap.stages,
    );

    // Aggregate prefetch-event totals. Zero until an eventful request
    // (`"events":true`) executes; cache hits do not re-record.
    render_lifecycle(&mut out, snap.events, false);
    // Aggregate epoch-telemetry totals. Zero until an epoch-recorded
    // request (`"epochs":true`) executes; those bypass the result
    // cache, so every one records. Naming follows the audit of the
    // families above: cumulative counts end `_total`, durations carry
    // an explicit unit suffix — see `names_follow_the_unit_conventions`.
    render_lifecycle(&mut out, snap.epochs, true);
    out
}

/// The lifecycle families of one [`LifecycleTotals`]: `sp_events_*`
/// (runs, the four per-class lifecycle stages, pollution by case,
/// timeliness) or, for the epoch totals, `sp_epoch_*` (runs, windows,
/// refs, pollution by case, timeliness). Label values and sample order
/// walk [`PfClass::ALL`], [`PollutionCase::ALL`] and [`Timeliness::ALL`].
fn render_lifecycle(out: &mut String, t: &LifecycleTotals, epoch: bool) {
    let (prefix, noun, scope) = if epoch {
        ("sp_epoch", "epoch", " in epoch-recorded runs")
    } else {
        ("sp_events", "event", "")
    };
    let l = t.lifecycle();
    counter(
        out,
        &format!("{prefix}_runs_total"),
        &format!("Simulation runs folded into the {noun} totals."),
        t.runs.load(Ordering::Relaxed),
    );
    if epoch {
        counter(
            out,
            "sp_epoch_windows_total",
            "Epoch windows recorded across those runs.",
            t.windows.load(Ordering::Relaxed),
        );
        counter(
            out,
            "sp_epoch_refs_total",
            "Main-thread references covered by recorded windows.",
            t.refs.load(Ordering::Relaxed),
        );
    } else {
        for (stage, help, counts) in [
            ("issued", "Prefetches issued", &l.issued),
            ("filled", "Prefetch L2 fills", &l.filled),
            (
                "first_use",
                "Prefetched blocks first used by the main thread",
                &l.first_uses,
            ),
            (
                "evicted_unused",
                "Prefetched blocks evicted before any use",
                &l.evicted_unused,
            ),
        ] {
            let samples: Vec<_> = PfClass::ALL
                .iter()
                .map(|c| (c.name(), counts[c.index()]))
                .collect();
            labelled(
                out,
                &format!("sp_events_prefetch_{stage}_total"),
                &format!("{help}, by class."),
                "class",
                &samples,
            );
        }
    }
    let by_case: Vec<_> = PollutionCase::ALL
        .iter()
        .map(|c| (c.name(), l.pollution[c.index()]))
        .collect();
    labelled(
        out,
        &format!("{prefix}_pollution_total"),
        &format!("Pollution evictions{scope}, by displacement case."),
        "case",
        &by_case,
    );
    let by_timeliness: Vec<_> = Timeliness::ALL
        .iter()
        .map(|t| (t.name(), l.timeliness[t.index()]))
        .collect();
    labelled(
        out,
        &format!("{prefix}_timeliness_total"),
        &format!("Prefetch first uses{scope}, by timeliness."),
        "timeliness",
        &by_timeliness,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Metrics, STAGES};

    #[derive(Default)]
    struct Totals {
        m: Metrics,
        ev: LifecycleTotals,
        ep: LifecycleTotals,
        stages: StageTimes,
    }

    fn snapshot(t: &Totals) -> PromSnapshot<'_> {
        PromSnapshot {
            metrics: &t.m,
            events: &t.ev,
            epochs: &t.ep,
            uptime_ms: 1234,
            cache_entries: 3,
            cache_capacity: 256,
            queue_depth: 1,
            queue_capacity: 64,
            workers: 4,
            completed: 9,
            stages: &t.stages,
        }
    }

    fn loadgen_totals() -> (LogLinearHist, u64) {
        let h = LogLinearHist::default();
        h.record(120);
        h.record(4_500);
        (h, 2)
    }

    #[test]
    fn exposition_is_well_formed_and_covers_every_family() {
        let t = Totals::default();
        t.m.count_request("sweep");
        t.m.count_request("metrics");
        t.m.latency.record(120);
        t.m.latency.record(9_999_999);
        t.stages.record_us("simulate", 120);
        let body = render(&snapshot(&t));
        // Every non-comment line is `name{labels} value` with a numeric
        // value; every sample is preceded by HELP/TYPE for its family.
        for line in body.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment {line:?}"
                );
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "non-numeric sample {line:?}");
        }
        for family in [
            "sp_build_info",
            "sp_uptime_ms",
            "sp_requests_total",
            "sp_requests_by_kind_total",
            "sp_cache_hits_total",
            "sp_request_latency_us",
            "sp_events_runs_total",
            "sp_events_prefetch_issued_total",
            "sp_events_pollution_total",
            "sp_events_timeliness_total",
            "sp_stage_seconds",
            "sp_epoch_runs_total",
            "sp_epoch_windows_total",
            "sp_epoch_refs_total",
            "sp_epoch_pollution_total",
            "sp_epoch_timeliness_total",
        ] {
            assert!(
                body.contains(&format!("# TYPE {family} ")),
                "missing family {family}"
            );
        }
        assert!(
            body.contains("sp_requests_by_kind_total{kind=\"metrics\"} 1"),
            "got {body}"
        );
        assert!(
            body.contains("sp_events_pollution_total{case=\"reuse\"} 0"),
            "got {body}"
        );
        assert!(
            body.contains("sp_epoch_timeliness_total{timeliness=\"late\"} 0"),
            "got {body}"
        );
        assert!(
            body.contains(&format!("sp_build_info{{version=\"{VERSION}\",git=")),
            "got {body}"
        );
    }

    /// The metric-name lint: every family follows the exposition's
    /// unit-suffix conventions. Cumulative counters end `_total`;
    /// histograms carry an explicit unit suffix (`_us` or `_seconds`);
    /// gauges are instantaneous quantities and may end in a unit
    /// (`_ms`) or a bare noun; and every name is `sp_`-prefixed
    /// lowercase. New families (the `sp_loadgen_*` set included) are
    /// checked automatically because the lint walks the rendered
    /// bodies' TYPE comments rather than a hand-kept list — both the
    /// daemon exposition and the loadgen `--prom` body pass through.
    #[test]
    fn names_follow_the_unit_conventions() {
        let t = Totals::default();
        t.m.count_request("sweep");
        let (lat, offered) = loadgen_totals();
        let lg = render_loadgen(&LoadgenSnapshot {
            mode: "open",
            offered,
            ok: 2,
            busy: 0,
            timeouts: 0,
            errors: 0,
            offered_rate: 100.0,
            achieved_rate: 99.5,
            latency: &lat,
        });
        let body = format!("{}{lg}", render(&snapshot(&t)));
        let mut families = 0;
        let mut loadgen_families = 0;
        for line in body.lines() {
            let Some(rest) = line.strip_prefix("# TYPE ") else {
                continue;
            };
            let (name, kind) = rest.split_once(' ').expect("TYPE has name and kind");
            families += 1;
            if name.starts_with("sp_loadgen_") {
                loadgen_families += 1;
            }
            assert!(
                name.starts_with("sp_")
                    && name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "family {name} must be sp_-prefixed lowercase"
            );
            match kind {
                "counter" => assert!(
                    name.ends_with("_total"),
                    "counter {name} must end in _total"
                ),
                "histogram" => assert!(
                    name.ends_with("_us") || name.ends_with("_seconds"),
                    "histogram {name} must carry a unit suffix (_us/_seconds)"
                ),
                "gauge" => assert!(
                    !name.ends_with("_total"),
                    "gauge {name} must not use the counter suffix"
                ),
                other => panic!("unexpected TYPE {other} for {name}"),
            }
        }
        assert!(families > 15, "lint saw only {families} families");
        assert!(
            loadgen_families >= 5,
            "lint saw only {loadgen_families} sp_loadgen_ families"
        );
    }

    #[test]
    fn histogram_series_are_cumulative_over_occupied_buckets() {
        let m = Metrics::default();
        m.latency.record(50);
        m.latency.record(120);
        m.latency.record(9_999_999);
        let mut out = String::new();
        render_histogram(&mut out, "h_us", "help.", &m.latency);
        // Occupied buckets only: 50 (linear, exact), 120's bucket, the
        // slow outlier's bucket, then +Inf at the total.
        assert!(out.contains("h_us_bucket{le=\"50\"} 1"), "got {out}");
        assert!(out.contains("h_us_bucket{le=\"+Inf\"} 3"), "got {out}");
        assert!(out.contains(&format!("h_us_sum {}", 50 + 120 + 9_999_999)));
        assert!(out.contains("h_us_count 3"), "got {out}");
        // One line per occupied bucket plus +Inf — not the full table.
        let bucket_lines = out.matches("h_us_bucket{").count();
        assert_eq!(bucket_lines, 4, "got {out}");
        // Cumulative counts are non-decreasing in render order.
        let mut prev = 0u64;
        for line in out.lines().filter(|l| l.starts_with("h_us_bucket{")) {
            let v: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
            assert!(v >= prev, "cumulative dip at {line}");
            prev = v;
        }
    }

    #[test]
    fn empty_histogram_still_renders_inf_sum_count() {
        let h = LogLinearHist::default();
        let mut out = String::new();
        render_histogram(&mut out, "h_us", "help.", &h);
        assert!(out.contains("h_us_bucket{le=\"+Inf\"} 0"), "got {out}");
        assert!(out.contains("h_us_sum 0"), "got {out}");
        assert!(out.contains("h_us_count 0"), "got {out}");
    }

    #[test]
    fn stage_seconds_renders_every_stage_with_seconds_bounds() {
        let stages = StageTimes::default();
        stages.record_us("simulate", 120); // 0.00012 s
        stages.record_us("queue_wait", 9_999_999);
        let mut out = String::new();
        render_stage_seconds(&mut out, "sp_stage_seconds", "help.", &stages);
        assert!(
            out.contains("sp_stage_seconds_bucket{stage=\"simulate\",le=\"0.00012\"} 1"),
            "got {out}"
        );
        assert!(
            out.contains("sp_stage_seconds_bucket{stage=\"simulate\",le=\"+Inf\"} 1"),
            "got {out}"
        );
        assert!(out.contains("sp_stage_seconds_sum{stage=\"simulate\"} 0.00012"));
        assert!(out.contains("sp_stage_seconds_count{stage=\"queue_wait\"} 1"));
        // Stable label set: every stage appears even with zero counts.
        for stage in STAGES {
            assert!(
                out.contains(&format!("sp_stage_seconds_count{{stage=\"{stage}\"}}")),
                "missing stage {stage}"
            );
        }
    }

    #[test]
    fn loadgen_body_reports_outcomes_and_rates() {
        let (lat, offered) = loadgen_totals();
        let body = render_loadgen(&LoadgenSnapshot {
            mode: "closed",
            offered,
            ok: 2,
            busy: 1,
            timeouts: 0,
            errors: 0,
            offered_rate: 0.0,
            achieved_rate: 42.5,
            latency: &lat,
        });
        assert!(
            body.contains("sp_loadgen_requests_total{outcome=\"ok\"} 2"),
            "got {body}"
        );
        assert!(
            body.contains("sp_loadgen_requests_total{outcome=\"busy\"} 1"),
            "got {body}"
        );
        assert!(body.contains("sp_loadgen_open_loop 0"), "got {body}");
        assert!(body.contains("sp_loadgen_achieved_rate 42.5"), "got {body}");
        assert!(body.contains("sp_loadgen_latency_us_count 2"), "got {body}");
        assert!(body.contains("sp_build_info{version="), "got {body}");
    }
}

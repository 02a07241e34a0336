//! The two offline sweep workloads.
//!
//! * `sweep` — the paper's own experiment: EM3D over the Figure 2/4
//!   grid and MCF over the Figure 5 grid, scaled inputs, streamer+DPL,
//!   RP 0.5, one job, no event sink. Its time is the cachesim probe,
//!   MSHR and streamer/DPL training under the sp-core engine.
//! * `lds_observed` — hash-join and skip-list on the pointer-chase
//!   backend, BFS and B+-tree on the perceptron backend, LDS grid, with
//!   the epoch recorder attached at its default window. Learned
//!   prefetchers train on pointer chains and a sink folds every event,
//!   which `sweep` never runs.
//!
//! One operation is one grid point (the baseline run or one distance);
//! one pass runs every grid point of every kernel once.

use crate::digest;
use crate::report::{cpu_seconds, peak_rss_mb, Report};
use crate::spans::{self, span};
use sp_bench::{DISTANCES_EM3D, DISTANCES_LDS, DISTANCES_MCF};
use sp_cachesim::events::default_early_threshold;
use sp_cachesim::{
    CacheConfig, Entity, EpochSeries, EpochSink, HwBackend, MemStats, SetAssocCache,
};
use sp_core::{
    compile_trace, recommend_distance, run_original_passes_compiled_ev, run_sp_with_compiled_ev,
    sweep_compiled_jobs_with, sweep_epochs_compiled_jobs_with, EngineOptions, RunResult, SpParams,
    Sweep, SweepEpochs,
};
use sp_trace::{AccessKind, CompiledTrace};
use sp_workloads::{KernelKind, ScaleTier, WorkloadBuilder};
use std::sync::Arc;
use std::time::Instant;

/// The paper's prefetch ratio for every sweep (§V.B).
const RP: f64 = 0.5;
/// Epoch window, in main-thread references (the recorder's default).
const EPOCH_LEN: u64 = sp_cachesim::DEFAULT_EPOCH_LEN;

/// Which sweep workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// EM3D + MCF, no sink.
    Sweep,
    /// Four LDS kernels on learned prefetchers, epoch recorder on.
    LdsObserved,
}

impl Which {
    fn name(self) -> &'static str {
        match self {
            Which::Sweep => "sweep",
            Which::LdsObserved => "lds_observed",
        }
    }

    fn epochs(self) -> bool {
        self == Which::LdsObserved
    }

    fn kernels(self) -> Vec<(KernelKind, CacheConfig, &'static [u32])> {
        let base = CacheConfig::scaled_default();
        match self {
            Which::Sweep => vec![
                (KernelKind::Em3d, base, DISTANCES_EM3D),
                (KernelKind::Mcf, base, DISTANCES_MCF),
            ],
            Which::LdsObserved => {
                let pchase = base.with_hw_backend(HwBackend::PointerChase);
                let perceptron = base.with_hw_backend(HwBackend::Perceptron);
                vec![
                    (KernelKind::HashJoin, pchase, DISTANCES_LDS),
                    (KernelKind::SkipList, pchase, DISTANCES_LDS),
                    (KernelKind::Bfs, perceptron, DISTANCES_LDS),
                    (KernelKind::BTree, perceptron, DISTANCES_LDS),
                ]
            }
        }
    }
}

/// One kernel after set-up: its compiled trace and SA/2 bound.
struct Kernel {
    kind: KernelKind,
    cfg: CacheConfig,
    distances: &'static [u32],
    ct: Arc<CompiledTrace>,
    bound: Option<u32>,
    trace_refs: usize,
}

/// Build, compile and bound every kernel of the workload (the set-up
/// `setup_s` times).
fn set_up(which: Which, seed: u64) -> Vec<Kernel> {
    which
        .kernels()
        .into_iter()
        .map(|(kind, cfg, distances)| {
            let trace = span("workloads.build", || {
                WorkloadBuilder::new(kind)
                    .tier(ScaleTier::Scaled)
                    .seed(seed)
                    .build()
                    .trace()
            });
            let ct = span("trace.compile", || Arc::new(compile_trace(&trace, &cfg)));
            let bound = span("profiler.bound", || {
                recommend_distance(&trace, &cfg).max_distance
            });
            Kernel {
                kind,
                cfg,
                distances,
                ct,
                bound,
                trace_refs: trace.total_refs(),
            }
        })
        .collect()
}

/// One kernel's grid through the public sweep driver at one job, with
/// its epoch series when recorded.
fn sweep_pass(k: &Kernel, epochs: bool) -> (Sweep, Option<SweepEpochs>) {
    let opts = EngineOptions::default();
    if epochs {
        let (s, e, _) =
            sweep_epochs_compiled_jobs_with(&k.ct, k.cfg, RP, k.distances, opts, EPOCH_LEN, 1)
                .expect("compiled for this geometry");
        (s, Some(e))
    } else {
        let (s, _) = sweep_compiled_jobs_with(&k.ct, k.cfg, RP, k.distances, opts, 1)
            .expect("compiled for this geometry");
        (s, None)
    }
}

/// Demand references one run simulated (main plus helper thread).
fn run_refs(r: &RunResult) -> u64 {
    r.stats.main.demand_accesses() + r.stats.helper.demand_accesses()
}

fn sweep_refs(s: &Sweep) -> u64 {
    run_refs(&s.baseline) + s.points.iter().map(|p| run_refs(&p.run)).sum::<u64>()
}

/// Epoch windows recorded over a whole grid.
fn window_count(e: &SweepEpochs) -> u64 {
    (e.baseline.len() + e.points.iter().map(EpochSeries::len).sum::<usize>()) as u64
}

/// The reference outputs every pass is compared with.
struct Reference {
    sweep: Sweep,
    epochs: Option<SweepEpochs>,
}

/// Compare one pass's grid with the reference, one operation per grid
/// point.
fn check_pass(
    rep: &mut Report,
    label: &str,
    reference: &Reference,
    sweep: &Sweep,
    epochs: Option<&SweepEpochs>,
) {
    let want = &reference.sweep;
    let base_ok = sweep.baseline == want.baseline
        && epochs.map(|e| &e.baseline) == reference.epochs.as_ref().map(|e| &e.baseline);
    rep.op(base_ok, || {
        format!("{label}: baseline differs from the first pass")
    });
    for (i, p) in want.points.iter().enumerate() {
        let ok = sweep.points.get(i) == Some(p)
            && epochs.map(|e| e.points.get(i))
                == reference.epochs.as_ref().map(|e| e.points.get(i));
        rep.op(ok, || {
            format!(
                "{label}: distance {} differs from the first pass",
                p.distance
            )
        });
    }
}

/// Run a sweep workload for `seconds` and report its metrics.
pub fn run(which: Which, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::default();
    // Set-up runs once up front and again after every pass, so its
    // median spans the whole run like the passes do. Each fresh set-up
    // replaces the last, so one copy of the traces is live at a time.
    spans::set_enabled(trace);
    let t0 = Instant::now();
    let mut kernels = set_up(which, seed);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    spans::set_enabled(false);

    // Untimed first pass: warms the simulator and is the reference
    // every later pass must equal.
    let references: Vec<Reference> = kernels
        .iter()
        .map(|k| {
            let (sweep, epochs) = sweep_pass(k, which.epochs());
            let surface = digest::sweep_surface(k.bound, &sweep, epochs.as_ref());
            let d = digest::digest(&surface);
            rep.digests.insert(k.kind.flag().to_string(), d);
            if let Err(e) = digest::check_pinned(which.name(), k.kind.flag(), seed, d) {
                rep.op(false, || e);
            }
            Reference { sweep, epochs }
        })
        .collect();
    let points_per_pass: usize = kernels.iter().map(|k| k.distances.len() + 1).sum();
    let refs_per_pass: u64 = references.iter().map(|r| sweep_refs(&r.sweep)).sum();
    rep.note("grid_points_per_pass", points_per_pass as f64);
    rep.note("sim_refs_per_pass", refs_per_pass as f64);

    if trace {
        traced(&mut rep, which, seed, seconds, &kernels, &references);
        return rep;
    }

    // Every metric is a median over passes, so a host stall moves one
    // pass, not the run.
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut passes: Vec<[f64; 3]> = Vec::new();
    while Instant::now() < deadline || passes.len() < 3 {
        let (t0, cpu0) = (Instant::now(), cpu_seconds());
        let mut refs = 0;
        for (k, reference) in kernels.iter().zip(&references) {
            let (sweep, epochs) = sweep_pass(k, which.epochs());
            check_pass(&mut rep, k.kind.flag(), reference, &sweep, epochs.as_ref());
            refs += sweep_refs(&sweep);
        }
        let wall = t0.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - cpu0;
        passes.push([
            refs as f64 / wall / 1e6,
            points_per_pass as f64 / wall,
            cpu * 1e3 / points_per_pass as f64,
        ]);
        drop(std::mem::take(&mut kernels));
        let t0 = Instant::now();
        kernels = set_up(which, seed);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let column = |i: usize| passes.iter().map(|p| p[i]).collect::<Vec<f64>>();
    rep.note("passes", passes.len() as f64);
    rep.median_of("setup_s", "s", setup_s);
    rep.median_of("sim_mrefs_per_s", "Mrefs/s", column(0));
    rep.single("peak_rss_mb", "MB", peak_rss_mb());
    rep.median_of("achieved_rps", "1/s", column(1));
    rep.median_of("cpu_ms_per_req", "ms", column(2));
    rep
}

/// Counters summed over one pass's runs.
#[derive(Default)]
struct Counts {
    refs: u64,
    helper_refs: u64,
    l2_accesses: u64,
    l2_misses: u64,
    l2_fills: u64,
    partial_hits: u64,
    bus_queued: u64,
    helper_waits: u64,
    helper_jumps: u64,
    pf_issued: [u64; 5],
    pf_useful: [u64; 5],
    pollution: [u64; 4],
}

impl Counts {
    fn add(&mut self, r: &RunResult) {
        let s: &MemStats = &r.stats;
        self.refs += run_refs(r);
        self.helper_refs += s.helper.demand_accesses();
        self.l2_accesses += s.main.l2_accesses() + s.helper.l2_accesses();
        self.l2_misses += s.main.total_misses + s.helper.total_misses;
        self.partial_hits += s.main.partial_hits + s.helper.partial_hits;
        self.l2_fills += s.l2_fills;
        self.bus_queued += s.bus_queued;
        self.helper_waits += r.helper_waits;
        self.helper_jumps += r.helper_jumps;
        for c in 0..5 {
            self.pf_issued[c] += s.prefetches_issued[c];
            self.pf_useful[c] += s.prefetches_useful[c];
        }
        let p = &s.pollution;
        for (slot, v) in self.pollution.iter_mut().zip([
            p.reuse_evictions,
            p.unused_helper_evictions,
            p.unused_hw_evictions,
            p.dead_prefetches,
        ]) {
            *slot += v;
        }
    }
}

/// Prefetch classes in `MemStats` order.
const PF_CLASSES: [&str; 5] = ["helper", "stream", "dpl", "pchase", "perceptron"];
/// Pollution cases in `Counts::pollution` order.
const POLLUTION_CASES: [&str; 4] = ["reuse", "unused_helper", "unused_hw", "dead"];

/// One kernel's grid as direct calls into the sp-core engine, each in a
/// span, with the epoch recorder when `epochs`.
fn traced_pass(k: &Kernel, epochs: bool) -> (Vec<RunResult>, Vec<Option<EpochSeries>>) {
    let opts = EngineOptions::default();
    let threshold = default_early_threshold(&k.cfg.latency);
    let recorder = || epochs.then(|| EpochSink::new(EPOCH_LEN, threshold));
    let mut runs = Vec::with_capacity(k.distances.len() + 1);
    let mut series = Vec::with_capacity(k.distances.len() + 1);
    let (run, s) = span("core.original", || {
        let mut sink = recorder();
        let run = match sink.as_mut() {
            Some(sink) => run_original_passes_compiled_ev(&k.ct, k.cfg, opts.passes, sink),
            None => sp_core::run_original_passes_compiled(&k.ct, k.cfg, opts.passes),
        };
        (
            run.expect("compiled for this geometry"),
            sink.map(EpochSink::finish),
        )
    });
    runs.push(run);
    series.push(s);
    for &d in k.distances {
        let params = SpParams::from_distance_rp(d, RP);
        let (run, s) = span("core.sp", || {
            let mut sink = recorder();
            let run = match sink.as_mut() {
                Some(sink) => run_sp_with_compiled_ev(&k.ct, k.cfg, params, opts, sink),
                None => sp_core::run_sp_with_compiled(&k.ct, k.cfg, params, opts),
            };
            (
                run.expect("compiled for this geometry"),
                sink.map(EpochSink::finish),
            )
        });
        runs.push(run);
        series.push(s);
    }
    (runs, series)
}

/// Replay a kernel's L2 set/tag stream through a standalone L2 array:
/// touch, and fill on a miss. Returns the probes made.
fn l2_probe(k: &Kernel) -> u64 {
    let mut l2 = SetAssocCache::new(k.cfg.l2, k.cfg.policy);
    let ct = &k.ct;
    let mut probes = 0;
    for it in 0..ct.outer_iters() {
        for i in ct.iter_refs(it) {
            let r = ct.get(i);
            let store = r.kind == AccessKind::Store;
            if !l2.touch_hit_at(r.l2_set, r.l2_tag, store, true) {
                l2.fill_at(r.l2_set, r.l2_tag, Entity::Main, false);
            }
            probes += 1;
        }
    }
    std::hint::black_box(l2.total_occupancy());
    probes
}

/// The traced run: untraced passes interleaved with traced passes (for
/// the tracing overhead) and passes with the epoch recorder toggled
/// (for its overhead), then the per-layer table.
fn traced(
    rep: &mut Report,
    which: Which,
    seed: u64,
    seconds: f64,
    kernels: &[Kernel],
    references: &[Reference],
) {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let (mut plain_s, mut traced_s, mut with_s, mut without_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut orig_refs, mut sp_refs, mut probes, mut windows) = (0u64, 0u64, 0u64, 0u64);
    let mut counts = Counts::default();
    let mut rounds = 0;
    while Instant::now() < deadline || rounds < 2 {
        rounds += 1;
        // The workload's own pass, untraced.
        let t0 = Instant::now();
        for (k, reference) in kernels.iter().zip(references) {
            let (sweep, epochs) = sweep_pass(k, which.epochs());
            check_pass(rep, k.kind.flag(), reference, &sweep, epochs.as_ref());
        }
        let plain = t0.elapsed().as_secs_f64();
        plain_s.push(plain);

        // The same grid as direct engine calls inside spans.
        spans::set_enabled(true);
        let t0 = Instant::now();
        span("pass", || {
            for (k, reference) in kernels.iter().zip(references) {
                let (runs, series) = traced_pass(k, which.epochs());
                let want = std::iter::once(&reference.sweep.baseline)
                    .chain(reference.sweep.points.iter().map(|p| &p.run));
                for (i, (got, want)) in runs.iter().zip(want).enumerate() {
                    rep.op(got == want, || {
                        format!("{}: traced grid point {i} differs", k.kind.flag())
                    });
                }
                if let Some(e) = &reference.epochs {
                    let want = std::iter::once(&e.baseline).chain(&e.points);
                    let same = series.iter().zip(want).all(|(g, w)| g.as_ref() == Some(w));
                    rep.op(same, || {
                        format!("{}: traced epoch series differ", k.kind.flag())
                    });
                }
                orig_refs += run_refs(&runs[0]);
                sp_refs += runs[1..].iter().map(run_refs).sum::<u64>();
                if rounds == 1 {
                    runs.iter().for_each(|r| counts.add(r));
                }
            }
        });
        traced_s.push(t0.elapsed().as_secs_f64());
        for k in kernels {
            probes += span("cachesim.l2_probe", || l2_probe(k));
        }
        drop(set_up(which, seed));
        spans::set_enabled(false);

        // The grid with the epoch recorder toggled the other way.
        let t0 = Instant::now();
        let mut w = 0;
        for (k, reference) in kernels.iter().zip(references) {
            let (sweep, epochs) = sweep_pass(k, !which.epochs());
            w += epochs.as_ref().map_or(0, window_count);
            rep.op(sweep == reference.sweep, || {
                format!("{}: sweep differs with the recorder toggled", k.kind.flag())
            });
        }
        let other = t0.elapsed().as_secs_f64();
        let (with, without) = if which.epochs() {
            (plain, other)
        } else {
            (other, plain)
        };
        with_s.push(with);
        without_s.push(without);
        // Exactly one of the two grids ran with the recorder.
        windows = w + references
            .iter()
            .filter_map(|r| r.epochs.as_ref())
            .map(window_count)
            .sum::<u64>();
    }
    rep.layers = spans::layers();
    let per_call_ms = |name: &str| {
        rep.layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / 1e6 / l.count.max(1) as f64)
    };
    let self_ns = |name: &str| rep.layers.get(name).map_or(0, |l| l.self_ns) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let build_ms = per_call_ms("workloads.build");
    let compile_ms = per_call_ms("trace.compile");
    let bound_ms = per_call_ms("profiler.bound");
    let orig_ns = self_ns("core.original") / orig_refs.max(1) as f64;
    let sp_ns = self_ns("core.sp") / sp_refs.max(1) as f64;
    let probe_ns = self_ns("cachesim.l2_probe") / probes.max(1) as f64;
    rep.note("rounds", rounds as f64);
    rep.single("workloads.build_ms", "ms", build_ms);
    rep.single(
        "workloads.refs",
        "count",
        kernels.iter().map(|k| k.trace_refs).sum::<usize>() as f64,
    );
    rep.single("trace.compile_ms", "ms", compile_ms);
    rep.single("profiler.bound_ms", "ms", bound_ms);
    rep.single("core.original_ns_per_ref", "ns", orig_ns);
    rep.single("core.sp_ns_per_ref", "ns", sp_ns);
    rep.single("core.helper_waits", "count", counts.helper_waits as f64);
    rep.single("core.helper_jumps", "count", counts.helper_jumps as f64);
    rep.single(
        "core.helper_ref_share",
        "ratio",
        ratio(counts.helper_refs, counts.refs),
    );
    rep.single("cachesim.l2_probe_ns", "ns", probe_ns);
    for (name, v) in [
        ("l2_accesses", counts.l2_accesses),
        ("l2_misses", counts.l2_misses),
        ("l2_fills", counts.l2_fills),
        ("partial_hits", counts.partial_hits),
        ("bus_queued", counts.bus_queued),
    ] {
        rep.single(&format!("cachesim.{name}"), "1/ref", ratio(v, counts.refs));
    }
    for (c, class) in PF_CLASSES.iter().enumerate() {
        rep.single(
            &format!("cachesim.pf_issued.{class}"),
            "count",
            counts.pf_issued[c] as f64,
        );
        rep.single(
            &format!("cachesim.pf_useful_ratio.{class}"),
            "ratio",
            ratio(counts.pf_useful[c], counts.pf_issued[c]),
        );
    }
    for (i, case) in POLLUTION_CASES.iter().enumerate() {
        rep.single(
            &format!("cachesim.pollution.{case}"),
            "count",
            counts.pollution[i] as f64,
        );
    }
    rep.median_of(
        "epoch.overhead_ratio",
        "time_ratio",
        with_s.iter().zip(&without_s).map(|(a, b)| a / b).collect(),
    );
    rep.single("epoch.windows", "count", windows as f64);
    rep.median_of(
        "obs.trace_overhead_ratio",
        "time_ratio",
        traced_s.iter().zip(&plain_s).map(|(a, b)| a / b).collect(),
    );
}

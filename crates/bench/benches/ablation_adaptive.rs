//! Ablation — static Set-Affinity bound vs FDP-style dynamic distance
//! control (the paper's future-work direction).
//!
//! Three policies on EM3D:
//! * **static-bounded** — the paper's mechanism: fixed distance at half
//!   the Set-Affinity bound.
//! * **dynamic** — feedback controller (accuracy/lateness/pollution),
//!   deliberately started at a pollution-heavy distance.
//! * **dynamic+bound** — the same controller clamped by the
//!   Set-Affinity bound (the hybrid).

use sp_cachesim::CacheConfig;
use sp_core::prelude::*;
use sp_core::{run_sp_adaptive, FeedbackController};
use sp_workloads::{Benchmark, Workload};

const EPOCH: usize = 128;

fn main() {
    let cfg = CacheConfig::scaled_default();
    let trace = Workload::scaled(Benchmark::Em3d).trace();
    let rec = recommend_distance(&trace, &cfg);
    let bound = rec.max_distance.unwrap();
    let base = run_original(&trace, cfg);

    let static_run = run_sp(&trace, cfg, SpParams::from_distance_rp(bound / 2, 0.5));
    let mut dyn_free = FeedbackController::new(bound * 8, 0.5);
    let free = run_sp_adaptive(&trace, cfg, &mut dyn_free, EPOCH);
    let mut dyn_bounded = FeedbackController::new(bound * 8, 0.5).bounded(bound);
    let hybrid = run_sp_adaptive(&trace, cfg, &mut dyn_bounded, EPOCH);

    println!("\n== Ablation: adaptive distance control (EM3D, bound {bound}) ==");
    let norm = |rt: u64| rt as f64 / base.runtime as f64;
    println!(
        "  static (bound/2):   runtime {:.3}",
        norm(static_run.runtime)
    );
    println!(
        "  dynamic (start 8x):  runtime {:.3}, final distance {}",
        norm(free.run.runtime),
        free.epochs.last().map(|e| e.next_distance).unwrap_or(0)
    );
    println!(
        "  dynamic + bound:     runtime {:.3}, final distance {}",
        norm(hybrid.run.runtime),
        hybrid.epochs.last().map(|e| e.next_distance).unwrap_or(0)
    );
    println!(
        "  distance trajectory (dynamic): {:?}",
        free.epochs
            .iter()
            .map(|e| e.next_distance)
            .take(12)
            .collect::<Vec<_>>()
    );
    println!();
}

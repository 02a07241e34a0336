//! Ablation — helper execution model.
//!
//! The paper's premise (§II.A) is that the helper executes *real loads*
//! ("only the load's computation") and therefore cannot outrun the main
//! thread on a low-CALR loop without skipping. This ablation compares
//! that faithful blocking-helper model against an idealized helper with
//! unbounded memory-level parallelism (fire-and-forget prefetches), at a
//! bounded and an oversized distance.
//!
//! Expected shape: the idealized helper gains slightly more at small
//! distances (it is never stalled) but pollutes just as badly past the
//! bound — the distance bound matters under *either* helper model.

use sp_cachesim::CacheConfig;
use sp_core::prelude::*;
use sp_core::run_sp_with;
use sp_workloads::{Benchmark, Workload};

fn main() {
    let cfg = CacheConfig::scaled_default();
    let trace = Workload::scaled(Benchmark::Em3d).trace();
    let rec = recommend_distance(&trace, &cfg);
    let bound = rec.max_distance.unwrap();
    let base = run_original(&trace, cfg);
    println!("\n== Ablation: helper model (EM3D, bound {bound}) ==");
    println!("  model      distance  runtime  pollution  helper_waits");
    for (label, blocking) in [("blocking", true), ("idealized", false)] {
        for d in [bound / 2, bound * 4] {
            let opts = EngineOptions {
                blocking_helper: blocking,
                ..EngineOptions::default()
            };
            let r = run_sp_with(&trace, cfg, SpParams::from_distance_rp(d, 0.5), opts);
            println!(
                "  {:9}  {:8}  {:7.3}  {:9}  {:12}",
                label,
                d,
                r.runtime as f64 / base.runtime as f64,
                r.stats.pollution.total(),
                r.helper_waits
            );
        }
    }
    println!();
}

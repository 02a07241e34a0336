//! Ablation — prefetch ratio `RP`.
//!
//! The paper fixes `RP = 0.5` for its three low-CALR benchmarks (§II.B)
//! and contrasts with conventional helper prefetching (`RP = 1`, the
//! helper covers every delinquent load). This ablation sweeps RP at a
//! fixed in-bound distance and shows why 0.5 is the right operating
//! point for a helper that executes real loads: with RP = 1 the helper
//! cannot outrun the main thread at all (it falls behind and jumps).

use sp_cachesim::CacheConfig;
use sp_core::{run_original, run_sp, SpParams};
use sp_workloads::{Benchmark, Workload};

/// In-bound EM3D distance used for the whole sweep.
const DISTANCE: u32 = 20;

fn params_for(rp: f64) -> SpParams {
    if (rp - 1.0).abs() < 1e-9 {
        SpParams::conventional()
    } else {
        SpParams::from_distance_rp(DISTANCE, rp)
    }
}

fn main() {
    let trace = Workload::scaled(Benchmark::Em3d).trace();
    let cfg = CacheConfig::scaled_default();
    let base = run_original(&trace, cfg);
    println!("\n== Ablation: prefetch ratio (EM3D, distance {DISTANCE}) ==");
    println!("  RP     A_SKI  A_PRE  runtime  miss_norm  helper_jumps");
    for rp in [0.25, 0.5, 0.75, 1.0] {
        let p = params_for(rp);
        let r = run_sp(&trace, cfg, p);
        println!(
            "  {:4.2}  {:5}  {:5}  {:7.3}  {:9.3}  {:12}",
            rp,
            p.a_ski,
            p.a_pre,
            r.runtime as f64 / base.runtime as f64,
            r.stats.main.total_misses as f64 / base.stats.main.total_misses as f64,
            r.helper_jumps
        );
    }
    println!();
}

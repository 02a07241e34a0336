//! Ablation — hardware prefetchers on/off.
//!
//! The paper's halving argument (§III.B) counts six access entities once
//! the helper runs: main, helper, and the per-core streamers and DPLs.
//! *Original* Set Affinity is defined with hardware prefetchers disabled
//! (Definition 2). This ablation reports (a) how SA and the bound change
//! when the prefetchers are counted into the stream, and (b) how SP's
//! gain and pollution change with the prefetchers on vs. off.

use sp_cachesim::CacheConfig;
use sp_core::{helper_set_affinity, original_set_affinity, run_original, run_sp, SpParams};
use sp_workloads::{Benchmark, Workload};

fn main() {
    let cfg_on = CacheConfig::scaled_default();
    let cfg_off = cfg_on.without_hw_prefetchers();
    println!("\n== Ablation: hardware prefetchers ==");
    for b in Benchmark::ALL {
        let trace = Workload::scaled(b).trace();
        let orig = original_set_affinity(&trace, cfg_on.l2);
        let with_helper =
            helper_set_affinity(&trace, cfg_on.l2, SpParams::from_distance_rp(16, 0.5));
        println!(
            "  {:5} SA_orig={:?} SA_with_helper={:?} (paper: SA_helper*2 <= SA_orig)",
            b.name(),
            orig.range(),
            with_helper.range()
        );
    }
    let trace = Workload::scaled(Benchmark::Em3d).trace();
    for (label, cfg) in [("hw on", cfg_on), ("hw off", cfg_off)] {
        let base = run_original(&trace, cfg);
        let sp = run_sp(&trace, cfg, SpParams::from_distance_rp(20, 0.5));
        println!(
            "  EM3D {label}: runtime_norm={:.3} pollution={} hw_prefetches={}",
            sp.runtime as f64 / base.runtime as f64,
            sp.stats.pollution.total(),
            sp.stats.prefetches_issued[1] + sp.stats.prefetches_issued[2],
        );
    }
    println!();
}

//! Ablation — burst-sampling fidelity.
//!
//! The paper derives Set Affinity from a *low-overhead* burst-sampled
//! profile (§IV.C) rather than the full stream. This ablation quantifies
//! the estimate's error and cost across burst lengths: bursts shorter
//! than a set's affinity cannot observe its overflow at all, so the
//! estimated minimum (and hence the distance bound) is exact once the
//! burst length clears the true minimum SA.

use sp_cachesim::CacheConfig;
use sp_core::{original_set_affinity, sampled_set_affinity};
use sp_profiler::BurstSampler;
use sp_workloads::{Benchmark, Workload};

const BURSTS: [usize; 4] = [64, 256, 1024, 4096];

fn main() {
    let cfg = CacheConfig::scaled_default();
    let trace = Workload::scaled(Benchmark::Em3d).trace();
    let full = original_set_affinity(&trace, cfg.l2);
    println!(
        "\n== Ablation: burst sampling (EM3D, true SA={:?}) ==",
        full.range()
    );
    println!("  burst  duty  recorded_iters  SA_est        bound_est");
    for on in BURSTS {
        let s = BurstSampler::new(on, on);
        let bursts = s.sample(&trace);
        let est = sampled_set_affinity(&bursts, cfg.l2);
        println!(
            "  {:5}  {:4.2}  {:14}  {:12}  {:?}",
            on,
            s.duty_cycle(),
            s.recorded_iters(&trace),
            format!("{:?}", est.range()),
            est.distance_bound()
        );
    }
    println!("  (full-stream bound: {:?})\n", full.distance_bound());
}

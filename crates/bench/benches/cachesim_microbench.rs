//! Microbenchmarks of the memory-hierarchy substrate itself: raw cache
//! probe/fill throughput, MSHR operations, hardware-prefetcher training,
//! and end-to-end simulator throughput (accesses per second) — the
//! numbers that bound how large a workload the reproduction can sweep.

use sp_bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use sp_cachesim::prefetcher::{DplPrefetcher, HwPrefetcher, StreamPrefetcher};
use sp_cachesim::{
    CacheConfig, CacheGeometry, Entity, MemorySystem, MshrFile, Policy, SetAssocCache,
};
use sp_trace::{synth, MemRef, SiteId};

fn bench_cache(c: &mut Criterion) {
    let geo = CacheGeometry::new(256 * 1024, 16, 64);
    let mut g = c.benchmark_group("cachesim/cache");
    let addrs: Vec<u64> = (0..4096u64)
        .map(|i| ((i * 2654435761) % (1 << 24)) & !63)
        .collect();
    g.throughput(Throughput::Elements(addrs.len() as u64));
    g.bench_function("fill_probe_mixed", |b| {
        b.iter(|| {
            let mut cache = SetAssocCache::new(geo, Policy::Lru);
            let mut hits = 0u64;
            for &a in &addrs {
                if cache.demand_touch(a, false).is_some() {
                    hits += 1;
                } else {
                    cache.fill(a, Entity::Main, false);
                }
            }
            hits
        })
    });
    g.finish();
}

fn bench_mshr(c: &mut Criterion) {
    let mut g = c.benchmark_group("cachesim/mshr");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("allocate_drain", |b| {
        b.iter(|| {
            let mut m = MshrFile::new(16);
            let mut drained = 0usize;
            for i in 0..1024u64 {
                while m
                    .allocate(sp_cachesim::mshr::InFlight {
                        block: i * 64,
                        ready_at: i + 100,
                        requester: Entity::Main,
                        prefetch: false,
                        store: false,
                    })
                    .is_err()
                {
                    drained += m.drain_ready(i + 100).len();
                }
            }
            drained
        })
    });
    g.finish();
}

fn bench_prefetchers(c: &mut Criterion) {
    let mut g = c.benchmark_group("cachesim/prefetchers");
    let blocks: Vec<u64> = (0..4096u64).map(|i| i * 64).collect();
    g.throughput(Throughput::Elements(blocks.len() as u64));
    g.bench_function("streamer_sequential", |b| {
        b.iter(|| {
            let mut p = StreamPrefetcher::new(8, 2, 64);
            let mut out = Vec::new();
            let mut emitted = 0usize;
            for &blk in &blocks {
                out.clear();
                p.observe(SiteId::ANON, blk, &mut out);
                emitted += out.len();
            }
            emitted
        })
    });
    g.bench_function("dpl_strided", |b| {
        b.iter(|| {
            let mut p = DplPrefetcher::new(16, 2, 64);
            let mut out = Vec::new();
            let mut emitted = 0usize;
            for (i, _) in blocks.iter().enumerate() {
                out.clear();
                p.observe(SiteId(3), (i as u64) * 192, &mut out);
                emitted += out.len();
            }
            emitted
        })
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("cachesim/end_to_end");
    let trace = synth::random(2000, 8, 0, 1 << 22, 7, 2);
    let refs: Vec<MemRef> = trace.tagged_refs().map(|(_, r)| *r).collect();
    g.throughput(Throughput::Elements(refs.len() as u64));
    // Scalar entry point, fresh hierarchy per run (the pre-overhaul shape).
    g.bench_function("demand_stream", |b| {
        b.iter(|| {
            let mut m = MemorySystem::new(CacheConfig::scaled_default());
            let mut t = 0u64;
            for r in &refs {
                t = m.demand_access(Entity::Main, *r, t).complete_at;
            }
            t
        })
    });
    // Same stream through one reused simulator: isolates the build cost
    // `MemorySystem::reset` saves sweep runners and sp-serve.
    g.bench_function("demand_stream_reset_reuse", |b| {
        let mut m = MemorySystem::new(CacheConfig::scaled_default());
        b.iter(|| {
            m.reset();
            let mut t = 0u64;
            for r in &refs {
                t = m.demand_access(Entity::Main, *r, t).complete_at;
            }
            t
        })
    });
    // Same stream with projections computed ahead of the timed loop:
    // isolates the per-access projection cost.
    g.bench_function("demand_stream_precompiled", |b| {
        let mut m = MemorySystem::new(CacheConfig::scaled_default());
        let compiled: Vec<_> = refs.iter().map(|r| m.project(*r)).collect();
        b.iter(|| {
            m.reset();
            let mut t = 0u64;
            for cr in &compiled {
                t = m.demand_access_pre(Entity::Main, cr, t).complete_at;
            }
            t
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_mshr,
    bench_prefetchers,
    bench_end_to_end
);
criterion_main!(benches);

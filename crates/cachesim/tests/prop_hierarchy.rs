//! Property tests: whole-memory-system invariants under arbitrary
//! access interleavings.
//!
//! Deterministic randomized cases via `sp_testkit::check` (std-only).

use sp_cachesim::{CacheConfig, CacheGeometry, Entity, HitClass, MemorySystem};
use sp_testkit::{check, gen_vec, SmallRng};
use sp_trace::{CompiledTrace, HotLoopTrace, IterRecord, MemRef, SiteId};

fn tiny_cfg(hw: bool) -> CacheConfig {
    CacheConfig {
        cores: 2,
        l1: CacheGeometry::new(512, 2, 64),
        l2: CacheGeometry::new(4 * 1024, 4, 64),
        hw_prefetchers: hw,
        mshr_entries: 4,
        ..CacheConfig::scaled_default()
    }
}

/// An access script: (who, address, gap to next access).
fn script(rng: &mut SmallRng) -> Vec<(u8, u64, u64)> {
    gen_vec(rng, 1..250, |r| {
        (
            r.gen_range(0u32..3) as u8,
            r.gen_range(0u64..(1 << 14)),
            r.gen_range(0u64..64),
        )
    })
}

/// Compiled replay and the scalar entry points see identical
/// projections: for random power-of-two geometries and addresses with
/// high bits set, `CompiledTrace::get` equals `MemorySystem::project`
/// field by field, and both equal the cache geometry's own mapping.
#[test]
fn compiled_get_equals_scalar_projection() {
    check(64, |rng| {
        let line = 1u64 << rng.gen_range(0u32..10);
        let level = |r: &mut SmallRng, max_sets_log2: u32| {
            let ways = 1u32 << r.gen_range(0u32..3);
            let sets = 1u64 << r.gen_range(0..max_sets_log2);
            CacheGeometry::new(sets * ways as u64 * line, ways, line)
        };
        let cfg = CacheConfig {
            l1: level(rng, 8),
            l2: level(rng, 13),
            ..CacheConfig::scaled_default()
        };
        let mut t = HotLoopTrace::new("prop");
        let mut addr = |r: &mut SmallRng| MemRef::load(r.next_u64(), SiteId(r.gen_range(0u32..64)));
        for _ in 0..rng.gen_range(1usize..20) {
            t.iters.push(IterRecord {
                backbone: gen_vec(rng, 0..3, &mut addr),
                inner: gen_vec(rng, 0..6, &mut addr),
                compute_cycles: 1,
            });
        }
        let m = MemorySystem::new(cfg);
        let c = CompiledTrace::compile(&t, cfg.trace_geometry());
        for (i, (_, r)) in t.tagged_refs().enumerate() {
            let (got, want) = (c.get(i), m.project(*r));
            assert_eq!(got.vaddr, want.vaddr);
            assert_eq!(got.block, want.block);
            assert_eq!(got.l1_set, want.l1_set);
            assert_eq!(got.l1_tag, want.l1_tag);
            assert_eq!(got.l2_set, want.l2_set);
            assert_eq!(got.l2_tag, want.l2_tag);
            assert_eq!(got.kind, want.kind);
            assert_eq!(got.site, want.site);
            assert_eq!(got.block, cfg.l2.block_of(r.vaddr));
            assert_eq!(got.l1_set as u64, cfg.l1.set_of(r.vaddr));
            assert_eq!(got.l1_tag, cfg.l1.tag_of(r.vaddr));
            assert_eq!(got.l2_set as u64, cfg.l2.set_of(r.vaddr));
            assert_eq!(got.l2_tag, cfg.l2.tag_of(r.vaddr));
        }
    });
}

/// Hit classes partition demand accesses; stats never lose an access.
#[test]
fn classes_partition_accesses() {
    check(64, |rng| {
        let ops = script(rng);
        let hw = rng.gen_bool(0.5);
        let mut m = MemorySystem::new(tiny_cfg(hw));
        let mut t = 0u64;
        let (mut n_main, mut n_helper, mut n_pref) = (0u64, 0u64, 0u64);
        for (who, addr, gap) in ops {
            match who {
                0 => {
                    t = m
                        .demand_access(Entity::Main, MemRef::anon(addr), t)
                        .complete_at;
                    n_main += 1;
                }
                1 => {
                    t = m.helper_load(MemRef::anon(addr), t).complete_at;
                    n_helper += 1;
                    n_pref += 1;
                }
                _ => {
                    t = m
                        .prefetch_access(MemRef::anon(addr).as_prefetch(), t)
                        .complete_at;
                    n_pref += 1;
                }
            }
            t += gap;
        }
        let s = m.finish();
        assert_eq!(s.main.demand_accesses(), n_main);
        assert_eq!(s.helper.demand_accesses(), n_helper);
        assert_eq!(s.prefetches_issued[0], n_pref);
    });
}

/// Completion times never precede issue times, and demand misses pay
/// at least the unloaded memory latency.
#[test]
fn latency_lower_bounds() {
    check(64, |rng| {
        let ops = script(rng);
        let cfg = tiny_cfg(false);
        let mut m = MemorySystem::new(cfg);
        let mut t = 0u64;
        for (who, addr, gap) in ops {
            let r = match who {
                0 => m.demand_access(Entity::Main, MemRef::anon(addr), t),
                1 => m.helper_load(MemRef::anon(addr), t),
                _ => m.prefetch_access(MemRef::anon(addr).as_prefetch(), t),
            };
            assert!(r.complete_at >= t);
            if who == 0 && r.class == HitClass::TotalMiss {
                assert!(r.complete_at - t >= cfg.latency.full_miss());
            }
            if who == 0 && r.class == HitClass::L1Hit {
                assert_eq!(r.complete_at - t, cfg.latency.l1_hit);
            }
            t = r.complete_at + gap;
        }
    });
}

/// Identical scripts produce identical statistics (determinism).
#[test]
fn deterministic() {
    check(64, |rng| {
        let ops = script(rng);
        let hw = rng.gen_bool(0.5);
        let run = || {
            let mut m = MemorySystem::new(tiny_cfg(hw));
            let mut t = 0u64;
            for (who, addr, gap) in &ops {
                let r = match who {
                    0 => m.demand_access(Entity::Main, MemRef::anon(*addr), t),
                    1 => m.helper_load(MemRef::anon(*addr), t),
                    _ => m.prefetch_access(MemRef::anon(*addr).as_prefetch(), t),
                };
                t = r.complete_at + gap;
            }
            m.finish()
        };
        assert_eq!(run(), run());
    });
}

/// Useful prefetches never exceed issued prefetches, fills never
/// exceed what could have been requested, and pollution counters stay
/// consistent with the eviction count.
#[test]
fn counter_sanity() {
    check(64, |rng| {
        let ops = script(rng);
        let mut m = MemorySystem::new(tiny_cfg(true));
        let mut t = 0u64;
        for (who, addr, gap) in ops {
            let r = match who {
                0 => m.demand_access(Entity::Main, MemRef::anon(addr), t),
                1 => m.helper_load(MemRef::anon(addr), t),
                _ => m.prefetch_access(MemRef::anon(addr).as_prefetch(), t),
            };
            t = r.complete_at + gap;
        }
        let s = m.finish();
        for cls in 0..3 {
            assert!(
                s.prefetches_useful[cls] <= s.prefetches_issued[cls],
                "class {cls}: useful {} > issued {}",
                s.prefetches_useful[cls],
                s.prefetches_issued[cls]
            );
        }
        assert!(s.l2_evictions <= s.l2_fills);
        assert!(
            s.pollution.unused_helper_evictions + s.pollution.unused_hw_evictions
                <= s.pollution.dead_prefetches
        );
    });
}

/// Immediately re-demanding a just-missed block is never *worse*
/// than a partial hit (the fill is in flight or complete).
#[test]
fn refetch_is_at_least_partial() {
    check(64, |rng| {
        let addr = rng.gen_range(0u64..(1 << 14));
        let mut m = MemorySystem::new(tiny_cfg(false));
        let r1 = m.demand_access(Entity::Main, MemRef::anon(addr), 0);
        assert_eq!(r1.class, HitClass::TotalMiss);
        let r2 = m.demand_access(Entity::Main, MemRef::anon(addr), 1);
        assert!(matches!(r2.class, HitClass::PartialHit));
        assert!(
            r2.complete_at <= r1.complete_at + 64,
            "merged access cannot finish much later than the fill"
        );
    });
}

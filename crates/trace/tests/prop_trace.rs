//! Property tests: trace statistics and synthetic-stream guarantees.
//!
//! Deterministic randomized cases via `sp_testkit::check` (std-only; see
//! that crate for the replay workflow).

use sp_testkit::{check, gen_vec, SmallRng};
use sp_trace::{
    synth, AccessKind, CompiledTrace, HotLoopTrace, IterRecord, LevelGeometry, MemRef, SiteId,
    TraceGeometry,
};
use std::collections::HashSet;

fn arb_trace(rng: &mut SmallRng) -> HotLoopTrace {
    let mut t = HotLoopTrace::new("arb");
    let iters = rng.gen_range(0usize..50);
    for _ in 0..iters {
        let backbone = gen_vec(rng, 0..4, |r| MemRef::anon(r.gen_range(0u64..(1 << 20))));
        let inner = gen_vec(rng, 0..8, |r| MemRef::anon(r.gen_range(0u64..(1 << 20))));
        t.iters.push(IterRecord {
            backbone,
            inner,
            compute_cycles: rng.gen_range(0u64..100),
        });
    }
    t
}

/// A reference anywhere in the 64-bit address space (high bits
/// included), from any site, of any kind.
fn arb_wide_ref(rng: &mut SmallRng) -> MemRef {
    let kind = match rng.gen_range(0u32..3) {
        0 => AccessKind::Load,
        1 => AccessKind::Store,
        _ => AccessKind::Prefetch,
    };
    MemRef {
        vaddr: rng.next_u64(),
        site: SiteId(rng.next_u64() as u32),
        kind,
    }
}

fn arb_wide_trace(rng: &mut SmallRng) -> HotLoopTrace {
    let mut t = HotLoopTrace::new("wide");
    for _ in 0..rng.gen_range(0usize..30) {
        t.iters.push(IterRecord {
            backbone: gen_vec(rng, 0..4, arb_wide_ref),
            inner: gen_vec(rng, 0..8, arb_wide_ref),
            compute_cycles: rng.next_u64(),
        });
    }
    t
}

/// Independent power-of-two line sizes and set counts per level.
fn arb_geometry(rng: &mut SmallRng) -> TraceGeometry {
    let level = |r: &mut SmallRng| {
        LevelGeometry::new(1 << r.gen_range(0u32..13), 1 << r.gen_range(0u32..21))
    };
    TraceGeometry {
        l1: level(rng),
        l2: level(rng),
    }
}

/// `CompiledTrace::get` projects every reference exactly as the
/// per-level reference mapping does, for any geometry and address.
#[test]
fn compiled_get_matches_level_mapping() {
    check(64, |rng| {
        let t = arb_wide_trace(rng);
        let g = arb_geometry(rng);
        let c = CompiledTrace::compile(&t, g);
        assert_eq!(c.total_refs(), t.total_refs());
        for (i, (_, r)) in t.tagged_refs().enumerate() {
            let cr = c.get(i);
            assert_eq!(cr.mem_ref(), *r);
            assert_eq!(cr.block, g.l2.block_of(r.vaddr));
            assert_eq!(cr.l1_set as u64, g.l1.set_of(r.vaddr));
            assert_eq!(cr.l1_tag, g.l1.tag_of(r.vaddr));
            assert_eq!(cr.l2_set as u64, g.l2.set_of(r.vaddr));
            assert_eq!(cr.l2_tag, g.l2.tag_of(r.vaddr));
        }
    });
}

/// A compiled trace keeps at most 16 bytes per reference, plus the
/// per-iteration metadata (two `u32` and one `u64` per iteration, one
/// more `u32` range bound) and the name. A per-reference column added
/// back on top of the trace's own `vaddr`/`site`/`kind` breaks this.
#[test]
fn compiled_footprint_is_bounded_per_reference() {
    check(64, |rng| {
        let t = arb_wide_trace(rng);
        let c = CompiledTrace::compile(&t, arb_geometry(rng));
        let metadata = 16 * c.outer_iters() + 4 + c.name().len();
        assert!(
            c.heap_bytes() <= 16 * c.total_refs() + metadata,
            "{} bytes for {} refs over {} iterations",
            c.heap_bytes(),
            c.total_refs(),
            c.outer_iters()
        );
    });
}

/// Stats are internally consistent for arbitrary traces.
#[test]
fn stats_consistency() {
    check(64, |rng| {
        let t = arb_trace(rng);
        let line = 1u64 << rng.gen_range(5u32..9);
        let s = t.stats(line);
        assert_eq!(s.total_refs, t.total_refs());
        assert_eq!(s.backbone_refs + s.inner_refs, s.total_refs);
        assert_eq!(s.loads + s.stores, s.total_refs);
        assert!(s.unique_blocks <= s.total_refs);
        assert_eq!(s.footprint_bytes, s.unique_blocks as u64 * line);
        assert_eq!(s.outer_iters, t.outer_iters());
    });
}

/// Coarser lines never increase the distinct-block count.
#[test]
fn coarser_lines_merge_blocks() {
    check(64, |rng| {
        let t = arb_trace(rng);
        let fine = t.stats(64).unique_blocks;
        let coarse = t.stats(256).unique_blocks;
        assert!(coarse <= fine);
    });
}

/// `tagged_refs` yields exactly the trace's references in iteration
/// order with non-decreasing tags.
#[test]
fn tagged_refs_in_order() {
    check(64, |rng| {
        let t = arb_trace(rng);
        let mut count = 0usize;
        let mut last_tag = 0u32;
        for (tag, _) in t.tagged_refs() {
            assert!(tag >= last_tag);
            assert!((tag as usize) < t.outer_iters());
            last_tag = tag;
            count += 1;
        }
        assert_eq!(count, t.total_refs());
    });
}

/// Truncation takes an exact prefix.
#[test]
fn truncation_is_prefix() {
    check(64, |rng| {
        let t = arb_trace(rng);
        let n = rng.gen_range(0usize..60);
        let p = t.truncated(n);
        assert_eq!(p.outer_iters(), n.min(t.outer_iters()));
        for (a, b) in p.iters.iter().zip(&t.iters) {
            assert_eq!(a, b);
        }
    });
}

/// `set_hammer` delivers exactly `iters * blocks_per_iter` distinct
/// blocks, all mapped to the requested set.
#[test]
fn set_hammer_guarantees() {
    check(64, |rng| {
        let iters = rng.gen_range(1usize..40);
        let bpi = rng.gen_range(1usize..6);
        let sets = 1u64 << rng.gen_range(3u32..9);
        let set = (1u64 << rng.gen_range(0u32..8)).min(sets - 1);
        let t = synth::set_hammer(iters, bpi, set, sets, 64);
        let mut blocks = HashSet::new();
        for (_, r) in t.tagged_refs() {
            assert_eq!((r.block(64) / 64) % sets, set);
            assert!(blocks.insert(r.block(64)));
        }
        assert_eq!(blocks.len(), iters * bpi);
    });
}

/// `pointer_chase` visits each node exactly once, whatever the seed.
#[test]
fn pointer_chase_is_a_permutation() {
    check(64, |rng| {
        let n = rng.gen_range(1usize..200);
        let seed = rng.gen_range(0u64..1000);
        let t = synth::pointer_chase(n, 64, seed, 0);
        let mut seen = HashSet::new();
        for (_, r) in t.tagged_refs() {
            assert!(r.vaddr % 64 == 0);
            assert!(seen.insert(r.vaddr / 64));
        }
        assert_eq!(seen.len(), n);
    });
}

/// `sequential` produces strictly increasing addresses at the stride.
#[test]
fn sequential_is_monotone() {
    check(64, |rng| {
        let iters = rng.gen_range(1usize..50);
        let rpi = rng.gen_range(1usize..8);
        let stride = 1u64 << rng.gen_range(3u32..8);
        let t = synth::sequential(iters, rpi, 1 << 30, stride, 0);
        let addrs: Vec<u64> = t.tagged_refs().map(|(_, r)| r.vaddr).collect();
        for w in addrs.windows(2) {
            assert_eq!(w[1] - w[0], stride);
        }
    });
}

mod codec_props {
    use super::*;
    use sp_trace::codec::{read_trace, write_trace};

    /// Serialization roundtrips exactly for arbitrary traces.
    #[test]
    fn codec_roundtrip() {
        check(64, |rng| {
            let t = arb_trace(rng);
            let mut buf = Vec::new();
            write_trace(&t, &mut buf).unwrap();
            let back = read_trace(&mut buf.as_slice()).unwrap();
            assert_eq!(back.iters, t.iters);
            assert_eq!(back.name, t.name);
        });
    }

    /// Corrupting any single byte never panics — it either still parses
    /// (the flipped bit may land in an address delta) or errors cleanly.
    #[test]
    fn corruption_never_panics() {
        check(64, |rng| {
            let t = arb_trace(rng);
            let pos_seed = rng.gen_range(0usize..10_000);
            let flip = rng.gen_range(1u32..255) as u8;
            let mut buf = Vec::new();
            write_trace(&t, &mut buf).unwrap();
            if buf.len() > 5 {
                let pos = 5 + pos_seed % (buf.len() - 5);
                buf[pos] ^= flip;
                let _ = read_trace(&mut buf.as_slice()); // must not panic
            }
        });
    }
}

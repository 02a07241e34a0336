//! Property tests: the run summary and the epoch recorder share one
//! lifecycle fold, so the epoch windows are an exact partition of the
//! summary's counts.
//!
//! Generated event and demand-tick streams — fills and first uses
//! straddling window boundaries, late first uses (no fill seen),
//! evictions of filled and never-filled blocks — go through a
//! `SummarySink` and an `EpochSink` at a random epoch length.
//! Deterministic randomized cases via `sp_testkit::check` (std-only).

use sp_cachesim::{
    Entity, EpochSink, Event, EventSink, FillOrigin, HitClass, Lifecycle, PfClass, PollutionCase,
    SummarySink,
};
use sp_testkit::{check, gen_vec, SmallRng};

const THRESHOLD: u64 = 100;

/// One step of a generated stream: an event, or a demand tick of the
/// given entity.
#[derive(Debug, Clone, Copy)]
enum Step {
    Emit(Event),
    Tick(Entity),
}

fn pick<T: Copy>(r: &mut SmallRng, xs: &[T]) -> T {
    xs[r.gen_range(0..xs.len())]
}

/// A stream over a small block pool (so fills, uses and evictions of the
/// same block collide) with time gaps on both sides of the early
/// threshold.
fn stream(r: &mut SmallRng) -> Vec<Step> {
    let mut at = 0u64;
    gen_vec(r, 0..400, |r| {
        at += r.gen_range(0u64..2 * THRESHOLD);
        let class = pick(r, &PfClass::ALL);
        let block = 64 * r.gen_range(0u64..12);
        let set = r.gen_range(0u32..48);
        match r.gen_range(0u32..9) {
            0 => Step::Emit(Event::PrefetchIssued { class, block, at }),
            1 => Step::Emit(Event::PrefetchFilled {
                class,
                block,
                set,
                at,
            }),
            2 => Step::Emit(Event::PrefetchFirstUse {
                class,
                block,
                set,
                at,
            }),
            3 => Step::Emit(Event::PrefetchEvictedUnused {
                class,
                block,
                set,
                at,
            }),
            4 => Step::Emit(Event::PollutionEviction {
                case: pick(r, &PollutionCase::ALL),
                block,
                set,
                at,
            }),
            5 => Step::Emit(Event::L2Fill {
                origin: pick(r, &FillOrigin::ALL),
                victim: r.gen_bool(0.5).then(|| pick(r, &FillOrigin::ALL)),
                set,
                at,
            }),
            6 => Step::Tick(Entity::Helper),
            _ => Step::Tick(Entity::Main),
        }
    })
}

fn feed<S: EventSink>(sink: &mut S, steps: &[Step]) {
    for (i, step) in steps.iter().enumerate() {
        match *step {
            Step::Emit(ev) => sink.emit(ev),
            Step::Tick(entity) => sink.demand_tick(entity, HitClass::TotalHit, 0, 1, i as u64),
        }
    }
}

#[test]
fn epoch_windows_partition_the_summary_lifecycle() {
    check(256, |rng| {
        let steps = stream(rng);
        let epoch_len = rng.gen_range(1u64..24);
        let mut summary = SummarySink::new(THRESHOLD);
        let mut epochs = EpochSink::new(epoch_len, THRESHOLD);
        feed(&mut summary, &steps);
        feed(&mut epochs, &steps);

        // Both sinks carry the same pending fills out of the stream.
        assert_eq!(epochs.unresolved(), summary.summary.unresolved());

        let series = epochs.finish();
        let mut sum = Lifecycle::default();
        for w in &series.epochs {
            sum.add(&w.lifecycle);
        }
        // Every slot, filled, evicted_unused and timeliness included.
        assert_eq!(&sum, summary.summary.lifecycle());
        assert_eq!(series.totals().lifecycle, sum);

        let main_refs = steps
            .iter()
            .filter(|s| matches!(s, Step::Tick(Entity::Main)))
            .count() as u64;
        assert_eq!(series.totals().refs, main_refs);
        if let Some((last, full)) = series.epochs.split_last() {
            for w in full {
                assert_eq!(w.refs, epoch_len, "only the last window is partial");
            }
            assert!(last.refs <= epoch_len);
        }
    });
}

//! Event-level observability: the prefetch lifecycle / eviction
//! attribution trace behind `spt events` and the serve-side metrics
//! surface.
//!
//! # Design
//!
//! The hot paths of [`crate::hierarchy::MemorySystem`] are generic over
//! an [`EventSink`]; every emission site is guarded by the sink's
//! associated `const ENABLED`, so the default [`NullSink`]
//! instantiation monomorphizes to *exactly* the code that existed
//! before events — no trait objects, no branches, no dead stores. The
//! `spt bench` suite runs the `NullSink` path and is checked against
//! the committed baseline, which is the enforcement of that guarantee.
//!
//! # Taxonomy
//!
//! Prefetch lifecycle (per prefetched block):
//!
//! ```text
//! Issued ──► Filled ──► FirstUse          (useful; late/on-time/early)
//!                  └──► EvictedUnused     (dead prefetch)
//! ```
//!
//! A `FirstUse` *without* a preceding `Filled` is the late-prefetch
//! signature: the main thread demanded the block while its fill was
//! still in flight (the paper's *partially cache hit*).
//!
//! Eviction attribution mirrors the paper's three displacement cases
//! (§II.C) one-to-one with the [`crate::stats::PollutionStats`]
//! counters: every counter increment has exactly one matching
//! [`Event::PollutionEviction`] emission, so folding a run's event
//! stream reproduces its aggregate pollution statistics *exactly*
//! (asserted by `tests/events_differential.rs`).
//!
//! [`Event::L2Fill`] carries the per-set pressure signal: which origin
//! (demand / helper prefetch / hardware prefetch) filled which set, and
//! whose line it displaced — enough to reconstruct occupancy-by-origin
//! and distinct-fill churn per set, making Set Affinity observable at
//! runtime instead of only profiled.
//!
//! # One fold
//!
//! [`LifecycleFold::absorb`] is the only code that turns the stream
//! into lifecycle counts (a [`Lifecycle`] block). [`SummarySink`] and
//! [`RingSink`] embed it through [`EventSummary`], which adds per-set
//! pressure; the epoch recorder ([`crate::epoch::EpochSink`]) embeds it
//! too and cuts its windows as [`Lifecycle::delta`]s of the running
//! counts. [`Lifecycle::agrees_with`] is the one fold-equals-counters
//! check against [`MemStats`].

use crate::clock::{Cycle, LatencyConfig};
use crate::stats::{Entity, HitClass, MemStats, PollutionStats};
use sp_trace::VAddr;
use std::collections::{HashMap, VecDeque};

/// The `ALL` / `index` / `name` trio of a label enum. `ALL` lists the
/// variants in declaration order, so `index` (the discriminant) is both
/// the position in `ALL` and the slot in every counter array the enum
/// indexes; `name` is the wire and Prometheus label spelling.
macro_rules! labels {
    ($t:ident: $($v:ident => $name:literal),+ $(,)?) => {
        impl $t {
            /// Every value, in index order.
            pub const ALL: [$t; [$($name),+].len()] = [$($t::$v),+];

            /// Slot in the counter arrays this enum indexes.
            pub fn index(self) -> usize {
                self as usize
            }

            /// Wire/label spelling.
            pub fn name(self) -> &'static str {
                match self {
                    $($t::$v => $name),+
                }
            }
        }
    };
}

/// Software/hardware prefetch class, indexing the same
/// `[helper, stream, dpl, pchase, perceptron]` arrays as
/// [`crate::stats::MemStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfClass {
    /// Helper-thread software prefetch (including speculative backbone
    /// loads).
    Helper,
    /// Hardware streaming prefetcher.
    Stream,
    /// Hardware DPL (stride) prefetcher.
    Dpl,
    /// Pointer-chase (content-directed) prefetcher.
    Pchase,
    /// Perceptron-gated stride prefetcher.
    Perceptron,
}

impl PfClass {
    /// The class of a prefetching entity (`None` for the main thread).
    pub fn of(e: Entity) -> Option<PfClass> {
        match e {
            Entity::Main => None,
            Entity::Helper => Some(PfClass::Helper),
            Entity::HwStream(_) => Some(PfClass::Stream),
            Entity::HwDpl(_) => Some(PfClass::Dpl),
            Entity::HwPchase(_) => Some(PfClass::Pchase),
            Entity::HwPerceptron(_) => Some(PfClass::Perceptron),
        }
    }
}

labels!(PfClass: Helper => "helper", Stream => "stream", Dpl => "dpl", Pchase => "pchase",
    Perceptron => "perceptron");

/// Provenance of an L2 line: who brought it in, and was it demanded or
/// speculative. This is the per-set occupancy taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillOrigin {
    /// A demand fill (main thread, or a prefetch a demand merged into —
    /// the line holds demanded data either way).
    Demand,
    /// A still-speculative helper-thread prefetch fill.
    Helper,
    /// A still-speculative hardware-prefetcher fill.
    Hw,
}

impl FillOrigin {
    /// Classify a fill by its filler entity and speculation flag.
    pub fn of(filler: Entity, prefetched: bool) -> FillOrigin {
        if !prefetched {
            FillOrigin::Demand
        } else if filler == Entity::Helper {
            FillOrigin::Helper
        } else {
            FillOrigin::Hw
        }
    }
}

labels!(FillOrigin: Demand => "demand", Helper => "helper", Hw => "hw");

/// The paper's three pollution displacement cases (§II.C), aligned with
/// the [`PollutionStats`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollutionCase {
    /// Case 1: a prefetch displaced demanded data the main thread later
    /// re-missed on (attributed lazily, at the re-miss).
    Reuse,
    /// Case 2: a prefetch displaced a not-yet-used helper-prefetched
    /// block.
    UnusedHelper,
    /// Case 3: a prefetch displaced a not-yet-used hardware-prefetched
    /// block.
    UnusedHw,
}

labels!(PollutionCase: Reuse => "reuse", UnusedHelper => "unused_helper", UnusedHw => "unused_hw");

/// One observability event. Events are raw observations — timeliness
/// and per-set pressure are *derived* by [`LifecycleFold::absorb`] and
/// [`EventSummary::absorb`], so the stream itself stays cheap to emit
/// and encode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A prefetch was issued (whether or not it leads to a fill; dropped
    /// prefetches — already cached, in flight, MSHR full — issue but
    /// never fill). Mirrors `prefetches_issued`.
    PrefetchIssued {
        /// Issuing class.
        class: PfClass,
        /// Target block address.
        block: VAddr,
        /// Issue time.
        at: Cycle,
    },
    /// A speculative fill landed in the L2. Mirrors prefetch-flagged
    /// L2 installs.
    PrefetchFilled {
        /// Filling class.
        class: PfClass,
        /// Block address.
        block: VAddr,
        /// L2 set index.
        set: u32,
        /// Fill completion time (`u64::MAX` for fills drained at end of
        /// run, after the last access).
        at: Cycle,
    },
    /// First main-thread demand touch of a prefetched block. Mirrors
    /// `prefetches_useful`. Emitted with no preceding
    /// [`Event::PrefetchFilled`] when the fill was still in flight —
    /// the *late* prefetch signature.
    PrefetchFirstUse {
        /// Class of the prefetch being used.
        class: PfClass,
        /// Block address.
        block: VAddr,
        /// L2 set index.
        set: u32,
        /// Demand-touch time.
        at: Cycle,
    },
    /// A prefetched block was evicted without ever being demanded.
    /// Mirrors `dead_prefetches`.
    PrefetchEvictedUnused {
        /// Class of the dead prefetch.
        class: PfClass,
        /// Block address.
        block: VAddr,
        /// L2 set index.
        set: u32,
        /// Eviction time.
        at: Cycle,
    },
    /// One pollution displacement event, per the paper's three cases.
    /// Mirrors the [`PollutionStats`] case counters exactly. Case 1 is
    /// emitted at the main thread's re-miss (when the pollution is
    /// *detected*), cases 2 and 3 at the eviction itself.
    PollutionEviction {
        /// Which displacement case.
        case: PollutionCase,
        /// The victim block.
        block: VAddr,
        /// Its L2 set index.
        set: u32,
        /// Detection time.
        at: Cycle,
    },
    /// Any L2 fill, with origin and victim provenance — the per-set
    /// pressure signal. Mirrors `l2_fills`.
    L2Fill {
        /// Origin of the incoming line.
        origin: FillOrigin,
        /// Origin of the displaced line, if a valid line was evicted.
        victim: Option<FillOrigin>,
        /// L2 set index.
        set: u32,
        /// Fill time (`u64::MAX` for end-of-run drains).
        at: Cycle,
    },
}

impl Event {
    /// Encode as one NDJSON line (no trailing newline).
    pub fn ndjson(&self) -> String {
        match *self {
            Event::PrefetchIssued { class, block, at } => format!(
                "{{\"ev\":\"prefetch_issued\",\"class\":\"{}\",\"block\":{block},\"at\":{at}}}",
                class.name()
            ),
            Event::PrefetchFilled {
                class,
                block,
                set,
                at,
            } => format!(
                "{{\"ev\":\"prefetch_filled\",\"class\":\"{}\",\"block\":{block},\"set\":{set},\"at\":{at}}}",
                class.name()
            ),
            Event::PrefetchFirstUse {
                class,
                block,
                set,
                at,
            } => format!(
                "{{\"ev\":\"prefetch_first_use\",\"class\":\"{}\",\"block\":{block},\"set\":{set},\"at\":{at}}}",
                class.name()
            ),
            Event::PrefetchEvictedUnused {
                class,
                block,
                set,
                at,
            } => format!(
                "{{\"ev\":\"prefetch_evicted_unused\",\"class\":\"{}\",\"block\":{block},\"set\":{set},\"at\":{at}}}",
                class.name()
            ),
            Event::PollutionEviction {
                case,
                block,
                set,
                at,
            } => format!(
                "{{\"ev\":\"pollution\",\"case\":\"{}\",\"block\":{block},\"set\":{set},\"at\":{at}}}",
                case.name()
            ),
            Event::L2Fill {
                origin,
                victim,
                set,
                at,
            } => {
                let victim = match victim {
                    Some(v) => format!("\"{}\"", v.name()),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"ev\":\"l2_fill\",\"origin\":\"{}\",\"victim\":{victim},\"set\":{set},\"at\":{at}}}",
                    origin.name()
                )
            }
        }
    }
}

/// Where the memory system sends its events.
///
/// The contract that makes events free when disabled: every emission
/// site in the hot path is written `if S::ENABLED { sink.emit(..) }`,
/// so a sink with `ENABLED = false` compiles the entire event layer —
/// including the argument construction — out of the monomorphized
/// code. Implementations with `ENABLED = true` receive every event in
/// simulation order.
pub trait EventSink {
    /// Whether this sink observes anything. Emission sites are guarded
    /// by this constant, so `false` means zero overhead, not "called
    /// and ignored".
    const ENABLED: bool;

    /// Whether this sink also wants one [`EventSink::demand_tick`] per
    /// completed access. Separate from `ENABLED` so the existing
    /// event-stream sinks keep their exact behaviour (and cost): only
    /// sinks that opt in — the epoch recorder — pay for the tick, and
    /// the `false` default compiles the call sites out exactly like
    /// `ENABLED` does for `emit`.
    const DEMAND_TICKS: bool = false;

    /// Receive one event.
    fn emit(&mut self, ev: Event);

    /// Observe one completed access: who issued it, its hit class, the
    /// L2 set it indexed, the issuing core's MSHR occupancy at
    /// completion, and the access time. This is the epoch recorder's
    /// reference clock — demand-tick count, not cycles, advances epoch
    /// windows, so a window means "the next N references" at any
    /// distance. Default: ignored (see [`EventSink::DEMAND_TICKS`]).
    #[inline(always)]
    fn demand_tick(
        &mut self,
        _entity: Entity,
        _class: HitClass,
        _set: u32,
        _mshr: usize,
        _at: Cycle,
    ) {
    }
}

/// The default sink: observes nothing, costs nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _ev: Event) {}
}

/// Fold-only sink: maintains an [`EventSummary`] without storing the
/// stream. The sweep harness uses this, so a whole distance grid costs
/// one summary per point instead of one event log per point.
#[derive(Debug, Clone, PartialEq)]
pub struct SummarySink {
    /// The running fold.
    pub summary: EventSummary,
}

impl SummarySink {
    /// A sink folding with the given early-use threshold (see
    /// [`EventSummary::new`]).
    pub fn new(early_threshold: Cycle) -> SummarySink {
        SummarySink {
            summary: EventSummary::new(early_threshold),
        }
    }
}

impl EventSink for SummarySink {
    const ENABLED: bool = true;

    #[inline]
    fn emit(&mut self, ev: Event) {
        self.summary.absorb(&ev);
    }
}

/// Ring-buffer sink: stores the most recent `capacity` events (or every
/// event when unbounded) plus the running summary. `spt events` uses
/// the unbounded form to export NDJSON.
#[derive(Debug, Clone, PartialEq)]
pub struct RingSink {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
    /// The running fold over *all* events, including dropped ones.
    pub summary: EventSummary,
}

impl RingSink {
    /// A ring keeping the last `capacity` events (`0` = unbounded).
    pub fn new(capacity: usize, early_threshold: Cycle) -> RingSink {
        RingSink {
            events: VecDeque::new(),
            capacity,
            dropped: 0,
            summary: EventSummary::new(early_threshold),
        }
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped from the front of a bounded ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Encode the buffered events as NDJSON (one event per line,
    /// trailing newline included when non-empty).
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.ndjson());
            out.push('\n');
        }
        out
    }
}

impl EventSink for RingSink {
    const ENABLED: bool = true;

    fn emit(&mut self, ev: Event) {
        self.summary.absorb(&ev);
        if self.capacity > 0 && self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

/// Per-set pressure counters derived from the fill/eviction stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetPressure {
    /// Fills into this set by origin `[demand, helper, hw]` — the
    /// distinct-fill churn of the set.
    pub fills: [u64; 3],
    /// Net lines currently resident by origin (fills minus evictions);
    /// at end of run this is the set's occupancy-by-origin.
    pub occupancy: [i64; 3],
    /// Pollution events attributed to this set, by case.
    pub pollution: [u64; 3],
    /// Never-used prefetches evicted from this set.
    pub evicted_unused: u64,
}

impl SetPressure {
    /// Total fills into the set (all origins).
    pub fn total_fills(&self) -> u64 {
        self.fills.iter().sum()
    }
}

/// One row of the pollution-by-set-quartile table: sets ranked by fill
/// pressure and split into four contiguous groups, hottest first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuartileRow {
    /// Sets in this quartile.
    pub sets: usize,
    /// Fills across the quartile's sets.
    pub fills: u64,
    /// Pollution events by case.
    pub pollution: [u64; 3],
    /// Dead prefetches evicted from the quartile's sets.
    pub evicted_unused: u64,
}

/// Prefetch timeliness, classified at first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timeliness {
    /// First use arrived before the fill completed (partial hit): part
    /// of the memory latency was exposed.
    Late,
    /// Fill completed before first use, within the early threshold.
    OnTime,
    /// The block sat unused past the early threshold before its first
    /// use — at risk of eviction the whole time.
    Early,
}

labels!(Timeliness: Late => "late", OnTime => "on_time", Early => "early");

/// The default early-use threshold: a prefetch that sits unused for
/// more than eight memory latencies is classified *early*.
pub fn default_early_threshold(lat: &LatencyConfig) -> Cycle {
    lat.mem.saturating_mul(8)
}

/// The prefetch-lifecycle counter block: issued → filled → first use
/// or dead, per [`PfClass`], the paper's three displacement cases per
/// [`PollutionCase`], and first-use timeliness per [`Timeliness`].
///
/// This is the one counter layout every lifecycle surface reports: the
/// run summary, each epoch window (a [`Lifecycle::delta`] of two
/// snapshots of one [`LifecycleFold`]), and the daemon's totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lifecycle {
    /// Prefetches issued, by class.
    pub issued: [u64; 5],
    /// Speculative L2 fills, by class.
    pub filled: [u64; 5],
    /// First main-thread uses, by class (the useful prefetches).
    pub first_uses: [u64; 5],
    /// Never-used prefetches evicted, by class.
    pub evicted_unused: [u64; 5],
    /// Pollution events, by [`PollutionCase`].
    pub pollution: [u64; 3],
    /// First uses, by [`Timeliness`].
    pub timeliness: [u64; 3],
}

impl Lifecycle {
    /// Number of counters in the block (see [`Lifecycle::slots`]).
    pub const SLOTS: usize = 4 * 5 + 3 + 3;

    /// Every counter, in field order.
    pub fn slots(&self) -> impl Iterator<Item = u64> + '_ {
        [
            &self.issued[..],
            &self.filled,
            &self.first_uses,
            &self.evicted_unused,
            &self.pollution,
            &self.timeliness,
        ]
        .into_iter()
        .flatten()
        .copied()
    }

    /// Every counter, mutably, in the order of [`Lifecycle::slots`].
    pub fn slots_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        [
            &mut self.issued[..],
            &mut self.filled,
            &mut self.first_uses,
            &mut self.evicted_unused,
            &mut self.pollution,
            &mut self.timeliness,
        ]
        .into_iter()
        .flatten()
    }

    /// Add `other` counter-by-counter.
    pub fn add(&mut self, other: &Lifecycle) {
        for (a, b) in self.slots_mut().zip(other.slots()) {
            *a += b;
        }
    }

    /// The counts accumulated since the `earlier` snapshot of the same
    /// running fold.
    pub fn delta(&self, earlier: &Lifecycle) -> Lifecycle {
        let mut d = *self;
        for (a, b) in d.slots_mut().zip(earlier.slots()) {
            *a -= b;
        }
        d
    }

    /// The aggregate [`PollutionStats`] these counts fold to. Must equal
    /// the simulator's own counters exactly — events are a refinement of
    /// the aggregates, not a second truth.
    pub fn pollution_stats(&self) -> PollutionStats {
        PollutionStats {
            reuse_evictions: self.pollution[PollutionCase::Reuse.index()],
            unused_helper_evictions: self.pollution[PollutionCase::UnusedHelper.index()],
            unused_hw_evictions: self.pollution[PollutionCase::UnusedHw.index()],
            dead_prefetches: self.evicted_unused.iter().sum(),
        }
    }

    /// Useful-prefetch ratio for a class (0.0 when none issued), same
    /// definition as `MemStats::prefetch_accuracy`.
    pub fn accuracy(&self, class: PfClass) -> f64 {
        let i = class.index();
        if self.issued[i] == 0 {
            0.0
        } else {
            self.first_uses[i] as f64 / self.issued[i] as f64
        }
    }

    /// Total pollution events across the three cases.
    pub fn total_pollution(&self) -> u64 {
        self.pollution.iter().sum()
    }

    /// The fold-equals-counters check: issued and first-use counts equal
    /// the run's prefetch counters, the three displacement cases and the
    /// dead-prefetch count equal its [`PollutionStats`], and timeliness
    /// partitions the first uses. `Err` names the first slot that drifts.
    pub fn agrees_with(&self, stats: &MemStats) -> Result<(), String> {
        let uses: u64 = self.first_uses.iter().sum();
        let checks = [
            ("issued", self.issued == stats.prefetches_issued),
            ("first uses", self.first_uses == stats.prefetches_useful),
            ("pollution", self.pollution_stats() == stats.pollution),
            ("timeliness", self.timeliness.iter().sum::<u64>() == uses),
        ];
        match checks.iter().find(|(_, ok)| !ok) {
            None => Ok(()),
            Some((slot, _)) => Err(format!("{slot} drifts: folded {self:?}, counted {stats:?}")),
        }
    }
}

/// The one fold of the lifecycle stream into a [`Lifecycle`]. It keeps
/// the speculatively filled blocks awaiting first use, so a first use
/// classifies as late (no fill seen), on time, or early (idle past
/// `early_threshold`) however far apart the fill and the use are.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleFold {
    /// First-use deltas above this are classified [`Timeliness::Early`].
    pub early_threshold: Cycle,
    /// The running counts.
    pub counts: Lifecycle,
    /// Blocks filled speculatively and neither used nor evicted yet.
    pending: HashMap<VAddr, Cycle>,
}

impl LifecycleFold {
    /// An empty fold classifying first-use deltas against
    /// `early_threshold` (see [`default_early_threshold`]).
    pub fn new(early_threshold: Cycle) -> LifecycleFold {
        LifecycleFold {
            early_threshold,
            counts: Lifecycle::default(),
            pending: HashMap::new(),
        }
    }

    /// Fold one event in ([`Event::L2Fill`] carries no lifecycle slot).
    pub fn absorb(&mut self, ev: &Event) {
        let c = &mut self.counts;
        match *ev {
            Event::PrefetchIssued { class, .. } => c.issued[class.index()] += 1,
            Event::PrefetchFilled {
                class, block, at, ..
            } => {
                c.filled[class.index()] += 1;
                self.pending.insert(block, at);
            }
            Event::PrefetchFirstUse {
                class, block, at, ..
            } => {
                c.first_uses[class.index()] += 1;
                let t = match self.pending.remove(&block) {
                    // No fill seen: the demand overtook the in-flight
                    // prefetch.
                    None => Timeliness::Late,
                    Some(fill_at) if at.saturating_sub(fill_at) > self.early_threshold => {
                        Timeliness::Early
                    }
                    Some(_) => Timeliness::OnTime,
                };
                c.timeliness[t.index()] += 1;
            }
            Event::PrefetchEvictedUnused { class, block, .. } => {
                c.evicted_unused[class.index()] += 1;
                self.pending.remove(&block);
            }
            Event::PollutionEviction { case, .. } => c.pollution[case.index()] += 1,
            Event::L2Fill { .. } => {}
        }
    }

    /// Prefetched blocks still resident and unused (filled, never
    /// demanded, never evicted).
    pub fn unresolved(&self) -> usize {
        self.pending.len()
    }
}

/// A run's event summary: the [`LifecycleFold`] plus per-set pressure.
/// Equal streams fold to equal summaries (`PartialEq`), which is what
/// the `--jobs` determinism test pins.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSummary {
    fold: LifecycleFold,
    /// Per-set pressure, indexed by L2 set (grown to the highest set
    /// seen; untouched sets stay all-zero).
    pub per_set: Vec<SetPressure>,
}

impl EventSummary {
    /// An empty summary classifying first-use deltas against
    /// `early_threshold` (see [`default_early_threshold`]).
    pub fn new(early_threshold: Cycle) -> EventSummary {
        EventSummary {
            fold: LifecycleFold::new(early_threshold),
            per_set: Vec::new(),
        }
    }

    /// Fold one event in.
    pub fn absorb(&mut self, ev: &Event) {
        self.fold.absorb(ev);
        match *ev {
            Event::PrefetchEvictedUnused { set, .. } => self.set_mut(set).evicted_unused += 1,
            Event::PollutionEviction { case, set, .. } => {
                self.set_mut(set).pollution[case.index()] += 1
            }
            Event::L2Fill {
                origin,
                victim,
                set,
                ..
            } => {
                let p = self.set_mut(set);
                p.fills[origin.index()] += 1;
                p.occupancy[origin.index()] += 1;
                if let Some(v) = victim {
                    p.occupancy[v.index()] -= 1;
                }
            }
            _ => {}
        }
    }

    fn set_mut(&mut self, set: u32) -> &mut SetPressure {
        let i = set as usize;
        if i >= self.per_set.len() {
            self.per_set.resize(i + 1, SetPressure::default());
        }
        &mut self.per_set[i]
    }

    /// The lifecycle counts folded so far.
    pub fn lifecycle(&self) -> &Lifecycle {
        &self.fold.counts
    }

    /// Prefetched blocks still resident and unused at end of run
    /// (filled, never demanded, never evicted).
    pub fn unresolved(&self) -> usize {
        self.fold.unresolved()
    }

    /// Pollution by set quartile: touched sets ranked by fill pressure
    /// (hottest first, ties broken by set index for determinism) and
    /// split into four contiguous groups. Overflowed sets — the ones
    /// whose Set Affinity bounds the prefetch distance — land in Q1,
    /// so distances past `SA/2` show their pollution concentrating
    /// there.
    pub fn pollution_by_quartile(&self) -> [QuartileRow; 4] {
        // Every event that touches a set bumps one of its counters, so
        // the all-zero rows are exactly the untouched sets.
        let mut sets: Vec<&SetPressure> = self
            .per_set
            .iter()
            .filter(|p| **p != SetPressure::default())
            .collect();
        // Set-ascending input and a stable sort keep equal-pressure sets
        // in index order.
        sets.sort_by_key(|p| std::cmp::Reverse(p.total_fills()));
        let mut rows = [QuartileRow::default(); 4];
        if sets.is_empty() {
            return rows;
        }
        let chunk = sets.len().div_ceil(4);
        for (i, p) in sets.iter().enumerate() {
            let row = &mut rows[(i / chunk).min(3)];
            row.sets += 1;
            row.fills += p.total_fills();
            for c in 0..3 {
                row.pollution[c] += p.pollution[c];
            }
            row.evicted_unused += p.evicted_unused;
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> EventSummary {
        EventSummary::new(100)
    }

    #[test]
    fn lifecycle_fold_counts_and_classifies_timeliness() {
        let mut s = summary();
        // On-time: filled at 10, used at 50 (delta 40 <= 100).
        s.absorb(&Event::PrefetchIssued {
            class: PfClass::Helper,
            block: 0x40,
            at: 0,
        });
        s.absorb(&Event::PrefetchFilled {
            class: PfClass::Helper,
            block: 0x40,
            set: 1,
            at: 10,
        });
        s.absorb(&Event::PrefetchFirstUse {
            class: PfClass::Helper,
            block: 0x40,
            set: 1,
            at: 50,
        });
        // Early: filled at 10, used at 500.
        s.absorb(&Event::PrefetchFilled {
            class: PfClass::Stream,
            block: 0x80,
            set: 2,
            at: 10,
        });
        s.absorb(&Event::PrefetchFirstUse {
            class: PfClass::Stream,
            block: 0x80,
            set: 2,
            at: 500,
        });
        // Late: first use with no fill seen.
        s.absorb(&Event::PrefetchFirstUse {
            class: PfClass::Helper,
            block: 0xc0,
            set: 3,
            at: 60,
        });
        let l = s.lifecycle();
        assert_eq!(l.issued, [1, 0, 0, 0, 0]);
        assert_eq!(l.filled, [1, 1, 0, 0, 0]);
        assert_eq!(l.first_uses, [2, 1, 0, 0, 0]);
        assert_eq!(l.timeliness, [1, 1, 1], "late, on time, early");
        assert_eq!(s.unresolved(), 0);
        assert!((l.accuracy(PfClass::Helper) - 2.0).abs() < 1e-12);
        assert_eq!(l.accuracy(PfClass::Dpl), 0.0);
    }

    #[test]
    fn pollution_fold_reproduces_pollution_stats() {
        let mut s = summary();
        s.absorb(&Event::PollutionEviction {
            case: PollutionCase::Reuse,
            block: 0,
            set: 0,
            at: 1,
        });
        s.absorb(&Event::PollutionEviction {
            case: PollutionCase::UnusedHelper,
            block: 64,
            set: 0,
            at: 2,
        });
        s.absorb(&Event::PrefetchEvictedUnused {
            class: PfClass::Helper,
            block: 64,
            set: 0,
            at: 2,
        });
        let p = s.lifecycle().pollution_stats();
        assert_eq!(p.reuse_evictions, 1);
        assert_eq!(p.unused_helper_evictions, 1);
        assert_eq!(p.unused_hw_evictions, 0);
        assert_eq!(p.dead_prefetches, 1);
        assert_eq!(s.lifecycle().total_pollution(), 2);
    }

    #[test]
    fn per_set_pressure_tracks_fills_and_occupancy() {
        let mut s = summary();
        s.absorb(&Event::L2Fill {
            origin: FillOrigin::Helper,
            victim: None,
            set: 5,
            at: 1,
        });
        s.absorb(&Event::L2Fill {
            origin: FillOrigin::Demand,
            victim: Some(FillOrigin::Helper),
            set: 5,
            at: 2,
        });
        assert_eq!(s.per_set.len(), 6, "grown to the highest set seen");
        let p = &s.per_set[5];
        assert_eq!(p.fills, [1, 1, 0]);
        assert_eq!(p.occupancy, [1, 0, 0], "helper line displaced");
        assert_eq!(p.total_fills(), 2);
    }

    #[test]
    fn quartiles_rank_sets_by_fill_pressure() {
        let mut s = summary();
        // Sets 0..8 with descending pressure: set k gets 8-k fills.
        for set in 0u32..8 {
            for _ in 0..(8 - set) {
                s.absorb(&Event::L2Fill {
                    origin: FillOrigin::Demand,
                    victim: None,
                    set,
                    at: 0,
                });
            }
            s.absorb(&Event::PollutionEviction {
                case: PollutionCase::Reuse,
                block: 0,
                set,
                at: 0,
            });
        }
        let q = s.pollution_by_quartile();
        assert_eq!(q.iter().map(|r| r.sets).sum::<usize>(), 8);
        assert_eq!(q[0].sets, 2);
        assert_eq!(q[0].fills, 8 + 7, "hottest two sets first");
        assert_eq!(q[3].fills, 2 + 1);
        assert_eq!(q.iter().map(|r| r.pollution[0]).sum::<u64>(), 8);
        // Empty summary: all zero rows.
        assert_eq!(
            summary().pollution_by_quartile(),
            [QuartileRow::default(); 4]
        );
    }

    #[test]
    fn ring_sink_bounds_and_drops_oldest() {
        let mut r = RingSink::new(2, 100);
        for i in 0..5u64 {
            r.emit(Event::PrefetchIssued {
                class: PfClass::Helper,
                block: i * 64,
                at: i,
            });
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        assert_eq!(
            r.summary.lifecycle().issued[0],
            5,
            "summary folds every event, dropped or not"
        );
        let blocks: Vec<VAddr> = r
            .events()
            .map(|e| match e {
                Event::PrefetchIssued { block, .. } => *block,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(blocks, vec![192, 256], "oldest dropped first");
    }

    #[test]
    fn ndjson_lines_are_valid_and_distinct() {
        let evs = [
            Event::PrefetchIssued {
                class: PfClass::Helper,
                block: 64,
                at: 1,
            },
            Event::PrefetchFilled {
                class: PfClass::Stream,
                block: 64,
                set: 3,
                at: 2,
            },
            Event::PrefetchFirstUse {
                class: PfClass::Dpl,
                block: 64,
                set: 3,
                at: 3,
            },
            Event::PrefetchEvictedUnused {
                class: PfClass::Helper,
                block: 64,
                set: 3,
                at: 4,
            },
            Event::PollutionEviction {
                case: PollutionCase::UnusedHw,
                block: 64,
                set: 3,
                at: 5,
            },
            Event::L2Fill {
                origin: FillOrigin::Hw,
                victim: Some(FillOrigin::Demand),
                set: 3,
                at: 6,
            },
            Event::L2Fill {
                origin: FillOrigin::Demand,
                victim: None,
                set: 3,
                at: 7,
            },
        ];
        let mut seen = std::collections::HashSet::new();
        for ev in &evs {
            let line = ev.ndjson();
            assert!(
                line.starts_with("{\"ev\":\"") && line.ends_with('}'),
                "{line}"
            );
            assert!(!line.contains('\n'));
            assert!(seen.insert(line.clone()), "duplicate encoding {line}");
        }
        assert!(evs[5].ndjson().contains("\"victim\":\"demand\""));
        assert!(evs[6].ndjson().contains("\"victim\":null"));
    }

    #[test]
    fn taxonomy_labels_and_indices_are_consistent() {
        for (i, c) in PfClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, o) in FillOrigin::ALL.iter().enumerate() {
            assert_eq!(o.index(), i);
        }
        for (i, c) in PollutionCase::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, t) in Timeliness::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
        }
        // PfClass::of maps each entity onto the MemStats prefetch arrays.
        assert_eq!(PfClass::of(Entity::Main), None);
        let index = |e| PfClass::of(e).map(PfClass::index);
        assert_eq!(index(Entity::Helper), Some(0));
        assert_eq!(index(Entity::HwStream(1)), Some(1));
        assert_eq!(index(Entity::HwDpl(0)), Some(2));
        assert_eq!(index(Entity::HwPchase(1)), Some(3));
        assert_eq!(index(Entity::HwPerceptron(0)), Some(4));
        assert_eq!(FillOrigin::of(Entity::HwDpl(0), true), FillOrigin::Hw);
        assert_eq!(FillOrigin::of(Entity::HwDpl(0), false), FillOrigin::Demand);
        assert_eq!(
            default_early_threshold(&LatencyConfig::default()),
            8 * LatencyConfig::default().mem
        );
    }
}

//! The traced run's span recorder. Spans are opened only by the
//! benchmark's own code, around calls into the crates' public
//! functions; the program itself records nothing. Records stay in
//! memory and are folded into per-layer self times when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Record {
    name: &'static str,
    dur_ns: u64,
    /// Time covered by direct child spans.
    child_ns: u64,
}

#[derive(Default)]
struct State {
    enabled: bool,
    /// Open spans: (record index, start).
    open: Vec<(usize, Instant)>,
    records: Vec<Record>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::default());
}

/// Turn recording on or off for this thread.
pub fn set_enabled(on: bool) {
    STATE.with(|s| s.borrow_mut().enabled = on);
}

/// Run `f` inside a span named `name` (a no-op wrapper when disabled).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = STATE.with(|s| {
        let mut s = s.borrow_mut();
        if !s.enabled {
            return false;
        }
        let idx = s.records.len();
        s.records.push(Record {
            name,
            dur_ns: 0,
            child_ns: 0,
        });
        s.open.push((idx, Instant::now()));
        true
    });
    let out = f();
    if opened {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            let (idx, start) = s.open.pop().expect("span stack balanced");
            let dur = start.elapsed().as_nanos() as u64;
            s.records[idx].dur_ns = dur;
            if let Some(&(parent, _)) = s.open.last() {
                s.records[parent].child_ns += dur;
            }
        });
    }
    out
}

/// Per-layer totals of the spans recorded so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Spans closed under this name.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time their child spans cover.
    pub self_ns: u64,
}

/// Fold this thread's closed spans by name.
pub fn layers() -> BTreeMap<&'static str, Layer> {
    STATE.with(|s| {
        let s = s.borrow();
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for r in &s.records {
            let l = out.entry(r.name).or_default();
            l.count += 1;
            l.total_ns += r.dur_ns;
            l.self_ns += r.dur_ns.saturating_sub(r.child_ns);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_spans_record_nothing() {
        span("ignored", || ());
        set_enabled(true);
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        set_enabled(false);
        let l = layers();
        assert!(!l.contains_key("ignored"));
        let (outer, inner) = (l["outer"], l["inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.self_ns >= 5_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }
}

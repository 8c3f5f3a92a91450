//! Sliding windows (`WITHIN w SLIDE s`, §2.3 and §7).
//!
//! Sliding windows partition the unbounded stream into overlapping finite
//! intervals. Window `k` (its [`WindowId`]) covers the half-open interval
//! `[k·s, k·s + w)`. An event with time stamp `t` belongs to every window
//! whose interval contains `t` — at most `ceil(w / s)` of them. Following
//! the paper (§7), each aggregate is maintained *per window id*, and a
//! window's result is final once the stream time passes the window's end.

use crate::event::Timestamp;
use std::fmt;

/// Identifier of one sliding-window instance: window `k` spans
/// `[k·slide, k·slide + within)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WindowId(pub u64);

impl fmt::Display for WindowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// A `WITHIN w SLIDE s` window specification.
///
/// ```
/// use cogra_events::{Timestamp, WindowSpec};
/// let spec = WindowSpec::new(10, 3); // WITHIN 10 SLIDE 3
/// let windows: Vec<u64> = spec.windows_of(Timestamp(9)).map(|w| w.0).collect();
/// assert_eq!(windows, vec![0, 1, 2, 3]); // [0,10) [3,13) [6,16) [9,19)
/// assert_eq!(spec.windows_per_event(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window length `w` in ticks (`WITHIN`).
    pub within: u64,
    /// Slide `s` in ticks (`SLIDE`). Must satisfy `0 < s <= w` for the
    /// stream to be fully covered; `s == w` gives tumbling windows.
    pub slide: u64,
}

impl WindowSpec {
    /// Create a window spec. Panics if `slide == 0` or `within == 0`
    /// (invalid static configuration).
    pub fn new(within: u64, slide: u64) -> Self {
        assert!(within > 0, "WITHIN must be positive");
        assert!(slide > 0, "SLIDE must be positive");
        WindowSpec { within, slide }
    }

    /// Maximum number of windows any single event can belong to.
    pub fn windows_per_event(&self) -> usize {
        (self.within.div_ceil(self.slide)) as usize
    }

    /// The window ids containing time `t`, in increasing order — the
    /// range of [`WindowSpec::span_at`].
    pub fn windows_of(&self, t: Timestamp) -> impl Iterator<Item = WindowId> {
        let span = self.span_at(t);
        (span.first..=span.last).map(WindowId)
    }

    /// The windows containing `t`, and the stretch of time around `t`
    /// that every one of them, and no other, contains.
    ///
    /// `k·s <= t < k·s + w  ⇔  (t − w)/s < k <= t/s` intersected with
    /// `k >= 0`. The set changes only where a window starts (the last id
    /// grows) or ends (the first id grows), so the span runs from the
    /// latest such boundary at or before `t` to the next one after it.
    pub fn span_at(&self, t: Timestamp) -> WindowSpan {
        let (t, w, s) = (t.ticks(), self.within, self.slide);
        let last = t / s;
        // first k with k*s > t - w, i.e. floor((t - w)/s) + 1
        let first = if t < w { 0 } else { (t - w) / s + 1 };
        // Window `first - 1` ended at or before `t`, window `last` started
        // at or before it; window `first` ends after it, window `last + 1`
        // starts after it. (Saturating: near `u64::MAX` a span may end at
        // `t` itself, and is then re-derived at every time.)
        let previous_end = first.checked_sub(1).map_or(0, |k| k * s + w);
        WindowSpan {
            from: (last * s).max(previous_end),
            until: (last + 1)
                .saturating_mul(s)
                .min(first.saturating_mul(s).saturating_add(w)),
            first,
            last,
        }
    }

    /// Start time of window `wid`.
    pub fn window_start(&self, wid: WindowId) -> Timestamp {
        Timestamp(wid.0 * self.slide)
    }

    /// Exclusive end time of window `wid`.
    pub fn window_end(&self, wid: WindowId) -> Timestamp {
        Timestamp(wid.0 * self.slide + self.within)
    }

    /// All windows whose interval ends at or before `watermark` are final:
    /// no event with time >= watermark can fall into them. Returns the
    /// largest window id that is *closed* at the given watermark, if any.
    pub fn last_closed(&self, watermark: Timestamp) -> Option<WindowId> {
        let t = watermark.ticks();
        if t < self.within {
            return None;
        }
        // window k closed ⇔ k*s + w <= t ⇔ k <= (t - w)/s
        Some(WindowId((t - self.within) / self.slide))
    }
}

/// The windows containing every time in `[from, until)` — from one
/// window boundary to the next ([`WindowSpec::span_at`]). An engine that
/// sees time only grow keeps the span of its last event and re-derives it
/// only when an event falls outside, so the range of an event's windows
/// costs two compares instead of two divisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpan {
    /// First time of the span.
    pub from: u64,
    /// First time past the span: the next window start or end after it.
    pub until: u64,
    /// First window id containing the span's times.
    pub first: u64,
    /// Last window id containing them (below `first` when there is none:
    /// a `SLIDE` longer than `WITHIN` leaves gaps).
    pub last: u64,
}

impl WindowSpan {
    /// The span of no time: whatever is looked up first re-derives it.
    pub const EMPTY: WindowSpan = WindowSpan {
        from: 0,
        until: 0,
        first: 1,
        last: 0,
    };

    /// Whether `t` lies in the span.
    #[inline]
    pub fn holds(&self, t: Timestamp) -> bool {
        (self.from..self.until).contains(&t.ticks())
    }

    /// The first and the last of the span's windows above the drain floor
    /// `drained` (the last window already closed; `None` when none is) —
    /// `None` when the floor is past them all.
    #[inline]
    pub fn above(&self, drained: Option<WindowId>) -> Option<(WindowId, WindowId)> {
        let first = match drained {
            None => self.first,
            Some(d) => self.first.max(d.0.checked_add(1)?),
        };
        (first <= self.last).then_some((WindowId(first), WindowId(self.last)))
    }
}

impl fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WITHIN {} SLIDE {}", self.within, self.slide)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(spec: &WindowSpec, t: u64) -> Vec<u64> {
        spec.windows_of(Timestamp(t)).map(|w| w.0).collect()
    }

    #[test]
    fn event_before_first_full_window() {
        let spec = WindowSpec::new(10, 3);
        assert_eq!(ids(&spec, 0), vec![0]);
        assert_eq!(ids(&spec, 2), vec![0]);
        assert_eq!(ids(&spec, 3), vec![0, 1]);
        assert_eq!(ids(&spec, 9), vec![0, 1, 2, 3]);
    }

    #[test]
    fn steady_state_overlap() {
        let spec = WindowSpec::new(10, 3);
        // t=10: windows k with 3k <= 10 < 3k+10 → k in {1,2,3}
        assert_eq!(ids(&spec, 10), vec![1, 2, 3]);
        assert_eq!(ids(&spec, 12), vec![1, 2, 3, 4]);
        assert!(ids(&spec, 100).len() <= spec.windows_per_event());
    }

    #[test]
    fn tumbling_window_single_membership() {
        let spec = WindowSpec::new(5, 5);
        for t in 0..50 {
            assert_eq!(ids(&spec, t).len(), 1, "t={t}");
            assert_eq!(ids(&spec, t)[0], t / 5);
        }
    }

    #[test]
    fn membership_is_consistent_with_interval() {
        let spec = WindowSpec::new(7, 2);
        for t in 0..100u64 {
            for k in 0..60u64 {
                let inside = k * 2 <= t && t < k * 2 + 7;
                let listed = ids(&spec, t).contains(&k);
                assert_eq!(inside, listed, "t={t} k={k}");
            }
        }
    }

    #[test]
    fn windows_per_event_bound() {
        assert_eq!(WindowSpec::new(10, 3).windows_per_event(), 4);
        assert_eq!(WindowSpec::new(10, 5).windows_per_event(), 2);
        assert_eq!(WindowSpec::new(10, 10).windows_per_event(), 1);
        assert_eq!(WindowSpec::new(600, 30).windows_per_event(), 20);
    }

    #[test]
    fn window_bounds() {
        let spec = WindowSpec::new(10, 3);
        assert_eq!(spec.window_start(WindowId(2)), Timestamp(6));
        assert_eq!(spec.window_end(WindowId(2)), Timestamp(16));
    }

    #[test]
    fn last_closed_watermark() {
        let spec = WindowSpec::new(10, 3);
        assert_eq!(spec.last_closed(Timestamp(9)), None);
        assert_eq!(spec.last_closed(Timestamp(10)), Some(WindowId(0)));
        assert_eq!(spec.last_closed(Timestamp(12)), Some(WindowId(0)));
        assert_eq!(spec.last_closed(Timestamp(13)), Some(WindowId(1)));
        // closed windows never reopen: every event at time >= watermark
        // falls only into windows with id > last_closed.
        let wm = Timestamp(22);
        let closed = spec.last_closed(wm).unwrap();
        for t in 22..60 {
            for w in ids(&spec, t) {
                assert!(w > closed.0);
            }
        }
    }

    #[test]
    fn a_span_is_the_stretch_between_window_boundaries() {
        for (w, s) in [(10, 3), (7, 2), (5, 5), (12, 4), (3, 5)] {
            let spec = WindowSpec::new(w, s);
            for t in 0..80u64 {
                let span = spec.span_at(Timestamp(t));
                assert!(span.holds(Timestamp(t)), "w={w} s={s} t={t}");
                let listed: Vec<u64> = (span.first..=span.last).collect();
                // Every time of the span has the same windows, and the
                // times just outside it do not.
                for u in span.from..span.until {
                    assert_eq!(ids(&spec, u), listed, "w={w} s={s} t={t} u={u}");
                }
                assert_ne!(ids(&spec, span.until), listed, "w={w} s={s} t={t}");
                if let Some(before) = span.from.checked_sub(1) {
                    assert_ne!(ids(&spec, before), listed, "w={w} s={s} t={t}");
                }
            }
        }
        assert!(!WindowSpan::EMPTY.holds(Timestamp(0)));
        let far = WindowSpec::new(10, 3).span_at(Timestamp(u64::MAX));
        assert_eq!(far.last, u64::MAX / 3);
    }

    #[test]
    fn the_open_range_starts_above_the_drain_floor() {
        let spec = WindowSpec::new(10, 3);
        let span = spec.span_at(Timestamp(12)); // windows 1..=4
        assert_eq!(span.above(None), Some((WindowId(1), WindowId(4))));
        assert_eq!(
            span.above(Some(WindowId(0))),
            Some((WindowId(1), WindowId(4)))
        );
        assert_eq!(
            span.above(Some(WindowId(2))),
            Some((WindowId(3), WindowId(4)))
        );
        assert_eq!(span.above(Some(WindowId(4))), None);
        assert_eq!(span.above(Some(WindowId(u64::MAX))), None);
        // A gap between windows holds none, whatever the floor.
        assert_eq!(
            WindowSpec::new(3, 5).span_at(Timestamp(4)).above(None),
            None
        );
    }

    #[test]
    #[should_panic(expected = "SLIDE must be positive")]
    fn zero_slide_rejected() {
        WindowSpec::new(10, 0);
    }
}

//! Bounded out-of-order buffering.
//!
//! The engines require time-ordered input (§2.1; the §8 time-driven
//! scheduler "waits till the processing of all transactions with smaller
//! time stamps is completed"). Real sources deliver events slightly
//! disordered; a reorderer implements the waiting: it buffers events and
//! releases them in time-stamp order once the watermark (maximum time
//! seen) has advanced `slack` ticks past them, guaranteeing in-order
//! delivery for any input whose disorder is bounded by `slack`. An event
//! arriving behind output that was already released is *late*: it is
//! dropped and counted (the watermark-slack contract of streaming
//! systems; this implementation drops only when emission would actually
//! violate order, which is the laziest correct policy).
//!
//! Two reorderers apply that contract, written apart on purpose so one
//! can be held to the other:
//! * [`Reorderer`] — the reference: a front buffer of whole events, each
//!   released as it is.
//! * [`ReorderBuffer`] — a session's one reorderer, in front of its route.
//!   Every admitted event moves the clock and holds back what may be
//!   released, but only the events some query wants carry a payload: an
//!   entry is `Some(item)` for those and `None` for the rest, in one heap
//!   of every admitted, unreleased event. The stream clock is the
//!   caller's, and an entry is ordered by the arrival stamp the caller
//!   gave it.

use crate::event::{Event, Timestamp};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Heap entry ordered by (time, arrival sequence) so equal-time items
/// keep their arrival order.
#[derive(Debug, Clone)]
struct Pending<T> {
    time: Timestamp,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A session's reorderer: one heap of every admitted, unreleased event,
/// ordered by (time, arrival stamp), holding a payload only for the
/// events that want one.
///
/// `released_to` is the largest time already released
/// (`max{t admitted : t <= watermark − slack}`), and an arriving event is
/// late exactly when its time is behind it — the rule [`Reorderer::push`]
/// applies, so both drop the same events of any stream.
#[derive(Debug, Clone)]
pub struct ReorderBuffer<T> {
    slack: u64,
    released_to: Timestamp,
    heap: BinaryHeap<Reverse<Pending<Option<T>>>>,
    late: u64,
}

impl<T> ReorderBuffer<T> {
    /// An empty buffer tolerating up to `slack` ticks of disorder.
    pub fn new(slack: u64) -> ReorderBuffer<T> {
        ReorderBuffer::from_parts(slack, Timestamp::ZERO, 0, Vec::new())
    }

    /// Offer an event at `time`, the `stamp`-th to arrive: `false` means
    /// it is late, dropped and counted. An admitted event waits until
    /// [`ReorderBuffer::release`] reaches it, holding `item()` — `None`
    /// for an event nothing is to be released for, which still holds
    /// back what may be released. `item` runs only for an admitted event.
    pub fn push(&mut self, time: Timestamp, stamp: u64, item: impl FnOnce() -> Option<T>) -> bool {
        if time < self.released_to {
            self.late += 1;
            return false;
        }
        let item = item();
        self.heap.push(Reverse(Pending {
            time,
            seq: stamp,
            item,
        }));
        true
    }

    /// The next `(stamp, item)` at or before `watermark − slack`, in
    /// (time, stamp) order; `None` once nothing more is due. Every entry
    /// it passes, payload or not, raises the safe watermark.
    pub fn release(&mut self, watermark: Timestamp) -> Option<(u64, T)> {
        self.pop(watermark.saturating_sub(self.slack), true)
    }

    /// End of stream: the next `(stamp, item)` of all still buffered, in
    /// order, whatever its time; `None` once the buffer is empty. The safe
    /// watermark stays where the stream left it.
    pub fn flush(&mut self) -> Option<(u64, T)> {
        self.pop(Timestamp(u64::MAX), false)
    }

    /// Pop entries at or before `up_to` until one carries an item;
    /// `raise`: each popped entry counts as released.
    fn pop(&mut self, up_to: Timestamp, raise: bool) -> Option<(u64, T)> {
        while self
            .heap
            .peek()
            .is_some_and(|Reverse(top)| top.time <= up_to)
        {
            let Reverse(Pending { time, seq, item }) = self.heap.pop().expect("peeked");
            if raise {
                self.released_to = self.released_to.max(time);
            }
            if let Some(item) = item {
                return Some((seq, item));
            }
        }
        None
    }

    /// The largest time stamp released: every admitted event at or before
    /// it has left the buffer, so results up to here are final once
    /// delivered — exactly the released output of a front [`Reorderer`].
    pub fn safe_watermark(&self) -> Timestamp {
        self.released_to
    }

    /// Number of events refused as too late.
    pub fn late_events(&self) -> u64 {
        self.late
    }

    /// The configured disorder tolerance in ticks.
    pub fn slack(&self) -> u64 {
        self.slack
    }

    /// Every buffered entry as `(time, stamp, item)`, in the (time, stamp)
    /// order the buffer releases them in — the checkpoint path serializes
    /// the buffer without draining it.
    pub fn ordered(&self) -> Vec<(Timestamp, u64, Option<&T>)> {
        let mut pending: Vec<&Pending<Option<T>>> = self.heap.iter().map(|Reverse(p)| p).collect();
        pending.sort_by_key(|p| (p.time, p.seq));
        (pending.into_iter())
            .map(|p| (p.time, p.seq, p.item.as_ref()))
            .collect()
    }

    /// Rebuild a buffer from checkpointed state ([`ReorderBuffer::slack`],
    /// [`ReorderBuffer::safe_watermark`], [`ReorderBuffer::late_events`],
    /// [`ReorderBuffer::ordered`]).
    pub fn from_parts(
        slack: u64,
        released_to: Timestamp,
        late: u64,
        entries: Vec<(Timestamp, u64, Option<T>)>,
    ) -> ReorderBuffer<T> {
        let heap = (entries.into_iter())
            .map(|(time, seq, item)| Reverse(Pending { time, seq, item }))
            .collect();
        ReorderBuffer {
            slack,
            released_to,
            heap,
            late,
        }
    }
}

/// Buffering reorderer with a fixed disorder bound — the reference the
/// session's [`ReorderBuffer`] is held to, with a drop rule and a heap of
/// its own.
///
/// ```
/// use cogra_events::{Event, Reorderer, TypeId};
/// let mut r = Reorderer::new(2);
/// let mut out = Vec::new();
/// for (id, t) in [(0, 3u64), (1, 1), (2, 2), (3, 5)] {
///     r.push(Event::new(id, t, TypeId(0), vec![]), &mut out);
/// }
/// r.flush(&mut out);
/// let times: Vec<u64> = out.iter().map(|e| e.time.ticks()).collect();
/// assert_eq!(times, vec![1, 2, 3, 5]);
/// ```
#[derive(Debug)]
pub struct Reorderer {
    slack: u64,
    watermark: Timestamp,
    released_to: Timestamp,
    heap: BinaryHeap<Reverse<Pending<Event>>>,
    arrivals: u64,
    late: u64,
}

impl Reorderer {
    /// A reorderer tolerating up to `slack` ticks of disorder.
    pub fn new(slack: u64) -> Reorderer {
        Reorderer {
            slack,
            watermark: Timestamp::ZERO,
            released_to: Timestamp::ZERO,
            heap: BinaryHeap::new(),
            arrivals: 0,
            late: 0,
        }
    }

    /// Offer one event; append any events now safe to deliver to `out`
    /// (in non-decreasing time order).
    pub fn push(&mut self, event: Event, out: &mut Vec<Event>) {
        if event.time < self.released_to {
            self.late += 1;
            return;
        }
        self.watermark = self.watermark.max(event.time);
        self.heap.push(Reverse(Pending {
            time: event.time,
            seq: self.arrivals,
            item: event,
        }));
        self.arrivals += 1;
        let safe = self.watermark.saturating_sub(self.slack);
        while self
            .heap
            .peek()
            .is_some_and(|Reverse(top)| top.time <= safe)
        {
            let Reverse(p) = self.heap.pop().expect("peeked");
            self.released_to = self.released_to.max(p.time);
            out.push(p.item);
        }
    }

    /// End of stream: release everything still buffered, in order.
    pub fn flush(&mut self, out: &mut Vec<Event>) {
        while let Some(Reverse(p)) = self.heap.pop() {
            self.released_to = self.released_to.max(p.time);
            out.push(p.item);
        }
    }

    /// Number of events dropped as too late.
    pub fn late_events(&self) -> u64 {
        self.late
    }

    /// Number of events currently buffered.
    pub fn buffered(&self) -> usize {
        self.heap.len()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TypeId;

    fn ev(id: u64, t: u64) -> Event {
        Event::new(id, t, TypeId(0), vec![])
    }

    fn run(slack: u64, times: &[u64]) -> (Vec<u64>, u64) {
        let mut r = Reorderer::new(slack);
        let mut out = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            r.push(ev(i as u64, t), &mut out);
        }
        r.flush(&mut out);
        (
            out.iter().map(|e| e.time.ticks()).collect(),
            r.late_events(),
        )
    }

    #[test]
    fn ordered_input_passes_through() {
        let (out, late) = run(2, &[1, 2, 3, 4, 5]);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert_eq!(late, 0);
    }

    #[test]
    fn bounded_disorder_is_repaired() {
        let (out, late) = run(3, &[3, 1, 2, 6, 4, 5, 9, 7, 8]);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(late, 0);
    }

    #[test]
    fn events_behind_released_output_are_dropped() {
        // 12 advances the watermark to 12 → 10 is released; the straggler
        // at 3 would have to be emitted after 10 and is late.
        let (out, late) = run(2, &[10, 12, 3]);
        assert_eq!(out, vec![10, 12]);
        assert_eq!(late, 1);
    }

    #[test]
    fn straggler_within_unreleased_range_is_kept() {
        // Nothing at or below time 3 was released yet, so a straggler at
        // 3 can still be emitted in order even though the watermark has
        // passed 3 + slack.
        let (out, late) = run(2, &[10, 3]);
        assert_eq!(out, vec![3, 10]);
        assert_eq!(late, 0);
    }

    #[test]
    fn equal_times_keep_arrival_order() {
        let mut r = Reorderer::new(0);
        let mut out = Vec::new();
        r.push(ev(0, 5), &mut out);
        r.push(ev(1, 5), &mut out);
        r.push(ev(2, 5), &mut out);
        r.flush(&mut out);
        let ids: Vec<u64> = out.iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn zero_slack_releases_eagerly() {
        let mut r = Reorderer::new(0);
        let mut out = Vec::new();
        r.push(ev(0, 1), &mut out);
        assert_eq!(out.len(), 1, "watermark == event time → immediately safe");
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn buffered_count_tracks_heap() {
        let mut r = Reorderer::new(10);
        let mut out = Vec::new();
        for t in [5, 3, 8] {
            r.push(ev(t, t), &mut out);
        }
        assert!(out.is_empty(), "nothing is 10 ticks behind yet");
        assert_eq!(r.buffered(), 3);
        r.push(ev(20, 20), &mut out);
        assert_eq!(
            out.iter().map(|e| e.time.ticks()).collect::<Vec<_>>(),
            vec![3, 5, 8]
        );
    }

    #[test]
    fn output_feeds_engine_validly() {
        // The released stream must satisfy the engines' ordering contract.
        let (out, _) = run(4, &[4, 1, 7, 2, 9, 5, 12, 8]);
        let events: Vec<Event> = out
            .iter()
            .enumerate()
            .map(|(i, &t)| ev(i as u64, t))
            .collect();
        assert!(crate::stream::validate_ordered(&events).is_ok());
    }

    #[test]
    fn gate_drop_decisions_match_a_front_reorderer() {
        // The session's buffer must reproduce the Reorderer's admissions
        // and released output exactly — per event, not just in total — on
        // adversarial time sequences, whichever events carry a payload.
        let sequences: &[&[u64]] = &[
            &[1, 2, 3, 4, 5],
            &[10, 12, 3],
            &[10, 3],
            &[3, 1, 2, 6, 4, 5, 9, 7, 8],
            &[100, 50, 100, 1, 99, 98, 101, 97, 2, 102],
            &[5, 5, 5, 1, 5, 9, 4, 9, 3],
            &[0, 0, 7, 0, 14, 7, 21, 0],
        ];
        let markings: [fn(u64) -> bool; 3] = [|_| true, |i| i % 2 == 0, |i| i % 3 == 1];
        for slack in [0u64, 1, 2, 3, 7, 100] {
            for &times in sequences {
                for wanted in markings {
                    let mut reorderer = Reorderer::new(slack);
                    let mut buffer = ReorderBuffer::new(slack);
                    let (mut out, mut released) = (Vec::new(), Vec::new());
                    let mut watermark = Timestamp::ZERO;
                    for (i, &t) in times.iter().enumerate() {
                        let i = i as u64;
                        let before = reorderer.late_events();
                        reorderer.push(ev(i, t), &mut out);
                        let dropped = reorderer.late_events() > before;
                        let admitted = buffer.push(Timestamp(t), i, || wanted(i).then_some(i));
                        assert_eq!(
                            admitted, !dropped,
                            "slack={slack} times={times:?} event {i} (t={t})"
                        );
                        if admitted {
                            watermark = watermark.max(Timestamp(t));
                        }
                        while let Some((stamp, item)) = buffer.release(watermark) {
                            assert_eq!(stamp, item);
                            released.push(item);
                        }
                        assert_eq!(
                            buffer.safe_watermark(),
                            reorderer.released_to,
                            "slack={slack} times={times:?} after event {i}"
                        );
                    }
                    assert_eq!(buffer.late_events(), reorderer.late_events());
                    let safe = buffer.safe_watermark();
                    reorderer.flush(&mut out);
                    released.extend(std::iter::from_fn(|| buffer.flush()).map(|(_, i)| i));
                    assert_eq!(buffer.safe_watermark(), safe, "a flush moves no watermark");
                    let front: Vec<u64> = (out.iter().map(|e| e.id.0))
                        .filter(|&i| wanted(i))
                        .collect();
                    assert_eq!(released, front, "slack={slack} times={times:?}");
                }
            }
        }
    }

    #[test]
    fn buffer_releases_in_time_then_arrival_order() {
        let mut b: ReorderBuffer<&str> = ReorderBuffer::new(0);
        for (stamp, (t, item)) in [
            (5, Some("a")),
            (3, Some("b")),
            (5, None),
            (5, Some("c")),
            (8, Some("d")),
        ]
        .into_iter()
        .enumerate()
        {
            assert!(b.push(Timestamp(t), stamp as u64, || item));
        }
        let ordered: Vec<_> = b
            .ordered()
            .into_iter()
            .map(|(t, s, i)| (t.ticks(), s, i.copied()))
            .collect();
        assert_eq!(
            ordered,
            vec![
                (3, 1, Some("b")),
                (5, 0, Some("a")),
                (5, 2, None),
                (5, 3, Some("c")),
                (8, 4, Some("d"))
            ]
        );
        let mut out: Vec<&str> = std::iter::from_fn(|| b.release(Timestamp(5)))
            .map(|(_, item)| item)
            .collect();
        assert_eq!(out, vec!["b", "a", "c"]);
        assert_eq!(b.safe_watermark(), Timestamp(5));
        assert_eq!(b.heap.len(), 1);
        assert!(
            !b.push(Timestamp(4), 5, || Some("late")),
            "behind what was released"
        );
        out.extend(std::iter::from_fn(|| b.flush()).map(|(_, item)| item));
        assert_eq!(out, vec!["b", "a", "c", "d"]);
        assert!(b.heap.is_empty());
        assert_eq!((b.safe_watermark(), b.late_events()), (Timestamp(5), 1));
    }
}

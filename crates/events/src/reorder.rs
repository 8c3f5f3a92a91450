//! Bounded out-of-order buffering.
//!
//! The engines require time-ordered input (§2.1; the §8 time-driven
//! scheduler "waits till the processing of all transactions with smaller
//! time stamps is completed"). Real sources deliver events slightly
//! disordered; [`Reorderer`] implements the waiting: it buffers events and
//! releases them in time-stamp order once the watermark (maximum time
//! seen) has advanced `slack` ticks past them, guaranteeing in-order
//! delivery for any input whose disorder is bounded by `slack`. An event
//! arriving behind output that was already released is *late*: it is
//! dropped and counted (the watermark-slack contract of streaming
//! systems; this implementation drops only when emission would actually
//! violate order, which is the laziest correct policy).
//!
//! A session's shard pool splits the reorderer in two, because admission
//! and buffering see different streams: every event moves the clock and
//! may be late, but the buffer holds only the events some query wants,
//! each once, as the pool owns it (the attributes the plans read, and
//! its arrival stamp) instead of the event itself:
//! * [`LateGate`] — the admission decision. It tracks only *time stamps*
//!   (a heap of `Timestamp`s, no event payloads) and reproduces the exact
//!   drop rule a front [`Reorderer`] would apply; its safe watermark says
//!   how far the buffer may release.
//! * [`ReorderBuffer`] — the payload-generic buffering half. It sorts
//!   whatever the gate admitted; it never drops (the gate already decided
//!   admission).

use crate::event::{Event, Timestamp};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Heap entry ordered by (time, arrival sequence) so equal-time items
/// keep their arrival order.
#[derive(Debug)]
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

/// Payload-generic time-ordering buffer: items go in tagged with a time
/// stamp, and come out in (time, arrival) order whenever the caller
/// declares a release point. Admission (late-drop) policy is *not* here —
/// it belongs to whoever owns the stream-wide watermark ([`Reorderer`]
/// for a single front buffer, [`LateGate`] for sharded execution).
#[derive(Debug)]
pub struct ReorderBuffer<T> {
    heap: BinaryHeap<Reverse<Pending<T>>>,
    seq: u64,
}

impl<T> Default for ReorderBuffer<T> {
    fn default() -> ReorderBuffer<T> {
        ReorderBuffer::new()
    }
}

impl<T> ReorderBuffer<T> {
    /// An empty buffer.
    pub fn new() -> ReorderBuffer<T> {
        ReorderBuffer {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Buffer one item stamped with `time`.
    pub fn push(&mut self, time: Timestamp, item: T) {
        self.heap.push(Reverse(Pending {
            time,
            seq: self.seq,
            item,
        }));
        self.seq += 1;
    }

    /// Append every buffered item with time `<= safe` to `out`, in
    /// (time, arrival) order.
    pub fn release_up_to(&mut self, safe: Timestamp, out: &mut Vec<T>) {
        while let Some(Reverse(top)) = self.heap.peek() {
            if top.time > safe {
                break;
            }
            let Reverse(p) = self.heap.pop().expect("peeked");
            out.push(p.item);
        }
    }

    /// End of stream: append everything still buffered to `out`, in order.
    pub fn flush(&mut self, out: &mut Vec<T>) {
        while let Some(Reverse(p)) = self.heap.pop() {
            out.push(p.item);
        }
    }

    /// Number of items currently buffered.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Non-consuming ordered view of the buffered items, in the exact
    /// (time, arrival) order [`ReorderBuffer::flush`] would emit them —
    /// the checkpoint path serializes buffers without draining them.
    pub fn ordered(&self) -> Vec<(Timestamp, &T)> {
        let mut pending: Vec<&Pending<T>> = self.heap.iter().map(|Reverse(p)| p).collect();
        pending.sort_by_key(|p| (p.time, p.seq));
        pending.into_iter().map(|p| (p.time, &p.item)).collect()
    }
}

/// The admission half of a sharded reorder pipeline.
///
/// A [`ReorderBuffer`] of payloads other than events still needs the
/// stream-wide answer to "is this event hopelessly late?" and "how far
/// may the buffer release?". The gate replays the front reorderer's
/// bookkeeping on time stamps alone:
/// `released_to` is the largest time already releasable anywhere
/// (`max{t pushed : t <= watermark − slack}`), and an arriving event is
/// late exactly when its time is behind that — byte-for-byte the rule
/// [`Reorderer::push`] applies, at a heap-of-`u64`s price.
#[derive(Debug, Clone)]
pub struct LateGate {
    slack: u64,
    watermark: Timestamp,
    released_to: Timestamp,
    pending: BinaryHeap<Reverse<Timestamp>>,
    late: u64,
}

impl LateGate {
    /// A gate tolerating up to `slack` ticks of disorder.
    pub fn new(slack: u64) -> LateGate {
        LateGate {
            slack,
            watermark: Timestamp::ZERO,
            released_to: Timestamp::ZERO,
            pending: BinaryHeap::new(),
            late: 0,
        }
    }

    /// Decide admission of an event at `time`: `false` means the event is
    /// late (dropped and counted) — a front [`Reorderer`] fed the same
    /// stream would drop it too. An admitted event waits in a
    /// [`ReorderBuffer`] until [`LateGate::safe_watermark`] reaches it.
    pub fn admit(&mut self, time: Timestamp) -> bool {
        if time < self.released_to {
            self.late += 1;
            return false;
        }
        self.watermark = self.watermark.max(time);
        self.pending.push(Reverse(time));
        let safe = self.watermark.saturating_sub(self.slack);
        while let Some(&Reverse(top)) = self.pending.peek() {
            if top > safe {
                break;
            }
            self.pending.pop();
            self.released_to = self.released_to.max(top);
        }
        true
    }

    /// The largest time stamp that is releasable stream-wide: every
    /// admitted event at or before it is deliverable in order, so results
    /// up to here are final once it is delivered. This is exactly the
    /// `released_to` of an equivalent front [`Reorderer`].
    pub fn safe_watermark(&self) -> Timestamp {
        self.released_to
    }

    /// The raw stream watermark (largest admitted time).
    pub fn watermark(&self) -> Timestamp {
        self.watermark
    }

    /// Number of events refused as too late.
    pub fn late_events(&self) -> u64 {
        self.late
    }

    /// The configured disorder tolerance in ticks.
    pub fn slack(&self) -> u64 {
        self.slack
    }

    /// The admitted-but-unreleased time stamps, sorted ascending — the
    /// gate's exact pending state, serialized verbatim at checkpoint so a
    /// restored gate reproduces every future drop decision bit-for-bit.
    pub fn pending_times(&self) -> Vec<Timestamp> {
        let mut times: Vec<Timestamp> = self.pending.iter().map(|Reverse(t)| *t).collect();
        times.sort();
        times
    }

    /// Rebuild a gate from checkpointed state ([`LateGate::slack`],
    /// [`LateGate::watermark`], [`LateGate::safe_watermark`],
    /// [`LateGate::late_events`], [`LateGate::pending_times`]).
    pub fn from_parts(
        slack: u64,
        watermark: Timestamp,
        released_to: Timestamp,
        late: u64,
        pending: Vec<Timestamp>,
    ) -> LateGate {
        LateGate {
            slack,
            watermark,
            released_to,
            pending: pending.into_iter().map(Reverse).collect(),
            late,
        }
    }
}

/// Buffering reorderer with a fixed disorder bound.
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
    buffer: ReorderBuffer<Event>,
    late: u64,
}

impl Reorderer {
    /// A reorderer tolerating up to `slack` ticks of disorder.
    pub fn new(slack: u64) -> Reorderer {
        Reorderer {
            slack,
            watermark: Timestamp::ZERO,
            released_to: Timestamp::ZERO,
            buffer: ReorderBuffer::new(),
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
        self.buffer.push(event.time, event);
        let safe = self.watermark.saturating_sub(self.slack);
        let from = out.len();
        self.buffer.release_up_to(safe, out);
        if let Some(last) = out[from..].last() {
            self.released_to = self.released_to.max(last.time);
        }
    }

    /// End of stream: release everything still buffered, in order.
    pub fn flush(&mut self, out: &mut Vec<Event>) {
        let from = out.len();
        self.buffer.flush(out);
        if let Some(last) = out[from..].last() {
            self.released_to = self.released_to.max(last.time);
        }
    }

    /// Number of events dropped as too late.
    pub fn late_events(&self) -> u64 {
        self.late
    }

    /// Number of events currently buffered.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
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
        // The LateGate must reproduce the Reorderer's admissions exactly —
        // per event, not just in total — on adversarial time sequences.
        let sequences: &[&[u64]] = &[
            &[1, 2, 3, 4, 5],
            &[10, 12, 3],
            &[10, 3],
            &[3, 1, 2, 6, 4, 5, 9, 7, 8],
            &[100, 50, 100, 1, 99, 98, 101, 97, 2, 102],
            &[5, 5, 5, 1, 5, 9, 4, 9, 3],
            &[0, 0, 7, 0, 14, 7, 21, 0],
        ];
        for slack in [0u64, 1, 2, 3, 7, 100] {
            for &times in sequences {
                let mut reorderer = Reorderer::new(slack);
                let mut gate = LateGate::new(slack);
                let mut out = Vec::new();
                for (i, &t) in times.iter().enumerate() {
                    let before = reorderer.late_events();
                    reorderer.push(ev(i as u64, t), &mut out);
                    let dropped = reorderer.late_events() > before;
                    let admitted = gate.admit(Timestamp(t));
                    assert_eq!(
                        admitted, !dropped,
                        "slack={slack} times={times:?} event {i} (t={t})"
                    );
                    assert_eq!(
                        gate.safe_watermark(),
                        reorderer.released_to,
                        "slack={slack} times={times:?} after event {i}"
                    );
                }
                assert_eq!(gate.late_events(), reorderer.late_events());
            }
        }
    }

    #[test]
    fn buffer_releases_in_time_then_arrival_order() {
        let mut b: ReorderBuffer<&str> = ReorderBuffer::new();
        b.push(Timestamp(5), "a");
        b.push(Timestamp(3), "b");
        b.push(Timestamp(5), "c");
        b.push(Timestamp(8), "d");
        let mut out = Vec::new();
        b.release_up_to(Timestamp(5), &mut out);
        assert_eq!(out, vec!["b", "a", "c"]);
        assert_eq!(b.len(), 1);
        b.flush(&mut out);
        assert_eq!(out, vec!["b", "a", "c", "d"]);
        assert!(b.is_empty());
    }
}

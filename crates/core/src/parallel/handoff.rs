//! How rows cross to another thread and come back for reuse, for the shard
//! transport's batches and the server's ingest chunks alike: a [`Rows`]
//! arena is written and read front to back (a buffer of `Event`s, a heap
//! block per row, ran the server's decode at half speed), and a
//! [`Recycler`] takes it back once the consumer drops its handle, so a
//! buffer is freed on the thread that allocated it and allocates only once.
//!
//! A producer writes only into a stage of its own, and [`Recycler::ship`]
//! moves a full stage into a reclaimed buffer, one `Vec::append` a vector:
//! rows pushed straight into a reclaimed buffer are stores, between decode
//! steps, into lines the consumer's core has just read. Decoded and shipped
//! to a thread copying them out, rows cost 116–127 ns each that way, 75–78
//! through a stage, 62–63 if nobody reads them (`examples/handoff_cost.rs`
//! on a 2-vCPU x86-64 host).

use cogra_events::{EventId, Timestamp, TypeId, Value};
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A row of [`Rows`] without its values, which end at `end` in the arena's
/// value buffer (and start where the previous row's end).
pub(super) struct Head {
    id: EventId,
    time: Timestamp,
    type_id: TypeId,
    end: usize,
}

/// Rows as an arena: per row its event's id, time and type, and whatever
/// values the producer put in — the shard transport the read-set of the
/// row's type, the server the whole decoded row — end to end in one
/// buffer.
#[derive(Default)]
pub struct Rows {
    pub(super) heads: Vec<Head>,
    pub(super) values: Vec<Value>,
}

/// A row of [`Rows`], read back.
pub struct Row<'a> {
    /// The event's id.
    pub id: EventId,
    /// The event's time stamp.
    pub time: Timestamp,
    /// The event's type.
    pub type_id: TypeId,
    /// The values pushed with the row, in their order.
    pub values: &'a [Value],
}

impl Rows {
    /// Append the event `id` at `time` of `type_id`, whose values `fill`
    /// appends (and only appends) to the value buffer — in place, so the
    /// server moves a row over by `Vec::append`, ~8 % faster than a drain.
    pub fn push(
        &mut self,
        id: EventId,
        time: Timestamp,
        type_id: TypeId,
        fill: impl FnOnce(&mut Vec<Value>),
    ) {
        fill(&mut self.values);
        let end = self.values.len();
        self.heads.push(Head {
            id,
            time,
            type_id,
            end,
        });
    }

    /// The number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// No row yet.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Row `index`.
    #[inline]
    pub fn row(&self, index: usize) -> Row<'_> {
        let start = index.checked_sub(1).map_or(0, |prev| self.heads[prev].end);
        self.read(&self.heads[index], start)
    }

    /// Every row, in the order they were pushed.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = Row<'_>> {
        let mut start = 0;
        self.heads.iter().map(move |head| {
            let row = self.read(head, start);
            start = head.end;
            row
        })
    }

    #[inline]
    fn read(&self, head: &Head, start: usize) -> Row<'_> {
        Row {
            id: head.id,
            time: head.time,
            type_id: head.type_id,
            values: &self.values[start..head.end],
        }
    }
}

impl Reusable for Rows {
    fn clear(&mut self) {
        self.heads.clear();
        self.values.clear();
    }

    fn take_from(&mut self, staged: &mut Rows) {
        self.heads.append(&mut staged.heads);
        self.values.append(&mut staged.values);
    }
}

/// A buffer a [`Recycler`] ships and takes back.
pub trait Reusable: Default {
    /// Empty the buffer, keeping its capacity.
    fn clear(&mut self);

    /// Move what `staged` holds into this empty buffer; `staged` keeps its
    /// capacity.
    fn take_from(&mut self, staged: &mut Self);
}

/// Cleared buffers a [`Recycler`] keeps: as many as a full shard channel
/// and the batch its worker reads. More were only in flight while a
/// consumer was further behind, or held by a worker under
/// `FailurePolicy::Restart` until its next drain; the surplus is dropped.
const SPARES: usize = super::CHANNEL_CAPACITY + 1;

/// The producer's side of an `Arc` hand-off: a handle to every shipped
/// buffer not yet reclaimed, oldest first, and the reclaimed ones, cleared.
/// The consumer only reads a buffer and drops its handle when done, in the
/// order they were shipped.
#[derive(Default)]
pub struct Recycler<T> {
    pub(super) shipped: VecDeque<Arc<T>>,
    pub(super) spare: Vec<T>,
}

impl<T: Reusable> Recycler<T> {
    /// Move what `staged` holds into a reclaimed buffer, or a new one; the
    /// handle that travels, its twin kept until the consumer drops its own.
    /// `staged` is left empty with its capacity.
    pub fn ship(&mut self, staged: &mut T) -> Arc<T> {
        self.reclaim();
        let mut buffer = self.spare.pop().unwrap_or_default();
        buffer.take_from(staged);
        let buffer = Arc::new(buffer);
        self.shipped.push_back(Arc::clone(&buffer));
        buffer
    }

    /// Move every shipped buffer the consumer has dropped, up to the first
    /// one it still holds, to the spares, cleared.
    pub(super) fn reclaim(&mut self) {
        while let Some(buffer) = self.shipped.pop_front() {
            match Arc::try_unwrap(buffer) {
                Ok(mut buffer) => {
                    buffer.clear();
                    if self.spare.len() < SPARES {
                        self.spare.push(buffer);
                    }
                }
                Err(held) => {
                    self.shipped.push_front(held);
                    return;
                }
            }
        }
    }

    /// Forget every shipped buffer; what the consumer holds is its to free.
    pub fn forget(&mut self) {
        self.shipped.clear();
    }
}

/// How long a receive polls its channel before it parks the thread. A
/// saturated pool hands a batch over every few tens of microseconds, and
/// parking for that long costs more than the wait: a futex sleep, the
/// sender's wake-up call, and a halted vCPU coming back. Long enough to
/// bridge the gap between two batches or a drain's round trip, short
/// enough that an idle pool burns nothing a scheduler tick would notice.
/// A constant, not a knob: the right value follows the cost of a
/// sleep/wake pair on the host, which no caller knows better.
const POLL_BUDGET: Duration = Duration::from_micros(50);

/// Polls between two `yield_now`s while [`POLL_BUDGET`] lasts — on a host
/// with fewer cores than threads the sender may be the thread waiting for
/// this core.
const POLLS_PER_YIELD: u32 = 16;

/// `rx.recv()` that polls before it parks — every blocking receive of the
/// transport (a worker's next command, the coordinator's next reply) and,
/// in front of a served session, the server actor's next request.
pub fn recv_polling<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    let mut polling_since = None;
    loop {
        for _ in 0..POLLS_PER_YIELD {
            match rx.try_recv() {
                Ok(message) => return Ok(message),
                Err(TryRecvError::Disconnected) => return Err(RecvError),
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
            }
        }
        if polling_since.get_or_insert_with(Instant::now).elapsed() >= POLL_BUDGET {
            return rx.recv();
        }
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    //! Each property runs for both buffers a [`Recycler`] serves: the
    //! server's chunk (bare [`Rows`]) and the shard transport's batch
    //! (rows and routes).

    use super::super::Batch;
    use super::*;

    /// What a test needs of a recycled buffer beyond [`Reusable`].
    trait Buffer: Reusable {
        fn rows(&self) -> &Rows;
        /// Push row `id` ([`row_of`]), as its producer does.
        fn fill(&mut self, id: u64);
        /// One route per row, if the buffer keeps them.
        fn aligned(&self) -> bool;
    }

    impl Buffer for Rows {
        fn rows(&self) -> &Rows {
            self
        }
        fn fill(&mut self, id: u64) {
            let (type_id, values) = row_of(id);
            self.push(EventId(id), Timestamp(id), TypeId(type_id), |v| {
                v.extend(values)
            });
        }
        fn aligned(&self) -> bool {
            true
        }
    }

    impl Buffer for Batch {
        fn rows(&self) -> &Rows {
            &self.rows
        }
        fn fill(&mut self, id: u64) {
            let (type_id, values) = row_of(id);
            self.rows
                .push(EventId(id), Timestamp(id), TypeId(type_id), |v| {
                    v.extend(values)
                });
            self.push_route(type_id);
        }
        fn aligned(&self) -> bool {
            self.routes.len() == self.rows.len()
        }
    }

    /// Row `id`'s type and values. Two arities and a string value: a
    /// stale row, offset or value that survived a recycle would misalign
    /// every later row.
    fn row_of(id: u64) -> (u32, Vec<Value>) {
        let int = Value::Int(id as i64);
        if id.is_multiple_of(2) {
            (0, vec![int])
        } else {
            (
                1,
                vec![int, Value::str(format!("tag{id}")), Value::Float(0.5)],
            )
        }
    }

    /// Rows `first` to `first + 5`.
    fn fill_mixed<T: Buffer>(buffer: &mut T, first: u64) {
        (first..first + 6).for_each(|id| buffer.fill(id));
    }

    /// Every row of `buffer`, as `(id, values)`.
    fn read<T: Buffer>(buffer: &T) -> Vec<(u64, Vec<Value>)> {
        let rows = buffer.rows().iter();
        rows.map(|row| (row.id.0, row.values.to_vec())).collect()
    }

    /// Rows `ids`, as [`read`] gives them back.
    fn expected(ids: std::ops::Range<u64>) -> Vec<(u64, Vec<Value>)> {
        ids.map(|id| (id, row_of(id).1)).collect()
    }

    fn staged_rows_arrive_whole_and_in_order<T: Buffer>() {
        let mut recycler = Recycler::<T>::default();
        let mut stage = T::default();
        fill_mixed(&mut stage, 0);
        let first = recycler.ship(&mut stage);
        fill_mixed(&mut stage, 6);
        let second = recycler.ship(&mut stage);
        for (shipped, ids) in [(&first, 0..6), (&second, 6..12)] {
            assert!(shipped.aligned(), "one route per row");
            assert_eq!(read(&**shipped), expected(ids.clone()));
            for (index, id) in ids.enumerate() {
                let row = shipped.rows().row(index);
                let values = row_of(id).1;
                assert_eq!((row.id.0, row.time.0, row.values), (id, id, &values[..]));
            }
        }
    }

    #[test]
    fn staged_rows_arrive_in_a_chunk_whole_and_in_order() {
        staged_rows_arrive_whole_and_in_order::<Rows>();
    }

    #[test]
    fn staged_rows_arrive_in_a_batch_whole_and_in_order() {
        staged_rows_arrive_whole_and_in_order::<Batch>();
    }

    fn the_stage_is_left_empty_with_its_capacity<T: Buffer>() {
        let mut recycler = Recycler::<T>::default();
        let mut stage = T::default();
        fill_mixed(&mut stage, 0);
        let (heads, values) = (stage.rows().heads.capacity(), stage.rows().values.as_ptr());
        let shipped = recycler.ship(&mut stage);
        assert_eq!(shipped.rows().len(), 6);
        assert!(stage.rows().is_empty() && stage.rows().values.is_empty());
        assert!(stage.aligned(), "no route stays behind");
        assert_eq!(stage.rows().heads.capacity(), heads);
        assert_eq!(stage.rows().values.as_ptr(), values, "the same arena");
    }

    #[test]
    fn the_chunk_stage_is_left_empty_with_its_capacity() {
        the_stage_is_left_empty_with_its_capacity::<Rows>();
    }

    #[test]
    fn the_batch_stage_is_left_empty_with_its_capacity() {
        the_stage_is_left_empty_with_its_capacity::<Batch>();
    }

    fn a_shipped_buffer_is_one_the_consumer_released<T: Buffer>() {
        let mut recycler = Recycler::<T>::default();
        let mut stage = T::default();
        fill_mixed(&mut stage, 0);
        let consumer = recycler.ship(&mut stage);
        let memory = consumer.rows().values.as_ptr();
        drop(consumer);
        fill_mixed(&mut stage, 0);
        let shipped = recycler.ship(&mut stage);
        assert_eq!(shipped.rows().values.as_ptr(), memory, "the same arena");
        assert_eq!(recycler.shipped.len(), 1, "the released one came back");
    }

    #[test]
    fn a_shipped_chunk_is_one_the_actor_released() {
        a_shipped_buffer_is_one_the_consumer_released::<Rows>();
    }

    #[test]
    fn a_shipped_batch_is_one_the_worker_released() {
        a_shipped_buffer_is_one_the_consumer_released::<Batch>();
    }

    fn a_recycled_buffer_carries_nothing_of_its_previous_life<T: Buffer>() {
        let mut recycler = Recycler::<T>::default();
        let mut stage = T::default();
        fill_mixed(&mut stage, 0);
        drop(recycler.ship(&mut stage));
        recycler.reclaim();
        let spare = &recycler.spare[0];
        assert!(spare.rows().is_empty() && spare.rows().values.is_empty());
        assert!(spare.aligned(), "no route outlives its buffer");
        // Shifted by one, so every row's arity differs from its slot's last
        // life.
        fill_mixed(&mut stage, 1);
        let recycled = recycler.ship(&mut stage);
        assert!(recycler.spare.is_empty(), "the spare was shipped");
        assert!(recycled.aligned());
        assert_eq!(read(&*recycled), expected(1..7));
    }

    #[test]
    fn a_recycled_chunk_carries_nothing_of_its_previous_life() {
        a_recycled_buffer_carries_nothing_of_its_previous_life::<Rows>();
    }

    #[test]
    fn a_recycled_batch_buffer_carries_nothing_of_its_previous_life() {
        a_recycled_buffer_carries_nothing_of_its_previous_life::<Batch>();
    }

    fn a_held_buffer_is_never_reshipped<T: Buffer>() {
        let mut recycler = Recycler::<T>::default();
        let mut stage = T::default();
        fill_mixed(&mut stage, 0);
        let older = recycler.ship(&mut stage);
        fill_mixed(&mut stage, 6);
        drop(recycler.ship(&mut stage));
        // The consumer still reads the older one: nothing behind it is
        // reclaimed either, and a new buffer is shipped.
        fill_mixed(&mut stage, 12);
        let newest = recycler.ship(&mut stage);
        assert_eq!(recycler.shipped.len(), 3);
        assert!(recycler.spare.is_empty());
        assert_ne!(newest.rows().values.as_ptr(), older.rows().values.as_ptr());
        assert_eq!(
            read(&*older),
            expected(0..6),
            "the held buffer is untouched"
        );
        assert_eq!(read(&*newest), expected(12..18));
        drop((older, newest));
        recycler.reclaim();
        assert!(recycler.shipped.is_empty());
        assert_eq!(recycler.spare.len(), 3);
    }

    #[test]
    fn a_chunk_the_actor_holds_is_never_reshipped() {
        a_held_buffer_is_never_reshipped::<Rows>();
    }

    #[test]
    fn a_batch_the_worker_holds_is_never_reshipped() {
        a_held_buffer_is_never_reshipped::<Batch>();
    }

    fn spares_past_the_cap_are_dropped<T: Buffer>() {
        let mut recycler = Recycler::<T>::default();
        let mut stage = T::default();
        let held: Vec<Arc<T>> = (0..SPARES as u64 + 3)
            .map(|first| {
                fill_mixed(&mut stage, first);
                recycler.ship(&mut stage)
            })
            .collect();
        drop(held);
        recycler.reclaim();
        assert!(recycler.shipped.is_empty());
        assert_eq!(recycler.spare.len(), SPARES);
        assert!(recycler.spare.iter().all(|b| b.rows().is_empty()));
    }

    #[test]
    fn chunk_spares_past_the_cap_are_dropped() {
        spares_past_the_cap_are_dropped::<Rows>();
    }

    #[test]
    fn batch_spares_past_the_cap_are_dropped() {
        spares_past_the_cap_are_dropped::<Batch>();
    }
}

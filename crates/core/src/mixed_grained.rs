//! Mixed-Grained Aggregator (§5, Algorithm 2).
//!
//! Under skip-till-any-match *with* predicates on adjacent events θ, the
//! states split into two disjoint sets (Theorem 5.1):
//!
//! * `Te` — states whose events appear as *predecessors* in some θ: these
//!   events must be stored so θ can be evaluated against future events;
//!   an event-grained cell is kept per stored event;
//! * `Tt` — all other states: a single type-grained cell each.
//!
//! A new event `e` bound to state `s` computes
//!
//! ```text
//! e.count = Σ_{E' ∈ Tt ∩ preds(s)} E'.count
//!         + Σ_{ep ∈ Te-events, ep ∈ preds(s), θ(ep,e)} ep.count   (+1 if start)
//! ```
//!
//! Time: O(n·(t + nₑ)) — optimal (Theorems 5.2, 5.3); space: Θ(t + nₑ).
//!
//! The `Tt` half *is* Algorithm 1 — rows, shadow rows for tagged edges out
//! of `Tt` states, the staged stream transaction — so the window holds a
//! [`TypeGrainedWindow`] for it. Event-grained contributions compare time
//! stamps directly (`ep.time < e.time`), so stored events apply
//! immediately; tagged edges from `Te` states check the per-negation
//! [`NegClock`] against the stored event's time.
//!
//! ## What a window holds
//!
//! The [`TypeGrainedWindow`], whose table has one row more than Algorithm 1
//! needs ([`DisjunctRuntime::table`]): the finished-trend accumulator. The
//! stored `Te` events, in arrival order, as one `u64` slab of entries of
//! `2 + stride` words: of each, what the plan reads of it again — its time
//! stamp, then the state it is bound to and where its stored values end —
//! and its event-grained aggregates, a row computed where it is stored and
//! dropped again when no trend ends at the event. The stored values are
//! the stored projection of each event's type ([`CompiledDisjunct::stored`],
//! the `pred_attr`s of the predicates on adjacent events), end to end in
//! one shared value buffer. One [`NegClock`] per negated variable.
//!
//! [`CompiledDisjunct::stored`]: cogra_query::CompiledDisjunct::stored

use crate::agg::Cell;
use crate::runtime::{DisjunctRuntime, NegClock};
use crate::type_grained::TypeGrainedWindow;
use cogra_checkpoint::{CheckpointError, Dec, Enc};
use cogra_events::{Event, Timestamp, Value};
use cogra_query::{NegId, StateId};

/// Per-window mixed-grained aggregation state.
#[derive(Debug)]
pub struct MixedWindow {
    /// The `Tt` states' rows, shadows and open transaction (only `Tt`
    /// rows of its table are used), and after them the finished-trend
    /// accumulator, used when the end state is in `Te` (Algorithm 2
    /// line 14).
    tt: TypeGrainedWindow,
    /// Stored `Te` events, in arrival order: per event its time stamp,
    /// its state with the end of its values in the high half, its row.
    /// Every row is live.
    stored: Vec<u64>,
    /// Their stored values ([`DisjunctRuntime::store`]), end to end.
    values: Vec<Value>,
    /// Per-negation match clocks.
    neg_clocks: Box<[NegClock]>,
    /// Bytes of `values`, kept where they are stored.
    values_bytes: usize,
}

/// A stored event's entry, read.
struct Stored<'a> {
    time: Timestamp,
    state: StateId,
    values_end: usize,
    row: &'a [u64],
}

/// The words of a stored event's entry before its row: it came at `time`,
/// is bound to `state`, and its stored values end at `values_end`.
fn head(time: Timestamp, state: StateId, values_end: usize) -> [u64; 2] {
    let values_end = u32::try_from(values_end).expect("a window stores < 2^32 values");
    [
        time.ticks(),
        u64::from(state.0) | u64::from(values_end) << 32,
    ]
}

/// The entries of a stored-event slab of rows of `stride` words.
fn entries(stored: &[u64], stride: usize) -> impl Iterator<Item = Stored<'_>> {
    stored.chunks_exact(2 + stride).map(|entry| Stored {
        time: Timestamp(entry[0]),
        state: StateId(entry[1] as u32),
        values_end: (entry[1] >> 32) as usize,
        row: &entry[2..],
    })
}

impl MixedWindow {
    /// The window struct less its byte counter — the instrument is not
    /// part of the state it measures. Counted by whoever holds the window.
    pub(crate) const INLINE_BYTES: usize =
        std::mem::size_of::<Self>() - std::mem::size_of::<usize>();

    /// Fresh window state.
    pub fn new(rt: &DisjunctRuntime) -> MixedWindow {
        MixedWindow::over(
            TypeGrainedWindow::new(rt),
            vec![NegClock::default(); rt.disjunct.automaton.num_negated()].into(),
        )
    }

    /// The accumulator's row in `tt`'s table.
    fn final_row(rt: &DisjunctRuntime) -> usize {
        rt.type_rows()
    }

    /// A window over the given type-grained half, with nothing stored.
    fn over(tt: TypeGrainedWindow, neg_clocks: Box<[NegClock]>) -> MixedWindow {
        MixedWindow {
            tt,
            stored: Vec::new(),
            values: Vec::new(),
            neg_clocks,
            values_bytes: 0,
        }
    }

    /// Back to the state [`MixedWindow::new`] builds, in place: the slabs
    /// and the value buffer keep their capacity.
    pub fn reset(&mut self, rt: &DisjunctRuntime) {
        self.tt.reset(rt);
        self.stored.clear();
        self.values.clear();
        self.values_bytes = 0;
        self.neg_clocks.fill(NegClock::default());
    }

    /// One event of the window: the negations it matches and the states it
    /// binds (Algorithm 2's step at each). Returns the bytes it added.
    pub fn step(
        &mut self,
        rt: &DisjunctRuntime,
        event: &Event,
        binds: &[StateId],
        negs: &[NegId],
    ) -> isize {
        let before = self.memory_bytes();
        self.tt.commit_if_past(rt, event.time);
        self.tt.stage_negations(negs);
        for &n in negs {
            self.neg_clocks[n.index()].record(event.time);
        }
        let (d, layout, stride) = (&rt.disjunct, &rt.layout, rt.table.stride());
        for &s in binds {
            // Fold into `row` what flows into `event` at `s` from the
            // events stored so far and from `tt`'s committed table;
            // whether any of it was live.
            let (values, neg_clocks) = (&self.values, &self.neg_clocks);
            let fill = |table: &[u64], stored: &[u64], row: &mut [u64]| {
                let mut live = false;
                for src in &rt.pred_sources[s.index()] {
                    if !d.event_grained[src.from.index()] {
                        live |= rt.table.merge_into(layout, table, src.row, row);
                        continue;
                    }
                    // Event-grained source: scan stored events of that
                    // state, checking time, θ, and negation windows.
                    let mut values_start = 0;
                    for ep in entries(stored, stride) {
                        let ep_values = &values[values_start..ep.values_end];
                        values_start = ep.values_end;
                        if ep.state != src.from
                            || ep.time >= event.time
                            || !src.adjacents_pass(ep_values, event)
                        {
                            continue;
                        }
                        let blocked = src
                            .negations
                            .iter()
                            .any(|n| neg_clocks[n.index()].blocked(ep.time, event.time));
                        if !blocked {
                            layout.merge_row(row, ep.row);
                            live = true;
                        }
                    }
                }
                live
            };
            if !d.event_grained[s.index()] {
                let stored = &self.stored;
                self.tt
                    .stage(rt, s, event, |table, row| fill(table, stored, row));
                continue;
            }
            // A `Te` state: the event's aggregates are computed in the row
            // its entry ends with, and the entry dropped again if no trend
            // ends at the event.
            let at = self.stored.len();
            self.stored.extend([0, 0]);
            layout.push_row(&mut self.stored);
            let (stored, entry) = self.stored.split_at_mut(at);
            let table = self.tt.table();
            if !rt.bind_row(s, event, &mut entry[2..], |row| fill(table, stored, row)) {
                self.stored.truncate(at);
                continue;
            }
            if s == rt.end() {
                let table = self.tt.table_mut(rt);
                rt.table
                    .merge_from(layout, table, Self::final_row(rt), &entry[2..]);
            }
            self.values_bytes += rt.store(event, &mut self.values);
            entry[..2].copy_from_slice(&head(event.time, s, self.values.len()));
        }
        self.memory_bytes() as isize - before as isize
    }

    /// Final aggregate: end-state type row, or the event-grained
    /// accumulator when the end state is in `Te`.
    pub fn final_cell(&mut self, rt: &DisjunctRuntime) -> Cell {
        if rt.disjunct.event_grained[rt.end().index()] {
            self.tt.commit(rt);
            rt.table.cell(self.tt.table(), Self::final_row(rt))
        } else {
            self.tt.final_cell(rt)
        }
    }

    /// Serialize the full window state (inverse of [`MixedWindow::load`]):
    /// the `Tt` tables, the stored part — every row as the cell it stands
    /// for — and the `Tt` transaction.
    pub fn save(&self, rt: &DisjunctRuntime, enc: &mut Enc) {
        self.tt.save_tables(rt, enc);
        let stride = rt.table.stride();
        enc.usize(self.stored.len() / (2 + stride));
        let mut values_start = 0;
        for se in entries(&self.stored, stride) {
            enc.u64(se.time.ticks());
            Value::save_slice(&self.values[values_start..se.values_end], enc);
            values_start = se.values_end;
            enc.u32(se.state.0);
            rt.layout.save_row(se.row, true, enc);
        }
        rt.table
            .save_row(&rt.layout, self.tt.table(), Self::final_row(rt), enc);
        enc.usize(self.neg_clocks.len());
        for c in &self.neg_clocks {
            c.save(enc);
        }
        self.tt.save_transaction(rt, enc);
    }

    /// Rebuild a window from bytes produced by [`MixedWindow::save`]
    /// against the same disjunct runtime.
    pub fn load(rt: &DisjunctRuntime, dec: &mut Dec) -> Result<MixedWindow, CheckpointError> {
        let tt = TypeGrainedWindow::load_tables(rt, dec)?;
        let mut window = MixedWindow::over(tt, Box::default());
        let mut row = vec![0; rt.table.stride()];
        for position in 0..dec.usize()? {
            let values_start = window.values.len();
            let time = Timestamp(dec.u64()?);
            window.values.append(&mut Value::load_vec(dec)?);
            let state = StateId(dec.u32()?);
            rt.check_stored(&window.values[values_start..], state)?;
            let live = rt.layout.load_row(dec, &mut row)?;
            // What `step` stores: an event bound to one of the plan's `Te`
            // states that some trend ends at.
            if !rt.disjunct.event_grained[state.index()] || !live {
                return Err(CheckpointError::Corrupt(format!(
                    "stored event number {position}, bound to state {}, is none the plan stores",
                    state.0
                )));
            }
            window.stored.extend(head(time, state, window.values.len()));
            window.stored.extend_from_slice(&row);
        }
        window.values_bytes = window.values.iter().map(Value::memory_bytes).sum();
        let table = window.tt.table_mut(rt);
        rt.table
            .load_row(&rt.layout, table, Self::final_row(rt), dec)?;
        let n_clocks = dec.usize()?;
        if n_clocks != rt.disjunct.automaton.num_negated() {
            return Err(CheckpointError::Corrupt(format!(
                "mixed window has {n_clocks} negation clocks for {} negated variables",
                rt.disjunct.automaton.num_negated()
            )));
        }
        window.neg_clocks = (0..n_clocks)
            .map(|_| NegClock::load(dec))
            .collect::<Result<_, _>>()?;
        window.tt.load_transaction(rt, dec)?;
        Ok(window)
    }

    /// Logical footprint outside the struct: Θ(t + nₑ) — type rows plus
    /// stored events. O(1) — a slab length and a kept sum.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.tt.memory_bytes() + std::mem::size_of_val(self.stored.as_slice()) + self.values_bytes
    }

    /// [`MixedWindow::memory_bytes`] by definition: the type-grained half's
    /// walk, the stored entries and every stored value, measured.
    pub fn audit_bytes(&self, rt: &DisjunctRuntime) -> usize {
        let entries = entries(&self.stored, rt.table.stride());
        self.tt.audit_bytes(rt)
            + entries.map(|se| 8 * (2 + se.row.len())).sum::<usize>()
            + self.values.iter().map(Value::memory_bytes).sum::<usize>()
    }

    /// Number of stored events (the `nₑ` of Theorem 5.2) — exposed for
    /// tests and the experiment harness.
    pub fn stored_events(&self, rt: &DisjunctRuntime) -> usize {
        self.stored.len() / (2 + rt.table.stride())
    }
}

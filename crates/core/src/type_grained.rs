//! Type-Grained Aggregator (§4, Algorithm 1).
//!
//! Under skip-till-any-match without predicates on adjacent events, every
//! previously matched event of a predecessor type of `E` is adjacent to a
//! new event `e` of type `E`. One aggregate per state therefore suffices
//! (Theorem 4.1):
//!
//! ```text
//! e.count = Σ_{E' ∈ P.predTypes(E)} E'.count   (+1 if E = start(P))
//! E.count += e.count
//! final count = end(P).count
//! ```
//!
//! Time: O(n·l); space: Θ(l) — both optimal (Theorems 4.2, 4.3).
//!
//! Two refinements beyond the paper's pseudo-code:
//!
//! * **Stream transactions** (§8): events sharing a time stamp are
//!   temporally incomparable, so one must not count another as
//!   predecessor. Updates are staged and committed when the window sees a
//!   later time stamp.
//! * **Negated sub-patterns** (§8): each negation-tagged transition keeps
//!   a *shadow* mirroring its source state's aggregates but reset whenever
//!   the negated type matches — "aggregates of predecessor types are
//!   marked invalid to contribute to the following types". Contributions
//!   along a tagged edge read the shadow instead of the state's own row.
//!
//! ## What a window holds
//!
//! One [`CellTable`] of `l + |tagged transitions|` rows — a state's
//! committed aggregates at the state's index, the shadows after them
//! ([`DisjunctRuntime::shadow_row`]) — and the open transaction: a row list
//! of `(state, row)` entries in arrival order, `2 + k` words each, plus the
//! negations matched at its time stamp. A new event's aggregates are
//! computed in the entry they are staged in; an entry no trend ends at is
//! dropped again. Entries are kept apart until the commit, not pre-merged
//! per state, so float sums add up in arrival order.

use crate::agg::{Cell, CellTable};
use crate::runtime::DisjunctRuntime;
use cogra_checkpoint::{CheckpointError, Dec, Enc};
use cogra_events::{Event, Timestamp};
use cogra_query::{NegId, StateId};

/// Per-window type-grained aggregation state. Also the `Tt` half of a
/// [`MixedWindow`](crate::mixed_grained::MixedWindow): Algorithm 2 with
/// `Te = ∅` is Algorithm 1.
#[derive(Debug)]
pub struct TypeGrainedWindow {
    /// Committed aggregates (`E.count` etc. of Theorem 4.1): a row per
    /// state, a shadow row per negation-tagged transition, then whatever
    /// rows an embedding aggregator asked for.
    pub(crate) table: CellTable,
    /// Updates of the open stream transaction, in arrival order: per
    /// update the state's index, then its row. Every one is live.
    pending: Vec<u64>,
    /// Negations matched in the open transaction.
    pending_negs: Vec<NegId>,
    /// Time stamp of the open transaction.
    pending_time: Timestamp,
    /// [`TypeGrainedWindow::memory_bytes`], kept current where `pending`
    /// grows and drains.
    bytes: usize,
}

impl TypeGrainedWindow {
    /// The window struct less its byte counter — the instrument is not
    /// part of the state it measures.
    const INLINE_BYTES: usize = std::mem::size_of::<Self>() - std::mem::size_of::<usize>();

    /// Fresh window state.
    pub fn new(rt: &DisjunctRuntime) -> TypeGrainedWindow {
        TypeGrainedWindow::with_rows(rt, rt.type_rows())
    }

    /// A fresh window whose table has `rows ≥ rt.type_rows()` rows; the
    /// ones past Algorithm 1's are the caller's.
    pub(crate) fn with_rows(rt: &DisjunctRuntime, rows: usize) -> TypeGrainedWindow {
        let table = CellTable::new(&rt.layout, rows);
        TypeGrainedWindow {
            bytes: Self::INLINE_BYTES + table.memory_bytes(),
            table,
            pending: Vec::new(),
            pending_negs: Vec::new(),
            pending_time: Timestamp::ZERO,
        }
    }

    /// Back to the state [`TypeGrainedWindow::new`] builds, in place: the
    /// table and the staging vectors keep their buffers.
    pub fn reset(&mut self, rt: &DisjunctRuntime) {
        self.table.reset_all(&rt.layout);
        self.clear_pending();
        self.pending_negs.clear();
        self.pending_time = Timestamp::ZERO;
    }

    fn clear_pending(&mut self) {
        self.bytes -= std::mem::size_of_val(self.pending.as_slice());
        self.pending.clear();
    }

    /// Stage `event`'s update of `state` in the open transaction. The new
    /// aggregates are computed where they are staged
    /// ([`DisjunctRuntime::bind_row`]; `fill` is handed the committed
    /// table beside the row), and an update no trend ends at is dropped
    /// again.
    pub(crate) fn stage(
        &mut self,
        rt: &DisjunctRuntime,
        state: StateId,
        event: &Event,
        fill: impl FnOnce(&CellTable, &mut [u64]) -> bool,
    ) {
        let at = self.pending.len();
        self.pending.push(u64::from(state.0));
        rt.layout.push_row(&mut self.pending);
        let table = &self.table;
        if rt.bind_row(state, event, &mut self.pending[at + 1..], |row| {
            fill(table, row)
        }) {
            self.bytes += std::mem::size_of_val(&self.pending[at..]);
        } else {
            self.pending.truncate(at);
        }
    }

    pub(crate) fn commit(&mut self, rt: &DisjunctRuntime) {
        let layout = &rt.layout;
        // 1. Shadow resets first: a negation match at time t invalidates
        // contributions committed strictly before t; the transaction's own
        // events (same t) are merged afterwards and stay valid.
        if !self.pending_negs.is_empty() {
            for (i, edge) in rt.neg_edges.iter().enumerate() {
                if edge.negations.iter().any(|n| self.pending_negs.contains(n)) {
                    self.table.reset(layout, rt.shadow_row(i));
                }
            }
            self.pending_negs.clear();
        }
        // 2. Merge the transaction's updates, in arrival order (walked by
        // hand: `chunks_exact` divides by the width, once per event and
        // window).
        let width = 1 + layout.stride();
        let mut rest = self.pending.as_slice();
        while !rest.is_empty() {
            let (update, after) = rest.split_at(width);
            let (state, row) = (update[0] as usize, &update[1..]);
            self.table.merge_from(layout, state, row);
            for (i, edge) in rt.neg_edges.iter().enumerate() {
                if edge.from.index() == state {
                    self.table.merge_from(layout, rt.shadow_row(i), row);
                }
            }
            rest = after;
        }
        self.clear_pending();
    }

    pub(crate) fn commit_if_past(&mut self, rt: &DisjunctRuntime, t: Timestamp) {
        if t > self.pending_time {
            self.commit(rt);
            self.pending_time = t;
        }
    }

    /// Process an event bound to `binds` (type matched, locals passed).
    pub fn on_event(&mut self, rt: &DisjunctRuntime, event: &Event, binds: &[StateId]) {
        self.commit_if_past(rt, event.time);
        for &s in binds {
            self.stage(rt, s, event, |table, row| {
                let mut live = false;
                for src in &rt.pred_sources[s.index()] {
                    live |= table.merge_into(&rt.layout, src.row, row);
                }
                live
            });
        }
    }

    /// Record negation matches at the event's time.
    pub fn on_negation(&mut self, rt: &DisjunctRuntime, event: &Event, negs: &[NegId]) {
        self.commit_if_past(rt, event.time);
        self.pending_negs.extend_from_slice(negs);
    }

    /// Final aggregate of the window: the end state's row (Theorem 4.1).
    pub fn final_cell(&mut self, rt: &DisjunctRuntime) -> Cell {
        self.commit(rt);
        self.table.cell(&rt.layout, rt.end().index())
    }

    /// Serialize the full window state (inverse of
    /// [`TypeGrainedWindow::load`]): the state and shadow rows, each as
    /// the cell it stands for, then the open transaction.
    pub fn save(&self, rt: &DisjunctRuntime, enc: &mut Enc) {
        self.save_tables(rt, enc);
        self.save_transaction(rt, enc);
    }

    pub(crate) fn save_tables(&self, rt: &DisjunctRuntime, enc: &mut Enc) {
        let states = rt.disjunct.automaton.num_states();
        for rows in [0..states, states..rt.type_rows()] {
            enc.usize(rows.len());
            for r in rows {
                self.table.save_row(&rt.layout, r, enc);
            }
        }
    }

    pub(crate) fn save_transaction(&self, rt: &DisjunctRuntime, enc: &mut Enc) {
        let updates = self.pending.chunks_exact(1 + rt.layout.stride());
        enc.usize(updates.len());
        for update in updates {
            enc.u32(update[0] as u32);
            rt.layout.save_row(&update[1..], true, enc);
        }
        enc.usize(self.pending_negs.len());
        for n in &self.pending_negs {
            enc.u32(n.0);
        }
        enc.u64(self.pending_time.ticks());
    }

    /// Rebuild a window from bytes produced by [`TypeGrainedWindow::save`]
    /// against the same disjunct runtime.
    pub fn load(rt: &DisjunctRuntime, dec: &mut Dec) -> Result<TypeGrainedWindow, CheckpointError> {
        let mut window = TypeGrainedWindow::load_tables(rt, rt.type_rows(), dec)?;
        window.load_transaction(rt, dec)?;
        Ok(window)
    }

    /// [`TypeGrainedWindow::with_rows`], its state and shadow rows read
    /// back — each through the layout, so a saved cell of another shape is
    /// an error, not a row.
    pub(crate) fn load_tables(
        rt: &DisjunctRuntime,
        rows: usize,
        dec: &mut Dec,
    ) -> Result<TypeGrainedWindow, CheckpointError> {
        let mut window = TypeGrainedWindow::with_rows(rt, rows);
        let states = rt.disjunct.automaton.num_states();
        for (what, rows) in [("state", 0..states), ("shadow", states..rt.type_rows())] {
            let n = dec.usize()?;
            if n != rows.len() {
                return Err(CheckpointError::Corrupt(format!(
                    "window has {n} {what} cells where the compiled plan has {}",
                    rows.len()
                )));
            }
            for r in rows {
                window.table.load_row(&rt.layout, r, dec)?;
            }
        }
        Ok(window)
    }

    pub(crate) fn load_transaction(
        &mut self,
        rt: &DisjunctRuntime,
        dec: &mut Dec,
    ) -> Result<(), CheckpointError> {
        let states = rt.disjunct.automaton.num_states();
        for _ in 0..dec.usize()? {
            let state = dec.u32()?;
            let at = self.pending.len();
            self.pending.push(u64::from(state));
            rt.layout.push_row(&mut self.pending);
            let live = rt.layout.load_row(dec, &mut self.pending[at + 1..])?;
            // What `stage` keeps: an update of one of the plan's states
            // that some trend ends at.
            if state as usize >= states || !live {
                return Err(CheckpointError::Corrupt(format!(
                    "staged update of state {state} (live: {live}) in a {states}-state window"
                )));
            }
        }
        self.bytes += std::mem::size_of_val(self.pending.as_slice());
        let n_negs = dec.usize()?;
        self.pending_negs.reserve(n_negs.min(1024));
        for _ in 0..n_negs {
            self.pending_negs.push(NegId(dec.u32()?));
        }
        self.pending_time = Timestamp(dec.u64()?);
        Ok(())
    }

    /// Logical footprint: Θ(l) rows plus the open transaction.
    /// O(1) — maintained as the transaction is staged and committed.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.bytes
    }

    /// [`TypeGrainedWindow::memory_bytes`] by definition: the struct, the
    /// table's slab and the staged updates.
    #[cfg(debug_assertions)]
    pub fn audit_bytes(&self) -> usize {
        Self::INLINE_BYTES
            + self.table.memory_bytes()
            + std::mem::size_of_val(self.pending.as_slice())
    }
}

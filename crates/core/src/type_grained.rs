//! Type-Grained Aggregator (§4, Algorithm 1).
//!
//! Under skip-till-any-match without predicates on adjacent events, every
//! previously matched event of a predecessor type of `E` is adjacent to a
//! new event `e` of type `E`. One aggregate [`Cell`] per state therefore
//! suffices (Theorem 4.1):
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
//!   predecessor. Updates are staged in `pending` and committed when the
//!   window sees a later time stamp.
//! * **Negated sub-patterns** (§8): each negation-tagged transition keeps
//!   a *shadow cell* mirroring its source state's cell but reset whenever
//!   the negated type matches — "aggregates of predecessor types are
//!   marked invalid to contribute to the following types". Contributions
//!   along a tagged edge read the shadow instead of the type cell.

use crate::agg::Cell;
use crate::runtime::{DisjunctRuntime, PredSource};
use cogra_checkpoint::{CheckpointError, Dec, Enc};
use cogra_events::{Event, Timestamp};
use cogra_query::{NegId, StateId};

/// Per-window type-grained aggregation state. Also the `Tt` half of a
/// [`MixedWindow`](crate::mixed_grained::MixedWindow): Algorithm 2 with
/// `Te = ∅` is Algorithm 1.
#[derive(Debug)]
pub struct TypeGrainedWindow {
    /// Committed per-state cells (`E.count` etc. of Theorem 4.1).
    cells: Vec<Cell>,
    /// Shadow cells, one per negation-tagged transition
    /// (`DisjunctRuntime::neg_edges` order).
    shadows: Vec<Cell>,
    /// Updates of the open stream transaction.
    pending: Vec<(StateId, Cell)>,
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
        let zero = rt.zero_cell();
        TypeGrainedWindow::over(
            vec![zero.clone(); rt.disjunct.automaton.num_states()],
            vec![zero; rt.neg_edges.len()],
        )
    }

    /// A window over the given committed cells, with no open transaction.
    fn over(cells: Vec<Cell>, shadows: Vec<Cell>) -> TypeGrainedWindow {
        let mut window = TypeGrainedWindow {
            cells,
            shadows,
            pending: Vec::new(),
            pending_negs: Vec::new(),
            pending_time: Timestamp::ZERO,
            bytes: 0,
        };
        window.bytes = window.table_bytes();
        window
    }

    /// The struct and its two cell tables — everything but the staged
    /// updates.
    fn table_bytes(&self) -> usize {
        let cells = self.cells.iter().chain(&self.shadows);
        Self::INLINE_BYTES + cells.map(Cell::memory_bytes).sum::<usize>()
    }

    /// Back to the state [`TypeGrainedWindow::new`] builds, in place: the
    /// cell tables and the staging vectors keep their buffers.
    pub fn reset(&mut self) {
        self.cells.iter_mut().for_each(Cell::reset);
        self.shadows.iter_mut().for_each(Cell::reset);
        for (_, cell) in self.pending.drain(..) {
            self.bytes -= Self::staged_bytes(&cell);
        }
        self.pending_negs.clear();
        self.pending_time = Timestamp::ZERO;
    }

    /// Footprint of one staged update.
    fn staged_bytes(cell: &Cell) -> usize {
        cell.memory_bytes() + std::mem::size_of::<StateId>()
    }

    /// Stage an update of the open transaction.
    pub(crate) fn stage(&mut self, state: StateId, cell: Cell) {
        self.bytes += Self::staged_bytes(&cell);
        self.pending.push((state, cell));
    }

    pub(crate) fn commit(&mut self, rt: &DisjunctRuntime) {
        // 1. Shadow resets first: a negation match at time t invalidates
        // contributions committed strictly before t; the transaction's own
        // events (same t) are merged afterwards and stay valid.
        if !self.pending_negs.is_empty() {
            for (shadow, edge) in self.shadows.iter_mut().zip(&rt.neg_edges) {
                if edge.negations.iter().any(|n| self.pending_negs.contains(n)) {
                    shadow.reset();
                }
            }
            self.pending_negs.clear();
        }
        // 2. Merge the transaction's event cells.
        for (state, cell) in self.pending.drain(..) {
            self.bytes -= Self::staged_bytes(&cell);
            self.cells[state.index()].merge(&cell);
            for (shadow, edge) in self.shadows.iter_mut().zip(&rt.neg_edges) {
                if edge.from == state {
                    shadow.merge(&cell);
                }
            }
        }
    }

    pub(crate) fn commit_if_past(&mut self, rt: &DisjunctRuntime, t: Timestamp) {
        if t > self.pending_time {
            self.commit(rt);
            self.pending_time = t;
        }
    }

    /// What flows along `src` into a later event: the shadow cell of a
    /// negation-tagged transition, the source state's cell otherwise (what
    /// [`TypeGrainedWindow::on_event`] reads in place).
    pub(crate) fn source_cell(&self, src: &PredSource) -> &Cell {
        match src.neg_edge {
            Some(i) => &self.shadows[i],
            None => &self.cells[src.from.index()],
        }
    }

    /// Process an event bound to `binds` (type matched, locals passed).
    pub fn on_event(&mut self, rt: &DisjunctRuntime, event: &Event, binds: &[StateId]) {
        self.commit_if_past(rt, event.time);
        for &s in binds {
            let mut cell = rt.zero_cell();
            if rt.is_start(s) {
                cell.start_trend();
            }
            for src in &rt.pred_sources[s.index()] {
                let source_cell = match src.neg_edge {
                    Some(i) => &self.shadows[i],
                    None => &self.cells[src.from.index()],
                };
                cell.merge(source_cell);
            }
            if cell.is_zero() {
                continue; // no trend ends at this event (see agg.rs docs)
            }
            cell.contribute(rt.feeds.of(s), event);
            self.stage(s, cell);
        }
    }

    /// Record negation matches at the event's time.
    pub fn on_negation(&mut self, rt: &DisjunctRuntime, event: &Event, negs: &[NegId]) {
        self.commit_if_past(rt, event.time);
        self.pending_negs.extend_from_slice(negs);
    }

    /// Final aggregate of the window: the end state's cell (Theorem 4.1).
    pub fn final_cell(&mut self, rt: &DisjunctRuntime) -> Cell {
        self.commit(rt);
        self.cells[rt.end().index()].clone()
    }

    /// Serialize the full window state (inverse of
    /// [`TypeGrainedWindow::load`]): tables, then the open transaction.
    pub fn save(&self, enc: &mut Enc) {
        self.save_tables(enc);
        self.save_transaction(enc);
    }

    pub(crate) fn save_tables(&self, enc: &mut Enc) {
        Cell::save_slice(&self.cells, enc);
        Cell::save_slice(&self.shadows, enc);
    }

    pub(crate) fn save_transaction(&self, enc: &mut Enc) {
        enc.usize(self.pending.len());
        for (s, c) in &self.pending {
            enc.u32(s.0);
            c.save(enc);
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
        let mut window = TypeGrainedWindow::load_tables(rt, dec)?;
        window.load_transaction(dec)?;
        Ok(window)
    }

    pub(crate) fn load_tables(
        rt: &DisjunctRuntime,
        dec: &mut Dec,
    ) -> Result<TypeGrainedWindow, CheckpointError> {
        let mut table = |what: &str, expected: usize| {
            let cells = Cell::load_vec(dec)?;
            if cells.len() != expected {
                return Err(CheckpointError::Corrupt(format!(
                    "window has {} {what} cells where the compiled plan has {expected}",
                    cells.len()
                )));
            }
            Ok(cells)
        };
        let cells = table("state", rt.disjunct.automaton.num_states())?;
        Ok(TypeGrainedWindow::over(
            cells,
            table("shadow", rt.neg_edges.len())?,
        ))
    }

    pub(crate) fn load_transaction(&mut self, dec: &mut Dec) -> Result<(), CheckpointError> {
        let n_pending = dec.usize()?;
        self.pending.reserve(n_pending.min(1024));
        for _ in 0..n_pending {
            let s = StateId(dec.u32()?);
            self.stage(s, Cell::load(dec)?);
        }
        let n_negs = dec.usize()?;
        self.pending_negs.reserve(n_negs.min(1024));
        for _ in 0..n_negs {
            self.pending_negs.push(NegId(dec.u32()?));
        }
        self.pending_time = Timestamp(dec.u64()?);
        Ok(())
    }

    /// Logical footprint: Θ(l) cells plus shadows and open transaction.
    /// O(1) — maintained as the transaction is staged and committed.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.bytes
    }

    /// [`TypeGrainedWindow::memory_bytes`] by definition: a walk over the
    /// cells, shadows and staged updates.
    #[cfg(debug_assertions)]
    pub fn audit_bytes(&self) -> usize {
        let staged = self.pending.iter().map(|(_, c)| Self::staged_bytes(c));
        self.table_bytes() + staged.sum::<usize>()
    }
}

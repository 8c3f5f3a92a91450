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
//! Stream transactions: type-grained cells stage updates in `pending` (as
//! in Algorithm 1); event-grained contributions compare time stamps
//! directly (`ep.time < e.time`), so stored events apply immediately.
//! Negations: tagged edges from `Tt` states use shadow cells; tagged edges
//! from `Te` states check the per-negation [`NegClock`] against the stored
//! event's time.

use crate::agg::Cell;
use crate::runtime::{DisjunctRuntime, NegClock};
use cogra_events::{Event, Timestamp};
use cogra_query::{NegId, StateId};

/// A stored event of a `Te` state, with its event-grained cell.
#[derive(Debug)]
struct StoredEvent {
    event: Event,
    state: StateId,
    cell: Cell,
}

/// Per-window mixed-grained aggregation state.
#[derive(Debug)]
pub struct MixedWindow {
    /// Type-grained cells (only `Tt` entries are used).
    cells: Vec<Cell>,
    /// Shadow cells for negation-tagged edges out of `Tt` states.
    shadows: Vec<Cell>,
    /// Stored `Te` events with their event-grained cells.
    stored: Vec<StoredEvent>,
    /// Finished-trend accumulator, used when the end state is in `Te`
    /// (Algorithm 2 line 14).
    final_acc: Cell,
    /// Per-negation match clocks.
    neg_clocks: Vec<NegClock>,
    /// Open-transaction staging for type-grained cells.
    pending: Vec<(StateId, Cell)>,
    pending_negs: Vec<NegId>,
    pending_time: Timestamp,
    /// [`MixedWindow::memory_bytes`], kept current where `stored` grows
    /// and `pending` grows and drains.
    bytes: usize,
}

impl MixedWindow {
    /// The window struct less its byte counter — the instrument is not
    /// part of the state it measures.
    const INLINE_BYTES: usize = std::mem::size_of::<Self>() - std::mem::size_of::<usize>();

    /// Fresh window state.
    pub fn new(rt: &DisjunctRuntime) -> MixedWindow {
        let zero = rt.zero_cell();
        MixedWindow::over(
            vec![zero.clone(); rt.disjunct.automaton.num_states()],
            vec![zero.clone(); rt.neg_edges.len()],
            zero,
            vec![NegClock::default(); rt.disjunct.automaton.num_negated()],
        )
    }

    /// A window over the given type-grained cells, with nothing stored
    /// and no open transaction.
    fn over(
        cells: Vec<Cell>,
        shadows: Vec<Cell>,
        final_acc: Cell,
        neg_clocks: Vec<NegClock>,
    ) -> MixedWindow {
        let bytes = Self::INLINE_BYTES
            + cells.iter().map(Cell::memory_bytes).sum::<usize>()
            + shadows.iter().map(Cell::memory_bytes).sum::<usize>()
            + final_acc.memory_bytes();
        MixedWindow {
            cells,
            shadows,
            stored: Vec::new(),
            final_acc,
            neg_clocks,
            pending: Vec::new(),
            pending_negs: Vec::new(),
            pending_time: Timestamp::ZERO,
            bytes,
        }
    }

    /// Back to the state [`MixedWindow::new`] builds, in place: the cell
    /// tables, the event store and the staging vectors keep their buffers.
    pub fn reset(&mut self) {
        self.cells.iter_mut().for_each(Cell::reset);
        self.shadows.iter_mut().for_each(Cell::reset);
        for se in self.stored.drain(..) {
            self.bytes -= se.event.memory_bytes() + se.cell.memory_bytes();
        }
        self.final_acc.reset();
        self.neg_clocks.fill(NegClock::default());
        for (_, cell) in self.pending.drain(..) {
            self.bytes -= cell.memory_bytes();
        }
        self.pending_negs.clear();
        self.pending_time = Timestamp::ZERO;
    }

    /// Store a `Te` event with its event-grained cell.
    fn store(&mut self, event: Event, state: StateId, cell: Cell) {
        self.bytes += event.memory_bytes() + cell.memory_bytes();
        self.stored.push(StoredEvent { event, state, cell });
    }

    /// Stage a type-grained update of the open transaction.
    fn stage(&mut self, state: StateId, cell: Cell) {
        self.bytes += cell.memory_bytes();
        self.pending.push((state, cell));
    }

    fn commit(&mut self, rt: &DisjunctRuntime) {
        if !self.pending_negs.is_empty() {
            for (shadow, edge) in self.shadows.iter_mut().zip(&rt.neg_edges) {
                if edge.negations.iter().any(|n| self.pending_negs.contains(n)) {
                    shadow.reset();
                }
            }
            self.pending_negs.clear();
        }
        for (state, cell) in self.pending.drain(..) {
            self.bytes -= cell.memory_bytes();
            self.cells[state.index()].merge(&cell);
            for (shadow, edge) in self.shadows.iter_mut().zip(&rt.neg_edges) {
                if edge.from == state {
                    shadow.merge(&cell);
                }
            }
        }
    }

    fn commit_if_past(&mut self, rt: &DisjunctRuntime, t: Timestamp) {
        if t > self.pending_time {
            self.commit(rt);
            self.pending_time = t;
        }
    }

    /// Process an event bound to `binds`.
    pub fn on_event(&mut self, rt: &DisjunctRuntime, event: &Event, binds: &[StateId]) {
        self.commit_if_past(rt, event.time);
        let d = &rt.disjunct;
        for &s in binds {
            let mut cell = rt.zero_cell();
            if rt.is_start(s) {
                cell.start_trend();
            }
            for src in &rt.pred_sources[s.index()] {
                if d.event_grained[src.from.index()] {
                    // Event-grained source: scan stored events of that
                    // state, checking time, θ, and negation windows.
                    for ep in &self.stored {
                        if ep.state != src.from
                            || ep.event.time >= event.time
                            || !d.adjacency_predicates_pass(src.from, s, &ep.event, event)
                        {
                            continue;
                        }
                        let blocked = src
                            .negations
                            .iter()
                            .any(|n| self.neg_clocks[n.index()].blocked(ep.event.time, event.time));
                        if !blocked {
                            cell.merge(&ep.cell);
                        }
                    }
                } else {
                    let source_cell = match src.neg_edge {
                        Some(i) => &self.shadows[i],
                        None => &self.cells[src.from.index()],
                    };
                    cell.merge(source_cell);
                }
            }
            if cell.is_zero() {
                continue;
            }
            cell.contribute(rt.feeds.of(s), event);
            if d.event_grained[s.index()] {
                if s == rt.end() {
                    self.final_acc.merge(&cell);
                }
                self.store(event.clone(), s, cell);
            } else {
                self.stage(s, cell);
            }
        }
    }

    /// Record negation matches at the event's time.
    pub fn on_negation(&mut self, rt: &DisjunctRuntime, event: &Event, negs: &[NegId]) {
        self.commit_if_past(rt, event.time);
        for &n in negs {
            self.neg_clocks[n.index()].record(event.time);
        }
        self.pending_negs.extend_from_slice(negs);
    }

    /// Final aggregate: end-state type cell, or the event-grained
    /// accumulator when the end state is in `Te`.
    pub fn final_cell(&mut self, rt: &DisjunctRuntime) -> Cell {
        self.commit(rt);
        if rt.disjunct.event_grained[rt.end().index()] {
            self.final_acc.clone()
        } else {
            self.cells[rt.end().index()].clone()
        }
    }

    /// Serialize the full window state (inverse of [`MixedWindow::load`]).
    pub fn save(&self, enc: &mut cogra_checkpoint::Enc) {
        Cell::save_slice(&self.cells, enc);
        Cell::save_slice(&self.shadows, enc);
        enc.usize(self.stored.len());
        for se in &self.stored {
            se.event.save(enc);
            enc.u32(se.state.0);
            se.cell.save(enc);
        }
        self.final_acc.save(enc);
        enc.usize(self.neg_clocks.len());
        for c in &self.neg_clocks {
            c.save(enc);
        }
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

    /// Rebuild a window from bytes produced by [`MixedWindow::save`]
    /// against the same disjunct runtime.
    pub fn load(
        rt: &DisjunctRuntime,
        dec: &mut cogra_checkpoint::Dec,
    ) -> Result<MixedWindow, cogra_checkpoint::CheckpointError> {
        let cells = Cell::load_vec(dec)?;
        if cells.len() != rt.disjunct.automaton.num_states() {
            return Err(cogra_checkpoint::CheckpointError::Corrupt(format!(
                "mixed window has {} cells for a {}-state automaton",
                cells.len(),
                rt.disjunct.automaton.num_states()
            )));
        }
        let shadows = Cell::load_vec(dec)?;
        if shadows.len() != rt.neg_edges.len() {
            return Err(cogra_checkpoint::CheckpointError::Corrupt(format!(
                "mixed window has {} shadows for {} negation edges",
                shadows.len(),
                rt.neg_edges.len()
            )));
        }
        let n_stored = dec.usize()?;
        let mut stored = Vec::with_capacity(n_stored.min(1024));
        for _ in 0..n_stored {
            let event = Event::load(dec)?;
            let state = StateId(dec.u32()?);
            stored.push((event, state, Cell::load(dec)?));
        }
        let final_acc = Cell::load(dec)?;
        let n_clocks = dec.usize()?;
        if n_clocks != rt.disjunct.automaton.num_negated() {
            return Err(cogra_checkpoint::CheckpointError::Corrupt(format!(
                "mixed window has {n_clocks} negation clocks for {} negated variables",
                rt.disjunct.automaton.num_negated()
            )));
        }
        let mut neg_clocks = Vec::with_capacity(n_clocks);
        for _ in 0..n_clocks {
            neg_clocks.push(NegClock::load(dec)?);
        }
        let mut window = MixedWindow::over(cells, shadows, final_acc, neg_clocks);
        for (event, state, cell) in stored {
            window.store(event, state, cell);
        }
        let n_pending = dec.usize()?;
        window.pending.reserve(n_pending.min(1024));
        for _ in 0..n_pending {
            let s = StateId(dec.u32()?);
            window.stage(s, Cell::load(dec)?);
        }
        let n_negs = dec.usize()?;
        window.pending_negs.reserve(n_negs.min(1024));
        for _ in 0..n_negs {
            window.pending_negs.push(NegId(dec.u32()?));
        }
        window.pending_time = Timestamp(dec.u64()?);
        Ok(window)
    }

    /// Logical footprint: Θ(t + nₑ) — type cells plus stored events.
    /// O(1) — maintained as events are stored and updates staged.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.bytes
    }

    /// [`MixedWindow::memory_bytes`] by definition: a walk over the cells,
    /// the stored events and the staged updates.
    #[cfg(debug_assertions)]
    pub fn audit_bytes(&self) -> usize {
        Self::INLINE_BYTES
            + self.cells.iter().map(Cell::memory_bytes).sum::<usize>()
            + self.shadows.iter().map(Cell::memory_bytes).sum::<usize>()
            + self.final_acc.memory_bytes()
            + self
                .stored
                .iter()
                .map(|se| se.event.memory_bytes() + se.cell.memory_bytes())
                .sum::<usize>()
            + self
                .pending
                .iter()
                .map(|(_, c)| c.memory_bytes())
                .sum::<usize>()
    }

    /// Number of stored events (the `nₑ` of Theorem 5.2) — exposed for
    /// tests and the experiment harness.
    pub fn stored_events(&self) -> usize {
        self.stored.len()
    }
}

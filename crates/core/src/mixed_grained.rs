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
//! The `Tt` half *is* Algorithm 1 — cells, shadow cells for tagged edges
//! out of `Tt` states, the staged stream transaction — so the window holds
//! a [`TypeGrainedWindow`] for it. Event-grained contributions compare time
//! stamps directly (`ep.time < e.time`), so stored events apply
//! immediately; tagged edges from `Te` states check the per-negation
//! [`NegClock`] against the stored event's time.

use crate::agg::Cell;
use crate::runtime::{DisjunctRuntime, NegClock};
use crate::type_grained::TypeGrainedWindow;
use cogra_checkpoint::{CheckpointError, Dec, Enc};
use cogra_events::Event;
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
    /// The `Tt` states' cells, shadows and open transaction (only `Tt`
    /// entries of its tables are used).
    tt: TypeGrainedWindow,
    /// Stored `Te` events with their event-grained cells.
    stored: Vec<StoredEvent>,
    /// Finished-trend accumulator, used when the end state is in `Te`
    /// (Algorithm 2 line 14).
    final_acc: Cell,
    /// Per-negation match clocks.
    neg_clocks: Vec<NegClock>,
    /// What the window holds beyond `tt`, kept current where `stored`
    /// grows.
    bytes: usize,
}

impl MixedWindow {
    /// The window struct less `tt` (which counts itself) and the byte
    /// counter — the instrument is not part of the state it measures.
    const INLINE_BYTES: usize = std::mem::size_of::<Self>()
        - std::mem::size_of::<TypeGrainedWindow>()
        - std::mem::size_of::<usize>();

    /// Fresh window state.
    pub fn new(rt: &DisjunctRuntime) -> MixedWindow {
        MixedWindow::over(
            TypeGrainedWindow::new(rt),
            rt.zero_cell(),
            vec![NegClock::default(); rt.disjunct.automaton.num_negated()],
        )
    }

    /// A window over the given type-grained half, with nothing stored.
    fn over(tt: TypeGrainedWindow, final_acc: Cell, neg_clocks: Vec<NegClock>) -> MixedWindow {
        MixedWindow {
            tt,
            stored: Vec::new(),
            bytes: Self::INLINE_BYTES + final_acc.memory_bytes(),
            final_acc,
            neg_clocks,
        }
    }

    /// Back to the state [`MixedWindow::new`] builds, in place: the cell
    /// tables, the event store and the staging vectors keep their buffers.
    pub fn reset(&mut self) {
        self.tt.reset();
        for se in self.stored.drain(..) {
            self.bytes -= Self::stored_bytes(&se);
        }
        self.final_acc.reset();
        self.neg_clocks.fill(NegClock::default());
    }

    /// Footprint of one stored event.
    fn stored_bytes(se: &StoredEvent) -> usize {
        se.event.memory_bytes() + se.cell.memory_bytes()
    }

    /// Store a `Te` event with its event-grained cell.
    fn store(&mut self, event: Event, state: StateId, cell: Cell) {
        let se = StoredEvent { event, state, cell };
        self.bytes += Self::stored_bytes(&se);
        self.stored.push(se);
    }

    /// Process an event bound to `binds`.
    pub fn on_event(&mut self, rt: &DisjunctRuntime, event: &Event, binds: &[StateId]) {
        self.tt.commit_if_past(rt, event.time);
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
                    cell.merge(self.tt.source_cell(src));
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
                self.tt.stage(s, cell);
            }
        }
    }

    /// Record negation matches at the event's time.
    pub fn on_negation(&mut self, rt: &DisjunctRuntime, event: &Event, negs: &[NegId]) {
        self.tt.on_negation(rt, event, negs);
        for &n in negs {
            self.neg_clocks[n.index()].record(event.time);
        }
    }

    /// Final aggregate: end-state type cell, or the event-grained
    /// accumulator when the end state is in `Te`.
    pub fn final_cell(&mut self, rt: &DisjunctRuntime) -> Cell {
        if rt.disjunct.event_grained[rt.end().index()] {
            self.tt.commit(rt);
            self.final_acc.clone()
        } else {
            self.tt.final_cell(rt)
        }
    }

    /// Serialize the full window state (inverse of [`MixedWindow::load`]):
    /// the `Tt` tables, the stored part, the `Tt` transaction.
    pub fn save(&self, enc: &mut Enc) {
        self.tt.save_tables(enc);
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
        self.tt.save_transaction(enc);
    }

    /// Rebuild a window from bytes produced by [`MixedWindow::save`]
    /// against the same disjunct runtime.
    pub fn load(rt: &DisjunctRuntime, dec: &mut Dec) -> Result<MixedWindow, CheckpointError> {
        let tt = TypeGrainedWindow::load_tables(rt, dec)?;
        let n_stored = dec.usize()?;
        let mut stored = Vec::with_capacity(n_stored.min(1024));
        for _ in 0..n_stored {
            stored.push(StoredEvent {
                event: Event::load(dec)?,
                state: StateId(dec.u32()?),
                cell: Cell::load(dec)?,
            });
        }
        let final_acc = Cell::load(dec)?;
        let n_clocks = dec.usize()?;
        if n_clocks != rt.disjunct.automaton.num_negated() {
            return Err(CheckpointError::Corrupt(format!(
                "mixed window has {n_clocks} negation clocks for {} negated variables",
                rt.disjunct.automaton.num_negated()
            )));
        }
        let mut neg_clocks = Vec::with_capacity(n_clocks);
        for _ in 0..n_clocks {
            neg_clocks.push(NegClock::load(dec)?);
        }
        let mut window = MixedWindow::over(tt, final_acc, neg_clocks);
        window.bytes += stored.iter().map(Self::stored_bytes).sum::<usize>();
        window.stored = stored;
        window.tt.load_transaction(dec)?;
        Ok(window)
    }

    /// Logical footprint: Θ(t + nₑ) — type cells plus stored events.
    /// O(1) — maintained as events are stored and updates staged.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.tt.memory_bytes() + self.bytes
    }

    /// [`MixedWindow::memory_bytes`] by definition: a walk over the cells,
    /// the stored events and the staged updates.
    #[cfg(debug_assertions)]
    pub fn audit_bytes(&self) -> usize {
        self.tt.audit_bytes()
            + Self::INLINE_BYTES
            + self.final_acc.memory_bytes()
            + self.stored.iter().map(Self::stored_bytes).sum::<usize>()
    }

    /// Number of stored events (the `nₑ` of Theorem 5.2) — exposed for
    /// tests and the experiment harness.
    pub fn stored_events(&self) -> usize {
        self.stored.len()
    }
}

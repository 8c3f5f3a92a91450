//! Pattern-Grained Aggregator (§6, Algorithm 3).
//!
//! Under the skip-till-next-match and contiguous semantics an event has at
//! most one predecessor *event* (Theorem 6.1), so only the last matched
//! event `el` and the final aggregate are kept:
//!
//! ```text
//! e.count = el.count  (if adjacent)   (+1 if start type)
//! final  += e.count   (if end type)
//! ```
//!
//! Time: O(n); space: O(1) — both optimal (Theorems 6.3, 6.4).
//!
//! Generalisation beyond the paper's pseudo-code: when one event type
//! occurs at several pattern positions (§8, e.g. `SEQ(Stock A+, Stock
//! B+)`), the last matched event may be bound to *several* states, each
//! with its own partial-trend cell. `el` therefore carries a small
//! per-state cell table — still O(l) per window, independent of the
//! number of events, which is what "pattern granularity" promises.
//!
//! Semantics of unmatched events:
//! * NEXT — skipped (only *relevant* events must extend the trend);
//! * CONT — they invalidate the open partial trends: `el ← null`
//!   (Algorithm 3 lines 8–9; the final count survives).
//!
//! Events inside one stream transaction are processed in arrival order;
//! adjacency additionally requires `el.time < e.time`, so simultaneous
//! events never chain (Definition 7 condition 2).

use crate::agg::Cell;
use crate::runtime::{DisjunctRuntime, NegClock};
use cogra_events::{Event, TypeId};
use cogra_query::{NegId, Semantics, StateId};

/// A matched event with its per-state partial-trend cells.
#[derive(Debug)]
struct LastEvent {
    event: Event,
    /// `cells[s]` — aggregates of the partial trends ending at this event
    /// bound to state `s`; `None` when the event is not bound there.
    cells: Vec<Option<Cell>>,
}

impl LastEvent {
    /// Footprint of an unbound slot of the cell table: one word.
    const UNBOUND_BYTES: usize = 8;

    /// A buffer for a matched event of an `n_states`-state automaton.
    fn blank(n_states: usize) -> LastEvent {
        LastEvent {
            event: Event::new(0, 0, TypeId(0), Vec::new()),
            cells: vec![None; n_states],
        }
    }

    /// Footprint of the event and its cell table.
    fn memory_bytes(&self) -> usize {
        self.event.memory_bytes()
            + self
                .cells
                .iter()
                .map(|c| c.as_ref().map_or(Self::UNBOUND_BYTES, Cell::memory_bytes))
                .sum::<usize>()
    }
}

/// Per-window pattern-grained aggregation state.
#[derive(Debug)]
pub struct PatternWindow {
    /// The last matched event `el` — while `el_live`; otherwise a buffer
    /// whose content means nothing.
    el: LastEvent,
    el_live: bool,
    final_acc: Cell,
    neg_clocks: Vec<NegClock>,
    /// The buffer the next matched event is written into, then swapped
    /// with `el`: in steady state a matched event is copied, attribute
    /// vector and cell table included, without allocating.
    spare: LastEvent,
    /// [`LastEvent::memory_bytes`] of `el` (0 while there is none), set
    /// where `el` is — the only part of [`PatternWindow::memory_bytes`]
    /// that moves.
    el_bytes: usize,
}

impl PatternWindow {
    /// Fresh window state.
    pub fn new(rt: &DisjunctRuntime) -> PatternWindow {
        PatternWindow::over(
            rt,
            rt.zero_cell(),
            vec![NegClock::default(); rt.disjunct.automaton.num_negated()],
        )
    }

    /// A window over the given final aggregate and clocks, with no last
    /// matched event.
    fn over(rt: &DisjunctRuntime, final_acc: Cell, neg_clocks: Vec<NegClock>) -> PatternWindow {
        let n_states = rt.disjunct.automaton.num_states();
        PatternWindow {
            el: LastEvent::blank(n_states),
            el_live: false,
            final_acc,
            neg_clocks,
            spare: LastEvent::blank(n_states),
            el_bytes: 0,
        }
    }

    /// Back to the state [`PatternWindow::new`] builds, in place: both
    /// event buffers are kept.
    pub fn reset(&mut self) {
        self.clear_el();
        self.final_acc.reset();
        self.neg_clocks.fill(NegClock::default());
    }

    /// Process an event bound to `binds`; `semantics` is NEXT or CONT.
    pub fn on_event(
        &mut self,
        rt: &DisjunctRuntime,
        event: &Event,
        binds: &[StateId],
        semantics: Semantics,
    ) {
        let d = &rt.disjunct;
        if binds.is_empty() {
            // Fast path: the event is irrelevant to this disjunct. NEXT
            // skips it; CONT invalidates the open partial trends.
            if semantics == Semantics::Cont {
                self.clear_el();
            }
            return;
        }
        let new_cells = &mut self.spare.cells;
        new_cells.iter_mut().for_each(|c| *c = None);
        // The table's footprint, kept as slots are bound: measuring it
        // afterwards would be a second pass over the table per event.
        let mut table_bytes = LastEvent::UNBOUND_BYTES * new_cells.len();
        let mut matched = false;
        for &s in binds {
            let mut cell = rt.zero_cell();
            if rt.is_start(s) {
                cell.start_trend();
            }
            let el = &self.el;
            if self.el_live && el.event.time < event.time {
                for src in &rt.pred_sources[s.index()] {
                    let Some(el_cell) = &el.cells[src.from.index()] else {
                        continue;
                    };
                    if !d.adjacency_predicates_pass(src.from, s, &el.event, event) {
                        continue;
                    }
                    let blocked = src
                        .negations
                        .iter()
                        .any(|n| self.neg_clocks[n.index()].blocked(el.event.time, event.time));
                    if !blocked {
                        cell.merge(el_cell);
                    }
                }
            }
            if cell.is_zero() {
                continue; // not matched at this state
            }
            cell.contribute(rt.feeds.of(s), event);
            if s == rt.end() {
                self.final_acc.merge(&cell);
            }
            let slot = &mut new_cells[s.index()];
            table_bytes += cell.memory_bytes();
            table_bytes -= slot
                .as_ref()
                .map_or(LastEvent::UNBOUND_BYTES, Cell::memory_bytes);
            *slot = Some(cell);
            matched = true;
        }
        if matched {
            // Copy the event into the spare buffer (no allocation once the
            // buffer has held an event of this width), then trade places
            // with the previous `el`, which becomes the next spare.
            let copy = &mut self.spare.event;
            copy.id = event.id;
            copy.time = event.time;
            copy.type_id = event.type_id;
            copy.attrs.clone_from(&event.attrs);
            std::mem::swap(&mut self.el, &mut self.spare);
            self.el_live = true;
            self.el_bytes = event.memory_bytes() + table_bytes;
        } else if semantics == Semantics::Cont {
            // An unmatched event invalidates the partial trends that end
            // at the last matched event; the final count is preserved
            // (Algorithm 3 lines 8-9).
            self.clear_el();
        }
    }

    /// Forget the last matched event (its buffer stays).
    fn clear_el(&mut self) {
        self.el_live = false;
        self.el_bytes = 0;
    }

    /// Record negation matches. Under CONT the router also routes the
    /// event through [`PatternWindow::on_event`], where it resets `el` if
    /// it binds no positive state.
    pub fn on_negation(&mut self, _rt: &DisjunctRuntime, event: &Event, negs: &[NegId]) {
        for &n in negs {
            self.neg_clocks[n.index()].record(event.time);
        }
    }

    /// Final aggregate of the window.
    pub fn final_cell(&mut self, _rt: &DisjunctRuntime) -> Cell {
        self.final_acc.clone()
    }

    /// Serialize the full window state (inverse of [`PatternWindow::load`]).
    /// The `spare` buffer is transient and not serialized.
    pub fn save(&self, enc: &mut cogra_checkpoint::Enc) {
        enc.bool(self.el_live);
        if self.el_live {
            self.el.event.save(enc);
            enc.usize(self.el.cells.len());
            for c in &self.el.cells {
                match c {
                    Some(cell) => {
                        enc.bool(true);
                        cell.save(enc);
                    }
                    None => enc.bool(false),
                }
            }
        }
        self.final_acc.save(enc);
        enc.usize(self.neg_clocks.len());
        for c in &self.neg_clocks {
            c.save(enc);
        }
    }

    /// Rebuild a window from bytes produced by [`PatternWindow::save`]
    /// against the same disjunct runtime.
    pub fn load(
        rt: &DisjunctRuntime,
        dec: &mut cogra_checkpoint::Dec,
    ) -> Result<PatternWindow, cogra_checkpoint::CheckpointError> {
        let el = if dec.bool()? {
            let event = Event::load(dec)?;
            let n = dec.usize()?;
            if n != rt.disjunct.automaton.num_states() {
                return Err(cogra_checkpoint::CheckpointError::Corrupt(format!(
                    "pattern window has {n} last-event cells for a {}-state automaton",
                    rt.disjunct.automaton.num_states()
                )));
            }
            let mut cells = Vec::with_capacity(n);
            for _ in 0..n {
                cells.push(if dec.bool()? {
                    Some(Cell::load(dec)?)
                } else {
                    None
                });
            }
            Some(LastEvent { event, cells })
        } else {
            None
        };
        let final_acc = Cell::load(dec)?;
        let n_clocks = dec.usize()?;
        if n_clocks != rt.disjunct.automaton.num_negated() {
            return Err(cogra_checkpoint::CheckpointError::Corrupt(format!(
                "pattern window has {n_clocks} negation clocks for {} negated variables",
                rt.disjunct.automaton.num_negated()
            )));
        }
        let mut neg_clocks = Vec::with_capacity(n_clocks);
        for _ in 0..n_clocks {
            neg_clocks.push(NegClock::load(dec)?);
        }
        let mut window = PatternWindow::over(rt, final_acc, neg_clocks);
        if let Some(el) = el {
            window.el_bytes = el.memory_bytes();
            window.el = el;
            window.el_live = true;
        }
        Ok(window)
    }

    /// The window struct less its byte counter and the spare buffer's
    /// handle — an instrument and a scratch buffer, not the state being
    /// measured.
    const INLINE_BYTES: usize = std::mem::size_of::<Self>()
        - std::mem::size_of::<usize>()
        - std::mem::size_of::<LastEvent>();

    /// Logical footprint: O(1) in the number of events — the final cell,
    /// the last matched event, and its O(l) cell table. The read itself
    /// is O(1): `el`'s share is cached where `el` is set.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        Self::INLINE_BYTES + self.final_acc.memory_bytes() + self.el_bytes
    }

    /// [`PatternWindow::memory_bytes`] by definition: `el` is measured
    /// afresh instead of read from the cache.
    #[cfg(debug_assertions)]
    pub fn audit_bytes(&self) -> usize {
        Self::INLINE_BYTES
            + self.final_acc.memory_bytes()
            + if self.el_live {
                self.el.memory_bytes()
            } else {
                0
            }
    }
}

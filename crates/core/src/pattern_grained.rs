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
use cogra_events::Event;
use cogra_query::{NegId, Semantics, StateId};

/// The last matched event with its per-state partial-trend cells.
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
    el: Option<LastEvent>,
    final_acc: Cell,
    neg_clocks: Vec<NegClock>,
    /// Recycled cell table, avoiding a per-event allocation on the hot
    /// path (most events either extend or reset; the table swaps with
    /// `el`'s).
    scratch: Vec<Option<Cell>>,
    /// [`LastEvent::memory_bytes`] of `el` (0 while there is none), set
    /// where `el` is — the only part of [`PatternWindow::memory_bytes`]
    /// that moves.
    el_bytes: usize,
}

impl PatternWindow {
    /// Fresh window state.
    pub fn new(rt: &DisjunctRuntime) -> PatternWindow {
        PatternWindow {
            el: None,
            final_acc: rt.zero_cell(),
            neg_clocks: vec![NegClock::default(); rt.disjunct.automaton.num_negated()],
            scratch: vec![None; rt.disjunct.automaton.num_states()],
            el_bytes: 0,
        }
    }

    /// Replace the last matched event (`bytes` is its footprint), handing
    /// back the previous one.
    #[inline]
    fn set_el(&mut self, el: Option<LastEvent>, bytes: usize) -> Option<LastEvent> {
        self.el_bytes = bytes;
        std::mem::replace(&mut self.el, el)
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
        let mut new_cells = std::mem::take(&mut self.scratch);
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
            if let Some(el) = &self.el {
                if el.event.time < event.time {
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
            let el = LastEvent {
                event: event.clone(),
                cells: new_cells,
            };
            match self.set_el(Some(el), event.memory_bytes() + table_bytes) {
                // Recycle the previous table; when there was no previous
                // event the scratch slot must be refilled.
                Some(old) => self.scratch = old.cells,
                None => self.scratch = vec![None; d.automaton.num_states()],
            }
        } else {
            self.scratch = new_cells;
            if semantics == Semantics::Cont {
                // An unmatched event invalidates the partial trends that
                // end at the last matched event; the final count is
                // preserved (Algorithm 3 lines 8-9).
                self.clear_el();
            }
        }
    }

    /// Drop the last matched event, recycling its cell table.
    fn clear_el(&mut self) {
        if let Some(old) = self.set_el(None, 0) {
            self.scratch = old.cells;
        }
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
    /// The recycled `scratch` table is transient and not serialized.
    pub fn save(&self, enc: &mut cogra_checkpoint::Enc) {
        match &self.el {
            Some(el) => {
                enc.bool(true);
                el.event.save(enc);
                enc.usize(el.cells.len());
                for c in &el.cells {
                    match c {
                        Some(cell) => {
                            enc.bool(true);
                            cell.save(enc);
                        }
                        None => enc.bool(false),
                    }
                }
            }
            None => enc.bool(false),
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
        let mut window = PatternWindow {
            el: None,
            final_acc,
            neg_clocks,
            scratch: vec![None; rt.disjunct.automaton.num_states()],
            el_bytes: 0,
        };
        let bytes = el.as_ref().map_or(0, LastEvent::memory_bytes);
        window.set_el(el, bytes);
        Ok(window)
    }

    /// The window struct less its byte counter — the instrument is not
    /// part of the state it measures.
    const INLINE_BYTES: usize = std::mem::size_of::<Self>() - std::mem::size_of::<usize>();

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
            + self.el.as_ref().map_or(0, LastEvent::memory_bytes)
    }
}

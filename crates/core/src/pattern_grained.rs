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
//! with its own partial-trend aggregates. `el` therefore carries a row per
//! state — still O(l) per window, independent of the number of events,
//! which is what "pattern granularity" promises.
//!
//! Semantics of unmatched events:
//! * NEXT — skipped (only *relevant* events must extend the trend);
//! * CONT — they invalidate the open partial trends: `el ← null`
//!   (Algorithm 3 lines 8–9; the final count survives).
//!
//! Events inside one stream transaction are processed in arrival order;
//! adjacency additionally requires `el.time < e.time`, so simultaneous
//! events never chain (Definition 7 condition 2).
//!
//! ## What a window holds
//!
//! One [`CellTable`] of `2l + 1` rows: two halves of `l` rows — one is
//! `el`'s partial trends by state (a row's live bit says whether `el` is
//! bound there), the other the scratch the next matched event's are
//! computed in, after which the halves trade places — and the final
//! accumulator. Two event buffers that trade places the same way, and one
//! [`NegClock`] per negated variable. The scratch half and the scratch
//! buffer are capacity, not state: they are not counted.

use crate::agg::{Cell, CellTable};
use crate::runtime::{DisjunctRuntime, NegClock};
use cogra_events::{Event, TypeId};
use cogra_query::{NegId, Semantics, StateId};

/// Per-window pattern-grained aggregation state.
#[derive(Debug)]
pub struct PatternWindow {
    /// `el`'s rows, the scratch rows and the final accumulator (see the
    /// module docs).
    table: CellTable,
    /// The last matched event `el` — while `el_live`; otherwise a buffer
    /// whose content means nothing.
    el: Event,
    el_live: bool,
    /// Whether `el`'s rows are the table's second half.
    el_high: bool,
    neg_clocks: Vec<NegClock>,
    /// The buffer the next matched event is written into, then swapped
    /// with `el`: in steady state a matched event is copied, attribute
    /// vector included, without allocating.
    spare: Event,
    /// Footprint of `el` and its rows (0 while there is none), set where
    /// `el` is — the only part of [`PatternWindow::memory_bytes`] that
    /// moves.
    el_bytes: usize,
}

impl PatternWindow {
    /// Fresh window state.
    pub fn new(rt: &DisjunctRuntime) -> PatternWindow {
        let blank = || Event::new(0, 0, TypeId(0), Vec::new());
        PatternWindow {
            table: CellTable::new(&rt.layout, 2 * rt.disjunct.automaton.num_states() + 1),
            el: blank(),
            el_live: false,
            el_high: false,
            neg_clocks: vec![NegClock::default(); rt.disjunct.automaton.num_negated()],
            spare: blank(),
            el_bytes: 0,
        }
    }

    /// Back to the state [`PatternWindow::new`] builds, in place: both
    /// event buffers are kept.
    pub fn reset(&mut self, rt: &DisjunctRuntime) {
        self.clear_el();
        self.table.reset(&rt.layout, self.final_row());
        self.neg_clocks.fill(NegClock::default());
    }

    /// States of the automaton: rows per half of the table.
    fn states(&self) -> usize {
        self.table.rows() / 2
    }

    /// The accumulator's row.
    fn final_row(&self) -> usize {
        self.table.rows() - 1
    }

    /// First rows of `el`'s half and of the scratch half.
    fn halves(&self) -> (usize, usize) {
        if self.el_high {
            (self.states(), 0)
        } else {
            (0, self.states())
        }
    }

    /// Footprint of `el`: the event and its half of the table.
    fn el_bytes(&self) -> usize {
        self.el.memory_bytes() + self.table.row_bytes(self.states())
    }

    /// Process an event bound to `binds`; `semantics` is NEXT or CONT.
    pub fn on_event(
        &mut self,
        rt: &DisjunctRuntime,
        event: &Event,
        binds: &[StateId],
        semantics: Semantics,
    ) {
        let (d, layout) = (&rt.disjunct, &rt.layout);
        if binds.is_empty() {
            // Fast path: the event is irrelevant to this disjunct. NEXT
            // skips it; CONT invalidates the open partial trends.
            if semantics == Semantics::Cont {
                self.clear_el();
            }
            return;
        }
        let (el_rows, new_rows) = self.halves();
        let final_row = self.final_row();
        // The scratch half still holds the rows of the event before `el`:
        // all of them dead now, and the ones this event may be bound at
        // back to the identity. A dead row's words are never read.
        self.table.clear_live(new_rows..new_rows + self.states());
        let chains = self.el_live && self.el.time < event.time;
        let mut matched = false;
        for &s in binds {
            let row = new_rows + s.index();
            self.table.reset(layout, row);
            if rt.is_start(s) {
                self.table.start_trend(row);
            }
            let sources = if chains {
                rt.pred_sources[s.index()].as_slice()
            } else {
                &[]
            };
            for src in sources {
                let el_row = el_rows + src.from.index();
                if !self.table.is_live(el_row)
                    || !d.adjacency_predicates_pass(src.from, s, &self.el, event)
                {
                    continue;
                }
                let blocked = src
                    .negations
                    .iter()
                    .any(|n| self.neg_clocks[n.index()].blocked(self.el.time, event.time));
                if !blocked {
                    self.table.merge(layout, row, el_row);
                }
            }
            if !self.table.is_live(row) {
                continue; // not matched at this state
            }
            self.table.contribute(layout, row, rt.feeds.of(s), event);
            if s == rt.end() {
                self.table.merge(layout, final_row, row);
            }
            matched = true;
        }
        if matched {
            // Copy the event into the spare buffer (no allocation once the
            // buffer has held an event of this width), then trade places
            // with the previous `el`, buffer and rows: they are the next
            // scratch.
            let copy = &mut self.spare;
            copy.id = event.id;
            copy.time = event.time;
            copy.type_id = event.type_id;
            copy.attrs.clone_from(&event.attrs);
            std::mem::swap(&mut self.el, &mut self.spare);
            self.el_high = !self.el_high;
            self.el_live = true;
            self.el_bytes = self.el_bytes();
        } else if semantics == Semantics::Cont {
            // An unmatched event invalidates the partial trends that end
            // at the last matched event; the final count is preserved
            // (Algorithm 3 lines 8-9).
            self.clear_el();
        }
    }

    /// Forget the last matched event (its buffer and rows stay).
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
    pub fn final_cell(&mut self, rt: &DisjunctRuntime) -> Cell {
        self.table.cell(&rt.layout, self.final_row())
    }

    /// Serialize the full window state (inverse of [`PatternWindow::load`]),
    /// every bound row as the cell it stands for. The scratch half and the
    /// `spare` buffer are transient and not serialized.
    pub fn save(&self, rt: &DisjunctRuntime, enc: &mut cogra_checkpoint::Enc) {
        enc.bool(self.el_live);
        if self.el_live {
            self.el.save(enc);
            enc.usize(self.states());
            let (el_rows, _) = self.halves();
            for r in el_rows..el_rows + self.states() {
                enc.bool(self.table.is_live(r));
                if self.table.is_live(r) {
                    self.table.save_row(&rt.layout, r, enc);
                }
            }
        }
        self.table.save_row(&rt.layout, self.final_row(), enc);
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
        use cogra_checkpoint::CheckpointError::Corrupt;
        let mut window = PatternWindow::new(rt);
        if dec.bool()? {
            window.el = Event::load(dec)?;
            let n = dec.usize()?;
            if n != window.states() {
                return Err(Corrupt(format!(
                    "pattern window has {n} last-event cells for a {}-state automaton",
                    window.states()
                )));
            }
            for r in 0..n {
                if !dec.bool()? {
                    continue;
                }
                window.table.load_row(&rt.layout, r, dec)?;
                rt.check_bound(&window.el, StateId(r as u32))?;
                // A bound row is one some trend ends at — what `on_event`
                // keeps, and what marks the row as bound.
                if !window.table.is_live(r) {
                    return Err(Corrupt(format!(
                        "last matched event is bound to state {r} with no trend ending there"
                    )));
                }
            }
            window.el_live = true;
            window.el_bytes = window.el_bytes();
        }
        let final_row = window.final_row();
        window.table.load_row(&rt.layout, final_row, dec)?;
        let n_clocks = dec.usize()?;
        if n_clocks != window.neg_clocks.len() {
            return Err(Corrupt(format!(
                "pattern window has {n_clocks} negation clocks for {} negated variables",
                window.neg_clocks.len()
            )));
        }
        for clock in &mut window.neg_clocks {
            *clock = NegClock::load(dec)?;
        }
        Ok(window)
    }

    /// The window struct less its byte counter and the spare buffer's
    /// handle — an instrument and a scratch buffer, not the state being
    /// measured.
    const INLINE_BYTES: usize =
        std::mem::size_of::<Self>() - std::mem::size_of::<usize>() - std::mem::size_of::<Event>();

    /// What the window always holds: the struct, the table's live bits
    /// and the accumulator's row.
    fn fixed_bytes(&self) -> usize {
        Self::INLINE_BYTES + self.table.memory_bytes() - self.table.row_bytes(2 * self.states())
    }

    /// Logical footprint: O(1) in the number of events — the final row,
    /// the last matched event, and its O(l) rows. The read itself is
    /// O(1): `el`'s share is cached where `el` is set.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.fixed_bytes() + self.el_bytes
    }

    /// [`PatternWindow::memory_bytes`] by definition: `el` is measured
    /// afresh instead of read from the cache.
    #[cfg(debug_assertions)]
    pub fn audit_bytes(&self) -> usize {
        self.fixed_bytes() + if self.el_live { self.el_bytes() } else { 0 }
    }
}

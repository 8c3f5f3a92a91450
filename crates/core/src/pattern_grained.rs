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
//! accumulator. Of `el` itself, what the plan reads of it again: its time
//! stamp and the stored projection of its type
//! ([`CompiledDisjunct::stored`] — the `pred_attr`s of the predicates on
//! adjacent events; nothing but the time stamp for a plan without any).
//! One [`NegClock`] per negated variable. The scratch half is capacity,
//! not state: it is not counted.
//!
//! [`CompiledDisjunct::stored`]: cogra_query::CompiledDisjunct::stored

use crate::agg::{Cell, CellTable};
use crate::runtime::{DisjunctRuntime, NegClock};
use cogra_events::{Event, Timestamp, Value};
use cogra_query::{NegId, Semantics, StateId};

/// Per-window pattern-grained aggregation state.
#[derive(Debug)]
pub struct PatternWindow {
    /// `el`'s rows, the scratch rows and the final accumulator (see the
    /// module docs).
    table: CellTable,
    /// The last matched event `el`, as far as the plan reads it again —
    /// while `el_live`; otherwise content that means nothing. Its time
    /// stamp…
    el_time: Timestamp,
    /// …and its stored projection ([`DisjunctRuntime::store`]): written in
    /// place, so in steady state a matched event is kept without
    /// allocating.
    el_stored: Vec<Value>,
    el_live: bool,
    /// Whether `el`'s rows are the table's second half.
    el_high: bool,
    neg_clocks: Vec<NegClock>,
    /// Footprint of `el`'s stored values and its rows (0 while there is
    /// none), set where `el` is — the only part of
    /// [`PatternWindow::memory_bytes`] that moves.
    el_bytes: usize,
}

impl PatternWindow {
    /// Fresh window state.
    pub fn new(rt: &DisjunctRuntime) -> PatternWindow {
        PatternWindow {
            table: CellTable::new(&rt.layout, 2 * rt.disjunct.automaton.num_states() + 1),
            el_time: Timestamp::ZERO,
            el_stored: Vec::new(),
            el_live: false,
            el_high: false,
            neg_clocks: vec![NegClock::default(); rt.disjunct.automaton.num_negated()],
            el_bytes: 0,
        }
    }

    /// Back to the state [`PatternWindow::new`] builds, in place: the
    /// buffer of stored values is kept.
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

    /// Footprint of `el`: its stored values and its half of the table.
    fn el_bytes(&self) -> usize {
        let stored = self.el_stored.iter().map(Value::memory_bytes);
        stored.sum::<usize>() + self.table.row_bytes(self.states())
    }

    /// Process an event bound to `binds`; `semantics` is NEXT or CONT.
    pub fn on_event(
        &mut self,
        rt: &DisjunctRuntime,
        event: &Event,
        binds: &[StateId],
        semantics: Semantics,
    ) {
        let layout = &rt.layout;
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
        let chains = self.el_live && self.el_time < event.time;
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
                if !self.table.is_live(el_row) || !src.adjacents_pass(&self.el_stored, event) {
                    continue;
                }
                let blocked = src
                    .negations
                    .iter()
                    .any(|n| self.neg_clocks[n.index()].blocked(self.el_time, event.time));
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
            // The previous `el` was last read above: the event takes its
            // place (no allocation once the buffer has held a tuple of
            // this width), and the halves trade places — the previous
            // `el`'s rows are the next scratch.
            self.el_high = !self.el_high;
            self.el_time = event.time;
            self.el_stored.clear();
            rt.store(event, &mut self.el_stored);
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
    /// every bound row as the cell it stands for. The scratch half is
    /// transient and not serialized.
    pub fn save(&self, rt: &DisjunctRuntime, enc: &mut cogra_checkpoint::Enc) {
        enc.bool(self.el_live);
        if self.el_live {
            enc.u64(self.el_time.ticks());
            Value::save_slice(&self.el_stored, enc);
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
    /// against the same disjunct runtime — or by the `save` of formats
    /// 2–3, which wrote `el` as the whole event: checked as it was then,
    /// and projected here.
    pub fn load(
        rt: &DisjunctRuntime,
        dec: &mut cogra_checkpoint::Dec,
    ) -> Result<PatternWindow, cogra_checkpoint::CheckpointError> {
        use cogra_checkpoint::CheckpointError::Corrupt;
        let mut window = PatternWindow::new(rt);
        if dec.bool()? {
            // Formats 2–3: the whole event, projected once it is checked.
            let whole = if dec.version() < 4 {
                Some(Event::load(dec)?)
            } else {
                window.el_time = Timestamp(dec.u64()?);
                window.el_stored = Value::load_vec(dec)?;
                None
            };
            let automaton = &rt.disjunct.automaton;
            let mut bound_type = None;
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
                let state = StateId(r as u32);
                match &whole {
                    Some(event) => rt.check_bound(event, state)?,
                    None => rt.check_stored(&window.el_stored, state)?,
                }
                // A bound row is one some trend ends at — what `on_event`
                // keeps, and what marks the row as bound.
                if !window.table.is_live(r) {
                    return Err(Corrupt(format!(
                        "last matched event is bound to state {r} with no trend ending there"
                    )));
                }
                // One event, one type: what tells which projection the
                // stored values are.
                let type_id = automaton.state(state).type_id;
                if *bound_type.get_or_insert(type_id) != type_id {
                    return Err(Corrupt(format!(
                        "last matched event is bound to states of two types, {r} among them"
                    )));
                }
            }
            if bound_type.is_none() {
                return Err(Corrupt("last matched event is bound to no state".into()));
            }
            if let Some(event) = &whole {
                window.el_time = event.time;
                rt.store(event, &mut window.el_stored);
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

    /// The window struct less its byte counter — an instrument, not the
    /// state being measured.
    const INLINE_BYTES: usize = std::mem::size_of::<Self>() - std::mem::size_of::<usize>();

    /// What the window always holds: the struct, the table's live bits
    /// and the accumulator's row.
    fn fixed_bytes(&self) -> usize {
        Self::INLINE_BYTES + self.table.memory_bytes() - self.table.row_bytes(2 * self.states())
    }

    /// Logical footprint: O(1) in the number of events — the final row,
    /// what is kept of the last matched event, and its O(l) rows. The read
    /// itself is O(1): `el`'s share is cached where `el` is set.
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

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
//! One `u64` slab, the table of `2l + 1` rows ([`DisjunctRuntime::table`]):
//! two halves of `l` rows — one is `el`'s partial trends by state (a row's
//! live bit says whether `el` is bound there), the other the scratch the
//! next matched event's are computed in, after which the halves trade
//! places — and the final accumulator. Of `el` itself, what the plan reads
//! of it again: its time stamp and the stored projection of its type
//! ([`CompiledDisjunct::stored`] — the `pred_attr`s of the predicates on
//! adjacent events; nothing but the time stamp for a plan without any).
//! One [`NegClock`] per negated variable. The scratch half is capacity,
//! not state: it is not counted, and neither is `el`'s while there is no
//! `el`.
//!
//! ## Which arm runs when
//!
//! [`PatternWindow::step`] is a small kernel, inlined into the router's
//! window loop through [`CograWindow`]'s one-disjunct case, as Algorithm
//! 1's is. Its shape is the disjunct's [`StepKernel`], worked out once when
//! the plan's runtime is built.
//!
//! * **Inline, the count arm** ([`StepKernel::bare_counts`]) — the layout
//!   is `COUNT(*)` alone, the table has at most 64 rows (at most 31
//!   states), and the disjunct negates no variable and has no predicate on
//!   adjacent events, so nothing of `el` is stored but its time stamp. One
//!   mask clears the scratch half's live bits; a bound state's count is
//!   its `+1` if it starts the pattern plus the counts of its predecessors
//!   that are live in `el`'s half, read through the kernel's flat
//!   predecessor slice and summed in a register; the end state's count is
//!   added into the accumulator; the live word is written once. Rideshare
//!   q2 (`SEQ(Accept, (SEQ(Call, Cancel))+, Finish)`, 2·4 + 1 = 9 rows) runs
//!   here.
//! * **Out of line** — rows wider than a count or more than 64 of them, a
//!   negated variable (its clocks), a predicate on adjacent events (the
//!   stored values it reads): the table code above, row by row.
//!
//! Both arms leave the same window: the same rows live, the same counts in
//! them, the same `el`, the same bytes — `save`, `load`, `memory_bytes`
//! and `audit_bytes` do not know which arm ran. A bound state no trend ends
//! at is dead either way; the count arm leaves its stale count in place
//! where the other resets it, and a dead row's words are never read.
//!
//! [`CompiledDisjunct::stored`]: cogra_query::CompiledDisjunct::stored
//! [`CograWindow`]: crate::CograWindow
//! [`StepKernel`]: crate::runtime::StepKernel
//! [`StepKernel::bare_counts`]: crate::runtime::StepKernel::bare_counts

use crate::agg::{Cell, CountTable};
use crate::runtime::{DisjunctRuntime, NegClock};
use cogra_events::{Event, Timestamp, Value};
use cogra_query::{NegId, Semantics, StateId};

/// Per-window pattern-grained aggregation state.
#[derive(Debug)]
pub struct PatternWindow {
    /// `el`'s rows, the scratch rows and the final accumulator (see the
    /// module docs).
    slab: Box<[u64]>,
    /// The last matched event `el`, as far as the plan reads it again —
    /// while `el_live`; otherwise content that means nothing. Its time
    /// stamp…
    el_time: Timestamp,
    /// …and its stored projection ([`DisjunctRuntime::store`]): written in
    /// place, so in steady state a matched event is kept without
    /// allocating.
    el_stored: Vec<Value>,
    neg_clocks: Box<[NegClock]>,
    /// [`PatternWindow::memory_bytes`], set where `el` is.
    bytes: usize,
    el_live: bool,
    /// Whether `el`'s rows are the table's second half.
    el_high: bool,
}

impl PatternWindow {
    /// The window struct less its byte counter — the instrument is not
    /// part of the state it measures. Counted by whoever holds the window.
    pub(crate) const INLINE_BYTES: usize =
        std::mem::size_of::<Self>() - std::mem::size_of::<usize>();

    /// Fresh window state.
    pub fn new(rt: &DisjunctRuntime) -> PatternWindow {
        let mut slab = Vec::with_capacity(rt.table.words());
        rt.table.append(&rt.layout, &mut slab);
        PatternWindow {
            slab: slab.into_boxed_slice(),
            el_time: Timestamp::ZERO,
            el_stored: Vec::new(),
            neg_clocks: vec![NegClock::default(); rt.disjunct.automaton.num_negated()].into(),
            bytes: Self::fixed_bytes(rt),
            el_live: false,
            el_high: false,
        }
    }

    /// Back to the state [`PatternWindow::new`] builds, in place: the
    /// buffer of stored values is kept.
    pub fn reset(&mut self, rt: &DisjunctRuntime) {
        self.clear_el(rt);
        rt.table
            .reset(&rt.layout, &mut self.slab, Self::final_row(rt));
        self.neg_clocks.fill(NegClock::default());
    }

    /// States of the automaton: rows per half of the table.
    fn states(rt: &DisjunctRuntime) -> usize {
        rt.disjunct.automaton.num_states()
    }

    /// The accumulator's row.
    fn final_row(rt: &DisjunctRuntime) -> usize {
        2 * Self::states(rt)
    }

    /// First rows of `el`'s half and of the scratch half.
    fn halves(&self, rt: &DisjunctRuntime) -> (usize, usize) {
        if self.el_high {
            (Self::states(rt), 0)
        } else {
            (0, Self::states(rt))
        }
    }

    /// What the window always holds outside its struct: the accumulator's
    /// row and the table's live bits.
    fn fixed_bytes(rt: &DisjunctRuntime) -> usize {
        8 * rt.table.words() - rt.table.row_bytes(2 * Self::states(rt))
    }

    /// What it holds while there is an `el`: its half of the table, and
    /// `stored` bytes of stored values.
    fn el_bytes(rt: &DisjunctRuntime, stored: usize) -> usize {
        rt.table.row_bytes(Self::states(rt)) + stored
    }

    /// One event of the window: the negations it matches, then the states
    /// it binds; `semantics` is NEXT or CONT. Returns the bytes it added.
    ///
    /// Inlined where it is called: under [`StepKernel::bare_counts`] all it
    /// runs is the count arm — one mask, a register sum per bound state
    /// and one write of the live word. The other arm is out of line (see
    /// the module docs).
    ///
    /// [`StepKernel::bare_counts`]: crate::runtime::StepKernel::bare_counts
    #[inline]
    pub fn step(
        &mut self,
        rt: &DisjunctRuntime,
        event: &Event,
        binds: &[StateId],
        negs: &[NegId],
        semantics: Semantics,
    ) -> isize {
        match rt.kernel.bare_counts {
            Some(counts) => self.step_counts(rt, counts, event, binds, semantics),
            None => self.step_cold(rt, event, binds, negs, semantics),
        }
    }

    /// Algorithm 3's step on a table of counts, for a disjunct with no
    /// negation and no predicate on adjacent events: the scratch half's
    /// live bits cleared by one mask, each bound state's count its start
    /// and its live predecessors' counts in `el`'s half summed in a
    /// register, the end state's added into the accumulator, and the live
    /// word written once. A bound state that no trend ends at keeps its
    /// stale count: it is dead, and a dead row's words are never read.
    #[inline(always)]
    fn step_counts(
        &mut self,
        rt: &DisjunctRuntime,
        counts: CountTable,
        event: &Event,
        binds: &[StateId],
        semantics: Semantics,
    ) -> isize {
        let before = self.bytes;
        if binds.is_empty() {
            if semantics == Semantics::Cont {
                self.clear_el(rt);
            }
            return self.bytes as isize - before as isize;
        }
        let states = Self::states(rt);
        let (el_rows, new_rows) = self.halves(rt);
        let half = !0 >> (64 - states);
        let slab = &mut self.slab[..];
        let mut live = counts.live_bits(slab) & !(half << new_rows);
        // `el`'s live rows, as seen from this event: none unless it chains.
        let el_live = if self.el_live && self.el_time < event.time {
            live >> el_rows & half
        } else {
            0
        };
        let mut bound = 0u64;
        for &s in binds {
            let start = rt.is_start(s);
            let (mut count, mut any) = (u64::from(start), start);
            for &p in rt.kernel.pred_rows(s) {
                let p = p as usize;
                if el_live >> p & 1 == 1 {
                    count = count.wrapping_add(counts.count(slab, el_rows + p));
                    any = true;
                }
            }
            if any {
                counts.put(slab, new_rows + s.index(), count);
                bound |= 1 << s.index();
                if s == rt.end() {
                    counts.add(slab, 2 * states, count);
                    live |= 1 << (2 * states);
                }
            }
        }
        counts.put_live_bits(slab, live | bound << new_rows);
        if bound != 0 {
            // The event is the new `el`: the halves trade places.
            self.el_high = !self.el_high;
            self.el_time = event.time;
            self.el_live = true;
            self.bytes = Self::fixed_bytes(rt) + Self::el_bytes(rt, 0);
        } else if semantics == Semantics::Cont {
            self.clear_el(rt);
        }
        self.bytes as isize - before as isize
    }

    /// [`PatternWindow::step`] on any table: rows of any width, negation
    /// clocks and predicates on adjacent events.
    #[inline(never)]
    fn step_cold(
        &mut self,
        rt: &DisjunctRuntime,
        event: &Event,
        binds: &[StateId],
        negs: &[NegId],
        semantics: Semantics,
    ) -> isize {
        let before = self.bytes;
        // Negations only move the clocks. Under CONT an event that binds
        // no positive state resets `el` below.
        for &n in negs {
            self.neg_clocks[n.index()].record(event.time);
        }
        if binds.is_empty() {
            // The event is irrelevant to this disjunct. NEXT skips it;
            // CONT invalidates the open partial trends.
            if semantics == Semantics::Cont {
                self.clear_el(rt);
            }
            return self.bytes as isize - before as isize;
        }
        let (layout, table) = (&rt.layout, rt.table);
        let (el_rows, new_rows) = self.halves(rt);
        let final_row = Self::final_row(rt);
        // The scratch half still holds the rows of the event before `el`:
        // all of them dead now, and the ones this event may be bound at
        // back to the identity. A dead row's words are never read.
        table.clear_live(&mut self.slab, new_rows..new_rows + Self::states(rt));
        let chains = self.el_live && self.el_time < event.time;
        let mut matched = false;
        for &s in binds {
            let row = new_rows + s.index();
            table.reset(layout, &mut self.slab, row);
            if rt.is_start(s) {
                table.start_trend(&mut self.slab, row);
            }
            let sources = if chains {
                rt.pred_sources[s.index()].as_slice()
            } else {
                &[]
            };
            for src in sources {
                let el_row = el_rows + src.from.index();
                if !table.is_live(&self.slab, el_row) || !src.adjacents_pass(&self.el_stored, event)
                {
                    continue;
                }
                let blocked = src
                    .negations
                    .iter()
                    .any(|n| self.neg_clocks[n.index()].blocked(self.el_time, event.time));
                if !blocked {
                    table.merge(layout, &mut self.slab, row, el_row);
                }
            }
            if !table.is_live(&self.slab, row) {
                continue; // not matched at this state
            }
            table.contribute(layout, &mut self.slab, row, rt.feeds.of(s), event);
            if s == rt.end() {
                table.merge(layout, &mut self.slab, final_row, row);
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
            let stored = rt.store(event, &mut self.el_stored);
            self.el_live = true;
            self.bytes = Self::fixed_bytes(rt) + Self::el_bytes(rt, stored);
        } else if semantics == Semantics::Cont {
            // An unmatched event invalidates the partial trends that end
            // at the last matched event; the final count is preserved
            // (Algorithm 3 lines 8-9).
            self.clear_el(rt);
        }
        self.bytes as isize - before as isize
    }

    /// Forget the last matched event (its buffer and rows stay).
    fn clear_el(&mut self, rt: &DisjunctRuntime) {
        self.el_live = false;
        self.bytes = Self::fixed_bytes(rt);
    }

    /// Final aggregate of the window.
    pub fn final_cell(&mut self, rt: &DisjunctRuntime) -> Cell {
        rt.table.cell(&self.slab, Self::final_row(rt))
    }

    /// Serialize the full window state (inverse of [`PatternWindow::load`]),
    /// every bound row as the cell it stands for. The scratch half is
    /// transient and not serialized.
    pub fn save(&self, rt: &DisjunctRuntime, enc: &mut cogra_checkpoint::Enc) {
        let (layout, table) = (&rt.layout, rt.table);
        enc.bool(self.el_live);
        if self.el_live {
            enc.u64(self.el_time.ticks());
            Value::save_slice(&self.el_stored, enc);
            enc.usize(Self::states(rt));
            let (el_rows, _) = self.halves(rt);
            for r in el_rows..el_rows + Self::states(rt) {
                enc.bool(table.is_live(&self.slab, r));
                if table.is_live(&self.slab, r) {
                    table.save_row(layout, &self.slab, r, enc);
                }
            }
        }
        table.save_row(layout, &self.slab, Self::final_row(rt), enc);
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
        let (layout, table) = (&rt.layout, rt.table);
        let mut window = PatternWindow::new(rt);
        if dec.bool()? {
            window.el_time = Timestamp(dec.u64()?);
            window.el_stored = Value::load_vec(dec)?;
            let automaton = &rt.disjunct.automaton;
            let mut bound_type = None;
            let n = dec.usize()?;
            if n != Self::states(rt) {
                return Err(Corrupt(format!(
                    "pattern window has {n} last-event cells for a {}-state automaton",
                    Self::states(rt)
                )));
            }
            for r in 0..n {
                if !dec.bool()? {
                    continue;
                }
                table.load_row(layout, &mut window.slab, r, dec)?;
                let state = StateId(r as u32);
                rt.check_stored(&window.el_stored, state)?;
                // A bound row is one some trend ends at — what `step`
                // keeps, and what marks the row as bound.
                if !table.is_live(&window.slab, r) {
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
            window.el_live = true;
            let stored = window.el_stored.iter().map(Value::memory_bytes).sum();
            window.bytes = Self::fixed_bytes(rt) + Self::el_bytes(rt, stored);
        }
        table.load_row(layout, &mut window.slab, Self::final_row(rt), dec)?;
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

    /// Logical footprint outside the struct: O(1) in the number of events —
    /// the final row, what is kept of the last matched event, and its O(l)
    /// rows. The read itself is O(1): the figure is set where `el` is.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.bytes
    }

    /// [`PatternWindow::memory_bytes`] by definition: `el` is measured
    /// afresh instead of read from the figure.
    pub fn audit_bytes(&self, rt: &DisjunctRuntime) -> usize {
        let stored = self.el_stored.iter().map(Value::memory_bytes).sum();
        Self::fixed_bytes(rt)
            + if self.el_live {
                Self::el_bytes(rt, stored)
            } else {
                0
            }
    }
}

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
//! needs: the finished-trend accumulator. The stored `Te` events, in
//! arrival order, as one arena: of each, what the plan reads of it again
//! — its time stamp, the state it is bound to, and the stored projection
//! of its type ([`CompiledDisjunct::stored`], the `pred_attr`s of the
//! predicates on adjacent events) appended to one shared value buffer —
//! and beside them one growing row list with a row of `1 + k` words per
//! stored event: the event's aggregates are computed in the row they are
//! stored in, and the row is dropped again when no trend ends at the
//! event. One [`NegClock`] per negated variable.
//!
//! [`CompiledDisjunct::stored`]: cogra_query::CompiledDisjunct::stored

use crate::agg::{Cell, CellTable};
use crate::runtime::{DisjunctRuntime, NegClock};
use crate::type_grained::TypeGrainedWindow;
use cogra_checkpoint::{CheckpointError, Dec, Enc};
use cogra_events::{Event, Timestamp, Value};
use cogra_query::{NegId, StateId};

/// A stored event of a `Te` state, minus its stored values: those end at
/// `values_end` in [`MixedWindow::values`] (and start where the previous
/// entry's end). Its event-grained aggregates are the row of
/// [`MixedWindow::rows`] at its position.
#[derive(Debug)]
struct Stored {
    time: Timestamp,
    state: StateId,
    values_end: u32,
}

/// Per-window mixed-grained aggregation state.
#[derive(Debug)]
pub struct MixedWindow {
    /// The `Tt` states' rows, shadows and open transaction (only `Tt`
    /// rows of its table are used), and after them the finished-trend
    /// accumulator, used when the end state is in `Te` (Algorithm 2
    /// line 14).
    tt: TypeGrainedWindow,
    /// Stored `Te` events, in arrival order.
    stored: Vec<Stored>,
    /// Their stored values ([`DisjunctRuntime::store`]), end to end.
    values: Vec<Value>,
    /// The stored events' event-grained aggregates, a row each. Every one
    /// is live.
    rows: Vec<u64>,
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
            TypeGrainedWindow::with_rows(rt, Self::final_row(rt) + 1),
            vec![NegClock::default(); rt.disjunct.automaton.num_negated()],
        )
    }

    /// The accumulator's row in `tt`'s table.
    fn final_row(rt: &DisjunctRuntime) -> usize {
        rt.type_rows()
    }

    /// A window over the given type-grained half, with nothing stored.
    fn over(tt: TypeGrainedWindow, neg_clocks: Vec<NegClock>) -> MixedWindow {
        MixedWindow {
            tt,
            stored: Vec::new(),
            values: Vec::new(),
            rows: Vec::new(),
            neg_clocks,
            bytes: Self::INLINE_BYTES,
        }
    }

    /// Back to the state [`MixedWindow::new`] builds, in place: the table,
    /// the event store and the staging vectors keep their buffers.
    pub fn reset(&mut self, rt: &DisjunctRuntime) {
        self.tt.reset(rt);
        self.stored.clear();
        self.values.clear();
        self.rows.clear();
        self.bytes = Self::INLINE_BYTES;
        self.neg_clocks.fill(NegClock::default());
    }

    /// Store the event of `time`, bound to `state`, whose stored values
    /// are the tail of `values` from `values_start` on and whose row is the
    /// last of `rows`.
    fn push_stored(
        &mut self,
        rt: &DisjunctRuntime,
        time: Timestamp,
        state: StateId,
        values_start: usize,
    ) {
        let values_end = u32::try_from(self.values.len()).expect("a window stores < 2^32 values");
        // The entry, its values and its row.
        let values = self.values[values_start..].iter().map(Value::memory_bytes);
        self.bytes += std::mem::size_of::<Stored>()
            + values.sum::<usize>()
            + rt.layout.stride() * std::mem::size_of::<u64>();
        self.stored.push(Stored {
            time,
            state,
            values_end,
        });
    }

    /// Process an event bound to `binds`.
    pub fn on_event(&mut self, rt: &DisjunctRuntime, event: &Event, binds: &[StateId]) {
        self.tt.commit_if_past(rt, event.time);
        let (d, layout) = (&rt.disjunct, &rt.layout);
        for &s in binds {
            // Fold into `row` what flows into `event` at `s` from the
            // events stored so far (`rows` are theirs) and from `tt`'s
            // committed table; whether any of it was live.
            let (stored, values, neg_clocks) = (&self.stored, &self.values, &self.neg_clocks);
            let fill = |table: &CellTable, rows: &[u64], row: &mut [u64]| {
                let mut live = false;
                for src in &rt.pred_sources[s.index()] {
                    if !d.event_grained[src.from.index()] {
                        live |= table.merge_into(layout, src.row, row);
                        continue;
                    }
                    // Event-grained source: scan stored events of that
                    // state, checking time, θ, and negation windows.
                    let mut values_start = 0;
                    for (i, ep) in stored.iter().enumerate() {
                        let ep_values = &values[values_start..ep.values_end as usize];
                        values_start = ep.values_end as usize;
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
                            layout.merge_row(row, &rows[i * layout.stride()..][..layout.stride()]);
                            live = true;
                        }
                    }
                }
                live
            };
            if !d.event_grained[s.index()] {
                let rows = &self.rows;
                self.tt
                    .stage(rt, s, event, |table, row| fill(table, rows, row));
                continue;
            }
            // A `Te` state: the event's aggregates are computed in the row
            // they are stored in.
            let at = self.rows.len();
            layout.push_row(&mut self.rows);
            let (rows, row) = self.rows.split_at_mut(at);
            let table = &self.tt.table;
            if !rt.bind_row(s, event, row, |row| fill(table, rows, row)) {
                self.rows.truncate(at);
                continue;
            }
            if s == rt.end() {
                self.tt.table.merge_from(layout, Self::final_row(rt), row);
            }
            let values_start = self.values.len();
            rt.store(event, &mut self.values);
            self.push_stored(rt, event.time, s, values_start);
        }
    }

    /// Record negation matches at the event's time.
    pub fn on_negation(&mut self, rt: &DisjunctRuntime, event: &Event, negs: &[NegId]) {
        self.tt.on_negation(rt, event, negs);
        for &n in negs {
            self.neg_clocks[n.index()].record(event.time);
        }
    }

    /// Final aggregate: end-state type row, or the event-grained
    /// accumulator when the end state is in `Te`.
    pub fn final_cell(&mut self, rt: &DisjunctRuntime) -> Cell {
        if rt.disjunct.event_grained[rt.end().index()] {
            self.tt.commit(rt);
            self.tt.table.cell(&rt.layout, Self::final_row(rt))
        } else {
            self.tt.final_cell(rt)
        }
    }

    /// Serialize the full window state (inverse of [`MixedWindow::load`]):
    /// the `Tt` tables, the stored part — every row as the cell it stands
    /// for — and the `Tt` transaction.
    pub fn save(&self, rt: &DisjunctRuntime, enc: &mut Enc) {
        self.tt.save_tables(rt, enc);
        enc.usize(self.stored.len());
        let rows = self.rows.chunks_exact(rt.layout.stride());
        let mut values_start = 0;
        for (se, row) in self.stored.iter().zip(rows) {
            enc.u64(se.time.ticks());
            Value::save_slice(&self.values[values_start..se.values_end as usize], enc);
            values_start = se.values_end as usize;
            enc.u32(se.state.0);
            rt.layout.save_row(row, true, enc);
        }
        self.tt.table.save_row(&rt.layout, Self::final_row(rt), enc);
        enc.usize(self.neg_clocks.len());
        for c in &self.neg_clocks {
            c.save(enc);
        }
        self.tt.save_transaction(rt, enc);
    }

    /// Rebuild a window from bytes produced by [`MixedWindow::save`]
    /// against the same disjunct runtime — or by the `save` of formats
    /// 2–3, which wrote a stored event whole: checked as it was then, and
    /// projected here.
    pub fn load(rt: &DisjunctRuntime, dec: &mut Dec) -> Result<MixedWindow, CheckpointError> {
        let tt = TypeGrainedWindow::load_tables(rt, Self::final_row(rt) + 1, dec)?;
        let mut window = MixedWindow::over(tt, Vec::new());
        for position in 0..dec.usize()? {
            let values_start = window.values.len();
            let (time, state) = if dec.version() < 4 {
                let event = Event::load(dec)?;
                let state = StateId(dec.u32()?);
                rt.check_bound(&event, state)?;
                rt.store(&event, &mut window.values);
                (event.time, state)
            } else {
                let time = Timestamp(dec.u64()?);
                window.values.append(&mut Value::load_vec(dec)?);
                let state = StateId(dec.u32()?);
                rt.check_stored(&window.values[values_start..], state)?;
                (time, state)
            };
            let at = window.rows.len();
            rt.layout.push_row(&mut window.rows);
            let live = rt.layout.load_row(dec, &mut window.rows[at..])?;
            // What `on_event` stores: an event bound to one of the plan's
            // `Te` states that some trend ends at.
            if !rt.disjunct.event_grained[state.index()] || !live {
                return Err(CheckpointError::Corrupt(format!(
                    "stored event number {position}, bound to state {}, is none the plan stores",
                    state.0
                )));
            }
            window.push_stored(rt, time, state, values_start);
        }
        window
            .tt
            .table
            .load_row(&rt.layout, Self::final_row(rt), dec)?;
        let n_clocks = dec.usize()?;
        if n_clocks != rt.disjunct.automaton.num_negated() {
            return Err(CheckpointError::Corrupt(format!(
                "mixed window has {n_clocks} negation clocks for {} negated variables",
                rt.disjunct.automaton.num_negated()
            )));
        }
        for _ in 0..n_clocks {
            window.neg_clocks.push(NegClock::load(dec)?);
        }
        window.tt.load_transaction(rt, dec)?;
        Ok(window)
    }

    /// Logical footprint: Θ(t + nₑ) — type rows plus stored events.
    /// O(1) — maintained as events are stored and updates staged.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.tt.memory_bytes() + self.bytes
    }

    /// [`MixedWindow::memory_bytes`] by definition: a walk over the table,
    /// the stored events and their rows, and the staged updates.
    #[cfg(debug_assertions)]
    pub fn audit_bytes(&self) -> usize {
        self.tt.audit_bytes()
            + Self::INLINE_BYTES
            + self.stored.len() * std::mem::size_of::<Stored>()
            + self.values.iter().map(Value::memory_bytes).sum::<usize>()
            + std::mem::size_of_val(self.rows.as_slice())
    }

    /// Number of stored events (the `nₑ` of Theorem 5.2) — exposed for
    /// tests and the experiment harness.
    pub fn stored_events(&self) -> usize {
        self.stored.len()
    }
}

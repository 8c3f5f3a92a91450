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
//! needs: the finished-trend accumulator. The stored `Te` events with the
//! state each is bound to, in arrival order, and beside them one growing
//! row list with a row of `1 + k` words per stored event — the event's
//! aggregates are computed in the row they are stored in, and the row is
//! dropped again when no trend ends at the event. One [`NegClock`] per
//! negated variable.

use crate::agg::{Cell, CellTable};
use crate::runtime::{DisjunctRuntime, NegClock};
use crate::type_grained::TypeGrainedWindow;
use cogra_checkpoint::{CheckpointError, Dec, Enc};
use cogra_events::Event;
use cogra_query::{NegId, StateId};

/// A stored event of a `Te` state; its event-grained aggregates are the
/// row of [`MixedWindow::rows`] at its position.
#[derive(Debug)]
struct StoredEvent {
    event: Event,
    state: StateId,
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
    stored: Vec<StoredEvent>,
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
        self.rows.clear();
        self.bytes = Self::INLINE_BYTES;
        self.neg_clocks.fill(NegClock::default());
    }

    /// Footprint of one stored event beside its row: the entry and the
    /// attribute values behind it.
    fn stored_bytes(se: &StoredEvent) -> usize {
        std::mem::size_of::<StoredEvent>() - std::mem::size_of::<Event>() + se.event.memory_bytes()
    }

    /// Process an event bound to `binds`.
    pub fn on_event(&mut self, rt: &DisjunctRuntime, event: &Event, binds: &[StateId]) {
        self.tt.commit_if_past(rt, event.time);
        let (d, layout) = (&rt.disjunct, &rt.layout);
        for &s in binds {
            // Fold into `row` what flows into `event` at `s` from the
            // events stored so far (`rows` are theirs) and from `tt`'s
            // committed table; whether any of it was live.
            let (stored, neg_clocks) = (&self.stored, &self.neg_clocks);
            let fill = |table: &CellTable, rows: &[u64], row: &mut [u64]| {
                let mut live = false;
                for src in &rt.pred_sources[s.index()] {
                    if !d.event_grained[src.from.index()] {
                        live |= table.merge_into(layout, src.row, row);
                        continue;
                    }
                    // Event-grained source: scan stored events of that
                    // state, checking time, θ, and negation windows.
                    for (i, ep) in stored.iter().enumerate() {
                        if ep.state != src.from
                            || ep.event.time >= event.time
                            || !d.adjacency_predicates_pass(src.from, s, &ep.event, event)
                        {
                            continue;
                        }
                        let blocked = src
                            .negations
                            .iter()
                            .any(|n| neg_clocks[n.index()].blocked(ep.event.time, event.time));
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
            let se = StoredEvent {
                event: event.clone(),
                state: s,
            };
            self.bytes += Self::stored_bytes(&se) + std::mem::size_of_val(&*row);
            self.stored.push(se);
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
        for (se, row) in self.stored.iter().zip(rows) {
            se.event.save(enc);
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
    /// against the same disjunct runtime.
    pub fn load(rt: &DisjunctRuntime, dec: &mut Dec) -> Result<MixedWindow, CheckpointError> {
        let tt = TypeGrainedWindow::load_tables(rt, Self::final_row(rt) + 1, dec)?;
        let mut window = MixedWindow::over(tt, Vec::new());
        for _ in 0..dec.usize()? {
            let se = StoredEvent {
                event: Event::load(dec)?,
                state: StateId(dec.u32()?),
            };
            let at = window.rows.len();
            rt.layout.push_row(&mut window.rows);
            let live = rt.layout.load_row(dec, &mut window.rows[at..])?;
            // What `on_event` stores: an event bound to one of the plan's
            // states that some trend ends at.
            rt.check_bound(&se.event, se.state)?;
            if !live {
                return Err(CheckpointError::Corrupt(format!(
                    "stored event {} with no trend ending at it",
                    se.event.id
                )));
            }
            window.bytes += Self::stored_bytes(&se) + std::mem::size_of_val(&window.rows[at..]);
            window.stored.push(se);
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
            + self.stored.iter().map(Self::stored_bytes).sum::<usize>()
            + std::mem::size_of_val(self.rows.as_slice())
    }

    /// Number of stored events (the `nₑ` of Theorem 5.2) — exposed for
    /// tests and the experiment harness.
    pub fn stored_events(&self) -> usize {
        self.stored.len()
    }
}

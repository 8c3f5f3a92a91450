//! Type-Grained Aggregator (§4, Algorithm 1).
//!
//! Under skip-till-any-match without predicates on adjacent events, every
//! previously matched event of a predecessor type of `E` is adjacent to a
//! new event `e` of type `E`. One aggregate per state therefore suffices
//! (Theorem 4.1):
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
//!   predecessor. Updates are staged and committed when the window sees a
//!   later time stamp.
//! * **Negated sub-patterns** (§8): each negation-tagged transition keeps
//!   a *shadow* mirroring its source state's aggregates but reset whenever
//!   the negated type matches — "aggregates of predecessor types are
//!   marked invalid to contribute to the following types". Contributions
//!   along a tagged edge read the shadow instead of the state's own row.
//!
//! ## What a window holds
//!
//! One `u64` slab, and nothing else:
//!
//! ```text
//! [ table: rows, live bits | time stamp | journal of the open transaction … ]
//! ```
//!
//! The table ([`DisjunctRuntime::table`]) has a row per state — its
//! committed aggregates — then a shadow row per tagged transition
//! ([`DisjunctRuntime::shadow_row`]). After it, the open stream
//! transaction: its time stamp, then what it staged, in arrival order —
//! an update is `1 + stride` words (the state, then its row), a negation
//! matched at the time stamp one word (its id, tagged). A bound state's
//! new aggregates are computed in a scratch row — a register when the
//! layout is `COUNT(*)` alone, the slab's spare tail otherwise — and
//! appended only if some trend ends there. Updates are kept apart until
//! the commit, not pre-merged per state, so float sums add up in arrival
//! order.
//!
//! The window's footprint is the slab's length: a step returns what it
//! added, and the commit that empties the journal is part of a step.
//!
//! ## Which arm runs when
//!
//! [`TypeGrainedWindow::step`] is a small kernel, inlined into the
//! router's window loop through [`CograWindow`]'s one-disjunct case. Its
//! shape is the disjunct's [`StepKernel`], worked out once when the plan's
//! runtime is built: whether the table is one of counts (stride 1, its
//! live bits one word), where the time stamp sits, and each state's
//! predecessor rows as one flat slice.
//!
//! * **Inline, the count arm** — the layout is `COUNT(*)` alone, the table
//!   has at most 64 rows, and the event matches no negation: a commit adds
//!   each staged count to its state's row and sets the live bits in one
//!   word, and a bound state's count is summed in a register from its
//!   predecessor rows and appended if live. Nothing else runs.
//! * **Out of line** — rows wider than a count or more than 64 of them
//!   (commit and staging both), an event that matches a negation (its
//!   tags are staged), and the shadow rows' part of a commit whenever
//!   some transition is tagged.
//!
//! Both arms stage through one `stage` and commit through one `commit` —
//! the ones a mixed-grained window's `Tt` half calls — so Algorithm 1 is
//! written once.
//!
//! [`CograWindow`]: crate::CograWindow
//! [`StepKernel`]: crate::runtime::StepKernel

use crate::agg::Cell;
use crate::runtime::DisjunctRuntime;
use cogra_checkpoint::{CheckpointError, Dec, Enc};
use cogra_events::{Event, Timestamp};
use cogra_query::{NegId, StateId};

/// The tag of a journal word that is a negation, not an update's state.
const NEGATION: u64 = 1 << 63;

/// One entry of a window's journal.
enum Staged<'a> {
    /// An update of the state of this index, and its row.
    Update(usize, &'a [u64]),
    /// A negation matched at the transaction's time stamp.
    Negation(NegId),
}

/// The entries of a journal of rows of `stride` words, in arrival order.
fn entries(journal: &[u64], stride: usize) -> impl Iterator<Item = Staged<'_>> {
    let mut rest = journal;
    std::iter::from_fn(move || {
        let (&word, after) = rest.split_first()?;
        if word & NEGATION != 0 {
            rest = after;
            return Some(Staged::Negation(NegId(word as u32)));
        }
        let (row, after) = after.split_at(stride);
        rest = after;
        Some(Staged::Update(word as usize, row))
    })
}

/// Per-window type-grained aggregation state. Also the `Tt` half of a
/// [`MixedWindow`](crate::mixed_grained::MixedWindow): Algorithm 2 with
/// `Te = ∅` is Algorithm 1.
#[derive(Debug)]
pub struct TypeGrainedWindow {
    /// The table, the open transaction's time stamp and its journal (see
    /// the module docs).
    slab: Vec<u64>,
}

impl TypeGrainedWindow {
    /// Fresh window state.
    pub fn new(rt: &DisjunctRuntime) -> TypeGrainedWindow {
        let mut slab = Vec::with_capacity(Self::journal_at(rt));
        rt.table.append(&rt.layout, &mut slab);
        slab.push(Timestamp::ZERO.ticks());
        TypeGrainedWindow { slab }
    }

    /// Where the open transaction's time stamp is.
    #[inline]
    fn time_at(rt: &DisjunctRuntime) -> usize {
        rt.kernel.time_at
    }

    /// Where its journal starts.
    #[inline]
    fn journal_at(rt: &DisjunctRuntime) -> usize {
        Self::time_at(rt) + 1
    }

    /// The slab, read for the committed rows at its front.
    #[inline]
    pub(crate) fn table(&self) -> &[u64] {
        &self.slab
    }

    /// The committed table, mutably — for the rows an embedding
    /// aggregator keeps past Algorithm 1's.
    #[inline]
    pub(crate) fn table_mut(&mut self, rt: &DisjunctRuntime) -> &mut [u64] {
        &mut self.slab[..rt.table.words()]
    }

    /// Back to the state [`TypeGrainedWindow::new`] builds, in place: the
    /// slab keeps its buffer.
    pub fn reset(&mut self, rt: &DisjunctRuntime) {
        self.slab.truncate(Self::journal_at(rt));
        rt.table.reset_all(&rt.layout, &mut self.slab);
        self.slab[Self::time_at(rt)] = Timestamp::ZERO.ticks();
    }

    /// One event of the window: the negations it matches and the states it
    /// binds (Algorithm 1's step at each). Returns the bytes it added.
    ///
    /// Inlined where it is called: on a table of counts and with no
    /// negation matched, all it runs is a compare, the commit's adds and
    /// one register sum per bound state. The other arm is out of line (see
    /// the module docs).
    #[inline]
    pub fn step(
        &mut self,
        rt: &DisjunctRuntime,
        event: &Event,
        binds: &[StateId],
        negs: &[NegId],
    ) -> isize {
        let before = self.memory_bytes();
        self.commit_if_past(rt, event.time);
        if rt.kernel.counts.is_some() && negs.is_empty() {
            self.stage_binds(rt, event, binds);
        } else {
            self.step_cold(rt, event, binds, negs);
        }
        self.memory_bytes() as isize - before as isize
    }

    /// The rest of a [`TypeGrainedWindow::step`] whose event matched a
    /// negation or whose rows are more than counts.
    #[inline(never)]
    fn step_cold(
        &mut self,
        rt: &DisjunctRuntime,
        event: &Event,
        binds: &[StateId],
        negs: &[NegId],
    ) {
        self.stage_negations(negs);
        self.stage_binds(rt, event, binds);
    }

    /// Stage the event's update of each state it binds, its predecessors
    /// the rows [`StepKernel::pred_rows`] names.
    ///
    /// [`StepKernel::pred_rows`]: crate::runtime::StepKernel::pred_rows
    #[inline(always)]
    fn stage_binds(&mut self, rt: &DisjunctRuntime, event: &Event, binds: &[StateId]) {
        let (table, layout) = (rt.table, &rt.layout);
        for &s in binds {
            let preds = rt.kernel.pred_rows(s).iter().map(|&r| r as usize);
            self.stage(rt, s, event, |slab, row| match rt.kernel.counts {
                Some(counts) => {
                    let live = counts.live_bits(slab);
                    preds.fold(false, |any, r| {
                        row[0] = row[0].wrapping_add(counts.count(slab, r));
                        any | (live >> r & 1 == 1)
                    })
                }
                None => preds.fold(false, |any, r| table.merge_into(layout, slab, r, row) | any),
            });
        }
    }

    /// Record negation matches at the open transaction's time stamp.
    pub(crate) fn stage_negations(&mut self, negs: &[NegId]) {
        self.slab
            .extend(negs.iter().map(|n| NEGATION | u64::from(n.0)));
    }

    /// Stage `event`'s update of `state` in the open transaction: `fill`
    /// folds the predecessors into the scratch row, handed the committed
    /// table beside it ([`DisjunctRuntime::bind_row`]), and the row is
    /// appended only if some trend ends at the event.
    #[inline(always)]
    pub(crate) fn stage(
        &mut self,
        rt: &DisjunctRuntime,
        state: StateId,
        event: &Event,
        fill: impl FnOnce(&[u64], &mut [u64]) -> bool,
    ) {
        if rt.kernel.counts.is_some() {
            // `COUNT(*)` alone: the row is its trend count, kept in a
            // register, and there is no contribution to add.
            let start = rt.is_start(state);
            let mut row = [u64::from(start)];
            if fill(&self.slab, &mut row) | start {
                self.slab.extend_from_slice(&[u64::from(state.0), row[0]]);
            }
            return;
        }
        // Otherwise the scratch row is the slab's tail, kept if live.
        let at = self.slab.len();
        self.slab.push(u64::from(state.0));
        rt.layout.push_row(&mut self.slab);
        let (table, row) = self.slab.split_at_mut(at + 1);
        if !rt.bind_row(state, event, row, |row| fill(table, row)) {
            self.slab.truncate(at);
        }
    }

    /// Commit the open transaction: each staged update into its state's
    /// row — one add when rows are counts, the rows' kernel out of line
    /// otherwise — and, out of line, into the shadow rows.
    #[inline]
    pub(crate) fn commit(&mut self, rt: &DisjunctRuntime) {
        let journal_at = Self::journal_at(rt);
        if self.slab.len() == journal_at {
            return;
        }
        let (slab, journal) = self.slab.split_at_mut(journal_at);
        // The transaction's updates, in arrival order, into their states'
        // rows…
        if let Some(counts) = rt.kernel.counts {
            let mut live = 0;
            for staged in entries(journal, 1) {
                if let Staged::Update(state, row) = staged {
                    counts.add(slab, state, row[0]);
                    live |= 1 << state;
                }
            }
            counts.set_live(slab, live);
        } else {
            Self::commit_rows(rt, slab, journal);
        }
        // …and into the shadows of the tagged transitions out of them.
        if !rt.neg_edges.is_empty() {
            Self::commit_shadows(rt, slab, journal);
        }
        self.slab.truncate(journal_at);
    }

    /// The states' part of a commit on a table that is not one of counts.
    #[inline(never)]
    fn commit_rows(rt: &DisjunctRuntime, slab: &mut [u64], journal: &[u64]) {
        let (layout, table) = (&rt.layout, rt.table);
        for staged in entries(journal, table.stride()) {
            if let Staged::Update(state, row) = staged {
                table.merge_from(layout, slab, state, row);
            }
        }
    }

    /// The shadow rows' part of a commit. Resets first: a negation match at
    /// time t invalidates contributions committed strictly before t; the
    /// transaction's own updates (same t) are merged afterwards and stay
    /// valid.
    #[inline(never)]
    fn commit_shadows(rt: &DisjunctRuntime, slab: &mut [u64], journal: &[u64]) {
        let (layout, table) = (&rt.layout, rt.table);
        for staged in entries(journal, table.stride()) {
            if let Staged::Negation(n) = staged {
                for (i, edge) in rt.neg_edges.iter().enumerate() {
                    if edge.negations.contains(&n) {
                        table.reset(layout, slab, rt.shadow_row(i));
                    }
                }
            }
        }
        for staged in entries(journal, table.stride()) {
            if let Staged::Update(state, row) = staged {
                for (i, edge) in rt.neg_edges.iter().enumerate() {
                    if edge.from.index() == state {
                        table.merge_from(layout, slab, rt.shadow_row(i), row);
                    }
                }
            }
        }
    }

    #[inline]
    pub(crate) fn commit_if_past(&mut self, rt: &DisjunctRuntime, t: Timestamp) {
        let time_at = Self::time_at(rt);
        if t.ticks() > self.slab[time_at] {
            self.commit(rt);
            self.slab[time_at] = t.ticks();
        }
    }

    /// Final aggregate of the window: the end state's row (Theorem 4.1).
    pub fn final_cell(&mut self, rt: &DisjunctRuntime) -> Cell {
        self.commit(rt);
        rt.table.cell(&self.slab, rt.end().index())
    }

    /// Serialize the full window state (inverse of
    /// [`TypeGrainedWindow::load`]): the state and shadow rows, each as
    /// the cell it stands for, then the open transaction.
    pub fn save(&self, rt: &DisjunctRuntime, enc: &mut Enc) {
        self.save_tables(rt, enc);
        self.save_transaction(rt, enc);
    }

    pub(crate) fn save_tables(&self, rt: &DisjunctRuntime, enc: &mut Enc) {
        let states = rt.disjunct.automaton.num_states();
        for rows in [0..states, states..rt.type_rows()] {
            enc.usize(rows.len());
            for r in rows {
                rt.table.save_row(&rt.layout, &self.slab, r, enc);
            }
        }
    }

    /// The open transaction: its updates in arrival order, then its
    /// negations in arrival order, then its time stamp.
    pub(crate) fn save_transaction(&self, rt: &DisjunctRuntime, enc: &mut Enc) {
        let journal = || entries(&self.slab[Self::journal_at(rt)..], rt.table.stride());
        let updates = || {
            journal().filter_map(|staged| match staged {
                Staged::Update(state, row) => Some((state, row)),
                Staged::Negation(_) => None,
            })
        };
        let negations = || {
            journal().filter_map(|staged| match staged {
                Staged::Negation(n) => Some(n),
                Staged::Update(..) => None,
            })
        };
        enc.usize(updates().count());
        for (state, row) in updates() {
            enc.u32(state as u32);
            rt.layout.save_row(row, true, enc);
        }
        enc.usize(negations().count());
        for n in negations() {
            enc.u32(n.0);
        }
        enc.u64(self.slab[Self::time_at(rt)]);
    }

    /// Rebuild a window from bytes produced by [`TypeGrainedWindow::save`]
    /// against the same disjunct runtime.
    pub fn load(rt: &DisjunctRuntime, dec: &mut Dec) -> Result<TypeGrainedWindow, CheckpointError> {
        let mut window = TypeGrainedWindow::load_tables(rt, dec)?;
        window.load_transaction(rt, dec)?;
        Ok(window)
    }

    /// [`TypeGrainedWindow::new`], its state and shadow rows read back —
    /// each through the layout, so a saved cell of another shape is an
    /// error, not a row.
    pub(crate) fn load_tables(
        rt: &DisjunctRuntime,
        dec: &mut Dec,
    ) -> Result<TypeGrainedWindow, CheckpointError> {
        let mut window = TypeGrainedWindow::new(rt);
        let states = rt.disjunct.automaton.num_states();
        for (what, rows) in [("state", 0..states), ("shadow", states..rt.type_rows())] {
            let n = dec.usize()?;
            if n != rows.len() {
                return Err(CheckpointError::Corrupt(format!(
                    "window has {n} {what} cells where the compiled plan has {}",
                    rows.len()
                )));
            }
            for r in rows {
                rt.table.load_row(&rt.layout, &mut window.slab, r, dec)?;
            }
        }
        Ok(window)
    }

    pub(crate) fn load_transaction(
        &mut self,
        rt: &DisjunctRuntime,
        dec: &mut Dec,
    ) -> Result<(), CheckpointError> {
        let states = rt.disjunct.automaton.num_states();
        for _ in 0..dec.usize()? {
            let state = dec.u32()?;
            let at = self.slab.len();
            self.slab.push(u64::from(state));
            rt.layout.push_row(&mut self.slab);
            let live = rt.layout.load_row(dec, &mut self.slab[at + 1..])?;
            // What `stage` keeps: an update of one of the plan's states
            // that some trend ends at.
            if state as usize >= states || !live {
                return Err(CheckpointError::Corrupt(format!(
                    "staged update of state {state} (live: {live}) in a {states}-state window"
                )));
            }
        }
        for _ in 0..dec.usize()? {
            self.stage_negations(&[NegId(dec.u32()?)]);
        }
        self.slab[Self::time_at(rt)] = dec.u64()?;
        Ok(())
    }

    /// Logical footprint: the slab — Θ(l) rows plus the open transaction.
    /// The struct itself lives inline wherever the window does (a ring
    /// slot, a mixed-grained window) and is counted there.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.slab.as_slice())
    }

    /// [`TypeGrainedWindow::memory_bytes`] by definition: the table, the
    /// time stamp and every entry of the journal, walked.
    pub fn audit_bytes(&self, rt: &DisjunctRuntime) -> usize {
        let stride = rt.table.stride();
        let journal =
            entries(&self.slab[Self::journal_at(rt)..], stride).map(|staged| match staged {
                Staged::Update(..) => 1 + stride,
                Staged::Negation(_) => 1,
            });
        8 * (Self::journal_at(rt) + journal.sum::<usize>())
    }
}

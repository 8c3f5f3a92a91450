//! A-Seq baseline (Qi, Cao, Ray, Rundensteiner, SIGMOD 2014; §9.1).
//!
//! A-Seq aggregates *fixed-length* event sequences online by maintaining a
//! count per pattern prefix — but it has no Kleene closure. Per the
//! paper's methodology, a Kleene query is flattened into the set of
//! fixed-length sequence queries covering every match length; the number
//! of such queries (and hence A-Seq's aggregate count) grows with the
//! longest match, i.e. linearly in the number of events per window, which
//! is exactly the memory gap Figure 8(b) reports.
//!
//! The flattened workload is evaluated jointly: `counts[k][s]` is the
//! prefix aggregate for matches of length `k + 1` ending at state `s` —
//! running one prefix counter per (length, position) is equivalent to
//! running every flattened query's counters and avoids enumerating the
//! (combinatorially many) per-query type sequences. A new event bound to
//! `s` updates `counts[k][s] += Σ_{s' ∈ preds(s)} counts[k-1][s']` for
//! every `k`, so per-event work also grows with the window length.
//!
//! Supported: skip-till-any-match, equivalence predicates, grouping,
//! windows. Not supported (Table 9): other semantics, predicates on
//! adjacent events, negation.

use cogra_engine::{AggLayout, Capabilities, Cell, EventBinds, QueryRuntime, WindowAlgo};
use cogra_events::{Event, Timestamp};
use cogra_query::StateId;

/// Per-disjunct prefix counters.
#[derive(Debug, Default)]
struct PrefixCounters {
    /// `counts[k][s]`: aggregate over matches of length `k + 1` ending at
    /// state `s`. Grows as longer matches become possible.
    counts: Vec<Vec<Cell>>,
    pending: Vec<(usize, StateId, Cell)>,
    pending_time: Timestamp,
    /// Footprint of `counts` and `pending`, kept current where rows are
    /// added and updates staged and committed.
    bytes: usize,
}

/// Per-window A-Seq state.
#[derive(Debug)]
pub struct ASeqWindow {
    disjuncts: Vec<PrefixCounters>,
}

impl WindowAlgo for ASeqWindow {
    const NAME: &'static str = "aseq";
    const TABLE9: Capabilities = Capabilities::ASEQ;

    fn new(rt: &QueryRuntime) -> ASeqWindow {
        ASeqWindow {
            disjuncts: rt
                .disjuncts
                .iter()
                .map(|_| PrefixCounters::default())
                .collect(),
        }
    }

    fn on_event(&mut self, rt: &QueryRuntime, event: &Event, binds: &EventBinds) -> isize {
        let cap = rt.config.flatten_cap.unwrap_or(usize::MAX);
        let mut delta = 0;
        for ((pc, drt), (states, _)) in self
            .disjuncts
            .iter_mut()
            .zip(&rt.disjuncts)
            .zip(&binds.per_disjunct)
        {
            if states.is_empty() {
                continue;
            }
            let before = pc.bytes;
            pc.commit_if_past(&rt.layout, event.time);
            let n_states = drt.disjunct.automaton.num_states();
            // A longer match than any seen so far may now exist.
            if pc.counts.len() < cap {
                pc.push_row(vec![drt.layout.zero_cell(); n_states]);
            }
            for &s in states {
                // Length 1: this event alone, if it is the start type.
                if drt.is_start(s) {
                    let mut cell = drt.layout.zero_cell();
                    cell.start_trend();
                    cell.contribute(&drt.layout, drt.feeds.of(s), event);
                    pc.stage(0, s, cell);
                }
                // Length k+1: extend every (k)-prefix of a predecessor.
                for k in 1..pc.counts.len() {
                    let mut cell = drt.layout.zero_cell();
                    for src in &drt.pred_sources[s.index()] {
                        cell.merge(&drt.layout, &pc.counts[k - 1][src.from.index()]);
                    }
                    if cell.is_zero() {
                        continue;
                    }
                    cell.contribute(&drt.layout, drt.feeds.of(s), event);
                    pc.stage(k, s, cell);
                }
            }
            delta += pc.bytes as isize - before as isize;
        }
        delta
    }

    fn final_cell(&mut self, rt: &QueryRuntime) -> Cell {
        let mut total: Option<Cell> = None;
        for (pc, drt) in self.disjuncts.iter_mut().zip(&rt.disjuncts) {
            pc.commit(&rt.layout);
            // The flattened workload's result: Σ over lengths of the
            // end-state aggregate.
            let mut acc = drt.layout.zero_cell();
            for row in &pc.counts {
                acc.merge(&rt.layout, &row[drt.end().index()]);
            }
            match &mut total {
                None => total = Some(acc),
                Some(t) => t.merge(&rt.layout, &acc),
            }
        }
        total.expect("at least one disjunct")
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.disjuncts.iter().map(|pc| pc.bytes).sum::<usize>()
    }

    fn audit_bytes(&self, _rt: &QueryRuntime) -> usize {
        std::mem::size_of::<Self>()
            + self
                .disjuncts
                .iter()
                .map(|pc| {
                    pc.counts
                        .iter()
                        .flat_map(|row| row.iter().map(Cell::memory_bytes))
                        .sum::<usize>()
                        + pc.pending
                            .iter()
                            .map(|(_, _, c)| c.memory_bytes())
                            .sum::<usize>()
                })
                .sum::<usize>()
    }

    fn save(&self, rt: &QueryRuntime, enc: &mut cogra_checkpoint::Enc) {
        enc.usize(self.disjuncts.len());
        for pc in &self.disjuncts {
            enc.usize(pc.counts.len());
            for row in &pc.counts {
                enc.usize(row.len());
                for c in row {
                    c.save(&rt.layout, enc);
                }
            }
            enc.usize(pc.pending.len());
            for (k, s, c) in &pc.pending {
                enc.usize(*k);
                enc.u32(s.0);
                c.save(&rt.layout, enc);
            }
            enc.u64(pc.pending_time.ticks());
        }
    }

    fn load(
        rt: &QueryRuntime,
        dec: &mut cogra_checkpoint::Dec,
    ) -> Result<ASeqWindow, cogra_checkpoint::CheckpointError> {
        use cogra_checkpoint::CheckpointError;
        let n = dec.usize()?;
        if n != rt.disjuncts.len() {
            return Err(CheckpointError::Corrupt(format!(
                "A-Seq window has {n} disjuncts, query has {}",
                rt.disjuncts.len()
            )));
        }
        let mut disjuncts = Vec::with_capacity(n);
        for drt in &rt.disjuncts {
            let n_states = drt.disjunct.automaton.num_states();
            let mut pc = PrefixCounters::default();
            let n_rows = dec.usize()?;
            pc.counts.reserve(n_rows.min(1024));
            for _ in 0..n_rows {
                let n_cells = dec.usize()?;
                if n_cells != n_states {
                    return Err(CheckpointError::Corrupt(format!(
                        "A-Seq counter row has {n_cells} cells for a {n_states}-state automaton"
                    )));
                }
                let row = (0..n_cells).map(|_| Cell::load(&rt.layout, dec));
                pc.push_row(row.collect::<Result<_, _>>()?);
            }
            let n_pending = dec.usize()?;
            pc.pending.reserve(n_pending.min(1024));
            for _ in 0..n_pending {
                let k = dec.usize()?;
                if k >= pc.counts.len() {
                    return Err(CheckpointError::Corrupt(format!(
                        "A-Seq pending update targets missing counter row {k}"
                    )));
                }
                let s = StateId(dec.u32()?);
                pc.stage(k, s, Cell::load(&rt.layout, dec)?);
            }
            pc.pending_time = Timestamp(dec.u64()?);
            disjuncts.push(pc);
        }
        Ok(ASeqWindow { disjuncts })
    }
}

impl PrefixCounters {
    fn push_row(&mut self, row: Vec<Cell>) {
        self.bytes += row.iter().map(Cell::memory_bytes).sum::<usize>();
        self.counts.push(row);
    }

    fn stage(&mut self, k: usize, s: StateId, cell: Cell) {
        self.bytes += cell.memory_bytes();
        self.pending.push((k, s, cell));
    }

    fn commit(&mut self, layout: &AggLayout) {
        for (k, s, cell) in self.pending.drain(..) {
            self.bytes -= cell.memory_bytes();
            self.counts[k][s.index()].merge(layout, &cell);
        }
    }

    fn commit_if_past(&mut self, layout: &AggLayout, t: Timestamp) {
        if t > self.pending_time {
            self.commit(layout);
            self.pending_time = t;
        }
    }
}

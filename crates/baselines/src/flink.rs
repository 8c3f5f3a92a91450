//! Flink baseline (§9.1): an industrial streaming system without Kleene
//! closure.
//!
//! "For each Kleene pattern P, we first determine the length l of the
//! longest match of P. We then specify a set of fixed-length event
//! sequence queries that cover all possible lengths up to l. Flink
//! implements a two-step approach that constructs all event sequences
//! prior to their aggregation."
//!
//! The per-window algorithm therefore (1) buffers every event of the
//! partition, and at window close (2) **materializes** every sequence
//! match of every flattened query — all trends up to the flattening cap —
//! and only then (3) folds them into the aggregate. The materialized
//! matches are the memory spike that makes Flink's footprint exponential
//! under skip-till-any-match (Figure 7(b)); the
//! [`Router`](cogra_engine::Router) measures it via its finalize-spike
//! hook.
//!
//! Supported semantics (Table 9): skip-till-any-match and contiguous.

use crate::oracle::{trend_cell, visit_any_capped, visit_cont_positional};
use cogra_engine::{Capabilities, Cell, EventBinds, QueryRuntime, WindowAlgo};
use cogra_events::Event;
use cogra_query::{Semantics, StateId};

/// Per-window Flink state.
#[derive(Debug)]
pub struct FlinkWindow {
    events: Vec<Event>,
    /// Sequences materialized during finalization (kept so the router's
    /// spike measurement sees them).
    constructed: Vec<Vec<(u32, StateId)>>,
    /// [`WindowAlgo::memory_bytes`], kept current as events are buffered
    /// and sequences constructed.
    bytes: usize,
}

impl FlinkWindow {
    /// The window struct less its byte counter — the instrument is not
    /// part of the state it measures.
    const INLINE_BYTES: usize = std::mem::size_of::<Self>() - Self::INSTRUMENT_BYTES;

    /// Footprint of one constructed sequence (elements + `Vec` header).
    fn sequence_bytes(len: usize) -> usize {
        len * std::mem::size_of::<(u32, StateId)>() + 24
    }

    fn over(events: Vec<Event>) -> FlinkWindow {
        FlinkWindow {
            bytes: Self::INLINE_BYTES + events.iter().map(Event::memory_bytes).sum::<usize>(),
            events,
            constructed: Vec::new(),
        }
    }
}

impl WindowAlgo for FlinkWindow {
    const NAME: &'static str = "flink";
    const TABLE9: Capabilities = Capabilities::FLINK;
    const INSTRUMENT_BYTES: usize = std::mem::size_of::<usize>();

    fn new(_rt: &QueryRuntime) -> FlinkWindow {
        FlinkWindow::over(Vec::new())
    }

    fn on_event(&mut self, _rt: &QueryRuntime, event: &Event, _binds: &EventBinds) -> isize {
        let bytes = event.memory_bytes();
        self.bytes += bytes;
        self.events.push(event.clone());
        bytes as isize
    }

    fn final_cell(&mut self, rt: &QueryRuntime) -> Cell {
        let cap = rt.config.flatten_cap;
        let mut total: Option<Cell> = None;
        for drt in &rt.disjuncts {
            // Step 1: construct all sequences of the flattened workload.
            let first = self.constructed.len();
            let constructed = &mut self.constructed;
            let bytes = &mut self.bytes;
            let record = |tr: &[(usize, StateId)]| {
                *bytes += Self::sequence_bytes(tr.len());
                constructed.push(tr.iter().map(|&(i, s)| (i as u32, s)).collect());
            };
            match rt.query.semantics {
                Semantics::Any => visit_any_capped(drt, &self.events, cap, record),
                Semantics::Cont => visit_cont_positional(drt, &self.events, cap, record),
                Semantics::Next => unreachable!("rejected at construction"),
            }
            // Step 2: aggregate the constructed sequences.
            let mut acc = drt.layout.zero_cell();
            for seq in &self.constructed[first..] {
                let trend: Vec<(usize, StateId)> =
                    seq.iter().map(|&(i, s)| (i as usize, s)).collect();
                acc.merge(&rt.layout, &trend_cell(drt, &self.events, &trend));
            }
            match &mut total {
                None => total = Some(acc),
                Some(t) => t.merge(&rt.layout, &acc),
            }
        }
        total.expect("at least one disjunct")
    }

    fn memory_bytes(&self) -> usize {
        self.bytes
    }

    fn audit_bytes(&self, _rt: &QueryRuntime) -> usize {
        Self::INLINE_BYTES
            + self.events.iter().map(Event::memory_bytes).sum::<usize>()
            + self
                .constructed
                .iter()
                .map(|t| Self::sequence_bytes(t.len()))
                .sum::<usize>()
    }

    fn save(&self, _rt: &QueryRuntime, enc: &mut cogra_checkpoint::Enc) {
        // `constructed` only exists transiently inside `final_cell` (it is
        // kept for the spike measurement) — the buffered events are the
        // whole pre-finalization state.
        Event::save_slice(&self.events, enc);
    }

    fn load(
        _rt: &QueryRuntime,
        dec: &mut cogra_checkpoint::Dec,
    ) -> Result<FlinkWindow, cogra_checkpoint::CheckpointError> {
        Ok(FlinkWindow::over(Event::load_vec(dec)?))
    }
}

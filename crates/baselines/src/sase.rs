//! SASE baseline (Zhang, Diao, Immerman, SIGMOD 2014; §9.1).
//!
//! SASE is a two-step Kleene engine: "it first stores each event e in a
//! stack and computes the pointers to e's previous events in a trend. For
//! each window, a DFS-based algorithm traverses these pointers to
//! construct all trends. Then, these trends are aggregated."
//!
//! * **Step 1 (online)** — every matched event becomes an *entry* holding
//!   pointers to its compatible predecessor entries. Under
//!   skip-till-any-match, predecessors are all earlier compatible entries
//!   (Definition 7); under NEXT/CONT they come only from the last matched
//!   event's entries (the single-predecessor chain of Theorem 6.1), and
//!   under CONT an unmatched event clears the chain.
//! * **Step 2 (window close)** — a backward DFS from every end-state
//!   entry enumerates all trends, aggregating each as it completes; only
//!   the current path is materialized (§9.3: "SASE constructs all trends
//!   without storing them"), so memory is events + pointers while latency
//!   is exponential.

use cogra_engine::runtime::{DisjunctRuntime, NegClock};
use cogra_engine::{Capabilities, Cell, EventBinds, QueryRuntime, WindowAlgo};
use cogra_events::Event;
use cogra_query::{Semantics, StateId};

/// One stored matched event with predecessor pointers.
#[derive(Debug)]
struct Entry {
    event: Event,
    state: StateId,
    /// Indices of compatible predecessor entries.
    preds: Vec<u32>,
    /// Whether a trend may begin at this entry (start-state binding).
    starts: bool,
}

/// Per-disjunct stacks + pointers.
#[derive(Debug)]
struct Stacks {
    entries: Vec<Entry>,
    /// Entry indices of the last matched event (NEXT/CONT chain mode).
    el: Vec<u32>,
    neg_clocks: Vec<NegClock>,
    /// Footprint of `entries` and `el`, kept current where either changes.
    bytes: usize,
}

/// Per-window SASE state.
#[derive(Debug)]
pub struct SaseWindow {
    disjuncts: Vec<Stacks>,
}

impl WindowAlgo for SaseWindow {
    const NAME: &'static str = "sase";
    const TABLE9: Capabilities = Capabilities::SASE;

    fn new(rt: &QueryRuntime) -> SaseWindow {
        SaseWindow {
            disjuncts: rt
                .disjuncts
                .iter()
                .map(|d| {
                    Stacks::new(vec![
                        NegClock::default();
                        d.disjunct.automaton.num_negated()
                    ])
                })
                .collect(),
        }
    }

    fn on_event(&mut self, rt: &QueryRuntime, event: &Event, binds: &EventBinds) -> isize {
        let semantics = rt.query.semantics;
        let mut delta = 0;
        for ((stacks, drt), (states, negs)) in self
            .disjuncts
            .iter_mut()
            .zip(&rt.disjuncts)
            .zip(&binds.per_disjunct)
        {
            let before = stacks.bytes;
            for &n in negs {
                stacks.neg_clocks[n.index()].record(event.time);
            }
            match semantics {
                Semantics::Any => stacks.insert_any(drt, event, states),
                Semantics::Next => stacks.insert_chain(drt, event, states, false),
                Semantics::Cont => stacks.insert_chain(drt, event, states, true),
            }
            delta += stacks.bytes as isize - before as isize;
        }
        delta
    }

    fn final_cell(&mut self, rt: &QueryRuntime) -> Cell {
        let mut total: Option<Cell> = None;
        for (stacks, drt) in self.disjuncts.iter().zip(&rt.disjuncts) {
            let acc = stacks.aggregate_by_dfs(drt);
            match &mut total {
                None => total = Some(acc),
                Some(t) => t.merge(&rt.layout, &acc),
            }
        }
        total.expect("at least one disjunct")
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.disjuncts.iter().map(|s| s.bytes).sum::<usize>()
    }

    fn audit_bytes(&self, _rt: &QueryRuntime) -> usize {
        std::mem::size_of::<Self>()
            + self
                .disjuncts
                .iter()
                .map(|s| {
                    s.entries
                        .iter()
                        .map(|e| {
                            e.event.memory_bytes()
                                + e.preds.len() * std::mem::size_of::<u32>()
                                + std::mem::size_of::<Entry>()
                        })
                        .sum::<usize>()
                        + s.el.len() * std::mem::size_of::<u32>()
                })
                .sum::<usize>()
    }

    fn save(&self, _rt: &QueryRuntime, enc: &mut cogra_checkpoint::Enc) {
        enc.usize(self.disjuncts.len());
        for stacks in &self.disjuncts {
            enc.usize(stacks.entries.len());
            for e in &stacks.entries {
                e.event.save(enc);
                enc.u32(e.state.0);
                enc.usize(e.preds.len());
                for &p in &e.preds {
                    enc.u32(p);
                }
                enc.bool(e.starts);
            }
            enc.usize(stacks.el.len());
            for &i in &stacks.el {
                enc.u32(i);
            }
            enc.usize(stacks.neg_clocks.len());
            for c in &stacks.neg_clocks {
                c.save(enc);
            }
        }
    }

    fn load(
        rt: &QueryRuntime,
        dec: &mut cogra_checkpoint::Dec,
    ) -> Result<SaseWindow, cogra_checkpoint::CheckpointError> {
        use cogra_checkpoint::CheckpointError;
        let n = dec.usize()?;
        if n != rt.disjuncts.len() {
            return Err(CheckpointError::Corrupt(format!(
                "SASE window has {n} disjuncts, query has {}",
                rt.disjuncts.len()
            )));
        }
        let mut disjuncts = Vec::with_capacity(n);
        for drt in &rt.disjuncts {
            let n_entries = dec.usize()?;
            let mut entries = Vec::with_capacity(n_entries.min(1024));
            for idx in 0..n_entries {
                let event = Event::load(dec)?;
                let state = StateId(dec.u32()?);
                let n_preds = dec.usize()?;
                let mut preds = Vec::with_capacity(n_preds.min(1024));
                for _ in 0..n_preds {
                    let p = dec.u32()?;
                    if p as usize >= idx {
                        return Err(CheckpointError::Corrupt(format!(
                            "SASE entry {idx} points at non-earlier entry {p}"
                        )));
                    }
                    preds.push(p);
                }
                let starts = dec.bool()?;
                entries.push(Entry {
                    event,
                    state,
                    preds,
                    starts,
                });
            }
            let n_el = dec.usize()?;
            let mut el = Vec::with_capacity(n_el.min(1024));
            for _ in 0..n_el {
                let i = dec.u32()?;
                if i as usize >= entries.len() {
                    return Err(CheckpointError::Corrupt(format!(
                        "SASE chain points at missing entry {i}"
                    )));
                }
                el.push(i);
            }
            let n_clocks = dec.usize()?;
            if n_clocks != drt.disjunct.automaton.num_negated() {
                return Err(CheckpointError::Corrupt(format!(
                    "SASE window has {n_clocks} negation clocks for {} negated variables",
                    drt.disjunct.automaton.num_negated()
                )));
            }
            let mut neg_clocks = Vec::with_capacity(n_clocks);
            for _ in 0..n_clocks {
                neg_clocks.push(NegClock::load(dec)?);
            }
            let mut stacks = Stacks::new(neg_clocks);
            for entry in entries {
                stacks.push(entry);
            }
            stacks.set_el(el);
            disjuncts.push(stacks);
        }
        Ok(SaseWindow { disjuncts })
    }
}

impl Stacks {
    fn new(neg_clocks: Vec<NegClock>) -> Stacks {
        Stacks {
            entries: Vec::new(),
            el: Vec::new(),
            neg_clocks,
            bytes: 0,
        }
    }

    fn push(&mut self, entry: Entry) {
        self.bytes += entry.event.memory_bytes()
            + entry.preds.len() * std::mem::size_of::<u32>()
            + std::mem::size_of::<Entry>();
        self.entries.push(entry);
    }

    fn set_el(&mut self, el: Vec<u32>) {
        self.bytes -= self.el.len() * std::mem::size_of::<u32>();
        self.bytes += el.len() * std::mem::size_of::<u32>();
        self.el = el;
    }

    /// Can `prev` (an existing entry) precede the new event at `state`?
    fn compatible(
        &self,
        drt: &DisjunctRuntime,
        prev: &Entry,
        event: &Event,
        state: StateId,
    ) -> bool {
        if prev.event.time >= event.time {
            return false;
        }
        let Some(edge) = drt.disjunct.automaton.edge(prev.state, state) else {
            return false;
        };
        if !drt
            .disjunct
            .adjacency_predicates_pass(prev.state, state, &prev.event, event)
        {
            return false;
        }
        !edge
            .negations
            .iter()
            .any(|&n| self.neg_clocks[n.index()].blocked(prev.event.time, event.time))
    }

    /// Skip-till-any-match insertion: pointers to every compatible
    /// predecessor entry.
    fn insert_any(&mut self, drt: &DisjunctRuntime, event: &Event, states: &[StateId]) {
        let existing = self.entries.len();
        for &s in states {
            let mut preds = Vec::new();
            for (i, prev) in self.entries[..existing].iter().enumerate() {
                if self.compatible(drt, prev, event, s) {
                    preds.push(i as u32);
                }
            }
            let starts = drt.is_start(s);
            if starts || !preds.is_empty() {
                self.push(Entry {
                    event: event.clone(),
                    state: s,
                    preds,
                    starts,
                });
            }
        }
    }

    /// NEXT/CONT insertion: pointers only to the last matched event's
    /// entries; CONT clears the chain on unmatched events.
    fn insert_chain(
        &mut self,
        drt: &DisjunctRuntime,
        event: &Event,
        states: &[StateId],
        contiguous: bool,
    ) {
        let mut new_el = Vec::new();
        for &s in states {
            let mut preds = Vec::new();
            for &i in &self.el {
                let prev = &self.entries[i as usize];
                if self.compatible(drt, prev, event, s) {
                    preds.push(i);
                }
            }
            let starts = drt.is_start(s);
            if starts || !preds.is_empty() {
                self.push(Entry {
                    event: event.clone(),
                    state: s,
                    preds,
                    starts,
                });
                new_el.push((self.entries.len() - 1) as u32);
            }
        }
        if !new_el.is_empty() || contiguous {
            self.set_el(new_el);
        }
    }

    /// Step 2: backward DFS from end-state entries, aggregating each
    /// trend when it terminates at a trend-starting entry.
    fn aggregate_by_dfs(&self, drt: &DisjunctRuntime) -> Cell {
        let mut acc = drt.layout.zero_cell();
        let mut seed = drt.layout.zero_cell();
        seed.start_trend();
        for entry in &self.entries {
            if entry.state == drt.end() {
                self.dfs(drt, entry, &seed, &mut acc);
            }
        }
        acc
    }

    fn dfs(&self, drt: &DisjunctRuntime, entry: &Entry, path_cell: &Cell, acc: &mut Cell) {
        let mut cell = path_cell.clone();
        cell.contribute(&drt.layout, drt.feeds.of(entry.state), &entry.event);
        if entry.starts {
            acc.merge(&drt.layout, &cell); // one finished trend
        }
        for &p in &entry.preds {
            self.dfs(drt, &self.entries[p as usize], &cell, acc);
        }
    }
}

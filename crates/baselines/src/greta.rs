//! GRETA baseline (Poppe et al., VLDB 2017; §9.1 of the COGRA paper).
//!
//! GRETA captures *all* matched events and their trend relationships as a
//! graph and computes trend aggregation online on top of it — no trend
//! construction, but aggregates at the **finest granularity**: one per
//! matched event. It supports only skip-till-any-match.
//!
//! In COGRA's vocabulary, GRETA is the degenerate mixed-grained aggregator
//! with `Te` = *all* states: every matched event is stored with its
//! event-grained cell, and every new event scans all stored predecessor
//! events. Time O(n²) per window, space Θ(n) — the gap to COGRA's
//! O(n·l)/Θ(l) is exactly what Figures 7–10 measure.

use cogra_engine::runtime::DisjunctRuntime;
use cogra_engine::{Capabilities, Cell, EventBinds, QueryRuntime, WindowAlgo};
use cogra_events::Event;
use cogra_query::StateId;

/// A graph node: a matched event with its per-binding aggregate.
#[derive(Debug)]
struct Node {
    event: Event,
    state: StateId,
    cell: Cell,
}

/// Per-disjunct GRETA graph.
#[derive(Debug)]
struct Graph {
    nodes: Vec<Node>,
    final_acc: Cell,
    neg_clocks: Vec<cogra_engine::runtime::NegClock>,
    /// Footprint of `final_acc` and `nodes`, kept current as nodes are
    /// added.
    bytes: usize,
}

impl Graph {
    fn new(final_acc: Cell, neg_clocks: Vec<cogra_engine::runtime::NegClock>) -> Graph {
        Graph {
            nodes: Vec::new(),
            bytes: final_acc.memory_bytes(),
            final_acc,
            neg_clocks,
        }
    }

    fn push(&mut self, node: Node) {
        self.bytes += node.event.memory_bytes() + node.cell.memory_bytes();
        self.nodes.push(node);
    }
}

/// Per-window GRETA state.
#[derive(Debug)]
pub struct GretaWindow {
    graphs: Vec<Graph>,
}

impl WindowAlgo for GretaWindow {
    const NAME: &'static str = "greta";
    const TABLE9: Capabilities = Capabilities::GRETA;

    fn new(rt: &QueryRuntime) -> GretaWindow {
        GretaWindow {
            graphs: rt
                .disjuncts
                .iter()
                .map(|d| {
                    Graph::new(
                        d.layout.zero_cell(),
                        vec![Default::default(); d.disjunct.automaton.num_negated()],
                    )
                })
                .collect(),
        }
    }

    fn on_event(&mut self, rt: &QueryRuntime, event: &Event, binds: &EventBinds) -> isize {
        let mut delta = 0;
        for ((graph, drt), (states, negs)) in self
            .graphs
            .iter_mut()
            .zip(&rt.disjuncts)
            .zip(&binds.per_disjunct)
        {
            let before = graph.bytes;
            for &n in negs {
                graph.neg_clocks[n.index()].record(event.time);
            }
            for &s in states {
                let cell = compute_cell(graph, drt, event, s);
                let Some(cell) = cell else { continue };
                if s == drt.end() {
                    graph.final_acc.merge(&rt.layout, &cell);
                }
                graph.push(Node {
                    event: event.clone(),
                    state: s,
                    cell,
                });
            }
            delta += graph.bytes as isize - before as isize;
        }
        delta
    }

    fn final_cell(&mut self, rt: &QueryRuntime) -> Cell {
        let mut total: Option<Cell> = None;
        for graph in &self.graphs {
            match &mut total {
                None => total = Some(graph.final_acc.clone()),
                Some(t) => t.merge(&rt.layout, &graph.final_acc),
            }
        }
        total.expect("at least one disjunct")
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.graphs.iter().map(|g| g.bytes).sum::<usize>()
    }

    fn audit_bytes(&self, _rt: &QueryRuntime) -> usize {
        std::mem::size_of::<Self>()
            + self
                .graphs
                .iter()
                .map(|g| {
                    g.final_acc.memory_bytes()
                        + g.nodes
                            .iter()
                            .map(|n| n.event.memory_bytes() + n.cell.memory_bytes())
                            .sum::<usize>()
                })
                .sum::<usize>()
    }

    fn save(&self, rt: &QueryRuntime, enc: &mut cogra_checkpoint::Enc) {
        enc.usize(self.graphs.len());
        for g in &self.graphs {
            enc.usize(g.nodes.len());
            for n in &g.nodes {
                n.event.save(enc);
                enc.u32(n.state.0);
                n.cell.save(&rt.layout, enc);
            }
            g.final_acc.save(&rt.layout, enc);
            enc.usize(g.neg_clocks.len());
            for c in &g.neg_clocks {
                c.save(enc);
            }
        }
    }

    fn load(
        rt: &QueryRuntime,
        dec: &mut cogra_checkpoint::Dec,
    ) -> Result<GretaWindow, cogra_checkpoint::CheckpointError> {
        use cogra_checkpoint::CheckpointError;
        let n = dec.usize()?;
        if n != rt.disjuncts.len() {
            return Err(CheckpointError::Corrupt(format!(
                "GRETA window has {n} disjuncts, query has {}",
                rt.disjuncts.len()
            )));
        }
        let mut graphs = Vec::with_capacity(n);
        for drt in &rt.disjuncts {
            let n_nodes = dec.usize()?;
            let mut nodes = Vec::with_capacity(n_nodes.min(1024));
            for _ in 0..n_nodes {
                let event = Event::load(dec)?;
                let state = StateId(dec.u32()?);
                nodes.push(Node {
                    event,
                    state,
                    cell: Cell::load(&rt.layout, dec)?,
                });
            }
            let final_acc = Cell::load(&rt.layout, dec)?;
            let n_clocks = dec.usize()?;
            if n_clocks != drt.disjunct.automaton.num_negated() {
                return Err(CheckpointError::Corrupt(format!(
                    "GRETA window has {n_clocks} negation clocks for {} negated variables",
                    drt.disjunct.automaton.num_negated()
                )));
            }
            let mut neg_clocks = Vec::with_capacity(n_clocks);
            for _ in 0..n_clocks {
                neg_clocks.push(cogra_engine::runtime::NegClock::load(dec)?);
            }
            let mut graph = Graph::new(final_acc, neg_clocks);
            for node in nodes {
                graph.push(node);
            }
            graphs.push(graph);
        }
        Ok(GretaWindow { graphs })
    }
}

/// GRETA's per-event aggregate: scan all stored predecessor events
/// (Definition 7 adjacency, evaluated per pair).
fn compute_cell(graph: &Graph, drt: &DisjunctRuntime, event: &Event, s: StateId) -> Option<Cell> {
    let mut cell = drt.layout.zero_cell();
    if drt.is_start(s) {
        cell.start_trend();
    }
    for src in &drt.pred_sources[s.index()] {
        for node in &graph.nodes {
            if node.state != src.from
                || node.event.time >= event.time
                || !drt
                    .disjunct
                    .adjacency_predicates_pass(src.from, s, &node.event, event)
            {
                continue;
            }
            let blocked = src
                .negations
                .iter()
                .any(|n| graph.neg_clocks[n.index()].blocked(node.event.time, event.time));
            if !blocked {
                cell.merge(&drt.layout, &node.cell);
            }
        }
    }
    if cell.is_zero() {
        return None;
    }
    cell.contribute(&drt.layout, drt.feeds.of(s), event);
    Some(cell)
}

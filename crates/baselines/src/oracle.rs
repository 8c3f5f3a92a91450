//! Brute-force reference engine: materializes every finished trend by the
//! event-matching-semantics definitions (§2.2) and aggregates trend by
//! trend. Exponential in time and memory — its only job is to be obviously
//! correct, as the ground truth for the engine-agreement tests and the
//! Table 3 trend-count experiment.

use cogra_engine::runtime::DisjunctRuntime;
use cogra_engine::{Capabilities, Cell, EventBinds, QueryRuntime, WindowAlgo};
use cogra_events::{Event, Timestamp};
use cogra_query::{Semantics, StateId};

/// A finished trend: `(index into the window's event list, bound state)`
/// per element.
pub type Trend = Vec<(usize, StateId)>;

/// Index of negation matches for interval queries.
struct NegIndex {
    /// Per negated variable: sorted match time stamps.
    times: Vec<Vec<Timestamp>>,
}

impl NegIndex {
    fn build(rt: &DisjunctRuntime, events: &[Event]) -> NegIndex {
        let mut times = vec![Vec::new(); rt.disjunct.automaton.num_negated()];
        let mut scratch = Vec::new();
        for e in events {
            rt.negation_matches(e, &mut scratch);
            for n in &scratch {
                times[n.index()].push(e.time);
            }
        }
        NegIndex { times }
    }

    /// Is there a match of `n` strictly inside `(after, before)`?
    fn blocked(&self, n: cogra_query::NegId, after: Timestamp, before: Timestamp) -> bool {
        self.times[n.index()]
            .iter()
            .any(|&t| t > after && t < before)
    }
}

/// Whether `ep@from` and `e@to` are adjacent (Definition 7): predecessor
/// edge, strictly increasing time, adjacency predicates, no blocking
/// negation match in between.
fn adjacent(
    rt: &DisjunctRuntime,
    negs: &NegIndex,
    from: StateId,
    to: StateId,
    ep: &Event,
    e: &Event,
) -> bool {
    if ep.time >= e.time {
        return false;
    }
    let Some(edge) = rt.disjunct.automaton.edge(from, to) else {
        return false;
    };
    if !rt.disjunct.adjacency_predicates_pass(from, to, ep, e) {
        return false;
    }
    !edge
        .negations
        .iter()
        .any(|&n| negs.blocked(n, ep.time, e.time))
}

/// Visit every finished trend of one disjunct under skip-till-any-match
/// (Definition 2): every strictly-time-increasing path through the FSA
/// from the start state, reported whenever it reaches the end state.
pub fn visit_any<F: FnMut(&[(usize, StateId)])>(rt: &DisjunctRuntime, events: &[Event], f: F) {
    visit_any_capped(rt, events, None, f)
}

/// [`visit_any`] pruned at `cap` trend elements — the trend set a
/// flattening engine (Flink, §9.1) covers with sequence queries up to
/// length `cap`.
pub fn visit_any_capped<F: FnMut(&[(usize, StateId)])>(
    rt: &DisjunctRuntime,
    events: &[Event],
    cap: Option<usize>,
    mut f: F,
) {
    let negs = NegIndex::build(rt, events);
    let binds: Vec<Vec<StateId>> = bind_table(rt, events);
    let mut path: Vec<(usize, StateId)> = Vec::new();
    let cap = cap.unwrap_or(usize::MAX);
    if cap == 0 {
        return;
    }

    fn rec<F: FnMut(&[(usize, StateId)])>(
        rt: &DisjunctRuntime,
        events: &[Event],
        binds: &[Vec<StateId>],
        negs: &NegIndex,
        cap: usize,
        path: &mut Vec<(usize, StateId)>,
        f: &mut F,
    ) {
        let &(i, s) = path.last().expect("path never empty in rec");
        if s == rt.end() {
            f(path);
        }
        if path.len() >= cap {
            return;
        }
        for (j, event) in events.iter().enumerate().skip(i + 1) {
            if event.time <= events[i].time {
                continue;
            }
            for &s2 in &binds[j] {
                if adjacent(rt, negs, s, s2, &events[i], event) {
                    path.push((j, s2));
                    rec(rt, events, binds, negs, cap, path, f);
                    path.pop();
                }
            }
        }
    }

    for i in 0..events.len() {
        for &s in &binds[i] {
            if rt.is_start(s) {
                path.push((i, s));
                rec(rt, events, &binds, &negs, cap, &mut path, &mut f);
                path.pop();
            }
        }
    }
}

/// Visit the contiguous trends (Definition 4) by positional enumeration:
/// from every start position, extend the path only with the immediately
/// following event of the partitioned sub-stream. Used by the Flink
/// baseline; equivalent to the chain-based CONT semantics of
/// [`visit_chain`] (checked by the engine-agreement tests).
pub fn visit_cont_positional<F: FnMut(&[(usize, StateId)])>(
    rt: &DisjunctRuntime,
    events: &[Event],
    cap: Option<usize>,
    mut f: F,
) {
    let negs = NegIndex::build(rt, events);
    let binds = bind_table(rt, events);
    let cap = cap.unwrap_or(usize::MAX);
    if cap == 0 {
        return;
    }
    let mut path: Vec<(usize, StateId)> = Vec::new();

    fn rec<F: FnMut(&[(usize, StateId)])>(
        rt: &DisjunctRuntime,
        events: &[Event],
        binds: &[Vec<StateId>],
        negs: &NegIndex,
        cap: usize,
        path: &mut Vec<(usize, StateId)>,
        f: &mut F,
    ) {
        let &(i, s) = path.last().expect("path never empty in rec");
        if s == rt.end() {
            f(path);
        }
        if path.len() >= cap {
            return;
        }
        let j = i + 1; // contiguous: only the immediately next event
        if j >= events.len() {
            return;
        }
        for &s2 in &binds[j] {
            if adjacent(rt, negs, s, s2, &events[i], &events[j]) {
                path.push((j, s2));
                rec(rt, events, binds, negs, cap, path, f);
                path.pop();
            }
        }
    }

    for i in 0..events.len() {
        for &s in &binds[i] {
            if rt.is_start(s) {
                path.push((i, s));
                rec(rt, events, &binds, &negs, cap, &mut path, &mut f);
                path.pop();
            }
        }
    }
}

/// Visit every finished trend of one disjunct under skip-till-next-match
/// or contiguous semantics, following the operational single-predecessor
/// chain the paper's Algorithm 3 and Theorem 6.1 define — the reading of
/// Definitions 3–4 under which the aggregate is computable in O(1) space:
/// each matched event's predecessor is the previous
/// matched event; under CONT an unmatched event invalidates the open
/// partial trends.
pub fn visit_chain<F: FnMut(&[(usize, StateId)])>(
    rt: &DisjunctRuntime,
    events: &[Event],
    semantics: Semantics,
    mut f: F,
) {
    assert!(matches!(semantics, Semantics::Next | Semantics::Cont));
    let negs = NegIndex::build(rt, events);
    let binds = bind_table(rt, events);
    let n_states = rt.disjunct.automaton.num_states();
    // Last matched event with, per state, the partial trends ending there.
    let mut el: Option<(usize, Vec<Vec<Trend>>)> = None;
    for (i, event) in events.iter().enumerate() {
        let mut new_trends: Vec<Vec<Trend>> = vec![Vec::new(); n_states];
        let mut matched = false;
        for &s in &binds[i] {
            let mut trends: Vec<Trend> = Vec::new();
            if rt.is_start(s) {
                trends.push(vec![(i, s)]);
            }
            if let Some((ei, prev)) = &el {
                for (sp, prev_trends) in prev.iter().enumerate() {
                    if prev_trends.is_empty() {
                        continue;
                    }
                    let sp = StateId(sp as u32);
                    if adjacent(rt, &negs, sp, s, &events[*ei], event) {
                        for tr in prev_trends {
                            let mut ext = tr.clone();
                            ext.push((i, s));
                            trends.push(ext);
                        }
                    }
                }
            }
            if trends.is_empty() {
                continue;
            }
            matched = true;
            if s == rt.end() {
                for tr in &trends {
                    f(tr);
                }
            }
            new_trends[s.index()] = trends;
        }
        if matched {
            el = Some((i, new_trends));
        } else if semantics == Semantics::Cont {
            el = None;
        }
    }
}

fn bind_table(rt: &DisjunctRuntime, events: &[Event]) -> Vec<Vec<StateId>> {
    let mut scratch = Vec::new();
    events
        .iter()
        .map(|e| {
            rt.binds(e, &mut scratch);
            scratch.clone()
        })
        .collect()
}

/// Aggregate one trend into a cell (count 1, per-occurrence slot
/// contributions).
pub fn trend_cell(rt: &DisjunctRuntime, events: &[Event], trend: &[(usize, StateId)]) -> Cell {
    let mut cell = rt.layout.zero_cell();
    cell.start_trend();
    for &(i, s) in trend {
        cell.contribute(&rt.layout, rt.feeds.of(s), &events[i]);
    }
    cell
}

/// Count the finished trends of one disjunct without materializing them —
/// used by the Table 3 experiment.
pub fn count_trends(rt: &DisjunctRuntime, events: &[Event], semantics: Semantics) -> u64 {
    let mut n = 0u64;
    match semantics {
        Semantics::Any => visit_any(rt, events, |_| n = n.wrapping_add(1)),
        _ => visit_chain(rt, events, semantics, |_| n = n.wrapping_add(1)),
    }
    n
}

/// The oracle's per-window state: the full event list (a two-step
/// approach must retain every event until the window closes).
#[derive(Debug)]
pub struct OracleWindow {
    events: Vec<Event>,
    /// [`WindowAlgo::memory_bytes`], kept current as events are buffered.
    bytes: usize,
}

impl OracleWindow {
    /// The window struct less its byte counter — the instrument is not
    /// part of the state it measures.
    const INLINE_BYTES: usize = std::mem::size_of::<Self>() - Self::INSTRUMENT_BYTES;

    fn over(events: Vec<Event>) -> OracleWindow {
        OracleWindow {
            bytes: Self::INLINE_BYTES + events.iter().map(Event::memory_bytes).sum::<usize>(),
            events,
        }
    }
}

impl WindowAlgo for OracleWindow {
    const NAME: &'static str = "oracle";
    const TABLE9: Capabilities = Capabilities::ORACLE;
    const INSTRUMENT_BYTES: usize = std::mem::size_of::<usize>();

    fn new(_rt: &QueryRuntime) -> OracleWindow {
        OracleWindow::over(Vec::new())
    }

    fn on_event(&mut self, _rt: &QueryRuntime, event: &Event, _binds: &EventBinds) -> isize {
        let bytes = event.memory_bytes();
        self.bytes += bytes;
        self.events.push(event.clone());
        bytes as isize
    }

    fn final_cell(&mut self, rt: &QueryRuntime) -> Cell {
        let mut total: Option<Cell> = None;
        for drt in &rt.disjuncts {
            let mut acc = drt.layout.zero_cell();
            let visit = |tr: &[(usize, StateId)]| {
                acc.merge(&rt.layout, &trend_cell(drt, &self.events, tr));
            };
            match rt.query.semantics {
                Semantics::Any => visit_any(drt, &self.events, visit),
                s => visit_chain(drt, &self.events, s, visit),
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
        Self::INLINE_BYTES + self.events.iter().map(Event::memory_bytes).sum::<usize>()
    }

    fn save(&self, _rt: &QueryRuntime, enc: &mut cogra_checkpoint::Enc) {
        Event::save_slice(&self.events, enc);
    }

    fn load(
        _rt: &QueryRuntime,
        dec: &mut cogra_checkpoint::Dec,
    ) -> Result<OracleWindow, cogra_checkpoint::CheckpointError> {
        Ok(OracleWindow::over(Event::load_vec(dec)?))
    }
}

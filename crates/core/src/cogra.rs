//! The COGRA runtime executor (§3, Figure 3): the [`Router`] combined with
//! the per-window aggregator each disjunct's granularity selector chose —
//! type-grained (Algorithm 1), mixed-grained (Algorithm 2) or
//! pattern-grained (Algorithm 3). [`CograWindow`] is that per-window
//! algorithm, with every cell of Table 9; [`CograEngine`] is no more than
//! the router over it.

use crate::agg::Cell;
use crate::mixed_grained::MixedWindow;
use crate::pattern_grained::PatternWindow;
use crate::router::{EventBinds, Router, WindowAlgo};
use crate::runtime::{DisjunctRuntime, QueryRuntime};
use crate::type_grained::TypeGrainedWindow;
use cogra_engine::Capabilities;
use cogra_events::Event;
use cogra_query::Granularity;

/// Per-window aggregation state of one disjunct, at its selected
/// granularity. A type-grained window is one slab handle and sits inline;
/// the other two are boxed, so the handle of every disjunct is as small.
#[derive(Debug)]
enum GranWindow {
    Type(TypeGrainedWindow),
    Mixed(Box<MixedWindow>),
    Pattern(Box<PatternWindow>),
}

impl GranWindow {
    fn new(drt: &DisjunctRuntime) -> GranWindow {
        match drt.disjunct.granularity {
            Granularity::Type => GranWindow::Type(TypeGrainedWindow::new(drt)),
            Granularity::Mixed => GranWindow::Mixed(Box::new(MixedWindow::new(drt))),
            Granularity::Pattern => GranWindow::Pattern(Box::new(PatternWindow::new(drt))),
        }
    }

    /// What the window holds beyond its handle: a boxed window's struct,
    /// and whatever the aggregator holds outside it.
    fn memory_bytes(&self) -> usize {
        match self {
            GranWindow::Type(w) => w.memory_bytes(),
            GranWindow::Mixed(w) => MixedWindow::INLINE_BYTES + w.memory_bytes(),
            GranWindow::Pattern(w) => PatternWindow::INLINE_BYTES + w.memory_bytes(),
        }
    }

    fn audit_bytes(&self, drt: &DisjunctRuntime) -> usize {
        match self {
            GranWindow::Type(w) => w.audit_bytes(drt),
            GranWindow::Mixed(w) => MixedWindow::INLINE_BYTES + w.audit_bytes(drt),
            GranWindow::Pattern(w) => PatternWindow::INLINE_BYTES + w.audit_bytes(drt),
        }
    }
}

/// COGRA's per-window state: one granularity-specific aggregator per
/// disjunct — inline in the router's ring slot when the query has one
/// disjunct, so a type-grained step touches the slot and one slab.
#[derive(Debug)]
pub struct CograWindow(Disjuncts);

/// A window's aggregators: one inline, or one per disjunct in a box.
#[derive(Debug)]
enum Disjuncts {
    One(GranWindow),
    Many(Box<[GranWindow]>),
}

impl CograWindow {
    fn grans(&self) -> &[GranWindow] {
        match &self.0 {
            Disjuncts::One(gran) => std::slice::from_ref(gran),
            Disjuncts::Many(grans) => grans,
        }
    }

    fn grans_mut(&mut self) -> &mut [GranWindow] {
        match &mut self.0 {
            Disjuncts::One(gran) => std::slice::from_mut(gran),
            Disjuncts::Many(grans) => grans,
        }
    }

    fn of(mut grans: Vec<GranWindow>) -> CograWindow {
        CograWindow(match grans.len() {
            1 => Disjuncts::One(grans.pop().expect("one")),
            _ => Disjuncts::Many(grans.into_boxed_slice()),
        })
    }

    /// [`WindowAlgo::on_event`] disjunct by disjunct, each at its own
    /// granularity: out of line, so that the steps the router inlines stay
    /// small.
    #[inline(never)]
    fn on_event_each(&mut self, rt: &QueryRuntime, event: &Event, binds: &EventBinds) -> isize {
        let semantics = rt.query.semantics;
        let mut delta = 0;
        for ((gran, drt), (states, negs)) in self
            .grans_mut()
            .iter_mut()
            .zip(&rt.disjuncts)
            .zip(&binds.per_disjunct)
        {
            delta += match gran {
                GranWindow::Type(w) => w.step(drt, event, states, negs),
                GranWindow::Mixed(w) => w.step(drt, event, states, negs),
                GranWindow::Pattern(w) => w.step(drt, event, states, negs, semantics),
            };
        }
        delta
    }

    /// The boxed handles of a many-disjunct window.
    fn spilled_bytes(&self) -> usize {
        match &self.0 {
            Disjuncts::One(_) => 0,
            Disjuncts::Many(grans) => std::mem::size_of_val(&**grans),
        }
    }
}

impl WindowAlgo for CograWindow {
    const NAME: &'static str = "cogra";
    const TABLE9: Capabilities = Capabilities::COGRA;

    fn new(rt: &QueryRuntime) -> CograWindow {
        CograWindow::of(rt.disjuncts.iter().map(GranWindow::new).collect())
    }

    fn reset(&mut self, rt: &QueryRuntime) {
        for (gran, drt) in self.grans_mut().iter_mut().zip(&rt.disjuncts) {
            match gran {
                GranWindow::Type(w) => w.reset(drt),
                GranWindow::Mixed(w) => w.reset(drt),
                GranWindow::Pattern(w) => w.reset(drt),
            }
        }
    }

    /// A window of one type-grained or one pattern-grained disjunct goes
    /// straight to [`TypeGrainedWindow::step`] or [`PatternWindow::step`],
    /// inlined into the router's window loop; every other shape steps
    /// disjunct by disjunct, out of line.
    #[inline]
    fn on_event(&mut self, rt: &QueryRuntime, event: &Event, binds: &EventBinds) -> isize {
        let (states, negs) = &binds.per_disjunct[0];
        match &mut self.0 {
            Disjuncts::One(GranWindow::Type(w)) => w.step(&rt.disjuncts[0], event, states, negs),
            Disjuncts::One(GranWindow::Pattern(w)) => {
                w.step(&rt.disjuncts[0], event, states, negs, rt.query.semantics)
            }
            _ => self.on_event_each(rt, event, binds),
        }
    }

    fn final_cell(&mut self, rt: &QueryRuntime) -> Cell {
        let mut cell: Option<Cell> = None;
        for (gran, drt) in self.grans_mut().iter_mut().zip(&rt.disjuncts) {
            let c = match gran {
                GranWindow::Type(w) => w.final_cell(drt),
                GranWindow::Mixed(w) => w.final_cell(drt),
                GranWindow::Pattern(w) => w.final_cell(drt),
            };
            match &mut cell {
                None => cell = Some(c),
                Some(acc) => acc.merge(&rt.layout, &c),
            }
        }
        cell.expect("a compiled query has at least one disjunct")
    }

    fn memory_bytes(&self) -> usize {
        self.spilled_bytes()
            + self
                .grans()
                .iter()
                .map(GranWindow::memory_bytes)
                .sum::<usize>()
    }

    fn audit_bytes(&self, rt: &QueryRuntime) -> usize {
        let grans = self.grans().iter().zip(&rt.disjuncts);
        self.spilled_bytes()
            + grans
                .map(|(gran, drt)| gran.audit_bytes(drt))
                .sum::<usize>()
    }

    fn save(&self, rt: &QueryRuntime, enc: &mut cogra_checkpoint::Enc) {
        let grans = self.grans();
        enc.usize(grans.len());
        for (gran, drt) in grans.iter().zip(&rt.disjuncts) {
            // Tag each disjunct with its granularity: the restored runtime
            // re-selects the same one, but a mismatched snapshot must fail
            // typed instead of misparsing.
            match gran {
                GranWindow::Type(w) => {
                    enc.u8(0);
                    w.save(drt, enc);
                }
                GranWindow::Mixed(w) => {
                    enc.u8(1);
                    w.save(drt, enc);
                }
                GranWindow::Pattern(w) => {
                    enc.u8(2);
                    w.save(drt, enc);
                }
            }
        }
    }

    fn load(
        rt: &QueryRuntime,
        dec: &mut cogra_checkpoint::Dec,
    ) -> Result<CograWindow, cogra_checkpoint::CheckpointError> {
        let n = dec.usize()?;
        if n != rt.disjuncts.len() {
            return Err(cogra_checkpoint::CheckpointError::Corrupt(format!(
                "window has {n} disjuncts, query has {}",
                rt.disjuncts.len()
            )));
        }
        let mut disjuncts = Vec::with_capacity(n);
        for d in &rt.disjuncts {
            let tag = dec.u8()?;
            let expected = match d.disjunct.granularity {
                Granularity::Type => 0,
                Granularity::Mixed => 1,
                Granularity::Pattern => 2,
            };
            if tag != expected {
                return Err(cogra_checkpoint::CheckpointError::Corrupt(format!(
                    "disjunct granularity tag {tag} does not match the compiled plan ({expected})"
                )));
            }
            disjuncts.push(match d.disjunct.granularity {
                Granularity::Type => GranWindow::Type(TypeGrainedWindow::load(d, dec)?),
                Granularity::Mixed => GranWindow::Mixed(Box::new(MixedWindow::load(d, dec)?)),
                Granularity::Pattern => GranWindow::Pattern(Box::new(PatternWindow::load(d, dec)?)),
            });
        }
        Ok(CograWindow::of(disjuncts))
    }
}

/// The COGRA engine: coarse-grained online event trend aggregation — the
/// generic [`Router`] instantiated with [`CograWindow`], built like every
/// other engine ([`Router::from_text`], or a session's `EngineKind`).
pub type CograEngine = Router<CograWindow>;

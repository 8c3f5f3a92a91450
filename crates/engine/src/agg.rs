//! Incremental aggregates (Table 8), as words.
//!
//! Every aggregator — type-, mixed- and pattern-grained, and the baseline
//! engines — maintains the same propagated state per "slot of aggregation"
//! (an event type, a stored event, or the last matched event): the trend
//! count plus one value per aggregation slot. Table 8's recurrences all
//! decompose into two primitives:
//!
//! * **merge** — fold a predecessor's aggregates into a new event's (the
//!   `Σ E'.count`-style terms);
//! * **contribute** — add the new event's own contribution (`+1` for a
//!   start event, `e.attr · e.count` for SUM, `e.attr` for MIN/MAX,
//!   `e.count` for COUNT(E)).
//!
//! `AVG(E.attr)` is algebraic: the [`AggLayout`] expands it into a SUM slot
//! and a COUNT slot and divides at output time (§2.3).
//!
//! ## Rows, tables, cells
//!
//! The COGRA aggregators keep their aggregates as **rows**: `1 + k` words
//! (`u64`) for a layout of `k` slots — the trend count, then one word per
//! slot (a wrapping count, or the bits of an `f64`). Which kind of value a
//! word holds is a fact about the compiled query, so it lives once, in
//! [`AggLayout::slots`], not in a tag per value; a MIN/MAX slot no event
//! has fed yet holds [`NO_VALUE`], one reserved signalling-NaN bit pattern
//! that neither arithmetic nor a parser produces (an attribute or a saved
//! cell carrying exactly those bits is a NaN all the same, and enters a
//! row as the quiet NaN next to it). Whether a row accounts for any
//! trend at all — its *live* bit, see [`Cell`] — is kept by whoever owns
//! the row:
//!
//! * a [`CellTable`] is the shape of a window's fixed set of rows at the
//!   front of the window's one `u64` slab, `rows × (1 + k)` words followed
//!   by one live bit per row, with the row operations done in place by row
//!   index — Θ(l) words for a Θ(l) algorithm, literally;
//! * rows that exist only while live — a type-grained window's staged
//!   updates, a mixed-grained window's stored events' aggregates — are
//!   appended to a slab behind whatever precedes them, and driven by the
//!   same kernels ([`AggLayout::merge_row`] and friends).
//!
//! A [`Cell`] is the same state as an owned value — count, live bit and a
//! tagged [`Val`] per slot. It is what crosses [`WindowAlgo::final_cell`]
//! into the router's cross-partition merge, what a snapshot spells a row as
//! ([`AggLayout::save_row`] writes the bytes [`Cell::save`] would, and a
//! row can only be loaded *through* the layout, so a saved cell of another
//! shape is a typed error), and what the baseline engines compute with.
//!
//! Trend counts use wrapping `u64` arithmetic: under skip-till-any-match
//! the count is exponential in the number of events, so any fixed-width
//! representation overflows on large windows; all engines in this workspace
//! wrap identically, keeping them mutually comparable (and exact whenever
//! the true count fits in 64 bits).
//!
//! [`WindowAlgo::final_cell`]: crate::router::WindowAlgo::final_cell

use cogra_checkpoint::{CheckpointError, Dec, Enc};
use cogra_events::{AttrId, Event};
use cogra_query::{AggFunc, CompiledDisjunct, StateId};

/// Internal aggregation slot function (AVG is expanded before this level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotFunc {
    /// COUNT(E): number of occurrences of a variable across trends.
    CountVar,
    /// SUM(E.attr).
    Sum,
    /// MIN(E.attr).
    Min,
    /// MAX(E.attr).
    Max,
}

/// The word a MIN/MAX slot of a row holds until an event feeds it: a
/// signalling NaN, which no arithmetic result and no parsed number is. A
/// value that arrives with exactly these bits all the same — the binary
/// decoders take any eight bytes for a float — is carried as the quiet NaN
/// of the same payload (`word_of`), so no word but an unfed one holds it.
pub const NO_VALUE: u64 = 0x7FF0_0000_0000_0001;

/// The bit that makes a NaN a quiet one.
const QUIET: u64 = 0x0008_0000_0000_0000;

/// `Option<f64>` of a MIN/MAX word.
#[inline]
fn opt_of(word: u64) -> Option<f64> {
    (word != NO_VALUE).then(|| f64::from_bits(word))
}

/// MIN/MAX word of an `Option<f64>`: every value keeps its bits but the
/// one NaN that would read back as no value.
#[inline]
fn word_of(value: Option<f64>) -> u64 {
    match value.map(f64::to_bits) {
        None => NO_VALUE,
        Some(NO_VALUE) => NO_VALUE | QUIET,
        Some(bits) => bits,
    }
}

impl SlotFunc {
    /// The aggregation identity of this kind of slot, as a row word.
    #[inline]
    fn zero_word(self) -> u64 {
        match self {
            SlotFunc::CountVar => 0,
            SlotFunc::Sum => 0f64.to_bits(),
            SlotFunc::Min | SlotFunc::Max => NO_VALUE,
        }
    }

    /// [`Val::merge`] on row words of this kind.
    #[inline]
    fn merge_word(self, a: u64, b: u64) -> u64 {
        match self {
            SlotFunc::CountVar => a.wrapping_add(b),
            SlotFunc::Sum => (f64::from_bits(a) + f64::from_bits(b)).to_bits(),
            SlotFunc::Min => word_of(opt_min(opt_of(a), opt_of(b))),
            SlotFunc::Max => word_of(opt_max(opt_of(a), opt_of(b))),
        }
    }

    /// The tagged value a row word of this kind stands for.
    #[inline]
    fn val(self, word: u64) -> Val {
        match self {
            SlotFunc::CountVar => Val::Cnt(word),
            SlotFunc::Sum => Val::Sum(f64::from_bits(word)),
            SlotFunc::Min => Val::Min(opt_of(word)),
            SlotFunc::Max => Val::Max(opt_of(word)),
        }
    }

    /// The row word of a tagged value — `None` when it is of another kind.
    #[inline]
    fn word(self, val: &Val) -> Option<u64> {
        match (self, val) {
            (SlotFunc::CountVar, Val::Cnt(c)) => Some(*c),
            (SlotFunc::Sum, Val::Sum(s)) => Some(s.to_bits()),
            (SlotFunc::Min, Val::Min(m)) | (SlotFunc::Max, Val::Max(m)) => Some(word_of(*m)),
            _ => None,
        }
    }
}

/// A slot value in a [`Cell`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    /// Occurrence count (wrapping, see module docs).
    Cnt(u64),
    /// Running sum (counts-weighted).
    Sum(f64),
    /// Running minimum; `None` until a target event contributes.
    Min(Option<f64>),
    /// Running maximum.
    Max(Option<f64>),
}

impl Val {
    /// The aggregation identity for a slot function.
    pub fn zero(func: SlotFunc) -> Val {
        match func {
            SlotFunc::CountVar => Val::Cnt(0),
            SlotFunc::Sum => Val::Sum(0.0),
            SlotFunc::Min => Val::Min(None),
            SlotFunc::Max => Val::Max(None),
        }
    }

    /// Fold another value of the same slot into this one.
    #[inline]
    pub fn merge(&mut self, other: &Val) {
        match (self, other) {
            (Val::Cnt(a), Val::Cnt(b)) => *a = a.wrapping_add(*b),
            (Val::Sum(a), Val::Sum(b)) => *a += *b,
            (Val::Min(a), Val::Min(b)) => *a = opt_min(*a, *b),
            (Val::Max(a), Val::Max(b)) => *a = opt_max(*a, *b),
            _ => unreachable!("mismatched slot kinds"),
        }
    }
}

#[inline]
fn opt_min(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[inline]
fn opt_max(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// How one automaton state feeds one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// The state does not feed this slot.
    No,
    /// The state feeds an occurrence count (COUNT(E)).
    Unit,
    /// The state feeds an attribute value (SUM/MIN/MAX).
    Attr(AttrId),
}

/// How one `RETURN` aggregate is produced from slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// `COUNT(*)` — the cell's trend count.
    CountStar,
    /// Value of one slot.
    Slot(usize),
    /// `AVG` — `slots[sum] / slots[cnt]`.
    Ratio {
        /// SUM slot index.
        sum: usize,
        /// COUNT slot index.
        cnt: usize,
    },
}

/// The slot/output layout shared by every disjunct of a query.
#[derive(Debug, Clone)]
pub struct AggLayout {
    /// Slot functions, in slot order.
    pub slots: Vec<SlotFunc>,
    /// One output per `RETURN` aggregate.
    pub outputs: Vec<Output>,
}

/// Per-disjunct feed table: `feeds[state][slot]`.
#[derive(Debug, Clone)]
pub struct DisjunctFeeds {
    feeds: Vec<Vec<Feed>>,
}

impl DisjunctFeeds {
    /// Feeds of one state, indexed by slot.
    #[inline]
    pub fn of(&self, state: StateId) -> &[Feed] {
        &self.feeds[state.index()]
    }
}

impl AggLayout {
    /// Build the layout from a compiled disjunct's aggregate list. All
    /// disjuncts of a query share the same `RETURN` clause, hence the same
    /// layout; only the feed table differs.
    pub fn build(disjunct: &CompiledDisjunct) -> (AggLayout, DisjunctFeeds) {
        let mut slots = Vec::new();
        let mut outputs = Vec::new();
        let n_states = disjunct.automaton.num_states();
        let mut feeds: Vec<Vec<Feed>> = vec![Vec::new(); n_states];

        let add_slot = |func: SlotFunc,
                        targets: &[(StateId, Option<AttrId>)],
                        slots: &mut Vec<SlotFunc>,
                        feeds: &mut Vec<Vec<Feed>>|
         -> usize {
            let idx = slots.len();
            slots.push(func);
            for row in feeds.iter_mut() {
                row.push(Feed::No);
            }
            for (state, attr) in targets {
                feeds[state.index()][idx] = match (func, attr) {
                    (SlotFunc::CountVar, _) => Feed::Unit,
                    (_, Some(a)) => Feed::Attr(*a),
                    (_, None) => unreachable!("attribute slot without attribute"),
                };
            }
            idx
        };

        for agg in &disjunct.aggs {
            match agg.func {
                AggFunc::CountStar => outputs.push(Output::CountStar),
                AggFunc::CountVar => {
                    let i = add_slot(SlotFunc::CountVar, &agg.targets, &mut slots, &mut feeds);
                    outputs.push(Output::Slot(i));
                }
                AggFunc::Min => {
                    let i = add_slot(SlotFunc::Min, &agg.targets, &mut slots, &mut feeds);
                    outputs.push(Output::Slot(i));
                }
                AggFunc::Max => {
                    let i = add_slot(SlotFunc::Max, &agg.targets, &mut slots, &mut feeds);
                    outputs.push(Output::Slot(i));
                }
                AggFunc::Sum => {
                    let i = add_slot(SlotFunc::Sum, &agg.targets, &mut slots, &mut feeds);
                    outputs.push(Output::Slot(i));
                }
                AggFunc::Avg => {
                    let sum = add_slot(SlotFunc::Sum, &agg.targets, &mut slots, &mut feeds);
                    let unit_targets: Vec<(StateId, Option<AttrId>)> =
                        agg.targets.iter().map(|(s, _)| (*s, None)).collect();
                    let cnt = add_slot(SlotFunc::CountVar, &unit_targets, &mut slots, &mut feeds);
                    outputs.push(Output::Ratio { sum, cnt });
                }
            }
        }

        (AggLayout { slots, outputs }, DisjunctFeeds { feeds })
    }

    /// Feed table for a *different* disjunct sharing this layout.
    pub fn feeds_for(&self, disjunct: &CompiledDisjunct) -> DisjunctFeeds {
        let (layout, feeds) = AggLayout::build(disjunct);
        debug_assert_eq!(layout.slots, self.slots, "disjunct layouts must agree");
        feeds
    }

    /// Number of slots.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// An all-identity cell for this layout.
    pub fn zero_cell(&self) -> Cell {
        Cell {
            count: 0,
            live: false,
            vals: self.slots.iter().map(|f| Val::zero(*f)).collect(),
        }
    }
}

/// The row kernels: Table 8 on `1 + k` words (see the module docs). A row
/// is a slice of exactly [`AggLayout::stride`] words; its live bit is the
/// owner's to keep.
impl AggLayout {
    /// Words per row: the trend count and one per slot.
    #[inline]
    pub fn stride(&self) -> usize {
        1 + self.slots.len()
    }

    /// Set `row` to the aggregation identity.
    #[inline]
    pub fn reset_row(&self, row: &mut [u64]) {
        row[0] = 0;
        for (word, func) in row[1..].iter_mut().zip(&self.slots) {
            *word = func.zero_word();
        }
    }

    /// Append an identity row to a row list.
    #[inline]
    pub fn push_row(&self, rows: &mut Vec<u64>) {
        rows.push(0);
        rows.extend(self.slots.iter().map(|func| func.zero_word()));
    }

    /// Fold row `src` into row `dst` ([`Cell::merge`] less the live bit).
    #[inline]
    pub fn merge_row(&self, dst: &mut [u64], src: &[u64]) {
        dst[0] = dst[0].wrapping_add(src[0]);
        for ((a, b), func) in dst[1..].iter_mut().zip(&src[1..]).zip(&self.slots) {
            *a = func.merge_word(*a, *b);
        }
    }

    /// Add the event's own contribution to a **live** row, after its
    /// predecessors were merged and the start-of-trend `+1` applied
    /// ([`Cell::contribute`]; a dead row takes no contribution, which is
    /// the caller's check to make).
    #[inline]
    pub fn contribute_row(&self, row: &mut [u64], feeds: &[Feed], event: &Event) {
        let count = row[0];
        for ((word, func), feed) in row[1..].iter_mut().zip(&self.slots).zip(feeds) {
            match (func, feed) {
                (_, Feed::No) => {}
                (SlotFunc::CountVar, Feed::Unit) => *word = word.wrapping_add(count),
                (SlotFunc::Sum, Feed::Attr(a)) => {
                    let x = event.attr(*a).as_f64().unwrap_or(0.0);
                    *word = (f64::from_bits(*word) + x * count as f64).to_bits();
                }
                (SlotFunc::Min | SlotFunc::Max, Feed::Attr(a)) => {
                    *word = func.merge_word(*word, word_of(event.attr(*a).as_f64()));
                }
                (func, feed) => unreachable!("feed {feed:?} incompatible with slot {func:?}"),
            }
        }
    }

    /// The [`Cell`] a row and its live bit stand for.
    pub fn row_cell(&self, row: &[u64], live: bool) -> Cell {
        Cell {
            count: row[0],
            live,
            vals: self
                .slots
                .iter()
                .zip(&row[1..])
                .map(|(func, word)| func.val(*word))
                .collect(),
        }
    }

    /// Write `cell` into `row`; its live bit is the caller's to keep.
    /// `Err` names the first slot at which the cell is not of this layout.
    pub fn cell_row(&self, cell: &Cell, row: &mut [u64]) -> Result<(), String> {
        if cell.vals.len() != self.slots.len() {
            return Err(format!(
                "cell has {} slots where the layout has {}",
                cell.vals.len(),
                self.slots.len()
            ));
        }
        row[0] = cell.count;
        for (i, ((word, func), val)) in row[1..]
            .iter_mut()
            .zip(&self.slots)
            .zip(&cell.vals)
            .enumerate()
        {
            *word = func
                .word(val)
                .ok_or_else(|| format!("slot {i} holds {val:?} where the layout has {func:?}"))?;
        }
        Ok(())
    }

    /// Serialize a row as the [`Cell`] it stands for — byte for byte what
    /// [`Cell::save`] writes.
    pub fn save_row(&self, row: &[u64], live: bool, enc: &mut Enc) {
        enc.u64(row[0]);
        enc.bool(live);
        enc.usize(self.slots.len());
        for (func, word) in self.slots.iter().zip(&row[1..]) {
            func.val(*word).save(enc);
        }
    }

    /// Inverse of [`AggLayout::save_row`]: read a saved cell into `row` and
    /// return its live bit. A cell that does not have this layout's slots,
    /// in number or in kind, is [`CheckpointError::Corrupt`] — never a row.
    pub fn load_row(&self, dec: &mut Dec, row: &mut [u64]) -> Result<bool, CheckpointError> {
        let cell = Cell::load(dec)?;
        self.cell_row(&cell, row)
            .map_err(CheckpointError::Corrupt)?;
        Ok(cell.live)
    }
}

/// A window's fixed set of rows at the front of its slab: `rows × stride`
/// words, then one live bit per row (a word per 64 rows). The table is the
/// shape only — the words are the window's, one `u64` slab that may go on
/// past the table (the type-grained window's open transaction follows it),
/// and every operation takes that slab. Rows are addressed by index and
/// updated in place; which row means what — a state's aggregates, a
/// negation shadow, the final accumulator — is the owning aggregator's
/// business. Every operation that reads slot kinds takes the layout the
/// table was shaped by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellTable {
    rows: usize,
    stride: usize,
}

impl CellTable {
    /// The shape of a table of `rows` rows of `layout`.
    pub fn new(layout: &AggLayout, rows: usize) -> CellTable {
        CellTable {
            rows,
            stride: layout.stride(),
        }
    }

    /// Words per row ([`AggLayout::stride`]).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Where the live bits start.
    #[inline]
    fn live_at(&self) -> usize {
        self.rows * self.stride
    }

    /// Words of the table: its rows and their live bits.
    #[inline]
    pub fn words(&self) -> usize {
        self.live_at() + self.rows.div_ceil(64)
    }

    /// Bytes of `rows` rows of this table.
    #[inline]
    pub fn row_bytes(&self, rows: usize) -> usize {
        rows * self.stride * std::mem::size_of::<u64>()
    }

    /// Append the table to `slab`: every row the identity, none live.
    pub fn append(&self, layout: &AggLayout, slab: &mut Vec<u64>) {
        let at = slab.len();
        slab.resize(at + self.words(), 0);
        self.reset_all(layout, &mut slab[at..]);
    }

    #[inline]
    fn span(&self, r: usize) -> std::ops::Range<usize> {
        debug_assert!(r < self.rows, "row {r} out of range");
        r * self.stride..(r + 1) * self.stride
    }

    /// The words of row `r`.
    #[inline]
    pub fn row<'s>(&self, slab: &'s [u64], r: usize) -> &'s [u64] {
        &slab[self.span(r)]
    }

    #[inline]
    fn row_mut<'s>(&self, slab: &'s mut [u64], r: usize) -> &'s mut [u64] {
        &mut slab[self.span(r)]
    }

    /// Whether row `r` accounts for any trend ([`Cell::live`]).
    #[inline]
    pub fn is_live(&self, slab: &[u64], r: usize) -> bool {
        slab[self.live_at() + r / 64] >> (r % 64) & 1 == 1
    }

    #[inline]
    fn set_live(&self, slab: &mut [u64], r: usize, live: bool) {
        let word = &mut slab[self.live_at() + r / 64];
        *word = *word & !(1 << (r % 64)) | u64::from(live) << (r % 64);
    }

    /// Begin one new trend at row `r` ([`Cell::start_trend`]).
    #[inline]
    pub fn start_trend(&self, slab: &mut [u64], r: usize) {
        let row = self.row_mut(slab, r);
        row[0] = row[0].wrapping_add(1);
        self.set_live(slab, r, true);
    }

    /// Row `r` back to the identity, dead ([`Cell::reset`]).
    #[inline]
    pub fn reset(&self, layout: &AggLayout, slab: &mut [u64], r: usize) {
        layout.reset_row(self.row_mut(slab, r));
        self.set_live(slab, r, false);
    }

    /// Rows `rows` dead, their words left as they are — for rows that are
    /// [`reset`](CellTable::reset) before they are read again.
    #[inline]
    pub fn clear_live(&self, slab: &mut [u64], rows: std::ops::Range<usize>) {
        let live_at = self.live_at();
        let mut r = rows.start;
        while r < rows.end {
            let upto = rows.end.min((r / 64 + 1) * 64);
            let bits = !0u64 >> (64 - (upto - r)) << (r % 64);
            slab[live_at + r / 64] &= !bits;
            r = upto;
        }
    }

    /// Every row back to the identity, dead.
    pub fn reset_all(&self, layout: &AggLayout, slab: &mut [u64]) {
        for r in 0..self.rows {
            layout.reset_row(self.row_mut(slab, r));
        }
        slab[self.live_at()..self.words()].fill(0);
    }

    /// Fold row `src` into row `dst` of the same table ([`Cell::merge`]).
    #[inline]
    pub fn merge(&self, layout: &AggLayout, slab: &mut [u64], dst: usize, src: usize) {
        debug_assert_ne!(dst, src, "a row does not merge into itself");
        let (d, s) = (self.span(dst), self.span(src));
        let (dst_row, src_row) = if d.start < s.start {
            let (low, high) = slab.split_at_mut(s.start);
            (&mut low[d], &high[..s.len()])
        } else {
            let (low, high) = slab.split_at_mut(d.start);
            (&mut high[..d.len()], &low[s])
        };
        layout.merge_row(dst_row, src_row);
        let live = self.is_live(slab, dst) | self.is_live(slab, src);
        self.set_live(slab, dst, live);
    }

    /// Fold a live row from outside the table — a staged update's, a
    /// stored event's — into row `dst`.
    #[inline]
    pub fn merge_from(&self, layout: &AggLayout, slab: &mut [u64], dst: usize, src: &[u64]) {
        layout.merge_row(self.row_mut(slab, dst), src);
        self.set_live(slab, dst, true);
    }

    /// Fold row `src` into a row outside the table; returns `src`'s live
    /// bit for the caller to fold into the one it keeps for `dst`.
    #[inline]
    pub fn merge_into(
        &self,
        layout: &AggLayout,
        slab: &[u64],
        src: usize,
        dst: &mut [u64],
    ) -> bool {
        layout.merge_row(dst, self.row(slab, src));
        self.is_live(slab, src)
    }

    /// Add `event`'s own contribution to row `r` ([`Cell::contribute`]:
    /// nothing, while the row is dead).
    #[inline]
    pub fn contribute(
        &self,
        layout: &AggLayout,
        slab: &mut [u64],
        r: usize,
        feeds: &[Feed],
        event: &Event,
    ) {
        if self.is_live(slab, r) {
            layout.contribute_row(self.row_mut(slab, r), feeds, event);
        }
    }

    /// Row `r` as an owned [`Cell`].
    pub fn cell(&self, layout: &AggLayout, slab: &[u64], r: usize) -> Cell {
        layout.row_cell(self.row(slab, r), self.is_live(slab, r))
    }

    /// Serialize row `r` as the [`Cell`] it stands for.
    pub fn save_row(&self, layout: &AggLayout, slab: &[u64], r: usize, enc: &mut Enc) {
        layout.save_row(self.row(slab, r), self.is_live(slab, r), enc);
    }

    /// Inverse of [`CellTable::save_row`], through the layout.
    pub fn load_row(
        &self,
        layout: &AggLayout,
        slab: &mut [u64],
        r: usize,
        dec: &mut Dec,
    ) -> Result<(), CheckpointError> {
        let live = layout.load_row(dec, self.row_mut(slab, r))?;
        self.set_live(slab, r, live);
        Ok(())
    }
}

/// Propagated aggregation state: the trend count plus one value per slot.
///
/// `live` tracks *logical* emptiness separately from the wrapping `count`:
/// under skip-till-any-match the exact count is a power of two per event
/// (each event doubles the trend set), so `count % 2^64` hits zero while
/// trends very much exist. Every "does any partial trend end here?"
/// decision — storing a GRETA node, keeping a pending type-cell update,
/// emitting a window result — must use [`Cell::is_zero`], never
/// `count == 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Number of (partial) trends this cell accounts for (wrapping u64).
    pub count: u64,
    /// Whether any trend at all is accounted for (exact, wrap-proof).
    pub live: bool,
    /// Slot values, aligned with [`AggLayout::slots`].
    pub vals: Vec<Val>,
}

impl Cell {
    /// Whether the cell carries no trends (exact — see the `live` field).
    #[inline]
    pub fn is_zero(&self) -> bool {
        !self.live
    }

    /// Begin one new trend at this cell: the `+1 if E = start(P)` of
    /// Theorems 4.1/5.1/6.2.
    #[inline]
    pub fn start_trend(&mut self) {
        self.count = self.count.wrapping_add(1);
        self.live = true;
    }

    /// Reset to the aggregation identity in place (negation shadow resets,
    /// contiguous-semantics invalidation).
    pub fn reset(&mut self) {
        self.count = 0;
        self.live = false;
        for v in &mut self.vals {
            *v = match v {
                Val::Cnt(_) => Val::Cnt(0),
                Val::Sum(_) => Val::Sum(0.0),
                Val::Min(_) => Val::Min(None),
                Val::Max(_) => Val::Max(None),
            };
        }
    }

    /// Fold `other` into `self` (predecessor propagation / cross-partition
    /// combination — both are the same monoid operation).
    pub fn merge(&mut self, other: &Cell) {
        self.count = self.count.wrapping_add(other.count);
        self.live |= other.live;
        for (a, b) in self.vals.iter_mut().zip(&other.vals) {
            a.merge(b);
        }
    }

    /// Add the event's own contribution, after its predecessors were
    /// merged and the start-of-trend `+1` applied to `count` (Table 8):
    /// COUNT slots gain `e.count`, SUM slots gain `attr · e.count`,
    /// MIN/MAX slots include `attr`.
    pub fn contribute(&mut self, feeds: &[Feed], event: &Event) {
        if !self.live {
            // No partial trend ends at this event, so no finished trend
            // will ever contain it: its attribute values must not leak
            // into MIN/MAX (COUNT/SUM contributions would be zero anyway).
            return;
        }
        for (val, feed) in self.vals.iter_mut().zip(feeds) {
            match (val, feed) {
                (_, Feed::No) => {}
                (Val::Cnt(c), Feed::Unit) => *c = c.wrapping_add(self.count),
                (Val::Sum(s), Feed::Attr(a)) => {
                    let x = event.attr(*a).as_f64().unwrap_or(0.0);
                    *s += x * self.count as f64;
                }
                (Val::Min(m), Feed::Attr(a)) => {
                    *m = opt_min(*m, event.attr(*a).as_f64());
                }
                (Val::Max(m), Feed::Attr(a)) => {
                    *m = opt_max(*m, event.attr(*a).as_f64());
                }
                (v, f) => unreachable!("feed {f:?} incompatible with slot {v:?}"),
            }
        }
    }

    /// Logical size for memory accounting.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Cell>() + self.vals.len() * std::mem::size_of::<Val>()
    }

    /// Render the outputs of this cell.
    pub fn outputs(&self, layout: &AggLayout) -> Vec<AggValue> {
        layout
            .outputs
            .iter()
            .map(|o| match o {
                Output::CountStar => AggValue::Count(self.count),
                Output::Slot(i) => match self.vals[*i] {
                    Val::Cnt(c) => AggValue::Count(c),
                    Val::Sum(s) => AggValue::Float(s),
                    Val::Min(m) | Val::Max(m) => m.map_or(AggValue::Null, AggValue::Float),
                },
                Output::Ratio { sum, cnt } => {
                    let (Val::Sum(s), Val::Cnt(c)) = (self.vals[*sum], self.vals[*cnt]) else {
                        unreachable!("ratio over non sum/cnt slots")
                    };
                    if c == 0 {
                        AggValue::Null
                    } else {
                        AggValue::Float(s / c as f64)
                    }
                }
            })
            .collect()
    }
}

fn save_opt_f64(v: Option<f64>, enc: &mut cogra_checkpoint::Enc) {
    match v {
        Some(x) => {
            enc.u8(1);
            enc.f64(x);
        }
        None => enc.u8(0),
    }
}

fn load_opt_f64(
    dec: &mut cogra_checkpoint::Dec,
) -> Result<Option<f64>, cogra_checkpoint::CheckpointError> {
    match dec.u8()? {
        0 => Ok(None),
        1 => Ok(Some(dec.f64()?)),
        t => Err(cogra_checkpoint::CheckpointError::Corrupt(format!(
            "bad option tag {t}"
        ))),
    }
}

impl Val {
    /// Serialize as a tag byte + payload; floats are stored by bit
    /// pattern, so restored slots are bit-identical.
    pub fn save(&self, enc: &mut cogra_checkpoint::Enc) {
        match self {
            Val::Cnt(c) => {
                enc.u8(0);
                enc.u64(*c);
            }
            Val::Sum(s) => {
                enc.u8(1);
                enc.f64(*s);
            }
            Val::Min(m) => {
                enc.u8(2);
                save_opt_f64(*m, enc);
            }
            Val::Max(m) => {
                enc.u8(3);
                save_opt_f64(*m, enc);
            }
        }
    }

    /// Inverse of [`Val::save`].
    pub fn load(dec: &mut cogra_checkpoint::Dec) -> Result<Val, cogra_checkpoint::CheckpointError> {
        Ok(match dec.u8()? {
            0 => Val::Cnt(dec.u64()?),
            1 => Val::Sum(dec.f64()?),
            2 => Val::Min(load_opt_f64(dec)?),
            3 => Val::Max(load_opt_f64(dec)?),
            t => {
                return Err(cogra_checkpoint::CheckpointError::Corrupt(format!(
                    "bad slot tag {t}"
                )))
            }
        })
    }
}

impl Cell {
    /// Serialize the cell (count, liveness, slot values).
    pub fn save(&self, enc: &mut cogra_checkpoint::Enc) {
        enc.u64(self.count);
        enc.bool(self.live);
        enc.usize(self.vals.len());
        for v in &self.vals {
            v.save(enc);
        }
    }

    /// Inverse of [`Cell::save`].
    pub fn load(
        dec: &mut cogra_checkpoint::Dec,
    ) -> Result<Cell, cogra_checkpoint::CheckpointError> {
        let count = dec.u64()?;
        let live = dec.bool()?;
        let n = dec.usize()?;
        let mut vals = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            vals.push(Val::load(dec)?);
        }
        Ok(Cell { count, live, vals })
    }

    /// Serialize a cell list with a leading count.
    pub fn save_slice(cells: &[Cell], enc: &mut cogra_checkpoint::Enc) {
        enc.usize(cells.len());
        for c in cells {
            c.save(enc);
        }
    }

    /// Inverse of [`Cell::save_slice`].
    pub fn load_vec(
        dec: &mut cogra_checkpoint::Dec,
    ) -> Result<Vec<Cell>, cogra_checkpoint::CheckpointError> {
        let n = dec.usize()?;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(Cell::load(dec)?);
        }
        Ok(out)
    }
}

/// A rendered aggregate value in a window result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggValue {
    /// COUNT-family result.
    Count(u64),
    /// SUM/MIN/MAX/AVG result.
    Float(f64),
    /// No qualifying trend/event (empty MIN, AVG over zero count).
    Null,
}

impl AggValue {
    /// Approximate float view (counts cast; `Null` = `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AggValue::Count(c) => Some(*c as f64),
            AggValue::Float(f) => Some(*f),
            AggValue::Null => None,
        }
    }
}

impl std::fmt::Display for AggValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggValue::Count(c) => write!(f, "{c}"),
            AggValue::Float(x) => write!(f, "{x:.4}"),
            AggValue::Null => write!(f, "null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogra_events::{TypeId, Value};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn event(v: i64) -> Event {
        Event::new(0, 1, TypeId(0), vec![Value::Int(v)])
    }

    #[test]
    fn val_merge_semantics() {
        let mut c = Val::Cnt(3);
        c.merge(&Val::Cnt(4));
        assert_eq!(c, Val::Cnt(7));

        let mut m = Val::Min(Some(5.0));
        m.merge(&Val::Min(Some(3.0)));
        assert_eq!(m, Val::Min(Some(3.0)));
        m.merge(&Val::Min(None));
        assert_eq!(m, Val::Min(Some(3.0)));

        let mut x = Val::Max(None);
        x.merge(&Val::Max(Some(9.0)));
        assert_eq!(x, Val::Max(Some(9.0)));

        let mut s = Val::Sum(1.5);
        s.merge(&Val::Sum(2.5));
        assert_eq!(s, Val::Sum(4.0));
    }

    #[test]
    fn count_wraps_instead_of_panicking() {
        let mut c = Val::Cnt(u64::MAX);
        c.merge(&Val::Cnt(2));
        assert_eq!(c, Val::Cnt(1));
    }

    #[test]
    fn cell_contribution_weights_by_count() {
        // An event ending 3 partial trends, feeding a SUM slot with
        // attribute value 10 → slot grows by 30 (Table 8: e.attr * e.count).
        let layout = AggLayout {
            slots: vec![SlotFunc::Sum, SlotFunc::CountVar, SlotFunc::Min],
            outputs: vec![Output::Slot(0), Output::Slot(1), Output::Slot(2)],
        };
        let mut cell = layout.zero_cell();
        cell.count = 3;
        cell.live = true;
        let feeds = vec![Feed::Attr(AttrId(0)), Feed::Unit, Feed::Attr(AttrId(0))];
        cell.contribute(&feeds, &event(10));
        assert_eq!(cell.vals[0], Val::Sum(30.0));
        assert_eq!(cell.vals[1], Val::Cnt(3));
        assert_eq!(cell.vals[2], Val::Min(Some(10.0)));
    }

    #[test]
    fn outputs_render_ratio_and_null() {
        let layout = AggLayout {
            slots: vec![SlotFunc::Sum, SlotFunc::CountVar],
            outputs: vec![Output::CountStar, Output::Ratio { sum: 0, cnt: 1 }],
        };
        let mut cell = layout.zero_cell();
        assert_eq!(
            cell.outputs(&layout),
            vec![AggValue::Count(0), AggValue::Null]
        );
        cell.count = 2;
        cell.vals[0] = Val::Sum(10.0);
        cell.vals[1] = Val::Cnt(4);
        assert_eq!(
            cell.outputs(&layout),
            vec![AggValue::Count(2), AggValue::Float(2.5)]
        );
    }

    #[test]
    fn live_survives_count_wraparound() {
        // Under ANY, counts are powers of two: after 64 doubling steps
        // the wrapping count is exactly 0 while trends still exist. The
        // `live` flag must keep the cell logically non-empty (regression
        // test for the GRETA node-dropping bug).
        let layout = AggLayout {
            slots: vec![],
            outputs: vec![Output::CountStar],
        };
        let mut cell = layout.zero_cell();
        cell.start_trend();
        cell.count = 0; // simulate 2^64 ≡ 0 wraparound
        assert!(!cell.is_zero(), "wrapped count must stay live");
        let mut other = layout.zero_cell();
        other.merge(&cell);
        assert!(!other.is_zero(), "liveness propagates through merge");
        other.reset();
        assert!(other.is_zero());
    }

    #[test]
    fn merge_is_pointwise() {
        let layout = AggLayout {
            slots: vec![SlotFunc::Min, SlotFunc::Sum],
            outputs: vec![],
        };
        let mut a = layout.zero_cell();
        a.count = 1;
        a.live = true;
        a.vals[0] = Val::Min(Some(4.0));
        a.vals[1] = Val::Sum(2.0);
        let mut b = layout.zero_cell();
        b.count = 2;
        b.live = true;
        b.vals[0] = Val::Min(Some(7.0));
        b.vals[1] = Val::Sum(5.0);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.vals[0], Val::Min(Some(4.0)));
        assert_eq!(a.vals[1], Val::Sum(7.0));
    }
    /// Counts that wrap: mostly small, sometimes within reach of 2^64.
    fn count(rng: &mut StdRng) -> u64 {
        match rng.random_range(0..4) {
            0 => u64::MAX - rng.random_range(0..4u64),
            _ => rng.random_range(0..5u64),
        }
    }

    fn float(rng: &mut StdRng) -> f64 {
        rng.random_range(0..2001) as f64 / 7.0 - 100.0
    }

    /// A random layout of `k` slots over all four kinds, with the feeds of
    /// one state: each slot fed as its kind allows, or not at all.
    fn random_layout(rng: &mut StdRng, k: usize) -> (AggLayout, Vec<Feed>) {
        const KINDS: [SlotFunc; 4] = [
            SlotFunc::CountVar,
            SlotFunc::Sum,
            SlotFunc::Min,
            SlotFunc::Max,
        ];
        let slots: Vec<SlotFunc> = (0..k).map(|_| KINDS[rng.random_range(0..4)]).collect();
        let feeds = slots
            .iter()
            .map(|func| match (rng.random_range(0..3), func) {
                (0, _) => Feed::No,
                (_, SlotFunc::CountVar) => Feed::Unit,
                _ => Feed::Attr(AttrId(rng.random_range(0..2))),
            })
            .collect();
        let layout = AggLayout {
            slots,
            outputs: vec![Output::CountStar],
        };
        (layout, feeds)
    }

    /// A random cell of `layout`: any count, MIN/MAX with and without a
    /// value, and — one time in four — live with a count that wrapped to 0.
    fn random_cell(rng: &mut StdRng, layout: &AggLayout) -> Cell {
        let mut cell = layout.zero_cell();
        cell.count = count(rng);
        cell.live = cell.count != 0 || rng.random_range(0..4) == 0;
        for val in &mut cell.vals {
            *val = match val {
                Val::Cnt(_) => Val::Cnt(count(rng)),
                Val::Sum(_) => Val::Sum(float(rng)),
                Val::Min(_) => Val::Min((rng.random_range(0..3) > 0).then(|| float(rng))),
                Val::Max(_) => Val::Max((rng.random_range(0..3) > 0).then(|| float(rng))),
            };
        }
        cell
    }

    /// A cell as its snapshot bytes: equality to the bit, NaNs included.
    fn bytes(cell: &Cell) -> Vec<u8> {
        let mut enc = Enc::new();
        cell.save(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn every_row_operation_equals_the_cell_operation_it_replaces() {
        let mut rng = StdRng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
        for round in 0..400 {
            let (layout, feeds) = random_layout(&mut rng, round % 5);
            let rows = rng.random_range(1..71); // past one word of live bits, too
            let table = CellTable::new(&layout, rows);
            // The table somewhere inside a slab, as a window holds it.
            let mut slab = vec![7; 3];
            table.append(&layout, &mut slab);
            slab.extend([7; 3]);
            let slab = &mut slab[3..];
            let mut cells = vec![layout.zero_cell(); rows];
            let mut list: Vec<u64> = Vec::new();
            for _ in 0..60 {
                let (r, other) = (rng.random_range(0..rows), rng.random_range(0..rows));
                let event = Event::new(
                    0,
                    1,
                    TypeId(0),
                    vec![Value::Float(float(&mut rng)), Value::str("not a number")],
                );
                match rng.random_range(0..9) {
                    0 => {
                        table.start_trend(slab, r);
                        cells[r].start_trend();
                    }
                    1 if r != other => {
                        table.merge(&layout, slab, r, other);
                        let src = cells[other].clone();
                        cells[r].merge(&src);
                    }
                    2 => {
                        table.contribute(&layout, slab, r, &feeds, &event);
                        cells[r].contribute(&feeds, &event);
                    }
                    3 => {
                        table.reset(&layout, slab, r);
                        cells[r].reset();
                    }
                    4 => {
                        let cell = random_cell(&mut rng, &layout);
                        let saved = bytes(&cell);
                        table
                            .load_row(&layout, slab, r, &mut Dec::new(&saved))
                            .expect("same layout");
                        cells[r] = cell;
                    }
                    5 => {
                        // Out of the table and back: a fresh row takes
                        // `other`, contributes, and lands in `r` — what
                        // staging an update and committing it does.
                        list.clear();
                        layout.push_row(&mut list);
                        let mut staged = layout.zero_cell();
                        let live = table.merge_into(&layout, slab, other, &mut list);
                        staged.merge(&cells[other]);
                        assert_eq!(live, staged.live);
                        if live {
                            layout.contribute_row(&mut list, &feeds, &event);
                            staged.contribute(&feeds, &event);
                            assert_eq!(bytes(&layout.row_cell(&list, true)), bytes(&staged));
                            table.merge_from(&layout, slab, r, &list);
                            cells[r].merge(&staged);
                        }
                    }
                    6 => {
                        let mut enc = Enc::new();
                        table.save_row(&layout, slab, r, &mut enc);
                        assert_eq!(enc.as_slice(), bytes(&cells[r]), "a row saves as its cell");
                        let mut dec = Dec::new(enc.as_slice());
                        table
                            .load_row(&layout, slab, other, &mut dec)
                            .expect("same layout");
                        cells[other] = cells[r].clone();
                    }
                    7 => {
                        // Dead now, reset before it is read again.
                        let (from, to) = (r.min(other), r.max(other) + 1);
                        table.clear_live(slab, from..to);
                        for (r, cell) in cells.iter_mut().enumerate().take(to).skip(from) {
                            assert!(!table.is_live(slab, r));
                            table.reset(&layout, slab, r);
                            cell.reset();
                        }
                    }
                    _ => {
                        table.reset_all(&layout, slab);
                        cells.iter_mut().for_each(Cell::reset);
                    }
                }
                for (r, cell) in cells.iter().enumerate() {
                    assert_eq!(table.is_live(slab, r), cell.live, "round {round} row {r}");
                    assert_eq!(
                        bytes(&table.cell(&layout, slab, r)),
                        bytes(cell),
                        "round {round} row {r}"
                    );
                }
                let outside = slab.len() - table.words();
                assert_eq!(
                    slab[table.words()..],
                    vec![7; outside],
                    "the table stays inside"
                );
            }
        }
    }

    #[test]
    fn row_to_cell_to_row_is_the_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..400 {
            let (layout, _) = random_layout(&mut rng, round % 5);
            let cell = random_cell(&mut rng, &layout);
            let mut row = vec![0; layout.stride()];
            layout.cell_row(&cell, &mut row).expect("same layout");
            assert_eq!(bytes(&layout.row_cell(&row, cell.live)), bytes(&cell));
            let mut again = vec![0; layout.stride()];
            layout
                .cell_row(&layout.row_cell(&row, cell.live), &mut again)
                .expect("same layout");
            assert_eq!(row, again);
        }
    }

    #[test]
    fn a_value_with_the_reserved_bits_is_still_a_value() {
        // The wire and snapshot decoders take any eight bytes for a float.
        let reserved = f64::from_bits(NO_VALUE);
        for func in [SlotFunc::Min, SlotFunc::Max] {
            let layout = AggLayout {
                slots: vec![func],
                outputs: vec![Output::Slot(0)],
            };
            let event = Event::new(0, 1, TypeId(0), vec![Value::Float(reserved)]);
            let table = CellTable::new(&layout, 1);
            let mut slab = Vec::new();
            table.append(&layout, &mut slab);
            table.start_trend(&mut slab, 0);
            table.contribute(&layout, &mut slab, 0, &[Feed::Attr(AttrId(0))], &event);
            let mut saved = layout.zero_cell();
            saved.live = true;
            saved.vals[0] = match func {
                SlotFunc::Min => Val::Min(Some(reserved)),
                _ => Val::Max(Some(reserved)),
            };
            let mut row = vec![0; layout.stride()];
            layout.cell_row(&saved, &mut row).expect("same layout");
            for cell in [table.cell(&layout, &slab, 0), layout.row_cell(&row, true)] {
                match cell.vals[0] {
                    Val::Min(Some(x)) | Val::Max(Some(x)) => assert!(x.is_nan()),
                    ref other => panic!("the value was lost: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn a_cell_of_another_layout_is_no_row() {
        let narrow = AggLayout {
            slots: vec![],
            outputs: vec![Output::CountStar],
        };
        let sum = AggLayout {
            slots: vec![SlotFunc::Sum],
            outputs: vec![Output::Slot(0)],
        };
        let min = AggLayout {
            slots: vec![SlotFunc::Min],
            outputs: vec![Output::Slot(0)],
        };
        let mut enc = Enc::new();
        sum.zero_cell().save(&mut enc);
        for (layout, expected) in [(&narrow, "1 slots"), (&min, "slot 0")] {
            let mut row = vec![0; layout.stride()];
            match layout.load_row(&mut Dec::new(enc.as_slice()), &mut row) {
                Err(CheckpointError::Corrupt(m)) => assert!(m.contains(expected), "{m}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
            assert!(layout.cell_row(&sum.zero_cell(), &mut row).is_err());
        }
    }
}

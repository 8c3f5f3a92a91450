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
//! Every engine keeps its aggregates as **rows**: `1 + k` words (`u64`)
//! for a layout of `k` slots — the trend count, then one word per slot (a
//! wrapping count, or the bits of an `f64`). Which kind of value a word
//! holds is a fact about the compiled query, so it lives once, in
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
//!   same kernels ([`AggLayout::merge_row`] and friends);
//! * a [`Cell`] is one row as an owned value: the count and the live bit
//!   inline, the `k` slot words out of line, so a `COUNT(*)` cell
//!   allocates nothing. It is what crosses [`WindowAlgo::final_cell`] into
//!   the router's cross-partition merge, and what the baseline engines
//!   compute with — through the same kernels, each taking the layout.
//!
//! A row and a cell are saved alike, as a tag and a payload per slot
//! ([`AggLayout::save_row`], [`Cell::save`]), and either is loaded only
//! *through* the layout, so a saved cell of another shape is a typed error.
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
/// The discriminant is the tag a saved slot carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotFunc {
    /// COUNT(E): number of occurrences of a variable across trends.
    CountVar = 0,
    /// SUM(E.attr).
    Sum = 1,
    /// MIN(E.attr).
    Min = 2,
    /// MAX(E.attr).
    Max = 3,
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

    /// Fold word `b` into word `a`: counts and sums add (counts wrapping),
    /// MIN/MAX keep the extreme of the values either holds.
    #[inline]
    fn merge_word(self, a: u64, b: u64) -> u64 {
        match self {
            SlotFunc::CountVar => a.wrapping_add(b),
            SlotFunc::Sum => (f64::from_bits(a) + f64::from_bits(b)).to_bits(),
            SlotFunc::Min => word_of(opt_extreme(opt_of(a), opt_of(b), f64::min)),
            SlotFunc::Max => word_of(opt_extreme(opt_of(a), opt_of(b), f64::max)),
        }
    }

    /// The slot kind a saved slot's tag names.
    fn of_tag(tag: u8) -> Option<SlotFunc> {
        const TAGGED: [SlotFunc; 4] = [
            SlotFunc::CountVar,
            SlotFunc::Sum,
            SlotFunc::Min,
            SlotFunc::Max,
        ];
        TAGGED.get(usize::from(tag)).copied()
    }

    /// The result a word of this kind renders as.
    fn render(self, word: u64) -> AggValue {
        match self {
            SlotFunc::CountVar => AggValue::Count(word),
            SlotFunc::Sum => AggValue::Float(f64::from_bits(word)),
            SlotFunc::Min | SlotFunc::Max => opt_of(word).map_or(AggValue::Null, AggValue::Float),
        }
    }
}

/// The MIN or MAX (`pick`) of the values either side holds.
#[inline]
fn opt_extreme(a: Option<f64>, b: Option<f64>, pick: fn(f64, f64) -> f64) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(pick(x, y)),
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
            slots: self.slots.iter().map(|func| func.zero_word()).collect(),
        }
    }
}

/// The kernels: Table 8 on the `k` slot words of a row or a [`Cell`], its
/// trend count beside them (see the module docs). A row is a slice of
/// exactly [`AggLayout::stride`] words, the count first; its live bit is
/// the owner's to keep.
impl AggLayout {
    /// Words per row: the trend count and one per slot.
    #[inline]
    pub fn stride(&self) -> usize {
        1 + self.slots.len()
    }

    // The slot kernels are the row kernels' loops on the per-event path,
    // so they are always inlined into them.
    #[inline(always)]
    fn reset_slots(&self, slots: &mut [u64]) {
        for (word, func) in slots.iter_mut().zip(&self.slots) {
            *word = func.zero_word();
        }
    }

    #[inline(always)]
    fn merge_slots(&self, dst: &mut [u64], src: &[u64]) {
        debug_assert_eq!(dst.len(), src.len(), "slots of one layout");
        for ((a, b), func) in dst.iter_mut().zip(src).zip(&self.slots) {
            *a = func.merge_word(*a, *b);
        }
    }

    /// Table 8's own contribution of `event`, ending `count` trends: COUNT
    /// slots gain `count`, SUM slots gain `attr · count`, MIN/MAX slots
    /// include `attr`.
    #[inline(always)]
    fn contribute_slots(&self, slots: &mut [u64], count: u64, feeds: &[Feed], event: &Event) {
        for ((word, func), feed) in slots.iter_mut().zip(&self.slots).zip(feeds) {
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

    /// Write a count, a live bit and slot words as a saved cell: a tag and
    /// a payload per slot, floats by bit pattern.
    fn save_words(&self, count: u64, live: bool, slots: &[u64], enc: &mut Enc) {
        enc.u64(count);
        enc.bool(live);
        enc.usize(self.slots.len());
        for (func, word) in self.slots.iter().zip(slots) {
            enc.u8(*func as u8);
            match func {
                SlotFunc::CountVar | SlotFunc::Sum => enc.u64(*word),
                SlotFunc::Min | SlotFunc::Max if *word == NO_VALUE => enc.u8(0),
                SlotFunc::Min | SlotFunc::Max => {
                    enc.u8(1);
                    enc.u64(*word);
                }
            }
        }
    }

    /// Inverse of [`AggLayout::save_words`]: read a saved cell's slots into
    /// `slots` and return its count and live bit. A cell that does not have
    /// this layout's slots, in number or in kind, is
    /// [`CheckpointError::Corrupt`].
    fn load_words(&self, dec: &mut Dec, slots: &mut [u64]) -> Result<(u64, bool), CheckpointError> {
        let corrupt = |why: String| Err(CheckpointError::Corrupt(why));
        let count = dec.u64()?;
        let live = dec.bool()?;
        let n = dec.usize()?;
        if n != self.slots.len() {
            return corrupt(format!(
                "cell has {n} slots where the layout has {}",
                self.slots.len()
            ));
        }
        for (i, (word, func)) in slots.iter_mut().zip(&self.slots).enumerate() {
            let tag = dec.u8()?;
            match SlotFunc::of_tag(tag) {
                None => return corrupt(format!("bad slot tag {tag}")),
                Some(found) if found != *func => {
                    return corrupt(format!(
                        "slot {i} holds {found:?} where the layout has {func:?}"
                    ))
                }
                Some(_) => {}
            }
            *word = match func {
                SlotFunc::CountVar | SlotFunc::Sum => dec.u64()?,
                SlotFunc::Min | SlotFunc::Max => match dec.u8()? {
                    0 => NO_VALUE,
                    1 => word_of(Some(dec.f64()?)),
                    t => return corrupt(format!("bad option tag {t}")),
                },
            };
        }
        Ok((count, live))
    }

    /// Set `row` to the aggregation identity.
    #[inline]
    pub fn reset_row(&self, row: &mut [u64]) {
        row[0] = 0;
        self.reset_slots(&mut row[1..]);
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
        self.merge_slots(&mut dst[1..], &src[1..]);
    }

    /// Add the event's own contribution to a **live** row, after its
    /// predecessors were merged and the start-of-trend `+1` applied
    /// ([`Cell::contribute`]; a dead row takes no contribution, which is
    /// the caller's check to make).
    #[inline]
    pub fn contribute_row(&self, row: &mut [u64], feeds: &[Feed], event: &Event) {
        let count = row[0];
        self.contribute_slots(&mut row[1..], count, feeds, event);
    }

    /// Serialize a row and its live bit — byte for byte what [`Cell::save`]
    /// writes of the same aggregates.
    pub fn save_row(&self, row: &[u64], live: bool, enc: &mut Enc) {
        self.save_words(row[0], live, &row[1..], enc);
    }

    /// Inverse of [`AggLayout::save_row`]: read a saved cell into `row` and
    /// return its live bit. A cell that does not have this layout's slots,
    /// in number or in kind, is [`CheckpointError::Corrupt`] — never a row.
    pub fn load_row(&self, dec: &mut Dec, row: &mut [u64]) -> Result<bool, CheckpointError> {
        let (count, live) = self.load_words(dec, &mut row[1..])?;
        row[0] = count;
        Ok(live)
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

    /// The table as a [`CountTable`], when its rows hold a trend count
    /// alone (`COUNT(*)`: stride 1) and their live bits fit one word (at
    /// most 64 rows).
    pub fn counts(&self) -> Option<CountTable> {
        (self.stride == 1 && self.rows <= 64).then_some(CountTable {
            live_at: self.live_at(),
        })
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

    /// Row `r` as an owned [`Cell`]: its words, copied.
    pub fn cell(&self, slab: &[u64], r: usize) -> Cell {
        let row = self.row(slab, r);
        Cell {
            count: row[0],
            live: self.is_live(slab, r),
            slots: row[1..].into(),
        }
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

/// A [`CellTable`] whose rows are trend counts alone and whose live bits
/// are one word ([`CellTable::counts`]): row `r` is word `r` of the slab,
/// its live bit bit `r` of that word. Folding one such row into another
/// is one add — what Algorithm 1's step runs under `COUNT(*)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountTable {
    live_at: usize,
}

impl CountTable {
    /// Row `r`'s trend count.
    #[inline]
    pub fn count(&self, slab: &[u64], r: usize) -> u64 {
        slab[r]
    }

    /// Every row's live bit, row `r`'s at bit `r`.
    #[inline]
    pub fn live_bits(&self, slab: &[u64]) -> u64 {
        slab[self.live_at]
    }

    /// Add `count` trends to row `r`; its live bit is the caller's to set.
    #[inline]
    pub fn add(&self, slab: &mut [u64], r: usize, count: u64) {
        slab[r] = slab[r].wrapping_add(count);
    }

    /// Row `r`'s trend count becomes `count`; its live bit is the caller's
    /// to set.
    #[inline]
    pub fn put(&self, slab: &mut [u64], r: usize, count: u64) {
        slab[r] = count;
    }

    /// Mark the rows whose bits `bits` holds live.
    #[inline]
    pub fn set_live(&self, slab: &mut [u64], bits: u64) {
        slab[self.live_at] |= bits;
    }

    /// Every row's live bit at once: `bits`, row `r`'s at bit `r`.
    #[inline]
    pub fn put_live_bits(&self, slab: &mut [u64], bits: u64) {
        slab[self.live_at] = bits;
    }
}

/// One row as an owned value: the trend count and the live bit inline,
/// one word per slot out of line (none under `COUNT(*)` alone, so such a
/// cell allocates nothing). Every operation that reads a slot takes the
/// layout the cell was made by and runs the row kernels' code.
///
/// `live` tracks *logical* emptiness separately from the wrapping `count`:
/// under skip-till-any-match the exact count is a power of two per event
/// (each event doubles the trend set), so `count % 2^64` hits zero while
/// trends very much exist. Every "does any partial trend end here?"
/// decision — storing a GRETA node, keeping a pending type-cell update,
/// emitting a window result — must use [`Cell::is_zero`], never
/// `count == 0`.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Number of (partial) trends this cell accounts for (wrapping u64).
    pub count: u64,
    /// Whether any trend at all is accounted for (exact, wrap-proof).
    pub live: bool,
    /// Slot words, aligned with [`AggLayout::slots`].
    slots: Box<[u64]>,
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
    pub fn reset(&mut self, layout: &AggLayout) {
        self.count = 0;
        self.live = false;
        layout.reset_slots(&mut self.slots);
    }

    /// Fold `other` into `self` (predecessor propagation / cross-partition
    /// combination — both are the same monoid operation).
    pub fn merge(&mut self, layout: &AggLayout, other: &Cell) {
        self.count = self.count.wrapping_add(other.count);
        self.live |= other.live;
        layout.merge_slots(&mut self.slots, &other.slots);
    }

    /// Add the event's own contribution, after its predecessors were
    /// merged and the start-of-trend `+1` applied to `count` (Table 8).
    pub fn contribute(&mut self, layout: &AggLayout, feeds: &[Feed], event: &Event) {
        // While dead, no partial trend ends at this event, so no finished
        // trend will ever contain it: its attribute values must not leak
        // into MIN/MAX (COUNT/SUM contributions would be zero anyway).
        if self.live {
            layout.contribute_slots(&mut self.slots, self.count, feeds, event);
        }
    }

    /// Logical size for memory accounting.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Cell>() + std::mem::size_of_val(&*self.slots)
    }

    /// Render the outputs of this cell.
    pub fn outputs(&self, layout: &AggLayout) -> Vec<AggValue> {
        layout
            .outputs
            .iter()
            .map(|o| match *o {
                Output::CountStar => AggValue::Count(self.count),
                Output::Slot(i) => layout.slots[i].render(self.slots[i]),
                Output::Ratio { sum, cnt } => match self.slots[cnt] {
                    0 => AggValue::Null,
                    c => AggValue::Float(f64::from_bits(self.slots[sum]) / c as f64),
                },
            })
            .collect()
    }

    /// Serialize the cell: count, liveness, and a tag and a payload per
    /// slot ([`AggLayout::save_row`]'s bytes).
    pub fn save(&self, layout: &AggLayout, enc: &mut Enc) {
        layout.save_words(self.count, self.live, &self.slots, enc);
    }

    /// Inverse of [`Cell::save`], through the layout: a saved cell of
    /// another layout is [`CheckpointError::Corrupt`].
    pub fn load(layout: &AggLayout, dec: &mut Dec) -> Result<Cell, CheckpointError> {
        let mut cell = layout.zero_cell();
        (cell.count, cell.live) = layout.load_words(dec, &mut cell.slots)?;
        Ok(cell)
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

    /// Table 8 on one tagged scalar per slot — what the kernels on words
    /// are held to: a wrapping count, a Σ, and MIN/MAX over `Option<f64>`.
    #[derive(Debug, Clone, Copy)]
    enum Scalar {
        Cnt(u64),
        Sum(f64),
        Min(Option<f64>),
        Max(Option<f64>),
    }

    impl Scalar {
        fn zero(func: SlotFunc) -> Scalar {
            match func {
                SlotFunc::CountVar => Scalar::Cnt(0),
                SlotFunc::Sum => Scalar::Sum(0.0),
                SlotFunc::Min => Scalar::Min(None),
                SlotFunc::Max => Scalar::Max(None),
            }
        }

        fn merge(&mut self, other: Scalar) {
            let either = |a: Option<f64>, b: Option<f64>, pick: fn(f64, f64) -> f64| match (a, b) {
                (Some(x), Some(y)) => Some(pick(x, y)),
                (x, y) => x.or(y),
            };
            *self = match (*self, other) {
                (Scalar::Cnt(a), Scalar::Cnt(b)) => Scalar::Cnt(a.wrapping_add(b)),
                (Scalar::Sum(a), Scalar::Sum(b)) => Scalar::Sum(a + b),
                (Scalar::Min(a), Scalar::Min(b)) => Scalar::Min(either(a, b, f64::min)),
                (Scalar::Max(a), Scalar::Max(b)) => Scalar::Max(either(a, b, f64::max)),
                (a, b) => panic!("slots of two kinds: {a:?}, {b:?}"),
            }
        }

        /// A tag, then a count or a Σ by bit pattern, or an option byte and
        /// the value of a MIN/MAX.
        fn save(self, enc: &mut Enc) {
            let (tag, payload) = match self {
                Scalar::Cnt(c) => (0, Err(c)),
                Scalar::Sum(s) => (1, Err(s.to_bits())),
                Scalar::Min(m) => (2, Ok(m)),
                Scalar::Max(m) => (3, Ok(m)),
            };
            enc.u8(tag);
            match payload {
                Err(word) => enc.u64(word),
                Ok(None) => enc.u8(0),
                Ok(Some(x)) => {
                    enc.u8(1);
                    enc.f64(x);
                }
            }
        }
    }

    /// A cell of [`Scalar`]s: the reference a row and a [`Cell`] stand for.
    #[derive(Debug, Clone)]
    struct Reference {
        count: u64,
        live: bool,
        vals: Vec<Scalar>,
    }

    impl Reference {
        fn zero(layout: &AggLayout) -> Reference {
            Reference {
                count: 0,
                live: false,
                vals: layout.slots.iter().map(|f| Scalar::zero(*f)).collect(),
            }
        }

        fn start_trend(&mut self) {
            self.count = self.count.wrapping_add(1);
            self.live = true;
        }

        fn merge(&mut self, other: &Reference) {
            self.count = self.count.wrapping_add(other.count);
            self.live |= other.live;
            for (a, b) in self.vals.iter_mut().zip(&other.vals) {
                a.merge(*b);
            }
        }

        fn contribute(&mut self, feeds: &[Feed], event: &Event) {
            if !self.live {
                return;
            }
            let (count, x) = (self.count, |a| event.attr(a).as_f64());
            for (val, feed) in self.vals.iter_mut().zip(feeds) {
                let share = match (*val, *feed) {
                    (_, Feed::No) => continue,
                    (Scalar::Cnt(_), Feed::Unit) => Scalar::Cnt(count),
                    (Scalar::Sum(_), Feed::Attr(a)) => {
                        Scalar::Sum(x(a).unwrap_or(0.0) * count as f64)
                    }
                    (Scalar::Min(_), Feed::Attr(a)) => Scalar::Min(x(a)),
                    (Scalar::Max(_), Feed::Attr(a)) => Scalar::Max(x(a)),
                    (slot, feed) => panic!("feed {feed:?} of a {slot:?} slot"),
                };
                val.merge(share);
            }
        }

        /// The snapshot bytes of a cell with these aggregates.
        fn bytes(&self) -> Vec<u8> {
            let mut enc = Enc::new();
            enc.u64(self.count);
            enc.bool(self.live);
            enc.usize(self.vals.len());
            for val in &self.vals {
                val.save(&mut enc);
            }
            enc.into_bytes()
        }
    }

    fn event(v: i64) -> Event {
        Event::new(0, 1, TypeId(0), vec![Value::Int(v)])
    }

    /// A cell as its snapshot bytes: equality to the bit, NaNs included.
    fn bytes(layout: &AggLayout, cell: &Cell) -> Vec<u8> {
        let mut enc = Enc::new();
        cell.save(layout, &mut enc);
        enc.into_bytes()
    }

    /// A cell of `layout` holding `count` live trends and these slot words.
    fn cell(layout: &AggLayout, count: u64, slots: &[u64]) -> Cell {
        let mut cell = layout.zero_cell();
        (cell.count, cell.live) = (count, true);
        cell.slots.copy_from_slice(slots);
        cell
    }

    /// A layout of `slots`, each rendered as itself.
    fn layout_of(slots: Vec<SlotFunc>) -> AggLayout {
        let outputs = (0..slots.len()).map(Output::Slot).collect();
        AggLayout { slots, outputs }
    }

    #[test]
    fn val_merge_semantics() {
        use AggValue::{Count, Float};
        use SlotFunc::*;
        let layout = layout_of(vec![CountVar, Min, Min, Max, Sum]);
        let [five, three, nine] = [5.0, 3.0, 9.0].map(|x| word_of(Some(x)));
        let mut a = cell(&layout, 1, &[3, five, three, NO_VALUE, 1.5f64.to_bits()]);
        let b = cell(&layout, 1, &[4, three, NO_VALUE, nine, 2.5f64.to_bits()]);
        a.merge(&layout, &b);
        let merged = [Count(7), Float(3.0), Float(3.0), Float(9.0), Float(4.0)];
        assert_eq!(a.outputs(&layout), merged);
    }

    #[test]
    fn count_wraps_instead_of_panicking() {
        let layout = layout_of(vec![SlotFunc::CountVar]);
        let mut c = cell(&layout, u64::MAX, &[u64::MAX]);
        c.merge(&layout, &cell(&layout, 2, &[2]));
        assert_eq!(c.count, 1);
        assert_eq!(c.outputs(&layout), [AggValue::Count(1)]);
    }

    #[test]
    fn cell_contribution_weights_by_count() {
        // An event ending 3 partial trends, feeding a SUM slot with
        // attribute value 10 → slot grows by 30 (Table 8: e.attr * e.count).
        let layout = layout_of(vec![SlotFunc::Sum, SlotFunc::CountVar, SlotFunc::Min]);
        let mut cell = layout.zero_cell();
        cell.count = 3;
        cell.live = true;
        let feeds = vec![Feed::Attr(AttrId(0)), Feed::Unit, Feed::Attr(AttrId(0))];
        cell.contribute(&layout, &feeds, &event(10));
        let weighted = [
            AggValue::Float(30.0),
            AggValue::Count(3),
            AggValue::Float(10.0),
        ];
        assert_eq!(cell.outputs(&layout), weighted);
        // A dead cell takes nothing.
        let mut dead = layout.zero_cell();
        dead.contribute(&layout, &feeds, &event(10));
        assert_eq!(bytes(&layout, &dead), bytes(&layout, &layout.zero_cell()));
    }

    #[test]
    fn outputs_render_ratio_and_null() {
        let layout = AggLayout {
            slots: vec![SlotFunc::Sum, SlotFunc::CountVar],
            outputs: vec![Output::CountStar, Output::Ratio { sum: 0, cnt: 1 }],
        };
        let zero = layout.zero_cell();
        assert_eq!(zero.outputs(&layout), [AggValue::Count(0), AggValue::Null]);
        let cell = cell(&layout, 2, &[10f64.to_bits(), 4]);
        assert_eq!(
            cell.outputs(&layout),
            [AggValue::Count(2), AggValue::Float(2.5)]
        );
    }

    #[test]
    fn live_survives_count_wraparound() {
        // Under ANY, counts are powers of two: after 64 doubling steps
        // the wrapping count is exactly 0 while trends still exist. The
        // `live` flag must keep the cell logically non-empty (regression
        // test for the GRETA node-dropping bug).
        let layout = layout_of(vec![]);
        let mut cell = layout.zero_cell();
        cell.start_trend();
        cell.count = 0; // simulate 2^64 ≡ 0 wraparound
        assert!(!cell.is_zero(), "wrapped count must stay live");
        let mut other = layout.zero_cell();
        other.merge(&layout, &cell);
        assert!(!other.is_zero(), "liveness propagates through merge");
        other.reset(&layout);
        assert!(other.is_zero());
        assert_eq!(cell.memory_bytes(), std::mem::size_of::<Cell>());
    }

    #[test]
    fn merge_is_pointwise() {
        let layout = layout_of(vec![SlotFunc::Min, SlotFunc::Sum]);
        let mut a = cell(&layout, 1, &[4f64.to_bits(), 2f64.to_bits()]);
        let b = cell(&layout, 2, &[7f64.to_bits(), 5f64.to_bits()]);
        a.merge(&layout, &b);
        assert_eq!(a.count, 3);
        assert_eq!(
            a.outputs(&layout),
            [AggValue::Float(4.0), AggValue::Float(7.0)]
        );
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
        (layout_of(slots), feeds)
    }

    /// A random reference of `layout`: any count, MIN/MAX with and without
    /// a value, and — one time in four — live with a count that wrapped to 0.
    fn random_reference(rng: &mut StdRng, layout: &AggLayout) -> Reference {
        let mut cell = Reference::zero(layout);
        cell.count = count(rng);
        cell.live = cell.count != 0 || rng.random_range(0..4) == 0;
        for val in &mut cell.vals {
            *val = match val {
                Scalar::Cnt(_) => Scalar::Cnt(count(rng)),
                Scalar::Sum(_) => Scalar::Sum(float(rng)),
                Scalar::Min(_) => Scalar::Min((rng.random_range(0..3) > 0).then(|| float(rng))),
                Scalar::Max(_) => Scalar::Max((rng.random_range(0..3) > 0).then(|| float(rng))),
            };
        }
        cell
    }

    #[test]
    fn every_row_operation_equals_the_cell_operation_it_replaces() {
        // Three spellings of the same aggregates, one operation at a time:
        // the rows of a table inside a slab, owned `Cell`s, and the scalar
        // reference. All three save the same bytes after every operation.
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
            let mut refs = vec![Reference::zero(&layout); rows];
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
                        refs[r].start_trend();
                    }
                    1 if r != other => {
                        table.merge(&layout, slab, r, other);
                        let src = cells[other].clone();
                        cells[r].merge(&layout, &src);
                        let src = refs[other].clone();
                        refs[r].merge(&src);
                    }
                    2 => {
                        table.contribute(&layout, slab, r, &feeds, &event);
                        cells[r].contribute(&layout, &feeds, &event);
                        refs[r].contribute(&feeds, &event);
                    }
                    3 => {
                        table.reset(&layout, slab, r);
                        cells[r].reset(&layout);
                        refs[r] = Reference::zero(&layout);
                    }
                    4 => {
                        let loaded = random_reference(&mut rng, &layout);
                        let saved = loaded.bytes();
                        table
                            .load_row(&layout, slab, r, &mut Dec::new(&saved))
                            .expect("same layout");
                        cells[r] = Cell::load(&layout, &mut Dec::new(&saved)).expect("same layout");
                        refs[r] = loaded;
                    }
                    5 => {
                        // Out of the table and back: a fresh row takes
                        // `other`, contributes, and lands in `r` — what
                        // staging an update and committing it does.
                        list.clear();
                        layout.push_row(&mut list);
                        let mut staged = layout.zero_cell();
                        let mut staged_ref = Reference::zero(&layout);
                        let live = table.merge_into(&layout, slab, other, &mut list);
                        staged.merge(&layout, &cells[other]);
                        staged_ref.merge(&refs[other]);
                        assert_eq!(live, staged_ref.live);
                        if live {
                            layout.contribute_row(&mut list, &feeds, &event);
                            staged.contribute(&layout, &feeds, &event);
                            staged_ref.contribute(&feeds, &event);
                            let mut enc = Enc::new();
                            layout.save_row(&list, true, &mut enc);
                            assert_eq!(enc.as_slice(), staged_ref.bytes());
                            assert_eq!(bytes(&layout, &staged), staged_ref.bytes());
                            table.merge_from(&layout, slab, r, &list);
                            cells[r].merge(&layout, &staged);
                            refs[r].merge(&staged_ref);
                        }
                    }
                    6 => {
                        let mut enc = Enc::new();
                        table.save_row(&layout, slab, r, &mut enc);
                        let mut dec = Dec::new(enc.as_slice());
                        table
                            .load_row(&layout, slab, other, &mut dec)
                            .expect("same layout");
                        let saved = bytes(&layout, &cells[r]);
                        cells[other] =
                            Cell::load(&layout, &mut Dec::new(&saved)).expect("same layout");
                        refs[other] = refs[r].clone();
                    }
                    7 => {
                        // Dead now, reset before it is read again.
                        let (from, to) = (r.min(other), r.max(other) + 1);
                        table.clear_live(slab, from..to);
                        for r in from..to {
                            assert!(!table.is_live(slab, r));
                            table.reset(&layout, slab, r);
                            cells[r].reset(&layout);
                            refs[r] = Reference::zero(&layout);
                        }
                    }
                    _ => {
                        table.reset_all(&layout, slab);
                        cells.iter_mut().for_each(|cell| cell.reset(&layout));
                        refs.fill(Reference::zero(&layout));
                    }
                }
                for (r, (cell, reference)) in cells.iter().zip(&refs).enumerate() {
                    let expected = reference.bytes();
                    let mut enc = Enc::new();
                    table.save_row(&layout, slab, r, &mut enc);
                    assert_eq!(enc.as_slice(), expected, "round {round} row {r}");
                    assert_eq!(bytes(&layout, cell), expected, "round {round} cell {r}");
                    assert_eq!(
                        bytes(&layout, &table.cell(slab, r)),
                        expected,
                        "round {round} row {r} as a cell"
                    );
                    assert_eq!(table.is_live(slab, r), reference.live);
                    assert_eq!(cell.is_zero(), !reference.live);
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
    fn a_value_with_the_reserved_bits_is_still_a_value() {
        // The wire and snapshot decoders take any eight bytes for a float.
        let reserved = f64::from_bits(NO_VALUE);
        let is_a_value = |value: &[AggValue]| matches!(value, [AggValue::Float(x)] if x.is_nan());
        for func in [SlotFunc::Min, SlotFunc::Max] {
            let layout = layout_of(vec![func]);
            let feeds = [Feed::Attr(AttrId(0))];
            let event = Event::new(0, 1, TypeId(0), vec![Value::Float(reserved)]);
            let table = CellTable::new(&layout, 1);
            let mut slab = Vec::new();
            table.append(&layout, &mut slab);
            table.start_trend(&mut slab, 0);
            table.contribute(&layout, &mut slab, 0, &feeds, &event);
            let mut fed = layout.zero_cell();
            fed.start_trend();
            fed.contribute(&layout, &feeds, &event);
            let mut saved = Reference::zero(&layout);
            saved.live = true;
            saved.vals[0] = match func {
                SlotFunc::Min => Scalar::Min(Some(reserved)),
                _ => Scalar::Max(Some(reserved)),
            };
            let loaded = Cell::load(&layout, &mut Dec::new(&saved.bytes())).expect("same layout");
            for cell in [table.cell(&slab, 0), fed, loaded] {
                let outputs = cell.outputs(&layout);
                assert!(is_a_value(&outputs), "the value was lost: {outputs:?}");
            }
        }
    }

    #[test]
    fn a_cell_of_another_layout_is_no_row() {
        let narrow = layout_of(vec![]);
        let sum = layout_of(vec![SlotFunc::Sum]);
        let min = layout_of(vec![SlotFunc::Min]);
        let saved = bytes(&sum, &sum.zero_cell());
        for (layout, expected) in [(&narrow, "1 slots"), (&min, "slot 0 holds Sum")] {
            let mut row = vec![0; layout.stride()];
            let as_row = layout.load_row(&mut Dec::new(&saved), &mut row).map(drop);
            let as_cell = Cell::load(layout, &mut Dec::new(&saved)).map(drop);
            for loaded in [as_row, as_cell] {
                match loaded {
                    Err(CheckpointError::Corrupt(m)) => assert!(m.contains(expected), "{m}"),
                    other => panic!("expected Corrupt, got {other:?}"),
                }
            }
        }
    }
}

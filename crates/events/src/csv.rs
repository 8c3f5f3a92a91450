//! CSV event interchange.
//!
//! The paper's evaluation replays recorded data sets (stock transactions,
//! PAMAP2 activity reports). This module lets a downstream user do the
//! same with their own recordings: a self-describing CSV format with a
//! `type` and `time` column plus the union of all attribute columns, so a
//! heterogeneous stream round-trips through one file. Hand-rolled parser
//! (RFC-4180-style quoting) — no external dependency.
//!
//! ```text
//! type,time,patient,activity,rate
//! Measurement,1,7,passive,62
//! Measurement,2,7,passive,64
//! ```
//!
//! Quoting: a cell that opens with `"` runs to the matching `"`, with
//! `""` standing for one quote; inside it commas, `\n` and `\r` are data,
//! so a record may span physical lines. A quoted cell is *present* even
//! when empty (`""` is the empty string, a bare empty cell is "no value").
//! Unquoted, a record ends at `\n` or `\r\n`. [`write_events`] quotes
//! exactly the cells that need it, so any `Str` value round-trips.
//!
//! Decoding is one pass per record, and a plain record — one without a
//! `"`, which is nearly every record of a stream of numbers and labels —
//! takes the kernel: its bytes are read eight at a time and its cell ends
//! found by word arithmetic, one step per comma and one per record
//! (`Records::advance_plain`); the `type` cell is resolved by one probe of
//! the registry's name index ([`TypeRegistry::id_of`]); and each attribute
//! is converted through its type's column plan — the column it is read
//! from and its kind, resolved once per header on first sight of the
//! type, the other columns skipped. Integers and times are parsed straight
//! from the bytes, accepting exactly what `str::parse` accepts (a number
//! too long to be sure of is handed to `str::parse` itself), and refused
//! with the same text.
//!
//! A record with a `"` anywhere goes through `Records::advance`, the one
//! scanner that handles quoting, into the same conversion step. Its fields
//! are byte ranges of the text too — only a cell containing `""` is
//! copied, into a buffer reused from record to record. Either way
//! [`EventReader::read_into`] parses the cells straight into a
//! caller-owned [`Event`], so a row of numbers costs no allocation at all.

use crate::event::{Event, EventId, Timestamp};
use crate::schema::{AttrId, Schema, TypeId, TypeRegistry};
use crate::value::{Value, ValueKind};
use std::fmt::{self, Write as _};

/// Error produced while reading CSV events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based physical line number — of the line the record starts on,
    /// when quoted cells make it span several.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "csv line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

fn err(line: usize, message: impl Into<String>) -> CsvError {
    CsvError {
        line,
        message: message.into(),
    }
}

/// One cell of the record last scanned.
#[derive(Debug, Clone, Copy)]
struct Field {
    start: usize,
    end: usize,
    /// `start..end` indexes [`Records::unescaped`], not the document.
    copied: bool,
    /// The cell opened with a quote: present even when empty.
    quoted: bool,
}

/// Byte-level record scanner over a whole document. `,` `"` `\n` `\r` are
/// ASCII and never occur inside a multi-byte UTF-8 sequence, so scanning
/// bytes of a `&str` only ever cuts on character boundaries.
struct Records<'a> {
    text: &'a str,
    /// Next unread byte.
    pos: usize,
    /// Physical line (1-based) `pos` is on.
    line: usize,
    /// The cells of the current record; reused.
    fields: Vec<Field>,
    /// Cells that could not be borrowed (they held `""`, or text after
    /// the closing quote); reused, cleared at every record.
    unescaped: String,
}

impl<'a> Records<'a> {
    fn new(text: &'a str) -> Records<'a> {
        Records {
            text,
            pos: 0,
            line: 1,
            fields: Vec::new(),
            unescaped: String::new(),
        }
    }

    /// Cell `i` of the current record.
    fn field(&self, i: usize) -> &str {
        let f = self.fields[i];
        if f.copied {
            &self.unescaped[f.start..f.end]
        } else {
            &self.text[f.start..f.end]
        }
    }

    /// Scan the next record into `fields`; yields the line it starts on,
    /// `None` at the end of the document.
    fn advance(&mut self) -> Option<Result<usize, CsvError>> {
        let text = self.text;
        let bytes = text.as_bytes();
        if self.pos >= bytes.len() {
            return None;
        }
        let first_line = self.line;
        self.fields.clear();
        self.unescaped.clear();
        let mut i = self.pos;
        loop {
            // The cell's bytes: one run of the document, until it has to
            // be copied — then `copy` is where it starts in `unescaped`.
            let quoted = bytes.get(i) == Some(&b'"');
            let mut run = i..i;
            let mut copy = None;
            if quoted {
                i += 1;
                run = i..i;
                loop {
                    while i < bytes.len() && bytes[i] != b'"' {
                        self.line += usize::from(bytes[i] == b'\n');
                        i += 1;
                    }
                    if i == bytes.len() {
                        return Some(Err(err(first_line, "unterminated quoted field")));
                    }
                    run.end = i;
                    if bytes.get(i + 1) != Some(&b'"') {
                        break;
                    }
                    // `""`: the text so far and one of the quotes are data.
                    copy.get_or_insert(self.unescaped.len());
                    self.unescaped.push_str(&text[run.start..=i]);
                    i += 2;
                    run = i..i;
                }
                i += 1;
            }
            // The unquoted part: the whole cell, or whatever follows a
            // closing quote (kept, as data, for leniency).
            let tail = i;
            while i < bytes.len() && bytes[i] != b',' && bytes[i] != b'\n' {
                if bytes[i] == b'"' {
                    return Some(Err(err(
                        first_line,
                        "unexpected quote inside unquoted field",
                    )));
                }
                i += 1;
            }
            let at_newline = i < bytes.len() && bytes[i] == b'\n';
            // An unquoted CRLF row end: the `\r` is not data.
            let tail_end = i - usize::from(at_newline && i > tail && bytes[i - 1] == b'\r');
            if !quoted {
                run = tail..tail_end;
            } else if copy.is_some() || tail_end > tail {
                let at = *copy.get_or_insert(self.unescaped.len());
                self.unescaped.push_str(&text[run]);
                self.unescaped.push_str(&text[tail..tail_end]);
                run = at..self.unescaped.len();
            }
            self.fields.push(Field {
                start: run.start,
                end: run.end,
                copied: copy.is_some(),
                quoted,
            });
            if i == bytes.len() {
                break;
            }
            i += 1;
            if at_newline {
                self.line += 1;
                break;
            }
        }
        self.pos = i;
        Some(Ok(first_line))
    }
}

/// The offset just past each record of `text` (the header is the first)
/// — where a document may be cut into blocks of whole records, given that
/// a quoted cell can span lines. Blank lines count. Scanning stops at a
/// malformed record: the rest of the document is then one last piece, so
/// whoever decodes it reports the error.
pub fn record_ends(text: &str) -> Vec<usize> {
    let mut records = Records::new(text);
    let mut ends = Vec::new();
    while let Some(Ok(_)) = records.advance() {
        ends.push(records.pos);
    }
    if records.pos < text.len() {
        ends.push(text.len());
    }
    ends
}

/// Append `s` as one cell: quoted if it is empty or holds `,` `"` `\n`
/// `\r`, as it is otherwise.
fn push_cell(out: &mut String, s: &str) {
    if s.is_empty() || s.contains([',', '"', '\n', '\r']) {
        out.push('"');
        out.push_str(&s.replace('"', "\"\""));
        out.push('"');
    } else {
        out.push_str(s);
    }
}

/// The cells of one scanned record, by column: what [`EventReader`]'s
/// conversion step reads, whichever scanner cut the record.
trait Cells {
    /// Number of cells.
    fn len(&self) -> usize;
    /// Cell `i`'s text.
    fn text(&self, i: usize) -> &str;
    /// Whether cell `i` was quoted: present even when empty.
    fn quoted(&self, i: usize) -> bool;

    /// Whether the record is a blank line: one unquoted cell of nothing
    /// but white space.
    fn is_blank(&self) -> bool {
        self.len() == 1 && !self.quoted(0) && self.text(0).trim().is_empty()
    }
}

impl Cells for Records<'_> {
    fn len(&self) -> usize {
        self.fields.len()
    }

    fn text(&self, i: usize) -> &str {
        self.field(i)
    }

    fn quoted(&self, i: usize) -> bool {
        self.fields[i].quoted
    }
}

/// A record without a `"`, cut by [`Records::advance_plain`]: `cells`
/// cells, none quoted, cell `i` running from just past the end of cell
/// `i - 1` (from `start` for the first) to `ends[i]`. Only the ends of the
/// first `ends.len() - 1` cells are kept: a record with more cells than
/// the header has columns is refused on its count alone.
struct Plain<'t> {
    text: &'t str,
    start: usize,
    cells: usize,
    ends: &'t [usize],
}

impl Plain<'_> {
    /// Where cell `i` starts.
    #[inline]
    fn start_of(&self, i: usize) -> usize {
        match i {
            0 => self.start,
            i => self.ends[i - 1] + 1,
        }
    }
}

impl Cells for Plain<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.cells
    }

    #[inline]
    fn text(&self, i: usize) -> &str {
        &self.text[self.start_of(i)..self.ends[i]]
    }

    #[inline]
    fn quoted(&self, _: usize) -> bool {
        false
    }
}

/// `0x80` in each byte of `word` that is `byte`, `0` in the others —
/// exactly: no carry from one byte reaches the next.
#[inline]
fn bytes_equal(word: u64, byte: u8) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let x = word ^ (u64::from(byte) * 0x0101_0101_0101_0101);
    !(((x & LOW7) + LOW7) | x | LOW7)
}

impl Records<'_> {
    /// Cut the next record at its cell ends into `ends`, in one pass over
    /// its bytes — if it holds no `"`. Yields the line it starts on and its
    /// number of cells; `Some(None)` for a record with a quote in it, which
    /// is left unread for [`Records::advance`]; `None` at the end of the
    /// document. The cells are the ones `advance` would give: `\n` or
    /// `\r\n` ends the record, and the last one of the document needs
    /// neither. `ends` must not be empty; past its last slot, every cell
    /// ends in that one ([`Plain`]).
    ///
    /// The bytes are read eight at a time, and the commas and the first
    /// `\n` or `"` of each eight found by word arithmetic, so what branches
    /// is one step per comma and one per record, not one per byte.
    #[inline]
    fn advance_plain(&mut self, ends: &mut [usize]) -> Option<Option<(usize, usize)>> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if start >= bytes.len() {
            return None;
        }
        let last = ends.len() - 1;
        let (mut i, mut cell) = (start, 0);
        let mut stop = None;
        while let Some(chunk) = bytes.get(i..i + 8) {
            let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
            let stops = bytes_equal(word, b'\n') | bytes_equal(word, b'"');
            // The commas before the first stop.
            let mut commas =
                bytes_equal(word, b',') & (stops & stops.wrapping_neg()).wrapping_sub(1);
            while commas != 0 {
                ends[cell.min(last)] = i + (commas.trailing_zeros() / 8) as usize;
                cell += 1;
                commas &= commas - 1;
            }
            if stops != 0 {
                stop = Some(i + (stops.trailing_zeros() / 8) as usize);
                break;
            }
            i += 8;
        }
        if stop.is_none() {
            // The document's last few bytes, one at a time.
            for (at, &b) in bytes.iter().enumerate().skip(i) {
                match b {
                    b'\n' | b'"' => {
                        stop = Some(at);
                        break;
                    }
                    b',' => {
                        ends[cell.min(last)] = at;
                        cell += 1;
                    }
                    _ => {}
                }
            }
        }
        let line = self.line;
        let end = match stop {
            Some(at) if bytes[at] == b'"' => return Some(None),
            Some(at) => {
                self.pos = at + 1;
                self.line += 1;
                // An unquoted CRLF row end: the `\r` is not data.
                let from = match cell {
                    0 => start,
                    c => ends[(c - 1).min(last)] + 1,
                };
                at - usize::from(at > from && bytes[at - 1] == b'\r')
            }
            None => {
                self.pos = bytes.len();
                bytes.len()
            }
        };
        ends[cell.min(last)] = end;
        Some(Some((line, cell + 1)))
    }
}

/// Streaming CSV event decoder over the text, one row at a time — no
/// intermediate `Vec<Event>`. This is THE decode path:
/// [`EventReader::read_into`] is what `Session::ingest_csv` / `run_csv`
/// (and through them the `cogra-run` CLI and the server's `INGEST`) feed
/// engines from; the `Iterator` of `Result<Event, CsvError>` is the same
/// function handing out a fresh [`Event`] per row, which [`read_events`]
/// collects and the benchmark (`perfbench`) measures.
///
/// The header must contain `type` and `time`; every other column is an
/// attribute name. Each row is parsed against its type's schema: every
/// schema attribute must have a present cell (non-empty, or quoted);
/// cells of columns outside the schema are ignored.
pub struct EventReader<'a> {
    records: Records<'a>,
    /// The cell ends of the plain record last scanned ([`Plain`]): one
    /// slot per column, and one more.
    ends: Box<[usize]>,
    rows: RowDecoder<'a>,
    /// Set after the first error: a failed decode poisons the stream
    /// (column state may be unreliable past a malformed row).
    done: bool,
}

/// A type's column plan: for each attribute of its schema in order, the
/// column it is read from and its kind. The other columns are skipped.
type ColumnPlan = Box<[(usize, ValueKind)]>;

/// What turns a record's cells into an event: the header's columns and,
/// per type, its column plan.
struct RowDecoder<'a> {
    registry: &'a TypeRegistry,
    columns: Vec<String>,
    type_col: usize,
    time_col: usize,
    /// Per type id, its column plan — resolved on first sight of the type,
    /// once per header.
    plans: Vec<Option<ColumnPlan>>,
    /// Id of the next decoded event (ids are per reader, from 0).
    next_id: u64,
}

impl<'a> EventReader<'a> {
    /// Parse the header and position the reader on the first data row.
    /// Empty input yields a reader that produces no events.
    pub fn new(text: &'a str, registry: &'a TypeRegistry) -> Result<EventReader<'a>, CsvError> {
        let mut records = Records::new(text);
        let (columns, type_col, time_col) = match records.advance() {
            None => (Vec::new(), 0, 0),
            Some(header) => {
                header?;
                let columns: Vec<String> = (0..records.fields.len())
                    .map(|i| records.field(i).to_string())
                    .collect();
                let type_col = columns
                    .iter()
                    .position(|c| c == "type")
                    .ok_or_else(|| err(1, "missing `type` column"))?;
                let time_col = columns
                    .iter()
                    .position(|c| c == "time")
                    .ok_or_else(|| err(1, "missing `time` column"))?;
                (columns, type_col, time_col)
            }
        };
        Ok(EventReader {
            ends: vec![0; columns.len() + 1].into(),
            records,
            rows: RowDecoder {
                registry,
                columns,
                type_col,
                time_col,
                plans: vec![None; registry.len()],
                next_id: 0,
            },
            done: false,
        })
    }

    /// Decode the next row into `event`, overwriting its id, time, type
    /// and attributes in place (the attribute vector's allocation is
    /// kept): `None` at the end of the document, and after an error. On
    /// `Some(Err(_))` the event's contents are unspecified. The lending
    /// form of `Iterator::next` — same rows, same ids, same errors.
    ///
    /// A record without a `"` is cut in one pass of the kernel; one with a
    /// quote goes through the quoting scanner. Both hand their cells to the
    /// same conversion step (see the module docs).
    pub fn read_into(&mut self, event: &mut Event) -> Option<Result<(), CsvError>> {
        if self.done {
            return None;
        }
        let result = loop {
            let start = self.records.pos;
            let (line_no, cells) = match self.records.advance_plain(&mut self.ends)? {
                Some(record) => record,
                None => match self.records.advance()? {
                    Ok(_) if self.records.is_blank() => continue,
                    Ok(line_no) => break self.rows.decode(&self.records, line_no, event),
                    Err(e) => break Err(e),
                },
            };
            let cells = Plain {
                text: self.records.text,
                start,
                cells,
                ends: &self.ends,
            };
            if !cells.is_blank() {
                break self.rows.decode(&cells, line_no, event);
            }
        };
        self.done = result.is_err();
        Some(result)
    }
}

impl RowDecoder<'_> {
    /// The conversion step: `cells` against the header, their type's
    /// column plan, into `event`.
    #[inline]
    fn decode(
        &mut self,
        cells: &impl Cells,
        line_no: usize,
        event: &mut Event,
    ) -> Result<(), CsvError> {
        if cells.len() != self.columns.len() {
            return Err(err(
                line_no,
                format!(
                    "expected {} fields, found {}",
                    self.columns.len(),
                    cells.len()
                ),
            ));
        }
        let type_name = cells.text(self.type_col);
        let type_id = self
            .registry
            .id_of(type_name)
            .ok_or_else(|| err(line_no, format!("unknown event type `{type_name}`")))?;
        let time = cells.text(self.time_col);
        let time = parse_u64(time).ok_or_else(|| err(line_no, format!("invalid time `{time}`")))?;
        let schema = self.registry.schema(type_id);
        let plan = plan_of(
            &mut self.plans[type_id.index()],
            schema,
            &self.columns,
            line_no,
        )?;
        event.attrs.clear();
        event.attrs.reserve(plan.len());
        for (attr, &(col, kind)) in plan.iter().enumerate() {
            let raw = cells.text(col);
            let present = !raw.is_empty() || cells.quoted(col);
            let value = if present {
                parse_value(raw, kind)
            } else {
                None
            };
            let Some(value) = value else {
                let attr_name = schema.attr_name(AttrId(attr as u32));
                return Err(err(
                    line_no,
                    if present {
                        format!("`{attr_name}`: invalid {kind} `{raw}`")
                    } else {
                        format!("empty cell for attribute `{attr_name}` of `{type_name}`")
                    },
                ));
            };
            event.attrs.push(value);
        }
        event.id = EventId(self.next_id);
        self.next_id += 1;
        event.time = Timestamp(time);
        event.type_id = type_id;
        Ok(())
    }
}

/// A type's column plan ([`RowDecoder::plans`]), resolved into `slot` on
/// first use.
#[inline]
fn plan_of<'s>(
    slot: &'s mut Option<ColumnPlan>,
    schema: &Schema,
    columns: &[String],
    line_no: usize,
) -> Result<&'s [(usize, ValueKind)], CsvError> {
    if slot.is_none() {
        *slot = Some(plan(schema, columns, line_no)?);
    }
    Ok(slot.as_deref().expect("filled above"))
}

/// The column plan of a type of `schema` under a header of `columns`.
#[inline(never)]
fn plan(schema: &Schema, columns: &[String], line_no: usize) -> Result<ColumnPlan, CsvError> {
    let mut plan = Vec::with_capacity(schema.arity());
    for (attr_name, kind) in schema.iter() {
        let col = columns.iter().position(|c| c == attr_name).ok_or_else(|| {
            err(
                line_no,
                format!("missing column for attribute `{attr_name}`"),
            )
        })?;
        plan.push((col, kind));
    }
    Ok(plan.into_boxed_slice())
}

impl Iterator for EventReader<'_> {
    type Item = Result<Event, CsvError>;

    fn next(&mut self) -> Option<Result<Event, CsvError>> {
        let mut event = Event::new(0, 0, TypeId(0), Vec::new());
        let row = self.read_into(&mut event)?;
        Some(row.map(|()| event))
    }
}

/// Read events from CSV text — [`EventReader`] collected into a `Vec`.
pub fn read_events(text: &str, registry: &TypeRegistry) -> Result<Vec<Event>, CsvError> {
    EventReader::new(text, registry)?.collect()
}

/// A cell as a value of `kind`, `None` if it is not one. Integers are read
/// straight from the bytes ([`parse_i64`]), inline; the other kinds out of
/// line.
#[inline]
fn parse_value(raw: &str, kind: ValueKind) -> Option<Value> {
    match kind {
        ValueKind::Int => parse_i64(raw).map(Value::Int),
        _ => parse_other(raw, kind),
    }
}

/// [`parse_value`] of a float, a bool or a string.
#[inline(never)]
fn parse_other(raw: &str, kind: ValueKind) -> Option<Value> {
    match kind {
        ValueKind::Int => parse_i64(raw).map(Value::Int),
        ValueKind::Float => raw.parse::<f64>().ok().map(Value::Float),
        ValueKind::Bool => match raw {
            "true" | "1" => Some(Value::Bool(true)),
            "false" | "0" => Some(Value::Bool(false)),
            _ => None,
        },
        ValueKind::Str => Some(Value::str(raw)),
    }
}

/// The value of a run of ASCII digits, `None` if a byte is not one. At
/// most 19 digits: the value fits a `u64`.
#[inline]
fn digits(bytes: &[u8]) -> Option<u64> {
    bytes.iter().try_fold(0u64, |value, &b| {
        let digit = b.wrapping_sub(b'0');
        (digit < 10).then(|| value * 10 + u64::from(digit))
    })
}

/// `s.parse::<i64>().ok()`, read from the bytes: an optional `+` or `-`,
/// then at least one digit. A number of more than 18 digits, which might
/// overflow, and a sign with no digits after it are left to `str::parse`.
#[inline]
fn parse_i64(s: &str) -> Option<i64> {
    let (negative, rest) = match s.as_bytes() {
        [b'-', rest @ ..] => (true, rest),
        [b'+', rest @ ..] => (false, rest),
        rest => (false, rest),
    };
    if rest.is_empty() || rest.len() > 18 {
        return s.parse().ok();
    }
    let value = digits(rest)? as i64;
    Some(if negative { -value } else { value })
}

/// `s.parse::<u64>().ok()`, read from the bytes: an optional `+`, then at
/// least one digit. A number of more than 19 digits and a lone `+` are
/// left to `str::parse`.
#[inline]
fn parse_u64(s: &str) -> Option<u64> {
    let rest = s.strip_prefix('+').unwrap_or(s).as_bytes();
    if rest.is_empty() || rest.len() > 19 {
        return s.parse().ok();
    }
    digits(rest)
}

/// Write events as CSV with the union-of-attributes header described in
/// [`EventReader`]. The output round-trips: `read_events(&write_events(..))`
/// reproduces the stream (with fresh ids) — cells holding `,` `"` `\n`
/// `\r`, and empty strings, are written quoted.
pub fn write_events(events: &[Event], registry: &TypeRegistry) -> String {
    // Union of attribute names over all registered types, in first-seen
    // order.
    let mut attr_names: Vec<&str> = Vec::new();
    for (_, schema) in registry.iter() {
        for (name, _) in schema.iter() {
            if !attr_names.contains(&name) {
                attr_names.push(name);
            }
        }
    }
    let mut out = String::from("type,time");
    for a in &attr_names {
        out.push(',');
        push_cell(&mut out, a);
    }
    out.push('\n');
    for e in events {
        let schema = registry.schema(e.type_id);
        push_cell(&mut out, schema.name());
        write!(out, ",{}", e.time.ticks()).expect("writing to a `String` cannot fail");
        for a in &attr_names {
            out.push(',');
            match schema.attr(a).map(|id| e.attr(id)) {
                None => {}
                Some(Value::Str(s)) => push_cell(&mut out, s),
                // Numbers and booleans never need quoting.
                Some(v) => write!(out, "{v}").expect("writing to a `String` cannot fail"),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::stream::EventBuilder;

    fn registry() -> TypeRegistry {
        let mut r = TypeRegistry::new();
        r.register(Schema::new(
            "Measurement",
            vec![
                ("patient", ValueKind::Int),
                ("activity", ValueKind::Str),
                ("rate", ValueKind::Int),
            ],
        ));
        r.register(Schema::new(
            "Stock",
            vec![("company", ValueKind::Int), ("price", ValueKind::Float)],
        ));
        r
    }

    #[test]
    fn read_simple_stream() {
        let csv = "type,time,patient,activity,rate,company,price\n\
                   Measurement,1,7,passive,62,,\n\
                   Stock,2,,,,3,10.5\n";
        let events = read_events(csv, &registry()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].time.ticks(), 1);
        assert_eq!(events[0].attrs[1], Value::str("passive"));
        assert_eq!(events[1].attrs[1], Value::Float(10.5));

        // Columns in any order — `type` not the first — and one no schema
        // declares.
        let csv = "time,extra,rate,type,patient,activity\n\
                   1,x,62,Measurement,7,passive\n\
                   2,,63,Measurement,8,\"act,ive\"\n";
        let events = read_events(csv, &registry()).unwrap();
        let attrs: Vec<&[Value]> = events.iter().map(|e| &e.attrs[..]).collect();
        assert_eq!(
            attrs,
            [
                &[Value::Int(7), Value::str("passive"), Value::Int(62)][..],
                &[Value::Int(8), Value::str("act,ive"), Value::Int(63)][..],
            ]
        );
        assert_eq!(events[1].time.ticks(), 2);
    }

    #[test]
    fn round_trip() {
        let reg = registry();
        let m = reg.id_of("Measurement").unwrap();
        let s = reg.id_of("Stock").unwrap();
        let mut b = EventBuilder::new();
        let events = vec![
            b.event(
                1,
                m,
                vec![Value::Int(7), Value::str("pas,sive"), Value::Int(62)],
            ),
            b.event(2, s, vec![Value::Int(3), Value::Float(10.25)]),
            b.event(
                2,
                m,
                vec![Value::Int(8), Value::str("a\"b"), Value::Int(70)],
            ),
            // The extremes of both number kinds.
            b.event(
                u64::MAX,
                m,
                vec![Value::Int(i64::MIN), Value::str("x"), Value::Int(i64::MAX)],
            ),
            b.event(0, m, vec![Value::Int(0), Value::str("y"), Value::Int(-1)]),
        ];
        let text = write_events(&events, &reg);
        let back = read_events(&text, &reg).unwrap();
        assert_eq!(back, events);
        // The last row needs no newline, and CRLF row ends read alike.
        let trimmed = text.strip_suffix('\n').unwrap();
        assert_eq!(read_events(trimmed, &reg).unwrap(), events);
        let crlf = text.replace('\n', "\r\n");
        assert_eq!(read_events(&crlf, &reg).unwrap(), events);
        // Numbers written other ways read as `str::parse` reads them.
        let max = u64::MAX;
        let rows = format!(
            "Measurement,2,+7,a,-0\n\
             Measurement,{max},007,a,\"42\"\n\
             Measurement,+3,-9,a,00000000000000000000000000001\n"
        );
        assert_eq!(
            numbers(&rows).unwrap(),
            vec![(2, 7, 0), (max, 7, 42), (3, -9, 1)]
        );
    }

    /// The `patient` and `rate` of each row of `rows` under the header
    /// `type,time,patient,activity,rate`, with the row's time.
    fn numbers(rows: &str) -> Result<Vec<(u64, i64, i64)>, CsvError> {
        let text = format!("type,time,patient,activity,rate\n{rows}");
        let events = read_events(&text, &registry())?;
        let number = |v: &Value| v.as_i64().expect("an int");
        Ok(events
            .iter()
            .map(|e| (e.time.ticks(), number(&e.attrs[0]), number(&e.attrs[2])))
            .collect())
    }

    /// Every record of `text` as owned cells, with its first line.
    fn records(text: &str) -> Result<Vec<(usize, Vec<String>)>, CsvError> {
        let mut scanner = Records::new(text);
        let mut out = Vec::new();
        while let Some(line) = scanner.advance() {
            let cells = (0..scanner.fields.len())
                .map(|i| scanner.field(i).to_string())
                .collect();
            out.push((line?, cells));
        }
        Ok(out)
    }

    #[test]
    fn quoting_rules() {
        let cells = |text: &str| records(text).unwrap().remove(0).1;
        assert_eq!(cells("a,\"b,c\",\"d\"\"e\""), vec!["a", "b,c", "d\"e"]);
        // Text after a closing quote stays data; a trailing comma is one
        // more (empty) cell.
        assert_eq!(cells("\"ab\"cd,"), vec!["abcd", ""]);
        assert_eq!(cells("\"\"\"\"\"x\"\"\""), vec!["\"\"x\""]);
        let e = records("x\n\"open\nstill open").unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (2, "unterminated quoted field")
        );
        let e = records("ab\"c").unwrap_err();
        assert_eq!(e.message, "unexpected quote inside unquoted field");
        assert!(records("\"a\" \"b\"").is_err());

        // A quoted cell anywhere in a row sends the row through the quoting
        // scanner: numeric cells quoted or not, the row reads alike, and the
        // quote errors are the scanner's.
        assert_eq!(
            numbers("\"Measurement\",\"5\",\"7\",a,\"62\"\nMeasurement,6,7,\"b\",63\n").unwrap(),
            vec![(5, 7, 62), (6, 7, 63)]
        );
        let e = numbers("Measurement,5,7,a,62\nMeasurement,6,7,b\"c,63\n").unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (3, "unexpected quote inside unquoted field")
        );
    }

    #[test]
    fn records_span_lines_and_carry_their_first_line() {
        // A quoted cell holds `\n`, `\r\n` and a lone `\r` as data; unquoted
        // `\r\n` ends a row; the last row needs no newline.
        let text = "h1,h2\r\n\"a\nb\",1\n\n\"c\r\nd\",\"e\r\"\r\nx,y\rz";
        assert_eq!(
            records(text).unwrap(),
            vec![
                (1, vec!["h1".to_string(), "h2".to_string()]),
                (2, vec!["a\nb".to_string(), "1".to_string()]),
                (4, vec![String::new()]),
                (5, vec!["c\r\nd".to_string(), "e\r".to_string()]),
                (7, vec!["x".to_string(), "y\rz".to_string()]),
            ]
        );
    }

    #[test]
    fn record_ends_cut_between_records_only() {
        let text = "h,\"x\ny\"\na,\"1\n\"\"2\n\"\nb,3\r\n\nc,\"open\nd,4\n";
        let pieces: Vec<&str> = record_ends(text)
            .iter()
            .scan(0, |start, &end| {
                Some(&text[std::mem::replace(start, end)..end])
            })
            .collect();
        assert_eq!(
            pieces,
            vec![
                "h,\"x\ny\"\n",
                "a,\"1\n\"\"2\n\"\n",
                "b,3\r\n",
                "\n",
                "c,\"open\nd,4\n"
            ]
        );
        assert!(record_ends("").is_empty());
        assert_eq!(record_ends("h\nrow"), vec![2, 5]);
    }

    #[test]
    fn awkward_strings_round_trip() {
        // Each of these was lost or rejected by the line-splitting reader:
        // an embedded newline, the empty string, a trailing `\r`.
        let reg = registry();
        let m = reg.id_of("Measurement").unwrap();
        let mut b = EventBuilder::new();
        let events: Vec<Event> = ["two\nlines", "", "cr\r", " padded ", "\"", "\r\n"]
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let attrs = vec![Value::Int(1), Value::str(s), Value::Int(2)];
                b.event(i as u64, m, attrs)
            })
            .collect();
        let text = write_events(&events, &reg);
        assert_eq!(read_events(&text, &reg).unwrap(), events);

        // The error line is the physical line the record starts on.
        let text = format!("{text}Measurement,x,1,a,2,,\n");
        let e = read_events(&text, &reg).unwrap_err();
        assert_eq!(e.line, 2 + events.len() + 2, "{e}");
        // A quoted-empty cell is present; a bare empty one is not.
        let e = read_events(
            "type,time,patient,activity,rate,company,price\nMeasurement,1,7,,3,,\n",
            &reg,
        )
        .unwrap_err();
        assert!(e.message.contains("empty cell for attribute `activity`"));
    }

    #[test]
    fn read_into_reuses_the_callers_event() {
        let reg = registry();
        let csv = "type,time,patient,activity,rate,company,price\n\
                   Measurement,1,7,passive,62,,\n\
                   Stock,2,,,,3,10.5\n\
                   Stock,x,,,,3,10.5\n\
                   Stock,4,,,,3,10.5\n";
        let mut reader = EventReader::new(csv, &reg).unwrap();
        let mut event = Event::new(9, 9, TypeId(9), vec![Value::Int(0); 8]);
        let mut seen = Vec::new();
        while let Some(Ok(())) = reader.read_into(&mut event) {
            seen.push(event.clone());
        }
        let mut whole = EventReader::new(csv, &reg).unwrap();
        assert_eq!(
            seen,
            vec![
                whole.next().unwrap().unwrap(),
                whole.next().unwrap().unwrap()
            ]
        );
        assert_eq!(whole.next().unwrap().unwrap_err().line, 4);
        // Both forms are poisoned by the error.
        assert!(whole.next().is_none());
        assert!(reader.read_into(&mut event).is_none());
    }

    #[test]
    fn missing_required_columns() {
        assert!(read_events("time,patient\n", &registry())
            .unwrap_err()
            .message
            .contains("`type`"));
        assert!(read_events("type,patient\n", &registry())
            .unwrap_err()
            .message
            .contains("`time`"));
    }

    #[test]
    fn error_reporting_with_line_numbers() {
        let csv = "type,time,patient,activity,rate,company,price\n\
                   Measurement,1,7,passive,62,,\n\
                   Measurement,nope,7,passive,62,,\n";
        let e = read_events(csv, &registry()).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("invalid time"));

        // Each refused number is named with its text, on its own line —
        // counted through CRLF row ends and a blank line.
        let past_max = "18446744073709551616";
        let twenty = "12345678901234567890";
        // 19 digits, one past `i64::MAX` and one below `i64::MIN`.
        let (above, below) = ("9223372036854775808", "-9223372036854775809");
        for (row, message) in [
            (
                format!("Measurement,1,{above},a,2"),
                format!("`patient`: invalid int `{above}`"),
            ),
            (
                format!("Measurement,1,7,a,{below}"),
                format!("`rate`: invalid int `{below}`"),
            ),
            (
                format!("Measurement,{past_max},1,a,2"),
                format!("invalid time `{past_max}`"),
            ),
            (
                "Measurement,-1,1,a,2".to_string(),
                "invalid time `-1`".to_string(),
            ),
            (
                format!("Measurement,1,{twenty},a,2"),
                format!("`patient`: invalid int `{twenty}`"),
            ),
            (
                "Measurement,1,1e3,a,2".to_string(),
                "`patient`: invalid int `1e3`".to_string(),
            ),
            (
                "Measurement,1, 5,a,2".to_string(),
                "`patient`: invalid int ` 5`".to_string(),
            ),
            (
                "Measurement,1,7,a,+".to_string(),
                "`rate`: invalid int `+`".to_string(),
            ),
            (
                "Measurement,1,7,a,\"\"".to_string(),
                "`rate`: invalid int ``".to_string(),
            ),
            (
                "Measurement,1,7,a,".to_string(),
                "empty cell for attribute `rate` of `Measurement`".to_string(),
            ),
        ] {
            let e = numbers(&format!("Measurement,1,7,a,62\r\n\r\n{row}\r\n")).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (4, message.as_str()), "{row}");
        }
    }

    #[test]
    fn unknown_type_and_empty_attr_rejected() {
        let reg = registry();
        let e = read_events(
            "type,time,patient,activity,rate,company,price\nGhost,1,,,,,\n",
            &reg,
        )
        .unwrap_err();
        assert!(e.message.contains("unknown event type"));
        let e = read_events(
            "type,time,patient,activity,rate,company,price\nMeasurement,1,7,passive,,,\n",
            &reg,
        )
        .unwrap_err();
        assert!(e.message.contains("empty cell"));
    }

    #[test]
    fn field_count_mismatch_rejected() {
        let e = read_events(
            "type,time,patient,activity,rate,company,price\nMeasurement,1,7\n",
            &registry(),
        )
        .unwrap_err();
        assert!(e.message.contains("expected 7 fields"));
    }

    #[test]
    fn blank_lines_and_empty_input() {
        assert!(read_events("", &registry()).unwrap().is_empty());
        let csv = "type,time,patient,activity,rate,company,price\n\n  \n";
        assert!(read_events(csv, &registry()).unwrap().is_empty());
        // Blank lines between rows, and a last row without a newline.
        assert_eq!(
            numbers("Measurement,1,7,a,1\n\n \r\nMeasurement,2,8,b,2\n\t\nMeasurement,3,9,c,3")
                .unwrap(),
            vec![(1, 7, 1), (2, 8, 2), (3, 9, 3)]
        );
    }

    /// What a document is drawn from: every byte the scanners treat
    /// specially, data around them, and a multi-byte character.
    const DOCUMENT_CHARS: [char; 12] = [
        'a', 'b', '7', '7', ',', ',', '"', '\n', '\n', '\r', ' ', 'é',
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        #[test]
        fn plain_records_are_cut_as_the_quoting_scanner_cuts_them(
            picks in proptest::collection::vec(0usize..DOCUMENT_CHARS.len(), 0..64),
            columns in 1usize..6,
        ) {
            let text: String = picks.iter().map(|&i| DOCUMENT_CHARS[i]).collect();
            let mut plain = Records::new(&text);
            let mut quoting = Records::new(&text);
            let mut ends = vec![0; columns + 1];
            loop {
                let start = plain.pos;
                match plain.advance_plain(&mut ends) {
                    None => {
                        proptest::prop_assert!(quoting.advance().is_none());
                        break;
                    }
                    // A quote: the record is the quoting scanner's on both.
                    Some(None) => {
                        let (a, b) = (plain.advance(), quoting.advance());
                        proptest::prop_assert_eq!(&a, &b);
                        if !matches!(a, Some(Ok(_))) {
                            break;
                        }
                    }
                    Some(Some((line, cells))) => {
                        proptest::prop_assert_eq!(quoting.advance(), Some(Ok(line)));
                        proptest::prop_assert_eq!(cells, quoting.fields.len());
                        let plain_cells = Plain { text: &text, start, cells, ends: &ends };
                        for i in 0..cells.min(columns) {
                            proptest::prop_assert_eq!(plain_cells.text(i), quoting.field(i));
                        }
                    }
                }
                proptest::prop_assert_eq!((plain.pos, plain.line), (quoting.pos, quoting.line));
            }
        }
    }

    /// What a number cell is drawn from: digits, signs and junk.
    const NUMBER_PIECES: [&str; 16] = [
        "0", "1", "2", "5", "7", "9", "3", "8", "+", "-", "e", " ", "x", ".", "é", "\t",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        #[test]
        fn number_cells_decode_to_what_str_parse_gives(
            picks in proptest::collection::vec(0usize..NUMBER_PIECES.len(), 0..24),
            digits_only in proptest::any::<bool>(),
            sign in 0usize..3,
            quoted in proptest::any::<bool>(),
            last_newline in proptest::any::<bool>(),
        ) {
            // Half the cells are a sign and digits alone, of any length:
            // around the 18 and 19 digits past which a value may overflow.
            let piece = |i: usize| NUMBER_PIECES[if digits_only { i % 8 } else { i }];
            let sign = if digits_only { ["", "+", "-"][sign] } else { "" };
            let cell: String = std::iter::once(sign).chain(picks.iter().map(|&i| piece(i))).collect();
            let text = if quoted { format!("\"{cell}\"") } else { cell.clone() };
            let end = if last_newline { "\n" } else { "" };
            let mut r = TypeRegistry::new();
            r.register(Schema::new("N", vec![("n", ValueKind::Int)]));
            // As a time…
            let time = read_events(&format!("type,time,n\nN,{text},1{end}"), &r);
            let want = cell
                .parse::<u64>()
                .map_err(|_| format!("invalid time `{cell}`"));
            proptest::prop_assert_eq!(
                time.map(|e| e[0].time.ticks()).map_err(|e| e.message),
                want
            );
            // …and as an int, the row's last cell.
            let int = read_events(&format!("type,time,n\nN,1,{text}{end}"), &r);
            let want = if cell.is_empty() && !quoted {
                Err("empty cell for attribute `n` of `N`".to_string())
            } else {
                cell.parse::<i64>()
                    .map_err(|_| format!("`n`: invalid int `{cell}`"))
            };
            proptest::prop_assert_eq!(
                int.map(|e| e[0].attrs[0].clone()).map_err(|e| e.message),
                want.map(Value::Int)
            );
        }
    }

    #[test]
    fn bool_parsing() {
        let mut r = TypeRegistry::new();
        r.register(Schema::new("F", vec![("x", ValueKind::Bool)]));
        let events = read_events("type,time,x\nF,1,true\nF,2,0\n", &r).unwrap();
        assert_eq!(events[0].attrs[0], Value::Bool(true));
        assert_eq!(events[1].attrs[0], Value::Bool(false));
        assert!(read_events("type,time,x\nF,1,maybe\n", &r).is_err());
    }
}

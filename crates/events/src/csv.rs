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
//! Decoding is one pass over the document's bytes (`Records`): fields
//! are byte ranges of the text itself — only a cell containing `""` is
//! copied, into a buffer reused from record to record — and
//! [`EventReader::read_into`] parses them straight into a caller-owned
//! [`Event`], so a row of numbers costs no allocation at all.

use crate::event::{Event, EventId, Timestamp};
use crate::schema::{Schema, TypeId, TypeRegistry};
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

    /// Whether the current record is a blank line: one unquoted cell of
    /// nothing but white space.
    fn is_blank(&self) -> bool {
        self.fields.len() == 1 && !self.fields[0].quoted && self.field(0).trim().is_empty()
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
    registry: &'a TypeRegistry,
    records: Records<'a>,
    columns: Vec<String>,
    type_col: usize,
    time_col: usize,
    /// Per type id: field index of each schema attribute, resolved once
    /// on first sight of the type instead of per row × attribute.
    attr_cols: Vec<Option<Vec<usize>>>,
    /// Id of the next decoded event (ids are per reader, from 0).
    next_id: u64,
    /// Set after the first error: a failed decode poisons the stream
    /// (column state may be unreliable past a malformed row).
    done: bool,
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
            registry,
            records,
            columns,
            type_col,
            time_col,
            attr_cols: vec![None; registry.len()],
            next_id: 0,
            done: false,
        })
    }

    /// Decode the next row into `event`, overwriting its id, time, type
    /// and attributes in place (the attribute vector's allocation is
    /// kept): `None` at the end of the document, and after an error. On
    /// `Some(Err(_))` the event's contents are unspecified. The lending
    /// form of `Iterator::next` — same rows, same ids, same errors.
    pub fn read_into(&mut self, event: &mut Event) -> Option<Result<(), CsvError>> {
        if self.done {
            return None;
        }
        let result = loop {
            match self.records.advance()? {
                Ok(_) if self.records.is_blank() => continue,
                Ok(line_no) => break self.decode(line_no, event),
                Err(e) => break Err(e),
            }
        };
        self.done = result.is_err();
        Some(result)
    }

    fn decode(&mut self, line_no: usize, event: &mut Event) -> Result<(), CsvError> {
        let row = &self.records;
        if row.fields.len() != self.columns.len() {
            return Err(err(
                line_no,
                format!(
                    "expected {} fields, found {}",
                    self.columns.len(),
                    row.fields.len()
                ),
            ));
        }
        let type_name = row.field(self.type_col);
        let type_id = self
            .registry
            .id_of(type_name)
            .ok_or_else(|| err(line_no, format!("unknown event type `{type_name}`")))?;
        let time = row.field(self.time_col);
        let time: u64 = time
            .parse()
            .map_err(|_| err(line_no, format!("invalid time `{time}`")))?;
        let schema = self.registry.schema(type_id);
        let cols = attr_cols_of(
            &mut self.attr_cols[type_id.index()],
            schema,
            &self.columns,
            line_no,
        )?;
        event.attrs.clear();
        event.attrs.reserve(cols.len());
        for ((attr_name, kind), &col) in schema.iter().zip(cols) {
            let raw = row.field(col);
            if raw.is_empty() && !row.fields[col].quoted {
                return Err(err(
                    line_no,
                    format!("empty cell for attribute `{attr_name}` of `{type_name}`"),
                ));
            }
            event
                .attrs
                .push(parse_value(raw, kind, line_no, attr_name)?);
        }
        event.id = EventId(self.next_id);
        self.next_id += 1;
        event.time = Timestamp(time);
        event.type_id = type_id;
        Ok(())
    }
}

/// Field indices of a type's schema attributes, resolved into `slot` on
/// first use.
fn attr_cols_of<'s>(
    slot: &'s mut Option<Vec<usize>>,
    schema: &Schema,
    columns: &[String],
    line_no: usize,
) -> Result<&'s [usize], CsvError> {
    if slot.is_none() {
        let mut cols = Vec::with_capacity(schema.arity());
        for (attr_name, _) in schema.iter() {
            let col = columns.iter().position(|c| c == attr_name).ok_or_else(|| {
                err(
                    line_no,
                    format!("missing column for attribute `{attr_name}`"),
                )
            })?;
            cols.push(col);
        }
        *slot = Some(cols);
    }
    Ok(slot.as_deref().expect("filled above"))
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

fn parse_value(raw: &str, kind: ValueKind, line_no: usize, attr: &str) -> Result<Value, CsvError> {
    match kind {
        ValueKind::Int => raw
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| err(line_no, format!("`{attr}`: invalid int `{raw}`"))),
        ValueKind::Float => raw
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| err(line_no, format!("`{attr}`: invalid float `{raw}`"))),
        ValueKind::Bool => match raw {
            "true" | "1" => Ok(Value::Bool(true)),
            "false" | "0" => Ok(Value::Bool(false)),
            _ => Err(err(line_no, format!("`{attr}`: invalid bool `{raw}`"))),
        },
        ValueKind::Str => Ok(Value::str(raw)),
    }
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
        ];
        let text = write_events(&events, &reg);
        let back = read_events(&text, &reg).unwrap();
        assert_eq!(back, events);
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

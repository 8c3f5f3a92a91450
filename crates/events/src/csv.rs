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

use crate::event::Event;
use crate::schema::TypeRegistry;
use crate::stream::EventBuilder;
use crate::value::{Value, ValueKind};
use std::fmt;

/// Error produced while reading CSV events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based line number.
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

/// Split one CSV record honouring double-quote escaping.
fn split_record(line: &str, line_no: usize) -> Result<Vec<String>, CsvError> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if field.is_empty() => in_quotes = true,
            '"' => return Err(err(line_no, "unexpected quote inside unquoted field")),
            ',' if !in_quotes => fields.push(std::mem::take(&mut field)),
            c => field.push(c),
        }
    }
    if in_quotes {
        return Err(err(line_no, "unterminated quoted field"));
    }
    fields.push(field);
    Ok(fields)
}

fn quote(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Streaming CSV event decoder: an iterator of `Result<Event, CsvError>`
/// over the text, decoding one row at a time — no intermediate
/// `Vec<Event>`. This is THE decode path: [`read_events`] collects it,
/// the `cogra-run` CLI and `Session::run_csv` feed engines straight from
/// it, and the benchmark (`perfbench`) measures it.
///
/// The header must contain `type` and `time`; every other column is an
/// attribute name. Each row is parsed against its type's schema;
/// attribute columns not in that schema must be empty, and every schema
/// attribute must have a non-empty cell.
pub struct EventReader<'a> {
    registry: &'a TypeRegistry,
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    columns: Vec<String>,
    type_col: usize,
    time_col: usize,
    /// Per type id: field index of each schema attribute, resolved once
    /// on first sight of the type instead of per row × attribute.
    attr_cols: Vec<Option<Vec<usize>>>,
    builder: EventBuilder,
    /// Set after the first error: a failed decode poisons the stream
    /// (column state may be unreliable past a malformed row).
    done: bool,
}

impl<'a> EventReader<'a> {
    /// Parse the header and position the reader on the first data row.
    /// Empty input yields a reader that produces no events.
    pub fn new(text: &'a str, registry: &'a TypeRegistry) -> Result<EventReader<'a>, CsvError> {
        let mut lines = text.lines().enumerate();
        let (columns, type_col, time_col) = match lines.next() {
            None => (Vec::new(), 0, 0),
            Some((_, header)) => {
                let columns = split_record(header, 1)?;
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
            lines,
            columns,
            type_col,
            time_col,
            attr_cols: vec![None; registry.len()],
            builder: EventBuilder::new(),
            done: false,
        })
    }

    /// Field indices of `type_id`'s schema attributes (cached).
    fn attr_cols_of(
        &mut self,
        type_id: crate::schema::TypeId,
        line_no: usize,
    ) -> Result<&[usize], CsvError> {
        let slot = &mut self.attr_cols[type_id.index()];
        if slot.is_none() {
            let schema = self.registry.schema(type_id);
            let mut cols = Vec::with_capacity(schema.arity());
            for (attr_name, _) in schema.iter() {
                let col = self
                    .columns
                    .iter()
                    .position(|c| c == attr_name)
                    .ok_or_else(|| {
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

    fn decode(&mut self, line_no: usize, line: &str) -> Result<Event, CsvError> {
        let fields = split_record(line, line_no)?;
        if fields.len() != self.columns.len() {
            return Err(err(
                line_no,
                format!(
                    "expected {} fields, found {}",
                    self.columns.len(),
                    fields.len()
                ),
            ));
        }
        let type_name = &fields[self.type_col];
        let type_id = self
            .registry
            .id_of(type_name)
            .ok_or_else(|| err(line_no, format!("unknown event type `{type_name}`")))?;
        let time: u64 = fields[self.time_col]
            .parse()
            .map_err(|_| err(line_no, format!("invalid time `{}`", fields[self.time_col])))?;
        let registry = self.registry;
        let schema = registry.schema(type_id);
        let cols = self.attr_cols_of(type_id, line_no)?;
        let mut attrs = Vec::with_capacity(schema.arity());
        for ((attr_name, kind), &col) in schema.iter().zip(cols) {
            let raw = &fields[col];
            if raw.is_empty() {
                return Err(err(
                    line_no,
                    format!("empty cell for attribute `{attr_name}` of `{type_name}`"),
                ));
            }
            attrs.push(parse_value(raw, kind, line_no, attr_name)?);
        }
        Ok(self.builder.event(time, type_id, attrs))
    }
}

impl Iterator for EventReader<'_> {
    type Item = Result<Event, CsvError>;

    fn next(&mut self) -> Option<Result<Event, CsvError>> {
        if self.done {
            return None;
        }
        loop {
            let (i, line) = self.lines.next()?;
            if line.trim().is_empty() {
                continue;
            }
            let result = self.decode(i + 1, line);
            if result.is_err() {
                self.done = true;
            }
            return Some(result);
        }
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
/// [`read_events`]. The output round-trips: `read_events(&write_events(..))`
/// reproduces the stream (with fresh ids).
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
        out.push_str(&quote(a));
    }
    out.push('\n');
    for e in events {
        let schema = registry.schema(e.type_id);
        out.push_str(&quote(schema.name()));
        out.push(',');
        out.push_str(&e.time.ticks().to_string());
        for a in &attr_names {
            out.push(',');
            if let Some(id) = schema.attr(a) {
                out.push_str(&quote(&e.attr(id).to_string()));
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

    #[test]
    fn quoting_rules() {
        assert_eq!(
            split_record("a,\"b,c\",\"d\"\"e\"", 1).unwrap(),
            vec!["a", "b,c", "d\"e"]
        );
        assert!(split_record("\"open", 1).is_err());
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

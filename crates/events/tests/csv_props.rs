//! Properties of the CSV interchange format: whatever strings the events
//! carry — commas, quotes, `\n`, `\r`, nothing at all, blanks at either
//! end — `read_events(write_events(x)) == x`; and over well-formed and
//! damaged documents alike, the lending `EventReader::read_into` and the
//! `Iterator` yield the same events and the same errors.

use cogra_events::{
    read_events, write_events, CsvError, Event, EventBuilder, EventReader, TypeId, TypeRegistry,
    Value, ValueKind,
};
use proptest::prelude::*;

/// What the strings are drawn from: every character the format treats
/// specially, blanks, and a multi-byte one.
const ALPHABET: [char; 10] = ['a', 'Z', '7', ' ', '\t', ',', '"', '\n', '\r', 'é'];

/// Type and attribute names need quoting too.
fn registry() -> TypeRegistry {
    let mut r = TypeRegistry::new();
    r.register_type(
        "Plain",
        vec![
            ("n", ValueKind::Int),
            ("s", ValueKind::Str),
            ("t", ValueKind::Str),
        ],
    );
    r.register_type(
        "Odd, \"one\"",
        vec![
            ("s", ValueKind::Str),
            ("x\ny", ValueKind::Float),
            ("", ValueKind::Bool),
        ],
    );
    r
}

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..ALPHABET.len(), 0..7)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

/// `(which type, time step, an int, two strings)` per event.
type Row = (bool, u64, i64, String, String);

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        (
            any::<bool>(),
            0u64..3,
            -1000i64..1000,
            arb_string(),
            arb_string(),
        ),
        0..12,
    )
}

fn events_of(rows: &[Row]) -> Vec<Event> {
    let mut builder = EventBuilder::new();
    let mut time = 0;
    rows.iter()
        .map(|(odd, step, n, s, t)| {
            time += step;
            if *odd {
                let attrs = vec![
                    Value::str(s.as_str()),
                    Value::Float(*n as f64 / 8.0),
                    Value::Bool(n % 2 == 0),
                ];
                builder.event(time, TypeId(1), attrs)
            } else {
                let attrs = vec![
                    Value::Int(*n),
                    Value::str(s.as_str()),
                    Value::str(t.as_str()),
                ];
                builder.event(time, TypeId(0), attrs)
            }
        })
        .collect()
}

/// Every item either reader form yields, the poisoning error included.
fn by_iterator(text: &str, registry: &TypeRegistry) -> Vec<Result<Event, CsvError>> {
    match EventReader::new(text, registry) {
        Ok(reader) => reader.collect(),
        Err(e) => vec![Err(e)],
    }
}

fn by_read_into(text: &str, registry: &TypeRegistry) -> Vec<Result<Event, CsvError>> {
    let mut reader = match EventReader::new(text, registry) {
        Ok(reader) => reader,
        Err(e) => return vec![Err(e)],
    };
    // Deliberately stale contents: every field must be overwritten.
    let mut event = Event::new(77, 77, TypeId(1), vec![Value::Int(7); 5]);
    let mut out = Vec::new();
    while let Some(row) = reader.read_into(&mut event) {
        out.push(row.map(|()| event.clone()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn written_events_read_back_equal(rows in arb_rows()) {
        let registry = registry();
        let events = events_of(&rows);
        let text = write_events(&events, &registry);
        prop_assert_eq!(read_events(&text, &registry), Ok(events));
    }

    #[test]
    fn both_reader_forms_agree(
        rows in arb_rows(),
        edits in proptest::collection::vec((0usize..4096, 0usize..ALPHABET.len() + 1), 0..4),
    ) {
        let registry = registry();
        let mut text: Vec<char> = write_events(&events_of(&rows), &registry).chars().collect();
        // Damage the document: overwrite or delete a few characters.
        for (at, pick) in edits {
            let at = at % text.len();
            match ALPHABET.get(pick) {
                Some(&c) => text[at] = c,
                None => {
                    text.remove(at);
                }
            }
        }
        let text: String = text.into_iter().collect();
        let whole = by_iterator(&text, &registry);
        prop_assert_eq!(&by_read_into(&text, &registry), &whole);
        // An error ends the stream.
        let errors = whole.iter().filter(|item| item.is_err()).count();
        prop_assert!(errors == 0 || (errors == 1 && whole.last().is_some_and(Result::is_err)));
    }
}

//! The wire protocol shared by [`Server`](crate::Server),
//! [`Client`](crate::Client), the CLI and the end-to-end tests.
//!
//! Line-delimited UTF-8 text. Clients send one command per line; the
//! server answers each command with exactly one `OK ...` or `ERR ...`
//! line on the same connection. A connection that issues `SUBSCRIBE`
//! becomes a pure result stream: the server pushes one `RESULT` line per
//! finalized window result, then one `EOS` line when the session
//! finishes.
//!
//! ```text
//! client → server
//!   INGEST <n>          the next n lines are one CSV document
//!                       (header first — the cogra_events::csv format).
//!                       n counts physical lines: a quoted cell may hold
//!                       newlines, each of which counts. Capped at
//!                       1000000 lines, 1 MiB a line, 64 MiB a block.
//!   SUBSCRIBE <q>       q = "q<i>" (one query) or "*" (all queries)
//!   DRAIN               flush + emit everything final at the watermark
//!   STATS               report counters (see cogra_core::Metrics)
//!   SNAPSHOT <path>     checkpoint the live session to a server-side file
//!                       (restore it via `cogra-run serve --restore`)
//!   FINISH              end of stream: close every window, end subscribers
//!   QUIT                close this connection
//!
//! server → client
//!   OK <key=value ...>  command succeeded (SUBSCRIBE, SNAPSHOT and QUIT
//!                       answer with words of their own)
//!   ERR <message>       command failed (message = the IngestError /
//!                       protocol error display, identical to the CLI's)
//!   RESULT q<i> <row>   pushed to subscribers as windows close
//!   EOS                 subscription over (session finished)
//! ```
//!
//! Results are serialized with [`encode_result`] — the same
//! `WindowResult` `Display` the CLI prints — so a socket-served run is
//! byte-comparable against an in-process [`Session`] run
//! (`tests/server_e2e_props.rs` pins this). The server encodes with
//! [`push_result_line`] into a buffer per subscriber and writes each
//! buffer once per drain: the lines of one drain arrive together, in
//! emission order.
//!
//! The `OK` payload of `INGEST`, `DRAIN`, `STATS` and `FINISH` is
//! [`Metrics::encode`] of [`Session::metrics`], with `ingested` set in an
//! `INGEST` reply; [`Metrics::decode`] reads it back.
//!
//! [`Session`]: cogra_core::session::Session
//! [`Session::metrics`]: cogra_core::session::Session::metrics
//! [`Metrics::encode`]: cogra_core::Metrics::encode
//! [`Metrics::decode`]: cogra_core::Metrics::decode

use cogra_engine::WindowResult;

/// Pushed-result line prefix.
pub const RESULT: &str = "RESULT";
/// End-of-subscription marker line.
pub const EOS: &str = "EOS";
/// Success reply prefix.
pub const OK: &str = "OK";
/// Failure reply prefix.
pub const ERR: &str = "ERR";

/// Serialize one finalized result of query `query` as a `RESULT` line
/// (without the trailing newline).
pub fn encode_result(query: usize, result: &WindowResult) -> String {
    let mut line = Vec::new();
    push_result_line(&mut line, query, result);
    line.pop();
    String::from_utf8(line).expect("`Display` writes UTF-8")
}

/// Append the `RESULT` line of [`encode_result`], newline included, to
/// `out` — how the server fills a subscriber's write buffer without a
/// `String` per result.
pub fn push_result_line(out: &mut Vec<u8>, query: usize, result: &WindowResult) {
    use std::io::Write;
    writeln!(out, "{RESULT} q{query} {result}").expect("writing to a `Vec` cannot fail");
}

/// Parse the payload of a `RESULT` line (everything after the `RESULT `
/// prefix) back into `(query, row)`. The row stays text — byte-identical
/// comparison is the point, not re-materializing `WindowResult`s.
pub fn decode_result(payload: &str) -> Result<(usize, &str), String> {
    let (q, row) = payload
        .split_once(' ')
        .ok_or_else(|| format!("malformed RESULT payload `{payload}`"))?;
    let query = q
        .strip_prefix('q')
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("malformed query tag `{q}`"))?;
    Ok((query, row))
}

/// Parse a `SUBSCRIBE` argument: `*` (all queries) or `q<i>`.
pub fn parse_subscription(arg: &str) -> Result<Option<usize>, String> {
    if arg == "*" {
        return Ok(None);
    }
    arg.strip_prefix('q')
        .and_then(|n| n.parse().ok())
        .map(Some)
        .ok_or_else(|| format!("bad subscription `{arg}` (expected q<i> or *)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogra_core::Metrics;

    #[test]
    fn stats_round_trip() {
        let stats = Metrics {
            ingested: 4,
            events: 10,
            late: 2,
            results: 7,
            watermark: 99,
            queries: 3,
            workers: 4,
            memory: 4096,
            key_probes: 10,
            key_allocs: 3,
            shard_events: vec![6, 0, 4, 0],
            degraded: vec![1, 3],
            dropped: 5,
            physical: 2,
            finished: true,
        };
        assert_eq!(Metrics::decode(&stats.encode()).unwrap(), stats);
        // Empty shard/degraded lists and a zero drop count are omitted
        // and decode back to their defaults — healthy replies stay
        // byte-identical to pre-supervision servers.
        let bare = Metrics::default();
        assert!(!bare.encode().contains("shards="));
        assert!(!bare.encode().contains("degraded="));
        assert!(!bare.encode().contains("dropped="));
        assert!(!bare.encode().contains("physical="));
        assert_eq!(Metrics::decode(&bare.encode()).unwrap(), bare);
        // `physical=` appears only when sharing collapsed the roster.
        let unshared = Metrics {
            queries: 3,
            physical: 3,
            ..Metrics::default()
        };
        assert!(!unshared.encode().contains("physical="));
        assert_eq!(Metrics::decode(&unshared.encode()).unwrap().physical, 0);
        // Unknown keys are ignored; malformed pairs are not.
        assert_eq!(
            Metrics::decode("events=5 future_field=1").unwrap().events,
            5
        );
        assert!(Metrics::decode("events").is_err());
        assert!(Metrics::decode("events=x").is_err());
        assert!(Metrics::decode("shards=1,x").is_err());
    }

    #[test]
    fn subscription_args() {
        assert_eq!(parse_subscription("*").unwrap(), None);
        assert_eq!(parse_subscription("q2").unwrap(), Some(2));
        assert!(parse_subscription("2").is_err());
        assert!(parse_subscription("qx").is_err());
    }

    #[test]
    fn result_round_trip() {
        let (q, row) = decode_result("q1 w0 [7] → 9").unwrap();
        assert_eq!((q, row), (1, "w0 [7] → 9"));
        assert!(decode_result("nope").is_err());
        assert!(decode_result("x1 w0").is_err());
    }
}

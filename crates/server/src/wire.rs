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
//!   STATS               report counters (see StatsReport)
//!   SNAPSHOT <path>     checkpoint the live session to a server-side file
//!                       (restore it via `cogra-run serve --restore`)
//!   FINISH              end of stream: close every window, end subscribers
//!   QUIT                close this connection
//!
//! server → client
//!   OK <key=value ...>  command succeeded
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
//! [`Session`]: cogra_core::session::Session

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

/// The counters surfaced by `STATS` (and, minus the mirrors, by
/// `FINISH`): session progress, watermark, late drops and the routing
/// hot-path statistics, as `key=value` pairs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsReport {
    /// Events accepted by the replied-to command (`INGEST` replies only;
    /// 0 in every other reply — the cumulative count is `events`).
    pub ingested: u64,
    /// Events ingested so far (including any later dropped as late).
    pub events: u64,
    /// Late events dropped by the `.slack(n)` repair.
    pub late: u64,
    /// Results emitted to sinks so far.
    pub results: u64,
    /// Current session watermark, in ticks.
    pub watermark: u64,
    /// Queries served by the session.
    pub queries: usize,
    /// Effective shard count (1 unless `.workers(n)` applies).
    pub workers: usize,
    /// Logical memory footprint, as of the last drain.
    pub memory: usize,
    /// Routing interner probes ([`cogra_engine::RunStats`]).
    pub key_probes: u64,
    /// First-seen key materializations.
    pub key_allocs: u64,
    /// Events ingested per shard worker slot, as of the last drain — the
    /// spread between entries is the hot-key imbalance a skewed group
    /// distribution produces. One entry in streaming mode; empty only in
    /// replies from servers predating the field.
    pub shard_events: Vec<u64>,
    /// Shards quarantined under `FailurePolicy::Degrade`, in index order
    /// — empty on a healthy session.
    pub degraded: Vec<usize>,
    /// Events lost to quarantines — 0 on a healthy session.
    pub dropped: u64,
    /// Physical runs actually executing under multi-query sharing
    /// (M ≤ `queries`). 0 when the session shares nothing — the key is
    /// emitted only when sharing collapsed the roster.
    pub physical: usize,
    /// Whether `FINISH` has been processed.
    pub finished: bool,
}

impl StatsReport {
    /// Encode as the `key=value ...` payload of the `STATS` reply.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "ingested={} events={} late={} results={} watermark={} queries={} workers={} \
             memory={} key_probes={} key_allocs={}",
            self.ingested,
            self.events,
            self.late,
            self.results,
            self.watermark,
            self.queries,
            self.workers,
            self.memory,
            self.key_probes,
            self.key_allocs,
        );
        // Omitted when empty: `shards=` with no entries would not parse,
        // and old decoders ignore the key anyway.
        if !self.shard_events.is_empty() {
            out.push_str(" shards=");
            for (i, n) in self.shard_events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&n.to_string());
            }
        }
        // Degraded-status keys appear only on an unhealthy session, so
        // healthy replies are byte-identical to pre-supervision servers.
        if !self.degraded.is_empty() {
            out.push_str(" degraded=");
            for (i, s) in self.degraded.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&s.to_string());
            }
        }
        if self.dropped > 0 {
            out.push_str(&format!(" dropped={}", self.dropped));
        }
        // Emitted only when sharing collapsed the roster (M < N): replies
        // from an unshared session are byte-identical to older servers.
        if self.physical > 0 && self.physical < self.queries {
            out.push_str(&format!(" physical={}", self.physical));
        }
        out.push_str(&format!(" finished={}", self.finished));
        out
    }

    /// Decode a `STATS` reply payload. Unknown keys are ignored so the
    /// protocol can grow fields without breaking old clients.
    pub fn decode(payload: &str) -> Result<StatsReport, String> {
        let mut out = StatsReport::default();
        for pair in payload.split_whitespace() {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("malformed stats pair `{pair}`"))?;
            let bad = || format!("bad value for `{key}`: `{value}`");
            match key {
                "ingested" => out.ingested = value.parse().map_err(|_| bad())?,
                "events" => out.events = value.parse().map_err(|_| bad())?,
                "late" => out.late = value.parse().map_err(|_| bad())?,
                "results" => out.results = value.parse().map_err(|_| bad())?,
                "watermark" => out.watermark = value.parse().map_err(|_| bad())?,
                "queries" => out.queries = value.parse().map_err(|_| bad())?,
                "workers" => out.workers = value.parse().map_err(|_| bad())?,
                "memory" => out.memory = value.parse().map_err(|_| bad())?,
                "key_probes" => out.key_probes = value.parse().map_err(|_| bad())?,
                "key_allocs" => out.key_allocs = value.parse().map_err(|_| bad())?,
                "shards" => {
                    out.shard_events = value
                        .split(',')
                        .map(|v| v.parse().map_err(|_| bad()))
                        .collect::<Result<_, _>>()?
                }
                "degraded" => {
                    out.degraded = value
                        .split(',')
                        .map(|v| v.parse().map_err(|_| bad()))
                        .collect::<Result<_, _>>()?
                }
                "dropped" => out.dropped = value.parse().map_err(|_| bad())?,
                "physical" => out.physical = value.parse().map_err(|_| bad())?,
                "finished" => out.finished = value.parse().map_err(|_| bad())?,
                _ => {}
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_round_trip() {
        let stats = StatsReport {
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
        assert_eq!(StatsReport::decode(&stats.encode()).unwrap(), stats);
        // Empty shard/degraded lists and a zero drop count are omitted
        // and decode back to their defaults — healthy replies stay
        // byte-identical to pre-supervision servers.
        let bare = StatsReport::default();
        assert!(!bare.encode().contains("shards="));
        assert!(!bare.encode().contains("degraded="));
        assert!(!bare.encode().contains("dropped="));
        assert!(!bare.encode().contains("physical="));
        assert_eq!(StatsReport::decode(&bare.encode()).unwrap(), bare);
        // `physical=` appears only when sharing collapsed the roster.
        let unshared = StatsReport {
            queries: 3,
            physical: 3,
            ..StatsReport::default()
        };
        assert!(!unshared.encode().contains("physical="));
        assert_eq!(StatsReport::decode(&unshared.encode()).unwrap().physical, 0);
        // Unknown keys are ignored; malformed pairs are not.
        assert_eq!(
            StatsReport::decode("events=5 future_field=1")
                .unwrap()
                .events,
            5
        );
        assert!(StatsReport::decode("events").is_err());
        assert!(StatsReport::decode("events=x").is_err());
        assert!(StatsReport::decode("shards=1,x").is_err());
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

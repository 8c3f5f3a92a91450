//! [`Metrics`]: a session's counters, defined once.
//!
//! [`Session::metrics`] is the one read; every other surface is a view of
//! it — [`SessionRun`]'s counter fields, the `Session` accessors that
//! project one field, and the server's `OK` replies, whose payload is
//! [`Metrics::encode`] (and [`Metrics::decode`] on the client). That
//! `key=value` line is the `STATS` format's `v1`.
//!
//! [`Session::metrics`]: crate::session::Session::metrics
//! [`SessionRun`]: crate::session::SessionRun

/// A session's counters: progress, watermark, late drops, the routing
/// hot-path statistics and the shards' health.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Metrics {
    /// Events accepted by the replied-to `INGEST` block (set by the
    /// server; 0 in every other reply and in [`Session::metrics`] — the
    /// cumulative count is `events`).
    ///
    /// [`Session::metrics`]: crate::session::Session::metrics
    pub ingested: u64,
    /// Events handed to the session since it was built or restored
    /// (including any later dropped as late).
    pub events: u64,
    /// Late events dropped by the `.slack(n)` repair.
    pub late: u64,
    /// Results emitted to sinks so far, one per query a result fans out to.
    pub results: u64,
    /// Current session watermark, in ticks.
    pub watermark: u64,
    /// Queries served by the session.
    pub queries: usize,
    /// Effective shard count (1 unless `.workers(n)` applies).
    pub workers: usize,
    /// Logical memory footprint: current at width 1, as of each worker's
    /// last drain under `.workers(n)`.
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
    /// Events lost to quarantines: what a dead shard had absorbed plus
    /// later events whose pinned query had no live fallback — 0 on a
    /// healthy session.
    pub dropped: u64,
    /// Physical runs actually executing under multi-query sharing
    /// (M ≤ `queries`). Encoded only when sharing collapsed the roster;
    /// a decoded line without the key leaves it 0.
    pub physical: usize,
    /// Whether the session has finished.
    pub finished: bool,
}

impl Metrics {
    /// Encode as the `key=value ...` payload of a `STATS` reply.
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
    pub fn decode(payload: &str) -> Result<Metrics, String> {
        let mut out = Metrics::default();
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

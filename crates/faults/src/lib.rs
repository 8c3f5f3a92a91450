//! # cogra-faults — deterministic fault injection
//!
//! A tiny failpoint library for chaos testing the runtime. The runtime
//! crates (`cogra-checkpoint`, `cogra-core`, `cogra-server`) call its two
//! site functions, [`message`] and [`io_error`], at every injection site;
//! unless the `armed` feature is on — each of those crates' `faults`
//! feature turns it on — both are `None`, the site's name is never
//! formatted, and the call compiles to nothing.
//!
//! Three pieces:
//!
//! * a global **failpoint registry** keyed by site name (`"worker/batch/0"`,
//!   `"checkpoint/write"`, ...). Each site carries a [`Trigger`] deciding
//!   on which hit it fires. An armed site asks [`fired`] and yields its
//!   fault only when that returns true.
//! * **seed-driven schedules**: [`SeedSequence`] is a splitmix64 stream so
//!   a test can derive arbitrary-but-reproducible `Trigger::OnHit` counts
//!   from one `u64` seed and shrink over it.
//! * injectable IO: [`FaultyWriter`] / [`FaultyReader`] wrap any
//!   `Write`/`Read` and fail with a pinned error after N bytes — the
//!   "disk full mid-snapshot" and "connection reset mid-read" stand-ins.
//!
//! Configuration is programmatic ([`configure`]) or, for subprocess tests
//! (the CLI, the server binary), via the `COGRA_FAULTS` environment
//! variable: a comma-separated list of `site=always`, `site=hit:N`, or
//! `site=never`, parsed once on first registry access.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::{Mutex, Once, OnceLock};

/// When a failpoint fires, relative to the per-site hit counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Never fires (registered but disarmed).
    Never,
    /// Fires on every hit.
    Always,
    /// Fires exactly once, on the `n`-th hit (1-based).
    OnHit(u64),
}

#[derive(Debug)]
struct SiteState {
    trigger: Trigger,
    hits: u64,
}

fn registry() -> &'static Mutex<HashMap<String, SiteState>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, SiteState>>> = OnceLock::new();
    static ENV_INIT: Once = Once::new();
    let reg = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    ENV_INIT.call_once(|| {
        if let Ok(spec) = std::env::var("COGRA_FAULTS") {
            let mut map = reg.lock().unwrap_or_else(|e| e.into_inner());
            for (site, trigger) in parse_spec(&spec) {
                map.insert(site, SiteState { trigger, hits: 0 });
            }
        }
    });
    reg
}

/// Parse a `COGRA_FAULTS`-style spec: `site=always,other=hit:3`.
/// Malformed entries are ignored (fault config must never crash the
/// process it is trying to test).
fn parse_spec(spec: &str) -> Vec<(String, Trigger)> {
    let mut out = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let Some((site, rule)) = entry.split_once('=') else {
            continue;
        };
        let trigger = if rule == "always" {
            Trigger::Always
        } else if rule == "never" {
            Trigger::Never
        } else if let Some(n) = rule.strip_prefix("hit:") {
            match n.parse::<u64>() {
                Ok(n) if n > 0 => Trigger::OnHit(n),
                _ => continue,
            }
        } else {
            continue;
        };
        out.push((site.to_string(), trigger));
    }
    out
}

/// Arm `site` with `trigger`, resetting its hit counter.
pub fn configure(site: &str, trigger: Trigger) {
    let mut map = registry().lock().unwrap_or_else(|e| e.into_inner());
    map.insert(site.to_string(), SiteState { trigger, hits: 0 });
}

/// Disarm every site and zero every counter.
pub fn reset() {
    let mut map = registry().lock().unwrap_or_else(|e| e.into_inner());
    map.clear();
}

/// Record a hit at `site` and report whether the failpoint fires.
/// Unregistered sites count hits but never fire.
pub fn fired(site: &str) -> bool {
    let mut map = registry().lock().unwrap_or_else(|e| e.into_inner());
    let state = map.entry(site.to_string()).or_insert(SiteState {
        trigger: Trigger::Never,
        hits: 0,
    });
    state.hits += 1;
    match state.trigger {
        Trigger::Never => false,
        Trigger::Always => true,
        Trigger::OnHit(n) => state.hits == n,
    }
}

/// How many times `site` has been hit since it was configured (0 if never
/// hit). Lets tests assert a schedule actually reached its site.
pub fn hits(site: &str) -> u64 {
    let map = registry().lock().unwrap_or_else(|e| e.into_inner());
    map.get(site).map_or(0, |s| s.hits)
}

/// The fault-injection site `site`, named by `format_args!`. Armed, it
/// records a hit there and, when the schedule fires it, yields the pinned
/// message `injected fault at <site>`; disarmed it is `None`.
#[inline(always)]
pub fn message(site: fmt::Arguments<'_>) -> Option<String> {
    if !cfg!(feature = "armed") {
        return None;
    }
    let site = site.to_string();
    fired(&site).then(|| format!("injected fault at {site}"))
}

/// [`message`] as the `io::Error` an I/O path fails with.
#[inline(always)]
pub fn io_error(site: fmt::Arguments<'_>) -> Option<io::Error> {
    message(site).map(io::Error::other)
}

/// A splitmix64 stream: arbitrary-but-reproducible values from one seed,
/// for deriving deterministic fault schedules in tests.
#[derive(Debug, Clone)]
pub struct SeedSequence {
    state: u64,
}

impl SeedSequence {
    pub fn new(seed: u64) -> SeedSequence {
        SeedSequence { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A value in `[1, bound]` — the shape `Trigger::OnHit` wants.
    pub fn next_hit(&mut self, bound: u64) -> u64 {
        1 + self.next_u64() % bound.max(1)
    }
}

/// A writer that accepts exactly `limit` bytes and then fails every
/// subsequent write with a pinned "injected write failure" error. The
/// boundary write is short (partial), modeling a disk filling up.
pub struct FaultyWriter<W> {
    inner: W,
    limit: u64,
    written: u64,
}

impl<W: Write> FaultyWriter<W> {
    pub fn new(inner: W, limit: u64) -> FaultyWriter<W> {
        FaultyWriter {
            inner,
            limit,
            written: 0,
        }
    }

    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let room = self.limit.saturating_sub(self.written);
        if room == 0 {
            return Err(io::Error::other("injected write failure"));
        }
        let take = (buf.len() as u64).min(room) as usize;
        let n = self.inner.write(&buf[..take])?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A reader that yields exactly `limit` bytes and then fails every
/// subsequent read with a pinned "injected read failure" error —
/// a connection reset mid-stream.
pub struct FaultyReader<R> {
    inner: R,
    limit: u64,
    read: u64,
}

impl<R: Read> FaultyReader<R> {
    pub fn new(inner: R, limit: u64) -> FaultyReader<R> {
        FaultyReader {
            inner,
            limit,
            read: 0,
        }
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let room = self.limit.saturating_sub(self.read);
        if room == 0 {
            return Err(io::Error::other("injected read failure"));
        }
        let take = (buf.len() as u64).min(room) as usize;
        let n = self.inner.read(&mut buf[..take])?;
        self.read += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The registry is process-global; serialize tests that touch it.
    fn guard() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn on_hit_fires_exactly_once() {
        let _g = guard();
        reset();
        configure("t/once", Trigger::OnHit(3));
        let fires: Vec<bool> = (0..5).map(|_| fired("t/once")).collect();
        assert_eq!(fires, vec![false, false, true, false, false]);
        assert_eq!(hits("t/once"), 5);
    }

    #[test]
    fn always_and_never_behave() {
        let _g = guard();
        reset();
        configure("t/always", Trigger::Always);
        configure("t/never", Trigger::Never);
        assert!(fired("t/always") && fired("t/always"));
        assert!(!fired("t/never"));
        assert!(!fired("t/unregistered"));
        assert_eq!(hits("t/unregistered"), 1);
    }

    #[test]
    fn spec_parsing_accepts_good_and_skips_bad() {
        let parsed = parse_spec("a=always, b=hit:2 ,c=never,junk,d=hit:0,e=maybe");
        assert_eq!(
            parsed,
            vec![
                ("a".to_string(), Trigger::Always),
                ("b".to_string(), Trigger::OnHit(2)),
                ("c".to_string(), Trigger::Never),
            ]
        );
    }

    #[test]
    fn seed_sequence_is_deterministic() {
        let mut a = SeedSequence::new(42);
        let mut b = SeedSequence::new(42);
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SeedSequence::new(43);
        assert_ne!(SeedSequence::new(42).next_u64(), c.next_u64());
        let mut d = SeedSequence::new(7);
        for _ in 0..100 {
            let h = d.next_hit(10);
            assert!((1..=10).contains(&h));
        }
    }

    #[test]
    fn faulty_writer_fails_after_limit() {
        let mut w = FaultyWriter::new(Vec::new(), 10);
        assert_eq!(w.write(b"hello").unwrap(), 5);
        // Boundary write is short: only 5 of 8 bytes fit.
        assert_eq!(w.write(b"world!!!").unwrap(), 5);
        let err = w.write(b"x").unwrap_err();
        assert_eq!(err.to_string(), "injected write failure");
        assert_eq!(w.bytes_written(), 10);
        assert_eq!(w.into_inner(), b"helloworld");
    }

    #[test]
    fn faulty_reader_fails_after_limit() {
        let data = b"abcdefgh".to_vec();
        let mut r = FaultyReader::new(&data[..], 6);
        let mut buf = [0u8; 16];
        assert_eq!(r.read(&mut buf).unwrap(), 6);
        let err = r.read(&mut buf).unwrap_err();
        assert_eq!(err.to_string(), "injected read failure");
    }
}

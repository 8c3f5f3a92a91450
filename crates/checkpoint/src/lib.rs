//! # cogra-checkpoint
//!
//! The versioned binary snapshot format behind `Session::checkpoint` /
//! `SessionBuilder::restore` — the durability subsystem's wire layer.
//!
//! A snapshot is:
//!
//! ```text
//! [magic "COGRASNP": 8 bytes][format version: u32 LE]
//! [section]*
//! [end marker: a section with the empty name and no payload]
//! ```
//!
//! where every section is independently checksummed:
//!
//! ```text
//! [name: u64 length + UTF-8 bytes][payload length: u64][crc32: u32][payload]
//! ```
//!
//! The framing makes every corruption class *typed* ([`CheckpointError`])
//! instead of a panic: a short file is [`CheckpointError::Truncated`]
//! (the end marker is mandatory, so truncation at a section boundary is
//! still detected), a foreign file is [`CheckpointError::BadMagic`], a
//! snapshot from a newer build is [`CheckpointError::FutureVersion`],
//! one from a format this build no longer reads is
//! [`CheckpointError::RetiredVersion`], and a flipped payload bit is [`CheckpointError::Checksum`] naming the
//! section it hit.
//!
//! Section payloads are built with [`Enc`] and parsed with [`Dec`] — a
//! minimal little-endian primitive codec. What goes *into* the payloads
//! (interner tables, window rings, reorder buffers, …) is defined by the
//! state owners themselves (`cogra-events`, `cogra-engine`, `cogra-core`,
//! `cogra-baselines`), keeping private invariants private; this crate
//! only owns bytes, checksums and error taxonomy.

#![warn(missing_docs)]

use std::fmt;
use std::io::{self, Read, Write};
use std::sync::OnceLock;

/// Leading magic bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"COGRASNP";

/// The snapshot format version this build writes, and the only one it
/// reads: an older header is [`CheckpointError::RetiredVersion`], a newer
/// one [`CheckpointError::FutureVersion`]. In version 5 a pattern- or
/// mixed-grained window keeps of a matched event its time stamp and the
/// plan's stored projection, every engine section records the window spec
/// and the clock it was written under, and the `reorder` section holds
/// each in-flight event once, as its arrival stamp and the event, whichever
/// queries want it.
pub const FORMAT_VERSION: u32 = 5;

/// Typed failure of writing or reading a snapshot. Every corruption class
/// maps to its own variant — restore never panics on bad bytes.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying reader/writer failed.
    Io(io::Error),
    /// The snapshot ends before its structure does (missing end marker,
    /// short section header or payload).
    Truncated,
    /// The file does not start with the snapshot magic — not a snapshot.
    BadMagic,
    /// The snapshot was written by a newer format than this build reads.
    FutureVersion {
        /// Version found in the snapshot header.
        found: u32,
        /// The version this build reads ([`FORMAT_VERSION`]).
        supported: u32,
    },
    /// The snapshot was written by an older format this build no longer
    /// reads.
    RetiredVersion {
        /// Version found in the snapshot header.
        found: u32,
        /// The version this build reads ([`FORMAT_VERSION`]).
        supported: u32,
    },
    /// A section's payload does not match its stored checksum.
    Checksum {
        /// Name of the damaged section.
        section: String,
    },
    /// Structurally invalid content inside an intact section.
    Corrupt(String),
    /// The requested operation cannot be performed on this session state
    /// (e.g. checkpointing a finished session, or combining `restore`
    /// with builder options the snapshot already fixes).
    Unsupported(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o error: {e}"),
            CheckpointError::Truncated => write!(f, "truncated snapshot"),
            CheckpointError::BadMagic => write!(f, "not a cogra snapshot (bad magic)"),
            CheckpointError::FutureVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is newer than supported version {supported}"
            ),
            CheckpointError::RetiredVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is older than supported version {supported}"
            ),
            CheckpointError::Checksum { section } => {
                write!(f, "checksum mismatch in section `{section}`")
            }
            CheckpointError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            CheckpointError::Unsupported(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3 polynomial), table-driven; the table is built once.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in data {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Little-endian primitive encoder for section payloads.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty payload buffer.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` by bit pattern (NaN-exact).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Append a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append an optional `u64` (presence byte + value).
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.bool(true);
                self.u64(v);
            }
            None => self.bool(false),
        }
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed byte blob.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// The accumulated payload.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consume into the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian primitive decoder over a section payload. Every read
/// past the end is [`CheckpointError::Truncated`].
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(CheckpointError::Truncated)?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64, CheckpointError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `bool`; anything but 0/1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CheckpointError::Corrupt(format!("bad bool byte {b}"))),
        }
    }

    /// Read a `usize` stored as `u64`, checked against the platform width.
    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?)
            .map_err(|_| CheckpointError::Corrupt("length overflows usize".into()))
    }

    /// Read an optional `u64` (presence byte + value).
    pub fn opt_u64(&mut self) -> Result<Option<u64>, CheckpointError> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CheckpointError> {
        let n = self.usize()?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| CheckpointError::Corrupt("invalid UTF-8 string".into()))
    }

    /// Read a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the payload was consumed exactly — trailing garbage inside
    /// an intact (checksummed) section means a structure bug, surfaced as
    /// [`CheckpointError::Corrupt`].
    pub fn finish(&self, what: &str) -> Result<(), CheckpointError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt(format!(
                "{} trailing byte(s) after {what}",
                self.remaining()
            )))
        }
    }
}

/// Crash-safe snapshot write: serialize via `emit` into memory, write to
/// `{path}.tmp`, `sync_all`, then atomically rename over `path`.
///
/// The contract every caller (CLI `--checkpoint`, server `SNAPSHOT`,
/// SIGTERM snapshot) relies on: **the final path either still holds its
/// previous contents or holds a complete, synced snapshot — never a
/// partial one.** An `emit` failure (e.g. [`CheckpointError::Unsupported`])
/// creates no file at all; an IO failure may leave `{path}.tmp` debris but
/// never touches `path`.
///
/// With the `faults` feature on, two failpoints model the crash classes:
/// `checkpoint/write` (process dies mid-write — half the bytes land in the
/// tmp file, which stays behind exactly as a real crash would leave it)
/// and `checkpoint/rename` (dies between sync and rename).
pub fn write_atomic(
    path: &str,
    emit: impl FnOnce(&mut Vec<u8>) -> Result<(), CheckpointError>,
) -> Result<(), CheckpointError> {
    let mut bytes = Vec::new();
    emit(&mut bytes)?;
    let tmp = format!("{path}.tmp");
    let mut file = std::fs::File::create(&tmp)?;
    if let Some(crash) = cogra_faults::io_error(format_args!("checkpoint/write")) {
        // A crash mid-write: a prefix of the bytes lands in the tmp file
        // and nobody cleans up — the final path must survive this.
        let _ = file.write_all(&bytes[..bytes.len() / 2]);
        return Err(CheckpointError::Io(crash));
    }
    file.write_all(&bytes)?;
    file.sync_all()?;
    drop(file);
    if let Some(crash) = cogra_faults::io_error(format_args!("checkpoint/rename")) {
        return Err(CheckpointError::Io(crash));
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Writes the snapshot header and checksummed sections to any
/// [`Write`] sink.
pub struct SnapshotWriter<W: Write> {
    w: W,
}

impl<W: Write> SnapshotWriter<W> {
    /// Write the magic + format version header.
    pub fn new(mut w: W) -> Result<SnapshotWriter<W>, CheckpointError> {
        w.write_all(&MAGIC)?;
        w.write_all(&FORMAT_VERSION.to_le_bytes())?;
        Ok(SnapshotWriter { w })
    }

    /// Append one named, checksummed section. The empty name is reserved
    /// for the end marker.
    pub fn section(&mut self, name: &str, payload: &[u8]) -> Result<(), CheckpointError> {
        debug_assert!(!name.is_empty(), "the empty name is the end marker");
        self.frame(name, payload)
    }

    fn frame(&mut self, name: &str, payload: &[u8]) -> Result<(), CheckpointError> {
        self.w.write_all(&(name.len() as u64).to_le_bytes())?;
        self.w.write_all(name.as_bytes())?;
        self.w.write_all(&(payload.len() as u64).to_le_bytes())?;
        self.w.write_all(&crc32(payload).to_le_bytes())?;
        self.w.write_all(payload)?;
        Ok(())
    }

    /// Write the end marker and flush. A snapshot without it reads back
    /// as [`CheckpointError::Truncated`].
    pub fn finish(mut self) -> Result<(), CheckpointError> {
        self.frame("", &[])?;
        self.w.flush()?;
        Ok(())
    }
}

/// Reads a snapshot back: verifies magic and version up front, then
/// yields `(name, payload)` sections with per-section checksum checks.
#[derive(Debug)]
pub struct SnapshotReader {
    data: Vec<u8>,
    pos: usize,
    done: bool,
}

impl SnapshotReader {
    /// Slurp and validate the header. Magic and version failures are
    /// detected here; section damage surfaces from
    /// [`SnapshotReader::next_section`].
    pub fn new(mut r: impl Read) -> Result<SnapshotReader, CheckpointError> {
        let mut data = Vec::new();
        r.read_to_end(&mut data)?;
        let head = &data[..data.len().min(MAGIC.len())];
        if head != &MAGIC[..head.len()] {
            return Err(CheckpointError::BadMagic);
        }
        if data.len() < MAGIC.len() + 4 {
            return Err(CheckpointError::Truncated);
        }
        let version = u32::from_le_bytes(data[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap());
        if version > FORMAT_VERSION {
            return Err(CheckpointError::FutureVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        if version < FORMAT_VERSION {
            return Err(CheckpointError::RetiredVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        Ok(SnapshotReader {
            data,
            pos: MAGIC.len() + 4,
            done: false,
        })
    }

    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or(CheckpointError::Truncated)?;
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// The next section, or `None` at the end marker. Running out of
    /// bytes before the marker is [`CheckpointError::Truncated`]; a
    /// payload that does not match its checksum is
    /// [`CheckpointError::Checksum`].
    pub fn next_section(&mut self) -> Result<Option<(String, Vec<u8>)>, CheckpointError> {
        if self.done {
            return Ok(None);
        }
        let name_len = u64::from_le_bytes(self.take(8)?.try_into().unwrap());
        let name_len = usize::try_from(name_len)
            .map_err(|_| CheckpointError::Corrupt("section name length overflow".into()))?;
        let name = String::from_utf8(self.take(name_len)?.to_vec())
            .map_err(|_| CheckpointError::Corrupt("section name is not UTF-8".into()))?;
        let payload_len = u64::from_le_bytes(self.take(8)?.try_into().unwrap());
        let payload_len = usize::try_from(payload_len)
            .map_err(|_| CheckpointError::Corrupt("section length overflow".into()))?;
        let stored = u32::from_le_bytes(self.take(4)?.try_into().unwrap());
        let payload = self.take(payload_len)?.to_vec();
        if crc32(&payload) != stored {
            return Err(CheckpointError::Checksum {
                section: if name.is_empty() {
                    "<end>".to_string()
                } else {
                    name
                },
            });
        }
        if name.is_empty() {
            self.done = true;
            return Ok(None);
        }
        Ok(Some((name, payload)))
    }

    /// The next section, required to carry `name`.
    pub fn expect(&mut self, name: &str) -> Result<Vec<u8>, CheckpointError> {
        match self.next_section()? {
            Some((found, payload)) if found == name => Ok(payload),
            Some((found, _)) => Err(CheckpointError::Corrupt(format!(
                "expected section `{name}`, found `{found}`"
            ))),
            None => Err(CheckpointError::Corrupt(format!(
                "expected section `{name}`, found end of snapshot"
            ))),
        }
    }

    /// Assert the end marker comes next — unknown trailing sections are
    /// structural corruption.
    pub fn finish(&mut self) -> Result<(), CheckpointError> {
        match self.next_section()? {
            None => Ok(()),
            Some((name, _)) => Err(CheckpointError::Corrupt(format!(
                "unexpected trailing section `{name}`"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(sections: &[(&str, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = SnapshotWriter::new(&mut out).unwrap();
        for (name, payload) in sections {
            w.section(name, payload).unwrap();
        }
        w.finish().unwrap();
        out
    }

    #[test]
    fn round_trips_sections_in_order() {
        let bytes = snapshot(&[("config", b"abc"), ("q0", b""), ("q1", &[0xFF; 100])]);
        let mut r = SnapshotReader::new(&bytes[..]).unwrap();
        assert_eq!(r.expect("config").unwrap(), b"abc");
        assert_eq!(r.expect("q0").unwrap(), b"");
        assert_eq!(r.expect("q1").unwrap(), vec![0xFF; 100]);
        r.finish().unwrap();
        assert!(matches!(r.next_section(), Ok(None)), "stays at end");
    }

    #[test]
    fn enc_dec_primitives_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.i64(-42);
        e.f64(f64::NAN);
        e.bool(true);
        e.usize(12345);
        e.opt_u64(None);
        e.opt_u64(Some(9));
        e.str("héllo");
        e.bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert!(d.f64().unwrap().is_nan());
        assert!(d.bool().unwrap());
        assert_eq!(d.usize().unwrap(), 12345);
        assert_eq!(d.opt_u64().unwrap(), None);
        assert_eq!(d.opt_u64().unwrap(), Some(9));
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.bytes().unwrap(), &[1, 2, 3]);
        d.finish("primitives").unwrap();
        assert!(matches!(
            Dec::new(&bytes).finish("x"),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn dec_overrun_is_truncated() {
        let mut d = Dec::new(&[1, 2]);
        assert!(matches!(d.u64(), Err(CheckpointError::Truncated)));
    }

    #[test]
    fn bad_magic_is_typed() {
        assert!(matches!(
            SnapshotReader::new(&b"NOTASNAP rest"[..]),
            Err(CheckpointError::BadMagic)
        ));
        // A short foreign prefix is bad magic too, not "truncated".
        assert!(matches!(
            SnapshotReader::new(&b"XY"[..]),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn truncation_is_typed_everywhere() {
        let bytes = snapshot(&[("config", b"abcdef")]);
        // A matching-but-short header...
        assert!(matches!(
            SnapshotReader::new(&bytes[..6]),
            Err(CheckpointError::BadMagic | CheckpointError::Truncated)
        ));
        assert!(matches!(
            SnapshotReader::new(&bytes[..10]),
            Err(CheckpointError::Truncated)
        ));
        // ...and every cut inside the section stream (including losing
        // just the end marker) reads as Truncated.
        for cut in 12..bytes.len() {
            let mut r = SnapshotReader::new(&bytes[..cut]).unwrap();
            let outcome = (|| {
                let _ = r.expect("config")?;
                r.finish()
            })();
            assert!(
                matches!(outcome, Err(CheckpointError::Truncated)),
                "cut at {cut}: {outcome:?}"
            );
        }
    }

    #[test]
    fn future_version_is_typed() {
        let mut bytes = snapshot(&[]);
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        match SnapshotReader::new(&bytes[..]) {
            Err(CheckpointError::FutureVersion { found, supported }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected FutureVersion, got {other:?}"),
        }
    }

    #[test]
    fn retired_version_is_typed() {
        let mut bytes = snapshot(&[]);
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
        match SnapshotReader::new(&bytes[..]) {
            Err(CheckpointError::RetiredVersion { found, supported }) => {
                assert_eq!(found, FORMAT_VERSION - 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected RetiredVersion, got {other:?}"),
        }
    }

    #[test]
    fn payload_damage_names_the_section() {
        let bytes = snapshot(&[("config", b"abcdef"), ("q0", b"xyz")]);
        // Flip one byte inside the second section's payload (the last 3
        // bytes before the end marker's frame are q0's payload).
        let mut damaged = bytes.clone();
        let q0_payload = bytes.len() - (8 + 8 + 4) - 3; // end frame + 3 payload bytes
        damaged[q0_payload] ^= 0x01;
        let mut r = SnapshotReader::new(&damaged[..]).unwrap();
        assert_eq!(r.expect("config").unwrap(), b"abcdef");
        match r.next_section() {
            Err(CheckpointError::Checksum { section }) => assert_eq!(section, "q0"),
            other => panic!("expected Checksum, got {other:?}"),
        }
    }

    #[test]
    fn error_display_is_pinned() {
        // The CLI and the server both print these strings; the e2e suite
        // compares them byte-for-byte, so they are pinned here at the
        // source.
        assert_eq!(CheckpointError::Truncated.to_string(), "truncated snapshot");
        assert_eq!(
            CheckpointError::BadMagic.to_string(),
            "not a cogra snapshot (bad magic)"
        );
        assert_eq!(
            CheckpointError::FutureVersion {
                found: 9,
                supported: 1
            }
            .to_string(),
            "snapshot format version 9 is newer than supported version 1"
        );
        assert_eq!(
            CheckpointError::RetiredVersion {
                found: 4,
                supported: 5
            }
            .to_string(),
            "snapshot format version 4 is older than supported version 5"
        );
        assert_eq!(
            CheckpointError::Checksum {
                section: "q0".into()
            }
            .to_string(),
            "checksum mismatch in section `q0`"
        );
        assert_eq!(
            CheckpointError::Corrupt("x".into()).to_string(),
            "corrupt snapshot: x"
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// A scratch directory that cleans up after itself.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(name: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("cogra-ckpt-{name}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self, file: &str) -> String {
            self.0.join(file).to_string_lossy().into_owned()
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn write_atomic_round_trips_and_leaves_no_tmp() {
        let dir = TempDir::new("atomic");
        let path = dir.path("snap.cogra");
        write_atomic(&path, |out| {
            let mut w = SnapshotWriter::new(out)?;
            w.section("config", b"abc")?;
            w.finish()
        })
        .unwrap();
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        let mut r = SnapshotReader::new(std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(r.expect("config").unwrap(), b"abc");
        r.finish().unwrap();
    }

    #[test]
    fn write_atomic_emit_failure_creates_no_file() {
        let dir = TempDir::new("emit-fail");
        let path = dir.path("snap.cogra");
        let err = write_atomic(&path, |_| {
            Err(CheckpointError::Unsupported("cannot snapshot".into()))
        })
        .unwrap_err();
        assert!(matches!(err, CheckpointError::Unsupported(_)));
        assert!(!std::path::Path::new(&path).exists());
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
    }

    #[test]
    fn write_atomic_io_failure_never_touches_final_path() {
        let dir = TempDir::new("io-fail");
        // The tmp file lands in a directory that does not exist, so
        // File::create fails — and the final path must not appear.
        let path = dir.path("missing-dir/snap.cogra");
        let err = write_atomic(&path, |out| {
            let w = SnapshotWriter::new(out)?;
            w.finish()
        })
        .unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
        assert!(!std::path::Path::new(&path).exists());
    }

    #[test]
    fn short_write_surfaces_typed_io_error() {
        // The disk-full stand-in: a writer that dies after 4 bytes makes
        // every snapshot emission a typed CheckpointError::Io, and the
        // bytes that did land can never parse as a complete snapshot.
        let mut sink = Vec::new();
        let result = (|| {
            let w = cogra_faults::FaultyWriter::new(&mut sink, 4);
            let mut w = SnapshotWriter::new(w)?;
            w.section("config", b"abc")?;
            w.finish()
        })();
        match result {
            Err(CheckpointError::Io(e)) => {
                assert_eq!(e.to_string(), "injected write failure")
            }
            other => panic!("expected Io, got {other:?}"),
        }
        assert!(matches!(
            SnapshotReader::new(&sink[..]),
            Err(CheckpointError::BadMagic | CheckpointError::Truncated)
        ));
    }
}

//! Blocking protocol client: the replay half of the CLI's `connect`
//! mode, the driver of the end-to-end differential battery, and the
//! load generator of the benchmark's remote workloads.
//!
//! A [`Client`] issues one command at a time and waits for its reply
//! (`OK <stats>` / `ERR <message>`). Command-level failures (the server's
//! `ERR` line) are the *inner* `Result` — they leave the connection
//! usable; transport failures are the outer `io::Result`.
//!
//! For results, [`Client::subscribe`] consumes the client: the
//! connection becomes a pure result stream ([`Subscription`]), yielding
//! decoded `RESULT` lines until the server's `EOS`.

use crate::wire;
use cogra_core::Metrics;
use cogra_events::record_ends;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A connected protocol client.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The `INGEST` block being sent, command line and payload; reused.
    block: Vec<u8>,
}

/// Command outcome: transport error (outer) or server `ERR` (inner).
pub type Reply<T> = io::Result<Result<T, String>>;

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            block: Vec::new(),
        })
    }

    /// Read one reply line and split it into OK payload / ERR message.
    fn read_reply(&mut self) -> Reply<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let line = line.trim_end();
        if let Some(payload) = line.strip_prefix(wire::OK) {
            Ok(Ok(payload.trim_start().to_string()))
        } else if let Some(message) = line.strip_prefix(wire::ERR) {
            Ok(Err(message.trim_start().to_string()))
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed reply `{line}`"),
            ))
        }
    }

    /// Issue a control verb and decode its [`Metrics`] payload.
    fn control(&mut self, verb: &str) -> Reply<Metrics> {
        self.writer.write_all(format!("{verb}\n").as_bytes())?;
        self.decode_stats_reply()
    }

    fn decode_stats_reply(&mut self) -> Reply<Metrics> {
        match self.read_reply()? {
            Err(msg) => Ok(Err(msg)),
            Ok(payload) => Metrics::decode(&payload)
                .map(|s| Ok(Ok(s)))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
        }
    }

    /// Send one `INGEST` block: a self-contained CSV document (header
    /// first — the `cogra_events::csv` format). The text goes out as it
    /// is, behind its physical line count, in one write.
    pub fn ingest(&mut self, csv: &str) -> Reply<Metrics> {
        self.ingest_parts(csv, "")
    }

    /// [`Client::ingest`] of the document `header` + `rows`, which is
    /// assembled only in the send buffer — kept between blocks, and
    /// written whole, so the command line never travels alone.
    fn ingest_parts(&mut self, header: &str, rows: &str) -> Reply<Metrics> {
        let last = if rows.is_empty() { header } else { rows };
        let unterminated = !last.is_empty() && !last.ends_with('\n');
        let newlines = |text: &str| text.bytes().filter(|&b| b == b'\n').count();
        let lines = newlines(header) + newlines(rows) + usize::from(unterminated);
        self.block.clear();
        writeln!(self.block, "INGEST {lines}")?;
        self.block.extend_from_slice(header.as_bytes());
        self.block.extend_from_slice(rows.as_bytes());
        if unterminated {
            self.block.push(b'\n');
        }
        self.writer.write_all(&self.block)?;
        self.decode_stats_reply()
    }

    /// Replay a whole CSV document in blocks of `rows_per_block` data
    /// rows (the header is re-sent with each block, keeping every block a
    /// self-contained document for the shared decode path; blocks are cut
    /// at record ends, so a quoted cell spanning lines stays whole).
    /// Returns the last block's reply.
    pub fn replay_csv(&mut self, csv: &str, rows_per_block: usize) -> Reply<Metrics> {
        let ends = record_ends(csv);
        let Some((&header_end, rows)) = ends.split_first() else {
            return self.stats(); // empty document: nothing to send
        };
        let header = &csv[..header_end];
        if rows.is_empty() {
            return self.ingest(header); // no rows, but the header is checked
        }
        let mut start = header_end;
        let mut last = None;
        for block in rows.chunks(rows_per_block.max(1)) {
            let end = *block.last().expect("chunks are never empty");
            let reply = self.ingest_parts(header, &csv[start..end])?;
            start = end;
            match reply {
                Ok(report) => last = Some(report),
                Err(e) => return Ok(Err(e)),
            }
        }
        Ok(Ok(
            last.expect("rows is non-empty, so at least one block ran")
        ))
    }

    /// Force a drain: everything final at the watermark is pushed to
    /// subscribers now.
    pub fn drain(&mut self) -> Reply<Metrics> {
        self.control("DRAIN")
    }

    /// Fetch the server's counters.
    pub fn stats(&mut self) -> Reply<Metrics> {
        self.control("STATS")
    }

    /// End the stream: close every window, push the remaining results,
    /// end subscriptions.
    pub fn finish(&mut self) -> Reply<Metrics> {
        self.control("FINISH")
    }

    /// Checkpoint the serving session to a file *on the server's
    /// filesystem* ([`Session::checkpoint`] behind the `SNAPSHOT` verb).
    /// Returns the server's confirmation payload (`snapshot <path>`);
    /// the server's `ERR` carries the `{path}: {CheckpointError}` text.
    ///
    /// [`Session::checkpoint`]: cogra_core::session::Session::checkpoint
    pub fn snapshot(&mut self, path: &str) -> Reply<String> {
        self.writer
            .write_all(format!("SNAPSHOT {path}\n").as_bytes())?;
        self.read_reply()
    }

    /// Close the connection politely.
    pub fn quit(mut self) -> io::Result<()> {
        self.writer.write_all(b"QUIT\n")?;
        let _ = self.read_reply()?;
        Ok(())
    }

    /// Turn this connection into a result stream for `query` (`None` =
    /// all queries). On success the client is consumed: the server pushes
    /// `RESULT` lines until `EOS`.
    pub fn subscribe(mut self, query: Option<usize>) -> Reply<Subscription> {
        let tag = match query {
            Some(q) => format!("q{q}"),
            None => "*".to_string(),
        };
        self.writer
            .write_all(format!("SUBSCRIBE {tag}\n").as_bytes())?;
        match self.read_reply()? {
            Err(msg) => Ok(Err(msg)),
            Ok(_) => Ok(Ok(Subscription {
                reader: self.reader,
                line: String::new(),
            })),
        }
    }
}

/// The read half of a subscribed connection: iterate decoded
/// `(query, result row)` pairs until the server's `EOS` (or the
/// connection drops).
#[derive(Debug)]
pub struct Subscription {
    reader: BufReader<TcpStream>,
    /// The line being decoded; reused.
    line: String,
}

impl Iterator for Subscription {
    type Item = io::Result<(usize, String)>;

    fn next(&mut self) -> Option<io::Result<(usize, String)>> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Err(e) => Some(Err(e)),
            Ok(0) => None, // connection dropped without EOS
            Ok(_) => {
                let line = self.line.trim_end();
                if line == wire::EOS {
                    return None;
                }
                match line.strip_prefix(wire::RESULT) {
                    Some(payload) => Some(match wire::decode_result(payload.trim_start()) {
                        Ok((query, row)) => Ok((query, row.to_string())),
                        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e)),
                    }),
                    None => Some(Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected line on subscription `{line}`"),
                    ))),
                }
            }
        }
    }
}

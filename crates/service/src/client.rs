//! The submitting side of the oracle service: connect, frame a query,
//! await the record line.
//!
//! The connect retries with exponential backoff (a client may start
//! before the server has bound) and sets `TCP_NODELAY` (frames are
//! small requests and replies). The client applies no read deadline —
//! a cold exploration legitimately takes as long as it takes; the
//! response arrives when the envelope is computed.

use crate::oracle::OracleStats;
use crate::proto::{
    decode_stats, encode_query, read_frame, write_frame, Budget, Frame, QueryRequest, SeqCheck,
    REQ_QUERY, REQ_SHUTDOWN, REQ_STATS, RESP_ERROR, RESP_RESULT, RESP_SHUTDOWN_ACK, RESP_STATS,
};
use ppc_litmus::Expectation;
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// Connect attempts before giving up, and the backoff between them,
/// doubling from the base up to the cap: about 9 s in the worst case.
const CONNECT_ATTEMPTS: u32 = 10;
const CONNECT_BACKOFF_BASE: Duration = Duration::from_millis(50);
const CONNECT_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// A server's answer to one query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The record line (verbatim stored bytes on a cache hit).
    Result {
        /// Whether the server answered from its store.
        cached: bool,
        /// The JSONL `TestReport` line.
        line: String,
    },
    /// The server rejected the request (e.g. a parse error).
    Error(String),
}

/// One connection to an `oracled` server.
pub struct Client {
    conn: TcpStream,
    seq_out: u64,
    seq_in: SeqCheck,
}

impl Client {
    /// Connect to `addr` (`host:port`) with bounded-retry backoff —
    /// a client may legitimately start before the server binds.
    ///
    /// # Errors
    ///
    /// The last connect error after retries are exhausted.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let mut delay = CONNECT_BACKOFF_BASE;
        let mut attempt = 1;
        let conn = loop {
            match TcpStream::connect(addr) {
                Ok(conn) => break conn,
                Err(e) if attempt == CONNECT_ATTEMPTS => return Err(e),
                Err(_) => {
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(CONNECT_BACKOFF_CAP);
                    attempt += 1;
                }
            }
        };
        conn.set_nodelay(true)?;
        Ok(Client {
            conn,
            seq_out: 0,
            seq_in: SeqCheck::default(),
        })
    }

    /// One request/response round trip with sequence bookkeeping.
    fn roundtrip(&mut self, tag: u8, body: &[u8]) -> io::Result<Frame> {
        write_frame(&mut self.conn, self.seq_out, tag, body)?;
        self.seq_out += 1;
        let frame = read_frame(&mut self.conn)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )
        })?;
        self.seq_in.check(frame.seq)?;
        Ok(frame)
    }

    /// Submit a litmus program.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors. A server-side rejection (parse
    /// error, bad request) is `Ok(Response::Error(..))`, not `Err`.
    pub fn query(
        &mut self,
        source: &str,
        expect: Expectation,
        pinned_by: &str,
        budget: Budget,
    ) -> io::Result<Response> {
        let body = encode_query(&QueryRequest {
            source: source.to_owned(),
            expect,
            pinned_by: pinned_by.to_owned(),
            budget,
        });
        let frame = self.roundtrip(REQ_QUERY, &body)?;
        match frame.tag {
            RESP_RESULT => {
                let (&cached, line) = frame.body.split_first().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "empty result body")
                })?;
                let line = String::from_utf8(line.to_vec()).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "result line is not UTF-8")
                })?;
                Ok(Response::Result {
                    cached: cached != 0,
                    line,
                })
            }
            RESP_ERROR => Ok(Response::Error(
                String::from_utf8_lossy(&frame.body).into_owned(),
            )),
            tag => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response tag {tag:#04x}"),
            )),
        }
    }

    /// Fetch the server's counter snapshot.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn stats(&mut self) -> io::Result<OracleStats> {
        let frame = self.roundtrip(REQ_STATS, b"")?;
        if frame.tag != RESP_STATS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response tag {:#04x}", frame.tag),
            ));
        }
        decode_stats(&frame.body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad stats body: {e}")))
    }

    /// Ask the server to shut down gracefully; returns once the server
    /// acknowledges (it stops accepting after in-flight work drains).
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let frame = self.roundtrip(REQ_SHUTDOWN, b"")?;
        if frame.tag != RESP_SHUTDOWN_ACK {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response tag {:#04x}", frame.tag),
            ));
        }
        Ok(())
    }
}

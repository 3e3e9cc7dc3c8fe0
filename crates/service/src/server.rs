//! The `oracled` serve loop: a std `TcpListener` accept thread plus
//! one handler thread per connection, all answering from one shared
//! [`Oracle`].
//!
//! Liveness and shutdown:
//!
//! - The accept loop polls a non-blocking listener so a `shutdown`
//!   request (or [`ServerHandle::shutdown`]) is noticed promptly; it
//!   then stops accepting and joins every connection thread.
//! - Connection threads read with a short socket timeout and only honor
//!   the shutdown flag **between frames**: a frame whose header has
//!   started arriving is always read to completion and answered, so a
//!   graceful shutdown never tears an in-flight request. In-flight
//!   explorations likewise run to completion (and land in the store).
//! - A protocol violation (torn frame, sequence gap, oversized length)
//!   drops that connection only; the server keeps serving others.

use crate::oracle::Oracle;
use crate::proto::{
    decode_query, encode_stats, write_frame, Frame, SeqCheck, MAX_FRAME, REQ_QUERY, REQ_SHUTDOWN,
    REQ_STATS, RESP_ERROR, RESP_RESULT, RESP_SHUTDOWN_ACK, RESP_STATS,
};
use ppc_litmus::Job;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Accept-loop poll period while waiting for connections.
const ACCEPT_POLL: Duration = Duration::from_millis(25);
/// Read and write deadline on connection sockets. Reads: the
/// granularity at which an idle connection notices the shutdown flag.
/// Writes: a client that stops draining its socket cannot wedge a
/// handler forever (responses are small).
const CONN_TIMEOUT: Duration = Duration::from_millis(200);

/// Server tuning.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:0` (OS-assigned port, read it
    /// back from [`ServerHandle::port`]).
    pub addr: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
        }
    }
}

/// A running server. Dropping the handle shuts the server down and
/// joins its threads.
pub struct ServerHandle {
    port: u16,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound TCP port.
    #[must_use]
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Whether shutdown has been requested (by a client's `shutdown`
    /// frame or [`ServerHandle::shutdown`]).
    #[must_use]
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Request shutdown and wait for the accept loop and every
    /// connection thread to finish.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Block until the server stops (e.g. a client sent `shutdown`).
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind and start serving. Returns as soon as the listener is bound —
/// the port is immediately connectable.
///
/// The bind is tried once. std's `TcpListener::bind` sets
/// `SO_REUSEADDR` on Unix, so a port whose previous listener left
/// sockets in `TIME_WAIT` rebinds at once, and a port another
/// listener holds fails at once with `AddrInUse`.
///
/// # Errors
///
/// Propagates bind errors.
pub fn serve(cfg: &ServerConfig, oracle: Arc<Oracle>) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(cfg.addr.as_str())?;
    let port = listener.local_addr()?.port();
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let accept_thread = std::thread::spawn(move || {
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        while !flag.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((conn, _)) => {
                    let oracle = Arc::clone(&oracle);
                    let flag = Arc::clone(&flag);
                    conns.push(std::thread::spawn(move || {
                        // A broken connection is that client's problem;
                        // the error is logged and the server lives on.
                        if let Err(e) = handle_conn(conn, &oracle, &flag) {
                            eprintln!("oracled: connection error: {e}");
                        }
                    }));
                }
                Err(e) if is_timeout(&e) => std::thread::sleep(ACCEPT_POLL),
                Err(e) => {
                    eprintln!("oracled: accept error: {e}");
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
            conns.retain(|c| !c.is_finished());
        }
        for c in conns {
            let _ = c.join();
        }
    });
    Ok(ServerHandle {
        port,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

/// `true` for the error kinds a timed-out socket read (or an empty
/// non-blocking accept) surfaces: `WouldBlock` on Unix, `TimedOut` on
/// some other platforms.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Read exactly `buf.len()` bytes, riding out the poll timeout.
/// `allow_idle_exit` (header reads only) lets the loop give up when
/// the shutdown flag rises *before any byte arrived* — mid-frame, the
/// frame is always finished.
enum PolledRead {
    Full,
    /// Clean EOF before any byte.
    Eof,
    /// Shutdown observed while idle.
    Shutdown,
}

fn read_full_polled(
    conn: &mut TcpStream,
    buf: &mut [u8],
    flag: &AtomicBool,
    allow_idle_exit: bool,
) -> io::Result<PolledRead> {
    let mut filled = 0;
    while filled < buf.len() {
        match conn.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(PolledRead::Eof);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "torn frame from client",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                if filled == 0 && allow_idle_exit && flag.load(Ordering::Relaxed) {
                    return Ok(PolledRead::Shutdown);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(PolledRead::Full)
}

/// Read one frame with shutdown polling at the frame boundary.
fn read_frame_polled(conn: &mut TcpStream, flag: &AtomicBool) -> io::Result<Option<Frame>> {
    let mut lenbuf = [0u8; 4];
    match read_full_polled(conn, &mut lenbuf, flag, true)? {
        PolledRead::Eof | PolledRead::Shutdown => return Ok(None),
        PolledRead::Full => {}
    }
    let len = u32::from_le_bytes(lenbuf) as usize;
    if !(9..=MAX_FRAME).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    let mut rest = vec![0u8; len];
    match read_full_polled(conn, &mut rest, flag, false)? {
        PolledRead::Full => {}
        PolledRead::Eof | PolledRead::Shutdown => {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "torn frame from client",
            ));
        }
    }
    Ok(Some(Frame {
        seq: u64::from_le_bytes(rest[..8].try_into().expect("8 bytes")),
        tag: rest[8],
        body: rest[9..].to_vec(),
    }))
}

/// Serve one connection until EOF, shutdown, or a protocol error.
fn handle_conn(mut conn: TcpStream, oracle: &Oracle, flag: &AtomicBool) -> io::Result<()> {
    // Small request/response frames: send each at once.
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(CONN_TIMEOUT))?;
    conn.set_write_timeout(Some(CONN_TIMEOUT))?;
    let mut seq_in = SeqCheck::default();
    let mut seq_out = 0u64;
    let mut send = |conn: &mut TcpStream, tag: u8, body: &[u8]| -> io::Result<()> {
        let r = write_frame(conn, seq_out, tag, body);
        seq_out += 1;
        r
    };
    loop {
        let Some(frame) = read_frame_polled(&mut conn, flag)? else {
            return Ok(()); // clean EOF or idle shutdown
        };
        seq_in.check(frame.seq)?;
        match frame.tag {
            REQ_QUERY => {
                let req = match decode_query(&frame.body) {
                    Ok(req) => req,
                    Err(e) => {
                        send(&mut conn, RESP_ERROR, format!("bad query: {e}").as_bytes())?;
                        continue;
                    }
                };
                match Job::from_source(&req.source, req.expect, &req.pinned_by) {
                    Ok(job) => {
                        let out = oracle.query(&job, &req.budget);
                        let mut body = Vec::with_capacity(1 + out.line.len());
                        body.push(u8::from(out.cached));
                        body.extend_from_slice(out.line.as_bytes());
                        send(&mut conn, RESP_RESULT, &body)?;
                    }
                    Err(e) => {
                        send(
                            &mut conn,
                            RESP_ERROR,
                            format!("parse error: {e}").as_bytes(),
                        )?;
                    }
                }
            }
            REQ_STATS => {
                send(&mut conn, RESP_STATS, &encode_stats(&oracle.stats()))?;
            }
            REQ_SHUTDOWN => {
                send(&mut conn, RESP_SHUTDOWN_ACK, b"")?;
                flag.store(true, Ordering::Relaxed);
                return Ok(());
            }
            tag => {
                send(
                    &mut conn,
                    RESP_ERROR,
                    format!("unknown request tag {tag:#04x}").as_bytes(),
                )?;
            }
        }
    }
}

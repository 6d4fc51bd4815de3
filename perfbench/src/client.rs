//! The closed-loop load client: a few persistent connections, each
//! sending its next request only after the previous response arrived.
//! No retries: a non-ok answer, an I/O error or a read timeout is one
//! failed request, and the connection is reopened after an error.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

use pvs_serve::Request;

use crate::keys::cell_line;
use crate::stats::Sample;
use crate::trace::{maybe_time, SpanLog};

/// Per-request read timeout; a reply slower than this is a failure.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Pause before reconnecting after a connection error, so a dead
/// server does not turn the loop into a spin.
const RECONNECT_PAUSE: Duration = Duration::from_millis(10);

/// One client connection speaking the newline-delimited protocol.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connect with Nagle off, so a request leaves in one segment.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Send one request line (written in a single call) and read the one
    /// response line, returned without its newline.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        let mut msg = String::with_capacity(line.len() + 1);
        msg.push_str(line);
        msg.push('\n');
        self.writer.write_all(msg.as_bytes())?;
        let mut resp = String::new();
        self.reader.read_line(&mut resp)?;
        if resp.pop() != Some('\n') {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(resp)
    }
}

/// Whether a response line is a success.
pub fn is_ok(resp: &str) -> bool {
    resp.starts_with("{\"ok\":true")
}

/// The verbatim cell body of a successful cell response (the protocol
/// puts `cell` last, holding the cached bytes untouched).
pub fn cell_body(resp: &str) -> Option<&str> {
    let start = resp.find("\"cell\":")? + "\"cell\":".len();
    resp.strip_suffix('}').and_then(|r| r.get(start..))
}

/// A request generator for one connection lane.
pub type Gen = Box<dyn FnMut() -> Request + Send>;

/// When a lane stops sending, and how its requests are numbered.
pub struct Stop<'a> {
    /// Index of this round in the run; request ids are unique per run.
    pub round: u64,
    /// Wall-clock end of the window.
    pub deadline: Instant,
    /// Requests left in this round, shared by every lane (`None` = no
    /// request cap).
    pub budget: Option<&'a AtomicI64>,
}

/// What one window of closed-loop load produced.
#[derive(Default)]
pub struct LoadRun {
    /// Every request in send order per lane, lanes concatenated.
    pub samples: Vec<Sample>,
    /// Bodies kept for the output check: `(request, served body)`.
    pub kept: Vec<(Request, String)>,
    /// Window length: first send to the last lane's end.
    pub elapsed: Duration,
    /// Span logs, one per lane, when traced.
    pub logs: Vec<SpanLog>,
}

impl LoadRun {
    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Requests that did not succeed.
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Fold another window into this one.
    pub fn absorb(&mut self, other: LoadRun) {
        self.samples.extend(other.samples);
        self.kept.extend(other.kept);
        self.elapsed += other.elapsed;
        self.logs.extend(other.logs);
    }
}

/// Drive `gens.len()` persistent connections against `addr` until the
/// stop rule fires. `keep(rid)` selects which successful bodies to keep
/// for the output check; `trace` (the shared epoch) turns on one
/// `client.request#<rid>` span per request.
pub fn closed_loop(
    addr: SocketAddr,
    gens: &mut [Gen],
    stop: &Stop<'_>,
    keep: &(dyn Fn(u64) -> bool + Sync),
    trace: Option<Instant>,
) -> LoadRun {
    let started = Instant::now();
    let lanes: Vec<LoadRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(lane, gen)| {
                scope.spawn(move || lane_loop(addr, lane as u64, gen, stop, keep, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client lane panicked"))
            .collect()
    });
    let mut run = LoadRun::default();
    for lane in lanes {
        run.absorb(lane);
    }
    run.elapsed = started.elapsed();
    run
}

fn lane_loop(
    addr: SocketAddr,
    lane: u64,
    gen: &mut Gen,
    stop: &Stop<'_>,
    keep: &(dyn Fn(u64) -> bool + Sync),
    trace: Option<Instant>,
) -> LoadRun {
    let mut out = LoadRun::default();
    let mut log = trace.map(SpanLog::new);
    let mut conn: Option<Conn> = None;
    let mut seq = 0u64;
    while Instant::now() < stop.deadline {
        if let Some(budget) = stop.budget {
            if budget.fetch_sub(1, Ordering::SeqCst) <= 0 {
                break;
            }
        }
        let rid = (stop.round << 40) | (lane << 32) | seq;
        seq += 1;
        let request = gen();
        let line = cell_line(&request);
        // Connect outside the timed request.
        let c = match conn.as_mut() {
            Some(c) => c,
            None => match Conn::open(addr) {
                Ok(c) => conn.insert(c),
                Err(_) => {
                    out.samples.push(Sample {
                        latency_us: 0.0,
                        ok: false,
                    });
                    std::thread::sleep(RECONNECT_PAUSE);
                    continue;
                }
            },
        };
        let (reply, latency_us) = maybe_time(
            &mut log.as_mut(),
            format!("client.request#{rid}"),
            None,
            || {
                let sent = Instant::now();
                let reply = c.call(&line);
                (reply, sent.elapsed().as_secs_f64() * 1e6)
            },
        );
        let ok = match reply {
            Ok(resp) => {
                let ok = is_ok(&resp);
                if ok && keep(rid) {
                    if let Some(body) = cell_body(&resp) {
                        out.kept.push((request, body.to_string()));
                    }
                }
                ok
            }
            Err(_) => {
                conn = None;
                std::thread::sleep(RECONNECT_PAUSE);
                false
            }
        };
        out.samples.push(Sample { latency_us, ok });
    }
    out.logs.extend(log);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_body_is_the_verbatim_tail() {
        let resp = r#"{"ok":true,"key":"ab","source":"memory","cell":{"a":1,"b":{"c":2}}}"#;
        assert_eq!(cell_body(resp), Some(r#"{"a":1,"b":{"c":2}}"#));
        assert!(is_ok(resp));
        assert!(!is_ok(r#"{"ok":false,"error":"overloaded"}"#));
        assert_eq!(cell_body(r#"{"ok":false}"#), None);
    }
}

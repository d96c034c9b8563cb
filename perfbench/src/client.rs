//! The benchmark's own HTTP client and closed-loop load generator.
//!
//! Each request opens a fresh connection (the server answers with
//! `Connection: close`) and is timed in three parts: connect, wait
//! (request written until the first response byte) and read (first
//! byte until end of stream). The client speaks only HTTP to the
//! server, so everything on the far side of the socket is measured as
//! a user sees it.

use inspire_serve::http::{self, Response};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub const TIMEOUT: Duration = Duration::from_secs(30);

/// Client-side time split of one exchange, in seconds. Untraced
/// exchanges fill in only `total`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Split {
    pub connect: f64,
    pub wait: f64,
    pub read: f64,
    pub total: f64,
}

/// One GET on a fresh connection. With `traced` set the exchange is
/// timed in parts (three more clock reads); otherwise only in total.
pub fn timed_get(
    addr: SocketAddr,
    target: &str,
    traced: bool,
) -> std::io::Result<(Response, Split)> {
    let clock = |on: bool| on.then(Instant::now);
    let t0 = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    let t1 = clock(traced);
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let t2 = clock(traced);
    let mut raw = Vec::with_capacity(4096);
    let mut buf = [0u8; 8192];
    let first = stream.read(&mut buf)?;
    let t3 = clock(traced);
    raw.extend_from_slice(&buf[..first]);
    if first > 0 {
        stream.read_to_end(&mut raw)?;
    }
    let t4 = Instant::now();
    let resp = http::parse_response(&raw)?;
    let secs = |a: Option<Instant>, b: Option<Instant>| match (a, b) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => 0.0,
    };
    Ok((
        resp,
        Split {
            connect: secs(Some(t0), t1),
            wait: secs(t2, t3),
            read: secs(t3, Some(t4)),
            total: (t4 - t0).as_secs_f64(),
        },
    ))
}

/// 64-bit digest of a response body, the same for equal bodies within
/// one process (`DefaultHasher::new` uses fixed keys), so a run can
/// check every body without holding them all.
pub fn digest(body: &str) -> u64 {
    let mut h = DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// Everything one client observed for one request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the target list.
    pub target: usize,
    /// HTTP status; 0 when the exchange itself failed.
    pub status: u16,
    pub digest: u64,
    /// The body parsed as JSON (checked only when asked for).
    pub well_formed: bool,
    pub split: Split,
    /// Seconds from the start of the loop to the end of the exchange.
    pub end_s: f64,
}

/// How a closed loop's clients behave.
#[derive(Debug, Clone, Copy)]
pub struct LoopOpts {
    pub clients: usize,
    /// Time each exchange in parts ([`timed_get`]).
    pub traced: bool,
    /// Parse every body as JSON (for responses whose exact bytes are
    /// not known in advance).
    pub check_json: bool,
}

/// Run `clients` closed-loop clients against `addr` until `stop` is
/// set: each client sends its next request only after the previous one
/// answered. Targets are handed out in list order from one shared
/// cursor (wrapping), so a list larger than the run never repeats.
/// Returns every client's samples.
pub fn closed_loop(
    addr: SocketAddr,
    targets: &[String],
    opts: LoopOpts,
    cursor: &AtomicUsize,
    stop: &AtomicBool,
) -> Vec<Vec<Sample>> {
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..opts.clients)
            .map(|_| {
                s.spawn(move || {
                    let mut out = Vec::with_capacity(1 << 14);
                    while !stop.load(Ordering::Relaxed) {
                        let i = cursor.fetch_add(1, Ordering::Relaxed) % targets.len();
                        out.push(match timed_get(addr, &targets[i], opts.traced) {
                            Ok((resp, split)) => Sample {
                                target: i,
                                status: resp.status,
                                digest: digest(&resp.body),
                                well_formed: !opts.check_json
                                    || inspire_trace::json::parse(&resp.body).is_ok(),
                                split,
                                end_s: start.elapsed().as_secs_f64(),
                            },
                            Err(_) => Sample {
                                target: i,
                                status: 0,
                                digest: 0,
                                well_formed: false,
                                split: Split::default(),
                                end_s: start.elapsed().as_secs_f64(),
                            },
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Run [`closed_loop`] for `seconds` of wall time. Returns all samples
/// and the measured wall time.
pub fn closed_loop_for(
    addr: SocketAddr,
    targets: &[String],
    opts: LoopOpts,
    cursor: &AtomicUsize,
    seconds: f64,
) -> (Vec<Sample>, f64) {
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let per_client = std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(Duration::from_secs_f64(seconds));
            stop.store(true, Ordering::Relaxed);
        });
        closed_loop(addr, targets, opts, cursor, &stop)
    });
    let wall = t0.elapsed().as_secs_f64();
    (per_client.into_iter().flatten().collect(), wall)
}

/// GET that must answer 200; the body is returned.
pub fn get_ok(addr: SocketAddr, target: &str) -> std::io::Result<String> {
    let resp = http::get(addr, target, TIMEOUT)?;
    if resp.status != 200 {
        return Err(std::io::Error::other(format!(
            "GET {target} answered {}",
            resp.status
        )));
    }
    Ok(resp.body)
}

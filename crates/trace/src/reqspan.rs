//! Request-scoped span timelines and the slow-query ring.
//!
//! The [`span`](crate::span) recorder is per-rank and SPMD-oriented: one
//! ring per rank, drained after a batch run. A serving tier needs the
//! opposite shape — many short-lived timelines, one per request, built
//! concurrently on worker threads and retained only when interesting.
//! This module provides that shape:
//!
//! * [`ReqTrace`] — a tiny single-request builder. Stages are contiguous
//!   by construction (`begin` closes the previous stage) and measured on
//!   the host wall clock in microseconds from the request's first byte.
//! * [`ReqTimeline`] — the finished record: request id, route, status,
//!   cache hit/miss, live-view generation, bytes, and the stage spans.
//!   Renders as a JSON object, a one-line structured access-log entry,
//!   or (in bulk) a Chrome trace-event document using `ph: "X"` complete
//!   events, one lane per request.
//! * [`SlowLog`] — a thread-safe keep-N-worst ring. Admission is a
//!   lock-free floor check ([`SlowLog::would_admit`]), so the fast path
//!   for an unremarkable request is two atomic loads and no lock.
//!
//! Nothing here charges virtual time or perturbs results: timelines are
//! observational and the served bytes are identical with or without them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{self, Value};

/// One stage of a request timeline, in microseconds since request start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqSpan {
    pub name: &'static str,
    pub start_us: u64,
    pub dur_us: u64,
}

/// A finished per-request timeline.
#[derive(Debug, Clone)]
pub struct ReqTimeline {
    /// Process-unique request id (from the accept loop's counter).
    pub id: u64,
    /// Route path, e.g. `/query`.
    pub route: String,
    /// Full request target, e.g. `/query?q=a+AND+b&top=10`.
    pub detail: String,
    /// HTTP status the request was answered with.
    pub status: u16,
    /// Whether the result cache answered it.
    pub cache_hit: bool,
    /// Live-view generation of the state the request executed against.
    pub generation: u64,
    /// Serving epoch (bumped by every hot swap) at execution time.
    pub epoch: u64,
    /// Response body bytes.
    pub bytes: u64,
    /// Wall time from first byte to response ready, microseconds.
    pub total_us: u64,
    /// Stage spans in start order.
    pub spans: Vec<ReqSpan>,
}

impl ReqTimeline {
    /// Total microseconds attributed to stage `name`.
    pub fn stage_us(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .sum()
    }

    /// `(stage, summed micros)` in first-seen order.
    pub fn stages_us(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, d)) => *d += s.dur_us,
                None => out.push((s.name, s.dur_us)),
            }
        }
        out
    }

    fn stages_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, us)) in self.stages_us().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{us}", json::escape(name)));
        }
        s.push('}');
        s
    }

    /// Full JSON object including the span list (the `/debug/slow` shape).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"id\":{},\"route\":\"{}\",\"detail\":\"{}\",\"status\":{},\
             \"cache_hit\":{},\"generation\":{},\"epoch\":{},\"bytes\":{},\
             \"total_us\":{},\"stages\":{},\"spans\":[",
            self.id,
            json::escape(&self.route),
            json::escape(&self.detail),
            self.status,
            self.cache_hit,
            self.generation,
            self.epoch,
            self.bytes,
            self.total_us,
            self.stages_json()
        );
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}}}",
                json::escape(sp.name),
                sp.start_us,
                sp.dur_us
            ));
        }
        s.push_str("]}");
        s
    }

    /// One structured access-log line (no trailing newline): the same
    /// fields as [`to_json`](Self::to_json) with stages flattened to a
    /// `name → micros` object and the span list dropped.
    pub fn access_line(&self) -> String {
        format!(
            "{{\"id\":{},\"route\":\"{}\",\"detail\":\"{}\",\"status\":{},\
             \"cache_hit\":{},\"generation\":{},\"epoch\":{},\"bytes\":{},\
             \"total_us\":{},\"stages\":{}}}",
            self.id,
            json::escape(&self.route),
            json::escape(&self.detail),
            self.status,
            self.cache_hit,
            self.generation,
            self.epoch,
            self.bytes,
            self.total_us,
            self.stages_json()
        )
    }
}

/// Render timelines as a Chrome trace-event document: one lane per
/// request, `ph: "X"` complete events (an enclosing `request` span plus
/// one per stage), `ts` in microseconds since that request's start.
/// Validates under [`crate::chrome::validate_chrome_json`].
pub fn timelines_to_chrome_json(timelines: &[ReqTimeline]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |line: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    for (lane, t) in timelines.iter().enumerate() {
        push(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{lane},\
                 \"args\":{{\"name\":\"req {} {} ({}us)\"}}}}",
                t.id,
                json::escape(&t.detail),
                t.total_us
            ),
            &mut first,
        );
        push(
            format!(
                "{{\"name\":\"request\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":0,\
                 \"dur\":{},\"pid\":0,\"tid\":{lane},\"args\":{{\"id\":{},\"status\":{},\
                 \"cache_hit\":{},\"generation\":{},\"epoch\":{},\"bytes\":{}}}}}",
                t.total_us, t.id, t.status, t.cache_hit, t.generation, t.epoch, t.bytes
            ),
            &mut first,
        );
        for sp in &t.spans {
            push(
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":{},\
                     \"dur\":{},\"pid\":0,\"tid\":{lane},\"args\":{{}}}}",
                    json::escape(sp.name),
                    sp.start_us,
                    sp.dur_us
                ),
                &mut first,
            );
        }
    }
    out.push_str(&format!(
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"clock\":\"request_us\",\
         \"requests\":{}}}}}\n",
        timelines.len()
    ));
    out
}

/// Parse one access-log line back into its field map (tests and tooling).
pub fn parse_access_line(line: &str) -> Result<Value, String> {
    json::parse(line)
}

/// Single-request timeline builder. Cheap: one `Instant` plus a small
/// `Vec`; all timestamps are microseconds relative to construction.
#[derive(Debug)]
pub struct ReqTrace {
    t0: Instant,
    open: Option<(&'static str, u64)>,
    spans: Vec<ReqSpan>,
}

impl Default for ReqTrace {
    fn default() -> Self {
        Self::start()
    }
}

impl ReqTrace {
    pub fn start() -> Self {
        ReqTrace {
            t0: Instant::now(),
            open: None,
            spans: Vec::with_capacity(6),
        }
    }

    /// Microseconds since the request started.
    pub fn mark(&self) -> u64 {
        (self.t0.elapsed().as_nanos() / 1_000).min(u64::MAX as u128) as u64
    }

    /// Open stage `name`, closing the currently open stage first —
    /// stages are contiguous by construction: one clock read both ends
    /// the old stage and starts the new one.
    pub fn begin(&mut self, name: &'static str) {
        let now = self.mark();
        self.close_at(now);
        self.open = Some((name, now));
    }

    /// Close the currently open stage, if any.
    pub fn end(&mut self) {
        if self.open.is_some() {
            self.close_at(self.mark());
        }
    }

    fn close_at(&mut self, now: u64) {
        if let Some((name, start)) = self.open.take() {
            self.spans.push(ReqSpan {
                name,
                start_us: start,
                dur_us: now.saturating_sub(start),
            });
        }
    }

    /// Record a stage measured externally (e.g. decode time attributed
    /// from inside query evaluation). Callers must push in start order.
    pub fn push_span(&mut self, name: &'static str, start_us: u64, dur_us: u64) {
        self.spans.push(ReqSpan {
            name,
            start_us,
            dur_us,
        });
    }

    /// Close any open stage and return `(spans, total_us)`.
    pub fn finish(mut self) -> (Vec<ReqSpan>, u64) {
        self.end();
        let total = self.mark();
        (self.spans, total)
    }
}

/// Thread-safe keep-N-worst ring of request timelines.
///
/// `threshold_us` is the static admission bar; once the ring is full the
/// bar rises to "worse than the current N-th worst" and is published in
/// `floor_us` so the hot path can reject without locking.
pub struct SlowLog {
    cap: usize,
    threshold_us: u64,
    floor_us: AtomicU64,
    ring: Mutex<Vec<ReqTimeline>>,
}

impl SlowLog {
    pub fn new(cap: usize, threshold_us: u64) -> Self {
        SlowLog {
            cap: cap.max(1),
            threshold_us,
            floor_us: AtomicU64::new(threshold_us),
            ring: Mutex::new(Vec::new()),
        }
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Lock-free pre-check: would a request of `total_us` be retained?
    /// False means "definitely not" — the caller can skip building the
    /// timeline's retained copy without taking the ring lock.
    pub fn would_admit(&self, total_us: u64) -> bool {
        total_us >= self.floor_us.load(Ordering::Relaxed)
    }

    /// Offer a timeline; keeps the worst `cap` by `total_us`.
    pub fn offer(&self, t: ReqTimeline) {
        if t.total_us < self.threshold_us {
            return;
        }
        let mut ring = self.ring.lock().unwrap();
        if ring.len() < self.cap {
            ring.push(t);
        } else {
            let (mi, _) = ring
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| r.total_us)
                .expect("ring non-empty at capacity");
            if t.total_us <= ring[mi].total_us {
                return;
            }
            ring[mi] = t;
        }
        if ring.len() == self.cap {
            let min = ring.iter().map(|r| r.total_us).min().unwrap_or(0);
            // Full ring: admission now requires beating the N-th worst.
            self.floor_us.store(
                min.saturating_add(1).max(self.threshold_us),
                Ordering::Relaxed,
            );
        }
    }

    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retained timelines, worst first.
    pub fn snapshot(&self) -> Vec<ReqTimeline> {
        let mut v = self.ring.lock().unwrap().clone();
        v.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.id.cmp(&b.id)));
        v
    }

    /// The `/debug/slow` JSON document.
    pub fn to_json(&self) -> String {
        let snap = self.snapshot();
        let mut s = format!(
            "{{\"retained\":{},\"capacity\":{},\"threshold_us\":{},\"slow\":[",
            snap.len(),
            self.cap,
            self.threshold_us
        );
        for (i, t) in snap.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&t.to_json());
        }
        s.push_str("]}\n");
        s
    }

    /// The `/debug/slow?format=chrome` document.
    pub fn to_chrome_json(&self) -> String {
        timelines_to_chrome_json(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::validate_chrome_json;

    fn tl(id: u64, total_us: u64) -> ReqTimeline {
        ReqTimeline {
            id,
            route: "/query".into(),
            detail: format!("/query?q=t{id}"),
            status: 200,
            cache_hit: false,
            generation: 3,
            epoch: 1,
            bytes: 42,
            total_us,
            spans: vec![
                ReqSpan {
                    name: "parse",
                    start_us: 0,
                    dur_us: total_us / 4,
                },
                ReqSpan {
                    name: "serialize",
                    start_us: total_us / 4,
                    dur_us: total_us - total_us / 4,
                },
            ],
        }
    }

    #[test]
    fn builder_produces_contiguous_spans() {
        let mut tr = ReqTrace::start();
        tr.begin("parse");
        tr.begin("cache_probe"); // closes parse
        std::thread::sleep(std::time::Duration::from_millis(1));
        let (spans, total) = tr.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "parse");
        assert_eq!(spans[1].name, "cache_probe");
        assert_eq!(spans[1].start_us, spans[0].start_us + spans[0].dur_us);
        assert!(spans[1].dur_us >= 1_000, "slept 1ms inside cache_probe");
        assert!(total >= spans[1].start_us + spans[1].dur_us);
    }

    #[test]
    fn timeline_json_and_access_line_parse() {
        let t = tl(7, 1000);
        let v = crate::json::parse(&t.to_json()).expect("timeline JSON parses");
        assert_eq!(v.get("id").and_then(|x| x.as_f64()), Some(7.0));
        assert_eq!(
            v.get("stages")
                .and_then(|s| s.get("parse"))
                .and_then(|x| x.as_f64()),
            Some(250.0)
        );
        let line = t.access_line();
        assert!(!line.contains('\n'));
        let v = parse_access_line(&line).expect("access line parses");
        assert_eq!(v.get("total_us").and_then(|x| x.as_f64()), Some(1000.0));
        assert!(v.get("spans").is_none(), "access line has no span list");
    }

    #[test]
    fn slow_log_keeps_n_worst() {
        let log = SlowLog::new(3, 0);
        for (id, us) in [(1, 50), (2, 500), (3, 10), (4, 300), (5, 700), (6, 5)] {
            if log.would_admit(us) {
                log.offer(tl(id, us));
            }
        }
        let snap = log.snapshot();
        let kept: Vec<u64> = snap.iter().map(|t| t.total_us).collect();
        assert_eq!(kept, vec![700, 500, 300]);
        // Once full, the lock-free floor rejects anything at-or-below min.
        assert!(!log.would_admit(300));
        assert!(log.would_admit(301));
    }

    #[test]
    fn slow_log_threshold_filters() {
        let log = SlowLog::new(8, 100);
        assert!(!log.would_admit(99));
        log.offer(tl(1, 99));
        log.offer(tl(2, 100));
        assert_eq!(log.len(), 1);
        assert_eq!(log.snapshot()[0].id, 2);
    }

    #[test]
    fn chrome_export_validates() {
        let log = SlowLog::new(4, 0);
        log.offer(tl(1, 1000));
        log.offer(tl(2, 2000));
        let doc = log.to_chrome_json();
        let sum = validate_chrome_json(&doc).expect("slow-log chrome trace validates");
        assert_eq!(sum.lanes, 2);
        // One enclosing request span + two stage spans per lane.
        assert_eq!(sum.spans, 6);
        let json_doc = log.to_json();
        let v = crate::json::parse(&json_doc).expect("slow JSON parses");
        assert_eq!(v.get("retained").and_then(|x| x.as_f64()), Some(2.0));
    }
}

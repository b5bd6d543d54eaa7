//! # hpf-obs
//!
//! A lightweight span/event tracing layer for the phpf pipeline and the
//! SPMD backends. No external dependencies (matching the offline-shims
//! policy): timestamps come from [`std::time::Instant`], collection is a
//! plain per-thread buffer, and the exporters hand-roll their output.
//!
//! The model has three layers:
//!
//! * [`Tracer`] — the recording contract. Instrumented code talks to a
//!   `&mut dyn Tracer` (or a concrete collector) and pays nothing when
//!   tracing is off: [`NullTracer`] is a no-op whose [`Tracer::enabled`]
//!   gate lets hot paths skip event construction entirely.
//! * [`BufTracer`] — the buffered in-memory collector. Each thread of
//!   execution (the compile pipeline, or one SPMD rank) owns its own
//!   buffer and appends without any synchronization; buffers are merged
//!   once, after the run, into a [`Trace`]. This is the "lock-free-ish"
//!   design: the hot path is a `Vec` push, and the only cross-thread
//!   hand-off is moving the finished buffer out.
//! * [`Trace`] — the merged, ordered timeline. Merge ordering is
//!   deterministic and documented (DESIGN.md §6): pipeline events (no
//!   rank) first in recorded order, then each rank's events in ascending
//!   rank order, each rank's stream in its local recording order.
//!   Cross-rank wall-clock interleaving is deliberately *not* used for
//!   ordering — per-process clocks are not synchronized.
//!
//! Two exporters ship with the crate: [`chrome`] renders the Trace Event
//! Format consumed by `chrome://tracing` / Perfetto, and [`text`] renders
//! a compact run-length-coalesced text timeline.

pub mod chrome;
pub mod parse;
pub mod text;

pub use parse::parse_chrome_json;

use std::collections::BTreeMap;
use std::time::Instant;

/// The communication event kinds a timeline can carry, mirroring the wire
/// traffic of the executor and the replay runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CommKind {
    /// A single-element point-to-point transfer (send side).
    Send,
    /// A single-element point-to-point transfer (receive side).
    Recv,
    /// A coalesced (vectorized) section transfer, send side.
    SendVec,
    /// A coalesced (vectorized) section transfer, receive side.
    RecvVec,
    /// A reduction partial travelling member -> leader.
    Reduce,
    /// A reduction result broadcast leader -> member.
    Broadcast,
}

impl CommKind {
    pub fn name(self) -> &'static str {
        match self {
            CommKind::Send => "Send",
            CommKind::Recv => "Recv",
            CommKind::SendVec => "SendVec",
            CommKind::RecvVec => "RecvVec",
            CommKind::Reduce => "Reduce",
            CommKind::Broadcast => "Broadcast",
        }
    }
}

/// What one trace event records.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// A wall-clock span opens (pipeline phase or backend stage).
    Begin { name: String },
    /// The innermost open span with this name closes.
    End { name: String },
    /// One wire message, seen from one endpoint. Every transfer yields a
    /// send-side event on the sending rank and a receive-side event on
    /// the receiving rank; which side this event is follows from
    /// comparing [`TraceEvent::rank`] against `from`.
    Comm {
        kind: CommKind,
        from: usize,
        to: usize,
        /// Placed communication op index (`SpmdProgram::comms`), when the
        /// transfer belongs to one.
        op: Option<usize>,
        /// Pattern classification ("shift", "broadcast", "reduce",
        /// "element", ...), as tallied by `CommMetrics`.
        pattern: String,
        /// Vectorization placement: the loop level the message was
        /// hoisted to (0 = outside all loops).
        level: usize,
        /// The loop depth of the statement the data feeds.
        stmt_level: usize,
        /// Human-readable placement tag from `hpf-comm`'s placement
        /// machinery (e.g. "inner-loop", "hoisted L2->L0").
        place: String,
        /// Elements carried (grows as a vectorized group coalesces).
        elems: u64,
        /// Per-link wire sequence number (socket backend sends only).
        seq: Option<u64>,
    },
    /// A transport/codec fault (socket backend).
    Fault {
        /// Stable fault name: "seq-gap", "seq-repeat", "bad-checksum",
        /// "truncated", "closed", "deadline", ...
        name: String,
        detail: String,
        /// Peer rank of the failing link, when known.
        peer: Option<usize>,
        /// Sequence number of the last frame successfully read on that
        /// link before the fault (None if nothing arrived).
        last_seq: Option<u64>,
    },
}

/// One timestamped event in a timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since the owning collector's origin. Monotonic within
    /// one collector; *not* comparable across processes.
    pub t_us: u64,
    /// The rank that recorded the event; `None` for the compile pipeline
    /// (driver-side) stream.
    pub rank: Option<usize>,
    pub body: Body,
}

/// The recording contract instrumented code speaks.
///
/// Object-safe on purpose: pipeline code holds a `&mut dyn Tracer` so the
/// compile API does not go generic. `enabled` is the cheap gate — callers
/// that would allocate to build an event should check it first.
pub trait Tracer {
    /// Whether events are being kept. Hot paths may skip event
    /// construction when this is false.
    fn enabled(&self) -> bool;

    /// Record one event body (the collector stamps time and rank).
    fn record(&mut self, body: Body);

    /// Open a span.
    fn begin(&mut self, name: &str) {
        if self.enabled() {
            self.record(Body::Begin { name: name.to_string() });
        }
    }

    /// Close the innermost span with this name.
    fn end(&mut self, name: &str) {
        if self.enabled() {
            self.record(Body::End { name: name.to_string() });
        }
    }
}

/// Run `f` inside a `name` span on `t`.
pub fn span<T: Tracer + ?Sized, R>(t: &mut T, name: &str, f: impl FnOnce(&mut T) -> R) -> R {
    t.begin(name);
    let r = f(t);
    t.end(name);
    r
}

/// The disabled tracer: every operation is a no-op.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&mut self, _body: Body) {}
}

/// The buffered in-memory collector: one per thread of execution, merged
/// after the run. Appending is a plain `Vec` push — no locks, no atomics.
#[derive(Debug)]
pub struct BufTracer {
    origin: Instant,
    rank: Option<usize>,
    events: Vec<TraceEvent>,
}

impl BufTracer {
    pub fn new(rank: Option<usize>) -> BufTracer {
        BufTracer {
            origin: Instant::now(),
            rank,
            events: Vec::new(),
        }
    }

    /// A collector for the compile pipeline (rank-less) stream.
    pub fn pipeline() -> BufTracer {
        BufTracer::new(None)
    }

    /// A collector for one SPMD rank.
    pub fn for_rank(rank: usize) -> BufTracer {
        BufTracer::new(Some(rank))
    }

    pub fn rank(&self) -> Option<usize> {
        self.rank
    }

    /// Microseconds since this collector's origin.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Append an event body.
    pub fn push(&mut self, body: Body) {
        let ev = TraceEvent {
            t_us: self.now_us(),
            rank: self.rank,
            body,
        };
        self.events.push(ev);
    }

    /// Append already-stamped events recorded elsewhere (e.g. transport
    /// fault events, which carry their own clock). Their rank tags are
    /// rewritten to this collector's stream so the merged trace stays
    /// consistent even if the recorder used a different rank view.
    pub fn absorb(&mut self, events: Vec<TraceEvent>) {
        for mut ev in events {
            ev.rank = self.rank;
            self.events.push(ev);
        }
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Tracer for BufTracer {
    fn enabled(&self) -> bool {
        true
    }
    fn record(&mut self, body: Body) {
        self.push(body);
    }
}

/// Per-rank / per-op communication event counts extracted from a trace,
/// in the same shape as `CommMetrics` tallies them.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CommCounts {
    /// Send-side events per rank (indexed by rank).
    pub sends: Vec<u64>,
    /// Receive-side events per rank.
    pub recvs: Vec<u64>,
    /// Per placed-op counts: op index -> (send events, recv events).
    pub per_op: BTreeMap<usize, (u64, u64)>,
}

impl CommCounts {
    pub fn total_sends(&self) -> u64 {
        self.sends.iter().sum()
    }
}

/// The merged, ordered timeline of one run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Trace {
    /// Events in canonical merge order: pipeline stream first, then ranks
    /// ascending, each stream in local recording order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace::default()
    }

    /// A trace holding only a pipeline stream.
    pub fn from_pipeline(events: Vec<TraceEvent>) -> Trace {
        Trace { events }
    }

    /// Merge per-rank buffers (in any order) into canonical form.
    pub fn from_ranks(ranks: Vec<(usize, Vec<TraceEvent>)>) -> Trace {
        Trace::merge(Vec::new(), ranks)
    }

    /// Canonical merge: pipeline stream, then ranks ascending.
    pub fn merge(pipeline: Vec<TraceEvent>, mut ranks: Vec<(usize, Vec<TraceEvent>)>) -> Trace {
        ranks.sort_by_key(|(r, _)| *r);
        let mut events = pipeline;
        for (_, evs) in ranks {
            events.extend(evs);
        }
        Trace { events }
    }

    /// Put a pipeline stream in front of the existing events (used when
    /// the backend produced the rank streams before the driver had its
    /// own spans to contribute).
    pub fn prepend_pipeline(&mut self, mut pipeline: Vec<TraceEvent>) {
        pipeline.extend(std::mem::take(&mut self.events));
        self.events = pipeline;
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Highest rank present, plus one (0 if no rank events).
    pub fn nranks(&self) -> usize {
        self.events
            .iter()
            .filter_map(|e| e.rank)
            .max()
            .map(|r| r + 1)
            .unwrap_or(0)
    }

    pub fn pipeline_events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.rank.is_none())
    }

    pub fn rank_events(&self, rank: usize) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events.iter().filter(move |e| e.rank == Some(rank))
    }

    /// Names of pipeline spans in open order.
    pub fn span_names(&self) -> Vec<&str> {
        self.pipeline_events()
            .filter_map(|e| match &e.body {
                Body::Begin { name } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// `(name, duration µs)` for each completed pipeline span, in open
    /// order. Unclosed spans are skipped.
    pub fn span_durations(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        let mut stack: Vec<(String, u64, usize)> = Vec::new();
        for e in self.pipeline_events() {
            match &e.body {
                Body::Begin { name } => {
                    stack.push((name.clone(), e.t_us, out.len()));
                    // Reserve the slot so durations come out in open order.
                    out.push((name.clone(), 0));
                }
                Body::End { name } => {
                    if let Some(pos) = stack.iter().rposition(|(n, _, _)| n == name) {
                        let (_, t0, slot) = stack.remove(pos);
                        out[slot].1 = e.t_us.saturating_sub(t0);
                    }
                }
                _ => {}
            }
        }
        // Drop spans that never closed.
        let open: Vec<usize> = stack.iter().map(|(_, _, slot)| *slot).collect();
        out.into_iter()
            .enumerate()
            .filter(|(i, _)| !open.contains(i))
            .map(|(_, d)| d)
            .collect()
    }

    /// Check that spans strictly nest within every stream (pipeline and
    /// each rank): every `End` matches the innermost open `Begin`, and no
    /// span is left open.
    pub fn check_nesting(&self) -> Result<(), String> {
        let mut streams: BTreeMap<Option<usize>, Vec<&str>> = BTreeMap::new();
        for e in &self.events {
            let stack = streams.entry(e.rank).or_default();
            match &e.body {
                Body::Begin { name } => stack.push(name),
                Body::End { name } => match stack.pop() {
                    Some(open) if open == name => {}
                    Some(open) => {
                        return Err(format!(
                            "span end '{}' does not match innermost open span '{}'",
                            name, open
                        ))
                    }
                    None => return Err(format!("span end '{}' with no open span", name)),
                },
                _ => {}
            }
        }
        for (rank, stack) in streams {
            if let Some(open) = stack.last() {
                return Err(format!(
                    "span '{}' left open on stream {:?}",
                    open, rank
                ));
            }
        }
        Ok(())
    }

    /// Communication event counts in `CommMetrics` shape. An event is
    /// send-side iff the recording rank is the `from` endpoint.
    pub fn comm_counts(&self) -> CommCounts {
        let n = self.nranks();
        let mut c = CommCounts {
            sends: vec![0; n],
            recvs: vec![0; n],
            per_op: BTreeMap::new(),
        };
        for e in &self.events {
            if let Body::Comm { from, op, .. } = &e.body {
                let rank = match e.rank {
                    Some(r) => r,
                    None => continue,
                };
                let sending = rank == *from;
                if sending {
                    c.sends[rank] += 1;
                } else {
                    c.recvs[rank] += 1;
                }
                if let Some(i) = op {
                    let slot = c.per_op.entry(*i).or_insert((0, 0));
                    if sending {
                        slot.0 += 1;
                    } else {
                        slot.1 += 1;
                    }
                }
            }
        }
        c
    }

    /// Names of all fault events, in merge order.
    pub fn fault_names(&self) -> Vec<&str> {
        self.events
            .iter()
            .filter_map(|e| match &e.body {
                Body::Fault { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// A timestamp- and sequence-number-free rendering of the whole
    /// timeline, one event per line — the stable form golden-trace tests
    /// compare across runs and backends.
    pub fn signature(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&event_signature(e));
            out.push('\n');
        }
        out
    }

    /// The signature of one rank's comm/fault events only (phase spans
    /// and timestamps excluded) — the cross-backend comparison unit.
    pub fn comm_signature(&self, rank: usize) -> String {
        let mut out = String::new();
        for e in self.rank_events(rank) {
            if matches!(e.body, Body::Comm { .. } | Body::Fault { .. }) {
                out.push_str(&event_signature(e));
                out.push('\n');
            }
        }
        out
    }

    /// Compact JSON span summary (`{"spans":[{"name":...,"us":...},...]}`)
    /// for embedding next to BENCH_JSON lines.
    pub fn span_summary_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, (name, us)) in self.span_durations().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"us\":{}}}",
                chrome::json_escape(name),
                us
            ));
        }
        out.push_str("]}");
        out
    }

    /// chrome://tracing JSON (Trace Event Format).
    pub fn to_chrome_json(&self) -> String {
        chrome::render(self)
    }

    /// Compact text timeline.
    pub fn to_text(&self) -> String {
        text::render(self)
    }
}

/// Stable per-event rendering with timestamps and wire sequence numbers
/// stripped (both legitimately differ run-to-run and backend-to-backend).
fn event_signature(e: &TraceEvent) -> String {
    let rank = match e.rank {
        Some(r) => format!("r{}", r),
        None => "pipe".to_string(),
    };
    match &e.body {
        Body::Begin { name } => format!("{} begin {}", rank, name),
        Body::End { name } => format!("{} end {}", rank, name),
        Body::Comm {
            kind,
            from,
            to,
            op,
            pattern,
            level,
            stmt_level,
            place,
            elems,
            seq: _,
        } => format!(
            "{} {} {}->{} op={} pat={} lvl={}/{} place={} elems={}",
            rank,
            kind.name(),
            from,
            to,
            op.map(|i| i.to_string()).unwrap_or_else(|| "-".into()),
            pattern,
            level,
            stmt_level,
            place,
            elems
        ),
        Body::Fault {
            name,
            detail: _,
            peer,
            last_seq,
        } => format!(
            "{} fault {} peer={} last_seq={}",
            rank,
            name,
            peer.map(|p| p.to_string()).unwrap_or_else(|| "-".into()),
            last_seq.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm(kind: CommKind, from: usize, to: usize, op: Option<usize>) -> Body {
        Body::Comm {
            kind,
            from,
            to,
            op,
            pattern: "shift".into(),
            level: 1,
            stmt_level: 2,
            place: "hoisted L2->L1".into(),
            elems: 3,
            seq: None,
        }
    }

    #[test]
    fn buffer_records_in_order() {
        let mut b = BufTracer::for_rank(1);
        b.begin("replay");
        b.push(comm(CommKind::SendVec, 1, 0, Some(4)));
        b.end("replay");
        let evs = b.into_events();
        assert_eq!(evs.len(), 3);
        assert!(matches!(&evs[1].body, Body::Comm { elems: 3, .. }));
        assert!(evs.iter().all(|e| e.rank == Some(1)));
        assert!(evs.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    }

    #[test]
    fn null_tracer_keeps_nothing() {
        let mut t = NullTracer;
        assert!(!t.enabled());
        span(&mut t, "x", |t| t.record(comm(CommKind::Send, 0, 1, None)));
    }

    #[test]
    fn merge_orders_pipeline_then_ranks() {
        let mut p = BufTracer::pipeline();
        span(&mut p, "parse", |_| {});
        let mut r1 = BufTracer::for_rank(1);
        r1.record(comm(CommKind::Send, 1, 0, None));
        let mut r0 = BufTracer::for_rank(0);
        r0.record(comm(CommKind::Recv, 1, 0, None));
        let t = Trace::merge(
            p.into_events(),
            vec![(1, r1.into_events()), (0, r0.into_events())],
        );
        let ranks: Vec<Option<usize>> = t.events.iter().map(|e| e.rank).collect();
        assert_eq!(ranks, vec![None, None, Some(0), Some(1)]);
        assert_eq!(t.nranks(), 2);
        assert_eq!(t.span_names(), vec!["parse"]);
    }

    #[test]
    fn nesting_checker_accepts_wellformed_and_rejects_crossed() {
        let mut p = BufTracer::pipeline();
        p.begin("a");
        p.begin("b");
        p.end("b");
        p.end("a");
        assert!(Trace::from_pipeline(p.into_events()).check_nesting().is_ok());

        let mut q = BufTracer::pipeline();
        q.begin("a");
        q.begin("b");
        q.end("a");
        q.end("b");
        assert!(Trace::from_pipeline(q.into_events()).check_nesting().is_err());

        let mut r = BufTracer::pipeline();
        r.begin("a");
        assert!(Trace::from_pipeline(r.into_events()).check_nesting().is_err());
    }

    #[test]
    fn comm_counts_split_by_direction_and_op() {
        let mut r0 = BufTracer::for_rank(0);
        r0.record(comm(CommKind::SendVec, 0, 1, Some(2)));
        r0.record(comm(CommKind::Recv, 1, 0, None));
        let mut r1 = BufTracer::for_rank(1);
        r1.record(comm(CommKind::RecvVec, 0, 1, Some(2)));
        r1.record(comm(CommKind::Send, 1, 0, None));
        let t = Trace::from_ranks(vec![(0, r0.into_events()), (1, r1.into_events())]);
        let c = t.comm_counts();
        assert_eq!(c.sends, vec![1, 1]);
        assert_eq!(c.recvs, vec![1, 1]);
        assert_eq!(c.per_op.get(&2), Some(&(1, 1)));
        assert_eq!(c.total_sends(), 2);
    }

    #[test]
    fn signature_is_timestamp_free() {
        let mut a = BufTracer::for_rank(0);
        a.record(comm(CommKind::Send, 0, 1, Some(1)));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mut b = BufTracer::for_rank(0);
        b.record(comm(CommKind::Send, 0, 1, Some(1)));
        let ta = Trace::from_ranks(vec![(0, a.into_events())]);
        let tb = Trace::from_ranks(vec![(0, b.into_events())]);
        assert_eq!(ta.signature(), tb.signature());
        assert!(ta.signature().contains("Send 0->1 op=1"));
    }

    #[test]
    fn span_durations_follow_open_order() {
        let mut p = BufTracer::pipeline();
        p.begin("outer");
        p.begin("inner");
        p.end("inner");
        p.end("outer");
        let t = Trace::from_pipeline(p.into_events());
        let d = t.span_durations();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].0, "outer");
        assert_eq!(d[1].0, "inner");
        assert!(d[0].1 >= d[1].1);
        let json = t.span_summary_json();
        assert!(json.starts_with("{\"spans\":[{\"name\":\"outer\""), "{}", json);
    }

    #[test]
    fn fault_names_in_order() {
        let mut r = BufTracer::for_rank(2);
        r.record(Body::Fault {
            name: "seq-gap".into(),
            detail: "dropped frame(s)".into(),
            peer: Some(1),
            last_seq: Some(7),
        });
        let t = Trace::from_ranks(vec![(2, r.into_events())]);
        assert_eq!(t.fault_names(), vec!["seq-gap"]);
        assert!(t.signature().contains("fault seq-gap peer=1 last_seq=7"));
    }
}

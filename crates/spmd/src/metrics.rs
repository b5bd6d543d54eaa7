//! Communication observability: per-processor, per-pattern and
//! per-operation message accounting, shared by the reference executor
//! ([`crate::exec::SpmdExec`]) and the threaded replay runtime
//! ([`crate::runtime::replay`]).
//!
//! A *message* here is one wire transfer: a vectorized (coalesced) section
//! counts once however many elements it carries, while per-element traffic
//! counts one message per element. This makes the counters directly
//! comparable to the cost model's direct-wire message predictions
//! ([`crate::costsim`], checked by [`crate::crosscheck`]).

use std::collections::BTreeMap;

/// Pattern key for reduction combine traffic (not a placed `CommOp`).
pub const REDUCE: &str = "reduce";
/// Pattern key for cross-processor fetches that could not be attributed to
/// any placed communication operation. A non-zero count under this key
/// means the lowering's communication schedule missed real traffic.
pub const UNTRACKED: &str = "untracked";
/// Pattern key used by the replay runtime for per-element `Send` events,
/// whose originating operation is not recorded in the trace.
pub const ELEMENT: &str = "element";
/// Pattern key for data read while evaluating control predicates and loop
/// bounds globally (the executor's uniform branch decision). The schedule
/// places no operation for these — privatized predicates read local data
/// in the paper's model — so they are tallied apart, like [`REDUCE`].
pub const CONTROL: &str = "control";

/// Send/receive totals of one processor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcMetrics {
    pub sent_messages: u64,
    pub sent_bytes: u64,
    pub recv_messages: u64,
    pub recv_bytes: u64,
}

/// Totals of one communication pattern (`shift`, `broadcast`, ...).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatternCounters {
    pub messages: u64,
    pub bytes: u64,
}

/// Totals attributed to one placed communication operation (indexed like
/// `SpmdProgram::comms`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpMetrics {
    /// Wire messages (a coalesced section counts once).
    pub messages: u64,
    pub bytes: u64,
    /// Distinct elements carried by those messages.
    pub elements: u64,
}

/// Recovery-action counters: how much self-healing an execution needed.
/// All zeros on a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Frames resent at the link level. Always 0: a link fault is healed
    /// by gang respawn, never by retransmission. The field keeps the
    /// `"recovery"` JSON layout that benchmark tooling reads.
    pub retransmits: u64,
    /// Worker heartbeats that missed their deadline. Always 0: workers do
    /// not heartbeat, and a silent worker is declared dead at the result
    /// deadline. The field keeps the `"recovery"` JSON layout.
    pub heartbeat_misses: u64,
    /// Failed worker cohorts rerun from the start by a fresh cohort.
    pub respawns: u64,
    /// Whole-job downgrades to the in-process thread backend.
    pub fallbacks: u64,
}

impl RecoveryCounters {
    pub fn is_zero(&self) -> bool {
        *self == RecoveryCounters::default()
    }

    pub fn merge(&mut self, other: &RecoveryCounters) {
        self.retransmits += other.retransmits;
        self.heartbeat_misses += other.heartbeat_misses;
        self.respawns += other.respawns;
        self.fallbacks += other.fallbacks;
    }
}

/// Aggregated communication metrics of one execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommMetrics {
    pub per_proc: Vec<ProcMetrics>,
    pub per_pattern: BTreeMap<&'static str, PatternCounters>,
    pub per_op: Vec<OpMetrics>,
    /// Messages whose fetch could not be attributed to a placed `CommOp`.
    pub untracked_messages: u64,
    /// Peak number of simultaneously in-flight messages. The executor
    /// reports its peak count of open coalescing groups (messages under
    /// assembly); the threaded runtime reports real sent-but-not-received
    /// messages across all channels.
    pub max_in_flight: u64,
    /// Self-healing overhead: respawns and backend fallbacks (all zero on
    /// a fault-free run).
    pub recovery: RecoveryCounters,
}

impl CommMetrics {
    pub fn new(nproc: usize, nops: usize) -> CommMetrics {
        CommMetrics {
            per_proc: vec![ProcMetrics::default(); nproc],
            per_pattern: BTreeMap::new(),
            per_op: vec![OpMetrics::default(); nops],
            untracked_messages: 0,
            max_in_flight: 0,
            recovery: RecoveryCounters::default(),
        }
    }

    /// Total messages sent (aggregate over processors).
    pub fn messages(&self) -> u64 {
        self.per_proc.iter().map(|p| p.sent_messages).sum()
    }

    /// Total bytes sent (aggregate over processors).
    pub fn bytes(&self) -> u64 {
        self.per_proc.iter().map(|p| p.sent_bytes).sum()
    }

    /// Record one new message from `src` to `dst` carrying `bytes` payload
    /// so far (0 for a coalesced message opened empty; grow it with
    /// [`CommMetrics::note_payload`]).
    pub fn note_message(
        &mut self,
        pattern: &'static str,
        op: Option<usize>,
        src: usize,
        dst: usize,
        bytes: u64,
    ) {
        self.per_proc[src].sent_messages += 1;
        self.per_proc[src].sent_bytes += bytes;
        self.per_proc[dst].recv_messages += 1;
        self.per_proc[dst].recv_bytes += bytes;
        let pc = self.per_pattern.entry(pattern).or_default();
        pc.messages += 1;
        pc.bytes += bytes;
        match op {
            Some(i) => {
                self.per_op[i].messages += 1;
                self.per_op[i].bytes += bytes;
                if bytes > 0 {
                    self.per_op[i].elements += 1;
                }
            }
            None => {
                if pattern == UNTRACKED {
                    self.untracked_messages += 1;
                }
            }
        }
    }

    /// Add one element of `bytes` payload to an already-open coalesced
    /// message from `src` to `dst` (message counters unchanged).
    pub fn note_payload(
        &mut self,
        pattern: &'static str,
        op: usize,
        src: usize,
        dst: usize,
        bytes: u64,
    ) {
        self.per_proc[src].sent_bytes += bytes;
        self.per_proc[dst].recv_bytes += bytes;
        self.per_pattern.entry(pattern).or_default().bytes += bytes;
        self.per_op[op].bytes += bytes;
        self.per_op[op].elements += 1;
    }

    /// Record an observed in-flight message count (keeps the peak).
    pub fn saw_in_flight(&mut self, n: u64) {
        self.max_in_flight = self.max_in_flight.max(n);
    }

    /// Fold another metrics object into this one (used by the threaded
    /// runtime to merge per-worker accounting).
    pub fn merge(&mut self, other: &CommMetrics) {
        if self.per_proc.len() < other.per_proc.len() {
            self.per_proc.resize(other.per_proc.len(), ProcMetrics::default());
        }
        for (a, b) in self.per_proc.iter_mut().zip(&other.per_proc) {
            a.sent_messages += b.sent_messages;
            a.sent_bytes += b.sent_bytes;
            a.recv_messages += b.recv_messages;
            a.recv_bytes += b.recv_bytes;
        }
        if self.per_op.len() < other.per_op.len() {
            self.per_op.resize(other.per_op.len(), OpMetrics::default());
        }
        for (a, b) in self.per_op.iter_mut().zip(&other.per_op) {
            a.messages += b.messages;
            a.bytes += b.bytes;
            a.elements += b.elements;
        }
        for (k, b) in &other.per_pattern {
            let a = self.per_pattern.entry(k).or_default();
            a.messages += b.messages;
            a.bytes += b.bytes;
        }
        self.untracked_messages += other.untracked_messages;
        self.max_in_flight = self.max_in_flight.max(other.max_in_flight);
        self.recovery.merge(&other.recovery);
    }

    /// Render as a JSON object (hand-rolled: the workspace builds offline
    /// without a JSON serializer).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"messages\":{},\"bytes\":{},\"untracked_messages\":{},\"max_in_flight\":{}",
            self.messages(),
            self.bytes(),
            self.untracked_messages,
            self.max_in_flight
        ));
        out.push_str(",\"per_pattern\":{");
        let mut first = true;
        for (k, c) in &self.per_pattern {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{}\":{{\"messages\":{},\"bytes\":{}}}",
                k, c.messages, c.bytes
            ));
        }
        out.push_str("},\"per_proc\":[");
        for (i, p) in self.per_proc.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"sent_messages\":{},\"sent_bytes\":{},\"recv_messages\":{},\"recv_bytes\":{}}}",
                p.sent_messages, p.sent_bytes, p.recv_messages, p.recv_bytes
            ));
        }
        out.push_str("],\"per_op\":[");
        for (i, o) in self.per_op.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"messages\":{},\"bytes\":{},\"elements\":{}}}",
                o.messages, o.bytes, o.elements
            ));
        }
        out.push_str("],");
        out.push_str(&format!(
            "\"recovery\":{{\"retransmits\":{},\"heartbeat_misses\":{},\"respawns\":{},\"fallbacks\":{}}}",
            self.recovery.retransmits,
            self.recovery.heartbeat_misses,
            self.recovery.respawns,
            self.recovery.fallbacks
        ));
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_and_payload_accounting() {
        let mut m = CommMetrics::new(4, 2);
        m.note_message("shift", Some(0), 1, 0, 0);
        m.note_payload("shift", 0, 1, 0, 8);
        m.note_payload("shift", 0, 1, 0, 8);
        m.note_message("broadcast", Some(1), 2, 3, 8);
        assert_eq!(m.messages(), 2);
        assert_eq!(m.bytes(), 24);
        assert_eq!(m.per_op[0].messages, 1);
        assert_eq!(m.per_op[0].elements, 2);
        assert_eq!(m.per_op[0].bytes, 16);
        assert_eq!(m.per_op[1].elements, 1);
        assert_eq!(m.per_proc[1].sent_messages, 1);
        assert_eq!(m.per_proc[0].recv_bytes, 16);
        assert_eq!(m.per_pattern["shift"].messages, 1);
        assert_eq!(m.per_pattern["broadcast"].bytes, 8);
        assert_eq!(m.untracked_messages, 0);
    }

    #[test]
    fn untracked_counted_only_for_untracked_pattern() {
        let mut m = CommMetrics::new(2, 0);
        m.note_message(UNTRACKED, None, 0, 1, 8);
        m.note_message(REDUCE, None, 1, 0, 8);
        assert_eq!(m.untracked_messages, 1);
        assert_eq!(m.messages(), 2);
    }

    #[test]
    fn merge_folds_and_keeps_peak() {
        let mut a = CommMetrics::new(2, 1);
        a.note_message("shift", Some(0), 0, 1, 8);
        a.saw_in_flight(3);
        let mut b = CommMetrics::new(2, 1);
        b.note_message("shift", Some(0), 1, 0, 4);
        b.saw_in_flight(7);
        a.merge(&b);
        assert_eq!(a.messages(), 2);
        assert_eq!(a.bytes(), 12);
        assert_eq!(a.per_op[0].messages, 2);
        assert_eq!(a.max_in_flight, 7);
    }

    #[test]
    fn json_shape() {
        let mut m = CommMetrics::new(1, 1);
        m.note_message("shift", Some(0), 0, 0, 8);
        let j = m.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{}", j);
        assert!(j.contains("\"per_pattern\":{\"shift\""), "{}", j);
        assert!(j.contains("\"messages\":1"), "{}", j);
        assert!(j.contains("\"per_op\":[{"), "{}", j);
        assert!(j.contains("\"recovery\":{\"retransmits\":0"), "{}", j);
    }

    #[test]
    fn recovery_counters_merge_and_serialize() {
        let mut a = CommMetrics::new(1, 0);
        assert!(a.recovery.is_zero());
        a.recovery.retransmits = 2;
        let mut b = CommMetrics::new(1, 0);
        b.recovery.respawns = 1;
        b.recovery.fallbacks = 1;
        a.merge(&b);
        assert_eq!(
            a.recovery,
            RecoveryCounters {
                retransmits: 2,
                heartbeat_misses: 0,
                respawns: 1,
                fallbacks: 1,
            }
        );
        assert!(a.to_json().contains("\"respawns\":1"));
    }
}

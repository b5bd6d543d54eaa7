//! One rank's end of the wire, shared by every rank engine.
//!
//! The replay of a recorded trace ([`crate::runtime`], on threads and in
//! the socket workers) and the node programs ([`crate::node`]) differ in
//! how a rank works out what it sends and receives, not in how a message
//! moves. [`Wire`] owns the rank's [`Transport`] and moves one value or
//! one section at a time. Per message it does the wire-message accounting
//! of DESIGN §5b: the [`CommMetrics`] pattern, operation and per-slot
//! payload bytes, the run's one count of its traffic, and a `Body::Comm`
//! event on the rank's timeline when the run is traced. It checks what
//! arrives against what the engine expects (one value or a section, and
//! the section's length), and [`Wire::finish`] tears the transport down
//! once for every engine.

use crate::exec::{Slot, Tag};
use crate::lower::SpmdProgram;
use crate::metrics::CommMetrics;
use hpf_ir::interp::{InterpError, Memory};
use hpf_ir::{Program, Value};
use hpf_net::{Transport, WireMsg};
use hpf_obs::{Body, BufTracer, CommKind};
use std::sync::Arc;

/// A rank's endpoint: its transport, wire metrics and timeline.
pub struct Wire<'s, T: Transport> {
    sp: &'s SpmdProgram,
    pid: usize,
    transport: T,
    metrics: CommMetrics,
    /// Comm events (when `traced`) and, at [`Wire::finish`], the
    /// transport's fault events, which are kept untraced too: they name
    /// the links that failed.
    timeline: BufTracer,
    traced: bool,
}

impl<'s, T: Transport> Wire<'s, T> {
    /// The endpoint of `transport`'s rank; `traced` records a comm event
    /// per message.
    pub fn new(sp: &'s SpmdProgram, transport: T, traced: bool) -> Wire<'s, T> {
        let pid = transport.rank();
        Wire {
            sp,
            pid,
            metrics: CommMetrics::new(transport.nproc(), sp.comms.len()),
            transport,
            timeline: BufTracer::for_rank(pid),
            traced,
        }
    }

    pub(crate) fn sp(&self) -> &'s SpmdProgram {
        self.sp
    }

    pub(crate) fn rank(&self) -> usize {
        self.pid
    }

    /// Send `val`, the value of `slot`, to `to` as one element message of
    /// class `tag`.
    pub(crate) fn send_one(
        &mut self,
        to: usize,
        slot: Slot,
        val: Value,
        tag: Tag,
    ) -> Result<(), String> {
        self.transport
            .send(to, &WireMsg::One(val))
            .map_err(|e| format!("element send to {}: {}", to, e))?;
        let bytes = slot_bytes(&self.sp.program, slot);
        let pattern = tag.pattern(self.sp);
        self.metrics
            .note_message(pattern, tag.op(), self.pid, to, bytes);
        let seq = self.transport.link_seq(to);
        let levels = tag.levels(self.sp);
        self.record(tag.kinds().0, (self.pid, to), tag.op(), pattern, levels, 1, seq);
        Ok(())
    }

    /// Send the section of op `op` to `to`: `vals` are the values of
    /// `slots`, in order.
    pub(crate) fn send_section(
        &mut self,
        to: usize,
        op: usize,
        slots: &[Slot],
        vals: Arc<Vec<Value>>,
    ) -> Result<(), String> {
        self.transport
            .send(to, &WireMsg::Many(vals))
            .map_err(|e| format!("section send (op {}) to {}: {}", op, to, e))?;
        let pattern = self.sp.comms[op].pattern.name();
        self.metrics
            .note_message(pattern, Some(op), self.pid, to, 0);
        for &s in slots {
            let bytes = slot_bytes(&self.sp.program, s);
            self.metrics.note_payload(pattern, op, self.pid, to, bytes);
        }
        let seq = self.transport.link_seq(to);
        let levels = Tag::Op(op).levels(self.sp);
        let elems = slots.len() as u64;
        self.record(CommKind::SendVec, (self.pid, to), Some(op), pattern, levels, elems, seq);
        Ok(())
    }

    /// Receive one value of class `tag` from `from`.
    pub(crate) fn recv_one(&mut self, from: usize, tag: Tag) -> Result<Value, String> {
        let what = match tag {
            Tag::Reduce(_) => "reduction partial",
            _ => "element recv",
        };
        let fail = |e: String| format!("{} from {}: {}", what, from, e);
        let v = match self.transport.recv(from).map_err(|e| fail(e.to_string()))? {
            WireMsg::One(v) => v,
            WireMsg::Many(_) => {
                return Err(fail(
                    "expected a single-value message, got a section".into(),
                ))
            }
        };
        let (pattern, levels) = (tag.pattern(self.sp), tag.levels(self.sp));
        self.record(tag.kinds().1, (from, self.pid), tag.op(), pattern, levels, 1, None);
        Ok(v)
    }

    /// Receive the section of op `op` from `from`, of `len` values when
    /// the engine knows how many it expects.
    pub(crate) fn recv_section(
        &mut self,
        from: usize,
        op: usize,
        len: Option<usize>,
    ) -> Result<Arc<Vec<Value>>, String> {
        let fail = |e: String| format!("section recv (op {}) from {}: {}", op, from, e);
        let vals = match self.transport.recv(from).map_err(|e| fail(e.to_string()))? {
            WireMsg::Many(v) => v,
            WireMsg::One(_) => {
                return Err(fail(
                    "expected a coalesced section, got a single value".into(),
                ))
            }
        };
        if let Some(n) = len.filter(|&n| n != vals.len()) {
            return Err(fail(format!(
                "section length mismatch: got {}, expected {}",
                vals.len(),
                n
            )));
        }
        let pattern = self.sp.comms[op].pattern.name();
        let levels = Tag::Op(op).levels(self.sp);
        let elems = vals.len() as u64;
        self.record(CommKind::RecvVec, (from, self.pid), Some(op), pattern, levels, elems, None);
        Ok(vals)
    }

    /// A message's comm event, when the run is traced. A send's carries the
    /// link's wire sequence number (socket backend); receive-side numbers
    /// would race the reader thread, so receives carry none.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        kind: CommKind,
        (from, to): (usize, usize),
        op: Option<usize>,
        pattern: &str,
        (level, stmt_level): (usize, usize),
        elems: u64,
        seq: Option<u64>,
    ) {
        if self.traced {
            self.timeline.push(Body::Comm {
                kind,
                from,
                to,
                op,
                pattern: pattern.to_string(),
                level,
                stmt_level,
                place: hpf_comm::placement_tag(level, stmt_level),
                elems,
                seq,
            });
        }
    }

    /// End the rank: after an engine run that succeeded, tear the
    /// transport down and fold its in-flight peak into the metrics; in
    /// every case move the transport's fault events onto the timeline.
    /// Returns the run's output with the rank's metrics (or the first
    /// error), and the rank's timeline.
    pub fn finish<M>(
        mut self,
        run: Result<M, String>,
    ) -> (Result<(CommMetrics, M), String>, BufTracer) {
        let run = run.and_then(|out| match self.transport.finish() {
            Ok(()) => Ok(out),
            Err(e) => Err(format!("proc {}: teardown: {}", self.pid, e)),
        });
        self.timeline.absorb(self.transport.take_fault_events());
        let res = run.map(|out| {
            self.metrics.saw_in_flight(self.transport.peak_in_flight());
            (self.metrics, out)
        });
        (res, self.timeline)
    }
}

/// Payload bytes of one slot on the wire.
pub fn slot_bytes(p: &Program, slot: Slot) -> u64 {
    let (Slot::Scalar(v) | Slot::Elem(v, _)) = slot;
    p.vars.info(v).ty.byte_size() as u64
}

/// The value a message carries from `slot`.
pub(crate) fn load(mem: &Memory, slot: Slot) -> Value {
    match slot {
        Slot::Scalar(v) => mem.scalar(v),
        Slot::Elem(v, off) => mem.array(v).get(off),
    }
}

/// Store a received value into `slot`, coerced to its variable's type.
pub(crate) fn store(
    p: &Program,
    mem: &mut Memory,
    slot: Slot,
    val: Value,
) -> Result<(), InterpError> {
    match slot {
        Slot::Scalar(v) => mem.set_scalar(v, val.coerce(p.vars.info(v).ty)?),
        Slot::Elem(v, off) => mem.array_mut(v).set(off, val)?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::Code;
    use crate::exec::Event;
    use hpf_analysis::Analysis;
    use hpf_dist::MappingTable;
    use hpf_net::channel_group;
    use phpf_core::CoreConfig;

    /// Rank 1 replays `event` while rank 0 has sent `msg` instead of what
    /// the event expects; returns rank 1's error.
    fn mismatch(event: Event, msg: WireMsg) -> String {
        let src = r#"
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE (BLOCK) :: A, B
REAL A(8), B(8)
INTEGER i
DO i = 2, 7
  B(i) = A(i-1) + A(i+1)
END DO
"#;
        let p = hpf_ir::parse_program(src).unwrap();
        let a = Analysis::run(&p);
        let maps = MappingTable::from_program(&p, None).unwrap();
        let d = phpf_core::map_program(&p, &a, &maps, CoreConfig::full());
        let sp = crate::lower::lower(&p, &a, &maps, d);
        assert!(!sp.comms.is_empty());
        let mut ranks = channel_group(2);
        ranks[0].send(1, &msg).unwrap();
        let mut wire = Wire::new(&sp, ranks.pop().unwrap(), true);
        let mut mem = Memory::zeroed(&sp.program);
        let code = Code::new(&sp);
        let err =
            crate::replay_rank_segment(&code, &[event], &mut mem, &mut wire, |_| {}).unwrap_err();
        let (res, _) = wire.finish(Err::<(), _>(err.clone()));
        assert_eq!(res.unwrap_err(), err, "finish passes the engine's error on");
        err
    }

    #[test]
    fn received_messages_must_match_what_the_rank_expects() {
        let a = hpf_ir::VarId(0);
        let slots = vec![Slot::Elem(a, 0), Slot::Elem(a, 1)];
        let section = |n: usize| WireMsg::Many(Arc::new(vec![Value::Real(1.0); n]));
        let err = mismatch(
            Event::RecvVec {
                from: 0,
                op: 0,
                slots: slots.clone(),
            },
            WireMsg::One(Value::Real(1.0)),
        );
        assert_eq!(
            err,
            "proc 1: section recv (op 0) from 0: expected a coalesced section, got a single value"
        );
        let err = mismatch(
            Event::Recv {
                from: 0,
                slot: slots[0],
                tag: crate::Tag::Op(0),
            },
            section(2),
        );
        assert_eq!(
            err,
            "proc 1: element recv from 0: expected a single-value message, got a section"
        );
        let err = mismatch(
            Event::RecvVec {
                from: 0,
                op: 0,
                slots,
            },
            section(3),
        );
        assert_eq!(
            err,
            "proc 1: section recv (op 0) from 0: section length mismatch: got 3, expected 2"
        );
    }
}

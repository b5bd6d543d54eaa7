//! Binary codec for recorded [`Event`] lists.
//!
//! The socket driver ships each worker process its own rank's slice of
//! the reference executor's trace instead of having every worker re-run
//! the executor. Events are written with the [`hpf_net::frame`] payload
//! helpers, one chunk at a time:
//!
//! ```text
//! chunk  := u32 count, count × event
//! event  := u8 tag, fields
//!   0 Send      u32 to,   slot
//!   1 Recv      u32 from, slot
//!   2 SendVec   u32 to,   u32 op, u32 n, n × slot
//!   3 RecvVec   u32 from, u32 op, u32 n, n × slot
//!   4 Exec      u32 stmt, env
//!   5 CondExec  u32 stmt, env
//!   6 RecvPartial u32 from, u8 has_loc
//!   7 Combine   u8 redop, u32 acc, u8 has_loc, [u32 loc], u64 count
//! slot   := u8 0, u32 var | u8 1, u32 var, u64 offset
//! env    := u32 depth, depth × (u32 var, i64 value)
//! ```
//!
//! Decoding checks every id against the compiled program (statement,
//! variable, operation, peer rank, array offset, scalar-vs-array slot), so
//! a corrupt or mismatched stream is an `Err`, never a panic in the
//! replay that consumes it.

use crate::exec::{Event, Slot};
use crate::lower::SpmdProgram;
use hpf_analysis::RedOp;
use hpf_ir::{StmtId, VarId};
use hpf_net::frame::{Dec, Enc, FrameError};

fn enc_slot(e: &mut Enc, s: Slot) {
    match s {
        Slot::Scalar(v) => {
            e.u8(0);
            e.u32(v.0);
        }
        Slot::Elem(v, off) => {
            e.u8(1);
            e.u32(v.0);
            e.u64(off as u64);
        }
    }
}

fn enc_slots(e: &mut Enc, slots: &[Slot]) {
    e.u32(slots.len() as u32);
    for &s in slots {
        enc_slot(e, s);
    }
}

fn enc_env(e: &mut Enc, env: &[(VarId, i64)]) {
    e.u32(env.len() as u32);
    for &(v, x) in env {
        e.u32(v.0);
        e.i64(x);
    }
}

fn redop_code(op: RedOp) -> u8 {
    match op {
        RedOp::Sum => 0,
        RedOp::Prod => 1,
        RedOp::Max => 2,
        RedOp::Min => 3,
        RedOp::MaxLoc => 4,
    }
}

fn enc_event(e: &mut Enc, ev: &Event) {
    match ev {
        Event::Send { to, slot } => {
            e.u8(0);
            e.u32(*to as u32);
            enc_slot(e, *slot);
        }
        Event::Recv { from, slot } => {
            e.u8(1);
            e.u32(*from as u32);
            enc_slot(e, *slot);
        }
        Event::SendVec { to, op, slots } => {
            e.u8(2);
            e.u32(*to as u32);
            e.u32(*op as u32);
            enc_slots(e, slots);
        }
        Event::RecvVec { from, op, slots } => {
            e.u8(3);
            e.u32(*from as u32);
            e.u32(*op as u32);
            enc_slots(e, slots);
        }
        Event::Exec { stmt, env } => {
            e.u8(4);
            e.u32(stmt.0);
            enc_env(e, env);
        }
        Event::CondExec { stmt, env } => {
            e.u8(5);
            e.u32(stmt.0);
            enc_env(e, env);
        }
        Event::RecvPartial { from, has_loc } => {
            e.u8(6);
            e.u32(*from as u32);
            e.boolean(*has_loc);
        }
        Event::Combine {
            op,
            acc,
            loc,
            count,
        } => {
            e.u8(7);
            e.u8(redop_code(*op));
            e.u32(acc.0);
            e.boolean(loc.is_some());
            if let Some(v) = loc {
                e.u32(v.0);
            }
            e.u64(*count as u64);
        }
    }
}

/// Append one chunk — a count followed by events from the front of
/// `events` — to `e`, stopping once `e.buf` has reached `max_bytes` (at
/// least one event is written when `events` is non-empty). Returns how
/// many events the chunk holds; pass `usize::MAX` to encode them all.
pub fn encode_events(e: &mut Enc, events: &[Event], max_bytes: usize) -> usize {
    let count_at = e.buf.len();
    e.u32(0);
    let mut n = 0;
    for ev in events {
        if n > 0 && e.buf.len() >= max_bytes {
            break;
        }
        enc_event(e, ev);
        n += 1;
    }
    e.buf[count_at..count_at + 4].copy_from_slice(&(n as u32).to_le_bytes());
    n
}

/// The ids a decoded event may name.
struct Bounds {
    nproc: usize,
    nstmts: usize,
    nops: usize,
    /// Per variable: `None` for a scalar, the element count for an array.
    vars: Vec<Option<usize>>,
}

fn bad(msg: String) -> FrameError {
    FrameError::Decode(msg)
}

/// An id, read as a `u32`, that must be below `limit`.
fn id(d: &mut Dec, limit: usize, what: &str) -> Result<usize, FrameError> {
    let i = d.u32()? as usize;
    if i >= limit {
        return Err(bad(format!(
            "{} {} out of range ({} in all)",
            what, i, limit
        )));
    }
    Ok(i)
}

impl Bounds {
    fn peer(&self, d: &mut Dec) -> Result<usize, FrameError> {
        id(d, self.nproc, "peer rank")
    }

    fn op(&self, d: &mut Dec) -> Result<usize, FrameError> {
        id(d, self.nops, "comm op")
    }

    fn stmt(&self, d: &mut Dec) -> Result<StmtId, FrameError> {
        Ok(StmtId(id(d, self.nstmts, "statement")? as u32))
    }

    /// A variable id and its kind (see [`Bounds::vars`]).
    fn var(&self, d: &mut Dec) -> Result<(VarId, Option<usize>), FrameError> {
        let v = id(d, self.vars.len(), "variable")?;
        Ok((VarId(v as u32), self.vars[v]))
    }

    /// A variable id, which must name a scalar.
    fn scalar(&self, d: &mut Dec) -> Result<VarId, FrameError> {
        match self.var(d)? {
            (v, None) => Ok(v),
            (v, Some(_)) => Err(bad(format!("variable {} is an array, not a scalar", v.0))),
        }
    }

    fn slot(&self, d: &mut Dec) -> Result<Slot, FrameError> {
        match d.u8()? {
            0 => Ok(Slot::Scalar(self.scalar(d)?)),
            1 => {
                let (v, kind) = self.var(d)?;
                let off = d.u64()?;
                match kind {
                    Some(len) if off < len as u64 => Ok(Slot::Elem(v, off as usize)),
                    Some(len) => Err(bad(format!(
                        "offset {} out of range for variable {} ({} elements)",
                        off, v.0, len
                    ))),
                    None => Err(bad(format!("variable {} is a scalar, not an array", v.0))),
                }
            }
            t => Err(bad(format!("unknown slot tag {}", t))),
        }
    }

    fn slots(&self, d: &mut Dec) -> Result<Vec<Slot>, FrameError> {
        let n = d.u32()? as usize;
        // Every slot takes at least five bytes: a corrupt count cannot
        // reserve more than the payload could hold.
        let mut slots = Vec::with_capacity(n.min(d.remaining() / 5));
        for _ in 0..n {
            slots.push(self.slot(d)?);
        }
        Ok(slots)
    }

    fn env(&self, d: &mut Dec) -> Result<Vec<(VarId, i64)>, FrameError> {
        let n = d.u32()? as usize;
        let mut env = Vec::with_capacity(n.min(d.remaining() / 12));
        for _ in 0..n {
            let v = self.scalar(d)?;
            env.push((v, d.i64()?));
        }
        Ok(env)
    }

    fn event(&self, d: &mut Dec) -> Result<Event, FrameError> {
        Ok(match d.u8()? {
            0 => Event::Send {
                to: self.peer(d)?,
                slot: self.slot(d)?,
            },
            1 => Event::Recv {
                from: self.peer(d)?,
                slot: self.slot(d)?,
            },
            2 => Event::SendVec {
                to: self.peer(d)?,
                op: self.op(d)?,
                slots: self.slots(d)?,
            },
            3 => Event::RecvVec {
                from: self.peer(d)?,
                op: self.op(d)?,
                slots: self.slots(d)?,
            },
            4 => Event::Exec {
                stmt: self.stmt(d)?,
                env: self.env(d)?,
            },
            5 => Event::CondExec {
                stmt: self.stmt(d)?,
                env: self.env(d)?,
            },
            6 => Event::RecvPartial {
                from: self.peer(d)?,
                has_loc: d.boolean()?,
            },
            7 => {
                let op = match d.u8()? {
                    0 => RedOp::Sum,
                    1 => RedOp::Prod,
                    2 => RedOp::Max,
                    3 => RedOp::Min,
                    4 => RedOp::MaxLoc,
                    t => return Err(bad(format!("unknown reduction op code {}", t))),
                };
                let acc = self.scalar(d)?;
                let loc = if d.boolean()? {
                    Some(self.scalar(d)?)
                } else {
                    None
                };
                let count = d.u64()?;
                Event::Combine {
                    op,
                    acc,
                    loc,
                    count: usize::try_from(count)
                        .map_err(|_| bad(format!("combine count {} too large", count)))?,
                }
            }
            t => return Err(bad(format!("unknown event tag {}", t))),
        })
    }
}

/// Decode one chunk written by [`encode_events`], checking every id
/// against `sp` and a grid of `nproc` ranks.
pub fn decode_events(
    d: &mut Dec,
    sp: &SpmdProgram,
    nproc: usize,
) -> Result<Vec<Event>, FrameError> {
    let bounds = Bounds {
        nproc,
        nstmts: sp.program.num_stmts(),
        nops: sp.comms.len(),
        vars: sp
            .program
            .vars
            .iter()
            .map(|(_, info)| info.shape().map(|s| s.len().max(0) as usize))
            .collect(),
    };
    let n = d.u32()? as usize;
    // The smallest event (RecvPartial) takes six bytes.
    let mut events = Vec::with_capacity(n.min(d.remaining() / 6));
    for i in 0..n {
        let ev = bounds
            .event(d)
            .map_err(|e| bad(format!("event {} of {}: {}", i, n, decode_msg(e))))?;
        events.push(ev);
    }
    Ok(events)
}

fn decode_msg(e: FrameError) -> String {
    match e {
        FrameError::Decode(m) => m,
        other => other.to_string(),
    }
}

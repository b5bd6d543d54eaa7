//! Binary codec for recorded [`Event`] lists.
//!
//! The socket driver ships each worker process its own rank's slice of
//! the reference executor's trace instead of having every worker re-run
//! the executor. Events are written with the [`hpf_net::frame`] payload
//! helpers, one chunk at a time. Every id, count, offset and loop value is
//! a varint (`uv`: [`Enc::uvar`]; `iv`: zigzag [`Enc::ivar`]), so the
//! typical event takes a few bytes; only the chunk's event count is a
//! fixed `u32`, patched in place once the chunk is full:
//!
//! ```text
//! chunk  := u32 count, count × event
//! event  := u8 tag, fields
//!   0 Send      uv to,   slot, tag
//!   1 Recv      uv from, slot, tag
//!   2 SendVec   uv to,   uv op, uv n, n × slot
//!   3 RecvVec   uv from, uv op, uv n, n × slot
//!   4 Exec      uv stmt, env
//!   5 CondExec  uv stmt, env
//!   6 RecvPartial uv from, u8 has_loc, uv level
//!   7 Combine   u8 redop, uv acc, u8 has_loc, [uv loc], uv count
//! slot   := u8 0, uv var | u8 1, uv var, uv offset
//! tag    := u8 0, uv op | u8 k, uv level   (k: 1 control, 2 untracked,
//!                                           3 reduce, 4 broadcast)
//! env    := uv depth, depth × (uv var, iv value)
//! ```
//!
//! Decoding checks every id against the compiled program (statement,
//! variable, operation, peer rank, array offset, scalar-vs-array slot), so
//! a corrupt or mismatched stream is an `Err`, never a panic in the
//! replay that consumes it.

use crate::env::Env;
use crate::exec::{Event, Slot, Tag};
use crate::lower::SpmdProgram;
use hpf_analysis::RedOp;
use hpf_ir::{StmtId, VarId};
use hpf_net::frame::{Dec, Enc, FrameError};

fn enc_slot(e: &mut Enc, s: Slot) {
    match s {
        Slot::Scalar(v) => {
            e.u8(0);
            e.uvar(v.0.into());
        }
        Slot::Elem(v, off) => {
            e.u8(1);
            e.uvar(v.0.into());
            e.uvar(off as u64);
        }
    }
}

fn enc_slots(e: &mut Enc, slots: &[Slot]) {
    e.uvar(slots.len() as u64);
    for &s in slots {
        enc_slot(e, s);
    }
}

fn enc_tag(e: &mut Enc, tag: Tag) {
    let (k, x) = match tag {
        Tag::Op(i) => (0, i),
        Tag::Control(l) => (1, l),
        Tag::Untracked(l) => (2, l),
        Tag::Reduce(l) => (3, l),
        Tag::Broadcast(l) => (4, l),
    };
    e.u8(k);
    e.uvar(x as u64);
}

fn enc_env(e: &mut Enc, env: &Env) {
    e.uvar(env.len() as u64);
    for (v, x) in env.iter() {
        e.uvar(v.0.into());
        e.ivar(x);
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
        Event::Send { to, slot, tag } => {
            e.u8(0);
            e.uvar(*to as u64);
            enc_slot(e, *slot);
            enc_tag(e, *tag);
        }
        Event::Recv { from, slot, tag } => {
            e.u8(1);
            e.uvar(*from as u64);
            enc_slot(e, *slot);
            enc_tag(e, *tag);
        }
        Event::SendVec { to, op, slots } => {
            e.u8(2);
            e.uvar(*to as u64);
            e.uvar(*op as u64);
            enc_slots(e, slots);
        }
        Event::RecvVec { from, op, slots } => {
            e.u8(3);
            e.uvar(*from as u64);
            e.uvar(*op as u64);
            enc_slots(e, slots);
        }
        Event::Exec { stmt, env } => {
            e.u8(4);
            e.uvar(stmt.0.into());
            enc_env(e, env);
        }
        Event::CondExec { stmt, env } => {
            e.u8(5);
            e.uvar(stmt.0.into());
            enc_env(e, env);
        }
        Event::RecvPartial {
            from,
            has_loc,
            level,
        } => {
            e.u8(6);
            e.uvar(*from as u64);
            e.boolean(*has_loc);
            e.uvar(*level as u64);
        }
        Event::Combine {
            op,
            acc,
            loc,
            count,
        } => {
            e.u8(7);
            e.u8(redop_code(*op));
            e.uvar(acc.0.into());
            e.boolean(loc.is_some());
            if let Some(v) = loc {
                e.uvar(v.0.into());
            }
            e.uvar(*count as u64);
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

/// An id, read as a varint, that must be below `limit`.
fn id(d: &mut Dec, limit: usize, what: &str) -> Result<usize, FrameError> {
    let i = d.uvar()?;
    if i >= limit as u64 {
        return Err(bad(format!(
            "{} {} out of range ({} in all)",
            what, i, limit
        )));
    }
    Ok(i as usize)
}

/// A loop level, as a varint.
fn level(d: &mut Dec) -> Result<usize, FrameError> {
    let l = d.uvar()?;
    usize::try_from(l).map_err(|_| bad(format!("loop level {} too large", l)))
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
                let off = d.uvar()?;
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

    fn tag(&self, d: &mut Dec) -> Result<Tag, FrameError> {
        match d.u8()? {
            0 => Ok(Tag::Op(self.op(d)?)),
            k @ 1..=4 => {
                let l = level(d)?;
                Ok(match k {
                    1 => Tag::Control(l),
                    2 => Tag::Untracked(l),
                    3 => Tag::Reduce(l),
                    _ => Tag::Broadcast(l),
                })
            }
            t => Err(bad(format!("unknown message tag {}", t))),
        }
    }

    fn slots(&self, d: &mut Dec) -> Result<Vec<Slot>, FrameError> {
        let n = d.uvar()?;
        // Every slot takes at least two bytes: a corrupt count cannot
        // reserve more than the payload could hold.
        let mut slots = Vec::with_capacity((d.remaining() / 2).min(n as usize));
        for _ in 0..n {
            slots.push(self.slot(d)?);
        }
        Ok(slots)
    }

    fn env(&self, d: &mut Dec) -> Result<Env, FrameError> {
        let n = d.uvar()?;
        let mut env = Env::new();
        for _ in 0..n {
            let v = self.scalar(d)?;
            env.push(v, d.ivar()?);
        }
        Ok(env)
    }

    fn event(&self, d: &mut Dec) -> Result<Event, FrameError> {
        Ok(match d.u8()? {
            0 => Event::Send {
                to: self.peer(d)?,
                slot: self.slot(d)?,
                tag: self.tag(d)?,
            },
            1 => Event::Recv {
                from: self.peer(d)?,
                slot: self.slot(d)?,
                tag: self.tag(d)?,
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
                level: level(d)?,
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
                let count = d.uvar()?;
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
    // The smallest event (RecvPartial) takes four bytes.
    let mut events = Vec::with_capacity(n.min(d.remaining() / 4));
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

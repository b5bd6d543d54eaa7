//! The lowered communication schedule as a message-passing CSP.
//!
//! The per-rank event lists of a schedule (the executor's replay
//! `Trace`, or the streams the node programs record, which have one
//! epoch) are a closed CSP: sends are asynchronous enqueues onto per-link FIFO
//! channels, receives block on their link's head. This module proves
//! the three schedule properties:
//!
//! * **S101** — per-epoch multiset matching: within every epoch (the
//!   units the socket driver streams to its workers and each worker
//!   replays as a segment), each link carries exactly as many send units
//!   as receive units, separately for scalar and coalesced (vectorized)
//!   messages. A mismatch means an epoch's replay sends or expects a
//!   message the other side's epoch does not hold.
//! * **S102** — deadlock-freedom: a greedy round-robin execution of the
//!   CSP retires every event. FIFO links make the CSP confluent, so one
//!   schedule suffices; a stuck configuration is reported with every
//!   blocked rank and the receive it is waiting on (the cross-rank
//!   wait-for cycle).
//! * **S103** — no message crosses an epoch cut: a send matched by a
//!   receive in a different epoch means a coalescing group (or a plain
//!   transfer) is still open when the cut is taken, so the epoch handed
//!   to the workers is not final.
//! * **S104** — payload agreement: a matched send/receive pair must
//!   agree on kind (scalar vs. coalesced), on the placed operation (or
//!   the class of a per-element message), and on the slot vector, or the
//!   receiver scatters values into the wrong memory.

use std::collections::{HashMap, VecDeque};

use hpf_ir::Program;
use hpf_spmd::{Event, Slot, Trace};

use crate::diag::Diagnostic;

/// Cap on diagnostics per code: one witness proves the property broken,
/// a handful shows the shape; thousands help nobody.
const MAX_PER_CODE: usize = 5;

/// A matched send/receive pair, both sides as (rank, event index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchedPair {
    pub send: (usize, usize),
    pub recv: (usize, usize),
}

/// Result of executing the schedule CSP.
#[derive(Debug, Clone, Default)]
pub struct Sim {
    /// Every matched pair, in retirement order.
    pub pairs: Vec<MatchedPair>,
    /// Global retirement order of all events, consistent with program
    /// order per rank and with message causality across ranks.
    pub order: Vec<(usize, usize)>,
    /// Blocked (rank, pending event index) pairs if the CSP gets stuck.
    pub deadlock: Option<Vec<(usize, usize)>>,
}

/// Execute the CSP: greedy per-rank progress over FIFO links.
pub fn simulate(trace: &Trace) -> Sim {
    let n = trace.len();
    let mut cursor = vec![0usize; n];
    let mut links: HashMap<(usize, usize), VecDeque<(usize, usize)>> = HashMap::new();
    let mut sim = Sim::default();
    loop {
        let mut progress = false;
        for r in 0..n {
            'rank: while cursor[r] < trace[r].len() {
                let i = cursor[r];
                match &trace[r][i] {
                    Event::Send { to, .. } => {
                        links.entry((r, *to)).or_default().push_back((r, i));
                    }
                    Event::SendVec { to, .. } => {
                        links.entry((r, *to)).or_default().push_back((r, i));
                    }
                    Event::Recv { from, .. } | Event::RecvVec { from, .. } => {
                        let q = links.entry((*from, r)).or_default();
                        match q.pop_front() {
                            Some(s) => sim.pairs.push(MatchedPair { send: s, recv: (r, i) }),
                            None => break 'rank,
                        }
                    }
                    Event::RecvPartial { from, has_loc, .. } => {
                        let need = 1 + *has_loc as usize;
                        let q = links.entry((*from, r)).or_default();
                        if q.len() < need {
                            break 'rank;
                        }
                        for _ in 0..need {
                            let s = q.pop_front().expect("length checked");
                            sim.pairs.push(MatchedPair { send: s, recv: (r, i) });
                        }
                    }
                    Event::Exec { .. } | Event::CondExec { .. } | Event::Combine { .. } => {}
                }
                sim.order.push((r, i));
                cursor[r] += 1;
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    let stuck: Vec<(usize, usize)> = (0..n)
        .filter(|&r| cursor[r] < trace[r].len())
        .map(|r| (r, cursor[r]))
        .collect();
    if !stuck.is_empty() {
        sim.deadlock = Some(stuck);
    }
    sim
}

/// Normalize epoch cuts: at least the trivial [start, end] pair.
pub fn normalize_cuts(trace: &Trace, cuts: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let lens: Vec<usize> = trace.iter().map(|t| t.len()).collect();
    if cuts.len() < 2 {
        return vec![vec![0; trace.len()], lens];
    }
    cuts.to_vec()
}

/// Epoch of event `idx` on `rank`: the last cut at or before it.
pub fn epoch_of(cuts: &[Vec<usize>], rank: usize, idx: usize) -> usize {
    let mut e = 0;
    for (k, c) in cuts.iter().enumerate() {
        if c.get(rank).copied().unwrap_or(0) <= idx {
            e = k;
        } else {
            break;
        }
    }
    e
}

/// Run every schedule check; returns the diagnostics and the executed
/// CSP (whose matched pairs seed the happens-before relation).
pub fn check_schedule(p: &Program, trace: &Trace, cuts: &[Vec<usize>]) -> (Vec<Diagnostic>, Sim) {
    let cuts = normalize_cuts(trace, cuts);
    let mut out = Vec::new();

    check_epoch_matching(trace, &cuts, &mut out);

    let sim = simulate(trace);
    if let Some(stuck) = &sim.deadlock {
        let mut d = Diagnostic::error(
            "S102",
            format!(
                "schedule deadlock: {} rank(s) blocked on receives no send satisfies",
                stuck.len()
            ),
        );
        for &(r, i) in stuck.iter().take(MAX_PER_CODE) {
            d = d.note(format!(
                "rank {} blocked at event {} ({}), epoch {}",
                r,
                i,
                event_text(p, &trace[r][i]),
                epoch_of(&cuts, r, i)
            ));
        }
        if stuck.len() > MAX_PER_CODE {
            d = d.note(format!("... and {} more", stuck.len() - MAX_PER_CODE));
        }
        out.push(d);
    }

    // S103: matched pairs must not cross an epoch cut.
    let mut crossings = 0usize;
    for pr in &sim.pairs {
        let se = epoch_of(&cuts, pr.send.0, pr.send.1);
        let re = epoch_of(&cuts, pr.recv.0, pr.recv.1);
        if se != re {
            crossings += 1;
            if crossings <= MAX_PER_CODE {
                let vec_pair = matches!(trace[pr.send.0][pr.send.1], Event::SendVec { .. })
                    || matches!(trace[pr.recv.0][pr.recv.1], Event::RecvVec { .. });
                out.push(
                    Diagnostic::error(
                        "S103",
                        format!(
                            "{} crosses an epoch cut: sent in epoch {} (rank {} event {}), \
                             received in epoch {} (rank {} event {})",
                            if vec_pair {
                                "coalescing group left open"
                            } else {
                                "message"
                            },
                            se,
                            pr.send.0,
                            pr.send.1,
                            re,
                            pr.recv.0,
                            pr.recv.1
                        ),
                    )
                    .note(format!("send: {}", event_text(p, &trace[pr.send.0][pr.send.1])))
                    .note(format!("recv: {}", event_text(p, &trace[pr.recv.0][pr.recv.1]))),
                );
            }
        }
    }
    if crossings > MAX_PER_CODE {
        out.push(Diagnostic::error(
            "S103",
            format!("... and {} more epoch-crossing messages", crossings - MAX_PER_CODE),
        ));
    }

    // S104: payload agreement on every matched pair.
    let mut mismatches = 0usize;
    for pr in &sim.pairs {
        let send = &trace[pr.send.0][pr.send.1];
        let recv = &trace[pr.recv.0][pr.recv.1];
        let complaint: Option<String> = match (send, recv) {
            (
                Event::Send {
                    slot: ss, tag: st, ..
                },
                Event::Recv {
                    slot: rs, tag: rt, ..
                },
            ) => {
                if ss != rs {
                    Some(format!(
                        "slot mismatch: sends {}, receives into {}",
                        slot_text(p, ss),
                        slot_text(p, rs)
                    ))
                } else if st != rt {
                    Some(format!("message class mismatch: sends {:?}, receives {:?}", st, rt))
                } else {
                    None
                }
            }
            (
                Event::SendVec {
                    op: so, slots: ssl, ..
                },
                Event::RecvVec {
                    op: ro, slots: rsl, ..
                },
            ) => {
                if so != ro {
                    Some(format!(
                        "coalesced pair disagrees on the placed operation: op {} vs op {}",
                        so, ro
                    ))
                } else if ssl != rsl {
                    Some(format!(
                        "coalesced slot vectors differ: {} sent vs {} received{}",
                        ssl.len(),
                        rsl.len(),
                        first_slot_divergence(p, ssl, rsl)
                    ))
                } else {
                    None
                }
            }
            (Event::Send { .. }, Event::RecvPartial { .. }) => None,
            _ => Some(format!(
                "kind mismatch: {} paired with {}",
                event_text(p, send),
                event_text(p, recv)
            )),
        };
        if let Some(c) = complaint {
            mismatches += 1;
            if mismatches <= MAX_PER_CODE {
                out.push(
                    Diagnostic::error(
                        "S104",
                        format!(
                            "matched pair rank {} event {} -> rank {} event {}: {}",
                            pr.send.0, pr.send.1, pr.recv.0, pr.recv.1, c
                        ),
                    )
                    .note(format!("send: {}", event_text(p, send)))
                    .note(format!("recv: {}", event_text(p, recv))),
                );
            }
        }
    }
    if mismatches > MAX_PER_CODE {
        out.push(Diagnostic::error(
            "S104",
            format!("... and {} more payload mismatches", mismatches - MAX_PER_CODE),
        ));
    }

    (out, sim)
}

/// S101: per-epoch, per-link send/receive unit counting.
fn check_epoch_matching(trace: &Trace, cuts: &[Vec<usize>], out: &mut Vec<Diagnostic>) {
    // (epoch, src, dst) -> [scalar sends, scalar recv units, vec sends, vec recvs]
    let mut tally: HashMap<(usize, usize, usize), [usize; 4]> = HashMap::new();
    for (r, evs) in trace.iter().enumerate() {
        for (i, e) in evs.iter().enumerate() {
            let ep = epoch_of(cuts, r, i);
            match e {
                Event::Send { to, .. } => tally.entry((ep, r, *to)).or_default()[0] += 1,
                Event::Recv { from, .. } => tally.entry((ep, *from, r)).or_default()[1] += 1,
                Event::RecvPartial { from, has_loc, .. } => {
                    tally.entry((ep, *from, r)).or_default()[1] += 1 + *has_loc as usize
                }
                Event::SendVec { to, .. } => tally.entry((ep, r, *to)).or_default()[2] += 1,
                Event::RecvVec { from, .. } => tally.entry((ep, *from, r)).or_default()[3] += 1,
                _ => {}
            }
        }
    }
    let mut keys: Vec<&(usize, usize, usize)> = tally.keys().collect();
    keys.sort();
    let mut reported = 0usize;
    for k in keys {
        let [ss, sr, vs, vr] = tally[k];
        let (ep, src, dst) = *k;
        for (kind, sent, recvd) in [("scalar", ss, sr), ("coalesced", vs, vr)] {
            if sent != recvd {
                reported += 1;
                if reported <= MAX_PER_CODE {
                    out.push(Diagnostic::error(
                        "S101",
                        format!(
                            "epoch {}: link {} -> {} carries {} {} send unit(s) but {} \
                             receive unit(s)",
                            ep, src, dst, sent, kind, recvd
                        ),
                    ));
                }
            }
        }
    }
    if reported > MAX_PER_CODE {
        out.push(Diagnostic::error(
            "S101",
            format!("... and {} more unmatched links", reported - MAX_PER_CODE),
        ));
    }
}

/// Render a replay event for a diagnostic note.
pub fn event_text(p: &Program, e: &Event) -> String {
    match e {
        Event::Send { to, slot, tag } => {
            format!("Send {} to rank {} ({:?})", slot_text(p, slot), to, tag)
        }
        Event::Recv { from, slot, tag } => {
            format!("Recv {} from rank {} ({:?})", slot_text(p, slot), from, tag)
        }
        Event::SendVec { to, op, slots } => format!(
            "SendVec op{} ({} slot(s)) to rank {}",
            op,
            slots.len(),
            to
        ),
        Event::RecvVec { from, op, slots } => format!(
            "RecvVec op{} ({} slot(s)) from rank {}",
            op,
            slots.len(),
            from
        ),
        Event::Exec { stmt, .. } => {
            format!("Exec stmt {} `{}`", stmt.0, hpf_ir::pretty::stmt_text(p, *stmt))
        }
        Event::CondExec { stmt, .. } => {
            format!("CondExec stmt {} `{}`", stmt.0, hpf_ir::pretty::stmt_text(p, *stmt))
        }
        Event::RecvPartial { from, has_loc, .. } => format!(
            "RecvPartial from rank {}{}",
            from,
            if *has_loc { " (with loc)" } else { "" }
        ),
        Event::Combine { acc, count, .. } => {
            format!("Combine {} partial(s) into {}", count, p.vars.name(*acc))
        }
    }
}

fn slot_text(p: &Program, s: &Slot) -> String {
    match s {
        Slot::Scalar(v) => p.vars.name(*v).to_string(),
        Slot::Elem(v, off) => match p.vars.info(*v).shape() {
            Some(shape) => {
                let idx: Vec<String> =
                    shape.delinearize(*off).iter().map(|i| i.to_string()).collect();
                format!("{}({})", p.vars.name(*v), idx.join(","))
            }
            None => format!("{}[{}]", p.vars.name(*v), off),
        },
    }
}

fn first_slot_divergence(p: &Program, a: &[Slot], b: &[Slot]) -> String {
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        if x != y {
            return format!(
                "; first divergence at position {}: {} vs {}",
                i,
                slot_text(p, x),
                slot_text(p, y)
            );
        }
    }
    String::new()
}

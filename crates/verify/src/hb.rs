//! Static happens-before race detection over the lowered schedule.
//!
//! The executed CSP ([`crate::csp::simulate`]) yields a causal order:
//! program order per rank plus one edge per matched message. Vector
//! clocks computed along that order give the full happens-before
//! relation of the schedule; two writes to the same owned element from
//! different ranks with incomparable clocks are a data race the
//! owner-computes discipline should have made impossible (**R201**).
//!
//! Writes whose subscripts the induction analysis cannot reduce to an
//! affine form over the iteration environment (a data-dependent pivot
//! row, say) cannot be attributed to an element statically; they are
//! skipped with an **R200** warning naming the statement, so a clean
//! verdict states exactly what was proved.

use std::collections::{HashMap, HashSet};

use hpf_analysis::Analysis;
use hpf_ir::{Affine, ArrayShape, LValue, Stmt, StmtId, VarId};
use hpf_spmd::{Event, SpmdProgram, Trace};

use crate::csp::Sim;
use crate::diag::Diagnostic;
use crate::render::stmt_text;

const MAX_RACES: usize = 5;

fn leq(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

fn join(into: &mut [u64], other: &[u64]) {
    for (x, y) in into.iter_mut().zip(other) {
        *x = (*x).max(*y);
    }
}

/// One attributed write: the element, who, where in the trace, and the
/// start of its vector clock in the shared clock arena.
struct Write {
    loc: (VarId, usize),
    rank: usize,
    event: usize,
    stmt: StmtId,
    clock: usize,
}

/// Check that every pair of cross-rank writes to the same owned element
/// is ordered by the schedule's happens-before relation.
pub fn check_races(
    sp: &SpmdProgram,
    a: &Analysis<'_>,
    trace: &Trace,
    sim: &Sim,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if sim.deadlock.is_some() {
        // The schedule never completes; ordering is meaningless and the
        // deadlock is already reported as S102.
        return out;
    }
    let p = &sp.program;
    let n = trace.len();

    let mut senders: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
    for pr in &sim.pairs {
        senders.entry(pr.recv).or_default().push(pr.send);
    }

    let attrs: Vec<WriteAttr> = (0..p.num_stmts())
        .map(|s| WriteAttr::of(sp, a, StmtId(s as u32)))
        .collect();
    let mut vc: Vec<Vec<u64>> = vec![vec![0; n]; n];
    let mut send_snap: HashMap<(usize, usize), Vec<u64>> = HashMap::new();
    let mut writes: Vec<Write> = Vec::new();
    let mut clocks: Vec<u64> = Vec::new();
    let mut idx = Vec::new();
    let mut unattributed: HashSet<StmtId> = HashSet::new();

    for &(r, i) in &sim.order {
        vc[r][r] += 1;
        match &trace[r][i] {
            Event::Send { .. } | Event::SendVec { .. } => {
                send_snap.insert((r, i), vc[r].clone());
            }
            Event::Recv { .. } | Event::RecvVec { .. } | Event::RecvPartial { .. } => {
                if let Some(ss) = senders.get(&(r, i)) {
                    for s in ss {
                        let snap = send_snap
                            .get(s)
                            .expect("retirement order respects causality")
                            .clone();
                        join(&mut vc[r], &snap);
                    }
                }
            }
            Event::Exec { stmt, env } => match attrs[stmt.index()].element(env, &mut idx) {
                Ok(Some(loc)) => {
                    writes.push(Write {
                        loc,
                        rank: r,
                        event: i,
                        stmt: *stmt,
                        clock: clocks.len(),
                    });
                    clocks.extend_from_slice(&vc[r]);
                }
                Ok(None) => {}
                Err(Unattributed) => {
                    unattributed.insert(*stmt);
                }
            },
            Event::CondExec { .. } | Event::Combine { .. } => {}
        }
    }

    let mut stmts: Vec<StmtId> = unattributed.into_iter().collect();
    stmts.sort_by_key(|s| s.0);
    for s in stmts {
        out.push(
            Diagnostic::warning(
                "R200",
                format!(
                    "write at stmt {} `{}` has a data-dependent subscript; its elements \
                     cannot be attributed statically and are excluded from the race check",
                    s.0,
                    stmt_text(p, s)
                ),
            )
            .at(s),
        );
    }

    // Group by element in ascending order; the stable sort keeps each
    // element's writes in retirement order.
    writes.sort_by_key(|w| w.loc);
    let clock = |w: &Write| &clocks[w.clock..w.clock + n];
    let mut races = 0usize;
    for ws in writes.chunk_by(|x, y| x.loc == y.loc) {
        if ws.iter().all(|w| w.rank == ws[0].rank) {
            continue; // single-writer element: nothing to order
        }
        'pairs: for (x, w1) in ws.iter().enumerate() {
            for w2 in &ws[x + 1..] {
                if w1.rank == w2.rank {
                    continue;
                }
                if !leq(clock(w1), clock(w2)) && !leq(clock(w2), clock(w1)) {
                    races += 1;
                    if races <= MAX_RACES {
                        let (v, off) = w1.loc;
                        let elem = match p.vars.info(v).shape() {
                            Some(shape) => {
                                let idx: Vec<String> = shape
                                    .delinearize(off)
                                    .iter()
                                    .map(|i| i.to_string())
                                    .collect();
                                format!("{}({})", p.vars.name(v), idx.join(","))
                            }
                            None => format!("{}[{}]", p.vars.name(v), off),
                        };
                        out.push(
                            Diagnostic::error(
                                "R201",
                                format!(
                                    "unordered concurrent writes to {}: rank {} (event {}, \
                                     stmt {}) and rank {} (event {}, stmt {}) have no \
                                     happens-before edge",
                                    elem, w1.rank, w1.event, w1.stmt.0, w2.rank, w2.event,
                                    w2.stmt.0
                                ),
                            )
                            .at(w1.stmt)
                            .note(format!("first write: `{}`", stmt_text(p, w1.stmt)))
                            .note(format!("second write: `{}`", stmt_text(p, w2.stmt))),
                        );
                    }
                    break 'pairs; // one witness per element
                }
            }
        }
    }
    if races > MAX_RACES {
        out.push(Diagnostic::error(
            "R201",
            format!("... and {} more unordered write pairs", races - MAX_RACES),
        ));
    }
    out
}

/// How the writes of one statement are attributed to owned elements,
/// decided once per statement.
enum WriteAttr<'p> {
    /// Not a write to distributed, non-private array data: replicated
    /// copies are written everywhere by design and privatized dimensions
    /// give each rank its own copy, so neither can race.
    Skip,
    /// Some subscript has no affine form: every write is excluded (R200).
    DataDependent,
    /// Affine subscripts, evaluated per write over the iteration
    /// environment.
    Affine {
        array: VarId,
        shape: &'p ArrayShape,
        subs: Vec<Affine>,
    },
}

impl<'p> WriteAttr<'p> {
    fn of(sp: &'p SpmdProgram, a: &Analysis<'_>, stmt: StmtId) -> WriteAttr<'p> {
        let p = &sp.program;
        let Stmt::Assign {
            lhs: LValue::Array(r),
            ..
        } = p.stmt(stmt)
        else {
            return WriteAttr::Skip;
        };
        let m = sp.maps.of(r.array);
        let Some(shape) = p.vars.info(r.array).shape() else {
            return WriteAttr::Skip;
        };
        if m.is_fully_replicated() || !m.private_dims().is_empty() {
            return WriteAttr::Skip;
        }
        let subs: Option<Vec<Affine>> = r
            .subs
            .iter()
            .map(|sub| a.induction.affine_view(p, &a.cfg, &a.dom, stmt, sub))
            .collect();
        match subs {
            Some(subs) => WriteAttr::Affine {
                array: r.array,
                shape,
                subs,
            },
            None => WriteAttr::DataDependent,
        }
    }

    /// The element one executed write targets under the iteration
    /// environment `env`: `Ok(None)` when the statement cannot race.
    /// `idx` is scratch space for the subscript values.
    fn element(
        &self,
        env: &[(VarId, i64)],
        idx: &mut Vec<i64>,
    ) -> Result<Option<(VarId, usize)>, Unattributed> {
        let (array, shape, subs) = match self {
            WriteAttr::Skip => return Ok(None),
            WriteAttr::DataDependent => return Err(Unattributed),
            WriteAttr::Affine { array, shape, subs } => (array, shape, subs),
        };
        let lookup = |v| env.iter().find(|(w, _)| *w == v).map(|(_, x)| *x);
        idx.clear();
        for af in subs {
            idx.push(af.eval(&lookup).ok_or(Unattributed)?);
        }
        Ok(Some((*array, shape.linearize(idx))))
    }
}

/// A write whose element cannot be determined statically (R200).
struct Unattributed;

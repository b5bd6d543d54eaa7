//! Rank-local node programs: the thread backend's run path.
//!
//! Each rank runs the compiled [`Code`] of the lowered program itself, the
//! way the paper's compiler emits SPMD node programs (§4): it walks the
//! program's control flow, evaluates every guard for itself, runs the
//! statement instances it owns, and obtains every remote operand through a
//! message. Nobody simulates the other ranks and, on the run path, no
//! event trace is recorded; for the verifier, [`record`] has each rank
//! record its own schedule in the executor's trace shape.
//!
//! * *Iterations.* Before a loop runs, a rank bounds the iterations it
//!   visits with `hpf_dist::layout::owned_indices`, the derivation its
//!   stores are sized with: per owner reference in the loop (guards and
//!   remote-capable reads), the iterations whose element it owns. The
//!   union of those sets is every iteration in which the rank executes a
//!   statement or owns an operand another rank reads. Every rank also
//!   visits the iterations whose reference leaves the template, so that
//!   its guard or read faults there as the executor's does. A reference
//!   with no closed form (CYCLIC(k) under a non-unit stride, a subscript
//!   reading an unknown scalar) makes the rank visit every iteration,
//!   where the guard decides. [`loop_visits`] hands this plan to the
//!   compile report.
//! * *Stores.* A rank allocates only the elements it owns
//!   ([`crate::stores::rank_memory`]) and addresses them by the subscripts
//!   it evaluated; an access outside its store is a fault naming the rank
//!   and the statement.
//! * *Receives.* A rank's first read of a remote element of a hoisted
//!   operation receives that operation's whole section from the owner; its
//!   later reads of the same section take the next value in order, or, for
//!   an element already read, the value the section's cache kept for it.
//!   Per-element operations receive one value per read. No received value
//!   is written into the rank's arrays. This is the executor's coalescing
//!   rule seen from the reader: a section holds each element once, in
//!   first-read order, until the operation's placement loop advances.
//! * *Sends.* At the statement where the owner's walk passes another
//!   rank's first read of a section, it sends the section. Its elements are
//!   worked out when the walk reaches the first statement of the placement
//!   block that reads through the operation: the owner walks the rest of
//!   that block's iterations for the readers' guards and subscripts. The
//!   engine choice ([`engine`]) guarantees that everything this walk
//!   evaluates is already known at that point.
//! * *Owners* come from the executor's lookup, reading the rank's memory.
//! * *Reductions* run [`crate::lower::ReduceOp`]'s partial-then-combine
//!   over messages, folding with every engine's fold, in pid order.
//!
//! Every rank therefore sends exactly the messages the reference executor
//! records, in the same order per rank, through the same [`Wire`], so the
//! wire metrics and the per-rank timelines equal those of a trace replay.
//! Programs whose control flow, guards or subscripts depend on data
//! another rank owns (GOTOs, data-dependent IFs and DO bounds, DGEFA's
//! pivot search) keep the reference executor and replay: [`engine`] says
//! which engine runs a program and why.

use crate::code::{self, Code, Fault, Load, Read, Site, Stack, StmtCode};
use crate::env::Env;
use crate::exec::{Event, Slot, Tag};
use crate::lower::SpmdProgram;
use crate::runtime::{panic_text, run_ranks, spawn_ranks, Local, Replayed};
use crate::stores;
use crate::wire::Wire;
use hpf_analysis::{Cfg, ReachingDefs};
use hpf_dist::layout::{in_template, owned_indices};
use hpf_dist::{dist_owner, GridDimRule, ProcGrid};
use hpf_ir::interp::{InterpError, Memory};
use hpf_ir::pretty::stmt_text;
use hpf_ir::{
    Affine, ArrayRef, DistFormat, Expr, HeldDim, LValue, Program, Stmt, StmtId, Value, VarId,
};
use hpf_net::Transport;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Which engine runs a program on the thread backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Engine {
    /// Rank-local node programs.
    Node,
    /// The reference executor records a trace and the ranks replay it.
    Replay(Fallback),
}

/// Why a program runs on the reference executor and replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fallback {
    /// A GOTO: control leaves the structured walk every rank shares.
    Goto,
    /// An IF predicate or DO bound reads an array element or a scalar
    /// that is not the same on every rank.
    RemoteControl(String),
    /// A guard or a subscript reads an array element or a scalar that is
    /// not the same on every rank.
    RemoteSubscript(String),
    /// A hoisted operation's section would be worked out before a scalar
    /// its loops, guards or subscripts read is assigned.
    LateScalar { op: usize, var: String },
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Engine::Node => write!(f, "node programs"),
            Engine::Replay(why) => write!(f, "exec+replay ({})", why),
        }
    }
}

impl fmt::Display for Fallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fallback::Goto => write!(f, "the program has a GOTO"),
            Fallback::RemoteControl(what) => write!(
                f,
                "{} reads an array element or a non-replicated scalar",
                what
            ),
            Fallback::RemoteSubscript(what) => write!(
                f,
                "a guard or subscript of `{}` reads an array element or a non-replicated scalar",
                what
            ),
            Fallback::LateScalar { op, var } => write!(
                f,
                "operation {} is sent before `{}`, which its loops, guards or subscripts read, is assigned",
                op, var
            ),
        }
    }
}

/// Pick the engine of a lowered program on the thread backend: node
/// programs, unless a rank could not work out its own control flow,
/// guards, subscripts and send sets from data every rank holds.
pub fn engine(sp: &SpmdProgram) -> Engine {
    match fallback(sp) {
        Some(why) => Engine::Replay(why),
        None => Engine::Node,
    }
}

fn fallback(sp: &SpmdProgram) -> Option<Fallback> {
    let p = &sp.program;
    let same = |e: &Expr| reads_same(sp, e);
    for s in p.preorder() {
        match p.stmt(s) {
            Stmt::Goto(_) => return Some(Fallback::Goto),
            Stmt::If { cond, .. } => {
                // A MAXLOC reduction IF reads its accumulator, which is
                // never replicated, so it always lands here.
                if !same(cond) {
                    let what = format!("IF {}", hpf_ir::pretty::print_expr(p, cond));
                    return Some(Fallback::RemoteControl(what));
                }
            }
            Stmt::Do {
                var, lo, hi, step, ..
            } => {
                if ![lo, hi, step].into_iter().all(same) {
                    let (lo, hi) = (
                        hpf_ir::pretty::print_expr(p, lo),
                        hpf_ir::pretty::print_expr(p, hi),
                    );
                    let what = format!("DO {} = {}, {}", p.vars.name(*var), lo, hi);
                    return Some(Fallback::RemoteControl(what));
                }
            }
            Stmt::Assign { .. } => {
                let subs_same = subscripts_of(sp, s).iter().all(|e| same(e));
                if !subs_same {
                    return Some(Fallback::RemoteSubscript(stmt_text(p, s)));
                }
            }
            Stmt::Continue => {}
        }
    }
    for r in regions(sp) {
        if let Some(var) = late_scalar(sp, &r) {
            return Some(Fallback::LateScalar {
                op: r.op,
                var: p.vars.name(var).to_string(),
            });
        }
    }
    None
}

/// Does `e` read no array element and only scalars every rank holds
/// (those without an alignment target, which every rank assigns)?
fn reads_same(sp: &SpmdProgram, e: &Expr) -> bool {
    e.array_refs().is_empty()
        && e.scalar_reads().into_iter().all(|v| sp.scalar_target(v).is_none())
}

/// The subscripts a rank evaluates for an assignment, for itself or on a
/// reader's behalf: its guard's, its targets's, those of every array it
/// reads, and those of the alignment targets of the scalars it reads.
fn subscripts_of(sp: &SpmdProgram, s: StmtId) -> Vec<&Expr> {
    let p = &sp.program;
    let Stmt::Assign { lhs, rhs } = p.stmt(s) else {
        return Vec::new();
    };
    let mut out: Vec<&Expr> = Vec::new();
    if let crate::Guard::OwnerOf { r, .. } = sp.guard(s) {
        out.extend(&r.subs);
    }
    if let LValue::Array(r) = lhs {
        out.extend(&r.subs);
    }
    for r in rhs.array_refs() {
        out.extend(&r.subs);
    }
    for v in rhs.scalar_reads() {
        if let Some((target, _)) = sp.scalar_target(v) {
            out.extend(&target.subs);
        }
    }
    out
}

/// The statements of a hoisted operation's placement block that a section
/// spans: the operation's reads in `block[start..]`, one iteration of the
/// loop at its placement level (or the whole program at level 0).
struct Region<'p> {
    op: usize,
    block: &'p [StmtId],
    start: usize,
    /// The reading statements in the region.
    readers: Vec<StmtId>,
}

/// The placement regions of every hoisted operation, one per placement
/// block that holds its reads.
fn regions(sp: &SpmdProgram) -> Vec<Region<'_>> {
    let p = &sp.program;
    let mut out: Vec<Region> = Vec::new();
    for (op, c) in sp.comms.iter().enumerate() {
        if !c.hoisted() {
            continue;
        }
        let readers = std::iter::once(c.stmt).chain(c.merged.iter().map(|(s, _)| *s));
        for t in readers {
            let (scope, block): (Option<StmtId>, &[StmtId]) = match c.level {
                0 => (None, &p.body),
                l => match p.enclosing_loop_at_level(t, l) {
                    Some(lp) => match p.stmt(lp) {
                        Stmt::Do { body, .. } => (Some(lp), body),
                        _ => continue,
                    },
                    None => continue,
                },
            };
            // The ancestor of `t` (or `t`) that sits in the block.
            let mut top = t;
            while p.parent(top) != scope {
                match p.parent(top) {
                    Some(up) => top = up,
                    None => break,
                }
            }
            let Some(k) = block.iter().position(|&x| x == top) else {
                continue;
            };
            match out
                .iter_mut()
                .find(|r| r.op == op && std::ptr::eq(r.block, block))
            {
                Some(r) => {
                    r.start = r.start.min(k);
                    if !r.readers.contains(&t) {
                        r.readers.push(t);
                    }
                }
                None => out.push(Region {
                    op,
                    block,
                    start: k,
                    readers: vec![t],
                }),
            }
        }
    }
    out
}

/// A scalar that the sender's walk of region `r` reads (a loop bound, IF
/// predicate, guard or subscript on the way to a reading statement) but
/// that the region assigns, other than the index of a loop on that way.
fn late_scalar(sp: &SpmdProgram, r: &Region) -> Option<VarId> {
    let p = &sp.program;
    let mut assigned = Vec::new();
    for &s in &r.block[r.start..] {
        collect_assigned(p, s, &mut assigned);
    }
    for &t in &r.readers {
        // The statements from the region's block down to the reader.
        let mut path = vec![t];
        let mut cur = t;
        while let Some(up) = p.parent(cur) {
            if r.block.contains(&cur) {
                break;
            }
            path.push(up);
            cur = up;
        }
        let indices: Vec<VarId> = path.iter().filter_map(|&s| p.loop_var(s)).collect();
        let mut read = Vec::new();
        for &s in &path[1..] {
            for e in p.stmt(s).read_exprs() {
                read.extend(e.scalar_reads());
            }
        }
        for e in subscripts_of(sp, t) {
            read.extend(e.scalar_reads());
        }
        if let Some(v) = read
            .into_iter()
            .find(|v| assigned.contains(v) && !indices.contains(v))
        {
            return Some(v);
        }
    }
    None
}

fn collect_assigned(p: &Program, s: StmtId, out: &mut Vec<VarId>) {
    if let Some(v) = p.stmt(s).written_var() {
        out.push(v);
    }
    for block in p.stmt(s).blocks() {
        for &t in block {
            collect_assigned(p, t, out);
        }
    }
}

/// One grid dimension of an owner reference that bounds a loop.
#[derive(Debug, Clone, PartialEq)]
enum TermDim {
    /// A constant coordinate.
    Fixed { g: usize, at: usize },
    /// The distribution owner of template position `stride·x + offset`,
    /// where subscript `x = k·v + c0 + Σ coef·u` over the loop variable
    /// `v` and scalars `u` that stay fixed while the loop runs.
    ByDim {
        g: usize,
        k: i64,
        c0: i64,
        rest: Vec<(VarId, i64)>,
        dist: DistFormat,
        stride: i64,
        offset: i64,
        t_lo: i64,
        t_extent: i64,
    },
}

impl TermDim {
    fn grid_dim(&self) -> usize {
        match *self {
            TermDim::Fixed { g, .. } | TermDim::ByDim { g, .. } => g,
        }
    }
}

/// An owner reference in a loop: the iterations in which a rank owns the
/// referenced element, bounded per grid dimension. `exact` when every
/// grid dimension is bounded, so the bound is the owner set itself.
#[derive(Debug, Clone, PartialEq)]
struct Term {
    dims: Vec<TermDim>,
    exact: bool,
}

/// The owner references of one statement in a loop, as indices into
/// [`LoopTerms::terms`].
struct StmtTerms {
    /// The guard's.
    exec: usize,
    /// Those of its remote-capable reads.
    reads: Vec<usize>,
}

/// What bounds a loop's iterations per rank.
struct LoopTerms<'s> {
    terms: Vec<Term>,
    /// By term: the first reference it stands for.
    refs: Vec<&'s ArrayRef>,
    stmts: Vec<StmtTerms>,
}

/// The per-program tables every rank shares.
struct Plan<'s> {
    sp: &'s SpmdProgram,
    code: Code,
    /// By `StmtId` of an assignment: its reads that can be remote, in
    /// evaluation order.
    reads: Vec<Vec<Read>>,
    /// By `StmtId` of a DO: the owner references that bound the
    /// iterations a rank visits; `None` to visit them all.
    terms: Vec<Option<LoopTerms<'s>>>,
    /// By `StmtId`: the hoisted operations whose sections are worked out
    /// just before the statement runs, with the rest of its block.
    enum_at: Vec<Vec<usize>>,
    /// By `StmtId`: the hoisted operations read at or under it.
    under: Vec<Vec<usize>>,
    /// Every DO variable, restored after a send-set walk.
    do_vars: Vec<VarId>,
    /// By loop `StmtId`: it combines a reduction across ranks at its exit.
    combines: Vec<bool>,
}

impl<'s> Plan<'s> {
    fn new(sp: &'s SpmdProgram) -> Plan<'s> {
        let p = &sp.program;
        let n_stmts = p.num_stmts();
        let code = Code::new(sp);
        let reads = (0..n_stmts)
            .map(|s| match code.stmt(StmtId(s as u32)) {
                StmtCode::Assign { rhs, .. } => code
                    .reads(rhs)
                    .into_iter()
                    .filter(|r| match *r {
                        Read::Elem(k) => sp
                            .maps
                            .get(code.site(k).array)
                            .is_some_and(|m| m.is_distributed()),
                        Read::Scalar(v) => code.scalar_owner(v).is_some(),
                    })
                    .collect(),
                _ => Vec::new(),
            })
            .collect();
        let combines = combines(sp);
        let terms = all_loop_terms(sp, &combines);
        let mut enum_at = vec![Vec::new(); n_stmts];
        let mut under: Vec<Vec<usize>> = vec![Vec::new(); n_stmts];
        for r in regions(sp) {
            let first = &mut enum_at[r.block[r.start].index()];
            if !first.contains(&r.op) {
                first.push(r.op);
            }
            for &t in &r.readers {
                let mut cur = Some(t);
                while let Some(s) = cur {
                    if !under[s.index()].contains(&r.op) {
                        under[s.index()].push(r.op);
                    }
                    cur = p.parent(s);
                }
            }
        }
        Plan {
            sp,
            code,
            reads,
            terms,
            enum_at,
            under,
            do_vars: p.loop_index_vars(),
            combines,
        }
    }

    fn hoisted(&self, op: Option<usize>) -> bool {
        op.is_some_and(|i| self.sp.comms[i].hoisted())
    }
}

/// The iterations of one DO loop the ranks visit, as the node programs
/// bound them ([`loop_visits`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LoopVisits<'s> {
    pub stmt: StmtId,
    /// The owner references that bound the iterations a rank visits, one
    /// per distinct owner: a rank visits the iterations in which it owns
    /// one of them. `None` when every rank visits every iteration.
    pub owners: Option<Vec<&'s ArrayRef>>,
    /// The grid dimensions along which the loop's constant bounds and
    /// subscripts that read no scalar but the DO variable give each
    /// coordinate its own iterations.
    pub dims: Vec<DimVisits>,
}

/// The iterations a rank may visit, by its coordinate along one grid
/// dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct DimVisits {
    pub g: usize,
    /// By coordinate: disjoint ranges first, then cyclic sets; the loop's
    /// whole range for every iteration, `[]` for none.
    pub sets: Vec<Vec<HeldDim>>,
}

/// Which iterations each rank visits, for every DO loop of `sp` in
/// program order: the plan the node programs run, with each coordinate's
/// sets from the functions a rank bounds its loops with. `Err` says why
/// the node programs do not run `sp` ([`engine`]).
pub fn loop_visits(sp: &SpmdProgram) -> Result<Vec<LoopVisits<'_>>, Fallback> {
    if let Some(why) = fallback(sp) {
        return Err(why);
    }
    let p = &sp.program;
    let grid = &sp.maps.grid;
    let terms = all_loop_terms(sp, &combines(sp));
    let mut out = Vec::new();
    for s in p.preorder() {
        let Stmt::Do { lo, hi, .. } = p.stmt(s) else {
            continue;
        };
        let Some(lt) = &terms[s.index()] else {
            out.push(LoopVisits {
                stmt: s,
                owners: None,
                dims: Vec::new(),
            });
            continue;
        };
        let mut dims = Vec::new();
        let constant = |e: &Expr| Affine::from_expr(e).and_then(|f| f.as_const());
        if let (Some(lo), Some(hi)) = (constant(lo), constant(hi)) {
            let (a, b) = (lo.min(hi), lo.max(hi));
            let all = [HeldDim::Range { lo: a, hi: b }];
            let mut coords = vec![0; grid.rank()];
            for g in 0..grid.rank() {
                let mut sets = Vec::new();
                for c in 0..grid.extent(g) {
                    coords[g] = c;
                    let mut visits = Vec::new();
                    for t in &lt.terms {
                        let set = match t.dims.iter().find(|d| d.grid_dim() == g) {
                            Some(d) => dim_set(d, grid, &coords, &|_| None, (a, b), &mut visits).0,
                            None => all[0].clone(),
                        };
                        visits.push(set);
                    }
                    sets.push(union(visits, (a, b)));
                }
                if sets.iter().any(|s| *s != all) {
                    dims.push(DimVisits { g, sets });
                }
            }
        }
        out.push(LoopVisits {
            stmt: s,
            owners: Some(lt.refs.clone()),
            dims,
        });
    }
    Ok(out)
}

/// The union of `sets`, all within `a..=b`: its ranges merged and sorted,
/// then its distinct other sets; just `a..=b` when a range covers it.
fn union(sets: Vec<HeldDim>, (a, b): (i64, i64)) -> Vec<HeldDim> {
    let mut ranges = Vec::new();
    let mut others = Vec::new();
    for set in sets {
        match set {
            HeldDim::Range { lo, hi } if lo <= hi => ranges.push((lo, hi)),
            HeldDim::Range { .. } => {}
            set if !others.contains(&set) => others.push(set),
            _ => {}
        }
    }
    ranges.sort_unstable();
    let mut out: Vec<HeldDim> = Vec::new();
    for (lo, hi) in ranges {
        match out.last_mut() {
            Some(HeldDim::Range { hi: last, .. }) if lo <= last.saturating_add(1) => {
                *last = (*last).max(hi)
            }
            _ => out.push(HeldDim::Range { lo, hi }),
        }
    }
    if let Some(&HeldDim::Range { lo, hi }) = out.first() {
        if lo <= a && hi >= b {
            return vec![HeldDim::Range { lo: a, hi: b }];
        }
    }
    out.extend(others);
    out
}

/// By loop `StmtId`: it combines a reduction across ranks at its exit.
fn combines(sp: &SpmdProgram) -> Vec<bool> {
    (0..sp.program.num_stmts())
        .map(|s| {
            sp.reduces_of(StmtId(s as u32))
                .iter()
                .any(|r| !r.reduce_dims.is_empty())
        })
        .collect()
}

/// By `StmtId` of a DO: what bounds the iterations a rank visits.
fn all_loop_terms<'s>(sp: &'s SpmdProgram, combines: &[bool]) -> Vec<Option<LoopTerms<'s>>> {
    let p = &sp.program;
    let whole = whole_loops(p, combines);
    let mut terms: Vec<Option<LoopTerms>> = (0..p.num_stmts()).map(|_| None).collect();
    for s in p.preorder() {
        if let Stmt::Do { var, .. } = p.stmt(s) {
            terms[s.index()] = loop_terms(sp, s, *var, &whole);
        }
    }
    terms
}

/// By `StmtId`: the loops every rank must run in full wherever they are
/// nested, because every rank takes part in something they do: a
/// reduction combined at their exit, or a definition of their DO variable
/// that reaches a use outside the loop (or in its own bounds), by
/// reaching definitions.
fn whole_loops(p: &Program, combines: &[bool]) -> Vec<bool> {
    let mut whole = combines.to_vec();
    let cfg = Cfg::build(p);
    let rd = ReachingDefs::compute(p, &cfg);
    for l in p.preorder() {
        if p.loop_var(l).is_some()
            && rd
                .reached_uses(p, &cfg, l)
                .into_iter()
                .any(|t| t == l || !p.is_self_or_ancestor(l, t))
        {
            whole[l.index()] = true;
        }
    }
    whole
}

/// The owner references that bound loop `l`'s iterations: its statements'
/// guards and remote-capable reads. `None` when some statement runs on
/// every rank, a reference has no bounding dimension, or a loop inside it
/// must run in full ([`whole_loops`]): every rank visits every iteration.
fn loop_terms<'s>(
    sp: &'s SpmdProgram,
    l: StmtId,
    v: VarId,
    whole: &[bool],
) -> Option<LoopTerms<'s>> {
    let p = &sp.program;
    let Stmt::Do { body, .. } = p.stmt(l) else {
        return None;
    };
    // Scalars that change inside the loop: a subscript reading one does
    // not bound it.
    let mut changing = Vec::new();
    for &s in body {
        collect_assigned(p, s, &mut changing);
    }
    let mut out = LoopTerms {
        terms: Vec::new(),
        refs: Vec::new(),
        stmts: Vec::new(),
    };
    let mut add = |r: &'s ArrayRef, free: &[usize]| -> Option<usize> {
        let t = term(sp, r, free, v, &changing)?;
        Some(match out.terms.iter().position(|x| *x == t) {
            Some(i) => i,
            None => {
                out.terms.push(t);
                out.refs.push(r);
                out.terms.len() - 1
            }
        })
    };
    let mut stmts = Vec::new();
    let mut stack: Vec<StmtId> = body.clone();
    while let Some(s) = stack.pop() {
        match p.stmt(s) {
            Stmt::Assign { rhs, .. } => {
                let crate::Guard::OwnerOf { r, free_dims } = sp.guard(s) else {
                    return None;
                };
                let exec = add(r, free_dims)?;
                let mut reads = Vec::new();
                for r in rhs.array_refs() {
                    if sp.maps.of(r.array).is_distributed() {
                        reads.push(add(r, &[])?);
                    }
                }
                for w in rhs.scalar_reads() {
                    if let Some((target, free)) = sp.scalar_target(w) {
                        reads.push(add(target, free)?);
                    }
                }
                stmts.push(StmtTerms { exec, reads });
            }
            Stmt::Do { body, .. } => {
                if whole[s.index()] {
                    return None;
                }
                stack.extend(body);
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                stack.extend(then_body);
                stack.extend(else_body);
            }
            Stmt::Goto(_) | Stmt::Continue => {}
        }
    }
    out.stmts = stmts;
    Some(out)
}

/// The bounding dimensions of reference `r`: pinned grid dimensions whose
/// subscript is affine in scalars that stay fixed while loop `v` runs (or
/// in `v` itself). `None` when no dimension bounds it.
fn term(
    sp: &SpmdProgram,
    r: &ArrayRef,
    free: &[usize],
    v: VarId,
    changing: &[VarId],
) -> Option<Term> {
    let rules = &sp.maps.of(r.array).rules;
    let mut dims = Vec::new();
    for (g, rule) in rules.iter().enumerate() {
        if free.contains(&g) {
            continue;
        }
        match rule {
            GridDimRule::Fixed(at) => dims.push(TermDim::Fixed { g, at: *at }),
            GridDimRule::ByDim {
                array_dim,
                dist,
                stride,
                offset,
                t_lo,
                t_extent,
            } => {
                let Some(form) = Affine::from_expr(&r.subs[*array_dim]) else {
                    continue;
                };
                if form.vars().any(|u| u != v && changing.contains(&u)) {
                    continue;
                }
                dims.push(TermDim::ByDim {
                    g,
                    k: form.coeff(v),
                    c0: form.c0,
                    rest: form
                        .terms
                        .iter()
                        .filter(|&(&u, _)| u != v)
                        .map(|(&u, &c)| (u, c))
                        .collect(),
                    dist: *dist,
                    stride: *stride,
                    offset: *offset,
                    t_lo: *t_lo,
                    t_extent: *t_extent,
                });
            }
            GridDimRule::Replicated | GridDimRule::Private => {}
        }
    }
    let exact = free.is_empty() && dims.len() == rules.len();
    (!dims.is_empty()).then_some(Term { dims, exact })
}

/// `x ∩ y`, or a superset of it, and whether it is exactly `x ∩ y`.
fn meet(x: HeldDim, y: HeldDim) -> (HeldDim, bool) {
    use HeldDim::{Cyclic, Range};
    match (x, y) {
        (Range { lo: a0, hi: a1 }, Range { lo: b0, hi: b1 }) => {
            (Range { lo: a0.max(b0), hi: a1.min(b1) }, true)
        }
        (Range { lo, hi }, s @ Cyclic { lo: s0, hi: s1, .. })
        | (s @ Cyclic { lo: s0, hi: s1, .. }, Range { lo, hi }) => {
            if lo <= s0 && s1 <= hi {
                (s, true)
            } else if lo > hi || hi < s0 || s1 < lo {
                (HeldDim::EMPTY, true)
            } else {
                (s, false)
            }
        }
        (s, t) => {
            let exact = s == t;
            (s, exact)
        }
    }
}

/// `x` without `e`, or a superset of it: only a range is subtracted, and
/// only from a range.
fn minus(x: HeldDim, e: &HeldDim, out: &mut Vec<HeldDim>) {
    match (&x, e) {
        (&HeldDim::Range { lo: x0, hi: x1 }, &HeldDim::Range { lo: e0, hi: e1 }) if e0 <= e1 => {
            for (lo, hi) in [(x0, x1.min(e0 - 1)), (x0.max(e1 + 1), x1)] {
                if lo <= hi {
                    out.push(HeldDim::Range { lo, hi });
                }
            }
        }
        _ => out.push(x),
    }
}

/// The iterations `a..=b` in which the rank at grid coordinates `coords`
/// owns the element of an owner reference, and whether that is exactly
/// where it does. `scalar` gives the integer values of the scalars its
/// subscripts read, where known. The iterations whose reference leaves
/// the template go to `outside` ([`dim_set`]).
fn term_set(
    t: &Term,
    grid: &ProcGrid,
    coords: &[usize],
    scalar: &impl Fn(VarId) -> Option<i64>,
    (a, b): (i64, i64),
    outside: &mut Vec<HeldDim>,
) -> (HeldDim, bool) {
    let (mut set, mut exact) = (HeldDim::Range { lo: a, hi: b }, t.exact);
    for dim in &t.dims {
        let (s, e) = dim_set(dim, grid, coords, scalar, (a, b), outside);
        let (m, e_meet) = meet(set, s);
        set = m;
        exact &= e && e_meet;
    }
    (set, exact)
}

/// The iterations `a..=b` in which the rank at grid coordinates `coords`
/// is the owner along one grid dimension of a reference (it reads only
/// that dimension's coordinate), and whether the set is exact rather than
/// a superset. The iterations whose position along the dimension leaves
/// the template go to `outside`, and the set is then inexact: the
/// reference faults there, and every rank visits them to fault.
fn dim_set(
    dim: &TermDim,
    grid: &ProcGrid,
    coords: &[usize],
    scalar: &impl Fn(VarId) -> Option<i64>,
    (a, b): (i64, i64),
    outside: &mut Vec<HeldDim>,
) -> (HeldDim, bool) {
    let all = HeldDim::Range { lo: a, hi: b };
    let mine = |c: usize, g: usize| {
        if c == coords[g] {
            all.clone()
        } else {
            HeldDim::EMPTY
        }
    };
    match *dim {
        TermDim::Fixed { g, at } => (mine(at, g), true),
        TermDim::ByDim {
            g,
            k,
            c0,
            ref rest,
            dist,
            stride,
            offset,
            t_lo,
            t_extent,
        } => {
            let mut c = c0;
            for &(u, coef) in rest {
                match scalar(u) {
                    Some(x) => c = c.wrapping_add(coef.wrapping_mul(x)),
                    None => return (all, false),
                }
            }
            let nprocs = grid.extent(g);
            // Iteration `i` references template position `s·i + off`.
            let (s, off) = (stride * k, stride * c + offset - t_lo);
            if s == 0 {
                if off < 0 || off >= t_extent {
                    return (all, false);
                }
                return (mine(dist_owner(dist, off, t_extent, nprocs), g), true);
            }
            let (t0, t1) = in_template(s, off, t_extent, a, b);
            let before = outside.len();
            for (lo, hi) in [(a, (t0 - 1).min(b)), ((t1 + 1).max(a), b)] {
                if lo <= hi {
                    outside.push(HeldDim::Range { lo, hi });
                }
            }
            match owned_indices(dist, nprocs, coords[g], s, off, t_extent, a, b) {
                Some(set) => (set, outside.len() == before),
                None => (all, false),
            }
        }
    }
}

/// The iterations of one loop entry a rank visits.
enum Visit {
    All,
    Sets(Vec<HeldDim>),
}

impl Visit {
    /// The union of `sets`, all within `a..=b`.
    fn new(sets: Vec<HeldDim>, (a, b): (i64, i64)) -> Visit {
        let sets = union(sets, (a, b));
        if sets == [HeldDim::Range { lo: a, hi: b }] {
            Visit::All
        } else {
            Visit::Sets(sets)
        }
    }

    /// The first visited iteration from `i` on, in loop order, or `None`
    /// when the loop is done.
    fn from(&self, mut i: i64, hi: i64, step: i64) -> Option<i64> {
        loop {
            if (step > 0 && i > hi) || (step < 0 && i < hi) {
                return None;
            }
            match self {
                Visit::All => return Some(i),
                Visit::Sets(ss) => {
                    if ss.iter().any(|s| s.local(i).is_some()) {
                        return Some(i);
                    }
                    i += step;
                }
            }
        }
    }
}

/// The value a DO variable holds after its loop: the first one out of
/// range.
fn exit_value(lo: i64, hi: i64, step: i64) -> i64 {
    let trips = if step > 0 {
        if lo > hi {
            0
        } else {
            (hi - lo) / step + 1
        }
    } else if lo < hi {
        0
    } else {
        (lo - hi) / (-step) + 1
    };
    lo.wrapping_add(trips.wrapping_mul(step))
}

/// Where a value this rank sends lives: a scalar, or an element at its
/// position in the rank's store.
#[derive(Debug, Clone, Copy)]
enum Held {
    Scalar(VarId),
    Elem(VarId, usize),
}

/// A section this rank owes a reader, worked out ahead of the reader's
/// first read.
#[derive(Default)]
struct Outbound {
    slots: Vec<Slot>,
    /// By slot: where its value is read when the section is sent.
    held: Vec<Held>,
    seen: HashSet<Slot>,
    sent: bool,
}

/// A section this rank received, consumed in first-read order. Its values
/// stay here: a rank's stores hold only what it owns.
struct Inbound {
    vals: Arc<Vec<Value>>,
    next: usize,
    /// The slots read so far, with their values.
    seen: HashMap<Slot, Value>,
    /// Where its `RecvVec` sits in the recorded events, when recording.
    event: Option<usize>,
}

/// A rank's schedule as the verifier reads it ([`record`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RankSchedule {
    /// The rank's messages, reduction steps and owned writes
    /// ([`SpmdProgram::owned_write`]), in the shape of the reference
    /// executor's trace: per-element `Send`/`Recv`; a `SendVec` with the
    /// section the owner worked out; a `RecvVec` whose slots are the
    /// elements the reader read, in first-read order; `RecvPartial` and
    /// `Combine`; `Exec` with the enclosing loops' bindings.
    pub events: Vec<Event>,
    /// Why the rank stopped before its program's end, if it did.
    pub stop: Option<Stop>,
}

/// Why a recorded rank stopped early.
#[derive(Debug, Clone, PartialEq)]
pub enum Stop {
    /// Its own code failed, at statement `stmt` (`None`: it panicked).
    Fault { stmt: Option<StmtId>, error: String },
    /// A message failed: its peer stopped, or never sent. A receive that
    /// failed is the rank's last event.
    Message(String),
}

/// What a recording rank keeps.
struct Recorder<'a> {
    /// By `StmtId`: for an owned write, the DO variables of its enclosing
    /// loops, outermost first.
    writes: &'a [Option<Vec<VarId>>],
    events: Vec<Event>,
}

impl Recorder<'_> {
    /// The bindings of owned write `s` about to run on `mem`, as the
    /// executor records them: the enclosing loops' indices, then the DO
    /// variables it reads outside their loops. `None` for a statement that
    /// is not recorded.
    fn env(&self, s: StmtId, mem: &Memory, code: &Code) -> Option<Env> {
        let loops = self.writes[s.index()].as_ref()?;
        let mut env = Env::new();
        for &v in loops.iter().chain(code.exits(s)) {
            if let Value::Int(x) = mem.scalar(v) {
                env.push(v, x);
            }
        }
        Some(env)
    }
}

/// By `StmtId`: the enclosing loops' DO variables of every owned write.
fn recorded_writes(sp: &SpmdProgram) -> Vec<Option<Vec<VarId>>> {
    let p = &sp.program;
    (0..p.num_stmts())
        .map(|s| {
            let s = StmtId(s as u32);
            sp.owned_write(s).map(|_| {
                p.enclosing_loops(s)
                    .into_iter()
                    .filter_map(|l| p.loop_var(l))
                    .collect()
            })
        })
        .collect()
}

/// The same bound as the reference executor's.
const STEP_LIMIT: u64 = 2_000_000_000;

/// One rank's node program.
struct Rank<'a, 'w, T: Transport> {
    plan: &'a Plan<'a>,
    p: &'a Program,
    grid: &'a ProcGrid,
    pid: usize,
    /// This rank's grid coordinates.
    coords_me: Vec<usize>,
    mem: Memory,
    wire: &'w mut Wire<'a, T>,
    vectorize: bool,
    /// Enclosing loops of the statement being run.
    depth: usize,
    steps: u64,
    /// The statement being run or served.
    cur: StmtId,
    /// Sections owed, by (op, reader).
    outbox: HashMap<(usize, usize), Outbound>,
    /// Sections received, by (op, owner).
    inbox: HashMap<(usize, usize), Inbound>,
    /// The transport error behind the last `comm_fault()`.
    comm_err: Option<String>,
    /// The rank stopped at a message.
    message_failed: bool,
    /// The recorder, when the rank records its schedule.
    rec: Option<Recorder<'a>>,
    /// The deepest placement level of an owed or received section.
    deepest: Option<usize>,
    // Reusable buffers.
    st: Stack,
    idx: Vec<i64>,
    /// An assignment target's subscripts.
    target: Vec<i64>,
    pids: Vec<usize>,
}

/// A fault standing for the transport error stored in `Rank::comm_err`.
fn comm_fault() -> Fault {
    Box::new(InterpError::TypeError("communication failed".into()))
}

impl<'a, 'w, T: Transport> Rank<'a, 'w, T> {
    fn new(
        plan: &'a Plan<'a>,
        wire: &'w mut Wire<'a, T>,
        mem: Memory,
        vectorize: bool,
    ) -> Rank<'a, 'w, T> {
        let grid = &plan.sp.maps.grid;
        let pid = wire.rank();
        Rank {
            plan,
            p: &plan.sp.program,
            grid,
            pid,
            coords_me: grid.coords_of(pid),
            mem,
            wire,
            vectorize,
            depth: 0,
            steps: 0,
            cur: StmtId(0),
            outbox: HashMap::new(),
            inbox: HashMap::new(),
            comm_err: None,
            message_failed: false,
            rec: None,
            deepest: None,
            st: plan.code.stack(),
            idx: Vec::new(),
            target: Vec::new(),
            pids: Vec::new(),
        }
    }

    /// Run the node program.
    fn run(mut self) -> Result<Memory, String> {
        match self.walk() {
            Ok(()) => Ok(self.mem),
            Err(e) => {
                let pid = self.pid;
                let at = match *e {
                    InterpError::NotHeld { .. } => {
                        format!("s{} `{}`: ", self.cur.0, stmt_text(self.p, self.cur))
                    }
                    _ => String::new(),
                };
                Err(format!("proc {}: {}{}", pid, at, self.error_text(e)))
            }
        }
    }

    /// Run the node program and hand back what it recorded.
    fn record(mut self) -> RankSchedule {
        let stop = self.walk().err().map(|e| {
            let error = self.error_text(e);
            if self.message_failed {
                Stop::Message(error)
            } else {
                Stop::Fault {
                    stmt: Some(self.cur),
                    error,
                }
            }
        });
        let events = self.rec.take().map_or_else(Vec::new, |r| r.events);
        RankSchedule { events, stop }
    }

    fn walk(&mut self) -> Result<(), Fault> {
        let body = &self.p.body;
        self.block(body).and_then(|()| self.close(0))
    }

    fn error_text(&mut self, e: Fault) -> String {
        self.comm_err.take().unwrap_or_else(|| e.to_string())
    }

    /// Record `ev`, when recording.
    fn note(&mut self, ev: Event) {
        if let Some(rec) = &mut self.rec {
            rec.events.push(ev);
        }
    }

    /// The class of a per-element message through `op`.
    fn tag(&self, op: Option<usize>) -> Tag {
        op.map_or(Tag::Untracked(self.depth), Tag::Op)
    }

    fn fail(&mut self, msg: String) -> Fault {
        self.comm_err = Some(msg);
        comm_fault()
    }

    /// One message over the wire: its error fails the rank.
    fn message<R>(
        &mut self,
        op: impl FnOnce(&mut Wire<'a, T>, &Memory) -> Result<R, String>,
    ) -> Result<R, Fault> {
        op(self.wire, &self.mem).map_err(|e| {
            self.message_failed = true;
            self.fail(e)
        })
    }

    fn block(&mut self, block: &'a [StmtId]) -> Result<(), Fault> {
        for (k, &s) in block.iter().enumerate() {
            let ops = &self.plan.enum_at[s.index()];
            if self.vectorize && !ops.is_empty() {
                self.plan_sections(ops, &block[k..])?;
            }
            self.stmt(s)?;
        }
        Ok(())
    }

    fn tick(&mut self) -> Result<(), Fault> {
        self.steps += 1;
        if self.steps > STEP_LIMIT {
            return Err(InterpError::StepLimit.into());
        }
        Ok(())
    }

    fn stmt(&mut self, s: StmtId) -> Result<(), Fault> {
        self.tick()?;
        self.cur = s;
        let code = &self.plan.code;
        match (self.p.stmt(s), code.stmt(s)) {
            (Stmt::Assign { .. }, _) => {
                let mut pids = std::mem::take(&mut self.pids);
                code.guard_pids(s, &mut Local(&self.mem), &mut self.st, &mut pids)?;
                for &q in &pids {
                    if q == self.pid {
                        let env = self.rec.as_ref().and_then(|r| r.env(s, &self.mem, code));
                        let mut st = std::mem::take(&mut self.st);
                        let mut target = std::mem::take(&mut self.target);
                        let res = code.assign(s, self, &mut st, &mut target);
                        self.st = st;
                        self.target = target;
                        let (slot, val) = res?;
                        self.store(slot, val)?;
                        if let Some(env) = env {
                            self.note(Event::Exec { stmt: s, env });
                        }
                    } else if !self.plan.reads[s.index()].is_empty() {
                        self.serve(q, s)?;
                    }
                }
                self.pids = pids;
                Ok(())
            }
            (Stmt::Do { var, body, .. }, StmtCode::Do { lo, hi, step }) => {
                let (lo, hi, step) = self.bounds(lo, hi, step)?;
                let visit = self.visit(s, lo, hi, false);
                self.depth += 1;
                let mut i = lo;
                while let Some(x) = visit.from(i, hi, step) {
                    self.close(self.depth)?;
                    self.mem.set_scalar(*var, Value::Int(x));
                    self.block(body)?;
                    i = x + step;
                }
                self.depth -= 1;
                self.mem
                    .set_scalar(*var, Value::Int(exit_value(lo, hi, step)));
                self.cur = s;
                self.reduce(s)
            }
            (
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                },
                StmtCode::If { cond, .. },
            ) => {
                let c = code
                    .eval(cond, &mut Local(&self.mem), &mut self.st)?
                    .as_bool()?;
                self.block(if c { then_body } else { else_body })
            }
            (Stmt::Continue, _) => Ok(()),
            _ => unreachable!("node programs have no GOTO and every reached statement is compiled"),
        }
    }

    /// Store an assignment's result; an element target's subscripts are
    /// in `self.target`.
    fn store(&mut self, slot: Slot, val: Value) -> Result<(), Fault> {
        match slot {
            Slot::Scalar(v) => self.mem.set_scalar(v, val),
            Slot::Elem(a, off) => {
                let store = self.mem.array_mut(a);
                match store.at(&self.target, off) {
                    Some(k) => store.store(k, val)?,
                    None => return Err(self.plan.code.not_held(a, &self.target)),
                }
            }
        }
        Ok(())
    }

    /// Where this rank reads the value of `slot` it sends; an element's
    /// subscripts are in `self.idx` ([`Rank::locate`]).
    fn held(&self, slot: Slot) -> Result<Held, Fault> {
        match slot {
            Slot::Scalar(v) => Ok(Held::Scalar(v)),
            Slot::Elem(a, off) => match self.mem.array(a).at(&self.idx, off) {
                Some(k) => Ok(Held::Elem(a, k)),
                None => Err(self.plan.code.not_held(a, &self.idx)),
            },
        }
    }

    fn bounds(
        &mut self,
        lo: crate::code::Span,
        hi: crate::code::Span,
        step: crate::code::Span,
    ) -> Result<(i64, i64, i64), Fault> {
        let code = &self.plan.code;
        let l = &mut Local(&self.mem);
        let st = &mut self.st;
        let b = (
            code.eval_int(lo, l, st)?,
            code.eval_int(hi, l, st)?,
            code.eval_int(step, l, st)?,
        );
        if b.2 == 0 {
            return Err(InterpError::DivisionByZero.into());
        }
        Ok(b)
    }

    /// The iterations of loop `l` (running `lo` to `hi`) this rank visits:
    /// those in which it executes a statement or owns an operand of one,
    /// or, for a send-set walk (`serving`), those in which it owns an
    /// operand of a statement it may not execute itself.
    fn visit(&self, l: StmtId, lo: i64, hi: i64, serving: bool) -> Visit {
        let Some(lt) = &self.plan.terms[l.index()] else {
            return Visit::All;
        };
        let bounds = (lo.min(hi), lo.max(hi));
        let scalar = |u: VarId| match self.mem.scalar(u) {
            Value::Int(x) => Some(x),
            _ => None,
        };
        // Every rank visits the iterations that leave a template.
        let mut out = Vec::new();
        let sets: Vec<(HeldDim, bool)> = lt
            .terms
            .iter()
            .map(|t| term_set(t, self.grid, &self.coords_me, &scalar, bounds, &mut out))
            .collect();
        if !serving {
            out.extend(sets.into_iter().map(|(set, _)| set));
        } else {
            for st in &lt.stmts {
                let (exec, exact) = &sets[st.exec];
                for &r in &st.reads {
                    let x = sets[r].0.clone();
                    if *exact {
                        minus(x, exec, &mut out);
                    } else {
                        out.push(x);
                    }
                }
            }
        }
        Visit::new(out, bounds)
    }

    /// Where `reader`'s read `r` of statement `s` comes from: the owner,
    /// the slot and the operation. An element's subscripts are left in
    /// `self.idx`.
    fn locate(
        &mut self,
        r: Read,
        s: StmtId,
        reader: usize,
    ) -> Result<(usize, Slot, Option<usize>), Fault> {
        let plan = self.plan;
        match r {
            Read::Elem(k) => {
                let mut idx = std::mem::take(&mut self.idx);
                let site = plan.code.site(k);
                let found = plan
                    .code
                    .site_index(k, &mut Local(&self.mem), &mut self.st, &mut idx)
                    .map(|off| (plan.code.elem_owner(site, &idx, reader), off));
                self.idx = idx;
                let (src, off) = found?;
                let op = plan.code.site_op(site, Some(s));
                Ok((src, Slot::Elem(site.array, off), op))
            }
            Read::Scalar(v) => {
                let own = plan.code.scalar_owner(v);
                let own = own.expect("a remote-capable scalar has an owner");
                let src = plan.code.owner_pid(own, reader, &mut Local(&self.mem), &mut self.st)?;
                Ok((src, Slot::Scalar(v), plan.code.scalar_op(s, v)))
            }
        }
    }

    /// Send reader `q` what it fetches from this rank while running `s`:
    /// a planned section at its first read, or one value per read.
    fn serve(&mut self, q: usize, s: StmtId) -> Result<(), Fault> {
        let plan = self.plan;
        for &r in &plan.reads[s.index()] {
            let (src, slot, op) = self.locate(r, s, q)?;
            if src != self.pid {
                continue;
            }
            if self.vectorize && plan.hoisted(op) {
                let i = op.unwrap();
                let Some(out) = self.outbox.get_mut(&(i, q)) else {
                    return Err(self.fail(format!("no section of op {} planned for {}", i, q)));
                };
                if out.sent {
                    continue;
                }
                out.sent = true;
                let slots = std::mem::take(&mut out.slots);
                let held = std::mem::take(&mut out.held);
                self.message(|w, mem| {
                    let vals = held.iter().map(|&h| value(mem, h)).collect();
                    w.send_section(q, i, &slots, Arc::new(vals))
                })?;
                self.note(Event::SendVec { to: q, op: i, slots });
            } else {
                let tag = self.tag(op);
                let h = self.held(slot)?;
                self.message(|w, mem| w.send_one(q, slot, value(mem, h), tag))?;
                self.note(Event::Send { to: q, slot, tag });
            }
        }
        Ok(())
    }

    /// Work out the sections of hoisted operations `ops` this rank owes
    /// its readers over `region`, the rest of the current block: walk the
    /// region's loops as the ranks will, and collect every element the
    /// executing readers read from this rank through `ops`, in first-read
    /// order.
    fn plan_sections(&mut self, ops: &'a [usize], region: &'a [StmtId]) -> Result<(), Fault> {
        self.outbox.retain(|&(i, _), _| !ops.contains(&i));
        let saved: Vec<Value> = self
            .plan
            .do_vars
            .iter()
            .map(|&v| self.mem.scalar(v))
            .collect();
        let mut res = Ok(());
        for &s in region {
            res = self.plan_stmt(ops, s);
            if res.is_err() {
                break;
            }
        }
        for (&v, &x) in self.plan.do_vars.iter().zip(&saved) {
            self.mem.set_scalar(v, x);
        }
        res
    }

    fn plan_stmt(&mut self, ops: &'a [usize], s: StmtId) -> Result<(), Fault> {
        let plan = self.plan;
        if !plan.under[s.index()].iter().any(|i| ops.contains(i)) {
            return Ok(());
        }
        let code = &plan.code;
        match (self.p.stmt(s), code.stmt(s)) {
            (Stmt::Assign { .. }, _) => {
                let mut pids = Vec::new();
                code.guard_pids(s, &mut Local(&self.mem), &mut self.st, &mut pids)?;
                let me = self.pid;
                for q in pids.into_iter().filter(|&q| q != me) {
                    for &r in &plan.reads[s.index()] {
                        let (src, slot, op) = self.locate(r, s, q)?;
                        match op {
                            Some(i) if src == self.pid && ops.contains(&i) => {
                                self.opened(i);
                                // A fault here is located at the reading
                                // statement.
                                let h = self.held(slot).inspect_err(|_| self.cur = s)?;
                                let out = self.outbox.entry((i, q)).or_default();
                                if out.seen.insert(slot) {
                                    out.slots.push(slot);
                                    out.held.push(h);
                                }
                            }
                            _ => {}
                        }
                    }
                }
                Ok(())
            }
            (Stmt::Do { var, body, .. }, StmtCode::Do { lo, hi, step }) => {
                let (lo, hi, step) = self.bounds(lo, hi, step)?;
                let visit = self.visit(s, lo, hi, true);
                let mut i = lo;
                while let Some(x) = visit.from(i, hi, step) {
                    self.mem.set_scalar(*var, Value::Int(x));
                    for &t in body {
                        self.plan_stmt(ops, t)?;
                    }
                    i = x + step;
                }
                self.mem
                    .set_scalar(*var, Value::Int(exit_value(lo, hi, step)));
                Ok(())
            }
            (
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                },
                StmtCode::If { cond, .. },
            ) => {
                let c = code
                    .eval(cond, &mut Local(&self.mem), &mut self.st)?
                    .as_bool()?;
                for &t in if c { then_body } else { else_body } {
                    self.plan_stmt(ops, t)?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// A new iteration at `depth`: the sections of operations placed at
    /// that level or deeper are done. Every planned one must have been
    /// sent and every received one read to its end.
    fn close(&mut self, depth: usize) -> Result<(), Fault> {
        if self.deepest.is_none_or(|d| d < depth) {
            return Ok(());
        }
        let comms = &self.plan.sp.comms;
        let mut err = None;
        self.outbox.retain(|&(i, q), out| {
            if comms[i].level < depth {
                return true;
            }
            if !out.sent && err.is_none() {
                err = Some(format!(
                    "planned section of op {} for {} was never read",
                    i, q
                ));
            }
            false
        });
        self.inbox.retain(|&(i, src), inb| {
            if comms[i].level < depth {
                return true;
            }
            if inb.next != inb.vals.len() && err.is_none() {
                err = Some(format!(
                    "section of op {} from {} carried {} values, {} were read",
                    i,
                    src,
                    inb.vals.len(),
                    inb.next
                ));
            }
            false
        });
        let levels = self
            .outbox
            .keys()
            .chain(self.inbox.keys())
            .map(|&(i, _)| comms[i].level);
        self.deepest = levels.max();
        match err {
            Some(e) => Err(self.fail(e)),
            None => Ok(()),
        }
    }

    /// Note a section of op `i` now owed or received.
    fn opened(&mut self, i: usize) {
        let level = self.plan.sp.comms[i].level;
        self.deepest = Some(self.deepest.map_or(level, |d| d.max(level)));
    }

    /// A remote read by this rank of `slot`, owned by `src`.
    fn remote(&mut self, op: Option<usize>, src: usize, slot: Slot) -> Result<Value, Fault> {
        let plan = self.plan;
        if self.vectorize && plan.hoisted(op) {
            let i = op.unwrap();
            if !self.inbox.contains_key(&(i, src)) {
                let event = self.rec.as_mut().map(|r| {
                    let slots = Vec::new();
                    r.events.push(Event::RecvVec { from: src, op: i, slots });
                    r.events.len() - 1
                });
                let vals = self.message(|w, _| w.recv_section(src, i, None))?;
                self.opened(i);
                self.inbox.insert(
                    (i, src),
                    Inbound {
                        vals,
                        next: 0,
                        seen: HashMap::new(),
                        event,
                    },
                );
            }
            let inb = self.inbox.get_mut(&(i, src)).expect("just received");
            if let Some(&v) = inb.seen.get(&slot) {
                return Ok(v);
            }
            let Some(&v) = inb.vals.get(inb.next) else {
                let n = inb.vals.len();
                return Err(self.fail(format!(
                    "section of op {} from {} carried {} values, more were read",
                    i, src, n
                )));
            };
            inb.next += 1;
            let v = v.coerce(slot_ty(self.p, slot))?;
            inb.seen.insert(slot, v);
            if let (Some(rec), Some(k)) = (&mut self.rec, inb.event) {
                if let Event::RecvVec { slots, .. } = &mut rec.events[k] {
                    slots.push(slot);
                }
            }
            Ok(v)
        } else {
            let tag = self.tag(op);
            self.note(Event::Recv { from: src, slot, tag });
            let v = self.message(|w, _| w.recv_one(src, tag))?;
            Ok(v.coerce(slot_ty(self.p, slot))?)
        }
    }

    /// Combine the reductions of loop `l` across ranks at its exit: the
    /// members of each group send their partials to its leader, which
    /// folds them in pid order and sends the result back.
    fn reduce(&mut self, l: StmtId) -> Result<(), Fault> {
        if !self.plan.combines[l.index()] {
            return Ok(());
        }
        let grid = self.grid;
        for op in self.plan.sp.reduces_of(l) {
            if op.reduce_dims.is_empty() {
                continue;
            }
            let leader_of =
                |pid: usize| grid.resolve_with(pid, |d| op.reduce_dims.contains(&d).then_some(0));
            let leader = leader_of(self.pid);
            let members: Vec<usize> = grid.pids().filter(|&q| leader_of(q) == leader).collect();
            let slots: Vec<Slot> = std::iter::once(op.acc).chain(op.loc).map(Slot::Scalar).collect();
            let (partial, result) = (Tag::Reduce(self.depth), Tag::Broadcast(self.depth));
            if self.pid != leader {
                for &slot in &slots {
                    let h = self.held(slot)?;
                    self.message(|w, mem| w.send_one(leader, slot, value(mem, h), partial))?;
                    self.note(Event::Send { to: leader, slot, tag: partial });
                }
                for &slot in &slots {
                    self.note(Event::Recv { from: leader, slot, tag: result });
                    let x = self.message(|w, _| w.recv_one(leader, result))?;
                    crate::wire::store(self.p, &mut self.mem, slot, x)?;
                }
                continue;
            }
            let mut partials = Vec::with_capacity(members.len());
            for &q in &members[1..] {
                let has_loc = op.loc.is_some();
                self.note(Event::RecvPartial { from: q, has_loc, level: self.depth });
                let acc = self.message(|w, _| w.recv_one(q, partial))?;
                let loc = match has_loc {
                    true => Some(self.message(|w, _| w.recv_one(q, partial))?),
                    false => None,
                };
                partials.push((acc, loc));
            }
            let own = code::partial(&self.mem, op.acc, op.loc);
            let best = code::fold_partials(op.op, own, partials)?;
            code::set_partial(&mut self.mem, op.acc, op.loc, best);
            self.note(Event::Combine {
                op: op.op,
                acc: op.acc,
                loc: op.loc,
                count: members.len() - 1,
            });
            for &q in &members[1..] {
                for &slot in &slots {
                    let h = self.held(slot)?;
                    self.message(|w, mem| w.send_one(q, slot, value(mem, h), result))?;
                    self.note(Event::Send { to: q, slot, tag: result });
                }
            }
        }
        Ok(())
    }
}

/// This rank's own operand reads: local when it owns the operand, else
/// received.
impl<T: Transport> Load for Rank<'_, '_, T> {
    fn scalar(&mut self, code: &Code, st: &mut Stack, v: VarId) -> Result<Value, Fault> {
        let Some(own) = code.scalar_owner(v) else {
            return Ok(self.mem.scalar(v));
        };
        // Owner subscripts read only scalars every rank holds ([`engine`]).
        let src = code.owner_pid(own, self.pid, &mut Local(&self.mem), st)?;
        if src == self.pid {
            return Ok(self.mem.scalar(v));
        }
        let op = code.scalar_op(self.cur, v);
        self.remote(op, src, Slot::Scalar(v))
    }

    fn own(&mut self, v: VarId) -> Value {
        self.mem.scalar(v)
    }

    fn elem(
        &mut self,
        code: &Code,
        site: &Site,
        idx: &[i64],
        off: usize,
    ) -> Result<Value, Fault> {
        let store = self.mem.array(site.array);
        if let Some(k) = store.at(idx, off) {
            return Ok(store.load(k));
        }
        let src = code.elem_owner(site, idx, self.pid);
        if src == self.pid {
            return Err(code.not_held(site.array, idx));
        }
        let op = code.site_op(site, Some(self.cur));
        self.remote(op, src, Slot::Elem(site.array, off))
    }
}

/// The value at `h` in `mem`.
fn value(mem: &Memory, h: Held) -> Value {
    match h {
        Held::Scalar(v) => mem.scalar(v),
        Held::Elem(a, k) => mem.array(a).load(k),
    }
}

/// The declared type of `slot`'s variable.
fn slot_ty(p: &Program, slot: Slot) -> hpf_ir::ScalarTy {
    let (Slot::Scalar(v) | Slot::Elem(v, _)) = slot;
    p.vars.info(v).ty
}

/// Run the node programs of `sp` on one thread per rank over the
/// in-process channel backend; `init` fills each rank's memory. A rank
/// that fails or panics fails the run with an error naming it (a panic
/// is reported before the link errors it causes on its peers).
pub fn run(
    sp: &SpmdProgram,
    init: &(impl Fn(&mut Memory) + Sync),
    vectorize: bool,
    want_obs: bool,
) -> Result<Replayed, String> {
    stores::check_budget(sp, true)?;
    let plan = &Plan::new(sp);
    let memory = |pid| stores::rank_memory(sp, pid);
    let mut out = run_ranks(sp, sp.maps.grid.total(), init, want_obs, memory, |wire, mem| {
        Rank::new(plan, wire, mem, vectorize).run()
    })?;
    out.engine = Some(Engine::Node);
    Ok(out)
}

/// Run the node programs of `sp` as [`run`] does, vectorized and
/// untraced, each rank recording its own schedule: the verifier's input
/// for every program [`engine`] admits. A rank that fails stops there and
/// says why; its peers stop at the messages it never sends.
pub fn record(sp: &SpmdProgram, init: &(impl Fn(&mut Memory) + Sync)) -> Vec<RankSchedule> {
    let nproc = sp.maps.grid.total();
    if let Err(error) = stores::check_budget(sp, true) {
        // Rank 0 reports it; the others never start.
        return (0..nproc)
            .map(|pid| RankSchedule {
                events: Vec::new(),
                stop: Some(match pid {
                    0 => Stop::Fault { stmt: None, error: error.clone() },
                    _ => Stop::Message("not started".into()),
                }),
            })
            .collect();
    }
    let plan = &Plan::new(sp);
    let writes = &recorded_writes(sp);
    let memory = |pid| stores::rank_memory(sp, pid);
    let ends = spawn_ranks(sp, nproc, init, false, memory, |wire, mem| {
        let mut rank = Rank::new(plan, wire, mem, true);
        rank.rec = Some(Recorder {
            writes,
            events: Vec::new(),
        });
        Ok(rank.record())
    });
    ends.into_iter()
        .map(|end| match end {
            Ok((Ok((_, schedule)), _)) => schedule,
            Ok((Err(e), _)) => RankSchedule {
                events: Vec::new(),
                stop: Some(Stop::Message(e)),
            },
            Err(e) => RankSchedule {
                events: Vec::new(),
                stop: Some(Stop::Fault {
                    stmt: None,
                    error: format!("panicked: {}", panic_text(e)),
                }),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_analysis::Analysis;
    use hpf_dist::layout::held_dims;
    use hpf_dist::MappingTable;
    use hpf_ir::HeldDim;
    use phpf_core::CoreConfig;

    fn lowered(src: &str) -> SpmdProgram {
        let p = hpf_ir::parse_program(src).unwrap();
        let a = Analysis::run(&p);
        let maps = MappingTable::from_program(&p, None).unwrap();
        let d = phpf_core::map_program(&p, &a, &maps, CoreConfig::full());
        crate::lower::lower(&p, &a, &maps, d)
    }

    /// A remote element read twice within its section's lifetime is
    /// received once: the second read takes the value the section's cache
    /// kept, not the section's next value.
    #[test]
    fn a_value_read_again_comes_from_the_section_cache() {
        let sp = lowered(
            "!HPF$ PROCESSORS P(2)\n!HPF$ DISTRIBUTE (BLOCK) :: A, B\nREAL A(8), B(8)\n\
             INTEGER i\nDO i = 2, 8\n  B(i) = A(1) + A(1) * 2.0 + A(2)\nEND DO\n",
        );
        assert_eq!(engine(&sp), Engine::Node);
        let a = sp.program.vars.lookup("a").unwrap();
        let data: Vec<f64> = (1..=8).map(|x| x as f64).collect();
        let r = crate::validate_replay(&sp, |m| m.fill_real(a, &data)).unwrap();
        let b = sp.program.vars.lookup("b").unwrap();
        assert_eq!(r.mems[1].array(b).get(7), Value::Real(1.0 + 2.0 + 2.0));
    }

    /// A rank whose store lacks an element it owns fails where it first
    /// touches it, with an error naming the rank, the statement and the
    /// element; nothing panics. The program sends no message, so the
    /// other rank ends cleanly and the failed rank's error is the run's.
    #[test]
    fn an_access_outside_a_rank_store_is_a_located_fault() {
        let sp = lowered(
            "!HPF$ PROCESSORS P(2)\n!HPF$ DISTRIBUTE (BLOCK) :: A, B\n\
             REAL A(8), B(8)\nINTEGER i\nDO i = 1, 8\n  B(i) = A(i) * 2.0\nEND DO\n",
        );
        let p = &sp.program;
        let plan = &Plan::new(&sp);
        let grid = &sp.maps.grid;
        // Rank 1 holds nothing of `lacking`.
        let run = |lacking: &str| {
            let lacking = p.vars.lookup(lacking).unwrap();
            let memory = |pid: usize| {
                Memory::boxed(p, |v, shape| {
                    Some(match (pid, v == lacking) {
                        (1, true) => vec![HeldDim::EMPTY],
                        _ => held_dims(sp.maps.of(v), grid, shape, &grid.coords_of(pid)),
                    })
                })
            };
            run_ranks(&sp, 2, &|_: &mut Memory| {}, false, memory, |wire, mem| {
                Rank::new(plan, wire, mem, true).run()
            })
            .unwrap_err()
        };
        let at = "proc 1: s0 `b(i) = a(i) * 2.0`: ";
        // A read, then a write.
        assert_eq!(run("a"), format!("{at}a[5] is outside this rank's store"));
        assert_eq!(run("b"), format!("{at}b[5] is outside this rank's store"));
    }
}

//! Rank-local node programs: the thread backend's run path.
//!
//! Each rank runs the compiled [`Code`] of the lowered program itself, the
//! way the paper's compiler emits SPMD node programs (§4): it walks the
//! program's control flow, evaluates every guard for itself, runs the
//! statement instances it owns, and obtains every remote operand through a
//! message. Nobody simulates the other ranks and no event trace is
//! recorded.
//!
//! * *Iterations.* Before a loop runs, a rank bounds the iterations it
//!   visits with `hpf_dist::shrink_bounds`: per owner reference in the
//!   loop (guards and remote-capable reads), the iterations whose element
//!   it owns. The union of those sets is every iteration in which the rank
//!   executes a statement or owns an operand another rank reads; a
//!   reference the function cannot bound makes the rank visit every
//!   iteration, where the guard decides.
//! * *Receives.* A rank's first read of a remote element of a hoisted
//!   operation receives that operation's whole section from the owner; its
//!   later reads of the same section take the next value in order, or, for
//!   an element already read, the local copy. Per-element operations
//!   receive one value per read. This is the executor's coalescing rule
//!   seen from the reader: a section holds each element once, in
//!   first-read order, until the operation's placement loop advances.
//! * *Sends.* At the statement where the owner's walk passes another
//!   rank's first read of a section, it sends the section. Its elements are
//!   worked out when the walk reaches the first statement of the placement
//!   block that reads through the operation: the owner walks the rest of
//!   that block's iterations for the readers' guards and subscripts. The
//!   engine choice ([`engine`]) guarantees that everything this walk
//!   evaluates is already known at that point.
//! * *Reductions* run [`crate::lower::ReduceOp`]'s partial-then-combine
//!   over messages, folding in the executor's order.
//!
//! Every rank therefore sends exactly the messages the reference executor
//! records, in the same order per rank, through the same [`Wire`], so the
//! wire metrics and the per-rank timelines equal those of a trace replay.
//! Programs whose control flow, guards or subscripts depend on data
//! another rank owns (GOTOs, data-dependent IFs and DO bounds, DGEFA's
//! pivot search) keep the reference executor and replay: [`engine`] says
//! which engine runs a program and why.

use crate::code::{Code, Compiler, Fault, Load, Read, Stack, StmtCode};
use crate::exec::{fold, owner_tables, DimRule, Memo, OwnerRef, OwnerTables, Slot};
use crate::lower::SpmdProgram;
use crate::runtime::{run_ranks, Local, Replayed};
use crate::wire::{self, Wire};
use hpf_dist::{dist_owner, shrink_bounds, ArrayMapping, GridDimRule, IterSet, ProcGrid};
use hpf_ir::interp::{InterpError, Memory};
use hpf_ir::{Affine, ArrayRef, DistFormat, Expr, LValue, Program, Stmt, StmtId, Value, VarId};
use hpf_net::Transport;
use hpf_obs::CommKind;
use phpf_core::ScalarMapping;
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

fn stmt_text(p: &Program, s: StmtId) -> String {
    let mut out = String::new();
    hpf_ir::pretty::print_stmt(p, s, 0, &mut out);
    out.lines().next().unwrap_or("").trim().to_string()
}

/// Is the value of scalar `v` the same on every rank? Replicated scalars
/// and privatized ones without alignment are assigned by every rank.
fn same_everywhere(sp: &SpmdProgram, v: VarId) -> bool {
    matches!(
        sp.scalar_mapping(v),
        ScalarMapping::Replicated | ScalarMapping::PrivateNoAlign
    )
}

/// Does `e` read no array element and only scalars every rank holds?
fn reads_same(sp: &SpmdProgram, e: &Expr) -> bool {
    e.array_refs().is_empty() && e.scalar_reads().into_iter().all(|v| same_everywhere(sp, v))
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
        if let Some((target, _)) = scalar_target(sp, v) {
            out.extend(&target.subs);
        }
    }
    out
}

/// The alignment target of an aligned or reduction scalar, with the grid
/// dimensions its owner leaves free.
fn scalar_target(sp: &SpmdProgram, v: VarId) -> Option<(&ArrayRef, &[usize])> {
    match sp.scalar_mapping(v) {
        ScalarMapping::Aligned { target, .. } => Some((target, &[])),
        ScalarMapping::Reduction {
            target,
            reduce_dims,
            ..
        } => Some((target, reduce_dims)),
        ScalarMapping::Replicated | ScalarMapping::PrivateNoAlign => None,
    }
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
struct LoopTerms {
    terms: Vec<Term>,
    stmts: Vec<StmtTerms>,
}

/// The per-program tables every rank shares.
struct Plan<'s> {
    sp: &'s SpmdProgram,
    code: Code,
    owners: OwnerTables,
    array_maps: Vec<Option<&'s ArrayMapping>>,
    /// By `StmtId`: the (scalar, op) pairs of its scalar fetches.
    scalar_ops: Vec<Vec<(VarId, usize)>>,
    /// By `StmtId` of an assignment: its reads that can be remote, in
    /// evaluation order.
    reads: Vec<Vec<Read>>,
    /// By `StmtId` of a DO: the owner references that bound the
    /// iterations a rank visits; `None` to visit them all.
    terms: Vec<Option<LoopTerms>>,
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
        let mut cc = Compiler::new(sp);
        let owners = owner_tables(sp, &mut cc);
        let scalar_ops = (0..n_stmts).map(|s| cc.scalar_ops(s)).collect();
        let code = cc.finish();
        let array_maps: Vec<_> = (0..p.vars.len())
            .map(|v| sp.maps.get(VarId(v as u32)))
            .collect();
        let reads = (0..n_stmts)
            .map(|s| match code.stmt(StmtId(s as u32)) {
                StmtCode::Assign { rhs, .. } => code
                    .reads(rhs)
                    .into_iter()
                    .filter(|r| match *r {
                        Read::Elem(k) => array_maps[code.site(k).array.index()]
                            .is_some_and(|m| m.is_distributed()),
                        Read::Scalar(v) => owners.scalar_owner[v.index()].is_some(),
                    })
                    .collect(),
                _ => Vec::new(),
            })
            .collect();
        let combines: Vec<bool> = (0..n_stmts)
            .map(|s| {
                sp.reduces_of(StmtId(s as u32))
                    .iter()
                    .any(|r| !r.reduce_dims.is_empty())
            })
            .collect();
        let whole = whole_loops(p, &combines);
        let mut terms: Vec<Option<LoopTerms>> = (0..n_stmts).map(|_| None).collect();
        for s in p.preorder() {
            if let Stmt::Do { var, .. } = p.stmt(s) {
                terms[s.index()] = loop_terms(sp, s, *var, &whole);
            }
        }
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
            owners,
            array_maps,
            scalar_ops,
            reads,
            terms,
            enum_at,
            under,
            do_vars: p.loop_index_vars(),
            combines,
        }
    }

    fn scalar_op(&self, s: StmtId, v: VarId) -> Option<usize> {
        self.scalar_ops[s.index()]
            .iter()
            .find(|&&(w, _)| w == v)
            .map(|&(_, i)| i)
    }

    fn hoisted(&self, op: Option<usize>) -> bool {
        op.is_some_and(|i| self.sp.comms[i].hoisted())
    }
}

/// By `StmtId`: the loops every rank must run in full wherever they are
/// nested, because every rank takes part in something they do: a
/// reduction combined at their exit, or leaving their DO variable at
/// its exit value for a statement that reads it outside the loop.
fn whole_loops(p: &Program, combines: &[bool]) -> Vec<bool> {
    let mut whole = combines.to_vec();
    let loops: Vec<(StmtId, VarId)> = p
        .preorder()
        .into_iter()
        .filter_map(|s| p.loop_var(s).map(|v| (s, v)))
        .collect();
    for t in p.preorder() {
        for v in p
            .stmt(t)
            .read_exprs()
            .into_iter()
            .flat_map(Expr::scalar_reads)
        {
            for &(l, _) in loops.iter().filter(|&&(_, w)| w == v) {
                if l == t || !p.is_self_or_ancestor(l, t) {
                    whole[l.index()] = true;
                }
            }
        }
    }
    whole
}

/// The owner references that bound loop `l`'s iterations: its statements'
/// guards and remote-capable reads. `None` when some statement runs on
/// every rank, a reference has no bounding dimension, or a loop inside it
/// must run in full ([`whole_loops`]): every rank visits every iteration.
fn loop_terms(sp: &SpmdProgram, l: StmtId, v: VarId, whole: &[bool]) -> Option<LoopTerms> {
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
        stmts: Vec::new(),
    };
    let mut add = |r: &ArrayRef, free: &[usize]| -> Option<usize> {
        let t = term(sp, r, free, v, &changing)?;
        Some(match out.terms.iter().position(|x| *x == t) {
            Some(i) => i,
            None => {
                out.terms.push(t);
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
                    if let Some((target, free)) = scalar_target(sp, w) {
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

/// `a ∩ b`, or a superset of it.
fn meet(a: IterSet, b: IterSet) -> IterSet {
    use IterSet::*;
    match (a, b) {
        (All, x) | (x, All) => x,
        (Empty, _) | (_, Empty) => Empty,
        (Range(a0, a1), Range(b0, b1)) => {
            let (lo, hi) = (a0.max(b0), a1.min(b1));
            if lo > hi {
                Empty
            } else {
                Range(lo, hi)
            }
        }
        (Range(lo, hi), Strided { first, last, step })
        | (Strided { first, last, step }, Range(lo, hi)) => {
            let mut f = first;
            if f < lo {
                f += (lo - f + step - 1) / step * step;
            }
            let l = last.min(hi);
            if f > l {
                Empty
            } else {
                Strided {
                    first: f,
                    last: l,
                    step,
                }
            }
        }
        (s @ Strided { .. }, _) => s,
    }
}

/// `x` without `e`, or a superset of it, within `a..=b`.
fn minus(x: IterSet, e: &IterSet, a: i64, b: i64, out: &mut Vec<IterSet>) {
    use IterSet::*;
    let (x0, x1) = match x {
        Empty => return,
        All => (a, b),
        Range(x0, x1) => (x0, x1),
        Strided { .. } => return out.push(x),
    };
    match *e {
        All => {}
        Range(e0, e1) => {
            for (lo, hi) in [(x0, x1.min(e0 - 1)), (x0.max(e1 + 1), x1)] {
                if lo <= hi {
                    out.push(Range(lo, hi));
                }
            }
        }
        Empty | Strided { .. } => out.push(x),
    }
}

/// The iterations of one loop entry a rank visits.
enum Visit {
    All,
    Sets(Vec<IterSet>),
}

impl Visit {
    fn new(sets: Vec<IterSet>) -> Visit {
        let sets: Vec<IterSet> = sets.into_iter().filter(|s| *s != IterSet::Empty).collect();
        if sets.contains(&IterSet::All) {
            return Visit::All;
        }
        Visit::Sets(sets)
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
                    if ss.iter().any(|s| s.contains(i)) {
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

/// A section this rank owes a reader, worked out ahead of the reader's
/// first read.
#[derive(Default)]
struct Outbound {
    slots: Vec<Slot>,
    seen: HashSet<Slot>,
    sent: bool,
}

/// A section this rank received, consumed in first-read order.
struct Inbound {
    vals: Arc<Vec<Value>>,
    next: usize,
    seen: HashSet<Slot>,
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
    /// This rank's copies of the owner references' memos.
    memos: Vec<Memo>,
    /// The deepest placement level of an owed or received section.
    deepest: Option<usize>,
    // Reusable buffers.
    st: Stack,
    owner_coords: Vec<Option<usize>>,
    idx: Vec<i64>,
    pids: Vec<usize>,
}

/// A fault standing for the transport error stored in `Rank::comm_err`.
fn comm_fault() -> Fault {
    Box::new(InterpError::TypeError("communication failed".into()))
}

impl<'a, T: Transport> Rank<'a, '_, T> {
    /// Run the node program.
    fn run(mut self) -> Result<Memory, String> {
        let body = &self.p.body;
        if let Err(e) = self.block(body).and_then(|()| self.close(0)) {
            let msg = self.comm_err.take().unwrap_or_else(|| e.to_string());
            return Err(format!("proc {}: {}", self.pid, msg));
        }
        Ok(self.mem)
    }

    fn fail(&mut self, msg: String) -> Fault {
        self.comm_err = Some(msg);
        comm_fault()
    }

    /// One message over the wire: it counts as an event, and its error
    /// fails the rank.
    fn message<R>(
        &mut self,
        op: impl FnOnce(&mut Wire<'a, T>, &Memory) -> Result<R, String>,
    ) -> Result<R, Fault> {
        self.wire.count_event();
        op(self.wire, &self.mem).map_err(|e| self.fail(e))
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
        let code = &self.plan.code;
        match (self.p.stmt(s), code.stmt(s)) {
            (Stmt::Assign { .. }, _) => {
                let mut pids = std::mem::take(&mut self.pids);
                self.guard_pids(s, &mut pids)?;
                for &q in &pids {
                    self.cur = s;
                    if q == self.pid {
                        self.wire.count_event();
                        let mut st = std::mem::take(&mut self.st);
                        let res = code.assign(s, self, &mut st);
                        self.st = st;
                        let (slot, val) = res?;
                        crate::code::store(&mut self.mem, slot, val)?;
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
        let (a, b) = (lo.min(hi), lo.max(hi));
        let sets: Vec<(IterSet, bool)> = lt.terms.iter().map(|t| self.term_set(t, a, b)).collect();
        let mut out = Vec::new();
        if !serving {
            out.extend(sets.into_iter().map(|(set, _)| set));
        } else {
            for st in &lt.stmts {
                let (exec, exact) = &sets[st.exec];
                for &r in &st.reads {
                    let x = sets[r].0.clone();
                    if *exact {
                        minus(x, exec, a, b, &mut out);
                    } else {
                        out.push(x);
                    }
                }
            }
        }
        Visit::new(out)
    }

    /// The iterations `a..=b` in which this rank owns the element of an
    /// owner reference, and whether that is exactly where it does.
    fn term_set(&self, t: &Term, a: i64, b: i64) -> (IterSet, bool) {
        let (mut set, mut exact) = (IterSet::All, t.exact);
        for dim in &t.dims {
            let (s, e) = self.dim_set(dim, a, b);
            set = meet(set, s);
            exact &= e;
            if set == IterSet::Empty {
                return (set, true);
            }
        }
        (set, exact)
    }

    /// The iterations `a..=b` in which this rank's coordinate along one
    /// dimension of a reference is the owner's, and whether the set is
    /// exact rather than a superset.
    fn dim_set(&self, dim: &TermDim, a: i64, b: i64) -> (IterSet, bool) {
        let mine = |c: usize, g: usize| {
            if c == self.coords_me[g] {
                IterSet::All
            } else {
                IterSet::Empty
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
                    match self.mem.scalar(u) {
                        Value::Int(x) => c = c.wrapping_add(coef.wrapping_mul(x)),
                        _ => return (IterSet::All, false),
                    }
                }
                let nprocs = self.grid.extent(g);
                if k == 0 {
                    let pos0 = stride * c + offset - t_lo;
                    if pos0 < 0 || pos0 >= t_extent {
                        return (IterSet::All, false);
                    }
                    (mine(dist_owner(dist, pos0, t_extent, nprocs), g), true)
                } else {
                    let (ka, kb) = (stride * k, stride * c + offset);
                    match shrink_bounds(
                        dist,
                        nprocs,
                        t_lo,
                        t_extent,
                        self.coords_me[g],
                        ka,
                        kb,
                        a,
                        b,
                    ) {
                        Some(set) => (set, true),
                        None => (IterSet::All, false),
                    }
                }
            }
        }
    }

    /// Fill `out` with the pids executing `s` under its guard, ascending.
    fn guard_pids(&mut self, s: StmtId, out: &mut Vec<usize>) -> Result<(), Fault> {
        out.clear();
        let Some(own) = self.plan.owners.guards[s.index()] else {
            out.extend(self.grid.pids());
            return Ok(());
        };
        if own.pinned {
            out.push(self.owner_pid(own, 0)?);
            return Ok(());
        }
        self.resolve_coords(own)?;
        let (grid, coords) = (self.grid, &self.owner_coords);
        out.extend(
            grid.pids()
                .filter(|&p| grid.resolve_with(p, |d| coords[d]) == p),
        );
        Ok(())
    }

    /// Evaluate an owner reference's coordinates into `owner_coords`
    /// (`None` where every coordinate holds a copy). Its subscripts read
    /// only scalars every rank holds.
    fn resolve_coords(&mut self, own: OwnerRef) -> Result<(), Fault> {
        self.owner_coords.clear();
        let code = &self.plan.code;
        for (g, k) in own.dims.range().enumerate() {
            let c = match self.plan.owners.dim_rules[k] {
                DimRule::Any => None,
                DimRule::At(c) => Some(c),
                DimRule::Sub {
                    sub,
                    dist,
                    stride,
                    offset,
                    t_lo,
                    t_extent,
                } => {
                    let x = code.eval_int(sub, &mut Local(&self.mem), &mut self.st)?;
                    let pos0 = stride * x + offset - t_lo;
                    if pos0 < 0 || pos0 >= t_extent {
                        return Err(InterpError::OutOfBounds {
                            array: self.p.vars.name(own.array).to_string(),
                            index: vec![x],
                        }
                        .into());
                    }
                    Some(dist_owner(dist, pos0, t_extent, self.grid.extent(g)))
                }
            };
            self.owner_coords.push(c);
        }
        Ok(())
    }

    /// The pid `reader` takes a value owned per `own` from.
    fn owner_pid(&mut self, own: OwnerRef, reader: usize) -> Result<usize, Fault> {
        if let Some(m) = own.memo {
            if let Some(src) = self.memos[m as usize].hit(&self.mem, reader, own.pinned) {
                return Ok(src);
            }
        }
        self.resolve_coords(own)?;
        let coords = &self.owner_coords;
        let src = self.grid.resolve_with(reader, |d| coords[d]);
        if let Some(m) = own.memo {
            self.memos[m as usize].remember(&self.mem, reader, src);
        }
        Ok(src)
    }

    /// Where `reader`'s read `r` of statement `s` comes from: the owner,
    /// the slot and the operation.
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
                    .map(|off| {
                        let mapping = plan.array_maps[site.array.index()].expect("mapped array");
                        (mapping.owner_pid(self.grid, &idx, reader), off)
                    });
                self.idx = idx;
                let (src, off) = found?;
                let op = plan.code.site_op(site, Some(s));
                Ok((src, Slot::Elem(site.array, off), op))
            }
            Read::Scalar(v) => {
                let own = plan.owners.scalar_owner[v.index()]
                    .expect("a remote-capable scalar has an owner");
                let src = self.owner_pid(own, reader)?;
                Ok((src, Slot::Scalar(v), plan.scalar_op(s, v)))
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
                self.message(|w, mem| {
                    let vals = slots.iter().map(|&x| wire::load(mem, x)).collect();
                    w.send_section(q, i, &slots, Arc::new(vals))
                })?;
            } else {
                self.message(|w, mem| w.send_one(mem, q, slot))?;
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
                self.guard_pids(s, &mut pids)?;
                let me = self.pid;
                for q in pids.into_iter().filter(|&q| q != me) {
                    for &r in &plan.reads[s.index()] {
                        let (src, slot, op) = self.locate(r, s, q)?;
                        match op {
                            Some(i) if src == self.pid && ops.contains(&i) => {
                                self.opened(i);
                                let out = self.outbox.entry((i, q)).or_default();
                                if out.seen.insert(slot) {
                                    out.slots.push(slot);
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
                let vals = self.message(|w, _| w.recv_section(src, i, None))?;
                self.opened(i);
                self.inbox.insert(
                    (i, src),
                    Inbound {
                        vals,
                        next: 0,
                        seen: HashSet::new(),
                    },
                );
            }
            let inb = self.inbox.get_mut(&(i, src)).expect("just received");
            if inb.seen.insert(slot) {
                let Some(&v) = inb.vals.get(inb.next) else {
                    let n = inb.vals.len();
                    return Err(self.fail(format!(
                        "section of op {} from {} carried {} values, more were read",
                        i, src, n
                    )));
                };
                inb.next += 1;
                wire::store(self.p, &mut self.mem, slot, v)?;
            }
        } else {
            let v = self.message(|w, _| w.recv_one(src, CommKind::Recv))?;
            wire::store(self.p, &mut self.mem, slot, v)?;
        }
        Ok(wire::load(&self.mem, slot))
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
            let vars: Vec<VarId> = std::iter::once(op.acc).chain(op.loc).collect();
            if self.pid != leader {
                for &v in &vars {
                    self.message(|w, mem| w.send_one(mem, leader, Slot::Scalar(v)))?;
                }
                for &v in &vars {
                    let x = self.message(|w, _| w.recv_one(leader, CommKind::Recv))?;
                    wire::store(self.p, &mut self.mem, Slot::Scalar(v), x)?;
                }
                continue;
            }
            let mut partials = Vec::with_capacity(members.len());
            for &q in &members[1..] {
                let mut got = Vec::with_capacity(vars.len());
                for _ in &vars {
                    got.push(self.message(|w, _| w.recv_one(q, CommKind::Reduce))?);
                }
                partials.push(got);
            }
            let mut best = self.mem.scalar(op.acc);
            let mut best_loc = op.loc.map(|v| self.mem.scalar(v));
            for got in partials {
                if fold(op.op, &mut best, got[0])? {
                    best_loc = got.get(1).copied();
                }
            }
            self.mem.set_scalar(op.acc, best);
            if let (Some(lv), Some(bl)) = (op.loc, best_loc) {
                self.mem.set_scalar(lv, bl);
            }
            for &q in &members[1..] {
                for &v in &vars {
                    self.message(|w, mem| w.send_one(mem, q, Slot::Scalar(v)))?;
                }
            }
        }
        Ok(())
    }
}

/// This rank's own operand reads: local when it owns the operand, else
/// received.
impl<T: Transport> Load for Rank<'_, '_, T> {
    fn scalar(&mut self, _: &Code, _: &mut Stack, v: VarId) -> Result<Value, Fault> {
        let Some(own) = self.plan.owners.scalar_owner[v.index()] else {
            return Ok(self.mem.scalar(v));
        };
        let src = self.owner_pid(own, self.pid)?;
        if src == self.pid {
            return Ok(self.mem.scalar(v));
        }
        let op = self.plan.scalar_op(self.cur, v);
        self.remote(op, src, Slot::Scalar(v))
    }

    fn own(&mut self, v: VarId) -> Value {
        self.mem.scalar(v)
    }

    fn elem(
        &mut self,
        code: &Code,
        site: &crate::code::Site,
        idx: &[i64],
        off: usize,
    ) -> Result<Value, Fault> {
        let mapping = self.plan.array_maps[site.array.index()].expect("mapped array");
        let src = mapping.owner_pid(self.grid, idx, self.pid);
        if src == self.pid {
            return Ok(self.mem.array(site.array).get(off));
        }
        let op = code.site_op(site, Some(self.cur));
        self.remote(op, src, Slot::Elem(site.array, off))
    }
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
    let plan = &Plan::new(sp);
    let grid = &sp.maps.grid;
    let mut out = run_ranks(sp, grid.total(), init, want_obs, |wire, mem| {
        let pid = wire.rank();
        Rank {
            plan,
            p: &sp.program,
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
            memos: plan.owners.memos.clone(),
            deepest: None,
            st: Stack::default(),
            owner_coords: Vec::new(),
            idx: Vec::new(),
            pids: Vec::new(),
        }
        .run()
    })?;
    out.engine = Some(Engine::Node);
    Ok(out)
}

//! Lowering: program + mapping decisions → an SPMD program with
//! computation-partitioning guards, placed communication operations and
//! reduction combines.

use crate::guard::Guard;
use hpf_analysis::Analysis;
use hpf_comm::pattern::{classify, symbolic_owner, CommPattern, DimPos, SymbolicOwner};
use hpf_comm::placement::{place_comm, var_change_level, Placement};
use hpf_dist::MappingTable;
use hpf_ir::{ArrayRef, LValue, Program, Stmt, StmtId, VarId};
use phpf_core::{ArrayMappingDecision, Decisions, ScalarMapping};
use std::collections::HashMap;

/// What a communication operation moves.
#[derive(Debug, Clone, PartialEq)]
pub enum CommData {
    /// An array section read by `stmt` through this reference.
    Array(ArrayRef),
    /// A privatized scalar value produced elsewhere in the iteration.
    Scalar(VarId),
}

/// One placed communication operation.
#[derive(Debug, Clone, PartialEq)]
pub struct CommOp {
    /// The reading statement the operation satisfies.
    pub stmt: StmtId,
    pub data: CommData,
    pub pattern: CommPattern,
    /// Loop level the operation is placed at (0 = outside all loops).
    pub level: usize,
    /// Nesting level of the reading statement.
    pub stmt_level: usize,
    /// Bytes per element moved.
    pub elem_bytes: usize,
    /// For shifts: the loop level (1-based) whose index drives the shifted
    /// grid dimension — only elements near the block boundary actually
    /// cross processors, a fraction `|dist| / trip(level)` of the section.
    pub shift_src_level: Option<usize>,
    /// Hoisted loop levels (1-based) whose index appears in the reference's
    /// subscripts: only these multiply the message *volume* (loops absent
    /// from the subscripts re-read the same elements — data reuse, not
    /// data movement).
    pub vol_levels: Vec<usize>,
    /// Wire messages one execution of the (vectorized) operation sends
    /// across the whole machine, derived from the source owner's symbolic
    /// shape. `None` when the lowering cannot bound it (the cost model
    /// falls back to a pattern default).
    pub pairs_per_exec: Option<usize>,
    /// (stmt, data) pairs of operations folded into this one by
    /// `combine_messages`, kept so executed fetches still resolve to a
    /// placed operation after combining.
    pub merged: Vec<(StmtId, CommData)>,
}

impl CommOp {
    /// Placed below its statement's nesting level — the fetches of one
    /// hoisted execution coalesce into a vectorized message.
    pub fn hoisted(&self) -> bool {
        self.level < self.stmt_level
    }

    /// Placed inside a loop at the statement's own level: the expensive,
    /// per-iteration kind the paper's alignment selection tries to avoid.
    pub fn is_inner_loop(&self) -> bool {
        self.level == self.stmt_level && self.stmt_level > 0
    }
}

/// A reduction combine attached to a loop exit.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceOp {
    pub loop_id: StmtId,
    pub acc: VarId,
    pub loc: Option<VarId>,
    pub reduce_dims: Vec<usize>,
    pub op: hpf_analysis::RedOp,
}

/// One entry of a [`Schedule`]: the placement facts of a communication
/// operation, without the cost-model internals of [`CommOp`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOp {
    /// Index into `SpmdProgram::comms` (stable across the summary).
    pub index: usize,
    pub stmt: StmtId,
    pub data: CommData,
    pub pattern: CommPattern,
    /// Loop level the operation is placed at (0 = outside all loops).
    pub level: usize,
    /// Nesting level of the reading statement.
    pub stmt_level: usize,
    pub elem_bytes: usize,
    /// Wire messages one execution of the operation sends, when bounded.
    pub pairs_per_exec: Option<usize>,
    /// (stmt, data) pairs folded into this operation by merging.
    pub merged: Vec<(StmtId, CommData)>,
}

impl ScheduleOp {
    /// Placed below its statement's nesting level (vectorized)?
    pub fn hoisted(&self) -> bool {
        self.level < self.stmt_level
    }

    /// Placed inside a loop at the statement's own level?
    pub fn is_inner_loop(&self) -> bool {
        self.level == self.stmt_level && self.stmt_level > 0
    }
}

/// Stable summary of the lowered communication plan: one entry per placed
/// operation plus the reduction combines. Unlike the executor's trace, a
/// `Schedule` is available without running the program; all loop-level
/// bookkeeping (hoisted vs. inner-loop placement) lives here so lowering,
/// the cross-check and the verifier agree on one definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub ops: Vec<ScheduleOp>,
    pub reduces: Vec<ReduceOp>,
}

impl Schedule {
    /// Count of operations placed inside loops at statement level.
    pub fn inner_loop_count(&self) -> usize {
        self.ops.iter().filter(|o| o.is_inner_loop()).count()
    }

    /// Count of hoisted (vectorized) operations.
    pub fn hoisted_count(&self) -> usize {
        self.ops.iter().filter(|o| o.hoisted()).count()
    }
}

/// The lowered SPMD program.
#[derive(Debug)]
pub struct SpmdProgram {
    pub program: Program,
    pub maps: MappingTable,
    pub decisions: Decisions,
    pub guards: HashMap<StmtId, Guard>,
    pub comms: Vec<CommOp>,
    pub reduces: Vec<ReduceOp>,
    /// Scalar variable → its (consistent) mapping, for read resolution.
    pub var_mapping: HashMap<VarId, ScalarMapping>,
}

impl SpmdProgram {
    pub fn guard(&self, s: StmtId) -> &Guard {
        self.guards.get(&s).unwrap_or(&Guard::Everyone)
    }

    pub fn scalar_mapping(&self, v: VarId) -> &ScalarMapping {
        self.var_mapping.get(&v).unwrap_or(&ScalarMapping::Replicated)
    }

    pub fn reduces_of(&self, l: StmtId) -> Vec<&ReduceOp> {
        self.reduces.iter().filter(|r| r.loop_id == l).collect()
    }

    /// Total count of communication operations placed inside loops at
    /// their statement level (the expensive, non-vectorized kind).
    pub fn inner_loop_comms(&self) -> usize {
        self.schedule().inner_loop_count()
    }

    /// Summarize the lowered communication plan as a [`Schedule`] — the
    /// stable, execution-free view consumed by the cost cross-check and
    /// the static verifier.
    pub fn schedule(&self) -> Schedule {
        Schedule {
            ops: self
                .comms
                .iter()
                .enumerate()
                .map(|(index, c)| ScheduleOp {
                    index,
                    stmt: c.stmt,
                    data: c.data.clone(),
                    pattern: c.pattern,
                    level: c.level,
                    stmt_level: c.stmt_level,
                    elem_bytes: c.elem_bytes,
                    pairs_per_exec: c.pairs_per_exec,
                    merged: c.merged.clone(),
                })
                .collect(),
            reduces: self.reduces.clone(),
        }
    }

    /// Index into `comms` of the operation satisfying a fetch of `data`
    /// issued by `stmt`, looking through `combine_messages` merges.
    pub fn comm_index(&self, stmt: StmtId, data: &CommData) -> Option<usize> {
        self.comms.iter().position(|c| {
            (c.stmt == stmt && &c.data == data)
                || c.merged.iter().any(|(s, d)| *s == stmt && d == data)
        })
    }
}

/// Lower a program: install privatized array mappings, derive guards,
/// classify and place communication.
pub fn lower(
    p: &Program,
    a: &Analysis<'_>,
    base_maps: &MappingTable,
    decisions: Decisions,
) -> SpmdProgram {
    // 1. Install privatized array mappings.
    let mut maps = base_maps.clone();
    for ((_, v), dec) in &decisions.arrays {
        if let Some(m) = phpf_core::realize_mapping(p, base_maps, *v, dec) {
            maps.set(m);
        }
    }

    // 2. Consistent per-variable scalar mapping table.
    let mut var_mapping: HashMap<VarId, ScalarMapping> = HashMap::new();
    for (&def, m) in &decisions.scalars {
        if let Some(v) = p.stmt(def).written_var() {
            // All reaching defs of any use share one mapping by
            // construction; replicated entries never override privatized
            // ones.
            let e = var_mapping.entry(v).or_insert_with(|| m.clone());
            if e.is_replicated() {
                *e = m.clone();
            }
        }
    }

    // 3. Guards.
    let mut guards = HashMap::new();
    for s in p.preorder() {
        let g = match p.stmt(s) {
            Stmt::Assign { lhs, .. } => match lhs {
                LValue::Array(r) => array_guard(p, &decisions, &maps, s, r),
                LValue::Scalar(_) => match decisions.scalar(s) {
                    ScalarMapping::Replicated => Guard::Everyone,
                    ScalarMapping::PrivateNoAlign => Guard::Union,
                    ScalarMapping::Aligned { target, .. } => Guard::owner_of(target.clone()),
                    // The accumulation executes on each partial owner: the
                    // reduce dims stay pinned by the varying subscript.
                    ScalarMapping::Reduction { target, .. } => Guard::owner_of(target.clone()),
                },
            },
            Stmt::If { .. } | Stmt::Goto(_) => {
                // A maxloc reduction IF executes on the partial owners of
                // the operand reference (Sec. 2.3), not under the generic
                // control-flow rules.
                if let ScalarMapping::Reduction { target, .. } = decisions.scalar(s) {
                    Guard::owner_of(target.clone())
                } else {
                    match decisions.control(s) {
                        Some(c) if c.privatized => Guard::Union,
                        _ => Guard::Everyone,
                    }
                }
            }
            Stmt::Do { .. } | Stmt::Continue => Guard::Everyone,
        };
        guards.insert(s, g);
    }

    // 4. Communication operations.
    let mut comms = Vec::new();
    for s in p.preorder() {
        match p.stmt(s) {
            Stmt::Assign { lhs, rhs } => {
                let dst = dest_owner(p, a, &maps, &guards, &decisions, s);
                collect_comms(p, a, &maps, &var_mapping, s, rhs, &dst, &mut comms);
                // Subscripts of a distributed write are evaluated by every
                // processor deciding the guard, so privatized scalars read
                // there (DGEFA's pivot index in `A(l,j) = ...`) need their
                // value everywhere: a broadcast.
                if let LValue::Array(lr) = lhs {
                    let every = SymbolicOwner::replicated(maps.grid.rank());
                    let mut lhs_ops = Vec::new();
                    for sub in &lr.subs {
                        collect_comms(p, a, &maps, &var_mapping, s, sub, &every, &mut lhs_ops);
                    }
                    for op in lhs_ops {
                        if !comms.iter().any(|c| c.stmt == op.stmt && c.data == op.data) {
                            comms.push(op);
                        }
                    }
                }
            }
            Stmt::If { cond, .. } => {
                // Predicate data: to the dependents' owner when privatized
                // with a common exec ref, to everyone otherwise; a
                // privatized IF with no dependents needs nothing.
                let dst = match decisions.control(s) {
                    Some(c) if c.privatized => match &c.exec_ref {
                        Some((es, er)) => symbolic_owner(
                            p,
                            &a.cfg,
                            &a.dom,
                            &a.induction,
                            maps.of(er.array),
                            *es,
                            er,
                        ),
                        None => None, // nobody specific needs the predicate
                    },
                    _ => Some(SymbolicOwner::replicated(maps.grid.rank())),
                };
                if let Some(dst) = dst {
                    collect_comms(p, a, &maps, &var_mapping, s, cond, &dst, &mut comms);
                }
            }
            _ => {}
        }
    }

    // A broadcast of a privatized scalar puts its value on every
    // processor; narrower transfers of the same value issued at the same
    // program point (same placement level, same enclosing loop) are then
    // redundant. DGEFA's pivot index moves once per elimination step, not
    // once per statement reading it. Absorb the subsumed operations,
    // keeping their identity for fetch attribution (`comm_index`).
    {
        let issue = |op: &CommOp| {
            if op.level == 0 {
                None
            } else {
                p.enclosing_loop_at_level(op.stmt, op.level)
            }
        };
        let mut bcast: HashMap<(VarId, usize, Option<StmtId>), usize> = HashMap::new();
        for (i, op) in comms.iter().enumerate() {
            if let CommData::Scalar(v) = op.data {
                if op.pattern == CommPattern::Broadcast {
                    bcast.entry((v, op.level, issue(op))).or_insert(i);
                }
            }
        }
        if !bcast.is_empty() {
            let mut absorbed = vec![false; comms.len()];
            let mut merged_into: HashMap<usize, Vec<(StmtId, CommData)>> = HashMap::new();
            for (i, op) in comms.iter().enumerate() {
                if let CommData::Scalar(v) = op.data {
                    if let Some(&bi) = bcast.get(&(v, op.level, issue(op))) {
                        if bi != i {
                            absorbed[i] = true;
                            let e = merged_into.entry(bi).or_default();
                            e.push((op.stmt, op.data.clone()));
                            e.extend(op.merged.iter().cloned());
                        }
                    }
                }
            }
            let mut kept = Vec::with_capacity(comms.len());
            for (i, mut op) in comms.into_iter().enumerate() {
                if absorbed[i] {
                    continue;
                }
                if let Some(m) = merged_into.remove(&i) {
                    op.merged.extend(m);
                }
                kept.push(op);
            }
            comms = kept;
        }
    }

    // 5. Reduction combines.
    let mut reduces = Vec::new();
    for red in &a.reductions {
        let acc_def = if red.stmts.len() == 1 {
            red.stmts[0]
        } else {
            red.stmts[1]
        };
        if let ScalarMapping::Reduction {
            reduce_dims,
            loc_var,
            ..
        } = decisions.scalar(acc_def)
        {
            reduces.push(ReduceOp {
                loop_id: red.loop_id,
                acc: red.var,
                loc: *loc_var,
                reduce_dims: reduce_dims.clone(),
                op: red.op,
            });
        }
    }

    SpmdProgram {
        program: p.clone(),
        maps,
        decisions,
        guards,
        comms,
        reduces,
        var_mapping,
    }
}

fn array_guard(
    p: &Program,
    decisions: &Decisions,
    maps: &MappingTable,
    s: StmtId,
    r: &ArrayRef,
) -> Guard {
    // A write to an array privatized w.r.t. an enclosing loop executes at
    // the owners of the privatization target (the consumers).
    for &l in p.enclosing_loops(s).iter() {
        match decisions.array(l, r.array) {
            ArrayMappingDecision::FullPrivate { target }
            | ArrayMappingDecision::PartialPrivate { target, .. } => {
                return match target {
                    Some((_, tr)) => Guard::owner_of(tr.clone()),
                    None => Guard::Union,
                };
            }
            ArrayMappingDecision::Unchanged => {}
        }
    }
    if maps.of(r.array).is_fully_replicated() {
        Guard::Everyone
    } else {
        Guard::owner_of(r.clone())
    }
}

/// The destination symbolic owner implied by a statement's guard.
fn dest_owner(
    p: &Program,
    a: &Analysis<'_>,
    maps: &MappingTable,
    guards: &HashMap<StmtId, Guard>,
    decisions: &Decisions,
    s: StmtId,
) -> SymbolicOwner {
    let _ = decisions;
    match guards.get(&s) {
        Some(Guard::OwnerOf { r, free_dims }) => {
            match symbolic_owner(p, &a.cfg, &a.dom, &a.induction, maps.of(r.array), s, r) {
                Some(mut o) => {
                    for &g in free_dims {
                        o.dims[g] = DimPos::Any;
                    }
                    o
                }
                None => SymbolicOwner::replicated(maps.grid.rank()),
            }
        }
        // Union statements have replicated operands; Everyone needs data
        // everywhere.
        _ => SymbolicOwner::replicated(maps.grid.rank()),
    }
}

/// Highest (1-based) enclosing-loop level of `s` whose index variable
/// appears in an affine owner position of `so`; 0 if no loop index does.
fn owner_max_level(p: &Program, so: &SymbolicOwner, s: StmtId) -> usize {
    so.dims
        .iter()
        .filter_map(|d| match d {
            DimPos::Pos { pos, .. } => pos
                .vars()
                .filter_map(|v| {
                    p.enclosing_loops(s)
                        .iter()
                        .position(|&l| p.loop_var(l) == Some(v))
                        .map(|x| x + 1)
                })
                .max(),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// Wire sender/receiver pairs of one execution of a hoisted shift. The
/// shifted grid dimension contributes its `extent - 1` boundary crossings;
/// an orthogonal dimension multiplies the count only when the source owner
/// position there still varies within the operation (`DimPos::Any`, or an
/// affine position driven by a loop deeper than the placement level) —
/// a position pinned by the hoisted levels selects a single plane.
fn shift_pairs(
    p: &Program,
    grid: &hpf_dist::ProcGrid,
    so: &SymbolicOwner,
    s: StmtId,
    grid_dim: usize,
    level: usize,
) -> usize {
    let ext = grid.extent(grid_dim);
    if ext <= 1 {
        return 0;
    }
    let mut pairs = ext - 1;
    for (g, d) in so.dims.iter().enumerate() {
        if g == grid_dim {
            continue;
        }
        match d {
            DimPos::Any => pairs *= grid.extent(g),
            DimPos::Pos { pos, .. } => {
                let lvl = pos
                    .vars()
                    .filter_map(|v| {
                        p.enclosing_loops(s)
                            .iter()
                            .position(|&l| p.loop_var(l) == Some(v))
                            .map(|x| x + 1)
                    })
                    .max()
                    .unwrap_or(0);
                if lvl > level {
                    pairs *= grid.extent(g);
                }
            }
            DimPos::Fixed(_) => {}
        }
    }
    pairs
}

/// Classify and place communication for every operand of one expression.
#[allow(clippy::too_many_arguments)]
fn collect_comms(
    p: &Program,
    a: &Analysis<'_>,
    maps: &MappingTable,
    var_mapping: &HashMap<VarId, ScalarMapping>,
    s: StmtId,
    e: &hpf_ir::Expr,
    dst: &SymbolicOwner,
    out: &mut Vec<CommOp>,
) {
    let stmt_level = p.nesting_level(s);
    // Array operands.
    for r in e.array_refs() {
        let m = maps.of(r.array);
        if m.is_fully_replicated() {
            continue;
        }
        let src = symbolic_owner(p, &a.cfg, &a.dom, &a.induction, m, s, r);
        let pattern = match &src {
            Some(src) => classify(src, dst),
            None => CommPattern::PointToPoint,
        };
        if pattern == CommPattern::Local {
            continue;
        }
        let placement: Placement = if pattern == CommPattern::PointToPoint {
            Placement {
                level: stmt_level,
                stmt_level,
            }
        } else {
            place_comm(p, &a.cfg, &a.dom, &a.induction, m, s, r)
        };
        // For shifts, find the loop level driving the shifted dimension.
        let shift_src_level = match (pattern, &src) {
            (CommPattern::Shift { grid_dim, .. }, Some(so)) => match &so.dims[grid_dim] {
                DimPos::Pos { pos, .. } => pos
                    .vars()
                    .filter_map(|v| {
                        p.enclosing_loops(s)
                            .iter()
                            .position(|&l| p.loop_var(l) == Some(v))
                            .map(|d| d + 1)
                    })
                    .max(),
                _ => None,
            },
            _ => None,
        };
        // A "transpose" whose source owner is fixed within one execution
        // of the (hoisted) operation is really a one-to-many transfer:
        // cost it as a broadcast (DGEFA's pivot column per elimination
        // step is the canonical case).
        let mut pattern = pattern;
        let src_max_level = src
            .as_ref()
            .map(|so| owner_max_level(p, so, s))
            .unwrap_or(0);
        if pattern == CommPattern::Transpose && src.is_some() && src_max_level <= placement.level {
            pattern = CommPattern::Broadcast;
        }
        // Wire messages one execution of the operation moves.
        let total = maps.grid.total();
        let pairs_per_exec = match (pattern, &src) {
            (CommPattern::Shift { grid_dim, .. }, Some(so)) => {
                Some(shift_pairs(p, &maps.grid, so, s, grid_dim, placement.level))
            }
            // A source still varying within the hoisted levels means every
            // processor holds a slice the others need — an allgather of
            // P(P-1) pairs; a pinned source is a plain one-to-many.
            (CommPattern::Broadcast, _) => {
                if src_max_level > placement.level {
                    Some(total * total.saturating_sub(1))
                } else {
                    Some(total.saturating_sub(1))
                }
            }
            (CommPattern::Transpose, _) => Some(total * total.saturating_sub(1)),
            (CommPattern::PointToPoint, _) => Some(1),
            _ => None,
        };
        // Loop levels contributing distinct elements.
        let mut vol_levels: Vec<usize> = Vec::new();
        for sub in &r.subs {
            if let Some(aff) = a.induction.affine_view(p, &a.cfg, &a.dom, s, sub) {
                for v in aff.vars() {
                    if let Some(d) = p
                        .enclosing_loops(s)
                        .iter()
                        .position(|&l| p.loop_var(l) == Some(v))
                    {
                        if !vol_levels.contains(&(d + 1)) {
                            vol_levels.push(d + 1);
                        }
                    }
                }
            }
        }
        out.push(CommOp {
            stmt: s,
            data: CommData::Array(r.clone()),
            pattern,
            level: placement.level,
            stmt_level,
            elem_bytes: p.vars.info(r.array).ty.byte_size(),
            shift_src_level,
            vol_levels,
            pairs_per_exec,
            merged: Vec::new(),
        });
    }
    // Scalar operands mapped to partitioned data.
    for w in e.scalar_reads() {
        let Some(m) = var_mapping.get(&w) else { continue };
        let (target, tstmt, free) = match m {
            ScalarMapping::Aligned {
                target, target_stmt, ..
            } => (target, *target_stmt, Vec::new()),
            ScalarMapping::Reduction {
                target,
                target_stmt,
                reduce_dims,
                ..
            } => (target, *target_stmt, reduce_dims.clone()),
            _ => continue,
        };
        let src = symbolic_owner(
            p,
            &a.cfg,
            &a.dom,
            &a.induction,
            maps.of(target.array),
            tstmt,
            target,
        )
        .map(|mut so| {
            for &g in &free {
                so.dims[g] = DimPos::Any;
            }
            so
        });
        let mut pattern = match &src {
            Some(so) => classify(so, dst),
            None => CommPattern::PointToPoint,
        };
        if pattern == CommPattern::Local {
            continue;
        }
        // A scalar has a single value: a many-destination transfer of it
        // is a broadcast, not an all-to-all.
        if pattern == CommPattern::Transpose {
            pattern = CommPattern::Broadcast;
        }
        // The value exists once per iteration of the innermost loop that
        // defines it; it is invariant (hence hoistable) in deeper loops.
        // DGEFA's pivot index l, defined in the search loop, moves once
        // per elimination step rather than once per swap iteration.
        let level = var_change_level(p, s, w).min(stmt_level);
        let total = maps.grid.total();
        let pairs_per_exec = match (pattern, &src) {
            (CommPattern::Shift { grid_dim, .. }, Some(so)) => {
                Some(shift_pairs(p, &maps.grid, so, s, grid_dim, level))
            }
            (CommPattern::Broadcast, _) => Some(total.saturating_sub(1)),
            (CommPattern::PointToPoint, _) => Some(1),
            _ => None,
        };
        out.push(CommOp {
            stmt: s,
            data: CommData::Scalar(w),
            pattern,
            level,
            stmt_level,
            elem_bytes: p.vars.info(w).ty.byte_size(),
            shift_src_level: None,
            vol_levels: Vec::new(),
            pairs_per_exec,
            merged: Vec::new(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_ir::parse_program;
    use phpf_core::CoreConfig;

    fn pipeline(src: &str, cfg: CoreConfig) -> SpmdProgram {
        let p = parse_program(src).unwrap();
        let a = Analysis::run(&p);
        let maps = MappingTable::from_program(&p, None).unwrap();
        let d = phpf_core::map_program(&p, &a, &maps, cfg);
        lower(&p, &a, &maps, d)
    }

    const FIG1: &str = r#"
!HPF$ PROCESSORS P(4)
!HPF$ ALIGN (i) WITH A(i) :: B, C, D
!HPF$ ALIGN (i) WITH A(*) :: E, F
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(20), B(20), C(20), D(20), E(20), F(20)
INTEGER i, m
REAL x, y, z
m = 2
DO i = 2, 19
  m = m + 1
  x = B(i) + C(i)
  y = A(i) + B(i)
  z = E(i) + F(i)
  A(i+1) = y / z
  D(m) = x / z
END DO
"#;

    /// With selected alignment, the only inner-loop communication left in
    /// the Figure 1 loop is the unavoidable one: the y value moving from
    /// A(i)'s owner to A(i+1)'s owner (the paper: "communication is needed
    /// for statement S5"). The B/C reads for x vectorize out of the loop
    /// entirely.
    #[test]
    fn figure1_selected_minimal_inner_loop_comm() {
        let sp = pipeline(FIG1, CoreConfig::full());
        // All array communication is vectorized.
        let inner_array = sp
            .comms
            .iter()
            .filter(|c| {
                matches!(c.data, CommData::Array(_)) && c.level == c.stmt_level && c.stmt_level > 0
            })
            .count();
        assert_eq!(inner_array, 0, "comms: {:#?}", sp.comms);
        // Exactly the y scalar shift remains inside the loop.
        assert_eq!(sp.inner_loop_comms(), 1, "comms: {:#?}", sp.comms);
        assert!(!sp.comms.is_empty());
    }

    /// With replication, B(1:n) and C(1:n) must be broadcast (the paper's
    /// Sec. 2.1 discussion) and the statements execute everywhere.
    #[test]
    fn figure1_replication_broadcasts() {
        let sp = pipeline(FIG1, CoreConfig::naive());
        let bcasts = sp
            .comms
            .iter()
            .filter(|c| c.pattern == CommPattern::Broadcast)
            .count();
        assert!(bcasts >= 2, "comms: {:#?}", sp.comms);
        // x's defining statement executes on every processor.
        let p = &sp.program;
        let x = p.vars.lookup("x").unwrap();
        let x_def = hpf_ir::visit::defs_of(p, x)[0];
        assert_eq!(*sp.guard(x_def), Guard::Everyone);
    }

    /// Producer alignment leaves the x value moving inside the loop
    /// (scalar comm at statement level) — the effect behind Table 1's
    /// middle column.
    #[test]
    fn figure1_producer_has_scalar_inner_comm() {
        let mut cfg = CoreConfig::full();
        cfg.scalar_policy = phpf_core::ScalarPolicy::ProducerAlign;
        let sp = pipeline(FIG1, cfg);
        let scalar_comms: Vec<_> = sp
            .comms
            .iter()
            .filter(|c| matches!(c.data, CommData::Scalar(_)))
            .collect();
        assert!(
            !scalar_comms.is_empty(),
            "expected per-iteration scalar communication, got {:#?}",
            sp.comms
        );
        assert!(sp.inner_loop_comms() > 0);
    }

    #[test]
    fn guards_for_distributed_writes() {
        let sp = pipeline(FIG1, CoreConfig::full());
        let p = &sp.program;
        // A(i+1) = ... is guarded by ownership of A(i+1).
        let a_stmt = p
            .preorder()
            .into_iter()
            .find(|&s| {
                matches!(p.stmt(s), Stmt::Assign { lhs: LValue::Array(r), .. }
                     if r.array == p.vars.lookup("a").unwrap())
            })
            .unwrap();
        assert!(sp.guard(a_stmt).is_partitioned());
        // m's update has no guard (privatized without alignment).
        let m = p.vars.lookup("m").unwrap();
        let m_def = hpf_ir::visit::defs_of(p, m)
            .into_iter()
            .find(|&s| p.nesting_level(s) == 1)
            .unwrap();
        assert_eq!(*sp.guard(m_def), Guard::Union);
    }

    /// DGEFA-style reduction lowering: the maxloc accumulation is guarded
    /// by the column owner and a ReduceOp with empty reduce dims attaches
    /// to the search loop.
    #[test]
    fn dgefa_reduction_lowering() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (*, CYCLIC) :: A
REAL A(16,16)
INTEGER j, k, l
REAL tmax
DO k = 1, 15
  tmax = 0.0
  l = k
  DO j = k, 16
    IF (ABS(A(j,k)) > tmax) THEN
      tmax = ABS(A(j,k))
      l = j
    END IF
  END DO
  A(l,k) = A(k,k)
END DO
"#;
        let sp = pipeline(src, CoreConfig::full());
        assert_eq!(sp.reduces.len(), 1);
        assert!(sp.reduces[0].reduce_dims.is_empty());
        assert_eq!(sp.reduces[0].loc, sp.program.vars.lookup("l"));
        // The accumulator's mapping resolves reads of tmax/l to the
        // column owner.
        let tmax = sp.program.vars.lookup("tmax").unwrap();
        assert!(matches!(
            sp.scalar_mapping(tmax),
            ScalarMapping::Reduction { .. }
        ));
    }
}

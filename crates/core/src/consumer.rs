//! Consumer-reference determination (paper Sec. 2.1, Figure 2).
//!
//! "The consumer reference for a read reference u is a reference r whose
//! owner needs the value of u during execution of that statement. Thus, in
//! most cases, under the owner-computes rule, the consumer reference is the
//! lhs of the assignment statement. For special cases where a read
//! reference, such as a subscript, is needed by all processors, the
//! consumer reference is set to be a dummy replicated reference. As an
//! optimization, for a reference which appears as a subscript of an rhs
//! reference which does not need communication, phpf sets the consumer
//! reference to be the lhs reference."

use hpf_analysis::Analysis;
use hpf_comm::pattern::{classify, symbolic_owner, CommPattern, SymbolicOwner};
use hpf_dist::MappingTable;
use hpf_ir::visit::ReadCtx;
use hpf_ir::{ArrayRef, LValue, Program, Stmt, StmtId, VarId};

/// A consumer reference for one read occurrence.
#[derive(Debug, Clone, PartialEq)]
pub enum ConsumerRef {
    /// The dummy replicated reference: the value must be broadcast.
    Replicated,
    /// The owner of this array reference needs the value.
    Ref { stmt: StmtId, r: ArrayRef },
    /// The use's statement assigns to a scalar; the consumer is wherever
    /// that scalar's definition ends up mapped (resolved recursively by
    /// the mapping algorithm).
    ScalarLhs { stmt: StmtId, var: VarId },
}

/// Consumer references for every occurrence of `var` read in `use_stmt`.
pub fn consumers_for_use(
    p: &Program,
    a: &Analysis<'_>,
    maps: &MappingTable,
    use_stmt: StmtId,
    var: VarId,
) -> Vec<ConsumerRef> {
    let mut out = Vec::new();
    for occ in a.rd.read_contexts(use_stmt, var) {
        out.push(consumer_for_occurrence(p, a, maps, use_stmt, occ.ctx, var));
    }
    out
}

fn consumer_for_occurrence(
    p: &Program,
    a: &Analysis<'_>,
    maps: &MappingTable,
    use_stmt: StmtId,
    ctx: ReadCtx,
    var_of_occurrence: VarId,
) -> ConsumerRef {
    match ctx {
        // Loop bounds are evaluated by every processor.
        ReadCtx::LoopBound => ConsumerRef::Replicated,
        // IF predicates default to all processors; Section 4 narrows this
        // separately when the control statement is privatized.
        ReadCtx::Condition => ConsumerRef::Replicated,
        // A subscript of the LHS reference determines ownership and must be
        // known wherever the guard is evaluated: broadcast. (Induction
        // variables never reach here — their closed forms replace them.)
        ReadCtx::LhsSubscript => ConsumerRef::Replicated,
        ReadCtx::Rhs => lhs_consumer(p, use_stmt),
        ReadCtx::RhsSubscript => {
            // The subscript is needed only by the executing processor when
            // every rhs reference that contains it is communication-free
            // w.r.t. the lhs owner; otherwise the subscript values must be
            // made available wherever the data is fetched from: broadcast.
            if refs_containing_var_all_local(p, a, maps, use_stmt, var_of_occurrence) {
                lhs_consumer(p, use_stmt)
            } else {
                ConsumerRef::Replicated
            }
        }
    }
}

fn lhs_consumer(p: &Program, use_stmt: StmtId) -> ConsumerRef {
    match p.stmt(use_stmt) {
        Stmt::Assign { lhs, .. } => match lhs {
            LValue::Array(r) => ConsumerRef::Ref {
                stmt: use_stmt,
                r: r.clone(),
            },
            LValue::Scalar(v) => ConsumerRef::ScalarLhs {
                stmt: use_stmt,
                var: *v,
            },
        },
        // Reads in DO bounds/IF conditions are handled by their contexts;
        // anything else is needed everywhere.
        _ => ConsumerRef::Replicated,
    }
}

/// Are all rhs array refs of `stmt` whose *subscripts* read `var`
/// communication-free w.r.t. the lhs owner?
fn refs_containing_var_all_local(
    p: &Program,
    a: &Analysis<'_>,
    maps: &MappingTable,
    stmt: StmtId,
    var: VarId,
) -> bool {
    let Stmt::Assign { lhs, rhs } = p.stmt(stmt) else {
        return false;
    };
    let dst: Option<SymbolicOwner> = match lhs {
        LValue::Array(r) => {
            symbolic_owner(p, &a.cfg, &a.dom, &a.induction, maps.of(r.array), stmt, r)
        }
        LValue::Scalar(_) => Some(SymbolicOwner::replicated(maps.grid.rank())),
    };
    let Some(dst) = dst else { return false };
    for r in rhs.array_refs() {
        let contains = r
            .subs
            .iter()
            .any(|s| s.scalar_reads().contains(&var));
        if !contains {
            continue;
        }
        let m = maps.of(r.array);
        if m.is_fully_replicated() {
            continue;
        }
        let Some(src) = symbolic_owner(p, &a.cfg, &a.dom, &a.induction, m, stmt, r) else {
            return false;
        };
        if classify(&src, &dst) != CommPattern::Local {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_ir::parse_program;

    /// The paper's Figure 2: the consumer reference for `p` is `A(i)`
    /// (H(i,p) needs no communication), while `q` must be replicated
    /// (G(q,i) involves communication).
    #[test]
    fn figure2_consumer_references() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ ALIGN G(i,j) WITH H(i,j)
!HPF$ ALIGN A(i) WITH H(i,1)
!HPF$ DISTRIBUTE (BLOCK, *) :: H
REAL H(16,16), G(16,16), A(16), B(16), C(16)
INTEGER i, p, q
DO i = 1, 16
  p = B(i)
  q = C(i)
  A(i) = H(i,p) + G(q,i)
END DO
"#;
        let prog = parse_program(src).unwrap();
        let a = Analysis::run(&prog);
        let maps = MappingTable::from_program(&prog, None).unwrap();
        let p_var = prog.vars.lookup("p").unwrap();
        let q_var = prog.vars.lookup("q").unwrap();
        let use_stmt = prog
            .preorder()
            .into_iter()
            .filter(|&s| prog.stmt(s).is_assign())
            .nth(2)
            .unwrap(); // A(i) = ...

        // p appears only in H(i,p), whose owner is the owner of row i —
        // the same processor as the owner of A(i): no communication, so
        // the consumer reference for p is the lhs A(i).
        let cons_p = consumers_for_use(&prog, &a, &maps, use_stmt, p_var);
        assert_eq!(cons_p.len(), 1);
        match &cons_p[0] {
            ConsumerRef::Ref { r, .. } => {
                assert_eq!(r.array, prog.vars.lookup("a").unwrap());
            }
            other => panic!("expected lhs consumer for p, got {:?}", other),
        }
        // q appears in G(q,i), which needs communication: q must be made
        // available on all processors (dummy replicated consumer).
        let cons_q = consumers_for_use(&prog, &a, &maps, use_stmt, q_var);
        assert_eq!(cons_q, vec![ConsumerRef::Replicated]);
    }

    /// Same Figure 2 shape but with the comm-free statement isolated: the
    /// subscript's consumer is the lhs.
    #[test]
    fn figure2_subscript_consumer_is_lhs_when_local() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ ALIGN A(i) WITH H(i,1)
!HPF$ DISTRIBUTE (BLOCK, *) :: H
REAL H(16,16), A(16), B(16)
INTEGER i, p
DO i = 1, 16
  p = B(i)
  A(i) = H(i,p)
END DO
"#;
        let prog = parse_program(src).unwrap();
        let a = Analysis::run(&prog);
        let maps = MappingTable::from_program(&prog, None).unwrap();
        let p_var = prog.vars.lookup("p").unwrap();
        let use_stmt = prog
            .preorder()
            .into_iter()
            .filter(|&s| prog.stmt(s).is_assign())
            .nth(1)
            .unwrap();
        let cons = consumers_for_use(&prog, &a, &maps, use_stmt, p_var);
        assert_eq!(cons.len(), 1);
        match &cons[0] {
            ConsumerRef::Ref { r, .. } => {
                assert_eq!(r.array, prog.vars.lookup("a").unwrap());
            }
            other => panic!("expected lhs consumer, got {:?}", other),
        }
    }

    #[test]
    fn loop_bound_use_is_replicated() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(16)
INTEGER i, n2
n2 = 8
DO i = 1, n2
  A(i) = 1.0
END DO
"#;
        let prog = parse_program(src).unwrap();
        let a = Analysis::run(&prog);
        let maps = MappingTable::from_program(&prog, None).unwrap();
        let n2 = prog.vars.lookup("n2").unwrap();
        let lp = prog
            .preorder()
            .into_iter()
            .find(|&s| prog.stmt(s).is_loop())
            .unwrap();
        let cons = consumers_for_use(&prog, &a, &maps, lp, n2);
        assert_eq!(cons, vec![ConsumerRef::Replicated]);
    }

    #[test]
    fn value_use_consumer_is_lhs_array() {
        let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: D
REAL D(16)
INTEGER i
REAL x
DO i = 1, 16
  x = 1.0
  D(i) = x
END DO
"#;
        let prog = parse_program(src).unwrap();
        let a = Analysis::run(&prog);
        let maps = MappingTable::from_program(&prog, None).unwrap();
        let x = prog.vars.lookup("x").unwrap();
        let use_stmt = prog
            .preorder()
            .into_iter()
            .filter(|&s| prog.stmt(s).is_assign())
            .nth(1)
            .unwrap();
        let cons = consumers_for_use(&prog, &a, &maps, use_stmt, x);
        match &cons[0] {
            ConsumerRef::Ref { r, .. } => assert_eq!(r.array, prog.vars.lookup("d").unwrap()),
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn scalar_lhs_consumer_reported() {
        let src = r#"
REAL A(4)
REAL x, y
x = A(1)
y = x
"#;
        let prog = parse_program(src).unwrap();
        let a = Analysis::run(&prog);
        let maps = MappingTable::from_program(&prog, None).unwrap();
        let x = prog.vars.lookup("x").unwrap();
        let y_stmt = prog
            .preorder()
            .into_iter()
            .filter(|&s| prog.stmt(s).is_assign())
            .nth(1)
            .unwrap();
        let cons = consumers_for_use(&prog, &a, &maps, y_stmt, x);
        assert_eq!(
            cons,
            vec![ConsumerRef::ScalarLhs {
                stmt: y_stmt,
                var: prog.vars.lookup("y").unwrap()
            }]
        );
    }
}

//! Privatized execution of control-flow statements (paper Sec. 4).
//!
//! "If the statement S cannot transfer control to a target statement
//! outside the body of loop L, then S does not contribute to a computation
//! partitioning guard for the loop L. Essentially, S will be executed by
//! the union of all processors executing any other statement inside loop L
//! for a given iteration. ... Any data referenced in the control predicate
//! of S has to be communicated to the union of all processors that
//! participate in the execution of any statement that is
//! control-dependent on S."

use crate::decision::{ControlDecision, Decisions};
use hpf_analysis::controldep;
use hpf_analysis::Analysis;
use hpf_comm::pattern::{classify, symbolic_owner, CommPattern};
use hpf_dist::MappingTable;
use hpf_ir::{ArrayRef, LValue, Program, Stmt, StmtId};

/// Decide the execution mapping of every control-flow statement.
pub fn map_control_flow(
    p: &Program,
    a: &Analysis<'_>,
    maps: &MappingTable,
    d: &mut Decisions,
) {
    for s in p.preorder() {
        if !matches!(p.stmt(s), Stmt::If { .. } | Stmt::Goto(_)) {
            continue;
        }
        let Some(&l) = p.enclosing_loops(s).last() else {
            // Outside any loop: executed by all processors.
            d.controls.insert(
                s,
                ControlDecision {
                    privatized: false,
                    exec_ref: None,
                },
            );
            continue;
        };
        let privatized = !p.transfers_outside(s, l);
        let exec_ref = if privatized {
            common_exec_ref(p, a, maps, s)
        } else {
            None
        };
        d.controls.insert(
            s,
            ControlDecision {
                privatized,
                exec_ref,
            },
        );
    }
}

/// If all statements control-dependent on `s` assign to references with
/// provably identical owners, return one representative reference — the
/// predicate data then only needs to reach that owner set.
fn common_exec_ref(
    p: &Program,
    a: &Analysis<'_>,
    maps: &MappingTable,
    s: StmtId,
) -> Option<(StmtId, ArrayRef)> {
    let mut rep: Option<(StmtId, ArrayRef)> = None;
    for t in controldep::dependents(p, s) {
        let Stmt::Assign { lhs, .. } = p.stmt(t) else {
            continue;
        };
        let LValue::Array(r) = lhs else {
            // Scalar assignments do not pin an owner here; their own
            // mapping pass handles them.
            continue;
        };
        if maps.of(r.array).is_fully_replicated() {
            // A replicated lhs executes everywhere; the predicate is then
            // needed everywhere.
            return None;
        }
        match &rep {
            None => rep = Some((t, r.clone())),
            Some((rs, rr)) => {
                let o1 = symbolic_owner(
                    p,
                    &a.cfg,
                    &a.dom,
                    &a.induction,
                    maps.of(rr.array),
                    *rs,
                    rr,
                )?;
                let o2 =
                    symbolic_owner(p, &a.cfg, &a.dom, &a.induction, maps.of(r.array), t, r)?;
                if classify(&o2, &o1) != CommPattern::Local {
                    return None;
                }
            }
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_ir::parse_program;

    /// The paper's Figure 7: both IFs transfer control only within the
    /// i-loop, so their execution is privatized. B(i) is owned by the same
    /// processor as A(i), so the lowered program moves nothing for the
    /// predicates (`tests/paper_figures.rs`,
    /// `figure7_control_flow_privatized`).
    fn figure7() -> Program {
        parse_program(
            r#"
!HPF$ PROCESSORS P(4)
!HPF$ ALIGN (i) WITH A(i) :: B, C
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(16), B(16), C(16)
INTEGER i
DO i = 1, 16
  IF (B(i) /= 0.0) THEN
    A(i) = A(i) / B(i)
    IF (B(i) < 0.0) GOTO 100
  ELSE
    A(i) = C(i)
    C(i) = C(i) * C(i)
  END IF
100 CONTINUE
END DO
"#,
        )
        .unwrap()
    }

    #[test]
    fn figure7_ifs_privatized() {
        let p = figure7();
        let a = Analysis::run(&p);
        let maps = MappingTable::from_program(&p, None).unwrap();
        let mut d = Decisions::default();
        map_control_flow(&p, &a, &maps, &mut d);

        let ifs: Vec<StmtId> = p
            .preorder()
            .into_iter()
            .filter(|&s| matches!(p.stmt(s), Stmt::If { .. }))
            .collect();
        assert_eq!(ifs.len(), 2);
        for s in &ifs {
            let c = d.control(*s).unwrap();
            assert!(c.privatized, "IF at {:?} privatized", s);
        }
        // The outer IF does have a common exec ref (A(i)).
        let outer = ifs
            .iter()
            .copied()
            .find(|&s| p.nesting_level(s) == 1)
            .unwrap();
        let er = d.control(outer).unwrap().exec_ref.clone().expect("outer exec ref");
        assert_eq!(er.1.array, p.vars.lookup("a").unwrap());
        // The bare GOTO inside the inner IF is privatized too.
        let gotos: Vec<StmtId> = p
            .preorder()
            .into_iter()
            .filter(|&s| matches!(p.stmt(s), Stmt::Goto(_)))
            .collect();
        assert_eq!(gotos.len(), 1);
        assert!(d.control(gotos[0]).unwrap().privatized);
    }

    #[test]
    fn goto_escaping_loop_not_privatized() {
        let p = parse_program(
            r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(16)
INTEGER i
DO i = 1, 16
  IF (A(i) < 0.0) GOTO 200
  A(i) = A(i) + 1.0
END DO
200 CONTINUE
"#,
        )
        .unwrap();
        let a = Analysis::run(&p);
        let maps = MappingTable::from_program(&p, None).unwrap();
        let mut d = Decisions::default();
        map_control_flow(&p, &a, &maps, &mut d);
        let iff = p
            .preorder()
            .into_iter()
            .find(|&s| matches!(p.stmt(s), Stmt::If { .. }))
            .unwrap();
        assert!(!d.control(iff).unwrap().privatized);
    }

    /// The IF is privatized with A(i) as its exec reference; the lowered
    /// program moves W(i+1) to A(i)'s owner (`hpf_spmd::lower`'s
    /// `misaligned_predicate_data_gets_a_comm_op`).
    #[test]
    fn misaligned_predicate_if_privatized() {
        let p = parse_program(
            r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A, W
REAL A(16), W(16)
INTEGER i
DO i = 1, 15
  IF (W(i+1) > 0.0) THEN
    A(i) = 1.0
  END IF
END DO
"#,
        )
        .unwrap();
        let a = Analysis::run(&p);
        let maps = MappingTable::from_program(&p, None).unwrap();
        let mut d = Decisions::default();
        map_control_flow(&p, &a, &maps, &mut d);
        let iff = p
            .preorder()
            .into_iter()
            .find(|&s| matches!(p.stmt(s), Stmt::If { .. }))
            .unwrap();
        let c = d.control(iff).unwrap();
        assert!(c.privatized);
        assert!(c.exec_ref.is_some());
    }

    #[test]
    fn control_outside_loop_runs_everywhere() {
        let p = parse_program(
            r#"
REAL x
IF (x > 0.0) THEN
  x = 1.0
END IF
"#,
        )
        .unwrap();
        let a = Analysis::run(&p);
        let maps = MappingTable::from_program(&p, None).unwrap();
        let mut d = Decisions::default();
        map_control_flow(&p, &a, &maps, &mut d);
        let iff = p
            .preorder()
            .into_iter()
            .find(|&s| matches!(p.stmt(s), Stmt::If { .. }))
            .unwrap();
        assert!(!d.control(iff).unwrap().privatized);
    }
}

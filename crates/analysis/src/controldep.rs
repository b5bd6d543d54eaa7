//! Structural control dependence.
//!
//! Section 4 of the paper privatizes the execution of control-flow
//! statements: an `IF`/`GOTO` whose transfers stay inside loop `L` need not
//! force all processors to evaluate its predicate — only the union of
//! processors executing statements *control-dependent* on it. On the
//! structured tree this set is:
//!
//! * for an `IF`: every statement in its branches, plus (for `GOTO`s inside
//!   the branches that jump forward within `L`) the statements they skip;
//! * for a bare `GOTO`: the statements between it and its target within the
//!   enclosing blocks (conservatively, the rest of the enclosing loop
//!   body when the target cannot be localized).

use hpf_ir::{Program, Stmt, StmtId};

/// Statements control-dependent on control statement `s` (conservative
/// superset on the structured tree).
pub fn dependents(p: &Program, s: StmtId) -> Vec<StmtId> {
    match p.stmt(s) {
        Stmt::If {
            then_body,
            else_body,
            ..
        } => {
            let mut out = Vec::new();
            for b in [then_body, else_body] {
                for &c in b {
                    collect_subtree(p, c, &mut out);
                }
            }
            // GOTOs under this IF extend control dependence to skipped
            // statements.
            for g in out.clone() {
                if matches!(p.stmt(g), Stmt::Goto(_)) {
                    for extra in goto_skipped(p, g) {
                        if !out.contains(&extra) {
                            out.push(extra);
                        }
                    }
                }
            }
            out
        }
        Stmt::Goto(_) => goto_skipped(p, s),
        _ => Vec::new(),
    }
}

fn collect_subtree(p: &Program, s: StmtId, out: &mut Vec<StmtId>) {
    if !out.contains(&s) {
        out.push(s);
    }
    for b in p.stmt(s).blocks() {
        for &c in b {
            collect_subtree(p, c, out);
        }
    }
}

/// Statements a `GOTO` may skip: for a forward jump to a label in an
/// enclosing block, the statements strictly between the goto's position
/// (at that block level) and the target; otherwise (backward jumps), the
/// whole enclosing loop body, conservatively.
fn goto_skipped(p: &Program, g: StmtId) -> Vec<StmtId> {
    let Some(target) = p.goto_target(g) else {
        return Vec::new();
    };
    // Walk up from the goto until we find the block that contains the
    // target.
    let mut hop = g;
    loop {
        let (block, pos) = p.containing_block(hop);
        if let Some(tpos) = block.iter().position(|&x| x == target) {
            let mut out = Vec::new();
            if tpos > pos {
                for &mid in &block[pos + 1..tpos] {
                    collect_subtree(p, mid, &mut out);
                }
            } else {
                // Backward jump: conservatively everything in this block.
                for &mid in block {
                    collect_subtree(p, mid, &mut out);
                }
            }
            return out;
        }
        match p.parent(hop) {
            Some(par) => hop = par,
            None => return Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parsed;

    #[test]
    fn if_branches_are_dependent() {
        let (p, s) = parsed(
            "REAL x
LOGICAL c
IF (c) THEN
  x = 1.0
ELSE
  x = 2.0
END IF
x = 3.0",
        );
        let [iff, t, e, after] = s[..] else {
            panic!("four statements");
        };
        let deps = dependents(&p, iff);
        assert!(deps.contains(&t));
        assert!(deps.contains(&e));
        assert!(!deps.contains(&after));
    }

    #[test]
    fn nested_if_statements_depend_on_the_outer_if() {
        let (p, s) = parsed(
            "REAL x
LOGICAL c, d
IF (c) THEN
  IF (d) THEN
    x = 1.0
  END IF
END IF",
        );
        let [outer, inner, assign] = s[..] else {
            panic!("three statements");
        };
        let deps = dependents(&p, outer);
        assert!(deps.contains(&inner));
        assert!(deps.contains(&assign));
        assert_eq!(dependents(&p, inner), vec![assign]);
    }

    #[test]
    fn forward_goto_skips_statements() {
        // Figure 7 shape: if (cond) goto 100; S1; S2; 100 continue
        let (p, s) = parsed(
            "INTEGER i
REAL A(8)
DO i = 1, 8
  IF (A(i) < 0.0) GOTO 100
  A(i) = 1.0
  A(i) = 2.0
100 CONTINUE
END DO",
        );
        let [_, _, goto_id, s1, s2, _] = s[..] else {
            panic!("six statements");
        };
        let deps = dependents(&p, goto_id);
        assert!(deps.contains(&s1));
        assert!(deps.contains(&s2));
        // The IF's dependents include the skipped statements via the GOTO.
        let iff = p.parent(goto_id).unwrap();
        let ifdeps = dependents(&p, iff);
        assert!(ifdeps.contains(&s1));
    }
}

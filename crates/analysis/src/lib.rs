//! # hpf-analysis
//!
//! Program analyses over [`hpf_ir`] programs, reconstructing the analysis
//! phase of the phpf prototype HPF compiler that the paper's mapping
//! algorithm builds on (paper Sec. 2.2: "It follows an earlier program
//! analysis phase which constructs the static single assignment (SSA)
//! representation of the program and performs constant propagation and
//! induction variable recognition"). The mapping phase here reads
//! reaching definitions directly instead (one definition, one mapping
//! decision), so no SSA form is built.
//!
//! * [`cfg`](mod@cfg) — control-flow graph with identified loop back edges
//! * [`dom`] — dominator tree
//! * [`reach`] — reaching definitions / def-use chains (with back-edge cuts)
//! * [`liveness`] — live scalars, including liveness across loop exits
//! * [`constprop`] — constant propagation and expression folding
//! * [`induction`] — induction variables and affine closed forms
//! * [`privcheck`] — scalar and array privatizability
//! * [`reduction`] — accumulation and maxloc reduction recognition
//! * [`depend`] — affine dependence tests (vectorization legality,
//!   memory-carried writes)
//! * [`controldep`] — structural control dependence (paper Sec. 4)
//! * [`autopriv`] — automatic array privatizability (the paper's stated
//!   future work, integrated)

pub mod autopriv;
pub mod bitset;
pub mod cfg;
pub mod constprop;
pub mod controldep;
pub mod depend;
pub mod dom;
pub mod induction;
pub mod liveness;
pub mod privcheck;
pub mod reach;
pub mod reduction;

pub use cfg::{Cfg, NodeId};
pub use constprop::ConstProp;
pub use dom::Dominators;
pub use induction::{InductionAnalysis, InductionVar};
pub use liveness::Liveness;
pub use privcheck::{PrivCheck, Privatizable};
pub use reach::ReachingDefs;
pub use reduction::{find_reductions, RedOp, Reduction};

use hpf_ir::Program;

/// All analyses of one program, computed once and shared by the mapping and
/// lowering phases.
pub struct Analysis<'p> {
    pub program: &'p Program,
    pub cfg: Cfg,
    pub dom: Dominators,
    pub rd: ReachingDefs,
    pub live: Liveness,
    pub constprop: ConstProp,
    pub induction: InductionAnalysis,
    pub reductions: Vec<Reduction>,
}

impl<'p> Analysis<'p> {
    /// Run the full analysis pipeline.
    pub fn run(program: &'p Program) -> Analysis<'p> {
        let cfg = Cfg::build(program);
        let dom = Dominators::compute(&cfg);
        let rd = ReachingDefs::compute(program, &cfg);
        let live = Liveness::compute(program, &cfg);
        let constprop = ConstProp::compute(program, &cfg);
        let induction = InductionAnalysis::compute(program, &cfg, &rd, &constprop);
        let reductions = find_reductions(program);
        Analysis {
            program,
            cfg,
            dom,
            rd,
            live,
            constprop,
            induction,
            reductions,
        }
    }

    /// A fresh privatizability oracle borrowing this analysis.
    pub fn priv_check(&self) -> PrivCheck<'_> {
        PrivCheck::new(self.program, &self.cfg, &self.rd, &self.live)
    }

    /// The reduction recognized at a given statement, if any.
    pub fn reduction_at(&self, s: hpf_ir::StmtId) -> Option<&Reduction> {
        self.reductions.iter().find(|r| r.stmts.contains(&s))
    }
}

/// A test program parsed from `src`, and its statements in preorder.
#[cfg(test)]
pub(crate) fn parsed(src: &str) -> (hpf_ir::Program, Vec<hpf_ir::StmtId>) {
    let p = hpf_ir::parse_program(src).unwrap();
    let stmts = p.preorder();
    (p, stmts)
}

/// The id of the test program's variable `name`.
#[cfg(test)]
pub(crate) fn var(p: &hpf_ir::Program, name: &str) -> hpf_ir::VarId {
    p.vars.lookup(name).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_ir::parse_program;

    #[test]
    fn full_pipeline_on_parsed_program() {
        let src = r#"
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
        let p = parse_program(src).unwrap();
        let a = Analysis::run(&p);
        // m recognized as an induction variable of the i loop.
        let m = var(&p, "m");
        let lp = p
            .preorder()
            .into_iter()
            .find(|&s| p.stmt(s).is_loop())
            .unwrap();
        let iv = a.induction.of(lp, m).expect("induction var m");
        assert_eq!(iv.step, 1);
        assert_eq!(iv.init, 2);
        // x, y, z privatizable without copy-out.
        let mut pc = a.priv_check();
        for name in ["x", "y", "z"] {
            let v = var(&p, name);
            let def = hpf_ir::visit::defs_of(&p, v)[0];
            assert!(
                pc.scalar_privatizable(lp, def).without_copy_out(),
                "{} should be privatizable",
                name
            );
        }
        // No reductions in this fragment.
        assert!(a.reductions.is_empty());
    }
}

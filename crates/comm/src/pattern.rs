//! Communication pattern classification.
//!
//! Given two data references (a producer/source and a consumer/destination)
//! at the same loop iteration, decide symbolically whether moving the value
//! requires communication at all, and if so which collective shape it has.
//! The comparison works on per-grid-dimension *template positions*: affine
//! functions of the loop indices obtained by composing array subscripts
//! with the alignment stride/offset of the mapping rules.

use hpf_analysis::{Cfg, Dominators, InductionAnalysis};
use hpf_dist::{ArrayMapping, GridDimRule, ProcGrid};
use hpf_ir::{Affine, ArrayRef, DistFormat, Program, StmtId};

/// Symbolic owner coordinate of one grid dimension for a reference.
#[derive(Debug, Clone, PartialEq)]
pub enum DimPos {
    /// Template position as an affine function of loop indices, under the
    /// given distribution of a template dimension `t_lo ..+ t_extent`.
    Pos {
        pos: Affine,
        dist: DistFormat,
        t_lo: i64,
        t_extent: i64,
    },
    /// Fixed grid coordinate.
    Fixed(usize),
    /// Any coordinate (replicated or privatized along this dimension).
    Any,
}

/// Symbolic owner of a whole reference: one [`DimPos`] per grid dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicOwner {
    pub dims: Vec<DimPos>,
}

impl SymbolicOwner {
    /// Fully replicated owner (consumer is "the dummy replicated
    /// reference" of the paper).
    pub fn replicated(grid_rank: usize) -> SymbolicOwner {
        SymbolicOwner {
            dims: vec![DimPos::Any; grid_rank],
        }
    }

    pub fn is_replicated(&self) -> bool {
        self.dims.iter().all(|d| matches!(d, DimPos::Any))
    }
}

/// Compute the symbolic owner of an array reference at statement `at`.
/// Returns `None` when a subscript in a distributed dimension is not
/// affine even through induction-variable closed forms (the caller must
/// then treat the reference pessimistically).
pub fn symbolic_owner(
    p: &Program,
    cfg: &Cfg,
    dom: &Dominators,
    ia: &InductionAnalysis,
    mapping: &ArrayMapping,
    at: StmtId,
    r: &ArrayRef,
) -> Option<SymbolicOwner> {
    let mut dims = Vec::with_capacity(mapping.rules.len());
    for rule in &mapping.rules {
        dims.push(match rule {
            GridDimRule::ByDim {
                array_dim,
                dist,
                stride,
                offset,
                t_lo,
                t_extent,
            } => {
                let sub = r.subs.get(*array_dim)?;
                let a = ia.affine_view(p, cfg, dom, at, sub)?;
                DimPos::Pos {
                    pos: a.scale(*stride).add(&Affine::constant(*offset)),
                    dist: *dist,
                    t_lo: *t_lo,
                    t_extent: *t_extent,
                }
            }
            GridDimRule::Fixed(c) => DimPos::Fixed(*c),
            GridDimRule::Replicated | GridDimRule::Private => DimPos::Any,
        });
    }
    Some(SymbolicOwner { dims })
}

/// The communication shape required to move a value from `src` to `dst`
/// owners at every iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommPattern {
    /// Owners provably identical in every iteration: no communication.
    Local,
    /// Nearest-neighbour shift along one grid dimension by a constant
    /// element distance (vectorizable into one collective shift).
    Shift { grid_dim: usize, elem_dist: i64 },
    /// Destination replicated: broadcast.
    Broadcast,
    /// General affine-to-affine transfer (e.g. transposition or
    /// distribution change).
    Transpose,
    /// Cannot prove anything better: per-element point-to-point.
    PointToPoint,
}

impl CommPattern {
    /// Stable short name, used as the key of per-pattern metrics counters
    /// and in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            CommPattern::Local => "local",
            CommPattern::Shift { .. } => "shift",
            CommPattern::Broadcast => "broadcast",
            CommPattern::Transpose => "transpose",
            CommPattern::PointToPoint => "point-to-point",
        }
    }
}

/// Classify the pattern between a source and destination symbolic owner.
pub fn classify(src: &SymbolicOwner, dst: &SymbolicOwner) -> CommPattern {
    debug_assert_eq!(src.dims.len(), dst.dims.len());
    let mut shift: Option<(usize, i64)> = None;
    let mut bcast = false;
    let mut transpose = false;
    for (g, (s, d)) in src.dims.iter().zip(&dst.dims).enumerate() {
        match (s, d) {
            // A replicated source dimension can satisfy any destination
            // locally along that dimension.
            (DimPos::Any, _) => {}
            // Destination needs the value at every coordinate of this grid
            // dimension but the source pins it down: broadcast along the
            // dimension.
            (_, DimPos::Any) => {
                bcast = true;
            }
            (DimPos::Fixed(a), DimPos::Fixed(b)) => {
                if a != b {
                    transpose = true;
                }
            }
            (
                DimPos::Pos {
                    pos: pa,
                    dist: da,
                    t_lo: la,
                    t_extent: ea,
                },
                DimPos::Pos {
                    pos: pb,
                    dist: db,
                    t_lo: lb,
                    t_extent: eb,
                },
            ) => {
                if da != db || la != lb || ea != eb {
                    transpose = true;
                    continue;
                }
                let diff = pb.sub(pa);
                match diff.as_const() {
                    Some(0) => {}
                    Some(c) => match shift {
                        None => shift = Some((g, c)),
                        Some(_) => transpose = true,
                    },
                    None => transpose = true,
                }
            }
            (DimPos::Fixed(_), DimPos::Pos { .. })
            | (DimPos::Pos { .. }, DimPos::Fixed(_)) => {
                transpose = true;
            }
        }
    }
    if transpose || (bcast && shift.is_some()) {
        return CommPattern::Transpose;
    }
    if bcast {
        return CommPattern::Broadcast;
    }
    match shift {
        None => CommPattern::Local,
        Some((g, c)) => CommPattern::Shift {
            grid_dim: g,
            elem_dist: c,
        },
    }
}

/// Convenience: classify the movement of `src_ref`'s value to the owner of
/// `dst_ref`, both evaluated at statement `at`. `None` destination means
/// "all processors" (the dummy replicated consumer).
#[allow(clippy::too_many_arguments)]
pub fn classify_refs(
    p: &Program,
    cfg: &Cfg,
    dom: &Dominators,
    ia: &InductionAnalysis,
    grid: &ProcGrid,
    src_mapping: &ArrayMapping,
    src_at: StmtId,
    src_ref: &ArrayRef,
    dst: Option<(&ArrayMapping, StmtId, &ArrayRef)>,
) -> CommPattern {
    let Some(src) = symbolic_owner(p, cfg, dom, ia, src_mapping, src_at, src_ref) else {
        return CommPattern::PointToPoint;
    };
    let dst_owner = match dst {
        None => SymbolicOwner::replicated(grid.rank()),
        Some((m, at, r)) => match symbolic_owner(p, cfg, dom, ia, m, at, r) {
            Some(o) => o,
            None => return CommPattern::PointToPoint,
        },
    };
    classify(&src, &dst_owner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_analysis::Analysis;
    use hpf_dist::MappingTable;
    use hpf_ir::{parse_program, LValue, Stmt};

    struct Fix {
        p: Program,
        maps: MappingTable,
    }

    fn fix(src: &str) -> Fix {
        let p = parse_program(src).unwrap();
        let maps = MappingTable::from_program(&p, None).unwrap();
        Fix { p, maps }
    }

    /// Find the nth assignment statement.
    fn assign(p: &Program, n: usize) -> StmtId {
        p.preorder()
            .into_iter()
            .filter(|&s| p.stmt(s).is_assign())
            .nth(n)
            .unwrap()
    }

    fn lhs_ref(p: &Program, s: StmtId) -> ArrayRef {
        match p.stmt(s) {
            Stmt::Assign {
                lhs: LValue::Array(r),
                ..
            } => r.clone(),
            _ => panic!("not an array assignment"),
        }
    }

    #[test]
    fn identical_alignment_is_local() {
        let f = fix(r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
!HPF$ ALIGN (i) WITH A(i) :: B
REAL A(16), B(16)
INTEGER i
DO i = 1, 16
  A(i) = B(i)
END DO
"#);
        let a = Analysis::run(&f.p);
        let s = assign(&f.p, 0);
        let lhs = lhs_ref(&f.p, s);
        let b = f.p.vars.lookup("b").unwrap();
        let rhs = ArrayRef::new(b, lhs.subs.clone());
        let pat = classify_refs(
            &f.p,
            &a.cfg,
            &a.dom,
            &a.induction,
            &f.maps.grid,
            f.maps.of(b),
            s,
            &rhs,
            Some((f.maps.of(lhs.array), s, &lhs)),
        );
        assert_eq!(pat, CommPattern::Local);
    }

    #[test]
    fn offset_subscript_is_shift() {
        let f = fix(r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(16)
INTEGER i
DO i = 2, 16
  A(i) = A(i-1)
END DO
"#);
        let a = Analysis::run(&f.p);
        let s = assign(&f.p, 0);
        let lhs = lhs_ref(&f.p, s);
        let av = f.p.vars.lookup("a").unwrap();
        let i = f.p.vars.lookup("i").unwrap();
        let rhs = ArrayRef::new(
            av,
            vec![hpf_ir::Expr::scalar(i).sub(hpf_ir::Expr::int(1))],
        );
        let pat = classify_refs(
            &f.p,
            &a.cfg,
            &a.dom,
            &a.induction,
            &f.maps.grid,
            f.maps.of(av),
            s,
            &rhs,
            Some((f.maps.of(av), s, &lhs)),
        );
        assert_eq!(
            pat,
            CommPattern::Shift {
                grid_dim: 0,
                elem_dist: 1
            }
        );
    }

    #[test]
    fn replicated_consumer_is_broadcast() {
        let f = fix(r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(16)
INTEGER i
REAL x
DO i = 1, 16
  x = A(i)
END DO
"#);
        let a = Analysis::run(&f.p);
        let s = assign(&f.p, 0);
        let av = f.p.vars.lookup("a").unwrap();
        let i = f.p.vars.lookup("i").unwrap();
        let rhs = ArrayRef::new(av, vec![hpf_ir::Expr::scalar(i)]);
        let pat = classify_refs(
            &f.p,
            &a.cfg,
            &a.dom,
            &a.induction,
            &f.maps.grid,
            f.maps.of(av),
            s,
            &rhs,
            None,
        );
        assert_eq!(pat, CommPattern::Broadcast);
    }

    #[test]
    fn replicated_source_is_local_everywhere() {
        let f = fix(r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(16), E(16)
INTEGER i
DO i = 1, 16
  A(i) = E(i)
END DO
"#);
        let a = Analysis::run(&f.p);
        let s = assign(&f.p, 0);
        let lhs = lhs_ref(&f.p, s);
        let e = f.p.vars.lookup("e").unwrap();
        let i = f.p.vars.lookup("i").unwrap();
        let rhs = ArrayRef::new(e, vec![hpf_ir::Expr::scalar(i)]);
        let pat = classify_refs(
            &f.p,
            &a.cfg,
            &a.dom,
            &a.induction,
            &f.maps.grid,
            f.maps.of(e),
            s,
            &rhs,
            Some((f.maps.of(lhs.array), s, &lhs)),
        );
        assert_eq!(pat, CommPattern::Local);
    }

    #[test]
    fn transpose_between_orthogonal_distributions() {
        let f = fix(r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK, *) :: A
!HPF$ DISTRIBUTE (*, BLOCK) :: B
REAL A(8,8), B(8,8)
INTEGER i, j
DO i = 1, 8
  DO j = 1, 8
    A(i,j) = B(i,j)
  END DO
END DO
"#);
        let a = Analysis::run(&f.p);
        let s = assign(&f.p, 0);
        let lhs = lhs_ref(&f.p, s);
        let bv = f.p.vars.lookup("b").unwrap();
        let rhs = ArrayRef::new(bv, lhs.subs.clone());
        let pat = classify_refs(
            &f.p,
            &a.cfg,
            &a.dom,
            &a.induction,
            &f.maps.grid,
            f.maps.of(bv),
            s,
            &rhs,
            Some((f.maps.of(lhs.array), s, &lhs)),
        );
        assert_eq!(pat, CommPattern::Transpose);
    }

    #[test]
    fn nonaffine_subscript_is_point_to_point() {
        let f = fix(r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(16)
INTEGER IDX(16)
INTEGER i
DO i = 1, 16
  A(i) = A(IDX(i))
END DO
"#);
        let a = Analysis::run(&f.p);
        let s = assign(&f.p, 0);
        let lhs = lhs_ref(&f.p, s);
        let av = f.p.vars.lookup("a").unwrap();
        let idx = f.p.vars.lookup("idx").unwrap();
        let i = f.p.vars.lookup("i").unwrap();
        let rhs = ArrayRef::new(
            av,
            vec![hpf_ir::Expr::array(idx, vec![hpf_ir::Expr::scalar(i)])],
        );
        let pat = classify_refs(
            &f.p,
            &a.cfg,
            &a.dom,
            &a.induction,
            &f.maps.grid,
            f.maps.of(av),
            s,
            &rhs,
            Some((f.maps.of(lhs.array), s, &lhs)),
        );
        assert_eq!(pat, CommPattern::PointToPoint);
    }

    #[test]
    fn induction_subscript_classified_via_closed_form() {
        // D(m) with m = i+1: consumer D(m) vs producer B(i) is a shift.
        let f = fix(r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
!HPF$ ALIGN (i) WITH A(i) :: B, D
REAL A(20), B(20), D(20)
INTEGER i, m
REAL x
m = 2
DO i = 2, 19
  m = m + 1
  x = B(i)
  D(m) = x
END DO
"#);
        let a = Analysis::run(&f.p);
        let s_x = assign(&f.p, 2); // x = B(i)
        let s_d = assign(&f.p, 3); // D(m) = x
        let lhs_d = lhs_ref(&f.p, s_d);
        let bv = f.p.vars.lookup("b").unwrap();
        let i = f.p.vars.lookup("i").unwrap();
        let rhs = ArrayRef::new(bv, vec![hpf_ir::Expr::scalar(i)]);
        let pat = classify_refs(
            &f.p,
            &a.cfg,
            &a.dom,
            &a.induction,
            &f.maps.grid,
            f.maps.of(bv),
            s_x,
            &rhs,
            Some((f.maps.of(lhs_d.array), s_d, &lhs_d)),
        );
        // B(i) must move to owner of D(i+1): shift by one element.
        assert_eq!(
            pat,
            CommPattern::Shift {
                grid_dim: 0,
                elem_dist: 1
            }
        );
    }
}

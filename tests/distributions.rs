//! End-to-end coverage of distribution formats and grid shapes the main
//! kernels don't exercise: CYCLIC(k) block-cyclic layouts, 2-D and 3-D
//! grids with collapsed dimensions, offset alignments, and negative loop
//! steps — all validated against sequential semantics.

use phpf::compile::{compile_source, Options, Version};
use phpf::spmd::validate_against_sequential;

fn check(src: &str, arrays: &[&str], n: i64) {
    for v in [Version::Replication, Version::SelectedAlignment] {
        let c = compile_source(src, Options::new(v)).unwrap();
        let p = &c.spmd.program;
        let ids: Vec<_> = arrays
            .iter()
            .map(|a| {
                let id = p.vars.lookup(a).expect("array exists");
                (id, p.vars.info(id).shape().unwrap().len() as usize)
            })
            .collect();
        let nn = n;
        validate_against_sequential(&c.spmd, move |m| {
            for (k, &(id, len)) in ids.iter().enumerate() {
                let data: Vec<f64> = (0..len)
                    .map(|i| 0.5 + (i as f64) * 0.125 + k as f64)
                    .collect();
                m.fill_real(id, &data);
            }
            let _ = nn;
        })
        .unwrap_or_else(|e| panic!("{}: {}\n{}", v.name(), e, src));
    }
}

#[test]
fn block_cyclic_stencil() {
    // CYCLIC(3) over 4 processors: each rank's loop visits its blocks of
    // three and the halo elements it serves, and the guards pick the
    // instances it owns.
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (CYCLIC(3)) :: A, B
REAL A(32), B(32)
INTEGER i
DO i = 2, 31
  A(i) = (B(i-1) + B(i+1)) * 0.5
END DO
"#;
    check(src, &["a", "b"], 32);
}

#[test]
fn cyclic_with_offset_alignment() {
    let src = r#"
!HPF$ PROCESSORS P(3)
!HPF$ DISTRIBUTE (CYCLIC) :: A
!HPF$ ALIGN B(i) WITH A(i+2)
REAL A(24), B(20)
INTEGER i
DO i = 1, 20
  A(i+2) = B(i) * 2.0
END DO
"#;
    check(src, &["a", "b"], 24);
}

#[test]
fn grid_2d_with_collapsed_dim() {
    let src = r#"
!HPF$ PROCESSORS P(2,2)
!HPF$ DISTRIBUTE (*, BLOCK, BLOCK) :: T
REAL T(4,16,16)
INTEGER i, j, k
DO k = 1, 16
  DO j = 1, 16
    DO i = 1, 4
      T(i,j,k) = T(i,j,k) + 1.0
    END DO
  END DO
END DO
"#;
    check(src, &["t"], 16);
}

#[test]
fn grid_3d_stencil() {
    let src = r#"
!HPF$ PROCESSORS P(2,2,2)
!HPF$ DISTRIBUTE (BLOCK, BLOCK, BLOCK) :: U, V
REAL U(8,8,8), V(8,8,8)
INTEGER i, j, k
DO k = 2, 7
  DO j = 2, 7
    DO i = 2, 7
      V(i,j,k) = (U(i-1,j,k) + U(i,j-1,k) + U(i,j,k-1)) * 0.3
    END DO
  END DO
END DO
"#;
    check(src, &["u", "v"], 8);
}

#[test]
fn negative_step_loop() {
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A, B
REAL A(16), B(16)
INTEGER i
DO i = 15, 2, -1
  A(i) = B(i+1) * 0.5
END DO
"#;
    check(src, &["a", "b"], 16);
}

#[test]
fn reversed_subscript() {
    // A(17-i): owner sweeps backwards over the grid.
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A, B
REAL A(16), B(16)
INTEGER i
DO i = 1, 16
  A(17-i) = B(i)
END DO
"#;
    check(src, &["a", "b"], 16);
}

#[test]
fn stride_two_alignment() {
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
!HPF$ ALIGN B(i) WITH A(2*i)
REAL A(32), B(16)
INTEGER i
DO i = 1, 16
  A(2*i) = B(i) + 1.0
END DO
"#;
    check(src, &["a", "b"], 32);
}

#[test]
fn uneven_block_sizes() {
    // 17 elements over 4 processors: block 5,5,5,2.
    let src = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A, B
REAL A(17), B(17)
INTEGER i
DO i = 2, 16
  A(i) = B(i-1) + B(i+1)
END DO
"#;
    check(src, &["a", "b"], 17);
}

//! Pins the reference executor's exact observable output.
//!
//! `SpmdExec` is the semantics every backend, the verifier and the test
//! oracle are checked against, so any change to its hot path must leave
//! its output bit-identical. For each pinned input this suite hashes the
//! Debug form of the full recorded `Trace`, the epoch cuts, `ExecStats`
//! and every rank's final `Memory`, and compares the hash with a recorded
//! constant. An untraced run must agree with the traced one on stats and
//! memories. The executor counts no traffic; the trace is what its replay
//! sends.
//!
//! A mismatch means an executor change altered an event, its order, a
//! slot order inside a coalesced message, a counter or a final value.

use phpf::compile::{compile_source, Options};
use phpf::core::CoreConfig;
use phpf::ir::{Memory, ScalarTy};
use phpf::spmd::{SpmdExec, SpmdProgram};
use std::fmt::Write;

/// 64-bit FNV-1a over everything formatted into it, so large traces are
/// hashed without building their Debug string.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Fill every REAL array with a varied positive pattern (so DGEFA's
/// pivot search picks different rows at different steps).
fn fill(sp: &SpmdProgram) -> impl Fn(&mut Memory) + '_ {
    move |m: &mut Memory| {
        for (v, info) in sp.program.vars.arrays() {
            if info.ty != ScalarTy::Real {
                continue;
            }
            let n = info.shape().unwrap().len() as usize;
            let data: Vec<f64> = (0..n)
                .map(|k| 1.0 + ((k * 37 + 11) % 23) as f64 * 0.125)
                .collect();
            m.fill_real(v, &data);
        }
    }
}

/// Hash of one traced run, after checking that an untraced run
/// of the same configuration agrees on stats and memories.
fn pin(src: &str, core: CoreConfig, combine: bool, vectorize: bool) -> u64 {
    let opts = Options {
        core,
        combine_messages: combine,
        ..Options::default()
    };
    let compiled = compile_source(src, opts).expect("compiles");
    let sp = &compiled.spmd;
    let init = fill(sp);

    let mut exec = SpmdExec::new(sp, &init).with_trace();
    let mut plain = SpmdExec::new(sp, &init);
    if !vectorize {
        exec = exec.without_vectorization();
        plain = plain.without_vectorization();
    }
    let stats = exec.run().expect("traced run");
    let plain_stats = plain.run().expect("untraced run");
    assert_eq!(stats, plain_stats, "tracing changed ExecStats");
    assert_eq!(exec.mems, plain.mems, "tracing changed final memories");

    let mut h = Fnv::new();
    write!(h, "{:?}", exec.trace.as_ref().unwrap()).unwrap();
    write!(h, "|{:?}", exec.epoch_cuts()).unwrap();
    write!(h, "|{:?}", stats).unwrap();
    write!(h, "|{:?}", exec.mems).unwrap();
    h.0
}

const TOMCATV: &str = include_str!("../examples/hpf/tomcatv_small.hpf");
const DGEFA: &str = include_str!("../examples/hpf/dgefa_small.hpf");
const APPSP: &str = include_str!("../examples/hpf/appsp_small.hpf");
const STENCIL2D: &str = include_str!("../examples/hpf/stencil2d.hpf");

/// A reduction over a 2-D grid: partial sums along one grid dimension
/// (free guard dimensions, a combine per row group).
const REDUCE2D: &str = r#"
!HPF$ PROCESSORS P(2,2)
!HPF$ ALIGN B(i) WITH A(i,1)
!HPF$ DISTRIBUTE (BLOCK, BLOCK) :: A
REAL A(8,8), B(8)
INTEGER i, j
REAL s
DO i = 1, 8
  s = 0.0
  DO j = 1, 8
    s = s + A(i,j)
  END DO
  B(i) = s
END DO
"#;

/// Partial array privatization on a 2-D grid (private grid dimensions).
const PARTIAL2D: &str = r#"
!HPF$ PROCESSORS P(2,2)
!HPF$ DISTRIBUTE (*, *, BLOCK, BLOCK) :: RSD
REAL RSD(5,8,8,8), C(8,8,5)
INTEGER i, j, k
!HPF$ INDEPENDENT, NEW(c)
DO k = 2, 7
  DO j = 2, 7
    DO i = 2, 7
      C(i,j,1) = RSD(1,i,j,k) + 1.0
    END DO
  END DO
  DO j = 3, 7
    DO i = 2, 7
      RSD(1,i,j,k) = C(i,j-1,1) * 2.0
    END DO
  END DO
END DO
"#;

/// Subscript and operator paths none of the kernels above reach: a REAL
/// scalar inside a subscript (truncated after the arithmetic), one scalar
/// read twice in a subscript (`E(m+m)`), aligned scalars fetched from
/// their owner inside a subscript, `MOD` and integer division inside
/// subscripts, intrinsics over array reads, unary minus, and
/// `.AND.`/`.OR.`/`.NOT.` in an IF predicate.
const SUBSCRIPTS: &str = r#"
!HPF$ PROCESSORS P(4)
!HPF$ ALIGN (i) WITH A(i) :: B, C, D
!HPF$ DISTRIBUTE (BLOCK) :: A
REAL A(40), B(40), C(40), D(40), E(40)
INTEGER i, m, k
REAL x
DO i = 2, 15
  m = A(i) * 2.0 + i
  x = B(i) * 0.5
  D(i+1) = m * x
  C(i) = E(m+m) + E(m) * E(x + x + i)
END DO
DO i = 2, 15
  k = MOD(i, 4) + 1
  C(i/2 + 1) = -A(k) + B(-i + 17) + E(k * 3 / 2) + D(MOD(i * 7, 5) + 1)
END DO
DO i = 2, 15
  A(i) = ABS(B(i+1)) + MAX(C(i), D(i+1)) + SQRT(ABS(C(i-1))) + MIN(D(i-1), 2.0) - EXP(-E(i))
  IF (A(i) > 1.0 .AND. .NOT. B(i) < 2.0 .OR. i == 3) THEN
    C(i) = A(i) / 2
  END IF
END DO
"#;

fn check(name: &str, src: &str, expected: [u64; 4]) {
    let got = [
        pin(src, CoreConfig::full(), false, true),
        pin(src, CoreConfig::full(), false, false),
        pin(src, CoreConfig::naive(), false, true),
        pin(src, CoreConfig::naive(), false, false),
    ];
    assert_eq!(
        got, expected,
        "{name}: executor output changed ([full vec, full novec, naive vec, naive novec])"
    );
}

#[test]
fn tomcatv_output_pinned() {
    check(
        "tomcatv",
        TOMCATV,
        [
            2074731768859333235,
            6688621086092364949,
            2908430834719313342,
            12361121498651915076,
        ],
    );
}

#[test]
fn dgefa_output_pinned() {
    check(
        "dgefa",
        DGEFA,
        [
            7363876603527698707,
            9800191966008269300,
            7764830686955870667,
            1643888373708256443,
        ],
    );
}

#[test]
fn appsp_output_pinned() {
    check(
        "appsp",
        APPSP,
        [
            342222288361639228,
            14670609289383133722,
            14953201041065026649,
            17358462885350740751,
        ],
    );
}

#[test]
fn grid_2d_outputs_pinned() {
    check(
        "stencil2d",
        STENCIL2D,
        [
            11584829872809663885,
            4090457982309907629,
            14540570494995659365,
            1887035304540685089,
        ],
    );
    check(
        "reduce2d",
        REDUCE2D,
        [
            1433882096596802089,
            1433882096596802089,
            7974455994042255565,
            8321865909246728849,
        ],
    );
    check(
        "partial2d",
        PARTIAL2D,
        [
            10862308765585527476,
            17733522979826037449,
            4533664596746147626,
            984396191331391519,
        ],
    );
}

#[test]
fn subscript_paths_output_pinned() {
    check(
        "subscripts",
        SUBSCRIPTS,
        [
            17708279107229608436,
            1434678211546380022,
            6939150713323594101,
            13607276943768696416,
        ],
    );
}

/// Message combining folds operations into others (`merged` entries), so
/// fetch attribution must still find the first matching operation.
#[test]
fn combined_messages_output_pinned() {
    let got = [
        pin(TOMCATV, CoreConfig::full(), true, true),
        pin(DGEFA, CoreConfig::full(), true, true),
        pin(APPSP, CoreConfig::full(), true, true),
        pin(STENCIL2D, CoreConfig::full(), true, true),
    ];
    assert_eq!(
        got,
        [
            6239149822464721601,
            7363876603527698707,
            342222288361639228,
            11584829872809663885
        ],
        "combined-message executor output changed"
    );
}

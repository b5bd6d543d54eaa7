//! Pins the reference executor's exact observable output.
//!
//! `SpmdExec` is the semantics every backend, the verifier and the test
//! oracle are checked against, so any change to its hot path must leave
//! its output bit-identical. For each pinned input this suite hashes the
//! Debug form of the full recorded `Trace`, the epoch cuts, `ExecStats`,
//! `CommMetrics` (every field, `max_in_flight` included), every rank's
//! final `Memory` and the observability trace's signature, and compares
//! the hash with a recorded constant. An untraced run must agree with the
//! traced one on stats, metrics and memories.
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

/// Hash of one traced + observed run, after checking that an untraced run
/// of the same configuration agrees on stats, metrics and memories.
fn pin(src: &str, core: CoreConfig, combine: bool, vectorize: bool) -> u64 {
    let opts = Options {
        core,
        combine_messages: combine,
        ..Options::default()
    };
    let compiled = compile_source(src, opts).expect("compiles");
    let sp = &compiled.spmd;
    let init = fill(sp);

    let mut exec = SpmdExec::new(sp, &init).with_trace().with_obs();
    let mut plain = SpmdExec::new(sp, &init);
    if !vectorize {
        exec = exec.without_vectorization();
        plain = plain.without_vectorization();
    }
    let stats = exec.run().expect("traced run");
    let plain_stats = plain.run().expect("untraced run");
    assert_eq!(stats, plain_stats, "tracing changed ExecStats");
    assert_eq!(exec.metrics, plain.metrics, "tracing changed CommMetrics");
    assert_eq!(exec.mems, plain.mems, "tracing changed final memories");

    let mut h = Fnv::new();
    write!(h, "{:?}", exec.trace.as_ref().unwrap()).unwrap();
    write!(h, "|{:?}", exec.epoch_cuts()).unwrap();
    write!(h, "|{:?}", stats).unwrap();
    write!(h, "|{:?}", exec.metrics).unwrap();
    write!(h, "|{:?}", exec.mems).unwrap();
    let obs = exec.take_obs().expect("obs recorded");
    write!(h, "|{}", obs.signature()).unwrap();
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
            13757954940045893149,
            13966231667570830931,
            15196926606106337319,
            6978314194402641647,
        ],
    );
}

#[test]
fn dgefa_output_pinned() {
    check(
        "dgefa",
        DGEFA,
        [
            17465564599812352228,
            1833662505698892401,
            7438748844208905858,
            16156804674112702621,
        ],
    );
}

#[test]
fn appsp_output_pinned() {
    check(
        "appsp",
        APPSP,
        [
            13593094093380325342,
            16065916084288658653,
            15939760979345598939,
            15464443941420702739,
        ],
    );
}

#[test]
fn grid_2d_outputs_pinned() {
    check(
        "stencil2d",
        STENCIL2D,
        [
            744992418087881560,
            13563342732158884853,
            14168395302798648623,
            14164225327154568270,
        ],
    );
    check(
        "reduce2d",
        REDUCE2D,
        [
            10616463253520488256,
            10616463253520488256,
            6737581966432747088,
            11434003927120290021,
        ],
    );
    check(
        "partial2d",
        PARTIAL2D,
        [
            5566695571269497923,
            967888407171966547,
            14005349295303177361,
            14414929995833670972,
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
            12884489894122643597,
            17465564599812352228,
            13593094093380325342,
            744992418087881560
        ],
        "combined-message executor output changed"
    );
}

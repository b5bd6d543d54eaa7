//! # hpf-compile
//!
//! The compilation pipeline driver: parse/build → analyse → map
//! (the paper's algorithm) → lower to SPMD. The driver also names the
//! *compiler versions* measured in the paper's tables so the benchmark
//! harness and the examples can select them declaratively.

pub mod netrun;
pub mod report;

use hpf_analysis::Analysis;
use hpf_comm::MachineParams;
use hpf_dist::{MappingTable, ProcGrid};
use hpf_ir::{parse_program, Program};
use hpf_spmd::{costsim, lower, CostReport, SpmdProgram};
use phpf_core::{CoreConfig, ScalarPolicy};

/// A named compiler configuration matching one column of the paper's
/// tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// Table 1, column 1: no scalar privatization at all.
    Replication,
    /// Table 1, column 2: privatization with producer alignment only.
    ProducerAlignment,
    /// Table 1, column 3 (and the paper's full system): selected
    /// alignment.
    SelectedAlignment,
    /// Table 2, column 1: selected alignment but reduction variables
    /// replicated.
    NoReductionAlignment,
    /// Table 3: selected alignment with array privatization disabled.
    NoArrayPrivatization,
    /// Table 3: array privatization without partial privatization.
    NoPartialPrivatization,
}

impl Version {
    pub fn core_config(self) -> CoreConfig {
        let mut c = CoreConfig::full();
        match self {
            Version::Replication => {
                c = CoreConfig::naive();
            }
            Version::ProducerAlignment => {
                c.scalar_policy = ScalarPolicy::ProducerAlign;
            }
            Version::SelectedAlignment => {}
            Version::NoReductionAlignment => {
                c.reduction_align = false;
            }
            Version::NoArrayPrivatization => {
                c.array_priv = false;
            }
            Version::NoPartialPrivatization => {
                c.partial_priv = false;
            }
        }
        c
    }

    pub fn name(self) -> &'static str {
        match self {
            Version::Replication => "replication",
            Version::ProducerAlignment => "producer alignment",
            Version::SelectedAlignment => "selected alignment",
            Version::NoReductionAlignment => "no reduction alignment",
            Version::NoArrayPrivatization => "no array privatization",
            Version::NoPartialPrivatization => "no partial privatization",
        }
    }

    /// The command-line / wire spelling (`phpfc --version <flag>`, the
    /// socket backend's job spec).
    pub fn flag(self) -> &'static str {
        match self {
            Version::Replication => "replication",
            Version::ProducerAlignment => "producer",
            Version::SelectedAlignment => "selected",
            Version::NoReductionAlignment => "no-reduction",
            Version::NoArrayPrivatization => "no-array-priv",
            Version::NoPartialPrivatization => "no-partial-priv",
        }
    }

    pub fn from_flag(s: &str) -> Option<Version> {
        match s {
            "replication" => Some(Version::Replication),
            "producer" => Some(Version::ProducerAlignment),
            "selected" => Some(Version::SelectedAlignment),
            "no-reduction" => Some(Version::NoReductionAlignment),
            "no-array-priv" => Some(Version::NoArrayPrivatization),
            "no-partial-priv" => Some(Version::NoPartialPrivatization),
            _ => None,
        }
    }
}

/// Options for one compilation.
#[derive(Debug, Clone)]
pub struct Options {
    pub core: CoreConfig,
    /// Override the `PROCESSORS` directive (sweeping processor counts).
    pub grid: Option<Vec<usize>>,
    pub machine: MachineParams,
    /// Global message combining across loop nests — the optimization the
    /// paper reports phpf lacked (`hpf_spmd::combine`).
    pub combine_messages: bool,
}

impl Options {
    pub fn new(version: Version) -> Options {
        Options {
            core: version.core_config(),
            grid: None,
            machine: MachineParams::sp2(),
            combine_messages: false,
        }
    }

    /// Enable global message combining across loop nests.
    pub fn with_message_combining(mut self) -> Options {
        self.combine_messages = true;
        self
    }

    pub fn with_grid(mut self, dims: Vec<usize>) -> Options {
        self.grid = Some(dims);
        self
    }

    pub fn with_machine(mut self, m: MachineParams) -> Options {
        self.machine = m;
        self
    }
}

impl Default for Options {
    fn default() -> Self {
        Options::new(Version::SelectedAlignment)
    }
}

/// The result of a compilation.
pub struct Compiled {
    pub spmd: SpmdProgram,
    pub options: Options,
}

impl Compiled {
    /// Analytic performance estimate on the configured machine.
    pub fn estimate(&self) -> CostReport {
        let a = Analysis::run(&self.spmd.program);
        costsim::estimate(&self.spmd, &a, &self.options.machine)
    }

    /// Human-readable compilation report (decisions, guards, placed
    /// communication).
    pub fn report(&self) -> String {
        report::render(self)
    }

    /// Run the program on the thread backend ([`hpf_spmd::validate_replay`])
    /// and validate its wire traffic against the cost model's
    /// per-operation message predictions.
    pub fn cross_check(
        &self,
        init: impl Fn(&mut hpf_ir::Memory) + Sync,
    ) -> Result<hpf_spmd::CrossCheck, String> {
        let run = hpf_spmd::validate_replay(&self.spmd, init)
            .map_err(|e| format!("execution failed: {}", e))?;
        hpf_spmd::cross_check(&self.spmd, &self.estimate(), &run.metrics)
    }

    /// Run the static verifier (`hpf-verify`) on the lowered program:
    /// privatization soundness, schedule matching / deadlock-freedom /
    /// epoch-cut closure, and happens-before race detection, on the
    /// schedule the thread backend runs ([`hpf_spmd::engine`]). `init`
    /// must reproduce the intended initial memory — a data-dependent
    /// schedule (DGEFA's pivoting) communicates differently under
    /// different data.
    pub fn verify(&self, init: impl Fn(&mut hpf_ir::Memory) + Sync) -> hpf_verify::VerifyReport {
        hpf_verify::verify_execution(&self.spmd, init)
    }

    /// [`Compiled::verify`] on the reference executor's trace and epoch
    /// cuts, the schedule socket workers replay.
    pub fn verify_executor_schedule(
        &self,
        init: impl Fn(&mut hpf_ir::Memory),
    ) -> hpf_verify::VerifyReport {
        hpf_verify::verify_executor_schedule(&self.spmd, init)
    }

    /// Cross-validate a recorded observability trace (`--trace` output,
    /// parsed back with [`hpf_obs::parse_chrome_json`]) against the
    /// program's static happens-before relation.
    pub fn verify_trace(
        &self,
        recorded: &hpf_obs::Trace,
        init: impl Fn(&mut hpf_ir::Memory) + Sync,
    ) -> hpf_verify::VerifyReport {
        hpf_verify::verify_recorded_trace(&self.spmd, recorded, init)
    }

    /// Render a verification report rustc-style for terminal output.
    pub fn render_diagnostics(&self, report: &hpf_verify::VerifyReport) -> String {
        report::render_diagnostics(&self.spmd.program, report)
    }
}

/// Compile an already-built program.
pub fn compile(p: &Program, options: Options) -> Result<Compiled, String> {
    compile_traced(p, options, &mut hpf_obs::NullTracer)
}

/// [`compile`] with a wall-clock span recorded on `tracer` for every
/// pipeline phase: `ssa` (the analysis bundle: CFG, dominators, reaching
/// definitions, liveness, constant propagation, induction variables and
/// reductions; the span keeps the name of the paper's SSA phase, which
/// this bundle stands in for),
/// `mapping` (alignment/distribution tables), `privatization` (the
/// paper's DetermineMapping over scalars and arrays), `lower`, and
/// `combine` when global message combining is on.
pub fn compile_traced(
    p: &Program,
    options: Options,
    tracer: &mut dyn hpf_obs::Tracer,
) -> Result<Compiled, String> {
    let errs = p.validate();
    if !errs.is_empty() {
        return Err(format!("invalid program: {}", errs.join("; ")));
    }
    let a = hpf_obs::span(tracer, "ssa", |_| Analysis::run(p));
    let grid = options.grid.clone().map(ProcGrid::new);
    let maps = hpf_obs::span(tracer, "mapping", |_| MappingTable::from_program(p, grid))?;
    let decisions =
        hpf_obs::span(tracer, "privatization", |_| phpf_core::map_program(p, &a, &maps, options.core));
    let mut spmd = hpf_obs::span(tracer, "lower", |_| lower(p, &a, &maps, decisions));
    if options.combine_messages {
        hpf_obs::span(tracer, "combine", |_| hpf_spmd::combine_messages(&mut spmd, &a));
    }
    Ok(Compiled { spmd, options })
}

/// Parse mini-HPF source and compile it.
pub fn compile_source(src: &str, options: Options) -> Result<Compiled, String> {
    compile_source_traced(src, options, &mut hpf_obs::NullTracer)
}

/// [`compile_source`] with pipeline phase spans (`parse` plus the
/// [`compile_traced`] phases) recorded on `tracer`.
pub fn compile_source_traced(
    src: &str,
    options: Options,
    tracer: &mut dyn hpf_obs::Tracer,
) -> Result<Compiled, String> {
    let p = hpf_obs::span(tracer, "parse", |_| parse_program(src)).map_err(|e| e.to_string())?;
    compile_traced(&p, options, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (BLOCK) :: A
!HPF$ ALIGN (i) WITH A(i) :: B
REAL A(32), B(32)
INTEGER i
REAL x
DO i = 1, 32
  x = B(i) * 2.0
  A(i) = x
END DO
"#;

    #[test]
    fn compile_and_estimate() {
        let c = compile_source(SRC, Options::default()).unwrap();
        let r = c.estimate();
        assert!(r.total_s() > 0.0);
        let rep = c.report();
        assert!(rep.contains("guards") || rep.contains("scalar"), "{}", rep);
    }

    #[test]
    fn versions_have_distinct_configs() {
        use Version::*;
        for v in [
            Replication,
            ProducerAlignment,
            SelectedAlignment,
            NoReductionAlignment,
            NoArrayPrivatization,
            NoPartialPrivatization,
        ] {
            let _ = compile_source(SRC, Options::new(v)).unwrap();
        }
        assert_ne!(
            Replication.core_config(),
            SelectedAlignment.core_config()
        );
        assert!(!NoReductionAlignment.core_config().reduction_align);
        assert!(!NoArrayPrivatization.core_config().array_priv);
        assert!(NoPartialPrivatization.core_config().array_priv);
        assert!(!NoPartialPrivatization.core_config().partial_priv);
    }

    #[test]
    fn grid_override() {
        let c = compile_source(SRC, Options::default().with_grid(vec![8])).unwrap();
        assert_eq!(c.spmd.maps.grid.total(), 8);
    }

    #[test]
    fn invalid_source_rejected() {
        assert!(compile_source("x = 1.0", Options::default()).is_err());
    }

    #[test]
    fn message_combining_never_slower() {
        let src = hpf_kernels_like();
        let plain = compile_source(&src, Options::default()).unwrap();
        let combined =
            compile_source(&src, Options::default().with_message_combining()).unwrap();
        assert!(combined.spmd.comms.len() <= plain.spmd.comms.len());
        assert!(combined.estimate().total_s() <= plain.estimate().total_s() + 1e-12);
    }

    fn hpf_kernels_like() -> String {
        r#"
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE (*, BLOCK) :: X, RX, RY
REAL X(16,16), RX(16,16), RY(16,16)
INTEGER i, j
DO j = 2, 15
  DO i = 2, 15
    RX(i,j) = X(i,j+1) * 0.5
    RY(i,j) = X(i,j+1) * 0.25
  END DO
END DO
"#
        .to_string()
    }
}

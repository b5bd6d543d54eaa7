//! # phpf — privatization of variables for data-parallel execution
//!
//! A from-scratch Rust reproduction of Manish Gupta, *"On Privatization of
//! Variables for Data-Parallel Execution"*, IPPS 1997: the phpf prototype
//! HPF compiler's framework for mapping privatized scalar and array
//! variables under owner-computes parallelization, together with every
//! substrate it needs — an HPF-subset IR and parser, the classical
//! dataflow analyses, the HPF distribution/alignment machinery, a
//! communication classifier and cost model, an SPMD lowering with a
//! reference executor, a threaded message-passing runtime, and an
//! SP2-calibrated performance simulator that regenerates the paper's
//! three evaluation tables.
//!
//! ## Quick start
//!
//! ```
//! use phpf::compile::{compile_source, Options, Version};
//!
//! let src = r#"
//! !HPF$ PROCESSORS P(4)
//! !HPF$ DISTRIBUTE (BLOCK) :: A
//! !HPF$ ALIGN (i) WITH A(i) :: B
//! REAL A(32), B(32)
//! INTEGER i
//! REAL x
//! DO i = 1, 32
//!   x = B(i) * 2.0
//!   A(i) = x
//! END DO
//! "#;
//! let compiled = compile_source(src, Options::new(Version::SelectedAlignment)).unwrap();
//! // x is privatized and aligned; the program runs without inner-loop
//! // communication and its SPMD execution matches sequential semantics.
//! assert_eq!(compiled.spmd.inner_loop_comms(), 0);
//! let report = compiled.estimate();
//! assert!(report.total_s() > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`ir`] | `hpf-ir` | AST, directives, parser, builder, interpreter |
//! | [`analysis`] | `hpf-analysis` | CFG/dominators/reaching defs/liveness/induction/reductions/privatizability |
//! | [`dist`] | `hpf-dist` | grids, ALIGN/DISTRIBUTE composition, ownership, iteration partitioning |
//! | [`comm`] | `hpf-comm` | pattern classification, AlignLevel & message vectorization, SP2 cost model |
//! | [`core`] | `phpf-core` | **the paper**: DetermineMapping, reduction mapping, partial privatization, control-flow privatization |
//! | [`spmd`] | `hpf-spmd` | guards, lowering, reference executor, threaded runtime, cost simulator |
//! | [`compile`] | `hpf-compile` | pipeline driver and the paper's compiler versions |
//! | [`kernels`] | `hpf-kernels` | TOMCATV, DGEFA, APPSP with sequential references |
//! | [`obs`] | `hpf-obs` | span/event tracing: pipeline phases, per-rank comm timelines, exporters |
//! | [`net`] | `hpf-net` | message transports (channels, sockets) and the framed wire codec |

pub use hpf_analysis as analysis;
pub use hpf_comm as comm;
pub use hpf_compile as compile;
pub use hpf_dist as dist;
pub use hpf_ir as ir;
pub use hpf_kernels as kernels;
pub use hpf_net as net;
pub use hpf_obs as obs;
pub use hpf_spmd as spmd;
pub use phpf_core as core;

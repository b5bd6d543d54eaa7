//! # hpf-spmd
//!
//! Owner-computes SPMD lowering and execution:
//!
//! * [`guard`] — computation-partitioning guards;
//! * [`lower`](mod@lower) — program + mapping decisions → guards, placed
//!   communication operations, reduction combines;
//! * [`exec`] — the reference multi-memory executor (defines semantics;
//!   every configuration must match the sequential interpreter);
//! * [`code`] — statement code compiled once per program: flat postfix
//!   code and resolved reference sites, which the executor and replay
//!   both run;
//! * [`codec`] — the binary form of a rank's recorded event list, which
//!   the socket driver ships to its worker processes;
//! * [`env`](mod@env) — the loop bindings an executed statement records, kept
//!   inline up to four deep;
//! * [`node`] — rank-local node programs: each rank of the thread backend
//!   runs the compiled code for itself, with sends and receives derived
//!   from the placed communication operations, and [`node::engine`]
//!   names the programs that still need the executor and replay;
//! * [`runtime`] — a message-passing replay runtime over a pluggable
//!   [`hpf_net::Transport`] (one thread per virtual processor on the
//!   in-process channel backend; the socket backend runs the same
//!   per-rank engine in separate OS processes) that replays the compiled
//!   communication schedule and revalidates it;
//! * [`wire`] — one rank's end of the wire, which the replay and the node
//!   programs share: sends and receives of one value or one section with
//!   their wire metrics and timeline events, and the rank's teardown;
//! * [`costsim`] — the analytic SP2 performance model that regenerates
//!   the paper's tables;
//! * [`combine`] — global message combining across loop nests (the
//!   optimization the paper reports phpf lacked);
//! * [`metrics`] — wire-level communication observability (per-processor,
//!   per-pattern and per-operation message/byte counters) recorded by
//!   both the executor and the threaded runtime;
//! * [`crosscheck`] — validation that observed wire messages agree with
//!   the cost model's predictions.

pub mod code;
pub mod codec;
pub mod combine;
pub mod costsim;
pub mod crosscheck;
pub mod env;
pub mod exec;
pub mod guard;
pub mod lower;
pub mod metrics;
pub mod node;
pub mod runtime;
pub mod wire;

pub use combine::{combine_messages, CombineStats};
pub use costsim::{estimate, CostReport};
pub use crosscheck::{cross_check, CrossCheck, OpCheck};
pub use exec::{validate_against_sequential, ExecStats, SpmdExec};
pub use guard::Guard;
pub use code::Code;
pub use codec::{decode_events, encode_events};
pub use env::Env;
pub use exec::{Event, Slot, Trace};
pub use lower::{lower, CommData, CommOp, ReduceOp, Schedule, ScheduleOp, SpmdProgram};
pub use metrics::{CommMetrics, RecoveryCounters};
pub use node::{engine, Engine, Fallback};
pub use runtime::{
    check_owner_slots, replay, replay_rank_segment, replay_traced, validate_replay,
    validate_replay_opts, validate_replay_traced, Replayed, ReplayStats,
};
pub use wire::Wire;

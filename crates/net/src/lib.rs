//! # hpf-net
//!
//! Pluggable message transports for the SPMD runtime.
//!
//! The paper's numbers come from SP2 nodes exchanging real MPL messages
//! over a network; this crate provides the matching substrate for the
//! reproduction's runtime:
//!
//! * [`Transport`] — the contract the replay runtime speaks: point-to-point
//!   delivery of [`WireMsg`]s between ranks, with bounded-time failure
//!   detection (a dead peer surfaces as an error within the deadline, never
//!   a hang);
//! * [`channel`] — the in-process backend (one endpoint per thread over
//!   `std::sync::mpsc` channels), refactored out of `hpf-spmd::runtime`;
//! * [`socket`] — the multi-process backend: one OS process per virtual
//!   processor, full-mesh TCP or Unix-domain links, a rank-exchange
//!   handshake at connect time, per-link send/receive deadlines and
//!   bounded exponential-backoff connection establishment;
//! * [`frame`] — the length-prefixed binary wire codec shared by the
//!   socket links and the job/result plumbing of the multi-process driver
//!   (sequence numbers catch dropped and duplicated frames, a checksum
//!   catches corruption, and the length prefix makes truncation
//!   detectable; every detected fault is terminal for its link);
//! * [`retry`] — the workspace's single backoff policy (exponential,
//!   jittered, attempt- and deadline-capped), shared by mesh connection
//!   and worker respawn;
//! * [`fault`] — deterministic fault injection: a seeded, replayable plan
//!   of frame corruptions, drops and worker kills that drives the
//!   supervised driver's checkpointed respawn end-to-end, and the rule
//!   that decides which planned faults a failed generation consumed.
//!
//! The crate deliberately knows nothing about SPMD programs or traces —
//! only about moving [`hpf_ir::Value`]s between ranks — so the runtime can
//! stay generic over the backend.

pub mod channel;
pub mod fault;
pub mod frame;
pub mod retry;
pub mod socket;

use hpf_ir::Value;
use std::fmt;
use std::sync::Arc;

pub use channel::{channel_group, ChannelTransport};
pub use fault::{FaultAction, FaultInjector, FaultPlan, Injection};
pub use frame::{FrameError, FrameKind};
pub use retry::RetryPolicy;
pub use socket::{Addr, AddrKind, NetListener, NetStream, SocketConfig, SocketTransport};

/// What travels between ranks: a single value or a coalesced section.
///
/// Sections are reference-counted so a broadcast fan-out (the same payload
/// sent to many ranks) and the in-process transport (sender and receiver
/// in one address space) share one buffer instead of cloning the values.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    One(Value),
    Many(Arc<Vec<Value>>),
}

impl WireMsg {
    /// Number of values carried.
    pub fn len(&self) -> usize {
        match self {
            WireMsg::One(_) => 1,
            WireMsg::Many(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Failure classes a transport can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetErrorKind {
    /// The operation did not complete within its deadline.
    Deadline,
    /// The peer closed the link (or its process died).
    Closed,
    /// The wire bytes could not be decoded (truncated / duplicated /
    /// dropped / corrupt frame).
    Codec,
    /// The rank-exchange handshake failed or timed out.
    Handshake,
    /// The peer spoke the protocol incorrectly (wrong rank, wrong world
    /// size, unexpected frame kind).
    Protocol,
    /// An underlying I/O error.
    Io,
}

impl NetErrorKind {
    pub fn name(self) -> &'static str {
        match self {
            NetErrorKind::Deadline => "deadline",
            NetErrorKind::Closed => "closed",
            NetErrorKind::Codec => "codec",
            NetErrorKind::Handshake => "handshake",
            NetErrorKind::Protocol => "protocol",
            NetErrorKind::Io => "io",
        }
    }
}

/// A transport failure, carrying the link it happened on (local rank,
/// peer rank) when known.
#[derive(Debug, Clone, PartialEq)]
pub struct NetError {
    pub kind: NetErrorKind,
    /// `(local rank, peer rank)` of the failing link.
    pub link: Option<(usize, usize)>,
    pub detail: String,
    /// Fine-grained fault tag when the error originated as a frame-codec
    /// fault ("seq-gap", "bad-checksum", ...); `None` otherwise. Trace
    /// fault events are named by [`NetError::fault_name`].
    pub fault: Option<&'static str>,
}

impl NetError {
    pub fn new(kind: NetErrorKind, detail: impl Into<String>) -> NetError {
        NetError {
            kind,
            link: None,
            detail: detail.into(),
            fault: None,
        }
    }

    pub fn on_link(mut self, local: usize, peer: usize) -> NetError {
        self.link = Some((local, peer));
        self
    }

    /// The stable name a trace fault event for this error carries: the
    /// frame-codec fault name when there is one, else the error kind.
    pub fn fault_name(&self) -> &'static str {
        self.fault.unwrap_or_else(|| self.kind.name())
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.link {
            Some((l, p)) => write!(
                f,
                "{} error on link {}<->{}: {}",
                self.kind.name(),
                l,
                p,
                self.detail
            ),
            None => write!(f, "{} error: {}", self.kind.name(), self.detail),
        }
    }
}

impl std::error::Error for NetError {}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> NetError {
        let mut n = NetError::new(NetErrorKind::Codec, e.to_string());
        n.fault = Some(e.name());
        n
    }
}

/// Point-to-point message delivery between `nproc` ranks.
///
/// The contract the replay runtime relies on:
///
/// * per-link FIFO ordering (messages from one peer arrive in send order);
/// * [`Transport::recv`] blocks for at most the backend's configured
///   deadline, then fails with [`NetErrorKind::Deadline`] — and a peer
///   that died is reported as [`NetErrorKind::Closed`] as soon as the
///   backend notices, so a broken schedule is *detected*, not deadlocked;
/// * [`Transport::send`] completing does not imply delivery, only that the
///   message is in flight; failures on the link are reported on a later
///   send or on the receiver's side.
pub trait Transport: Send {
    /// This endpoint's rank.
    fn rank(&self) -> usize;

    /// World size.
    fn nproc(&self) -> usize;

    /// Send one message to `to`.
    fn send(&mut self, to: usize, msg: &WireMsg) -> Result<(), NetError>;

    /// Receive the next message from `from`.
    fn recv(&mut self, from: usize) -> Result<WireMsg, NetError>;

    /// Peak of the backend's in-flight gauge so far. The channel backend
    /// gauges messages sent but not yet received across the whole group;
    /// the socket backend gauges frames read off the wire but not yet
    /// consumed by this rank (its receive-queue depth).
    fn peak_in_flight(&self) -> u64;

    /// Clean teardown: flush, say goodbye to peers, release resources.
    /// After `finish`, `send`/`recv` must not be called.
    fn finish(&mut self) -> Result<(), NetError> {
        Ok(())
    }

    /// Wire sequence number of the last frame sent to `peer`, for
    /// backends that sequence their links (the socket backend). Backends
    /// without per-link framing return `None`.
    fn link_seq(&self, peer: usize) -> Option<u64> {
        let _ = peer;
        None
    }

    /// Drain the fault events this backend recorded (codec faults, dead
    /// peers, deadlines) so the runtime can merge them into an
    /// observability trace. Backends that cannot fault return nothing.
    fn take_fault_events(&mut self) -> Vec<hpf_obs::TraceEvent> {
        Vec::new()
    }
}

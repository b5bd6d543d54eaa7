//! The multi-process backend: one OS process per virtual processor,
//! full-mesh TCP or Unix-domain links.
//!
//! Mesh establishment follows the classic rank-ordered scheme: rank `i`
//! actively connects to every lower rank (with bounded exponential
//! backoff, since peers come up in arbitrary order) and accepts one
//! connection from every higher rank. Each link starts with a rank
//! exchange — the connector sends `Hello{from, to, nproc}` as frame 0 and
//! the acceptor validates it and answers with its own `Hello` — so a
//! mis-wired or mis-sized mesh fails at connect time, not mid-replay.
//!
//! After the handshake each link gets a dedicated reader thread that
//! pulls frames off the wire into a per-peer queue. [`SocketTransport::recv`]
//! drains that queue with the configured deadline, so a peer that died
//! (EOF without `Bye` → `Closed`), corrupted the stream (codec fault) or
//! simply went silent (`Deadline`) is always *detected* within bounded
//! time, never waited on forever. Reader threads poll with a short read
//! timeout: an idle link just keeps waiting, while a timeout in the middle
//! of a frame is reported as truncation. Every such fault is terminal for
//! the link; the supervised driver above heals it by checkpointed gang
//! respawn.
//!
//! The in-flight gauge counts frames read off the wire but not yet
//! consumed by `recv` — the receive-queue depth, the socket-world analogue
//! of the channel backend's sent-but-not-received counter.

use crate::fault::{FaultInjector, Injection};
use crate::frame::{self, Dec, Enc, FrameKind, FrameReader, FrameWriter, ReadStep};
use crate::retry::RetryPolicy;
use crate::{NetError, NetErrorKind, Transport, WireMsg};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reader threads wake at this interval to notice teardown and to bound
/// how long a half-delivered frame can stall before it is called
/// truncated.
const POLL: Duration = Duration::from_millis(500);

/// Accept loops poll at this interval while waiting for peers.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Which address family a listener should bind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrKind {
    Tcp,
    Unix,
}

impl Default for AddrKind {
    fn default() -> Self {
        if cfg!(unix) {
            AddrKind::Unix
        } else {
            AddrKind::Tcp
        }
    }
}

impl AddrKind {
    pub fn name(self) -> &'static str {
        match self {
            AddrKind::Tcp => "tcp",
            AddrKind::Unix => "unix",
        }
    }

    pub fn from_name(s: &str) -> Option<AddrKind> {
        match s {
            "tcp" => Some(AddrKind::Tcp),
            "unix" => Some(AddrKind::Unix),
            _ => None,
        }
    }
}

/// A peer address, printable as `tcp:<host:port>` or `unix:<path>` so it
/// can travel through environment variables and rendezvous messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    Tcp(String),
    Unix(PathBuf),
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Tcp(a) => write!(f, "tcp:{}", a),
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

impl Addr {
    pub fn parse(s: &str) -> Result<Addr, NetError> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            Ok(Addr::Tcp(rest.to_string()))
        } else if let Some(rest) = s.strip_prefix("unix:") {
            Ok(Addr::Unix(PathBuf::from(rest)))
        } else {
            Err(NetError::new(
                NetErrorKind::Protocol,
                format!("unparseable address {:?} (want tcp:... or unix:...)", s),
            ))
        }
    }
}

/// A connected stream of either family.
#[derive(Debug)]
pub enum NetStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl NetStream {
    pub fn try_clone(&self) -> std::io::Result<NetStream> {
        match self {
            NetStream::Tcp(s) => s.try_clone().map(NetStream::Tcp),
            NetStream::Unix(s) => s.try_clone().map(NetStream::Unix),
        }
    }

    pub fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.set_read_timeout(d),
            NetStream::Unix(s) => s.set_read_timeout(d),
        }
    }

    pub fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.set_write_timeout(d),
            NetStream::Unix(s) => s.set_write_timeout(d),
        }
    }

    pub fn shutdown(&self, how: Shutdown) -> std::io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.shutdown(how),
            NetStream::Unix(s) => s.shutdown(how),
        }
    }
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.read(buf),
            NetStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.write(buf),
            NetStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.flush(),
            NetStream::Unix(s) => s.flush(),
        }
    }
}

static SOCK_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A bound listener of either family. Unix listeners unlink their socket
/// file on drop.
#[derive(Debug)]
pub enum NetListener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl NetListener {
    /// Bind an ephemeral listener: loopback port 0 for TCP, a unique
    /// temp-dir path for Unix. `tag` makes the socket filename readable.
    pub fn bind(kind: AddrKind, tag: &str) -> Result<NetListener, NetError> {
        match kind {
            AddrKind::Tcp => {
                let l = TcpListener::bind("127.0.0.1:0").map_err(|e| {
                    NetError::new(NetErrorKind::Io, format!("tcp bind failed: {}", e))
                })?;
                Ok(NetListener::Tcp(l))
            }
            AddrKind::Unix => NetListener::bind_unix(std::env::temp_dir().join(format!(
                "phpf-net-{}-{}-{}.sock",
                std::process::id(),
                SOCK_COUNTER.fetch_add(1, Ordering::Relaxed),
                tag
            ))),
        }
    }

    /// Bind a Unix listener at `path`, which embeds this process's id and
    /// a per-process counter. A file already there was left by an earlier
    /// process with the same (recycled) id that died without unlinking it,
    /// such as a killed worker; it is removed so the bind does not fail
    /// with "address in use".
    fn bind_unix(path: PathBuf) -> Result<NetListener, NetError> {
        let _ = std::fs::remove_file(&path);
        let l = UnixListener::bind(&path).map_err(|e| {
            NetError::new(
                NetErrorKind::Io,
                format!("unix bind at {} failed: {}", path.display(), e),
            )
        })?;
        Ok(NetListener::Unix(l, path))
    }

    pub fn addr(&self) -> Result<Addr, NetError> {
        match self {
            NetListener::Tcp(l) => l
                .local_addr()
                .map(|a| Addr::Tcp(a.to_string()))
                .map_err(|e| NetError::new(NetErrorKind::Io, format!("local_addr: {}", e))),
            NetListener::Unix(_, p) => Ok(Addr::Unix(p.clone())),
        }
    }

    /// Accept one connection, polling non-blockingly until the deadline.
    pub fn accept_deadline(&self, deadline: Duration) -> Result<NetStream, NetError> {
        let start = Instant::now();
        self.set_nonblocking(true)?;
        let res = loop {
            let r = match self {
                NetListener::Tcp(l) => l.accept().map(|(s, _)| NetStream::Tcp(s)),
                NetListener::Unix(l, _) => l.accept().map(|(s, _)| NetStream::Unix(s)),
            };
            match r {
                Ok(s) => break Ok(s),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if start.elapsed() >= deadline {
                        break Err(NetError::new(
                            NetErrorKind::Deadline,
                            format!("no peer connected within {:?}", deadline),
                        ));
                    }
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    break Err(NetError::new(
                        NetErrorKind::Io,
                        format!("accept failed: {}", e),
                    ))
                }
            }
        };
        self.set_nonblocking(false)?;
        let stream = res?;
        // Accepted sockets do not inherit the listener's non-blocking
        // mode on every platform; normalise.
        match &stream {
            NetStream::Tcp(s) => s.set_nonblocking(false),
            NetStream::Unix(s) => s.set_nonblocking(false),
        }
        .map_err(|e| NetError::new(NetErrorKind::Io, format!("set_nonblocking: {}", e)))?;
        Ok(stream)
    }

    fn set_nonblocking(&self, nb: bool) -> Result<(), NetError> {
        match self {
            NetListener::Tcp(l) => l.set_nonblocking(nb),
            NetListener::Unix(l, _) => l.set_nonblocking(nb),
        }
        .map_err(|e| NetError::new(NetErrorKind::Io, format!("set_nonblocking: {}", e)))
    }
}

impl Drop for NetListener {
    fn drop(&mut self) {
        if let NetListener::Unix(_, p) = self {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Deadlines for a socket transport.
#[derive(Debug, Clone, Copy)]
pub struct SocketConfig {
    /// Bound on every blocking send/recv.
    pub io_deadline: Duration,
    /// Bound on mesh establishment (per link: backoff-connect, accept and
    /// the rank-exchange handshake).
    pub connect_deadline: Duration,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            io_deadline: Duration::from_secs(5),
            connect_deadline: Duration::from_secs(5),
        }
    }
}

fn classify_io(e: &std::io::Error) -> NetErrorKind {
    use std::io::ErrorKind::*;
    match e.kind() {
        WouldBlock | TimedOut => NetErrorKind::Deadline,
        BrokenPipe | ConnectionReset | ConnectionAborted | UnexpectedEof | NotConnected => {
            NetErrorKind::Closed
        }
        _ => NetErrorKind::Io,
    }
}

/// Connect with bounded exponential backoff: peers bind their listeners
/// in arbitrary order, so early refusals are retried until the deadline.
/// The schedule is the shared [`RetryPolicy`] (jittered doubling from 1 ms
/// to a 50 ms cap); the wall-clock deadline stays the primary bound.
pub fn connect_backoff(addr: &Addr, deadline: Duration) -> Result<NetStream, NetError> {
    let start = Instant::now();
    let mut schedule = RetryPolicy::connect(deadline).schedule();
    loop {
        let res = match addr {
            Addr::Tcp(a) => TcpStream::connect(a).map(NetStream::Tcp),
            Addr::Unix(p) => UnixStream::connect(p).map(NetStream::Unix),
        };
        match res {
            Ok(s) => return Ok(s),
            Err(e) => {
                let delay = match schedule.next() {
                    Some(d) if start.elapsed() < deadline => d,
                    _ => {
                        return Err(NetError::new(
                            NetErrorKind::Handshake,
                            format!("connect to {} failed within {:?}: {}", addr, deadline, e),
                        ))
                    }
                };
                std::thread::sleep(delay.min(deadline.saturating_sub(start.elapsed())));
            }
        }
    }
}

fn hello_payload(from: usize, to: usize, nproc: usize) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(from as u32);
    e.u32(to as u32);
    e.u32(nproc as u32);
    e.buf
}

fn parse_hello(payload: &[u8]) -> Result<(usize, usize, usize), NetError> {
    let mut d = Dec::new(payload);
    let from = d.u32()? as usize;
    let to = d.u32()? as usize;
    let nproc = d.u32()? as usize;
    d.done()?;
    Ok((from, to, nproc))
}

#[derive(Debug, Default)]
struct Gauge {
    queued: AtomicI64,
    peak: AtomicU64,
}

impl Gauge {
    fn read_off_wire(&self) {
        let n = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(n.max(0) as u64, Ordering::Relaxed);
    }

    fn consumed(&self) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
    }
}

type LinkQueue = Receiver<Result<WireMsg, NetError>>;

/// A link's send half: the framed writer plus the data-frame ordinal the
/// fault injector keys on.
#[derive(Debug)]
struct LinkSender {
    writer: FrameWriter<NetStream>,
    /// Ordinal of data frames sent on this link, the counter fault plans
    /// address.
    data_sent: u64,
}

/// One rank's endpoint of a multi-process socket mesh.
#[derive(Debug)]
pub struct SocketTransport {
    rank: usize,
    nproc: usize,
    senders: Vec<Option<LinkSender>>,
    queues: Vec<Option<LinkQueue>>,
    readers: Vec<Option<JoinHandle<()>>>,
    /// Per link: number of frames successfully read (the acknowledged
    /// high-water mark — the last acked sequence number is this minus 1).
    /// Updated by the link's reader thread.
    acked: Vec<Option<Arc<AtomicU64>>>,
    /// Fault events recorded on this endpoint (codec faults, dead peers,
    /// deadlines), drained via [`Transport::take_fault_events`].
    faults: Vec<hpf_obs::TraceEvent>,
    /// When present, the send path consults the plan's injector before
    /// every data frame.
    injector: Option<FaultInjector>,
    origin: Instant,
    stopping: Arc<AtomicBool>,
    gauge: Arc<Gauge>,
    cfg: SocketConfig,
    finished: bool,
}

impl SocketTransport {
    /// Establish this rank's links to every peer: connect (with backoff)
    /// to each lower rank, accept one connection from each higher rank,
    /// run the rank-exchange handshake on every link, then start the
    /// per-link reader threads. `addrs[j]` is rank `j`'s listener address;
    /// `listener` is this rank's own (already bound, so its address was
    /// shared before any peer tries to connect).
    pub fn connect_mesh(
        rank: usize,
        nproc: usize,
        listener: &NetListener,
        addrs: &[Addr],
        cfg: SocketConfig,
    ) -> Result<SocketTransport, NetError> {
        if addrs.len() != nproc {
            return Err(NetError::new(
                NetErrorKind::Protocol,
                format!("{} addresses for a world of {}", addrs.len(), nproc),
            ));
        }
        if rank >= nproc {
            return Err(NetError::new(
                NetErrorKind::Protocol,
                format!("rank {} out of range for nproc {}", rank, nproc),
            ));
        }
        let mut links: Vec<Option<(FrameReader<NetStream>, FrameWriter<NetStream>)>> =
            (0..nproc).map(|_| None).collect();

        // Active side: connect to lower ranks, introduce ourselves, wait
        // for the echo.
        for peer in 0..rank {
            let stream = connect_backoff(&addrs[peer], cfg.connect_deadline)
                .map_err(|e| e.on_link(rank, peer))?;
            stream
                .set_read_timeout(Some(cfg.connect_deadline))
                .map_err(|e| {
                    NetError::new(NetErrorKind::Io, format!("set timeout: {}", e))
                        .on_link(rank, peer)
                })?;
            let reader_stream = stream.try_clone().map_err(|e| {
                NetError::new(NetErrorKind::Io, format!("clone stream: {}", e))
                    .on_link(rank, peer)
            })?;
            let mut reader = FrameReader::new(reader_stream);
            let mut writer = FrameWriter::new(stream);
            writer
                .write(FrameKind::Hello, &hello_payload(rank, peer, nproc))
                .map_err(|e| {
                    NetError::new(classify_io(&e), format!("hello send: {}", e))
                        .on_link(rank, peer)
                })?;
            let (from, to, peer_nproc) = expect_hello(&mut reader, rank, peer)?;
            if from != peer || to != rank || peer_nproc != nproc {
                return Err(NetError::new(
                    NetErrorKind::Handshake,
                    format!(
                        "rank exchange mismatch: peer says {}->{} of {}, expected {}->{} of {}",
                        from, to, peer_nproc, peer, rank, nproc
                    ),
                )
                .on_link(rank, peer));
            }
            links[peer] = Some((reader, writer));
        }

        // Passive side: accept from higher ranks (in whatever order they
        // arrive) and learn who they are from their Hello.
        for _ in rank + 1..nproc {
            let stream = listener
                .accept_deadline(cfg.connect_deadline)
                .map_err(|e| NetError {
                    kind: NetErrorKind::Handshake,
                    link: e.link,
                    detail: format!("rank {} waiting for higher-rank peers: {}", rank, e.detail),
                    fault: e.fault,
                })?;
            stream
                .set_read_timeout(Some(cfg.connect_deadline))
                .map_err(|e| NetError::new(NetErrorKind::Io, format!("set timeout: {}", e)))?;
            let reader_stream = stream.try_clone().map_err(|e| {
                NetError::new(NetErrorKind::Io, format!("clone stream: {}", e))
            })?;
            let mut reader = FrameReader::new(reader_stream);
            let mut writer = FrameWriter::new(stream);
            let (from, to, peer_nproc) = expect_hello(&mut reader, rank, usize::MAX)?;
            if to != rank || peer_nproc != nproc || from <= rank || from >= nproc {
                return Err(NetError::new(
                    NetErrorKind::Handshake,
                    format!(
                        "rank exchange mismatch: peer says {}->{} of {}, expected ->{} of {}",
                        from, to, peer_nproc, rank, nproc
                    ),
                ));
            }
            if links[from].is_some() {
                return Err(NetError::new(
                    NetErrorKind::Handshake,
                    format!("rank {} connected twice", from),
                )
                .on_link(rank, from));
            }
            writer
                .write(FrameKind::Hello, &hello_payload(rank, from, nproc))
                .map_err(|e| {
                    NetError::new(classify_io(&e), format!("hello reply: {}", e))
                        .on_link(rank, from)
                })?;
            links[from] = Some((reader, writer));
        }

        // Switch every link to run mode and start its reader thread.
        let stopping = Arc::new(AtomicBool::new(false));
        let gauge = Arc::new(Gauge::default());
        let origin = Instant::now();
        let mut senders: Vec<Option<LinkSender>> = (0..nproc).map(|_| None).collect();
        let mut queues: Vec<Option<LinkQueue>> = (0..nproc).map(|_| None).collect();
        let mut readers: Vec<Option<JoinHandle<()>>> = (0..nproc).map(|_| None).collect();
        let mut acked: Vec<Option<Arc<AtomicU64>>> = (0..nproc).map(|_| None).collect();
        for (peer, link) in links.into_iter().enumerate() {
            let Some((reader, writer)) = link else {
                continue;
            };
            writer
                .get_ref()
                .set_read_timeout(Some(POLL))
                .and_then(|_| writer.get_ref().set_write_timeout(Some(cfg.io_deadline)))
                .map_err(|e| {
                    NetError::new(NetErrorKind::Io, format!("set timeouts: {}", e))
                        .on_link(rank, peer)
                })?;
            let (tx, rx) = channel();
            let st = stopping.clone();
            let g = gauge.clone();
            // The handshake already consumed the peer's Hello, so the
            // link's acknowledged frame count starts at the reader's
            // current sequence position.
            let ack = Arc::new(AtomicU64::new(reader.seq() as u64));
            let ack_thread = ack.clone();
            let handle = std::thread::Builder::new()
                .name(format!("net-r{}p{}", rank, peer))
                .spawn(move || reader_loop(reader, tx, st, g, ack_thread, rank, peer))
                .map_err(|e| NetError::new(NetErrorKind::Io, format!("spawn reader: {}", e)))?;
            senders[peer] = Some(LinkSender {
                writer,
                data_sent: 0,
            });
            queues[peer] = Some(rx);
            readers[peer] = Some(handle);
            acked[peer] = Some(ack);
        }
        Ok(SocketTransport {
            rank,
            nproc,
            senders,
            queues,
            readers,
            acked,
            faults: Vec::new(),
            injector: None,
            origin,
            stopping,
            gauge,
            cfg,
            finished: false,
        })
    }

    /// Number of frames successfully read on the link from `peer`
    /// (including the handshake Hello); the last acknowledged sequence
    /// number is this minus one.
    pub fn acked_frames(&self, peer: usize) -> u64 {
        self.acked
            .get(peer)
            .and_then(|a| a.as_ref())
            .map(|a| a.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Fault events recorded so far (see [`Transport::take_fault_events`]
    /// for the draining accessor).
    pub fn faults(&self) -> &[hpf_obs::TraceEvent] {
        &self.faults
    }

    /// Arm a fault injector: the send path consults it before every data
    /// frame, corrupting or dropping the scheduled ones. The receiver
    /// detects each as a terminal link fault.
    pub fn set_fault_injector(&mut self, inj: FaultInjector) {
        self.injector = Some(inj);
    }

    /// Record a fault event for an error observed on the link to `peer`.
    fn note_fault(&mut self, peer: usize, e: &NetError) {
        let acked = self.acked_frames(peer);
        self.faults.push(hpf_obs::TraceEvent {
            t_us: self.origin.elapsed().as_micros() as u64,
            rank: Some(self.rank),
            body: hpf_obs::Body::Fault {
                name: e.fault_name().to_string(),
                detail: e.detail.clone(),
                peer: Some(peer),
                last_seq: acked.checked_sub(1),
            },
        });
    }

    fn teardown(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        for s in self.senders.iter_mut().flatten() {
            // Best effort: the peer may already be gone.
            let _ = s.writer.write(FrameKind::Bye, &[]);
            let _ = s.writer.get_ref().shutdown(Shutdown::Write);
        }
        self.stopping.store(true, Ordering::Relaxed);
        for h in self.readers.iter_mut() {
            if let Some(h) = h.take() {
                let _ = h.join();
            }
        }
    }
}

fn expect_hello(
    reader: &mut FrameReader<NetStream>,
    rank: usize,
    peer: usize,
) -> Result<(usize, usize, usize), NetError> {
    let wrap = |e: NetError| {
        let e = NetError {
            kind: NetErrorKind::Handshake,
            link: e.link,
            detail: format!("waiting for rank exchange: {}", e.detail),
            fault: e.fault,
        };
        if peer == usize::MAX {
            e
        } else {
            e.on_link(rank, peer)
        }
    };
    match reader.read_step() {
        Ok(ReadStep::Frame((FrameKind::Hello, payload))) => {
            parse_hello(&payload).map_err(wrap)
        }
        Ok(ReadStep::Frame((kind, _))) => Err(wrap(NetError::new(
            NetErrorKind::Protocol,
            format!("expected Hello, got {:?} frame", kind),
        ))),
        Ok(ReadStep::Eof) => Err(wrap(NetError::new(
            NetErrorKind::Closed,
            "peer closed during handshake",
        ))),
        Ok(ReadStep::Idle) => Err(wrap(NetError::new(
            NetErrorKind::Deadline,
            "no Hello within the connect deadline",
        ))),
        Err(e) => Err(wrap(e.into())),
    }
}

fn reader_loop(
    mut reader: FrameReader<NetStream>,
    tx: Sender<Result<WireMsg, NetError>>,
    stopping: Arc<AtomicBool>,
    gauge: Arc<Gauge>,
    acked: Arc<AtomicU64>,
    local: usize,
    peer: usize,
) {
    loop {
        let step = reader.read_step();
        if matches!(step, Ok(ReadStep::Frame(_))) {
            // The frame passed sequence + checksum validation: advance the
            // link's acknowledged high-water mark.
            acked.store(reader.seq() as u64, Ordering::Relaxed);
        }
        match step {
            Ok(ReadStep::Idle) => {
                if stopping.load(Ordering::Relaxed) {
                    return;
                }
            }
            Ok(ReadStep::Frame((FrameKind::Bye, _))) => return,
            Ok(ReadStep::Frame((kind @ (FrameKind::One | FrameKind::Many), payload))) => {
                match frame::decode_msg(kind, &payload) {
                    Ok(m) => {
                        gauge.read_off_wire();
                        if tx.send(Ok(m)).is_err() {
                            return;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(Err(NetError::from(e).on_link(local, peer)));
                        return;
                    }
                }
            }
            Ok(ReadStep::Frame((kind, _))) => {
                let _ = tx.send(Err(NetError::new(
                    NetErrorKind::Protocol,
                    format!("unexpected {:?} frame mid-stream", kind),
                )
                .on_link(local, peer)));
                return;
            }
            Ok(ReadStep::Eof) => {
                if !stopping.load(Ordering::Relaxed) {
                    let _ = tx.send(Err(NetError::new(
                        NetErrorKind::Closed,
                        "peer closed the link without goodbye (process died?)",
                    )
                    .on_link(local, peer)));
                }
                return;
            }
            Err(e) => {
                let _ = tx.send(Err(NetError::from(e).on_link(local, peer)));
                return;
            }
        }
    }
}

impl Transport for SocketTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn nproc(&self) -> usize {
        self.nproc
    }

    fn send(&mut self, to: usize, msg: &WireMsg) -> Result<(), NetError> {
        let rank = self.rank;
        let s = self
            .senders
            .get_mut(to)
            .and_then(|s| s.as_mut())
            .ok_or_else(|| {
                NetError::new(NetErrorKind::Protocol, format!("no link to rank {}", to))
                    .on_link(rank, to)
            })?;
        let (kind, payload) = frame::encode_msg(msg);
        let ordinal = s.data_sent;
        s.data_sent += 1;
        let injection = self
            .injector
            .as_ref()
            .map(|i| i.on_send(to, ordinal))
            .unwrap_or(Injection::Clean);
        let res = match injection {
            Injection::Clean => s.writer.write(kind, &payload),
            Injection::Corrupt => {
                // Encode honestly, then flip a checksum byte so the
                // receiver sees `bad-checksum` on an otherwise well-formed
                // frame.
                let mut bytes = frame::encode_frame(kind, s.writer.seq(), &payload);
                bytes[12] ^= 0xff;
                s.writer.skip_seq();
                s.writer
                    .get_mut()
                    .write_all(&bytes)
                    .and_then(|_| s.writer.get_mut().flush())
            }
            Injection::Drop => {
                // Burn the sequence number without touching the wire: the
                // receiver sees a `seq-gap` on the next frame.
                s.writer.skip_seq();
                Ok(())
            }
        }
        .map_err(|e| {
            NetError::new(classify_io(&e), format!("send failed: {}", e)).on_link(rank, to)
        });
        if let Err(e) = &res {
            self.note_fault(to, e);
        }
        res
    }

    fn recv(&mut self, from: usize) -> Result<WireMsg, NetError> {
        let rank = self.rank;
        let deadline = self.cfg.io_deadline;
        let rx = match self.queues.get(from).and_then(|q| q.as_ref()) {
            Some(rx) => rx,
            None => {
                return Err(NetError::new(
                    NetErrorKind::Protocol,
                    format!("no link from rank {}", from),
                )
                .on_link(rank, from))
            }
        };
        let res = match rx.recv_timeout(deadline) {
            Ok(Ok(m)) => {
                self.gauge.consumed();
                return Ok(m);
            }
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => Err(NetError::new(
                NetErrorKind::Deadline,
                format!("no message within {:?}", deadline),
            )
            .on_link(rank, from)),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::new(
                NetErrorKind::Closed,
                "link terminated",
            )
            .on_link(rank, from)),
        };
        if let Err(e) = &res {
            self.note_fault(from, e);
        }
        res
    }

    fn peak_in_flight(&self) -> u64 {
        self.gauge.peak.load(Ordering::Relaxed)
    }

    fn finish(&mut self) -> Result<(), NetError> {
        self.teardown();
        Ok(())
    }

    fn link_seq(&self, peer: usize) -> Option<u64> {
        self.senders
            .get(peer)
            .and_then(|s| s.as_ref())
            // seq() is the *next* number; the last written frame (at least
            // the Hello) carried seq() - 1.
            .map(|s| (s.writer.seq() as u64).saturating_sub(1))
    }

    fn take_fault_events(&mut self) -> Vec<hpf_obs::TraceEvent> {
        std::mem::take(&mut self.faults)
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_ir::Value;

    fn mesh(kind: AddrKind, nproc: usize, cfg: SocketConfig) -> Vec<SocketTransport> {
        let listeners: Vec<NetListener> = (0..nproc)
            .map(|r| NetListener::bind(kind, &format!("t{}", r)).unwrap())
            .collect();
        let addrs: Vec<Addr> = listeners.iter().map(|l| l.addr().unwrap()).collect();
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let addrs = addrs.clone();
                std::thread::spawn(move || {
                    SocketTransport::connect_mesh(rank, nproc, &listener, &addrs, cfg).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn unix_bind_replaces_a_stale_socket_file() {
        let path = std::env::temp_dir().join(format!(
            "phpf-net-{}-stale-test.sock",
            std::process::id()
        ));
        // A std listener does not unlink its file when dropped, just like
        // a worker process that was killed.
        drop(UnixListener::bind(&path).unwrap());
        assert!(path.exists());
        let l = NetListener::bind_unix(path.clone()).unwrap();
        assert!(matches!(l.addr().unwrap(), Addr::Unix(p) if p == path));
        drop(l);
        assert!(!path.exists());
    }

    fn exercise(kind: AddrKind) {
        let group = mesh(kind, 3, SocketConfig::default());
        let handles: Vec<_> = group
            .into_iter()
            .map(|mut t| {
                std::thread::spawn(move || {
                    let rank = t.rank();
                    // Everyone sends its rank to everyone else, twice:
                    // once scalar, once as a section.
                    for to in 0..3 {
                        if to != rank {
                            t.send(to, &WireMsg::One(Value::Int(rank as i64))).unwrap();
                            t.send(
                                to,
                                &WireMsg::Many(Arc::new(vec![
                                    Value::Real(rank as f64),
                                    Value::Bool(rank % 2 == 0),
                                ])),
                            )
                            .unwrap();
                        }
                    }
                    for from in 0..3 {
                        if from != rank {
                            assert_eq!(
                                t.recv(from).unwrap(),
                                WireMsg::One(Value::Int(from as i64))
                            );
                            assert_eq!(
                                t.recv(from).unwrap(),
                                WireMsg::Many(Arc::new(vec![
                                    Value::Real(from as f64),
                                    Value::Bool(from % 2 == 0),
                                ]))
                            );
                        }
                    }
                    let peak = t.peak_in_flight();
                    t.finish().unwrap();
                    peak
                })
            })
            .collect();
        let peaks: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(peaks.iter().any(|&p| p >= 1), "gauge never saw a frame");
    }

    #[test]
    fn tcp_mesh_roundtrip() {
        exercise(AddrKind::Tcp);
    }

    #[test]
    fn unix_mesh_roundtrip() {
        exercise(AddrKind::Unix);
    }

    #[test]
    fn silent_peer_hits_recv_deadline() {
        let cfg = SocketConfig {
            io_deadline: Duration::from_millis(100),
            ..SocketConfig::default()
        };
        let mut group = mesh(AddrKind::default(), 2, cfg);
        let start = Instant::now();
        let err = group[0].recv(1).unwrap_err();
        assert_eq!(err.kind, NetErrorKind::Deadline);
        assert_eq!(err.link, Some((0, 1)));
        assert!(start.elapsed() < Duration::from_secs(5));
        for t in &mut group {
            t.finish().unwrap();
        }
    }

    #[test]
    fn handshake_rejects_wrong_world_size() {
        let listener = NetListener::bind(AddrKind::default(), "hs").unwrap();
        let addr = listener.addr().unwrap();
        let cfg = SocketConfig {
            connect_deadline: Duration::from_secs(2),
            ..SocketConfig::default()
        };
        // A rank-1 process that believes the world has 3 ranks.
        let h = std::thread::spawn(move || {
            let my_listener = NetListener::bind(AddrKind::default(), "hs-peer").unwrap();
            let addrs = vec![addr, my_listener.addr().unwrap(), my_listener.addr().unwrap()];
            SocketTransport::connect_mesh(1, 3, &my_listener, &addrs, cfg)
        });
        let addrs = vec![listener.addr().unwrap(), Addr::Tcp("127.0.0.1:1".into())];
        let err = SocketTransport::connect_mesh(0, 2, &listener, &addrs, cfg).unwrap_err();
        assert_eq!(err.kind, NetErrorKind::Handshake);
        let _ = h.join();
    }

    /// Detection: an injected fault is terminal at the link and named by
    /// the frame codec.
    #[test]
    fn injected_link_fault_is_terminal_and_named() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut group = mesh(
            AddrKind::default(),
            2,
            SocketConfig {
                io_deadline: Duration::from_secs(2),
                ..SocketConfig::default()
            },
        );
        let plan = FaultPlan::parse("corrupt:0>1@0").unwrap();
        group[0].set_fault_injector(FaultInjector::new(&plan, 0));
        group[0].send(1, &WireMsg::One(Value::Int(7))).unwrap();
        let err = group[1].recv(0).unwrap_err();
        assert_eq!(err.kind, NetErrorKind::Codec);
        assert_eq!(err.fault, Some("bad-checksum"));
        for t in &mut group {
            let _ = t.finish();
        }
    }

    #[test]
    fn missing_peer_bounds_connect() {
        // Nobody is listening on this address; the backoff must give up
        // within the connect deadline.
        let listener = NetListener::bind(AddrKind::Tcp, "mp").unwrap();
        let dead = Addr::Tcp("127.0.0.1:1".into());
        let cfg = SocketConfig {
            connect_deadline: Duration::from_millis(200),
            ..SocketConfig::default()
        };
        let addrs = vec![dead, listener.addr().unwrap()];
        let start = Instant::now();
        let err = SocketTransport::connect_mesh(1, 2, &listener, &addrs, cfg).unwrap_err();
        assert_eq!(err.kind, NetErrorKind::Handshake);
        assert!(start.elapsed() < Duration::from_secs(10));
    }
}

//! The length-prefixed binary wire codec.
//!
//! Every frame is a fixed 16-byte header followed by `len` payload bytes:
//!
//! ```text
//! offset  size  field
//! 0       2     magic 0x4850 ("HP"), little endian
//! 2       1     protocol version (1)
//! 3       1     frame kind
//! 4       4     per-link sequence number (contiguous from 0)
//! 8       4     payload length in bytes
//! 12      4     FNV-1a checksum of the payload
//! ```
//!
//! The header makes every transport fault *detectable* rather than
//! absorbable: a truncated frame leaves the reader short of `len` bytes, a
//! dropped frame skips a sequence number, a duplicated frame repeats one,
//! and corruption fails the checksum. [`FrameError`] names each case so the
//! transport can report which fault it saw on which link. Every detected
//! fault is terminal for its link: the stream is not resynchronised, and
//! the self-healing multi-process driver reruns the whole run with a
//! fresh cohort.
//!
//! The payload of data frames is a sequence of tagged values (see
//! [`Enc::value`]); control frames (`Hello`/`Bye`) and the multi-process
//! driver's job/result plumbing reuse the same header with their own
//! payload layouts, built with the [`Enc`]/[`Dec`] helpers.

use crate::WireMsg;
use hpf_ir::Value;
use std::sync::Arc;

/// Frame magic: "HP" little-endian.
pub const MAGIC: u16 = 0x5048;
/// Wire protocol version.
pub const VERSION: u8 = 1;
/// Header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Refuse payloads above this size (corrupt length prefixes must not
/// trigger huge allocations).
pub const MAX_PAYLOAD: usize = 1 << 26;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// One tagged value.
    One = 1,
    /// A coalesced section: u32 count then tagged values.
    Many = 2,
    /// Rank-exchange handshake: u32 from, u32 to, u32 nproc.
    Hello = 3,
    /// Clean end-of-stream.
    Bye = 4,
    /// Opaque bytes (job specs, results, rendezvous registration).
    Blob = 5,
}

impl FrameKind {
    pub fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::One),
            2 => Some(FrameKind::Many),
            3 => Some(FrameKind::Hello),
            4 => Some(FrameKind::Bye),
            5 => Some(FrameKind::Blob),
            _ => None,
        }
    }
}

/// Decoding failures, each naming the fault it detected.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    BadMagic(u16),
    BadVersion(u8),
    BadKind(u8),
    /// Sequence number jumped forward: frames were dropped.
    SeqGap { expected: u32, got: u32 },
    /// Sequence number repeated or went backward: a duplicated frame.
    SeqRepeat { expected: u32, got: u32 },
    BadChecksum { expected: u32, got: u32 },
    /// The stream ended (or went silent) mid-frame.
    Truncated { got: usize, want: usize },
    TooLarge(usize),
    /// Payload bytes did not decode as the frame kind's layout.
    Decode(String),
}

impl FrameError {
    /// Stable short fault name, used to tag trace fault events (the
    /// Display form carries the per-instance numbers).
    pub fn name(&self) -> &'static str {
        match self {
            FrameError::BadMagic(_) => "bad-magic",
            FrameError::BadVersion(_) => "bad-version",
            FrameError::BadKind(_) => "bad-kind",
            FrameError::SeqGap { .. } => "seq-gap",
            FrameError::SeqRepeat { .. } => "seq-repeat",
            FrameError::BadChecksum { .. } => "bad-checksum",
            FrameError::Truncated { .. } => "truncated",
            FrameError::TooLarge(_) => "too-large",
            FrameError::Decode(_) => "decode",
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {:#06x}", m),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {}", v),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {}", k),
            FrameError::SeqGap { expected, got } => write!(
                f,
                "dropped frame(s): expected seq {}, got {}",
                expected, got
            ),
            FrameError::SeqRepeat { expected, got } => write!(
                f,
                "duplicated frame: expected seq {}, got {}",
                expected, got
            ),
            FrameError::BadChecksum { expected, got } => write!(
                f,
                "payload checksum mismatch: header says {:#010x}, computed {:#010x}",
                expected, got
            ),
            FrameError::Truncated { got, want } => {
                write!(f, "truncated frame: got {} of {} bytes", got, want)
            }
            FrameError::TooLarge(n) => write!(f, "frame payload of {} bytes too large", n),
            FrameError::Decode(m) => write!(f, "payload decode error: {}", m),
        }
    }
}

impl std::error::Error for FrameError {}

/// 32-bit FNV-1a over the payload.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x01000193);
    }
    h
}

/// Encode a complete frame (header + payload) with an explicit sequence
/// number. Normal senders use [`FrameWriter`]; this raw form exists so
/// fault-injection tests can craft out-of-sequence or corrupt frames.
pub fn encode_frame(kind: FrameKind, seq: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parsed header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub kind: FrameKind,
    pub seq: u32,
    pub len: usize,
    pub crc: u32,
}

/// Parse and validate the fixed fields of a header (not the sequence
/// number — that is per-link state the caller owns).
pub fn parse_header(h: &[u8; HEADER_LEN]) -> Result<Header, FrameError> {
    let magic = u16::from_le_bytes([h[0], h[1]]);
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    if h[2] != VERSION {
        return Err(FrameError::BadVersion(h[2]));
    }
    let kind = FrameKind::from_u8(h[3]).ok_or(FrameError::BadKind(h[3]))?;
    let seq = u32::from_le_bytes([h[4], h[5], h[6], h[7]]);
    let len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge(len));
    }
    let crc = u32::from_le_bytes([h[12], h[13], h[14], h[15]]);
    Ok(Header {
        kind,
        seq,
        len,
        crc,
    })
}

/// Check a received payload against its header checksum.
pub fn check_payload(h: &Header, payload: &[u8]) -> Result<(), FrameError> {
    let got = fnv1a(payload);
    if got != h.crc {
        return Err(FrameError::BadChecksum {
            expected: h.crc,
            got,
        });
    }
    Ok(())
}

/// Validate a link's next sequence number, distinguishing drops from
/// duplicates.
pub fn check_seq(expected: u32, got: u32) -> Result<(), FrameError> {
    if got == expected {
        Ok(())
    } else if got > expected {
        Err(FrameError::SeqGap { expected, got })
    } else {
        Err(FrameError::SeqRepeat { expected, got })
    }
}

/// Encode a runtime message as (frame kind, payload bytes).
pub fn encode_msg(msg: &WireMsg) -> (FrameKind, Vec<u8>) {
    let mut e = Enc::new();
    match msg {
        WireMsg::One(v) => {
            e.value(*v);
            (FrameKind::One, e.buf)
        }
        WireMsg::Many(vals) => {
            e.u32(vals.len() as u32);
            for &v in vals.iter() {
                e.value(v);
            }
            (FrameKind::Many, e.buf)
        }
    }
}

/// Decode a data frame's payload back into a runtime message.
pub fn decode_msg(kind: FrameKind, payload: &[u8]) -> Result<WireMsg, FrameError> {
    let mut d = Dec::new(payload);
    let msg = match kind {
        FrameKind::One => WireMsg::One(d.value()?),
        FrameKind::Many => {
            let n = d.u32()? as usize;
            let mut vals = Vec::with_capacity(n.min(MAX_PAYLOAD / 9));
            for _ in 0..n {
                vals.push(d.value()?);
            }
            WireMsg::Many(Arc::new(vals))
        }
        other => {
            return Err(FrameError::Decode(format!(
                "frame kind {:?} is not a data frame",
                other
            )))
        }
    };
    d.done()?;
    Ok(msg)
}

/// Append-only payload builder.
#[derive(Debug, Default)]
pub struct Enc {
    pub buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn boolean(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// LEB128 varint: seven bits per byte, low group first, high bit set
    /// on every byte but the last (one byte below 128, ten for `u64::MAX`).
    pub fn uvar(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Signed varint: zigzag (0, -1, 1, -2, ... map to 0, 1, 2, 3, ...)
    /// so small magnitudes of either sign stay short, then [`Enc::uvar`].
    pub fn ivar(&mut self, v: i64) {
        self.uvar(((v << 1) ^ (v >> 63)) as u64);
    }

    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// One tagged value: tag byte (0 = Int, 1 = Real, 2 = Bool) + 8 bytes.
    pub fn value(&mut self, v: Value) {
        match v {
            Value::Int(i) => {
                self.u8(0);
                self.i64(i);
            }
            Value::Real(r) => {
                self.u8(1);
                self.f64(r);
            }
            Value::Bool(b) => {
                self.u8(2);
                self.u64(b as u64);
            }
        }
    }
}

/// Cursor over a received payload.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.pos + n > self.buf.len() {
            return Err(FrameError::Decode(format!(
                "payload underrun: need {} bytes at offset {}, have {}",
                n,
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    pub fn boolean(&mut self) -> Result<bool, FrameError> {
        Ok(self.u8()? != 0)
    }

    pub fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, FrameError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes(b.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A varint written by [`Enc::uvar`]. Truncation, more than ten bytes
    /// and a value above `u64::MAX` are errors.
    pub fn uvar(&mut self) -> Result<u64, FrameError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(FrameError::Decode(
                    "varint longer than ten bytes or above u64::MAX".into(),
                ));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        unreachable!("the tenth byte either ends the varint or is rejected")
    }

    /// A zigzag varint written by [`Enc::ivar`].
    pub fn ivar(&mut self) -> Result<i64, FrameError> {
        let u = self.uvar()?;
        Ok((u >> 1) as i64 ^ -((u & 1) as i64))
    }

    pub fn str(&mut self) -> Result<String, FrameError> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec())
            .map_err(|e| FrameError::Decode(format!("bad utf-8 string: {}", e)))
    }

    pub fn value(&mut self) -> Result<Value, FrameError> {
        match self.u8()? {
            0 => Ok(Value::Int(self.i64()?)),
            1 => Ok(Value::Real(self.f64()?)),
            2 => Ok(Value::Bool(self.u64()? != 0)),
            t => Err(FrameError::Decode(format!("unknown value tag {}", t))),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the payload was fully consumed.
    pub fn done(&self) -> Result<(), FrameError> {
        if self.pos != self.buf.len() {
            return Err(FrameError::Decode(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Sequenced frame writer over any byte sink.
#[derive(Debug)]
pub struct FrameWriter<W: std::io::Write> {
    w: W,
    seq: u32,
}

impl<W: std::io::Write> FrameWriter<W> {
    pub fn new(w: W) -> FrameWriter<W> {
        FrameWriter { w, seq: 0 }
    }

    /// Write one frame with the link's next sequence number.
    pub fn write(&mut self, kind: FrameKind, payload: &[u8]) -> std::io::Result<()> {
        let bytes = encode_frame(kind, self.seq, payload);
        self.seq = self.seq.wrapping_add(1);
        self.w.write_all(&bytes)?;
        self.w.flush()
    }

    /// Consume the next sequence number without writing anything — a
    /// deliberate frame drop, used by fault injection to create a seq-gap
    /// on the receiving side.
    pub fn skip_seq(&mut self) -> u32 {
        let s = self.seq;
        self.seq = self.seq.wrapping_add(1);
        s
    }

    pub fn get_ref(&self) -> &W {
        &self.w
    }

    /// Mutable access to the underlying sink, for callers that must put
    /// deliberately malformed bytes on the wire (fault injection corrupts
    /// an encoded frame after its checksum was computed).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.w
    }

    /// The sequence number the *next* written frame will carry (equals the
    /// number of frames written so far).
    pub fn seq(&self) -> u32 {
        self.seq
    }
}

/// Sequenced, checksum-validating frame reader over any byte source.
///
/// `read` blocks until a full frame arrives (honouring whatever read
/// timeout the underlying stream has; see [`crate::socket`] for how the
/// socket backend distinguishes idle links from mid-frame truncation).
#[derive(Debug)]
pub struct FrameReader<R: std::io::Read> {
    r: R,
    seq: u32,
}

impl<R: std::io::Read> FrameReader<R> {
    pub fn new(r: R) -> FrameReader<R> {
        FrameReader { r, seq: 0 }
    }

    /// The sequence number the *next* frame is expected to carry (equals
    /// the number of frames successfully read — the link's acknowledged
    /// high-water mark).
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// Read and validate the next frame. `Ok(None)` is a clean end of
    /// stream (EOF between frames, or a `Bye` frame). A read timeout —
    /// even before the first header byte — reports as `Truncated`.
    pub fn read(&mut self) -> Result<Option<(FrameKind, Vec<u8>)>, FrameError> {
        match self.read_step()? {
            ReadStep::Frame((FrameKind::Bye, _)) => Ok(None),
            ReadStep::Frame(f) => Ok(Some(f)),
            ReadStep::Eof => Ok(None),
            ReadStep::Idle => Err(FrameError::Truncated {
                got: 0,
                want: HEADER_LEN,
            }),
        }
    }

    /// Like [`FrameReader::read`] but distinguishes an *idle* link (read
    /// timeout before any header byte — no frame was in progress) from a
    /// truncated frame (timeout or EOF mid-frame). The socket backend's
    /// reader threads poll with `read_step` so idle links wait forever
    /// while half-delivered frames fail loudly.
    pub fn read_step(&mut self) -> Result<ReadStep, FrameError> {
        let mut hdr = [0u8; HEADER_LEN];
        match read_exact_or_eof(&mut self.r, &mut hdr, true)? {
            ReadOutcome::Eof => return Ok(ReadStep::Eof),
            ReadOutcome::Idle => return Ok(ReadStep::Idle),
            ReadOutcome::Full => {}
        }
        let h = parse_header(&hdr)?;
        let mut payload = vec![0u8; h.len];
        if !payload.is_empty() {
            match read_exact_or_eof(&mut self.r, &mut payload, false)? {
                ReadOutcome::Full => {}
                ReadOutcome::Eof | ReadOutcome::Idle => {
                    return Err(FrameError::Truncated {
                        got: 0,
                        want: h.len,
                    })
                }
            }
        }
        check_payload(&h, &payload)?;
        check_seq(self.seq, h.seq)?;
        self.seq = self.seq.wrapping_add(1);
        Ok(ReadStep::Frame((h.kind, payload)))
    }
}

/// Outcome of a non-committal frame read (see [`FrameReader::read_step`]).
#[derive(Debug)]
pub enum ReadStep {
    Frame((FrameKind, Vec<u8>)),
    /// EOF between frames. A `Bye` frame is reported as a regular
    /// [`ReadStep::Frame`] so callers can tell a deliberate goodbye from a
    /// peer that simply vanished.
    Eof,
    /// Read timeout before any byte of a new frame: the link is merely
    /// quiet, not broken.
    Idle,
}

enum ReadOutcome {
    Full,
    Eof,
    Idle,
}

/// Fill `buf` completely. Clean EOF before the first byte is `Eof`; a read
/// timeout before the first byte is `Idle` when `idle_ok` (else it counts
/// as truncation); EOF or a timeout after a partial read is a truncated
/// frame.
fn read_exact_or_eof<R: std::io::Read>(
    r: &mut R,
    buf: &mut [u8],
    idle_ok: bool,
) -> Result<ReadOutcome, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(ReadOutcome::Eof);
                }
                return Err(FrameError::Truncated {
                    got,
                    want: buf.len(),
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if got == 0 && idle_ok {
                    return Ok(ReadOutcome::Idle);
                }
                return Err(FrameError::Truncated {
                    got,
                    want: buf.len(),
                });
            }
            Err(e) => return Err(FrameError::Decode(format!("read failed: {}", e))),
        }
    }
    Ok(ReadOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_one_and_many() {
        for msg in [
            WireMsg::One(Value::Real(1.5)),
            WireMsg::One(Value::Int(-7)),
            WireMsg::One(Value::Bool(true)),
            WireMsg::Many(Arc::new(vec![
                Value::Int(3),
                Value::Real(0.25),
                Value::Bool(false),
            ])),
            WireMsg::Many(Arc::new(vec![])),
        ] {
            let (kind, payload) = encode_msg(&msg);
            let back = decode_msg(kind, &payload).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn writer_reader_roundtrip_with_sequencing() {
        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new(&mut buf);
            let (k1, p1) = encode_msg(&WireMsg::One(Value::Int(1)));
            let (k2, p2) = encode_msg(&WireMsg::One(Value::Int(2)));
            w.write(k1, &p1).unwrap();
            w.write(k2, &p2).unwrap();
            w.write(FrameKind::Bye, &[]).unwrap();
        }
        let mut r = FrameReader::new(&buf[..]);
        let (k, p) = r.read().unwrap().unwrap();
        assert_eq!(decode_msg(k, &p).unwrap(), WireMsg::One(Value::Int(1)));
        let (k, p) = r.read().unwrap().unwrap();
        assert_eq!(decode_msg(k, &p).unwrap(), WireMsg::One(Value::Int(2)));
        assert!(r.read().unwrap().is_none(), "Bye is a clean end");
    }

    #[test]
    fn dropped_frame_detected_as_seq_gap() {
        let (k, p) = encode_msg(&WireMsg::One(Value::Int(5)));
        // Frames 0 and 2: frame 1 was "dropped".
        let mut bytes = encode_frame(k, 0, &p);
        bytes.extend_from_slice(&encode_frame(k, 2, &p));
        let mut r = FrameReader::new(&bytes[..]);
        assert!(r.read().unwrap().is_some());
        match r.read() {
            Err(FrameError::SeqGap { expected: 1, got: 2 }) => {}
            other => panic!("expected SeqGap, got {:?}", other),
        }
    }

    #[test]
    fn duplicated_frame_detected_as_seq_repeat() {
        let (k, p) = encode_msg(&WireMsg::One(Value::Int(5)));
        let one = encode_frame(k, 0, &p);
        let mut bytes = one.clone();
        bytes.extend_from_slice(&one);
        let mut r = FrameReader::new(&bytes[..]);
        assert!(r.read().unwrap().is_some());
        match r.read() {
            Err(FrameError::SeqRepeat { expected: 1, got: 0 }) => {}
            other => panic!("expected SeqRepeat, got {:?}", other),
        }
    }

    #[test]
    fn truncated_frame_detected() {
        let (k, p) = encode_msg(&WireMsg::One(Value::Real(2.0)));
        let bytes = encode_frame(k, 0, &p);
        let mut r = FrameReader::new(&bytes[..bytes.len() - 3]);
        match r.read() {
            Err(FrameError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {:?}", other),
        }
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let (k, p) = encode_msg(&WireMsg::One(Value::Real(2.0)));
        let mut bytes = encode_frame(k, 0, &p);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let mut r = FrameReader::new(&bytes[..]);
        match r.read() {
            Err(FrameError::BadChecksum { .. }) => {}
            other => panic!("expected BadChecksum, got {:?}", other),
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let (k, p) = encode_msg(&WireMsg::One(Value::Int(1)));
        let mut bytes = encode_frame(k, 0, &p);
        // Corrupt the length field to a huge value; the CRC field follows,
        // but length is checked first so no allocation happens.
        bytes[8..12].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = FrameReader::new(&bytes[..]);
        match r.read() {
            Err(FrameError::TooLarge(_)) => {}
            other => panic!("expected TooLarge, got {:?}", other),
        }
    }

    #[test]
    fn skip_seq_creates_a_detectable_gap() {
        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new(&mut buf);
            let (k, p) = encode_msg(&WireMsg::One(Value::Int(1)));
            w.write(k, &p).unwrap();
            assert_eq!(w.skip_seq(), 1);
            w.write(k, &p).unwrap();
        }
        let mut r = FrameReader::new(&buf[..]);
        assert!(r.read().unwrap().is_some());
        match r.read() {
            Err(FrameError::SeqGap { expected: 1, got: 2 }) => {}
            other => panic!("expected SeqGap, got {:?}", other),
        }
    }

    #[test]
    fn enc_dec_roundtrip() {
        let mut e = Enc::new();
        e.u8(7);
        e.boolean(true);
        e.u32(1234);
        e.u64(u64::MAX - 1);
        e.i64(-42);
        e.f64(3.5);
        e.str("hello");
        e.value(Value::Real(0.125));
        let mut d = Dec::new(&e.buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.boolean().unwrap());
        assert_eq!(d.u32().unwrap(), 1234);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap(), 3.5);
        assert_eq!(d.str().unwrap(), "hello");
        assert_eq!(d.value().unwrap(), Value::Real(0.125));
        d.done().unwrap();
    }
}

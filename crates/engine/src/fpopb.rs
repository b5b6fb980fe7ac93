//! `fpopb/1` — the pipelined binary wire protocol of `fpopd`.
//!
//! The normative specification lives in `docs/PROTOCOL.md`; this module
//! is the reference codec. Its primitives are the ones the `FPOPSNAP`
//! snapshot format uses too (`crate::codec`): varint (LEB128) framing,
//! length-prefixed UTF-8 strings, and a trailing FNV-1a 64 checksum per
//! frame guarding against *accidental* corruption only (it is not a
//! MAC — frames are untrusted input and the decoder is total anyway).
//!
//! ## Frame layout
//!
//! ```text
//! +----------+------------------------------------------------------+
//! | marker   | 1 byte: 0xFB (also the protocol-sniffing byte)       |
//! | version  | 1 byte: 0x01                                         |
//! | type     | 1 byte: frame type tag                               |
//! | corr     | varint: correlation id (echoed on the response)      |
//! | body_len | varint: body byte count (≤ 16 MiB)                   |
//! | body     | body_len bytes                                       |
//! | checksum | 8 bytes LE: FNV-1a 64 over marker..body inclusive    |
//! +----------+------------------------------------------------------+
//! ```
//!
//! Responses carry the request's correlation id and may complete **out
//! of order** — that is the point: a client keeps many frames in flight
//! on one connection and matches replies by `corr`.
//!
//! ## Totality
//!
//! [`decode_frame`] never panics on arbitrary bytes: it returns
//! [`DecodeStep::Incomplete`] when more bytes are needed, a decoded
//! frame, or a [`DecodeError`]. Errors distinguish *recoverable*
//! failures (frame boundary known — the connection can skip the frame
//! and continue, e.g. a checksum mismatch) from *fatal* ones (stream
//! desync — the connection must close).

use std::io::Write;
use std::net::TcpStream;

use families_stlc::Feature;

use crate::codec::{self, FrameReader, ReadError, Reader};
pub use crate::codec::{w_str, w_varint};
use crate::request::{EngineError, Priority, Request};

/// First byte of every binary frame; connections are sniffed by it
/// (a text-protocol line can never start with `0xFB`, which is not a
/// valid leading UTF-8 byte).
pub const MARKER: u8 = 0xFB;
/// Current protocol version, carried in every frame.
pub const VERSION: u8 = 1;
/// Hard cap on a frame body. A corrupt length field must not make the
/// decoder buffer gigabytes; oversized frames are a fatal decode error.
pub const MAX_BODY: usize = 16 * 1024 * 1024;

/// Fixed header bytes before the two varints (marker, version, type).
const HEAD: usize = 3;
/// Longest accepted varint encoding (u64 ⇒ 10 bytes).
const MAX_VARINT: usize = 10;

// ---------------------------------------------------------------------------
// Frame types and error codes
// ---------------------------------------------------------------------------

/// Frame type tags. Requests are `0x01..=0x08`, responses `0x81..=0x85`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum FrameType {
    /// Version negotiation: body = varint highest version the client
    /// speaks. Optional — an fpopb/1 client may start submitting
    /// immediately (implicit version 1).
    Hello = 0x01,
    /// Liveness probe; answered inline with [`FrameType::Pong`].
    Ping = 0x02,
    /// Submit a request: body = priority byte + encoded [`Request`].
    Submit = 0x03,
    /// Register a template: body = encoded [`Request`]. Answered with
    /// [`FrameType::TemplateId`] carrying the content digest.
    RegisterTemplate = 0x04,
    /// Submit a registered template by digest: body = priority byte +
    /// 8-byte LE digest.
    SubmitTemplate = 0x05,
    /// Persist the proof cache now (answered inline).
    Checkpoint = 0x06,
    /// Fetch the slow-elaboration log (answered inline).
    SlowLog = 0x07,
    /// Stop the server (the engine then drains and snapshots).
    Shutdown = 0x08,
    /// Reply to [`FrameType::Hello`]: body = varint negotiated version.
    HelloAck = 0x81,
    /// Reply to [`FrameType::Ping`].
    Pong = 0x82,
    /// Successful response: body = UTF-8 rendered payload (same text a
    /// text-protocol `ok` line carries, unescaped).
    Ok = 0x83,
    /// Failed response: body = 1 error-code byte + UTF-8 reason.
    Err = 0x84,
    /// Reply to [`FrameType::RegisterTemplate`]: body = 8-byte LE digest.
    TemplateId = 0x85,
}

impl FrameType {
    /// Decodes a frame-type byte.
    pub fn from_u8(b: u8) -> Option<FrameType> {
        Some(match b {
            0x01 => FrameType::Hello,
            0x02 => FrameType::Ping,
            0x03 => FrameType::Submit,
            0x04 => FrameType::RegisterTemplate,
            0x05 => FrameType::SubmitTemplate,
            0x06 => FrameType::Checkpoint,
            0x07 => FrameType::SlowLog,
            0x08 => FrameType::Shutdown,
            0x81 => FrameType::HelloAck,
            0x82 => FrameType::Pong,
            0x83 => FrameType::Ok,
            0x84 => FrameType::Err,
            0x85 => FrameType::TemplateId,
            _ => return None,
        })
    }
}

/// Error codes carried in the first body byte of an [`FrameType::Err`]
/// frame. Codes 1–4 are protocol-level (the request never reached the
/// engine); 5–9 mirror [`EngineError`]; 10 is emitted by the fleet
/// router, never by a single `fpopd`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum ErrCode {
    /// Malformed frame or body (bad tag, bad UTF-8, short body…).
    Malformed = 1,
    /// Frame checksum mismatch (frame skipped, connection continues).
    Checksum = 2,
    /// Unsupported protocol version.
    Version = 3,
    /// Frame body exceeds [`MAX_BODY`].
    TooLarge = 4,
    /// Backpressure: the bounded queue is full ([`EngineError::Rejected`]).
    Rejected = 5,
    /// [`EngineError::DeadlineExpired`].
    Deadline = 6,
    /// [`EngineError::Cancelled`].
    Cancelled = 7,
    /// [`EngineError::ShuttingDown`].
    ShuttingDown = 8,
    /// [`EngineError::Failed`] (elaboration error, unknown template…).
    Failed = 9,
    /// The fleet router lost the backend shard holding this request
    /// mid-flight. The request may or may not have executed (requests
    /// are idempotent, so either way a retry is safe) — resubmit and the
    /// router will route around the dead shard.
    Unavailable = 10,
}

impl ErrCode {
    /// Decodes an error-code byte (unknown codes read as `Failed`, so a
    /// newer server never breaks an older client).
    pub fn from_u8(b: u8) -> ErrCode {
        match b {
            1 => ErrCode::Malformed,
            2 => ErrCode::Checksum,
            3 => ErrCode::Version,
            4 => ErrCode::TooLarge,
            5 => ErrCode::Rejected,
            6 => ErrCode::Deadline,
            7 => ErrCode::Cancelled,
            8 => ErrCode::ShuttingDown,
            10 => ErrCode::Unavailable,
            _ => ErrCode::Failed,
        }
    }

    /// The wire code for an engine-level failure.
    pub fn of_engine(e: &EngineError) -> ErrCode {
        match e {
            EngineError::Rejected => ErrCode::Rejected,
            EngineError::DeadlineExpired => ErrCode::Deadline,
            EngineError::Cancelled => ErrCode::Cancelled,
            EngineError::ShuttingDown => ErrCode::ShuttingDown,
            EngineError::Failed(_) => ErrCode::Failed,
        }
    }
}

// ---------------------------------------------------------------------------
// Body field readers
// ---------------------------------------------------------------------------

/// The wire reason for a body varint that is cut short or malformed.
fn varint_reason(e: ReadError) -> String {
    match e {
        ReadError::Short { .. } => "truncated varint",
        _ => "over-long varint",
    }
    .to_string()
}

fn r_str(r: &mut Reader) -> Result<String, String> {
    let s = r.str().map_err(|e| match e {
        ReadError::Len { len, at } => {
            match usize::try_from(len).ok().and_then(|n| at.checked_add(n)) {
                None => "string length overflow".to_string(),
                Some(_) => "truncated string".to_string(),
            }
        }
        ReadError::Utf8 => "invalid UTF-8".to_string(),
        e => varint_reason(e),
    })?;
    Ok(s.to_string())
}

// ---------------------------------------------------------------------------
// Frame encode / decode
// ---------------------------------------------------------------------------

/// A decoded frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// Frame type.
    pub ty: FrameType,
    /// Correlation id (echoed verbatim on the response).
    pub corr: u64,
    /// Frame body, already length-delimited and checksum-verified.
    pub body: Vec<u8>,
}

/// Encodes one frame, checksum trailer included.
pub fn encode_frame(ty: FrameType, corr: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEAD + 2 * MAX_VARINT + body.len() + 8);
    out.push(MARKER);
    out.push(VERSION);
    out.push(ty as u8);
    w_varint(&mut out, corr);
    w_varint(&mut out, body.len() as u64);
    out.extend_from_slice(body);
    codec::seal(&mut out);
    out
}

/// One step of incremental decoding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DecodeStep {
    /// The buffer holds no complete frame yet; read more bytes.
    Incomplete,
    /// One frame decoded; `consumed` bytes of the buffer are spent.
    Ready {
        /// The decoded frame.
        frame: Frame,
        /// Bytes of the input buffer this frame occupied.
        consumed: usize,
    },
}

/// Why decoding failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// First byte is not [`MARKER`] — stream desync, fatal.
    BadMarker(u8),
    /// Unknown protocol version — header layout unknowable, fatal.
    BadVersion(u8),
    /// Unknown frame type. The frame boundary is still known, so this is
    /// *recoverable*: skip `consumed` bytes and continue.
    BadType {
        /// The unknown type byte.
        ty: u8,
        /// Correlation id parsed from the header (echo it in the error
        /// reply).
        corr: u64,
        /// Bytes to skip to reach the next frame.
        consumed: usize,
    },
    /// Body length exceeds [`MAX_BODY`] — fatal (cannot buffer past it).
    Oversized(u64),
    /// An over-long or overflowing varint in the header — fatal.
    BadVarint,
    /// Checksum trailer mismatch. Recoverable: the frame boundary held,
    /// skip `consumed` bytes and continue.
    ChecksumMismatch {
        /// Correlation id parsed from the (untrusted) header.
        corr: u64,
        /// Bytes to skip to reach the next frame.
        consumed: usize,
    },
}

impl DecodeError {
    /// `Some(bytes_to_skip)` when the connection can keep decoding after
    /// this error; `None` when the stream is desynced and must close.
    pub fn recoverable(&self) -> Option<usize> {
        match self {
            DecodeError::BadType { consumed, .. }
            | DecodeError::ChecksumMismatch { consumed, .. } => Some(*consumed),
            _ => None,
        }
    }

    /// The correlation id to echo on the error reply: the header's for a
    /// recoverable error, 0 (connection-level) for a fatal one.
    pub fn corr(&self) -> u64 {
        match self {
            DecodeError::BadType { corr, .. } | DecodeError::ChecksumMismatch { corr, .. } => *corr,
            _ => 0,
        }
    }

    /// The wire error code reported for this decode failure.
    pub fn code(&self) -> ErrCode {
        match self {
            DecodeError::BadMarker(_) | DecodeError::BadType { .. } | DecodeError::BadVarint => {
                ErrCode::Malformed
            }
            DecodeError::BadVersion(_) => ErrCode::Version,
            DecodeError::Oversized(_) => ErrCode::TooLarge,
            DecodeError::ChecksumMismatch { .. } => ErrCode::Checksum,
        }
    }

    /// Human-readable reason, used as the error-frame body text.
    pub fn reason(&self) -> String {
        match self {
            DecodeError::BadMarker(b) => format!("bad frame marker 0x{b:02x} (want 0xfb)"),
            DecodeError::BadVersion(v) => {
                format!("unsupported protocol version {v} (this server speaks fpopb/{VERSION})")
            }
            DecodeError::BadType { ty, .. } => format!("unknown frame type 0x{ty:02x}"),
            DecodeError::Oversized(n) => {
                format!("frame body of {n} bytes exceeds the {MAX_BODY}-byte cap")
            }
            DecodeError::BadVarint => "over-long varint in frame header".to_string(),
            DecodeError::ChecksumMismatch { .. } => "frame checksum mismatch".to_string(),
        }
    }
}

/// Tries to decode one frame from the front of `buf`. Total: never
/// panics on arbitrary input.
pub fn decode_frame(buf: &[u8]) -> Result<DecodeStep, DecodeError> {
    let ty_byte = match *buf {
        [m, ..] if m != MARKER => return Err(DecodeError::BadMarker(m)),
        [_, v, ..] if v != VERSION => return Err(DecodeError::BadVersion(v)),
        [_, _, ty, ..] => ty,
        _ => return Ok(DecodeStep::Incomplete),
    };
    let mut r = Reader::at(buf, HEAD);
    let (corr, body_len) = match r.varint().and_then(|corr| Ok((corr, r.varint()?))) {
        Ok(header) => header,
        Err(ReadError::Short { .. }) => return Ok(DecodeStep::Incomplete),
        Err(_) => return Err(DecodeError::BadVarint),
    };
    if body_len > MAX_BODY as u64 {
        return Err(DecodeError::Oversized(body_len));
    }
    let body_at = r.pos;
    let frame_end = body_at + body_len as usize + 8;
    let Some(sealed) = buf.get(..frame_end) else {
        return Ok(DecodeStep::Incomplete);
    };
    let Some(content) = codec::unseal(sealed) else {
        return Err(DecodeError::ChecksumMismatch {
            corr,
            consumed: frame_end,
        });
    };
    let ty = FrameType::from_u8(ty_byte).ok_or(DecodeError::BadType {
        ty: ty_byte,
        corr,
        consumed: frame_end,
    })?;
    Ok(DecodeStep::Ready {
        frame: Frame {
            ty,
            corr,
            body: content[body_at..].to_vec(),
        },
        consumed: frame_end,
    })
}

// ---------------------------------------------------------------------------
// Request body encoding
// ---------------------------------------------------------------------------

/// Encodes a [`Request`] into a frame body (the payload of
/// [`FrameType::Submit`] after the priority byte, and the whole body of
/// [`FrameType::RegisterTemplate`]).
pub fn encode_request(out: &mut Vec<u8>, req: &Request) {
    match req {
        Request::CheckSource { source } => {
            out.push(0);
            w_str(out, source);
        }
        Request::BuildLattice { features } => {
            out.push(1);
            w_varint(out, features.len() as u64);
            for f in features {
                out.push(f.canonical_index() as u8);
            }
        }
        Request::QueryTheorem { family, field } => {
            out.push(2);
            w_str(out, family);
            w_str(out, field);
        }
        Request::Eval { family, term } => {
            out.push(3);
            w_str(out, family);
            w_str(out, term);
        }
        Request::Stats => out.push(4),
        Request::Metrics => out.push(5),
        Request::RunTemplate { digest } => {
            out.push(6);
            out.extend_from_slice(&digest.to_le_bytes());
        }
        Request::Redefine {
            family,
            field,
            features,
        } => {
            out.push(7);
            w_str(out, family);
            w_str(out, field);
            w_varint(out, features.len() as u64);
            for f in features {
                out.push(f.canonical_index() as u8);
            }
        }
    }
}

/// Decodes a [`Request`] from `body[at..]`; returns the request and the
/// next offset. Total: every malformed body is an `Err`, never a panic.
pub fn decode_request(body: &[u8], at: usize) -> Result<(Request, usize), String> {
    let mut r = Reader::at(body, at);
    let tag = r.u8().map_err(|_| "missing request tag")?;
    let req = match tag {
        0 => Request::CheckSource {
            source: r_str(&mut r)?,
        },
        1 => Request::BuildLattice {
            features: r_features(&mut r)?,
        },
        2 => Request::QueryTheorem {
            family: r_str(&mut r)?,
            field: r_str(&mut r)?,
        },
        3 => Request::Eval {
            family: r_str(&mut r)?,
            term: r_str(&mut r)?,
        },
        4 => Request::Stats,
        5 => Request::Metrics,
        6 => Request::RunTemplate {
            digest: r.u64_le().map_err(|_| "truncated digest")?,
        },
        7 => Request::Redefine {
            family: r_str(&mut r)?,
            field: r_str(&mut r)?,
            features: r_features(&mut r)?,
        },
        other => return Err(format!("unknown request tag {other}")),
    };
    Ok((req, r.pos))
}

/// Reads a varint-counted feature list (canonical-index bytes), with the
/// same plausibility cap used by every request that carries a subset
/// selection.
fn r_features(r: &mut Reader) -> Result<Vec<Feature>, String> {
    let n = r.varint().map_err(varint_reason)?;
    if n > Feature::all_extended().len() as u64 * 4 {
        return Err(format!("implausible feature count {n}"));
    }
    let indices = r.take(n as usize).map_err(|_| "truncated feature list")?;
    indices
        .iter()
        .map(|&b| {
            Feature::all_extended()
                .into_iter()
                .find(|f| f.canonical_index() == b as usize)
                .ok_or_else(|| format!("unknown feature index {b}"))
        })
        .collect()
}

/// Decodes a priority byte (0 = low, 1 = normal, 2 = high).
pub fn decode_priority(b: u8) -> Result<Priority, String> {
    match b {
        0 => Ok(Priority::Low),
        1 => Ok(Priority::Normal),
        2 => Ok(Priority::High),
        other => Err(format!("unknown priority byte {other}")),
    }
}

/// Encodes a priority byte.
pub fn encode_priority(p: Priority) -> u8 {
    match p {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    }
}

/// Reads an 8-byte LE digest from `body[at..]`.
pub fn r_digest(body: &[u8], at: usize) -> Result<(u64, usize), String> {
    let mut r = Reader::at(body, at);
    let d = r.u64_le().map_err(|_| "truncated digest")?;
    Ok((d, r.pos))
}

// ---------------------------------------------------------------------------
// A blocking pipelined client
// ---------------------------------------------------------------------------

/// A reply frame, decoded into its meaning.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Reply {
    /// Negotiated protocol version.
    HelloAck(u64),
    /// Liveness reply.
    Pong,
    /// Success payload (the rendered response text).
    Ok(String),
    /// Failure: code + reason.
    Err(ErrCode, String),
    /// Template registered under this digest.
    TemplateId(u64),
}

/// Decodes a response [`Frame`] into a [`Reply`].
pub fn decode_reply(frame: &Frame) -> Result<Reply, String> {
    match frame.ty {
        FrameType::HelloAck => {
            let v = Reader::new(&frame.body).varint().map_err(varint_reason)?;
            Ok(Reply::HelloAck(v))
        }
        FrameType::Pong => Ok(Reply::Pong),
        FrameType::Ok => {
            let s = std::str::from_utf8(&frame.body).map_err(|_| "ok payload not UTF-8")?;
            Ok(Reply::Ok(s.to_string()))
        }
        FrameType::Err => {
            let code = *frame.body.first().ok_or("empty err body")?;
            let msg = std::str::from_utf8(&frame.body[1..]).map_err(|_| "err reason not UTF-8")?;
            Ok(Reply::Err(ErrCode::from_u8(code), msg.to_string()))
        }
        FrameType::TemplateId => {
            let (d, _) = r_digest(&frame.body, 0)?;
            Ok(Reply::TemplateId(d))
        }
        other => Err(format!("{other:?} is not a response frame")),
    }
}

/// A blocking fpopb/1 client over one TCP connection, supporting
/// pipelining: [`Client::send_submit`] & co. write a frame and return
/// its correlation id immediately; [`Client::recv`] reads the next
/// response frame, in whatever order the server completed them.
///
/// Used by `loadgen`, the differential protocol oracle, and the bench
/// harness; production clients are expected to reimplement from the
/// `docs/PROTOCOL.md` spec.
pub struct Client {
    stream: TcpStream,
    frames: FrameReader,
    next_corr: u64,
}

impl Client {
    /// Connects and wraps `stream` (no handshake; fpopb/1 is implicit).
    pub fn new(stream: TcpStream) -> Client {
        stream.set_nodelay(true).ok();
        Client {
            stream,
            frames: FrameReader::default(),
            next_corr: 1,
        }
    }

    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the connect error.
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        Ok(Client::new(TcpStream::connect(addr)?))
    }

    /// The underlying stream (for timeouts, shutdown…).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    fn send_frame(&mut self, ty: FrameType, body: &[u8]) -> std::io::Result<u64> {
        let corr = self.next_corr;
        self.next_corr += 1;
        let bytes = encode_frame(ty, corr, body);
        self.stream.write_all(&bytes)?;
        Ok(corr)
    }

    /// Sends a version-negotiation frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn send_hello(&mut self, max_version: u64) -> std::io::Result<u64> {
        let mut body = Vec::new();
        w_varint(&mut body, max_version);
        self.send_frame(FrameType::Hello, &body)
    }

    /// Sends a ping frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn send_ping(&mut self) -> std::io::Result<u64> {
        self.send_frame(FrameType::Ping, &[])
    }

    /// Sends a submit frame; returns its correlation id.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn send_submit(&mut self, req: &Request, prio: Priority) -> std::io::Result<u64> {
        let mut body = vec![encode_priority(prio)];
        encode_request(&mut body, req);
        self.send_frame(FrameType::Submit, &body)
    }

    /// Sends a template-registration frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn send_register_template(&mut self, req: &Request) -> std::io::Result<u64> {
        let mut body = Vec::new();
        encode_request(&mut body, req);
        self.send_frame(FrameType::RegisterTemplate, &body)
    }

    /// Sends a template submit by digest.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn send_submit_template(&mut self, digest: u64, prio: Priority) -> std::io::Result<u64> {
        let mut body = vec![encode_priority(prio)];
        body.extend_from_slice(&digest.to_le_bytes());
        self.send_frame(FrameType::SubmitTemplate, &body)
    }

    /// Sends a checkpoint frame (persist the proof cache now).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn send_checkpoint(&mut self) -> std::io::Result<u64> {
        self.send_frame(FrameType::Checkpoint, &[])
    }

    /// Sends a shutdown frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn send_shutdown(&mut self) -> std::io::Result<u64> {
        self.send_frame(FrameType::Shutdown, &[])
    }

    /// Blocks for the next response frame (frames arrive in completion
    /// order, not submission order — match by [`Frame::corr`]).
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` on server hangup, `InvalidData` on a frame the
    /// codec rejects, otherwise the socket error.
    pub fn recv(&mut self) -> std::io::Result<Frame> {
        self.frames
            .next(&mut &self.stream)?
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.reason()))
    }

    /// Turn-based convenience: sends a submit and blocks for *its* reply
    /// (skipping none — the connection must have no other frames in
    /// flight).
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` if the reply correlates to a
    /// different frame.
    pub fn roundtrip(&mut self, req: &Request, prio: Priority) -> std::io::Result<Reply> {
        let corr = self.send_submit(req, prio)?;
        let frame = self.recv()?;
        if frame.corr != corr {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("reply corr {} for request corr {corr}", frame.corr),
            ));
        }
        decode_reply(&frame).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Registers a template and blocks for its digest.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` when the server refuses the request
    /// (the error reason is in the message).
    pub fn register_template(&mut self, req: &Request) -> std::io::Result<u64> {
        let corr = self.send_register_template(req)?;
        let frame = self.recv()?;
        if frame.corr != corr {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "interleaved reply during template registration",
            ));
        }
        match decode_reply(&frame)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
        {
            Reply::TemplateId(d) => Ok(d),
            Reply::Err(code, msg) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("template refused ({code:?}): {msg}"),
            )),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected reply {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_roundtrip(ty: FrameType, corr: u64, body: &[u8]) {
        let bytes = encode_frame(ty, corr, body);
        match decode_frame(&bytes).expect("decodes") {
            DecodeStep::Ready { frame, consumed } => {
                assert_eq!(consumed, bytes.len());
                assert_eq!(frame.ty, ty);
                assert_eq!(frame.corr, corr);
                assert_eq!(frame.body, body);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn frames_roundtrip() {
        frame_roundtrip(FrameType::Ping, 0, &[]);
        frame_roundtrip(FrameType::Ok, u64::MAX, b"payload with \xc3\xa9 utf-8");
        frame_roundtrip(FrameType::Submit, 12345, &vec![0xAB; 3000]);
    }

    #[test]
    fn every_strict_prefix_is_incomplete() {
        let bytes = encode_frame(FrameType::Submit, 777, b"some body bytes");
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Ok(DecodeStep::Incomplete) => {}
                other => panic!("prefix {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn checksum_flip_is_recoverable() {
        let mut bytes = encode_frame(FrameType::Ping, 9, b"x");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        match decode_frame(&bytes) {
            Err(DecodeError::ChecksumMismatch { corr, consumed }) => {
                assert_eq!(corr, 9);
                assert_eq!(consumed, bytes.len());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn marker_version_and_size_are_fatal() {
        assert_eq!(
            decode_frame(&[0x41]),
            Err(DecodeError::BadMarker(0x41)),
            "text byte is not a frame"
        );
        assert_eq!(
            decode_frame(&[MARKER, 0x7f]),
            Err(DecodeError::BadVersion(0x7f))
        );
        // A body length over the cap is rejected before buffering.
        let mut bytes = vec![MARKER, VERSION, FrameType::Ping as u8, 0x00];
        w_varint(&mut bytes, (MAX_BODY as u64) + 1);
        match decode_frame(&bytes) {
            Err(DecodeError::Oversized(n)) => assert_eq!(n, MAX_BODY as u64 + 1),
            other => panic!("unexpected {other:?}"),
        }
        for e in [
            DecodeError::BadMarker(0x41),
            DecodeError::BadVersion(0x7f),
            DecodeError::Oversized(u64::MAX),
            DecodeError::BadVarint,
        ] {
            assert_eq!(e.recoverable(), None, "{e:?} must be fatal");
        }
    }

    #[test]
    fn unknown_frame_type_is_recoverable() {
        // Hand-build a frame with type 0x55 and a valid checksum.
        let mut out = vec![MARKER, VERSION, 0x55];
        w_varint(&mut out, 3);
        w_varint(&mut out, 0);
        codec::seal(&mut out);
        match decode_frame(&out) {
            Err(
                e @ DecodeError::BadType {
                    ty: 0x55, corr: 3, ..
                },
            ) => {
                assert_eq!(e.recoverable(), Some(out.len()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::CheckSource {
                source: "Family F.\nEnd F.\n".into(),
            },
            Request::BuildLattice {
                features: vec![Feature::Fix, Feature::Prod],
            },
            Request::BuildLattice { features: vec![] },
            Request::QueryTheorem {
                family: "STLC".into(),
                field: "preservation".into(),
            },
            Request::Eval {
                family: "Peano".into(),
                term: "flip(two)".into(),
            },
            Request::Stats,
            Request::Metrics,
            Request::RunTemplate {
                digest: 0x929fa2627fa1cfd0,
            },
            Request::Redefine {
                family: "STLCFix".into(),
                field: "preservation".into(),
                features: vec![Feature::Fix, Feature::Prod],
            },
            Request::Redefine {
                family: "STLC".into(),
                field: "tysubst".into(),
                features: vec![],
            },
        ];
        for req in reqs {
            let mut body = Vec::new();
            encode_request(&mut body, &req);
            let (back, at) = decode_request(&body, 0).expect("decodes");
            assert_eq!(back, req);
            assert_eq!(at, body.len(), "no trailing bytes");
        }
    }

    #[test]
    fn priorities_roundtrip() {
        for p in [Priority::Low, Priority::Normal, Priority::High] {
            assert_eq!(decode_priority(encode_priority(p)).unwrap(), p);
        }
        assert!(decode_priority(7).is_err());
    }

    #[test]
    fn decode_frame_is_total_on_garbage() {
        // A fixed xorshift so the test is deterministic.
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut rnd = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..2000 {
            let len = (rnd() % 64) as usize;
            let mut buf: Vec<u8> = (0..len).map(|_| (rnd() & 0xff) as u8).collect();
            if rnd() % 2 == 0 && !buf.is_empty() {
                buf[0] = MARKER; // exercise the deeper header paths
                if buf.len() > 1 && rnd() % 2 == 0 {
                    buf[1] = VERSION;
                }
            }
            let _ = decode_frame(&buf); // must not panic
        }
    }
}

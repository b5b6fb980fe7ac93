//! The one byte codec under `FPOPSNAP`, `FPOPDIFF` and `fpopb/1`: the
//! varint writer and bounded [`Reader`], the FNV-64 trailer ([`seal`],
//! [`unseal`]), the entry container a snapshot and a diff share, the
//! atomic file write and the blocking [`FrameReader`].

use std::io::{self, Read, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use fpop::stable::Fnv64;

use crate::fpopb::{decode_frame, DecodeError, DecodeStep, Frame};
use crate::snapshot::{corrupt, SnapshotError};

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// Appends a LEB128 varint.
pub fn w_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn w_str(out: &mut Vec<u8>, s: &str) {
    w_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Why a [`Reader`] could not read a field.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ReadError {
    /// The input ends inside the field, which wanted `want` bytes at
    /// offset `at`: the only "need more bytes" outcome. A streaming
    /// decoder reads more; a whole-buffer decoder calls it malformed.
    Short { want: usize, at: usize },
    /// A varint longer than ten bytes, or above `u64::MAX`.
    Varint,
    /// A length prefix `len`, read up to offset `at`, that is larger than
    /// the input left after it.
    Len { len: u64, at: usize },
    /// A string that is not UTF-8.
    Utf8,
}

/// A bounded cursor over a byte slice. Every read is checked: no input
/// can make it panic or read past the end.
pub(crate) struct Reader<'a> {
    b: &'a [u8],
    /// Offset of the next unread byte.
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `b`.
    pub(crate) fn new(b: &'a [u8]) -> Reader<'a> {
        Reader::at(b, 0)
    }

    /// A reader positioned at offset `pos` of `b`.
    pub(crate) fn at(b: &'a [u8], pos: usize) -> Reader<'a> {
        Reader { b, pos }
    }

    /// Whether every byte has been read.
    pub(crate) fn is_done(&self) -> bool {
        self.pos >= self.b.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        let at = self.pos;
        let end = at
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or(ReadError::Short { want: n, at })?;
        self.pos = end;
        Ok(&self.b[at..end])
    }

    /// One byte.
    #[inline]
    pub(crate) fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.take(1)?[0])
    }

    /// A LEB128 varint of at most ten bytes whose value fits a `u64`.
    /// Non-canonical encodings (`0x80 0x00` for zero) are accepted, as
    /// every format always has.
    #[inline]
    pub(crate) fn varint(&mut self) -> Result<u64, ReadError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            // The tenth byte carries bit 63 only: anything above 1 either
            // overflows or continues into an eleventh byte.
            if shift == 63 && byte > 1 {
                return Err(ReadError::Varint);
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A varint length that must fit in the input left after it.
    pub(crate) fn len(&mut self) -> Result<usize, ReadError> {
        let len = self.varint()?;
        let left = self.b.len().saturating_sub(self.pos);
        match usize::try_from(len) {
            Ok(n) if n <= left => Ok(n),
            _ => Err(ReadError::Len { len, at: self.pos }),
        }
    }

    /// A length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self) -> Result<&'a str, ReadError> {
        let n = self.len()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| ReadError::Utf8)
    }

    /// A little-endian `u64`.
    pub(crate) fn u64_le(&mut self) -> Result<u64, ReadError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(
            b.try_into().expect("take(8) gave 8 bytes"),
        ))
    }
}

// ---------------------------------------------------------------------------
// The FNV-64 trailer and the sealed entry container
// ---------------------------------------------------------------------------

/// Appends the FNV-1a 64 of everything in `out` as an 8-byte LE trailer.
pub(crate) fn seal(out: &mut Vec<u8>) {
    let mut h = Fnv64::new();
    h.write(out);
    out.extend_from_slice(&h.finish().to_le_bytes());
}

/// The content of a sealed byte image, or `None` when it is shorter than
/// a trailer or the trailer does not match.
pub(crate) fn unseal(sealed: &[u8]) -> Option<&[u8]> {
    let (content, tail) = sealed.split_at(sealed.len().checked_sub(8)?);
    let mut h = Fnv64::new();
    h.write(content);
    (h.finish().to_le_bytes() == tail).then_some(content)
}

/// Encodes the sealed entry container `magic (8) | version (u32 LE) | pin
/// | count (varint) | count × {kind: u8, body_len: varint, body} |
/// FNV-1a 64 trailer`. A snapshot's pin is empty; a diff's is its base
/// digest. `w_entry` writes one item's body and returns its kind byte.
pub(crate) fn encode_entries<T>(
    magic: &[u8; 8],
    version: u32,
    pin: &[u8],
    items: &[T],
    w_entry: impl Fn(&mut Vec<u8>, &T) -> u8,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + items.len() * 128);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(pin);
    w_varint(&mut out, items.len() as u64);
    let mut body = Vec::new();
    for item in items {
        body.clear();
        let kind = w_entry(&mut body, item);
        out.push(kind);
        w_varint(&mut out, body.len() as u64);
        out.extend_from_slice(&body);
    }
    seal(&mut out);
    out
}

/// Decodes a container written by [`encode_entries`] into its
/// `pin_len`-byte pin and its items. Checks run in a fixed order: length,
/// magic, trailer (before any length field is trusted), version, then
/// structure. `r_entry` decodes one body from a reader that ends where
/// the body does, and must consume it exactly. Total: never panics on
/// any input.
pub(crate) fn decode_entries<'a, T>(
    magic: &[u8; 8],
    version: u32,
    pin_len: usize,
    bytes: &'a [u8],
    r_entry: impl Fn(&mut Reader<'a>, u8) -> Result<T, SnapshotError>,
) -> Result<(&'a [u8], Vec<T>), SnapshotError> {
    if bytes.len() < magic.len() + 4 + pin_len + 8 {
        return Err(corrupt("file shorter than header + checksum"));
    }
    if bytes[..magic.len()] != magic[..] {
        return Err(SnapshotError::BadMagic);
    }
    let content = unseal(bytes).ok_or(SnapshotError::ChecksumMismatch)?;
    let mut r = Reader::at(content, magic.len());
    let found = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes"));
    if found != version {
        return Err(SnapshotError::BadVersion(found));
    }
    let pin = r.take(pin_len)?;
    let count = r.len()?;
    let mut items = Vec::with_capacity(count.min(1 << 16));
    for i in 0..count {
        let kind = r.u8()?;
        let body_len = r.len()?;
        let start = r.pos;
        r.take(body_len)?;
        let mut body = Reader::at(&content[..r.pos], start);
        items.push(r_entry(&mut body, kind)?);
        if !body.is_done() {
            return Err(corrupt(format!(
                "entry {i}: frame declares {body_len} bytes, decoder consumed {}",
                body.pos - start
            )));
        }
    }
    if !r.is_done() {
        return Err(corrupt("trailing garbage after last entry"));
    }
    Ok((pin, items))
}

impl From<ReadError> for SnapshotError {
    fn from(e: ReadError) -> SnapshotError {
        corrupt(match e {
            ReadError::Short { want, at } => format!("truncated: wanted {want} bytes at {at}"),
            ReadError::Varint => "varint overflows u64".to_string(),
            ReadError::Len { len, .. } => format!("length {len} exceeds remaining input"),
            ReadError::Utf8 => "invalid utf-8 in string".to_string(),
        })
    }
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

/// Distinguishes the temp files of concurrent writers within one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` atomically: create the parent directory,
/// write a temp file beside `path`, fsync, rename over `path`. A crash
/// mid-write leaves the previous file (or nothing), never a torn one.
///
/// The temp name carries the pid and a process-wide counter, so two
/// writers of the same `path` — two processes, or two threads of one
/// process such as in-process fleet shards sharing a store — never
/// write, or rename away, each other's temp file.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// Blocking frame reads
// ---------------------------------------------------------------------------

/// Read-ahead granularity of [`FrameReader`].
const READ_CHUNK: usize = 64 * 1024;

/// The receive buffer of one blocking `fpopb/1` byte stream (the client,
/// and both directions of the router).
#[derive(Default)]
pub(crate) struct FrameReader {
    buf: Vec<u8>,
    filled: usize,
}

impl FrameReader {
    /// Blocks on `src` for the next frame.
    ///
    /// * `Ok(Ok(frame))` — one frame.
    /// * `Ok(Err(e))` — a decode error. A recoverable one
    ///   ([`DecodeError::recoverable`]) has already been skipped, so the
    ///   caller may report it and read on; after a fatal one the stream
    ///   is desynced.
    /// * `Err(_)` — the read failed; end of stream is `UnexpectedEof`.
    ///   A read timeout keeps the buffered bytes, so the caller may check
    ///   its stop flag and call again.
    pub(crate) fn next(&mut self, src: &mut impl Read) -> io::Result<Result<Frame, DecodeError>> {
        loop {
            match decode_frame(&self.buf[..self.filled]) {
                Ok(DecodeStep::Ready { frame, consumed }) => {
                    self.skip(consumed);
                    return Ok(Ok(frame));
                }
                Ok(DecodeStep::Incomplete) => {
                    if self.buf.len() < self.filled + READ_CHUNK {
                        self.buf.resize(self.filled + READ_CHUNK, 0);
                    }
                    match src.read(&mut self.buf[self.filled..])? {
                        0 => {
                            return Err(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "peer closed the connection",
                            ))
                        }
                        n => self.filled += n,
                    }
                }
                Err(e) => {
                    if let Some(consumed) = e.recoverable() {
                        self.skip(consumed);
                    }
                    return Ok(Err(e));
                }
            }
        }
    }

    fn skip(&mut self, n: usize) {
        self.buf.copy_within(n..self.filled, 0);
        self.filled -= n;
    }
}

//! The binary wire codec: length-prefixed frames, the binary record
//! primitives, and bit-packed full-state delivery.
//!
//! The line codec is the canonical, human-readable form — it remains
//! the debug/compat path and the on-disk store format. This module adds
//! the second wire format a session can negotiate (`hello
//! codec=binary`): every [`ClientFrame`]/[`ServerFrame`] as a tagged
//! binary record inside a `u32`-length-prefixed frame, capped at
//! [`MAX_FRAME`] so a corrupt prefix cannot make a session allocate
//! unboundedly.
//!
//! The records are not written by hand here: the one schema in
//! [`proto`](crate::proto) declares each variant's tag and typed
//! fields, and every field type writes its record through this
//! module's `Enc`/`Dec` primitives (little-endian `u64`/`u32`,
//! IEEE-754 bit-pattern floats, `u32`-length-prefixed strings and
//! bytes, flag-byte options). [`encode_client`] / [`decode_server`]
//! and friends just walk that schema; decoding rejects trailing bytes
//! and every out-of-range tag, flag or spin. [`FrameBuffer`] cuts a
//! session's byte stream into frames under either codec.
//!
//! The payload that motivates the codec is [`StateBlob`]: a full
//! configuration packed at the width its domain needs, reusing the
//! engine's [`Packing`] rules — two-spin models (Ising, hardcore) ship
//! one **bit** per vertex, `q ≤ 256` colorings one **byte**, and only
//! `q > 256` falls back to full `u32` lanes. A 256×256 torus state is
//! thus 8 KB (Ising) to 64 KB (colorings) instead of 256 KB. Blobs ride
//! in `sample` job results and `stream` job events
//! ([`JobEvent::State`](crate::service::JobEvent::State)); on the text
//! codec they fall back to a base64url token so text sessions stay
//! fully functional.
//!
//! Both codecs answer bit-identical results — property-tested in
//! `tests/codec_identity.rs` the same way remote-vs-local identity is.

use crate::engine::{Packing, StateSlab};
use crate::proto::{ClientFrame, Field, ServerFrame};
use lsl_mrf::Spin;
use std::fmt;
use std::io::{self, Write};
use std::str::FromStr;

/// Upper bound on one binary frame's payload, enforced on both encode
/// and decode, and on one text line. A length prefix above this answers
/// a typed error and the session resynchronizes after the 4 header
/// bytes; an over-long text line answers a typed error and the session
/// resumes after its `\n`.
pub const MAX_FRAME: usize = 16 << 20;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a frame failed to cut or a binary frame failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// A binary length prefix or a text line exceeds [`MAX_FRAME`].
    Oversize {
        /// The claimed payload length, or the line bytes seen so far.
        len: u64,
    },
    /// The payload ended before the record it promised.
    Truncated,
    /// The payload is structurally wrong (bad tag, trailing bytes,
    /// invalid blob, out-of-range spin, …).
    Malformed(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Oversize { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME}")
            }
            CodecError::Truncated => write!(f, "truncated binary frame"),
            CodecError::Malformed(m) => write!(f, "malformed binary frame: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn malformed(m: impl Into<String>) -> CodecError {
    CodecError::Malformed(m.into())
}

// ---------------------------------------------------------------------
// Codec selection
// ---------------------------------------------------------------------

/// Which wire format a session speaks. Sessions start in [`Codec::Text`]
/// and may switch once via the `hello` handshake.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Codec {
    /// The line-delimited text protocol ([`proto`](crate::proto)) —
    /// canonical, debuggable, and the store format.
    #[default]
    Text,
    /// Length-prefixed tagged binary frames — compact, and the only
    /// format that ships [`StateBlob`]s without base64 overhead.
    Binary,
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Codec::Text => write!(f, "text"),
            Codec::Binary => write!(f, "binary"),
        }
    }
}

impl FromStr for Codec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" => Ok(Codec::Text),
            "binary" => Ok(Codec::Binary),
            other => Err(format!("unknown codec {other:?} (expected text | binary)")),
        }
    }
}

// ---------------------------------------------------------------------
// StateBlob: bit-packed configurations on the wire
// ---------------------------------------------------------------------

/// A full configuration packed for the wire at the width its domain
/// needs — the engine's [`Packing::auto_for`] rule applied to transport.
///
/// The packing is a function of `q`, so it is never stored: `q ≤ 2` is
/// one bit per vertex (LSB-first), `q ≤ 256` one byte, larger `q` a
/// `u32` little-endian lane each. Construction validates every spin
/// against `q`, so an unpacked blob is always a legal configuration.
///
/// # Example
/// ```
/// use lsl_core::codec::StateBlob;
/// let blob = StateBlob::pack(&[1, 0, 1, 1], 2);
/// assert_eq!(blob.byte_len(), 1); // four Ising spins in one byte
/// assert_eq!(blob.unpack(), vec![1, 0, 1, 1]);
/// let text = blob.to_token(); // base64url fallback for text sessions
/// assert_eq!(text.parse::<StateBlob>().unwrap(), blob);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateBlob {
    n: usize,
    q: usize,
    bytes: Vec<u8>,
}

impl StateBlob {
    /// Packs a configuration over domain `[0, q)`.
    ///
    /// # Panics
    /// Panics if a spin is `≥ q` (debug builds assert inside the slab;
    /// release builds catch it in the explicit check here).
    pub fn pack(state: &[Spin], q: usize) -> StateBlob {
        let q = q.max(1);
        assert!(
            state.iter().all(|&s| (s as usize) < q),
            "spin out of domain [0, {q})"
        );
        let packing = Packing::auto_for(q);
        let slab = StateSlab::from_spins(packing, state);
        let bytes = match &slab {
            StateSlab::Wide(v) => v.iter().flat_map(|s| s.to_le_bytes()).collect(),
            StateSlab::Byte(v) => v.clone(),
            StateSlab::Bit { words, len } => {
                let mut out = Vec::with_capacity(len.div_ceil(8));
                for word in words {
                    out.extend_from_slice(&word.to_le_bytes());
                }
                out.truncate(len.div_ceil(8));
                out
            }
        };
        StateBlob {
            n: state.len(),
            q,
            bytes,
        }
    }

    /// Rebuilds a blob from wire parts, validating the byte length and
    /// every spin against `q` — a malformed blob is a [`CodecError`],
    /// never a bad configuration.
    pub fn from_parts(n: usize, q: usize, bytes: Vec<u8>) -> Result<StateBlob, CodecError> {
        if q == 0 {
            return Err(malformed("state blob with q=0"));
        }
        let packing = Packing::auto_for(q);
        let expect = match packing {
            Packing::Wide => n.checked_mul(4).ok_or_else(|| malformed("blob overflow"))?,
            Packing::Byte => n,
            Packing::Bit => n.div_ceil(8),
        };
        if bytes.len() != expect {
            return Err(malformed(format!(
                "state blob for n={n} q={q} needs {expect} bytes, got {}",
                bytes.len()
            )));
        }
        let blob = StateBlob { n, q, bytes };
        match packing {
            Packing::Wide | Packing::Byte => {
                for i in 0..n {
                    let s = blob.spin(i);
                    if s as usize >= q {
                        return Err(malformed(format!("spin {s} out of domain [0, {q})")));
                    }
                }
            }
            Packing::Bit => {
                // Spare bits past `n` in the last byte must be zero so
                // blob equality is byte equality.
                let spare = blob.bytes.len() * 8 - n;
                if spare > 0 {
                    let last = blob.bytes[blob.bytes.len() - 1];
                    if last >> (8 - spare) != 0 {
                        return Err(malformed("nonzero spare bits in state blob"));
                    }
                }
                if q == 1 && blob.bytes.iter().any(|&b| b != 0) {
                    return Err(malformed("spin out of domain [0, 1)"));
                }
            }
        }
        Ok(blob)
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Domain size the blob was packed against.
    pub fn q(&self) -> usize {
        self.q
    }

    /// The packing width in use (derived from `q`, never stored).
    pub fn packing(&self) -> Packing {
        Packing::auto_for(self.q)
    }

    /// Packed payload size in bytes — what the binary codec ships.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The raw packed bytes (for `--out` files and size accounting).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The spin at vertex `i`.
    #[inline]
    fn spin(&self, i: usize) -> Spin {
        match self.packing() {
            Packing::Wide => {
                let b = &self.bytes[i * 4..i * 4 + 4];
                u32::from_le_bytes([b[0], b[1], b[2], b[3]])
            }
            Packing::Byte => self.bytes[i] as Spin,
            Packing::Bit => ((self.bytes[i >> 3] >> (i & 7)) & 1) as Spin,
        }
    }

    /// Unpacks back to the flat configuration the sampler produced.
    /// Bit-identical to the packed input (round-trip tested).
    pub fn unpack(&self) -> Vec<Spin> {
        (0..self.n).map(|i| self.spin(i)).collect()
    }
}

/// The text-codec fallback form: `n/q/<base64url>` (no padding). Also
/// what `lsl run --out` writes one-per-line in text mode.
impl fmt::Display for StateBlob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.n, self.q, b64_encode(&self.bytes))
    }
}

impl FromStr for StateBlob {
    type Err = CodecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.splitn(3, '/');
        let (n, q, b64) = match (parts.next(), parts.next(), parts.next()) {
            (Some(n), Some(q), Some(b)) => (n, q, b),
            _ => return Err(malformed(format!("state blob token {s:?}"))),
        };
        let count = |s: &str| <usize as Field>::take_text(s).ok();
        let n = count(n).ok_or_else(|| malformed(format!("blob vertex count {n:?}")))?;
        let q = count(q).ok_or_else(|| malformed(format!("blob domain size {q:?}")))?;
        StateBlob::from_parts(n, q, b64_decode(b64)?)
    }
}

impl StateBlob {
    /// The `n/q/<base64url>` token — alias for the `Display` form,
    /// spelled out at call sites that embed blobs in text frames.
    pub fn to_token(&self) -> String {
        self.to_string()
    }
}

// ---------------------------------------------------------------------
// base64url (no padding) — the text-codec fallback for blob bytes
// ---------------------------------------------------------------------

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        ];
        let v = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        let chars = [
            B64[(v >> 18) as usize & 63],
            B64[(v >> 12) as usize & 63],
            B64[(v >> 6) as usize & 63],
            B64[v as usize & 63],
        ];
        let keep = 1 + chunk.len(); // 2, 3, or 4 output chars
        for &c in &chars[..keep.min(4)] {
            out.push(c as char);
        }
    }
    out
}

fn b64_val(c: u8) -> Result<u32, CodecError> {
    match c {
        b'A'..=b'Z' => Ok(u32::from(c - b'A')),
        b'a'..=b'z' => Ok(u32::from(c - b'a') + 26),
        b'0'..=b'9' => Ok(u32::from(c - b'0') + 52),
        b'-' => Ok(62),
        b'_' => Ok(63),
        other => Err(malformed(format!("base64url byte 0x{other:02x}"))),
    }
}

fn b64_decode(s: &str) -> Result<Vec<u8>, CodecError> {
    let bytes = s.as_bytes();
    if bytes.len() % 4 == 1 {
        return Err(malformed("base64url length ≡ 1 (mod 4)"));
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3 + 2);
    for chunk in bytes.chunks(4) {
        let mut v = 0u32;
        for &c in chunk {
            v = (v << 6) | b64_val(c)?;
        }
        // Bits past the last whole byte must be zero, so each byte
        // string has exactly one token.
        let spare = 6 * chunk.len() - 8 * (chunk.len() - 1);
        if v & ((1 << spare) - 1) != 0 {
            return Err(malformed("nonzero spare bits in base64url"));
        }
        v <<= 6 * (4 - chunk.len());
        out.push((v >> 16) as u8);
        if chunk.len() >= 3 {
            out.push((v >> 8) as u8);
        }
        if chunk.len() == 4 {
            out.push(v as u8);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Binary primitives
// ---------------------------------------------------------------------

/// The binary record writer the [`proto`](crate::proto) field types
/// write into.
pub(crate) struct Enc(Vec<u8>);

impl Enc {
    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("payload under 4 GiB"));
        self.0.extend_from_slice(v);
    }

    pub(crate) fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// The binary record reader: every read is bounds-checked, so a short
/// or hostile payload is a [`CodecError`], never a panic.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(len).ok_or(CodecError::Truncated)?;
        let out = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| malformed("count overflows usize"))
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    pub(crate) fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| malformed("non-UTF-8 string"))
    }
}

// ---------------------------------------------------------------------
// Frame records
// ---------------------------------------------------------------------

/// Decodes one whole record of `F`, rejecting trailing bytes.
pub(crate) fn decode<F: Field<Value = F>>(bytes: &[u8]) -> Result<F, CodecError> {
    let mut d = Dec { buf: bytes, pos: 0 };
    let value = F::take_bin(&mut d)?;
    if d.pos == bytes.len() {
        Ok(value)
    } else {
        Err(malformed(format!(
            "{} trailing bytes after record",
            bytes.len() - d.pos
        )))
    }
}

fn encode<F: Field<Value = F>>(frame: &F) -> Vec<u8> {
    let mut e = Enc(Vec::new());
    F::put_bin(frame, &mut e);
    e.0
}

/// Encodes a client frame as one tagged binary record (no length
/// prefix — pair with [`write_frame`]).
pub fn encode_client(frame: &ClientFrame) -> Vec<u8> {
    encode(frame)
}

/// Decodes one client frame record, rejecting trailing bytes.
pub fn decode_client(bytes: &[u8]) -> Result<ClientFrame, CodecError> {
    decode(bytes)
}

/// Encodes a server frame as one tagged binary record.
pub fn encode_server(frame: &ServerFrame) -> Vec<u8> {
    encode(frame)
}

/// Decodes one server frame record, rejecting trailing bytes.
pub fn decode_server(bytes: &[u8]) -> Result<ServerFrame, CodecError> {
    decode(bytes)
}

// ---------------------------------------------------------------------
// The frame layer
// ---------------------------------------------------------------------

/// Fills in the `u32` length prefix reserved at the front of `buf`.
/// Errors if the payload exceeds [`MAX_FRAME`] — encode-side
/// enforcement of the same cap decoding applies.
fn prefixed(mut buf: Vec<u8>) -> io::Result<Vec<u8>> {
    let len = buf.len() - 4;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            CodecError::Oversize { len: len as u64 }.to_string(),
        ));
    }
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(buf)
}

/// One binary frame ready for the socket: the length prefix and the
/// record, encoded into one buffer.
pub(crate) fn framed<F: Field<Value = F>>(frame: &F) -> io::Result<Vec<u8>> {
    let mut e = Enc(vec![0; 4]);
    F::put_bin(frame, &mut e);
    prefixed(e.0)
}

/// Writes one length-prefixed frame: a little-endian `u32` payload
/// length, then the payload — as a **single** `write_all`, so an
/// unbuffered socket sees one packet, not a 4-byte runt that Nagle +
/// delayed-ACK would stall on. Errors past [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut buf = vec![0; 4];
    buf.extend_from_slice(payload);
    w.write_all(&prefixed(buf)?)
}

/// Incremental frame cutting for a session's read loop: feed whatever
/// bytes arrive with [`FrameBuffer::extend`], pull complete frames with
/// [`FrameBuffer::next_as`] — length-prefixed payloads on a binary
/// session, `\n`-terminated lines on a text one. Bytes buffered across
/// a codec switch are cut under the new codec. Both cuts are bounded by
/// [`MAX_FRAME`], so no peer can grow the buffer without limit.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Inside an over-cap text line: drop bytes through its `\n`.
    skip_line: bool,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends raw bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (complete frames not yet pulled plus
    /// any partial tail).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pops the next complete frame under `codec`: a binary payload
    /// ([`FrameBuffer::next_frame`]) or a text line without its `\n`
    /// ([`FrameBuffer::next_line`]). `Ok(None)` if more bytes are needed.
    pub fn next_as(&mut self, codec: Codec) -> Result<Option<Vec<u8>>, CodecError> {
        match codec {
            Codec::Binary => self.next_frame(),
            Codec::Text => self.next_line(),
        }
    }

    /// Pops the next `\n`-terminated line without its `\n`, `Ok(None)`
    /// if more bytes are needed. A line longer than [`MAX_FRAME`]
    /// returns [`CodecError::Oversize`] once and is discarded through
    /// its `\n` — even before that `\n` arrives — so the session can
    /// answer a typed error and resume at the next line.
    pub fn next_line(&mut self) -> Result<Option<Vec<u8>>, CodecError> {
        let newline = self.buf.iter().position(|&b| b == b'\n');
        if self.skip_line {
            let Some(pos) = newline else {
                self.buf.clear();
                return Ok(None);
            };
            self.buf.drain(..=pos);
            self.skip_line = false;
            return self.next_line();
        }
        match newline {
            Some(pos) if pos <= MAX_FRAME => {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop();
                Ok(Some(line))
            }
            Some(pos) => {
                self.buf.drain(..=pos);
                Err(CodecError::Oversize { len: pos as u64 })
            }
            None if self.buf.len() > MAX_FRAME => {
                let len = self.buf.len() as u64;
                self.buf.clear();
                self.skip_line = true;
                Err(CodecError::Oversize { len })
            }
            None => Ok(None),
        }
    }

    /// Pops the next complete binary frame payload, `Ok(None)` if more
    /// bytes are needed. An over-cap length prefix returns
    /// [`CodecError::Oversize`] after consuming only the 4 header
    /// bytes, so the session can answer a typed error and resume
    /// parsing at the next byte.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, CodecError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME {
            self.buf.drain(..4);
            return Err(CodecError::Oversize { len: len as u64 });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_packs_at_domain_width() {
        // Ising: bits.
        let ising = StateBlob::pack(&[1, 0, 1, 1, 0, 0, 0, 1, 1], 2);
        assert_eq!(ising.packing(), Packing::Bit);
        assert_eq!(ising.byte_len(), 2);
        assert_eq!(ising.unpack(), vec![1, 0, 1, 1, 0, 0, 0, 1, 1]);
        // Colorings: bytes.
        let col = StateBlob::pack(&[4, 0, 255], 256);
        assert_eq!(col.packing(), Packing::Byte);
        assert_eq!(col.byte_len(), 3);
        assert_eq!(col.unpack(), vec![4, 0, 255]);
        // Huge domains: u32 lanes.
        let wide = StateBlob::pack(&[300, 0], 1000);
        assert_eq!(wide.packing(), Packing::Wide);
        assert_eq!(wide.byte_len(), 8);
        assert_eq!(wide.unpack(), vec![300, 0]);
    }

    #[test]
    fn blob_token_round_trips() {
        for (state, q) in [
            (vec![], 2),
            (vec![0], 1),
            (vec![1, 0, 1], 2),
            (vec![9, 3, 0, 7], 10),
            (vec![70000, 5], 100_000),
        ] {
            let blob = StateBlob::pack(&state, q);
            let token = blob.to_token();
            let back: StateBlob = token.parse().expect("token parses");
            assert_eq!(back, blob, "token {token}");
            assert_eq!(back.unpack(), state);
        }
    }

    #[test]
    fn blob_rejects_bad_parts() {
        assert!(StateBlob::from_parts(4, 0, vec![]).is_err(), "q=0");
        assert!(StateBlob::from_parts(4, 3, vec![1, 2]).is_err(), "short");
        assert!(
            StateBlob::from_parts(2, 3, vec![1, 3]).is_err(),
            "spin ≥ q in byte lanes"
        );
        assert!(
            StateBlob::from_parts(3, 2, vec![0b1111]).is_err(),
            "nonzero spare bits"
        );
        assert!(
            StateBlob::from_parts(8, 1, vec![1]).is_err(),
            "spin ≥ q in bit lanes"
        );
        assert!("2/2".parse::<StateBlob>().is_err(), "missing payload");
        assert!("x/2/AA".parse::<StateBlob>().is_err(), "bad count");
        assert!("8/2/A%".parse::<StateBlob>().is_err(), "bad base64url");
    }

    #[test]
    fn base64url_round_trips() {
        for len in 0..40usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let enc = b64_encode(&bytes);
            assert!(
                enc.bytes()
                    .all(|c| c.is_ascii_alphanumeric() || c == b'-' || c == b'_'),
                "alphabet stays URL-safe"
            );
            assert_eq!(b64_decode(&enc).unwrap(), bytes, "len {len}");
        }
        assert!(b64_decode("AAAAA").is_err(), "length 5 is impossible");
    }

    #[test]
    fn frame_buffer_reassembles_and_resyncs() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"second").unwrap();

        let mut fb = FrameBuffer::new();
        // Feed byte by byte: frames reassemble across arbitrary splits.
        let mut got = Vec::new();
        for &b in &wire {
            fb.extend(&[b]);
            while let Some(frame) = fb.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, vec![b"first".to_vec(), Vec::new(), b"second".to_vec()]);

        // An over-cap prefix errors once, consumes 4 bytes, and the
        // next well-formed frame still parses.
        fb.extend(&(u32::MAX).to_le_bytes());
        let mut after = Vec::new();
        write_frame(&mut after, b"ok").unwrap();
        fb.extend(&after);
        assert_eq!(
            fb.next_frame(),
            Err(CodecError::Oversize {
                len: u64::from(u32::MAX)
            })
        );
        assert_eq!(fb.next_frame().unwrap(), Some(b"ok".to_vec()));
    }

    #[test]
    fn oversize_payload_refuses_to_encode() {
        let huge = vec![0u8; MAX_FRAME + 1];
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &huge).is_err());
        assert!(sink.is_empty(), "nothing written on refusal");
    }

    #[test]
    fn truncated_records_are_truncated_errors() {
        let frame = ClientFrame::Submit {
            id: 7,
            spec: "graph=cycle:8 model=ising:beta=0.2".into(),
        };
        let bytes = encode_client(&frame);
        for cut in 0..bytes.len() {
            let err = decode_client(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated | CodecError::Malformed(_)),
                "cut {cut}: {err}"
            );
        }
        assert_eq!(decode_client(&bytes).unwrap(), frame);
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut bytes = encode_client(&ClientFrame::Shutdown);
        bytes.push(0);
        assert!(matches!(
            decode_client(&bytes),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn codec_names_round_trip() {
        for c in [Codec::Text, Codec::Binary] {
            assert_eq!(c.to_string().parse::<Codec>().unwrap(), c);
        }
        assert!("gzip".parse::<Codec>().is_err());
    }
}

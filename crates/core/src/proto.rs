//! The wire vocabulary, declared once: every frame, event, output and
//! error token of the job protocol, with the one schema that drives
//! both wire formats.
//!
//! A session speaks two frame alphabets:
//!
//! * [`ClientFrame`] — client → server: `submit id=<id> spec=<line>`,
//!   `cancel id=<id>`, `shutdown`, `hello codec=<name>`,
//!   `ping nonce=<n>`, and the cluster frames `shard-init id=<id>
//!   shard=<s> of=<k> spec=<line>` / `shard-sync id=<id> round=<r>
//!   blob=<n/q/base64url>`;
//! * [`ServerFrame`] — server → client: `submitted id=<id> jobs=<n>`,
//!   `event id=<id> index=<k> <event>` (one member job's
//!   [`JobEvent`]), `error id=<id|-> message=<..>` (a typed protocol
//!   error; the session stays alive), `hello codec=<name>`,
//!   `pong nonce=<n>`, and the cluster answers `shard-sync` /
//!   `shard-done id=<id> rounds=<r> blob=<..>`.
//!
//! ## One declaration per variant
//!
//! The `wire!` tables below list, for every variant of [`ClientFrame`],
//! [`ServerFrame`], [`JobEvent`], [`JobOutput`], [`SpecError`],
//! [`BuildError`] and [`RejectReason`], its text name, its binary tag
//! and its typed fields in order. Both codecs walk that one list:
//!
//! * **text** (this module's `Display`/`FromStr`, the line protocol and
//!   the store format): the name, then each field as `key=value` (or a
//!   bare value) — space-separated in frames and events,
//!   `name:k=v,k=v` in outputs and error tokens;
//! * **binary** ([`codec`](crate::codec)): the tag byte, then each
//!   field's fixed record. Error tokens have no tags: they cross the
//!   binary wire as their text token.
//!
//! Each field type implements its text token and binary record once
//! (`u64` decimal / 8 bytes LE, `f64` shortest round-trip / IEEE bits,
//! escaped strings, rest-of-line `spec=`, `Option` as `-` / a flag
//! byte, [`StateBlob`] as `n/q/base64url` / packed bytes, …). Decoding
//! is strict: a text or binary form decodes only if re-encoding the
//! value gives back exactly the input, so `parse ∘ print = id` and the
//! wire forms are canonical (`tests/proto_roundtrip.rs`,
//! `tests/hostile_wire.rs`).
//!
//! **Adding a frame**: add the variant to its enum, add one row to its
//! `wire!` table (name, tag, fields), and add one golden row to
//! `tests/wire_golden.rs` pinning its text line and binary record.
//!
//! ## Event ordering over the wire
//!
//! Frames of *different* jobs interleave arbitrarily (they race on the
//! session writer), but frames of one `(id, index)` job preserve the
//! service's stream order: `accepted`, `started`, monotone `progress`,
//! then exactly one terminal `finished`/`failed`/`cancelled` — or a
//! lone terminal `rejected <reason>` when admission refused the member
//! ([`RejectReason`]). The `submitted` ack always precedes every event
//! of its `id`.

use crate::codec::{Codec, CodecError, Dec, Enc, StateBlob};
use crate::lifecycle::RejectReason;
use crate::sampler::{Algorithm, BuildError};
use crate::service::JobEvent;
use crate::spec::{CommSummary, JobOutput, JobResult, SpecError};
use std::fmt::{self, Write as _};
use std::marker::PhantomData;
use std::str::FromStr;

/// Why a frame failed to parse. The receiving end answers with an
/// `error` frame and keeps the session — a malformed line must never
/// tear down a connection carrying other in-flight jobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// What was wrong with the frame.
    pub message: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed frame: {}", self.message)
    }
}

impl std::error::Error for WireError {}

pub(crate) fn wire_err(message: impl Into<String>) -> WireError {
    WireError {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------
// Token escaping
// ---------------------------------------------------------------------

/// Whether [`escape`] writes `byte` as `%XX`.
fn escaped(byte: u8) -> bool {
    // Pushing a non-ASCII byte as a `char` would Latin-1-widen it
    // (mojibake after decode); everything outside printable ASCII is
    // escaped instead.
    matches!(byte, b'%' | b',' | b'=' | b':')
        || byte.is_ascii_whitespace()
        || byte.is_ascii_control()
        || !byte.is_ascii()
}

/// Percent-escapes `s` into a single ASCII frame token: `%`,
/// separators (whitespace, `,`, `=`, `:`), control bytes, and every
/// non-ASCII byte become `%XX`, so the result splits cleanly on any
/// separator and survives any transport. [`unescape`] inverts exactly
/// (escaped bytes are UTF-8, reassembled on decode).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for byte in s.bytes() {
        if escaped(byte) {
            let _ = write!(out, "%{byte:02X}");
        } else {
            out.push(byte as char);
        }
    }
    out
}

/// Inverts [`escape`], accepting only what `escape` produces.
///
/// # Errors
/// A [`WireError`] on a truncated or non-hex `%XX` sequence, a raw byte
/// that `escape` would have escaped, or an escape it would not write.
pub fn unescape(s: &str) -> Result<String, WireError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| wire_err(format!("truncated escape in {s:?}")))?;
            let byte = std::str::from_utf8(hex)
                .ok()
                .filter(|h| h.bytes().all(|c| matches!(c, b'0'..=b'9' | b'A'..=b'F')))
                .and_then(|h| u8::from_str_radix(h, 16).ok())
                .filter(|&b| escaped(b))
                .ok_or_else(|| wire_err(format!("bad escape in {s:?}")))?;
            out.push(byte);
            i += 3;
        } else if escaped(bytes[i]) {
            return Err(wire_err(format!("unescaped byte in {s:?}")));
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| wire_err("escape decodes to invalid utf-8"))
}

// ---------------------------------------------------------------------
// Field types: one text token and one binary record each
// ---------------------------------------------------------------------

/// A field type's text token and binary record. `Value` is the Rust
/// type it carries; marker types ([`Line`], [`Esc`], [`Hex`], …) give
/// one Rust type several wire spellings.
pub(crate) trait Field {
    /// The carried Rust type.
    type Value;
    /// The token runs to the end of the frame (it may contain the
    /// field separator), so it must be the variant's last field.
    const REST: bool = false;
    fn put_text(v: &Self::Value, out: &mut String);
    fn take_text(s: &str) -> Result<Self::Value, WireError>;
    /// Leave the field out of the text form entirely (trailing
    /// optionals only).
    fn omit(_: &Self::Value) -> bool {
        false
    }
    /// The value of a trailing field the text form left out.
    fn absent() -> Option<Self::Value> {
        None
    }
    /// The binary record; by default the text token as a string, which
    /// is how error tokens cross the binary wire.
    fn put_bin(v: &Self::Value, e: &mut Enc) {
        let mut token = String::new();
        Self::put_text(v, &mut token);
        e.str(&token);
    }
    fn take_bin(d: &mut Dec<'_>) -> Result<Self::Value, CodecError> {
        Self::take_text(d.str()?).map_err(|e| CodecError::Malformed(e.to_string()))
    }
}

/// Writes a text form: an optional name, then `key=value` fields (bare
/// values for an empty key), the first after the head separator and
/// the rest after the field separator.
struct TextOut<'a> {
    out: &'a mut String,
    next: Option<char>,
    sep: char,
}

impl<'a> TextOut<'a> {
    fn new(out: &'a mut String, name: Option<(&str, char)>, sep: char) -> Self {
        let next = name.map(|(name, head)| {
            out.push_str(name);
            head
        });
        TextOut { out, next, sep }
    }

    fn field<F: Field>(&mut self, key: &str, v: &F::Value) {
        if F::omit(v) {
            return;
        }
        if let Some(c) = self.next {
            self.out.push(c);
        }
        self.next = Some(self.sep);
        if !key.is_empty() {
            self.out.push_str(key);
            self.out.push('=');
        }
        F::put_text(v, self.out);
    }
}

/// Reads the fields [`TextOut`] wrote, in order; [`TextIn::finish`]
/// rejects anything left over.
struct TextIn<'a> {
    rest: Option<&'a str>,
    sep: char,
}

impl<'a> TextIn<'a> {
    fn new(rest: Option<&'a str>, sep: char) -> Self {
        TextIn { rest, sep }
    }

    fn field<F: Field>(&mut self, key: &str) -> Result<F::Value, WireError> {
        let Some(rest) = self.rest else {
            return F::absent().ok_or_else(|| wire_err(format!("missing field {key:?}")));
        };
        let (token, tail) = match rest.split_once(self.sep) {
            Some((token, tail)) if !F::REST => (token, Some(tail)),
            _ => (rest, None),
        };
        self.rest = tail;
        let value = if key.is_empty() {
            token
        } else {
            token
                .strip_prefix(key)
                .and_then(|v| v.strip_prefix('='))
                .ok_or_else(|| wire_err(format!("expected {key}=.., got {token:?}")))?
        };
        F::take_text(value)
    }

    fn finish(self) -> Result<(), WireError> {
        match self.rest {
            None => Ok(()),
            Some(extra) => Err(wire_err(format!("unexpected trailing {extra:?}"))),
        }
    }
}

/// Decimal unsigned integers; leading zeros and signs are not
/// canonical.
macro_rules! int_field {
    ($($t:ty => $put:ident, $take:ident);* $(;)?) => {$(
        impl Field for $t {
            type Value = $t;
            fn put_text(v: &$t, out: &mut String) {
                let _ = write!(out, "{v}");
            }
            fn take_text(s: &str) -> Result<$t, WireError> {
                let canonical = !(s.starts_with('+') || (s.len() > 1 && s.starts_with('0')));
                s.parse()
                    .ok()
                    .filter(|_| canonical)
                    .ok_or_else(|| wire_err(format!("bad number {s:?}")))
            }
            fn put_bin(v: &$t, e: &mut Enc) {
                e.$put(*v as _);
            }
            fn take_bin(d: &mut Dec<'_>) -> Result<$t, CodecError> {
                d.$take()
            }
        }
    )*};
}

int_field! {
    u64 => u64, u64;
    u32 => u32, u32;
    usize => u64, usize;
}

impl Field for bool {
    type Value = bool;
    fn put_text(v: &bool, out: &mut String) {
        out.push_str(if *v { "true" } else { "false" });
    }
    fn take_text(s: &str) -> Result<bool, WireError> {
        s.parse().map_err(|_| wire_err(format!("bad bool {s:?}")))
    }
    fn put_bin(v: &bool, e: &mut Enc) {
        e.u8(u8::from(*v));
    }
    fn take_bin(d: &mut Dec<'_>) -> Result<bool, CodecError> {
        match d.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Malformed(format!("bool byte 0x{other:02x}"))),
        }
    }
}

/// Shortest round-trip `Display` in text (so results cross the wire
/// bit-identically, NaN as `NaN`), IEEE-754 bits in binary.
impl Field for f64 {
    type Value = f64;
    fn put_text(v: &f64, out: &mut String) {
        let _ = write!(out, "{v}");
    }
    fn take_text(s: &str) -> Result<f64, WireError> {
        let v: f64 = s
            .parse()
            .map_err(|_| wire_err(format!("bad number {s:?}")))?;
        let mut canonical = String::with_capacity(s.len());
        f64::put_text(&v, &mut canonical);
        if canonical == s {
            Ok(v)
        } else {
            Err(wire_err(format!("non-canonical number {s:?}")))
        }
    }
    fn put_bin(v: &f64, e: &mut Enc) {
        e.u64(v.to_bits());
    }
    fn take_bin(d: &mut Dec<'_>) -> Result<f64, CodecError> {
        Ok(f64::from_bits(d.u64()?))
    }
}

/// A `u64` fingerprint: 16 lowercase hex digits in text.
pub(crate) struct Hex;

impl Field for Hex {
    type Value = u64;
    fn put_text(v: &u64, out: &mut String) {
        let _ = write!(out, "{v:016x}");
    }
    fn take_text(s: &str) -> Result<u64, WireError> {
        let canonical = s.len() == 16 && s.bytes().all(|c| matches!(c, b'0'..=b'9' | b'a'..=b'f'));
        u64::from_str_radix(s, 16)
            .ok()
            .filter(|_| canonical)
            .ok_or_else(|| wire_err(format!("bad fingerprint {s:?}")))
    }
    fn put_bin(v: &u64, e: &mut Enc) {
        e.u64(*v);
    }
    fn take_bin(d: &mut Dec<'_>) -> Result<u64, CodecError> {
        d.u64()
    }
}

/// A verbatim string running to the end of the frame (`spec=` lines
/// contain spaces).
pub(crate) struct Line;

impl Field for Line {
    type Value = String;
    const REST: bool = true;
    fn put_text(v: &String, out: &mut String) {
        out.push_str(v);
    }
    fn take_text(s: &str) -> Result<String, WireError> {
        Ok(s.to_string())
    }
    fn put_bin(v: &String, e: &mut Enc) {
        e.str(v);
    }
    fn take_bin(d: &mut Dec<'_>) -> Result<String, CodecError> {
        Ok(d.str()?.to_string())
    }
}

/// A free-form string as one [`escape`]d token.
pub(crate) struct Esc;

impl Field for Esc {
    type Value = String;
    fn put_text(v: &String, out: &mut String) {
        out.push_str(&escape(v));
    }
    fn take_text(s: &str) -> Result<String, WireError> {
        unescape(s)
    }
    fn put_bin(v: &String, e: &mut Enc) {
        e.str(v);
    }
    fn take_bin(d: &mut Dec<'_>) -> Result<String, CodecError> {
        Ok(d.str()?.to_string())
    }
}

/// `&'static str` fields, one marker type per closed set: statics
/// cannot be minted from wire bytes, so only the strings the crate
/// actually produces decode (anything else is a [`WireError`] or the
/// set's fallback — never a leak).
macro_rules! statics {
    ($($(#[$doc:meta])* $M:ident = $all:expr, $fallback:expr;)*) => {$(
        $(#[$doc])*
        pub(crate) struct $M;

        impl Field for $M {
            type Value = &'static str;
            fn put_text(v: &&'static str, out: &mut String) {
                out.push_str(&escape(v));
            }
            fn take_text(s: &str) -> Result<&'static str, WireError> {
                let s = unescape(s)?;
                $all.iter()
                    .find(|&&k| k == s)
                    .copied()
                    .or($fallback)
                    .ok_or_else(|| wire_err(format!("unknown static string {s:?}")))
            }
        }
    )*};
}

/// Every `what` the facade puts into [`BuildError::UnsupportedOnCsp`],
/// plus two it no longer sends (CSP distribution jobs and replica
/// batches now run), kept so stored and older peers' frames decode.
const KNOWN_WHATS: &[&str] = &[
    "LocalMetropolis",
    "LocalMetropolis(no rule 3)",
    "LubyGlauber",
    "Glauber",
    "Metropolis",
    "the distribution job",
    "the tv job",
    "the tv_curve job",
    "the coalescence job",
    "replica batching",
];

statics! {
    /// The keys [`SpecError::MissingKey`] names.
    MissingKeys = crate::spec::REQUIRED_KEYS, None;
    /// The kinds [`SpecError::UnknownScenario`] names.
    ScenarioKinds = crate::spec::SCENARIO_KINDS, None;
    /// Unlike the small closed `key`/`kind` vocabularies, the `what`
    /// set grows with the facade; an unrecognized value (a newer
    /// server) degrades to a generic static instead of failing the
    /// frame — one drifted string must not cost a client its whole
    /// session of results.
    Whats = KNOWN_WHATS, Some("a job the remote end rejected");
}

impl Field for Algorithm {
    type Value = Algorithm;
    fn put_text(v: &Algorithm, out: &mut String) {
        let _ = write!(out, "{v}");
    }
    fn take_text(s: &str) -> Result<Algorithm, WireError> {
        s.parse().map_err(wire_err)
    }
}

/// The codec's name in text; one byte in binary.
impl Field for Codec {
    type Value = Codec;
    fn put_text(v: &Codec, out: &mut String) {
        let _ = write!(out, "{v}");
    }
    fn take_text(s: &str) -> Result<Codec, WireError> {
        s.parse().map_err(wire_err)
    }
    fn put_bin(v: &Codec, e: &mut Enc) {
        e.u8(match v {
            Codec::Text => 0,
            Codec::Binary => 1,
        });
    }
    fn take_bin(d: &mut Dec<'_>) -> Result<Codec, CodecError> {
        match d.u8()? {
            0 => Ok(Codec::Text),
            1 => Ok(Codec::Binary),
            other => Err(CodecError::Malformed(format!("codec byte 0x{other:02x}"))),
        }
    }
}

/// `n/q/base64url` in text; `n`, `q` and the packed bytes in binary.
impl Field for StateBlob {
    type Value = StateBlob;
    fn put_text(v: &StateBlob, out: &mut String) {
        let _ = write!(out, "{v}");
    }
    fn take_text(s: &str) -> Result<StateBlob, WireError> {
        s.parse().map_err(|e: CodecError| wire_err(e.to_string()))
    }
    fn put_bin(v: &StateBlob, e: &mut Enc) {
        e.u64(v.n() as u64);
        e.u64(v.q() as u64);
        e.bytes(v.bytes());
    }
    fn take_bin(d: &mut Dec<'_>) -> Result<StateBlob, CodecError> {
        let n = d.usize()?;
        let q = d.usize()?;
        StateBlob::from_parts(n, q, d.bytes()?.to_vec())
    }
}

/// Blob tokens joined by `;` in text (their alphabet is free of every
/// separator); a `u32` count then the records in binary.
impl Field for Vec<StateBlob> {
    type Value = Vec<StateBlob>;
    fn put_text(v: &Vec<StateBlob>, out: &mut String) {
        for (i, blob) in v.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            StateBlob::put_text(blob, out);
        }
    }
    fn take_text(s: &str) -> Result<Vec<StateBlob>, WireError> {
        if s.is_empty() {
            return Ok(Vec::new());
        }
        s.split(';').map(StateBlob::take_text).collect()
    }
    fn put_bin(v: &Vec<StateBlob>, e: &mut Enc) {
        e.u32(u32::try_from(v.len()).expect("replica count fits u32"));
        for blob in v {
            StateBlob::put_bin(blob, e);
        }
    }
    fn take_bin(d: &mut Dec<'_>) -> Result<Vec<StateBlob>, CodecError> {
        let count = d.u32()? as usize;
        let mut states = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            states.push(StateBlob::take_bin(d)?);
        }
        Ok(states)
    }
}

/// `-` for `None` in text; a flag byte then the value in binary.
impl<F: Field> Field for Option<F> {
    type Value = Option<F::Value>;
    fn put_text(v: &Option<F::Value>, out: &mut String) {
        match v {
            Some(v) => F::put_text(v, out),
            None => out.push('-'),
        }
    }
    fn take_text(s: &str) -> Result<Option<F::Value>, WireError> {
        match s {
            "-" => Ok(None),
            s => F::take_text(s).map(Some),
        }
    }
    fn put_bin(v: &Option<F::Value>, e: &mut Enc) {
        match v {
            Some(v) => {
                e.u8(1);
                F::put_bin(v, e);
            }
            None => e.u8(0),
        }
    }
    fn take_bin(d: &mut Dec<'_>) -> Result<Option<F::Value>, CodecError> {
        match d.u8()? {
            0 => Ok(None),
            1 => F::take_bin(d).map(Some),
            other => Err(CodecError::Malformed(format!("option flag 0x{other:02x}"))),
        }
    }
}

/// A trailing optional: left out of the text form when `None`; binary
/// as `Option`.
pub(crate) struct Tail<F>(PhantomData<F>);

impl<F: Field> Field for Tail<F> {
    type Value = Option<F::Value>;
    fn put_text(v: &Option<F::Value>, out: &mut String) {
        if let Some(v) = v {
            F::put_text(v, out);
        }
    }
    fn take_text(s: &str) -> Result<Option<F::Value>, WireError> {
        F::take_text(s).map(Some)
    }
    fn omit(v: &Option<F::Value>) -> bool {
        v.is_none()
    }
    fn absent() -> Option<Option<F::Value>> {
        Some(None)
    }
    fn put_bin(v: &Option<F::Value>, e: &mut Enc) {
        Option::<F>::put_bin(v, e);
    }
    fn take_bin(d: &mut Dec<'_>) -> Result<Option<F::Value>, CodecError> {
        Option::<F>::take_bin(d)
    }
}

/// `rounds/messages/bytes/changed` in text; four `u64`s in binary.
impl Field for CommSummary {
    type Value = CommSummary;
    fn put_text(c: &CommSummary, out: &mut String) {
        let mut w = TextOut::new(out, None, '/');
        for count in [
            c.rounds_seen,
            c.total_messages,
            c.total_bytes,
            c.total_changed,
        ] {
            w.field::<u64>("", &count);
        }
    }
    fn take_text(s: &str) -> Result<CommSummary, WireError> {
        let mut r = TextIn::new(Some(s), '/');
        let c = CommSummary {
            rounds_seen: r.field::<u64>("")?,
            total_messages: r.field::<u64>("")?,
            total_bytes: r.field::<u64>("")?,
            total_changed: r.field::<u64>("")?,
        };
        r.finish()?;
        Ok(c)
    }
    fn put_bin(c: &CommSummary, e: &mut Enc) {
        for count in [
            c.rounds_seen,
            c.total_messages,
            c.total_bytes,
            c.total_changed,
        ] {
            e.u64(count);
        }
    }
    fn take_bin(d: &mut Dec<'_>) -> Result<CommSummary, CodecError> {
        Ok(CommSummary {
            rounds_seen: d.u64()?,
            total_messages: d.u64()?,
            total_bytes: d.u64()?,
            total_changed: d.u64()?,
        })
    }
}

/// The text form is `elapsed=<secs> output=<output> spec=<canonical
/// spec line>` (the spec runs to the end of the line); the binary
/// record is the spec, the elapsed bits, then the output.
impl Field for JobResult {
    type Value = JobResult;
    const REST: bool = true;
    fn put_text(v: &JobResult, out: &mut String) {
        let mut w = TextOut::new(out, None, ' ');
        w.field::<f64>("elapsed", &v.elapsed_secs);
        w.field::<JobOutput>("output", &v.output);
        w.field::<Line>("spec", &v.spec);
    }
    fn take_text(s: &str) -> Result<JobResult, WireError> {
        let mut r = TextIn::new(Some(s), ' ');
        let result = JobResult {
            elapsed_secs: r.field::<f64>("elapsed")?,
            output: r.field::<JobOutput>("output")?,
            spec: r.field::<Line>("spec")?,
        };
        r.finish()?;
        Ok(result)
    }
    fn put_bin(v: &JobResult, e: &mut Enc) {
        Line::put_bin(&v.spec, e);
        f64::put_bin(&v.elapsed_secs, e);
        JobOutput::put_bin(&v.output, e);
    }
    fn take_bin(d: &mut Dec<'_>) -> Result<JobResult, CodecError> {
        let spec = Line::take_bin(d)?;
        let elapsed_secs = f64::take_bin(d)?;
        Ok(JobResult {
            spec,
            output: JobOutput::take_bin(d)?,
            elapsed_secs,
        })
    }
}

// ---------------------------------------------------------------------
// The schema
// ---------------------------------------------------------------------

/// Declares one enum's wire forms:
///
/// ```text
/// wire! { Type, '<head sep>' '<field sep>', "<what>", rest: <bool>, tagged {
///     Variant "name" TAG { field: FieldType, other "key": FieldType },
///     Tuple "name" TAG { 0 binding: FieldType },
/// } }
/// ```
///
/// A field's text key defaults to its name (`""` writes a bare value;
/// tuple payloads are bare). `tagged` enums write a tag byte and the
/// fields' records in binary; `token` enums (no tags) cross the binary
/// wire as their text token, and may end with one `Variant _ { 0
/// binding: FieldType }` row whose payload is written in place of the
/// variant, without a name of its own. `rest` marks a type that runs to
/// the end of an enclosing frame.
macro_rules! wire {
    ($T:ident, $head:literal $sep:literal, $what:literal, rest: $rest:literal, tagged {
        $($V:ident $name:tt $tag:literal {
            $($f:tt $($b:ident)? $($key:literal)? : $c:ty),* $(,)?
        }),* $(,)?
    }) => {
        wire!(@impl $T, $head $sep, $what, $rest, {
            $($V $name { $($f $($b)? $($key)? : $c),* }),*
        }, {
            fn put_bin(v: &$T, e: &mut Enc) {
                match v {
                    $($T::$V { $($f: wire!(@bind $f $($b)?)),* } => {
                        e.u8($tag);
                        $(<$c as Field>::put_bin(wire!(@bind $f $($b)?), e);)*
                    })*
                }
            }
            fn take_bin(d: &mut Dec<'_>) -> Result<$T, CodecError> {
                Ok(match d.u8()? {
                    $($tag => $T::$V { $($f: <$c as Field>::take_bin(d)?),* },)*
                    tag => {
                        return Err(CodecError::Malformed(format!(
                            concat!($what, " tag 0x{:02x}"),
                            tag
                        )))
                    }
                })
            }
        });
    };
    ($T:ident, $head:literal $sep:literal, $what:literal, rest: $rest:literal, token {
        $($V:ident $name:tt {
            $($f:tt $($b:ident)? $($key:literal)? : $c:ty),* $(,)?
        }),* $(,)?
    }) => {
        wire!(@impl $T, $head $sep, $what, $rest, {
            $($V $name { $($f $($b)? $($key)? : $c),* }),*
        }, {});
    };
    (@impl $T:ident, $head:literal $sep:literal, $what:literal, $rest:literal, {
        $($V:ident $name:tt { $($f:tt $($b:ident)? $($key:literal)? : $c:ty),* }),*
    }, { $($binary:tt)* }) => {
        impl Field for $T {
            type Value = $T;
            const REST: bool = $rest;
            fn put_text(v: &$T, out: &mut String) {
                match v {
                    $($T::$V { $($f: wire!(@bind $f $($b)?)),* } => {
                        #[allow(unused_mut, unused_variables)]
                        let mut w = wire!(@out out $name $head $sep);
                        $(w.field::<$c>(wire!(@key $f $($key)?), wire!(@bind $f $($b)?));)*
                    })*
                }
            }
            fn take_text(s: &str) -> Result<$T, WireError> {
                let (name, rest) = match s.split_once($head) {
                    Some((name, rest)) => (name, Some(rest)),
                    None => (s, None),
                };
                #[allow(unreachable_patterns)]
                let value = match name {
                    $($name => {
                        #[allow(unused_mut)]
                        let mut r = wire!(@in s rest $name $sep);
                        let value = $T::$V { $($f: r.field::<$c>(wire!(@key $f $($key)?))?),* };
                        r.finish()?;
                        value
                    })*
                    other => {
                        return Err(wire_err(format!(concat!("unknown ", $what, " {:?}"), other)))
                    }
                };
                Ok(value)
            }
            $($binary)*
        }
    };
    (@bind $f:tt $b:ident) => { $b };
    (@bind $f:ident) => { $f };
    (@key $f:tt $key:literal) => { $key };
    (@key 0) => { "" };
    (@key $f:ident) => { stringify!($f) };
    (@out $out:ident _ $head:literal $sep:literal) => { TextOut::new($out, None, $sep) };
    (@out $out:ident $name:literal $head:literal $sep:literal) => {
        TextOut::new($out, Some(($name, $head)), $sep)
    };
    (@in $s:ident $rest:ident _ $sep:literal) => { TextIn::new(Some($s), $sep) };
    (@in $s:ident $rest:ident $name:literal $sep:literal) => { TextIn::new($rest, $sep) };
}

wire! { ClientFrame, ' ' ' ', "client frame", rest: false, tagged {
    Submit "submit" 0x01 { id: u64, spec: Line },
    Cancel "cancel" 0x02 { id: u64 },
    Shutdown "shutdown" 0x03 {},
    Hello "hello" 0x04 { codec: Codec },
    Ping "ping" 0x05 { nonce: u64 },
    ShardInit "shard-init" 0x06 { id: u64, shard: u32, of: u32, spec: Line },
    ShardSync "shard-sync" 0x07 { id: u64, round: u64, blob: StateBlob },
} }

wire! { ServerFrame, ' ' ' ', "server frame", rest: false, tagged {
    Submitted "submitted" 0x81 { id: u64, jobs: u64 },
    Event "event" 0x82 { id: u64, index: u64, event "": JobEvent },
    Error "error" 0x83 { id: Option<u64>, message: Esc },
    Hello "hello" 0x84 { codec: Codec },
    Pong "pong" 0x85 { nonce: u64 },
    ShardSync "shard-sync" 0x86 { id: u64, round: u64, blob: StateBlob },
    ShardDone "shard-done" 0x87 { id: u64, rounds: u64, blob: StateBlob },
} }

wire! { JobEvent, ' ' ' ', "event", rest: true, tagged {
    Accepted "accepted" 1 {},
    Rejected "rejected" 2 { reason "": RejectReason },
    Started "started" 3 {},
    Progress "progress" 4 { round: u64, of: u64 },
    Finished "finished" 5 { 0 result: JobResult },
    Failed "failed" 6 { 0 error: SpecError },
    Cancelled "cancelled" 7 {},
    State "state" 8 { round: u64, blob: StateBlob },
} }

wire! { JobOutput, ':' ',', "output kind", rest: false, tagged {
    Run "run" 1 { rounds: u64, n: usize, feasible: bool, fingerprint: Hex, comm: Tail<CommSummary> },
    Distribution "distribution" 2 { replicas: u64, support: usize },
    Tv "tv" 3 { rounds: usize, replicas: usize, tv: f64 },
    Coalescence "coalescence" 4 {
        trials: usize,
        mean_rounds "mean-rounds": f64,
        std_error "std-error": f64,
        timeouts: usize,
    },
    Sample "sample" 5 { rounds: u64, states: Vec<StateBlob> },
    Stream "stream" 6 { rounds: u64, every: usize, n: usize, states: u64, fingerprint: Hex },
} }

wire! { RejectReason, ':' ',', "reject reason", rest: true, token {
    QueueFull "queue-full" { cap: usize },
    SessionBusy "session-busy" { cap: usize },
    RoundBudget "round-budget" { budget: u64, cap: u64 },
    Draining "draining" {},
} }

wire! { SpecError, ':' ',', "error kind", rest: true, token {
    NotKeyValue "not-key-value" { token: Esc },
    UnknownKey "unknown-key" { key: Esc },
    DuplicateKey "duplicate-key" { key: Esc },
    MissingKey "missing-key" { key: MissingKeys },
    UnknownScenario "unknown-scenario" { kind: ScenarioKinds, name: Esc },
    BadValue "bad-value" { key: Esc, message: Esc },
    Unsupported "unsupported" { message: Esc },
    JobPanicked "job-panicked" { message: Esc },
    ServiceStopped "service-stopped" {},
    Cancelled "cancelled" {},
    Rejected "rejected" { 0 reason: RejectReason },
    Combo _ { 0 error: BuildError },
} }

wire! { BuildError, ':' ',', "error kind", rest: true, token {
    ZeroReplicas "combo-zero-replicas" {},
    SchedulerNotApplicable "combo-scheduler" { algorithm: Algorithm },
    InvalidBernoulliProbability "combo-bernoulli" { p: f64 },
    StartLength "combo-start-length" { expected: usize, got: usize },
    StartCount "combo-start-count" { expected: usize, got: usize },
    EmptyModel "combo-empty-model" {},
    StartRequiredForCsp "combo-start-required" {},
    UnsupportedOnCsp "combo-unsupported-on-csp" { what: Whats },
    InvalidHotPath "combo-invalid-hotpath" { reason: Esc },
} }

/// `Display` prints the text wire form; `FromStr` parses exactly that.
macro_rules! text_form {
    ($($T:ty),*) => {$(
        impl fmt::Display for $T {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut s = String::new();
                <$T as Field>::put_text(self, &mut s);
                f.write_str(&s)
            }
        }
        impl FromStr for $T {
            type Err = WireError;
            fn from_str(s: &str) -> Result<Self, WireError> {
                <$T as Field>::take_text(s)
            }
        }
    )*};
}

text_form!(ClientFrame, ServerFrame, JobEvent, JobResult);

/// Parses a [`SpecError`] token (what `failed <error>` events carry):
/// the typed error, not just its message, crosses the wire.
///
/// # Errors
/// A [`WireError`] on an unknown kind, bad arity, or a `&'static str`
/// field whose value the crate never produces.
pub fn decode_spec_error(token: &str) -> Result<SpecError, WireError> {
    SpecError::take_text(token)
}

// ---------------------------------------------------------------------
// Session frames
// ---------------------------------------------------------------------
/// A client → server frame.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientFrame {
    /// Submit a spec (or sweep) line under a client-chosen id; the
    /// server acks with [`ServerFrame::Submitted`] and then streams
    /// one event sequence per member job.
    Submit {
        /// Client-chosen job id (scoped to the session; reusing an id
        /// interleaves two event streams — don't).
        id: u64,
        /// The spec/sweep line, verbatim (parsed server-side).
        spec: String,
    },
    /// Cancel every member job of a previously submitted id. Each
    /// still-unresolved member terminates with
    /// [`JobEvent::Cancelled`]
    /// within one progress interval; an unknown id gets a
    /// [`ServerFrame::Error`] carrying it.
    Cancel {
        /// The submit id to cancel.
        id: u64,
    },
    /// Ask the server to drain and shut down: stop accepting
    /// connections, reject new submissions, let in-flight jobs finish
    /// (or cancel them past the grace deadline), then exit.
    Shutdown,
    /// Negotiate the session's wire format (`hello codec=binary`). The
    /// server acks with [`ServerFrame::Hello`] *in the session's
    /// current codec*, then both directions switch — every frame
    /// before the ack is old-codec, every frame after is new-codec.
    Hello {
        /// The requested codec.
        codec: crate::codec::Codec,
    },
    /// Liveness probe: the server answers immediately with a
    /// [`ServerFrame::Pong`] echoing the nonce, ahead of any queued
    /// work — what a coordinator uses to tell a slow worker from a
    /// dead one.
    Ping {
        /// Caller-chosen nonce, echoed verbatim in the pong.
        nonce: u64,
    },
    /// Open a distributed-shard session: this connection now owns
    /// shard `shard` of `of` of the partition that `spec` describes,
    /// and will exchange per-round boundary states as `shard-sync`
    /// frames until it reports [`ServerFrame::ShardDone`].
    ShardInit {
        /// Coordinator-chosen shard-session id (scoped to the
        /// session, like submit ids).
        id: u64,
        /// The shard this connection owns.
        shard: u32,
        /// Total shard count (the partition's `k`).
        of: u32,
        /// The spec line naming the workload, verbatim (parsed
        /// worker-side; graph, model, rule, and partition are all
        /// derived from it deterministically).
        spec: String,
    },
    /// The coordinator's half of one round barrier: the halo states
    /// (this shard's out-of-shard neighbors, ascending vertex order)
    /// after round `round` committed everywhere.
    ShardSync {
        /// The shard-session id.
        id: u64,
        /// The round these states close (0-based).
        round: u64,
        /// Halo-vertex spins, packed in ascending vertex order.
        blob: crate::codec::StateBlob,
    },
}

/// A server → client frame.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerFrame {
    /// Ack: the submitted line parsed and expanded into `jobs` member
    /// jobs, all enqueued. Precedes every event of its id.
    Submitted {
        /// The echoed submit id.
        id: u64,
        /// Member-job count (1 for a single spec).
        jobs: u64,
    },
    /// One member job's event, tagged with the submit id and the
    /// member's expansion index.
    Event {
        /// The echoed submit id.
        id: u64,
        /// The member's expansion index (0 for a single spec).
        index: u64,
        /// The event.
        event: JobEvent,
    },
    /// A typed protocol error (malformed frame, rejected spec line).
    /// The session stays alive; only the offending frame is dropped.
    Error {
        /// The submit id the error belongs to, when attributable.
        id: Option<u64>,
        /// What was wrong.
        message: String,
    },
    /// Ack of a [`ClientFrame::Hello`]: the codec the session now
    /// speaks. Sent in the codec that was active *before* the switch.
    Hello {
        /// The codec in effect for every subsequent frame.
        codec: crate::codec::Codec,
    },
    /// Answer to a [`ClientFrame::Ping`], echoing its nonce. Sent
    /// inline from the session loop, so it overtakes queued job work.
    Pong {
        /// The echoed nonce.
        nonce: u64,
    },
    /// The worker's half of one round barrier: its boundary-vertex
    /// states (owned vertices with an out-of-shard neighbor, ascending
    /// vertex order) after round `round` committed locally.
    ShardSync {
        /// The shard-session id.
        id: u64,
        /// The round these states close (0-based).
        round: u64,
        /// Boundary-vertex spins, packed in ascending vertex order.
        blob: crate::codec::StateBlob,
    },
    /// A shard session finished: every round ran and these are the
    /// final states of the shard's owned vertices (ascending vertex
    /// order).
    ShardDone {
        /// The shard-session id.
        id: u64,
        /// Total rounds executed (burn-in included).
        rounds: u64,
        /// Owned-vertex spins, packed in ascending vertex order.
        blob: crate::codec::StateBlob,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CommSummary;

    fn result(spec: &str, output: JobOutput) -> JobResult {
        JobResult {
            spec: spec.to_string(),
            output,
            elapsed_secs: 0.25,
        }
    }

    #[test]
    fn known_whats_track_the_facade() {
        // Ties KNOWN_WHATS to the values sampler.rs actually produces:
        // every algorithm name (the `other.name()` rejection path)
        // must decode back to its exact static.
        for alg in [
            Algorithm::LocalMetropolis,
            Algorithm::LocalMetropolisNoRule3,
            Algorithm::LubyGlauber,
            Algorithm::Glauber,
            Algorithm::Metropolis,
        ] {
            assert!(
                KNOWN_WHATS.contains(&alg.name()),
                "add {:?} to KNOWN_WHATS",
                alg.name()
            );
        }
        // And an unknown value degrades to the documented fallback
        // instead of failing the frame.
        let drifted = "combo-unsupported-on-csp:what=some-future-verb";
        match decode_spec_error(drifted).unwrap() {
            SpecError::Combo(BuildError::UnsupportedOnCsp { what }) => {
                assert_eq!(what, "a job the remote end rejected");
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn escape_round_trips() {
        for s in [
            "",
            "plain",
            "a b,c=d:e%f",
            "line\nbreak\ttab",
            "100%,=:%",
            // Non-ASCII must survive byte-exactly (β is two UTF-8
            // bytes; a char-wise escape would mojibake it).
            "β=0.4 and λ≥1 — ünïcode",
        ] {
            assert_eq!(unescape(&escape(s)).unwrap(), s, "{s:?}");
            assert!(escape(s).is_ascii());
            assert!(!escape(s).contains(' '));
        }
        assert!(unescape("bad%zz").is_err());
        assert!(unescape("trunc%2").is_err());
    }

    #[test]
    fn events_round_trip() {
        let comm = CommSummary {
            rounds_seen: 30,
            total_messages: 1200,
            total_bytes: 2400,
            total_changed: 7,
        };
        let events = vec![
            JobEvent::Accepted,
            JobEvent::Started,
            JobEvent::Progress { round: 5, of: 100 },
            JobEvent::Finished(result(
                "graph=torus:6x6 model=coloring:q=12 seed=5 job=run:rounds=30",
                JobOutput::Run {
                    rounds: 30,
                    n: 36,
                    feasible: true,
                    fingerprint: 0xdead_beef,
                    comm: Some(comm),
                },
            )),
            JobEvent::Finished(result(
                "graph=cycle:4 model=coloring:q=3 job=tv:rounds=40,replicas=2000",
                JobOutput::Tv {
                    rounds: 40,
                    replicas: 2000,
                    tv: 0.012_345_678_901_234_5,
                },
            )),
            JobEvent::Failed(SpecError::Combo(BuildError::SchedulerNotApplicable {
                algorithm: Algorithm::Glauber,
            })),
            JobEvent::Failed(SpecError::JobPanicked {
                message: "index out of bounds: the len is 3".into(),
            }),
        ];
        for event in events {
            let printed = event.to_string();
            assert_eq!(printed.parse::<JobEvent>().unwrap(), event, "{printed}");
        }
    }

    #[test]
    fn frames_round_trip() {
        let frames = [
            ServerFrame::Submitted { id: 7, jobs: 32 },
            ServerFrame::Event {
                id: 7,
                index: 31,
                event: JobEvent::Progress { round: 1, of: 2 },
            },
            ServerFrame::Error {
                id: None,
                message: "malformed frame: unknown client frame \"hello\"".into(),
            },
            ServerFrame::Error {
                id: Some(3),
                message: "unknown model \"isng\"".into(),
            },
        ];
        for frame in frames {
            assert_eq!(frame.to_string().parse::<ServerFrame>().unwrap(), frame);
        }
        let submit = ClientFrame::Submit {
            id: 9,
            spec: "graph=cycle:12 model=coloring:q=5 seeds=0..4".into(),
        };
        assert_eq!(submit.to_string().parse::<ClientFrame>().unwrap(), submit);
    }

    #[test]
    fn floats_survive_the_wire_bit_identically() {
        for tv in [0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, 0.0] {
            let r = result(
                "graph=cycle:4 model=coloring:q=3 job=tv:rounds=1,replicas=1",
                JobOutput::Tv {
                    rounds: 1,
                    replicas: 1,
                    tv,
                },
            );
            let back: JobResult = r.to_string().parse().unwrap();
            match back.output {
                JobOutput::Tv { tv: t, .. } => assert_eq!(t.to_bits(), tv.to_bits()),
                _ => unreachable!(),
            }
        }
        // NaN compares unequal but must still cross the wire as NaN.
        let r = result(
            "graph=cycle:4 model=coloring:q=3 job=coalescence:trials=1,max-rounds=1",
            JobOutput::Coalescence {
                trials: 1,
                mean_rounds: f64::NAN,
                std_error: f64::INFINITY,
                timeouts: 1,
            },
        );
        let back: JobResult = r.to_string().parse().unwrap();
        match back.output {
            JobOutput::Coalescence {
                mean_rounds,
                std_error,
                ..
            } => {
                assert!(mean_rounds.is_nan());
                assert_eq!(std_error, f64::INFINITY);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        for bad in [
            "hello",
            "hello codec=morse",
            "hello codec=binary extra=1",
            "submit id=x spec=graph=cycle:3 model=mis",
            "event id=1 index=0 exploded",
            "event id=1 index=0 finished elapsed=zz output=tv:rounds=1,replicas=1,tv=0 spec=x",
            "event id=1 index=0 state round=5 blob=2/3/!!!",
            "error id=7 message=bad%GG",
        ] {
            assert!(bad.parse::<ServerFrame>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn state_outputs_and_events_round_trip() {
        use crate::codec::StateBlob;
        let blob = StateBlob::pack(&[0, 2, 1, 2, 0, 1], 3);
        let wide = StateBlob::pack(&[1, 300, 0, 299], 301);
        let bits = StateBlob::pack(&[1, 0, 1, 1, 0, 0, 1, 0, 1], 2);

        let sample = result(
            "graph=cycle:6 model=coloring:q=3 seed=1 job=sample:rounds=10,count=3",
            JobOutput::Sample {
                rounds: 10,
                states: vec![blob.clone(), wide, bits],
            },
        );
        assert_eq!(sample.to_string().parse::<JobResult>().unwrap(), sample);

        let stream = result(
            "graph=cycle:6 model=coloring:q=3 seed=1 job=stream:rounds=10,every=2",
            JobOutput::Stream {
                rounds: 10,
                every: 2,
                n: 6,
                states: 5,
                fingerprint: 0x0123_4567_89ab_cdef,
            },
        );
        assert_eq!(stream.to_string().parse::<JobResult>().unwrap(), stream);

        let event = JobEvent::State { round: 4, blob };
        assert_eq!(event.to_string().parse::<JobEvent>().unwrap(), event);
    }

    #[test]
    fn hello_frames_round_trip() {
        use crate::codec::Codec;
        for codec in [Codec::Text, Codec::Binary] {
            let client = ClientFrame::Hello { codec };
            assert_eq!(client.to_string().parse::<ClientFrame>().unwrap(), client);
            let server = ServerFrame::Hello { codec };
            assert_eq!(server.to_string().parse::<ServerFrame>().unwrap(), server);
        }
        assert!("hello".parse::<ClientFrame>().is_err(), "codec is required");
    }

    #[test]
    fn cluster_frames_round_trip() {
        use crate::codec::StateBlob;
        let blob = StateBlob::pack(&[0, 2, 1, 2], 3);
        let empty = StateBlob::pack(&[], 3);
        let client_frames = [
            ClientFrame::Ping { nonce: 42 },
            ClientFrame::ShardInit {
                id: 3,
                shard: 1,
                of: 4,
                spec: "graph=torus:6x6 model=coloring:q=12 backend=cluster:4 \
                       job=run:rounds=30"
                    .into(),
            },
            ClientFrame::ShardSync {
                id: 3,
                round: 7,
                blob: blob.clone(),
            },
            ClientFrame::ShardSync {
                id: 3,
                round: 0,
                blob: empty.clone(),
            },
        ];
        for frame in client_frames {
            assert_eq!(frame.to_string().parse::<ClientFrame>().unwrap(), frame);
        }
        let server_frames = [
            ServerFrame::Pong { nonce: 42 },
            ServerFrame::ShardSync {
                id: 3,
                round: 7,
                blob: blob.clone(),
            },
            ServerFrame::ShardDone {
                id: 3,
                rounds: 30,
                blob,
            },
            ServerFrame::ShardSync {
                id: 3,
                round: 0,
                blob: empty,
            },
        ];
        for frame in server_frames {
            assert_eq!(frame.to_string().parse::<ServerFrame>().unwrap(), frame);
        }
        for bad in [
            "ping",
            "ping nonce=7 extra=1",
            "shard-init id=1 shard=0 of=2",
            "shard-sync id=1 round=0",
            "shard-sync id=1 round=0 blob=2/3/!!!",
        ] {
            assert!(bad.parse::<ClientFrame>().is_err(), "{bad:?}");
        }
        assert!("pong".parse::<ServerFrame>().is_err());
        assert!("shard-done id=1 rounds=2".parse::<ServerFrame>().is_err());
    }
}

//! Decoders on hostile input: arbitrary bytes and mutated frames fed
//! to the binary record decoders, the frame cutter, and the text
//! parsers never panic. Each answer is either a typed error or a frame
//! whose re-encoding is exactly the input — decoding is canonical, so
//! nothing outside the printed vocabulary is silently accepted.
//!
//! The one documented exception is forward compatibility: an unknown
//! `combo-unsupported-on-csp` `what` decodes to a generic fallback,
//! whose re-encoding must then be a fixed point.

use lsl_core::codec::{self, Codec, CodecError, FrameBuffer, StateBlob, MAX_FRAME};
use lsl_core::proto::{ClientFrame, ServerFrame};
use proptest::prelude::*;

/// One valid line per client frame kind.
const CLIENT_LINES: &[&str] = &[
    "submit id=7 spec=graph=cycle:4 model=mis",
    "cancel id=7",
    "shutdown",
    "hello codec=binary",
    "ping nonce=42",
    "shard-init id=3 shard=1 of=2 spec=graph=cycle:4 model=mis",
    "shard-sync id=3 round=5 blob=3/2/Bg",
];

/// One valid line per server frame, event, output and error shape.
const SERVER_LINES: &[&str] = &[
    "submitted id=7 jobs=4",
    "error id=- message=malformed%20frame%3A%20x%20y",
    "error id=3 message=100%25%2C%3D%3A%20%CE%B2",
    "hello codec=text",
    "pong nonce=42",
    "shard-sync id=3 round=5 blob=3/3/AgAB",
    "shard-done id=3 rounds=30 blob=0/2/",
    "event id=1 index=2 accepted",
    "event id=1 index=2 rejected round-budget:budget=500,cap=100",
    "event id=1 index=2 progress round=5 of=100",
    "event id=1 index=2 state round=4 blob=3/1000/AQAAACwBAAAAAAAA",
    "event id=1 index=2 finished elapsed=0.25 output=run:rounds=30,n=4,feasible=false,\
     fingerprint=0123456789abcdef,comm=30/1200/2400/7 spec=graph=cycle:4 model=mis",
    "event id=1 index=2 finished elapsed=0.25 output=tv:rounds=40,replicas=2000,\
     tv=0.30000000000000004 spec=graph=cycle:4 model=mis",
    "event id=1 index=2 finished elapsed=0.25 output=coalescence:trials=1,mean-rounds=NaN,\
     std-error=inf,timeouts=1 spec=graph=cycle:4 model=mis",
    "event id=1 index=2 finished elapsed=0.25 output=sample:rounds=10,states=3/2/BQ;2/5/BAA \
     spec=graph=cycle:4 model=mis",
    "event id=1 index=2 finished elapsed=0.25 output=stream:rounds=10,every=2,n=6,states=5,\
     fingerprint=000000000000feed spec=graph=cycle:4 model=mis",
    "event id=1 index=2 failed rejected:round-budget:budget=5,cap=3",
    "event id=1 index=2 failed unknown-scenario:kind=graph%20family,name=moebius",
    "event id=1 index=2 failed combo-start-length:expected=4,got=3",
    "event id=1 index=2 failed combo-bernoulli:p=1.5",
    "event id=1 index=2 failed combo-unsupported-on-csp:what=the%20tv_curve%20job",
    "event id=1 index=2 cancelled",
];

/// Characters a mutation splices in: digits, separators, escapes,
/// signs, base64url and a non-ASCII scalar.
const ALPHABET: &[char] = &[
    '0', '1', '9', 'a', 'f', 'A', 'F', 'x', '-', '+', '_', '=', ':', ',', ';', '/', ' ', '%', '.',
    'e', '\n', 'β',
];

/// Applies one edit at `at`: replace, insert, delete, or truncate.
fn mutate_chars(line: &str, op: u8, at: usize, pick: usize) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    let at = at % (chars.len() + 1);
    let c = ALPHABET[pick % ALPHABET.len()];
    match op % 4 {
        0 if at < chars.len() => chars[at] = c,
        1 => chars.insert(at, c),
        2 if at < chars.len() => {
            chars.remove(at);
        }
        _ => chars.truncate(at),
    }
    chars.into_iter().collect()
}

fn mutate_bytes(bytes: &[u8], op: u8, at: usize, byte: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = at % (out.len() + 1);
    match op % 4 {
        0 if at < out.len() => out[at] = byte,
        1 => out.insert(at, byte),
        2 if at < out.len() => {
            out.remove(at);
        }
        _ => out.truncate(at),
    }
    out
}

/// The lossy forward-compatibility decode (see the module docs).
fn is_what_fallback(reencoded: &str) -> bool {
    reencoded.contains("what=a%20job%20the%20remote%20end%20rejected")
}

/// A text parse either fails typed or re-prints to exactly its input.
fn check_text_client(line: &str) {
    if let Ok(frame) = line.parse::<ClientFrame>() {
        prop_assert_eq!(frame.to_string(), line);
    }
}

fn check_text_server(line: &str) {
    if let Ok(frame) = line.parse::<ServerFrame>() {
        let printed = frame.to_string();
        if printed != line {
            prop_assert!(
                is_what_fallback(&printed),
                "{:?} re-printed as {:?}",
                line,
                printed
            );
            prop_assert_eq!(printed.parse::<ServerFrame>().unwrap().to_string(), printed);
        }
    }
}

/// A binary decode either fails typed or re-encodes to exactly its
/// input.
fn check_binary(bytes: &[u8]) {
    if let Ok(frame) = codec::decode_client(bytes) {
        prop_assert_eq!(codec::encode_client(&frame), bytes);
    }
    if let Ok(frame) = codec::decode_server(bytes) {
        let again = codec::encode_server(&frame);
        if again != bytes {
            prop_assert!(is_what_fallback(&frame.to_string()));
            prop_assert_eq!(
                codec::encode_server(&codec::decode_server(&again).unwrap()),
                again
            );
        }
    }
}

/// Cuts every frame out of `bytes` fed in `chunk`-sized pieces and
/// checks the cut accounts for every byte.
fn check_cutter(bytes: &[u8], chunk: usize, codec: Codec) {
    let mut fb = FrameBuffer::new();
    let mut consumed = 0usize;
    for piece in bytes.chunks(chunk.max(1)) {
        fb.extend(piece);
        loop {
            match fb.next_as(codec) {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    match codec {
                        Codec::Text => prop_assert!(!frame.contains(&b'\n')),
                        Codec::Binary => prop_assert!(frame.len() <= MAX_FRAME),
                    }
                    consumed += frame.len() + if codec == Codec::Text { 1 } else { 4 };
                }
                Err(CodecError::Oversize { .. }) => consumed += 4,
                Err(e) => prop_assert!(false, "cutting never fails otherwise: {}", e),
            }
        }
    }
    prop_assert_eq!(consumed + fb.len(), bytes.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        chunk in 1usize..16,
    ) {
        check_binary(&bytes);
        check_cutter(&bytes, chunk, Codec::Binary);
        check_cutter(&bytes, chunk, Codec::Text);
        let text = String::from_utf8_lossy(&bytes);
        check_text_client(&text);
        check_text_server(&text);
    }

    #[test]
    fn mutated_text_frames_are_errors_or_canonical(
        pick in any::<usize>(),
        edits in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..4),
    ) {
        let mut client = CLIENT_LINES[pick % CLIENT_LINES.len()].to_string();
        let mut server = SERVER_LINES[pick % SERVER_LINES.len()].to_string();
        for (op, at, c) in edits {
            client = mutate_chars(&client, op, at, c);
            server = mutate_chars(&server, op, at, c);
        }
        check_text_client(&client);
        check_text_server(&server);
    }

    #[test]
    fn mutated_binary_frames_are_errors_or_canonical(
        pick in any::<usize>(),
        edits in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..4),
        chunk in 1usize..64,
    ) {
        let client: ClientFrame = CLIENT_LINES[pick % CLIENT_LINES.len()].parse().unwrap();
        let server: ServerFrame = SERVER_LINES[pick % SERVER_LINES.len()].parse().unwrap();
        for mut bytes in [codec::encode_client(&client), codec::encode_server(&server)] {
            for &(op, at, byte) in &edits {
                bytes = mutate_bytes(&bytes, op, at, byte);
            }
            check_binary(&bytes);
            // The same record behind a length prefix, possibly lying.
            let mut framed = (bytes.len() as u32).to_le_bytes().to_vec();
            framed.extend_from_slice(&bytes);
            let (op, at, byte) = edits[0];
            check_cutter(&mutate_bytes(&framed, op, at, byte), chunk, Codec::Binary);
        }
    }
}

/// Every single-character edit of every seed line, exhaustively: each
/// replacement, insertion and deletion is an error or canonical.
#[test]
fn single_char_edits_of_text_frames_are_errors_or_canonical() {
    for line in CLIENT_LINES.iter().chain(SERVER_LINES) {
        let len = line.chars().count();
        for at in 0..=len {
            for pick in 0..ALPHABET.len() {
                for op in 0..3 {
                    let edited = mutate_chars(line, op, at, pick);
                    check_text_client(&edited);
                    check_text_server(&edited);
                }
            }
        }
    }
}

/// Every single-byte edit of every seed record, exhaustively, over
/// boundary byte values: each is an error or canonical.
#[test]
fn single_byte_edits_of_binary_frames_are_errors_or_canonical() {
    let mut records: Vec<Vec<u8>> = CLIENT_LINES
        .iter()
        .map(|l| codec::encode_client(&l.parse().unwrap()))
        .collect();
    records.extend(
        SERVER_LINES
            .iter()
            .map(|l| codec::encode_server(&l.parse().unwrap())),
    );
    for record in &records {
        for at in 0..=record.len() {
            let here = record.get(at).copied().unwrap_or(0);
            for byte in [
                0,
                1,
                2,
                0x7f,
                0x80,
                0xff,
                here.wrapping_add(1),
                here.wrapping_sub(1),
            ] {
                for op in 0..3 {
                    check_binary(&mutate_bytes(record, op, at, byte));
                }
            }
        }
    }
}

/// The seed lines themselves are canonical in both codecs.
#[test]
fn over_cap_text_lines_are_refused_and_the_session_reads_on() {
    // A line with no `\n` past MAX_FRAME bytes errors once, is
    // discarded through its eventual `\n`, and never grows the buffer
    // past the cap; the next line still parses.
    let mut fb = FrameBuffer::new();
    let chunk = vec![b'x'; 1 << 20];
    let mut refused = 0;
    for _ in 0..(MAX_FRAME / chunk.len()) + 3 {
        fb.extend(&chunk);
        match fb.next_as(Codec::Text) {
            Ok(None) => {}
            Err(CodecError::Oversize { .. }) => refused += 1,
            other => panic!("unexpected cut: {other:?}"),
        }
        assert!(
            fb.len() <= MAX_FRAME + chunk.len(),
            "buffer grew to {}",
            fb.len()
        );
    }
    assert_eq!(refused, 1);
    fb.extend(b"tail of the long line\ncancel id=7\n");
    assert_eq!(fb.next_as(Codec::Text), Ok(Some(b"cancel id=7".to_vec())));
    assert!(fb.is_empty());

    // A complete over-cap line arriving at once is refused the same way.
    let mut long = vec![b'y'; MAX_FRAME + 1];
    long.extend_from_slice(b"\nshutdown\n");
    fb.extend(&long);
    assert_eq!(
        fb.next_as(Codec::Text),
        Err(CodecError::Oversize {
            len: MAX_FRAME as u64 + 1
        })
    );
    assert_eq!(fb.next_as(Codec::Text), Ok(Some(b"shutdown".to_vec())));
}

#[test]
fn seed_lines_round_trip_in_both_codecs() {
    for line in CLIENT_LINES {
        let frame: ClientFrame = line.parse().unwrap();
        assert_eq!(&frame.to_string(), line);
        assert_eq!(
            codec::decode_client(&codec::encode_client(&frame)).unwrap(),
            frame
        );
    }
    for line in SERVER_LINES {
        let frame: ServerFrame = line.parse().unwrap();
        assert_eq!(&frame.to_string(), line);
        let back = codec::decode_server(&codec::encode_server(&frame)).unwrap();
        assert_eq!(back.to_string(), *line);
    }
}

/// Spot checks of inputs the strict decoders refuse: each differs from
/// a canonical form in one way a lenient parser would let through.
#[test]
fn non_canonical_spellings_are_refused() {
    for bad in [
        "cancel id=07",
        "cancel id=+7",
        "shutdown ",
        "shard-sync id=3 round=5 blob=03/2/Bg",
        "shard-sync id=3 round=5 blob=3/2/Bh",
    ] {
        assert!(bad.parse::<ClientFrame>().is_err(), "{bad:?}");
    }
    for bad in [
        "error id=- message=a=b",
        "error id=- message=%2c",
        "error id=- message=%41",
        "event id=1 index=2 finished elapsed=0.250 output=distribution:replicas=9,support=3 spec=x",
        "event id=1 index=2 finished elapsed=0.25 output=run:rounds=1,n=4,feasible=true,\
         fingerprint=DEADBEEF00000000 spec=x",
        "event id=1 index=2 finished elapsed=0.25 output=run:rounds=1,n=4,feasible=true,\
         fingerprint=00000000deadbeef, spec=x",
        "event id=1 index=2 finished elapsed=0.25 output=sample:rounds=10,states=3/2/BQ;; spec=x",
        "event id=1 index=2 failed service-stopped:",
        "event id=1 index=2 failed combo-scheduler:algorithm=Glauber",
    ] {
        assert!(bad.parse::<ServerFrame>().is_err(), "{bad:?}");
    }
    // The blob alphabet's spare bits and counts are canonical too.
    assert!("3/2/Bh".parse::<StateBlob>().is_err());
    assert!("3/2/Bg".parse::<StateBlob>().is_ok());
}

//! Golden wire forms: one fixed text line and one fixed binary record
//! (hex) for every client frame, server frame, job event, job output,
//! and error-token kind. Round-trip tests prove `decode ∘ encode = id`;
//! this table proves the bytes themselves never drift — a store file or
//! a peer on another build must keep reading what this build writes.
//!
//! Adding a frame or variant means adding one row here.

use lsl_core::codec::{self, Codec, StateBlob};
use lsl_core::lifecycle::RejectReason;
use lsl_core::proto::{ClientFrame, ServerFrame};
use lsl_core::sampler::{Algorithm, BuildError};
use lsl_core::service::JobEvent;
use lsl_core::spec::{CommSummary, JobOutput, JobResult, SpecError};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn check_client(frame: &ClientFrame, text: &str, bin: &str) {
    assert_eq!(frame.to_string(), text, "text form of {frame:?}");
    assert_eq!(&text.parse::<ClientFrame>().unwrap(), frame, "{text}");
    assert_eq!(
        hex(&codec::encode_client(frame)),
        bin,
        "binary form of {frame:?}"
    );
    assert_eq!(&codec::decode_client(&unhex(bin)).unwrap(), frame, "{bin}");
}

/// Server frames compare by `Debug` so NaN-carrying rows check too.
fn check_server(frame: &ServerFrame, text: &str, bin: &str) {
    assert_eq!(frame.to_string(), text, "text form of {frame:?}");
    let parsed = text.parse::<ServerFrame>().unwrap();
    assert_eq!(format!("{parsed:?}"), format!("{frame:?}"), "{text}");
    assert_eq!(
        hex(&codec::encode_server(frame)),
        bin,
        "binary form of {frame:?}"
    );
    let decoded = codec::decode_server(&unhex(bin)).unwrap();
    assert_eq!(format!("{decoded:?}"), format!("{frame:?}"), "{bin}");
}

fn event(event: JobEvent) -> ServerFrame {
    ServerFrame::Event {
        id: 1,
        index: 2,
        event,
    }
}

fn finished(output: JobOutput) -> ServerFrame {
    event(JobEvent::Finished(JobResult {
        spec: "graph=cycle:4 model=mis".into(),
        output,
        elapsed_secs: 0.25,
    }))
}

fn failed(e: SpecError) -> ServerFrame {
    event(JobEvent::Failed(e))
}

#[test]
fn client_frames_have_golden_wire_forms() {
    let rows: Vec<(ClientFrame, &str, &str)> = vec![
        (
            ClientFrame::Submit {
                id: 7,
                spec: "graph=cycle:4 model=mis".into(),
            },
            "submit id=7 spec=graph=cycle:4 model=mis",
            "0107000000000000001700000067726170683d6379636c653a34206d6f64656c3d6d6973",
        ),
        (
            ClientFrame::Cancel { id: 7 },
            "cancel id=7",
            "020700000000000000",
        ),
        (ClientFrame::Shutdown, "shutdown", "03"),
        (
            ClientFrame::Hello {
                codec: Codec::Binary,
            },
            "hello codec=binary",
            "0401",
        ),
        (
            ClientFrame::Ping { nonce: 42 },
            "ping nonce=42",
            "052a00000000000000",
        ),
        (
            ClientFrame::ShardInit {
                id: 3,
                shard: 1,
                of: 2,
                spec: "graph=cycle:4 model=mis".into(),
            },
            "shard-init id=3 shard=1 of=2 spec=graph=cycle:4 model=mis",
            "06030000000000000001000000020000001700000067726170683d6379636c65\
             3a34206d6f64656c3d6d6973",
        ),
        (
            ClientFrame::ShardSync {
                id: 3,
                round: 5,
                blob: StateBlob::pack(&[0, 1, 1], 2),
            },
            "shard-sync id=3 round=5 blob=3/2/Bg",
            "0703000000000000000500000000000000030000000000000002000000000000\
             000100000006",
        ),
    ];
    for (frame, text, bin) in &rows {
        check_client(frame, text, bin);
    }
}

#[test]
fn server_frames_have_golden_wire_forms() {
    let rows: Vec<(ServerFrame, &str, &str)> = vec![
        (
            ServerFrame::Submitted { id: 7, jobs: 4 },
            "submitted id=7 jobs=4",
            "8107000000000000000400000000000000",
        ),
        (
            ServerFrame::Error {
                id: None,
                message: "malformed frame: x y".into(),
            },
            "error id=- message=malformed%20frame%3A%20x%20y",
            "8300140000006d616c666f726d6564206672616d653a20782079",
        ),
        (
            ServerFrame::Error {
                id: Some(3),
                message: "100%,=: β".into(),
            },
            "error id=3 message=100%25%2C%3D%3A%20%CE%B2",
            "830103000000000000000a000000313030252c3d3a20ceb2",
        ),
        (
            ServerFrame::Hello { codec: Codec::Text },
            "hello codec=text",
            "8400",
        ),
        (
            ServerFrame::Pong { nonce: 42 },
            "pong nonce=42",
            "852a00000000000000",
        ),
        (
            ServerFrame::ShardSync {
                id: 3,
                round: 5,
                blob: StateBlob::pack(&[2, 0, 1], 3),
            },
            "shard-sync id=3 round=5 blob=3/3/AgAB",
            "8603000000000000000500000000000000030000000000000003000000000000\
             0003000000020001",
        ),
        (
            ServerFrame::ShardDone {
                id: 3,
                rounds: 30,
                blob: StateBlob::pack(&[], 2),
            },
            "shard-done id=3 rounds=30 blob=0/2/",
            "8703000000000000001e00000000000000000000000000000002000000000000\
             0000000000",
        ),
    ];
    for (frame, text, bin) in &rows {
        check_server(frame, text, bin);
    }
}

#[test]
fn job_events_have_golden_wire_forms() {
    let rows: Vec<(ServerFrame, &str, &str)> = vec![
        (
            event(JobEvent::Accepted),
            "event id=1 index=2 accepted",
            "820100000000000000020000000000000001",
        ),
        (
            event(JobEvent::Rejected {
                reason: RejectReason::QueueFull { cap: 64 },
            }),
            "event id=1 index=2 rejected queue-full:cap=64",
            "8201000000000000000200000000000000021100000071756575652d66756c6c\
             3a6361703d3634",
        ),
        (
            event(JobEvent::Started),
            "event id=1 index=2 started",
            "820100000000000000020000000000000003",
        ),
        (
            event(JobEvent::Progress { round: 5, of: 100 }),
            "event id=1 index=2 progress round=5 of=100",
            "82010000000000000002000000000000000405000000000000006400000000000000",
        ),
        (
            finished(JobOutput::Distribution {
                replicas: 9,
                support: 3,
            }),
            "event id=1 index=2 finished elapsed=0.25 output=distribution:replicas=9,support=3 \
             spec=graph=cycle:4 model=mis",
            "8201000000000000000200000000000000051700000067726170683d6379636c\
             653a34206d6f64656c3d6d6973000000000000d03f0209000000000000000300\
             000000000000",
        ),
        (
            failed(SpecError::Cancelled),
            "event id=1 index=2 failed cancelled",
            "8201000000000000000200000000000000060900000063616e63656c6c6564",
        ),
        (
            event(JobEvent::Cancelled),
            "event id=1 index=2 cancelled",
            "820100000000000000020000000000000007",
        ),
        (
            event(JobEvent::State {
                round: 4,
                blob: StateBlob::pack(&[1, 300, 0], 1000),
            }),
            "event id=1 index=2 state round=4 blob=3/1000/AQAAACwBAAAAAAAA",
            "8201000000000000000200000000000000080400000000000000030000000000\
             0000e8030000000000000c000000010000002c01000000000000",
        ),
    ];
    for (frame, text, bin) in &rows {
        check_server(frame, text, bin);
    }
}

#[test]
fn job_outputs_have_golden_wire_forms() {
    let comm = CommSummary {
        rounds_seen: 30,
        total_messages: 1200,
        total_bytes: 2400,
        total_changed: 7,
    };
    let prefix = "event id=1 index=2 finished elapsed=0.25 output=";
    let suffix = " spec=graph=cycle:4 model=mis";
    let rows: Vec<(JobOutput, &str, &str)> = vec![
        (
            JobOutput::Run {
                rounds: 30,
                n: 4,
                feasible: true,
                fingerprint: 0xdead_beef,
                comm: None,
            },
            "run:rounds=30,n=4,feasible=true,fingerprint=00000000deadbeef",
            "8201000000000000000200000000000000051700000067726170683d6379636c\
             653a34206d6f64656c3d6d6973000000000000d03f011e000000000000000400\
             00000000000001efbeadde0000000000",
        ),
        (
            JobOutput::Run {
                rounds: 30,
                n: 4,
                feasible: false,
                fingerprint: 0x0123_4567_89ab_cdef,
                comm: Some(comm),
            },
            "run:rounds=30,n=4,feasible=false,fingerprint=0123456789abcdef,\
             comm=30/1200/2400/7",
            "8201000000000000000200000000000000051700000067726170683d6379636c\
             653a34206d6f64656c3d6d6973000000000000d03f011e000000000000000400\
             00000000000000efcdab8967452301011e00000000000000b004000000000000\
             60090000000000000700000000000000",
        ),
        (
            JobOutput::Distribution {
                replicas: 9,
                support: 3,
            },
            "distribution:replicas=9,support=3",
            "8201000000000000000200000000000000051700000067726170683d6379636c\
             653a34206d6f64656c3d6d6973000000000000d03f0209000000000000000300\
             000000000000",
        ),
        (
            JobOutput::Tv {
                rounds: 40,
                replicas: 2000,
                tv: 0.1 + 0.2,
            },
            "tv:rounds=40,replicas=2000,tv=0.30000000000000004",
            "8201000000000000000200000000000000051700000067726170683d6379636c\
             653a34206d6f64656c3d6d6973000000000000d03f032800000000000000d007\
             000000000000343333333333d33f",
        ),
        (
            JobOutput::Coalescence {
                trials: 1,
                mean_rounds: f64::NAN,
                std_error: f64::INFINITY,
                timeouts: 1,
            },
            "coalescence:trials=1,mean-rounds=NaN,std-error=inf,timeouts=1",
            "8201000000000000000200000000000000051700000067726170683d6379636c\
             653a34206d6f64656c3d6d6973000000000000d03f0401000000000000000000\
             00000000f87f000000000000f07f0100000000000000",
        ),
        (
            JobOutput::Sample {
                rounds: 10,
                states: Vec::new(),
            },
            "sample:rounds=10,states=",
            "8201000000000000000200000000000000051700000067726170683d6379636c\
             653a34206d6f64656c3d6d6973000000000000d03f050a000000000000000000\
             0000",
        ),
        (
            JobOutput::Sample {
                rounds: 10,
                states: vec![StateBlob::pack(&[1, 0, 1], 2), StateBlob::pack(&[4, 0], 5)],
            },
            "sample:rounds=10,states=3/2/BQ;2/5/BAA",
            "8201000000000000000200000000000000051700000067726170683d6379636c\
             653a34206d6f64656c3d6d6973000000000000d03f050a000000000000000200\
             0000030000000000000002000000000000000100000005020000000000000005\
             00000000000000020000000400",
        ),
        (
            JobOutput::Stream {
                rounds: 10,
                every: 2,
                n: 6,
                states: 5,
                fingerprint: 0xfeed,
            },
            "stream:rounds=10,every=2,n=6,states=5,fingerprint=000000000000feed",
            "8201000000000000000200000000000000051700000067726170683d6379636c\
             653a34206d6f64656c3d6d6973000000000000d03f060a000000000000000200\
             00000000000006000000000000000500000000000000edfe000000000000",
        ),
    ];
    for (output, token, bin) in rows {
        check_server(&finished(output), &format!("{prefix}{token}{suffix}"), bin);
    }
}

#[test]
fn error_tokens_have_golden_wire_forms() {
    let mut rows: Vec<(ServerFrame, &str, &str)> = vec![
        (
            event(JobEvent::Rejected {
                reason: RejectReason::SessionBusy { cap: 8 },
            }),
            "event id=1 index=2 rejected session-busy:cap=8",
            "8201000000000000000200000000000000021200000073657373696f6e2d6275\
             73793a6361703d38",
        ),
        (
            event(JobEvent::Rejected {
                reason: RejectReason::RoundBudget {
                    budget: 500,
                    cap: 100,
                },
            }),
            "event id=1 index=2 rejected round-budget:budget=500,cap=100",
            "8201000000000000000200000000000000021f000000726f756e642d62756467\
             65743a6275646765743d3530302c6361703d313030",
        ),
        (
            event(JobEvent::Rejected {
                reason: RejectReason::Draining,
            }),
            "event id=1 index=2 rejected draining",
            "82010000000000000002000000000000000208000000647261696e696e67",
        ),
    ];
    let errors: Vec<(SpecError, &str, &str)> = vec![
        (
            SpecError::NotKeyValue {
                token: "a b".into(),
            },
            "not-key-value:token=a%20b",
            "820100000000000000020000000000000006190000006e6f742d6b65792d7661\
             6c75653a746f6b656e3d6125323062",
        ),
        (
            SpecError::UnknownKey { key: "k".into() },
            "unknown-key:key=k",
            "82010000000000000002000000000000000611000000756e6b6e6f776e2d6b65\
             793a6b65793d6b",
        ),
        (
            SpecError::DuplicateKey { key: "seed".into() },
            "duplicate-key:key=seed",
            "820100000000000000020000000000000006160000006475706c69636174652d\
             6b65793a6b65793d73656564",
        ),
        (
            SpecError::MissingKey { key: "graph" },
            "missing-key:key=graph",
            "820100000000000000020000000000000006150000006d697373696e672d6b65\
             793a6b65793d6772617068",
        ),
        (
            SpecError::UnknownScenario {
                kind: "graph family",
                name: "moebius".into(),
            },
            "unknown-scenario:kind=graph%20family,name=moebius",
            "82010000000000000002000000000000000631000000756e6b6e6f776e2d7363\
             656e6172696f3a6b696e643d677261706825323066616d696c792c6e616d653d\
             6d6f6562697573",
        ),
        (
            SpecError::BadValue {
                key: "graph".into(),
                message: "n=2 < 3".into(),
            },
            "bad-value:key=graph,message=n%3D2%20<%203",
            "820100000000000000020000000000000006290000006261642d76616c75653a\
             6b65793d67726170682c6d6573736167653d6e253344322532303c25323033",
        ),
        (
            SpecError::Unsupported {
                message: "too big".into(),
            },
            "unsupported:message=too%20big",
            "8201000000000000000200000000000000061d000000756e737570706f727465\
             643a6d6573736167653d746f6f253230626967",
        ),
        (
            SpecError::JobPanicked {
                message: "boom".into(),
            },
            "job-panicked:message=boom",
            "820100000000000000020000000000000006190000006a6f622d70616e69636b\
             65643a6d6573736167653d626f6f6d",
        ),
        (
            SpecError::ServiceStopped,
            "service-stopped",
            "8201000000000000000200000000000000060f000000736572766963652d73746f70706564",
        ),
        (
            SpecError::Rejected(RejectReason::RoundBudget { budget: 5, cap: 3 }),
            "rejected:round-budget:budget=5,cap=3",
            "8201000000000000000200000000000000062400000072656a65637465643a72\
             6f756e642d6275646765743a6275646765743d352c6361703d33",
        ),
        (
            SpecError::Combo(BuildError::ZeroReplicas),
            "combo-zero-replicas",
            "82010000000000000002000000000000000613000000636f6d626f2d7a65726f\
             2d7265706c69636173",
        ),
        (
            SpecError::Combo(BuildError::SchedulerNotApplicable {
                algorithm: Algorithm::Glauber,
            }),
            "combo-scheduler:algorithm=glauber",
            "82010000000000000002000000000000000621000000636f6d626f2d73636865\
             64756c65723a616c676f726974686d3d676c6175626572",
        ),
        (
            SpecError::Combo(BuildError::InvalidBernoulliProbability { p: 1.5 }),
            "combo-bernoulli:p=1.5",
            "82010000000000000002000000000000000615000000636f6d626f2d6265726e\
             6f756c6c693a703d312e35",
        ),
        (
            SpecError::Combo(BuildError::StartLength {
                expected: 4,
                got: 3,
            }),
            "combo-start-length:expected=4,got=3",
            "82010000000000000002000000000000000623000000636f6d626f2d73746172\
             742d6c656e6774683a65787065637465643d342c676f743d33",
        ),
        (
            SpecError::Combo(BuildError::StartCount {
                expected: 2,
                got: 1,
            }),
            "combo-start-count:expected=2,got=1",
            "82010000000000000002000000000000000622000000636f6d626f2d73746172\
             742d636f756e743a65787065637465643d322c676f743d31",
        ),
        (
            SpecError::Combo(BuildError::EmptyModel),
            "combo-empty-model",
            "82010000000000000002000000000000000611000000636f6d626f2d656d7074\
             792d6d6f64656c",
        ),
        (
            SpecError::Combo(BuildError::StartRequiredForCsp),
            "combo-start-required",
            "82010000000000000002000000000000000614000000636f6d626f2d73746172\
             742d7265717569726564",
        ),
        (
            SpecError::Combo(BuildError::UnsupportedOnCsp {
                what: "the tv_curve job",
            }),
            "combo-unsupported-on-csp:what=the%20tv_curve%20job",
            "82010000000000000002000000000000000632000000636f6d626f2d756e7375\
             70706f727465642d6f6e2d6373703a776861743d74686525323074765f637572\
             76652532306a6f62",
        ),
        (
            SpecError::Combo(BuildError::InvalidHotPath {
                reason: "bit:q=5".into(),
            }),
            "combo-invalid-hotpath:reason=bit%3Aq%3D5",
            "82010000000000000002000000000000000628000000636f6d626f2d696e7661\
             6c69642d686f74706174683a726561736f6e3d6269742533417125334435",
        ),
    ];
    let texts: Vec<String> = errors
        .iter()
        .map(|(_, token, _)| format!("event id=1 index=2 failed {token}"))
        .collect();
    for ((e, _, bin), text) in errors.into_iter().zip(&texts) {
        rows.push((failed(e), text, bin));
    }
    for (frame, text, bin) in &rows {
        check_server(frame, text, bin);
    }
}

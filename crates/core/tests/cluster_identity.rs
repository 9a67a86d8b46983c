//! The cluster layer's contract: a sweep coordinated over a worker
//! fleet is **bit-identical** to a single-server run — member by
//! member and in aggregate — and a `backend=cluster:k` member executed
//! as cross-process shards is bit-identical to the in-process sharded
//! chain and the sequential baseline, **including** the communication
//! accounting. Worker loss mid-sweep must not change a single bit:
//! lost members are requeued and replayed deterministically.

use lsl_core::cluster::Coordinator;
use lsl_core::net::Server;
use lsl_core::prelude::*;
use proptest::prelude::*;
use std::time::Duration;

/// Spins up `n` loopback workers and a coordinator over them.
fn fleet(n: usize) -> (Vec<Server>, Coordinator) {
    let servers: Vec<Server> = (0..n)
        .map(|_| Server::bind("127.0.0.1:0", 2).unwrap())
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let coord = Coordinator::connect(addrs)
        .unwrap()
        .ping_timeout(Duration::from_secs(10));
    (servers, coord)
}

/// Runs `line` through the coordinator and through a single in-process
/// service, and asserts the aggregates equal (spec string, member
/// results, summary — everything).
fn coordinate_and_compare(coord: &Coordinator, line: &str) {
    let run = coord.run_sweep(line).unwrap();
    let sweep: SweepSpec = line.parse().unwrap();
    let local = Service::new(2).submit_sweep(&sweep).wait().unwrap();
    assert_eq!(run.result, local, "cluster sweep diverged on {line}");
}

/// A seed sweep fanned over two workers equals the single-server
/// aggregate, member order preserved regardless of which worker ran
/// which member.
#[test]
fn coordinator_sweep_matches_single_server() {
    let (_servers, coord) = fleet(2);
    coordinate_and_compare(
        &coord,
        "graph=torus:4x4 model=coloring:q=9 job=run:rounds=30 seeds=0..6",
    );
    coordinate_and_compare(
        &coord,
        "graph=cycle:8 model=ising:beta=0.1 seed=3 job=run:rounds=25 sweep=beta:0.1..0.5:0.1",
    );
    // Measurement jobs and CSP scenarios ride the plain path.
    coordinate_and_compare(
        &coord,
        "graph=cycle:5 model=hardcore:lambda=1.5 job=distribution:rounds=30,replicas=400 \
         seeds=0..3",
    );
    coordinate_and_compare(&coord, "graph=cycle:7 model=mis seed=8 job=run:rounds=40");
}

/// The distributed tier: a `backend=cluster:k` member executed as
/// cross-process shards equals the direct in-process run *exactly* —
/// same fingerprint, same rounds, and the same `CommSummary` (the
/// coordinator replays the channel accounting bit-for-bit).
#[test]
fn cluster_backend_matches_in_process_run() {
    let (_servers, coord) = fleet(2);
    for (alg, sched) in [
        ("local-metropolis", ""),
        ("luby-glauber", ""),
        ("luby-glauber", " scheduler=singleton"),
        ("luby-glauber", " scheduler=chromatic"),
        ("glauber", ""),
        ("metropolis", ""),
    ] {
        for k in [1, 2, 3] {
            let line = format!(
                "graph=torus:5x5 model=coloring:q=10 algorithm={alg}{sched} \
                 backend=cluster:{k} seed=7 job=run:rounds=30"
            );
            let run = coord.run_sweep(&line).unwrap();
            let direct = line.parse::<JobSpec>().unwrap().run().unwrap();
            assert_eq!(run.result.results[0], direct, "diverged on {line}");
        }
    }
}

/// Partitioners, burn-in, and the bit-packed Ising exchange all cross
/// the processes unchanged.
#[test]
fn cluster_backend_matches_across_partitioners_and_burn_in() {
    let (_servers, coord) = fleet(3);
    for partitioner in ["contiguous", "bfs", "greedy"] {
        let line = format!(
            "graph=torus:5x5 model=ising:beta=0.4 backend=cluster:3 \
             partitioner={partitioner} burn-in=10 seed=5 job=run:rounds=30"
        );
        let run = coord.run_sweep(&line).unwrap();
        let direct = line.parse::<JobSpec>().unwrap().run().unwrap();
        assert_eq!(run.result.results[0], direct, "diverged on {line}");
    }
}

/// The trajectory is backend-independent: `cluster:k` over the wire,
/// `sharded:k` in-process, and plain sequential all land on the same
/// fingerprint (only the comm accounting differs across backends).
#[test]
fn cluster_trajectory_equals_sequential() {
    let (_servers, coord) = fleet(2);
    let cluster_line =
        "graph=torus:5x5 model=coloring:q=10 backend=cluster:4 seed=11 job=run:rounds=40";
    let run = coord.run_sweep(cluster_line).unwrap();
    let JobOutput::Run {
        fingerprint: fp_cluster,
        comm: Some(_),
        ..
    } = run.result.results[0].output
    else {
        panic!("expected a run output with comm stats");
    };
    for backend in ["sequential", "sharded:4"] {
        let line = format!(
            "graph=torus:5x5 model=coloring:q=10 backend={backend} seed=11 job=run:rounds=40"
        );
        let direct = line.parse::<JobSpec>().unwrap().run().unwrap();
        let JobOutput::Run { fingerprint, .. } = direct.output else {
            panic!("expected a run output");
        };
        assert_eq!(fp_cluster, fingerprint, "trajectory diverged vs {backend}");
    }
}

/// A sweep mixing distributed and plain members aggregates exactly
/// like the single-server run (the distributed members fall back to
/// the in-process sharded chain worker-side, which is bit-identical).
#[test]
fn mixed_sweep_matches_single_server() {
    let (_servers, coord) = fleet(2);
    coordinate_and_compare(
        &coord,
        "graph=torus:4x4 model=coloring:q=9 backend=cluster:2 job=run:rounds=30 seeds=0..4",
    );
}

/// Fault injection, plain tier: kill one of two workers mid-sweep;
/// the lost members are requeued onto the survivor and the aggregate
/// still equals the single-server answer bit-for-bit.
#[test]
fn sweep_survives_worker_loss() {
    let mut servers = Vec::new();
    for _ in 0..2 {
        servers.push(Server::bind("127.0.0.1:0", 2).unwrap());
    }
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let coord = Coordinator::connect(addrs)
        .unwrap()
        .ping_timeout(Duration::from_secs(10));
    let victim = servers.pop().unwrap();
    let killer = std::thread::spawn(move || {
        let mut victim = victim;
        std::thread::sleep(Duration::from_millis(80));
        victim.shutdown(Duration::ZERO);
    });
    let line = "graph=torus:6x6 model=coloring:q=10 job=run:rounds=150 seeds=0..8";
    let run = coord.run_sweep(line).unwrap();
    killer.join().unwrap();
    let sweep: SweepSpec = line.parse().unwrap();
    let local = Service::new(2).submit_sweep(&sweep).wait().unwrap();
    assert_eq!(run.result, local, "worker loss changed the aggregate");
}

/// Fault injection, distributed tier: kill one of two workers while
/// `backend=cluster:3` members run as cross-process shards; the
/// coordinator benches the dead worker, replays the member on the
/// survivor, and the answer is unchanged.
#[test]
fn distributed_member_survives_worker_loss() {
    let mut servers = Vec::new();
    for _ in 0..2 {
        servers.push(Server::bind("127.0.0.1:0", 2).unwrap());
    }
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let coord = Coordinator::connect(addrs)
        .unwrap()
        .ping_timeout(Duration::from_secs(10));
    let victim = servers.pop().unwrap();
    let killer = std::thread::spawn(move || {
        let mut victim = victim;
        std::thread::sleep(Duration::from_millis(60));
        victim.shutdown(Duration::ZERO);
    });
    let line =
        "graph=torus:6x6 model=coloring:q=10 backend=cluster:3 job=run:rounds=200 seeds=0..3";
    let run = coord.run_sweep(line).unwrap();
    killer.join().unwrap();
    let sweep: SweepSpec = line.parse().unwrap();
    let local = Service::new(2).submit_sweep(&sweep).wait().unwrap();
    assert_eq!(run.result, local, "worker loss changed the aggregate");
}

/// Typed fast failures: an empty fleet and an unreachable worker are
/// both reported before any work is attempted.
#[test]
fn connect_failures_are_typed() {
    let none: Vec<String> = Vec::new();
    assert!(matches!(
        Coordinator::connect(none),
        Err(lsl_core::cluster::ClusterError::NoWorkers)
    ));
    // A port nothing listens on: bind-then-drop reserves one.
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let err = match Coordinator::connect([addr]) {
        Err(e) => e,
        Ok(_) => panic!("connecting to a dead address should fail"),
    };
    match err {
        lsl_core::cluster::ClusterError::Connect(e) => {
            assert!(e.attempts >= 1);
        }
        other => panic!("expected a connect error, got {other}"),
    }
}

/// Deterministic member errors come back exactly as a single server
/// reports them — as `Spec` errors, not fleet faults.
#[test]
fn member_errors_match_single_server() {
    let (_servers, coord) = fleet(2);
    // `tv` needs exact enumeration; this state space is far too big.
    let line = "graph=torus:6x6 model=coloring:q=10 seed=1 job=tv:rounds=10,replicas=10";
    let cluster_err = match coord.run_sweep(line) {
        Err(lsl_core::cluster::ClusterError::Spec(e)) => e,
        other => panic!("expected a spec error, got {other:?}"),
    };
    let sweep: SweepSpec = line.parse().unwrap();
    let local_err = Service::new(2).submit_sweep(&sweep).wait().unwrap_err();
    assert_eq!(cluster_err.to_string(), local_err.to_string());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized spot-check: random workload × shard count × fleet
    /// size, coordinated and direct, must agree exactly — the
    /// distributed tier when the rule allows it, the plain tier
    /// otherwise.
    #[test]
    fn cluster_identity_randomized(
        gsize in 4usize..7,
        alg_ix in 0usize..4,
        k in 1usize..5,
        workers in 1usize..4,
        seed in 0u64..10_000,
        rounds in 10usize..50,
    ) {
        let algorithm = ["local-metropolis", "luby-glauber", "glauber", "metropolis"][alg_ix];
        let line = format!(
            "graph=torus:{gsize}x{gsize} model=coloring:q=11 algorithm={algorithm} \
             backend=cluster:{k} seed={seed} job=run:rounds={rounds}"
        );
        let direct = line.parse::<JobSpec>().unwrap().run().unwrap();
        let (_servers, coord) = fleet(workers);
        let run = coord.run_sweep(&line).unwrap();
        prop_assert_eq!(&run.result.results[0], &direct, "cluster diverged on {}", line);
    }
}

/// A shard-sync halo must be packed at the model's `q`. A blob at a
/// larger `q` carries spins outside the domain (here spin 2 into an
/// Ising shard); the worker answers with a typed `error` frame instead
/// of writing it into the shard's slab.
#[test]
fn worker_rejects_a_halo_packed_at_the_wrong_q() {
    use lsl_core::proto::ServerFrame;
    use std::io::{BufRead, BufReader, Write};
    let server = Server::bind("127.0.0.1:0", 1).unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut lines = BufReader::new(stream.try_clone().unwrap()).lines();
    let mut next = || -> ServerFrame { lines.next().unwrap().unwrap().parse().unwrap() };
    // path:4 in two contiguous shards: shard 0 owns {0, 1}, its halo is {2}.
    let spec = "graph=path:4 model=ising:beta=0.4 backend=cluster:2 job=run:rounds=3";
    writeln!(stream, "shard-init id=1 shard=0 of=2 spec={spec}").unwrap();
    assert!(matches!(
        next(),
        ServerFrame::ShardSync {
            id: 1,
            round: 0,
            ..
        }
    ));
    let bad = StateBlob::pack(&[2], 3);
    writeln!(stream, "shard-sync id=1 round=0 blob={bad}").unwrap();
    match next() {
        ServerFrame::Error {
            id: Some(1),
            message,
        } => {
            assert!(message.contains("q=3"), "{message}");
        }
        other => panic!("expected a typed error, got {other}"),
    }
}

/// The coordinator side of the same check: a worker whose shard-sync
/// frontier is packed at the wrong `q` is a protocol fault (the member
/// is replayed elsewhere, here exhausting a one-worker fleet), never a
/// coordinator panic.
#[test]
fn coordinator_rejects_a_frontier_packed_at_the_wrong_q() {
    use lsl_core::codec::{decode_client, encode_server, write_frame, FrameBuffer};
    use lsl_core::proto::{ClientFrame, ServerFrame};
    use std::io::{BufRead, BufReader, Read, Write};

    // A fake worker: acks the binary handshake, answers pings, and
    // opens every shard session with a frontier blob at q = 3.
    fn serve(stream: std::net::TcpStream) {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut hello = String::new();
        if reader.read_line(&mut hello).unwrap_or(0) == 0 {
            return;
        }
        let mut out = stream;
        writeln!(
            out,
            "{}",
            ServerFrame::Hello {
                codec: Codec::Binary
            }
        )
        .unwrap();
        let mut buf = FrameBuffer::new();
        let mut chunk = [0u8; 4096];
        loop {
            while let Ok(Some(payload)) = buf.next_frame() {
                let reply = match decode_client(&payload).unwrap() {
                    ClientFrame::Ping { nonce } => ServerFrame::Pong { nonce },
                    ClientFrame::ShardInit { id, .. } => ServerFrame::ShardSync {
                        id,
                        round: 0,
                        blob: StateBlob::pack(&[2], 3),
                    },
                    _ => continue,
                };
                if write_frame(&mut out, &encode_server(&reply)).is_err() {
                    return;
                }
            }
            match reader.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend(&chunk[..n]),
            }
        }
    }
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            std::thread::spawn(move || serve(stream));
        }
    });
    let coord = Coordinator::connect([addr])
        .unwrap()
        .attempts(1)
        .ping_timeout(Duration::from_secs(10));
    let line = "graph=path:4 model=ising:beta=0.4 backend=cluster:2 job=run:rounds=3";
    assert!(matches!(
        coord.run_sweep(line),
        Err(lsl_core::cluster::ClusterError::Exhausted { .. })
    ));
}

//! Golden trajectories: one spec line per row with the exact answer it
//! must produce — the run fingerprint and, on sharded backends, the
//! boundary-communication totals. The identity suites prove the
//! backends agree with each other; this table proves none of them
//! drifts from the answers an earlier build gave.
//!
//! MRF rows are never edited: a changed MRF row is a changed chain. CSP
//! rows change only when CSP round keying changes on purpose, and every
//! such re-pin is listed in CHANGES.md with its old and new value.

use lsl_core::spec::{fingerprint, JobOutput, JobSpec};

/// The pinned form of one job's answer: the run/stream line as `lsl
/// run` prints it (fingerprint and comm totals included), and for
/// sample jobs the fingerprint of every shipped state.
fn render(output: &JobOutput) -> String {
    match output {
        JobOutput::Run { comm: Some(c), .. } => {
            format!("{output} rounds_seen={}", c.rounds_seen)
        }
        JobOutput::Sample { rounds, states } => {
            let prints: Vec<String> = states
                .iter()
                .map(|b| format!("{:016x}", fingerprint(&b.unpack())))
                .collect();
            format!("sample: rounds={rounds} fingerprints={}", prints.join(","))
        }
        _ => output.to_string(),
    }
}

fn check(rows: &[(&str, &str)]) {
    let mut wrong = Vec::new();
    for &(line, want) in rows {
        let spec: JobSpec = line.parse().unwrap_or_else(|e| panic!("{line}: {e}"));
        let got = render(&spec.run().unwrap_or_else(|e| panic!("{line}: {e}")).output);
        if got != want {
            wrong.push(format!(
                "    (\n        {line:?},\n        {got:?},\n    ),"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} row(s) drifted; current answers:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

/// Every algorithm; LubyGlauber under all four schedulers; the
/// sequential, parallel, sharded and in-process cluster backends; the
/// scalar oracle and the lane default; run, sample and stream jobs.
const MRF: &[(&str, &str)] = &[
    (
        "graph=torus:8x8 model=coloring:q=12 seed=3 job=run:rounds=40",
        "run: rounds=40 n=64 feasible=true fingerprint=d816384259b4eb88",
    ),
    (
        "graph=torus:8x8 model=coloring:q=12 seed=3 hotpath=scalar job=run:rounds=40",
        "run: rounds=40 n=64 feasible=true fingerprint=d816384259b4eb88",
    ),
    (
        "graph=torus:8x8 model=ising:beta=0.4 algorithm=local-metropolis-no-rule3 seed=7 job=run:rounds=30",
        "run: rounds=30 n=64 feasible=true fingerprint=87b7abff769987b4",
    ),
    (
        "graph=cycle:12 model=coloring:q=5 algorithm=luby-glauber seed=1 job=run:rounds=50",
        "run: rounds=50 n=12 feasible=true fingerprint=b6d38235bca0aa46",
    ),
    (
        "graph=cycle:12 model=coloring:q=5 algorithm=luby-glauber scheduler=singleton seed=1 job=run:rounds=50",
        "run: rounds=50 n=12 feasible=true fingerprint=441c3cd9427127c2",
    ),
    (
        "graph=cycle:12 model=coloring:q=5 algorithm=luby-glauber scheduler=bernoulli:0.3 seed=1 job=run:rounds=50",
        "run: rounds=50 n=12 feasible=true fingerprint=83ea7f55f48e3163",
    ),
    (
        "graph=cycle:12 model=coloring:q=5 algorithm=luby-glauber scheduler=chromatic seed=1 job=run:rounds=50",
        "run: rounds=50 n=12 feasible=true fingerprint=84f71f462cfe61d5",
    ),
    (
        "graph=grid:4x5 model=hardcore:lambda=1.5 algorithm=luby-glauber hotpath=scalar seed=5 job=run:rounds=40",
        "run: rounds=40 n=20 feasible=true fingerprint=7ee60a51acf7fce5",
    ),
    (
        "graph=torus:6x6 model=potts:q=3,beta=0.8 algorithm=luby-glauber seed=2 job=run:rounds=40",
        "run: rounds=40 n=36 feasible=true fingerprint=dadb94518b70a8d6",
    ),
    (
        "graph=torus:6x6 model=coloring:q=9 algorithm=glauber seed=4 job=run:rounds=200",
        "run: rounds=200 n=36 feasible=true fingerprint=5169cc3dd345aac0",
    ),
    (
        "graph=torus:6x6 model=coloring:q=9 algorithm=metropolis seed=4 job=run:rounds=200",
        "run: rounds=200 n=36 feasible=true fingerprint=bc0d7972d8b36b27",
    ),
    (
        "graph=torus:8x8 model=ising:beta=0.4 backend=parallel:2 seed=7 job=run:rounds=50",
        "run: rounds=50 n=64 feasible=true fingerprint=9770416ed41e0475",
    ),
    (
        "graph=torus:8x8 model=ising:beta=0.4 backend=sharded:3 seed=7 job=run:rounds=50",
        "run: rounds=50 n=64 feasible=true fingerprint=9770416ed41e0475 messages=2400 bytes=300 changed=12 rounds_seen=50",
    ),
    (
        "graph=torus:8x8 model=ising:beta=0.4 backend=cluster:2 seed=7 job=run:rounds=50",
        "run: rounds=50 n=64 feasible=true fingerprint=9770416ed41e0475 messages=1600 bytes=200 changed=8 rounds_seen=50",
    ),
    (
        "graph=torus:8x8 model=coloring:q=12 algorithm=luby-glauber backend=sharded:3 seed=3 job=run:rounds=40",
        "run: rounds=40 n=64 feasible=true fingerprint=b68c950af97ed64f messages=1920 bytes=1920 changed=352 rounds_seen=40",
    ),
    (
        "graph=cycle:20 model=coloring:q=6 algorithm=glauber backend=sharded:3 seed=8 job=run:rounds=120",
        "run: rounds=120 n=20 feasible=true fingerprint=799f604678410474 messages=41 bytes=41 changed=35 rounds_seen=120",
    ),
    (
        "graph=torus:8x8 model=ising:beta=0.4 seed=5 job=sample:rounds=20,count=2",
        "sample: rounds=20 fingerprints=4a370821130c2465,4b42d9cde0c5d0d5",
    ),
    (
        "graph=torus:8x8 model=coloring:q=12 seed=5 job=stream:rounds=30,every=10",
        "stream: rounds=30 every=10 n=64 states=3 fingerprint=a301237e2ee7a4b4",
    ),
];

/// Dominating set and MIS under both CSP algorithms, LubyGlauber under
/// every scheduler.
const CSP: &[(&str, &str)] = &[
    (
        "graph=torus:8x8 model=dominating-set seed=4 job=run:rounds=60",
        "run: rounds=60 n=64 feasible=true fingerprint=4636c35a8ed9c044",
    ),
    (
        "graph=torus:8x8 model=dominating-set scheduler=singleton seed=4 job=run:rounds=60",
        "run: rounds=60 n=64 feasible=true fingerprint=5f3a4436a777dd44",
    ),
    (
        "graph=torus:8x8 model=dominating-set scheduler=bernoulli:0.3 seed=4 job=run:rounds=60",
        "run: rounds=60 n=64 feasible=true fingerprint=ef98b49b18734a94",
    ),
    (
        "graph=torus:8x8 model=dominating-set scheduler=chromatic seed=4 job=run:rounds=60",
        "run: rounds=60 n=64 feasible=true fingerprint=d3521e075a9a36e4",
    ),
    (
        "graph=torus:8x8 model=dominating-set algorithm=local-metropolis seed=4 job=run:rounds=60",
        "run: rounds=60 n=64 feasible=true fingerprint=82e8b513c0180865",
    ),
    (
        "graph=cycle:9 model=mis seed=2",
        "run: rounds=100 n=9 feasible=true fingerprint=a6f4e3eacb7dc635",
    ),
    (
        "graph=cycle:9 model=mis scheduler=singleton seed=2",
        "run: rounds=100 n=9 feasible=true fingerprint=a6f4e3eacb7dc635",
    ),
    (
        "graph=cycle:9 model=mis scheduler=bernoulli:0.3 seed=2",
        "run: rounds=100 n=9 feasible=true fingerprint=a6f4e3eacb7dc635",
    ),
    (
        "graph=cycle:9 model=mis scheduler=chromatic seed=2",
        "run: rounds=100 n=9 feasible=true fingerprint=a6f4e3eacb7dc635",
    ),
    (
        "graph=cycle:9 model=mis algorithm=local-metropolis seed=2",
        "run: rounds=100 n=9 feasible=true fingerprint=a6f4e3eacb7dc635",
    ),
    (
        "graph=path:6 model=dominating-set job=run:rounds=60",
        "run: rounds=60 n=6 feasible=true fingerprint=185add259b3ad3e5",
    ),
];

#[test]
fn mrf_trajectories_are_pinned() {
    check(MRF);
}

#[test]
fn csp_trajectories_are_pinned() {
    check(CSP);
}

//! CLI-level tests of the `lsl` binary: exit codes, failure echoing,
//! sweep output, and the serve/remote loop — what scripts (and CI)
//! rely on.

use lsl::core::proto::ServerFrame;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Output, Stdio};

fn lsl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lsl"))
}

fn run_ok(args: &[&str]) -> Output {
    let out = lsl().args(args).output().expect("spawn lsl");
    assert!(
        out.status.success(),
        "lsl {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// A failing job makes the exit code non-zero and echoes the failing
/// spec on stderr — partial failure must be impossible to miss in
/// scripts.
#[test]
fn failing_job_exits_nonzero_and_echoes_the_spec() {
    let bad = "graph=cycle:8 model=coloring:q=5 algorithm=glauber scheduler=luby";
    let good = "graph=cycle:8 model=coloring:q=5 seed=1 job=run:rounds=10";
    let out = lsl().args(["run", bad, good]).output().expect("spawn lsl");
    assert!(!out.status.success(), "partial failure must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("in spec:"), "stderr: {stderr}");
    assert!(
        stderr.contains("algorithm=glauber scheduler=luby"),
        "the failing spec is echoed: {stderr}"
    );
    // The good job still ran and reported.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("feasible=true"), "stdout: {stdout}");
}

/// A spec that does not parse fails before anything runs.
#[test]
fn parse_errors_fail_fast() {
    let out = lsl()
        .args(["run", "graph=moebius:9", "model=mis"])
        .output()
        .expect("spawn lsl");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("graph family"), "stderr: {stderr}");
}

/// Sweep lines expand, print indexed members, and summarize.
#[test]
fn sweep_lines_report_members_and_summary() {
    let out = run_ok(&[
        "run",
        "graph=cycle:10 model=coloring:q=5 job=run:rounds=10 seeds=0..3",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for i in 0..3 {
        assert!(stdout.contains(&format!("[{i}] ")), "member {i}: {stdout}");
    }
    assert!(stdout.contains("sweep: jobs=3"), "summary: {stdout}");
}

/// `lsl list scenarios` lists every key the parser accepts, the sweep
/// clauses included: the listing walks the same key table.
#[test]
fn scenario_listing_covers_sweeps() {
    let out = run_ok(&["list", "scenarios"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in [
        "graph=",
        "model=",
        "algorithm=",
        "scheduler=",
        "backend=",
        "partitioner=",
        "hotpath=",
        "seed=",
        "graph-seed=",
        "burn-in=",
        "job=",
        "seeds=",
        "sweep=",
    ] {
        assert!(stdout.contains(key), "missing {key}: {stdout}");
    }
}

/// A server child that is killed (and reaped) even if the test panics.
struct ServeGuard(Child);

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `lsl serve` on an ephemeral port; returns the guard and the
/// address scraped from its startup line.
fn serve() -> (ServeGuard, String) {
    let mut child = lsl()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn lsl serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let guard = ServeGuard(child);
    let mut first_line = String::new();
    BufReader::new(stdout)
        .read_line(&mut first_line)
        .expect("read the startup line");
    let addr = first_line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {first_line:?}"))
        .to_string();
    (guard, addr)
}

/// Strips the `  (N.NNNs)` timings off `lsl run` output.
fn strip_timing(out: &[u8]) -> String {
    String::from_utf8_lossy(out)
        .lines()
        .map(|l| match l.find("  (") {
            Some(ix) => &l[..ix],
            None => l,
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The full remote loop as a script would drive it: start `lsl serve`
/// on an ephemeral port, scrape the port from its startup line, run a
/// remote batch (single job + seed sweep), and compare the stdout to
/// the local run of the same lines — identical up to timings.
#[test]
fn serve_and_remote_run_match_local_output() {
    let (guard, addr) = serve();

    let lines = [
        "graph=torus:5x5 model=coloring:q=9 seed=4 job=run:rounds=30",
        "graph=cycle:10 model=coloring:q=5 job=run:rounds=10 seeds=0..3",
    ];
    let mut remote_args = vec!["run", "--remote", &addr];
    remote_args.extend(lines);
    let remote = run_ok(&remote_args);
    let mut local_args = vec!["run"];
    local_args.extend(lines);
    let local = run_ok(&local_args);

    assert_eq!(
        strip_timing(&remote.stdout),
        strip_timing(&local.stdout),
        "remote and local output diverged"
    );
    drop(guard);
}

/// Spec lines whose values break a model or job precondition are
/// refused at parse time with a typed `BadValue`, on the client and on
/// the server alike — they used to parse and then abort `lsl serve`
/// (a 39 GB allocation for `q=70000`), killing every session on it.
#[test]
fn hostile_spec_lines_are_refused_and_the_server_survives() {
    let (guard, addr) = serve();
    let hostile = [
        ("graph=cycle:5 model=coloring:q=70000", "model"),
        ("graph=cycle:5 model=ising:beta=inf", "model"),
        (
            "graph=cycle:5 model=coloring:q=3 job=tv:rounds=1,replicas=0",
            "job",
        ),
        (
            "graph=cycle:5 model=ising:beta=0.4 sweep=beta:1..1e308:1e-300",
            "sweep",
        ),
    ];
    // Raw frames, so the server's own parse is what answers.
    let stream = TcpStream::connect(&addr).expect("connect to lsl serve");
    let mut writer = stream.try_clone().expect("clone the socket");
    let mut reader = BufReader::new(stream);
    for (id, (line, key)) in hostile.iter().enumerate() {
        writeln!(writer, "submit id={id} spec={line}").expect("send a submit frame");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read the reply");
        match reply.trim_end().parse::<ServerFrame>() {
            Ok(ServerFrame::Error {
                id: Some(got),
                message,
            }) => {
                assert_eq!(got, id as u64);
                let expected = format!("bad value for {key:?}");
                assert!(message.contains(&expected), "{line}: {message}");
            }
            other => panic!("{line} should be refused, got {other:?}"),
        }
    }
    // The client refuses them too, before anything reaches the wire.
    let out = lsl()
        .args(["run", "--remote", &addr, hostile[0].0])
        .output()
        .expect("spawn lsl");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad value for \"model\""),
        "stderr: {stderr}"
    );
    // The server is still serving, bit-identically.
    let line = "graph=torus:5x5 model=coloring:q=9 seed=4 job=run:rounds=30";
    let remote = run_ok(&["run", "--remote", &addr, line]);
    let local = run_ok(&["run", line]);
    assert_eq!(strip_timing(&remote.stdout), strip_timing(&local.stdout));
    drop(guard);
}

//! `serve-small`: a closed loop against one `lsl serve --threads 2`
//! child. One text and one binary session each keep one line
//! outstanding, over a mix of small jobs where per-job overhead (parse,
//! model build or cache hit, sampler construction, queue, codecs,
//! socket) dominates. Every answer is compared after the window with
//! the in-process `Service` and checked against its hard constraints.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use lsl_core::codec::{Codec, StateBlob};
use lsl_core::lifecycle::Limits;
use lsl_core::net::{Client, RemoteOutcome};
use lsl_core::service::{JobEvent, Service};
use lsl_core::spec::{JobKind, JobOutput, JobResult, JobSpec, SpecError};

use crate::check::{self, Checks};
use crate::trace::Tracer;
use crate::util::{Fleet, Rng};
use crate::{load_threads, Ctx, Pass, Workload};

/// One line of the mix for workload seed `seed`, with the name of the
/// span its answer is awaited under. Seeds come from per-kind pools:
/// shared-model lines hit the server's model cache, while the `gnp`
/// pool is much larger than the cache, so those lines build their
/// model almost every time.
pub fn mix_line(rng: &mut Rng, seed: u64) -> (&'static str, String) {
    let base = (seed % 1_000_000) * 10_000;
    let r = rng.below(100);
    let (span, pool, offset, body) = match r {
        0..=49 => (
            "net.drain.shared-model",
            64,
            0,
            "graph=torus:16x16 model=coloring:q=12 job=run:rounds=50",
        ),
        50..=69 => (
            "net.drain.fresh-model",
            256,
            1000,
            "graph=gnp:n=400,p=0.01 model=coloring:q=24 job=run:rounds=50",
        ),
        70..=84 => (
            "net.drain.csp",
            64,
            2000,
            "graph=torus:16x16 model=dominating-set job=run:rounds=50",
        ),
        85..=92 => (
            "net.drain.sample",
            32,
            3000,
            "graph=torus:64x64 model=ising:beta=0.4 job=sample:rounds=20,count=4",
        ),
        _ => (
            "net.drain.stream",
            32,
            4000,
            "graph=torus:64x64 model=ising:beta=0.4 job=stream:rounds=20,every=5",
        ),
    };
    (span, format!("{body} seed={}", base + offset + rng.below(pool)))
}

/// Vertex-steps a finished job did: n × rounds × replicas.
fn vsteps_of(output: &JobOutput) -> f64 {
    match output {
        JobOutput::Run { rounds, n, .. } => *n as f64 * *rounds as f64,
        JobOutput::Sample { rounds, states } => {
            states.iter().map(|s| s.n() as f64 * *rounds as f64).sum()
        }
        JobOutput::Stream { rounds, n, .. } => *n as f64 * *rounds as f64,
        _ => 0.0,
    }
}

pub struct Serve {
    fleet: Option<Fleet>,
    clients: Vec<Client>,
}

impl Serve {
    pub fn set_up(ctx: &Ctx) -> Result<Serve, String> {
        let fleet = Fleet::spawn(&ctx.lsl, 1, 2)?;
        let addr = fleet.addrs().remove(0);
        let codecs = [Codec::Text, Codec::Binary];
        let clients = codecs[..load_threads()]
            .iter()
            .map(|&c| Client::connect_with(addr.as_str(), c))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("cannot connect to lsl serve at {addr}: {e}"))?;
        Ok(Serve {
            fleet: Some(fleet),
            clients,
        })
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(fleet) = self.fleet.take() {
            fleet.stop();
        }
    }
}

/// What one session saw: each answered line with its outcome and when
/// it completed (seconds since the pass began), every latency, and the
/// lines lost to a session error.
struct SessionLog {
    lines: Vec<(String, RemoteOutcome, f64)>,
    latencies_ms: Vec<f64>,
    session_errors: u64,
    attempted: u64,
    end: Instant,
    spans: Vec<crate::trace::Span>,
}

fn session(
    client: &mut Client,
    mut rng: Rng,
    seed: u64,
    origin: Instant,
    deadline: Instant,
    trace: bool,
) -> SessionLog {
    let mut tr = Tracer::new(trace, origin);
    let mut log = SessionLog {
        lines: Vec::new(),
        latencies_ms: Vec::new(),
        session_errors: 0,
        attempted: 0,
        end: origin,
        spans: Vec::new(),
    };
    while Instant::now() < deadline {
        let (drain_span, line) =
            tr.time("bench.mix_line", log.attempted, || mix_line(&mut rng, seed));
        let req = log.attempted;
        log.attempted += 1;
        let sent = Instant::now();
        let submitted = tr.time("net.submit", req, || client.submit(&line));
        let drained = match submitted {
            Ok(_) => tr
                .time(drain_span, req, || client.drain())
                .map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        log.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        match drained {
            Ok(mut outs) if outs.len() == 1 => {
                let at = (Instant::now() - origin).as_secs_f64();
                log.lines.push((line, outs.remove(0), at));
            }
            _ => {
                // The session is unusable after a transport error.
                log.session_errors += 1;
                break;
            }
        }
    }
    log.end = Instant::now();
    log.spans = tr.into_spans();
    log
}

impl Workload for Serve {
    fn pass(&mut self, ctx: &Ctx, seconds: f64, trace: bool, stream: u64) -> Result<Pass, String> {
        let origin = Instant::now();
        let deadline = origin + Duration::from_secs_f64(seconds);
        let seed = ctx.seed;
        let logs: Vec<SessionLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(i, client)| {
                    let rng = Rng::new(seed, 3000 + 16 * stream + i as u64);
                    scope.spawn(move || session(client, rng, seed, origin, deadline, trace))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session thread panicked"))
                .collect()
        });
        let mut pass = Pass {
            threads: logs.len(),
            ..Pass::default()
        };
        let end = logs.iter().map(|l| l.end).max().unwrap_or(origin);
        pass.wall = (end - origin).as_secs_f64();
        pass.peak_rss_mb = self.fleet.as_ref().map_or(f64::NAN, Fleet::peak_rss_mb);
        let mut served: Vec<(String, RemoteOutcome)> = Vec::new();
        // One-second buckets of completed lines; the last, partial one
        // is left out of the rates.
        let mut buckets = vec![(1.0, 0.0, 0u64); pass.wall as usize];
        for log in logs {
            pass.attempted += log.attempted;
            pass.failed += log.session_errors;
            pass.latencies_ms.extend(log.latencies_ms);
            pass.spans.push(log.spans);
            for (line, outcome, at) in log.lines {
                let mut bucket = buckets.get_mut(at as usize);
                for member in &outcome.members {
                    match (member, bucket.as_mut()) {
                        (Err(_), _) => pass.failed += 1,
                        (Ok(result), Some(b)) => {
                            b.1 += vsteps_of(&result.output);
                            b.2 += 1;
                        }
                        (Ok(_), None) => {}
                    }
                }
                served.push((line, outcome));
            }
        }
        pass.segments = buckets;
        pass.checks = check_served(&served);
        Ok(pass)
    }
}

/// The in-process answer to one line: the service's result and the
/// states a stream job delivered.
type Reference = Result<(JobResult, Vec<(u64, StateBlob)>), SpecError>;

/// Runs `spec` on an in-process service, collecting streamed states.
fn reference(service: &Service, spec: JobSpec) -> Reference {
    let mut states = Vec::new();
    for event in service.submit(spec).events() {
        match event {
            JobEvent::State { round, blob } => states.push((round, blob)),
            JobEvent::Finished(result) => return Ok((result, states)),
            JobEvent::Failed(e) => return Err(e),
            JobEvent::Rejected { reason } => return Err(SpecError::Rejected(reason)),
            JobEvent::Cancelled => return Err(SpecError::Cancelled),
            _ => {}
        }
    }
    Err(SpecError::ServiceStopped)
}

/// Checks each served line against the in-process service (result equal
/// up to `elapsed_secs`, streamed states equal) and the hard
/// constraints of run lines through a direct facade run.
fn check_served(served: &[(String, RemoteOutcome)]) -> Checks {
    let service = Service::with_limits(1, Limits::default());
    let mut checks = Checks::default();
    let mut refs: HashMap<&str, Option<(Reference, Option<check::RunRef>)>> = HashMap::new();
    for (line, outcome) in served {
        // Failed members were counted as failures already.
        let Some(Ok(result)) = outcome.members.first() else {
            continue;
        };
        let entry = refs.entry(line.as_str()).or_insert_with(|| {
            let spec: JobSpec = line.parse().ok()?;
            let run_ref = match spec.job_or_default() {
                JobKind::Run { .. } => check::run_reference(&spec).ok(),
                _ => None,
            };
            Some((reference(&service, spec), run_ref))
        });
        let Some((reference, run_ref)) = entry else {
            checks.expect(false, || format!("{line:?} does not parse"));
            continue;
        };
        match reference {
            Ok((want, want_states)) => {
                checks.expect(result == want, || {
                    format!(
                        "{line:?}: served {} != in-process {}",
                        result.output, want.output
                    )
                });
                let got_states = outcome.states.first().map_or(&[][..], Vec::as_slice);
                checks.expect(got_states == want_states.as_slice(), || {
                    format!("{line:?}: streamed states differ from in-process")
                });
            }
            Err(e) => checks.reference_failed(line, e),
        }
        match (&result.output, run_ref) {
            (JobOutput::Run { .. }, Some(r)) => {
                check::check_run(&mut checks, line, &result.output, r)
            }
            (JobOutput::Run { .. }, None) => {
                checks.expect(false, || format!("{line:?}: facade reference failed"));
            }
            _ => {}
        }
    }
    checks
}

//! Per-layer probes of the traced run. Each probe times the benchmark's
//! own calls into one layer's public functions on inputs drawn from the
//! workloads' generators, so every traced run reports every layer.
//! `README.md` lists the end-to-end metric each one should move.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsl_core::cluster::Coordinator;
use lsl_core::codec::{self, Codec, StateBlob};
use lsl_core::lifecycle::Limits;
use lsl_core::net::Client;
use lsl_core::proto::ServerFrame;
use lsl_core::service::{JobEvent, Service};
use lsl_core::spec::{BuiltModel, JobKind, JobOutput, JobResult, JobSpec, SweepSpec};

use crate::check::{self, Checks};
use crate::util::{median, Fleet, Rng};
use crate::{engine, fleet, load_threads, metric, serve, Ctx, Metric};

/// Lines of the serve-small mix the probes replay.
const MIX_LINES: usize = 400;
/// Repeats of each fleet line.
const FLEET_REPEATS: usize = 5;
/// Minimum time a short engine probe keeps stepping.
const MIN_PROBE: Duration = Duration::from_millis(300);

pub fn run(ctx: &Ctx, checks: &mut Checks) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    engine_probes(ctx, checks, &mut out)?;
    serve_probes(ctx, checks, &mut out)?;
    cluster_probes(ctx, checks, &mut out)?;
    Ok(out)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `engine.*` (`Sampler::run` per job kind), `exchange.*` (the sharded
/// job's `CommSummary`), `rng.*`, and the `Mrf::is_feasible` flag check.
fn engine_probes(ctx: &Ctx, checks: &mut Checks, out: &mut Vec<Metric>) -> Result<(), String> {
    let mut lines: Vec<(&str, String)> = (0..engine::JOBS.len())
        .map(|k| (engine::JOBS[k].0, engine::job_line(ctx.seed, k)))
        .collect();
    lines.push((
        "csp-domset",
        format!(
            "graph=torus:16x16 model=dominating-set job=run:rounds=50 seed={}",
            ctx.seed % 1_000_000
        ),
    ));
    let mut build_ms = Vec::new();
    for (name, line) in &lines {
        let spec: JobSpec = line.parse().map_err(|e| format!("{line:?}: {e}"))?;
        let JobKind::Run { rounds } = spec.job_or_default() else {
            unreachable!("engine probes are run jobs")
        };
        let model = spec.build_model();
        let t = Instant::now();
        let mut sampler = spec
            .sampler_builder(&model)
            .build()
            .map_err(|e| format!("{line:?}: {e}"))?;
        build_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let mut done = 0usize;
        while done == 0 || t.elapsed() < MIN_PROBE {
            sampler.run(rounds);
            done += rounds;
        }
        let dt = t.elapsed().as_secs_f64();
        let n = sampler.state().len() as f64;
        out.push(metric(
            format!("engine.round_us.{name}"),
            dt * 1e6 / done as f64,
            "us",
        ));
        out.push(metric(
            format!("engine.vsteps_per_s.{name}"),
            n * done as f64 / dt,
            "1/s",
        ));
        let holds = check::hard_constraints_hold(&spec, &model, sampler.state());
        checks.expect(holds, || {
            format!("{line:?}: probe state violates a hard constraint")
        });
        if let BuiltModel::Mrf(mrf) = &model {
            if mrf.is_feasible(sampler.state()) != holds {
                checks.flag_mismatch += 1;
            }
        }
        if let Some(comm) = sampler.comm_stats() {
            let r = comm.rounds_seen().max(1) as f64;
            out.push(metric(
                "exchange.msgs_per_round",
                comm.total_messages() as f64 / r,
                "count",
            ));
            out.push(metric(
                "exchange.bits_per_round",
                comm.total_bytes() as f64 * 8.0 / r,
                "bit",
            ));
            out.push(metric(
                "exchange.changed_per_round",
                comm.total_changed() as f64 / r,
                "count",
            ));
        }
    }
    println!(
        "# sampler.build_ms on engine-lattice jobs (should be negligible): {:.3}",
        median(&build_ms)
    );

    let mut buf = vec![0.0f64; 65_536];
    let reps = 200u64;
    let t = Instant::now();
    for r in 0..reps {
        lsl_local::rng::fill_stream_uniforms(ctx.seed, r, black_box(&mut buf));
        black_box(&buf);
    }
    let ns = t.elapsed().as_secs_f64() * 1e9 / (reps as f64 * buf.len() as f64);
    out.push(metric("rng.fill_ns_per_vertex", ns, "ns"));
    Ok(())
}

/// One replayed line: the service's answer and its event timings.
struct Replayed {
    line: String,
    result: Option<JobResult>,
    states: Vec<(u64, StateBlob)>,
    queue_ms: f64,
    run_ms: f64,
}

fn replay_line(service: &Service, line: &str) -> Replayed {
    let mut r = Replayed {
        line: line.to_string(),
        result: None,
        states: Vec::new(),
        queue_ms: f64::NAN,
        run_ms: f64::NAN,
    };
    let Ok(spec) = line.parse::<JobSpec>() else {
        return r;
    };
    let mut accepted = Instant::now();
    let mut started = accepted;
    for event in service.submit(spec).events() {
        match event {
            JobEvent::Accepted => accepted = Instant::now(),
            JobEvent::Started => {
                started = Instant::now();
                r.queue_ms = ms(started - accepted);
            }
            JobEvent::State { round, blob } => r.states.push((round, blob)),
            JobEvent::Finished(result) => {
                r.run_ms = ms(started.elapsed());
                r.result = Some(result);
            }
            _ => {}
        }
    }
    r
}

/// Splits `lines` round-robin over the load threads and runs `f` on
/// each share closed-loop, returning results in line order.
fn closed_loop<T: Send, C: Send>(
    lines: &[String],
    conns: Vec<C>,
    f: impl Fn(&mut C, &str) -> T + Sync,
) -> Vec<T> {
    let k = conns.len();
    let mut shares: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, mut c)| {
                let f = &f;
                scope.spawn(move || {
                    (i..lines.len())
                        .step_by(k)
                        .map(|j| (j, f(&mut c, &lines[j])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    let mut all: Vec<(usize, T)> = shares.drain(..).flatten().collect();
    all.sort_by_key(|(j, _)| *j);
    all.into_iter().map(|(_, t)| t).collect()
}

/// Mean microseconds of `f` over `reps` calls.
fn per_call_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    us(t.elapsed()) / reps as f64
}

/// `spec.*`, `model.*`, `sampler.*`, `service.*`, `codec.*` and `net.*`
/// on the first lines of the serve-small mix.
fn serve_probes(ctx: &Ctx, checks: &mut Checks, out: &mut Vec<Metric>) -> Result<(), String> {
    let mut rng = Rng::new(ctx.seed, 5000);
    let lines: Vec<String> = (0..MIX_LINES)
        .map(|_| serve::mix_line(&mut rng, ctx.seed).1)
        .collect();

    let mut parse_us = Vec::new();
    let mut specs = Vec::new();
    for line in &lines {
        let t = Instant::now();
        let parsed = black_box(line.parse::<SweepSpec>());
        parse_us.push(us(t.elapsed()));
        specs.push(parsed.map_err(|e| format!("{line:?}: {e}"))?.base);
    }
    out.push(metric("spec.parse_us", median(&parse_us), "us"));

    let mut models: HashMap<String, BuiltModel> = HashMap::new();
    let mut build_ms = Vec::new();
    let mut sampler_ms = Vec::new();
    for spec in &specs {
        let key = spec.model_key();
        let model = models.entry(key).or_insert_with(|| {
            let t = Instant::now();
            let m = spec.build_model();
            build_ms.push(ms(t.elapsed()));
            m
        });
        let b = spec
            .sampler_builder(model)
            .burn_in(spec.burn_in.unwrap_or(0));
        let t = Instant::now();
        let built = match spec.job_or_default() {
            JobKind::Sample { count, .. } if count > 1 => b.replicas(count).build().map(|_| ()),
            _ => b.build().map(|_| ()),
        };
        sampler_ms.push(ms(t.elapsed()));
        built.map_err(|e| format!("{spec}: {e}"))?;
    }
    out.push(metric("model.build_ms", median(&build_ms), "ms"));
    out.push(metric(
        "model.cache_hit_share",
        1.0 - models.len() as f64 / specs.len() as f64,
        "share",
    ));
    out.push(metric("sampler.build_ms", median(&sampler_ms), "ms"));

    // In-process replay with the server's worker count and the load
    // threads' closed loop.
    let service = Service::with_limits(2, Limits::default());
    let replayed = closed_loop(&lines, vec![(); load_threads()], |_, line| {
        replay_line(&service, line)
    });
    drop(service);
    let queue: Vec<f64> = replayed.iter().map(|r| r.queue_ms).collect();
    let run: Vec<f64> = replayed.iter().map(|r| r.run_ms).collect();
    out.push(metric("service.queue_wait_ms", median(&queue), "ms"));
    out.push(metric("service.run_ms", median(&run), "ms"));

    // The same lines served: client latency minus the in-process run.
    let fleet = Fleet::spawn(&ctx.lsl, 1, 2)?;
    let addr = fleet.addrs().remove(0);
    let clients = [Codec::Text, Codec::Binary][..load_threads()]
        .iter()
        .map(|&c| Client::connect_with(addr.as_str(), c))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let served = closed_loop(&lines, clients, |client, line| {
        let t = Instant::now();
        let outcome = client
            .submit(line)
            .map_err(|e| e.to_string())
            .and_then(|_| client.drain().map_err(|e| e.to_string()));
        (ms(t.elapsed()), outcome)
    });
    fleet.stop();
    let mut overhead = Vec::new();
    for ((latency, outcome), r) in served.iter().zip(&replayed) {
        let got = outcome
            .as_ref()
            .ok()
            .and_then(|o| o.first())
            .and_then(|o| o.members.first())
            .and_then(|m| m.as_ref().ok());
        checks.expect(got.is_some() && got == r.result.as_ref(), || {
            format!(
                "{:?}: served answer differs from the in-process replay",
                r.line
            )
        });
        overhead.push(latency - r.run_ms);
    }
    out.push(metric("net.overhead_ms", median(&overhead), "ms"));

    codec_probes(&replayed, checks, out);
    Ok(())
}

/// Encode/decode cost and size of result frames and state frames in
/// both codecs, and `StateBlob` packing.
fn codec_probes(replayed: &[Replayed], checks: &mut Checks, out: &mut Vec<Metric>) {
    const REPS: usize = 20;
    let mut cols: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut push = |k: &'static str, v: f64| cols.entry(k).or_default().push(v);
    for r in replayed {
        let Some(result) = &r.result else { continue };
        let frame = ServerFrame::Event {
            id: 7,
            index: 0,
            event: JobEvent::Finished(result.clone()),
        };
        let text = frame.to_string();
        let bin = codec::encode_server(&frame);
        push(
            "codec.text.encode_us",
            per_call_us(REPS, || {
                black_box(black_box(&frame).to_string());
            }),
        );
        push(
            "codec.text.decode_us",
            per_call_us(REPS, || {
                black_box(black_box(&text).parse::<ServerFrame>().ok());
            }),
        );
        push(
            "codec.binary.encode_us",
            per_call_us(REPS, || {
                black_box(codec::encode_server(black_box(&frame)));
            }),
        );
        push(
            "codec.binary.decode_us",
            per_call_us(REPS, || {
                black_box(codec::decode_server(black_box(&bin)).ok());
            }),
        );
        push("codec.result.text_bytes", text.len() as f64 + 1.0);
        push("codec.result.binary_bytes", bin.len() as f64 + 4.0);
        let round_trips = text.parse::<ServerFrame>().ok() == Some(frame.clone())
            && codec::decode_server(&bin).ok() == Some(frame);
        checks.expect(round_trips, || {
            format!("{:?}: result frame does not round-trip", r.line)
        });

        if let JobOutput::Sample { states, .. } = &result.output {
            for blob in states {
                let spins = blob.unpack();
                push(
                    "codec.state.pack_us",
                    per_call_us(REPS, || {
                        black_box(StateBlob::pack(black_box(&spins), blob.q()));
                    }),
                );
                push(
                    "codec.state.unpack_us",
                    per_call_us(REPS, || {
                        black_box(black_box(blob).unpack());
                    }),
                );
                checks.expect(StateBlob::pack(&spins, blob.q()) == *blob, || {
                    format!("{:?}: state blob does not re-pack", r.line)
                });
            }
        }
        for (round, blob) in &r.states {
            let frame = ServerFrame::Event {
                id: 7,
                index: 0,
                event: JobEvent::State {
                    round: *round,
                    blob: blob.clone(),
                },
            };
            let text = frame.to_string();
            let bin = codec::encode_server(&frame);
            push(
                "codec.state.text.encode_us",
                per_call_us(REPS, || {
                    black_box(black_box(&frame).to_string());
                }),
            );
            push(
                "codec.state.binary.encode_us",
                per_call_us(REPS, || {
                    black_box(codec::encode_server(black_box(&frame)));
                }),
            );
            push("codec.state.text_bytes", text.len() as f64 + 1.0);
            push("codec.state.binary_bytes", bin.len() as f64 + 4.0);
        }
    }
    let units: [(&str, &'static str); 12] = [
        ("codec.text.encode_us", "us"),
        ("codec.text.decode_us", "us"),
        ("codec.binary.encode_us", "us"),
        ("codec.binary.decode_us", "us"),
        ("codec.state.pack_us", "us"),
        ("codec.state.unpack_us", "us"),
        ("codec.state.text.encode_us", "us"),
        ("codec.state.binary.encode_us", "us"),
        ("codec.result.text_bytes", "bytes"),
        ("codec.result.binary_bytes", "bytes"),
        ("codec.state.text_bytes", "bytes"),
        ("codec.state.binary_bytes", "bytes"),
    ];
    for (name, unit) in units {
        let v = cols.get(name).map_or(f64::NAN, |xs| median(xs));
        out.push(metric(name, v, unit));
    }
}

/// Counts bytes and frames one direction of a proxied session carries:
/// a text `hello` line, then length-prefixed binary frames.
#[derive(Default)]
struct FrameCounter {
    binary: bool,
    header: Vec<u8>,
    skip: usize,
}

impl FrameCounter {
    fn feed(&mut self, mut bytes: &[u8]) -> u64 {
        let mut frames = 0;
        while !bytes.is_empty() {
            if !self.binary {
                match bytes.iter().position(|&b| b == b'\n') {
                    Some(p) => {
                        frames += 1;
                        self.binary = true;
                        bytes = &bytes[p + 1..];
                    }
                    None => return frames,
                }
            } else if self.skip > 0 {
                let n = self.skip.min(bytes.len());
                self.skip -= n;
                bytes = &bytes[n..];
            } else {
                let n = (4 - self.header.len()).min(bytes.len());
                self.header.extend_from_slice(&bytes[..n]);
                bytes = &bytes[n..];
                if self.header.len() == 4 {
                    let h = [
                        self.header[0],
                        self.header[1],
                        self.header[2],
                        self.header[3],
                    ];
                    self.skip = u32::from_le_bytes(h) as usize;
                    self.header.clear();
                    frames += 1;
                }
            }
        }
        frames
    }
}

/// A loopback TCP relay in front of one worker that counts the frames
/// and bytes of every session through it.
struct Proxy {
    addr: String,
    frames: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Proxy {
    fn start(upstream: String) -> std::io::Result<Proxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        let frames = Arc::new(AtomicU64::new(0));
        let bytes = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (f, b, s) = (frames.clone(), bytes.clone(), stop.clone());
        let accept = std::thread::spawn(move || {
            let mut pumps = Vec::new();
            while !s.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((down, _)) => {
                        let Ok(up) = TcpStream::connect(&upstream) else {
                            continue;
                        };
                        for (from, to) in [(&down, &up), (&up, &down)] {
                            let (Ok(from), Ok(to)) = (from.try_clone(), to.try_clone()) else {
                                continue;
                            };
                            let (f, b, s) = (f.clone(), b.clone(), s.clone());
                            pumps.push(std::thread::spawn(move || pump(from, to, &f, &b, &s)));
                        }
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            for p in pumps {
                let _ = p.join();
            }
        });
        Ok(Proxy {
            addr,
            frames,
            bytes,
            stop,
            accept: Some(accept),
        })
    }

    fn reset(&self) {
        self.frames.store(0, Ordering::SeqCst);
        self.bytes.store(0, Ordering::SeqCst);
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    frames: &AtomicU64,
    bytes: &AtomicU64,
    stop: &AtomicBool,
) {
    let _ = from.set_nodelay(true);
    let _ = to.set_nodelay(true);
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut counter = FrameCounter::default();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
                bytes.fetch_add(n as u64, Ordering::Relaxed);
                frames.fetch_add(counter.feed(&buf[..n]), Ordering::Relaxed);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let _ = to.shutdown(std::net::Shutdown::Write);
}

/// `cluster.*`: one sweep line and one distributed member through the
/// coordinator, against the in-process sweep and `sharded:2` run, and
/// the member's relay traffic counted through a proxy.
fn cluster_probes(ctx: &Ctx, checks: &mut Checks, out: &mut Vec<Metric>) -> Result<(), String> {
    let mut rng = Rng::new(ctx.seed, 6000);
    let sweep_line = fleet::fleet_line(&mut rng, ctx.seed, 0);
    let member_line = fleet::fleet_line(&mut rng, ctx.seed, 1);
    let workers = Fleet::spawn(&ctx.lsl, 2, 1)?;
    let coord = Coordinator::connect(workers.addrs()).map_err(|e| format!("fleet: {e}"))?;
    let timed = |line: &str| -> Result<(f64, Vec<JobResult>), String> {
        let t = Instant::now();
        let run = coord
            .run_sweep(line)
            .map_err(|e| format!("{line:?}: {e}"))?;
        Ok((ms(t.elapsed()), run.result.results))
    };
    let mut sweep_ms = Vec::new();
    let mut member_ms = Vec::new();
    let mut sweep_results = None;
    let mut member_results = None;
    for _ in 0..FLEET_REPEATS {
        let (t, r) = timed(&sweep_line)?;
        sweep_ms.push(t);
        sweep_results = Some(r);
        let (t, r) = timed(&member_line)?;
        member_ms.push(t);
        member_results = Some(r);
    }

    let service = Service::with_limits(2, Limits::default());
    let sweep: SweepSpec = sweep_line.parse().map_err(|e| format!("{e}"))?;
    let mut local_ms = Vec::new();
    let mut local = None;
    for _ in 0..FLEET_REPEATS {
        let t = Instant::now();
        local = service.submit_sweep(&sweep).wait().ok();
        local_ms.push(ms(t.elapsed()));
    }
    drop(service);
    checks.expect(local.map(|l| l.results) == sweep_results, || {
        "cluster probe: fleet sweep differs from the in-process sweep".into()
    });

    let twin: JobSpec = fleet::sharded_twin(&member_line)
        .parse()
        .map_err(|e| format!("{e}"))?;
    let mut sharded_ms = Vec::new();
    let mut sharded = None;
    for _ in 0..FLEET_REPEATS {
        let t = Instant::now();
        sharded = twin.run().ok();
        sharded_ms.push(ms(t.elapsed()));
    }
    let got = member_results
        .as_ref()
        .and_then(|r| r.first())
        .map(|r| &r.output);
    checks.expect(sharded.as_ref().map(|r| &r.output) == got, || {
        "cluster probe: cluster:2 member differs from sharded:2".into()
    });

    let (sw, mm, lm, sm) = (
        median(&sweep_ms),
        median(&member_ms),
        median(&local_ms),
        median(&sharded_ms),
    );
    out.push(metric("cluster.sweep_line_ms", sw, "ms"));
    out.push(metric("cluster.shard_member_ms", mm, "ms"));
    out.push(metric("cluster.sweep_vs_local", lm / sw, "ratio"));
    out.push(metric("cluster.vs_sharded", sm / mm, "ratio"));

    // Relay traffic of one member, counted between coordinator and
    // workers (the connect probes are not counted).
    let proxies = workers
        .addrs()
        .into_iter()
        .map(Proxy::start)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("proxy: {e}"))?;
    let relayed = Coordinator::connect(proxies.iter().map(|p| p.addr.clone()))
        .map_err(|e| format!("proxied fleet: {e}"))?;
    proxies.iter().for_each(Proxy::reset);
    let run = relayed
        .run_sweep(&member_line)
        .map_err(|e| format!("{e}"))?;
    drop(relayed);
    let rounds = match run.result.results.first().map(|r| &r.output) {
        Some(JobOutput::Run { rounds, .. }) => *rounds as f64,
        _ => f64::NAN,
    };
    checks.expect(Some(&run.result.results) == member_results.as_ref(), || {
        "cluster probe: proxied member differs".into()
    });
    // Let the pumps see the sessions close before reading the counters.
    std::thread::sleep(Duration::from_millis(100));
    let frames: u64 = proxies
        .iter()
        .map(|p| p.frames.load(Ordering::SeqCst))
        .sum();
    let bytes: u64 = proxies.iter().map(|p| p.bytes.load(Ordering::SeqCst)).sum();
    drop(proxies);
    workers.stop();
    out.push(metric(
        "cluster.sync_frames_per_round",
        frames as f64 / rounds,
        "count",
    ));
    out.push(metric(
        "cluster.relay_bytes_per_round",
        bytes as f64 / rounds,
        "bytes",
    ));
    Ok(())
}

//! E17 — hot-path engine: packed state slabs, block RNG, and
//! lane-batched kernels.
//!
//! The engine's determinism contract (every draw of round `r` is a
//! pure function of `(master, r, vertex)`) permits a much faster
//! *implementation* of the same trajectory: pack states into u8/bit
//! lanes, fill each round's randomness as one contiguous block of
//! stream heads instead of constructing a generator per vertex, and
//! sweep same-phase vertices in batches over the slab. This sweep
//! measures each layer against the scalar oracle on the step-engine
//! reference workloads:
//!
//! * 256×256 torus Ising at β = 0.4 under LocalMetropolis — the
//!   headline row (bit lanes, q = 2), targeting ≥ 3× the scalar
//!   baseline's vertex-steps/sec;
//! * 256×256 torus proper coloring, q = 16 — the byte-lane regime,
//!   under LocalMetropolis (threshold proposals, allow-byte edge pass)
//!   and under LubyGlauber (`-lg`: the masked permutation heat bath).
//!
//! Every row is one [`JobSpec`] differing only in the `hotpath=` key,
//! timed over repeats and reported as the median (`secs`, which the
//! rate and speedup columns use) with the min and max; every row's
//! final-state fingerprint is asserted equal to the scalar row's — the sweep *witnesses* bit-identity while it measures
//! (the fuller property-test matrix lives in
//! `crates/core/tests/hotpath_identity.rs`).
//!
//! ```text
//! e17_hotpath [--tiny]
//! ```
//!
//! Results are printed as TSV and recorded to `BENCH_hotpath.json` at
//! the workspace root. `--tiny` (or `quick` / `LSL_BENCH_QUICK=1`)
//! shrinks the workload for smoke runs and skips the JSON write.

use lsl_bench::{header, header_row, row};
use lsl_core::engine::HotPath;
use lsl_core::spec::{BuiltModel, JobOutput, JobSpec};

struct Row {
    workload: &'static str,
    hotpath: String,
    n: usize,
    rounds: usize,
    secs: f64,
    secs_min: f64,
    secs_max: f64,
    steps_vertices_per_sec: f64,
    speedup_vs_scalar: f64,
    fingerprint: u64,
}

/// Runs `spec` on the prebuilt model `repeats` times; returns the
/// median, min and max wall clock and the (deterministic) final-state
/// fingerprint.
fn timed_runs(spec: &JobSpec, model: &BuiltModel, repeats: usize) -> ([f64; 3], u64) {
    let mut secs = Vec::with_capacity(repeats);
    let mut fp = 0;
    for _ in 0..repeats {
        let result = spec.run_on(model).expect("a valid E17 spec");
        secs.push(result.elapsed_secs);
        match result.output {
            JobOutput::Run { fingerprint, .. } => fp = fingerprint,
            other => panic!("expected a run output, got {other:?}"),
        }
    }
    secs.sort_by(f64::total_cmp);
    ([secs[secs.len() / 2], secs[0], secs[secs.len() - 1]], fp)
}

/// Times the scalar oracle, then each of `variants`, on `chain` (the
/// `model=` and `algorithm=` keys) over a `side`×`side` torus.
fn sweep(
    workload: &'static str,
    chain: &str,
    side: usize,
    variants: &[HotPath],
    rounds: usize,
    repeats: usize,
    rows: &mut Vec<Row>,
) {
    let base: JobSpec = format!("graph=torus:{side}x{side} {chain} seed=1 job=run:rounds={rounds}")
        .parse()
        .expect("a valid E17 base spec");
    let model = base.build_model();
    let n = side * side;

    let mut scalar_rate = f64::NAN;
    let mut scalar_fp = 0;
    for (i, hp) in std::iter::once(&HotPath::Scalar)
        .chain(variants)
        .enumerate()
    {
        let mut spec = base.clone();
        spec.hotpath = Some(*hp);
        let ([secs, secs_min, secs_max], fp) = timed_runs(&spec, &model, repeats);
        let rate = rounds as f64 * n as f64 / secs;
        if i == 0 {
            scalar_rate = rate;
            scalar_fp = fp;
        }
        assert_eq!(
            fp, scalar_fp,
            "{workload} hotpath={hp} diverged from the scalar oracle"
        );
        rows.push(Row {
            workload,
            hotpath: hp.to_string(),
            n,
            rounds,
            secs,
            secs_min,
            secs_max,
            steps_vertices_per_sec: rate,
            speedup_vs_scalar: rate / scalar_rate,
            fingerprint: fp,
        });
    }
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny" || a == "tiny" || a == "quick")
        || std::env::var("LSL_BENCH_QUICK").is_ok_and(|v| v != "0");
    let (side, rounds, repeats) = if tiny { (48, 4, 1) } else { (256, 96, 5) };

    // Scalar first (implicit), then every lane variant the model's q
    // admits: the full packing × RNG matrix on Ising (q = 2 supports
    // bit lanes), the wide/byte column on q = 16 coloring under both
    // chains.
    let ising: Vec<HotPath> = ["wide", "byte", "bit"]
        .iter()
        .flat_map(|p| {
            ["block", "pervertex"]
                .iter()
                .map(move |r| format!("lanes:{p}:{r}").parse().expect("a lane variant"))
        })
        .collect();
    let coloring: Vec<HotPath> = [
        "lanes:wide:block",
        "lanes:byte:block",
        "lanes:byte:pervertex",
    ]
    .iter()
    .map(|s| s.parse().expect("a lane variant"))
    .collect();

    header(&[
        "E17: hot-path engine: packed slabs + block RNG + lane kernels",
        "every row is bit-identical to the scalar oracle (fingerprints asserted);",
        "headline: lanes:bit:block on the torus Ising local-metropolis workload",
    ]);
    header_row(
        "workload,hotpath,n,rounds,secs,steps_vertices_per_sec,speedup_vs_scalar,secs_min,secs_max",
    );

    let mut rows: Vec<Row> = Vec::new();
    sweep(
        "torus-ising",
        "model=ising:beta=0.4 algorithm=local-metropolis",
        side,
        &ising,
        rounds,
        repeats,
        &mut rows,
    );
    for (workload, algorithm) in [
        ("torus-coloring-q16", "local-metropolis"),
        ("torus-coloring-q16-lg", "luby-glauber"),
    ] {
        sweep(
            workload,
            &format!("model=coloring:q=16 algorithm={algorithm}"),
            side,
            &coloring,
            rounds,
            repeats,
            &mut rows,
        );
    }

    for r in &rows {
        row(&[
            r.workload.into(),
            r.hotpath.clone(),
            r.n.to_string(),
            r.rounds.to_string(),
            format!("{:.4}", r.secs),
            format!("{:.3e}", r.steps_vertices_per_sec),
            format!("{:.2}", r.speedup_vs_scalar),
            format!("{:.4}", r.secs_min),
            format!("{:.4}", r.secs_max),
        ]);
    }

    // Record the datapoint (hand-rolled JSON: no serde in the tree).
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"hotpath\": \"{}\", \"n\": {}, \"rounds\": {}, \
                 \"secs\": {:.6}, \"secs_min\": {:.6}, \"secs_max\": {:.6}, \
                 \"steps_vertices_per_sec\": {:.1}, \
                 \"speedup_vs_scalar\": {:.3}, \"fingerprint\": \"{:016x}\"}}",
                r.workload,
                r.hotpath,
                r.n,
                r.rounds,
                r.secs,
                r.secs_min,
                r.secs_max,
                r.steps_vertices_per_sec,
                r.speedup_vs_scalar,
                r.fingerprint,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"workload\": \"LocalMetropolis torus Ising \
         beta=0.4 + proper coloring q=16 (LocalMetropolis and LubyGlauber), hotpath sweep \
         (scalar oracle vs packed lane kernels x block RNG), median of {repeats} repeats\",\n  \"meta\": {},\n  \"tiny\": {tiny},\n  \"rows\": \
         [\n{}\n  ]\n}}\n",
        lsl_bench::meta_json(),
        json_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    if tiny {
        // Smoke runs must not clobber the recorded full-workload datapoint.
        println!("# tiny run: not recording {path}");
    } else if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not record {path}: {e}");
    } else {
        println!("# recorded {path}");
    }
}

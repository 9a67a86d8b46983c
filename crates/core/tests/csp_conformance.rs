//! The CSP chains against exact laws: both CSP algorithms — the
//! per-constraint LocalMetropolis rule and LubyGlauber under every
//! scheduler — run through the facade's replica and `distribution`
//! paths on E12-size instances, and their empirical laws must sit within
//! a bound computed from the sample count of:
//!
//! * the normalized weights of `Csp::enumerate()` (convergence from a
//!   fixed start on dominating sets and a soft ternary CSP; invariance
//!   from exactly uniform starts on MIS, whose single-site moves cannot
//!   connect solutions);
//! * the rows of the exact kernel `csp_local_metropolis_kernel` (one
//!   LocalMetropolis step from fixed states).
//!
//! The negative control is a deliberately biased filter defined here —
//! it checks only the all-proposed mixture of each constraint — and the
//! same assertions must reject it, which shows they have power.

use lsl_analysis::EmpiricalDistribution;
use lsl_core::csp_metropolis::csp_local_metropolis_kernel;
use lsl_core::engine::replicas::ReplicaSet;
use lsl_core::engine::{RoundCtx, StateView, SyncRule};
use lsl_core::prelude::*;
use lsl_graph::{generators, VertexId};
use lsl_mrf::csp::{Constraint, Csp};
use lsl_mrf::gibbs::{decode_config, encode_config};
use lsl_mrf::Spin;
use std::sync::Arc;

/// Replicas per empirical law.
const REPLICAS: usize = 10_000;

/// Rounds run from a fixed start before a law is read off (the
/// instances mix in a few dozen; 100 leaves a mixing residual far below
/// the sampling bound).
const ROUNDS: usize = 100;

/// Rounds run from an exactly stationary start law, which a correct
/// chain preserves at every round.
const INVARIANCE_ROUNDS: usize = 20;

/// Probability with which a correct chain may exceed [`tv_bound`]. The
/// seeds are fixed, so every run is deterministic; `DELTA` only sets how
/// wide the bound is.
const DELTA: f64 = 1e-4;

/// A TV distance an empirical law of `n` iid draws over `support`
/// states exceeds with probability at most [`DELTA`]:
/// `E[TV] ≤ ½ Σ_i √(p_i(1−p_i)/n) ≤ ½ √(support/n)` by Cauchy–Schwarz,
/// and TV moves by at most `1/n` per draw, so McDiarmid adds
/// `√(ln(1/δ)/(2n))`.
fn tv_bound(support: usize, n: usize) -> f64 {
    0.5 * (support as f64 / n as f64).sqrt() + ((1.0 / DELTA).ln() / (2.0 * n as f64)).sqrt()
}

/// The one assertion every chain faces: `emp` is within [`tv_bound`]
/// of `target` (a dense law over configuration indices).
fn check_law(emp: &EmpiricalDistribution, target: &[f64]) -> Result<f64, String> {
    let support = target.iter().filter(|&&p| p > 0.0).count().max(1);
    let bound = tv_bound(support, emp.total() as usize);
    let tv = emp.tv_against_dense(target);
    if tv <= bound {
        Ok(tv)
    } else {
        Err(format!("tv {tv:.4} exceeds the bound {bound:.4}"))
    }
}

/// The CSP's exact law: normalized `enumerate()` weights, dense over
/// configuration indices.
fn exact_law(csp: &Csp) -> Vec<f64> {
    let n = csp.graph().num_vertices();
    let mut law = vec![0.0; csp.q().pow(n as u32)];
    for (config, w) in csp.enumerate() {
        law[encode_config(&config, csp.q())] = w;
    }
    let z: f64 = law.iter().sum();
    law.iter().map(|w| w / z).collect()
}

fn record(states: impl Iterator<Item = Vec<Spin>>, q: usize) -> EmpiricalDistribution {
    let mut emp = EmpiricalDistribution::new();
    for s in states {
        emp.record(encode_config(&s, q));
    }
    emp
}

/// Dominating sets of P3 (5 solutions) and C5, and the soft ternary
/// CSP on P3 (weight 2 unless all three spins agree), each with a
/// feasible start.
fn converging_instances() -> Vec<(&'static str, Arc<Csp>, Vec<Spin>)> {
    let soft = Constraint::new(
        2,
        vec![0, 1, 2],
        vec![1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0],
    )
    .unwrap();
    vec![
        (
            "domset-path3",
            Arc::new(Csp::dominating_set(Arc::new(generators::path(3)))),
            vec![1; 3],
        ),
        (
            "domset-cycle5",
            Arc::new(Csp::dominating_set(Arc::new(generators::cycle(5)))),
            vec![1; 5],
        ),
        (
            "soft-ternary",
            Arc::new(Csp::new(Arc::new(generators::path(3)), 2, vec![soft])),
            vec![0; 3],
        ),
    ]
}

/// Every CSP chain the facade builds: LocalMetropolis, and LubyGlauber
/// under each scheduler.
fn chains() -> Vec<(Algorithm, Option<Sched>)> {
    vec![
        (Algorithm::LocalMetropolis, None),
        (Algorithm::LubyGlauber, Some(Sched::Luby)),
        (Algorithm::LubyGlauber, Some(Sched::Singleton)),
        (Algorithm::LubyGlauber, Some(Sched::Bernoulli(0.3))),
        (Algorithm::LubyGlauber, Some(Sched::Chromatic)),
    ]
}

fn builder(csp: &Arc<Csp>, alg: Algorithm, sched: Option<Sched>) -> SamplerBuilder {
    let b = Sampler::for_csp(Arc::clone(csp)).algorithm(alg).seed(17);
    match sched {
        Some(s) => b.scheduler(s),
        None => b,
    }
}

/// The negative control: LocalMetropolis whose constraint filter checks
/// only the all-proposed mixture `σ_S` and drops the other `2^k − 2`.
/// It is not reversible with respect to the CSP weights.
#[derive(Clone)]
struct ProposalOnlyFilter;

impl SyncRule<Csp> for ProposalOnlyFilter {
    type Local = Spin;
    type Scratch = ();

    const STATE_FREE_PROPOSE: bool = true;

    fn name(&self) -> &'static str {
        "ProposalOnlyFilter"
    }

    fn make_scratch(&self, _csp: &Csp) {}

    fn propose<Sv: StateView + ?Sized>(
        &self,
        ctx: &RoundCtx<Csp>,
        _v: VertexId,
        _state: &Sv,
        rng: &mut Xoshiro256pp,
        _scratch: &mut (),
    ) -> Spin {
        (rng.uniform_f64() * ctx.model().q() as f64) as Spin
    }

    fn resolve<Sv: StateView + ?Sized>(
        &self,
        ctx: &RoundCtx<Csp>,
        v: VertexId,
        state: &Sv,
        locals: &[Spin],
        _scratch: &mut (),
    ) -> Spin {
        let csp = ctx.model();
        for &ci in csp.incident(v) {
            let c = &csp.constraints()[ci as usize];
            let p = c.evaluate_at(csp.q(), |i| locals[c.scope()[i] as usize]) / c.max_value();
            if p <= 0.0 || (p < 1.0 && ctx.constraint_coin(ci) >= p) {
                return state.spin(v.index());
            }
        }
        locals[v.index()]
    }
}

/// The negative control's law after `rounds` rounds: the same iid
/// replica batch the facade builds, from one start per replica.
fn control_law(csp: &Arc<Csp>, starts: &[Vec<Spin>], rounds: usize) -> EmpiricalDistribution {
    let refs: Vec<&[Spin]> = starts.iter().map(|s| &s[..]).collect();
    let mut set = ReplicaSet::with_model(Arc::clone(csp), ProposalOnlyFilter, &refs, 17, false);
    set.run(rounds);
    record(set.states().map(<[Spin]>::to_vec), csp.q())
}

#[test]
fn every_chain_converges_to_the_exact_law() {
    for (name, csp, start) in converging_instances() {
        let target = exact_law(&csp);
        for (alg, sched) in chains() {
            let emp = builder(&csp, alg, sched)
                .start(start.clone())
                .distribution(ROUNDS, REPLICAS)
                .unwrap();
            if let Err(e) = check_law(&emp, &target) {
                panic!("{name} {alg:?} {sched:?}: {e}");
            }
        }
    }
}

#[test]
fn every_chain_keeps_uniform_mis_invariant() {
    // C5's maximal independent sets are the 5 non-adjacent pairs; single
    // flips cannot connect them, so check invariance: from an exactly
    // uniform start law the chain's law must stay uniform.
    let csp = Arc::new(Csp::maximal_independent_set(Arc::new(generators::cycle(5))));
    let sols: Vec<Vec<Spin>> = csp.enumerate().into_iter().map(|(s, _)| s).collect();
    assert_eq!(sols.len(), 5);
    let starts: Vec<Vec<Spin>> = (0..REPLICAS).map(|b| sols[b % 5].clone()).collect();
    let target = exact_law(&csp);
    for (alg, sched) in chains() {
        let mut batch = builder(&csp, alg, sched)
            .start(sols[0].clone())
            .replicas(REPLICAS)
            .starts(starts.clone())
            .build()
            .unwrap();
        batch.run(INVARIANCE_ROUNDS);
        let emp = record(batch.states().map(<[Spin]>::to_vec), csp.q());
        if let Err(e) = check_law(&emp, &target) {
            panic!("mis-cycle5 {alg:?} {sched:?}: {e}");
        }
    }
}

/// Row `x` of the exact CSP LocalMetropolis kernel, dense.
fn kernel_row(csp: &Csp, x: &[Spin]) -> Vec<f64> {
    let kernel = csp_local_metropolis_kernel(csp);
    let mut row = vec![0.0; kernel.num_states()];
    for &(j, p) in kernel.row(encode_config(x, csp.q())) {
        row[j] = p;
    }
    row
}

#[test]
fn local_metropolis_steps_follow_the_exact_kernel() {
    for (name, csp, _) in converging_instances() {
        let law = exact_law(&csp);
        let mut x = vec![0 as Spin; csp.graph().num_vertices()];
        for i in (0..law.len()).filter(|&i| law[i] > 0.0) {
            decode_config(i, csp.q(), &mut x);
            let emp = builder(&csp, Algorithm::LocalMetropolis, None)
                .start(x.clone())
                .distribution(1, REPLICAS)
                .unwrap();
            if let Err(e) = check_law(&emp, &kernel_row(&csp, &x)) {
                panic!("{name} from {x:?}: {e}");
            }
        }
    }
}

#[test]
fn the_biased_filter_is_rejected() {
    let (_, csp, start) = converging_instances().swap_remove(0);
    // The convergence check: the control's long-run law on the
    // dominating sets of P3 is not uniform.
    let emp = control_law(&csp, &vec![start; REPLICAS], ROUNDS);
    assert!(
        check_law(&emp, &exact_law(&csp)).is_err(),
        "the convergence check accepted the biased filter"
    );
    // The one-step check from {0, 2}, where the dropped mixtures matter
    // (from all-ones every mixture keeps a chosen vertex, and the two
    // filters agree).
    let x = vec![1, 0, 1];
    let emp = control_law(&csp, &vec![x.clone(); REPLICAS], 1);
    assert!(
        check_law(&emp, &kernel_row(&csp, &x)).is_err(),
        "the one-step check accepted the biased filter"
    );
}

#[test]
fn the_bound_is_computed_from_the_sample_count() {
    // Pins the arithmetic, not a tuned constant: for 5 outcomes and
    // 10_000 draws, ½√(5/10⁴) + √(ln 10⁴ / 2·10⁴).
    let b = tv_bound(5, 10_000);
    assert!((b - (0.011_180 + 0.021_460)).abs() < 1e-5, "{b}");
}

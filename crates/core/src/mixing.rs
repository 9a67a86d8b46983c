//! Mixing measurement: empirical total variation against exact ground
//! truth, and round-budget estimation via coalescence.
//!
//! Every entry point is batched (`*_batched`): it advances all replicas
//! of an engine rule through the step engine's [`ReplicaSet`] in one
//! cache-friendly pass instead of constructing one chain per replica.
//! These are what the sampler facade's job verbs
//! ([`SamplerBuilder::tv_curve`](crate::sampler::SamplerBuilder::tv_curve),
//! [`SamplerBuilder::coalescence`](crate::sampler::SamplerBuilder::coalescence))
//! run.

use crate::coupling::adversarial_starts;
use crate::engine::replicas::ReplicaSet;
use crate::engine::{Model, SyncRule};
use lsl_analysis::stats::Summary;
use lsl_analysis::EmpiricalDistribution;
use lsl_local::rng::derive_seed;
use lsl_mrf::gibbs::{encode_config, Enumeration};
use lsl_mrf::{Mrf, Spin};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Cap on the spins held in memory at once by the batched runners;
/// replica batches are chunked to stay under it.
const BATCH_SPIN_BUDGET: usize = 1 << 22;

/// Round-slices per replica batch at which the observed entry points
/// report progress. Slicing only changes *when* the sink is called,
/// never the trajectory: engine rounds are keyed by the round counter,
/// so `run(a); run(b)` is bit-identical to `run(a + b)`.
const PROGRESS_SLICES: usize = 8;

/// A progress sink: called with `(work done, total work)` in abstract
/// work units that are monotone over the run and end at `total`.
/// The unit is entry-point-specific (replica-rounds for distribution
/// jobs, trial-rounds for coalescence); consumers should only rely on
/// monotonicity and the final `done == total` call.
///
/// The return value is the *preemption channel*:
/// [`ControlFlow::Continue`] keeps running,
/// [`ControlFlow::Break`] asks the loop to stop at the sink point —
/// the runner returns promptly with a partial value that the caller
/// (the service worker, on cancellation) discards. Because the sink is
/// only consulted *between* round slices and the engine's randomness
/// is counter-keyed, neither observing nor breaking can perturb the
/// trajectory of any replica that keeps running.
pub type ProgressSink<'a> = &'a mut dyn FnMut(u64, u64) -> ControlFlow<()>;

/// Runs `replicas` iid copies of an engine rule for `steps` rounds each
/// (in memory-bounded batches) and returns the empirical distribution of
/// final configurations. All replicas start from the deterministic
/// default start; see [`empirical_distribution_batched_from`] for models
/// whose default start is unsafe (e.g. list colorings, where a conflicted
/// start can empty a heat-bath marginal).
#[must_use]
pub fn empirical_distribution_batched<R: SyncRule + Clone>(
    mrf: &Arc<Mrf>,
    rule: &R,
    steps: usize,
    replicas: usize,
    seed: u64,
) -> EmpiricalDistribution {
    let start = crate::single_site::default_start(mrf);
    empirical_distribution_batched_from(mrf, rule, &start, steps, replicas, seed)
}

/// [`empirical_distribution_batched`] from an explicit common start.
///
/// # Panics
/// Panics if the start has the wrong length.
#[must_use]
pub fn empirical_distribution_batched_from<R: SyncRule + Clone>(
    mrf: &Arc<Mrf>,
    rule: &R,
    start: &[Spin],
    steps: usize,
    replicas: usize,
    seed: u64,
) -> EmpiricalDistribution {
    empirical_distribution_batched_observed(mrf, rule, start, steps, replicas, seed, &mut |_, _| {
        ControlFlow::Continue(())
    })
}

/// [`empirical_distribution_batched_from`] on any [`Model`] (MRF
/// or CSP), reporting progress through `progress` — the long-running loop behind the service's
/// `Progress` events. Work units are replica-batch rounds: `total =
/// batches × steps`, ticked every few round-slices per batch.
///
/// The sink never changes the answer: batching and per-batch seeds are
/// identical to the unobserved entry point, and round-slicing is
/// invisible to the engine's counter-keyed randomness.
///
/// # Panics
/// Panics if the start has the wrong length.
pub fn empirical_distribution_batched_observed<M: Model, R: SyncRule<M> + Clone>(
    model: &Arc<M>,
    rule: &R,
    start: &[Spin],
    steps: usize,
    replicas: usize,
    seed: u64,
    progress: ProgressSink<'_>,
) -> EmpiricalDistribution {
    let n = model.num_vertices().max(1);
    let chunk = (BATCH_SPIN_BUDGET / n).clamp(1, replicas.max(1));
    let batches = replicas.div_ceil(chunk).max(1) as u64;
    let total = batches * steps as u64;
    let slice = (steps / PROGRESS_SLICES).max(1);
    let mut emp = EmpiricalDistribution::new();
    let mut done = 0usize;
    let mut batch = 0u64;
    while done < replicas {
        let count = chunk.min(replicas - done);
        let starts: Vec<&[Spin]> = (0..count).map(|_| start).collect();
        let mut set = ReplicaSet::with_model(
            Arc::clone(model),
            rule.clone(),
            &starts,
            derive_seed(seed, 0x4241_5443_48, batch), // "BATCH"
            false,
        );
        // Replicas shard over all cores; trajectories are unaffected
        // (engine determinism contract).
        set.set_backend(crate::engine::Backend::Parallel { threads: 0 });
        let mut ran = 0usize;
        while ran < steps {
            let now = slice.min(steps - ran);
            set.run(now);
            ran += now;
            if progress(batch * steps as u64 + ran as u64, total).is_break() {
                // Preempted (cancellation): the partial distribution is
                // discarded by the caller, so stop where we stand.
                return emp;
            }
        }
        for state in set.states() {
            emp.record(encode_config(state, model.q()));
        }
        done += count;
        batch += 1;
    }
    if steps == 0 || replicas == 0 {
        // The round loop never ticked; still promise `done == total`.
        let _ = progress(1, 1);
    }
    emp
}

/// Batched empirical total variation distance between a rule's
/// time-`steps` distribution and the exact Gibbs distribution.
#[must_use]
pub fn empirical_tv_batched<R: SyncRule + Clone>(
    mrf: &Arc<Mrf>,
    rule: &R,
    exact: &Enumeration,
    steps: usize,
    replicas: usize,
    seed: u64,
) -> f64 {
    let emp = empirical_distribution_batched(mrf, rule, steps, replicas, seed);
    emp.tv_against_dense(&exact.distribution())
}

/// Batched empirical TV curve at a ladder of step counts (fresh replicas
/// per rung, so points are independent).
#[must_use]
pub fn empirical_tv_curve_batched<R: SyncRule + Clone>(
    mrf: &Arc<Mrf>,
    rule: &R,
    exact: &Enumeration,
    step_ladder: &[usize],
    replicas: usize,
    seed: u64,
) -> Vec<(usize, f64)> {
    step_ladder
        .iter()
        .map(|&steps| {
            let tv = empirical_tv_batched(mrf, rule, exact, steps, replicas, seed ^ steps as u64);
            (steps, tv)
        })
        .collect()
}

/// Batched coalescence-round summary: grand couplings run as coupled
/// replica sets (shared randomness computed once per round).
pub fn coalescence_summary_batched<R: SyncRule + Clone>(
    mrf: &Arc<Mrf>,
    rule: &R,
    trials: usize,
    max_steps: usize,
    seed: u64,
) -> (Summary, usize) {
    coalescence_summary_batched_observed(mrf, rule, trials, max_steps, seed, &mut |_, _| {
        ControlFlow::Continue(())
    })
}

/// [`coalescence_summary_batched`] reporting progress through
/// `progress` — work units are trial-rounds (`total = trials ×
/// max_steps`; a trial that coalesces early skips ahead to its trial
/// boundary). The sink never changes the answer.
pub fn coalescence_summary_batched_observed<R: SyncRule + Clone>(
    mrf: &Arc<Mrf>,
    rule: &R,
    trials: usize,
    max_steps: usize,
    seed: u64,
    progress: ProgressSink<'_>,
) -> (Summary, usize) {
    let starts = adversarial_starts(mrf, 2, seed);
    let (times, timeouts) = crate::coupling::coalescence_times_batched_observed(
        mrf, rule, &starts, trials, max_steps, seed, progress,
    );
    let xs: Vec<f64> = times.iter().map(|&t| t as f64).collect();
    (Summary::of(&xs), timeouts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::rules::{GlauberRule, LocalMetropolisRule, LubyGlauberRule};
    use lsl_graph::generators;
    use lsl_mrf::models;

    #[test]
    fn batched_tv_curve_decreases() {
        let mrf = Arc::new(models::proper_coloring(generators::cycle(4), 3));
        let exact = Enumeration::new(&mrf).unwrap();
        let curve = empirical_tv_curve_batched(
            &mrf,
            &LubyGlauberRule::luby(),
            &exact,
            &[0, 5, 40, 120],
            4000,
            99,
        );
        assert!(curve[0].1 > 0.5, "curve = {curve:?}");
        let last = curve.last().unwrap().1;
        assert!(last < 0.08, "final tv = {last}");
    }

    #[test]
    fn batched_tv_local_metropolis_converges() {
        let mrf = Arc::new(models::proper_coloring(generators::cycle(4), 4));
        let exact = Enumeration::new(&mrf).unwrap();
        let tv = empirical_tv_batched(&mrf, &LocalMetropolisRule::new(), &exact, 80, 8000, 7);
        assert!(tv < 0.05, "tv = {tv}");
    }

    #[test]
    fn batched_tv_single_site_converges() {
        // The single-site fast path through the batched backend still
        // targets the Gibbs distribution.
        let mrf = Arc::new(models::uniform_independent_set(generators::path(3)));
        let exact = Enumeration::new(&mrf).unwrap();
        let tv = empirical_tv_batched(&mrf, &GlauberRule, &exact, 80, 6000, 3);
        assert!(tv < 0.05, "tv = {tv}");
    }

    #[test]
    fn batched_chunking_covers_all_replicas() {
        // Chunk boundary: more replicas than one batch holds for this n
        // still yields exactly `replicas` recordings.
        let mrf = Arc::new(models::proper_coloring(generators::cycle(4), 3));
        let emp = empirical_distribution_batched(&mrf, &LubyGlauberRule::luby(), 3, 2500, 1);
        assert_eq!(emp.total(), 2500);
    }

    #[test]
    fn batched_coalescence_summary_reports() {
        let mrf = Arc::new(models::proper_coloring(generators::cycle(6), 9));
        let (summary, timeouts) =
            coalescence_summary_batched(&mrf, &LocalMetropolisRule::new(), 4, 50_000, 5);
        assert_eq!(timeouts, 0);
        assert!(summary.n > 0);
        assert!(summary.mean >= 1.0);
    }
}

//! The paper's chains as vertex-step rules for the step engine.
//!
//! Each rule is the *chain logic* only — what one vertex draws and how
//! it combines its neighborhood — with execution (order, parallelism,
//! batching) left to the engine backends:
//!
//! * [`LocalMetropolisRule`] — Algorithm 2: propose per vertex, filter
//!   by shared per-edge coins (with the rule-3 ablation switch);
//! * [`LubyGlauberRule`] — Algorithm 1 generalized over any
//!   [`VertexScheduler`]: mark, select an independent set, heat-bath
//!   resample the selected vertices;
//! * [`GlauberRule`] / [`MetropolisRule`] — the sequential single-site
//!   baselines, expressed as rounds whose active vertex comes from the
//!   round-shared stream (so even they are pure functions of
//!   `(master, round)` and batch across replicas).

use super::{hotpath, HotKernel, Model, Packing, RoundCtx, StateView, SyncRule};
use crate::schedule::{LubyScheduler, VertexScheduler};
use crate::update::Resampler;
use lsl_graph::VertexId;
use lsl_local::rng::Xoshiro256pp;
use lsl_mrf::{Mrf, Spin};
use std::sync::Arc;

/// Reusable per-worker scratch for heat-bath rules: a marginal-weight
/// buffer and a coupling-friendly resampler.
pub struct HeatBathScratch {
    weights: Vec<f64>,
    resampler: Resampler,
}

impl HeatBathScratch {
    /// Builds scratch sized for `model`.
    pub fn new<M: Model>(model: &M) -> Self {
        HeatBathScratch {
            weights: vec![0.0; model.q()],
            resampler: Resampler::new(model),
        }
    }

    /// Heat-bath resample of `v` given `state`, drawing from `rng`. An
    /// ill-defined marginal (all weights zero, which the paper rules out
    /// and only an infeasible configuration can produce) keeps `v`'s
    /// spin.
    fn resample<M: Model, Sv: StateView + ?Sized>(
        &mut self,
        model: &M,
        v: VertexId,
        state: &Sv,
        rng: &mut Xoshiro256pp,
    ) -> Spin {
        model.marginal_weights_with(v, |u| state.spin(u.index()), &mut self.weights);
        self.resampler
            .resample(&self.weights, rng)
            .unwrap_or_else(|| state.spin(v.index()))
    }
}

/// Algorithm 2 (LocalMetropolis) as a vertex-step rule.
///
/// Each step (paper §4):
///
/// 1. **Propose** — every vertex independently proposes `σ_v ∈ [q]` with
///    probability proportional to `b_v(σ_v)`;
/// 2. **Local filter** — every edge `e = uv` flips one shared coin that
///    comes up HEADS with probability
///    `Ã_e(σ_u, σ_v) · Ã_e(X_u, σ_v) · Ã_e(σ_u, X_v)`;
/// 3. a vertex accepts its proposal iff *all* incident edges passed.
///
/// For proper colorings the filter degenerates to three hard rules
/// (reject if `σ_v = X_u`, `σ_v = σ_u`, or `X_v = σ_u` for some neighbor
/// `u`). The paper remarks that the third rule "looks redundant" but is
/// required for reversibility — [`LocalMetropolisRule::without_rule3`]
/// exposes that ablation, and the exact-kernel experiment E9 shows
/// dropping it yields a *wrong* stationary distribution.
///
/// Theorem 4.2: for proper `q`-colorings with `q ≥ α∆`, `α > 2+√2`,
/// `∆ ≥ 9`, the chain mixes in `O(log(n/ε))` rounds — independent of Δ.
///
/// In the engine, coins with pass probability exactly 0 or 1 are decided
/// without consulting the coin stream (identically in every backend),
/// which makes hard-constraint models — where *every* coin is
/// deterministic — coin-free.
///
/// # Example (through the sampler facade)
/// ```
/// use lsl_core::prelude::*;
/// use lsl_graph::generators;
/// use lsl_mrf::models;
///
/// let mrf = models::proper_coloring(generators::complete_bipartite(6, 6), 24);
/// let mut sampler = Sampler::for_mrf(&mrf)
///     .algorithm(Algorithm::LocalMetropolis)
///     .seed(2)
///     .build()
///     .unwrap();
/// sampler.run(50);
/// assert!(mrf.is_feasible(sampler.state()));
/// ```
#[derive(Clone, Debug)]
pub struct LocalMetropolisRule {
    rule3: bool,
}

impl LocalMetropolisRule {
    /// The full (correct) chain.
    pub fn new() -> Self {
        LocalMetropolisRule { rule3: true }
    }

    /// The ablation omitting the third filter factor `Ã_e(σ_u, X_v)`
    /// (the paper warns this breaks reversibility; experiment E9
    /// quantifies the failure).
    pub fn without_rule3() -> Self {
        LocalMetropolisRule { rule3: false }
    }
}

impl Default for LocalMetropolisRule {
    fn default() -> Self {
        Self::new()
    }
}

impl SyncRule for LocalMetropolisRule {
    type Local = Spin;
    type Scratch = ();

    const STATE_FREE_PROPOSE: bool = true;

    fn name(&self) -> &'static str {
        if self.rule3 {
            "LocalMetropolis"
        } else {
            "LocalMetropolis(no rule 3)"
        }
    }

    fn make_scratch(&self, _mrf: &Mrf) -> Self::Scratch {}

    fn propose<Sv: StateView + ?Sized>(
        &self,
        ctx: &RoundCtx,
        v: VertexId,
        _state: &Sv,
        rng: &mut Xoshiro256pp,
        _scratch: &mut Self::Scratch,
    ) -> Spin {
        ctx.model().vertex_activity(v).sample(rng)
    }

    fn resolve<Sv: StateView + ?Sized>(
        &self,
        ctx: &RoundCtx,
        v: VertexId,
        state: &Sv,
        locals: &[Spin],
        _scratch: &mut Self::Scratch,
    ) -> Spin {
        let mrf = ctx.model();
        let g = mrf.graph();
        let old = state.spin(v.index());
        for (e, _) in g.incident_edges(v) {
            // Evaluate the filter in the edge's stored orientation so
            // both endpoints agree on the factors bit-for-bit.
            let (a, b) = g.endpoints(e);
            let (xu, xv) = (state.spin(a.index()), state.spin(b.index()));
            let (su, sv) = (locals[a.index()], locals[b.index()]);
            let act = mrf.edge_activity(e);
            let mut p = act.normalized(su, sv) * act.normalized(xu, sv);
            if self.rule3 {
                p *= act.normalized(su, xv);
            }
            if p <= 0.0 {
                return old;
            }
            if p < 1.0 && ctx.edge_coin(e) >= p {
                return old;
            }
        }
        locals[v.index()]
    }

    fn hot_kernel(
        &self,
        mrf: &Arc<Mrf>,
        packing: Packing,
        block_rng: bool,
    ) -> Option<Box<dyn HotKernel<Spin>>> {
        Some(hotpath::local_metropolis_kernel(
            mrf, self.rule3, packing, block_rng,
        ))
    }
}

/// Algorithm 1 (LubyGlauber) as a vertex-step rule, generic over the
/// independent-set scheduler and the model: on a weighted CSP the
/// scheduler selects on the primal graph of the scopes, so `I` is
/// strongly independent (the remark after Algorithm 1) and the
/// marginals read every scope-mate.
///
/// Each round: sample a random independent set `I` (by default the Luby
/// step), then resample every `v ∈ I` in parallel from its conditional
/// marginal µ_v(·|X_Γ(v)) (paper eq. 2). Because `I` is independent and
/// marginals read only neighbors (which are not in `I`), the parallel
/// resampling is well defined.
///
/// Theorem 3.2: under Dobrushin's condition (total influence `α < 1`) the
/// chain mixes in `O(Δ/(1−α) · log(n/ε))` rounds — and more generally
/// `O(1/((1−α)γ) · log(n/ε))` for any scheduler with `Pr[v ∈ I] ≥ γ`.
///
/// Propose phase: the scheduler's per-vertex mark (the Luby `β_v`, a
/// Bernoulli volunteer bit, ...). Resolve phase: vertices the scheduler
/// selects resample from their conditional marginal µ_v(· | X_Γ(v));
/// everyone else keeps their spin.
///
/// # Example (through the sampler facade)
/// ```
/// use lsl_core::prelude::*;
/// use lsl_graph::generators;
/// use lsl_mrf::models;
///
/// let mrf = models::proper_coloring(generators::torus(4, 4), 10);
/// let mut sampler = Sampler::for_mrf(&mrf)
///     .algorithm(Algorithm::LubyGlauber)
///     .scheduler(Sched::Luby)
///     .seed(5)
///     .build()
///     .unwrap();
/// sampler.run(80);
/// assert!(mrf.is_feasible(sampler.state()));
/// ```
#[derive(Clone, Debug)]
pub struct LubyGlauberRule<S: VertexScheduler = LubyScheduler> {
    scheduler: S,
}

impl LubyGlauberRule<LubyScheduler> {
    /// The paper's chain: Luby-step scheduling.
    pub fn luby() -> Self {
        LubyGlauberRule {
            scheduler: LubyScheduler::new(),
        }
    }
}

impl<S: VertexScheduler> LubyGlauberRule<S> {
    /// The chain under a custom scheduler.
    pub fn with_scheduler(scheduler: S) -> Self {
        LubyGlauberRule { scheduler }
    }

    /// The scheduler in use.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }
}

impl<S: VertexScheduler, M: Model> SyncRule<M> for LubyGlauberRule<S> {
    type Local = S::Mark;
    type Scratch = HeatBathScratch;

    const STATE_FREE_PROPOSE: bool = true;

    fn name(&self) -> &'static str {
        "LubyGlauber"
    }

    fn make_scratch(&self, model: &M) -> Self::Scratch {
        HeatBathScratch::new(model)
    }

    fn active_vertex(&self, ctx: &RoundCtx<M>) -> Option<VertexId> {
        // Single-vertex schedulers (e.g. Singleton) take the engine's
        // single-site fast path; `resolve` re-checks `selected`, which
        // must agree, so the trajectory is identical to the full sweep.
        self.scheduler.single_vertex(ctx)
    }

    fn propose<Sv: StateView + ?Sized>(
        &self,
        _ctx: &RoundCtx<M>,
        v: VertexId,
        _state: &Sv,
        rng: &mut Xoshiro256pp,
        _scratch: &mut Self::Scratch,
    ) -> S::Mark {
        self.scheduler.mark(v, rng)
    }

    fn resolve<Sv: StateView + ?Sized>(
        &self,
        ctx: &RoundCtx<M>,
        v: VertexId,
        state: &Sv,
        locals: &[S::Mark],
        scratch: &mut Self::Scratch,
    ) -> Spin {
        if !self.scheduler.selected(ctx, v, locals) {
            return state.spin(v.index());
        }
        scratch.resample(ctx.model(), v, state, ctx.resolve_rng(v).raw())
    }

    fn hot_kernel(
        &self,
        model: &Arc<M>,
        packing: Packing,
        block_rng: bool,
    ) -> Option<Box<dyn HotKernel<S::Mark, M>>> {
        model.luby_glauber_kernel(&self.scheduler, packing, block_rng)
    }
}

/// Computes the update mask of a round from its published marks (for
/// instrumentation: which vertices the scheduler selected).
pub fn scheduled_mask<S: VertexScheduler, M: Model>(
    scheduler: &S,
    ctx: &RoundCtx<M>,
    marks: &[S::Mark],
    out: &mut [bool],
) {
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = scheduler.selected(ctx, VertexId(i as u32), marks);
    }
}

/// The single-site heat-bath Glauber dynamics of §3 as an engine rule:
/// each round, the round-shared stream picks one vertex, which resamples
/// from its conditional marginal (eq. 2). Mixes in
/// `O(n/(1−α) · log(n/ε))` steps under Dobrushin's condition.
///
/// # Example (through the sampler facade)
/// ```
/// use lsl_core::prelude::*;
/// use lsl_graph::generators;
/// use lsl_mrf::models;
///
/// let mrf = models::proper_coloring(generators::cycle(8), 5);
/// let mut sampler = Sampler::for_mrf(&mrf)
///     .algorithm(Algorithm::Glauber)
///     .build()
///     .unwrap();
/// sampler.run(200);
/// assert!(mrf.is_feasible(sampler.state()));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct GlauberRule;

impl SyncRule for GlauberRule {
    type Local = ();
    type Scratch = HeatBathScratch;

    const HAS_PROPOSE: bool = false;

    fn name(&self) -> &'static str {
        "Glauber"
    }

    fn make_scratch(&self, mrf: &Mrf) -> Self::Scratch {
        HeatBathScratch::new(mrf)
    }

    fn active_vertex(&self, ctx: &RoundCtx) -> Option<VertexId> {
        Some(ctx.shared_vertex())
    }

    fn propose<Sv: StateView + ?Sized>(
        &self,
        _ctx: &RoundCtx,
        _v: VertexId,
        _state: &Sv,
        _rng: &mut Xoshiro256pp,
        _scratch: &mut Self::Scratch,
    ) {
    }

    fn resolve<Sv: StateView + ?Sized>(
        &self,
        ctx: &RoundCtx,
        v: VertexId,
        state: &Sv,
        _locals: &[()],
        scratch: &mut Self::Scratch,
    ) -> Spin {
        scratch.resample(ctx.model(), v, state, ctx.resolve_rng(v).raw())
    }
}

/// The single-site Metropolis chain as an engine rule (footnote 2 of the
/// paper): the active vertex proposes `c ∼ b_v` and accepts with
/// probability `Π_{u ∼ v} Ã_uv(c, X_u)`. This is LocalMetropolis
/// restricted to one updating vertex, so it shares its stationary
/// distribution.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetropolisRule;

impl SyncRule for MetropolisRule {
    type Local = ();
    type Scratch = ();

    const HAS_PROPOSE: bool = false;

    fn name(&self) -> &'static str {
        "Metropolis"
    }

    fn make_scratch(&self, _mrf: &Mrf) -> Self::Scratch {}

    fn active_vertex(&self, ctx: &RoundCtx) -> Option<VertexId> {
        Some(ctx.shared_vertex())
    }

    fn propose<Sv: StateView + ?Sized>(
        &self,
        _ctx: &RoundCtx,
        _v: VertexId,
        _state: &Sv,
        _rng: &mut Xoshiro256pp,
        _scratch: &mut Self::Scratch,
    ) {
    }

    fn resolve<Sv: StateView + ?Sized>(
        &self,
        ctx: &RoundCtx,
        v: VertexId,
        state: &Sv,
        _locals: &[()],
        _scratch: &mut Self::Scratch,
    ) -> Spin {
        let mrf = ctx.model();
        let mut rng = ctx.resolve_rng(v);
        let rng = rng.raw();
        let proposal = mrf.vertex_activity(v).sample(rng);
        let mut accept_prob = 1.0;
        for (e, u) in mrf.graph().incident_edges(v) {
            accept_prob *= mrf
                .edge_activity(e)
                .normalized(proposal, state.spin(u.index()));
        }
        // One coin per step keeps coupled streams aligned.
        let coin = rng.uniform_f64();
        if coin < accept_prob {
            proposal
        } else {
            state.spin(v.index())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SyncChain;
    use lsl_graph::generators;
    use lsl_mrf::models;

    #[test]
    fn local_metropolis_rule_preserves_feasibility() {
        let mrf = models::proper_coloring(generators::torus(4, 4), 8);
        let mut chain = SyncChain::new(&mrf, LocalMetropolisRule::new(), 11);
        chain.run(60);
        assert!(mrf.is_feasible(chain.state()));
        for _ in 0..40 {
            chain.step();
            assert!(mrf.is_feasible(chain.state()));
        }
    }

    #[test]
    fn luby_rule_masks_are_independent_sets() {
        let mrf = models::proper_coloring(generators::torus(4, 4), 9);
        let rule = LubyGlauberRule::luby();
        let mut chain = SyncChain::new(&mrf, rule, 5);
        let mut mask = vec![false; mrf.num_vertices()];
        for _ in 0..30 {
            chain.step();
            let (master, round) = chain.last_round_key().unwrap();
            let ctx = crate::engine::RoundCtx::new(&mrf, master, round);
            scheduled_mask(chain.rule().scheduler(), &ctx, chain.locals(), &mut mask);
            assert!(mrf.graph().is_independent_set(&mask));
        }
    }

    #[test]
    fn metropolis_rule_single_site_moves() {
        let mrf = models::proper_coloring(generators::cycle(6), 4);
        let mut chain = SyncChain::new(&mrf, MetropolisRule, 2);
        for _ in 0..50 {
            let before = chain.state().to_vec();
            chain.step();
            let diff = before
                .iter()
                .zip(chain.state())
                .filter(|(a, b)| a != b)
                .count();
            assert!(diff <= 1);
        }
    }
}

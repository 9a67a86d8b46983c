//! Algorithm 1 (LubyGlauber) checked against exact laws. The chain
//! itself is [`LubyGlauberRule`](crate::engine::rules::LubyGlauberRule),
//! on MRFs and weighted CSPs alike (on a CSP it schedules on the primal
//! graph of the scopes, so the updated set is strongly independent).

#[cfg(test)]
mod tests {
    use crate::engine::rules::{scheduled_mask, LubyGlauberRule};
    use crate::engine::{RoundCtx, SyncChain};
    use crate::sampler::{Algorithm, Sampler, Sched};
    use lsl_analysis::EmpiricalDistribution;
    use lsl_graph::generators;
    use lsl_local::rng::Xoshiro256pp;
    use lsl_mrf::csp::Csp;
    use lsl_mrf::gibbs::{encode_config, Enumeration};
    use lsl_mrf::{models, Mrf};
    use std::sync::Arc;

    /// Exact TV of Algorithm 1 under `sched` through the facade's `tv` job.
    fn facade_tv(mrf: &Mrf, sched: Sched, steps: usize, replicas: usize) -> f64 {
        let exact = Enumeration::new(mrf).unwrap();
        Sampler::for_mrf(mrf)
            .algorithm(Algorithm::LubyGlauber)
            .scheduler(sched)
            .seed(31)
            .tv(&exact, steps, replicas)
            .unwrap()
    }

    /// Runs `reps` CSP LubyGlauber chains through the facade (start and
    /// seed per replica from `pick`) and returns the empirical law.
    fn csp_distribution(
        csp: &Arc<Csp>,
        reps: u64,
        rounds: usize,
        mut pick: impl FnMut(u64) -> (Vec<lsl_mrf::Spin>, u64),
    ) -> EmpiricalDistribution {
        let mut emp = EmpiricalDistribution::new();
        for rep in 0..reps {
            let (start, seed) = pick(rep);
            let mut chain = Sampler::for_csp(Arc::clone(csp))
                .start(start)
                .seed(seed)
                .build()
                .unwrap();
            chain.run(rounds);
            assert!(csp.is_feasible(chain.state()), "left the feasible space");
            emp.record(encode_config(chain.state(), 2));
        }
        emp
    }

    #[test]
    fn luby_glauber_updates_are_independent_sets() {
        let mrf = models::proper_coloring(generators::torus(4, 4), 9);
        let mut chain = SyncChain::new(&mrf, LubyGlauberRule::luby(), 0);
        let mut rng = Xoshiro256pp::seed_from(1);
        let mut mask = vec![false; mrf.num_vertices()];
        for _ in 0..30 {
            chain.step_keyed(rng.next());
            let (master, round) = chain.last_round_key().unwrap();
            let ctx = RoundCtx::new(&mrf, master, round);
            scheduled_mask(chain.rule().scheduler(), &ctx, chain.locals(), &mut mask);
            assert!(mrf.graph().is_independent_set(&mask));
        }
        assert!(mrf.is_feasible(chain.state()));
    }

    #[test]
    fn luby_glauber_samples_gibbs_small() {
        // Colorings of C4 with q = 3: TV to exact must vanish.
        let mrf = models::proper_coloring(generators::cycle(4), 3);
        let tv = facade_tv(&mrf, Sched::Luby, 120, 6000);
        assert!(tv < 0.05, "tv = {tv}");
    }

    #[test]
    fn luby_glauber_hardcore_small() {
        let mrf = models::hardcore(generators::path(4), 1.5);
        let tv = facade_tv(&mrf, Sched::Luby, 100, 6000);
        assert!(tv < 0.05, "tv = {tv}");
    }

    #[test]
    fn singleton_scheduler_equals_glauber_distribution() {
        let mrf = models::uniform_independent_set(generators::path(3));
        let tv = facade_tv(&mrf, Sched::Singleton, 80, 6000);
        assert!(tv < 0.05, "tv = {tv}");
    }

    #[test]
    fn bernoulli_scheduler_also_converges() {
        let mrf = models::proper_coloring(generators::path(3), 3);
        let tv = facade_tv(&mrf, Sched::Bernoulli(0.3), 100, 6000);
        assert!(tv < 0.05, "tv = {tv}");
    }

    #[test]
    fn chromatic_scheduler_converges_over_sweeps() {
        // The chromatic scheduler is a systematic scan; after whole sweeps
        // it still targets the Gibbs distribution.
        let mrf = models::proper_coloring(generators::cycle(4), 3);
        // classes = 2, so 121 rounds ≈ 60.5 sweeps.
        let tv = facade_tv(&mrf, Sched::Chromatic, 121, 6000);
        assert!(tv < 0.06, "tv = {tv}");
    }

    #[test]
    fn csp_luby_glauber_samples_uniform_mis() {
        // MIS of the star K_{1,3}: exactly 2 solutions — hub or all leaves.
        // Single-site dynamics cannot move between them (they differ in
        // ≥ 2 coordinates through infeasible intermediates)… in fact for
        // MIS the single-site chain is NOT irreducible in general. Use C5,
        // whose MIS space is connected under single-site moves? C5's MISs
        // are the 5 pairs of non-adjacent vertices; moving between them
        // one flip at a time passes through non-maximal sets — also
        // infeasible. So instead validate *invariance*: starting from a
        // uniform random MIS, the chain keeps the uniform distribution.
        let csp = Arc::new(Csp::maximal_independent_set(Arc::new(generators::cycle(5))));
        let sols = csp.enumerate();
        assert_eq!(sols.len(), 5);
        let emp = csp_distribution(&csp, 8000, 20, |rep| {
            let mut rng = Xoshiro256pp::seed_from(900 + rep);
            // Exact-uniform start over solutions.
            let pick = rand::RngExt::random_range(&mut rng, 0..sols.len() as u64) as usize;
            (sols[pick].0.clone(), rng.next())
        });
        // Uniformity preserved.
        for (sol, _) in &sols {
            let f = emp.frequency(encode_config(sol, 2));
            assert!((f - 0.2).abs() < 0.02, "sol {sol:?}: freq {f}");
        }
    }

    #[test]
    fn csp_luby_glauber_dominating_sets_mix() {
        // Dominating sets of P3 are connected under single-site moves:
        // {1} ↔ {0,1} ↔ {0,1,2} etc. The chain should reach uniform.
        let csp = Arc::new(Csp::dominating_set(Arc::new(generators::path(3))));
        let sols = csp.enumerate();
        assert_eq!(sols.len(), 5);
        let emp = csp_distribution(&csp, 10_000, 60, |rep| (vec![1, 1, 1], 1700 + rep));
        for (sol, _) in &sols {
            let f = emp.frequency(encode_config(sol, 2));
            assert!((f - 0.2).abs() < 0.025, "sol {sol:?}: freq {f}");
        }
    }
}

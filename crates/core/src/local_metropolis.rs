//! Exact-law tests of Algorithm 2 (LocalMetropolis) through the facade's
//! `tv` job, the production path. The chain itself is
//! [`LocalMetropolisRule`](crate::engine::rules::LocalMetropolisRule).

mod tests {
    use crate::sampler::{Algorithm, Sampler};
    use lsl_graph::generators;
    use lsl_mrf::gibbs::Enumeration;
    use lsl_mrf::{models, Mrf};

    /// Exact TV after `steps` rounds over `replicas` iid copies.
    fn facade_tv(mrf: &Mrf, alg: Algorithm, steps: usize, replicas: usize) -> f64 {
        let exact = Enumeration::new(mrf).unwrap();
        Sampler::for_mrf(mrf)
            .algorithm(alg)
            .seed(77)
            .tv(&exact, steps, replicas)
            .unwrap()
    }

    #[test]
    fn never_moves_to_less_proper() {
        // Once feasible, stays feasible (absorption, Thm 4.1 proof).
        let mrf = models::proper_coloring(generators::torus(4, 4), 8);
        let mut chain = Sampler::for_mrf(&mrf).seed(4).build().unwrap();
        chain.run(30);
        assert!(mrf.is_feasible(chain.state()));
        for _ in 0..50 {
            chain.step();
            assert!(mrf.is_feasible(chain.state()));
        }
    }

    #[test]
    fn absorbs_from_infeasible_start() {
        // Start all-same-color (maximally infeasible); with q ≥ Δ+2 the
        // chain must become proper quickly.
        let mrf = models::proper_coloring(generators::cycle(8), 5);
        let mut chain = Sampler::for_mrf(&mrf)
            .start(vec![0; 8])
            .seed(6)
            .build()
            .unwrap();
        let mut feasible_at = None;
        for t in 0..200 {
            if mrf.is_feasible(chain.state()) {
                feasible_at = Some(t);
                break;
            }
            chain.step();
        }
        assert!(feasible_at.is_some(), "never became proper");
    }

    #[test]
    fn samples_gibbs_colorings_small() {
        let mrf = models::proper_coloring(generators::cycle(4), 4);
        let tv = facade_tv(&mrf, Algorithm::LocalMetropolis, 80, 8000);
        assert!(tv < 0.05, "tv = {tv}");
    }

    #[test]
    fn samples_soft_constraint_models() {
        // Ising (soft activities exercise the fractional coin path).
        let mrf = models::ising(generators::path(3), 0.6);
        let tv = facade_tv(&mrf, Algorithm::LocalMetropolis, 80, 8000);
        assert!(tv < 0.05, "tv = {tv}");
    }

    #[test]
    fn samples_hardcore() {
        let mrf = models::hardcore(generators::path(3), 1.0);
        let tv = facade_tv(&mrf, Algorithm::LocalMetropolis, 60, 8000);
        assert!(tv < 0.05, "tv = {tv}");
    }

    #[test]
    fn rule3_chain_correct_where_ablation_differs() {
        // The full chain stays correct on an instance where the rule-3
        // ablation converges to a wrong law (exact stationary TV 0.2,
        // experiment E9). The ablation is the negative control: the
        // same check, steps and replica count must reject it.
        let mrf = models::proper_coloring(generators::path(3), 3);
        let good = facade_tv(&mrf, Algorithm::LocalMetropolis, 400, 8000);
        assert!(good < 0.05, "good = {good}");
        let ablated = facade_tv(&mrf, Algorithm::LocalMetropolisNoRule3, 400, 8000);
        assert!(ablated > 0.1, "ablated = {ablated}");
    }

    #[test]
    fn large_degree_still_correct() {
        // Star with q = 2Δ? LocalMetropolis correctness (not mixing speed)
        // only needs the chain rules; test on a star with ample colors.
        let mrf = models::proper_coloring(generators::star(3), 4);
        let tv = facade_tv(&mrf, Algorithm::LocalMetropolis, 300, 20_000);
        assert!(tv < 0.06, "tv = {tv}");
    }
}

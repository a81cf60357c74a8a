//! Estimation error against exact ground truth, computed the way the
//! paper's figures are (`per_bucket_nmse` + `SeriesSet::geometric_mean`
//! over log-spaced degrees, as `run_degree_error` reports it).

use frontier_sampling::estimators::{DegreeDistributionEstimator, EdgeEstimator};
use frontier_sampling::metrics::per_bucket_nmse;
use frontier_sampling::parallel::ParallelWalkerPool;
use frontier_sampling::{Budget, CostModel, WalkMethod};
use fs_experiments::monte_carlo_with;
use fs_experiments::series::{log_spaced_degrees, SeriesSet};
use fs_graph::stats::DegreeKind;
use fs_graph::{ccdf, degree_distribution, Graph, GraphAccess};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The exact symmetric-degree CCDF `γ` of `graph`.
pub fn truth_ccdf(graph: &Graph) -> Vec<f64> {
    ccdf(&degree_distribution(graph, DegreeKind::Symmetric))
}

/// One library FS run (`WalkMethod::frontier(m).sample_edges` at unit
/// costs): its estimated degree distribution `θ̂`.
pub fn fs_theta<A: GraphAccess + ?Sized>(graph: &A, m: usize, budget: f64, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut est = DegreeDistributionEstimator::symmetric();
    let mut b = Budget::new(budget);
    WalkMethod::frontier(m).sample_edges(graph, &CostModel::unit(), &mut b, &mut rng, |e| {
        est.observe(graph, e)
    });
    est.distribution()
}

/// CCDF CNMSE (see [`cnmse_ccdf`]) of `runs` library FS runs over
/// `graph`, on two threads.
pub fn fs_library_cnmse<A: GraphAccess + ?Sized>(
    graph: &A,
    (m, budget): (usize, f64),
    runs: usize,
    seed: u64,
    truth: &[f64],
    min_truth: f64,
) -> Option<f64> {
    let pool = ParallelWalkerPool::with_threads(2);
    let ccdfs = monte_carlo_with(&pool, runs, seed, |s| ccdf(&fs_theta(graph, m, budget, s)));
    cnmse_ccdf(&ccdfs, truth, min_truth)
}

/// Geometric-mean CNMSE of CCDF estimates over the log-spaced degrees
/// `d` whose true CCDF `γ_d` is at least `min_truth` (undefined and
/// zero-error degrees skipped).
pub fn cnmse_ccdf(estimates: &[Vec<f64>], truth: &[f64], min_truth: f64) -> Option<f64> {
    let errors = per_bucket_nmse(estimates, truth);
    let mut set = SeriesSet::new("degree", log_spaced_degrees(errors.len().saturating_sub(1)));
    set.add_fn("e", |x| {
        if truth[x] >= min_truth {
            errors[x]
        } else {
            None
        }
    });
    set.geometric_mean("e")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnmse_of_ccdf_estimates() {
        let truth = vec![1.0, 0.5, 0.25];
        let exact = cnmse_ccdf(std::slice::from_ref(&truth), &truth, 0.0);
        assert_eq!(exact, None); // no error anywhere
        let off = vec![1.0, 0.6, 0.15]; // errors 0.2 and 0.4
        let both = cnmse_ccdf(std::slice::from_ref(&off), &truth, 0.0).unwrap();
        assert!((both - (0.2f64 * 0.4).sqrt()).abs() < 1e-12);
        // Degree 2 (γ = 0.25) falls below the floor: only degree 1 counts.
        let body = cnmse_ccdf(&[off], &truth, 0.3).unwrap();
        assert!((body - 0.2).abs() < 1e-12);
    }

    #[test]
    fn library_runs_estimate_a_complete_graph_exactly() {
        // Every vertex of K5 has degree 4: any FS sample is exact.
        let g = fs_graph::graph_from_undirected_pairs(
            5,
            (0..5usize).flat_map(|a| (a + 1..5).map(move |b| (a, b))),
        );
        let truth = truth_ccdf(&g);
        assert_eq!(fs_library_cnmse(&g, (2, 100.0), 4, 1, &truth, 0.0), None);
    }
}

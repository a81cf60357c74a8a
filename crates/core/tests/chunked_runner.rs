//! The chunked runner's determinism contract: for every sampler and
//! every chunk size, a chunked run with seed `s` emits **bit-identical**
//! samples — and spends an identical budget — to the one-shot library
//! call with seed `s`. This is the property the serving layer's
//! "server result == library result" guarantee rests on.

use frontier_sampling::runner::{ChunkStatus, ChunkedRunner, Sample, SamplerSpec};
use frontier_sampling::{
    Budget, CostModel, FrontierSampler, MetropolisHastingsRw, MultipleRw, NonBacktrackingRw,
    ParallelWalkerPool, RandomWalkWithJumps, SingleRw, StepOutcome,
};
use fs_graph::Graph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn fixture() -> Graph {
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    fs_gen::barabasi_albert(300, 3, &mut rng)
}

/// The one-shot library call a chunked run must replay, per sampler.
fn library_samples(
    spec: &SamplerSpec,
    g: &Graph,
    budget_units: f64,
    seed: u64,
) -> (Vec<Sample>, f64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut budget = Budget::new(budget_units);
    let cost = CostModel::unit();
    let mut out = Vec::new();
    match *spec {
        SamplerSpec::Frontier { m } => {
            // FS's reference is the exponential-clock pool (itself
            // bit-identical at every thread count and batch width); the
            // runner replays its per-walker streams and (time, walker)
            // merge. Re-pinned from the sequential shared-RNG sampler
            // when the runner moved to the batched engine — the two are
            // distribution-identical but factorize randomness
            // differently.
            let run = ParallelWalkerPool::new().frontier(
                &FrontierSampler::new(m),
                g,
                &cost,
                &mut budget,
                seed,
            );
            out.extend(run.steps.iter().filter_map(|s| match s.outcome {
                StepOutcome::Edge(e) => Some(Sample::Edge(e)),
                _ => None,
            }));
        }
        SamplerSpec::Single => {
            SingleRw::new().sample_edges(g, &cost, &mut budget, &mut rng, |e| {
                out.push(Sample::Edge(e))
            });
        }
        SamplerSpec::Multiple { m } => {
            MultipleRw::new(m).sample_edges(g, &cost, &mut budget, &mut rng, |e| {
                out.push(Sample::Edge(e))
            });
        }
        SamplerSpec::Mhrw => {
            MetropolisHastingsRw::new().sample_vertices(g, &cost, &mut budget, &mut rng, |v| {
                out.push(Sample::Vertex(v))
            });
        }
        SamplerSpec::Nbrw => {
            NonBacktrackingRw::new().sample_edges(g, &cost, &mut budget, &mut rng, |e| {
                out.push(Sample::Edge(e))
            });
        }
        SamplerSpec::Rwj { alpha } => {
            RandomWalkWithJumps::new(alpha).sample_visits(g, &cost, &mut budget, &mut rng, |v| {
                out.push(Sample::Vertex(v))
            });
        }
    }
    (out, budget.spent())
}

fn chunked_samples(
    spec: &SamplerSpec,
    g: &Graph,
    budget_units: f64,
    seed: u64,
    chunk: usize,
) -> (Vec<Sample>, f64) {
    let mut runner = ChunkedRunner::new(spec, g, &CostModel::unit(), budget_units, seed);
    let mut out = Vec::new();
    let mut chunks = 0usize;
    while runner.run_chunk(chunk, |s| out.push(s)) == ChunkStatus::InProgress {
        chunks += 1;
        assert!(chunks < 10_000_000, "runner failed to terminate");
    }
    assert!(runner.finished());
    (out, runner.budget_spent())
}

fn all_specs() -> Vec<SamplerSpec> {
    vec![
        SamplerSpec::Frontier { m: 5 },
        SamplerSpec::Single,
        SamplerSpec::Multiple { m: 4 },
        SamplerSpec::Mhrw,
        SamplerSpec::Nbrw,
        SamplerSpec::Rwj { alpha: 2.0 },
    ]
}

#[test]
fn chunked_equals_one_shot_for_every_sampler_and_chunk_size() {
    let g = fixture();
    for spec in all_specs() {
        for seed in [1u64, 42, 0xFE5] {
            let (expect, expect_spent) = library_samples(&spec, &g, 700.0, seed);
            assert!(!expect.is_empty(), "{}: library run empty", spec.label());
            for chunk in [1usize, 7, 64, usize::MAX] {
                let (got, got_spent) = chunked_samples(&spec, &g, 700.0, seed, chunk);
                assert_eq!(
                    got,
                    expect,
                    "{} seed {seed} chunk {chunk}: sample stream diverged",
                    spec.label()
                );
                assert_eq!(
                    got_spent,
                    expect_spent,
                    "{} seed {seed} chunk {chunk}: budget spend diverged",
                    spec.label()
                );
            }
        }
    }
}

#[test]
fn chunked_runner_matches_on_disconnected_graph() {
    // Two components — the regime FS exists for; MultipleRW walkers can
    // stall in a tiny component, exercising the walker-advance path.
    let g = fs_graph::graph_from_undirected_pairs(
        8,
        [
            (0, 1),
            (1, 2),
            (0, 2),
            (2, 3),
            (4, 5),
            (5, 6),
            (6, 7),
            (4, 7),
        ],
    );
    for spec in all_specs() {
        let (expect, _) = library_samples(&spec, &g, 300.0, 11);
        for chunk in [1usize, 13] {
            let (got, _) = chunked_samples(&spec, &g, 300.0, 11, chunk);
            assert_eq!(got, expect, "{} chunk {chunk}", spec.label());
        }
    }
}

#[test]
fn budget_smaller_than_starts_finishes_clean() {
    let g = fixture();
    // m = 8 walkers, budget 5: start draws eat the whole budget.
    let spec = SamplerSpec::Frontier { m: 8 };
    let (expect, _) = library_samples(&spec, &g, 5.0, 3);
    assert!(expect.is_empty());
    let (got, _) = chunked_samples(&spec, &g, 5.0, 3, 4);
    assert_eq!(got, expect);
}

#[test]
fn isolated_start_universe_stalls_cleanly() {
    // Fixed-free sampler on a graph with isolated vertices: uniform
    // start redraws burn budget exactly like the library call.
    let g = fs_graph::graph_from_undirected_pairs(6, [(0, 1)]);
    for spec in [SamplerSpec::Single, SamplerSpec::Mhrw] {
        let (expect, expect_spent) = library_samples(&spec, &g, 50.0, 21);
        let (got, got_spent) = chunked_samples(&spec, &g, 50.0, 21, 3);
        assert_eq!(got, expect, "{}", spec.label());
        assert_eq!(got_spent, expect_spent);
    }
    // Same check for the walker that can land jumps on isolated ids.
    let spec = SamplerSpec::Rwj { alpha: 1.5 };
    let (expect, expect_spent) = library_samples(&spec, &g, 50.0, 21);
    let (got, got_spent) = chunked_samples(&spec, &g, 50.0, 21, 3);
    assert_eq!(got, expect);
    assert_eq!(got_spent, expect_spent);
}

#[test]
fn vertex_and_edge_streams_have_the_declared_kind() {
    let g = fixture();
    for spec in all_specs() {
        let (samples, _) = library_samples(&spec, &g, 120.0, 5);
        for s in &samples {
            match (spec.emits_vertices(), s) {
                (true, Sample::Vertex(_)) | (false, Sample::Edge(_)) => {}
                other => panic!("{}: unexpected sample kind {other:?}", spec.label()),
            }
        }
    }
}

/// The pooled law's reference: `pool.multiple_rw` with the same seed.
fn pool_multiple_rw(m: usize, g: &Graph, budget_units: f64, seed: u64) -> (Vec<Sample>, f64) {
    let mut budget = Budget::new(budget_units);
    let run = ParallelWalkerPool::with_threads(2).multiple_rw(
        &MultipleRw::new(m),
        g,
        &CostModel::unit(),
        &mut budget,
        seed,
    );
    let samples = run.edges().map(Sample::Edge).collect();
    (samples, budget.spent())
}

/// Drives a pooled runner to completion, serializing and resuming from
/// the bytes after every `resume_every`-th chunk (never, when 0).
fn pooled_samples(
    spec: &SamplerSpec,
    g: &Graph,
    budget_units: f64,
    seed: u64,
    chunk: usize,
    resume_every: usize,
) -> (Vec<Sample>, f64, u64) {
    let mut runner =
        ChunkedRunner::new_pooled(spec, g, &CostModel::unit(), budget_units, seed).unwrap();
    let mut out = Vec::new();
    let mut chunks = 0usize;
    while runner.run_chunk(chunk, |s| out.push(s)) == ChunkStatus::InProgress {
        chunks += 1;
        assert!(chunks < 10_000_000, "runner failed to terminate");
        if resume_every > 0 && chunks.is_multiple_of(resume_every) {
            runner = ChunkedRunner::resume_pooled(spec, g, &runner.serialize()).unwrap();
        }
    }
    (out, runner.budget_spent(), runner.steps_done())
}

#[test]
fn pooled_multiple_rw_equals_the_pool_for_every_chunk_size() {
    let g = fixture();
    let disconnected =
        fs_graph::graph_from_undirected_pairs(9, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (6, 7)]);
    // m = 40 spans three lane groups (the last one partial); the
    // disconnected graph has an isolated vertex, so some walkers retire
    // at their first step.
    for (g, m, budget) in [
        (&g, 4, 700.0),
        (&g, 40, 2_000.0),
        (&disconnected, 20, 300.0),
    ] {
        let spec = SamplerSpec::Multiple { m };
        for seed in [1u64, 42, 0xFE5] {
            let (expect, expect_spent) = pool_multiple_rw(m, g, budget, seed);
            assert!(!expect.is_empty(), "m={m}: pool run empty");
            for chunk in [1usize, 7, 64, usize::MAX] {
                let (got, got_spent, _) = pooled_samples(&spec, g, budget, seed, chunk, 0);
                assert_eq!(
                    got, expect,
                    "m={m} seed {seed} chunk {chunk}: stream diverged"
                );
                assert_eq!(
                    got_spent, expect_spent,
                    "m={m} seed {seed} chunk {chunk}: spend"
                );
            }
        }
    }
}

#[test]
fn pooled_runs_resume_bit_identically_at_any_chunk_boundary() {
    let g = fixture();
    for spec in [
        SamplerSpec::Multiple { m: 40 },
        SamplerSpec::Frontier { m: 5 },
    ] {
        let (expect, expect_spent, expect_steps) = pooled_samples(&spec, &g, 2_000.0, 9, 1, 0);
        for (chunk, every) in [(1usize, 1usize), (7, 3), (64, 1)] {
            let (got, spent, steps) = pooled_samples(&spec, &g, 2_000.0, 9, chunk, every);
            assert_eq!(got, expect, "{} chunk {chunk}", spec.label());
            assert_eq!(spent, expect_spent);
            assert_eq!(steps, expect_steps);
        }
    }
    // Pooled FS is the sequential FS run.
    let spec = SamplerSpec::Frontier { m: 5 };
    assert_eq!(
        pooled_samples(&spec, &g, 700.0, 3, 64, 0).0,
        chunked_samples(&spec, &g, 700.0, 3, 64).0
    );
}

#[test]
fn multiple_rw_checkpoints_keep_their_law() {
    let g = fixture();
    let spec = SamplerSpec::Multiple { m: 8 };
    let cost = CostModel::unit();
    let mut pooled = ChunkedRunner::new_pooled(&spec, &g, &cost, 500.0, 5).unwrap();
    let mut sequential = ChunkedRunner::new(&spec, &g, &cost, 500.0, 5);
    pooled.run_chunk(10, |_| {});
    sequential.run_chunk(10, |_| {});
    assert!(ChunkedRunner::resume(&spec, &g, &pooled.serialize()).is_err());
    assert!(ChunkedRunner::resume_pooled(&spec, &g, &sequential.serialize()).is_err());
    assert!(ChunkedRunner::new_pooled(&SamplerSpec::Single, &g, &cost, 500.0, 5).is_err());
}

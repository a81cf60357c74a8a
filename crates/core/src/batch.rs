//! SoA walker batches stepped in lockstep over the batched backend
//! query.
//!
//! A single walker's step is a dependent two-load chain
//! (`targets[row + i]` → `offsets[t..t+2]`), so one walker at a time is
//! memory-*latency*-bound: on graphs that outgrow the last-level cache
//! the core sits idle for the full round-trip of every load. The fix is
//! memory-level parallelism — keep many independent walkers' loads in
//! flight at once. [`WalkerBatch`] holds the walkers' hot state as
//! parallel arrays (structure-of-arrays: `vertex[]`, `degree[]`,
//! `row[]`, `rng[]`) and [`WalkerBatch::step_lanes`] advances a chosen
//! set of lanes by exactly one step each through
//! [`GraphAccess::step_query_batch`], which prefetches every lane's
//! cache lines before any dependent load executes (see
//! `fs_graph::csr::STEP_PIPELINE_WIDTH`).
//!
//! ## Determinism
//!
//! Lockstep batching is **bit-identical** to stepping the same walkers
//! one at a time: every walker draws from its own RNG stream, and
//! `step_lanes` preserves each lane's per-walker draw order (the
//! neighbor pick in the fill pass, then whatever the `apply` callback
//! draws — e.g. an exponential holding time — in the resolve pass).
//! Cross-walker interleaving therefore never touches any walker's
//! stream, which is what lets [`crate::parallel::ParallelWalkerPool`]
//! and [`crate::runner::ChunkedRunner`] adopt the batched engine without
//! re-pinning their thread-count-invariance tests.
//!
//! [`FsEventBatch`] layers the Theorem 5.5 exponential-clock schedule on
//! top: each lane is one FS walker generating `(event time, outcome)`
//! pairs, advanced in lockstep up to a virtual-time horizon. It is the
//! shared engine behind the pool's `frontier` and the chunked runner's
//! FS arm, so the two cannot drift apart.

use crate::walk::{self, Stepped};
use fs_graph::{GraphAccess, StepSlot, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One lane's full resumable state, as captured by
/// [`WalkerBatch::lane_state`] and restored by
/// [`WalkerBatch::from_lane_states`]. Degree and row are stored
/// verbatim (not re-derived from the backend) so a restored lane
/// continues exactly the trajectory it was on — including lanes whose
/// replies came from a degraded backend.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LaneState {
    /// Current vertex.
    pub vertex: VertexId,
    /// Degree of `vertex` as last reported to this lane.
    pub degree: usize,
    /// Backend row handle of `vertex` as last reported.
    pub row: usize,
    /// The lane's RNG stream state ([`SmallRng::state`]).
    pub rng: [u64; 4],
}

/// Hot walker state as parallel arrays, stepped in lockstep. See the
/// [module docs](self).
#[derive(Debug)]
pub struct WalkerBatch {
    /// Current vertex of each lane.
    vertex: Vec<VertexId>,
    /// Degree of `vertex[lane]`, threaded from the previous reply.
    degree: Vec<usize>,
    /// Backend row handle of `vertex[lane]`, threaded alongside.
    row: Vec<usize>,
    /// Per-lane RNG stream state.
    rng: Vec<SmallRng>,
    /// Scratch: pending combined queries of the current lockstep round.
    slots: Vec<StepSlot>,
    /// Scratch: `slot_lanes[k]` is the lane that owns `slots[k]`.
    slot_lanes: Vec<usize>,
}

impl WalkerBatch {
    /// Builds a batch with lane `i` at `starts[i]`, drawing from a fresh
    /// [`SmallRng`] seeded with `seeds[i]` (callers derive these via
    /// [`crate::parallel::stream_seed`]).
    ///
    /// # Panics
    /// Panics if `starts` and `seeds` differ in length.
    pub fn new<A: GraphAccess + ?Sized>(access: &A, starts: &[VertexId], seeds: &[u64]) -> Self {
        assert_eq!(starts.len(), seeds.len(), "one seed per walker");
        WalkerBatch {
            vertex: starts.to_vec(),
            degree: starts.iter().map(|&v| access.degree(v)).collect(),
            row: starts.iter().map(|&v| access.vertex_row(v)).collect(),
            rng: seeds.iter().map(|&s| SmallRng::seed_from_u64(s)).collect(),
            slots: Vec::new(),
            slot_lanes: Vec::new(),
        }
    }

    /// Captures one lane's resumable state for checkpointing.
    pub fn lane_state(&self, lane: usize) -> LaneState {
        LaneState {
            vertex: self.vertex[lane],
            degree: self.degree[lane],
            row: self.row[lane],
            rng: self.rng[lane].state(),
        }
    }

    /// Rebuilds a batch from captured lane states. The scratch arrays
    /// start empty (they are per-call state), so stepping a restored
    /// batch is bit-identical to stepping the original.
    pub fn from_lane_states(lanes: &[LaneState]) -> Self {
        WalkerBatch {
            vertex: lanes.iter().map(|l| l.vertex).collect(),
            degree: lanes.iter().map(|l| l.degree).collect(),
            row: lanes.iter().map(|l| l.row).collect(),
            rng: lanes.iter().map(|l| SmallRng::from_state(l.rng)).collect(),
            slots: Vec::new(),
            slot_lanes: Vec::new(),
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.vertex.len()
    }

    /// Whether the batch has zero lanes.
    pub fn is_empty(&self) -> bool {
        self.vertex.is_empty()
    }

    /// Current degree of `lane` (0 once the walker is stuck).
    #[inline]
    pub fn degree(&self, lane: usize) -> usize {
        self.degree[lane]
    }

    /// Mutable access to a lane's RNG (for draws that precede the first
    /// step, e.g. the initial exponential holding time).
    #[inline]
    pub fn rng_mut(&mut self, lane: usize) -> &mut SmallRng {
        &mut self.rng[lane]
    }

    /// Advances each listed lane by exactly one step, batching the
    /// backend queries. For every lane, in lane-list order per phase:
    ///
    /// 1. *Fill*: draw the uniform neighbor pick from the lane's RNG and
    ///    queue the combined query (isolated lanes draw nothing and
    ///    resolve immediately, mirroring [`walk::step_known`]).
    /// 2. *Resolve*: the backend answers all queued queries in one
    ///    [`GraphAccess::step_query_batch`]; each lane's SoA state is
    ///    updated and `apply(lane, stepped, rng)` runs with the lane's
    ///    RNG borrowed for follow-up draws.
    ///
    /// Each lane must appear at most once per call (its state advances
    /// once). Per-lane RNG order is pick-then-apply, identical to the
    /// sequential `step_known` + caller-draw loop.
    pub fn step_lanes<A: GraphAccess + ?Sized>(
        &mut self,
        access: &A,
        lanes: &[usize],
        mut apply: impl FnMut(usize, Stepped, &mut SmallRng),
    ) {
        self.slots.clear();
        self.slot_lanes.clear();
        for &lane in lanes {
            let d = self.degree[lane];
            if d == 0 {
                apply(
                    lane,
                    Stepped {
                        outcome: walk::StepOutcome::Isolated,
                        degree_after: 0,
                        row_after: self.row[lane],
                    },
                    &mut self.rng[lane],
                );
                continue;
            }
            let pick = self.rng[lane].gen_range(0..d);
            self.slots
                .push(StepSlot::new(self.vertex[lane], self.row[lane], pick));
            self.slot_lanes.push(lane);
        }
        access.step_query_batch(&mut self.slots);
        for (slot, &lane) in self.slots.iter().zip(self.slot_lanes.iter()) {
            let stepped = walk::resolve_stepped(
                self.vertex[lane],
                self.degree[lane],
                self.row[lane],
                slot.reply,
            );
            self.vertex[lane] = stepped.outcome.position_after(self.vertex[lane]);
            self.degree[lane] = stepped.degree_after;
            self.row[lane] = stepped.row_after;
            apply(lane, stepped, &mut self.rng[lane]);
        }
    }
}

/// A group of FS walkers under the Theorem 5.5 exponential-clock
/// factorization, generating `(event time, outcome)` streams in
/// batched lockstep. Lane `i`'s stream is a pure function of its seed —
/// identical to the sequential per-walker generator — so outputs are
/// invariant to horizon schedule, grouping, and thread placement.
#[derive(Debug)]
pub struct FsEventBatch {
    batch: WalkerBatch,
    /// Absolute time of each lane's next step; `None` once stuck on a
    /// degree-0 vertex (rate 0 → the clock never fires again).
    next_fire: Vec<Option<f64>>,
    /// Scratch: lanes due in the current lockstep round.
    due: Vec<usize>,
}

impl FsEventBatch {
    /// Builds the group with lane `i` started at `starts[i]` on the RNG
    /// stream seeded `seeds[i]`. Each lane draws its initial holding
    /// time exactly like the sequential generator (one exponential draw,
    /// none for isolated starts).
    pub fn new<A: GraphAccess + ?Sized>(access: &A, starts: &[VertexId], seeds: &[u64]) -> Self {
        let mut batch = WalkerBatch::new(access, starts, seeds);
        let next_fire = (0..batch.len())
            .map(|lane| {
                let d = batch.degree(lane);
                walk::exp_holding_time(d, batch.rng_mut(lane))
            })
            .collect();
        FsEventBatch {
            batch,
            next_fire,
            due: Vec::new(),
        }
    }

    /// Captures the group's resumable state into `lanes` and
    /// `next_fire` (each lane's walker state plus its pending clock),
    /// reusing their allocations.
    pub fn save_into(&self, lanes: &mut Vec<LaneState>, next_fire: &mut Vec<Option<f64>>) {
        lanes.clear();
        lanes.extend((0..self.batch.len()).map(|lane| self.batch.lane_state(lane)));
        next_fire.clear();
        next_fire.extend_from_slice(&self.next_fire);
    }

    /// Rebuilds a group from [`FsEventBatch::save_into`] output.
    ///
    /// # Panics
    /// Panics if `lanes` and `next_fire` differ in length.
    pub fn from_checkpoint(lanes: &[LaneState], next_fire: Vec<Option<f64>>) -> Self {
        assert_eq!(lanes.len(), next_fire.len(), "one clock per lane");
        FsEventBatch {
            batch: WalkerBatch::from_lane_states(lanes),
            next_fire,
            due: Vec::new(),
        }
    }

    /// Whether every lane's clock has stopped for good.
    pub fn all_stuck(&self) -> bool {
        self.next_fire.iter().all(Option::is_none)
    }

    /// Current aggregate event rate: the summed degree of all live lanes
    /// (each lane fires at rate `deg`). Horizon schedulers use this to
    /// size windows so speculative overshoot stays small.
    pub fn rate(&self) -> f64 {
        self.next_fire
            .iter()
            .zip(0..self.batch.len())
            .filter(|(fire, _)| fire.is_some())
            .map(|(_, lane)| self.batch.degree(lane) as f64)
            .sum()
    }

    /// Generates every event with time `≤ t_hi`, in batched lockstep:
    /// each round steps all lanes whose clocks are due, so up to a full
    /// group of independent CSR load chains is in flight at once.
    /// `emit(lane, time, outcome)` receives each lane's events in that
    /// lane's time order (cross-lane ordering is the caller's merge).
    /// Resumable: later calls with a larger horizon continue each lane's
    /// stream exactly where it stopped.
    pub fn advance<A: GraphAccess + ?Sized>(
        &mut self,
        access: &A,
        t_hi: f64,
        mut emit: impl FnMut(usize, f64, walk::StepOutcome),
    ) {
        loop {
            self.due.clear();
            for (lane, fire) in self.next_fire.iter().enumerate() {
                if fire.is_some_and(|t| t <= t_hi) {
                    self.due.push(lane);
                }
            }
            if self.due.is_empty() {
                return;
            }
            let next_fire = &mut self.next_fire;
            self.batch
                .step_lanes(access, &self.due, |lane, stepped, rng| {
                    let t = next_fire[lane].expect("due lane has a pending clock");
                    emit(lane, t, stepped.outcome);
                    next_fire[lane] = if stepped.outcome == walk::StepOutcome::Isolated {
                        None
                    } else {
                        walk::exp_holding_time(stepped.degree_after, rng).map(|dt| t + dt)
                    };
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::stream_seed;
    use crate::walk::StepOutcome;
    use fs_graph::graph_from_undirected_pairs;

    #[test]
    fn lockstep_matches_sequential_step_known() {
        // Stepping 5 walkers in lockstep must reproduce each walker's
        // sequential trajectory bit-for-bit.
        let g = graph_from_undirected_pairs(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]);
        let starts: Vec<VertexId> = [0usize, 1, 2, 3, 4]
            .iter()
            .map(|&v| VertexId::new(v))
            .collect();
        let seeds: Vec<u64> = (0..5).map(|i| stream_seed(777, i)).collect();

        let mut expected: Vec<Vec<StepOutcome>> = Vec::new();
        for (&s, &seed) in starts.iter().zip(seeds.iter()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut v, mut d, mut row) = (s, g.degree(s), g.row_start(s));
            let mut trace = Vec::new();
            for _ in 0..40 {
                let stepped = walk::step_known(&g, v, d, row, &mut rng);
                trace.push(stepped.outcome);
                v = stepped.outcome.position_after(v);
                d = stepped.degree_after;
                row = stepped.row_after;
            }
            expected.push(trace);
        }

        let mut batch = WalkerBatch::new(&g, &starts, &seeds);
        let mut traces: Vec<Vec<StepOutcome>> = vec![Vec::new(); 5];
        let lanes: Vec<usize> = (0..5).collect();
        for _ in 0..40 {
            batch.step_lanes(&g, &lanes, |lane, stepped, _| {
                traces[lane].push(stepped.outcome)
            });
        }
        assert_eq!(traces, expected);
    }

    #[test]
    fn isolated_lanes_resolve_without_rng() {
        let g = graph_from_undirected_pairs(3, [(0, 1)]);
        let starts = [VertexId::new(2), VertexId::new(0)];
        let seeds = [stream_seed(5, 0), stream_seed(5, 1)];
        let mut batch = WalkerBatch::new(&g, &starts, &seeds);
        let mut outcomes = Vec::new();
        batch.step_lanes(&g, &[0, 1], |lane, stepped, _| {
            outcomes.push((lane, stepped.outcome))
        });
        assert_eq!(outcomes[0], (0, StepOutcome::Isolated));
        assert!(matches!(outcomes[1], (1, StepOutcome::Edge(_))));
        // The isolated lane stays isolated; the live lane keeps walking.
        batch.step_lanes(&g, &[0, 1], |lane, stepped, _| {
            if lane == 0 {
                assert_eq!(stepped.outcome, StepOutcome::Isolated);
            }
        });
    }

    #[test]
    fn fs_event_batch_is_horizon_invariant() {
        // The same walkers advanced in one jump vs many small windows
        // must emit identical event streams.
        let g = graph_from_undirected_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]);
        let starts = [VertexId::new(0), VertexId::new(3)];
        let seeds = [stream_seed(42, 0), stream_seed(42, 1)];

        let mut one = FsEventBatch::new(&g, &starts, &seeds);
        let mut jump: Vec<(usize, u64, StepOutcome)> = Vec::new();
        one.advance(&g, 50.0, |lane, t, o| jump.push((lane, t.to_bits(), o)));

        let mut many = FsEventBatch::new(&g, &starts, &seeds);
        let mut stepped: Vec<(usize, u64, StepOutcome)> = Vec::new();
        for k in 1..=100 {
            many.advance(&g, 0.5 * k as f64, |lane, t, o| {
                stepped.push((lane, t.to_bits(), o))
            });
        }
        // The emit contract orders events per lane only; the global
        // (t, lane) merge is the caller's job, so compare merged streams.
        // (Positive finite f64 order agrees with to_bits order.)
        jump.sort_by_key(|&(lane, t, _)| (t, lane));
        stepped.sort_by_key(|&(lane, t, _)| (t, lane));
        assert_eq!(jump, stepped);
        assert!(!jump.is_empty());
    }
}

//! Cost functions the searchers can optimize.
//!
//! The WHT package searches by *empirical runtime*; the paper's point is
//! that *model* costs (computable without running) can stand in for much of
//! that search. Both are [`PlanCost`] implementations here, so every search
//! strategy works with either backend.

use serde::{Deserialize, Serialize};
use wht_cachesim::Hierarchy;
use wht_core::{lane_width, CompiledPlan, ExecPolicy, FusionPolicy, Plan, WhtError};
use wht_measure::{simulated_cycles, time_plan, SimMachine, TimingConfig};
use wht_models::{analytic_misses, instruction_count, op_counts, CostModel, ModelCache};

/// A (possibly stateful) cost function over plans; smaller is better.
pub trait PlanCost {
    /// Evaluate one plan.
    ///
    /// # Errors
    /// Backend-specific failures (e.g. invalid timing configuration).
    fn cost(&mut self, plan: &Plan) -> Result<f64, WhtError>;

    /// Human-readable backend name, used in experiment logs.
    fn name(&self) -> &'static str;

    /// The term vector behind `cost(plan)`, for provenance recording.
    ///
    /// Scalar-only backends return `Ok(None)` (the default); vectored
    /// backends ([`VectorCost`]) return the same [`CostVec`] as
    /// [`VectorCost::cost_vector`] so the memo table can stamp each group
    /// winner with *which terms* made it win without the search being
    /// generic over the vector trait.
    ///
    /// # Errors
    /// Same failure modes as [`PlanCost::cost`].
    fn cost_terms(&mut self, plan: &Plan) -> Result<Option<CostVec>, WhtError> {
        let _ = plan;
        Ok(None)
    }

    /// A lower bound on the cost of **any** split of span `2^m` whose
    /// ordered children have the given spans and per-child best standalone
    /// costs (`parts[i] = (c_i, best_cost(c_i))`).
    ///
    /// `None` (the default) means "no sound bound is known" and disables
    /// branch-and-bound pruning for this backend — the memo search then
    /// evaluates every candidate, exactly like [`crate::dp_search`].
    /// Backends whose recursion is *invocation-superadditive* — a child of
    /// span `c_i` inside a span-`m` split executes `2^(m-c_i)` times, each
    /// at least as expensive as one standalone run — return
    /// [`invocation_scaled_bound`]. That holds for the instruction model
    /// (exactly: the split adds loop overhead on top) and for the combined
    /// model (analytic misses are stride-monotone, and every in-split
    /// invocation runs at stride ≥ 1), but **not** for
    /// [`FusedTrafficCost`]: fusion collapses the sweeps of adjacent
    /// factors, so a split can stream *less* than its parts in isolation.
    fn compose_lower_bound(&self, m: u32, parts: &[(u32, f64)]) -> Option<f64> {
        let _ = (m, parts);
        None
    }
}

/// The invocation-scaled composition bound `Σ 2^(m-c_i) · best(c_i)`:
/// inside a span-`m` split, the child of span `c_i` is invoked
/// `2^(m-c_i)` times. Sound as a [`PlanCost::compose_lower_bound`]
/// whenever one in-split invocation costs at least one standalone run of
/// the best span-`c_i` plan (see the trait docs for which backends
/// qualify).
pub fn invocation_scaled_bound(m: u32, parts: &[(u32, f64)]) -> f64 {
    parts
        .iter()
        .map(|&(c, best)| (1u64 << (m - c.min(m))) as f64 * best)
        .sum()
}

/// A vectored plan cost in the style of optd's `Cost(Vec<f64>)`: slot 0 is
/// the weighted collapse the searches compare, the remaining slots are the
/// named terms it was collapsed from.
#[derive(Debug, Clone, PartialEq)]
pub struct CostVec(pub Vec<f64>);

impl CostVec {
    /// Slot of the weighted collapse (what [`PlanCost::cost`] returns).
    pub const WEIGHTED: usize = 0;
    /// Slot of the work term (single-transform instructions / flops).
    pub const WORK: usize = 1;
    /// Slot of the memory-traffic term (streamed elements or model misses).
    pub const TRAFFIC: usize = 2;
    /// Slot of the lane-width-adjusted work term (full-SIMD-width work,
    /// what a batched cross-transform execution retires).
    pub const LANE_WORK: usize = 3;
    /// Number of slots.
    pub const LEN: usize = 4;

    /// Build from the three named terms, collapsing under `weights`.
    pub fn from_terms(work: f64, traffic: f64, lane_work: f64, weights: CostWeights) -> Self {
        CostVec(vec![
            weights.collapse(work, traffic, lane_work),
            work,
            traffic,
            lane_work,
        ])
    }

    /// The weighted collapse (slot 0).
    pub fn weighted(&self) -> f64 {
        self.0[Self::WEIGHTED]
    }

    /// The work term.
    pub fn work(&self) -> f64 {
        self.0[Self::WORK]
    }

    /// The traffic term.
    pub fn traffic(&self) -> f64 {
        self.0[Self::TRAFFIC]
    }

    /// The lane-width-adjusted work term.
    pub fn lane_work(&self) -> f64 {
        self.0[Self::LANE_WORK]
    }

    /// One-line rendering for logs and `Planner::explain`.
    pub fn explain(&self) -> String {
        format!(
            "weighted={:.3} (work={:.3}, traffic={:.3}, lane_work={:.3})",
            self.weighted(),
            self.work(),
            self.traffic(),
            self.lane_work()
        )
    }
}

/// Weights collapsing a [`CostVec`]'s named terms into one comparable
/// scalar — optd's `compute_cost + io_cost * 10.0` generalized to the
/// three terms this package models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight on single-transform work (instructions / flops).
    pub work: f64,
    /// Weight on memory traffic (streamed elements or model misses).
    pub traffic: f64,
    /// Weight on lane-width-adjusted (full-SIMD-width) work.
    pub lane_work: f64,
}

impl Default for CostWeights {
    /// Pure work: cost = the work term, nothing else.
    fn default() -> Self {
        CostWeights {
            work: 1.0,
            traffic: 0.0,
            lane_work: 0.0,
        }
    }
}

impl CostWeights {
    /// Collapse the three terms into the comparable scalar.
    pub fn collapse(&self, work: f64, traffic: f64, lane_work: f64) -> f64 {
        self.work * work + self.traffic * traffic + self.lane_work * lane_work
    }
}

/// A named multi-objective policy: which weighting a [`VectorCost`]
/// backend collapses its term vector under. One objective swap re-aims the
/// same memo search at latency, memory traffic, or batched throughput;
/// `Planner` records the choice in wisdom so replays stay consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CostObjective {
    /// Single-transform latency: the backend's default weighting.
    Latency,
    /// Memory traffic only: minimize streamed elements / model misses.
    Memory,
    /// Saturated-batch throughput: full-lane-width work; memory latency
    /// (not bandwidth) hides behind the batch.
    BatchThroughput,
}

impl CostObjective {
    /// Every objective, for iteration in tests and benches.
    pub const ALL: [CostObjective; 3] = [
        CostObjective::Latency,
        CostObjective::Memory,
        CostObjective::BatchThroughput,
    ];

    /// Stable lowercase name for logs.
    pub fn name(self) -> &'static str {
        match self {
            CostObjective::Latency => "latency",
            CostObjective::Memory => "memory",
            CostObjective::BatchThroughput => "batch-throughput",
        }
    }
}

/// A [`PlanCost`] that exposes its term vector and its collapse weights —
/// optd's `CostModel` shape. `cost(plan)` must equal
/// `cost_vector(plan)?.weighted()` so scalar searches and vector
/// provenance never disagree.
pub trait VectorCost: PlanCost {
    /// The full term vector for one plan (slot 0 = weighted collapse).
    ///
    /// # Errors
    /// Same failure modes as [`PlanCost::cost`].
    fn cost_vector(&mut self, plan: &Plan) -> Result<CostVec, WhtError>;

    /// The collapse weights currently in effect.
    fn weights(&self) -> CostWeights;

    /// Replace the collapse weights (re-aims every subsequent `cost`).
    fn set_weights(&mut self, weights: CostWeights);

    /// This backend's weighting for a named objective.
    fn objective_weights(&self, objective: CostObjective) -> CostWeights;

    /// Re-aim the backend at a named objective.
    fn set_objective(&mut self, objective: CostObjective) {
        self.set_weights(self.objective_weights(objective));
    }
}

/// The instruction-count model (context-free: the unique cost backend for
/// which dynamic programming is *exact*).
#[derive(Debug, Clone, Default)]
pub struct InstructionCost {
    /// Abstract machine weights.
    pub cost_model: CostModel,
    /// Collapse weights over (work, traffic, lane_work). The model has no
    /// traffic term and its work is lane-agnostic, so work and lane_work
    /// both carry the instruction count; the default (`work = 1`) makes
    /// `cost` the plain instruction count.
    pub weights: CostWeights,
}

impl InstructionCost {
    fn instruction_term(&self, plan: &Plan) -> f64 {
        instruction_count(plan, &self.cost_model) as f64
    }
}

impl PlanCost for InstructionCost {
    fn cost(&mut self, plan: &Plan) -> Result<f64, WhtError> {
        let i = self.instruction_term(plan);
        Ok(self.weights.collapse(i, 0.0, i))
    }

    fn name(&self) -> &'static str {
        "instruction-model"
    }

    fn cost_terms(&mut self, plan: &Plan) -> Result<Option<CostVec>, WhtError> {
        Ok(Some(self.cost_vector(plan)?))
    }

    fn compose_lower_bound(&self, m: u32, parts: &[(u32, f64)]) -> Option<f64> {
        // T(split) = Σ 2^(m-c_i)·T(c_i) + overhead(c_1..c_t): the
        // recursion is invocation-linear and the overhead term is exactly
        // computable from the part exponents, so scaled-children + overhead
        // is a *tight* lower bound (exact when the children are the memo's
        // own best plans) whenever the collapse is monotone in the
        // instruction term (non-negative weights).
        if self.weights.work < 0.0 || self.weights.traffic < 0.0 || self.weights.lane_work < 0.0 {
            return None;
        }
        let exps: Vec<u32> = parts.iter().map(|&(c, _)| c).collect();
        let ov = self.cost_model.split_overhead(m, &exps) as f64;
        Some((self.weights.work + self.weights.lane_work) * ov + invocation_scaled_bound(m, parts))
    }
}

impl VectorCost for InstructionCost {
    fn cost_vector(&mut self, plan: &Plan) -> Result<CostVec, WhtError> {
        let i = self.instruction_term(plan);
        Ok(CostVec::from_terms(i, 0.0, i, self.weights))
    }

    fn weights(&self) -> CostWeights {
        self.weights
    }

    fn set_weights(&mut self, weights: CostWeights) {
        self.weights = weights;
    }

    fn objective_weights(&self, objective: CostObjective) -> CostWeights {
        // The model has one real signal; every objective reads it through
        // a different slot, but the ordering only changes if a caller
        // mixes in custom terms via set_weights.
        match objective {
            CostObjective::Latency | CostObjective::Memory => CostWeights::default(),
            CostObjective::BatchThroughput => CostWeights {
                work: 0.0,
                traffic: 0.0,
                lane_work: 1.0,
            },
        }
    }
}

/// The paper's combined model `alpha*I + beta*M` with analytic misses.
#[derive(Debug, Clone)]
pub struct CombinedModelCost {
    /// Abstract machine weights for `I`.
    pub cost_model: CostModel,
    /// Direct-mapped model cache for `M`.
    pub cache: ModelCache,
    /// Weight on instructions.
    pub alpha: f64,
    /// Weight on misses.
    pub beta: f64,
}

impl CombinedModelCost {
    /// The paper's optimum (`alpha = 1, beta = 0.05`) against the Opteron
    /// L1-sized model cache.
    pub fn paper_default() -> Self {
        CombinedModelCost {
            cost_model: CostModel::default(),
            cache: ModelCache::opteron_l1_elems(),
            alpha: 1.0,
            beta: 0.05,
        }
    }
}

impl PlanCost for CombinedModelCost {
    fn cost(&mut self, plan: &Plan) -> Result<f64, WhtError> {
        let i = instruction_count(plan, &self.cost_model) as f64;
        let m = analytic_misses(plan, self.cache) as f64;
        Ok(self.alpha * i + self.beta * m)
    }

    fn name(&self) -> &'static str {
        "combined-model"
    }

    fn cost_terms(&mut self, plan: &Plan) -> Result<Option<CostVec>, WhtError> {
        Ok(Some(self.cost_vector(plan)?))
    }

    fn compose_lower_bound(&self, m: u32, parts: &[(u32, f64)]) -> Option<f64> {
        // Instructions are invocation-linear with an overhead term that is
        // exactly computable from the part exponents, so the instruction
        // side of the bound is exact. The miss side splits by regime:
        //
        // * `m <= c` (footprint fits): every plan of size `m` — and every
        //   child standalone — pays compulsory misses exactly, so the
        //   scaled child sum counts the `2^m` footprint once per child
        //   where the composed plan pays it once. Subtracting the
        //   `(t-1)·2^m` over-count makes the miss side exact too.
        // * `m > c` (thrashes): inside the split each child runs at a
        //   stride at least its standalone stride, and the analytic model
        //   is monotone in stride, so the plain scaled sum is a sound
        //   (now conservative) floor.
        if self.alpha < 0.0 || self.beta < 0.0 {
            return None;
        }
        let exps: Vec<u32> = parts.iter().map(|&(c, _)| c).collect();
        let ov = self.cost_model.split_overhead(m, &exps) as f64;
        let mut lb = self.alpha * ov + invocation_scaled_bound(m, parts);
        if m <= self.cache.log2_capacity {
            lb -= self.beta * (parts.len() as f64 - 1.0) * (1u64 << m) as f64;
        }
        Some(lb)
    }
}

impl VectorCost for CombinedModelCost {
    fn cost_vector(&mut self, plan: &Plan) -> Result<CostVec, WhtError> {
        let i = instruction_count(plan, &self.cost_model) as f64;
        let m = analytic_misses(plan, self.cache) as f64;
        Ok(CostVec::from_terms(i, m, i, self.weights()))
    }

    fn weights(&self) -> CostWeights {
        CostWeights {
            work: self.alpha,
            traffic: self.beta,
            lane_work: 0.0,
        }
    }

    /// `work` maps onto `alpha`, `traffic` onto `beta`; the model has no
    /// lane-width term, so `lane_work` is ignored (the vector still
    /// carries the instruction count in that slot for inspection).
    fn set_weights(&mut self, weights: CostWeights) {
        self.alpha = weights.work;
        self.beta = weights.traffic;
    }

    fn objective_weights(&self, objective: CostObjective) -> CostWeights {
        match objective {
            // The paper's fitted latency blend.
            CostObjective::Latency => CostWeights {
                work: 1.0,
                traffic: 0.05,
                lane_work: 0.0,
            },
            // Pure miss minimization.
            CostObjective::Memory => CostWeights {
                work: 0.0,
                traffic: 1.0,
                lane_work: 0.0,
            },
            // A saturated batch hides memory latency behind independent
            // transforms; throughput is instruction-bound.
            CostObjective::BatchThroughput => CostWeights {
                work: 1.0,
                traffic: 0.0,
                lane_work: 0.0,
            },
        }
    }
}

/// Fusion-aware model cost `alpha·I + beta·T`: instruction count plus the
/// memory traffic of the schedule the fused executor *actually replays*.
///
/// The combined model charges analytic cache misses of the interpreter's
/// execution order; production traffic runs through the compiled layer,
/// where [`CompiledPlan::fuse`] collapses each fused run to a single
/// sweep. This backend scores that: `T` counts the elements streamed by
/// the fused schedule — a super-pass whose tile fits
/// [`FusedTrafficCost::cache_elems`] streams its span once (load +
/// store); one whose tile cannot stay cache-resident streams once per
/// part, like the unfused program it effectively is. Plans whose factor
/// lists fuse into fewer resident super-passes under `policy` cost less —
/// the search optimizes the executor it will actually run, tile budget
/// included.
#[derive(Debug, Clone)]
pub struct FusedTrafficCost {
    /// Abstract machine weights for `I`.
    pub cost_model: CostModel,
    /// The full executor configuration the ranked plans will be lowered
    /// under: the cost function scores `compile(plan).lower(&exec)` —
    /// the exact schedule the executor replays — so every lowering stage
    /// (fusion's tile blocking, relayout's two-sweep transposes, the
    /// re-codeleted tail's merged factors, the kernel backend) shows up
    /// in the ranking the moment it exists, with no per-stage code here.
    pub exec: ExecPolicy,
    /// Elements that fit the cache level tiles are expected to live in.
    /// A super-pass whose tile exceeds this is charged one sweep **per
    /// part** — fusion buys no traffic once the tile itself cannot stay
    /// resident (e.g. an unbounded budget collapses the schedule to one
    /// vector-sized tile, which still streams once per factor).
    pub cache_elems: usize,
    /// Vector width of the kernel backend the executor will run: each
    /// pass's leaf work term (butterflies, element loads/stores and their
    /// address arithmetic) is divided by its **effective** width
    /// `min(s, W)`, because the lane-block kernels retire columns in
    /// unit-stride blocks and a single transform only offers a pass `s`
    /// adjacent columns — the narrow head passes (`s < W`) cannot go full
    /// width (the batched cross-transform path exists precisely to fix
    /// that; see [`FusedTrafficCost::batch_rows`]). `1` models the scalar
    /// backend; loop bookkeeping is never divided (the lane kernels run
    /// the same pass/row loops). Matching the ranking model to the
    /// executor matters: under SIMD the ALU term shrinks, so memory
    /// traffic weighs relatively more and traffic-lean plans rank higher
    /// — exactly what wall-clock measurement shows.
    pub simd_lanes: usize,
    /// `Some(rows)`: score the **batched** execution of a `rows × 2^n`
    /// batch through [`CompiledPlan::apply_batch`] instead of one
    /// transform — the total for all `rows`. When the lowered schedule
    /// carries a batch product and `rows` reaches its threshold, engaged
    /// lane groups run every pass at full width (that is what the
    /// transposed domain buys) and are charged one streamed sweep of the
    /// group for the transpose pair (the gather's read of `x` and the
    /// scatter's write back; the scratch side is cache-resident by the
    /// batch stage's size cap); the sub-group remainder — and the whole
    /// batch when disengaged — replays at `rows ×` the single-transform
    /// cost. `None` (the default) scores one transform, exactly as
    /// before. This is what lets `wht_search::Planner` tune
    /// [`wht_core::BatchPolicy::block_rows`] from wisdom: the crossover
    /// where `Some(rows)` stops preferring the batched schedule *is* the
    /// threshold.
    pub batch_rows: Option<usize>,
    /// Collapse weights over the term vector: `work` multiplies the
    /// single-transform instruction term, `traffic` the streamed-element
    /// term, `lane_work` the full-SIMD-width instruction term (what a
    /// batched cross-transform execution retires). The historical
    /// `alpha`/`beta` scalars are `weights.work`/`weights.traffic`.
    pub weights: CostWeights,
}

impl FusedTrafficCost {
    /// Cost under an explicit [`ExecPolicy`] with the default weights
    /// (`work = 1`, `traffic = 4`: a streamed element costs about what a
    /// handful of bookkeeping instructions does, matching the combined
    /// model's miss-penalty scale on 8-element lines) and an L2-sized
    /// residency threshold. The lane width models the measured default
    /// element type, `f64`. Construction is deterministic — nothing here
    /// reads the process environment (use
    /// `with_exec(ExecPolicy::from_env())` for that).
    pub fn with_exec(exec: ExecPolicy) -> Self {
        FusedTrafficCost {
            cost_model: CostModel::default(),
            cache_elems: FusionPolicy::DEFAULT_BUDGET_ELEMS,
            simd_lanes: if exec.simd.enabled() {
                lane_width::<f64>()
            } else {
                1
            },
            exec,
            batch_rows: None,
            weights: CostWeights {
                work: 1.0,
                traffic: 4.0,
                lane_work: 0.0,
            },
        }
    }

    /// This cost with batched scoring for `rows`-row batches (builder
    /// style; see [`FusedTrafficCost::batch_rows`]).
    #[must_use]
    pub fn with_batch_rows(mut self, rows: usize) -> Self {
        self.batch_rows = Some(rows);
        self
    }
}

/// The process-default executor (lane kernels unless `WHT_NO_SIMD=1`,
/// tail relayout per `WHT_NO_RELAYOUT` / `WHT_RELAYOUT_THRESHOLD`,
/// re-codeleting per `WHT_NO_RECODELET`, …) with fusion at its default
/// budget — so a default-built cost model ranks plans for the executor
/// this process actually runs.
impl Default for FusedTrafficCost {
    fn default() -> Self {
        FusedTrafficCost::with_exec(ExecPolicy::from_env().with_fusion(FusionPolicy::default()))
    }
}

impl FusedTrafficCost {
    /// The (work, traffic, lane_work) term triple behind [`Self::cost`]:
    /// single-transform instruction term, streamed elements, and the
    /// full-SIMD-width instruction term.
    fn terms(&self, plan: &Plan) -> (f64, f64, f64) {
        // Lower the plan exactly as the executor will; everything below
        // scores that schedule generically, stage-agnostically.
        let compiled = CompiledPlan::compile(plan).lower(&self.exec);
        // Instruction term, split into loop bookkeeping (from the plan
        // tree — the lane kernels run the same pass/row loops) and leaf
        // work re-derived from the *lowered* factor list: a stage that
        // rewrites factors (the re-codeleted tail merges m chained
        // factors into one codelet, dropping m-1 load/store passes over
        // its elements) is scored from what will actually execute.
        let ops = op_counts(plan);
        let plan_leaf_work = (self.cost_model.arith * ops.arith
            + self.cost_model.load * ops.loads
            + self.cost_model.store * ops.stores
            + self.cost_model.addr * ops.addr) as f64;
        let bookkeeping = self.cost_model.total(&ops) as f64 - plan_leaf_work;
        let lanes = self.simd_lanes.max(1);
        // Leaf work twice over: at each pass's single-transform effective
        // width min(s, W) — a lone transform only offers a pass s adjacent
        // unit-stride columns, so the narrow head passes cannot fill the
        // lanes — and at full width, which is what the batched
        // cross-transform domain restores for every pass.
        let mut leaf_single = 0f64;
        let mut leaf_full = 0f64;
        for pass in compiled.passes() {
            // One codelet invocation of size 2^k: k·2^k butterfly ops,
            // 2^k loads + 2^k stores, one address computation per load
            // and store (the same accounting as `op_counts` on a leaf).
            let size = 1u64 << pass.k;
            let inv = pass.invocations() as u64;
            let work = (inv
                * (self.cost_model.arith * u64::from(pass.k) * size
                    + (self.cost_model.load + self.cost_model.store + 2 * self.cost_model.addr)
                        * size)) as f64;
            leaf_single += work / pass.s.max(1).min(lanes) as f64;
            leaf_full += work / lanes as f64;
        }
        // Traffic term: sweeps per scheduling unit, off the lowered
        // schedule. A relayout unit is charged two streamed sweeps — the
        // gather (strided reads + scratch writes) and the scatter
        // (scratch reads + strided writes) — instead of the one sweep
        // per factor its tail would cost in place, so the search picks
        // relayout exactly where the two transposes beat the saved
        // sweeps.
        let streamed: usize = compiled
            .super_passes()
            .iter()
            .map(|sp| {
                let sweeps = if sp.is_relayout() {
                    2
                } else if sp.tile_elems() <= self.cache_elems {
                    1
                } else {
                    sp.parts().len()
                };
                sp.span() * sweeps
            })
            .sum();
        let single = (
            bookkeeping + leaf_single,
            (2 * streamed) as f64,
            bookkeeping + leaf_full,
        );
        let Some(rows) = self.batch_rows else {
            return single;
        };
        // Batched scoring: model what apply_batch runs for this batch.
        // Engaged lane groups pay one streamed sweep of the whole group —
        // the transpose pair moves the group through memory exactly once
        // (gather reads x, scatter writes it back; the transposed scratch
        // is cache-resident by the batch stage's size cap, and the tail
        // passes run on the still-resident group) — and every pass goes
        // full width in the transposed domain, so an engaged group's work
        // *is* the full-width term (charged to both work and lane_work).
        let w = lanes;
        let engaged = compiled
            .batch_schedule()
            .filter(|b| rows >= b.block_rows().max(w));
        match engaged {
            Some(_) => {
                let groups = (rows / w) as f64;
                let rem = (rows % w) as f64;
                let group_work = w as f64 * (bookkeeping + leaf_full);
                let group_traffic = (2 * w * compiled.size()) as f64;
                (
                    groups * group_work + rem * single.0,
                    groups * group_traffic + rem * single.1,
                    groups * group_work + rem * single.2,
                )
            }
            None => (
                rows as f64 * single.0,
                rows as f64 * single.1,
                rows as f64 * single.2,
            ),
        }
    }
}

impl PlanCost for FusedTrafficCost {
    fn cost(&mut self, plan: &Plan) -> Result<f64, WhtError> {
        let (work, traffic, lane_work) = self.terms(plan);
        Ok(self.weights.collapse(work, traffic, lane_work))
    }

    fn name(&self) -> &'static str {
        "fused-traffic"
    }

    fn cost_terms(&mut self, plan: &Plan) -> Result<Option<CostVec>, WhtError> {
        Ok(Some(self.cost_vector(plan)?))
    }

    // No compose_lower_bound override: fusion collapses the sweeps of
    // adjacent factors, so a split can legitimately stream *less* than
    // its parts in isolation — the invocation-scaled bound is unsound
    // here, and the memo search falls back to exhaustive evaluation
    // (still memoized across sizes and searches).
}

impl VectorCost for FusedTrafficCost {
    fn cost_vector(&mut self, plan: &Plan) -> Result<CostVec, WhtError> {
        let (work, traffic, lane_work) = self.terms(plan);
        Ok(CostVec::from_terms(work, traffic, lane_work, self.weights))
    }

    fn weights(&self) -> CostWeights {
        self.weights
    }

    fn set_weights(&mut self, weights: CostWeights) {
        self.weights = weights;
    }

    fn objective_weights(&self, objective: CostObjective) -> CostWeights {
        match objective {
            // The measured single-transform blend (the default).
            CostObjective::Latency => CostWeights {
                work: 1.0,
                traffic: 4.0,
                lane_work: 0.0,
            },
            // Pure streamed-element minimization.
            CostObjective::Memory => CostWeights {
                work: 0.0,
                traffic: 1.0,
                lane_work: 0.0,
            },
            // Batched serving: every pass runs full width in the
            // transposed domain, so single-width work is irrelevant and
            // bandwidth still costs.
            CostObjective::BatchThroughput => CostWeights {
                work: 0.0,
                traffic: 4.0,
                lane_work: 1.0,
            },
        }
    }
}

/// Deterministic simulated cycles on the reference Opteron (trace-driven:
/// much more expensive than the models, noise-free unlike the wall clock).
#[derive(Debug)]
pub struct SimCyclesCost {
    /// Abstract machine weights.
    pub cost_model: CostModel,
    /// Latency parameters.
    pub machine: SimMachine,
    hierarchy: Hierarchy,
}

impl SimCyclesCost {
    /// Simulated cycles on the paper's Opteron hierarchy.
    pub fn opteron() -> Self {
        SimCyclesCost {
            cost_model: CostModel::default(),
            machine: SimMachine::default(),
            hierarchy: Hierarchy::opteron(),
        }
    }
}

impl PlanCost for SimCyclesCost {
    fn cost(&mut self, plan: &Plan) -> Result<f64, WhtError> {
        // Cold-start the hierarchy *here*, not only inside the trace:
        // this backend's contract is that cost(plan) is a pure function
        // of the plan, so no simulator state (resident lines or counters)
        // may leak from one evaluation into the next whatever the callee
        // does. Regression-tested below (cost order must not matter).
        self.hierarchy.reset();
        Ok(simulated_cycles(
            plan,
            &self.cost_model,
            &self.machine,
            &mut self.hierarchy,
        ))
    }

    fn name(&self) -> &'static str {
        "sim-cycles"
    }
}

/// Median wall-clock nanoseconds (what the WHT package's own search uses).
#[derive(Debug, Clone, Default)]
pub struct WallClockCost {
    /// Timing methodology.
    pub timing: TimingConfig,
}

impl PlanCost for WallClockCost {
    fn cost(&mut self, plan: &Plan) -> Result<f64, WhtError> {
        Ok(time_plan(plan, &self.timing)?.median_ns)
    }

    fn name(&self) -> &'static str {
        "wall-clock"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wht_core::{BatchPolicy, RecodeletPolicy, RelayoutPolicy, SimdPolicy};

    #[test]
    fn model_backends_are_deterministic() {
        let plan = Plan::right_recursive(10).unwrap();
        let mut c1 = InstructionCost::default();
        assert_eq!(c1.cost(&plan).unwrap(), c1.cost(&plan).unwrap());
        let mut c2 = CombinedModelCost::paper_default();
        assert_eq!(c2.cost(&plan).unwrap(), c2.cost(&plan).unwrap());
        let mut c3 = SimCyclesCost::opteron();
        assert_eq!(c3.cost(&plan).unwrap(), c3.cost(&plan).unwrap());
        let mut c4 = FusedTrafficCost::default();
        assert_eq!(c4.cost(&plan).unwrap(), c4.cost(&plan).unwrap());
    }

    #[test]
    fn fused_traffic_rewards_fusable_schedules() {
        // Same plan, same instructions — the only difference between the
        // backends is whether the executor's fusion collapses sweeps, so
        // the fusion-off policy must cost strictly more at a size where
        // the schedule fuses.
        let plan = Plan::iterative(18).unwrap();
        let mut on = FusedTrafficCost::default();
        let mut off = FusedTrafficCost::with_exec(
            ExecPolicy::from_env().with_fusion(FusionPolicy::disabled()),
        );
        assert!(on.cost(&plan).unwrap() < off.cost(&plan).unwrap());
        // An unbounded budget makes one vector-sized tile, which cannot be
        // cache-resident: the model must charge it the unfused traffic,
        // not a single sweep. (Re-codeleting pinned off on both sides —
        // it legitimately merges the unbounded unit's parts, which is a
        // *real* sweep reduction, not the fusion identity this pins.)
        let no_recodelet = ExecPolicy::from_env().with_recodelet(RecodeletPolicy::disabled());
        let mut unbounded =
            FusedTrafficCost::with_exec(no_recodelet.with_fusion(FusionPolicy::unbounded()));
        let mut off_plain =
            FusedTrafficCost::with_exec(no_recodelet.with_fusion(FusionPolicy::disabled()));
        assert_eq!(
            unbounded.cost(&plan).unwrap(),
            off_plain.cost(&plan).unwrap(),
            "non-resident tiles stream once per factor, exactly like no fusion"
        );
        // And under one policy, a factor list with fewer unfusable
        // large-stride passes streams less: blocked-8 beats all-radix-2
        // past the budget.
        let blocked = Plan::binary_iterative(18, 8).unwrap();
        let mut c = FusedTrafficCost::default();
        assert!(c.cost(&blocked).unwrap() < c.cost(&plan).unwrap());
    }

    #[test]
    fn fused_traffic_learns_the_vector_width() {
        let plan = Plan::iterative(18).unwrap();
        let mut simd =
            FusedTrafficCost::with_exec(ExecPolicy::default().with_simd(SimdPolicy::auto()));
        let mut scalar =
            FusedTrafficCost::with_exec(ExecPolicy::default().with_simd(SimdPolicy::disabled()));
        assert_eq!(simd.simd_lanes, wht_core::lane_width::<f64>());
        assert_eq!(scalar.simd_lanes, 1);
        // The lane backend retires the leaf work W columns at a time, so
        // the modelled cost must drop — but only the leaf-work share of
        // it: bookkeeping and traffic are backend-invariant, so the
        // SIMD cost stays well above total/W.
        let c_simd = simd.cost(&plan).unwrap();
        let c_scalar = scalar.cost(&plan).unwrap();
        assert!(c_simd < c_scalar);
        assert!(c_simd > c_scalar / simd.simd_lanes as f64);
        // Under SIMD the ALU term shrinks, so traffic weighs relatively
        // more: the cost ratio between the fusion-off and fusion-on
        // executors must widen when the ranking model knows the executor
        // is vectorized. Re-codeleting is pinned off on all four sides so
        // the compared schedules differ *only* in traffic: recodelet
        // rewrites the factor list (it merges the narrow head into one
        // wide codelet at s = 1, which a lone transform runs at scalar
        // width), and that leaf-term change is a different — separately
        // tested — signal from the one this assertion isolates.
        let no_rc = |fusion: FusionPolicy, simd: SimdPolicy| {
            FusedTrafficCost::with_exec(
                ExecPolicy::default()
                    .with_fusion(fusion)
                    .with_simd(simd)
                    .with_recodelet(RecodeletPolicy::disabled()),
            )
        };
        let c_simd_rc = no_rc(FusionPolicy::default(), SimdPolicy::auto())
            .cost(&plan)
            .unwrap();
        let c_scalar_rc = no_rc(FusionPolicy::default(), SimdPolicy::disabled())
            .cost(&plan)
            .unwrap();
        let simd_ratio = no_rc(FusionPolicy::disabled(), SimdPolicy::auto())
            .cost(&plan)
            .unwrap()
            / c_simd_rc;
        let scalar_ratio = no_rc(FusionPolicy::disabled(), SimdPolicy::disabled())
            .cost(&plan)
            .unwrap()
            / c_scalar_rc;
        assert!(
            simd_ratio > scalar_ratio,
            "traffic must weigh relatively more under SIMD \
             ({simd_ratio:.3} vs {scalar_ratio:.3})"
        );
    }

    #[test]
    fn fused_traffic_scores_relayout_as_two_sweeps_for_the_tail() {
        // n = 20 with the default 2^17 fusion budget: the fused head is
        // one resident sweep and the 3-pass tail sweeps three more times.
        // An eager relayout collapses the tail to its two transpose
        // sweeps, so the modeled traffic must drop by exactly one
        // vector sweep — and relayout must never be picked where it
        // cannot win (the schedule itself declines short tails).
        let plan = Plan::iterative(20).unwrap();
        let fusion = FusionPolicy::default();
        // Tail re-codeleting pinned off on both sides: it changes the
        // leaf-work term (that's its point — asserted below), and this
        // test isolates the traffic charge.
        let base = ExecPolicy::default()
            .with_fusion(fusion)
            .with_recodelet(RecodeletPolicy::disabled());
        let mut in_place =
            FusedTrafficCost::with_exec(base.with_relayout(RelayoutPolicy::disabled()));
        let mut relaid = FusedTrafficCost::with_exec(
            base.with_relayout(RelayoutPolicy::eager(RelayoutPolicy::DEFAULT_BUDGET_ELEMS)),
        );
        let c_in_place = in_place.cost(&plan).unwrap();
        let c_relaid = relaid.cost(&plan).unwrap();
        let sweep = relaid.weights.traffic * (2 * (1usize << 20)) as f64;
        assert!(
            (c_in_place - c_relaid - sweep).abs() < 1e-6,
            "tail of 3 sweeps -> 2 transpose sweeps must save exactly one \
             ({c_in_place} vs {c_relaid})"
        );
        // Re-codeleting the relayouted tail merges its chained factors,
        // shrinking the leaf-work term (fewer load/store passes over the
        // scratch) while traffic is unchanged — the generic scoring sees
        // the stage because it scores the lowered factor list.
        let mut recodeleted = FusedTrafficCost::with_exec(
            base.with_relayout(RelayoutPolicy::eager(RelayoutPolicy::DEFAULT_BUDGET_ELEMS))
                .with_recodelet(RecodeletPolicy::default()),
        );
        assert!(
            recodeleted.cost(&plan).unwrap() < c_relaid,
            "the ranking model must see the re-codeleted tail's saved μops"
        );
        // A 2-pass tail (n = 19) is break-even under the 2-sweep charge,
        // and the default policy (min_passes = 3) declines to rewrite it
        // at all — so the two executors and their modeled costs coincide
        // and plan ranking cannot flip on a non-win.
        let plan19 = Plan::iterative(19).unwrap();
        let a = in_place.cost(&plan19).unwrap();
        let b = relaid.cost(&plan19).unwrap();
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        assert!(!CompiledPlan::compile(&plan19)
            .fuse(&fusion)
            .relayout(&RelayoutPolicy::eager(RelayoutPolicy::DEFAULT_BUDGET_ELEMS))
            .has_relayout());
    }

    #[test]
    fn fused_traffic_scores_batched_execution_below_per_row() {
        // Small n, SIMD on: the narrow head passes (s < W) throttle the
        // single-transform leaf term, and the batched transposed domain
        // runs every pass at full width — so a big batch must score
        // strictly below rows independent transforms whenever the
        // lowered schedule carries an engaged batch product.
        let plan = Plan::iterative(8).unwrap();
        let exec = ExecPolicy::default().with_simd(SimdPolicy::auto());
        let single = FusedTrafficCost::with_exec(exec).cost(&plan).unwrap();
        let rows = 64;
        let batched = FusedTrafficCost::with_exec(exec)
            .with_batch_rows(rows)
            .cost(&plan)
            .unwrap();
        assert!(
            batched < rows as f64 * single,
            "64-row batch must beat 64 per-row transforms \
             ({batched} vs {} = 64 x {single})",
            rows as f64 * single
        );
        // The knob the Planner tunes from this: a disabled batch stage
        // scores exactly rows x the single-transform cost — no product,
        // no discount.
        let off = exec.with_batch(BatchPolicy::disabled());
        assert_eq!(
            FusedTrafficCost::with_exec(off)
                .with_batch_rows(rows)
                .cost(&plan)
                .unwrap(),
            rows as f64 * FusedTrafficCost::with_exec(off).cost(&plan).unwrap()
        );
        // Below the engagement threshold (block_rows.max(W)) the executor
        // replays per row, and the model must agree exactly — a 1-row
        // "batch" in particular is neutral.
        for small in [1usize, 8] {
            assert!(small < BatchPolicy::DEFAULT_BLOCK_ROWS.max(lane_width::<f64>()));
            assert_eq!(
                FusedTrafficCost::with_exec(exec)
                    .with_batch_rows(small)
                    .cost(&plan)
                    .unwrap(),
                small as f64 * single
            );
        }
        // Past the batch stage's size cap no product is built, so the
        // batched score degenerates to per-row there too.
        let big = Plan::iterative(19).unwrap();
        assert_eq!(
            FusedTrafficCost::with_exec(exec)
                .with_batch_rows(rows)
                .cost(&big)
                .unwrap(),
            rows as f64 * FusedTrafficCost::with_exec(exec).cost(&big).unwrap()
        );
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            InstructionCost::default().name(),
            CombinedModelCost::paper_default().name(),
            SimCyclesCost::opteron().name(),
            WallClockCost::default().name(),
            FusedTrafficCost::default().name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn sim_cycles_cost_is_order_independent() {
        // cost(A); cost(B) must equal cost(B); cost(A): evaluation order
        // leaking simulator state between plans would silently bias every
        // search that uses this backend.
        let a = Plan::right_recursive(12).unwrap();
        let b = Plan::left_recursive(12).unwrap();

        let mut ab = SimCyclesCost::opteron();
        let a_first = ab.cost(&a).unwrap();
        let b_second = ab.cost(&b).unwrap();

        let mut ba = SimCyclesCost::opteron();
        let b_first = ba.cost(&b).unwrap();
        let a_second = ba.cost(&a).unwrap();

        assert_eq!(a_first, a_second, "cost(A) depends on evaluation order");
        assert_eq!(b_first, b_second, "cost(B) depends on evaluation order");
        // And re-evaluating on a warm backend changes nothing either.
        assert_eq!(ab.cost(&a).unwrap(), a_first);
    }

    #[test]
    fn combined_cost_orders_cache_hostile_plans_last() {
        let n = 16;
        let mut c = CombinedModelCost::paper_default();
        let rr = c.cost(&Plan::right_recursive(n).unwrap()).unwrap();
        let lr = c.cost(&Plan::left_recursive(n).unwrap()).unwrap();
        assert!(lr > rr);
    }

    /// `cost` must equal the vector's weighted collapse for every vector
    /// backend under every objective — scalar searches and provenance
    /// stamping may never disagree.
    #[test]
    fn vector_collapse_matches_scalar_cost() {
        fn check<C: VectorCost>(mut c: C) {
            let plan = Plan::iterative(14).unwrap();
            for obj in CostObjective::ALL {
                c.set_objective(obj);
                let v = c.cost_vector(&plan).unwrap();
                let s = c.cost(&plan).unwrap();
                assert_eq!(v.weighted(), s, "{} under {}", c.name(), obj.name());
                assert_eq!(v.0.len(), CostVec::LEN);
                let terms = c.cost_terms(&plan).unwrap().expect("vector backend");
                assert_eq!(terms, v);
            }
        }
        check(InstructionCost::default());
        check(CombinedModelCost::paper_default());
        check(FusedTrafficCost::default());
    }

    /// Defaults are unchanged by the vector layer: the instruction backend
    /// still returns the plain count, the combined backend the paper
    /// blend, the traffic backend the work + 4·traffic collapse.
    #[test]
    fn default_weights_reproduce_legacy_costs() {
        let plan = Plan::iterative(12).unwrap();
        let mut i = InstructionCost::default();
        assert_eq!(
            i.cost(&plan).unwrap(),
            instruction_count(&plan, &CostModel::default()) as f64
        );
        let mut f = FusedTrafficCost::default();
        let v = f.cost_vector(&plan).unwrap();
        assert_eq!(f.cost(&plan).unwrap(), v.work() + 4.0 * v.traffic());
    }

    /// Objectives are real policy changes: under the fused-traffic backend
    /// the memory objective scores a plan by streamed elements alone.
    #[test]
    fn objectives_reweight_the_same_terms() {
        let plan = Plan::iterative(18).unwrap();
        let mut c = FusedTrafficCost::default();
        let v = c.cost_vector(&plan).unwrap();
        c.set_objective(CostObjective::Memory);
        assert_eq!(c.cost(&plan).unwrap(), v.traffic());
        c.set_objective(CostObjective::BatchThroughput);
        assert_eq!(c.cost(&plan).unwrap(), v.lane_work() + 4.0 * v.traffic());
        c.set_objective(CostObjective::Latency);
        assert_eq!(c.cost(&plan).unwrap(), v.weighted());
    }

    /// The invocation-scaled composition bound must never exceed the true
    /// cost of the composed split it bounds (B&B soundness for the
    /// backends that advertise it).
    #[test]
    fn compose_lower_bound_is_sound() {
        fn check<C: PlanCost>(mut c: C) {
            for m in 3..=10u32 {
                for c1 in 1..m {
                    let c2 = m - c1;
                    let best1 = Plan::right_recursive(c1).unwrap();
                    let best2 = Plan::right_recursive(c2).unwrap();
                    let parts = [(c1, c.cost(&best1).unwrap()), (c2, c.cost(&best2).unwrap())];
                    let Some(lb) = c.compose_lower_bound(m, &parts) else {
                        panic!("{} should advertise a bound", c.name());
                    };
                    let split = Plan::split(vec![best1, best2]).unwrap();
                    let actual = c.cost(&split).unwrap();
                    assert!(
                        lb <= actual + 1e-9,
                        "{}: lb {lb} > actual {actual} at m={m}, c1={c1}",
                        c.name()
                    );
                }
            }
        }
        check(InstructionCost::default());
        check(CombinedModelCost::paper_default());
        // And the fusion-aware backend must *not* advertise one.
        assert!(FusedTrafficCost::default()
            .compose_lower_bound(4, &[(2, 1.0), (2, 1.0)])
            .is_none());
    }
}

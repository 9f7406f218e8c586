//! The production facade: a [`Planner`] that amortizes search across
//! millions of transforms via an FFTW-style **wisdom** cache.
//!
//! The paper's pipeline — search the algorithm space with a cost model,
//! then run the winner — assumes search cost is paid rarely and execution
//! cost constantly. This module packages that contract:
//!
//! 1. [`Planner::transform`] looks up the best known plan for the input's
//!    size in its [`Wisdom`] store; on a miss it runs the memoized
//!    branch-and-bound search ([`crate::memo_search`]) against the
//!    planner's cost backend **once**, recording the best plan of *every*
//!    size up to `n` (the memo solves them all anyway). The [`MemoTable`]
//!    persists inside the planner, so a later, larger search only solves
//!    the spans it has never seen, and [`Planner::explain`] can say which
//!    composition won each searched size and why.
//! 2. The chosen plan is lowered through the staged pipeline of
//!    `wht_core::compile` under the planner's one [`ExecPolicy`]
//!    (fuse → relayout → re-codelet → kernel backend → batch → stream),
//!    and the compiled schedule is cached — steady-state traffic is a
//!    wisdom hit plus a flat schedule replay: zero cost evaluations, zero
//!    tree walks.
//! 3. Wisdom persists in a [`ShardedStore`] ([`Planner::save_store`] /
//!    [`Planner::with_store`]) and round-trips through JSON
//!    ([`Wisdom::to_json`] / [`Wisdom::from_json`]), so a fleet can ship
//!    pre-tuned wisdom and a fresh process starts warm — the FFTW
//!    `wisdom` workflow, keyed by `(n, cost-backend name)`. An entry
//!    records a plan, how the search chose it, measured evidence, and the
//!    [`CostObjective`] that gates its reuse ([`Tuning`]) — never executor
//!    configuration; [`crate::wisdom`] holds the format and its history.
//!
//! ## How a policy is resolved
//!
//! A planner compiles every size under its own [`ExecPolicy`]: **API
//! value > `WHT_NO_*` kill switch > default**. [`Planner::with_exec`]
//! sets the whole policy; without it the planner snapshots
//! [`ExecPolicy::from_env`] at construction (the defaults, minus every
//! stage whose kill switch is set). Imported wisdom never changes the
//! policy, so it cannot re-enable a stage the process switched off — and
//! since every lowering stage is bit-exact, the policy never changes
//! output bits either.
//!
//! ```
//! use wht_search::{InstructionCost, Planner};
//!
//! let mut planner = Planner::new(InstructionCost::default());
//! let mut x: Vec<f64> = (0..1024).map(|v| (v % 7) as f64).collect();
//! planner.transform(&mut x)?;          // first call: DP search + compile
//! let evals_after_first = planner.evaluations();
//! planner.transform(&mut x)?;          // warm call: pure replay
//! assert_eq!(planner.evaluations(), evals_after_first);
//!
//! // Ship the tuning to another process:
//! let json = planner.wisdom().to_json();
//! let warm = wht_search::Wisdom::from_json(&json)?;
//! assert!(warm.get(10, planner.backend_name()).is_some());
//! # Ok::<(), wht_core::WhtError>(())
//! ```

use crate::cost::{CostObjective, PlanCost, VectorCost};
use crate::dp::DpOptions;
use crate::memo::{memo_search, MemoTable};
use crate::store::{ShardedStore, StoreDiagnostic};
use crate::wisdom::{PlanProvenance, Tuning, Wisdom};
use std::collections::HashMap;
use wht_core::{CompiledPlan, ExecPolicy, Plan, Scalar, WhtError};

/// Production entry point: owns a cost backend, a [`Wisdom`] store, and a
/// compiled-schedule cache; serves `planner.transform(&mut x)` with
/// memoized search amortized to zero on the warm path (see the module
/// docs).
#[derive(Debug)]
pub struct Planner<C: PlanCost> {
    cost: C,
    opts: DpOptions,
    /// The executor configuration every size compiles under (environment
    /// snapshot at construction, replaced by [`Planner::with_exec`]).
    exec: ExecPolicy,
    wisdom: Wisdom,
    compiled: HashMap<u32, CompiledPlan>,
    /// Solved search groups, kept across `plan` calls: a later, larger
    /// search only solves the spans no earlier search has seen.
    memo: MemoTable,
    /// The named weighting the cost backend was last aimed at via
    /// [`Planner::with_objective`]; `None` = the backend's own weights.
    objective: Option<CostObjective>,
    /// Diagnostics accumulated from store loads this planner degraded
    /// through ([`Planner::with_store`]) — surfaced via
    /// [`Planner::store_diagnostics`] and [`Planner::explain`].
    store_diagnostics: Vec<StoreDiagnostic>,
    evaluations: usize,
}

impl<C: PlanCost> Planner<C> {
    /// Planner with default DP options, empty wisdom, and the
    /// process-default executor configuration
    /// ([`ExecPolicy::from_env`]).
    pub fn new(cost: C) -> Self {
        Planner::with_options(cost, DpOptions::default())
    }

    /// Planner with explicit DP options.
    pub fn with_options(cost: C, opts: DpOptions) -> Self {
        Planner {
            cost,
            opts,
            exec: ExecPolicy::from_env(),
            wisdom: Wisdom::new(),
            compiled: HashMap::new(),
            memo: MemoTable::new(),
            objective: None,
            store_diagnostics: Vec::new(),
            evaluations: 0,
        }
    }

    /// Replace the **whole** executor configuration (builder style).
    /// Drops compiled schedules so already-served sizes recompile under
    /// the new configuration. `with_exec(ExecPolicy::all_disabled())` is
    /// the full API opt-out: the pure scalar unfused baseline, whatever
    /// the environment says. To change one stage, pass
    /// `ExecPolicy::from_env().with_fusion(..)` (or any other
    /// `ExecPolicy::with_*`).
    #[must_use]
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self.compiled.clear();
        self
    }

    /// Adopt previously saved wisdom (builder style). Drops any compiled
    /// schedules so already-served sizes recompile the imported plans
    /// instead of silently replaying superseded ones.
    #[must_use]
    pub fn with_wisdom(mut self, wisdom: Wisdom) -> Self {
        self.wisdom = wisdom;
        self.compiled.clear();
        self
    }

    /// Warm the planner from a [`ShardedStore`] (builder style), under
    /// the **degradation contract**: whatever the store's condition —
    /// missing shards, some corrupt, all corrupt — this never fails and
    /// never panics. Intact shards merge into the planner's wisdom
    /// ([`Wisdom::absorb`]: holes fill, measured evidence wins, this
    /// planner's own fresher tuning is never discarded); damaged shards
    /// are quarantined by the load and reported through
    /// [`Planner::store_diagnostics`] and [`Planner::explain`], and the
    /// affected sizes simply cold-search on first use — a warm **miss**,
    /// never poisoned tuning.
    #[must_use]
    pub fn with_store(mut self, store: &ShardedStore) -> Self {
        let loaded = store.load();
        self.store_diagnostics.extend(loaded.diagnostics);
        self.wisdom.absorb(loaded.wisdom);
        self.compiled.clear();
        self
    }

    /// Persist this planner's accumulated wisdom into `store`, one
    /// atomically committed shard per `(n, backend)` entry. Returns the
    /// number of shards written.
    ///
    /// # Errors
    /// [`WhtError::Io`] on the first shard that fails to commit;
    /// already-committed shards are unaffected.
    pub fn save_store(&self, store: &ShardedStore) -> Result<usize, WhtError> {
        store.save(&self.wisdom)
    }

    /// Diagnostics from every store load this planner degraded through
    /// (empty when all loads were clean).
    pub fn store_diagnostics(&self) -> &[StoreDiagnostic] {
        &self.store_diagnostics
    }

    /// Name of the owned cost backend — the wisdom key this planner reads
    /// and writes.
    pub fn backend_name(&self) -> &'static str {
        self.cost.name()
    }

    /// The named objective the cost backend is currently aimed at
    /// ([`Planner::with_objective`]); `None` = the backend's own weights.
    pub fn objective(&self) -> Option<CostObjective> {
        self.objective
    }

    /// The persistent memo of solved search groups (spans searched by
    /// *this* planner instance; wisdom imported from elsewhere carries no
    /// groups).
    pub fn memo(&self) -> &MemoTable {
        &self.memo
    }

    /// Why size `2^n`'s plan won: the winning composition, the candidate
    /// counts (evaluated / pruned), and — for vectored backends — the
    /// cost terms, as one human-readable line. A size this planner
    /// instance searched reports the live memo's account; a size served
    /// from imported wisdom falls back to the provenance persisted in the
    /// entry (wisdom version 6, marked `[replayed from wisdom]`), so the
    /// account survives a process restart. When the size has already been
    /// compiled, the line also carries the static verifier's verdict on
    /// the schedule actually serving traffic ([`CompiledPlan::verify`]):
    /// `verified` when every invariant proved clean, otherwise the
    /// diagnostic count and the first violation. When any store load
    /// degraded ([`Planner::store_diagnostics`]), the line ends with a
    /// quarantine summary. `None` when this planner neither searched the
    /// size nor holds an entry with recorded provenance.
    pub fn explain(&self, n: u32) -> Option<String> {
        let mut line = match self.memo.group(n) {
            Some(group) => group.explain(n),
            None => self.wisdom.provenance(n, self.cost.name())?.explain(n),
        };
        if let Some(compiled) = self.compiled.get(&n) {
            let diags = compiled.verify();
            if diags.is_empty() {
                line.push_str(" | verified: bounds+disjointness+coverage+scratch");
            } else {
                line.push_str(&format!(
                    " | VERIFY FAILED: {} diagnostic(s), first: {}",
                    diags.len(),
                    diags[0]
                ));
            }
        }
        if !self.store_diagnostics.is_empty() {
            line.push_str(&format!(
                " | store: {} shard(s) quarantined; first: {}",
                self.store_diagnostics.len(),
                self.store_diagnostics[0]
            ));
        }
        Some(line)
    }

    /// Total cost evaluations this planner has performed; a warm planner
    /// serves transforms without increasing this.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// The wisdom accumulated (and/or imported) so far.
    pub fn wisdom(&self) -> &Wisdom {
        &self.wisdom
    }

    /// The [`ExecPolicy`] size `2^n` compiles under: the planner's own
    /// policy ([`ExecPolicy::from_env`] at construction, or the
    /// [`Planner::with_exec`] value) — wisdom records plans only, so `n`
    /// does not change the result. Exposed so services and tests can
    /// inspect the decision without compiling.
    pub fn resolved_exec(&self, _n: u32) -> ExecPolicy {
        self.exec
    }

    /// Whether the `(m, backend)` wisdom entry may serve this planner: it
    /// must exist, and — when the planner is aimed at a named objective —
    /// must have been recorded under that same objective (a plan optimal
    /// for a different collapse is a miss, not a hit).
    fn wisdom_entry_is_current(&self, m: u32, backend: &str) -> bool {
        match self.wisdom.tuning(m, backend) {
            None => false,
            Some(t) => self.objective.is_none() || t.objective == self.objective,
        }
    }

    /// Best plan for size `2^n`: wisdom hit, or one memoized search whose
    /// entire per-size table is recorded as wisdom.
    ///
    /// # Errors
    /// Propagates search option validation and cost-backend failures.
    pub fn plan(&mut self, n: u32) -> Result<&Plan, WhtError> {
        let backend = self.cost.name();
        if !self.wisdom_entry_is_current(n, backend) {
            let res = memo_search(n, &self.opts, &mut self.cost, &mut self.memo)?;
            self.evaluations += res.evaluations;
            for m in 1..=n {
                // Smaller sizes only fill holes (or replace entries
                // recorded under a different objective): an imported
                // entry may encode better (e.g. measured) wisdom than
                // this search.
                if m == n || !self.wisdom_entry_is_current(m, backend) {
                    let plan = self
                        .memo
                        .group(m)
                        .expect("memo_search solved every span up to n")
                        .plan
                        .clone();
                    self.wisdom.insert_with_tuning(
                        m,
                        backend,
                        plan,
                        Tuning {
                            objective: self.objective,
                        },
                    )?;
                    // Persist the memo's account of the choice alongside
                    // the plan, so explain(m) survives a process restart
                    // (wisdom version 6).
                    let group = self
                        .memo
                        .group(m)
                        .expect("memo_search solved every span up to n");
                    self.wisdom.set_provenance(
                        m,
                        backend,
                        PlanProvenance {
                            composition: group.provenance.composition.clone(),
                            candidates: group.provenance.candidates as u64,
                            evaluated: group.provenance.evaluated as u64,
                            pruned: group.provenance.pruned as u64,
                            cost: group.cost,
                        },
                    );
                }
            }
        }
        Ok(self
            .wisdom
            .get(n, backend)
            .expect("entry inserted or present above"))
    }

    /// In-place transform `x <- WHT(x.len()) * x` using the best known
    /// plan for that size: the warm path is a wisdom hit plus a compiled
    /// pass-schedule replay, with **zero** cost evaluations.
    ///
    /// # Errors
    /// [`WhtError::InvalidConfig`] unless `x.len()` is a power of two with
    /// exponent in `1..=MAX_N`; propagates search errors on cold sizes.
    pub fn transform<T: Scalar>(&mut self, x: &mut [T]) -> Result<(), WhtError> {
        let len = x.len();
        if len < 2 || !len.is_power_of_two() {
            return Err(WhtError::InvalidConfig(format!(
                "transform length {len} is not a power of two >= 2"
            )));
        }
        let n = len.trailing_zeros();
        let schedule = self.schedule(n)?;
        // Measure the replay and feed the wall-clock back into the wisdom
        // entry it executed (fastest sample wins, matching the sharded
        // store's measured-fastest merge) — so a planner that merely
        // *runs* accumulates the measured evidence the store's
        // cross-process merge arbitrates on.
        let start = std::time::Instant::now();
        schedule.apply(x)?;
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let backend = self.cost.name();
        if self
            .wisdom
            .measured_ns(n, backend)
            .is_none_or(|best| ns < best)
        {
            // Entry existence was just established by `plan`; a racing
            // absence is harmless (measurement is advisory evidence).
            let _ = self.wisdom.record_measurement(n, backend, ns);
        }
        Ok(())
    }

    /// In-place **batched** transform: `x` viewed as `rows` adjacent
    /// contiguous transforms of size `x.len() / rows`, each mapped
    /// through the best known plan for that size via
    /// [`CompiledPlan::apply_batch`] — past the policy's row-block
    /// threshold the batch runs the cross-transform lane path, below it
    /// (or under `WHT_NO_BATCH`) every row replays the per-transform
    /// schedule, bit-identically either way.
    ///
    /// # Errors
    /// [`WhtError::InvalidConfig`] unless `rows >= 1` divides `x.len()`
    /// and the row length is a power of two with exponent in `1..=MAX_N`;
    /// propagates search errors on cold sizes.
    pub fn transform_batch<T: Scalar>(&mut self, x: &mut [T], rows: usize) -> Result<(), WhtError> {
        if rows == 0 || !x.len().is_multiple_of(rows) {
            return Err(WhtError::InvalidConfig(format!(
                "batch of {rows} rows does not divide {} elements",
                x.len()
            )));
        }
        let len = x.len() / rows;
        if len < 2 || !len.is_power_of_two() {
            return Err(WhtError::InvalidConfig(format!(
                "batched row length {len} is not a power of two >= 2"
            )));
        }
        self.schedule(len.trailing_zeros())?.apply_batch(x, rows)
    }

    /// The compiled schedule serving size `2^n`, searched and compiled on
    /// first use — the cold path of [`Planner::transform`] and
    /// [`Planner::transform_batch`].
    fn schedule(&mut self, n: u32) -> Result<&CompiledPlan, WhtError> {
        if n > wht_core::MAX_N {
            return Err(WhtError::SizeTooLarge { n });
        }
        if !self.compiled.contains_key(&n) {
            let plan = self.plan(n)?.clone();
            self.compiled
                .insert(n, CompiledPlan::compile_exec(&plan, &self.exec));
        }
        Ok(self.compiled.get(&n).expect("inserted above"))
    }
}

impl<C: VectorCost> Planner<C> {
    /// Re-aim the planner at a named multi-objective weighting (builder
    /// style): the cost backend's collapse weights become
    /// [`VectorCost::objective_weights`] for `objective`, the memo and
    /// compiled-schedule caches are dropped (their entries were scored
    /// under the old collapse), and every wisdom entry this planner
    /// records from now on carries the objective — so an importer can
    /// tell a latency-tuned plan from a memory-tuned one, and a planner
    /// aimed at one objective never silently replays the other's plans
    /// ([`Tuning::objective`]).
    #[must_use]
    pub fn with_objective(mut self, objective: CostObjective) -> Self {
        self.cost.set_objective(objective);
        self.objective = Some(objective);
        self.memo.clear();
        self.compiled.clear();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CombinedModelCost, InstructionCost};
    use wht_core::{apply_plan, max_abs_diff, naive_wht};

    #[test]
    fn transform_matches_reference_and_amortizes_search() {
        let mut planner = Planner::new(InstructionCost::default());
        let input: Vec<f64> = (0..512)
            .map(|j| ((j * 37 + 5) % 64) as f64 - 32.0)
            .collect();
        let want = naive_wht(&input);
        let mut x = input.clone();
        planner.transform(&mut x).unwrap();
        assert!(max_abs_diff(&x, &want) < 1e-9);
        let cold_evals = planner.evaluations();
        assert!(cold_evals > 0, "cold path must have searched");

        for _ in 0..3 {
            let mut y = input.clone();
            planner.transform(&mut y).unwrap();
            assert!(max_abs_diff(&y, &want) < 1e-9);
        }
        assert_eq!(
            planner.evaluations(),
            cold_evals,
            "warm path must not search"
        );
    }

    #[test]
    fn dp_table_becomes_wisdom_for_all_smaller_sizes() {
        let mut planner = Planner::new(InstructionCost::default());
        planner.plan(9).unwrap();
        for m in 1..=9u32 {
            let plan = planner
                .wisdom()
                .get(m, "instruction-model")
                .expect("size recorded");
            assert_eq!(plan.n(), m);
        }
        // A smaller size is now free.
        let evals = planner.evaluations();
        planner.plan(5).unwrap();
        assert_eq!(planner.evaluations(), evals);
    }

    #[test]
    fn wisdom_round_trips_through_json_and_warms_a_new_planner() {
        let mut tuned = Planner::new(CombinedModelCost::paper_default());
        tuned.plan(10).unwrap();
        let json = tuned.wisdom().to_json();

        let wisdom = Wisdom::from_json(&json).unwrap();
        assert_eq!(&wisdom, tuned.wisdom());

        let mut warm = Planner::new(CombinedModelCost::paper_default()).with_wisdom(wisdom);
        let mut x: Vec<f64> = (0..1024).map(|j| (j % 11) as f64).collect();
        let want = naive_wht(&x);
        warm.transform(&mut x).unwrap();
        assert!(max_abs_diff(&x, &want) < 1e-9);
        assert_eq!(
            warm.evaluations(),
            0,
            "imported wisdom must skip search entirely"
        );
    }

    #[test]
    fn with_wisdom_invalidates_compiled_schedules() {
        let mut planner = Planner::new(InstructionCost::default());
        let mut x: Vec<f64> = (0..256).map(|j| (j % 5) as f64).collect();
        planner.transform(&mut x).unwrap(); // compiles the DP winner for n=8
        assert!(!planner.compiled.is_empty());

        // Import wisdom that names a *different* plan for n=8.
        let mut wisdom = Wisdom::new();
        let imported = Plan::iterative(8).unwrap();
        wisdom
            .insert(8, "instruction-model", imported.clone())
            .unwrap();
        let evals_before_import = planner.evaluations();
        let mut planner = planner.with_wisdom(wisdom);
        assert!(
            planner.compiled.is_empty(),
            "stale schedules must not survive a wisdom import"
        );
        planner.transform(&mut x).unwrap();
        assert_eq!(
            planner.compiled.get(&8),
            Some(&CompiledPlan::compile_exec(
                &imported,
                &planner.resolved_exec(8)
            )),
            "warm transform must execute the imported plan"
        );
        assert_eq!(
            planner.evaluations(),
            evals_before_import,
            "imported wisdom covers the size; no new search"
        );
    }

    #[test]
    fn version_3_wisdom_migrates_and_records_no_batch_choice() {
        // A version-3 store (nested executor tuning, pre-batch) must load
        // its plan, re-serialize as the current version, and serve warm
        // under the reader's own policy — batch stage included.
        let legacy = "{\"version\":3,\"entries\":[{\"n\":12,\"backend\":\
                      \"instruction-model\",\"plan\":\"split[small[4],small[4],\
                      small[4]]\",\"tuning\":{\"fuse_budget\":4096,\"simd\":true,\
                      \"relayout\":0,\"recodelet\":true}}]}";
        let w = Wisdom::from_json(legacy).unwrap();
        assert_eq!(
            w.get(12, "instruction-model").unwrap().to_string(),
            "split[small[4],small[4],small[4]]"
        );
        assert_eq!(w.tuning(12, "instruction-model"), Some(Tuning::default()));
        let migrated = Wisdom::from_json(&w.to_json()).unwrap();
        assert_eq!(migrated, w);
        let mut warm = Planner::new(InstructionCost::default())
            .with_wisdom(migrated)
            .with_exec(ExecPolicy::default());
        assert_eq!(warm.resolved_exec(12), ExecPolicy::default());
        let mut x: Vec<f64> = (0..1 << 12).map(|j| (j % 13) as f64 - 6.0).collect();
        let want = naive_wht(&x);
        warm.transform(&mut x).unwrap();
        assert!(max_abs_diff(&x, &want) < 1e-9, "migrated replay is exact");
        assert_eq!(warm.evaluations(), 0);
    }

    #[test]
    fn version_2_wisdom_migrates_and_replays_like_the_recorder() {
        // A version-2 store (flat fuse_budget/simd/relayout columns) must
        // load its plan, re-serialize as the current version, and replay
        // that plan warm: bit-identically under the importer's policy
        // and with every stage off.
        let legacy = "{\"version\":2,\"entries\":[{\"n\":14,\"backend\":\
                      \"instruction-model\",\"plan\":\"split[small[1],small[1],\
                      small[1],small[1],small[1],small[1],small[1],small[1],\
                      small[1],small[1],small[1],small[1],small[1],small[1]]\",\
                      \"fuse_budget\":64,\"simd\":true,\"relayout\":512}]}";
        let w = Wisdom::from_json(legacy).unwrap();
        let plan = w.get(14, "instruction-model").unwrap().clone();
        assert_eq!(plan, Plan::iterative(14).unwrap());
        assert_eq!(w.tuning(14, "instruction-model"), Some(Tuning::default()));
        let migrated = Wisdom::from_json(&w.to_json()).unwrap();
        assert_eq!(migrated, w);
        let input: Vec<f64> = (0..1 << 14).map(|j| (j % 11) as f64 - 5.0).collect();
        let mut outputs = Vec::new();
        for exec in [ExecPolicy::default(), ExecPolicy::all_disabled()] {
            let mut warm = Planner::new(InstructionCost::default())
                .with_wisdom(migrated.clone())
                .with_exec(exec);
            let mut x = input.clone();
            warm.transform(&mut x).unwrap();
            assert_eq!(warm.evaluations(), 0);
            assert_eq!(
                warm.compiled.get(&14).unwrap(),
                &CompiledPlan::compile_exec(&plan, &exec),
                "the recorded plan under the importer's policy"
            );
            outputs.push(x);
        }
        assert!(max_abs_diff(&outputs[0], &naive_wht(&input)) < 1e-9);
        assert_eq!(outputs[0], outputs[1], "the policy never changes bits");
    }

    #[test]
    fn with_exec_pins_every_knob() {
        // Wisdom recorded under the default policy carries no executor
        // configuration, so the importer's with_exec value governs every
        // stage at every recorded size.
        let mut tuned = Planner::new(InstructionCost::default()).with_exec(ExecPolicy::default());
        tuned.plan(14).unwrap();
        let wisdom = Wisdom::from_json(&tuned.wisdom().to_json()).unwrap();
        let mut planner = Planner::new(InstructionCost::default())
            .with_wisdom(wisdom)
            .with_exec(ExecPolicy::all_disabled());
        for n in 1..=14 {
            assert_eq!(planner.resolved_exec(n), ExecPolicy::all_disabled());
        }
        let mut x: Vec<f64> = (0..1 << 14).map(|j| (j % 5) as f64).collect();
        let want = naive_wht(&x);
        planner.transform(&mut x).unwrap();
        assert!(max_abs_diff(&x, &want) < 1e-9);
        assert_eq!(planner.evaluations(), 0);
        let compiled = planner.compiled.get(&14).unwrap();
        assert!(!compiled.is_fused() && !compiled.is_simd());
        assert!(!compiled.has_relayout() && !compiled.has_recodeleted());
        assert!(!compiled.is_batched());
    }

    #[test]
    fn transform_batch_matches_per_row_transforms() {
        // One warm planner, both entry points, every row bit-identical —
        // whatever executor configuration this CI leg resolves.
        let rows = 33; // deliberately not a multiple of any lane width
        let n = 7u32;
        let input: Vec<f64> = (0..rows << n)
            .map(|j| ((j * 31 + 7) % 23) as f64 - 11.0)
            .collect();
        let mut planner = Planner::new(InstructionCost::default());
        let mut batched = input.clone();
        planner.transform_batch(&mut batched, rows).unwrap();
        let mut per_row = input;
        for row in per_row.chunks_exact_mut(1 << n) {
            planner.transform(row).unwrap();
        }
        assert_eq!(batched, per_row, "batched rows must replay bit-identically");

        // Bad geometries are rejected.
        let mut x = vec![0.0f64; 96];
        assert!(planner.transform_batch(&mut x, 0).is_err());
        assert!(planner.transform_batch(&mut x, 5).is_err());
        assert!(planner.transform_batch(&mut x, 32).is_err(), "row length 3");
    }

    #[test]
    fn planner_transform_agrees_with_direct_plan_application() {
        let mut planner = Planner::new(InstructionCost::default());
        let mut via_planner: Vec<f64> = (0..256).map(|j| (j % 17) as f64 - 8.0).collect();
        let direct_input = via_planner.clone();
        planner.transform(&mut via_planner).unwrap();
        let plan = planner.plan(8).unwrap().clone();
        let mut direct = direct_input;
        apply_plan(&plan, &mut direct).unwrap();
        assert_eq!(
            via_planner, direct,
            "planner must run exactly its chosen plan"
        );
    }

    #[test]
    fn bad_lengths_rejected() {
        let mut planner = Planner::new(InstructionCost::default());
        let mut odd = vec![0.0f64; 24];
        assert!(planner.transform(&mut odd).is_err());
        let mut one = vec![0.0f64; 1];
        assert!(planner.transform(&mut one).is_err());
        assert_eq!(planner.evaluations(), 0);
    }

    #[test]
    fn version_4_wisdom_migrates_and_records_no_objective() {
        // A version-4 store (pre-objective) must load its plan with no
        // objective recorded — so a default-weighted reader
        // replays it, and an objective-aimed reader re-searches.
        let legacy = "{\"version\":4,\"entries\":[{\"n\":10,\"backend\":\
                      \"combined-model\",\"plan\":\"split[small[5],small[5]]\",\
                      \"tuning\":{\"fuse_budget\":4096,\"simd\":true,\
                      \"relayout\":0,\"recodelet\":true,\"batch\":0}}]}";
        let w = Wisdom::from_json(legacy).unwrap();
        assert_eq!(
            w.get(10, "combined-model").unwrap().to_string(),
            "split[small[5],small[5]]"
        );
        assert_eq!(
            w.tuning(10, "combined-model").unwrap().objective,
            None,
            "a field the blob predates records no choice"
        );
        let migrated = Wisdom::from_json(&w.to_json()).unwrap();
        assert_eq!(migrated, w);
        // A legacy (objective-less) planner serves the entry warm...
        let mut warm = Planner::new(CombinedModelCost::paper_default()).with_wisdom(w.clone());
        warm.plan(10).unwrap();
        assert_eq!(warm.evaluations(), 0);
        // ...while a planner aimed at an explicit objective treats it as
        // stale and re-searches.
        let mut aimed = Planner::new(CombinedModelCost::paper_default())
            .with_wisdom(w)
            .with_objective(CostObjective::Memory);
        aimed.plan(10).unwrap();
        assert!(aimed.evaluations() > 0);
    }

    #[test]
    fn objective_round_trips_through_wisdom() {
        // The acceptance contract: the planner selects among named
        // weightings via the vector-cost trait, and wisdom round-trips
        // the choice.
        let mut planner =
            Planner::new(CombinedModelCost::paper_default()).with_objective(CostObjective::Memory);
        planner.plan(12).unwrap();
        let backend = planner.backend_name();
        assert_eq!(
            planner.wisdom().tuning(12, backend).unwrap().objective,
            Some(CostObjective::Memory)
        );
        let json = planner.wisdom().to_json();
        assert!(json.contains("\"objective\": \"Memory\""), "{json}");
        let reloaded = Wisdom::from_json(&json).unwrap();
        assert_eq!(
            reloaded.tuning(12, backend).unwrap().objective,
            Some(CostObjective::Memory)
        );
        // Same-objective importer: warm. Different objective: re-search.
        let mut same = Planner::new(CombinedModelCost::paper_default())
            .with_objective(CostObjective::Memory)
            .with_wisdom(reloaded.clone());
        same.plan(12).unwrap();
        assert_eq!(same.evaluations(), 0);
        let mut other = Planner::new(CombinedModelCost::paper_default())
            .with_objective(CostObjective::Latency)
            .with_wisdom(reloaded);
        other.plan(12).unwrap();
        assert!(other.evaluations() > 0);
        assert_eq!(
            other.wisdom().tuning(12, backend).unwrap().objective,
            Some(CostObjective::Latency),
            "the stale entry is replaced under the new objective"
        );
    }

    #[test]
    fn objectives_select_different_plans_for_the_same_backend() {
        // Two weightings must be able to disagree about the best plan —
        // otherwise the multi-objective layer is a no-op. Under the
        // combined model, latency blends instructions with misses while
        // memory ignores instructions entirely, which flips the winner at
        // out-of-model-cache sizes.
        let n = 16;
        let mut latency =
            Planner::new(CombinedModelCost::paper_default()).with_objective(CostObjective::Latency);
        let lat_plan = latency.plan(n).unwrap().clone();
        let mut memory =
            Planner::new(CombinedModelCost::paper_default()).with_objective(CostObjective::Memory);
        let mem_plan = memory.plan(n).unwrap().clone();
        assert_ne!(
            lat_plan, mem_plan,
            "latency and memory objectives should pick different plans at n={n}"
        );
        // And each planner's explain names its memo-search provenance.
        let line = latency.explain(n).expect("searched this instance");
        assert!(line.contains("candidates"), "{line}");
    }

    #[test]
    fn planner_explain_reports_provenance_for_searched_and_replayed_sizes() {
        let mut planner = Planner::new(InstructionCost::default());
        assert_eq!(planner.explain(8), None, "nothing searched yet");
        planner.plan(8).unwrap();
        let line = planner.explain(8).expect("just searched");
        assert!(line.contains("2^8"), "{line}");
        assert!(
            !line.contains("replayed"),
            "live memo account, not a replay: {line}"
        );
        // Every smaller span was solved by the same memo search.
        assert!(planner.explain(3).is_some());
        // A wisdom-served planner replays the persisted provenance
        // (wisdom version 6): the account survives a process restart,
        // marked as a replay.
        let mut warm =
            Planner::new(InstructionCost::default()).with_wisdom(planner.wisdom().clone());
        warm.plan(8).unwrap();
        assert_eq!(warm.evaluations(), 0);
        let replayed = warm.explain(8).expect("persisted provenance");
        assert!(replayed.contains("[replayed from wisdom]"), "{replayed}");
        assert!(replayed.contains("2^8"), "{replayed}");
        // An entry with no recorded provenance (hand-inserted wisdom)
        // still reports nothing.
        let mut plain = Wisdom::new();
        plain
            .insert(4, "instruction-model", Plan::iterative(4).unwrap())
            .unwrap();
        let mut bare = Planner::new(InstructionCost::default()).with_wisdom(plain);
        bare.plan(4).unwrap();
        assert_eq!(bare.explain(4), None);
    }

    #[test]
    fn planner_explain_carries_the_verifier_verdict_once_compiled() {
        let mut planner = Planner::new(InstructionCost::default());
        planner.plan(8).unwrap();
        let line = planner.explain(8).expect("just searched");
        assert!(
            !line.contains("verified"),
            "no schedule compiled yet, nothing to verify: {line}"
        );
        let mut x = vec![1.0f64; 256];
        planner.transform(&mut x).unwrap();
        let line = planner.explain(8).expect("searched and compiled");
        assert!(
            line.contains("verified: bounds+disjointness+coverage+scratch"),
            "the serving schedule must prove clean: {line}"
        );
    }

    #[test]
    fn planner_memo_persists_across_sizes() {
        // The memo table must make the second, larger search cheaper than
        // a cold one: spans 1..=12 are reused, only 13..=16 are solved.
        let mut planner = Planner::new(InstructionCost::default());
        planner.plan(12).unwrap();
        let after_first = planner.evaluations();
        planner.plan(16).unwrap();
        let incremental = planner.evaluations() - after_first;
        let mut cold = Planner::new(InstructionCost::default());
        cold.plan(16).unwrap();
        assert!(
            incremental < cold.evaluations(),
            "incremental {incremental} should be under cold {}",
            cold.evaluations()
        );
        assert_eq!(planner.memo().solved_n(), 16);
    }
}

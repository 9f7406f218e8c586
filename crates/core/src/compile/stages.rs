//! The staged lowering pipeline: the [`LoweringStage`] abstraction and
//! the standard stage sequence [`CompiledPlan::lower`] runs.
//!
//! Each stage is a policy-gated, schedule-to-schedule rewrite that
//! preserves output bits (each stage's own docs carry the argument).
//! A new rewrite implements [`LoweringStage`], claims a field in
//! [`ExecPolicy`] (the schedule cache keys on the whole policy, so the
//! field is part of the key with no further code), adds one `WHT_NO_*`
//! kill-switch line to [`ExecPolicy::from_env`], takes its place in
//! [`lowering_stages`], and adds one policy point to the facade's
//! `tests/exec_matrix.rs` — everything downstream (executor, parallel
//! engine, measurement, search, wisdom) consumes the lowered schedule
//! or the policy generically.

use super::{CompiledPlan, ExecPolicy};

/// One rewrite stage of the lowering pipeline: a pure
/// schedule-to-schedule transformation gated by (a field of) the
/// [`ExecPolicy`] it was built from.
///
/// Contract: `rewrite` must preserve output bits and the schedule safety
/// invariants — bounds, write-disjointness, coverage, scratch sizing —
/// that [`crate::verify`] proves (re-proved after every stage in debug
/// builds by [`CompiledPlan::lower`]), and must be a no-op when its
/// policy is disabled.
pub trait LoweringStage {
    /// Stage name, for diagnostics and provenance reporting.
    fn name(&self) -> &'static str;

    /// Apply the rewrite to `plan`'s schedule.
    fn rewrite(&self, plan: &CompiledPlan) -> CompiledPlan;
}

/// Stage 1: cache-blocked prefix fusion ([`CompiledPlan::fuse`]).
struct FuseStage(super::FusionPolicy);

impl LoweringStage for FuseStage {
    fn name(&self) -> &'static str {
        "fuse"
    }
    fn rewrite(&self, plan: &CompiledPlan) -> CompiledPlan {
        plan.fuse(&self.0)
    }
}

/// Stage 2: DDL tail relayout ([`CompiledPlan::relayout`]).
struct RelayoutStage(super::RelayoutPolicy);

impl LoweringStage for RelayoutStage {
    fn name(&self) -> &'static str {
        "relayout"
    }
    fn rewrite(&self, plan: &CompiledPlan) -> CompiledPlan {
        plan.relayout(&self.0)
    }
}

/// Stage 3: re-codeleting chained factors within every unit ([`CompiledPlan::recodelet`]).
struct RecodeletStage(super::RecodeletPolicy);

impl LoweringStage for RecodeletStage {
    fn name(&self) -> &'static str {
        "recodelet"
    }
    fn rewrite(&self, plan: &CompiledPlan) -> CompiledPlan {
        plan.recodelet(&self.0)
    }
}

/// Stage 4: kernel backend selection ([`CompiledPlan::with_simd`]).
struct BackendStage(crate::codelets::SimdPolicy);

impl LoweringStage for BackendStage {
    fn name(&self) -> &'static str {
        "backend-select"
    }
    fn rewrite(&self, plan: &CompiledPlan) -> CompiledPlan {
        plan.with_simd(&self.0)
    }
}

/// Stage 5: the batched-execution product ([`CompiledPlan::with_batch`]).
struct BatchStage(super::BatchPolicy);

impl LoweringStage for BatchStage {
    fn name(&self) -> &'static str {
        "batch"
    }
    fn rewrite(&self, plan: &CompiledPlan) -> CompiledPlan {
        plan.with_batch(&self.0)
    }
}

/// Stage 6: streaming memory codelet marking ([`CompiledPlan::with_stream`]).
struct StreamStage(super::StreamPolicy);

impl LoweringStage for StreamStage {
    fn name(&self) -> &'static str {
        "stream"
    }
    fn rewrite(&self, plan: &CompiledPlan) -> CompiledPlan {
        plan.with_stream(&self.0)
    }
}

/// The standard stage sequence for `policy`, in execution order:
/// fuse → relayout → recodelet → backend-select → batch → stream. Order
/// matters and is fixed here once: fusion must run before relayout (the
/// tail is whatever fusion could not merge), re-codeleting before backend
/// selection is immaterial but keeps structural rewrites together,
/// re-fusing later would discard the relayout grouping, the batch
/// stage's cross/tail split is derived from the final
/// flat factor list (post-re-codelet) and inherits the selected backend
/// (every earlier stage resets the batch product it would invalidate),
/// and the stream stage runs last of all — a pure dispatch marking over
/// whatever units (relayout and batch alike) the pipeline produced.
pub fn lowering_stages(policy: &ExecPolicy) -> Vec<Box<dyn LoweringStage>> {
    vec![
        Box::new(FuseStage(policy.fusion)),
        Box::new(RelayoutStage(policy.relayout)),
        Box::new(RecodeletStage(policy.recodelet)),
        Box::new(BackendStage(policy.simd)),
        Box::new(BatchStage(policy.batch)),
        Box::new(StreamStage(policy.stream)),
    ]
}

impl CompiledPlan {
    /// Lower this schedule through the full staged pipeline under
    /// `policy` (see [`lowering_stages`]): every stage applied in order.
    /// In debug builds every stage's output is re-proved by the full
    /// static verifier ([`CompiledPlan::verify`] — bounds, disjointness,
    /// coverage, scratch sizing; strictly stronger than the structural
    /// [`CompiledPlan::validate`] this hook used to assert), so a
    /// pipeline regression fails at the stage that caused it with a
    /// diagnostic naming the violated invariant. This is the production
    /// lowering — [`super::compiled_for`] caches exactly
    /// `compile(plan).lower(policy)` per `(plan, policy)`.
    #[must_use]
    pub fn lower(&self, policy: &ExecPolicy) -> CompiledPlan {
        let mut lowered = self.clone();
        for stage in lowering_stages(policy) {
            lowered = stage.rewrite(&lowered);
            #[cfg(debug_assertions)]
            {
                let diags = lowered.verify();
                assert!(
                    diags.is_empty(),
                    "lowering stage {:?} produced an unsafe schedule:\n{}",
                    stage.name(),
                    diags
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("\n")
                );
            }
        }
        lowered
    }
}

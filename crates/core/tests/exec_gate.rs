//! CI gate for the environment: the process-default executor is exactly
//! the one the set `WHT_NO_*` kill switches describe.
//!
//! The environment can only switch lowering stages off (and size the crew
//! with `WHT_THREADS`); what each executor configuration compiles and
//! computes is tested in-process, over every policy point, by the facade's
//! `tests/exec_matrix.rs`. This gate only checks the env plumbing, so a CI
//! leg whose environment does not reach the production path fails instead
//! of silently re-testing the default executor.

use wht_core::{
    compiled_for, env, BatchPolicy, CompiledPlan, ExecPolicy, FusionPolicy, Plan, RecodeletPolicy,
    RelayoutPolicy, SimdPolicy, StreamPolicy,
};

/// The policy the set kill switches describe: the defaults, with each
/// switched-off stage at its `disabled()` value.
fn switched_policy() -> ExecPolicy {
    let mut policy = ExecPolicy::default();
    if env::flag("WHT_NO_FUSE") {
        policy = policy.with_fusion(FusionPolicy::disabled());
    }
    if env::flag("WHT_NO_SIMD") {
        policy = policy.with_simd(SimdPolicy::disabled());
    }
    if env::flag("WHT_NO_RELAYOUT") {
        policy = policy.with_relayout(RelayoutPolicy::disabled());
    }
    if env::flag("WHT_NO_RECODELET") {
        policy = policy.with_recodelet(RecodeletPolicy::disabled());
    }
    if env::flag("WHT_NO_BATCH") {
        policy = policy.with_batch(BatchPolicy::disabled());
    }
    if env::flag("WHT_NO_STREAM") {
        policy = policy.with_stream(StreamPolicy::disabled());
    }
    policy
}

#[test]
fn executor_paths_match_the_environment() {
    let policy = switched_policy();
    assert_eq!(
        ExecPolicy::from_env(),
        policy,
        "ExecPolicy::from_env() disagrees with the set kill switches"
    );
    // The production schedule cache must serve exactly that policy's
    // schedule. n = 26 is past every default engagement floor (relayout,
    // stream) and n = 12 carries a batch schedule, so between them every
    // stage's switch changes what is compared; compiling touches no data.
    for n in [12u32, 26] {
        let plan = Plan::iterative(n).unwrap();
        assert_eq!(
            *compiled_for(&plan),
            CompiledPlan::compile_exec(&plan, &policy),
            "apply_plan would run a schedule this leg's environment does not describe (n = {n})"
        );
    }
}

#[test]
fn pinned_threads_are_what_the_crew_resolution_reports() {
    // The engine's `Threads::default()` and the bench binaries both
    // resolve through `env::threads()`; when `WHT_THREADS` is pinned the
    // resolution must honor the pin exactly (empty counts as unset).
    assert!(env::threads() >= 1);
    if let Ok(raw) = std::env::var("WHT_THREADS") {
        if !raw.trim().is_empty() {
            assert_eq!(
                env::threads().to_string(),
                raw.trim(),
                "a pinned WHT_THREADS must be what the crew resolution reports"
            );
        }
    }
}

//! Property tests for the parallel engine: race-freedom in practice means
//! bit-exact agreement with the sequential engine on random plans, fusion
//! policies, thread counts, and data. Plans and signals come from the
//! shared `wht_core::testkit` generators.

use proptest::prelude::*;
use std::sync::OnceLock;
use wht_core::testkit::{random_plan, random_signal, reference_wht};
use wht_core::{
    apply_plan, apply_plan_recursive, BatchPolicy, CompiledPlan, ExecPolicy, FusionPolicy,
    RecodeletPolicy, RelayoutPolicy, Scalar, SimdPolicy, StreamPolicy,
};
use wht_parallel::{
    par_apply_batch_on, par_apply_compiled_on, par_apply_plan, Threads, WorkerPool,
};

/// One shared 4-worker pool for the whole proptest binary: real pools are
/// process-lived, and sharing it across hundreds of cases also stresses
/// slot reuse and arena growth far harder than a fresh pool per case.
/// Being explicit, it keeps crews of 3 and 4 covered on hosts (or
/// `WHT_THREADS` settings) whose global pool is smaller.
fn pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(4))
}

/// A random point in executor-policy space from proptest-drawn axes,
/// every lowering stage togglable (streaming eager so it engages on
/// test-sized transforms).
#[allow(clippy::fn_params_excessive_bools)]
fn policy_point(
    fuse_bits: u32,
    relayout_bits: u32,
    recodelet: bool,
    simd: bool,
    batch: usize,
    stream: bool,
) -> ExecPolicy {
    ExecPolicy {
        fusion: if fuse_bits == 0 {
            FusionPolicy::disabled()
        } else {
            FusionPolicy::new(1usize << fuse_bits)
        },
        relayout: if relayout_bits == 0 {
            RelayoutPolicy::disabled()
        } else {
            RelayoutPolicy::eager(1usize << relayout_bits)
        },
        recodelet: if recodelet {
            RecodeletPolicy::default()
        } else {
            RecodeletPolicy::disabled()
        },
        simd: if simd {
            SimdPolicy::auto()
        } else {
            SimdPolicy::disabled()
        },
        batch: if batch == 0 {
            BatchPolicy::disabled()
        } else {
            BatchPolicy::new(batch)
        },
        stream: if stream {
            StreamPolicy::eager()
        } else {
            StreamPolicy::disabled()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_equals_sequential_bit_for_bit(
        n in 1u32..=12,
        seed in any::<u64>(),
        threads in 1usize..=16,
    ) {
        let plan = random_plan(n, seed);
        let input: Vec<f64> = (0..plan.size())
            .map(|j| {
                let h = (j as u64).wrapping_mul(0xD1B5_4A32_D192_ED03).wrapping_add(seed);
                ((h >> 20) % 4096) as f64 / 512.0 - 4.0
            })
            .collect();
        let mut seq = input.clone();
        apply_plan(&plan, &mut seq).unwrap();
        let mut par = input;
        par_apply_plan(&plan, &mut par, Threads(threads)).unwrap();
        // Floating-point operations happen in identical order per element
        // (only the schedule differs), so agreement is exact, not approximate.
        prop_assert_eq!(par, seq);
    }

    /// The compiled schedule, the recursive interpreter, and the parallel
    /// engine all agree bit for bit on random plans, for every scalar
    /// type.
    #[test]
    fn compiled_recursive_and_parallel_all_agree(
        n in 1u32..=12,
        seed in any::<u64>(),
        threads in 1usize..=8,
    ) {
        fn check<T: Scalar>(
            plan: &wht_core::Plan,
            compiled: &CompiledPlan,
            seed: u64,
            threads: usize,
        ) {
            let input: Vec<T> = random_signal(plan.size(), seed);
            let mut rec = input.clone();
            apply_plan_recursive(plan, &mut rec).unwrap();
            let mut flat = input.clone();
            compiled.apply(&mut flat).unwrap();
            assert_eq!(flat, rec, "compiled vs recursive for {plan}");
            let mut par = input;
            par_apply_compiled_on(pool(), compiled, &mut par, Threads(threads)).unwrap();
            assert_eq!(par, rec, "parallel vs recursive for {plan} ({threads} threads)");
        }
        let plan = random_plan(n, seed);
        let compiled = CompiledPlan::compile(&plan);
        check::<f64>(&plan, &compiled, seed, threads);
        check::<f32>(&plan, &compiled, seed, threads);
        check::<i64>(&plan, &compiled, seed, threads);
        check::<i32>(&plan, &compiled, seed, threads);
    }

    /// Tile-sharded execution of fused schedules is bit-identical to the
    /// sequential fused replay (and hence to the interpreter), for any
    /// fusion budget — the parallel leg of the fusion differential
    /// harness.
    #[test]
    fn fused_parallel_equals_sequential_bit_for_bit(
        n in 1u32..=13,
        seed in any::<u64>(),
        threads in 2usize..=8,
        budget_bits in 0u32..=14,
    ) {
        let budget = if budget_bits == 0 { 0 } else { 1usize << budget_bits };
        let plan = random_plan(n, seed);
        let fused = CompiledPlan::compile(&plan).fuse(&FusionPolicy::new(budget));
        let input: Vec<i64> = random_signal(plan.size(), seed);
        let mut seq = input.clone();
        fused.apply(&mut seq).unwrap();
        let mut par = input;
        par_apply_compiled_on(pool(), &fused, &mut par, Threads(threads)).unwrap();
        prop_assert_eq!(par, seq, "plan {}, budget {}", plan, budget);
    }

    /// The pool, the sequential replay, and `reference_wht` agree bit for
    /// bit on random plans lowered through random executor policies
    /// (fusion, relayout, re-codeleting, SIMD, streaming), for all four
    /// scalar types. (The signals are small integers, so every float
    /// transform here is exact.)
    #[test]
    fn pooled_sequential_and_reference_agree_on_random_lowered_schedules(
        n in 1u32..=13,
        seed in any::<u64>(),
        threads in 2usize..=8,
        fuse_bits in 0u32..=12,
        relayout_bits in 0u32..=12,
        flags in 0u8..8,
    ) {
        let (recodelet, simd, stream) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        fn check<T: Scalar>(lowered: &CompiledPlan, seed: u64, threads: usize) {
            let input: Vec<T> = random_signal(lowered.size(), seed);
            let mut seq = input.clone();
            lowered.apply(&mut seq).unwrap();
            assert_eq!(seq, reference_wht(&input), "sequential vs reference");
            let mut pooled = input;
            par_apply_compiled_on(pool(), lowered, &mut pooled, Threads(threads)).unwrap();
            assert_eq!(pooled, seq, "pooled vs sequential ({threads} threads)");
        }
        let plan = random_plan(n, seed);
        // Relayout block budgets below 2^6 are degenerate; fold the low
        // draws onto "relayout disabled" so that leg stays covered too.
        let relayout_bits = if relayout_bits < 6 { 0 } else { relayout_bits };
        let policy = policy_point(fuse_bits, relayout_bits, recodelet, simd, 0, stream);
        let lowered = CompiledPlan::compile(&plan).lower(&policy);
        check::<f64>(&lowered, seed, threads);
        check::<f32>(&lowered, seed, threads);
        check::<i64>(&lowered, seed, threads);
        check::<i32>(&lowered, seed, threads);
    }

    /// Pooled batched execution agrees bit for bit with the sequential
    /// batch replay and with `reference_wht` per row on random row counts
    /// (every chunking regime: sub-lane-group, exact multiples, ragged
    /// remainders), with and without streaming.
    #[test]
    fn pooled_batches_agree_with_sequential_and_reference(
        n in 1u32..=8,
        seed in any::<u64>(),
        rows in 1usize..=80,
        threads in 2usize..=8,
        stream in any::<bool>(),
    ) {
        fn check<T: Scalar>(lowered: &CompiledPlan, rows: usize, seed: u64, threads: usize) {
            let size = lowered.size();
            let input: Vec<T> = random_signal(size * rows, seed);
            let mut seq = input.clone();
            lowered.apply_batch(&mut seq, rows).unwrap();
            for (row, want) in input.chunks_exact(size).zip(seq.chunks_exact(size)) {
                assert_eq!(reference_wht(row), want, "sequential batch row vs reference");
            }
            let mut pooled = input;
            par_apply_batch_on(pool(), lowered, &mut pooled, rows, Threads(threads)).unwrap();
            assert_eq!(pooled, seq, "pooled batch ({rows} rows, {threads} threads)");
        }
        let plan = random_plan(n, seed);
        let policy = policy_point(4, 0, false, true, 8, stream);
        let lowered = CompiledPlan::compile(&plan).lower(&policy);
        check::<f64>(&lowered, rows, seed, threads);
        check::<f32>(&lowered, rows, seed, threads);
        check::<i64>(&lowered, rows, seed, threads);
        check::<i32>(&lowered, rows, seed, threads);
    }

    #[test]
    fn parallel_integer_engine_exact(n in 1u32..=10, seed in any::<u64>(), threads in 1usize..=8) {
        let plan = random_plan(n, seed);
        let ints: Vec<i64> = (0..plan.size() as i64).map(|j| (j * 29 % 61) - 30).collect();
        let mut seq = ints.clone();
        apply_plan(&plan, &mut seq).unwrap();
        let mut par = ints;
        par_apply_plan(&plan, &mut par, Threads(threads)).unwrap();
        prop_assert_eq!(par, seq);
    }
}

//! The executor matrix: every public executor path, checked in-process at
//! every executor policy point the `WHT_NO_*` kill switches can select.
//!
//! The points are the default policy, the default with each of the six
//! lowering stages disabled, and every stage disabled. Per point this
//! checks (a) the compile shape the point must produce — fusion
//! provenance, kernel backend, relayout, re-codeleting, streamed copies,
//! batch schedule, and the trivial units of the all-off baseline — and
//! (b) bit-identity with `reference_wht` for all four scalar types
//! through `Planner` (`transform`, `transform_batch`), `compiled_for_exec`
//! and `par_apply_compiled`, with each point's planner serving wisdom
//! recorded under a different point and still compiling under its own
//! policy. The policy is passed as a value, so one process covers every
//! point; the `exec_gate` test in `wht-core` checks that the environment's
//! kill switches reach the same policies.

use wht::core::testkit::{random_plan, random_signal, reference_wht};
use wht::prelude::*;

/// The 8 policy points: default, default with one stage off (×6), all off.
fn policy_points() -> Vec<ExecPolicy> {
    let d = ExecPolicy::default();
    vec![
        d,
        d.with_fusion(FusionPolicy::disabled()),
        d.with_relayout(RelayoutPolicy::disabled()),
        d.with_recodelet(RecodeletPolicy::disabled()),
        d.with_simd(SimdPolicy::disabled()),
        d.with_batch(BatchPolicy::disabled()),
        d.with_stream(StreamPolicy::disabled()),
        ExecPolicy::all_disabled(),
    ]
}

#[test]
fn every_policy_point_compiles_the_shape_it_names() {
    // Compiling touches no data, so a 2^26-element plan is cheap: it is
    // past the default relayout and streaming floors, iterative(26) fuses
    // under the default budget, and its relayouted tail re-codelets.
    let n = 26u32;
    assert!((1usize << n) >= RelayoutPolicy::default().min_elems);
    assert!((1usize << n) >= StreamPolicy::default().min_elems);
    let plan = Plan::iterative(n).unwrap();
    let small = Plan::iterative(12).unwrap();
    for p in policy_points() {
        let (fuse, simd, relayout) = (p.fusion.enabled(), p.simd.enabled(), p.relayout.enabled());
        let (recodelet, stream) = (p.recodelet.enabled(), p.stream.enabled());
        let compiled = compiled_for_exec(&plan, &p);
        // Fusion is checked through per-stage provenance, not the
        // structural is_fused(): a relayout unit is multi-part whatever
        // the fuse stage did.
        assert_eq!(
            compiled
                .super_passes()
                .iter()
                .any(|sp| sp.provenance().fused),
            fuse,
            "fusion, {p:?}"
        );
        assert_eq!(compiled.is_simd(), simd, "kernel backend, {p:?}");
        let backend = if simd {
            PassBackend::Lanes
        } else {
            PassBackend::Scalar
        };
        assert!(
            compiled
                .super_passes()
                .iter()
                .all(|sp| sp.backend() == backend),
            "mixed or wrong backend, {p:?}"
        );
        assert_eq!(compiled.has_relayout(), relayout, "relayout, {p:?}");
        // Re-codeleting merges within multi-factor units, so it has
        // something to rewrite only when fusion or relayout made one.
        assert_eq!(
            compiled.has_recodeleted(),
            recodelet && (fuse || relayout),
            "re-codeleting, {p:?}"
        );
        // Streaming only rewrites relayout gather/scatter sweeps.
        assert_eq!(
            compiled.has_streamed(),
            stream && relayout,
            "streaming, {p:?}"
        );
        if relayout {
            let tail = compiled
                .super_passes()
                .iter()
                .find(|sp| sp.is_relayout())
                .expect("checked above");
            let rl = tail.relayout().unwrap();
            assert_eq!(rl.rows * rl.row_stride, compiled.size());
            assert!(tail.tile_elems() <= p.relayout.budget_elems);
            assert_eq!(
                tail.provenance().recodeleted > 0,
                recodelet,
                "the re-codeleted tail must say which stage rewrote it, {p:?}"
            );
            assert_eq!(tail.provenance().streamed, stream, "tail copies, {p:?}");
        }
        // The batch stage builds a separate product with a size cap: the
        // 2^26 plan is past it, so only the small compile shows the stage.
        assert!(compiled.batch_schedule().is_none(), "{p:?}");
        assert_eq!(
            compiled_for_exec(&small, &p).batch_schedule().is_some(),
            p.batch.enabled(),
            "batch schedule, {p:?}"
        );
        // Fusion, SIMD and relayout off leave the pure scalar, unfused,
        // in-place baseline: one trivial unit per factor.
        if !fuse && !simd && !relayout {
            assert!(compiled.super_passes().iter().all(|sp| {
                sp.parts().len() == 1
                    && sp.tiles() == 1
                    && sp.backend() == PassBackend::Scalar
                    && !sp.is_relayout()
                    && sp.provenance() == Provenance::default()
            }));
            assert_eq!(compiled.super_passes().len(), compiled.passes().len());
        }
    }
}

/// Sizes for the bit-identity checks: the smallest transform, one
/// narrower than a lane block, and two wider (all cache-resident, so the
/// default relayout and streaming floors are not reached here; the
/// differential proptests of `wht-core` and `wht-parallel` run those
/// stages at every size through their `eager` policies).
const SIZES: [u32; 4] = [1, 5, 10, 13];

/// Wisdom for every served size, recorded by a planner set to `recorder`
/// and shipped through JSON.
fn wisdom_recorded_under(recorder: ExecPolicy) -> Wisdom {
    let mut planner = Planner::new(InstructionCost::default()).with_exec(recorder);
    planner.plan(SIZES[SIZES.len() - 1]).unwrap();
    Wisdom::from_json(&planner.wisdom().to_json()).unwrap()
}

fn assert_every_path_matches_reference<T: Scalar>(
    p: &ExecPolicy,
    planner: &mut Planner<InstructionCost>,
) {
    for (i, &n) in SIZES.iter().enumerate() {
        let len = 1usize << n;
        let seed = 7 * i as u64 + 1;
        let input = random_signal::<T>(len, seed);
        let want = reference_wht(&input);
        assert_eq!(planner.resolved_exec(n), *p, "policy at n = {n}");

        let mut x = input.clone();
        planner.transform(&mut x).unwrap();
        assert!(x == want, "Planner::transform, n = {n}, {p:?}");

        for rows in [1usize, 17] {
            let batch = random_signal::<T>(rows * len, seed + 100);
            let want: Vec<T> = batch.chunks(len).flat_map(reference_wht).collect();
            let mut x = batch;
            planner.transform_batch(&mut x, rows).unwrap();
            assert!(
                x == want,
                "Planner::transform_batch, rows = {rows}, n = {n}, {p:?}"
            );
        }

        let compiled = compiled_for_exec(&random_plan(n, seed), p);
        let mut x = input.clone();
        compiled.apply(&mut x).unwrap();
        assert!(x == want, "compiled_for_exec apply, n = {n}, {p:?}");

        let mut x = input;
        par_apply_compiled(&compiled, &mut x, Threads(4)).unwrap();
        assert!(x == want, "par_apply_compiled, n = {n}, {p:?}");
    }
}

#[test]
fn every_policy_point_is_bit_identical_to_the_reference() {
    // The signals are small integers, so every scalar type (f32 included)
    // computes these sizes exactly and any plan must match the reference
    // bit for bit.
    // Each planner serves wisdom recorded under another point, which
    // must not change the policy it compiles under.
    for p in policy_points() {
        let recorder = if p == ExecPolicy::all_disabled() {
            ExecPolicy::default()
        } else {
            ExecPolicy::all_disabled()
        };
        let mut planner = Planner::new(InstructionCost::default())
            .with_wisdom(wisdom_recorded_under(recorder))
            .with_exec(p);
        assert_every_path_matches_reference::<f64>(&p, &mut planner);
        assert_every_path_matches_reference::<f32>(&p, &mut planner);
        assert_every_path_matches_reference::<i64>(&p, &mut planner);
        assert_every_path_matches_reference::<i32>(&p, &mut planner);
        assert_eq!(planner.evaluations(), 0, "served from wisdom, {p:?}");
    }
    // A planner without with_exec compiles under the environment's policy
    // whatever wisdom it imports: under the all-off environment, wisdom
    // recorded with every stage on cannot re-enable one.
    let env = ExecPolicy::from_env();
    for recorder in [ExecPolicy::default(), ExecPolicy::all_disabled()] {
        let mut planner =
            Planner::new(InstructionCost::default()).with_wisdom(wisdom_recorded_under(recorder));
        assert_every_path_matches_reference::<f64>(&env, &mut planner);
    }
}

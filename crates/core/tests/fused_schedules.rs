//! Negative tests for `CompiledPlan::validate` on malformed hand-built
//! fused schedules: every broken invariant must come back as a *typed*
//! `WhtError` from `CompiledPlan::from_super_passes` — never a panic, and
//! never a silently-accepted schedule that would make the unsafe executor
//! read or write out of bounds.

use wht_core::{CompiledPlan, FusionPolicy, Plan, Relayout, SuperPass, WhtError};

/// A correct tile-relative part for a `tile`-element tile: `small[k]`
/// covering the tile exactly once at stride `s`.
fn part(k: u32, s: usize, tile: usize) -> wht_core::Pass {
    wht_core::Pass {
        k,
        r: tile / ((1usize << k) * s),
        s,
        base: 0,
        stride: 1,
    }
}

#[test]
fn well_formed_hand_built_schedule_is_accepted() {
    // Two fused radix-2 factors over 4-element tiles of a 16-vector,
    // followed by two single large-stride passes — the shape fuse() makes.
    let n = 4u32;
    let fused_head = SuperPass::new(vec![part(1, 1, 4), part(1, 2, 4)], 4, 4, 0, 1);
    let tail1 = SuperPass::new(vec![part(1, 4, 16)], 16, 1, 0, 1);
    let tail2 = SuperPass::new(vec![part(1, 8, 16)], 16, 1, 0, 1);
    let plan = CompiledPlan::from_super_passes(n, vec![fused_head, tail1, tail2]).unwrap();
    assert!(plan.validate().is_ok());
    // And it computes the right transform: it is exactly iterative(4) fused.
    let want = CompiledPlan::compile(&Plan::iterative(n).unwrap()).fuse(&FusionPolicy::new(4));
    assert_eq!(plan.super_passes(), want.super_passes());
    let mut x: Vec<i64> = (0..16).map(|j| (j * 7 % 13) - 6).collect();
    let mut y = x.clone();
    plan.apply(&mut x).unwrap();
    want.apply(&mut y).unwrap();
    assert_eq!(x, y);
}

#[test]
fn overlapping_tiles_rejected() {
    // The part spans 8 elements but the tile is only 4: invocations bleed
    // into the next tile, so concurrent tiles would overlap.
    let bad = SuperPass::new(vec![part(1, 1, 8)], 4, 4, 0, 1);
    let err = CompiledPlan::from_super_passes(4, vec![bad]).unwrap_err();
    match err {
        WhtError::InvalidSchedule { index, msg } => {
            assert_eq!(index, 0);
            assert!(msg.contains("escapes its tile"), "got: {msg}");
            assert!(msg.contains("overlapping tiles"), "got: {msg}");
        }
        other => panic!("expected InvalidSchedule, got {other:?}"),
    }
}

#[test]
fn span_exceeding_vector_length_rejected() {
    // 8 tiles of 4 elements = 32 > 2^4: the grid runs past the buffer.
    let bad = SuperPass::new(vec![part(1, 1, 4), part(1, 2, 4)], 4, 8, 0, 1);
    let err = CompiledPlan::from_super_passes(4, vec![bad]).unwrap_err();
    match err {
        WhtError::InvalidSchedule { index, msg } => {
            assert_eq!(index, 0);
            assert!(msg.contains("exceeding the vector length"), "got: {msg}");
        }
        other => panic!("expected InvalidSchedule, got {other:?}"),
    }
}

#[test]
fn uncovered_elements_rejected() {
    // 2 tiles of 4 elements cover only 8 of 16.
    let bad = SuperPass::new(vec![part(1, 1, 4), part(1, 2, 4)], 4, 2, 0, 1);
    let err = CompiledPlan::from_super_passes(4, vec![bad]).unwrap_err();
    assert!(
        matches!(err, WhtError::InvalidSchedule { index: 0, ref msg } if msg.contains("cover only")),
        "got: {err:?}"
    );
}

#[test]
fn partial_tile_coverage_rejected() {
    // The part fits inside the tile but covers only half of it.
    let half = wht_core::Pass {
        k: 1,
        r: 1,
        s: 1,
        base: 0,
        stride: 1,
    };
    let bad = SuperPass::new(vec![half], 4, 4, 0, 1);
    let err = CompiledPlan::from_super_passes(4, vec![bad]).unwrap_err();
    assert!(
        matches!(err, WhtError::InvalidSchedule { index: 0, ref msg } if msg.contains("exactly once")),
        "got: {err:?}"
    );
}

#[test]
fn offset_and_strided_super_passes_rejected_at_top_level() {
    let off_base = SuperPass::new(vec![part(1, 1, 2)], 2, 8, 1, 1);
    let err = CompiledPlan::from_super_passes(4, vec![off_base]).unwrap_err();
    assert!(
        matches!(err, WhtError::InvalidSchedule { index: 0, ref msg } if msg.contains("base 0")),
        "got: {err:?}"
    );
    let strided = SuperPass::new(vec![part(1, 1, 2)], 2, 8, 0, 2);
    assert!(matches!(
        CompiledPlan::from_super_passes(4, vec![strided]),
        Err(WhtError::InvalidSchedule { index: 0, .. })
    ));
}

#[test]
fn empty_grids_and_parts_rejected() {
    let no_parts = SuperPass::new(vec![], 4, 4, 0, 1);
    assert!(matches!(
        CompiledPlan::from_super_passes(4, vec![no_parts]),
        Err(WhtError::InvalidSchedule { index: 0, ref msg }) if msg.contains("no parts")
    ));
    let zero_tiles = SuperPass::new(vec![part(1, 1, 16)], 16, 0, 0, 1);
    assert!(matches!(
        CompiledPlan::from_super_passes(4, vec![zero_tiles]),
        Err(WhtError::InvalidSchedule { index: 0, ref msg }) if msg.contains("empty tile grid")
    ));
    let empty_part = wht_core::Pass {
        k: 1,
        r: 0,
        s: 1,
        base: 0,
        stride: 1,
    };
    assert!(matches!(
        CompiledPlan::from_super_passes(4, vec![SuperPass::new(vec![empty_part], 16, 1, 0, 1)]),
        Err(WhtError::InvalidSchedule { index: 0, ref msg }) if msg.contains("empty invocation grid")
    ));
}

#[test]
fn out_of_range_codelet_rejected() {
    let huge_k = wht_core::Pass {
        k: 99,
        r: 1,
        s: 1,
        base: 0,
        stride: 1,
    };
    // k = 99 would shift-overflow a naive span computation; the validator
    // must return the typed error instead of panicking.
    let err = CompiledPlan::from_super_passes(4, vec![SuperPass::new(vec![huge_k], 16, 1, 0, 1)])
        .unwrap_err();
    assert_eq!(err, WhtError::LeafSizeOutOfRange { k: 99 });
    let zero_k = wht_core::Pass {
        k: 0,
        r: 16,
        s: 1,
        base: 0,
        stride: 1,
    };
    assert_eq!(
        CompiledPlan::from_super_passes(4, vec![SuperPass::new(vec![zero_k], 16, 1, 0, 1)])
            .unwrap_err(),
        WhtError::LeafSizeOutOfRange { k: 0 }
    );
}

#[test]
fn absurd_extents_return_typed_errors_not_overflow_panics() {
    // Offsets/strides near usize::MAX must flow through the saturating
    // derivation into validate()'s typed rejection (a plain `+` here
    // would overflow-panic in debug builds before validate runs).
    let huge_base = SuperPass::new(vec![part(1, 1, 2)], 2, 8, usize::MAX, 1);
    assert!(matches!(
        CompiledPlan::from_super_passes(4, vec![huge_base]),
        Err(WhtError::InvalidSchedule { index: 0, .. })
    ));
    let huge_stride = SuperPass::new(vec![part(1, 1, 2)], 2, 8, 1, usize::MAX);
    assert!(matches!(
        CompiledPlan::from_super_passes(4, vec![huge_stride]),
        Err(WhtError::InvalidSchedule { index: 0, .. })
    ));
    let huge_part = wht_core::Pass {
        k: 1,
        r: usize::MAX / 2,
        s: usize::MAX / 2,
        base: usize::MAX,
        stride: usize::MAX,
    };
    assert!(matches!(
        CompiledPlan::from_super_passes(4, vec![SuperPass::new(vec![huge_part], 16, 1, 0, 1)]),
        Err(WhtError::InvalidSchedule { index: 0, .. })
    ));
}

#[test]
fn well_formed_hand_built_relayout_schedule_is_accepted() {
    // The shape relayout() makes for iterative(6) fused at 2^2: a 4-factor
    // head over 4-element tiles, then a relayout unit gathering the
    // 4-pass... here 4-row tail: rows 4 (2^6/2^4... keep it simple):
    // fused head covers factors at strides 1..8 (tile 16), the 2-factor
    // tail is viewed as a 4 x 16 matrix gathered 8 columns at a time.
    let n = 6u32;
    let head = SuperPass::new(
        vec![
            part(1, 1, 16),
            part(1, 2, 16),
            part(1, 4, 16),
            part(1, 8, 16),
        ],
        16,
        4,
        0,
        1,
    );
    // Scratch block of 4 rows x 8 cols = 32 elements; tail factors at
    // scratch strides 8 and 16.
    let tail = SuperPass::new_relayout(
        vec![part(1, 8, 32), part(1, 16, 32)],
        Relayout {
            rows: 4,
            row_stride: 16,
            cols: 8,
        },
    );
    let plan = CompiledPlan::from_super_passes(n, vec![head, tail]).unwrap();
    assert!(plan.validate().is_ok());
    // It computes exactly what the builder pipeline builds.
    let want = CompiledPlan::compile(&Plan::iterative(n).unwrap())
        .fuse(&FusionPolicy::new(16))
        .relayout(&wht_core::RelayoutPolicy {
            min_passes: 2, // the hand-built tail is exactly two factors
            ..wht_core::RelayoutPolicy::eager(32)
        });
    assert_eq!(plan.super_passes(), want.super_passes());
    let mut x: Vec<i64> = (0..64).map(|j| (j * 5 % 17) - 8).collect();
    let mut y = x.clone();
    plan.apply(&mut x).unwrap();
    want.apply(&mut y).unwrap();
    assert_eq!(x, y);
}

#[test]
fn relayout_geometry_violations_rejected() {
    // Matrix view not covering the vector: 4 x 8 = 32 of 64 elements.
    let bad = SuperPass::new_relayout(
        vec![part(1, 4, 16), part(1, 8, 16)],
        Relayout {
            rows: 4,
            row_stride: 8,
            cols: 4,
        },
    );
    let err = CompiledPlan::from_super_passes(6, vec![bad]).unwrap_err();
    assert!(
        matches!(err, WhtError::InvalidSchedule { index: 0, ref msg } if msg.contains("does not cover")),
        "got: {err:?}"
    );
    // Columns that do not partition the row length (6 % 4 != 0).
    let ragged = SuperPass::new_relayout(
        vec![part(1, 4, 16)],
        Relayout {
            rows: 4,
            row_stride: 6,
            cols: 4,
        },
    );
    let err = CompiledPlan::from_super_passes(5, vec![ragged]).unwrap_err();
    assert!(
        matches!(err, WhtError::InvalidSchedule { index: 0, ref msg } if msg.contains("partition")),
        "got: {err:?}"
    );
    // Empty geometry.
    let empty = SuperPass::new_relayout(
        vec![part(1, 1, 2)],
        Relayout {
            rows: 0,
            row_stride: 4,
            cols: 2,
        },
    );
    assert!(matches!(
        CompiledPlan::from_super_passes(4, vec![empty]),
        Err(WhtError::InvalidSchedule { index: 0, ref msg }) if msg.contains("empty")
    ));
    // A part that does not tile the gathered block exactly once.
    let short_part = SuperPass::new_relayout(
        vec![part(1, 1, 4)],
        Relayout {
            rows: 4,
            row_stride: 4,
            cols: 2,
        },
    );
    let err = CompiledPlan::from_super_passes(4, vec![short_part]).unwrap_err();
    assert!(
        matches!(err, WhtError::InvalidSchedule { index: 0, ref msg } if msg.contains("exactly once")),
        "got: {err:?}"
    );
    // Absurd geometry extents return typed errors, not overflow panics.
    let absurd = SuperPass::new_relayout(
        vec![part(1, 1, 2)],
        Relayout {
            rows: usize::MAX,
            row_stride: usize::MAX,
            cols: usize::MAX,
        },
    );
    assert!(matches!(
        CompiledPlan::from_super_passes(4, vec![absurd]),
        Err(WhtError::InvalidSchedule { index: 0, .. })
    ));
}

#[test]
fn bad_second_super_pass_is_reported_by_index() {
    // validate() guards memory safety of the blocking, not WHT factor
    // completeness, so this 3-factor super-pass is a valid first entry;
    // the error must point past it, at index 1.
    let good = SuperPass::new(
        vec![part(1, 1, 16), part(1, 2, 16), part(1, 4, 16)],
        16,
        1,
        0,
        1,
    );
    let bad = SuperPass::new(vec![part(1, 1, 8)], 4, 4, 0, 1);
    let err = CompiledPlan::from_super_passes(4, vec![good, bad]).unwrap_err();
    assert!(
        matches!(err, WhtError::InvalidSchedule { index: 1, .. }),
        "got: {err:?}"
    );
}

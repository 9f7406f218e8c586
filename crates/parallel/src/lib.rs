//! # wht-parallel — parallel execution and parallel experiments
//!
//! Three pieces, mirroring the WHT package's own parallel variants and
//! the scale of the paper's experiments:
//!
//! * [`pool`] — a persistent [`WorkerPool`]: long-lived workers parked
//!   on a condvar, a lazy process-global default sized by the strict
//!   `WHT_THREADS` knob (`wht_core::env::threads`), per-worker scratch
//!   arenas cached across calls (the warm replay path allocates
//!   nothing), NUMA topology detection from sysfs with round-robin
//!   worker→node placement, and [`PoolStats`] introspection (jobs,
//!   steals, placement). A panicking worker surfaces
//!   [`wht_core::WhtError::WorkerPanicked`] instead of deadlocking, and
//!   the pool stays serviceable afterwards.
//! * [`engine`] — the multi-threaded WHT ([`par_apply_plan`] /
//!   [`par_apply_compiled`], plus [`par_apply_batch`] for batches of
//!   adjacent small transforms sharded by lane-aligned row block): every
//!   unit of the plan's compiled schedule distributed over workers
//!   through stable per-worker claim ranges with wrap-around stealing
//!   (the units are pairwise write-disjoint, so the distribution is
//!   race-free and bit-identical to sequential replay). One dispatcher
//!   runs every crew: the global pool, with zero spawn/join per call; a
//!   crew larger than the pool is capped at the pool's size. Explicit
//!   pools go through [`par_apply_compiled_on`] /
//!   [`par_apply_batch_on`].
//! * [`sweep`] — a parallel measurement driver ([`measure_sweep`]) so that
//!   10,000-algorithm experiment batches finish in minutes.
//!
//! ```
//! use wht_core::{naive_wht, Plan};
//! use wht_parallel::{par_apply_plan, Threads};
//!
//! let plan = Plan::balanced(12, 4)?;
//! let mut x: Vec<f64> = (0..4096).map(|v| (v % 17) as f64).collect();
//! let want = naive_wht(&x);
//! par_apply_plan(&plan, &mut x, Threads::default())?;
//! assert_eq!(x, want);
//! # Ok::<(), wht_core::WhtError>(())
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod pool;
pub mod sweep;

pub use engine::{
    par_apply_batch, par_apply_batch_on, par_apply_compiled, par_apply_compiled_on, par_apply_plan,
    Threads,
};
pub use pool::{PoolStats, Topology, WorkerPool};
pub use sweep::measure_sweep;

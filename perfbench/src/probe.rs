//! Per-layer probes of a traced run: each times one public call into one
//! layer, on the workload's own sizes, after the closed loop is done.

use crate::host::median;
use crate::trace;
use crate::workload::{fill, serve, Request, Rng, Workload};
use std::collections::BTreeMap;
use std::time::Instant;
use wht::core::lowering_stages;
use wht::prelude::*;

/// Per-layer metrics by name: (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// How a probe replays a compiled schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `CompiledPlan::apply_in` on one thread with cached scratch.
    OneThread,
    /// `par_apply_compiled` with `Threads::default()`.
    Pool,
}

fn replay(
    compiled: &CompiledPlan,
    x: &mut [f64],
    scratch: &mut [f64],
    path: Path,
) -> Result<(), WhtError> {
    match path {
        Path::OneThread => {
            let _s = trace::span("replay.apply_in");
            compiled.apply_in(x, scratch)
        }
        Path::Pool => {
            let _s = trace::span("parallel.par_apply_compiled");
            par_apply_compiled(compiled, x, Threads::default())
        }
    }
}

/// Calls per timed block: about 0.2 ms of work, but few enough that the
/// values, which grow by at most `2^n` per call, stay finite.
fn calls_per_block(est_ns: f64, n: u32) -> usize {
    let want = (200_000.0 / est_ns.max(1.0)).ceil() as usize;
    want.clamp(1, (1000 / n as usize).max(1))
}

/// One timed call: `call(config, x)`.
type Call<'a> = dyn FnMut(usize, &mut [f64]) -> Result<(), WhtError> + 'a;

/// Median ns per call of each of `configs` calls of `call(config, x)`,
/// timed round-robin over `rounds` rounds so host drift hits every
/// config alike. `x` is refilled from `reset` before every block; one
/// untimed call per config warms it up first.
fn round_robin(
    x: &mut [f64],
    n: u32,
    reset: &Rng,
    configs: usize,
    rounds: usize,
    call: &mut Call,
) -> Result<Vec<f64>, WhtError> {
    let mut block = |c: usize, calls: usize, x: &mut [f64]| -> Result<f64, WhtError> {
        fill(x, &mut reset.clone());
        let t = Instant::now();
        for _ in 0..calls {
            call(c, x)?;
        }
        Ok(t.elapsed().as_nanos() as f64 / calls as f64)
    };
    let mut per_block = Vec::with_capacity(configs);
    for c in 0..configs {
        let est = block(c, 1, x)?;
        per_block.push(calls_per_block(est, n));
    }
    let mut samples = vec![Vec::with_capacity(rounds); configs];
    for _ in 0..rounds {
        for (c, s) in samples.iter_mut().enumerate() {
            s.push(block(c, per_block[c], x)?);
        }
    }
    Ok(samples.iter_mut().map(|s| median(s)).collect())
}

/// Lowering stage `stage`'s span name, and the policy `exec` with only
/// that stage disabled. A stage the benchmark does not know is an error,
/// so a new stage cannot go unmeasured.
fn stage_switch(exec: &ExecPolicy, stage: &str) -> Result<(&'static str, ExecPolicy), WhtError> {
    Ok(match stage {
        "fuse" => (
            "compile.stage.fuse",
            exec.with_fusion(FusionPolicy::disabled()),
        ),
        "relayout" => (
            "compile.stage.relayout",
            exec.with_relayout(RelayoutPolicy::disabled()),
        ),
        "recodelet" => (
            "compile.stage.recodelet",
            exec.with_recodelet(RecodeletPolicy::disabled()),
        ),
        "backend-select" => (
            "compile.stage.backend-select",
            exec.with_simd(SimdPolicy::disabled()),
        ),
        "batch" => (
            "compile.stage.batch",
            exec.with_batch(BatchPolicy::disabled()),
        ),
        "stream" => (
            "compile.stage.stream",
            exec.with_stream(StreamPolicy::disabled()),
        ),
        other => {
            return Err(WhtError::InvalidConfig(format!(
                "lowering stage {other:?} has no switch in the benchmark"
            )))
        }
    })
}

/// `compile.lower_us` and `compile.stage.<stage>_us`: flattening plus
/// each `lowering_stages` rewrite of every size's served plan, summed
/// over sizes, median over `reps`.
pub fn lowering(
    w: Workload,
    planner: &mut Planner<InstructionCost>,
    reps: usize,
) -> Result<Metrics, WhtError> {
    let mut totals: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for _ in 0..reps {
        let mut rep: BTreeMap<String, f64> = BTreeMap::new();
        for n in w.sizes() {
            let exec = planner.resolved_exec(n);
            let plan = planner.plan(n)?.clone();
            let _lower = trace::span("compile.lower");
            let t = Instant::now();
            let mut cur = {
                let _s = trace::span("compile.flatten");
                CompiledPlan::compile(&plan)
            };
            for stage in lowering_stages(&exec) {
                let _s = trace::span(stage_switch(&exec, stage.name())?.0);
                let ts = Instant::now();
                cur = stage.rewrite(&cur);
                *rep.entry(format!("compile.stage.{}_us", stage.name()))
                    .or_default() += ts.elapsed().as_secs_f64() * 1e6;
            }
            *rep.entry("compile.lower_us".into()).or_default() += t.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(&cur);
        }
        for (k, v) in rep {
            totals.entry(k).or_default().push(v);
        }
    }
    Ok(totals
        .into_iter()
        .map(|(k, mut v)| (k, (median(&mut v), "us")))
        .collect())
}

/// Replay of the focus size under every configuration the ratios need,
/// with the host floors the replay is compared against.
pub struct Focus {
    pub n: u32,
    pub metrics: Metrics,
    /// One-thread replay of the served plan, ns.
    pub one_thread_ns: f64,
}

/// Ratio probes at the workload's focus size: served plan against
/// `Plan::iterative`, each stage's marginal effect, one thread against
/// the default crew, the schedule's shape and the paper's models.
pub fn focus(
    w: Workload,
    planner: &mut Planner<InstructionCost>,
    x: &mut [f64],
    reset: &Rng,
    rounds: usize,
) -> Result<Focus, WhtError> {
    let n = w.focus();
    let size = 1usize << n;
    let x = &mut x[..size];
    let exec = planner.resolved_exec(n);
    let plan = planner.plan(n)?.clone();
    let (path, other) = if w.pooled() {
        (Path::Pool, Path::OneThread)
    } else {
        (Path::OneThread, Path::Pool)
    };

    let stages: Vec<&'static str> = lowering_stages(&exec).iter().map(|s| s.name()).collect();
    // Config 0: served; 1: iterative; 2: served on the other path; then
    // one per stage with that stage disabled.
    let mut schedules = vec![
        (CompiledPlan::compile_exec(&plan, &exec), path),
        (
            CompiledPlan::compile_exec(&Plan::iterative(n)?, &exec),
            path,
        ),
        (CompiledPlan::compile_exec(&plan, &exec), other),
    ];
    for s in &stages {
        schedules.push((
            CompiledPlan::compile_exec(&plan, &stage_switch(&exec, s)?.1),
            path,
        ));
    }
    let mut scratch = vec![
        0.0f64;
        schedules
            .iter()
            .map(|(c, _)| c.scratch_elems())
            .max()
            .unwrap_or(0)
    ];
    let ns = round_robin(x, n, reset, schedules.len(), rounds, &mut |c, x| {
        replay(&schedules[c].0, x, &mut scratch, schedules[c].1)
    })?;

    let served = &schedules[0].0;
    let (one_thread_ns, pool_ns) = if w.pooled() {
        (ns[2], ns[0])
    } else {
        (ns[0], ns[2])
    };
    let mut m = Metrics::new();
    m.insert("search.served_replay_us".into(), (ns[0] / 1e3, "us"));
    m.insert("search.iterative_replay_us".into(), (ns[1] / 1e3, "us"));
    m.insert("search.plan_vs_iterative".into(), (ns[0] / ns[1], "ratio"));
    m.insert("parallel.one_thread_us".into(), (one_thread_ns / 1e3, "us"));
    m.insert("parallel.threads_default_us".into(), (pool_ns / 1e3, "us"));
    m.insert(
        "parallel.speedup".into(),
        (one_thread_ns / pool_ns, "ratio"),
    );
    for (i, s) in stages.iter().enumerate() {
        m.insert(
            format!("compile.marginal.{s}"),
            (ns[3 + i] / ns[0], "ratio"),
        );
    }
    let units = served.super_passes();
    m.insert("compile.super_passes".into(), (units.len() as f64, "count"));
    m.insert(
        "compile.relayout_units".into(),
        (
            units.iter().filter(|u| u.is_relayout()).count() as f64,
            "count",
        ),
    );
    m.insert(
        "compile.streamed".into(),
        (
            units.iter().filter(|u| u.provenance().streamed).count() as f64,
            "count",
        ),
    );
    // Computed, not measured: every unit sweeps the vector once, reading
    // and writing each f64 element (a relayout unit through its gather
    // and scatter).
    let bytes = (units.len() * size * 16) as f64;
    m.insert(
        "replay.computed_mib".into(),
        (bytes / f64::from(1u32 << 20), "MiB"),
    );
    m.insert(
        "models.instructions".into(),
        (
            instruction_count(&plan, &CostModel::default()) as f64,
            "count",
        ),
    );
    m.insert(
        "models.misses".into(),
        (
            analytic_misses(&plan, ModelCache::opteron_l1_elems()) as f64,
            "count",
        ),
    );
    Ok(Focus {
        n,
        metrics: m,
        one_thread_ns,
    })
}

/// One-thread `apply_in` replay of every size's served plan, ns; the
/// focus size reuses the focus probe's measurement.
pub fn per_size_replay(
    w: Workload,
    planner: &mut Planner<InstructionCost>,
    x: &mut [f64],
    reset: &Rng,
    focus: &Focus,
) -> Result<Vec<(u32, f64)>, WhtError> {
    let mut out = Vec::new();
    for n in w.sizes() {
        if n == focus.n {
            out.push((n, focus.one_thread_ns));
            continue;
        }
        let exec = planner.resolved_exec(n);
        let compiled = CompiledPlan::compile_exec(planner.plan(n)?, &exec);
        let mut scratch = vec![0.0f64; compiled.scratch_elems()];
        let ns = round_robin(&mut x[..1 << n], n, reset, 1, 7, &mut |_, x| {
            replay(&compiled, x, &mut scratch, Path::OneThread)
        })?;
        out.push((n, ns[0]));
    }
    Ok(out)
}

/// `replay.apply_us`, `replay.apply_batch_us` (one thread, cached
/// scratch) and `planner.overhead_ns` over requests drawn from the
/// workload's own mix.
pub fn replay_layer(
    w: Workload,
    planner: &mut Planner<InstructionCost>,
    x: &mut [f64],
    rng: &mut Rng,
    rounds: usize,
) -> Result<Metrics, WhtError> {
    let requests: Vec<Request> = if w.pooled() {
        w.sizes()
            .into_iter()
            .map(|n| Request { n, rows: 1 })
            .collect()
    } else {
        (0..48).map(|_| w.next_request(rng)).collect()
    };
    let mut compiled: BTreeMap<u32, CompiledPlan> = BTreeMap::new();
    for r in &requests {
        if let std::collections::btree_map::Entry::Vacant(slot) = compiled.entry(r.n) {
            let exec = planner.resolved_exec(r.n);
            slot.insert(CompiledPlan::compile_exec(planner.plan(r.n)?, &exec));
        }
    }
    let scratch_elems = compiled
        .values()
        .map(|c| c.batch_scratch_elems(<f64 as Scalar>::LANES))
        .max()
        .unwrap_or(0);
    let mut scratch = vec![0.0f64; scratch_elems];
    let (mut apply, mut batch, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for req in &requests {
        let c = &compiled[&req.n];
        let reset = Rng::new(rng.next_u64(), 0);
        let size = 1usize << req.n;
        let x = &mut x[..req.elems()];
        // Config 0: apply_in row by row; 1: apply_batch_in; 2: the
        // planner's entry call (small requests only — pooled entry cost
        // is timed directly below).
        let configs = if w.pooled() { 2 } else { 3 };
        let ns = round_robin(x, req.n, &reset, configs, rounds, &mut |k, x| match k {
            0 => x
                .chunks_exact_mut(size)
                .try_for_each(|row| replay(c, row, &mut scratch, Path::OneThread)),
            1 => {
                let _s = trace::span("replay.apply_batch_in");
                c.apply_batch_in(x, req.rows, &mut scratch)
            }
            _ => serve(planner, x, req, false),
        })?;
        apply.push(ns[0]);
        batch.push(ns[1]);
        overhead.push(if w.pooled() {
            entry_overhead_ns(planner, req.n)?
        } else {
            ns[2] - if req.rows == 1 { ns[0] } else { ns[1] }
        });
    }
    let mut m = Metrics::new();
    m.insert("replay.apply_us".into(), (median(&mut apply) / 1e3, "us"));
    m.insert(
        "replay.apply_batch_us".into(),
        (median(&mut batch) / 1e3, "us"),
    );
    m.insert("planner.overhead_ns".into(), (median(&mut overhead), "ns"));
    Ok(m)
}

/// What a pooled request spends before the replay: the warm
/// `Planner::plan`, `resolved_exec` and the `compiled_for_exec` lookup,
/// median ns over blocks of calls.
fn entry_overhead_ns(planner: &mut Planner<InstructionCost>, n: u32) -> Result<f64, WhtError> {
    const CALLS: usize = 256;
    let mut samples = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        for _ in 0..CALLS {
            planner.plan(n)?;
            let exec = planner.resolved_exec(n);
            std::hint::black_box(compiled_for_exec(planner.plan(n)?, &exec));
        }
        samples.push(t.elapsed().as_nanos() as f64 / CALLS as f64);
    }
    Ok(median(&mut samples))
}

/// `parallel.dispatch_us`: an empty `WorkerPool::global().run`, median
/// over `calls`.
pub fn dispatch_us(calls: usize) -> Result<f64, WhtError> {
    let pool = WorkerPool::global();
    let mut samples = Vec::with_capacity(calls);
    for _ in 0..calls {
        let _s = trace::span("pool.run");
        let t = Instant::now();
        pool.run(&|_, _| {})?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&mut samples))
}

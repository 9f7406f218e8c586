//! End-to-end benchmark of the WHT library as a caller uses it: a fresh
//! `Planner::new(InstructionCost::default())` serving a seeded closed
//! loop of requests (one caller, next request after the previous reply).
//!
//! ```text
//! perfbench --workload <serve_small|resident_par|bulk_oocache>
//!           --seed <u64> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! carrying the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics instead, from spans and probes around each public
//! call into a layer, and the spans are written to `--out-dir` at exit.
//! Lines before it are for people: the host stamp, per-size plans, the
//! paper's instruction/miss terms beside measured replay, span self
//! times.

mod host;
mod probe;
mod trace;
mod workload;

use probe::Metrics;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wht::prelude::*;
use workload::{fill, serve, Check, Request, Rng, Workload};

/// Independent draws from one seed.
const STREAM_REQUESTS: u64 = 1;
const STREAM_INPUTS: u64 = 2;
const STREAM_SETUP: u64 = 3;
const STREAM_PROBES: u64 = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--out-dir" => {
                kv.insert(flag, value);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: Workload::parse(name).ok_or(format!("unknown workload {name}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        out_dir: kv.get("--out-dir").map(PathBuf::from),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// One cold set-up: a new planner plans, compiles and first-replays
/// every size. Run on a thread that has compiled nothing yet, so the
/// per-thread schedule cache is cold too. Returns the planner, the seconds
/// it took and the seconds spent in `Planner::plan`.
fn setup(w: Workload, buf: &mut [f64]) -> Result<(Planner<InstructionCost>, f64, f64), WhtError> {
    let mut planner = Planner::new(InstructionCost::default());
    let mut plan_s = 0.0;
    let _s = trace::span("setup");
    let t = Instant::now();
    for n in w.sizes() {
        let tp = Instant::now();
        {
            let _p = trace::span("planner.plan");
            planner.plan(n)?;
        }
        plan_s += tp.elapsed().as_secs_f64();
        serve(
            &mut planner,
            &mut buf[..1 << n],
            &Request { n, rows: 1 },
            w.pooled(),
        )?;
    }
    Ok((planner, t.elapsed().as_secs_f64(), plan_s))
}

/// One served request: its latency in ns and whether it was traced.
struct Sample {
    req: Request,
    ns: f64,
    traced: bool,
}

/// Closed-loop results.
struct Served {
    samples: Vec<Sample>,
    failed: u64,
    jobs: u64,
    steals: u64,
}

/// One caller issuing the seeded request mix back to back for `seconds`.
/// Inputs are generated and responses checked outside the timed call.
/// With `trace`, every other request is traced.
fn closed_loop(
    w: Workload,
    planner: &mut Planner<InstructionCost>,
    buf: &mut [f64],
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Served {
    let mut requests = Rng::new(seed, STREAM_REQUESTS);
    let mut inputs = Rng::new(seed, STREAM_INPUTS);
    let pool = WorkerPool::global().stats();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Served {
        samples: Vec::new(),
        failed: 0,
        jobs: 0,
        steals: 0,
    };
    let mut check = Check::default();
    let mut id = 0u64;
    loop {
        id += 1;
        let req = w.next_request(&mut requests);
        let x = &mut buf[..req.elems()];
        fill(x, &mut inputs);
        check.prepare(x, &req, &mut inputs);
        let traced = trace && id.is_multiple_of(2);
        trace::set_enabled(traced);
        trace::set_request(id);
        let t = Instant::now();
        let result = {
            let _s = trace::span("request");
            serve(planner, x, &req, w.pooled())
        };
        let ns = t.elapsed().as_nanos() as f64;
        trace::set_enabled(false);
        trace::set_request(0);
        if result.is_err() || !check.holds(x) {
            out.failed += 1;
        }
        out.samples.push(Sample { req, ns, traced });
        // A traced run needs a traced and an untraced request.
        if Instant::now() >= deadline && (!trace || id >= 2) {
            break;
        }
    }
    let after = WorkerPool::global().stats();
    out.jobs = after.jobs - pool.jobs;
    out.steals = after.steals - pool.steals;
    out
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let w = args.workload;
    let mut buf = vec![0.0f64; w.max_elems()];
    let mut setup_inputs = Rng::new(args.seed, STREAM_SETUP);

    trace::set_enabled(args.trace);
    let reps = w.setup_reps();
    let mut setup_s = Vec::with_capacity(reps);
    let mut plan_us = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps {
        fill(&mut buf, &mut setup_inputs);
        let (planner, secs, plan_s) = if rep + 1 < reps {
            std::thread::scope(|s| {
                s.spawn(|| setup(w, &mut buf).map(|(_, secs, p)| (None, secs, p)))
                    .join()
                    .expect("set-up thread panicked")
            })?
        } else {
            let (planner, secs, p) = setup(w, &mut buf)?;
            (Some(planner), secs, p)
        };
        setup_s.push(secs);
        plan_us.push(plan_s * 1e6);
        kept = planner;
    }
    trace::set_enabled(false);
    let mut planner = kept.expect("the last set-up keeps its planner");

    let cpu_before = host::cpu_jiffies();
    let served = closed_loop(
        w,
        &mut planner,
        &mut buf,
        args.seed,
        args.seconds,
        args.trace,
    );
    let steal_pct = match (cpu_before, host::cpu_jiffies()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    stamp(args, &mut planner, steal_pct)?;

    let metrics = if args.trace {
        let mut m = Metrics::new();
        m.insert("search.plan_us".into(), (host::median(&mut plan_us), "us"));
        m.insert(
            "search.evaluations".into(),
            (planner.evaluations() as f64, "count"),
        );
        m.extend(per_layer(args, &mut planner, buf, &served)?);
        m
    } else {
        end_to_end(&served, &mut setup_s)?
    };
    for (k, (v, unit)) in &metrics {
        println!("# {k} = {v} {unit}");
    }
    let attempted = served.samples.len() as u64;
    println!(
        "{}",
        result_json(served.failed == 0, attempted, served.failed, &metrics)
    );
    Ok(())
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(served: &Served, setup_s: &mut [f64]) -> Result<Metrics, Box<dyn std::error::Error>> {
    // Throughput at each request class's median latency: a burst of host
    // interference moves the tail (reported as p99), not this figure.
    let mut classes: BTreeMap<(u32, usize), Vec<f64>> = BTreeMap::new();
    for s in &served.samples {
        classes.entry((s.req.n, s.req.rows)).or_default().push(s.ns);
    }
    println!("# latency by class (n, rows): count, p50 us, p90 us");
    let mut class_p50 = BTreeMap::new();
    for (class, mut v) in classes {
        let (p50, p90) = (
            host::percentile(&mut v, 50.0),
            host::percentile(&mut v, 90.0),
        );
        println!(
            "#   {class:?}: {}, {:.3}, {:.3}",
            v.len(),
            p50 / 1e3,
            p90 / 1e3
        );
        class_p50.insert(class, p50);
    }
    let typical_ns: f64 = served
        .samples
        .iter()
        .map(|s| class_p50[&(s.req.n, s.req.rows)])
        .sum();
    let timed_ns: f64 = served.samples.iter().map(|s| s.ns).sum();
    let elems = served.samples.iter().map(|s| s.req.elems()).sum::<usize>() as f64;
    println!(
        "# elements per timed second: {:.3} Melem/s at class medians (reported), {:.3} Melem/s over all timed calls",
        elems / typical_ns * 1e3,
        elems / timed_ns * 1e3
    );

    let attempted = served.samples.len();
    let error_rate = served.failed as f64 / attempted as f64;
    println!(
        "# {attempted} requests, {} failed: error_rate {error_rate} (success_rate reports 1 - error_rate); setup_s samples {setup_s:?}",
        served.failed
    );
    let mut lat: Vec<f64> = served.samples.iter().map(|s| s.ns / 1e3).collect();
    let mut m = Metrics::new();
    m.insert(
        "throughput_melem_s".into(),
        (elems / typical_ns * 1e3, "Melem/s"),
    );
    m.insert(
        "latency_p50_us".into(),
        (host::percentile(&mut lat, 50.0), "us"),
    );
    m.insert(
        "latency_p99_us".into(),
        (host::percentile(&mut lat, 99.0), "us"),
    );
    m.insert("setup_s".into(), (host::median(setup_s), "s"));
    m.insert(
        "peak_rss_mib".into(),
        (
            host::peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?,
            "MiB",
        ),
    );
    m.insert("success_rate".into(), (1.0 - error_rate, "ratio"));
    Ok(m)
}

/// The per-layer metrics of a traced run: probes of each layer after
/// the closed loop, the floors, pool counters and tracing overhead from
/// the loop, the paper's model terms, and the span file.
fn per_layer(
    args: &Args,
    planner: &mut Planner<InstructionCost>,
    mut buf: Vec<f64>,
    served: &Served,
) -> Result<Metrics, Box<dyn std::error::Error>> {
    let w = args.workload;
    let bulk = w == Workload::BulkOocache;
    let mut m = Metrics::new();
    trace::set_enabled(true);
    let mut probes = Rng::new(args.seed, STREAM_PROBES);
    m.extend(probe::lowering(w, planner, if bulk { 3 } else { 7 })?);
    let reset = Rng::new(probes.next_u64(), 0);
    let focus = probe::focus(w, planner, &mut buf, &reset, if bulk { 3 } else { 9 })?;
    let rounds = if bulk { 2 } else { 5 };
    m.extend(probe::replay_layer(
        w,
        planner,
        &mut buf,
        &mut probes,
        rounds,
    )?);
    let per_size = probe::per_size_replay(w, planner, &mut buf, &reset, &focus)?;
    m.insert(
        "parallel.dispatch_us".into(),
        (probe::dispatch_us(2000)?, "us"),
    );
    trace::set_enabled(false);
    // The floors' arrays are larger than the workload's; free its buffer
    // first.
    drop(buf);

    let (l3, _) = host::l3_bytes().ok_or("no level-3 cache in sysfs")?;
    let copy_bytes = (4 * l3).next_multiple_of(1 << 20);
    let copy = host::copy_gbs(copy_bytes, 5);
    let add = host::simd_add_gops(9);
    println!(
        "# floors: copy {copy:.2} GB/s (read+write, one thread, 2 arrays of {copy_bytes} B = 4x L3 of {l3} B); simd add {add:.3} Gop/s (one thread, 2x8 KiB L1-resident)"
    );
    m.insert("floor.copy_gbs".into(), (copy, "GB/s"));
    m.insert("floor.simd_add_gops".into(), (add, "Gop/s"));
    let n = focus.n;
    let ops = f64::from(n) * (1u64 << n) as f64;
    let bytes = focus.metrics["replay.computed_mib"].0 * f64::from(1u32 << 20);
    m.insert(
        "replay.add_floor_frac".into(),
        (ops / focus.one_thread_ns / add, "ratio"),
    );
    m.insert(
        "replay.copy_floor_frac".into(),
        (bytes / focus.one_thread_ns / copy, "ratio"),
    );
    m.extend(focus.metrics.clone());

    let requests = served.samples.len() as f64;
    m.insert(
        "parallel.jobs".into(),
        (served.jobs as f64 / requests, "count/req"),
    );
    m.insert(
        "parallel.steals".into(),
        (served.steals as f64 / requests, "count/req"),
    );
    let p50 = |traced: bool| {
        let mut v: Vec<f64> = served
            .samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.ns)
            .collect();
        host::median(&mut v)
    };
    let (on, off) = (p50(true), p50(false));
    println!(
        "# tracing overhead: traced p50 {:.3} us vs untraced {:.3} us",
        on / 1e3,
        off / 1e3
    );
    m.insert("trace.overhead_frac".into(), (on / off - 1.0, "ratio"));

    print_models(planner, &per_size, &focus)?;
    let spans = trace::spans();
    println!("# span self times (name: count, total ms, self ms):");
    for (name, (count, total, own)) in trace::layer_times(&spans) {
        println!(
            "#   {name}: {count}, {:.3}, {:.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
        trace::write_jsonl(&path, &spans)?;
        println!("# spans: {} written to {}", spans.len(), path.display());
    }
    Ok(m)
}

/// The stamp every result carries: seed, host, crew, the hypervisor's
/// steal share of CPU time during the closed loop, `WHT_*` knobs, and per
/// size the served plan and the policy it replays under.
fn stamp(
    args: &Args,
    planner: &mut Planner<InstructionCost>,
    steal_pct: f64,
) -> Result<(), WhtError> {
    let (l3, l3_src) = host::l3_bytes().unwrap_or((0, "unavailable".into()));
    let env: Vec<String> = host::wht_env()
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", esc(k), esc(v)))
        .collect();
    let mut sizes = Vec::new();
    for n in args.workload.sizes() {
        let plan = planner.plan(n)?.to_string();
        let exec = format!("{:?}", planner.resolved_exec(n));
        sizes.push(format!(
            "{{\"n\":{n},\"plan\":\"{}\",\"resolved_exec\":\"{}\"}}",
            esc(&plan),
            esc(&exec)
        ));
    }
    println!(
        "# stamp {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"l3_bytes\":{l3},\"l3_source\":\"{}\",\"crew\":{},\"pool_workers\":{},\"steal_pct_during_loop\":{},\"wht_env\":{{{}}},\"sizes\":[{}]}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        esc(&l3_src),
        Threads::default().0,
        WorkerPool::global().workers(),
        json_num(steal_pct),
        env.join(","),
        sizes.join(",")
    );
    Ok(())
}

/// The paper's decomposition, term by term, beside measured replay.
fn print_models(
    planner: &mut Planner<InstructionCost>,
    per_size: &[(u32, f64)],
    focus: &probe::Focus,
) -> Result<(), WhtError> {
    println!(
        "# model terms per served plan (instructions: CostModel::default; misses: direct-mapped 2^13-element cache) vs one-thread replay:"
    );
    for &(n, ns) in per_size {
        let plan = planner.plan(n)?.clone();
        let instr = instruction_count(&plan, &CostModel::default());
        let misses = analytic_misses(&plan, ModelCache::opteron_l1_elems());
        let tag = if n == focus.n { " (focus)" } else { "" };
        println!(
            "#   n={n:2}{tag}: instructions {instr}, misses {misses}, replay {:.3} us, {:.4} ns/instruction, plan {plan}",
            ns / 1e3,
            ns / instr as f64
        );
    }
    Ok(())
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, unit))| format!("\"{k}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_num(*v)))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// JSON has no NaN or infinity; a probe that produced one reports null.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

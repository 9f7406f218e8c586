//! Workloads, seeded inputs, the served call path and its correctness
//! checks.

use crate::trace;
use wht::prelude::*;

/// The three request mixes (the `why` of each is recorded in
/// `BENCHMARK.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small transforms and batches through `Planner::transform` /
    /// `transform_batch`; the pool, relayout and streaming are bypassed.
    ServeSmall,
    /// L3-resident single transforms through the pool.
    ResidentPar,
    /// Single transforms 4.9x the L3 through the pool.
    BulkOocache,
}

/// Largest request of `serve_small`, in elements.
const SERVE_CAP: usize = 1 << 16;

/// Sizes up to this exponent are checked against a full reference
/// transform; larger ones by sampled coefficients.
const EXACT_CHECK_MAX_N: u32 = 12;

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve_small" => Some(Workload::ServeSmall),
            "resident_par" => Some(Workload::ResidentPar),
            "bulk_oocache" => Some(Workload::BulkOocache),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmall => "serve_small",
            Workload::ResidentPar => "resident_par",
            Workload::BulkOocache => "bulk_oocache",
        }
    }

    /// Transform sizes (exponents) the workload serves, ascending.
    pub fn sizes(self) -> Vec<u32> {
        match self {
            Workload::ServeSmall => (4..=12).collect(),
            Workload::ResidentPar => vec![16, 18, 20],
            Workload::BulkOocache => vec![26],
        }
    }

    /// Whether requests run through the worker pool
    /// (`par_apply_compiled`) rather than the planner's entry calls.
    pub fn pooled(self) -> bool {
        self != Workload::ServeSmall
    }

    /// The size the per-layer ratio probes run at.
    pub fn focus(self) -> u32 {
        match self {
            Workload::ServeSmall => 12,
            Workload::ResidentPar => 16,
            Workload::BulkOocache => 26,
        }
    }

    /// Cold set-ups per run; `setup_s` is their median.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::ServeSmall | Workload::ResidentPar => 31,
            Workload::BulkOocache => 5,
        }
    }

    /// Elements of the largest request.
    pub fn max_elems(self) -> usize {
        match self {
            Workload::ServeSmall => SERVE_CAP,
            _ => 1 << self.sizes().last().copied().unwrap_or(1),
        }
    }

    /// The next request of the mix.
    pub fn next_request(self, rng: &mut Rng) -> Request {
        match self {
            Workload::ServeSmall => {
                let n = 4 + rng.below(9) as u32;
                loop {
                    let rows = [1, 4, 16, 64][rng.below(4)];
                    if rows << n <= SERVE_CAP {
                        return Request { n, rows };
                    }
                }
            }
            Workload::ResidentPar => Request {
                n: [16, 18, 20][rng.below(3)],
                rows: 1,
            },
            Workload::BulkOocache => Request { n: 26, rows: 1 },
        }
    }
}

/// One request: `rows` adjacent transforms of `2^n` elements each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub n: u32,
    pub rows: usize,
}

impl Request {
    pub fn elems(&self) -> usize {
        self.rows << self.n
    }
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of seed `seed`, so the request mix, the inputs
    /// and the probes draw independent sequences from one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..k` (`k` small, so the modulo bias is negligible).
    pub fn below(&mut self, k: usize) -> usize {
        (self.next_u64() % k as u64) as usize
    }
}

/// Fill `x` with integers in `[-8, 7]`. Every sum the checks form stays
/// exact in f64 (or is accumulated in i64), so a correct transform is
/// checked bit for bit.
pub fn fill(x: &mut [f64], rng: &mut Rng) {
    for chunk in x.chunks_mut(16) {
        let mut bits = rng.next_u64();
        for v in chunk {
            *v = (bits & 15) as f64 - 8.0;
            bits >>= 4;
        }
    }
}

/// Serve one request in place, as a caller of the public entry points
/// does. Small requests go through `transform` (one row) or
/// `transform_batch`; pooled ones through `compiled_for_exec(plan,
/// resolved_exec)` and `par_apply_compiled` with the default crew.
pub fn serve(
    planner: &mut Planner<InstructionCost>,
    x: &mut [f64],
    req: &Request,
    pooled: bool,
) -> Result<(), WhtError> {
    if pooled {
        let exec = {
            let _s = trace::span("planner.plan");
            planner.plan(req.n)?;
            planner.resolved_exec(req.n)
        };
        let compiled = {
            let _s = trace::span("compile.compiled_for_exec");
            compiled_for_exec(planner.plan(req.n)?, &exec)
        };
        let _s = trace::span("parallel.par_apply_compiled");
        par_apply_compiled(&compiled, x, Threads::default())
    } else if req.rows == 1 {
        let _s = trace::span("planner.transform");
        planner.transform(x)
    } else {
        let _s = trace::span("planner.transform_batch");
        planner.transform_batch(x, req.rows)
    }
}

/// What a response must satisfy, prepared from the input before the
/// timed call. One checker serves every request and reuses its buffer.
#[derive(Default)]
pub struct Check {
    /// The full expected output of a small request, from the benchmark's
    /// own radix-2 transform; empty when the check is sampled.
    exact: Vec<f64>,
    /// `(k, v)`: `y[k]` equals `v`, the direct ±1 sum of the input.
    forward: [(usize, i64); 2],
    /// `(j, v)`: the ±1 sum of the output at row `j` equals `v = N·x[j]`
    /// (the involution `WHT(WHT(x)) = N·x`, which reads every output
    /// element).
    inverse: [(usize, i64); 2],
}

impl Check {
    pub fn prepare(&mut self, x: &[f64], req: &Request, rng: &mut Rng) {
        self.exact.clear();
        if req.n <= EXACT_CHECK_MAX_N {
            self.exact.extend_from_slice(x);
            for row in self.exact.chunks_exact_mut(1 << req.n) {
                reference_wht(row);
            }
            return;
        }
        let len = x.len();
        let k = rng.below(len);
        self.forward = [(0, walsh_sum(x, 0)), (k, walsh_sum(x, k))];
        self.inverse = [0, 1].map(|_| {
            let j = rng.below(len);
            (j, x[j] as i64 * len as i64)
        });
    }

    pub fn holds(&self, y: &[f64]) -> bool {
        if !self.exact.is_empty() {
            return y == self.exact.as_slice();
        }
        self.forward.iter().all(|&(k, v)| y[k] == v as f64)
            && self.inverse.iter().all(|&(j, v)| walsh_sum(y, j) == v)
    }
}

/// In-place radix-2 WHT in natural (Hadamard) order, independent of the
/// library.
pub fn reference_wht(x: &mut [f64]) {
    let len = x.len();
    let mut h = 1;
    while h < len {
        for block in x.chunks_exact_mut(2 * h) {
            let (lo, hi) = block.split_at_mut(h);
            for (a, b) in lo.iter_mut().zip(hi) {
                let (u, v) = (*a, *b);
                *a = u + v;
                *b = u - v;
            }
        }
        h *= 2;
    }
}

/// Elements summed in f64 before the running total moves to i64: with
/// outputs bounded by 2^29 (inputs in [-8, 7], at most 2^26 elements) a
/// block sum stays below 2^40, exact in f64.
const SUM_BLOCK: usize = 1024;

/// `Σ_j (-1)^popcount(j & k) · v[j]` over integer-valued `v`, exact.
/// The sign splits into a low part, one table per call, and a high part,
/// one sign per block.
pub fn walsh_sum(v: &[f64], k: usize) -> i64 {
    let block = v.len().min(SUM_BLOCK);
    let table: Vec<f64> = (0..block)
        .map(|j| {
            if (j & k).count_ones().is_multiple_of(2) {
                1.0
            } else {
                -1.0
            }
        })
        .collect();
    let mut total: i64 = 0;
    for (b, chunk) in v.chunks_exact(block).enumerate() {
        let mut acc = [0.0f64; 8];
        for (xs, ts) in chunk.chunks_exact(8).zip(table.chunks_exact(8)) {
            for l in 0..8 {
                acc[l] += xs[l] * ts[l];
            }
        }
        let tail: f64 = chunk
            .chunks_exact(8)
            .remainder()
            .iter()
            .zip(table.chunks_exact(8).remainder())
            .map(|(x, t)| x * t)
            .sum();
        let s = (acc.iter().sum::<f64>() + tail) as i64;
        if ((b * block) & k).count_ones().is_multiple_of(2) {
            total = total.wrapping_add(s);
        } else {
            total = total.wrapping_sub(s);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_and_sums_agree_with_the_library() {
        let mut rng = Rng::new(7, 0);
        for n in [1u32, 3, 5, 11] {
            let mut x = vec![0.0; 1 << n];
            fill(&mut x, &mut rng);
            let want = naive_wht(&x);
            let mut y = x.clone();
            reference_wht(&mut y);
            assert_eq!(y, want);
            for k in [0, 1, (1 << n) - 1] {
                assert_eq!(walsh_sum(&x, k) as f64, want[k]);
            }
            let j = (1 << n) / 3;
            assert_eq!(walsh_sum(&y, j), x[j] as i64 * (1 << n));
        }
    }

    #[test]
    fn sampled_check_catches_a_wrong_output() {
        let mut rng = Rng::new(3, 1);
        let req = Request { n: 16, rows: 1 };
        let mut x = vec![0.0; req.elems()];
        fill(&mut x, &mut rng);
        let mut check = Check::default();
        check.prepare(&x, &req, &mut rng);
        let mut y = x.clone();
        reference_wht(&mut y);
        assert!(check.holds(&y));
        y[12345] += 1.0;
        assert!(!check.holds(&y));
    }

    #[test]
    fn serve_small_respects_the_cap() {
        let mut rng = Rng::new(11, 2);
        for _ in 0..1000 {
            let r = Workload::ServeSmall.next_request(&mut rng);
            assert!((4..=12).contains(&r.n) && r.elems() <= SERVE_CAP);
        }
    }
}

//! Host facts the results are stamped with, and the floors measured in
//! the same process: copy bandwidth out of the last-level cache and the
//! SIMD add rate on L1-resident data.

use std::time::Instant;

/// Last-level (L3) cache size in bytes as sysfs reports it for cpu0,
/// with the path it came from; `None` when sysfs has no level-3 entry.
pub fn l3_bytes() -> Option<(usize, String)> {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(level) = std::fs::read_to_string(format!("{dir}/level")) else {
            continue;
        };
        if level.trim() != "3" {
            continue;
        }
        let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
        return parse_size(size.trim()).map(|b| (b, format!("{dir}/size")));
    }
    None
}

/// `"107520K"` → bytes; sysfs uses a `K`, `M` or `G` suffix or none.
fn parse_size(s: &str) -> Option<usize> {
    let (digits, unit) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(unit)
}

/// Every `WHT_*` variable set in the environment, sorted by name.
pub fn wht_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("WHT_"))
        .collect();
    vars.sort();
    vars
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host CPU time so far as `(all, steal)` jiffies from `/proc/stat`;
/// steal is time the hypervisor ran something else on this guest's CPUs.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().take(8).sum(), *fields.get(7)?))
}

pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Linear-interpolated percentile `p` in `[0, 100]` (the method of
/// numpy's default), over unsorted samples.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Single-threaded copy bandwidth in GB/s (bytes read plus bytes
/// written), median of `reps` copies between two arrays of
/// `array_bytes` each.
pub fn copy_gbs(array_bytes: usize, reps: usize) -> f64 {
    let elems = array_bytes / 8;
    let src: Vec<f64> = (0..elems).map(|i| (i % 251) as f64).collect();
    let mut dst = vec![0.0f64; elems];
    let mut rates: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            let secs = t.elapsed().as_secs_f64();
            std::hint::black_box(&dst);
            (2 * elems * 8) as f64 / secs / 1e9
        })
        .collect();
    median(&mut rates)
}

/// Elements per array of the L1-resident add kernel (two arrays,
/// 16 KiB together).
const ADD_ELEMS: usize = 1024;

/// Sweeps over the arrays per timed block.
const ADD_SWEEPS: usize = 4096;

/// SIMD add rate in Gop/s on L1-resident data: `a[i] += b[i]` over two
/// 8 KiB arrays, at the vector width the library's own lane kernels
/// select (AVX2 where the host has it), median of `reps` blocks.
pub fn simd_add_gops(reps: usize) -> f64 {
    let mut a = vec![1.0f64; ADD_ELEMS];
    let b = vec![0.5f64; ADD_ELEMS];
    let mut rates: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..ADD_SWEEPS {
                add_sweep(std::hint::black_box(&mut a), std::hint::black_box(&b));
            }
            let secs = t.elapsed().as_secs_f64();
            (ADD_ELEMS * ADD_SWEEPS) as f64 / secs / 1e9
        })
        .collect();
    std::hint::black_box(&a);
    median(&mut rates)
}

fn add_sweep(a: &mut [f64], b: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the host supports AVX2 (checked just above), the
            // only requirement of calling a function compiled with it.
            unsafe { add_sweep_avx2(a, b) };
            return;
        }
    }
    add_sweep_portable(a, b);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn add_sweep_avx2(a: &mut [f64], b: &[f64]) {
    add_sweep_portable(a, b);
}

#[inline(always)]
fn add_sweep_portable(a: &mut [f64], b: &[f64]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x += *y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("107520K"), Some(107_520 << 10));
        assert_eq!(parse_size("32M"), Some(32 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("K"), None);
    }

    #[test]
    fn percentiles_interpolate() {
        let mut v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 3.0);
        assert_eq!(percentile(&mut v, 100.0), 5.0);
        assert!((percentile(&mut v, 99.0) - 4.96).abs() < 1e-12);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

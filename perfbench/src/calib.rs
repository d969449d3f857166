//! Host-speed calibration.
//!
//! The reference box is a VM shared with other tenants: over a few minutes
//! the same work can take 25% longer, for every workload at once (ten-run
//! spreads of 0.26 with unchanged code). Each sample therefore times a fixed
//! computation of the benchmark's own, before and after its measured part,
//! and the time metrics are reported in reference-box seconds: raw time ×
//! `host_speed`, where `host_speed` is [`REFERENCE_S`] over the
//! calibration's time. The kernel is not program code, so a change to the
//! program cannot move it; raw values stay in each sample's output.

use std::time::Instant;

/// Wall seconds of [`kernel_s`] on the reference box when it is quiet.
pub const REFERENCE_S: f64 = 0.060;

/// Fill 16 MB with xorshift values and sort them: memory traffic and
/// branchy compute, like the pipeline's own mix. Returns its wall seconds.
pub fn kernel_s() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut v: Vec<u64> = (0..1u32 << 21)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    std::hint::black_box(&v);
    t.elapsed().as_secs_f64()
}

/// Host speed relative to the reference box from the calibration times
/// taken around one sample (above 1: faster than the reference).
pub fn host_speed(before_s: f64, after_s: f64) -> f64 {
    REFERENCE_S / ((before_s + after_s) / 2.0)
}

/// A sample's time metric in reference-box units: times scale with
/// `speed`, rates inversely.
pub fn normalize(metric: &str, raw: f64, speed: f64) -> f64 {
    if metric.ends_with("_per_s") {
        raw / speed
    } else {
        raw * speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_cancels_a_uniformly_slower_host() {
        // The same work on a host running at half speed: times double,
        // rates halve, and the calibration takes twice as long.
        let speed = host_speed(2.0 * REFERENCE_S, 2.0 * REFERENCE_S);
        assert_eq!(speed, 0.5);
        assert_eq!(normalize("run_s", 4.0, speed), 2.0);
        assert_eq!(normalize("rounds_per_s", 40.0, speed), 80.0);
        assert!(kernel_s() > 0.0);
    }
}

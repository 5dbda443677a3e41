//! A frozen loop that measures how fast this machine is *right now*.
//!
//! The hosts this benchmark runs on are small VMs whose vCPUs are
//! hyperthreads shared with other tenants. When the sibling thread is busy,
//! throughput-bound code — big-number limbs, copies — runs up to twice as
//! slow, for seconds to minutes at a time, while a latency-bound loop
//! does not notice. Measured here with a single-thread RSA signing loop:
//! 4,190 to 7,650 signatures per second within one minute, and run-to-run
//! quartile spreads of 10–35% on every timing metric of this benchmark.
//!
//! The yardstick is eight independent multiply-add chains: throughput-bound
//! like the code under test, sharing none of it (so no change to the
//! repository can move it). Its speed is sampled on every hardware thread
//! at once between slices of a run, and timing metrics are reported *at
//! the reference speed*: a slice measured while the yardstick ran at
//! speed `s` is scaled by `(REFERENCE / s)^e`, where the exponent `e` is
//! the share of the workload's time that is throughput-bound (a constant
//! per workload, fitted once across runs; see the README).

use crate::sysinfo::{nproc, thread_cpu_ns};

/// The yardstick speed, in million iterations per second, that timing
/// metrics are reported at: about what an uncontended thread of the
/// 2.1 GHz Xeon VMs this was calibrated on reaches.
pub const REFERENCE_MITER_S: f64 = 250.0;

/// Iterations per sample (about a millisecond).
const ITERATIONS: u64 = 150_000;

/// Eight independent 64×64→128-bit multiply-add chains.
fn chains(iterations: u64) -> u64 {
    let mut lanes = [0x9E37_79B9_7F4A_7C15u64, 3, 5, 7, 11, 13, 17, 19];
    for i in 0..iterations {
        for (k, lane) in lanes.iter_mut().enumerate() {
            let p = (*lane as u128) * (0xBF58_476D_1CE4_E5B9u128 + k as u128) + i as u128;
            *lane = (p as u64) ^ ((p >> 64) as u64);
        }
    }
    lanes.iter().fold(0, |a, b| a ^ b)
}

/// Speed of the calling thread in million iterations per second, timed
/// by the thread's own CPU clock (so waiting for a CPU does not count).
fn sample_here() -> f64 {
    let start = thread_cpu_ns();
    std::hint::black_box(chains(std::hint::black_box(ITERATIONS)));
    let ns = (thread_cpu_ns() - start).max(1);
    ITERATIONS as f64 * 1e3 / ns as f64
}

/// Current speed: the loop is run on every hardware thread at once and
/// the speeds are averaged.
pub fn sample() -> f64 {
    let threads = nproc();
    let speeds: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(sample_here)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("yardstick thread panicked"))
            .collect()
    });
    speeds.iter().sum::<f64>() / threads as f64
}

/// How many times slower than at the reference speed a workload with
/// throughput-bound share `exponent` runs while the yardstick reads
/// `speed`. Multiply a measured rate by it, divide a measured time.
pub fn slowdown(speed: f64, exponent: f64) -> f64 {
    (REFERENCE_MITER_S / speed).powf(exponent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_a_plausible_speed() {
        let s = sample();
        assert!(s.is_finite() && s > 1.0, "{s} Miter/s");
    }

    #[test]
    fn slowdown_scales_by_the_throughput_bound_share() {
        assert_eq!(slowdown(REFERENCE_MITER_S, 0.7), 1.0);
        // Yardstick at half speed: a fully throughput-bound workload is
        // twice as slow, a latency-bound one not at all.
        assert!((slowdown(125.0, 1.0) - 2.0).abs() < 1e-12);
        assert_eq!(slowdown(125.0, 0.0), 1.0);
        assert!((slowdown(125.0, 0.5) - 2f64.sqrt()).abs() < 1e-12);
        // Faster than the reference scales the other way.
        assert!(slowdown(500.0, 1.0) < 1.0);
    }

    #[test]
    fn chains_do_the_work_they_are_asked_for() {
        assert_ne!(chains(10), chains(11));
        assert_eq!(chains(1_000), chains(1_000));
    }
}

//! The harness's own reference kernel: how fast is this box right now?
//!
//! The box this benchmark was built on does identical work at speeds
//! that drift 20-40 % over tens of minutes (its host's doing: clock and
//! cache shared with other guests). No statistic over one 20 s run
//! removes that, because a slow spell outlasts the run, and as measured
//! the closed-loop workloads do not stay inside any bound the manifest
//! may state (README, "Calibration", and the `raw.*` rows of `AA.md`).
//! What does is measuring the box next to the program: a fixed kernel
//! of the harness's own runs at every repeat boundary, and a repeat's
//! times are reported in units of it, `measured * NOMINAL_S /
//! yardstick`. Every run prints the figures as measured beside them.
//!
//! The kernel is two phases of about 2 ms each, chosen because together
//! they tracked the decoder's slowdown one for one where either alone, a
//! pointer chase, or an integer chain did not:
//! - a scalar, call-heavy floating-point sweep over 64 KiB (built without
//!   `+fma`, `f32::mul_add` is a call into libm), which follows the
//!   core's clock;
//! - a hash-indexed read-modify-write walk over a 1 MiB table with a
//!   data-dependent branch, which follows the cache the program's
//!   models and token tables also live in.
//!
//! It calls nothing in the program, so a change to the program cannot
//! move it. Changing the kernel, or the toolchain's code for it, re-bases
//! every calibrated number: treat it like a change of reference machine.

use std::sync::Mutex;

use crate::sys;

/// One execution on the reference box when nothing disturbs it. Only
/// fixes the unit: a calibrated second is a second of a box this fast.
pub const NOMINAL_S: f64 = 0.004;

const LANES: usize = 16;
const SWEEP_FLOATS: usize = 16 * 1024;
const SWEEP_PASSES: usize = 40;
const TABLE_FLOATS: usize = 256 * 1024;
const WALK_STEPS: u64 = 200_000;

struct Yardstick {
    sweep: Vec<f32>,
    table: Vec<f32>,
}

impl Yardstick {
    fn new() -> Yardstick {
        let ramp = |n: usize| (0..n).map(|i| ((i * 7919) % 1000) as f32 * 1e-3).collect();
        Yardstick {
            sweep: ramp(SWEEP_FLOATS),
            table: ramp(TABLE_FLOATS),
        }
    }

    /// One reading: the median of three runs of the kernel. A host that
    /// takes the core away mid-run bills the stall to the guest's CPU
    /// clock, and a single run once read eleven times too long.
    fn read(&mut self) -> f64 {
        let mut runs = [self.run(), self.run(), self.run()];
        runs.sort_by(|a, b| a.partial_cmp(b).expect("durations are never NaN"));
        runs[1]
    }

    /// Runs the kernel once; returns the CPU seconds this thread spent
    /// in it, which a preemption inside the guest does not stretch.
    fn run(&mut self) -> f64 {
        let t0 = sys::thread_cpu();
        let mut acc = [0f32; LANES];
        for _ in 0..SWEEP_PASSES {
            for chunk in self.sweep.chunks_exact(LANES) {
                for (a, &x) in acc.iter_mut().zip(chunk) {
                    *a = x.mul_add(1.0001, *a);
                }
            }
        }
        std::hint::black_box(acc);
        let (mut x, mut sum, mut bar) = (0x1234_5678_9abc_def1u64, 0f32, 0.5f32);
        for i in 0..WALK_STEPS {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23) ^ i;
            let slot = (x >> 40) as usize & (TABLE_FLOATS - 1);
            let c = self.table[slot];
            if c < bar {
                sum += c * 1.0001;
                bar = bar * 0.999 + c * 0.001;
            } else {
                sum -= 0.5;
                bar += 1e-4;
            }
            self.table[slot] = if c > 1.0 { 0.0 } else { c + 1e-3 };
        }
        std::hint::black_box((sum, bar));
        (sys::thread_cpu() - t0).as_secs_f64()
    }
}

/// One reading of the process's one yardstick. Its tables are allocated
/// by the first call, which `main` makes before `rss_peak_mib`'s baseline
/// is read: they are the harness's memory, not the program's.
pub fn read() -> f64 {
    static YARDSTICK: Mutex<Option<Yardstick>> = Mutex::new(None);
    YARDSTICK
        .lock()
        .expect("the kernel does not panic")
        .get_or_insert_with(Yardstick::new)
        .read()
}

/// The factor that turns a time measured between two readings of the
/// yardstick into calibrated time.
pub fn factor(before_s: f64, after_s: f64) -> f64 {
    NOMINAL_S / ((before_s + after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        // Timing cannot be asserted on a shared box; that the walk is
        // deterministic can: two yardsticks leave identical tables.
        let (mut a, mut b) = (Yardstick::new(), Yardstick::new());
        assert!(a.read() > 0.0 && b.read() > 0.0);
        assert!(a.table == b.table);
        assert!(a.table != Yardstick::new().table);
    }

    #[test]
    fn a_slow_box_shrinks_its_times() {
        assert_eq!(factor(NOMINAL_S, NOMINAL_S), 1.0);
        assert_eq!(factor(2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.5);
        assert_eq!(factor(NOMINAL_S, 3.0 * NOMINAL_S), 0.5);
    }
}

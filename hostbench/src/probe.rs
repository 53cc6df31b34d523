//! The reference kernel that host times are normalized by.
//!
//! On a machine shared with other tenants the memory system's speed
//! drifts by tens of percent over minutes, so raw wall-clock medians of
//! runs made minutes apart disagree by more than any useful bound. The
//! kernel below is fixed code of the benchmark, independent of the
//! program: random read-modify-writes over a buffer larger than L2 plus a
//! small ordered map of formatted keys, the same mix of cache misses and
//! allocation the simulator does. It runs at every round boundary, and a
//! round's host times are scaled by `REFERENCE_S / kernel time`, averaged
//! over the kernel runs on either side of the round. Normalized times
//! therefore read as seconds on a machine where the kernel takes
//! `REFERENCE_S`; the raw wall-clock figures are reported next to them.

use std::collections::BTreeMap;
use std::time::Instant;

/// Buffer of the random-access part: 16 MiB of `u64`, counted in the
/// process's peak RSS.
const WORDS: usize = 1 << 21;
/// Random read-modify-writes per kernel run.
const STEPS: usize = 2_000_000;
/// Ordered-map inserts per kernel run.
const KEYS: u64 = 50_000;
/// Kernel time the normalized host times are scaled to (seconds).
pub const REFERENCE_S: f64 = 0.060;

/// The kernel and its buffer.
pub struct Probe {
    buf: Vec<u64>,
    last_s: f64,
}

impl Probe {
    /// Allocates the buffer and runs the kernel once.
    pub fn new() -> Self {
        let mut p = Probe { buf: vec![1; WORDS], last_s: 0.0 };
        p.last_s = p.run();
        p
    }

    fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut h = 0u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & (WORDS - 1);
            self.buf[j] = self.buf[j].wrapping_add(h);
            h = h.wrapping_add(self.buf[j]);
        }
        let mut map = BTreeMap::new();
        for i in 0..KEYS {
            map.insert(format!("k{}", i.wrapping_mul(0x9E37_79B9) % 100_003), i);
        }
        std::hint::black_box((h, map));
        t.elapsed().as_secs_f64()
    }

    /// Runs the kernel again. Returns the factor that normalizes the host
    /// times measured since the previous run, and this run's kernel time.
    pub fn factor(&mut self) -> (f64, f64) {
        let before = self.last_s;
        self.last_s = self.run();
        (REFERENCE_S / ((before + self.last_s) / 2.0), self.last_s)
    }
}

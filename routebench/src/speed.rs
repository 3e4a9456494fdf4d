//! Machine-speed probe: a fixed kernel, independent of the program under
//! test, timed at regular intervals through a run.
//!
//! Benchmark hosts are often shared: on the 2-vCPU x86-64 host this was
//! tuned on, speed drifted by a third over tens of seconds as neighbours
//! loaded it. Reported times are scaled by how much slower than
//! [`NOMINAL_KERNEL_S`] the kernel ran during the same run, which removes
//! most of that drift from run-to-run comparisons; the unscaled figures go
//! to standard error.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's typical time on the reference host (x86-64, 2 vCPUs):
/// reported times are converted to the speed at which the kernel takes
/// this long. It only sets the unit.
pub const NOMINAL_KERNEL_S: f64 = 0.000_6;

/// How often the probe times the kernel during a measured loop.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Variables of the kernel's fixed random 3-CNF formula.
const VARS: usize = 4000;

/// Clauses of the kernel's formula.
const CLAUSES: usize = 16_000;

/// The kernel's input: a fixed random 3-CNF formula with occurrence
/// lists, built once from a constant seed. Unit propagation over it
/// walks clause memory the way a CDCL solver's propagation does, so the
/// kernel slows down under the same neighbours as the solver; it shares
/// no code with the program under test.
#[derive(Debug)]
struct Formula {
    clauses: Vec<[u32; 3]>,
    /// Clause indices per literal code (`2v` positive, `2v + 1` negative).
    occurs: Vec<Vec<u32>>,
    /// Per variable: 0 unassigned, 1 true, 2 false.
    value: Vec<u8>,
    trail: Vec<u32>,
}

/// xorshift64 step.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Formula {
    fn new() -> Formula {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut occurs = vec![Vec::new(); 2 * VARS];
        let clauses: Vec<[u32; 3]> = (0..CLAUSES)
            .map(|c| {
                let clause = [0; 3].map(|_| (next(&mut x) % (2 * VARS as u64)) as u32);
                for &lit in &clause {
                    occurs[lit as usize].push(c as u32);
                }
                clause
            })
            .collect();
        Formula {
            clauses,
            occurs,
            value: vec![0; VARS],
            trail: Vec::with_capacity(VARS),
        }
    }

    fn is_true(&self, lit: u32) -> bool {
        self.value[(lit / 2) as usize] == 1 + (lit & 1) as u8
    }

    fn is_free(&self, lit: u32) -> bool {
        self.value[(lit / 2) as usize] == 0
    }

    fn assign(&mut self, lit: u32) {
        self.value[(lit / 2) as usize] = 1 + (lit & 1) as u8;
        self.trail.push(lit);
    }

    /// Assigns `lit` and propagates to fixpoint, ignoring conflicts;
    /// returns the number of literals assigned.
    fn propagate(&mut self, lit: u32) -> usize {
        let start = self.trail.len();
        if !self.is_free(lit) {
            return 0;
        }
        self.assign(lit);
        let mut head = start;
        while head < self.trail.len() {
            let falsified = (self.trail[head] ^ 1) as usize;
            head += 1;
            for k in 0..self.occurs[falsified].len() {
                let clause = self.clauses[self.occurs[falsified][k] as usize];
                if clause.iter().any(|&l| self.is_true(l)) {
                    continue;
                }
                let mut free = clause.iter().filter(|&&l| self.is_free(l));
                if let (Some(&unit), None) = (free.next(), free.next()) {
                    self.assign(unit);
                }
            }
        }
        self.trail.len() - start
    }

    fn reset(&mut self) {
        for &lit in &self.trail {
            self.value[(lit / 2) as usize] = 0;
        }
        self.trail.clear();
    }
}

/// Runs the kernel once and returns its wall time in seconds: rounds of
/// fixed pseudo-random decisions, each propagated to fixpoint.
fn kernel(formula: &mut Formula) -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut assigned = 0;
    for _ in 0..4 {
        for _ in 0..300 {
            assigned += formula.propagate((next(&mut x) % (2 * VARS as u64)) as u32);
        }
        formula.reset();
    }
    black_box(assigned);
    start.elapsed().as_secs_f64()
}

/// Samples the kernel through a run, on the client thread between
/// requests. One thread also serves the 2-thread requests best: over eight
/// `prove-parallel` runs on one seed, scaling by a one-thread kernel left
/// a throughput spread of 0.06 of the median, against 0.09 unscaled and
/// 0.11 when scaling by the slower of two kernel threads.
#[derive(Debug)]
pub struct SpeedProbe {
    formula: Formula,
    samples: Vec<f64>,
    last: Instant,
}

impl Default for SpeedProbe {
    fn default() -> SpeedProbe {
        SpeedProbe::new()
    }
}

impl SpeedProbe {
    /// A probe with no samples yet.
    pub fn new() -> SpeedProbe {
        SpeedProbe {
            formula: Formula::new(),
            samples: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Times the kernel now.
    pub fn sample(&mut self) {
        let time = kernel(&mut self.formula);
        self.samples.push(time);
        self.last = Instant::now();
    }

    /// Times the kernel if [`PROBE_EVERY`] has passed since the last
    /// sample.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= PROBE_EVERY {
            self.sample();
        }
    }

    /// How much slower than nominal the machine ran: the median kernel
    /// time over its [`NOMINAL_KERNEL_S`]. 1 without samples.
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        crate::run::percentile(&self.samples, 50.0) / NOMINAL_KERNEL_S
    }
}

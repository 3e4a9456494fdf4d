//! Seeded routing-request benchmark for satroute.
//!
//! Regenerates pinned routing instances picked by a seed, drives a closed loop
//! of requests through the public library API from one client, checks
//! every answer, and reports end-to-end metrics (untraced run) or
//! per-layer metrics (traced run). See `NOTES.md` beside this crate.

pub mod gen;
pub mod pool;
pub mod run;
pub mod span;
pub mod speed;
pub mod workload;

#[cfg(test)]
mod selftest;

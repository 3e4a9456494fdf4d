//! One benchmark run: set-up, the closed request loop, the oracle, and
//! the metrics of the untraced run (`--trace 0`) or the traced run
//! (`--trace 1`).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::gen::{GenError, Instance};
use crate::pool::load;
use crate::span::Spans;
use crate::speed::SpeedProbe;
use crate::workload::{
    check, execute, sequential_conflicts, Answer, Mode, Record, Request, Scale, Verdict, Workload,
    THREADS,
};

/// Set-ups before the request loop; `setup_s` is the median of these and
/// of those run between requests.
pub const SETUP_REPS: usize = 3;

/// Share of the loop time that set-ups between requests may take.
///
/// Set-ups of the 6×6 pools take about 20 ms, and timed back to back
/// before the loop they ran at one of two speeds about 1.5× apart for
/// seconds at a time, a state the kernel did not follow: two sets of ten
/// runs half an hour apart moved their medians by 45% and 69%. Spread
/// through the loop, they meet the same machine states as the requests.
pub const SETUP_SHARE: f64 = 0.05;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed that picks the pooled instances.
    pub seed: u64,
    /// Length of the measured request loop.
    pub seconds: f64,
    /// Run the traced run instead of the untraced one.
    pub trace: bool,
    /// Instance sizes.
    pub scale: Scale,
    /// Where the traced run writes its spans.
    pub spans_out: Option<PathBuf>,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// No oracle violation, no panic, and (traced) every replay matched.
    pub correct: bool,
    /// Requests attempted in the measured loop.
    pub attempted: u64,
    /// Requests that hit the cap, panicked or failed a check.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable findings for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs requests back to back, each after the previous one completed,
/// until the requests have taken `length` (at least one latency sample).
/// Before each request it calls `between` with the loop time so far; that
/// call's time is left out. Returns the records and the loop's wall time
/// without the `between` calls.
pub fn closed_loop(
    workload: Workload,
    pool: &[Instance],
    length: Duration,
    mut between: impl FnMut(Duration),
) -> (Vec<Record>, Duration) {
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut records = Vec::new();
    while records.len() < workload.requests_per_sample() || start.elapsed() - paused < length {
        let pause = Instant::now();
        between(pause - start - paused);
        paused += pause.elapsed();
        let request = workload.request(pool, records.len());
        let t = Instant::now();
        let answer = execute(request, pool, Mode::Plain, &mut Spans::off());
        records.push(Record {
            request,
            answer,
            latency: t.elapsed(),
        });
    }
    (records, start.elapsed() - paused)
}

/// The latency samples of the faster half of the run's whole passes over
/// the pool (rounded up; each pass visits every instance once, so each has
/// the same mix), or every sample when the run made fewer than two passes.
///
/// Multi-threaded requests need both vCPUs of the 2-vCPU host, and
/// neighbours on the host slowed them by up to 60% for seconds at a time
/// (a `prove-parallel` run went from 92 to 55 requests per second for 6 of
/// its 20 s) while the single-thread speed kernel saw no change; a pass is
/// about 1.5 s. On six runs of one seed this cut the quartile spread of
/// the tail latency from 0.23 to about 0.1 of the median.
pub fn faster_passes(latencies: &[f64], pass: usize) -> Vec<f64> {
    let mut passes: Vec<&[f64]> = latencies.chunks_exact(pass.max(1)).collect();
    if passes.len() < 2 {
        return latencies.to_vec();
    }
    let time = |p: &[f64]| p.iter().sum::<f64>();
    passes.sort_by(|a, b| time(a).total_cmp(&time(b)));
    passes.truncate(passes.len().div_ceil(2));
    passes.concat()
}

/// Percentile `p` (0–100) of `values`, linearly interpolated.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs the benchmark once.
///
/// # Errors
///
/// Fails only when instance generation fails.
pub fn run(opts: &Options) -> Result<Outcome, GenError> {
    if opts.trace {
        traced(opts)
    } else {
        untraced(opts)
    }
}

fn untraced(opts: &Options) -> Result<Outcome, GenError> {
    let w = opts.workload;
    let mut setups = Vec::new();
    let (mut pool, mut setup_violations) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        (pool, setup_violations) = load(w, opts.scale, opts.seed, &mut Spans::off())?;
        setups.push(t.elapsed().as_secs_f64());
    }

    // More set-ups run between requests, up to `SETUP_SHARE` of the loop
    // time, so that set-up is timed on the same machine as the requests
    // and scaled by the same kernel.
    let mut probe = SpeedProbe::new();
    probe.sample();
    let mut setup_spent: f64 = setups.iter().sum();
    let (records, wall) = closed_loop(w, &pool, Duration::from_secs_f64(opts.seconds), |done| {
        probe.tick();
        if setup_spent < SETUP_SHARE * done.as_secs_f64() {
            let t = Instant::now();
            if load(w, opts.scale, opts.seed, &mut Spans::off()).is_ok() {
                setups.push(t.elapsed().as_secs_f64());
            }
            setup_spent += t.elapsed().as_secs_f64();
        }
    });
    let checked = check(w, &pool, &records);

    let tail = w.tail_percentile();
    // Times are reported at the nominal machine speed (see `speed`).
    let slow = probe.slowdown();
    let mut latencies: Vec<f64> = records
        .chunks_exact(w.requests_per_sample())
        .map(|pair| pair.iter().map(|r| r.latency.as_secs_f64()).sum())
        .collect();
    let n = records.len() as f64;
    let mut throughput = n / wall.as_secs_f64();
    let passes = latencies.len() / pool.len();
    if w.threads() > 1 {
        latencies = faster_passes(&latencies, pool.len());
        throughput =
            (latencies.len() * w.requests_per_sample()) as f64 / latencies.iter().sum::<f64>();
    }
    let setup = percentile(&setups, 50.0);
    let (p50, p_tail) = (percentile(&latencies, 50.0), percentile(&latencies, tail));
    let beyond = latencies.len() - (latencies.len() as f64 * tail / 100.0).ceil() as usize;
    let failed = checked.failures();
    let mut notes = setup_violations.clone();
    notes.extend(checked.violations.iter().cloned());
    notes.push(format!(
        "{}: {} instances; {} requests in {:.3} s ({passes} passes over the pool); {} latency samples measured; tail = p{tail} with {beyond} beyond it; failed_frac = {}",
        w.name(),
        pool.len(),
        records.len(),
        wall.as_secs_f64(),
        latencies.len(),
        failed as f64 / n
    ));
    notes.push(format!(
        "unscaled: setup {setup:.4} s (median of {} set-ups), {throughput:.3} requests/s, p50 {p50:.6} s, p{tail} {p_tail:.6} s; machine {slow:.3}x slower than nominal",
        setups.len()
    ));
    let metric = |name, value, unit| Metric { name, value, unit };
    Ok(Outcome {
        correct: setup_violations.is_empty() && checked.violations.is_empty(),
        attempted: records.len() as u64,
        failed: (failed + setup_violations.len() as u64).min(records.len() as u64),
        metrics: vec![
            metric("setup_s", setup / slow, "s"),
            metric("throughput_rps", throughput * slow, "1/s"),
            metric("latency_p50_s", p50 / slow, "s"),
            metric("latency_tail_s", p_tail / slow, "s"),
            metric("ok_frac", 1.0 - failed as f64 / n, "frac"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
        notes,
    })
}

/// Replays `records` in `mode`, returning the answers and their summed
/// wall time.
fn replay(
    records: &[Record],
    pool: &[Instance],
    mode: Mode,
    spans: &mut Spans,
) -> (Vec<Answer>, f64) {
    let mut wall = 0.0;
    let answers = records
        .iter()
        .enumerate()
        .map(|(i, rec)| {
            spans.set_request(i as u64);
            spans.begin("request");
            let t = Instant::now();
            let answer = execute(rec.request, pool, mode, spans);
            wall += t.elapsed().as_secs_f64();
            spans.end();
            answer
        })
        .collect();
    (answers, wall)
}

fn traced(opts: &Options) -> Result<Outcome, GenError> {
    let w = opts.workload;
    let mut spans = Spans::on();
    let (pool, setup_violations) = load(w, opts.scale, opts.seed, &mut spans)?;

    // The untraced pass, then the same requests replayed twice: decomposed
    // into traced layer calls, and with the program's telemetry on.
    let length = Duration::from_secs_f64(opts.seconds / 3.0);
    let (records, _) = closed_loop(w, &pool, length, |_| {});
    let plain_wall: f64 = records.iter().map(|r| r.latency.as_secs_f64()).sum();
    let (traced, traced_wall) = replay(&records, &pool, Mode::Traced, &mut spans);
    let (telemetry, telemetry_wall) = replay(&records, &pool, Mode::Telemetry, &mut Spans::off());

    let checked = check(w, &pool, &records);
    let mut notes = setup_violations.clone();
    notes.extend(checked.violations.iter().cloned());
    let mut mismatches = 0u64;
    for (i, rec) in records.iter().enumerate() {
        for (what, replayed) in [("traced", &traced[i]), ("telemetry", &telemetry[i])] {
            if !rec.answer.reproduced_by(rec.request, replayed) {
                mismatches += 1;
                notes.push(format!(
                    "request {i} {:?}: {what} replay {replayed:?} differs from {:?}",
                    rec.request, rec.answer
                ));
            }
        }
    }

    // Cube conflicts against the sequential conflicts of the same request.
    let (mut cube, mut sequential) = (0u64, 0u64);
    for rec in &records {
        if let Request::Conquer { inst, width } = rec.request {
            if rec.answer.verdict == Verdict::Unsat {
                if let Some(seq) = sequential_conflicts(&pool[inst], width) {
                    cube += rec.answer.conflicts;
                    sequential += seq;
                }
            }
        }
    }

    // Warm against cold ladder conflicts on the instances that ran both.
    let (mut warm, mut cold) = (0u64, 0u64);
    for pair in records.chunks(2) {
        if let [a, b] = pair {
            if let (
                Request::Ladder { warm: false, inst },
                Request::Ladder {
                    warm: true,
                    inst: j,
                },
            ) = (a.request, b.request)
            {
                if inst == j && a.answer.verdict == Verdict::Sat && b.answer.verdict == Verdict::Sat
                {
                    cold += a.answer.conflicts;
                    warm += b.answer.conflicts;
                }
            }
        }
    }

    if let Some(path) = &opts.spans_out {
        if let Err(e) = spans.write_jsonl(path) {
            notes.push(format!("could not write spans to {}: {e}", path.display()));
        }
    }

    // Set-up layers are totals over the set-up; request layers are means
    // per replayed request, so runs that fit different numbers of
    // requests into their time compare.
    let s = &spans;
    let n = records.len() as f64;
    let setup = |name: &str| s.total_s(name, false);
    let per_request = |name: &str| s.total_s(name, true) / n;
    let c = |name: &str| s.counter(name) as f64;
    let per = |name: &str| c(name) / n;
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("fpga.netlist_s", setup("fpga.netlist"), "s"),
        metric("fpga.global_route_s", setup("fpga.global_route"), "s"),
        metric(
            "fpga.conflict_graph_s",
            per_request("fpga.conflict_graph"),
            "s",
        ),
        metric("fpga.conflict_edges", c("fpga.conflict_edges"), "count"),
        metric("fpga.verify_s", per_request("fpga.verify"), "s"),
        metric("coloring.dsatur_s", setup("coloring.dsatur"), "s"),
        metric("coloring.clique_s", setup("coloring.clique"), "s"),
        metric(
            "coloring.ladder_dsatur_s",
            per_request("coloring.dsatur"),
            "s",
        ),
        metric("encode.s", per_request("core.encode"), "s"),
        metric("encode.vars", per("encode.vars"), "count"),
        metric("encode.clauses", per("encode.clauses"), "count"),
        metric("encode.literals", per("encode.literals"), "count"),
        metric("solver.load_s", per_request("solver.load"), "s"),
        metric("solver.search_s", per_request("solver.search"), "s"),
        metric("solver.conflicts", per("solver.conflicts"), "count"),
        metric("solver.decisions", per("solver.decisions"), "count"),
        metric("solver.propagations", per("solver.propagations"), "count"),
        metric("solver.restarts", per("solver.restarts"), "count"),
        metric(
            "solver.props_per_s",
            ratio(c("solver.propagations"), s.total_s("solver.search", true)),
            "1/s",
        ),
        metric(
            "solver.learnt_clauses",
            per("solver.learnt_clauses"),
            "count",
        ),
        metric(
            "solver.deleted_frac",
            ratio(c("solver.deleted_clauses"), c("solver.learnt_clauses")),
            "frac",
        ),
        metric("solver.gc_runs", per("solver.gc_runs"), "count"),
        metric(
            "solver.mean_lbd",
            ratio(c("solver.sum_lbd"), c("solver.learnt_clauses")),
            "lbd",
        ),
        metric("decode.s", per_request("core.decode"), "s"),
        metric("incremental.probe_s", per_request("incremental.probe"), "s"),
        metric("incremental.probes", per("incremental.probes"), "count"),
        metric(
            "incremental.conflicts",
            per("incremental.conflicts"),
            "count",
        ),
        metric("ladder.cold_probe_s", per_request("ladder.cold_probe"), "s"),
        metric(
            "ladder.cold_conflicts",
            per("ladder.cold_conflicts"),
            "count",
        ),
        metric(
            "incremental.conflict_ratio",
            ratio(warm as f64, cold as f64),
            "ratio",
        ),
        metric("portfolio.s", per_request("core.portfolio"), "s"),
        metric(
            "portfolio.useful_frac",
            ratio(c("portfolio.winner_conflicts"), c("portfolio.conflicts")),
            "frac",
        ),
        metric(
            "portfolio.imported_clauses",
            per("portfolio.imported_clauses"),
            "count",
        ),
        metric("conquer.s", per_request("core.conquer"), "s"),
        metric("conquer.cubes", per("conquer.cubes"), "count"),
        metric(
            "conquer.refuted_frac",
            ratio(c("conquer.refuted"), c("conquer.cube_space")),
            "frac",
        ),
        metric(
            "conquer.conflict_overhead",
            ratio(cube as f64, sequential as f64),
            "ratio",
        ),
        metric(
            "parallel.cpu_util",
            ratio(
                s.sum("parallel.cpu_s"),
                s.sum("parallel.wall_s") * THREADS as f64,
            ),
            "frac",
        ),
        metric(
            "obs.span_overhead_frac",
            ratio(traced_wall, plain_wall) - 1.0,
            "frac",
        ),
        metric(
            "obs.telemetry_on_frac",
            ratio(telemetry_wall, plain_wall) - 1.0,
            "frac",
        ),
    ];
    notes.push(format!(
        "{} traced: {} requests replayed; plain {plain_wall:.3} s, traced {traced_wall:.3} s, telemetry {telemetry_wall:.3} s; {mismatches} replay mismatches",
        w.name(),
        records.len()
    ));
    let failed = checked.failures() + mismatches + setup_violations.len() as u64;
    Ok(Outcome {
        correct: setup_violations.is_empty() && checked.violations.is_empty() && mismatches == 0,
        attempted: records.len() as u64,
        failed: failed.min(records.len() as u64),
        metrics,
        notes,
    })
}

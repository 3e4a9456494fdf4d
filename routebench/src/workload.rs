//! The four request workloads: what one request is, how it runs through
//! the public API (plain, decomposed into traced layer calls, or with the
//! program's own telemetry on), and the oracle that checks every answer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use satroute_cnf::FormulaStats;
use satroute_coloring::{dsatur_coloring, Coloring};
use satroute_core::{
    decode_coloring, encode_coloring, run_portfolio_opts, ColoringOutcome, ColoringReport,
    EncodingId, PipelineError, PortfolioOptions, RouteResult, RoutingPipeline, Strategy,
    SymmetryHeuristic,
};
use satroute_fpga::{DetailedRouting, RoutingProblem};
use satroute_obs::{FlightRecorder, MetricsRegistry, TraceTree, Tracer};
use satroute_solver::{CdclSolver, RunBudget, SharingConfig, SolveOutcome, SolverConfig};

use crate::gen::{Instance, InstanceSpec};
use crate::span::Spans;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every encoding at one track below DSATUR, no symmetry breaking.
    ProveSweep,
    /// Every encoding on large routable instances, with spare tracks.
    RouteLarge,
    /// Cold and warm minimum-width ladders with the CLI default strategy.
    MinWidth,
    /// Diversified portfolio and cube-and-conquer on `prove-sweep`'s
    /// instances.
    ProveParallel,
}

/// Instance sizes: the measured ones, or tiny ones for smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports on.
    Full,
    /// Seconds-scale sizes for self-tests.
    Tiny,
}

/// Per-request cap, enforced as an absolute deadline.
pub const REQUEST_CAP: Duration = Duration::from_secs(20);

/// Spare tracks above DSATUR that `route-large` requests get.
pub const ROUTE_SPARE: u32 = 4;

/// Threads the parallel requests and the calibration may use.
pub const THREADS: usize = 2;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ProveSweep,
        Workload::RouteLarge,
        Workload::MinWidth,
        Workload::ProveParallel,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProveSweep => "prove-sweep",
            Workload::RouteLarge => "route-large",
            Workload::MinWidth => "min-width",
            Workload::ProveParallel => "prove-parallel",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Instance size.
    pub fn spec(self, scale: Scale) -> InstanceSpec {
        let (grid, nets) = match (self, scale) {
            (Workload::RouteLarge, Scale::Full) => ((16, 16), 250),
            (_, Scale::Full) => ((6, 6), 24),
            (Workload::RouteLarge, Scale::Tiny) => ((5, 5), 18),
            (_, Scale::Tiny) => ((4, 4), 12),
        };
        InstanceSpec { grid, nets }
    }

    /// The verdict every decided request must return at its instance's
    /// pinned width: a refutation for the proving workloads, a routing for
    /// `route-large`, and a minimum width for a ladder.
    pub fn expected(self) -> Verdict {
        match self {
            Workload::ProveSweep | Workload::ProveParallel => Verdict::Unsat,
            Workload::RouteLarge | Workload::MinWidth => Verdict::Sat,
        }
    }

    /// Threads one request runs on.
    pub fn threads(self) -> usize {
        match self {
            Workload::ProveParallel => THREADS,
            _ => 1,
        }
    }

    /// Consecutive requests that make one latency sample. `min-width`
    /// asks each instance twice (cold, then warm) and `prove-parallel`
    /// twice (portfolio, then cube-and-conquer); the two kinds differ in
    /// cost, so a percentile over single requests would sit between two
    /// modes and jump between them from run to run. Their latencies are
    /// per instance, both requests together.
    pub fn requests_per_sample(self) -> usize {
        match self {
            Workload::ProveSweep | Workload::RouteLarge => 1,
            Workload::MinWidth | Workload::ProveParallel => 2,
        }
    }

    /// The tail percentile reported as `latency_tail_s`. It leaves at
    /// least ten latency samples beyond it in a default-length run
    /// (standard error reports the count for each run). The proving
    /// workloads stop at p95 because p99 swung by a third from seed to
    /// seed; `route-large` fits about 100–140 requests in a 20 s run.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::RouteLarge => 80.0,
            _ => 95.0,
        }
    }

    /// The `index`-th request of the closed loop.
    pub fn request(self, pool: &[Instance], index: usize) -> Request {
        let n = EncodingId::ALL.len();
        match self {
            Workload::ProveSweep | Workload::RouteLarge => {
                // Round r visits every instance once, instance j with
                // encoding (r + j) mod 15: any stretch of whole rounds
                // covers the pool with an even mix of encodings, and 15
                // rounds cover every (instance, encoding) pair.
                let inst = index % pool.len();
                let round = index / pool.len();
                Request::Route {
                    inst,
                    width: pool[inst].width,
                    encoding: EncodingId::ALL[(round + inst) % n],
                }
            }
            Workload::MinWidth => {
                let inst = (index / 2) % pool.len();
                Request::Ladder {
                    inst,
                    warm: index % 2 == 1,
                }
            }
            Workload::ProveParallel => {
                let inst = (index / 2) % pool.len();
                let width = pool[inst].width;
                if index.is_multiple_of(2) {
                    Request::Portfolio { inst, width }
                } else {
                    Request::Conquer { inst, width }
                }
            }
        }
    }
}

/// One request of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// `RoutingPipeline::route` at `width` with `encoding`, no symmetry
    /// breaking.
    Route {
        /// Instance index in the pool.
        inst: usize,
        /// Channel width.
        width: u32,
        /// Encoding.
        encoding: EncodingId,
    },
    /// A minimum-width ladder with the CLI default strategy: cold
    /// `find_min_width`, or warm `find_min_width_incremental`.
    Ladder {
        /// Instance index in the pool.
        inst: usize,
        /// Warm (incremental) ladder.
        warm: bool,
    },
    /// A 2-member diversified portfolio with clause sharing.
    Portfolio {
        /// Instance index in the pool.
        inst: usize,
        /// Channel width.
        width: u32,
    },
    /// Cube-and-conquer with 3 cube variables.
    Conquer {
        /// Instance index in the pool.
        inst: usize,
        /// Channel width.
        width: u32,
    },
}

impl Request {
    /// The pool index of the request's instance.
    pub fn inst(self) -> usize {
        match self {
            Request::Route { inst, .. }
            | Request::Ladder { inst, .. }
            | Request::Portfolio { inst, .. }
            | Request::Conquer { inst, .. } => inst,
        }
    }

    /// Whether a replay must reproduce the conflict count and CNF size
    /// exactly. A sharing portfolio's members race, so only its verdict
    /// repeats; a conquered cube space repeats its work when no cube wins.
    fn deterministic(self, answer: &Answer) -> bool {
        match self {
            Request::Route { .. } | Request::Ladder { .. } => true,
            Request::Conquer { .. } => answer.verdict == Verdict::Unsat,
            Request::Portfolio { .. } => false,
        }
    }
}

/// A request's verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Routed (for a ladder: a minimum width was found).
    Sat,
    /// Proven unroutable.
    Unsat,
    /// Stopped by the per-request cap.
    Unknown,
    /// The request panicked.
    Panicked,
}

/// What one request returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// The verdict.
    pub verdict: Verdict,
    /// The routed width (a ladder's minimum width).
    pub width: u32,
    /// The detailed routing of a SAT answer, to verify at `width`.
    pub tracks: Option<Vec<u32>>,
    /// Solver conflicts, summed over every solve of the request.
    pub conflicts: u64,
    /// CNF variables, clauses and literals, summed over every encoding.
    pub cnf: (u64, u64, u64),
}

impl Answer {
    fn of(verdict: Verdict) -> Answer {
        Answer {
            verdict,
            width: 0,
            tracks: None,
            conflicts: 0,
            cnf: (0, 0, 0),
        }
    }

    fn add_cnf(&mut self, stats: &FormulaStats) {
        self.cnf.0 += u64::from(stats.num_vars);
        self.cnf.1 += stats.num_clauses as u64;
        self.cnf.2 += stats.num_literals as u64;
    }

    /// Whether `replay` reproduces this answer: same verdict and width,
    /// and for deterministic requests the same conflicts and CNF sizes.
    pub fn reproduced_by(&self, request: Request, replay: &Answer) -> bool {
        let same = self.verdict == replay.verdict && self.width == replay.width;
        if request.deterministic(self) {
            same && self.conflicts == replay.conflicts && self.cnf == replay.cnf
        } else {
            same
        }
    }
}

/// How a request is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Through the public entry point, telemetry off.
    Plain,
    /// Decomposed into the public layer calls, each under a span.
    Traced,
    /// Through the public entry point with the program's `Tracer`,
    /// `MetricsRegistry` and `FlightRecorder` enabled.
    Telemetry,
}

/// Runs one request; a panic fails the request, not the run.
pub fn execute(request: Request, pool: &[Instance], mode: Mode, spans: &mut Spans) -> Answer {
    let budget = RunBudget::new().with_deadline_at(Instant::now() + REQUEST_CAP);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let inst = &pool[request.inst()];
        match (request, mode) {
            (
                Request::Route {
                    width, encoding, ..
                },
                Mode::Traced,
            ) => traced_route(&inst.problem, width, strategy_of(encoding), budget, spans),
            (
                Request::Route {
                    width, encoding, ..
                },
                _,
            ) => {
                let pipeline = pipeline(strategy_of(encoding), budget, mode);
                route_answer(width, pipeline.route(&inst.problem, width))
            }
            (Request::Ladder { warm: false, .. }, Mode::Traced) => {
                traced_cold_ladder(&inst.problem, budget, spans)
            }
            (Request::Ladder { warm: true, .. }, Mode::Traced) => {
                traced_warm_ladder(&inst.problem, budget, spans)
            }
            (Request::Ladder { warm, .. }, _) => ladder(&inst.problem, warm, budget, mode),
            (Request::Portfolio { width, .. }, _) => portfolio(inst, width, budget, mode, spans),
            (Request::Conquer { width, .. }, _) => conquer(inst, width, budget, mode, spans),
        }
    }));
    result.unwrap_or_else(|_| Answer::of(Verdict::Panicked))
}

/// A minimum-width ladder through the pipeline's public entry points.
fn ladder(problem: &RoutingProblem, warm: bool, budget: RunBudget, mode: Mode) -> Answer {
    let pipeline = pipeline(Strategy::paper_best(), budget, mode);
    let search = if warm {
        pipeline.find_min_width_incremental(problem)
    } else {
        pipeline.find_min_width(problem)
    };
    let Ok(search) = search else {
        return Answer::of(Verdict::Unknown);
    };
    let mut answer = Answer::of(Verdict::Sat);
    answer.width = search.min_width;
    answer.tracks = Some(search.routing.tracks().to_vec());
    if warm {
        // Probe reports carry the session's cumulative counters; the CNF
        // is encoded once.
        let last = search.probes.last().expect("a ladder probes");
        answer.conflicts = last.report.solver_stats.conflicts;
        answer.add_cnf(&last.report.formula_stats);
    } else {
        for probe in &search.probes {
            answer.conflicts += probe.report.solver_stats.conflicts;
            answer.add_cnf(&probe.report.formula_stats);
        }
    }
    answer
}

fn strategy_of(encoding: EncodingId) -> Strategy {
    Strategy::new(encoding, SymmetryHeuristic::None)
}

/// The program's telemetry handles, enabled, for one request.
fn telemetry() -> (Tracer, MetricsRegistry, FlightRecorder) {
    (
        Tracer::to_sink(TraceTree::new()),
        MetricsRegistry::new(),
        FlightRecorder::new(),
    )
}

fn pipeline(strategy: Strategy, budget: RunBudget, mode: Mode) -> RoutingPipeline {
    let pipeline = RoutingPipeline::new(strategy).with_budget(budget);
    if mode == Mode::Telemetry {
        let (tracer, metrics, flight) = telemetry();
        pipeline
            .with_tracer(tracer)
            .with_metrics(metrics)
            .with_flight(flight)
    } else {
        pipeline
    }
}

fn route_answer(width: u32, result: Result<RouteResult, PipelineError>) -> Answer {
    match result {
        Ok(result) => {
            let mut answer = Answer::of(if result.routing.is_some() {
                Verdict::Sat
            } else {
                Verdict::Unsat
            });
            answer.width = width;
            answer.tracks = result.routing.map(|r| r.tracks().to_vec());
            answer.conflicts = result.report.solver_stats.conflicts;
            answer.add_cnf(&result.report.formula_stats);
            answer
        }
        Err(PipelineError::Undecided { .. }) => Answer::of(Verdict::Unknown),
    }
}

/// `RoutingPipeline::route` replayed as its public layer calls:
/// conflict graph → encode → solver load → search → decode → verify.
fn traced_route(
    problem: &RoutingProblem,
    width: u32,
    strategy: Strategy,
    budget: RunBudget,
    spans: &mut Spans,
) -> Answer {
    let t = Instant::now();
    let graph = problem.conflict_graph();
    spans.record("fpga.conflict_graph", t);

    let t = Instant::now();
    let encoded = encode_coloring(
        &graph,
        width,
        &strategy.encoding.encoding(),
        strategy.symmetry,
    );
    spans.record("core.encode", t);
    let stats = encoded.formula.stats();
    spans.count("encode.vars", u64::from(stats.num_vars));
    spans.count("encode.clauses", stats.num_clauses as u64);
    spans.count("encode.literals", stats.num_literals as u64);

    let t = Instant::now();
    let mut solver = CdclSolver::with_config(SolverConfig::default());
    solver.set_budget(budget);
    solver.add_formula(&encoded.formula);
    spans.record("solver.load", t);

    let t = Instant::now();
    let outcome = solver.solve_with_assumptions(&[]);
    spans.record("solver.search", t);
    count_solver(spans, &solver);

    let mut answer = Answer::of(Verdict::Unknown);
    answer.conflicts = solver.stats().conflicts;
    answer.add_cnf(&stats);
    match outcome {
        SolveOutcome::Sat(model) => {
            let t = Instant::now();
            let coloring = decode_coloring(&model, &encoded.decode)
                .expect("models of the encoding always decode");
            spans.record("core.decode", t);
            answer.tracks = Some(verify(problem, width, &coloring, spans));
            answer.verdict = Verdict::Sat;
            answer.width = width;
        }
        SolveOutcome::Unsat => {
            answer.verdict = Verdict::Unsat;
            answer.width = width;
        }
        SolveOutcome::Unknown(_) => {}
    }
    answer
}

fn count_solver(spans: &mut Spans, solver: &CdclSolver) {
    let s = solver.stats();
    spans.count("solver.conflicts", s.conflicts);
    spans.count("solver.decisions", s.decisions);
    spans.count("solver.propagations", s.propagations);
    spans.count("solver.restarts", s.restarts);
    spans.count("solver.learnt_clauses", s.learnt_clauses);
    spans.count("solver.deleted_clauses", s.deleted_clauses);
    spans.count("solver.gc_runs", s.gc_runs);
    spans.count("solver.sum_lbd", s.sum_lbd);
}

/// Verifies a decoded coloring as a detailed routing, under a span. The
/// oracle re-verifies independently; this mirrors the pipeline's own
/// verify step.
fn verify(
    problem: &RoutingProblem,
    width: u32,
    coloring: &Coloring,
    spans: &mut Spans,
) -> Vec<u32> {
    let t = Instant::now();
    let routing = DetailedRouting::from_tracks(coloring.colors().to_vec());
    problem
        .verify_detailed_routing(&routing, width)
        .expect("decoded routings verify");
    spans.record("fpga.verify", t);
    routing.tracks().to_vec()
}

fn dsatur_bound(graph: &satroute_coloring::CspGraph, spans: &mut Spans) -> u32 {
    let t = Instant::now();
    let upper = dsatur_coloring(graph).max_color().map_or(1, |m| m + 1);
    spans.record("coloring.dsatur", t);
    upper
}

/// `find_min_width` replayed: a DSATUR bound, then one traced
/// fixed-width route per probe, descending until the first UNSAT.
fn traced_cold_ladder(problem: &RoutingProblem, budget: RunBudget, spans: &mut Spans) -> Answer {
    let t = Instant::now();
    let graph = problem.conflict_graph();
    spans.record("fpga.conflict_graph", t);
    let mut width = dsatur_bound(&graph, spans);

    let mut answer = Answer::of(Verdict::Unknown);
    loop {
        spans.begin("ladder.cold_probe");
        let probe = traced_route(problem, width, Strategy::paper_best(), budget, spans);
        spans.end();
        spans.count("ladder.cold_conflicts", probe.conflicts);
        answer.conflicts += probe.conflicts;
        answer.cnf.0 += probe.cnf.0;
        answer.cnf.1 += probe.cnf.1;
        answer.cnf.2 += probe.cnf.2;
        match probe.verdict {
            Verdict::Sat => {
                answer.verdict = Verdict::Sat;
                answer.width = width;
                answer.tracks = probe.tracks;
                if width == 0 {
                    return answer;
                }
                width -= 1;
            }
            Verdict::Unsat => return answer,
            Verdict::Unknown | Verdict::Panicked => return Answer::of(probe.verdict),
        }
    }
}

/// `find_min_width_incremental` replayed: one warm session, probed
/// through `IncrementalSession::probe`, jumping below each model's width.
fn traced_warm_ladder(problem: &RoutingProblem, budget: RunBudget, spans: &mut Spans) -> Answer {
    let t = Instant::now();
    let graph = problem.conflict_graph();
    spans.record("fpga.conflict_graph", t);
    let upper = dsatur_bound(&graph, spans);

    let t = Instant::now();
    let mut session = Strategy::paper_best()
        .incremental(&graph, upper)
        .budget(budget)
        .build();
    spans.record("incremental.build", t);

    let mut answer = Answer::of(Verdict::Unknown);
    let mut width = upper;
    let last: ColoringReport = loop {
        let t = Instant::now();
        let report = session.probe(width);
        spans.record("incremental.probe", t);
        spans.count("incremental.probes", 1);
        match &report.outcome {
            ColoringOutcome::Colorable(coloring) => {
                let used = coloring.max_color().map_or(0, |m| m + 1);
                answer.tracks = Some(verify(problem, used, coloring, spans));
                answer.verdict = Verdict::Sat;
                answer.width = used;
                if used == 0 {
                    break report;
                }
                width = used - 1;
            }
            ColoringOutcome::Unsat => break report,
            ColoringOutcome::Unknown(_) => return Answer::of(Verdict::Unknown),
        }
    };
    answer.conflicts = last.solver_stats.conflicts;
    answer.add_cnf(&last.formula_stats);
    spans.count("incremental.conflicts", answer.conflicts);
    answer
}

/// Process CPU time (user + system, every thread) in seconds, from
/// `/proc/self/stat` at 100 ticks per second; 0 where unavailable.
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

fn coloring_answer(
    inst: &Instance,
    width: u32,
    outcome: &ColoringOutcome,
    spans: &mut Spans,
) -> Answer {
    match outcome {
        ColoringOutcome::Colorable(coloring) => {
            let mut answer = Answer::of(Verdict::Sat);
            answer.width = width;
            answer.tracks = Some(verify(&inst.problem, width, coloring, spans));
            answer
        }
        ColoringOutcome::Unsat => {
            let mut answer = Answer::of(Verdict::Unsat);
            answer.width = width;
            answer
        }
        ColoringOutcome::Unknown(_) => Answer::of(Verdict::Unknown),
    }
}

/// The `prove-parallel` strategy: muldirect without symmetry breaking.
fn parallel_strategy() -> Strategy {
    Strategy::new(EncodingId::Muldirect, SymmetryHeuristic::None)
}

fn portfolio(
    inst: &Instance,
    width: u32,
    budget: RunBudget,
    mode: Mode,
    spans: &mut Spans,
) -> Answer {
    let t = Instant::now();
    let graph = inst.problem.conflict_graph();
    spans.record("fpga.conflict_graph", t);
    let members = Strategy::diversified(parallel_strategy(), THREADS);
    let mut opts = PortfolioOptions::new()
        .with_max_threads(THREADS)
        .with_diversified_configs(true)
        .with_sharing(SharingConfig::default());
    if mode == Mode::Telemetry {
        let (tracer, metrics, flight) = telemetry();
        opts = opts
            .with_tracer(tracer)
            .with_metrics(metrics)
            .with_flight(flight);
    }
    let cpu = cpu_seconds();
    let t = Instant::now();
    let result = run_portfolio_opts(
        &graph,
        width,
        &members,
        &SolverConfig::default(),
        budget,
        None,
        &opts,
    );
    spans.record("core.portfolio", t);
    spans.count_f("parallel.cpu_s", cpu_seconds() - cpu);
    spans.count_f("parallel.wall_s", t.elapsed().as_secs_f64());
    let total = result.total_conflicts();
    spans.count("portfolio.conflicts", total);
    spans.count(
        "portfolio.winner_conflicts",
        result
            .winning_member()
            .map_or(0, |m| m.report.solver_stats.conflicts),
    );
    spans.count("portfolio.imported_clauses", result.total_imported());
    let mut answer = match result.report() {
        Some(report) => coloring_answer(inst, width, &report.outcome, spans),
        None => Answer::of(Verdict::Unknown),
    };
    answer.conflicts = total;
    answer
}

fn conquer(
    inst: &Instance,
    width: u32,
    budget: RunBudget,
    mode: Mode,
    spans: &mut Spans,
) -> Answer {
    let t = Instant::now();
    let graph = inst.problem.conflict_graph();
    spans.record("fpga.conflict_graph", t);
    let mut request = parallel_strategy()
        .cube_and_conquer(&graph, width)
        .cube_vars(3)
        .threads(THREADS)
        .budget(budget);
    if mode == Mode::Telemetry {
        let (tracer, metrics, flight) = telemetry();
        request = request.trace(tracer).metrics(metrics).flight(flight);
    }
    let cpu = cpu_seconds();
    let t = Instant::now();
    let result = request.run();
    spans.record("core.conquer", t);
    spans.count_f("parallel.cpu_s", cpu_seconds() - cpu);
    spans.count_f("parallel.wall_s", t.elapsed().as_secs_f64());
    spans.count("conquer.cubes", result.cubes.len() as u64);
    spans.count("conquer.refuted", result.refuted_at_split);
    spans.count("conquer.cube_space", result.cube_space());
    spans.count("conquer.conflicts", result.total_conflicts());
    let mut answer = coloring_answer(inst, width, &result.outcome, spans);
    answer.conflicts = result.total_conflicts();
    answer.add_cnf(&result.formula_stats);
    answer
}

/// Sequential conflicts of the `prove-parallel` strategy itself on one
/// solver, the base of `conquer.conflict_overhead`; `None` if the cap
/// stopped it.
pub fn sequential_conflicts(inst: &Instance, width: u32) -> Option<u64> {
    let budget = RunBudget::new().with_deadline_at(Instant::now() + REQUEST_CAP);
    let answer = route_answer(
        width,
        RoutingPipeline::new(parallel_strategy())
            .with_budget(budget)
            .route(&inst.problem, width),
    );
    (answer.verdict != Verdict::Unknown).then_some(answer.conflicts)
}

/// One executed request.
#[derive(Clone, Debug)]
pub struct Record {
    /// The request.
    pub request: Request,
    /// Its answer.
    pub answer: Answer,
    /// Wall time of the request.
    pub latency: Duration,
}

/// The oracle's findings over one run.
#[derive(Clone, Debug, Default)]
pub struct Checked {
    /// Per record: failed (capped, panicked or wrong).
    pub failed: Vec<bool>,
    /// One line per wrong answer or panic.
    pub violations: Vec<String>,
}

impl Checked {
    /// Number of failed requests.
    pub fn failures(&self) -> u64 {
        self.failed.iter().filter(|&&f| f).count() as u64
    }
}

/// Checks every answer of a run.
pub fn check(workload: Workload, pool: &[Instance], records: &[Record]) -> Checked {
    let mut out = Checked {
        failed: vec![false; records.len()],
        violations: Vec::new(),
    };
    let violate = |out: &mut Checked, i: usize, why: String| {
        out.failed[i] = true;
        out.violations
            .push(format!("request {i} {:?}: {why}", records[i].request));
    };

    for (i, rec) in records.iter().enumerate() {
        let inst = &pool[rec.request.inst()];
        let a = &rec.answer;
        match a.verdict {
            Verdict::Unknown => out.failed[i] = true,
            Verdict::Panicked => violate(&mut out, i, "panicked".into()),
            Verdict::Sat => {
                let routing = DetailedRouting::from_tracks(a.tracks.clone().unwrap_or_default());
                if let Err(e) = inst.problem.verify_detailed_routing(&routing, a.width) {
                    violate(&mut out, i, format!("routing fails verification: {e}"));
                }
            }
            Verdict::Unsat => {}
        }
        let decided = matches!(a.verdict, Verdict::Sat | Verdict::Unsat);
        match rec.request {
            Request::Route { width, .. }
            | Request::Portfolio { width, .. }
            | Request::Conquer { width, .. } => {
                if a.verdict == Verdict::Sat && width < inst.lower_bound() {
                    violate(
                        &mut out,
                        i,
                        format!("routed below the clique {}", inst.lower_bound()),
                    );
                }
                if a.verdict == Verdict::Unsat && width >= inst.dsatur {
                    violate(
                        &mut out,
                        i,
                        format!("refuted a DSATUR-routable width {width}"),
                    );
                }
            }
            Request::Ladder { .. } => {
                if decided && a.width != inst.width {
                    violate(
                        &mut out,
                        i,
                        format!("minimum width {}, pinned {}", a.width, inst.width),
                    );
                }
                if decided && !(inst.lower_bound()..=inst.dsatur).contains(&a.width) {
                    violate(
                        &mut out,
                        i,
                        format!(
                            "minimum width {} outside [clique {}, DSATUR {}]",
                            a.width,
                            inst.lower_bound(),
                            inst.dsatur
                        ),
                    );
                }
            }
        }
        if decided && a.verdict != workload.expected() {
            violate(
                &mut out,
                i,
                format!(
                    "verdict {:?}, expected {:?}",
                    a.verdict,
                    workload.expected()
                ),
            );
        }
    }

    // Requests on the same instance must agree: every encoding gives one
    // verdict, and warm and cold ladders one minimum width.
    let mut by_inst: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, rec) in records.iter().enumerate() {
        if matches!(rec.answer.verdict, Verdict::Sat | Verdict::Unsat)
            && matches!(rec.request, Request::Route { .. } | Request::Ladder { .. })
        {
            by_inst.entry(rec.request.inst()).or_default().push(i);
        }
    }
    for group in by_inst.values() {
        let key = |i: usize| (records[i].answer.verdict, records[i].answer.width);
        let majority = group
            .iter()
            .map(|&i| key(i))
            .max_by_key(|k| group.iter().filter(|&&j| key(j) == *k).count())
            .expect("groups are non-empty");
        let tie = group.iter().filter(|&&j| key(j) == majority).count() * 2 <= group.len();
        for &i in group {
            if key(i) != majority || (tie && group.len() > 1) {
                violate(
                    &mut out,
                    i,
                    format!(
                        "answer {:?} disagrees with {majority:?} on its instance",
                        key(i)
                    ),
                );
            }
        }
    }
    out
}

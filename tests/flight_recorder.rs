//! Flight-recorder contract tests.
//!
//! Three properties pin the recorder down as pure observability:
//!
//! 1. **Postmortems fire for every budget outcome.** Each
//!    [`StopReason`] variant — conflict, decision and memory caps, a
//!    passed deadline, an external cancellation — must leave a
//!    [`Postmortem`] on the report naming that reason, and a decided
//!    run (or a run with the recorder disabled) must leave none.
//! 2. **A disabled recorder is inert** — no samples, no postmortem,
//!    identical to not passing one at all.
//! 3. **Telemetry never perturbs the search**: for every request
//!    builder, verdicts and conflict, decision and propagation counts are
//!    bit-identical with full telemetry (tracer, registry, recorder and
//!    observer) on or off, the same determinism contract the bench gate
//!    enforces.
//!
//! Plus the exporter round trip: a traced + recorded run's Chrome
//! trace must re-parse as JSON, contain every span exactly once, and
//! keep timestamps monotone per track.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use satroute::coloring::{random_graph, CspGraph};
use satroute::core::{
    run_portfolio_opts, ColoringOutcome, ColoringReport, PortfolioOptions, RoutingPipeline,
    Strategy,
};
use satroute::fpga::benchmarks;
use satroute::obs::{
    chrome_trace, json, BufferSink, FlightRecorder, MetricsRegistry, TraceTree, Tracer,
};
use satroute::solver::{
    CancellationToken, MetricsRecorder, RunBudget, SolverConfig, SolverStats, StopReason, Telemetry,
};

/// A dense 25-vertex graph at an infeasibly low color count: reliably
/// UNSAT and far beyond any of the tiny budgets used below, so every
/// budgeted run genuinely exhausts rather than finishing early.
fn hard_instance() -> (CspGraph, u32) {
    (random_graph(22, 0.5, 3), 4)
}

fn budgeted_run(budget: RunBudget, cancel: Option<CancellationToken>) -> ColoringReport {
    let (g, k) = hard_instance();
    let flight = FlightRecorder::new();
    let mut request = Strategy::paper_best()
        .solve(&g, k)
        .budget(budget)
        .flight(flight);
    if let Some(token) = cancel {
        request = request.cancel(token);
    }
    request.run()
}

#[test]
fn postmortem_names_every_stop_reason() {
    let cancelled = CancellationToken::new();
    cancelled.cancel();
    let cases: Vec<(StopReason, RunBudget, Option<CancellationToken>)> = vec![
        (
            StopReason::ConflictLimit,
            RunBudget::new().with_max_conflicts(5),
            None,
        ),
        (
            StopReason::DecisionLimit,
            RunBudget::new().with_max_decisions(2),
            None,
        ),
        (
            StopReason::MemoryLimit,
            RunBudget::new().with_max_learnt_bytes(1),
            None,
        ),
        (
            StopReason::Deadline,
            RunBudget::new().with_wall(Duration::ZERO),
            None,
        ),
        (StopReason::Cancelled, RunBudget::new(), Some(cancelled)),
    ];
    for (expected, budget, cancel) in cases {
        let report = budgeted_run(budget, cancel);
        assert_eq!(
            report.outcome,
            ColoringOutcome::Unknown(expected),
            "budget did not stop the run with {expected:?}"
        );
        let pm = report
            .postmortem
            .as_ref()
            .unwrap_or_else(|| panic!("{expected:?} run carries no postmortem"));
        assert_eq!(
            pm.stop_reason,
            expected.to_string(),
            "postmortem names the wrong stop reason"
        );
        assert!(
            pm.hottest_phase.is_some(),
            "{expected:?} postmortem lacks a hottest phase"
        );
        // Every stop path passes the finish boundary, which records one
        // last sample even when no conflict interval was ever reached.
        let last = pm
            .last_sample()
            .unwrap_or_else(|| panic!("{expected:?} postmortem carries no samples"));
        assert_eq!(
            last.cause.to_string(),
            "finish",
            "{expected:?}: final sample is not the finish-boundary one"
        );
        // The postmortem renders without panicking and names the reason.
        let text = pm.render_text();
        assert!(
            text.contains(&expected.to_string()),
            "rendered postmortem does not mention {expected}"
        );
    }
}

#[test]
fn decided_runs_and_disabled_recorders_carry_no_postmortem() {
    let (g, k) = hard_instance();

    // Decided outcome (UNSAT, unlimited budget): recorder on, no postmortem.
    let flight = FlightRecorder::new();
    let report = Strategy::paper_best()
        .solve(&g, k)
        .flight(flight.clone())
        .run();
    assert_eq!(report.outcome, ColoringOutcome::Unsat);
    assert!(report.postmortem.is_none(), "decided run grew a postmortem");
    assert!(flight.recorded() > 0, "enabled recorder saw no samples");

    // Budget-exhausted but recorder disabled: no postmortem either.
    let disabled = FlightRecorder::disabled();
    let report = Strategy::paper_best()
        .solve(&g, k)
        .budget(RunBudget::new().with_max_conflicts(5))
        .flight(disabled.clone())
        .run();
    assert!(matches!(report.outcome, ColoringOutcome::Unknown(_)));
    assert!(
        report.postmortem.is_none(),
        "disabled recorder produced a postmortem"
    );
    assert!(!disabled.is_enabled());
    assert_eq!(disabled.recorded(), 0, "disabled recorder counted samples");
    assert!(disabled.samples().is_empty());
}

/// Verdict and work counters of one run: what telemetry must not move.
#[derive(Debug, PartialEq, Eq)]
struct Search {
    verdict: String,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
}

impl Search {
    fn of(verdict: impl std::fmt::Debug, stats: &SolverStats) -> Search {
        Search {
            verdict: format!("{verdict:?}"),
            conflicts: stats.conflicts,
            decisions: stats.decisions,
            propagations: stats.propagations,
        }
    }
}

/// The Mycielski graph M5 at 4 colors: 23 vertices, triangle-free,
/// chromatic number 5. Refuting it takes thousands of conflicts —
/// restarts, reductions, flight samples — on every builder below, yet
/// stays fast unoptimized.
fn perturbation_instance() -> (CspGraph, u32) {
    // Mycielskian step: copy u_i of each v_i joins v_i's neighbours, and
    // a hub joins every copy. Three steps from K2 give M5.
    let mut n = 2u32;
    let mut edges = vec![(0u32, 1u32)];
    for _ in 0..3 {
        let copies: Vec<(u32, u32)> = edges
            .iter()
            .flat_map(|&(a, b)| [(a, n + b), (b, n + a)])
            .collect();
        edges.extend(copies);
        edges.extend((0..n).map(|u| (n + u, 2 * n)));
        n = 2 * n + 1;
    }
    (CspGraph::from_edges(n as usize, edges), 4)
}

/// One run per request builder, under `t`; portfolio and conquer run
/// with sharing off (their default) so their counters are deterministic.
fn builder_runs(t: &Telemetry) -> Vec<(&'static str, Search)> {
    let (g, k) = perturbation_instance();
    let strategy = Strategy::paper_baseline();
    let mut runs = Vec::new();

    let mut solve = strategy
        .solve(&g, k)
        .trace(t.tracer.clone())
        .metrics(t.metrics.clone())
        .flight(t.flight.clone());
    if let Some(observer) = &t.observer {
        solve = solve.observe(observer.clone());
    }
    let report = solve.run();
    runs.push(("solve", Search::of(&report.outcome, &report.solver_stats)));

    let mut builder = strategy
        .incremental(&g, k + 2)
        .trace(t.tracer.clone())
        .metrics(t.metrics.clone())
        .flight(t.flight.clone());
    if let Some(observer) = &t.observer {
        builder = builder.observe(observer.clone());
    }
    let mut session = builder.build();
    let verdicts: Vec<_> = (k..=k + 2).rev().map(|w| session.solve_at(w)).collect();
    runs.push(("incremental", Search::of(verdicts, session.solver_stats())));

    let mut conquer = strategy
        .cube_and_conquer(&g, k)
        .cube_vars(2)
        .threads(2)
        .trace(t.tracer.clone())
        .metrics(t.metrics.clone())
        .flight(t.flight.clone());
    if let Some(observer) = &t.observer {
        conquer = conquer.observe(observer.clone());
    }
    let result = conquer.run();
    for cube in &result.cubes {
        let search = Search::of(&cube.report.outcome, &cube.report.solver_stats);
        runs.push(("conquer cube", search));
    }

    let groups: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v / 3).collect();
    let mut explain = strategy
        .explain(&g, &groups, k)
        .trace(t.tracer.clone())
        .metrics(t.metrics.clone())
        .flight(t.flight.clone());
    if let Some(observer) = &t.observer {
        explain = explain.observe(observer.clone());
    }
    let report = explain.run();
    runs.push(("explain", Search::of(&report.outcome, &report.solver_stats)));

    // One worker runs member 0 to completion first, so its counters do
    // not depend on when the winner cancels the queued member.
    let opts = PortfolioOptions {
        telemetry: t.clone(),
        ..PortfolioOptions::new().with_max_threads(1)
    };
    let members = Strategy::diversified(strategy, 2);
    let result = run_portfolio_opts(
        &g,
        k,
        &members,
        &SolverConfig::default(),
        RunBudget::default(),
        None,
        &opts,
    );
    let first = &result.members[0].report;
    runs.push(("portfolio", Search::of(&first.outcome, &first.solver_stats)));

    let instance = benchmarks::suite_tiny().remove(1);
    let mut pipeline = RoutingPipeline::new(strategy)
        .with_tracer(t.tracer.clone())
        .with_metrics(t.metrics.clone())
        .with_flight(t.flight.clone());
    if let Some(observer) = &t.observer {
        pipeline = pipeline.with_observer(observer.clone());
    }
    let report = pipeline
        .route(&instance.problem, instance.unroutable_width)
        .expect("no budget")
        .report;
    runs.push((
        "pipeline",
        Search::of(&report.outcome, &report.solver_stats),
    ));
    runs
}

#[test]
fn recording_does_not_perturb_the_search() {
    let full = Telemetry {
        tracer: Tracer::to_sink(TraceTree::new()),
        metrics: MetricsRegistry::new(),
        flight: FlightRecorder::new(),
        observer: Some(Arc::new(MetricsRecorder::new())),
    };
    let plain = builder_runs(&Telemetry::default());
    let recorded = builder_runs(&full);
    assert_eq!(plain.len(), recorded.len());
    for ((name, off), (_, on)) in plain.iter().zip(&recorded) {
        assert!(off.conflicts > 0, "{name}: the run must search");
        assert_eq!(off, on, "{name}: telemetry changed the search");
    }
    // Every sink really was fed.
    assert!(full.flight.recorded() > 0);
    assert!(full.metrics.snapshot().counter("solver.conflicts") > Some(0));
}

#[test]
fn chrome_export_round_trips_a_recorded_run() {
    let (g, k) = hard_instance();
    let sink = BufferSink::new();
    let report = Strategy::paper_best()
        .solve(&g, k)
        .trace(Tracer::to_sink(sink.clone()))
        .flight(FlightRecorder::new())
        .run();
    assert_eq!(report.outcome, ColoringOutcome::Unsat);

    let events = sink.events();
    assert!(!events.is_empty(), "traced run produced no events");
    let chrome = chrome_trace(&events).expect("span stream is well-formed");

    // Strict JSON: the serialized artifact re-parses to the same shape.
    let text = chrome.to_json();
    let parsed = json::parse(&text).expect("chrome trace is valid JSON");
    let entries = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("chrome trace carries a traceEvents array");
    assert!(!entries.is_empty());

    // Every span from the source stream appears exactly once (as a
    // complete "X" or unclosed "B" event), and per-track timestamps are
    // monotone — the invariants Perfetto needs to render sanely.
    let mut span_events = 0usize;
    let mut track_clock: HashMap<String, f64> = HashMap::new();
    for entry in entries {
        let ph = entry
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("every event has a phase");
        assert!(
            matches!(ph, "M" | "X" | "B" | "C"),
            "unexpected chrome phase {ph:?}"
        );
        if matches!(ph, "X" | "B") {
            span_events += 1;
        }
        if ph == "M" {
            continue; // metadata events carry no timestamp
        }
        let ts = entry
            .get("ts")
            .and_then(|v| v.as_f64())
            .expect("timed events carry ts");
        let tid = entry
            .get("tid")
            .and_then(|v| v.as_f64())
            .expect("timed events carry tid");
        let key = format!("{ph}:{tid}");
        let clock = track_clock.entry(key).or_insert(0.0);
        assert!(
            ts >= *clock,
            "timestamps regress on track {tid} (phase {ph}): {ts} < {clock}"
        );
        *clock = ts;
    }
    let source_spans = events
        .iter()
        .filter(|e| matches!(e, satroute::obs::TraceEvent::SpanStart { .. }))
        .count();
    assert_eq!(
        span_events, source_spans,
        "chrome trace does not carry every span exactly once"
    );

    // The recorder's samples surfaced as counter tracks.
    assert!(
        entries
            .iter()
            .any(|e| e.get("ph").and_then(|v| v.as_str()) == Some("C")),
        "recorded run exported no counter events"
    );
}

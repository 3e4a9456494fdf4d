//! Self-tests: seeded pools, the pinned pools, a tiny-size smoke run of
//! every workload in both modes, and wrong answers, injected into a run or
//! into the calibration, tripping the oracle.

use std::collections::BTreeSet;
use std::time::Duration;

use satroute_coloring::{dsatur_coloring, Coloring};
use satroute_core::ColoringOutcome;

use crate::gen::{generate, Instance};
use crate::pool::{
    calibration_solves, calibration_strategies, judge, load, parse_pool, Judgement, Solve,
};
use crate::run::{closed_loop, run, Options};
use crate::span::Spans;
use crate::workload::{check, execute, Mode, Request, Scale, Verdict, Workload};

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 3,
        seconds: 0.2,
        trace,
        scale: Scale::Tiny,
        spans_out: None,
    }
}

fn pool(workload: Workload, scale: Scale, seed: u64) -> Vec<Instance> {
    let (pool, violations) = load(workload, scale, seed, &mut Spans::off()).expect("pool loads");
    assert!(violations.is_empty(), "{}: {violations:?}", workload.name());
    pool
}

/// The names listed under `key` in the repository's `BENCHMARK.json`.
fn declared(key: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
    let start = text
        .find(&format!("\"{key}\""))
        .expect("BENCHMARK.json has the key");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("the key holds a list")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("names are strings")].to_string())
        .collect()
}

fn names(outcome: &crate::run::Outcome) -> BTreeSet<String> {
    outcome.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn benchmark_json_lists_the_workloads() {
    let ours: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared("workloads"), ours);
}

#[test]
fn same_seed_same_pool_and_another_seed_another_order() {
    let fingerprints =
        |p: &[Instance]| -> Vec<_> { p.iter().map(|i| (i.fingerprint(), i.width)).collect() };
    for w in Workload::ALL {
        // Tiny runs calibrate their own instances from the seed.
        let (a, b, c) = (
            pool(w, Scale::Tiny, 5),
            pool(w, Scale::Tiny, 5),
            pool(w, Scale::Tiny, 6),
        );
        assert_eq!(fingerprints(&a), fingerprints(&b), "{}", w.name());
        assert_ne!(fingerprints(&a), fingerprints(&c), "{}", w.name());

        // Full runs visit every pinned instance, in an order set by the seed.
        let (file, text) = w.pool_file();
        let pinned = parse_pool(file, text).expect("pool file parses");
        let (a, b, c) = (
            pool(w, Scale::Full, 5),
            pool(w, Scale::Full, 5),
            pool(w, Scale::Full, 6),
        );
        assert_eq!(fingerprints(&a), fingerprints(&b), "{}", w.name());
        assert_ne!(fingerprints(&a), fingerprints(&c), "{}", w.name());
        let set = |p: &[Instance]| -> BTreeSet<_> { fingerprints(p).into_iter().collect() };
        assert_eq!(set(&a), set(&c), "{}", w.name());
        assert_eq!(a.len(), pinned.len(), "{}", w.name());
    }
}

#[test]
fn pinned_proofs_still_hold() {
    // A few pinned entries of each proving pool, re-solved by every
    // calibration strategy: all must still refute the width below DSATUR.
    for w in [Workload::ProveSweep, Workload::MinWidth] {
        let (file, text) = w.pool_file();
        let entries = parse_pool(file, text).expect("pool file parses");
        for entry in &entries[..3] {
            let inst = generate(w.spec(Scale::Full), entry.seed, &mut Spans::off()).expect("fits");
            assert_eq!(inst.fingerprint(), entry.fingerprint);
            let solves = calibration_solves(&inst, inst.dsatur - 1, &mut Spans::off());
            assert!(
                solves.iter().all(|s| s.outcome == ColoringOutcome::Unsat),
                "{file}: {}",
                entry.line()
            );
        }
    }
}

#[test]
fn every_workload_passes_a_tiny_untraced_run() {
    let declared = declared("end_to_end");
    for w in Workload::ALL {
        let out = run(&tiny(w, false)).expect("tiny instances generate");
        assert!(out.correct, "{}: {:?}", w.name(), out.notes);
        assert_eq!(out.failed, 0, "{}", w.name());
        assert!(out.attempted >= 1);
        assert_eq!(names(&out), declared);
        for m in &out.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }
    }
}

#[test]
fn every_workload_passes_a_tiny_traced_run() {
    let declared = declared("per_layer");
    for w in Workload::ALL {
        let out = run(&tiny(w, true)).expect("tiny instances generate");
        assert!(out.correct, "{}: {:?}", w.name(), out.notes);
        assert_eq!(out.failed, 0, "{}", w.name());
        assert_eq!(names(&out), declared);
        let value = |name: &str| {
            out.metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("declared metric")
        };
        let ran = |layer: &str| value(layer) > 0.0;
        assert!(ran("fpga.netlist_s") && ran("fpga.conflict_edges"));
        match w {
            Workload::ProveSweep | Workload::RouteLarge => {
                assert!(ran("encode.s") && ran("solver.search_s") && ran("encode.clauses"));
            }
            Workload::MinWidth => {
                assert!(ran("incremental.probe_s") && ran("ladder.cold_probe_s"));
                assert!(ran("coloring.ladder_dsatur_s"));
            }
            Workload::ProveParallel => assert!(ran("portfolio.s") && ran("conquer.s")),
        }
    }
}

#[test]
fn an_injected_wrong_verdict_trips_the_oracle() {
    for w in Workload::ALL {
        let pool = pool(w, Scale::Tiny, 3);
        let (mut records, _) = closed_loop(w, &pool, Duration::from_millis(50), |_| {});
        assert!(
            check(w, &pool, &records).violations.is_empty(),
            "{}",
            w.name()
        );

        let answer = &mut records[0].answer;
        answer.verdict = match answer.verdict {
            Verdict::Sat => Verdict::Unsat,
            _ => Verdict::Sat,
        };
        let checked = check(w, &pool, &records);
        assert!(checked.failed[0], "{}", w.name());
        assert!(!checked.violations.is_empty(), "{}", w.name());
    }
}

#[test]
fn an_answer_against_the_pinned_verdict_trips_the_oracle() {
    // Pin a routable width on a proving instance: the program's own answer
    // now contradicts the pinned refutation.
    let w = Workload::ProveSweep;
    let mut pool = pool(w, Scale::Full, 1000);
    pool[0].width = pool[0].dsatur;
    let request = w.request(&pool, 0);
    let answer = execute(request, &pool, Mode::Plain, &mut Spans::off());
    assert_eq!(answer.verdict, Verdict::Sat);
    let records = [crate::workload::Record {
        request,
        answer,
        latency: Duration::ZERO,
    }];
    let checked = check(w, &pool, &records);
    assert!(checked.failed[0] && !checked.violations.is_empty());
}

#[test]
fn a_disagreeing_calibration_verdict_is_a_violation() {
    let w = Workload::ProveSweep;
    let inst = &pool(w, Scale::Tiny, 3)[0];
    let refuted = inst.dsatur - 1;
    let solves = calibration_solves(inst, refuted, &mut Spans::off());
    assert_eq!(
        judge(w, Scale::Tiny, inst, refuted, &solves),
        Judgement::Accept
    );

    // One strategy "routes" the refuted width: its routing cannot verify.
    let mut wrong = solves.clone();
    wrong[1].outcome =
        ColoringOutcome::Colorable(Coloring::from_colors(vec![0; inst.graph.num_vertices()]));
    assert!(matches!(
        judge(w, Scale::Tiny, inst, refuted, &wrong),
        Judgement::Violation(_)
    ));

    // At DSATUR the DSATUR routing verifies; one strategy refuting the
    // width disagrees with every other.
    let routable = inst.dsatur;
    let coloring = dsatur_coloring(&inst.graph);
    let mut disagree: Vec<Solve> = calibration_strategies()
        .into_iter()
        .map(|strategy| Solve {
            strategy,
            outcome: ColoringOutcome::Colorable(coloring.clone()),
            conflicts: 0,
        })
        .collect();
    assert_eq!(
        judge(w, Scale::Tiny, inst, routable, &disagree),
        Judgement::Reject
    );
    disagree[2].outcome = ColoringOutcome::Unsat;
    assert!(matches!(
        judge(w, Scale::Tiny, inst, routable, &disagree),
        Judgement::Violation(_)
    ));
}

#[test]
fn a_corrupted_routing_or_ladder_width_trips_the_oracle() {
    let w = Workload::RouteLarge;
    let pool_r = pool(w, Scale::Tiny, 3);
    let (mut records, _) = closed_loop(w, &pool_r, Duration::from_millis(50), |_| {});
    if let Some(tracks) = records[0].answer.tracks.as_mut() {
        tracks.iter_mut().for_each(|t| *t = 0);
    }
    assert!(check(w, &pool_r, &records).failed[0]);

    let w = Workload::MinWidth;
    let pool_m = pool(w, Scale::Tiny, 3);
    let (mut records, _) = closed_loop(w, &pool_m, Duration::from_millis(50), |_| {});
    assert!(records.len() >= 2, "a cold and a warm ladder");
    records[1].answer.width += 1;
    let checked = check(w, &pool_m, &records);
    assert!(checked.failed[1] && !checked.violations.is_empty());
}

#[test]
fn a_panicking_request_fails_alone() {
    let w = Workload::ProveSweep;
    let pool = pool(w, Scale::Tiny, 3);
    let out_of_range = Request::Ladder {
        inst: pool.len(),
        warm: false,
    };
    let answer = execute(out_of_range, &pool, Mode::Plain, &mut Spans::off());
    assert_eq!(answer.verdict, Verdict::Panicked);
    let next = execute(w.request(&pool, 0), &pool, Mode::Plain, &mut Spans::off());
    assert_eq!(next.verdict, Verdict::Unsat);
}

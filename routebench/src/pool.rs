//! Instance pools: the instances each workload measures, pinned in a file,
//! and the calibration that pins them.
//!
//! A pool file under `pools/` holds one line per instance: its netlist
//! seed, the channel width its requests ask for, and a fingerprint of its
//! conflict graph. A run regenerates every pinned instance, in an order
//! its `--seed` picks, checks each fingerprint, and never solves during
//! set-up, so the instances a run measures do not depend on the solver
//! under test: a change to the search shows in the figures instead of
//! moving the pool.
//!
//! The calibration writes the files. It draws seeded candidates and keeps
//! those whose proofs cost about the same (see [`judge`]); run it with
//! `routebench --calibrate <workload> --count <n> --seed <s>`. Every
//! strategy's answer on every candidate is checked on the way, so a wrong
//! answer is reported, never quietly filtered out.

use std::ops::RangeInclusive;
use std::time::Instant;

use satroute_core::{ColoringOutcome, EncodingId, Strategy, SymmetryHeuristic};
use satroute_fpga::DetailedRouting;
use satroute_solver::RunBudget;

use crate::gen::{generate, mix, GenError, Instance};
use crate::span::Spans;
use crate::workload::{Scale, Workload, ROUTE_SPARE, THREADS};

/// Conflicts within which every calibration strategy must refute
/// W = DSATUR − 1.
pub const PROVE_CAP: u64 = 5000;

/// Conflicts ITE-log-2+muldirect may need to refute W = DSATUR − 1.
pub const PROVE_BAND: RangeInclusive<u64> = 400..=1500;

/// Conflicts ITE-linear-2+muldirect/s1 may need to refute W = DSATUR − 1
/// for `min-width`: that refutation is most of a ladder's cost, and it
/// varies more between instances than any other calibrated solve.
pub const LADDER_BAND: RangeInclusive<u64> = 100..=400;

/// Instances a tiny-scale run calibrates for itself.
const TINY_POOL: usize = 4;

/// Candidates drawn per calibration batch.
const BATCH: usize = 64;

/// Candidates the calibration draws before it gives up.
const MAX_DRAWN: usize = 40_000;

const PROVE_FILE: &str = include_str!("../pools/prove.txt");
const LADDER_FILE: &str = include_str!("../pools/ladder.txt");
const ROUTE_FILE: &str = include_str!("../pools/route.txt");

/// One pinned instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    /// The netlist seed.
    pub seed: u64,
    /// The channel width requests ask for: the width `prove-sweep` and
    /// `prove-parallel` refute, `route-large` routes, or `min-width`'s
    /// minimum.
    pub width: u32,
    /// [`Instance::fingerprint`] of the generated instance.
    pub fingerprint: (usize, usize, u64),
}

impl Entry {
    fn of(seed: u64, inst: &Instance) -> Entry {
        Entry {
            seed,
            width: inst.width,
            fingerprint: inst.fingerprint(),
        }
    }

    /// The entry as one pool file line.
    pub fn line(&self) -> String {
        let (vertices, edges, hash) = self.fingerprint;
        format!(
            "{} {} {vertices} {edges} {hash:016x}",
            self.seed, self.width
        )
    }

    fn parse(line: &str) -> Option<Entry> {
        let mut fields = line.split_whitespace();
        let mut next = || fields.next();
        let entry = Entry {
            seed: next()?.parse().ok()?,
            width: next()?.parse().ok()?,
            fingerprint: (
                next()?.parse().ok()?,
                next()?.parse().ok()?,
                u64::from_str_radix(next()?, 16).ok()?,
            ),
        };
        next().is_none().then_some(entry)
    }
}

/// The entries of a pool file; `#` starts a comment line.
pub fn parse_pool(file: &'static str, text: &str) -> Result<Vec<Entry>, GenError> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|(i, l)| Entry::parse(l).ok_or(GenError::PoolFile { file, line: i + 1 }))
        .collect()
}

/// The indices below `n` in an order fixed by `seed`: a seeded
/// Fisher–Yates shuffle.
pub fn shuffled(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in 0..n.saturating_sub(1) {
        let j = i + (mix(seed, i as u64) % (n - i) as u64) as usize;
        order.swap(i, j);
    }
    order
}

impl Workload {
    /// The pool file: `prove-sweep` and `prove-parallel` share theirs.
    pub fn pool_file(self) -> (&'static str, &'static str) {
        match self {
            Workload::ProveSweep | Workload::ProveParallel => ("pools/prove.txt", PROVE_FILE),
            Workload::MinWidth => ("pools/ladder.txt", LADDER_FILE),
            Workload::RouteLarge => ("pools/route.txt", ROUTE_FILE),
        }
    }

    /// Seed stream of the candidates and of the pool order.
    /// `prove-parallel` shares `prove-sweep`'s, so both visit the same
    /// instances in the same order for a seed.
    fn stream(self) -> u64 {
        match self {
            Workload::ProveSweep | Workload::ProveParallel => 1,
            Workload::RouteLarge => 2,
            Workload::MinWidth => 3,
        }
    }

    /// The netlist seed of calibration candidate `index` for `seed`.
    pub fn candidate_seed(self, seed: u64, index: usize) -> u64 {
        mix(mix(seed, self.stream()), index as u64)
    }

    /// The DSATUR bound the calibration requires. It fixes the channel
    /// width of each request, which sets most of a request's cost; 7 and
    /// 25 are the most common bounds of the two instance families.
    pub fn dsatur_target(self, scale: Scale) -> Option<u32> {
        match (self, scale) {
            (_, Scale::Tiny) => None,
            (Workload::RouteLarge, Scale::Full) => Some(25),
            (_, Scale::Full) => Some(7),
        }
    }

    /// The width calibration pins for `inst`, or `None` when a cheap check
    /// already rules it out: the DSATUR target and, for the proving
    /// workloads, a known clique that refutes DSATUR − 1 (below a clique
    /// the formula is a pigeonhole formula no encoding without symmetry
    /// breaking refutes in reasonable time).
    fn width_for(self, inst: &Instance, scale: Scale) -> Option<u32> {
        if self.dsatur_target(scale).is_some_and(|d| d != inst.dsatur) {
            return None;
        }
        match self {
            Workload::RouteLarge => Some(inst.dsatur + ROUTE_SPARE),
            _ if inst.lower_bound() >= inst.dsatur => None,
            Workload::MinWidth => Some(inst.dsatur),
            Workload::ProveSweep | Workload::ProveParallel => Some(inst.dsatur - 1),
        }
    }
}

/// One calibration solve: a strategy's answer at W = DSATUR − 1.
#[derive(Clone, Debug)]
pub struct Solve {
    /// The strategy.
    pub strategy: Strategy,
    /// Its answer.
    pub outcome: ColoringOutcome,
    /// Conflicts it took.
    pub conflicts: u64,
}

/// What the calibration makes of one candidate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Judgement {
    /// The candidate joins the pool.
    Accept,
    /// Routable at the refuted width, stopped by the cap, or outside a
    /// conflict band.
    Reject,
    /// A wrong answer: strategies disagree, or a routing fails to verify.
    Violation(String),
}

/// The strategies the calibration runs, in order: ITE-log-2+muldirect (the
/// fastest encoding here, whose conflicts must lie in [`PROVE_BAND`]), the
/// other encodings without symmetry breaking, and last the ladders' own
/// ITE-linear-2+muldirect/s1.
pub fn calibration_strategies() -> Vec<Strategy> {
    let proxy = Strategy::new(EncodingId::IteLog2Muldirect, SymmetryHeuristic::None);
    let others = EncodingId::ALL
        .into_iter()
        .map(|e| Strategy::new(e, SymmetryHeuristic::None))
        .filter(|&s| s != proxy);
    std::iter::once(proxy)
        .chain(others)
        .chain([Strategy::paper_best()])
        .collect()
}

/// Judges a proving candidate from its [`calibration_strategies`] solves
/// at `refuted` = DSATUR − 1.
///
/// Every routing must verify, and no two strategies may disagree; either
/// fault is a [`Judgement::Violation`]. Otherwise the candidate is
/// accepted only when every strategy refutes the width, the first within
/// [`PROVE_BAND`] conflicts at full scale (enough that the proof takes
/// real search, few enough that pooled instances cost about the same), and
/// for `min-width` the last within [`LADDER_BAND`]. Unrestricted,
/// refutation costs span four orders of magnitude, and one unlucky
/// (instance, encoding) pair in a thousand can take a tenth of a run.
pub fn judge(
    workload: Workload,
    scale: Scale,
    inst: &Instance,
    refuted: u32,
    solves: &[Solve],
) -> Judgement {
    for solve in solves {
        if let ColoringOutcome::Colorable(coloring) = &solve.outcome {
            let routing = DetailedRouting::from_tracks(coloring.colors().to_vec());
            if let Err(e) = inst.problem.verify_detailed_routing(&routing, refuted) {
                return Judgement::Violation(format!(
                    "{} routes W = {refuted} with a routing that fails verification: {e}",
                    solve.strategy
                ));
            }
        }
    }
    let proved = solves.iter().find(|s| s.outcome == ColoringOutcome::Unsat);
    let routed = solves
        .iter()
        .find(|s| matches!(s.outcome, ColoringOutcome::Colorable(_)));
    match (proved, routed) {
        (Some(p), Some(r)) => {
            return Judgement::Violation(format!(
                "{} proves W = {refuted} unroutable but {} routes it",
                p.strategy, r.strategy
            ))
        }
        (Some(p), None) if refuted >= inst.dsatur => {
            return Judgement::Violation(format!(
                "{} proves W = {refuted} unroutable, but DSATUR routes it with {}",
                p.strategy, inst.dsatur
            ))
        }
        _ => {}
    }
    let conflicts = |s: Option<&Solve>| s.map_or(0, |s| s.conflicts);
    let in_bands = scale == Scale::Tiny
        || (PROVE_BAND.contains(&conflicts(solves.first()))
            && (workload != Workload::MinWidth || LADDER_BAND.contains(&conflicts(solves.last()))));
    let all_refute =
        !solves.is_empty() && solves.iter().all(|s| s.outcome == ColoringOutcome::Unsat);
    if all_refute && in_bands {
        Judgement::Accept
    } else {
        Judgement::Reject
    }
}

/// Every [`calibration_strategies`] solve at `refuted`, each capped at
/// [`PROVE_CAP`] conflicts.
pub fn calibration_solves(inst: &Instance, refuted: u32, spans: &mut Spans) -> Vec<Solve> {
    calibration_strategies()
        .into_iter()
        .map(|strategy| {
            let t = Instant::now();
            let report = strategy
                .solve(&inst.graph, refuted)
                .budget(RunBudget::new().with_max_conflicts(PROVE_CAP))
                .run();
            spans.record("calibrate.solve", t);
            Solve {
                strategy,
                outcome: report.outcome,
                conflicts: report.solver_stats.conflicts,
            }
        })
        .collect()
}

/// Judges a candidate that passed the cheap checks; `route-large`
/// candidates need no solve.
fn calibrate_one(
    workload: Workload,
    scale: Scale,
    inst: &Instance,
    spans: &mut Spans,
) -> Judgement {
    if workload == Workload::RouteLarge {
        return Judgement::Accept;
    }
    let refuted = inst.dsatur - 1;
    let solves = calibration_solves(inst, refuted, spans);
    judge(workload, scale, inst, refuted, &solves)
}

/// A calibration's result.
#[derive(Debug)]
pub struct Calibrated {
    /// The accepted instances, in candidate order, widths pinned.
    pub instances: Vec<Instance>,
    /// Their pool entries.
    pub entries: Vec<Entry>,
    /// One line per wrong answer met on the way.
    pub violations: Vec<String>,
    /// Candidates drawn.
    pub drawn: usize,
}

/// Draws candidates for `seed` in index order, on [`THREADS`] threads, and
/// keeps the first `count` the workload accepts.
///
/// # Errors
///
/// Fails when generation fails or [`MAX_DRAWN`] candidates give fewer
/// than `count` instances.
pub fn calibrate(
    workload: Workload,
    scale: Scale,
    seed: u64,
    count: usize,
    spans: &mut Spans,
) -> Result<Calibrated, GenError> {
    let spec = workload.spec(scale);
    let mut out = Calibrated {
        instances: Vec::new(),
        entries: Vec::new(),
        violations: Vec::new(),
        drawn: 0,
    };
    while out.instances.len() < count {
        if out.drawn >= MAX_DRAWN {
            return Err(GenError::Exhausted { drawn: out.drawn });
        }
        let start = out.drawn;
        let locals: Vec<Spans> = (0..THREADS).map(|_| spans.fork()).collect();
        let results: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = locals
                .into_iter()
                .enumerate()
                .map(|(k, mut local)| {
                    scope.spawn(move || {
                        let mut judged = Vec::new();
                        for index in (start + k..start + BATCH).step_by(THREADS) {
                            let netlist_seed = workload.candidate_seed(seed, index);
                            let mut inst = generate(spec, netlist_seed, &mut local)?;
                            let Some(width) = workload.width_for(&inst, scale) else {
                                continue;
                            };
                            inst.width = width;
                            let judgement = calibrate_one(workload, scale, &inst, &mut local);
                            judged.push((index, netlist_seed, inst, judgement));
                        }
                        Ok::<_, GenError>((judged, local))
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("calibration does not panic"))
                .collect()
        });
        let mut judged = Vec::new();
        for result in results {
            let (found, local) = result?;
            judged.extend(found);
            spans.absorb(local);
        }
        judged.sort_by_key(|&(index, ..)| index);
        for (index, netlist_seed, inst, judgement) in judged {
            match judgement {
                Judgement::Accept if out.instances.len() < count => {
                    out.entries.push(Entry::of(netlist_seed, &inst));
                    out.instances.push(inst);
                }
                Judgement::Violation(why) => out.violations.push(format!(
                    "candidate {index} (netlist seed {netlist_seed}): {why}"
                )),
                _ => {}
            }
        }
        out.drawn += BATCH;
    }
    Ok(out)
}

/// Set-up: the instances a run measures, and any wrong answer met while
/// finding them.
///
/// At full scale these are all entries of the pool file, in an order
/// fixed by `seed`, each regenerated and checked against its fingerprint.
/// Every run measures the same instances: when a seed picked a subset,
/// the subset's mix of hard instances moved `prove-parallel`'s tail
/// latency by a quarter from seed to seed. Tiny runs, which only the self-tests make,
/// calibrate a small pool of their own from `seed`.
///
/// # Errors
///
/// Fails when generation fails, the pool file does not parse, or an entry
/// no longer generates the instance it pins.
pub fn load(
    workload: Workload,
    scale: Scale,
    seed: u64,
    spans: &mut Spans,
) -> Result<(Vec<Instance>, Vec<String>), GenError> {
    if scale == Scale::Tiny {
        let calibrated = calibrate(workload, scale, seed, TINY_POOL, spans)?;
        return Ok((calibrated.instances, calibrated.violations));
    }
    let (file, text) = workload.pool_file();
    let entries = parse_pool(file, text)?;
    if entries.is_empty() {
        return Err(GenError::EmptyPool { file });
    }
    let spec = workload.spec(scale);
    let pool = shuffled(mix(seed, workload.stream()), entries.len())
        .into_iter()
        .map(|i| {
            let entry = entries[i];
            let mut inst = generate(spec, entry.seed, spans)?;
            let found = inst.fingerprint();
            if found != entry.fingerprint {
                return Err(GenError::Stale {
                    seed: entry.seed,
                    pinned: entry.fingerprint,
                    found,
                });
            }
            inst.width = entry.width;
            Ok(inst)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((pool, Vec::new()))
}

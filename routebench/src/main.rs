//! `routebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints diagnostics on standard error and, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when a check fails and 2 on bad arguments or when
//! set-up fails.
//!
//! `routebench --calibrate <name> --count <n> --seed <s>` instead searches
//! candidates for a new pool and prints the pool file; it exits 1 when a
//! strategy answered wrongly on the way.

use std::path::PathBuf;
use std::process::ExitCode;

use satroute_routebench::pool::calibrate;
use satroute_routebench::run::{run, Options};
use satroute_routebench::span::Spans;
use satroute_routebench::workload::{Scale, Workload};

const USAGE: &str = "usage: routebench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       routebench --calibrate <name> --count <n> --seed <s>";

/// What the command line asks for.
enum Command {
    Run(Options),
    Calibrate {
        workload: Workload,
        seed: u64,
        count: usize,
    },
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut calibrating = false;
    let mut count = None;
    let mut seed = 1000;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--calibrate" => {
                calibrating = flag == "--calibrate";
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--count" => count = Some(value.parse().map_err(|_| format!("bad count {value}"))?),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if calibrating {
        let count = count.ok_or("--calibrate needs --count")?;
        return Ok(Command::Calibrate {
            workload,
            seed,
            count,
        });
    }
    let spans_out = trace.then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{seed}.jsonl", workload.name()))
    });
    Ok(Command::Run(Options {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        spans_out,
    }))
}

fn run_benchmark(opts: &Options) -> ExitCode {
    let outcome = match run(opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("routebench: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &outcome.notes {
        eprintln!("{note}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_calibration(workload: Workload, seed: u64, count: usize) -> ExitCode {
    let calibrated = match calibrate(workload, Scale::Full, seed, count, &mut Spans::off()) {
        Ok(calibrated) => calibrated,
        Err(e) => {
            eprintln!("routebench: calibration failed: {e}");
            return ExitCode::from(2);
        }
    };
    if !calibrated.violations.is_empty() {
        for violation in &calibrated.violations {
            eprintln!("{violation}");
        }
        eprintln!(
            "routebench: {} wrong answers among {} candidates; no pool written",
            calibrated.violations.len(),
            calibrated.drawn
        );
        return ExitCode::from(1);
    }
    let spec = workload.spec(Scale::Full);
    println!(
        "# {} pool: {}x{} fabric, {} nets; {count} of {} candidates accepted.",
        workload.name(),
        spec.grid.0,
        spec.grid.1,
        spec.nets,
        calibrated.drawn
    );
    println!(
        "# Written by `routebench --calibrate {} --count {count} --seed {seed}`.",
        workload.name()
    );
    println!("# netlist-seed width vertices edges edge-hash");
    for entry in &calibrated.entries {
        println!("{}", entry.line());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Run(opts)) => run_benchmark(&opts),
        Ok(Command::Calibrate {
            workload,
            seed,
            count,
        }) => run_calibration(workload, seed, count),
        Err(e) => {
            eprintln!("routebench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

//! One benchmark command for the PDC-Query service.
//!
//! ```text
//! pdc-perfbench --workload <paper-mix|ingest-outofcore|serve-tenants>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from the seed, sets up (generate,
//! import, warm up) several times, measures for about `--seconds`
//! seconds, checks every answer against a naive filter over the
//! generated arrays and checks the workload's guards. With `--trace 0`
//! it reports the end-to-end metrics; with `--trace 1` it records spans
//! and reports the per-layer metrics. The last line of standard output
//! is the JSON result; the exit code is non-zero when an answer is wrong
//! or a guard fails. See README.md for the workloads and the metrics.

mod closed_loop;
mod host;
mod ingest;
mod layers;
mod paper_mix;
mod report;
mod serve;
mod trace;
mod world;

use report::Metrics;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

const USAGE: &str = "usage: pdc-perfbench --workload <paper-mix|ingest-outofcore|serve-tenants> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Run-time outputs, spans and spill files live here, under the
/// directory the benchmark is started from.
const OUT_DIR: &str = ".bench_out";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a workload run produced.
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer ones (traced run).
    pub metrics: Metrics,
    pub attempted: u64,
    /// Operations that returned a typed error instead of an answer.
    pub errors: u64,
    /// Operations whose answer disagrees with the oracle.
    pub wrong: u64,
    /// Workload guards: `(description, held)`.
    pub guards: Vec<(String, bool)>,
}

/// A directory removed, with everything in it, when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    fn new(path: PathBuf) -> std::io::Result<TempDir> {
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    host::steady_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "paper-mix" => paper_mix::run,
        "ingest-outofcore" => ingest::run,
        "serve-tenants" => serve::run,
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Spill files of this run only; removed at exit, also on a failed run.
    let scratch = match TempDir::new(Path::new(OUT_DIR).join(format!("run-{}", std::process::id())))
    {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot create {OUT_DIR}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut tr = Tracer::new();
    let outcome = run(&args, &mut tr, &scratch);
    drop(scratch);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    if args.trace {
        let stem = format!("{OUT_DIR}/spans-{}-seed{}", args.workload, args.seed);
        let (spans, summary) = (format!("{stem}.tsv"), format!("{stem}-summary.tsv"));
        if let Err(e) = tr.write(Path::new(&spans), Path::new(&summary)) {
            eprintln!("cannot write spans: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "spans: {} written to {spans} (per-name self time in {summary})",
            tr.num_spans()
        );
    }

    let failed = outcome.errors + outcome.wrong;
    println!(
        "{} seed {}: {} operations, {} errors, {} wrong answers",
        args.workload, args.seed, outcome.attempted, outcome.errors, outcome.wrong
    );
    for (what, held) in &outcome.guards {
        println!("  guard {}: {what}", if *held { "ok  " } else { "FAIL" });
    }
    outcome.metrics.print();
    // A typed error is a failed operation, counted and reported; only a
    // wrong answer or a failed guard makes the run incorrect.
    let correct = outcome.wrong == 0 && outcome.guards.iter().all(|(_, held)| *held);
    println!(
        "{}",
        outcome
            .metrics
            .result_line(correct, outcome.attempted, failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

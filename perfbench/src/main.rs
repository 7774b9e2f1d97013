//! `qma-perfbench`: the repository's repeatable benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hidden3|grid10k|dsme91|campaign> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds` host seconds and prints a table
//! (provenance, correctness, every metric with unit and direction)
//! followed by one JSON line: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics of a traced run with `--trace 1`. See
//! `README.md` beside this crate for the metrics and workloads.

mod clock;
mod layers;
mod report;
mod sims;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Ctx, Workload};

const USAGE: &str = "usage: qma-perfbench --workload <hidden3|grid10k|dsme91|campaign> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The validated command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds ≤ 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Fails, as it should, while another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qma-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let start = clock::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Scratch lives inside the checkout the benchmark was built from.
    let work = WorkDir(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{}-{}", args.workload.name(), std::process::id())),
    );
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("qma-perfbench: create {}: {e}", work.0.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
        work_dir: work.0.clone(),
        start,
    };
    let (report, wall_s) = clock::timed(|| workloads::run(args.workload, &ctx));
    let mut header = vec![
        ("workload".to_string(), args.workload.name().to_string()),
        ("seed".to_string(), args.seed.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("wall".to_string(), format!("{wall_s:.2} s")),
    ];
    header.extend(report::provenance(nproc));
    report.print(&header);
    ExitCode::SUCCESS
}

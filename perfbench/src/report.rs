//! The report: a human-readable table with provenance, then one JSON
//! line with the metrics the run was asked for.

use std::process::{Command, Stdio};

use crate::clock::Samples;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The reported value.
    pub value: f64,
    /// The samples behind a timing, whose median, tail and count the
    /// table prints beside the value.
    pub samples: Option<Samples>,
}

impl Metric {
    /// A timing reported as `value`, with the samples it came from.
    pub fn timing(
        name: &str,
        unit: &'static str,
        better: Better,
        value: f64,
        samples: Samples,
    ) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            better,
            value,
            samples: Some(samples),
        }
    }

    /// A single value.
    pub fn value(name: &str, unit: &'static str, better: Better, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            better,
            value,
            samples: None,
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (replications, campaign runs) attempted.
    pub attempted: u64,
    /// Operations that failed: panicked, or broke the correctness gate.
    pub failed: u64,
    /// Why operations failed.
    pub failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable table.
    pub notes: Vec<String>,
}

impl Report {
    /// Records one attempted operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Records one attempted operation that failed, and why.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Adds a metric.
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// The run passed the correctness gate.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Prints the table, then the JSON result as the last line.
    pub fn print(&self, header: &[(String, String)]) {
        for (k, v) in header {
            println!("# {k}: {v}");
        }
        println!(
            "# operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for f in &self.failures {
            println!("# FAILED: {f}");
        }
        for n in &self.notes {
            println!("# {n}");
        }
        println!(
            "{:<34} {:>16} {:<9} {:<7} samples",
            "metric", "value", "unit", "better"
        );
        for m in &self.metrics {
            let better = match m.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            let spread = match &m.samples {
                Some(s) => {
                    let tail = s
                        .tail()
                        .map_or(String::new(), |(p, v)| format!(", p{p} {}", num(v)));
                    format!("n={}, median {}{tail}", s.len(), num(s.median()))
                }
                None => String::new(),
            };
            println!(
                "{:<34} {:>16} {:<9} {:<7} {spread}",
                m.name,
                num(m.value),
                m.unit,
                better
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn num(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// A JSON number with every digit the measurement has (`null` is never
/// produced: non-finite values become 0 and fail the gate upstream).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// First line of a command's standard output, if it ran.
fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (out.status.success() && !line.is_empty()).then_some(line)
}

/// Git revision, toolchain, core count and host of this run.
pub fn provenance(nproc: usize) -> Vec<(String, String)> {
    let cwd = std::env::current_dir().unwrap_or_default();
    // Look for a repository in the working directory only, never above.
    let ceiling = cwd.parent().map(|p| p.as_os_str().to_owned());
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Some(c) = ceiling {
        git.env("GIT_CEILING_DIRECTORIES", c);
    }
    let rev = first_line(&mut git).unwrap_or_else(|| "unknown (not a git checkout)".into());
    let rustc = first_line(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .map(|h| h.trim().to_string())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("git rev".into(), rev),
        ("rustc".into(), rustc),
        ("nproc".into(), nproc.to_string()),
        ("host".into(), host),
    ]
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
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

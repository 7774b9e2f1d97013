//! The declarative experiment-campaign engine.
//!
//! A campaign is a spec file ([`spec`]) naming a scenario and a
//! parameter grid; the engine expands it into a deterministic
//! config × replication matrix ([`grid`]), fans the replications out
//! over the worker pool with content-addressed seed streams, folds
//! results into streaming aggregates ([`agg`]) and emits one CSV and
//! one JSON artifact per campaign ([`artifact`]).
//!
//! Guarantees:
//!
//! * **Determinism** — a fixed master seed produces byte-identical
//!   artifacts, independent of thread count, of axis/value ordering
//!   in the spec, and of how often the campaign was interrupted and
//!   resumed (seeds are content-addressed per config, results folded
//!   in replication order, artifacts carry no wall-clock values).
//! * **Resumability** — the CSV is rewritten after every completed
//!   configuration; on restart, configs whose rows already exist
//!   (under the same scenario, master seed and replication count)
//!   are skipped and their rows re-emitted verbatim.

pub mod agg;
pub mod artifact;
pub mod durable;
pub mod fabric;
pub mod grid;
pub mod spec;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Duration;

use qma_scenarios::{run_scenario, RunMetrics, ScenarioKind, ScenarioParams};
use rayon::prelude::*;

use crate::runner::{panic_message, run_with_watchdog, Parallelism, WatchdogError};
use agg::ConfigAggregate;
use artifact::{ArtifactRow, CampaignMeta};
use grid::ConfigPoint;
use spec::CampaignSpec;

/// Execution options shared by the single-process runner and the
/// distributed fabric workers.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignOptions {
    /// Replication execution mode within one configuration.
    pub mode: Parallelism,
    /// Per-replication wall-clock watchdog: a replication that takes
    /// longer becomes a [`FailedRep`] (with its reproduction seed)
    /// instead of hanging the campaign. `None` disables the watchdog
    /// — and with it the per-replication helper-thread hop.
    pub rep_timeout: Option<Duration>,
}

impl From<Parallelism> for CampaignOptions {
    fn from(mode: Parallelism) -> CampaignOptions {
        CampaignOptions {
            mode,
            rep_timeout: None,
        }
    }
}

/// What one [`run_campaign`] call did.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Configurations actually simulated in this invocation.
    pub executed: usize,
    /// Configurations skipped because their artifact rows existed.
    pub skipped: usize,
    /// Configurations whose replications panicked, with everything
    /// needed to reproduce each failure in isolation. The campaign
    /// still completes the remaining configs; failed ones get no
    /// artifact row (a resumed run recomputes them).
    pub failures: Vec<FailedRep>,
    /// Path of the CSV artifact.
    pub csv_path: PathBuf,
    /// Path of the JSON artifact.
    pub json_path: PathBuf,
    /// All rows, in expansion order.
    pub rows: Vec<ArtifactRow>,
}

/// A replication that panicked mid-campaign. The seed is the exact
/// content-addressed stream value the replication ran under, so the
/// failure reproduces standalone via
/// `run_scenario(scenario, params, seed)` — no campaign context
/// needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedRep {
    /// Canonical key of the configuration the replication belonged to.
    pub config_key: String,
    /// Replication index within the configuration.
    pub rep: u64,
    /// The replication's derived seed.
    pub seed: u64,
    /// The panic message.
    pub message: String,
}

/// Runs (or resumes) a campaign, writing `<name>.csv` and
/// `<name>.json` into `out_dir`.
///
/// `progress` receives one line per configuration (skipped, computed
/// or failed) — the binary prints it, tests pass a sink.
///
/// A panicking replication does not abort the campaign: its config is
/// recorded in [`CampaignOutcome::failures`] (with the exact seed to
/// reproduce it) and the remaining configs still run. `Err` is
/// reserved for campaign-level problems — unreadable specs, invalid
/// grid points, artifact I/O.
pub fn run_campaign(
    spec: &CampaignSpec,
    out_dir: &Path,
    mode: Parallelism,
    progress: impl FnMut(&str),
) -> Result<CampaignOutcome, String> {
    run_campaign_opts(spec, out_dir, &CampaignOptions::from(mode), progress)
}

/// [`run_campaign`] with full [`CampaignOptions`] (notably the
/// per-replication wall-clock watchdog).
pub fn run_campaign_opts(
    spec: &CampaignSpec,
    out_dir: &Path,
    opts: &CampaignOptions,
    progress: impl FnMut(&str),
) -> Result<CampaignOutcome, String> {
    run_campaign_with(spec, out_dir, opts, progress, &run_scenario)
}

/// [`run_campaign_opts`] with the replication body as a parameter:
/// production runs [`run_scenario`]; tests substitute a body whose
/// timing they control.
pub(crate) fn run_campaign_with<B: RepBody>(
    spec: &CampaignSpec,
    out_dir: &Path,
    opts: &CampaignOptions,
    mut progress: impl FnMut(&str),
    body: &B,
) -> Result<CampaignOutcome, String> {
    let points = spec.expand()?;
    // Fail fast on any invalid grid point before simulating the first.
    let params: Vec<ScenarioParams> = points
        .iter()
        .map(|point| {
            point
                .scenario_params()
                .and_then(|p| p.validate_for(spec.scenario).map(|()| p))
                .map_err(|e| format!("config {}: {e}", point.key()))
        })
        .collect::<Result<_, _>>()?;

    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let csv_path = out_dir.join(format!("{}.csv", spec.name));
    let json_path = out_dir.join(format!("{}.json", spec.name));

    let existing = load_existing_rows(&csv_path, &json_path, spec, &mut progress)?;

    let mut rows: Vec<ArtifactRow> = Vec::with_capacity(points.len());
    let mut executed = 0;
    let mut skipped = 0;
    let mut failures: Vec<FailedRep> = Vec::new();
    for (i, (point, p)) in points.iter().zip(&params).enumerate() {
        let key = point.key();
        if let Some(row) = existing.iter().find(|r| r.config_key() == key) {
            rows.push(row.clone());
            skipped += 1;
            progress(&format!(
                "[{}/{}] {key} — resumed from artifact",
                i + 1,
                points.len()
            ));
            continue;
        }
        let agg = match run_config(spec, point, p, opts, body) {
            Ok(agg) => agg,
            Err(fail) => {
                // Report and move on: one poisoned config must not
                // cost the campaign the rest of its grid. No row is
                // written, so a resumed run recomputes exactly this
                // config — succeeded configs keep their bytes.
                progress(&format!(
                    "[{}/{}] {key} — FAILED at rep {} (seed {}): {}",
                    i + 1,
                    points.len(),
                    fail.rep,
                    fail.seed,
                    fail.message
                ));
                failures.push(fail);
                continue;
            }
        };
        let row = ArtifactRow::from_aggregate(&key, spec.scenario, spec.master_seed, &agg);
        progress(&format!(
            "[{}/{}] {key} — pdr {} ± {}, {} events",
            i + 1,
            points.len(),
            row.get("pdr_mean").unwrap_or("?"),
            row.get("pdr_ci95").unwrap_or("?"),
            row.get("events_total").unwrap_or("?"),
        ));
        rows.push(row);
        executed += 1;
        // Durable after every config: an interrupted campaign resumes
        // from here.
        write_atomic(&csv_path, &artifact::render_csv(&rows))?;
    }

    // Rewrite both artifacts unconditionally so a resumed campaign
    // converges on exactly the files a fresh run would produce.
    write_atomic(&csv_path, &artifact::render_csv(&rows))?;
    let meta = CampaignMeta {
        name: spec.name.clone(),
        scenario: spec.scenario,
        master_seed: spec.master_seed,
        replications: spec.replications,
    };
    write_atomic(&json_path, &artifact::render_json(&meta, &rows))?;

    Ok(CampaignOutcome {
        executed,
        skipped,
        failures,
        csv_path,
        json_path,
        rows,
    })
}

/// Runs every replication of one configuration and folds the results
/// into a streaming aggregate (in replication order, so serial and
/// parallel execution aggregate bit-identically).
///
/// Each replication runs under `catch_unwind`, so a panicking
/// simulation (a chaos config blowing its past-clamp budget, say)
/// surfaces as a [`FailedRep`] carrying the exact seed instead of
/// tearing down the campaign; with a [`CampaignOptions::rep_timeout`]
/// armed, the same holds for a replication that *hangs* (the
/// watchdog detaches it and reports the seed). Failure selection is
/// deterministic: results fold in replication order on both
/// execution paths, so the reported failure is always the
/// lowest-indexed panicking rep.
///
/// `body` runs one replication; production passes [`run_scenario`].
pub(crate) fn run_config<B: RepBody>(
    spec: &CampaignSpec,
    point: &ConfigPoint,
    params: &ScenarioParams,
    opts: &CampaignOptions,
    body: &B,
) -> Result<ConfigAggregate, FailedRep> {
    let stream = point.seed_stream(spec.master_seed);
    let scenario = spec.scenario;
    let run_one = |rep: u64| {
        let seed = stream.derive(rep).seed();
        let fail = |message: String| FailedRep {
            config_key: point.key(),
            rep,
            seed,
            message,
        };
        match opts.rep_timeout {
            // AssertUnwindSafe: on Err every captured reference is
            // dropped without being observed again, so a half-mutated
            // simulation state can never leak into later replications.
            None => catch_unwind(AssertUnwindSafe(|| body(scenario, params, seed)))
                .map_err(|payload| fail(panic_message(payload))),
            Some(timeout) => {
                // The watchdog thread needs `'static` inputs: clone
                // the params (cheap — plain scalars) and the body so a
                // detached hung replication can never observe freed
                // state.
                let params = params.clone();
                let body = body.clone();
                let job = move || catch_unwind(AssertUnwindSafe(|| body(scenario, &params, seed)));
                match run_with_watchdog(timeout, job) {
                    Ok(Ok(metrics)) => Ok(metrics),
                    Ok(Err(payload)) => Err(fail(panic_message(payload))),
                    Err(WatchdogError::TimedOut) => Err(fail(format!(
                        "replication exceeded the {:.3}s wall-clock watchdog \
                         (livelocked or thrashing; worker thread detached)",
                        timeout.as_secs_f64()
                    ))),
                    Err(WatchdogError::Died) => {
                        Err(fail("replication thread died without reporting".into()))
                    }
                }
            }
        }
    };
    let mut agg = ConfigAggregate::new();
    match opts.mode {
        Parallelism::Serial => {
            // Genuinely streaming: each record folds and drops.
            for rep in 0..spec.replications {
                agg.push(&run_one(rep)?);
            }
        }
        Parallelism::Rayon => {
            let metrics: Vec<Result<RunMetrics, FailedRep>> = (0..spec.replications)
                .collect::<Vec<u64>>()
                .into_par_iter()
                .map(run_one)
                .collect();
            for m in metrics {
                agg.push(&m?);
            }
        }
    }
    Ok(agg)
}

/// The body of one replication: `(scenario, params, seed) → metrics`.
/// `'static` and `Clone` so the watchdog can move a copy onto its
/// job thread.
pub(crate) trait RepBody:
    Fn(ScenarioKind, &ScenarioParams, u64) -> RunMetrics + Clone + Send + Sync + 'static
{
}

impl<F> RepBody for F where
    F: Fn(ScenarioKind, &ScenarioParams, u64) -> RunMetrics + Clone + Send + Sync + 'static
{
}

/// Loads resumable rows from a partial CSV. Rows computed under a
/// different scenario, master seed or replication count are
/// discarded — reusing them would silently break the campaign's
/// determinism guarantee. A **torn tail** (a kill mid-write leaves
/// the file as a prefix of a valid CSV, whose final line then lacks
/// its terminator) is detected and discarded rather than
/// string-matched as a valid `config_key` — the torn config simply
/// recomputes. Likewise, a stale sibling JSON (from an older campaign
/// setting, or itself torn) is deleted up front; it is re-rendered
/// from scratch at the end of the run either way.
fn load_existing_rows(
    csv_path: &Path,
    json_path: &Path,
    spec: &CampaignSpec,
    progress: &mut impl FnMut(&str),
) -> Result<Vec<ArtifactRow>, String> {
    discard_stale_json(json_path, spec, progress);
    let text = match std::fs::read_to_string(csv_path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("read {}: {e}", csv_path.display())),
    };
    let (rows, torn) = artifact::parse_csv_resume(&text)
        .map_err(|e| format!("resume from {}: {e}", csv_path.display()))?;
    if let Some(tail) = torn {
        progress(&format!(
            "discarded torn artifact tail ({} bytes) — recomputing that config",
            tail.len()
        ));
    }
    Ok(rows
        .into_iter()
        .filter(|r| r.matches_campaign(spec.scenario, spec.master_seed, spec.replications))
        .collect())
}

/// Deletes a sibling JSON report that does not belong to this
/// campaign setting (stale seed/name, or a torn write): the report is
/// derived state, re-rendered after every run, and a crash between
/// the CSV and JSON writes must not leave a mismatched pair lying
/// around for downstream tooling to trust.
fn discard_stale_json(json_path: &Path, spec: &CampaignSpec, progress: &mut impl FnMut(&str)) {
    let Ok(text) = std::fs::read_to_string(json_path) else {
        return; // missing is fine — it is rebuilt at the end
    };
    // Field-wise comparison (not a rendered-fragment match) so the
    // staleness verdict survives renderer formatting changes: a valid
    // report must never be flagged stale just because indentation or
    // key order moved.
    let matches = |key: &str, want: &str| json_field(&text, key).as_deref() == Some(want);
    let fresh = text.ends_with("}\n")
        && matches("campaign", &format!("\"{}\"", spec.name))
        && matches("scenario", &format!("\"{}\"", spec.scenario))
        && matches("master_seed", &spec.master_seed.to_string())
        && matches("replications", &spec.replications.to_string());
    if !fresh {
        let _ = std::fs::remove_file(json_path);
        progress("discarded stale sibling JSON report — re-rendered after this run");
    }
}

/// First value of a top-level `"key": value` pair in a JSON text,
/// returned as the raw token up to the next `,`/newline/`}` (strings
/// keep their quotes). Formatting-agnostic on whitespace; good enough
/// for the four scalar metadata fields our own renderer emits.
pub(crate) fn json_field(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_end().to_string())
}

pub(crate) use durable::write_atomic;

/// Renders the deterministic failure report shared by the
/// single-process runner and the fabric merge: one `# FAILED` line
/// per failure, sorted by `(config_key, rep)` — so an N-worker fabric
/// run and a single-process run print byte-identical reports no
/// matter which worker observed which failure, or in what order.
pub fn failure_report(failures: &[FailedRep]) -> Vec<String> {
    let mut sorted: Vec<&FailedRep> = failures.iter().collect();
    sorted.sort_by(|a, b| (a.config_key.as_str(), a.rep).cmp(&(b.config_key.as_str(), b.rep)));
    sorted
        .iter()
        .map(|f| {
            format!(
                "# FAILED {} rep {} seed {}: {}",
                f.config_key, f.rep, f.seed, f.message
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(name: &str) -> CampaignSpec {
        CampaignSpec::parse(&format!(
            r#"
[campaign]
name = "{name}"
scenario = "hidden_node"
seed = 11
replications = 2

[fixed]
delta = 50.0
packets = 20

[grid]
mac = ["qma", "unslotted_csma"]
"#
        ))
        .unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qma-campaign-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_run_then_resume_is_byte_identical() {
        let dir = tmp_dir("resume");
        let spec = tiny_spec("t");
        let first = run_campaign(&spec, &dir, Parallelism::Serial, |_| {}).unwrap();
        assert_eq!(first.executed, 2);
        assert_eq!(first.skipped, 0);
        let csv = std::fs::read(&first.csv_path).unwrap();
        let json = std::fs::read(&first.json_path).unwrap();

        // Complete artifact: everything resumes, bytes unchanged.
        let resumed = run_campaign(&spec, &dir, Parallelism::Serial, |_| {}).unwrap();
        assert_eq!(resumed.executed, 0);
        assert_eq!(resumed.skipped, 2);
        assert_eq!(std::fs::read(&resumed.csv_path).unwrap(), csv);
        assert_eq!(std::fs::read(&resumed.json_path).unwrap(), json);

        // Half-finished artifact: only the missing config recomputes,
        // and the final bytes still match the fresh run.
        let full = String::from_utf8(csv.clone()).unwrap();
        let mut lines: Vec<&str> = full.lines().collect();
        lines.remove(2); // drop the second config's row
        std::fs::write(&first.csv_path, format!("{}\n", lines.join("\n"))).unwrap();
        let half = run_campaign(&spec, &dir, Parallelism::Serial, |_| {}).unwrap();
        assert_eq!(half.executed, 1);
        assert_eq!(half.skipped, 1);
        assert_eq!(std::fs::read(&half.csv_path).unwrap(), csv);
        assert_eq!(std::fs::read(&half.json_path).unwrap(), json);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_resume_converges_to_fresh_bytes() {
        // A kill mid-rewrite leaves the CSV as a prefix of a valid
        // file. Three tears, increasing nastiness: inside the last
        // cell (the torn row still *validates* — the silent-corruption
        // case), inside the config_key, and inside the header. Resume
        // must discard the tail, recompute only what was lost, and
        // converge to byte-identical artifacts.
        let dir = tmp_dir("torn");
        let spec = tiny_spec("t");
        let fresh = run_campaign(&spec, &dir, Parallelism::Serial, |_| {}).unwrap();
        let csv = std::fs::read(&fresh.csv_path).unwrap();
        let json = std::fs::read(&fresh.json_path).unwrap();
        let full = String::from_utf8(csv.clone()).unwrap();
        let second_row_at = full.match_indices('\n').nth(1).unwrap().0 + 1;

        for (tag, torn_len, expect_executed) in [
            ("mid-cell", full.len() - 3, 1),
            ("mid-key", second_row_at + 4, 1),
            ("mid-header", 9, 2),
        ] {
            std::fs::write(&fresh.csv_path, &full[..torn_len]).unwrap();
            let mut notes = Vec::new();
            let resumed = run_campaign(&spec, &dir, Parallelism::Serial, |l| {
                notes.push(l.to_string())
            })
            .unwrap();
            assert_eq!(resumed.executed, expect_executed, "{tag}");
            assert_eq!(resumed.skipped, 2 - expect_executed, "{tag}");
            assert!(
                notes.iter().any(|l| l.contains("torn artifact tail")),
                "{tag}: tear not reported: {notes:?}"
            );
            assert_eq!(std::fs::read(&resumed.csv_path).unwrap(), csv, "{tag}");
            assert_eq!(std::fs::read(&resumed.json_path).unwrap(), json, "{tag}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_or_torn_sibling_json_is_discarded_and_rebuilt() {
        let dir = tmp_dir("stalejson");
        let spec = tiny_spec("t");
        let fresh = run_campaign(&spec, &dir, Parallelism::Serial, |_| {}).unwrap();
        let json = std::fs::read(&fresh.json_path).unwrap();

        // A torn JSON (kill between the CSV and JSON writes on a
        // filesystem that let a partial temp file survive) and a stale
        // one (different master seed) must both be discarded up front
        // and re-rendered byte-identically.
        let torn = &json[..json.len() / 2];
        let stale = String::from_utf8(json.clone())
            .unwrap()
            .replace("\"master_seed\": 11", "\"master_seed\": 99");
        for (tag, bytes) in [("torn", torn.to_vec()), ("stale", stale.into_bytes())] {
            std::fs::write(&fresh.json_path, &bytes).unwrap();
            let mut notes = Vec::new();
            let out = run_campaign(&spec, &dir, Parallelism::Serial, |l| {
                notes.push(l.to_string())
            })
            .unwrap();
            assert_eq!(out.executed, 0, "{tag}: CSV rows all resume");
            assert!(
                notes.iter().any(|l| l.contains("stale sibling JSON")),
                "{tag}: discard not reported: {notes:?}"
            );
            assert_eq!(std::fs::read(&fresh.json_path).unwrap(), json, "{tag}");
        }

        // A *valid* sibling must be kept — the staleness check must
        // not become a formatting-coupled false alarm that deletes
        // (and silently re-renders) a good report on every resume.
        let mut notes = Vec::new();
        let out = run_campaign(&spec, &dir, Parallelism::Serial, |l| {
            notes.push(l.to_string())
        })
        .unwrap();
        assert_eq!(out.executed, 0);
        assert!(
            !notes.iter().any(|l| l.contains("stale sibling JSON")),
            "valid sibling JSON wrongly discarded: {notes:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serial_and_parallel_artifacts_agree() {
        let dir_a = tmp_dir("ser");
        let dir_b = tmp_dir("par");
        let spec = tiny_spec("t");
        let a = run_campaign(&spec, &dir_a, Parallelism::Serial, |_| {}).unwrap();
        let b = run_campaign(&spec, &dir_b, Parallelism::Rayon, |_| {}).unwrap();
        assert_eq!(
            std::fs::read(&a.csv_path).unwrap(),
            std::fs::read(&b.csv_path).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn replication_mismatch_forces_recompute() {
        let dir = tmp_dir("reps");
        let spec = tiny_spec("t");
        run_campaign(&spec, &dir, Parallelism::Serial, |_| {}).unwrap();
        let mut bigger = spec.clone();
        bigger.replications = 3;
        let out = run_campaign(&bigger, &dir, Parallelism::Serial, |_| {}).unwrap();
        assert_eq!(out.executed, 2, "stale 2-rep rows must not satisfy 3 reps");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_mismatch_forces_recompute() {
        // Editing the spec's master seed must not silently reuse rows
        // computed under the old seed — that would break the "fixed
        // master seed ⇒ byte-identical artifacts" guarantee.
        let dir = tmp_dir("seed");
        let spec = tiny_spec("t");
        run_campaign(&spec, &dir, Parallelism::Serial, |_| {}).unwrap();
        let mut reseeded = spec.clone();
        reseeded.master_seed = 7;
        let out = run_campaign(&reseeded, &dir, Parallelism::Serial, |_| {}).unwrap();
        assert_eq!(
            out.executed, 2,
            "stale seed-11 rows must not satisfy seed 7"
        );
        assert_eq!(out.skipped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_replication_is_isolated_and_reported() {
        // A chaos config with a −100 ms clock skew and a 4-clamp
        // budget panics deterministically mid-replication (the budget
        // abort). The sibling config with no skew must still complete,
        // the failure must carry the exact reproduction seed, and the
        // healthy config's artifact bytes must survive re-runs.
        let dir = tmp_dir("panic");
        let spec = CampaignSpec::parse(
            r#"
[campaign]
name = "t"
scenario = "chaos"
seed = 11
replications = 2

[fixed]
nodes = 9
duration_s = 5
fault_start_s = 2
fault_duration_s = 1
crash_frac = 0.0
clamp_budget = 4

[grid]
skew_us = [0, -100000]
"#,
        )
        .unwrap();
        let mut notes = Vec::new();
        let out = run_campaign(&spec, &dir, Parallelism::Serial, |l| {
            notes.push(l.to_string())
        })
        .unwrap();
        assert_eq!(out.executed, 1, "healthy config must still complete");
        assert_eq!(out.failures.len(), 1);
        let fail = out.failures[0].clone();
        assert!(
            fail.config_key.contains("skew_us=-100000"),
            "wrong config failed: {}",
            fail.config_key
        );
        assert_eq!(fail.rep, 0, "lowest panicking rep must be reported");
        assert!(
            fail.message.contains("past-clamp budget exceeded"),
            "unhelpful failure message: {}",
            fail.message
        );
        let point = spec
            .expand()
            .unwrap()
            .into_iter()
            .find(|p| p.key() == fail.config_key)
            .unwrap();
        assert_eq!(
            fail.seed,
            point.seed_stream(spec.master_seed).derive(0).seed(),
            "reported seed must be the replication's actual stream seed"
        );
        assert!(
            notes.iter().any(|l| l.contains("FAILED")),
            "failure not narrated: {notes:?}"
        );

        // Header + exactly the healthy config's row.
        let csv = std::fs::read(&out.csv_path).unwrap();
        assert_eq!(String::from_utf8(csv.clone()).unwrap().lines().count(), 2);

        // A re-run resumes the healthy config verbatim, retries (and
        // re-fails) the poisoned one — identically even under rayon.
        let again = run_campaign(&spec, &dir, Parallelism::Rayon, |_| {}).unwrap();
        assert_eq!(again.skipped, 1);
        assert_eq!(again.executed, 0);
        assert_eq!(
            again.failures,
            vec![fail],
            "failure must be deterministic across execution modes"
        );
        assert_eq!(std::fs::read(&again.csv_path).unwrap(), csv);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rep_timeout_watchdog_converts_a_slow_rep_into_a_failed_rep() {
        // A replication that cannot finish before its 1 ms budget runs
        // out: every config must fail through the watchdog, each
        // failure carrying its reproduction seed; the campaign still
        // completes (no rows, resumable). A generous budget must
        // change nothing.
        let dir = tmp_dir("watchdog");
        let spec = tiny_spec("t");
        let strict = CampaignOptions {
            mode: Parallelism::Serial,
            rep_timeout: Some(std::time::Duration::from_millis(1)),
        };
        // The body blocks until the test drops `release`, which it
        // does only after every watchdog has reported; the detached
        // replications then run to completion unobserved.
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let gate = std::sync::Arc::new(std::sync::Mutex::new(gate));
        let blocked = move |kind, params: &ScenarioParams, seed| {
            let _ = gate.lock().expect("gate lock").recv();
            run_scenario(kind, params, seed)
        };
        let out = run_campaign_with(&spec, &dir, &strict, |_| {}, &blocked).unwrap();
        drop(release);
        assert_eq!(out.executed, 0);
        assert_eq!(out.failures.len(), 2, "every config must trip the watchdog");
        for fail in &out.failures {
            assert!(
                fail.message.contains("wall-clock watchdog"),
                "unhelpful watchdog message: {}",
                fail.message
            );
            let point = spec
                .expand()
                .unwrap()
                .into_iter()
                .find(|p| p.key() == fail.config_key)
                .unwrap();
            assert_eq!(
                fail.seed,
                point.seed_stream(spec.master_seed).derive(fail.rep).seed(),
                "watchdog failure must carry the replication's stream seed"
            );
        }

        let generous = CampaignOptions {
            mode: Parallelism::Serial,
            rep_timeout: Some(std::time::Duration::from_secs(600)),
        };
        let out = run_campaign_opts(&spec, &dir, &generous, |_| {}).unwrap();
        assert_eq!(out.executed, 2);
        assert!(out.failures.is_empty());

        // The watchdog hop must not perturb determinism: bytes match
        // a plain run.
        let plain_dir = tmp_dir("watchdog-plain");
        let plain = run_campaign(&spec, &plain_dir, Parallelism::Serial, |_| {}).unwrap();
        assert_eq!(
            std::fs::read(&out.csv_path).unwrap(),
            std::fs::read(&plain.csv_path).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&plain_dir);
    }

    #[test]
    fn failure_report_orders_by_config_key_then_rep() {
        let fail = |key: &str, rep: u64| FailedRep {
            config_key: key.into(),
            rep,
            seed: 9,
            message: "boom".into(),
        };
        // Arrival order scrambled (as N workers would produce).
        let report = failure_report(&[
            fail("b=1", 1),
            fail("a=1", 2),
            fail("b=1", 0),
            fail("a=1", 0),
        ]);
        let heads: Vec<&str> = report
            .iter()
            .map(|l| l.strip_prefix("# FAILED ").unwrap())
            .collect();
        assert!(heads[0].starts_with("a=1 rep 0"));
        assert!(heads[1].starts_with("a=1 rep 2"));
        assert!(heads[2].starts_with("b=1 rep 0"));
        assert!(heads[3].starts_with("b=1 rep 1"));
    }

    #[test]
    fn scenario_specific_constraints_are_enforced() {
        // A fluctuating campaign whose horizon ends before the
        // 160–200 s measurement window must be rejected up front.
        let dir = tmp_dir("short");
        let spec = CampaignSpec::parse(
            r#"
[campaign]
name = "t"
scenario = "fluctuating"

[fixed]
duration_s = 150
"#,
        )
        .unwrap();
        let err = run_campaign(&spec, &dir, Parallelism::Serial, |_| {}).unwrap_err();
        assert!(err.contains("duration_s"), "unhelpful error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_grid_point_fails_before_running() {
        let dir = tmp_dir("invalid");
        let mut spec = tiny_spec("t");
        spec.grid.push((
            "nodes".into(),
            vec![grid::ParamValue::Int(1)], // < 2 nodes is invalid
        ));
        let err = run_campaign(&spec, &dir, Parallelism::Serial, |_| {}).unwrap_err();
        assert!(err.contains("nodes"), "unhelpful error: {err}");
        assert!(
            !dir.join("t.csv").exists(),
            "must not leave artifacts for a rejected campaign"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

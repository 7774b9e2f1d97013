//! The four workloads. Each is a closed loop: a replication (or a
//! whole campaign) starts only after the previous one finished. An
//! untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) reports the per-layer metrics, and its simulated
//! results must equal the untraced ones.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use qma_bench::campaign::fabric::{run_fabric_workers, FabricConfig};
use qma_bench::campaign::grid::fnv1a64;
use qma_bench::campaign::run_campaign;
use qma_bench::campaign::spec::CampaignSpec;
use qma_bench::runner::{panic_message, Parallelism};
use qma_des::SeedSequence;
use qma_scenarios::common::hidden_node_horizon;
use qma_scenarios::{run_scenario, MassiveTopology, ScenarioKind, ScenarioParams};

use crate::clock::{self, Samples};
use crate::layers::{self, Shape};
use crate::report::{peak_rss_mib, Better, Metric, Report};
use crate::sims::{Outcome, Rep, Scenario};
use crate::trace::{LayerTotals, MAC_CALLBACKS, SUBSLOT_DECIDE, UPPER_CALLBACKS};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 6 hidden-node replications, serial, one thread.
    Hidden3,
    /// The 10 000-node `massive` grid at K = 1 and K = nproc.
    Grid10k,
    /// The 91-node DSME ring network of §6.3.
    Dsme91,
    /// A 108-config hidden-node campaign through the fabric.
    Campaign,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Hidden3,
        Workload::Grid10k,
        Workload::Dsme91,
        Workload::Campaign,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hidden3 => "hidden3",
            Workload::Grid10k => "grid10k",
            Workload::Dsme91 => "dsme91",
            Workload::Campaign => "campaign",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What a run was asked to do.
pub struct Ctx {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Cores available (the sharded K and the fabric's worker count).
    pub nproc: usize,
    /// Scratch directory inside the checkout.
    pub work_dir: PathBuf,
    /// When the run started; the measurement ends `seconds` later.
    pub start: std::time::Instant,
}

/// Runs `w` and returns its report.
pub fn run(w: Workload, ctx: &Ctx) -> Report {
    let sim = |scenario, distinct, traced_reps, trace_sharded| SimWorkload {
        scenario,
        distinct,
        traced_reps,
        trace_sharded,
    };
    let mut report = Report::default();
    match w {
        Workload::Hidden3 => {
            let s = Scenario::Hidden3 {
                delta: 25.0,
                packets: 100,
            };
            sim(s, 96, 8, false).run(ctx, &mut report);
        }
        Workload::Grid10k => {
            let p = ScenarioParams {
                nodes: 10_001,
                delta: 0.2,
                packets: 5,
                duration_s: GRID_DURATION_S,
                topology: MassiveTopology::Grid,
                ..ScenarioParams::default()
            };
            sim(Scenario::Massive(p), 1, 1, true).run(ctx, &mut report);
        }
        Workload::Dsme91 => {
            let s = Scenario::Dsme {
                rings: 4,
                duration_s: 100,
            };
            sim(s, 2, 2, false).run(ctx, &mut report);
        }
        Workload::Campaign => campaign(ctx, &mut report),
    }
    report
}

/// Simulated horizon of one grid10k replication.
const GRID_DURATION_S: u64 = 3;

/// Seed of replication `rep` under the workload seed.
fn rep_seed(seed: u64, rep: usize) -> u64 {
    SeedSequence::new(seed).derive(rep as u64).seed()
}

/// Runs `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(panic_message)
}

/// The correctness gate: the first digest seen for a replication is
/// the reference; every later run of it must reproduce it.
fn gate(report: &mut Report, slot: &mut Option<u64>, digest: u64, what: &str) -> bool {
    match *slot {
        Some(want) if want != digest => {
            report.fail(format!("{what}: digest {digest:016x} != {want:016x}"));
            false
        }
        _ => {
            *slot = Some(digest);
            report.ok();
            true
        }
    }
}

/// The scenario crate's own run of replication `seed`, for
/// [`check_reference`].
type Reference = Result<(Option<u64>, f64), String>;

/// Checks the benchmark's build of a replication against the scenario
/// crate's own run of it.
fn check_reference(report: &mut Report, reference: Reference, got: Option<&Outcome>) {
    let Some(got) = got else {
        return;
    };
    match reference {
        Err(e) => report.fail(format!("reference run panicked: {e}")),
        Ok((events, pdr)) => {
            if events.is_some_and(|e| e != got.events) || pdr.to_bits() != got.pdr.to_bits() {
                report.fail(format!(
                    "scenario crate reference differs: events {events:?} pdr {pdr} vs \
                     events {} pdr {}",
                    got.events, got.pdr
                ));
            } else {
                report.ok();
            }
        }
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

/// The fastest host times seen for one deterministic piece of work.
/// Host interference only ever slows a run down, so the fastest of
/// several repeats is the least disturbed measurement of the work.
#[derive(Debug, Clone, Default)]
struct Fastest {
    setup_s: Option<f64>,
    /// Per slice of the run (see `Scenario::chunks`).
    chunk_s: Vec<f64>,
}

impl Fastest {
    fn add(&mut self, setup_s: f64, chunk_s: &[f64]) {
        self.setup_s = Some(self.setup_s.map_or(setup_s, |s| s.min(setup_s)));
        if self.chunk_s.is_empty() {
            self.chunk_s = chunk_s.to_vec();
        }
        self.chunk_s
            .iter_mut()
            .zip(chunk_s)
            .for_each(|(a, &b)| *a = a.min(b));
    }

    fn setup_s(&self) -> f64 {
        self.setup_s.unwrap_or(f64::NAN)
    }

    fn run_s(&self) -> f64 {
        if self.chunk_s.is_empty() {
            f64::NAN
        } else {
            self.chunk_s.iter().sum()
        }
    }
}

/// A workload of independent seed-derived replications of one
/// scenario.
struct SimWorkload {
    scenario: Scenario,
    /// Distinct replication seeds the closed loop cycles through.
    distinct: usize,
    /// Distinct replications the traced run covers.
    traced_reps: usize,
    /// Also trace at K = nproc (where the sharded sweep engages).
    trace_sharded: bool,
}

impl SimWorkload {
    fn run(&self, ctx: &Ctx, report: &mut Report) {
        let topo = self.scenario.topology();
        report.notes.push(format!(
            "scenario: {} nodes, {:?}",
            topo.len(),
            self.scenario
        ));
        if ctx.trace {
            self.traced(ctx, report, &topo.connectivity);
        } else {
            self.untraced(ctx, report);
        }
    }

    /// End-to-end metrics: cycles over every distinct replication at
    /// K = 1 and at K = nproc, interleaved, for `ctx.seconds`. A rate
    /// is the replications' work over the sum of each replication's
    /// fastest run; the table adds the per-cycle rates (each cycle
    /// covers the same simulated work) with their median and tail.
    fn untraced(&self, ctx: &Ctx, report: &mut Report) {
        let mut digests = vec![None; self.distinct];
        let mut first: Vec<Option<Outcome>> = vec![None; self.distinct];
        let mut fastest: Vec<[Fastest; 2]> = vec![Default::default(); self.distinct];
        let [mut events, mut node_s, mut speedup, mut sim_s, mut configs, mut setup] =
            std::array::from_fn(|_| Samples::default());
        // Run seconds of the current cycle at K = 1, which its K = nproc
        // half is compared with.
        let mut serial_run = None;
        let reference = guarded(|| self.scenario.reference(rep_seed(ctx.seed, 0)));
        let mut deadline = clock::Deadline::new(ctx.start, ctx.seconds, 1);
        while deadline.another() {
            for (ki, k) in [1, ctx.nproc].into_iter().enumerate() {
                // Work and host time of this cycle: events, node-seconds,
                // simulated seconds, run seconds, set-up + run seconds.
                let mut sum = [0.0f64; 5];
                let mut complete = true;
                for (rep, digest) in digests.iter_mut().enumerate() {
                    let seed = rep_seed(ctx.seed, rep);
                    let what = format!("rep {rep} K={k}");
                    let r = match guarded(|| self.scenario.run(seed, k, false)) {
                        Ok(r) => r,
                        Err(e) => {
                            report.fail(format!("{what} panicked: {e}"));
                            complete = false;
                            continue;
                        }
                    };
                    let o = &r.outcome;
                    if !gate(report, digest, o.digest(), &what) {
                        complete = false;
                        continue;
                    }
                    let add = [
                        o.events as f64,
                        o.node_s(),
                        o.sim_s,
                        r.run_s,
                        r.setup_s + r.run_s,
                    ];
                    sum.iter_mut().zip(add).for_each(|(a, b)| *a += b);
                    fastest[rep][ki].add(r.setup_s, &r.chunk_s);
                    if k == 1 {
                        setup.push(r.setup_s);
                    }
                    first[rep].get_or_insert(r.outcome);
                }
                if !complete {
                    continue;
                }
                let [ev, ns, ss, run, total] = sum;
                if k == 1 {
                    events.push(ev / run);
                    node_s.push(ns / run);
                    sim_s.push(ss / run);
                    configs.push(self.distinct as f64 * 3600.0 / total);
                    serial_run = Some(run);
                } else if let Some(serial) = serial_run.take() {
                    speedup.push(serial / run);
                }
            }
        }
        check_reference(report, reference, first[0].as_ref());
        let outcomes: Vec<&Outcome> = first.iter().flatten().collect();
        let all: Vec<u8> = digests
            .iter()
            .flatten()
            .flat_map(|d| d.to_le_bytes())
            .collect();
        report.notes.push(format!(
            "digest of {} replications: {:016x}",
            self.distinct,
            fnv1a64(&all)
        ));
        if matches!(self.scenario, Scenario::Dsme { .. }) {
            let gts = mean(outcomes.iter().map(|o| o.gts_per_s));
            report.notes.push(format!("dsme.gts_per_s: {gts:.4}"));
        }
        let work = |f: fn(&Outcome) -> f64| outcomes.iter().map(|o| f(o)).sum::<f64>();
        let best =
            |ki: usize, f: fn(&Fastest) -> f64| fastest.iter().map(|x| f(&x[ki])).sum::<f64>();
        let run = best(0, Fastest::run_s);
        let n = self.distinct as f64;
        use Better::*;
        report.push(Metric::timing(
            "events_per_s",
            "1/s",
            Higher,
            work(|o| o.events as f64) / run,
            events,
        ));
        report.push(Metric::timing(
            "node_s_per_s",
            "node-s/s",
            Higher,
            work(Outcome::node_s) / run,
            node_s,
        ));
        let sharded_run = best(1, Fastest::run_s);
        report.notes.push(format!(
            "node_s_per_s at K={}: {:.4}",
            ctx.nproc,
            work(Outcome::node_s) / sharded_run
        ));
        report.push(Metric::timing(
            "sharded_speedup",
            "ratio",
            Higher,
            run / sharded_run,
            speedup,
        ));
        report.push(Metric::timing(
            "sim_s_per_s",
            "s/s",
            Higher,
            work(|o| o.sim_s) / run,
            sim_s,
        ));
        report.push(Metric::timing(
            "configs_per_h",
            "1/h",
            Higher,
            n * 3600.0 / (best(0, Fastest::setup_s) + run),
            configs,
        ));
        report.push(Metric::timing(
            "setup_s",
            "s",
            Lower,
            best(0, Fastest::setup_s) / n,
            setup,
        ));
        report.push(Metric::value("peak_rss_mib", "MiB", Lower, peak_rss_mib()));
        report.push(Metric::value(
            "pdr",
            "ratio",
            Higher,
            mean(outcomes.iter().map(|o| o.pdr)),
        ));
    }

    /// Per-layer metrics: untraced and traced runs of the same
    /// replications, interleaved, then the layer replays.
    fn traced(&self, ctx: &Ctx, report: &mut Report, conn: &qma_phy::Connectivity) {
        let budget = replay_budget(ctx.seconds);
        let mut agg = TraceAgg::new(self.traced_reps);
        let mut digests = vec![None; self.traced_reps];
        let reference = guarded(|| self.scenario.reference(rep_seed(ctx.seed, 0)));
        let mut deadline =
            clock::Deadline::new(ctx.start, ctx.seconds - REPLAYS * budget, self.traced_reps);
        let mut i = 0;
        while deadline.another() {
            let rep = i % self.traced_reps;
            let seed = rep_seed(ctx.seed, rep);
            let mut runs = vec![(1, false), (1, true)];
            if self.trace_sharded && i < self.traced_reps {
                runs.push((ctx.nproc, true));
            }
            let mut untraced_s = None;
            for (k, traced) in runs {
                let what = format!("rep {rep} K={k} traced={traced}");
                let r = match guarded(|| self.scenario.run(seed, k, traced)) {
                    Ok(r) => r,
                    Err(e) => {
                        report.fail(format!("{what} panicked: {e}"));
                        continue;
                    }
                };
                if !gate(report, &mut digests[rep], r.outcome.digest(), &what) {
                    continue;
                }
                match (k, traced) {
                    (_, false) => untraced_s = Some(r.run_s),
                    (1, true) => {
                        if let Some(u) = untraced_s {
                            agg.overhead.push(r.run_s / u);
                        }
                        agg.add(rep, r);
                    }
                    _ => agg.add_sharded(&r),
                }
            }
            i += 1;
        }
        let first = agg.first[0].as_ref().map(|(o, _)| o);
        check_reference(report, reference, first);
        let shape = Shape {
            conn,
            channels: self.scenario.channels(),
            shards: ctx.nproc,
            seed: ctx.seed,
        };
        agg.report(report, &shape, &ctx.work_dir, budget);
    }
}

/// Host seconds each layer replay gets in a traced run.
fn replay_budget(seconds: f64) -> f64 {
    (seconds * 0.01).clamp(0.05, 0.3)
}

/// Replay budgets a traced run reserves: the ten layer replays and the
/// clock-cost measurement.
const REPLAYS: f64 = 11.0;

/// What the traced runs of one workload add up to.
struct TraceAgg {
    /// Totals of the traced K = 1 runs.
    totals: LayerTotals,
    /// Host seconds inside `run_until` of those runs.
    run_s: f64,
    /// Totals of the traced K = nproc runs.
    sharded: Option<(LayerTotals, u64)>,
    /// First traced outcome and totals of each distinct replication.
    first: Vec<Option<(Outcome, LayerTotals)>>,
    /// Traced ÷ untraced run time, per pair.
    overhead: Samples,
}

impl TraceAgg {
    fn new(distinct: usize) -> Self {
        TraceAgg {
            totals: LayerTotals::default(),
            run_s: 0.0,
            sharded: None,
            first: vec![None; distinct],
            overhead: Samples::default(),
        }
    }

    fn add(&mut self, rep: usize, r: Rep) {
        let totals = r.totals.expect("traced runs carry totals");
        self.totals.add(&totals);
        self.run_s += r.run_s;
        self.first[rep].get_or_insert((r.outcome, totals));
    }

    fn add_sharded(&mut self, r: &Rep) {
        let (totals, runs) = self.sharded.get_or_insert((LayerTotals::default(), 0));
        totals.add(r.totals.as_ref().expect("traced runs carry totals"));
        *runs += 1;
    }

    /// Pushes every per-layer metric.
    fn report(&self, report: &mut Report, shape: &Shape<'_>, work_dir: &Path, budget: f64) {
        use Better::*;
        let clock_ns = crate::trace::clock_cost_ns(budget);
        let firsts: Vec<&(Outcome, LayerTotals)> = self.first.iter().flatten().collect();
        let per_rep =
            |f: &dyn Fn(&Outcome, &LayerTotals) -> f64| mean(firsts.iter().map(|(o, t)| f(o, t)));
        let ns_per_call = |stat: crate::trace::CallStat| {
            if stat.calls == 0 {
                0.0
            } else {
                (stat.ns as f64 / stat.calls as f64 - clock_ns).max(0.0)
            }
        };
        let busy_s = |stats: &[crate::trace::CallStat]| {
            stats
                .iter()
                .map(|s| (s.ns as f64 - s.calls as f64 * clock_ns).max(0.0))
                .sum::<f64>()
                / 1e9
        };
        // Only the sharded sweep calls `subslot_decide`; its figures
        // come from the K = nproc traced run where there is one.
        let (decide_stat, decide_calls) = match &self.sharded {
            Some((t, runs)) => (
                t.mac[SUBSLOT_DECIDE],
                t.mac[SUBSLOT_DECIDE].calls as f64 / *runs as f64,
            ),
            None => (
                self.totals.mac[SUBSLOT_DECIDE],
                per_rep(&|_, t| t.mac[SUBSLOT_DECIDE].calls as f64),
            ),
        };
        let mut mac_k1 = self.totals.mac;
        mac_k1[SUBSLOT_DECIDE] = Default::default();
        let mac_share = busy_s(&mac_k1) / self.run_s;
        let upper_share = busy_s(&self.totals.upper) / self.run_s;
        for (i, cb) in MAC_CALLBACKS.iter().enumerate() {
            let (calls, stat) = if i == SUBSLOT_DECIDE {
                (decide_calls, decide_stat)
            } else {
                (per_rep(&|_, t| t.mac[i].calls as f64), self.totals.mac[i])
            };
            report.push(Metric::value(
                &format!("mac.{cb}.calls"),
                "count",
                Lower,
                calls,
            ));
            let ns = Metric::value(
                &format!("mac.{cb}.ns_per_call"),
                "ns",
                Lower,
                ns_per_call(stat),
            );
            if i == SUBSLOT_DECIDE {
                report
                    .notes
                    .push(format!("mac.{cb}.ns_per_call: {:.2} ns", ns.value));
            } else {
                report.push(ns);
            }
        }
        report.push(Metric::value("mac.share", "ratio", Lower, mac_share));
        for (i, cb) in UPPER_CALLBACKS.iter().enumerate() {
            let calls = per_rep(&|_, t| t.upper[i].calls as f64);
            report.push(Metric::value(
                &format!("upper.{cb}.calls"),
                "count",
                Lower,
                calls,
            ));
            let ns = Metric::value(
                &format!("upper.{cb}.ns_per_call"),
                "ns",
                Lower,
                ns_per_call(self.totals.upper[i]),
            );
            if *cb == "on_phy_tx_end" {
                report
                    .notes
                    .push(format!("upper.{cb}.ns_per_call: {:.2} ns", ns.value));
            } else {
                report.push(ns);
            }
        }
        report.push(Metric::value("upper.share", "ratio", Lower, upper_share));
        report.push(Metric::value(
            "netsim.engine.share",
            "ratio",
            Lower,
            1.0 - mac_share - upper_share,
        ));
        let replays = layers::replay_all(shape, work_dir, budget);
        for (name, value) in replays {
            let unit = if name.ends_with("_ms") { "ms" } else { "ns" };
            report.push(Metric::value(name, unit, Lower, value));
        }
        let clean = per_rep(&|o, _| o.clean as f64);
        let collisions = per_rep(&|o, _| o.collisions as f64);
        report.push(Metric::value(
            "phy.partition.cross_fraction",
            "ratio",
            Lower,
            layers::cross_fraction(shape),
        ));
        report.push(Metric::value(
            "phy.listeners_mean",
            "count",
            Lower,
            layers::listeners_mean(shape.conn),
        ));
        report.push(Metric::value("phy.collisions", "count", Lower, collisions));
        report.push(Metric::value(
            "phy.clean_receptions",
            "count",
            Higher,
            clean,
        ));
        report.push(Metric::value(
            "phy.clean_ratio",
            "ratio",
            Higher,
            clean / (clean + collisions).max(1.0),
        ));
        report.push(Metric::value(
            "netsim.events",
            "count",
            Lower,
            per_rep(&|o, _| o.events as f64),
        ));
        for (name, idx) in [
            ("mac.tx_attempts", 0),
            ("mac.ccas", 4),
            ("mac.drops_retry", 2),
        ] {
            report.push(Metric::value(
                name,
                "count",
                Lower,
                per_rep(&|o, _| o.mac[idx] as f64),
            ));
        }
        report.push(Metric::value(
            "dsme.gts_per_s",
            "1/s",
            Higher,
            per_rep(&|o, _| o.gts_per_s),
        ));
        report.push(Metric::timing(
            "trace.overhead",
            "ratio",
            Lower,
            self.overhead.median(),
            self.overhead.clone(),
        ));
        report.push(Metric::value("trace.clock_ns", "ns", Lower, clock_ns));
    }
}

/// The campaign spec: 3 MACs × 9 δ × 4 packet counts × 2 replications
/// of the hidden-node scenario, master seed derived from `seed`.
fn campaign_spec(seed: u64) -> String {
    format!(
        r#"
[campaign]
name = "perfbench"
scenario = "hidden_node"
seed = {}
replications = 2

[grid]
mac = ["qma", "slotted_csma", "unslotted_csma"]
delta = [1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 25.0, 50.0, 100.0]
packets = [5, 10, 20, 40]
"#,
        // The spec grammar reads integers as i64.
        SeedSequence::new(seed).derive(0xC0FFEE).seed() >> 1
    )
}

/// A parsed, expanded campaign with its simulated volume.
struct Prepared {
    spec: CampaignSpec,
    /// `(params, replication seed)` of every replication.
    reps: Vec<(ScenarioParams, u64)>,
    configs: usize,
    node_s: f64,
    sim_s: f64,
}

/// Parses and expands the spec and creates the run's directories —
/// the campaign's set-up.
fn prepare(text: &str, dirs: &[PathBuf]) -> Result<Prepared, String> {
    let spec = CampaignSpec::parse(text)?;
    let points = spec.expand()?;
    let mut reps = Vec::new();
    let (mut node_s, mut sim_s) = (0.0, 0.0);
    for point in &points {
        let p = point.scenario_params()?;
        let horizon = hidden_node_horizon(p.delta, p.packets).as_secs_f64();
        let stream = point.seed_stream(spec.master_seed);
        for rep in 0..spec.replications {
            node_s += p.nodes as f64 * horizon;
            sim_s += horizon;
            reps.push((p.clone(), stream.derive(rep).seed()));
        }
    }
    for dir in dirs {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    Ok(Prepared {
        spec,
        reps,
        configs: points.len(),
        node_s,
        sim_s,
    })
}

/// One campaign round that passed the correctness gate.
struct Round {
    prepared: Prepared,
    setup_s: f64,
    serial_s: f64,
    fabric_s: f64,
    /// Simulation events of the merged rows.
    events: u64,
    /// Mean `pdr_mean` of the merged rows.
    pdr: f64,
    /// FNV-1a of the merged CSV and JSON.
    digest: u64,
}

/// One closed-loop campaign round into fresh directories: set-up, a
/// serial `run_campaign` (the reference), then an `nproc`-worker
/// fabric run of the same spec. Fails unless nothing failed or was
/// quarantined and both merged artifacts are byte-identical.
fn campaign_round(ctx: &Ctx, text: &str, dir: &Path) -> Result<Round, String> {
    let (serial_dir, fabric_dir) = (dir.join("serial"), dir.join("fabric"));
    let (prepared, setup_s) =
        clock::timed(|| prepare(text, &[serial_dir.clone(), fabric_dir.clone()]));
    let prepared = prepared.map_err(|e| format!("set-up: {e}"))?;
    let spec = &prepared.spec;
    let (serial, serial_s) =
        clock::timed(|| guarded(|| run_campaign(spec, &serial_dir, Parallelism::Serial, |_| {})));
    let serial = serial.and_then(|r| r).map_err(|e| format!("serial: {e}"))?;
    let cfg = FabricConfig {
        worker_id: "perfbench".into(),
        ..FabricConfig::default()
    };
    let (fabric, fabric_s) = clock::timed(|| {
        guarded(|| run_fabric_workers(spec, &fabric_dir, &cfg, ctx.nproc, &|_| {}))
    });
    let fabric = fabric.and_then(|r| r).map_err(|e| format!("fabric: {e}"))?;
    if !serial.failures.is_empty() || !fabric.failures.is_empty() || !fabric.quarantined.is_empty()
    {
        return Err("a replication failed or was quarantined".into());
    }
    let read = |p: &Path| std::fs::read(p).map_err(|e| format!("read {}: {e}", p.display()));
    let (csv, json) = (read(&serial.csv_path)?, read(&serial.json_path)?);
    if read(&fabric.csv_path)? != csv || read(&fabric.json_path)? != json {
        return Err("fabric artifacts differ from the serial run".into());
    }
    let cell = |col: &str| -> Vec<f64> {
        serial
            .rows
            .iter()
            .filter_map(|r| r.get(col).and_then(|v| v.parse().ok()))
            .collect()
    };
    Ok(Round {
        setup_s,
        serial_s,
        fabric_s,
        events: cell("events_total").iter().sum::<f64>() as u64,
        pdr: mean(cell("pdr_mean").into_iter()),
        digest: fnv1a64(&[csv, json].concat()),
        prepared,
    })
}

/// Runs round `n` through the correctness gate, then deletes its
/// directories.
fn gated_round(
    ctx: &Ctx,
    text: &str,
    n: usize,
    slot: &mut Option<u64>,
    report: &mut Report,
) -> Option<Round> {
    let dir = ctx.work_dir.join(format!("campaign-{n}"));
    let round = campaign_round(ctx, text, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match round {
        Ok(r) => gate(report, slot, r.digest, &format!("round {n}")).then_some(r),
        Err(e) => {
            report.fail(format!("round {n}: {e}"));
            None
        }
    }
}

/// The campaign workload.
fn campaign(ctx: &Ctx, report: &mut Report) {
    let text = campaign_spec(ctx.seed);
    report.notes.push(format!(
        "campaign: 108 configs x 2 replications, {} fabric workers",
        ctx.nproc
    ));
    let mut slot = None;
    if !ctx.trace {
        let [mut setup, mut serial, mut speedup, mut events, mut sim, mut configs] =
            std::array::from_fn(|_| Samples::default());
        let (mut fastest_serial, mut fastest_fabric) = (Fastest::default(), Fastest::default());
        let mut last = None;
        let mut n = 0;
        let mut deadline = clock::Deadline::new(ctx.start, ctx.seconds, 1);
        while deadline.another() {
            // A failed round fails the run; repeating it adds nothing.
            let Some(r) = gated_round(ctx, &text, n, &mut slot, report) else {
                break;
            };
            let p = &r.prepared;
            setup.push(r.setup_s);
            serial.push(p.node_s / r.serial_s);
            speedup.push(r.serial_s / r.fabric_s);
            events.push(r.events as f64 / r.fabric_s);
            sim.push(p.sim_s / r.fabric_s);
            configs.push(p.configs as f64 * 3600.0 / r.fabric_s);
            fastest_serial.add(r.setup_s, &[r.serial_s]);
            fastest_fabric.add(r.setup_s, &[r.fabric_s]);
            last = Some(r);
            n += 1;
        }
        // Every round computes the same artifacts (the gate checked
        // their digest), so any round's volume describes them all.
        let (volume, events_n, pdr) = match &last {
            Some(r) => (
                (
                    r.prepared.node_s,
                    r.prepared.sim_s,
                    r.prepared.configs as f64,
                ),
                r.events as f64,
                r.pdr,
            ),
            None => ((f64::NAN, f64::NAN, f64::NAN), f64::NAN, f64::NAN),
        };
        let (node_s, sim_s, configs_n) = volume;
        let fabric_s = fastest_fabric.run_s();
        use Better::*;
        report.push(Metric::timing(
            "events_per_s",
            "1/s",
            Higher,
            events_n / fabric_s,
            events,
        ));
        report.push(Metric::timing(
            "node_s_per_s",
            "node-s/s",
            Higher,
            node_s / fastest_serial.run_s(),
            serial,
        ));
        report.notes.push(format!(
            "node_s_per_s of the fabric: {:.4}",
            node_s / fabric_s
        ));
        report.push(Metric::timing(
            "sharded_speedup",
            "ratio",
            Higher,
            fastest_serial.run_s() / fabric_s,
            speedup,
        ));
        report.push(Metric::timing(
            "sim_s_per_s",
            "s/s",
            Higher,
            sim_s / fabric_s,
            sim,
        ));
        report.push(Metric::timing(
            "configs_per_h",
            "1/h",
            Higher,
            configs_n * 3600.0 / fabric_s,
            configs,
        ));
        report.push(Metric::timing(
            "setup_s",
            "s",
            Lower,
            fastest_fabric.setup_s(),
            setup,
        ));
        report.push(Metric::value("peak_rss_mib", "MiB", Lower, peak_rss_mib()));
        report.push(Metric::value("pdr", "ratio", Higher, pdr));
        return;
    }

    // Traced: one campaign round for the fabric's wall time, the same
    // replications re-run through `run_scenario` for the compute
    // share, then untraced/traced pairs of those replications built
    // by the benchmark, cross-checked against `run_scenario`.
    let budget = replay_budget(ctx.seconds);
    let Some(Round {
        prepared, fabric_s, ..
    }) = gated_round(ctx, &text, 0, &mut slot, report)
    else {
        return;
    };
    let mut compute_s = 0.0;
    let reference: Vec<Reference> = prepared
        .reps
        .iter()
        .map(|(p, seed)| {
            let (m, s) =
                clock::timed(|| guarded(|| run_scenario(ScenarioKind::HiddenNode, p, *seed)));
            compute_s += s;
            m.map(|m| (Some(m.events), m.pdr))
        })
        .collect();
    // Replication compute over the fabric's worker-seconds: the share
    // of the fabric run that is simulation rather than coordination.
    let compute_share = compute_s / (fabric_s * ctx.nproc as f64);
    report
        .notes
        .push(format!("campaign.compute_share: {compute_share:.4}"));
    let n = prepared.reps.len();
    let mut agg = TraceAgg::new(n);
    let mut digests = vec![None; n];
    let mut deadline = clock::Deadline::new(ctx.start, ctx.seconds - REPLAYS * budget, n);
    let mut i = 0;
    while deadline.another() {
        let rep = i % n;
        let (p, seed) = &prepared.reps[rep];
        let scenario = Scenario::Star(p.clone());
        match guarded(|| (scenario.run(*seed, 1, false), scenario.run(*seed, 1, true))) {
            Err(e) => report.fail(format!("replication {rep} panicked: {e}")),
            Ok((u, t)) => {
                if i < n {
                    check_reference(report, reference[rep].clone(), Some(&u.outcome));
                }
                let what = format!("replication {rep}");
                let slot = &mut digests[rep];
                if gate(
                    report,
                    slot,
                    u.outcome.digest(),
                    &format!("{what} untraced"),
                ) && gate(report, slot, t.outcome.digest(), &format!("{what} traced"))
                {
                    agg.overhead.push(t.run_s / u.run_s);
                    agg.add(rep, t);
                }
            }
        }
        i += 1;
    }
    let star = qma_topo::hidden_star(2);
    let shape = Shape {
        conn: &star.connectivity,
        channels: 1,
        shards: ctx.nproc,
        seed: ctx.seed,
    };
    agg.report(report, &shape, &ctx.work_dir, budget);
}

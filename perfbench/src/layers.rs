//! Per-layer replays: each times one layer's public API in isolation,
//! at the shape (population, queue depth, boundary-bucket size,
//! connectivity) of the workload it is reported for.

use std::hint::black_box;
use std::path::Path;

use qma_core::qtable::UpdateParams;
use qma_core::{ActionOutcome, QTable, QmaAction, QmaAgent, QmaConfig};
use qma_des::seed::splitmix64;
use qma_des::{merge_by_pos, Scheduler, SeedSequence, ShardPlan, ShardPool, SimTime};
use qma_netsim::{MetricsHub, NodeId};
use qma_phy::{Connectivity, Medium, MediumPartition, PhyNodeId};

use crate::clock;

/// The shape a workload gives the replays.
pub struct Shape<'a> {
    /// The workload's own connectivity.
    pub conn: &'a Connectivity,
    /// Radio channels of the workload's medium.
    pub channels: u8,
    /// Shards of the sharded runs (`nproc`).
    pub shards: usize,
    /// Seed of the replay inputs.
    pub seed: u64,
}

impl Shape<'_> {
    fn nodes(&self) -> usize {
        self.conn.len()
    }

    /// Deterministic pseudo-random inputs in `0..bound`.
    fn inputs(&self, label: u64, len: usize, bound: u64) -> Vec<u64> {
        let mut state = SeedSequence::new(self.seed).derive(label).seed();
        (0..len).map(|_| splitmix64(&mut state) % bound).collect()
    }
}

/// One replay result: the metric name and the median of its samples.
pub type Replay = (&'static str, f64);

/// Every replay of the report, each given `budget_s` host seconds.
pub fn replay_all(shape: &Shape<'_>, work_dir: &Path, budget_s: f64) -> Vec<Replay> {
    vec![
        ("des.sched.schedule_pop_ns", schedule_pop(shape, budget_s)),
        (
            "des.sched.boundary_drain_ns",
            boundary_drain(shape, budget_s),
        ),
        ("des.pool.barrier_ns", pool_barrier(shape, budget_s)),
        ("des.shard.merge_ns_per_item", merge(shape, budget_s)),
        ("phy.medium.tx_ns", medium_tx(shape, budget_s)),
        ("core.q_update_ns", q_update(shape, budget_s)),
        ("core.decide_ns", decide(shape, budget_s)),
        ("netsim.metrics.count_ns", metrics_count(shape, budget_s)),
        (
            "netsim.metrics.delivered_ns",
            metrics_delivered(shape, budget_s),
        ),
        (
            "campaign.durable.publish_ms",
            publish(work_dir, budget_s) / 1e6,
        ),
    ]
}

/// Fraction of directed audibility edges that cross a shard border
/// when the population is split into `shards` contiguous ranges.
pub fn cross_fraction(shape: &Shape<'_>) -> f64 {
    let plan = ShardPlan::contiguous(shape.nodes(), shape.shards);
    MediumPartition::from_bounds(shape.conn, plan.bounds())
        .stats()
        .cross_fraction()
}

/// Mean number of listeners per transmitter.
pub fn listeners_mean(conn: &Connectivity) -> f64 {
    let total: usize = (0..conn.len())
        .map(|i| conn.degree(PhyNodeId(i as u32)))
        .sum();
    total as f64 / conn.len().max(1) as f64
}

/// One `pop` + `schedule_at` pair with one pending event per node.
fn schedule_pop(shape: &Shape<'_>, budget_s: f64) -> f64 {
    let depth = shape.nodes();
    let delays = shape.inputs(1, 4096, 10_000);
    let mut s: Scheduler<u32> = Scheduler::with_capacity(depth + 1);
    for (i, d) in delays.iter().cycle().take(depth).enumerate() {
        s.schedule_at(SimTime::from_micros(1 + d), i as u32);
    }
    let mut next = 0usize;
    clock::ns_per_op(budget_s, 64, || {
        for _ in 0..64 {
            let e = s.pop().expect("depth stays constant");
            let at = SimTime::from_micros(e.time.as_micros() + 1 + delays[next & 4095]);
            s.schedule_at(at, black_box(e.event));
            next += 1;
        }
    })
    .median()
}

/// Per event: `schedule_boundary` of a whole bucket with one tick per
/// node, then one `drain_boundary_bucket`.
fn boundary_drain(shape: &Shape<'_>, budget_s: f64) -> f64 {
    let bucket = shape.nodes();
    let mut s: Scheduler<u32> = Scheduler::new();
    s.enable_wheel(64);
    let mut out = Vec::with_capacity(bucket);
    let mut index = 1u64;
    clock::ns_per_op(budget_s, bucket, || {
        let at = SimTime::from_micros(index * 1_000);
        for n in 0..bucket {
            s.schedule_boundary(at, index, n as u32);
        }
        out.clear();
        let drained = s.drain_boundary_bucket(at, &mut out);
        assert_eq!(drained, bucket, "a lone bucket drains whole");
        black_box(&out);
        index += 1;
    })
    .median()
}

/// One `ShardPool::scope_run` of `nproc` no-op tasks on a pool shaped
/// like the sharded sweep's (`nproc − 1` workers plus the caller).
fn pool_barrier(shape: &Shape<'_>, budget_s: f64) -> f64 {
    let mut pool = ShardPool::new(shape.shards.saturating_sub(1));
    let mut counters = vec![0u64; shape.shards];
    let median = {
        let mut tasks: Vec<_> = counters.iter_mut().map(|c| move || *c += 1).collect();
        let mut refs: Vec<&mut (dyn FnMut() + Send)> = tasks
            .iter_mut()
            .map(|t| t as &mut (dyn FnMut() + Send))
            .collect();
        clock::ns_per_op(budget_s, 1, || pool.scope_run(&mut refs)).median()
    };
    black_box(&counters);
    median
}

/// Per item: fill `nproc` position-sorted outboxes with one bucket and
/// fold them back with `merge_by_pos`.
fn merge(shape: &Shape<'_>, budget_s: f64) -> f64 {
    let bucket = shape.nodes().max(2);
    let owner = shape.inputs(2, bucket, shape.shards as u64);
    let mut outboxes: Vec<Vec<(u32, u64)>> = vec![Vec::with_capacity(bucket); shape.shards];
    let mut sum = 0u64;
    clock::ns_per_op(budget_s, bucket, || {
        for (pos, &s) in owner.iter().enumerate() {
            outboxes[s as usize].push((pos as u32, pos as u64));
        }
        merge_by_pos(&mut outboxes, |_, item| sum = sum.wrapping_add(item));
        black_box(sum);
    })
    .median()
}

/// One `start_tx` + `end_tx` pair, two transmissions overlapping at a
/// time so receivers that hear both see a collision.
fn medium_tx(shape: &Shape<'_>, budget_s: f64) -> f64 {
    let n = shape.nodes() as u64;
    let order = shape.inputs(3, 4096, n);
    let mut medium = Medium::with_channels(shape.conn.clone(), shape.channels);
    let mut next = 0usize;
    clock::ns_per_op(budget_s, 2, || {
        let a = order[next & 4095];
        let b = (a + 1 + order[(next + 1) & 4095] % (n - 1).max(1)) % n;
        next += 2;
        let ta = medium.start_tx(PhyNodeId(a as u32));
        let tb = (a != b).then(|| medium.start_tx(PhyNodeId(b as u32)));
        black_box(medium.end_tx(ta).len());
        if let Some(tb) = tb {
            black_box(medium.end_tx(tb).len());
        }
    })
    .median()
}

/// One `QTable::update` on the paper's 54-subslot table.
fn q_update(shape: &Shape<'_>, budget_s: f64) -> f64 {
    let params = UpdateParams::default();
    let mut table: QTable<f32> = QTable::new(54, -10.0);
    let picks = shape.inputs(4, 4096, 54 * 3 * 8);
    let rewards = [4.0f32, -3.0, 2.0, 0.0, 3.0, -2.0, 1.0, 4.0];
    let mut next = 0usize;
    clock::ns_per_op(budget_s, 64, || {
        for _ in 0..64 {
            let p = picks[next & 4095];
            let m = (p % 54) as u16;
            let action = QmaAction::from_index((p / 54 % 3) as usize);
            table.update(
                black_box(m),
                action,
                rewards[(p / 162) as usize],
                m + 1,
                &params,
            );
            next += 1;
        }
    })
    .median()
}

/// One `QmaAgent::decide` + `complete` pair after cautious startup.
fn decide(shape: &Shape<'_>, budget_s: f64) -> f64 {
    let cfg = QmaConfig {
        startup_subslots: 0,
        ..QmaConfig::default()
    };
    let mut agent: QmaAgent = QmaAgent::new(cfg);
    let mut rng = SeedSequence::new(shape.seed).derive(5).rng();
    let picks = shape.inputs(6, 4096, 8);
    let mut next = 0usize;
    let mut m = 0u16;
    clock::ns_per_op(budget_s, 64, || {
        for _ in 0..64 {
            let p = picks[next & 4095];
            let d = agent.decide(m, p as i32 - 2, &mut rng);
            let outcome = match d.action {
                QmaAction::Backoff => ActionOutcome::Backoff {
                    overheard: p & 1 == 1,
                },
                QmaAction::Cca if p & 2 == 0 => ActionOutcome::CcaBusy,
                QmaAction::Cca => ActionOutcome::CcaTx { acked: p & 1 == 1 },
                QmaAction::Send => ActionOutcome::SendTx { acked: p & 1 == 1 },
            };
            m = (m + 1) % 54;
            agent.complete(outcome, m);
            next += 1;
        }
    })
    .median()
}

/// One named `MetricsHub::count`.
fn metrics_count(shape: &Shape<'_>, budget_s: f64) -> f64 {
    let mut hub = MetricsHub::new(shape.nodes(), 54);
    let names = [
        "app_mac_delivered",
        "app_mac_retry_drop",
        "sec_req_sent",
        "gts_allocated",
    ];
    let mut next = 0usize;
    clock::ns_per_op(budget_s, 64, || {
        for _ in 0..64 {
            hub.count(names[next & 3], black_box(1.0));
            next += 1;
        }
    })
    .median()
}

/// One `MetricsHub::app_delivered` spread over the population.
fn metrics_delivered(shape: &Shape<'_>, budget_s: f64) -> f64 {
    let n = shape.nodes();
    let mut hub = MetricsHub::new(n, 54);
    let origins = shape.inputs(7, 4096, n as u64);
    let mut next = 0usize;
    clock::ns_per_op(budget_s, 64, || {
        for _ in 0..64 {
            hub.app_delivered(NodeId(origins[next & 4095] as u32), black_box(0.01));
            next += 1;
        }
    })
    .median()
}

/// One `durable::write_atomic` of a 16 KiB artifact, in nanoseconds.
fn publish(work_dir: &Path, budget_s: f64) -> f64 {
    let path = work_dir.join("publish.csv");
    let body: String = (0..256)
        .map(|i| format!("config={i:04},{:>52}\n", i * 7919))
        .collect();
    clock::ns_per_op(budget_s, 1, || {
        qma_bench::campaign::durable::write_atomic(&path, &body)
            .expect("publish into the benchmark's work directory");
    })
    .median()
}

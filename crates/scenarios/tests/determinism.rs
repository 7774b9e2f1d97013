//! Engine-equivalence regression tests: a fixed-seed replication must
//! produce identical `MetricsHub` counters whether
//!
//! * the MAC is dispatched statically through the [`MacImpl`] enum or
//!   dynamically through its `MacImpl::Custom(Box<dyn MacProtocol>)`
//!   escape hatch (the PR 2 devirtualization), and
//! * subslot ticks are scheduled through the O(1) boundary wheel or
//!   the plain binary heap (the PR 4 slot kernel) — the wheel changes
//!   *where events wait*, never *what the simulation computes*, and
//! * fault plans (crash/jam/drift chaos runs) are active — fault
//!   events are heap events, so they compose with the sharded
//!   boundary sweep and both scheduler engines bit-identically.
//!
//! (The byte-identical-campaign-CSV half of the wheel/heap guarantee
//! lives in `crates/bench/tests/scheduler_equivalence.rs`, next to
//! the campaign engine it exercises.)

use qma_des::SimDuration;
use qma_mac::{MacImpl, QmaMac, QmaMacConfig};
use qma_net::{CollectionApp, CollectionConfig, TrafficPattern};
use qma_netsim::{FrameClock, MacCounters, MacProtocol, NodeId, Sim, SimBuilder, UpperLayer};
use qma_scenarios::common::collection_upper;

/// Serialises the tests that flip process-wide execution defaults
/// (`set_default_scheduler_wheel`, `set_default_shards`,
/// `set_default_shard_batch_min`). The test harness runs this
/// binary's tests on parallel threads; without the lock, one test's
/// default could leak into another's sim builds — at best noise, at
/// worst making an equivalence test vacuous (e.g. the sharded-sweep
/// test silently comparing sequential against sequential while the
/// wheel default is off).
static EXEC_DEFAULTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock_exec_defaults() -> std::sync::MutexGuard<'static, ()> {
    EXEC_DEFAULTS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Everything a replication observes, flattened for comparison.
#[derive(Debug, PartialEq)]
struct Digest {
    per_node: Vec<(MacCounters, u64, u64)>, // (mac counters, generated, delivered)
    pdr_bits: Option<u64>,
    delay_bits: Option<u64>,
    collisions: u64,
    clean_receptions: u64,
    events: u64,
}

fn digest<M: MacProtocol, U: UpperLayer>(sim: &Sim<M, U>) -> Digest {
    let m = sim.metrics();
    let n = m.nodes();
    let nodes: Vec<NodeId> = (0..n).map(|i| NodeId(i as u32)).collect();
    Digest {
        per_node: nodes
            .iter()
            .map(|&node| (*m.mac(node), m.generated(node), m.delivered(node)))
            .collect(),
        pdr_bits: m.pdr_of(nodes.iter().copied()).map(f64::to_bits),
        delay_bits: m.mean_delay_of(nodes.iter().copied()).map(f64::to_bits),
        collisions: sim.world().medium().collisions(),
        clean_receptions: sim.world().medium().clean_receptions(),
        events: sim.events_processed(),
    }
}

/// Runs the §6.1 hidden-node workload (δ = 25 pkt/s, 60 packets per
/// source) with a caller-supplied MAC factory and digests the result.
fn run_hidden_node<F>(seed: u64, mac_factory: F) -> Digest
where
    F: Fn(NodeId, &FrameClock) -> MacImpl + 'static,
{
    run_hidden_node_sched(seed, mac_factory, true)
}

/// [`run_hidden_node`] with an explicit scheduler engine: `wheel`
/// routes subslot ticks through the boundary calendar, `!wheel`
/// through the binary heap.
fn run_hidden_node_sched<F>(seed: u64, mac_factory: F, wheel: bool) -> Digest
where
    F: Fn(NodeId, &FrameClock) -> MacImpl + 'static,
{
    let topo = qma_topo::hidden_node();
    let sink = NodeId(topo.sink as u32);
    let mut sim = SimBuilder::new(topo.connectivity.clone(), seed)
        .clock(FrameClock::dsme_so3())
        .scheduler_wheel(wheel)
        .mac_factory(mac_factory)
        .upper_factory(move |node, _| {
            let pattern = if node == sink {
                TrafficPattern::Silent
            } else {
                TrafficPattern::Poisson {
                    rate: 25.0,
                    start: qma_des::SimTime::from_secs(100),
                    limit: Some(60),
                }
            };
            let app = CollectionApp::new(CollectionConfig {
                pattern,
                next_hop: (node != sink).then_some(sink),
                sink,
                payload_octets: 60,
            });
            collection_upper(app, node == sink, SimDuration::from_secs(5))
        })
        .build();
    sim.run_until(qma_des::SimTime::from_secs(120));
    digest(&sim)
}

#[test]
fn enum_and_boxed_dispatch_produce_identical_metrics() {
    for seed in [2021u64, 7, 42] {
        let enum_run = run_hidden_node(seed, |_, clock| {
            MacImpl::qma(QmaMacConfig::default(), *clock)
        });
        let boxed_run = run_hidden_node(seed, |_, clock| {
            MacImpl::custom(QmaMac::new(QmaMacConfig::default(), *clock))
        });
        assert_eq!(
            enum_run, boxed_run,
            "static and dynamic dispatch diverged for seed {seed}"
        );
        // The run must have actually exercised the stack.
        assert!(enum_run.events > 10_000, "suspiciously few events");
        assert!(
            enum_run.per_node[0].0.tx_attempts > 0,
            "node A never transmitted"
        );
    }
}

#[test]
fn fixed_seed_replications_are_reproducible() {
    // Same seed, same factory → bit-identical digests (guards the
    // scratch-buffer/CSR refactor against hidden iteration-order or
    // reuse bugs).
    let a = run_hidden_node(11, |_, clock| MacImpl::qma(QmaMacConfig::default(), *clock));
    let b = run_hidden_node(11, |_, clock| MacImpl::qma(QmaMacConfig::default(), *clock));
    assert_eq!(a, b);
}

#[test]
fn wheel_and_heap_scheduling_produce_identical_metrics() {
    for seed in [2021u64, 7, 42] {
        let wheel = run_hidden_node_sched(
            seed,
            |_, clock| MacImpl::qma(QmaMacConfig::default(), *clock),
            true,
        );
        let heap = run_hidden_node_sched(
            seed,
            |_, clock| MacImpl::qma(QmaMacConfig::default(), *clock),
            false,
        );
        assert_eq!(
            wheel, heap,
            "wheel and heap scheduling diverged for seed {seed}"
        );
        assert!(wheel.events > 10_000, "suspiciously few events");
    }
}

#[test]
fn boundary_exact_enqueue_never_double_arms_the_tick() {
    // PR 5 satellite (re-arm double-tick): wheel ticks are
    // uncancellable, so a node that parks its tick and is re-enqueued
    // at the *exact* boundary it parked on must end up with exactly
    // one live tick. The workload forces the case: an `all_cap` clock
    // with 1 ms subslots and arrivals on exact 1 ms multiples, so
    // every post-park enqueue lands precisely on a boundary. The
    // assertion is behavioural (wheel ≡ heap counters plus a sane
    // armed count) — a duplicated live tick would double-fire the
    // boundary and desynchronise the two engines' event counts.
    use qma_des::SimTime;
    use qma_netsim::{Address, Frame, TxResult, UpperCtx};

    struct BoundaryExactSource {
        dst: NodeId,
        remaining: u32,
    }

    impl qma_netsim::UpperLayer for BoundaryExactSource {
        fn start(&mut self, ctx: &mut UpperCtx<'_>) {
            if ctx.node != self.dst {
                // First arrival at t = 20 ms, an exact boundary.
                ctx.schedule(SimDuration::from_millis(20), 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut UpperCtx<'_>, _tag: u64) {
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            let node = ctx.node;
            let f = Frame::data(node, Address::Node(self.dst), self.remaining, 30, true);
            ctx.metrics().app_generated(node);
            ctx.enqueue_mac(f);
            // Long gap (30 subslots) so the queue drains and the MAC
            // parks before the next boundary-exact arrival.
            ctx.schedule(SimDuration::from_millis(30), 0);
        }
        fn on_deliver(&mut self, ctx: &mut UpperCtx<'_>, _f: &Frame) {
            ctx.metrics().count("delivered_up", 1.0);
        }
        fn on_tx_result(&mut self, _: &mut UpperCtx<'_>, _: &Frame, _: TxResult) {}
    }

    let run = |wheel: bool| {
        let mut sim = SimBuilder::new(qma_topo::hidden_star(2).connectivity.clone(), 17)
            .clock(FrameClock::all_cap(10, 1_000))
            .scheduler_wheel(wheel)
            .mac_factory(|_, clock| MacImpl::qma(QmaMacConfig::default(), *clock))
            .upper_factory(|_, _| {
                qma_scenarios::common::UpperImpl::custom(BoundaryExactSource {
                    dst: NodeId(2),
                    remaining: 40,
                })
            })
            .build();
        sim.run_until(SimTime::from_secs(3));
        let armed = sim.world().armed_ticks();
        (digest(&sim), armed)
    };
    let (wheel_digest, wheel_armed) = run(true);
    let (heap_digest, heap_armed) = run(false);
    assert_eq!(wheel_digest, heap_digest, "wheel vs heap diverged");
    assert_eq!(wheel_armed, heap_armed);
    assert!(
        wheel_armed <= 3,
        "at most one live tick per node, got {wheel_armed}"
    );
    assert!(wheel_digest.per_node[0].1 > 0, "no packets generated");
    assert!(
        wheel_digest.per_node[0].0.tx_attempts > 0,
        "source never transmitted"
    );
}

#[test]
fn sharded_sweep_is_bit_identical_to_sequential() {
    use qma_scenarios::{run_scenario, MassiveTopology, ScenarioKind, ScenarioParams};

    let _guard = lock_exec_defaults();
    // Saturating parameters so boundary buckets exceed the forced
    // batch minimum and the parallel decide path genuinely runs.
    let star = ScenarioParams {
        topology: MassiveTopology::HiddenStar,
        nodes: 161,
        delta: 0.8,
        packets: 4,
        duration_s: 12,
        ..ScenarioParams::default()
    };
    let grid = ScenarioParams {
        topology: MassiveTopology::Grid,
        nodes: 144,
        delta: 1.0,
        packets: 4,
        duration_s: 12,
        ..ScenarioParams::default()
    };
    for p in [star, grid] {
        p.validate_for(ScenarioKind::Massive).unwrap();
        sharded_sim_is_bit_identical(&p, 500);
        let run_with_shards = |k: usize| {
            qma_netsim::set_default_shards(k);
            qma_netsim::set_default_shard_batch_min(1);
            let out: Vec<_> = (0..2u64)
                .map(|rep| run_scenario(ScenarioKind::Massive, &p, 500 + rep))
                .collect();
            qma_netsim::set_default_shards(1);
            qma_netsim::set_default_shard_batch_min(qma_netsim::SHARD_BATCH_MIN_DEFAULT);
            out
        };
        let sequential = run_with_shards(1);
        let sharded_2 = run_with_shards(2);
        let sharded_4 = run_with_shards(4);
        assert_eq!(sequential, sharded_2, "K=2 diverged from K=1");
        assert_eq!(sequential, sharded_4, "K=4 diverged from K=1");
        assert!(sequential.iter().all(|m| m.events > 1_000));
    }

    // The sweep must actually have been armed under the sharded
    // default — build one sim directly and check.
    let topo = qma_topo::hidden_star(160);
    let mut sim = SimBuilder::new(topo.connectivity.clone(), 1)
        .clock(FrameClock::dsme_so3())
        .shards(4)
        .shard_batch_min(1)
        .mac_factory(|_, clock| MacImpl::qma(QmaMacConfig::default(), *clock))
        .build();
    assert!(sim.sharded_sweep_armed(), "sharded sweep must be armed");
    assert_eq!(sim.shard_plan().shards(), 4);
    let stats = sim.shard_partition().expect("partition exists").stats();
    assert_eq!(stats.shards, 4);
    assert!(stats.cross_edges > 0, "hidden star is all-border");
    sim.run_until(qma_des::SimTime::from_secs(1));
}

/// Builds one massive replication directly at K ∈ {1, 2, 4} with the
/// parallel path forced, and compares what `RunMetrics` does not
/// hold: every node's slot-action counts and the armed-tick count —
/// both written by the commit's node-local half, which the sharded
/// sweep runs inside its parallel decide. The sweep counters must
/// show that K = 2 and K = 4 really fanned out rather than falling
/// back to sequential delivery.
fn sharded_sim_is_bit_identical(p: &qma_scenarios::ScenarioParams, seed: u64) {
    use qma_netsim::SweepStats;
    use qma_scenarios::massive;

    let topo = massive::build_topology(p);
    let run = |k: usize| {
        let mut sim = massive::sim_builder(&topo, p, seed)
            .shards(k)
            .shard_batch_min(1)
            .build();
        assert_eq!(sim.sharded_sweep_armed(), k > 1);
        sim.run_until(qma_des::SimTime::from_secs(p.duration_s));
        let m = sim.metrics();
        let slot_actions: Vec<Vec<[u32; 3]>> = (0..m.nodes())
            .map(|i| m.slot_action_counts(NodeId(i as u32)).to_vec())
            .collect();
        let observed = (digest(&sim), slot_actions, sim.world().armed_ticks());
        (observed, sim.sweep_stats())
    };
    let (sequential, stats_1) = run(1);
    assert_eq!(stats_1, SweepStats::default(), "K=1 never drains buckets");
    let actions: u64 = sequential
        .1
        .iter()
        .flatten()
        .flatten()
        .map(|&c| u64::from(c))
        .sum();
    assert!(
        actions > 1_000,
        "too few slot actions ({actions}) to compare"
    );
    let mut stats_k = Vec::new();
    for k in [2, 4] {
        let (sharded, stats) = run(k);
        assert_eq!(sequential.0, sharded.0, "K={k} digest diverged from K=1");
        assert_eq!(
            sequential.1, sharded.1,
            "K={k} slot actions diverged from K=1"
        );
        assert_eq!(
            sequential.2, sharded.2,
            "K={k} armed ticks diverged from K=1"
        );
        assert!(stats.parallel_buckets > 0, "K={k} never swept in parallel");
        assert!(stats.folded_ticks > 0, "K={k} folded no tick");
        assert_eq!(stats.sequential_buckets, 0, "K={k} fell back to sequential");
        stats_k.push(stats);
    }
    // What is swept and folded depends on the buckets, not on K.
    assert_eq!(
        stats_k[0], stats_k[1],
        "sweep counters differ between K=2 and K=4"
    );
}

#[test]
fn persistent_shard_pool_is_bit_identical_to_scoped_threads() {
    use qma_scenarios::{run_scenario, MassiveTopology, ScenarioKind, ScenarioParams};

    let _guard = lock_exec_defaults();
    // PR 7 satellite: the persistent condvar-parked shard pool
    // replaces the per-boundary `std::thread::scope` fork/join. The
    // pool changes *who runs* each decide job, never what it computes
    // or the order commits fold in — so a sharded run must be
    // bit-identical with the pool on (default) and off (the scoped
    // fallback kept exactly for this proof and for A/B benchmarks).
    let p = ScenarioParams {
        topology: MassiveTopology::Grid,
        nodes: 144,
        delta: 1.0,
        packets: 4,
        duration_s: 12,
        ..ScenarioParams::default()
    };
    p.validate_for(ScenarioKind::Massive).unwrap();
    let run_with_pool = |pooled: bool| {
        qma_netsim::set_default_shard_pool(pooled);
        qma_netsim::set_default_shards(4);
        qma_netsim::set_default_shard_batch_min(1);
        let out: Vec<_> = (0..2u64)
            .map(|rep| run_scenario(ScenarioKind::Massive, &p, 900 + rep))
            .collect();
        qma_netsim::set_default_shards(1);
        qma_netsim::set_default_shard_batch_min(qma_netsim::SHARD_BATCH_MIN_DEFAULT);
        qma_netsim::set_default_shard_pool(true);
        out
    };
    let pooled = run_with_pool(true);
    let scoped = run_with_pool(false);
    assert_eq!(pooled, scoped, "shard pool diverged from scoped threads");
    assert!(pooled.iter().all(|m| m.events > 1_000));
    assert_ne!(pooled[0], pooled[1], "seeds collapsed — vacuous comparison");
}

#[test]
fn chaos_faults_are_shard_and_scheduler_invariant() {
    use qma_scenarios::{run_scenario, ChaosKnobs, MassiveTopology, ScenarioKind, ScenarioParams};

    let _guard = lock_exec_defaults();
    // Crash + jam + drift striking at t = 4 s. Fault events live on
    // the binary heap, so they serialise the sharded boundary sweep
    // exactly like any other heap event: every per-counter metric —
    // including the resilience block — must be bit-identical at any
    // shard count and under either scheduler engine.
    let p = ScenarioParams {
        topology: MassiveTopology::HiddenStar,
        nodes: 121,
        delta: 0.8,
        packets: 4,
        duration_s: 14,
        chaos: ChaosKnobs {
            fault_start_s: 4,
            fault_duration_s: 3,
            crash_frac: 0.25,
            jam_frac: 0.15,
            drift_frac: 0.25,
            ..ChaosKnobs::default()
        },
        ..ScenarioParams::default()
    };
    p.validate_for(ScenarioKind::Chaos).unwrap();
    let run_with = |k: usize, wheel: bool| {
        qma_netsim::set_default_scheduler_wheel(wheel);
        qma_netsim::set_default_shards(k);
        qma_netsim::set_default_shard_batch_min(1);
        let out: Vec<_> = (0..2u64)
            .map(|rep| run_scenario(ScenarioKind::Chaos, &p, 700 + rep))
            .collect();
        qma_netsim::set_default_shards(1);
        qma_netsim::set_default_shard_batch_min(qma_netsim::SHARD_BATCH_MIN_DEFAULT);
        qma_netsim::set_default_scheduler_wheel(true);
        out
    };
    let baseline = run_with(1, true);
    for (k, wheel) in [(2, true), (4, true), (1, false), (4, false)] {
        assert_eq!(
            baseline,
            run_with(k, wheel),
            "chaos run diverged at K={k}, wheel={wheel}"
        );
    }
    assert!(baseline.iter().all(|m| m.events > 1_000));
    // Different seeds must still produce different runs — identical
    // outputs across K would be vacuous if the workload collapsed.
    assert_ne!(baseline[0], baseline[1]);
}

#[test]
fn massive_star_is_scheduler_invariant_serial_and_parallel() {
    use qma_scenarios::{run_scenario, MassiveTopology, ScenarioKind, ScenarioParams};

    let p = ScenarioParams {
        topology: MassiveTopology::HiddenStar,
        nodes: 201,
        delta: 0.5,
        packets: 3,
        duration_s: 12,
        ..ScenarioParams::default()
    };
    p.validate_for(ScenarioKind::Massive).unwrap();
    // The scheduler engine is selected per simulation at build time;
    // flip the process default around each batch, holding the
    // defaults lock so no other test builds sims meanwhile.
    let _guard = lock_exec_defaults();
    let run_batch = |wheel: bool| {
        qma_netsim::set_default_scheduler_wheel(wheel);
        let serial: Vec<_> = (0..3u64)
            .map(|rep| run_scenario(ScenarioKind::Massive, &p, 1000 + rep))
            .collect();
        let parallel = qma_scenarios::common::replicate(3, |rep| {
            run_scenario(ScenarioKind::Massive, &p, 1000 + rep)
        });
        qma_netsim::set_default_scheduler_wheel(true);
        (serial, parallel)
    };
    let (wheel_serial, wheel_parallel) = run_batch(true);
    let (heap_serial, heap_parallel) = run_batch(false);
    assert_eq!(wheel_serial, wheel_parallel, "serial vs rayon diverged");
    assert_eq!(wheel_serial, heap_serial, "wheel vs heap diverged");
    assert_eq!(heap_serial, heap_parallel, "heap serial vs rayon diverged");
    assert!(wheel_serial.iter().all(|m| m.events > 1_000));
}

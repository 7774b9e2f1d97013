//! The simulated scenarios the workloads replicate, built through
//! `SimBuilder` exactly as the scenario crate builds them, either
//! plain or with every node's MAC and upper layer traced.

use std::sync::{Arc, Mutex};

use qma_des::{SimDuration, SimTime};
use qma_dsme::{DsmeNode, DsmeNodeConfig, MsfConfig};
use qma_net::{CollectionApp, CollectionConfig, TrafficPattern};
use qma_netsim::{FrameClock, MacProtocol, MetricsHub, NodeId, Sim, SimBuilder, UpperLayer};
use qma_phy::Medium;
use qma_scenarios::common::{collection_upper, hidden_node_horizon};
use qma_scenarios::massive::MassiveApp;
use qma_scenarios::{MacKind, ScenarioKind, ScenarioParams, UpperImpl};

use crate::clock;
use crate::trace::{LayerTotals, Sink, TracedMac, TracedUpper};

/// What the benchmark reads from a finished simulation, whatever its
/// MAC and upper-layer types.
pub trait SimRun {
    /// Runs until the simulated `horizon`.
    fn run_until(&mut self, horizon: SimTime);
    /// The metrics hub.
    fn metrics(&self) -> &MetricsHub;
    /// The radio medium.
    fn medium(&self) -> &Medium;
    /// Simulation events processed.
    fn events(&self) -> u64;
}

impl<M: MacProtocol, U: UpperLayer> SimRun for Sim<M, U> {
    fn run_until(&mut self, horizon: SimTime) {
        Sim::run_until(self, horizon)
    }
    fn metrics(&self) -> &MetricsHub {
        Sim::metrics(self)
    }
    fn medium(&self) -> &Medium {
        self.world().medium()
    }
    fn events(&self) -> u64 {
        self.events_processed()
    }
}

/// DSME handshake counters behind Fig. 21/22, in digest order.
const DSME_COUNTERS: [&str; 8] = [
    "sec_req_sent",
    "sec_req_acked",
    "sec_resp_sent",
    "sec_resp_ok",
    "sec_notify_sent",
    "sec_notify_ok",
    "gts_allocated",
    "gts_deallocated",
];

/// One simulated scenario.
#[derive(Debug, Clone)]
pub enum Scenario {
    /// The paper's Fig. 6 A—B—C hidden-node topology: QMA, δ pkt/s,
    /// `packets` per source, management chatter on (as
    /// `hidden_node::run_once`).
    Hidden3 {
        /// Packet rate δ per source.
        delta: f64,
        /// Packets per source.
        packets: u64,
    },
    /// A `massive` grid point (as `massive::run_grid`).
    Massive(ScenarioParams),
    /// The §6.3 concentric-ring DSME network, QMA in the CAP (as
    /// `dsme_scale::run_once`).
    Dsme {
        /// Number of rings (4 ⇒ 91 nodes).
        rings: usize,
        /// Simulated seconds.
        duration_s: u64,
    },
    /// One hidden-node campaign grid point (as
    /// `hidden_node::run_grid`).
    Star(ScenarioParams),
}

/// The deterministic outcome of one replication: what the correctness
/// gate compares.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Simulation events processed.
    pub events: u64,
    /// Nodes simulated.
    pub nodes: usize,
    /// Simulated seconds.
    pub sim_s: f64,
    /// The workload's headline PDR (CAP secondary PDR for DSME).
    pub pdr: f64,
    /// Application packets delivered, summed over the sources.
    pub delivered: u64,
    /// Receptions lost to overlapping frames.
    pub collisions: u64,
    /// Clean receptions.
    pub clean: u64,
    /// `MacCounters` summed over all nodes: tx attempts, tx delivered,
    /// retry drops, channel-access drops, CCAs.
    pub mac: [u64; 5],
    /// DSME (de)allocations per simulated second (0 elsewhere).
    pub gts_per_s: f64,
    /// Scenario-specific counters (the DSME handshake counters).
    pub extra: Vec<f64>,
}

impl Outcome {
    /// FNV-1a over every field: equal digests ⇔ equal outcomes.
    pub fn digest(&self) -> u64 {
        let mut words = vec![
            self.events,
            self.nodes as u64,
            self.sim_s.to_bits(),
            self.pdr.to_bits(),
            self.delivered,
            self.collisions,
            self.clean,
            self.gts_per_s.to_bits(),
        ];
        words.extend(self.mac);
        words.extend(self.extra.iter().map(|v| v.to_bits()));
        qma_bench::campaign::grid::fnv1a64(
            &words
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect::<Vec<u8>>(),
        )
    }

    /// Simulated node-seconds.
    pub fn node_s(&self) -> f64 {
        self.nodes as f64 * self.sim_s
    }
}

/// A built, not yet run, simulation.
pub struct Built {
    sim: Box<dyn SimRun>,
    sources: Vec<NodeId>,
    horizon: SimTime,
}

/// One finished replication.
pub struct Rep {
    /// What the simulation computed.
    pub outcome: Outcome,
    /// Host seconds to build the topology and the `Sim`.
    pub setup_s: f64,
    /// Host seconds inside `run_until`.
    pub run_s: f64,
    /// Host seconds of each of the [`Scenario::chunks`] equal slices of
    /// simulated time the run is split into.
    pub chunk_s: Vec<f64>,
    /// Callback totals (traced runs only).
    pub totals: Option<LayerTotals>,
}

/// Installs the per-node factories, wrapped in the tracing layer when
/// `sink` is given, and builds the simulation with `k` shards.
fn install<M, U>(
    builder: SimBuilder,
    k: usize,
    mac: impl Fn(NodeId, &FrameClock) -> M + 'static,
    upper: impl Fn(NodeId, &FrameClock) -> U + 'static,
    sink: Option<&Sink>,
) -> Box<dyn SimRun>
where
    M: MacProtocol + 'static,
    U: UpperLayer + 'static,
{
    let builder = builder.shards(k);
    match sink {
        None => Box::new(builder.mac_factory(mac).upper_factory(upper).build()),
        Some(sink) => {
            let (ms, us) = (sink.clone(), sink.clone());
            Box::new(
                builder
                    .mac_factory(move |n, c| TracedMac::new(mac(n, c), ms.clone()))
                    .upper_factory(move |n, c| TracedUpper::new(upper(n, c), us.clone()))
                    .build(),
            )
        }
    }
}

/// The upper layers of the hidden-node scenarios: every node but the
/// sink sends `packets` Poisson packets at `delta` pkt/s to the sink
/// from t = 100 s, with management chatter toward it from t = 0.
fn collection(
    sink: NodeId,
    delta: f64,
    packets: u64,
) -> impl Fn(NodeId, &FrameClock) -> UpperImpl + 'static {
    move |node, _| {
        let pattern = if node == sink {
            TrafficPattern::Silent
        } else {
            TrafficPattern::Poisson {
                rate: delta,
                start: SimTime::from_secs(100),
                limit: Some(packets),
            }
        };
        let app = CollectionApp::new(CollectionConfig {
            pattern,
            next_hop: (node != sink).then_some(sink),
            sink,
            payload_octets: 60,
        });
        collection_upper(app, node == sink, SimDuration::from_secs(5))
    }
}

fn ids(it: impl Iterator<Item = usize>) -> Vec<NodeId> {
    it.map(|i| NodeId(i as u32)).collect()
}

impl Scenario {
    /// The topology the scenario runs on.
    pub fn topology(&self) -> qma_topo::Topology {
        match self {
            Scenario::Hidden3 { .. } => qma_topo::hidden_node(),
            Scenario::Massive(p) => qma_scenarios::massive::build_topology(p),
            Scenario::Dsme { rings, .. } => qma_topo::concentric_rings(*rings, 20.0),
            Scenario::Star(p) => qma_topo::hidden_star(p.nodes - 1),
        }
    }

    /// Radio channels of the scenario's medium.
    pub fn channels(&self) -> u8 {
        match self {
            Scenario::Dsme { .. } => MsfConfig::default().channels,
            _ => 1,
        }
    }

    /// Builds the topology and the simulation under `seed`.
    fn build(&self, seed: u64, k: usize, sink: Option<&Sink>) -> Built {
        let topo = self.topology();
        let sources = ids(topo.sources());
        let sink_id = NodeId(topo.sink as u32);
        let parents: Vec<Option<NodeId>> = topo
            .parent
            .iter()
            .map(|p| p.map(|i| NodeId(i as u32)))
            .collect();
        let builder = SimBuilder::new(topo.connectivity.clone(), seed);
        let (sim, horizon) = match self.clone() {
            Scenario::Hidden3 { delta, packets } => {
                let builder = builder.clock(FrameClock::dsme_so3());
                let mac = |_: NodeId, c: &FrameClock| MacKind::Qma.build(c);
                let upper = collection(sink_id, delta, packets);
                (
                    install(builder, k, mac, upper, sink),
                    hidden_node_horizon(delta, packets),
                )
            }
            Scenario::Star(p) => {
                let builder = builder.clock(p.clock()).record_learner(false);
                let (kind, cfg) = (p.mac, p.qma_mac_config());
                let mac = move |_: NodeId, c: &FrameClock| kind.build_with(c, &cfg);
                let upper = collection(sink_id, p.delta, p.packets);
                (
                    install(builder, k, mac, upper, sink),
                    hidden_node_horizon(p.delta, p.packets),
                )
            }
            Scenario::Massive(p) => {
                let (delta, packets) = (p.delta, p.packets);
                let upper = move |node: NodeId, _: &FrameClock| {
                    let parent = parents[node.index()];
                    let pattern = if parent.is_some() {
                        TrafficPattern::Poisson {
                            rate: delta,
                            start: SimTime::from_secs(1),
                            limit: Some(packets),
                        }
                    } else {
                        TrafficPattern::Silent
                    };
                    UpperImpl::Massive(MassiveApp::new(pattern, parent, 60))
                };
                let (kind, cfg) = (p.mac, p.qma_mac_config());
                let mac = move |_: NodeId, c: &FrameClock| kind.build_with(c, &cfg);
                let builder = builder.clock(p.clock()).record_learner(false);
                (
                    install(builder, k, mac, upper, sink),
                    SimTime::from_secs(p.duration_s),
                )
            }
            Scenario::Dsme { duration_s, .. } => {
                let sink_pos = topo.positions[topo.sink];
                let positions = topo.positions.clone();
                let warmup = (duration_s / 5).min(200);
                let upper = move |node: NodeId, _: &FrameClock| {
                    let pattern = if node == sink_id {
                        TrafficPattern::Silent
                    } else {
                        TrafficPattern::Alternating {
                            rates: (1.0, 10.0),
                            period: SimDuration::from_secs(5),
                            start: SimTime::from_secs(warmup),
                            limit: None,
                        }
                    };
                    let cfg = DsmeNodeConfig::paper(
                        pattern,
                        sink_id,
                        sink_pos,
                        positions[node.index()],
                        parents[node.index()],
                    );
                    Box::new(DsmeNode::new(node, cfg))
                };
                let builder = builder
                    .clock(FrameClock::dsme_so3())
                    .channels(self.channels())
                    .record_learner(false);
                let mac = |_: NodeId, c: &FrameClock| MacKind::Qma.build(c);
                (
                    install(builder, k, mac, upper, sink),
                    SimTime::from_secs(duration_s),
                )
            }
        };
        Built {
            sim,
            sources,
            horizon,
        }
    }

    /// Reads the outcome of a finished simulation.
    fn outcome(&self, built: &Built) -> Outcome {
        let sim = &*built.sim;
        let m = sim.metrics();
        let n = m.nodes();
        let mut mac = [0u64; 5];
        for c in (0..n).map(|i| m.mac(NodeId(i as u32))) {
            let row = [
                c.tx_attempts,
                c.tx_delivered,
                c.drops_retry,
                c.drops_channel_access,
                c.ccas,
            ];
            mac.iter_mut().zip(row).for_each(|(a, b)| *a += b);
        }
        let sim_s = built.horizon.as_secs_f64();
        let mut out = Outcome {
            events: sim.events(),
            nodes: n,
            sim_s,
            pdr: m.pdr_of(built.sources.iter().copied()).unwrap_or(0.0),
            delivered: built.sources.iter().map(|&s| m.delivered(s)).sum(),
            collisions: sim.medium().collisions(),
            clean: sim.medium().clean_receptions(),
            mac,
            gts_per_s: 0.0,
            extra: Vec::new(),
        };
        if let Scenario::Dsme { duration_s, .. } = self {
            out.extra = DSME_COUNTERS.iter().map(|c| m.get(c)).collect();
            let x = &out.extra;
            let (sent, ok) = (x[0] + x[2] + x[4], x[1] + x[3] + x[5]);
            out.pdr = if sent > 0.0 { ok / sent } else { 0.0 };
            let warmup = (duration_s / 5).min(200);
            out.gts_per_s = (x[6] + x[7]) / duration_s.saturating_sub(warmup).max(1) as f64;
        }
        out
    }

    /// The scenario crate's own run of the same replication, as
    /// `(events, pdr)`: a check that the benchmark builds exactly the
    /// scenario the crate defines (DSME reports no event count).
    pub fn reference(&self, seed: u64) -> (Option<u64>, f64) {
        match self {
            Scenario::Hidden3 { delta, packets } => {
                let r = qma_scenarios::hidden_node::run_once(MacKind::Qma, *delta, *packets, seed);
                (Some(r.events), r.pdr)
            }
            Scenario::Massive(p) => {
                let r = qma_scenarios::massive::run_once(p, seed);
                (Some(r.events), r.pdr)
            }
            Scenario::Dsme { rings, duration_s } => {
                let r =
                    qma_scenarios::dsme_scale::run_once(*rings, MacKind::Qma, *duration_s, seed);
                (None, r.secondary_pdr)
            }
            Scenario::Star(p) => {
                let r = qma_scenarios::run_scenario(ScenarioKind::HiddenNode, p, seed);
                (Some(r.events), r.pdr)
            }
        }
    }

    /// Slices of simulated time a run is timed in: each slice is
    /// deterministic work of some tens of host milliseconds, short
    /// enough to fall between bursts of host interference. Running in
    /// slices computes exactly what one `run_until` computes.
    fn chunks(&self) -> u64 {
        match self {
            Scenario::Hidden3 { .. } | Scenario::Star(_) => 1,
            Scenario::Massive(p) => 4 * p.duration_s,
            Scenario::Dsme { duration_s, .. } => duration_s / 5,
        }
    }

    /// Runs one replication under `seed` with `k` shards, traced or
    /// not, timing set-up (topology + `SimBuilder::build`) and the run
    /// separately.
    pub fn run(&self, seed: u64, k: usize, traced: bool) -> Rep {
        let sink: Option<Sink> = traced.then(|| Arc::new(Mutex::new(LayerTotals::default())));
        let (mut built, setup_s) = clock::timed(|| self.build(seed, k, sink.as_ref()));
        let (end, n) = (built.horizon.as_micros(), self.chunks());
        let chunk_s: Vec<f64> = (1..=n)
            .map(|c| {
                let until = SimTime::from_micros(end * c / n);
                clock::timed(|| built.sim.run_until(until)).1
            })
            .collect();
        let outcome = self.outcome(&built);
        // Dropping the simulation folds every wrapper into the sink.
        drop(built);
        let totals = sink.map(|s| *s.lock().expect("tracing sink poisoned by a panicking node"));
        Rep {
            outcome,
            setup_s,
            run_s: chunk_s.iter().sum(),
            chunk_s,
            totals,
        }
    }
}

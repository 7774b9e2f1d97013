//! The simulated world: nodes, medium, event dispatch and the
//! MAC / upper-layer protocol traits.
//!
//! Protocol objects (implementations of [`MacProtocol`] and
//! [`UpperLayer`]) live in vectors *parallel* to the world state, so
//! a dispatched handler can freely mutate the world through its
//! [`MacCtx`]/[`UpperCtx`] view without aliasing itself. Cross-layer
//! calls (MAC → upper delivery, upper → MAC enqueue) are queued as
//! notices and drained after the handler returns.

use std::collections::BTreeMap;

use rand::rngs::StdRng;

use qma_des::{Handler, Scheduler, SeedSequence, SimDuration, SimTime};
use qma_phy::{
    Connectivity, EnergyMeter, EnergyReport, Medium, PhyNodeId, PhyTiming, PowerProfile, TxToken,
};

use crate::clock::FrameClock;
use crate::frame::Frame;
use crate::metrics::{count_slot_action, LearnerSample, MetricsHub, SlotAction, TxResult};
use crate::queue::TxQueue;

/// Identifier of a simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    fn phy(self) -> PhyNodeId {
        PhyNodeId(self.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// How long a piggybacked neighbour queue level stays valid (see
/// [`MacCtx::queue_diff`]).
pub const NEIGHBOR_LEVEL_TTL: SimDuration = SimDuration::from_millis(1_500);

/// MAC timer classes. Each class has one outstanding instance per
/// node; re-arming cancels the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacTimerKind {
    /// Next contention subslot boundary.
    Subslot,
    /// CSMA/CA backoff expiry.
    Backoff,
    /// ACK wait timeout.
    AckTimeout,
    /// CAP start/end housekeeping.
    Cap,
    /// Protocol-defined auxiliary timer (e.g. delayed ACK turnaround).
    Aux1,
    /// Second auxiliary timer.
    Aux2,
}

impl MacTimerKind {
    const COUNT: usize = 6;

    fn index(self) -> usize {
        match self {
            MacTimerKind::Subslot => 0,
            MacTimerKind::Backoff => 1,
            MacTimerKind::AckTimeout => 2,
            MacTimerKind::Cap => 3,
            MacTimerKind::Aux1 => 4,
            MacTimerKind::Aux2 => 5,
        }
    }
}

/// Who initiated an in-flight transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxOrigin {
    Mac,
    Upper,
}

/// Simulation events.
#[derive(Debug, Clone)]
enum Event {
    Start,
    EnableNode {
        node: NodeId,
    },
    MacTimer {
        node: NodeId,
        kind: MacTimerKind,
        gen: u64,
    },
    UpperTimer {
        node: NodeId,
        tag: u64,
        gen: u64,
    },
    TxEnd {
        node: NodeId,
        gen: u64,
    },
    CcaEnd {
        node: NodeId,
        gen: u64,
    },
    FrameBoundary,
    /// A scheduled fault from the armed [`crate::FaultPlan`] (index
    /// into its event list). Always heap-scheduled, so the sharded
    /// boundary sweep serialises around it — see [`crate::faults`].
    Fault {
        idx: u32,
    },
}

#[derive(Debug)]
struct CcaState {
    saw_energy: bool,
    gen: u64,
}

/// A dense bitmap over node indices — the world's active-set
/// representation (enabled radios, armed subslot ticks). One cache
/// line covers 512 nodes, so sweeping the set is cache-linear even at
/// 50 000 nodes.
#[derive(Debug, Clone, Default)]
pub struct ActiveSet {
    words: Vec<u64>,
    count: usize,
}

impl ActiveSet {
    /// An all-clear set over `n` indices.
    pub fn new(n: usize) -> Self {
        ActiveSet {
            words: vec![0; n.div_ceil(64)],
            count: 0,
        }
    }

    /// Is bit `i` set?
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Sets or clears bit `i`, keeping the popcount exact.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let was = *word & mask != 0;
        if value && !was {
            *word |= mask;
            self.count += 1;
        } else if !value && was {
            *word &= !mask;
            self.count -= 1;
        }
    }

    /// Number of set bits, exact in O(1).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Iterates the set indices in ascending order — word-at-a-time,
    /// so a sparse set over a huge population costs O(words + set
    /// bits), not O(n).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(w * 64 + b)
            })
        })
    }
}

/// Piggybacked neighbour queue levels in CSR form: for each node, one
/// slot per *in-neighbour* (node it can hear), sorted ascending by
/// neighbour id. Replaces the former dense n×n table — O(E) instead
/// of O(n²), which is what makes 10k+-node worlds possible — while
/// iterating rows in exactly the same ascending-id order, so the
/// [`MacCtx::queue_diff`] fold is bit-identical to the dense version
/// (entries for non-neighbours could never be written anyway).
#[derive(Debug, Clone)]
struct NeighborLevels {
    /// Row `r` spans `ids[offsets[r]..offsets[r+1]]`.
    offsets: Vec<u32>,
    /// In-neighbour ids, ascending within each row.
    ids: Vec<u32>,
    /// Last piggybacked `(queue level, heard at)` per in-neighbour;
    /// parallel to `ids`. `None` until the first audible frame.
    levels: Vec<Option<(u8, SimTime)>>,
}

impl NeighborLevels {
    /// Builds the table by inverting the connectivity's listener rows
    /// (`r` is an in-neighbour row entry of every `t` with `r ∈
    /// listeners(t)`).
    fn new(conn: &Connectivity) -> Self {
        let n = conn.len();
        let mut degree = vec![0u32; n];
        for t in 0..n {
            for &r in conn.listeners(PhyNodeId(t as u32)) {
                degree[r.index()] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut ids = vec![0u32; acc as usize];
        let mut fill = offsets.clone();
        // Iterating transmitters in ascending order fills each row in
        // ascending id order.
        for t in 0..n {
            for &r in conn.listeners(PhyNodeId(t as u32)) {
                let pos = &mut fill[r.index()];
                ids[*pos as usize] = t as u32;
                *pos += 1;
            }
        }
        NeighborLevels {
            offsets,
            ids,
            levels: vec![None; acc as usize],
        }
    }

    #[inline]
    fn row(&self, r: usize) -> std::ops::Range<usize> {
        self.offsets[r] as usize..self.offsets[r + 1] as usize
    }

    /// Records that `rx` heard `src` advertise `level` at `t`.
    #[inline]
    fn set(&mut self, rx: usize, src: u32, level: u8, t: SimTime) {
        let range = self.row(rx);
        if let Ok(pos) = self.ids[range.clone()].binary_search(&src) {
            self.levels[range.start + pos] = Some((level, t));
        }
    }

    /// The last level `rx` heard from `src`, if any.
    #[inline]
    fn get(&self, rx: usize, src: u32) -> Option<(u8, SimTime)> {
        let range = self.row(rx);
        match self.ids[range.clone()].binary_search(&src) {
            Ok(pos) => self.levels[range.start + pos],
            Err(_) => None,
        }
    }

    /// The fresh-level fold input: `rx`'s per-in-neighbour entries in
    /// ascending id order.
    #[inline]
    fn entries(&self, rx: usize) -> &[Option<(u8, SimTime)>] {
        &self.levels[self.row(rx)]
    }
}

/// Per-node world state in struct-of-arrays form: each field lives in
/// its own dense `Vec` indexed by [`NodeId`], so a per-subslot sweep
/// over many nodes touches only the arrays it needs (queue depths,
/// timer generations) instead of dragging every node's full record
/// through the cache. The RNGs and energy meters — cold per event —
/// stay out of the hot arrays entirely.
#[derive(Debug)]
struct Nodes {
    queue: Vec<TxQueue>,
    energy: Vec<EnergyMeter>,
    in_flight: Vec<Option<(TxToken, Frame, TxOrigin)>>,
    cca: Vec<Option<CcaState>>,
    cca_gen: Vec<u64>,
    mac_timer_gen: Vec<[u64; MacTimerKind::COUNT]>,
    /// Generation of the current in-flight transmission; a crash
    /// bumps it so the stale `TxEnd` of an aborted frame is ignored.
    tx_gen: Vec<u64>,
    /// Generation of upper-layer timers; a crash bumps it so timers
    /// armed before the outage cannot fire after the reboot (the
    /// rebooted upper re-seeds its own schedule in `start`).
    upper_gen: Vec<u64>,
    /// Signed local-clock offset per node (µs), set by a
    /// [`crate::FaultKind::ClockSkew`] fault. Zero when healthy.
    skew_us: Vec<i64>,
    /// Fast path: no node has ever been skewed (skips the per-arm
    /// offset lookup entirely).
    skew_any: bool,
    mac_rng: Vec<StdRng>,
    upper_rng: Vec<StdRng>,
    /// Nodes whose radio is active (started and not disabled).
    enabled: ActiveSet,
    /// Nodes with an armed subslot tick — the generalisation of the
    /// PR 2 idle-parking flag: a parked node occupies no scheduler
    /// entry and no bit here.
    tick_armed: ActiveSet,
}

impl Nodes {
    fn len(&self) -> usize {
        self.queue.len()
    }
}

/// The `queue_diff` fold shared by [`MacCtx::queue_diff`] (sequential
/// path) and [`TickView::queue_diff`] (sharded decide path): one
/// implementation, so the two engines cannot diverge. See
/// [`MacCtx::queue_diff`] for the semantics.
fn queue_diff_value(now: SimTime, i: usize, queue: &TxQueue, levels: &NeighborLevels) -> i32 {
    let local = queue.len() as f64;

    // Prefer the communication partner's level: the node the
    // head-of-line frame is addressed to is the one whose service
    // we compete with ("it is beneficial to give the
    // communication partner time", §1). In the paper's
    // single-sink scenarios this is exactly the neighbour set of
    // §4.2; in multi-hop trees it directs exploration pressure
    // down the forwarding chain instead of averaging it away
    // across saturated siblings.
    if let Some(head) = queue.head() {
        if let crate::frame::Address::Node(dst) = head.frame.dst {
            if let Some((level, at)) = levels.get(i, dst.0) {
                if now.since(at) <= NEIGHBOR_LEVEL_TTL {
                    return (local - level as f64).round() as i32;
                }
            }
            // Partner unknown or stale: treat as empty (the sink
            // before its first frame, or a silent neighbour).
            return local.round() as i32;
        }
    }

    // Broadcast head or empty queue: fall back to the average
    // over fresh neighbour reports — a single allocation-free
    // pass over this node's CSR level row (same ascending-id
    // order as the dense table it replaced).
    let (sum, count) =
        levels
            .entries(i)
            .iter()
            .flatten()
            .fold((0.0f64, 0u32), |(sum, count), &(level, at)| {
                if now.since(at) <= NEIGHBOR_LEVEL_TTL {
                    (sum + level as f64, count + 1)
                } else {
                    (sum, count)
                }
            });
    let avg = if count == 0 { 0.0 } else { sum / count as f64 };
    (local - avg).round() as i32
}

enum Notice {
    DeliverUp(NodeId, Frame),
    TxResultUp(NodeId, Frame, TxResult),
    MacEnqueued(NodeId),
    UpperPhyTxEnd(NodeId, Frame, Vec<NodeId>),
}

/// Mutable world state shared by all protocol handlers.
pub struct World {
    medium: Medium,
    clock: FrameClock,
    phy: PhyTiming,
    nodes: Nodes,
    neighbor_levels: NeighborLevels,
    /// Metrics collection (public: scenarios read it directly).
    pub metrics: MetricsHub,
    notices: std::collections::VecDeque<Notice>,
}

impl World {
    /// The shared frame clock.
    pub fn clock(&self) -> &FrameClock {
        &self.clock
    }

    /// The PHY timing table.
    pub fn phy(&self) -> &PhyTiming {
        &self.phy
    }

    /// Immutable medium access (tests, assertions).
    pub fn medium(&self) -> &Medium {
        &self.medium
    }

    /// Is a node active (started and radio on)?
    pub fn is_enabled(&self, node: NodeId) -> bool {
        self.nodes.enabled.get(node.index())
    }

    /// Number of nodes whose subslot tick is currently armed (the
    /// complement of the parked set).
    pub fn armed_ticks(&self) -> usize {
        self.nodes.tick_armed.count()
    }

    /// A node's transmit queue.
    pub fn queue(&self, node: NodeId) -> &TxQueue {
        &self.nodes.queue[node.index()]
    }

    /// The last queue level `rx` heard `src` piggyback, if any
    /// (tests, assertions).
    pub fn neighbor_level(&self, rx: NodeId, src: NodeId) -> Option<(u8, SimTime)> {
        self.neighbor_levels.get(rx.index(), src.0)
    }

    /// Closes a node's energy accounting and returns the report.
    pub fn energy_report(&mut self, node: NodeId, now: SimTime) -> EnergyReport {
        self.nodes.energy[node.index()].finish(now.as_micros())
    }

    fn start_tx_internal(
        &mut self,
        node: NodeId,
        mut frame: Frame,
        channel: u8,
        origin: TxOrigin,
        sched: &mut Scheduler<Event>,
    ) {
        let now = sched.now();
        let i = node.index();
        assert!(
            self.nodes.in_flight[i].is_none(),
            "{node} started a tx while one is in flight"
        );
        frame.src = node;
        frame.queue_level = self.nodes.queue[i].level_u8();

        let airtime = SimDuration::from_micros(self.phy.frame_airtime_us(frame.psdu_octets as u64));
        let token = self.medium.start_tx_on(node.phy(), channel);

        // Nodes mid-CCA on this channel observe the new energy. The
        // listener set is a precomputed CSR slice — no allocation.
        for &r in self.medium.connectivity().listeners(node.phy()) {
            if self.medium.listen_channel(r) == channel {
                if let Some(cca) = &mut self.nodes.cca[r.index()] {
                    cca.saw_energy = true;
                }
            }
        }

        let energy = &mut self.nodes.energy[i];
        energy.count_tx_attempt();
        energy.set_activity(now.as_micros(), qma_phy::RadioActivity::Transmit);
        self.nodes.in_flight[i] = Some((token, frame, origin));
        self.nodes.tx_gen[i] += 1;
        let gen = self.nodes.tx_gen[i];
        self.metrics.mac_mut(node).tx_attempts += 1;
        sched.schedule_at(now + airtime, Event::TxEnd { node, gen });
    }

    /// Applies a node's fault-injected clock offset to an instant —
    /// the node's *local* view of `at`. Negative offsets can reach
    /// into the past; the scheduler clamps and counts those (see
    /// [`SimBuilder::past_clamp_budget`]). Cold: only ever called
    /// once a `ClockSkew` fault has fired.
    #[cold]
    fn skewed_time(&self, i: usize, at: SimTime) -> SimTime {
        let s = self.nodes.skew_us[i];
        if s >= 0 {
            at + SimDuration::from_micros(s as u64)
        } else {
            SimTime::from_micros(at.as_micros().saturating_sub(s.unsigned_abs()))
        }
    }

    /// Inserts `node`'s re-armed subslot tick, generation `gen`, for
    /// the boundary `(frame_index, subslot)` at `at` and sets its
    /// armed-tick bit — the world-global half of
    /// [`MacCtx::set_subslot_timer_at`] and of the tick-plan commit
    /// (the caller has already bumped the generation).
    fn schedule_subslot_tick(
        &mut self,
        node: NodeId,
        gen: u64,
        at: SimTime,
        frame_index: u64,
        subslot: u16,
        sched: &mut Scheduler<Event>,
    ) {
        let i = node.index();
        self.nodes.tick_armed.set(i, true);
        let event = Event::MacTimer {
            node,
            kind: MacTimerKind::Subslot,
            gen,
        };
        if self.nodes.skew_any && self.nodes.skew_us[i] != 0 {
            // A skewed node's tick leaves the boundary grid, so it
            // goes straight to the heap — bucket times in the wheel
            // stay canonical, and heap events serialise the sharded
            // sweep around them (exact order at any shard count).
            sched.schedule_at(self.skewed_time(i, at), event);
            return;
        }
        let index = self.clock.boundary_index(frame_index, subslot);
        sched.schedule_boundary(at, index, event);
    }

    /// Starts a CCA for `node` — the shared backend of
    /// [`MacCtx::start_cca`] and the tick-plan commit. The initial
    /// energy snapshot reads the medium at commit time, so committing
    /// a boundary bucket in bucket order observes exactly the
    /// transmissions earlier bucket positions already started — the
    /// single-core semantics.
    fn start_cca_internal(&mut self, node: NodeId, sched: &mut Scheduler<Event>) {
        let now = sched.now();
        let i = node.index();
        self.nodes.cca_gen[i] += 1;
        let gen = self.nodes.cca_gen[i];
        self.nodes.cca[i] = Some(CcaState {
            saw_energy: self.medium.is_busy(node.phy()),
            gen,
        });
        self.nodes.energy[i].count_cca();
        self.metrics.mac_mut(node).ccas += 1;
        let dur = SimDuration::from_micros(self.phy.cca_us());
        sched.schedule_at(now + dur, Event::CcaEnd { node, gen });
    }

    /// The world-global half of a [`TickPlan`] commit (see
    /// [`commit_tick_local`] for the node-local half, which runs
    /// first): insert the re-armed tick (or clear the parked node's
    /// armed bit), then start the CCA or transmission. The order —
    /// rearm before action — matches the sequential MAC tick, so the
    /// scheduler's sequence numbers (and with them every future
    /// tie-break) come out identical in both engines. `frame` is the
    /// frame of a [`TickEffect::Send`]. Forced inline, like
    /// [`commit_tick_local`]: left to the heuristics, the outlined
    /// halves slowed the sequential 10 000-node grid by about 15 %.
    #[inline(always)]
    fn commit_tick_global(
        &mut self,
        commit: TickCommit,
        frame: Option<Frame>,
        sched: &mut Scheduler<Event>,
    ) {
        let node = commit.node;
        match commit.rearm {
            Some((gen, at, frame_index, subslot)) => {
                self.schedule_subslot_tick(node, gen, at, frame_index, subslot, sched);
            }
            None => self.nodes.tick_armed.set(node.index(), false),
        }
        match commit.effect {
            TickEffect::None => {}
            TickEffect::Cca => self.start_cca_internal(node, sched),
            TickEffect::Send => {
                let frame = frame.expect("a send commit carries its frame");
                self.start_tx_internal(node, frame, 0, TxOrigin::Mac, sched);
            }
        }
    }
}

/// The node-local half of a [`TickPlan`] commit: bump the node's
/// subslot-timer generation when the plan re-arms, and count the
/// action in the node's slot-action row. Both belong to `node` alone
/// — only `node`'s own events read its generation, and counter
/// increments commute — so the sharded sweep runs this inside the
/// parallel decide on each shard's own slices, while the sequential
/// engine runs it right before [`World::commit_tick_global`]. Returns
/// the compact global half, plus the frame of a send.
#[inline(always)]
fn commit_tick_local(
    node: NodeId,
    plan: TickPlan,
    gens: &mut [u64; MacTimerKind::COUNT],
    slot_actions: &mut [[u64; 3]],
) -> (TickCommit, Option<Frame>) {
    let rearm = plan
        .rearm
        .map(|(at, frame_index, subslot)| (next_subslot_gen(gens), at, frame_index, subslot));
    let (effect, frame) = match plan.action {
        None => (TickEffect::None, None),
        Some(TickAction::Backoff { subslot }) => {
            count_slot_action(slot_actions, subslot, SlotAction::Backoff);
            (TickEffect::None, None)
        }
        Some(TickAction::Cca { subslot }) => {
            count_slot_action(slot_actions, subslot, SlotAction::Cca);
            (TickEffect::Cca, None)
        }
        Some(TickAction::Send { subslot, frame }) => {
            count_slot_action(slot_actions, subslot, SlotAction::Tx);
            (TickEffect::Send, Some(frame))
        }
    };
    (
        TickCommit {
            node,
            rearm,
            effect,
        },
        frame,
    )
}

/// Bumps a node's subslot-timer generation — invalidating any tick
/// still in flight — and returns the new one for the re-armed tick.
fn next_subslot_gen(gens: &mut [u64; MacTimerKind::COUNT]) -> u64 {
    let gen = &mut gens[MacTimerKind::Subslot.index()];
    *gen += 1;
    *gen
}

/// What is left of a [`TickPlan`] once its node-local half has run —
/// the record the sharded sweep's outboxes carry to the barrier fold
/// (a send's frame travels out of line).
#[derive(Debug, Clone, Copy)]
struct TickCommit {
    node: NodeId,
    /// The re-armed tick's `(generation, time, frame index, subslot)`;
    /// `None` parks the tick.
    rearm: Option<(u64, SimTime, u64, u16)>,
    effect: TickEffect,
}

/// The world effect of a tick action (a backoff has none beyond its
/// slot-action count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TickEffect {
    None,
    Cca,
    Send,
}

/// What a slot-synchronous MAC decided at one subslot boundary — the
/// output of [`MacProtocol::subslot_decide`], applied to the world by
/// [`MacCtx::apply_tick_plan`] (or, in the sharded sweep, partly by
/// the shard that decided it and partly by the barrier fold).
/// Splitting the tick into a node-local *decision* and a world
/// *commit* is what lets one replication fan its boundary sweep out
/// across cores while committing in the exact single-core order.
#[derive(Debug, Clone)]
pub struct TickPlan {
    /// Re-arm the subslot timer for this boundary `(time, frame
    /// index, subslot)`, or park the tick (`None`).
    pub rearm: Option<(SimTime, u64, u16)>,
    /// The contention action for this subslot, if any.
    pub action: Option<TickAction>,
}

/// The world-side half of a subslot decision.
#[derive(Debug, Clone)]
pub enum TickAction {
    /// Stay in receive mode (recorded for the utilization maps).
    Backoff {
        /// Subslot index the action belongs to.
        subslot: u16,
    },
    /// Start a CCA at the subslot start.
    Cca {
        /// Subslot index the action belongs to.
        subslot: u16,
    },
    /// Transmit `frame` from the subslot start.
    Send {
        /// Subslot index the action belongs to.
        subslot: u16,
        /// The frame to put on the air.
        frame: Frame,
    },
}

/// The node-local read/write surface a subslot decision may touch:
/// the node's own queue (read), RNG (mutate), neighbour-level row
/// (read), the shared clock/PHY tables, and this node's own radio
/// flag. Deliberately **no** scheduler, no medium mutation, no other
/// node's state — that contract is what makes decisions of different
/// nodes at one boundary independent, hence safe to compute on
/// different shards while producing bit-identical results.
pub struct TickView<'a> {
    now: SimTime,
    node: NodeId,
    clock: &'a FrameClock,
    phy: &'a PhyTiming,
    queue: &'a TxQueue,
    levels: &'a NeighborLevels,
    rng: &'a mut StdRng,
    transmitting: bool,
}

impl<'a> TickView<'a> {
    /// Current simulated time (the boundary instant).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this view is scoped to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The shared frame clock.
    pub fn clock(&self) -> &FrameClock {
        self.clock
    }

    /// The PHY timing table.
    pub fn phy(&self) -> &PhyTiming {
        self.phy
    }

    /// The node's transmit queue (read only).
    pub fn queue(&self) -> &TxQueue {
        self.queue
    }

    /// The node's deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Is this node currently transmitting? (Own-radio state only —
    /// mutated exclusively by this node's own events, so the snapshot
    /// cannot race with other shards.)
    pub fn transmitting(&self) -> bool {
        self.transmitting
    }

    /// `local queue level − reported neighbour level` — identical to
    /// [`MacCtx::queue_diff`] (both delegate to the same fold).
    pub fn queue_diff(&self) -> i32 {
        queue_diff_value(self.now, self.node.index(), self.queue, self.levels)
    }
}

/// The MAC protocol interface.
///
/// One object per node; `Send` so a sharded sweep may move a shard's
/// MACs to a worker thread (all state is per-node plain data — no MAC
/// shares anything mutable). All methods receive a [`MacCtx`] scoped
/// to that node.
pub trait MacProtocol: Send {
    /// Called once when the node becomes active.
    fn start(&mut self, ctx: &mut MacCtx<'_>);
    /// A [`MacTimerKind`] timer armed by this MAC fired.
    fn on_timer(&mut self, ctx: &mut MacCtx<'_>, kind: MacTimerKind);
    /// A frame was received cleanly (any addressee — MACs overhear).
    fn on_frame(&mut self, ctx: &mut MacCtx<'_>, frame: &Frame);
    /// This node's own transmission finished its airtime.
    fn on_tx_end(&mut self, ctx: &mut MacCtx<'_>);
    /// A CCA started via [`MacCtx::start_cca`] completed.
    fn on_cca_result(&mut self, ctx: &mut MacCtx<'_>, busy: bool);
    /// The upper layer enqueued a frame into the transmit queue.
    fn on_enqueue(&mut self, ctx: &mut MacCtx<'_>);
    /// The node lost power and is coming back: reset all volatile
    /// MAC state (phase machine, pending-frame bookkeeping) before
    /// [`MacProtocol::start`] runs again. `persist_learning` keeps
    /// the learned policy (Q-table survives in flash); `false` wipes
    /// it, so the node pays the full re-learning cost. The default
    /// is a no-op — correct for memoryless MACs like CSMA whose
    /// `start` already re-initialises everything.
    fn on_reboot(&mut self, persist_learning: bool) {
        let _ = persist_learning;
    }
    /// Per-frame learning metrics (learning MACs only).
    fn learner_sample(&self) -> Option<LearnerSample> {
        None
    }
    /// The current per-subslot policy (learning MACs only), encoded
    /// as the dominant [`SlotAction`] the policy would execute.
    fn policy_snapshot(&self) -> Option<Vec<SlotAction>> {
        None
    }
    /// Does this MAC implement the decide/commit subslot-tick split
    /// ([`MacProtocol::subslot_decide`])? The sharded sweep only
    /// engages when **every** node's MAC does; mixed or legacy
    /// populations fall back to sequential [`MacProtocol::on_timer`]
    /// delivery.
    fn supports_split_tick(&self) -> bool {
        false
    }
    /// The node-local half of a subslot tick: consume the boundary,
    /// mutate only `self` and the view, and return the world commit
    /// as a [`TickPlan`]. Must be behaviourally identical to the
    /// [`MacTimerKind::Subslot`] arm of [`MacProtocol::on_timer`]
    /// followed by [`MacCtx::apply_tick_plan`] — QMA implements
    /// `on_timer` *in terms of* this method, so the two cannot drift.
    /// Returns `None` when unsupported (the default).
    fn subslot_decide(&mut self, view: &mut TickView<'_>) -> Option<TickPlan> {
        let _ = view;
        None
    }
}

/// The upper layer (application, routing, DSME management).
pub trait UpperLayer {
    /// Called once when the node becomes active.
    fn start(&mut self, ctx: &mut UpperCtx<'_>);
    /// A timer armed via [`UpperCtx::schedule`] fired.
    fn on_timer(&mut self, ctx: &mut UpperCtx<'_>, tag: u64);
    /// The MAC delivered a frame addressed to this node.
    fn on_deliver(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame);
    /// The MAC finished a transmission chain for a queued frame.
    fn on_tx_result(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame, result: TxResult);
    /// A direct PHY transmission (CFP/GTS data) finished; `delivered`
    /// lists clean receivers.
    fn on_phy_tx_end(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame, delivered: &[NodeId]) {
        let _ = (ctx, frame, delivered);
    }
}

/// A no-op upper layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullUpper;

impl UpperLayer for NullUpper {
    fn start(&mut self, _: &mut UpperCtx<'_>) {}
    fn on_timer(&mut self, _: &mut UpperCtx<'_>, _: u64) {}
    fn on_deliver(&mut self, _: &mut UpperCtx<'_>, _: &Frame) {}
    fn on_tx_result(&mut self, _: &mut UpperCtx<'_>, _: &Frame, _: TxResult) {}
}

/// Context handed to [`MacProtocol`] methods.
pub struct MacCtx<'a> {
    world: &'a mut World,
    sched: &'a mut Scheduler<Event>,
    /// The node this context is scoped to.
    pub node: NodeId,
}

impl<'a> MacCtx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// The shared frame clock.
    pub fn clock(&self) -> &FrameClock {
        self.world.clock()
    }

    /// The PHY timing table.
    pub fn phy(&self) -> &PhyTiming {
        self.world.phy()
    }

    /// This node's deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.world.nodes.mac_rng[self.node.index()]
    }

    /// The transmit queue (read only; mutate through
    /// [`MacCtx::pop_queue`] / [`MacCtx::queue_head_mut`]).
    pub fn queue(&self) -> &TxQueue {
        &self.world.nodes.queue[self.node.index()]
    }

    /// Mutable head entry for retry bookkeeping.
    pub fn queue_head_mut(&mut self) -> Option<&mut crate::queue::QueuedFrame> {
        self.world.nodes.queue[self.node.index()].head_mut()
    }

    /// Pops the head frame, recording the queue-level change.
    pub fn pop_queue(&mut self) -> Option<crate::queue::QueuedFrame> {
        let now = self.sched.now();
        let queue = &mut self.world.nodes.queue[self.node.index()];
        let popped = queue.pop();
        if popped.is_some() {
            let level = queue.len();
            self.world.metrics.queue_level(self.node, now, level);
        }
        popped
    }

    /// `local queue level − average reported neighbour queue level`,
    /// rounded — the input to QMA's parameter-based exploration
    /// (§4.2).
    ///
    /// Only *fresh* reports count ("the **current** queue level of a
    /// neighbouring node is piggybacked"): entries older than
    /// [`NEIGHBOR_LEVEL_TTL`] expire. This matters under saturation:
    /// a starving neighbour stops transmitting, its stale (full)
    /// report ages out, the local difference rises and exploration
    /// resumes — without the expiry, a fully saturated neighbourhood
    /// reports diff = 0 forever and the region deadlocks with ρ(0)=0.
    /// Neighbours that never piggybacked a level (e.g. a pure sink
    /// before its first frame) count as unknown, so an empty table
    /// yields the local level itself.
    pub fn queue_diff(&self) -> i32 {
        let i = self.node.index();
        queue_diff_value(
            self.sched.now(),
            i,
            &self.world.nodes.queue[i],
            &self.world.neighbor_levels,
        )
    }

    /// Starts a frame transmission on the contention channel. The
    /// frame's `src` and `queue_level` are stamped automatically;
    /// [`MacProtocol::on_tx_end`] fires when the airtime elapses.
    pub fn start_tx(&mut self, frame: Frame) {
        self.world
            .start_tx_internal(self.node, frame, 0, TxOrigin::Mac, self.sched);
    }

    /// Starts a CCA; [`MacProtocol::on_cca_result`] fires after the
    /// 8-symbol window with `busy = true` iff energy was present at
    /// any point of the window.
    pub fn start_cca(&mut self) {
        self.world.start_cca_internal(self.node, self.sched);
    }

    /// Arms (or re-arms) a MAC timer `delay` from now. A
    /// fault-injected clock skew on this node shifts the expiry by
    /// the node's offset (its oscillator runs the timer).
    pub fn set_timer(&mut self, kind: MacTimerKind, delay: SimDuration) {
        let i = self.node.index();
        let gen_slot = &mut self.world.nodes.mac_timer_gen[i][kind.index()];
        *gen_slot += 1;
        let gen = *gen_slot;
        let mut at = self.sched.now() + delay;
        if self.world.nodes.skew_any && self.world.nodes.skew_us[i] != 0 {
            at = self.world.skewed_time(i, at);
        }
        self.sched.schedule_at(
            at,
            Event::MacTimer {
                node: self.node,
                kind,
                gen,
            },
        );
    }

    /// Arms the [`MacTimerKind::Subslot`] timer for the subslot
    /// boundary `(frame_index, subslot)` firing at `at` — the
    /// slot-synchronous fast path. The event goes through the
    /// scheduler's O(1) boundary wheel (when enabled) instead of the
    /// binary heap; delivery order is identical either way. The
    /// armed-tick bit in the world's active set tracks the
    /// non-parked population.
    pub fn set_subslot_timer_at(&mut self, at: SimTime, frame_index: u64, subslot: u16) {
        let gen = next_subslot_gen(&mut self.world.nodes.mac_timer_gen[self.node.index()]);
        self.world
            .schedule_subslot_tick(self.node, gen, at, frame_index, subslot, self.sched);
    }

    /// Is this node's subslot tick currently armed in the world's
    /// active set? Wheel-scheduled ticks are uncancellable
    /// ([`qma_des::EventKey::DETACHED`]), so a MAC re-arming after a
    /// park **must** consult this bit before enqueueing another tick:
    /// arming while the bit is set would leave two live tick events
    /// for one node (the re-arm double-tick hazard).
    pub fn subslot_tick_armed(&self) -> bool {
        self.world.nodes.tick_armed.get(self.node.index())
    }

    /// Applies a [`TickPlan`] — the world-commit half of a subslot
    /// tick. The sequential engine calls this right after
    /// [`MacProtocol::subslot_decide`]; it runs the commit's
    /// node-local half and its global half back to back. The sharded
    /// engine runs the same node-local half inside the parallel decide
    /// and the same global half in the barrier fold, so both engines
    /// execute one code path in one order.
    pub fn apply_tick_plan(&mut self, plan: TickPlan) {
        let i = self.node.index();
        let world = &mut *self.world;
        let (slot_actions, subslots) = world.metrics.slot_action_rows_mut();
        let (commit, frame) = commit_tick_local(
            self.node,
            plan,
            &mut world.nodes.mac_timer_gen[i],
            &mut slot_actions[i * subslots..(i + 1) * subslots],
        );
        world.commit_tick_global(commit, frame, self.sched);
    }

    /// Builds the node-local [`TickView`] for
    /// [`MacProtocol::subslot_decide`].
    pub fn tick_view(&mut self) -> TickView<'_> {
        let i = self.node.index();
        TickView {
            now: self.sched.now(),
            node: self.node,
            clock: &self.world.clock,
            phy: &self.world.phy,
            queue: &self.world.nodes.queue[i],
            levels: &self.world.neighbor_levels,
            rng: &mut self.world.nodes.mac_rng[i],
            transmitting: self.world.medium.is_transmitting(self.node.phy()),
        }
    }

    /// Records that this node parked its subslot tick (idle, nothing
    /// armed) — clears its bit in the world's armed-tick active set.
    /// Called from the MAC's park transition, which keeps the
    /// bookkeeping off the per-tick hot path.
    pub fn park_subslot_tick(&mut self) {
        self.world.nodes.tick_armed.set(self.node.index(), false);
    }

    /// Cancels a MAC timer class.
    pub fn cancel_timer(&mut self, kind: MacTimerKind) {
        self.world.nodes.mac_timer_gen[self.node.index()][kind.index()] += 1;
    }

    /// Hands a received frame to the upper layer (after this handler
    /// returns).
    pub fn deliver_to_upper(&mut self, frame: Frame) {
        self.world
            .notices
            .push_back(Notice::DeliverUp(self.node, frame));
    }

    /// Reports the final outcome of a transmission chain to metrics
    /// and the upper layer.
    pub fn notify_tx_result(&mut self, frame: Frame, result: TxResult) {
        self.world.metrics.tx_result(self.node, result);
        self.world
            .notices
            .push_back(Notice::TxResultUp(self.node, frame, result));
    }

    /// Metrics collection.
    pub fn metrics(&mut self) -> &mut MetricsHub {
        &mut self.world.metrics
    }

    /// Records an executed subslot action for the Fig. 13–15 maps.
    pub fn record_slot_action(&mut self, subslot: u16, action: SlotAction) {
        self.world.metrics.slot_action(self.node, subslot, action);
    }

    /// Is the medium busy right now at this node (instantaneous
    /// energy detection, not the windowed CCA)?
    pub fn medium_busy(&self) -> bool {
        self.world.medium.is_busy(self.node.phy())
    }

    /// Is this node currently transmitting?
    pub fn transmitting(&self) -> bool {
        self.world.medium.is_transmitting(self.node.phy())
    }
}

/// Context handed to [`UpperLayer`] methods.
pub struct UpperCtx<'a> {
    world: &'a mut World,
    sched: &'a mut Scheduler<Event>,
    /// The node this context is scoped to.
    pub node: NodeId,
}

impl<'a> UpperCtx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// The shared frame clock.
    pub fn clock(&self) -> &FrameClock {
        self.world.clock()
    }

    /// This node's deterministic RNG (independent of the MAC stream).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.world.nodes.upper_rng[self.node.index()]
    }

    /// Enqueues a frame for contention transmission. Returns `false`
    /// (frame dropped) when the queue is full. The MAC is notified
    /// after this handler returns.
    pub fn enqueue_mac(&mut self, frame: Frame) -> bool {
        let now = self.sched.now();
        let queue = &mut self.world.nodes.queue[self.node.index()];
        let ok = queue.push(frame, now);
        if ok {
            let level = queue.len();
            self.world.metrics.queue_level(self.node, now, level);
            self.world.notices.push_back(Notice::MacEnqueued(self.node));
        }
        ok
    }

    /// Current queue length.
    pub fn queue_len(&self) -> usize {
        self.world.nodes.queue[self.node.index()].len()
    }

    /// Schedules [`UpperLayer::on_timer`] with `tag` after `delay`.
    /// Upper timers are one-shot and not cancellable; stale-tag
    /// filtering is the upper layer's responsibility. A crash fault
    /// invalidates all of a node's pending upper timers (the rebooted
    /// upper re-seeds its schedule in [`UpperLayer::start`]).
    pub fn schedule(&mut self, delay: SimDuration, tag: u64) {
        let gen = self.world.nodes.upper_gen[self.node.index()];
        self.sched.schedule_in(
            delay,
            Event::UpperTimer {
                node: self.node,
                tag,
                gen,
            },
        );
    }

    /// Transmits a frame directly on the PHY (bypassing the
    /// contention MAC) on `channel` — the DSME CFP/GTS data path.
    /// [`UpperLayer::on_phy_tx_end`] fires when the airtime elapses.
    pub fn phy_tx(&mut self, frame: Frame, channel: u8) {
        self.world
            .start_tx_internal(self.node, frame, channel, TxOrigin::Upper, self.sched);
    }

    /// Is a transmission from this node currently in flight?
    pub fn tx_in_flight(&self) -> bool {
        self.world.nodes.in_flight[self.node.index()].is_some()
    }

    /// Retunes this node's receiver (GTS channel hopping).
    pub fn set_listen_channel(&mut self, channel: u8) {
        self.world
            .medium
            .set_listen_channel(self.node.phy(), channel);
    }

    /// Metrics collection.
    pub fn metrics(&mut self) -> &mut MetricsHub {
        &mut self.world.metrics
    }
}

/// Factory signature for per-node MAC construction.
pub type MacFactory<M = Box<dyn MacProtocol>> = Box<dyn Fn(NodeId, &FrameClock) -> M>;
/// Factory signature for per-node upper-layer construction.
pub type UpperFactory<U = Box<dyn UpperLayer>> = Box<dyn Fn(NodeId, &FrameClock) -> U>;

// Forwarding impls: a boxed protocol object is itself a protocol
// object. This is what lets `Sim` be generic over the MAC/upper types
// (enum-based static dispatch on the hot path) while `Box<dyn …>`
// factories — tests, exotic uppers — keep working unchanged.
impl<T: MacProtocol + ?Sized> MacProtocol for Box<T> {
    #[inline]
    fn start(&mut self, ctx: &mut MacCtx<'_>) {
        (**self).start(ctx)
    }
    #[inline]
    fn on_timer(&mut self, ctx: &mut MacCtx<'_>, kind: MacTimerKind) {
        (**self).on_timer(ctx, kind)
    }
    #[inline]
    fn on_frame(&mut self, ctx: &mut MacCtx<'_>, frame: &Frame) {
        (**self).on_frame(ctx, frame)
    }
    #[inline]
    fn on_tx_end(&mut self, ctx: &mut MacCtx<'_>) {
        (**self).on_tx_end(ctx)
    }
    #[inline]
    fn on_cca_result(&mut self, ctx: &mut MacCtx<'_>, busy: bool) {
        (**self).on_cca_result(ctx, busy)
    }
    #[inline]
    fn on_enqueue(&mut self, ctx: &mut MacCtx<'_>) {
        (**self).on_enqueue(ctx)
    }
    #[inline]
    fn on_reboot(&mut self, persist_learning: bool) {
        (**self).on_reboot(persist_learning)
    }
    #[inline]
    fn learner_sample(&self) -> Option<LearnerSample> {
        (**self).learner_sample()
    }
    #[inline]
    fn policy_snapshot(&self) -> Option<Vec<SlotAction>> {
        (**self).policy_snapshot()
    }
    #[inline]
    fn supports_split_tick(&self) -> bool {
        (**self).supports_split_tick()
    }
    #[inline]
    fn subslot_decide(&mut self, view: &mut TickView<'_>) -> Option<TickPlan> {
        (**self).subslot_decide(view)
    }
}

impl<T: UpperLayer + ?Sized> UpperLayer for Box<T> {
    #[inline]
    fn start(&mut self, ctx: &mut UpperCtx<'_>) {
        (**self).start(ctx)
    }
    #[inline]
    fn on_timer(&mut self, ctx: &mut UpperCtx<'_>, tag: u64) {
        (**self).on_timer(ctx, tag)
    }
    #[inline]
    fn on_deliver(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame) {
        (**self).on_deliver(ctx, frame)
    }
    #[inline]
    fn on_tx_result(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame, result: TxResult) {
        (**self).on_tx_result(ctx, frame, result)
    }
    #[inline]
    fn on_phy_tx_end(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame, delivered: &[NodeId]) {
        (**self).on_phy_tx_end(ctx, frame, delivered)
    }
}

/// Builder for a [`Sim`].
///
/// Generic over the MAC (`M`) and upper-layer (`U`) types stored per
/// node. The defaults are boxed trait objects, so factories returning
/// `Box<dyn …>` work exactly as before; installing a factory that
/// returns a concrete type (e.g. an enum over all protocol variants)
/// switches the whole event hot path to static dispatch.
pub struct SimBuilder<M = Box<dyn MacProtocol>, U = Box<dyn UpperLayer>> {
    conn: Connectivity,
    channels: u8,
    clock: FrameClock,
    phy: PhyTiming,
    power: PowerProfile,
    queue_capacity: usize,
    seed: u64,
    mac_factory: Option<MacFactory<M>>,
    upper_factory: UpperFactory<U>,
    node_starts: BTreeMap<u32, SimTime>,
    record_learner: bool,
    scheduler_wheel: bool,
    shards: usize,
    shard_batch_min: usize,
    shard_pool: bool,
    fault_plan: Option<crate::faults::FaultPlan>,
    past_clamp_budget: u64,
}

/// Process-wide default for [`SimBuilder::scheduler_wheel`] — `true`
/// unless overridden. Exists so wheel-vs-heap equivalence tests and
/// benchmarks can flip the scheduling engine underneath code (e.g.
/// campaign runs) that builds its simulations internally.
static SCHEDULER_WHEEL_DEFAULT: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(true);

/// Sets the process-wide default for the boundary-wheel scheduler
/// (see [`SimBuilder::scheduler_wheel`]). Intended for equivalence
/// tests and benchmarks; simulations built afterwards pick it up.
pub fn set_default_scheduler_wheel(enabled: bool) {
    SCHEDULER_WHEEL_DEFAULT.store(enabled, std::sync::atomic::Ordering::SeqCst);
}

/// The current process-wide boundary-wheel default.
pub fn default_scheduler_wheel() -> bool {
    SCHEDULER_WHEEL_DEFAULT.load(std::sync::atomic::Ordering::SeqCst)
}

/// Process-wide default for [`SimBuilder::shards`] — `1` (no
/// sharding) unless overridden. Exists so the campaign binary's
/// `--shards` flag (and shard-equivalence tests) can flip the
/// execution engine underneath code that builds its simulations
/// internally, exactly like the scheduler-wheel default above.
static SHARDS_DEFAULT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(1);

/// Sets the process-wide default shard count (see
/// [`SimBuilder::shards`]). Values below 1 are treated as 1.
pub fn set_default_shards(shards: usize) {
    SHARDS_DEFAULT.store(shards.max(1), std::sync::atomic::Ordering::SeqCst);
}

/// The current process-wide shard-count default.
pub fn default_shards() -> usize {
    SHARDS_DEFAULT.load(std::sync::atomic::Ordering::SeqCst)
}

/// Default for [`SimBuilder::shard_batch_min`]: boundary buckets
/// smaller than this run sequentially even when sharding is on — the
/// per-barrier fork/join overhead needs a population to amortise over.
pub const SHARD_BATCH_MIN_DEFAULT: usize = 192;

/// Process-wide default for [`SimBuilder::shard_batch_min`].
static SHARD_BATCH_MIN: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(SHARD_BATCH_MIN_DEFAULT);

/// Sets the process-wide default for
/// [`SimBuilder::shard_batch_min`] — equivalence tests force the
/// parallel sweep onto small worlds by lowering it to 1.
pub fn set_default_shard_batch_min(min: usize) {
    SHARD_BATCH_MIN.store(min.max(1), std::sync::atomic::Ordering::SeqCst);
}

/// The current process-wide shard-batch-minimum default.
pub fn default_shard_batch_min() -> usize {
    SHARD_BATCH_MIN.load(std::sync::atomic::Ordering::SeqCst)
}

/// Process-wide default for [`SimBuilder::shard_pool`] — `true`
/// unless overridden. Exists so the determinism suite can pin the
/// scoped fork/join path underneath scenario code that builds its
/// simulations internally, and diff it against the pool.
static SHARD_POOL_DEFAULT: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

/// Sets the process-wide default for the persistent shard worker pool
/// (see [`SimBuilder::shard_pool`]).
pub fn set_default_shard_pool(enabled: bool) {
    SHARD_POOL_DEFAULT.store(enabled, std::sync::atomic::Ordering::SeqCst);
}

/// The current process-wide shard-pool default.
pub fn default_shard_pool() -> bool {
    SHARD_POOL_DEFAULT.load(std::sync::atomic::Ordering::SeqCst)
}

impl SimBuilder {
    /// Starts a builder over a connectivity graph with a master seed.
    pub fn new(conn: Connectivity, seed: u64) -> Self {
        SimBuilder {
            conn,
            channels: 1,
            clock: FrameClock::dsme_so3(),
            phy: PhyTiming::oqpsk_2_4ghz(),
            power: PowerProfile::default(),
            queue_capacity: 8,
            seed,
            mac_factory: None,
            upper_factory: Box::new(|_, _| Box::new(NullUpper) as Box<dyn UpperLayer>),
            node_starts: BTreeMap::new(),
            record_learner: true,
            scheduler_wheel: default_scheduler_wheel(),
            shards: default_shards(),
            shard_batch_min: default_shard_batch_min(),
            shard_pool: default_shard_pool(),
            fault_plan: None,
            past_clamp_budget: u64::MAX,
        }
    }
}

impl<M: MacProtocol, U: UpperLayer> SimBuilder<M, U> {
    /// Sets the frame clock (default: DSME SO=3 with 54 subslots).
    pub fn clock(mut self, clock: FrameClock) -> Self {
        self.clock = clock;
        self
    }

    /// Sets the number of orthogonal channels (default 1).
    pub fn channels(mut self, channels: u8) -> Self {
        self.channels = channels;
        self
    }

    /// Sets the MAC queue capacity (default 8, as in the paper).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the per-state power profile for energy accounting.
    pub fn power_profile(mut self, power: PowerProfile) -> Self {
        self.power = power;
        self
    }

    /// Installs the MAC factory (required). The factory's return type
    /// selects the dispatch mode: a concrete type (enum) gives static
    /// dispatch, `Box<dyn MacProtocol>` the classic dynamic dispatch.
    pub fn mac_factory<M2, F>(self, f: F) -> SimBuilder<M2, U>
    where
        M2: MacProtocol,
        F: Fn(NodeId, &FrameClock) -> M2 + 'static,
    {
        SimBuilder {
            conn: self.conn,
            channels: self.channels,
            clock: self.clock,
            phy: self.phy,
            power: self.power,
            queue_capacity: self.queue_capacity,
            seed: self.seed,
            mac_factory: Some(Box::new(f)),
            upper_factory: self.upper_factory,
            node_starts: self.node_starts,
            record_learner: self.record_learner,
            scheduler_wheel: self.scheduler_wheel,
            shards: self.shards,
            shard_batch_min: self.shard_batch_min,
            shard_pool: self.shard_pool,
            fault_plan: self.fault_plan,
            past_clamp_budget: self.past_clamp_budget,
        }
    }

    /// Installs the upper-layer factory (default: no-op upper). Like
    /// [`SimBuilder::mac_factory`], the return type selects static or
    /// dynamic dispatch.
    pub fn upper_factory<U2, F>(self, f: F) -> SimBuilder<M, U2>
    where
        U2: UpperLayer,
        F: Fn(NodeId, &FrameClock) -> U2 + 'static,
    {
        SimBuilder {
            conn: self.conn,
            channels: self.channels,
            clock: self.clock,
            phy: self.phy,
            power: self.power,
            queue_capacity: self.queue_capacity,
            seed: self.seed,
            mac_factory: self.mac_factory,
            upper_factory: Box::new(f),
            node_starts: self.node_starts,
            record_learner: self.record_learner,
            scheduler_wheel: self.scheduler_wheel,
            shards: self.shards,
            shard_batch_min: self.shard_batch_min,
            shard_pool: self.shard_pool,
            fault_plan: self.fault_plan,
            past_clamp_budget: self.past_clamp_budget,
        }
    }

    /// Delays a node's activation (e.g. Fig. 12's node C joins the
    /// network 100 s after node A).
    pub fn node_start(mut self, node: NodeId, at: SimTime) -> Self {
        self.node_starts.insert(node.0, at);
        self
    }

    /// Enables/disables per-frame learner sampling (default on).
    pub fn record_learner(mut self, on: bool) -> Self {
        self.record_learner = on;
        self
    }

    /// Enables/disables the O(1) boundary-wheel scheduling of subslot
    /// ticks (default: the process-wide default, normally on).
    /// Disabling it routes every event through the binary heap —
    /// results are bit-identical either way; the flag exists for
    /// equivalence tests and wheel-vs-heap benchmarks.
    pub fn scheduler_wheel(mut self, on: bool) -> Self {
        self.scheduler_wheel = on;
        self
    }

    /// Shards one replication's boundary sweep across `k` worker
    /// threads (default: the process-wide default, normally 1). The
    /// node population is partitioned into `k` contiguous ranges —
    /// spatial tiles on the row-major grid, hash-ring chunks on the
    /// hidden star — and at every subslot boundary each shard computes
    /// its nodes' tick decisions in parallel; world effects are then
    /// committed in the deterministic ascending bucket order, so
    /// results are **bit-identical for every `k`**. Requires the
    /// boundary wheel and a population whose MACs all implement the
    /// decide/commit split; anything else falls back to the sequential
    /// engine (same results, one core).
    pub fn shards(mut self, k: usize) -> Self {
        self.shards = k.max(1);
        self
    }

    /// Minimum boundary-bucket population for the parallel sweep
    /// (default [`SHARD_BATCH_MIN_DEFAULT`]); smaller buckets run
    /// sequentially. Exposed so equivalence tests can force the
    /// parallel path on small worlds.
    pub fn shard_batch_min(mut self, min: usize) -> Self {
        self.shard_batch_min = min.max(1);
        self
    }

    /// Runs the sharded boundary sweep on a persistent condvar-parked
    /// worker pool (default: the process-wide default, normally on)
    /// instead of a per-boundary `std::thread::scope` fork/join.
    /// Results are **bit-identical either way** — the pool changes
    /// where decide tasks run, never what they compute — and the
    /// determinism suite diffs the two paths to prove it. Irrelevant
    /// for single-shard plans (no threads either way).
    pub fn shard_pool(mut self, on: bool) -> Self {
        self.shard_pool = on;
        self
    }

    /// Arms a deterministic fault schedule (see [`crate::faults`]).
    /// The plan's events are scheduled as first-class DES events at
    /// build time; an armed-but-empty plan costs nothing measurable.
    pub fn fault_plan(mut self, plan: crate::faults::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Caps the number of past-time schedules (clock-skew faults push
    /// timers into the past, which the scheduler clamps and counts)
    /// before the run aborts with a structured
    /// [`PastClampBudgetExceeded`] error instead of silently
    /// simulating garbage. Default: unlimited. Setting any budget
    /// also switches the scheduler to tolerant clamping (counting
    /// instead of the debug-build panic).
    pub fn past_clamp_budget(mut self, budget: u64) -> Self {
        self.past_clamp_budget = budget;
        self
    }

    /// Builds the simulation.
    ///
    /// # Panics
    ///
    /// Panics if no MAC factory was installed.
    pub fn build(self) -> Sim<M, U> {
        let mac_factory = self.mac_factory.expect("a MAC factory is required");
        let n = self.conn.len();
        let plan = qma_des::ShardPlan::contiguous(n, self.shards);
        // The spatial medium partition (border classification) only
        // exists for sharded runs; K = 1 has no borders by definition.
        let partition = (plan.shards() > 1)
            .then(|| qma_phy::MediumPartition::from_bounds(&self.conn, plan.bounds()));
        let seeds = SeedSequence::new(self.seed);
        let nodes = Nodes {
            queue: (0..n).map(|_| TxQueue::new(self.queue_capacity)).collect(),
            energy: vec![EnergyMeter::new(self.power); n],
            in_flight: (0..n).map(|_| None).collect(),
            cca: (0..n).map(|_| None).collect(),
            cca_gen: vec![0; n],
            mac_timer_gen: vec![[0; MacTimerKind::COUNT]; n],
            tx_gen: vec![0; n],
            upper_gen: vec![0; n],
            skew_us: vec![0; n],
            skew_any: false,
            mac_rng: (0..n)
                .map(|i| seeds.derive(1).derive(i as u64).rng())
                .collect(),
            upper_rng: (0..n)
                .map(|i| seeds.derive(2).derive(i as u64).rng())
                .collect(),
            enabled: ActiveSet::new(n),
            tick_armed: ActiveSet::new(n),
        };
        let neighbor_levels = NeighborLevels::new(&self.conn);
        let subslots = self.clock.subslots();
        let macs: Vec<M> = (0..n)
            .map(|i| mac_factory(NodeId(i as u32), &self.clock))
            .collect();
        let uppers: Vec<U> = (0..n)
            .map(|i| (self.upper_factory)(NodeId(i as u32), &self.clock))
            .collect();

        let mut sched = Scheduler::new();
        if self.scheduler_wheel {
            // Subslot ticks are armed at most one frame ahead; two
            // frames of boundaries comfortably cover every in-window
            // insert (out-of-window ones fall back to the heap).
            sched.enable_wheel(2 * (subslots as usize + 2));
        }
        sched.schedule_at(SimTime::ZERO, Event::Start);
        // BTreeMap order: EnableNode events for nodes sharing a start
        // instant are inserted in node-id order, so heap FIFO
        // tie-breaking is identical in every process.
        for (i, &t) in &self.node_starts {
            if t > SimTime::ZERO {
                sched.schedule_at(t, Event::EnableNode { node: NodeId(*i) });
            }
        }

        // Fault events are heap-scheduled in plan order, so ties at
        // one instant fire in authoring order and the sharded sweep
        // serialises around them (see `crate::faults`). A budget or
        // an armed plan declares past-time clamps expected — counted
        // against the budget instead of the debug-build panic.
        if self.past_clamp_budget != u64::MAX || self.fault_plan.is_some() {
            sched.set_clamp_tolerant(true);
        }
        if let Some(plan) = &self.fault_plan {
            for (idx, ev) in plan.events().iter().enumerate() {
                sched.schedule_at(ev.at, Event::Fault { idx: idx as u32 });
            }
        }

        // The sharded sweep only engages when every node's MAC opted
        // into the decide/commit split; a single legacy MAC in the
        // population falls the whole run back to sequential delivery.
        let split_ticks = self.scheduler_wheel && macs.iter().all(|m| m.supports_split_tick());
        let shard_scratch = ShardScratch::new(plan.shards());
        // One persistent pool per simulation (K − 1 threads: the
        // driver thread participates in every barrier), parked on a
        // condvar between boundaries. Only sized here: the first
        // parallel bucket spawns it, so a run whose buckets all stay
        // below the batch threshold never pays for the threads.
        let shard_pool = LazyPool {
            threads: if self.shard_pool && plan.shards() > 1 && split_ticks {
                plan.shards() - 1
            } else {
                0
            },
            pool: None,
        };

        Sim {
            world: World {
                medium: Medium::with_channels(self.conn, self.channels),
                clock: self.clock,
                phy: self.phy,
                nodes,
                neighbor_levels,
                metrics: MetricsHub::new(n, subslots),
                notices: std::collections::VecDeque::new(),
            },
            macs,
            uppers,
            sched,
            node_starts: self.node_starts,
            record_learner: self.record_learner,
            delivered_scratch: Vec::new(),
            plan,
            partition,
            split_ticks,
            shard_batch_min: self.shard_batch_min,
            batch_scratch: Vec::new(),
            shard_scratch,
            sweep_stats: SweepStats::default(),
            shard_pool,
            fault_plan: self.fault_plan,
            past_clamp_budget: self.past_clamp_budget,
        }
    }
}

/// One shard's private buffers in the sharded sweep, on cache lines
/// of its own.
///
/// **The lane rule:** during the parallel decide (phase 1), no cache
/// line is written by two shards. A shard's decide job pushes into its
/// outbox and frame queue once per decided tick, and each push writes
/// the buffer's header (length, head). Headers of different shards
/// that shared a line would bounce it between cores on every tick, so
/// a lane is aligned to 128 bytes — two 64-byte lines, the unit the
/// adjacent-line prefetcher pulls in — and lanes sit 128 bytes apart.
/// The node-indexed state a job writes (MACs, RNGs, timer generations,
/// slot-action rows) is split into contiguous per-shard slices, so the
/// only lines two shards may both write are the one line at each edge
/// between two slices.
#[repr(align(128))]
struct ShardLane {
    /// `(bucket position, node id, timer generation)` ticks of this
    /// shard, filled by the driver while bucketing a drained boundary
    /// batch and only read in phase 1.
    slate: Vec<(u32, u32, u64)>,
    /// `(bucket position, commit)` records — the boundary-exchange
    /// staging the barrier fold consumes.
    outbox: Vec<(u32, TickCommit)>,
    /// Frames of the outbox's sends, in outbox order — kept out of
    /// line so an outbox record stays small.
    frames: std::collections::VecDeque<Frame>,
}

impl AsMut<Vec<(u32, TickCommit)>> for ShardLane {
    fn as_mut(&mut self) -> &mut Vec<(u32, TickCommit)> {
        &mut self.outbox
    }
}

/// Reusable per-barrier buffers of the sharded sweep: one
/// [`ShardLane`] per shard, written in phase 1 only by that shard's
/// decide job and drained by the barrier fold, plus the fold's own
/// frame queues. The fold reads the frames from those queues — a
/// lane's filled queue swaps with the fold's drained one at every
/// barrier — so it never borrows a lane while
/// [`qma_des::merge_by_pos`] drains the lanes' outboxes. Every buffer
/// keeps its capacity across boundaries, and the pool's published task
/// list inside [`qma_des::ShardPool::scope_run`] does the same. A
/// parallel bucket still allocates twice: the vector of its decide
/// tasks (they borrow this bucket's slices, so it cannot outlive the
/// bucket) and the lane cursors of [`qma_des::merge_by_pos`].
struct ShardScratch {
    lanes: Vec<ShardLane>,
    /// Per-shard frames the fold pops, in outbox order; empty between
    /// barriers.
    fold_frames: Vec<std::collections::VecDeque<Frame>>,
}

impl ShardScratch {
    fn new(shards: usize) -> Self {
        ShardScratch {
            lanes: (0..shards)
                .map(|_| ShardLane {
                    slate: Vec::new(),
                    outbox: Vec::new(),
                    frames: std::collections::VecDeque::new(),
                })
                .collect(),
            fold_frames: (0..shards)
                .map(|_| std::collections::VecDeque::new())
                .collect(),
        }
    }
}

/// The sharded sweep's persistent decide workers, spawned by the first
/// parallel bucket rather than at build time: most runs of small
/// worlds never fill a bucket up to [`SimBuilder::shard_batch_min`].
struct LazyPool {
    /// Workers to spawn (K − 1); zero runs parallel buckets on
    /// per-boundary scoped threads instead.
    threads: usize,
    pool: Option<qma_des::ShardPool>,
}

impl LazyPool {
    /// The pool, spawned on first use; `None` for scoped threads.
    fn get(&mut self) -> Option<&mut qma_des::ShardPool> {
        let threads = self.threads;
        (threads > 0).then(|| {
            self.pool
                .get_or_insert_with(|| qma_des::ShardPool::new(threads))
        })
    }
}

/// Always-on counters of the sharded boundary sweep ([`Sim::sweep_stats`]):
/// plain integers, no clock. All zero for a run whose sweep is not
/// armed ([`Sim::sharded_sweep_armed`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Boundary buckets whose ticks were decided in parallel.
    pub parallel_buckets: u64,
    /// Tick commits folded at the barriers of those buckets.
    pub folded_ticks: u64,
    /// Drained boundary buckets delivered sequentially instead: below
    /// [`SimBuilder::shard_batch_min`], or holding an event other than
    /// a subslot tick.
    pub sequential_buckets: u64,
}

/// A runnable simulation.
///
/// `M` and `U` are the per-node MAC and upper-layer types; see
/// [`SimBuilder`] for how they are chosen.
pub struct Sim<M = Box<dyn MacProtocol>, U = Box<dyn UpperLayer>> {
    world: World,
    macs: Vec<M>,
    uppers: Vec<U>,
    sched: Scheduler<Event>,
    node_starts: BTreeMap<u32, SimTime>,
    record_learner: bool,
    /// Reusable buffer for the enabled clean receivers of a
    /// transmission (the per-`TxEnd` delivered set).
    delivered_scratch: Vec<NodeId>,
    /// Contiguous spatial shard plan (one shard ⇒ sequential engine).
    plan: qma_des::ShardPlan,
    /// Border classification of the partitioned medium (sharded runs
    /// only).
    partition: Option<qma_phy::MediumPartition>,
    /// Every MAC supports the decide/commit tick split.
    split_ticks: bool,
    /// Boundary buckets below this size run sequentially.
    shard_batch_min: usize,
    /// Reusable drained-boundary-bucket buffer.
    batch_scratch: Vec<(SimTime, Event)>,
    /// Reusable per-shard lanes.
    shard_scratch: ShardScratch,
    /// Counters of the sharded sweep.
    sweep_stats: SweepStats,
    /// Persistent decide workers, spawned by the first parallel
    /// bucket (never, for per-boundary scoped fork/join or an
    /// unsharded plan).
    shard_pool: LazyPool,
    /// The armed fault schedule, if any (see [`crate::faults`]).
    fault_plan: Option<crate::faults::FaultPlan>,
    /// Abort threshold for past-time clamps (`u64::MAX` = unlimited).
    past_clamp_budget: u64,
}

/// A replication exceeded its [`SimBuilder::past_clamp_budget`]:
/// fault-injected clock skew pushed more events into the past than
/// the scenario declared tolerable, so the run aborted instead of
/// silently simulating garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PastClampBudgetExceeded {
    /// Past-time schedules observed when the run aborted.
    pub past_clamps: u64,
    /// The configured budget.
    pub budget: u64,
    /// Simulated time at the abort.
    pub at: SimTime,
}

impl std::fmt::Display for PastClampBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "past-clamp budget exceeded: {} past-time schedules > budget {} at t={:.6}s",
            self.past_clamps,
            self.budget,
            self.at.as_secs_f64()
        )
    }
}

impl std::error::Error for PastClampBudgetExceeded {}

impl<M: MacProtocol, U: UpperLayer> Sim<M, U> {
    /// Runs until simulated time `horizon`, then closes metrics.
    ///
    /// # Panics
    ///
    /// Panics when the [`SimBuilder::past_clamp_budget`] is exceeded
    /// (use [`Sim::try_run_until`] to handle that case as a value).
    pub fn run_until(&mut self, horizon: SimTime) {
        if let Err(e) = self.try_run_until(horizon) {
            panic!("{e}");
        }
    }

    /// Like [`Sim::run_until`], but reports a blown past-clamp budget
    /// as a structured error instead of panicking. Metrics are not
    /// closed on the error path — the replication is garbage by
    /// definition.
    pub fn try_run_until(&mut self, horizon: SimTime) -> Result<(), PastClampBudgetExceeded> {
        /// One shard's slice of a boundary bucket: everything phase 1
        /// of the sharded sweep needs to decide its ticks and run
        /// their node-local commit half without touching shared
        /// mutable state. Built per boundary from disjoint
        /// `split_at_mut` slices; executed on the persistent pool or a
        /// scoped thread — bit-identical either way, since the job
        /// only writes its own slices and lane and the global fold
        /// replays in global bucket order.
        struct DecideJob<'a, M> {
            now: SimTime,
            base: usize,
            /// This shard's lane: slate in, outbox and frames out.
            lane: &'a mut ShardLane,
            macs: &'a mut [M],
            rngs: &'a mut [StdRng],
            gens: &'a mut [[u64; MacTimerKind::COUNT]],
            /// The shard's slot-action rows, `subslots` cells per node.
            slot_actions: &'a mut [[u64; 3]],
            subslots: usize,
            queues: &'a [TxQueue],
            enabled: &'a ActiveSet,
            levels: &'a NeighborLevels,
            medium: &'a Medium,
            clock: &'a FrameClock,
            phy: &'a PhyTiming,
        }

        impl<M: MacProtocol> DecideJob<'_, M> {
            fn run(&mut self) {
                let ShardLane {
                    slate,
                    outbox,
                    frames,
                } = &mut *self.lane;
                for &(pos, node, gen) in slate.iter() {
                    let i = node as usize;
                    let j = i - self.base;
                    // The same validity gate the sequential dispatcher
                    // applies. A bucket holds at most one live tick per
                    // node, and only the node's own commit bumps its
                    // generation, so no commit in this bucket can
                    // change another entry's verdict.
                    if !self.enabled.get(i) || self.gens[j][MacTimerKind::Subslot.index()] != gen {
                        continue;
                    }
                    let mut view = TickView {
                        now: self.now,
                        node: NodeId(node),
                        clock: self.clock,
                        phy: self.phy,
                        queue: &self.queues[i],
                        levels: self.levels,
                        rng: &mut self.rngs[j],
                        transmitting: self.medium.is_transmitting(qma_phy::PhyNodeId(node)),
                    };
                    let decided = self.macs[j]
                        .subslot_decide(&mut view)
                        .expect("split-tick MAC must return a plan");
                    let (commit, frame) = commit_tick_local(
                        NodeId(node),
                        decided,
                        &mut self.gens[j],
                        &mut self.slot_actions[j * self.subslots..(j + 1) * self.subslots],
                    );
                    frames.extend(frame);
                    outbox.push((pos, commit));
                }
            }
        }

        struct Driver<'s, M, U> {
            world: &'s mut World,
            macs: &'s mut [M],
            uppers: &'s mut [U],
            node_starts: &'s BTreeMap<u32, SimTime>,
            record_learner: bool,
            /// The armed fault schedule's events (empty when none).
            faults: &'s [crate::faults::FaultEvent],
            /// Enabled clean receivers of the `TxEnd` being handled.
            delivered: &'s mut Vec<NodeId>,
        }

        impl<M: MacProtocol, U: UpperLayer> Driver<'_, M, U> {
            fn enable_node(&mut self, node: NodeId, sched: &mut Scheduler<Event>) {
                self.world.nodes.enabled.set(node.index(), true);
                let mut mctx = MacCtx {
                    world: self.world,
                    sched,
                    node,
                };
                self.macs[node.index()].start(&mut mctx);
                let mut uctx = UpperCtx {
                    world: self.world,
                    sched,
                    node,
                };
                self.uppers[node.index()].start(&mut uctx);
            }

            /// Power-fails a node: radio off, every pending event
            /// generation invalidated, queue contents lost, any
            /// transmission in flight aborted mid-air. MAC and upper
            /// objects keep their (now unreachable) state until the
            /// reboot decides what survives.
            fn crash_node(&mut self, node: NodeId, sched: &mut Scheduler<Event>) {
                let i = node.index();
                if !self.world.nodes.enabled.get(i) {
                    return; // already down (or never started)
                }
                let now = sched.now();
                let nodes = &mut self.world.nodes;
                nodes.enabled.set(i, false);
                nodes.tick_armed.set(i, false);
                for g in nodes.mac_timer_gen[i].iter_mut() {
                    *g += 1;
                }
                nodes.cca_gen[i] += 1;
                nodes.cca[i] = None;
                nodes.tx_gen[i] += 1;
                nodes.upper_gen[i] += 1;
                if let Some((token, _, _)) = nodes.in_flight[i].take() {
                    self.world.medium.abort_tx(token);
                }
                self.world.medium.drop_rx_lock(node.phy());
                let lost = {
                    let queue = &mut self.world.nodes.queue[i];
                    let mut lost = 0u64;
                    while queue.pop().is_some() {
                        lost += 1;
                    }
                    lost
                };
                self.world.nodes.energy[i]
                    .set_activity(now.as_micros(), qma_phy::RadioActivity::Sleep);
                if lost > 0 {
                    // Queue wipe is a *fault* loss, not a MAC drop —
                    // tracked separately so resilience metrics can
                    // attribute it.
                    self.world.metrics.count("fault_frames_lost", lost as f64);
                }
                self.world.metrics.queue_level(node, now, 0);
                self.world.metrics.count("fault_crashes", 1.0);
            }

            /// Brings a crashed node back: volatile MAC state is reset
            /// (policy optionally persisted), then the normal start
            /// sequence runs — the MAC re-arms its tick, the upper
            /// re-seeds its traffic schedule.
            fn reboot_node(
                &mut self,
                node: NodeId,
                persist_learning: bool,
                sched: &mut Scheduler<Event>,
            ) {
                if self.world.nodes.enabled.get(node.index()) {
                    return; // already up
                }
                self.macs[node.index()].on_reboot(persist_learning);
                self.world.metrics.count("fault_reboots", 1.0);
                self.enable_node(node, sched);
            }

            /// Applies one scheduled fault event. Cold by
            /// construction: plans hold a handful of events per run.
            #[cold]
            fn apply_fault(&mut self, idx: u32, sched: &mut Scheduler<Event>) {
                use crate::faults::FaultKind;
                // Reborrow the plan slice outside `self` so the match
                // arms can take `&mut self` freely.
                let faults = self.faults;
                match &faults[idx as usize].kind {
                    FaultKind::Crash { node } => self.crash_node(NodeId(*node), sched),
                    FaultKind::Reboot {
                        node,
                        persist_learning,
                    } => self.reboot_node(NodeId(*node), *persist_learning, sched),
                    FaultKind::JamStart { nodes } => {
                        for &n in nodes {
                            self.world.medium.set_jammed(PhyNodeId(n), true);
                            // A CCA window straddling the jam onset
                            // sees the jammer's energy.
                            if let Some(cca) = &mut self.world.nodes.cca[n as usize] {
                                cca.saw_energy = true;
                            }
                        }
                        self.world.metrics.count("fault_jam_bursts", 1.0);
                    }
                    FaultKind::JamEnd { nodes } => {
                        for &n in nodes {
                            self.world.medium.set_jammed(PhyNodeId(n), false);
                        }
                    }
                    FaultKind::DegradeLinks { links } => {
                        for &(t, r) in links {
                            self.world
                                .medium
                                .set_link_degraded(PhyNodeId(t), PhyNodeId(r), true);
                        }
                        self.world.metrics.count("fault_drift_episodes", 1.0);
                    }
                    FaultKind::RestoreLinks { links } => {
                        for &(t, r) in links {
                            self.world
                                .medium
                                .set_link_degraded(PhyNodeId(t), PhyNodeId(r), false);
                        }
                    }
                    FaultKind::ClockSkew { nodes, offset_us } => {
                        for &n in nodes {
                            self.world.nodes.skew_us[n as usize] = *offset_us;
                        }
                        if *offset_us != 0 {
                            self.world.nodes.skew_any = true;
                        }
                        self.world.metrics.count("fault_skew_events", 1.0);
                    }
                }
            }

            /// One drained boundary bucket through the sharded sweep:
            /// bucket the ticks by owning shard, decide in parallel and
            /// run each decision's node-local commit half there (node
            /// state only), then run the global commit half through the
            /// barrier fold in exact bucket order. Results are
            /// bit-identical to sequential delivery by construction —
            /// decisions of distinct nodes read no state any
            /// same-instant commit writes, and the global commits
            /// replay in the sequential order.
            fn handle_subslot_batch(
                &mut self,
                batch: &mut Vec<(SimTime, Event)>,
                sched: &mut Scheduler<Event>,
                plan: &qma_des::ShardPlan,
                scratch: &mut ShardScratch,
                pool: &mut LazyPool,
                stats: &mut SweepStats,
            ) {
                for lane in scratch.lanes.iter_mut() {
                    lane.slate.clear();
                }
                // Only subslot ticks travel through the wheel today;
                // anything else falls the whole batch back to
                // sequential delivery (exact order either way).
                let mut plain = true;
                for (pos, (_, ev)) in batch.iter().enumerate() {
                    match ev {
                        Event::MacTimer {
                            node,
                            kind: MacTimerKind::Subslot,
                            gen,
                        } => {
                            scratch.lanes[plan.shard_of(node.index())]
                                .slate
                                .push((pos as u32, node.0, *gen));
                        }
                        _ => {
                            plain = false;
                            break;
                        }
                    }
                }
                if !plain {
                    stats.sequential_buckets += 1;
                    for (t, ev) in batch.drain(..) {
                        self.handle(t, ev, sched);
                    }
                    return;
                }

                let now = batch[0].0;
                {
                    // Phase 1 — parallel decide plus node-local commit.
                    // Each shard owns a disjoint `&mut` slice of the
                    // MACs, RNGs, timer generations and slot-action rows
                    // (contiguous plan ⇒ `split_at_mut`); queues,
                    // neighbour levels, medium, clock and PHY are
                    // shared read-only, and no global commit runs until
                    // every worker has joined — the wheel-cursor
                    // barrier. The jobs run either on the persistent
                    // shard pool (default) or on per-boundary scoped
                    // threads; identical results by construction, since
                    // a job only writes its own slices and lane (see
                    // `ShardLane` for why lanes own their cache lines).
                    let world = &mut *self.world;
                    let nodes = &mut world.nodes;
                    let queues: &[TxQueue] = &nodes.queue;
                    let enabled = &nodes.enabled;
                    let levels = &world.neighbor_levels;
                    let medium = &world.medium;
                    let clock = &world.clock;
                    let phy = &world.phy;
                    let mut mac_rest: &mut [M] = &mut *self.macs;
                    let mut rng_rest: &mut [StdRng] = &mut nodes.mac_rng;
                    let mut gen_rest: &mut [[u64; MacTimerKind::COUNT]] = &mut nodes.mac_timer_gen;
                    let (mut slot_rest, subslots) = world.metrics.slot_action_rows_mut();
                    let mut tasks = Vec::with_capacity(plan.shards());
                    for (s, lane) in scratch.lanes.iter_mut().enumerate() {
                        let range = plan.range(s);
                        let len = range.len();
                        let (macs_s, mac_tail) = mac_rest.split_at_mut(len);
                        mac_rest = mac_tail;
                        let (rngs_s, rng_tail) = rng_rest.split_at_mut(len);
                        rng_rest = rng_tail;
                        let (gens_s, gen_tail) = gen_rest.split_at_mut(len);
                        gen_rest = gen_tail;
                        let (slots_s, slot_tail) = slot_rest.split_at_mut(len * subslots);
                        slot_rest = slot_tail;
                        if lane.slate.is_empty() {
                            continue;
                        }
                        let mut job = DecideJob {
                            now,
                            base: range.start,
                            lane,
                            macs: macs_s,
                            rngs: rngs_s,
                            gens: gens_s,
                            slot_actions: slots_s,
                            subslots,
                            queues,
                            enabled,
                            levels,
                            medium,
                            clock,
                            phy,
                        };
                        tasks.push(move || job.run());
                    }
                    match pool.get() {
                        Some(pool) => pool.scope_run(&mut tasks),
                        None => {
                            std::thread::scope(|scope| {
                                for task in tasks.iter_mut() {
                                    scope.spawn(task);
                                }
                            });
                        }
                    }
                }

                // Phase 2 — the boundary exchange: fold the per-shard
                // outboxes back in ascending bucket position, which is
                // exactly the sequential processing order (and is
                // independent of the shard count), running each
                // commit's global half. The lanes' sent frames move to
                // the fold's queues first (a header swap), so the fold
                // can pop them while the merge drains the outboxes.
                stats.parallel_buckets += 1;
                let frames = &mut scratch.fold_frames;
                for (lane, fold) in scratch.lanes.iter_mut().zip(frames.iter_mut()) {
                    std::mem::swap(&mut lane.frames, fold);
                }
                qma_des::merge_by_pos(&mut scratch.lanes, |_pos, commit| {
                    let frame = (commit.effect == TickEffect::Send).then(|| {
                        frames[plan.shard_of(commit.node.index())]
                            .pop_front()
                            .expect("every send has its frame queued")
                    });
                    self.world.commit_tick_global(commit, frame, sched);
                    stats.folded_ticks += 1;
                });
                debug_assert!(frames.iter().all(|f| f.is_empty()));
                batch.clear();
                if !self.world.notices.is_empty() {
                    self.drain_notices(sched);
                }
            }

            /// Cold outlined part of notice draining; the hot per-event
            /// check is the inline `is_empty` in `handle`.
            fn drain_notices(&mut self, sched: &mut Scheduler<Event>) {
                while let Some(notice) = self.world.notices.pop_front() {
                    match notice {
                        Notice::DeliverUp(node, frame) => {
                            let mut ctx = UpperCtx {
                                world: self.world,
                                sched,
                                node,
                            };
                            self.uppers[node.index()].on_deliver(&mut ctx, &frame);
                        }
                        Notice::TxResultUp(node, frame, result) => {
                            let mut ctx = UpperCtx {
                                world: self.world,
                                sched,
                                node,
                            };
                            self.uppers[node.index()].on_tx_result(&mut ctx, &frame, result);
                        }
                        Notice::MacEnqueued(node) => {
                            let mut ctx = MacCtx {
                                world: self.world,
                                sched,
                                node,
                            };
                            self.macs[node.index()].on_enqueue(&mut ctx);
                        }
                        Notice::UpperPhyTxEnd(node, frame, delivered) => {
                            let mut ctx = UpperCtx {
                                world: self.world,
                                sched,
                                node,
                            };
                            self.uppers[node.index()].on_phy_tx_end(&mut ctx, &frame, &delivered);
                        }
                    }
                }
            }
        }

        impl<M: MacProtocol, U: UpperLayer> Handler<Event> for Driver<'_, M, U> {
            fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
                match event {
                    Event::Start => {
                        let n = self.world.nodes.len();
                        for i in 0..n {
                            let node = NodeId(i as u32);
                            let starts_later = self
                                .node_starts
                                .get(&node.0)
                                .map(|&t| t > SimTime::ZERO)
                                .unwrap_or(false);
                            if !starts_later {
                                self.enable_node(node, sched);
                            }
                        }
                        if self.record_learner {
                            sched.schedule_in(
                                self.world.clock.frame_duration(),
                                Event::FrameBoundary,
                            );
                        }
                    }
                    Event::EnableNode { node } => {
                        self.enable_node(node, sched);
                    }
                    Event::FrameBoundary => {
                        // Cache-linear sweep over the enabled set —
                        // word-at-a-time over the active-set bitmap,
                        // not an n-wide scan.
                        let enabled = std::mem::take(&mut self.world.nodes.enabled);
                        for i in enabled.iter() {
                            if let Some(sample) = self.macs[i].learner_sample() {
                                self.world
                                    .metrics
                                    .learner_sample(NodeId(i as u32), now, sample);
                            }
                        }
                        self.world.nodes.enabled = enabled;
                        sched.schedule_in(self.world.clock.frame_duration(), Event::FrameBoundary);
                    }
                    Event::MacTimer { node, kind, gen } => {
                        let i = node.index();
                        if !self.world.nodes.enabled.get(i)
                            || self.world.nodes.mac_timer_gen[i][kind.index()] != gen
                        {
                            return;
                        }
                        let mut ctx = MacCtx {
                            world: self.world,
                            sched,
                            node,
                        };
                        self.macs[i].on_timer(&mut ctx, kind);
                    }
                    Event::UpperTimer { node, tag, gen } => {
                        if !self.world.nodes.enabled.get(node.index())
                            || self.world.nodes.upper_gen[node.index()] != gen
                        {
                            return;
                        }
                        let mut ctx = UpperCtx {
                            world: self.world,
                            sched,
                            node,
                        };
                        self.uppers[node.index()].on_timer(&mut ctx, tag);
                    }
                    Event::TxEnd { node, gen } => {
                        if self.world.nodes.tx_gen[node.index()] != gen {
                            // The frame was aborted mid-air by a
                            // crash fault; the medium already
                            // reconciled its energy.
                            return;
                        }
                        let (token, frame, origin) = self.world.nodes.in_flight[node.index()]
                            .take()
                            .expect("TxEnd without in-flight frame");
                        self.world.nodes.energy[node.index()]
                            .set_activity(now.as_micros(), qma_phy::RadioActivity::Listen);
                        // `end_tx` hands back a slice of the medium's
                        // scratch buffer; the enabled-filtered copy
                        // lives in the driver's reusable buffer — no
                        // allocation on this path.
                        let clean = self.world.medium.end_tx(token);
                        self.delivered.clear();
                        self.delivered.extend(
                            clean
                                .iter()
                                .map(|p| NodeId(p.0))
                                .filter(|r| self.world.nodes.enabled.get(r.index())),
                        );

                        // Queue-level piggyback: every frame is
                        // stamped with its sender's queue level at
                        // transmission time, so receivers track the
                        // backlog of all audible neighbours — data
                        // frames as in the paper (§4.2), plus ACKs,
                        // which keeps a pure sink's (empty) level
                        // visible and lets a draining forwarder
                        // release its neighbours' exploration.
                        for &r in self.delivered.iter() {
                            self.world.neighbor_levels.set(
                                r.index(),
                                frame.src.0,
                                frame.queue_level,
                                now,
                            );
                        }

                        match origin {
                            TxOrigin::Mac => {
                                let mut ctx = MacCtx {
                                    world: self.world,
                                    sched,
                                    node,
                                };
                                self.macs[node.index()].on_tx_end(&mut ctx);
                            }
                            TxOrigin::Upper => {
                                // Cold path (DSME CFP/GTS data): the
                                // notice needs owned copies because
                                // the overhearing loop below still
                                // reads the originals.
                                self.world.notices.push_back(Notice::UpperPhyTxEnd(
                                    node,
                                    frame.clone(),
                                    self.delivered.clone(),
                                ));
                            }
                        }

                        for k in 0..self.delivered.len() {
                            let r = self.delivered[k];
                            let mut ctx = MacCtx {
                                world: self.world,
                                sched,
                                node: r,
                            };
                            self.macs[r.index()].on_frame(&mut ctx, &frame);
                        }
                    }
                    Event::CcaEnd { node, gen } => {
                        let cca = &mut self.world.nodes.cca[node.index()];
                        let valid = cca.as_ref().map(|c| c.gen == gen).unwrap_or(false);
                        if !valid {
                            return;
                        }
                        let saw = cca.take().expect("checked above").saw_energy;
                        let busy = saw || self.world.medium.is_busy(node.phy());
                        if !self.world.nodes.enabled.get(node.index()) {
                            return;
                        }
                        let mut ctx = MacCtx {
                            world: self.world,
                            sched,
                            node,
                        };
                        self.macs[node.index()].on_cca_result(&mut ctx, busy);
                    }
                    Event::Fault { idx } => {
                        self.apply_fault(idx, sched);
                    }
                }
                if !self.world.notices.is_empty() {
                    self.drain_notices(sched);
                }
            }
        }

        let mut driver = Driver {
            world: &mut self.world,
            macs: &mut self.macs,
            uppers: &mut self.uppers,
            node_starts: &self.node_starts,
            record_learner: self.record_learner,
            faults: self.fault_plan.as_ref().map(|p| p.events()).unwrap_or(&[]),
            delivered: &mut self.delivered_scratch,
        };
        let sched = &mut self.sched;
        let batch = &mut self.batch_scratch;
        let scratch = &mut self.shard_scratch;
        let stats = &mut self.sweep_stats;
        let sharded = self.plan.shards() > 1 && self.split_ticks;
        let clamp_budget = self.past_clamp_budget;
        loop {
            // One load + compare per drained batch/event; with the
            // default unlimited budget the branch never takes.
            if sched.past_clamps() > clamp_budget {
                return Err(PastClampBudgetExceeded {
                    past_clamps: sched.past_clamps(),
                    budget: clamp_budget,
                    at: sched.now(),
                });
            }
            // Under a multi-shard plan, whole boundary buckets drain
            // in one scheduler call (when no heap event interleaves)
            // and large buckets fan their decisions out across cores;
            // single-shard runs keep the one-merged-head-inspection
            // loop of the sequential engine untouched. Identical
            // results either way — batching changes where events
            // wait, never what the simulation computes.
            if sharded && sched.drain_boundary_bucket(horizon, batch) > 0 {
                if batch.len() >= self.shard_batch_min {
                    driver.handle_subslot_batch(
                        batch,
                        sched,
                        &self.plan,
                        scratch,
                        &mut self.shard_pool,
                        stats,
                    );
                } else {
                    stats.sequential_buckets += 1;
                    for (t, ev) in batch.drain(..) {
                        driver.handle(t, ev, sched);
                    }
                }
                continue;
            }
            match sched.pop_at_or_before(horizon) {
                Some(entry) => driver.handle(entry.time, entry.event, sched),
                None => break,
            }
        }
        self.world.metrics.close(horizon);
        Ok(())
    }

    /// Runs for a duration from the current simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let horizon = self.sched.now() + d;
        self.run_until(horizon);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Total number of simulation events processed so far (the
    /// denominator of the events/sec macro-benchmark).
    pub fn events_processed(&self) -> u64 {
        self.sched.popped_total()
    }

    /// Past-time schedules clamped so far (clock-skew faults; see
    /// [`SimBuilder::past_clamp_budget`]).
    pub fn past_clamps(&self) -> u64 {
        self.sched.past_clamps()
    }

    /// The armed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&crate::faults::FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// The metrics hub.
    pub fn metrics(&self) -> &MetricsHub {
        &self.world.metrics
    }

    /// Mutable metrics access (window resets).
    pub fn metrics_mut(&mut self) -> &mut MetricsHub {
        &mut self.world.metrics
    }

    /// Restarts the queue-level averaging of every node at the
    /// current time (to exclude a warmup phase from time-weighted
    /// queue metrics).
    pub fn reset_queue_accounting(&mut self) {
        let now = self.sched.now();
        for i in 0..self.world.nodes.len() {
            let level = self.world.nodes.queue[i].len();
            self.world
                .metrics
                .restart_queue_accounting(NodeId(i as u32), now, level);
        }
    }

    /// The world (tests, assertions).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The shard plan this simulation executes under (one shard for
    /// the sequential engine).
    pub fn shard_plan(&self) -> &qma_des::ShardPlan {
        &self.plan
    }

    /// Border classification of the spatially partitioned medium —
    /// `None` for single-shard runs.
    pub fn shard_partition(&self) -> Option<&qma_phy::MediumPartition> {
        self.partition.as_ref()
    }

    /// Whether the parallel boundary sweep is armed (multi-shard plan
    /// over an all-split-tick MAC population on the wheel scheduler).
    pub fn sharded_sweep_armed(&self) -> bool {
        self.plan.shards() > 1 && self.split_ticks
    }

    /// Counters of the sharded boundary sweep so far: buckets swept
    /// in parallel, ticks folded at their barriers, and buckets run
    /// sequentially. They tell a sweep that really fanned out from one
    /// that silently fell back to sequential delivery.
    pub fn sweep_stats(&self) -> SweepStats {
        self.sweep_stats
    }

    /// Energy report for a node up to the current time.
    pub fn energy_report(&mut self, node: NodeId) -> EnergyReport {
        let now = self.sched.now();
        self.world.energy_report(node, now)
    }

    /// A MAC's current policy snapshot (learning MACs only).
    pub fn policy_snapshot(&self, node: NodeId) -> Option<Vec<SlotAction>> {
        self.macs[node.index()].policy_snapshot()
    }

    /// A MAC's current learner sample (learning MACs only).
    pub fn learner_sample(&self, node: NodeId) -> Option<LearnerSample> {
        self.macs[node.index()].learner_sample()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Address;

    /// A MAC that transmits its queue head immediately on enqueue and
    /// delivers received frames upward. No ACKs, no backoff.
    struct NaiveMac;

    impl MacProtocol for NaiveMac {
        fn start(&mut self, _: &mut MacCtx<'_>) {}
        fn on_timer(&mut self, _: &mut MacCtx<'_>, _: MacTimerKind) {}
        fn on_frame(&mut self, ctx: &mut MacCtx<'_>, frame: &Frame) {
            if frame.dst.is_for(ctx.node) {
                ctx.deliver_to_upper(frame.clone());
            }
        }
        fn on_tx_end(&mut self, ctx: &mut MacCtx<'_>) {
            let frame = ctx.pop_queue().map(|q| q.frame);
            if let Some(f) = frame {
                ctx.notify_tx_result(f, TxResult::Delivered);
            }
            // Keep draining the queue back-to-back.
            if let Some(next) = ctx.queue().head().map(|q| q.frame.clone()) {
                ctx.start_tx(next);
            }
        }
        fn on_cca_result(&mut self, _: &mut MacCtx<'_>, _: bool) {}
        fn on_enqueue(&mut self, ctx: &mut MacCtx<'_>) {
            if !ctx.transmitting() {
                let f = ctx.queue().head().expect("just enqueued").frame.clone();
                ctx.start_tx(f);
            }
        }
    }

    /// Upper layer that sends `count` frames to node 1 at start and
    /// counts deliveries.
    struct Sender {
        count: u32,
    }

    impl UpperLayer for Sender {
        fn start(&mut self, ctx: &mut UpperCtx<'_>) {
            if ctx.node == NodeId(0) {
                for s in 0..self.count {
                    let f = Frame::data(ctx.node, Address::Node(NodeId(1)), s, 20, false);
                    ctx.enqueue_mac(f);
                }
            }
        }
        fn on_timer(&mut self, _: &mut UpperCtx<'_>, _: u64) {}
        fn on_deliver(&mut self, ctx: &mut UpperCtx<'_>, _: &Frame) {
            ctx.metrics().count("received", 1.0);
        }
        fn on_tx_result(&mut self, _: &mut UpperCtx<'_>, _: &Frame, _: TxResult) {}
    }

    fn two_node_sim(count: u32) -> Sim<Box<NaiveMac>, Box<Sender>> {
        SimBuilder::new(Connectivity::full(2), 7)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(NaiveMac))
            .upper_factory(move |_, _| Box::new(Sender { count }))
            .build()
    }

    #[test]
    fn frames_flow_end_to_end() {
        let mut sim = two_node_sim(3);
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.metrics().get("received"), 3.0);
        assert_eq!(sim.metrics().mac(NodeId(0)).tx_attempts, 3);
        assert_eq!(sim.metrics().mac(NodeId(0)).tx_delivered, 3);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let mut a = two_node_sim(5);
        let mut b = two_node_sim(5);
        a.run_for(SimDuration::from_secs(2));
        b.run_for(SimDuration::from_secs(2));
        assert_eq!(a.metrics().get("received"), b.metrics().get("received"));
        assert_eq!(
            a.metrics().mac(NodeId(0)).tx_attempts,
            b.metrics().mac(NodeId(0)).tx_attempts
        );
    }

    #[test]
    fn delayed_node_start() {
        struct StartProbe;
        impl UpperLayer for StartProbe {
            fn start(&mut self, ctx: &mut UpperCtx<'_>) {
                let t = ctx.now().as_secs_f64();
                let node = ctx.node;
                ctx.metrics().count_node("started_at", node, t);
            }
            fn on_timer(&mut self, _: &mut UpperCtx<'_>, _: u64) {}
            fn on_deliver(&mut self, _: &mut UpperCtx<'_>, _: &Frame) {}
            fn on_tx_result(&mut self, _: &mut UpperCtx<'_>, _: &Frame, _: TxResult) {}
        }
        let mut sim = SimBuilder::new(Connectivity::full(2), 1)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(NaiveMac))
            .upper_factory(|_, _| Box::new(StartProbe))
            .node_start(NodeId(1), SimTime::from_secs(5))
            .build();
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(sim.metrics().get_node("started_at", NodeId(0)), 0.0);
        assert_eq!(sim.metrics().get_node("started_at", NodeId(1)), 5.0);
    }

    #[test]
    fn queue_levels_recorded() {
        let mut sim = two_node_sim(4);
        sim.run_for(SimDuration::from_secs(1));
        // Queue rose to 4 then drained; average must be positive but
        // far below capacity.
        let avg = sim.metrics().avg_queue_level(NodeId(0));
        assert!(avg > 0.0 && avg < 1.0, "avg {avg}");
    }

    #[test]
    fn energy_reports_accumulate_tx_time() {
        let mut sim = two_node_sim(5);
        sim.run_for(SimDuration::from_secs(1));
        let r0 = sim.energy_report(NodeId(0));
        assert_eq!(r0.tx_attempts, 5);
        assert!(r0.transmit_us > 0);
        let r1 = sim.energy_report(NodeId(1));
        assert_eq!(r1.tx_attempts, 0);
        assert_eq!(r1.transmit_us, 0);
    }

    #[test]
    fn neighbor_queue_piggyback() {
        // After node 0 transmits with a backlog, node 1 must know it.
        struct Probe;
        impl UpperLayer for Probe {
            fn start(&mut self, ctx: &mut UpperCtx<'_>) {
                if ctx.node == NodeId(0) {
                    for s in 0..4 {
                        let f = Frame::data(ctx.node, Address::Node(NodeId(1)), s, 20, false);
                        ctx.enqueue_mac(f);
                    }
                }
            }
            fn on_timer(&mut self, _: &mut UpperCtx<'_>, _: u64) {}
            fn on_deliver(&mut self, _: &mut UpperCtx<'_>, _: &Frame) {}
            fn on_tx_result(&mut self, _: &mut UpperCtx<'_>, _: &Frame, _: TxResult) {}
        }
        let mut sim = SimBuilder::new(Connectivity::full(2), 3)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(NaiveMac))
            .upper_factory(|_, _| Box::new(Probe))
            .build();
        sim.run_for(SimDuration::from_millis(3));
        // Node 1 heard at least the first frame, which carried
        // node 0's then-current queue level (3 remaining).
        // queue_diff at node 1: local 0 − neighbour 3-ish < 0.
        // (Direct access via world for the assertion.)
        let level = sim
            .world()
            .neighbor_level(NodeId(1), NodeId(0))
            .map(|(v, _)| v);
        assert!(level.is_some(), "piggyback missing");
        assert!(level.unwrap() >= 1);
    }

    #[test]
    fn crash_wipes_queue_and_reboot_restarts() {
        use crate::faults::FaultPlan;
        let mut sim = SimBuilder::new(Connectivity::full(2), 7)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(NaiveMac))
            .upper_factory(move |_, _| Box::new(Sender { count: 5 }))
            .fault_plan(FaultPlan::new().crash_reboot(
                0,
                SimTime::from_millis(1),
                SimDuration::from_millis(9),
                true,
            ))
            .build();
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(sim.metrics().get("fault_crashes"), 1.0);
        assert_eq!(sim.metrics().get("fault_reboots"), 1.0);
        // The crash caught node 0 with a backlog: those frames are
        // fault losses, not MAC drops.
        assert!(sim.metrics().get("fault_frames_lost") >= 1.0);
        assert_eq!(sim.world().queue(NodeId(0)).drops(), 0);
        // The reboot re-ran the upper's start, so a fresh batch of 5
        // flowed end-to-end after the outage.
        assert!(sim.metrics().get("received") >= 5.0);
        assert!(sim.world().is_enabled(NodeId(0)));
    }

    #[test]
    fn crash_of_transmitter_mid_air_aborts_cleanly() {
        use crate::faults::FaultPlan;
        // 20-octet frame airtime is ~1 ms; crash node 0 at 200 µs —
        // mid-flight. The stale TxEnd must be swallowed by the tx
        // generation gate, the medium's energy reconciled.
        let mut sim = SimBuilder::new(Connectivity::full(2), 7)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(NaiveMac))
            .upper_factory(move |_, _| Box::new(Sender { count: 1 }))
            .fault_plan(FaultPlan::new().push(
                SimTime::from_micros(200),
                crate::faults::FaultKind::Crash { node: 0 },
            ))
            .build();
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(sim.metrics().get("received"), 0.0);
        assert!(!sim.world().is_enabled(NodeId(0)));
        assert!(!sim.world().medium().is_busy(qma_phy::PhyNodeId(1)));
        assert_eq!(sim.world().medium().active_count(), 0);
    }

    #[test]
    fn jammed_receiver_gets_nothing() {
        use crate::faults::FaultPlan;
        let mut sim = SimBuilder::new(Connectivity::full(2), 7)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(NaiveMac))
            .upper_factory(move |_, _| Box::new(Sender { count: 3 }))
            .fault_plan(FaultPlan::new().jam(vec![1], SimTime::ZERO, SimDuration::from_secs(1)))
            .build();
        sim.run_for(SimDuration::from_millis(500));
        assert_eq!(sim.metrics().get("fault_jam_bursts"), 1.0);
        assert_eq!(sim.metrics().get("received"), 0.0, "jam must block rx");
        assert!(sim.world().medium().is_jammed(qma_phy::PhyNodeId(1)));
    }

    /// A MAC that re-arms a 1 ms timer forever — the victim for the
    /// clock-skew / past-clamp budget tests.
    struct TickerMac;
    impl MacProtocol for TickerMac {
        fn start(&mut self, ctx: &mut MacCtx<'_>) {
            ctx.set_timer(MacTimerKind::Backoff, SimDuration::from_millis(1));
        }
        fn on_timer(&mut self, ctx: &mut MacCtx<'_>, _: MacTimerKind) {
            ctx.set_timer(MacTimerKind::Backoff, SimDuration::from_millis(1));
        }
        fn on_frame(&mut self, _: &mut MacCtx<'_>, _: &Frame) {}
        fn on_tx_end(&mut self, _: &mut MacCtx<'_>) {}
        fn on_cca_result(&mut self, _: &mut MacCtx<'_>, _: bool) {}
        fn on_enqueue(&mut self, _: &mut MacCtx<'_>) {}
    }

    #[test]
    fn negative_skew_trips_past_clamp_budget() {
        use crate::faults::FaultPlan;
        // A −10 ms skew on a 1 ms re-arm pushes every expiry into the
        // past: simulated time stops advancing and clamps pile up.
        // The budget aborts the run instead of looping forever.
        let mut sim = SimBuilder::new(Connectivity::full(2), 7)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(TickerMac))
            .fault_plan(FaultPlan::new().clock_skew(vec![0], SimTime::from_millis(5), -10_000))
            .past_clamp_budget(50)
            .build();
        let err = sim
            .try_run_until(SimTime::from_millis(100))
            .expect_err("budget must trip");
        assert!(err.past_clamps > 50);
        assert_eq!(err.budget, 50);
        assert!(err.to_string().contains("past-clamp budget exceeded"));
    }

    #[test]
    fn positive_skew_only_delays_timers() {
        use crate::faults::FaultPlan;
        let mut sim = SimBuilder::new(Connectivity::full(2), 7)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(TickerMac))
            .fault_plan(FaultPlan::new().clock_skew(vec![0], SimTime::from_millis(5), 2_500))
            .past_clamp_budget(0)
            .build();
        sim.try_run_until(SimTime::from_millis(100))
            .expect("positive skew never clamps");
        assert_eq!(sim.past_clamps(), 0);
    }

    #[test]
    fn armed_empty_plan_changes_nothing() {
        use crate::faults::FaultPlan;
        let mut plain = two_node_sim(5);
        let mut armed = SimBuilder::new(Connectivity::full(2), 7)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(NaiveMac))
            .upper_factory(move |_, _| Box::new(Sender { count: 5 }))
            .fault_plan(FaultPlan::new())
            .build();
        plain.run_for(SimDuration::from_secs(2));
        armed.run_for(SimDuration::from_secs(2));
        assert_eq!(
            plain.metrics().get("received"),
            armed.metrics().get("received")
        );
        assert_eq!(plain.events_processed(), armed.events_processed());
    }

    #[test]
    fn shard_lanes_own_their_cache_lines() {
        // The lane rule: two shards' decide jobs never write one cache
        // line. Each job pushes into its outbox and frame queue once per
        // decided tick, so those headers must sit in lines (and
        // adjacent-line prefetch pairs) of their own. A flat
        // `Vec<Vec<_>>` of outboxes puts them 24 bytes apart.
        assert!(std::mem::align_of::<ShardLane>() >= 128);
        let scratch = ShardScratch::new(2);
        let outbox = |s: usize| std::ptr::from_ref(&scratch.lanes[s].outbox) as usize;
        assert!(
            outbox(1).abs_diff(outbox(0)) >= 128,
            "outbox headers share a line pair"
        );
        // Every header byte a job writes lies in its lane's own
        // 128-byte block.
        let blocks = |s: usize| {
            let lane = &scratch.lanes[s];
            let (o, f) = (
                std::ptr::from_ref(&lane.outbox),
                std::ptr::from_ref(&lane.frames),
            );
            [
                o as usize,
                o as usize + std::mem::size_of_val(&lane.outbox) - 1,
                f as usize,
                f as usize + std::mem::size_of_val(&lane.frames) - 1,
            ]
            .map(|byte| byte / 128)
        };
        let (lane0, lane1) = (blocks(0), blocks(1));
        assert!(
            lane0.iter().all(|&b| b == lane0[0]),
            "lane 0 straddles blocks"
        );
        assert!(
            lane1.iter().all(|&b| b == lane1[0]),
            "lane 1 straddles blocks"
        );
        assert_ne!(lane0[0], lane1[0], "lanes 0 and 1 share a block");
    }

    /// A split-tick MAC that ticks every subslot and does nothing
    /// else — the smallest population that arms the sharded sweep.
    struct SubslotMac;
    impl MacProtocol for SubslotMac {
        fn start(&mut self, ctx: &mut MacCtx<'_>) {
            let (at, frame_index, subslot) = ctx.clock().next_subslot_start(ctx.now());
            ctx.set_subslot_timer_at(at, frame_index, subslot);
        }
        fn on_timer(&mut self, ctx: &mut MacCtx<'_>, _: MacTimerKind) {
            let plan = self
                .subslot_decide(&mut ctx.tick_view())
                .expect("split-tick MAC");
            ctx.apply_tick_plan(plan);
        }
        fn on_frame(&mut self, _: &mut MacCtx<'_>, _: &Frame) {}
        fn on_tx_end(&mut self, _: &mut MacCtx<'_>) {}
        fn on_cca_result(&mut self, _: &mut MacCtx<'_>, _: bool) {}
        fn on_enqueue(&mut self, _: &mut MacCtx<'_>) {}
        fn supports_split_tick(&self) -> bool {
            true
        }
        fn subslot_decide(&mut self, view: &mut TickView<'_>) -> Option<TickPlan> {
            Some(TickPlan {
                rearm: Some(view.clock().next_subslot_start(view.now())),
                action: None,
            })
        }
    }

    #[test]
    fn shard_pool_spawns_on_the_first_parallel_bucket() {
        // Nine ticking nodes on three shards: every boundary bucket
        // holds nine ticks.
        let sim = |batch_min: usize| {
            let mut sim = SimBuilder::new(Connectivity::full(9), 7)
                .clock(FrameClock::all_cap(10, 1_000))
                .mac_factory(|_, _| Box::new(SubslotMac))
                .scheduler_wheel(true)
                .shards(3)
                .shard_pool(true)
                .shard_batch_min(batch_min)
                .build();
            assert!(sim.sharded_sweep_armed());
            assert!(
                sim.shard_pool.pool.is_none(),
                "build must not spawn workers"
            );
            sim.run_until(SimTime::from_millis(30));
            sim
        };
        let below = sim(10);
        assert_eq!(below.sweep_stats().parallel_buckets, 0);
        assert!(below.sweep_stats().sequential_buckets > 0);
        assert!(
            below.shard_pool.pool.is_none(),
            "no parallel bucket, no pool"
        );

        let parallel = sim(9);
        assert!(parallel.sweep_stats().parallel_buckets > 0);
        assert_eq!(
            parallel
                .shard_pool
                .pool
                .as_ref()
                .map(qma_des::ShardPool::threads),
            Some(2),
            "K − 1 workers"
        );
    }

    #[test]
    fn active_set_tracks_bits_and_iterates() {
        let mut s = ActiveSet::new(200);
        assert_eq!(s.count(), 0);
        for i in [0usize, 63, 64, 130, 199] {
            s.set(i, true);
        }
        s.set(64, true); // idempotent
        assert_eq!(s.count(), 5);
        assert!(s.get(63) && s.get(64) && !s.get(65));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 130, 199]);
        s.set(63, false);
        s.set(63, false); // idempotent
        assert_eq!(s.count(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 130, 199]);
    }
}

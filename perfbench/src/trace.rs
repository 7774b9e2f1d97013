//! The traced run: forwarding wrappers that time every MAC and
//! upper-layer callback of one node.
//!
//! Each wrapper keeps its node's counters in its own fields, so the
//! shards of a sharded sweep share no counter while the simulation
//! runs; the totals are folded into a shared [`Sink`] when the `Sim`
//! (and with it every wrapper) drops. Everything a wrapper does not
//! time it forwards untouched — notably `supports_split_tick`, so the
//! sharded sweep engages exactly as it does untraced.

use std::sync::{Arc, Mutex};

use qma_netsim::{
    Frame, LearnerSample, MacCtx, MacProtocol, MacTimerKind, NodeId, SlotAction, TickPlan,
    TickView, TxResult, UpperCtx, UpperLayer,
};

use crate::clock;

/// Timed MAC callbacks, in report order.
pub const MAC_CALLBACKS: [&str; 6] = [
    "on_timer",
    "subslot_decide",
    "on_frame",
    "on_cca_result",
    "on_tx_end",
    "on_enqueue",
];

/// Timed upper-layer callbacks, in report order.
pub const UPPER_CALLBACKS: [&str; 4] = ["on_timer", "on_deliver", "on_tx_result", "on_phy_tx_end"];

/// Index of `subslot_decide` in [`MAC_CALLBACKS`].
pub const SUBSLOT_DECIDE: usize = 1;

/// Calls and host nanoseconds spent in one callback.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStat {
    /// Number of calls.
    pub calls: u64,
    /// Host nanoseconds inside the callback, clock cost included.
    pub ns: u64,
}

impl CallStat {
    fn add(&mut self, other: CallStat) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Callback totals of a whole traced simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Per MAC callback, indexed like [`MAC_CALLBACKS`].
    pub mac: [CallStat; 6],
    /// Per upper-layer callback, indexed like [`UPPER_CALLBACKS`].
    pub upper: [CallStat; 4],
}

impl LayerTotals {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &LayerTotals) {
        self.mac
            .iter_mut()
            .zip(other.mac)
            .for_each(|(a, b)| a.add(b));
        self.upper
            .iter_mut()
            .zip(other.upper)
            .for_each(|(a, b)| a.add(b));
    }
}

/// Where wrappers fold their totals when they drop.
pub type Sink = Arc<Mutex<LayerTotals>>;

/// Times one call of `f` into `stat`.
#[inline(always)]
pub fn time_call<R>(stat: &mut CallStat, f: impl FnOnce() -> R) -> R {
    let t0 = clock::now();
    let out = f();
    stat.ns += clock::ns_since(t0);
    stat.calls += 1;
    out
}

/// A MAC that times every callback of the MAC it wraps.
pub struct TracedMac<M> {
    inner: M,
    stats: [CallStat; 6],
    sink: Sink,
}

impl<M> TracedMac<M> {
    /// Wraps `inner`, folding into `sink` on drop.
    pub fn new(inner: M, sink: Sink) -> Self {
        TracedMac {
            inner,
            stats: [CallStat::default(); 6],
            sink,
        }
    }
}

impl<M> Drop for TracedMac<M> {
    fn drop(&mut self) {
        // A poisoned sink means another wrapper panicked; the run is
        // already failed, so its totals are not needed.
        if let Ok(mut totals) = self.sink.lock() {
            totals
                .mac
                .iter_mut()
                .zip(self.stats)
                .for_each(|(a, b)| a.add(b));
        }
    }
}

impl<M: MacProtocol> MacProtocol for TracedMac<M> {
    fn start(&mut self, ctx: &mut MacCtx<'_>) {
        self.inner.start(ctx)
    }
    fn on_timer(&mut self, ctx: &mut MacCtx<'_>, kind: MacTimerKind) {
        time_call(&mut self.stats[0], || self.inner.on_timer(ctx, kind))
    }
    fn on_frame(&mut self, ctx: &mut MacCtx<'_>, frame: &Frame) {
        time_call(&mut self.stats[2], || self.inner.on_frame(ctx, frame))
    }
    fn on_tx_end(&mut self, ctx: &mut MacCtx<'_>) {
        time_call(&mut self.stats[4], || self.inner.on_tx_end(ctx))
    }
    fn on_cca_result(&mut self, ctx: &mut MacCtx<'_>, busy: bool) {
        time_call(&mut self.stats[3], || self.inner.on_cca_result(ctx, busy))
    }
    fn on_enqueue(&mut self, ctx: &mut MacCtx<'_>) {
        time_call(&mut self.stats[5], || self.inner.on_enqueue(ctx))
    }
    fn on_reboot(&mut self, persist_learning: bool) {
        self.inner.on_reboot(persist_learning)
    }
    fn learner_sample(&self) -> Option<LearnerSample> {
        self.inner.learner_sample()
    }
    fn policy_snapshot(&self) -> Option<Vec<SlotAction>> {
        self.inner.policy_snapshot()
    }
    fn supports_split_tick(&self) -> bool {
        self.inner.supports_split_tick()
    }
    fn subslot_decide(&mut self, view: &mut TickView<'_>) -> Option<TickPlan> {
        time_call(&mut self.stats[SUBSLOT_DECIDE], || {
            self.inner.subslot_decide(view)
        })
    }
}

/// An upper layer that times every callback of the layer it wraps.
pub struct TracedUpper<U> {
    inner: U,
    stats: [CallStat; 4],
    sink: Sink,
}

impl<U> TracedUpper<U> {
    /// Wraps `inner`, folding into `sink` on drop.
    pub fn new(inner: U, sink: Sink) -> Self {
        TracedUpper {
            inner,
            stats: [CallStat::default(); 4],
            sink,
        }
    }
}

impl<U> Drop for TracedUpper<U> {
    fn drop(&mut self) {
        if let Ok(mut totals) = self.sink.lock() {
            totals
                .upper
                .iter_mut()
                .zip(self.stats)
                .for_each(|(a, b)| a.add(b));
        }
    }
}

impl<U: UpperLayer> UpperLayer for TracedUpper<U> {
    fn start(&mut self, ctx: &mut UpperCtx<'_>) {
        self.inner.start(ctx)
    }
    fn on_timer(&mut self, ctx: &mut UpperCtx<'_>, tag: u64) {
        time_call(&mut self.stats[0], || self.inner.on_timer(ctx, tag))
    }
    fn on_deliver(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame) {
        time_call(&mut self.stats[1], || self.inner.on_deliver(ctx, frame))
    }
    fn on_tx_result(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame, result: TxResult) {
        time_call(&mut self.stats[2], || {
            self.inner.on_tx_result(ctx, frame, result)
        })
    }
    fn on_phy_tx_end(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame, delivered: &[NodeId]) {
        time_call(&mut self.stats[3], || {
            self.inner.on_phy_tx_end(ctx, frame, delivered)
        })
    }
}

/// Median host nanoseconds a traced callback records for an empty
/// call — the clock cost every traced callback carries and the report
/// subtracts.
pub fn clock_cost_ns(budget_s: f64) -> f64 {
    let start = clock::now();
    let mut samples = clock::Samples::default();
    while samples.len() < 5 || clock::secs_since(start) < budget_s {
        let mut stat = CallStat::default();
        for _ in 0..1000 {
            time_call(&mut stat, || std::hint::black_box(()));
        }
        samples.push(stat.ns as f64 / stat.calls as f64);
    }
    samples.median()
}

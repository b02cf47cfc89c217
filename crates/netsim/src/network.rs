//! The network simulator proper.
//!
//! [`Network`] owns the protocol nodes, the event queue and the latency
//! model, and advances simulated time by executing events in order. It is
//! the single mutation point of a simulation, which is what guarantees
//! reproducibility: all randomness flows from the seed given at
//! construction.

use crate::clock::{SimDuration, SimTime};
use crate::event::EventQueue;
use crate::fault::{FaultConfig, FaultModel};
use crate::latency::{
    ConstantLatency, LatencyModel, RegionalWan, RegionalWanConfig, UniformLatency,
};
use crate::node::{Action, Ctx, Node, NodeId};
use crate::rng;
use crate::stats::FaultCounters;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which latency model to instantiate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LatencyConfig {
    /// Fixed delay per message.
    Constant { micros: u64 },
    /// Uniform delay in `[min, max]` microseconds.
    Uniform { min_micros: u64, max_micros: u64 },
    /// The PlanetLab-like regional WAN model (see [`RegionalWan`]).
    RegionalWan {
        regions: usize,
        intra_median_ms: u64,
        inter_median_base_ms: u64,
        inter_median_per_hop_ms: u64,
        sigma: f64,
        processing_ms: u64,
        /// σ of the per-node processing slowdown (0 = homogeneous).
        node_heterogeneity: f64,
    },
}

/// Simulation-wide configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkConfig {
    pub latency: LatencyConfig,
    /// Independent probability that any message is silently lost.
    ///
    /// This is the legacy uniform-loss knob; it draws from the network's
    /// own RNG stream and composes with (applies before) `fault`.
    pub loss_probability: f64,
    /// Message fault process: loss, duplication and reorder, with
    /// optional asymmetric per-link overrides (see [`crate::fault`]).
    #[serde(default)]
    pub fault: FaultConfig,
}

impl NetworkConfig {
    /// A fast, lossless LAN: constant 1 ms. Good default for unit tests.
    pub fn lan() -> NetworkConfig {
        NetworkConfig {
            latency: LatencyConfig::Constant { micros: 1_000 },
            loss_probability: 0.0,
            fault: FaultConfig::none(),
        }
    }

    /// A wide-area model with homogeneous, modern machines.
    pub fn planetlab() -> NetworkConfig {
        NetworkConfig::from_wan(RegionalWanConfig::default())
    }

    /// The wide-area model of experiment E1: 2007-era PlanetLab-like
    /// machines (slow Java processing, heavy node heterogeneity).
    pub fn planetlab_2007() -> NetworkConfig {
        NetworkConfig::from_wan(RegionalWanConfig::planetlab_2007())
    }

    fn from_wan(d: RegionalWanConfig) -> NetworkConfig {
        NetworkConfig {
            latency: LatencyConfig::RegionalWan {
                regions: d.regions,
                intra_median_ms: d.intra_median.as_millis(),
                inter_median_base_ms: d.inter_median_base.as_millis(),
                inter_median_per_hop_ms: d.inter_median_per_hop.as_millis(),
                sigma: d.sigma,
                processing_ms: d.processing.as_millis(),
                node_heterogeneity: d.node_heterogeneity,
            },
            loss_probability: 0.0,
            fault: FaultConfig::none(),
        }
    }

    /// Same topology with message loss, for resilience experiments.
    pub fn lossy_planetlab(loss_probability: f64) -> NetworkConfig {
        NetworkConfig {
            loss_probability,
            ..NetworkConfig::planetlab()
        }
    }

    fn build_latency(&self, seed: u64) -> Box<dyn LatencyModel> {
        match &self.latency {
            LatencyConfig::Constant { micros } => {
                Box::new(ConstantLatency::new(SimDuration::from_micros(*micros)))
            }
            LatencyConfig::Uniform {
                min_micros,
                max_micros,
            } => Box::new(UniformLatency::new(
                SimDuration::from_micros(*min_micros),
                SimDuration::from_micros(*max_micros),
                seed ^ 0xA5A5,
            )),
            LatencyConfig::RegionalWan {
                regions,
                intra_median_ms,
                inter_median_base_ms,
                inter_median_per_hop_ms,
                sigma,
                processing_ms,
                node_heterogeneity,
            } => Box::new(RegionalWan::new(
                RegionalWanConfig {
                    regions: *regions,
                    intra_median: SimDuration::from_millis(*intra_median_ms),
                    inter_median_base: SimDuration::from_millis(*inter_median_base_ms),
                    inter_median_per_hop: SimDuration::from_millis(*inter_median_per_hop_ms),
                    sigma: *sigma,
                    processing: SimDuration::from_millis(*processing_ms),
                    node_heterogeneity: *node_heterogeneity,
                },
                seed ^ 0x5A5A,
            )),
        }
    }
}

/// Aggregate message accounting for a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Messages handed to the network by nodes or the harness.
    pub sent: u64,
    /// Messages delivered to a live node's handler.
    pub delivered: u64,
    /// Messages dropped by the loss process.
    pub lost: u64,
    /// Messages dropped because the destination was crashed.
    pub dropped_dead: u64,
    /// Timer events fired.
    pub timers_fired: u64,
}

enum Event<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Timer { node: NodeId, token: u64 },
}

struct Slot<N> {
    node: N,
    alive: bool,
}

/// The discrete-event network over protocol nodes of type `N`
/// exchanging messages of type `M`.
pub struct Network<N, M> {
    slots: Vec<Slot<N>>,
    queue: EventQueue<Event<M>>,
    latency: Box<dyn LatencyModel>,
    fault: FaultModel,
    now: SimTime,
    rng: StdRng,
    loss_probability: f64,
    stats: NetworkStats,
    actions: Vec<Action<M>>,
}

impl<N: Node<M>, M: Clone> Network<N, M> {
    /// Create an empty network with the given configuration and seed.
    pub fn new(config: NetworkConfig, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&config.loss_probability),
            "loss probability must be in [0, 1)"
        );
        Network {
            slots: Vec::new(),
            latency: config.build_latency(seed),
            fault: FaultModel::new(config.fault, seed),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: rng::derive(seed, 0xC0FFEE),
            loss_probability: config.loss_probability,
            stats: NetworkStats::default(),
            actions: Vec::new(),
        }
    }

    /// Add a node; returns its id. Invokes [`Node::on_start`].
    pub fn add_node(&mut self, node: N) -> NodeId {
        let id = NodeId::from_index(self.slots.len());
        self.slots.push(Slot { node, alive: true });
        self.latency.on_node_added(id);
        let mut actions = std::mem::take(&mut self.actions);
        {
            let slot = &mut self.slots[id.index()];
            let mut ctx = Ctx {
                self_id: id,
                now: self.now,
                actions: &mut actions,
                rng: &mut self.rng,
            };
            slot.node.on_start(&mut ctx);
        }
        self.actions = actions;
        self.flush_actions(id);
        id
    }

    /// Number of nodes ever added (alive or crashed).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Message accounting so far.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Fault-process accounting so far (loss counted here is also
    /// included in [`NetworkStats::lost`]).
    pub fn fault_stats(&self) -> FaultCounters {
        self.fault.counters()
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, id: NodeId) -> &N {
        &self.slots[id.index()].node
    }

    /// Mutable access to a node's protocol state. Mutating state outside
    /// a handler is the harness's prerogative (loading data, inspecting
    /// results); protocol logic should live in handlers.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.slots[id.index()].node
    }

    /// Ids of all live nodes.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }

    /// Inject a message from the outside world (e.g. a user issuing a
    /// query at node `from`). Charged like a normal message.
    pub fn send_external(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.enqueue_send(from, to, msg);
    }

    /// Run a closure against node `at` with a full handler context, as if
    /// an internal event occurred there. This is how the harness invokes
    /// protocol entry points (e.g. "start a query") without bypassing the
    /// action machinery.
    pub fn invoke<F, R>(&mut self, at: NodeId, f: F) -> R
    where
        F: FnOnce(&mut N, &mut Ctx<'_, M>) -> R,
    {
        let mut actions = std::mem::take(&mut self.actions);
        let r = {
            let slot = &mut self.slots[at.index()];
            let mut ctx = Ctx {
                self_id: at,
                now: self.now,
                actions: &mut actions,
                rng: &mut self.rng,
            };
            f(&mut slot.node, &mut ctx)
        };
        self.actions = actions;
        self.flush_actions(at);
        r
    }

    /// Crash a node: it stops receiving messages and timers until
    /// [`Network::recover`].
    pub fn crash(&mut self, id: NodeId) {
        let slot = &mut self.slots[id.index()];
        if slot.alive {
            slot.alive = false;
            slot.node.on_crash();
        }
    }

    /// Bring a crashed node back up.
    pub fn recover(&mut self, id: NodeId) {
        if self.slots[id.index()].alive {
            return;
        }
        self.slots[id.index()].alive = true;
        let mut actions = std::mem::take(&mut self.actions);
        {
            let slot = &mut self.slots[id.index()];
            let mut ctx = Ctx {
                self_id: id,
                now: self.now,
                actions: &mut actions,
                rng: &mut self.rng,
            };
            slot.node.on_recover(&mut ctx);
        }
        self.actions = actions;
        self.flush_actions(id);
    }

    /// Execute the next pending event. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        self.step_node().is_some()
    }

    /// Execute the next pending event and return the node it targeted —
    /// the hook an external scheduler (e.g. a query driver reacting to
    /// each completion at its actual simulated completion time) uses to
    /// inspect exactly the node whose state just changed instead of
    /// sweeping the whole network. Returns `None` when the queue is
    /// empty. The target node is reported even if the event was dropped
    /// (crashed destination): its outcome buffers may still have moved.
    pub fn step_node(&mut self) -> Option<NodeId> {
        let (at, ev) = self.queue.pop()?;
        debug_assert!(at >= self.now, "time must not move backwards");
        self.now = at;
        match ev {
            Event::Deliver { from, to, msg } => {
                if !self.slots[to.index()].alive {
                    self.stats.dropped_dead += 1;
                    return Some(to);
                }
                self.stats.delivered += 1;
                self.dispatch(to, |node, ctx| node.handle_message(ctx, from, msg));
                Some(to)
            }
            Event::Timer { node, token } => {
                if !self.slots[node.index()].alive {
                    return Some(node);
                }
                self.stats.timers_fired += 1;
                self.dispatch(node, |n, ctx| n.handle_timer(ctx, token));
                Some(node)
            }
        }
    }

    /// Simulated time of the earliest pending event, if any — lets an
    /// external scheduler decide whether to pump the network before a
    /// deadline without executing anything.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Run until no events remain.
    pub fn run_until_quiescent(&mut self) {
        while self.step() {}
    }

    /// Run until the queue is empty or simulated time would pass
    /// `deadline`. Events scheduled after the deadline stay queued.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    fn dispatch<F>(&mut self, at: NodeId, f: F)
    where
        F: FnOnce(&mut N, &mut Ctx<'_, M>),
    {
        let mut actions = std::mem::take(&mut self.actions);
        {
            let slot = &mut self.slots[at.index()];
            let mut ctx = Ctx {
                self_id: at,
                now: self.now,
                actions: &mut actions,
                rng: &mut self.rng,
            };
            f(&mut slot.node, &mut ctx);
        }
        self.actions = actions;
        self.flush_actions(at);
    }

    fn flush_actions(&mut self, from: NodeId) {
        // Take the buffer (enqueue_send needs &mut self) and hand it
        // back with its capacity, as the handler entry points do.
        let mut actions = std::mem::take(&mut self.actions);
        for a in actions.drain(..) {
            match a {
                Action::Send { to, msg } => self.enqueue_send(from, to, msg),
                Action::Timer { after, token } => {
                    self.queue
                        .schedule(self.now + after, Event::Timer { node: from, token });
                }
            }
        }
        self.actions = actions;
    }

    fn enqueue_send(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.stats.sent += 1;
        if self.loss_probability > 0.0 && self.rng.gen::<f64>() < self.loss_probability {
            self.stats.lost += 1;
            return;
        }
        if self.fault.is_null() {
            // Fast path: null fault model, bit-identical to the
            // pre-fault-layer simulator (no extra RNG draws).
            let delay = self.latency.sample(from, to);
            self.queue
                .schedule(self.now + delay, Event::Deliver { from, to, msg });
            return;
        }
        let delivery = self.fault.apply(from, to);
        if delivery.copies.is_empty() {
            self.stats.lost += 1;
            return;
        }
        // One latency sample per message (not per copy): duplicates and
        // reordered copies offset the same base delay by fault jitter, so
        // the latency stream advances exactly as in a fault-free run.
        let delay = self.latency.sample(from, to);
        for extra in delivery.copies {
            self.queue.schedule(
                self.now + delay + extra,
                Event::Deliver {
                    from,
                    to,
                    msg: msg.clone(),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    #[derive(Default)]
    struct Echo {
        pongs: Vec<u32>,
        timer_tokens: Vec<u64>,
        started: bool,
        recovered: bool,
    }

    impl Node<Msg> for Echo {
        fn handle_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
            match msg {
                Msg::Ping(x) => ctx.send(from, Msg::Pong(x)),
                Msg::Pong(x) => self.pongs.push(x),
            }
        }
        fn handle_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, token: u64) {
            self.timer_tokens.push(token);
        }
        fn on_start(&mut self, _ctx: &mut Ctx<'_, Msg>) {
            self.started = true;
        }
        fn on_recover(&mut self, _ctx: &mut Ctx<'_, Msg>) {
            self.recovered = true;
        }
    }

    fn lan() -> Network<Echo, Msg> {
        Network::new(NetworkConfig::lan(), 1)
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut net = lan();
        let a = net.add_node(Echo::default());
        let b = net.add_node(Echo::default());
        net.send_external(a, b, Msg::Ping(9));
        net.run_until_quiescent();
        assert_eq!(net.node(a).pongs, vec![9]);
        let s = net.stats();
        assert_eq!(s.sent, 2);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.lost, 0);
        // Two 1 ms hops.
        assert_eq!(net.now(), SimTime(2_000));
    }

    #[test]
    fn on_start_runs() {
        let mut net = lan();
        let a = net.add_node(Echo::default());
        assert!(net.node(a).started);
    }

    #[test]
    fn timers_fire_in_order() {
        let mut net = lan();
        let a = net.add_node(Echo::default());
        net.invoke(a, |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(5), 2);
            ctx.set_timer(SimDuration::from_millis(1), 1);
        });
        net.run_until_quiescent();
        assert_eq!(net.node(a).timer_tokens, vec![1, 2]);
        assert_eq!(net.stats().timers_fired, 2);
    }

    #[test]
    fn crashed_node_drops_messages_and_timers() {
        let mut net = lan();
        let a = net.add_node(Echo::default());
        let b = net.add_node(Echo::default());
        net.crash(b);
        net.send_external(a, b, Msg::Ping(1));
        net.run_until_quiescent();
        assert_eq!(net.stats().dropped_dead, 1);
        assert!(net.node(a).pongs.is_empty());

        net.recover(b);
        assert!(net.node(b).recovered);
        net.send_external(a, b, Msg::Ping(2));
        net.run_until_quiescent();
        assert_eq!(net.node(a).pongs, vec![2]);
    }

    #[test]
    fn step_node_reports_the_handling_node() {
        let mut net = lan();
        let a = net.add_node(Echo::default());
        let b = net.add_node(Echo::default());
        net.send_external(a, b, Msg::Ping(3));
        assert_eq!(net.peek_time(), Some(SimTime(1_000)));
        // Ping lands at b, pong lands back at a.
        assert_eq!(net.step_node(), Some(b));
        assert_eq!(net.step_node(), Some(a));
        assert_eq!(net.step_node(), None);
        assert_eq!(net.peek_time(), None);
        // A crashed destination is still reported as the target.
        net.crash(b);
        net.send_external(a, b, Msg::Ping(4));
        assert_eq!(net.step_node(), Some(b));
        assert_eq!(net.stats().dropped_dead, 1);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut net = lan();
        let a = net.add_node(Echo::default());
        net.invoke(a, |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(1), 1);
            ctx.set_timer(SimDuration::from_millis(100), 2);
        });
        net.run_until(SimTime(10_000));
        assert_eq!(net.node(a).timer_tokens, vec![1]);
        assert_eq!(net.now(), SimTime(10_000));
        assert_eq!(net.pending_events(), 1);
        net.run_until_quiescent();
        assert_eq!(net.node(a).timer_tokens, vec![1, 2]);
    }

    #[test]
    fn loss_drops_roughly_the_configured_fraction() {
        let cfg = NetworkConfig {
            latency: LatencyConfig::Constant { micros: 10 },
            loss_probability: 0.3,
            fault: FaultConfig::none(),
        };
        let mut net: Network<Echo, Msg> = Network::new(cfg, 3);
        let a = net.add_node(Echo::default());
        let b = net.add_node(Echo::default());
        for i in 0..5_000 {
            net.send_external(a, b, Msg::Ping(i));
        }
        net.run_until_quiescent();
        let s = net.stats();
        let loss_rate = s.lost as f64 / s.sent as f64;
        assert!((loss_rate - 0.3).abs() < 0.03, "loss rate {loss_rate}");
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let cfg = NetworkConfig {
                latency: LatencyConfig::Uniform {
                    min_micros: 100,
                    max_micros: 50_000,
                },
                loss_probability: 0.1,
                fault: FaultConfig::none(),
            };
            let mut net: Network<Echo, Msg> = Network::new(cfg, seed);
            let a = net.add_node(Echo::default());
            let b = net.add_node(Echo::default());
            for i in 0..200 {
                net.send_external(a, b, Msg::Ping(i));
            }
            net.run_until_quiescent();
            (net.node(a).pongs.clone(), net.now(), net.stats())
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77).1, run(78).1);
    }

    #[test]
    fn fault_duplication_delivers_extra_copies() {
        let cfg = NetworkConfig {
            latency: LatencyConfig::Constant { micros: 10 },
            loss_probability: 0.0,
            fault: FaultConfig::duplicating(1.0),
        };
        let mut net: Network<Echo, Msg> = Network::new(cfg, 8);
        let a = net.add_node(Echo::default());
        let b = net.add_node(Echo::default());
        net.send_external(a, b, Msg::Ping(1));
        net.run_until_quiescent();
        // The ping is duplicated, so b answers twice; each pong is also
        // duplicated, so a collects four pongs.
        assert_eq!(net.node(a).pongs, vec![1, 1, 1, 1]);
        let f = net.fault_stats();
        assert_eq!(f.duplicated, 3); // 1 ping + 2 pongs
        assert_eq!(net.stats().delivered, 6);
    }

    #[test]
    fn fault_loss_is_counted_in_network_stats() {
        let cfg = NetworkConfig {
            latency: LatencyConfig::Constant { micros: 10 },
            loss_probability: 0.0,
            fault: FaultConfig::lossy(0.5),
        };
        let mut net: Network<Echo, Msg> = Network::new(cfg, 21);
        let a = net.add_node(Echo::default());
        let b = net.add_node(Echo::default());
        for i in 0..2_000 {
            net.send_external(a, b, Msg::Ping(i));
        }
        net.run_until_quiescent();
        let s = net.stats();
        let f = net.fault_stats();
        assert!(f.lost > 0);
        assert_eq!(s.sent, s.delivered + s.lost);
        let rate = f.lost as f64 / s.sent as f64;
        assert!((rate - 0.5).abs() < 0.05, "fault loss rate {rate}");
    }

    #[test]
    fn fault_reorder_lets_later_messages_overtake() {
        let cfg = NetworkConfig {
            latency: LatencyConfig::Constant { micros: 1_000 },
            loss_probability: 0.0,
            fault: FaultConfig::reordering(0.5, SimDuration::from_millis(20)),
        };
        let mut net: Network<Echo, Msg> = Network::new(cfg, 5);
        let a = net.add_node(Echo::default());
        let b = net.add_node(Echo::default());
        for i in 0..200 {
            net.send_external(b, a, Msg::Pong(i));
        }
        net.run_until_quiescent();
        let pongs = &net.node(a).pongs;
        assert_eq!(pongs.len(), 200, "reorder never loses messages");
        let mut sorted = pongs.clone();
        sorted.sort_unstable();
        assert_ne!(*pongs, sorted, "some copies were overtaken");
        assert!(net.fault_stats().reordered > 0);
    }

    #[test]
    fn null_fault_config_is_bit_identical_to_legacy_runs() {
        let run = |fault: FaultConfig| {
            let cfg = NetworkConfig {
                latency: LatencyConfig::Uniform {
                    min_micros: 100,
                    max_micros: 50_000,
                },
                loss_probability: 0.1,
                fault,
            };
            let mut net: Network<Echo, Msg> = Network::new(cfg, 44);
            let a = net.add_node(Echo::default());
            let b = net.add_node(Echo::default());
            for i in 0..300 {
                net.send_external(a, b, Msg::Ping(i));
            }
            net.run_until_quiescent();
            (net.node(a).pongs.clone(), net.now(), net.stats())
        };
        // `none()` and a hand-rolled all-zero config take the fast path:
        // the simulation is identical to one without a fault layer.
        assert_eq!(run(FaultConfig::none()), run(FaultConfig::default()));
        let a = run(FaultConfig::none());
        let b = run(FaultConfig {
            loss: 0.0,
            duplication: 0.0,
            reorder: 0.0,
            reorder_jitter: SimDuration::ZERO,
            links: Vec::new(),
        });
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn rejects_invalid_loss() {
        let cfg = NetworkConfig {
            latency: LatencyConfig::Constant { micros: 1 },
            loss_probability: 1.5,
            fault: FaultConfig::none(),
        };
        let _: Network<Echo, Msg> = Network::new(cfg, 0);
    }
}

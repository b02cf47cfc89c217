//! The network simulator proper.
//!
//! [`Network`] owns the protocol nodes, the event queue and the latency
//! model, and advances simulated time by executing events in order. It is
//! the single mutation point of a simulation, which is what guarantees
//! reproducibility: all randomness flows from the seed given at
//! construction.

use crate::clock::{SimDuration, SimTime};
use crate::event::EventQueue;
use crate::latency::{LatencyConfig, LatencyModel, RegionalWanConfig};
use crate::node::{Action, Ctx, Node, NodeId};
use crate::rng;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Simulation-wide configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// The one-way delay of every message. Must build a sampler:
    /// [`LatencyConfig::Flat`] is rejected by [`Network::new`].
    pub latency: LatencyConfig,
    /// Independent probability that a sent message is dropped, in
    /// `[0, 1)`. Drawn at send time from the network's own loss
    /// stream, so a lossless network draws nothing and a lossy run is
    /// reproducible from its seed.
    #[serde(default)]
    pub loss: f64,
}

impl NetworkConfig {
    /// A fast, lossless LAN: constant 1 ms. Good default for unit tests.
    pub fn lan() -> NetworkConfig {
        NetworkConfig {
            latency: LatencyConfig::Constant {
                delay: SimDuration::from_millis(1),
            },
            loss: 0.0,
        }
    }

    /// A wide-area model with homogeneous, modern machines.
    pub fn planetlab() -> NetworkConfig {
        NetworkConfig {
            latency: LatencyConfig::RegionalWan(RegionalWanConfig::default()),
            loss: 0.0,
        }
    }

    /// The wide-area model of experiment E1: 2007-era PlanetLab-like
    /// machines (slow Java processing, heavy node heterogeneity).
    pub fn planetlab_2007() -> NetworkConfig {
        NetworkConfig {
            latency: LatencyConfig::planetlab_2007(),
            loss: 0.0,
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
    loss: f64,
    /// The loss draws ([`NetworkConfig::loss`]), apart from latency
    /// sampling and the nodes' own randomness.
    loss_rng: StdRng,
    now: SimTime,
    rng: StdRng,
    stats: NetworkStats,
    actions: Vec<Action<M>>,
}

impl<N: Node<M>, M> Network<N, M> {
    /// Create an empty network with the given configuration and seed.
    ///
    /// # Panics
    /// Panics if `config.latency` is [`LatencyConfig::Flat`] or
    /// `config.loss` is outside `[0, 1)`.
    pub fn new(config: NetworkConfig, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&config.loss),
            "loss probability must be in [0, 1)"
        );
        Network {
            slots: Vec::new(),
            latency: config
                .latency
                .build(seed ^ 0x5A5A)
                .expect("a network samples every message's delay: Flat builds no model"),
            loss: config.loss,
            loss_rng: rng::derive(seed, 0xFA17),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: rng::derive(seed, 0xC0FFEE),
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
        if self.loss > 0.0 && self.loss_rng.gen::<f64>() < self.loss {
            self.stats.lost += 1;
            return;
        }
        let delay = self.latency.sample(from, to);
        self.queue
            .schedule(self.now + delay, Event::Deliver { from, to, msg });
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

    /// The homogeneous WAN, losing messages at `loss`.
    fn wan(loss: f64) -> NetworkConfig {
        NetworkConfig {
            loss,
            ..NetworkConfig::planetlab()
        }
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
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let mut net: Network<Echo, Msg> = Network::new(wan(0.1), seed);
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

    /// The loss stream at a fixed seed: which messages are lost, and so
    /// every count and the last delivery instant, stay as they are.
    #[test]
    fn the_loss_stream_is_pinned() {
        let mut net: Network<Echo, Msg> = Network::new(wan(0.1), 2007);
        let a = net.add_node(Echo::default());
        let b = net.add_node(Echo::default());
        for i in 0..500 {
            net.send_external(a, b, Msg::Ping(i));
        }
        net.run_until_quiescent();
        let expected = NetworkStats {
            sent: 954,
            delivered: 859,
            lost: 95,
            dropped_dead: 0,
            timers_fired: 0,
        };
        assert_eq!(net.stats(), expected);
        assert_eq!(net.now(), SimTime(504_871));
        let pongs = &net.node(a).pongs;
        assert_eq!(pongs.len(), 405);
        assert_eq!(pongs.iter().map(|&p| u64::from(p)).sum::<u64>(), 101_334);
    }

    #[test]
    fn fault_loss_is_counted_in_network_stats() {
        let cfg = NetworkConfig {
            latency: LatencyConfig::Constant {
                delay: SimDuration::from_micros(10),
            },
            loss: 0.5,
        };
        let mut net: Network<Echo, Msg> = Network::new(cfg, 21);
        let a = net.add_node(Echo::default());
        let b = net.add_node(Echo::default());
        for i in 0..2_000 {
            net.send_external(a, b, Msg::Ping(i));
        }
        net.run_until_quiescent();
        let s = net.stats();
        assert!(s.lost > 0);
        assert_eq!(s.sent, s.delivered + s.lost);
        let rate = s.lost as f64 / s.sent as f64;
        assert!((rate - 0.5).abs() < 0.05, "fault loss rate {rate}");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn rejects_invalid_loss() {
        let _: Network<Echo, Msg> = Network::new(wan(1.0), 0);
    }

    #[test]
    #[should_panic(expected = "Flat builds no model")]
    fn rejects_a_flat_latency_config() {
        let cfg = NetworkConfig {
            latency: LatencyConfig::Flat,
            loss: 0.0,
        };
        let _: Network<Echo, Msg> = Network::new(cfg, 0);
    }
}

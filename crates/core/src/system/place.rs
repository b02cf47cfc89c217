//! Policy-driven replica placement and crash failover.
//!
//! The paper's P-Grid substrate stores each triple at exactly the σ(p)
//! owner group of its key, so failure injection on an owner turns every
//! query touching that key into a *recorded failure* — degraded rows,
//! not degraded latency. This module makes replication a first-class,
//! policy-driven mechanism layered over the scheduler, retry protocol
//! and session pool: extra replicas are provisioned per placement rule,
//! reads pick the lowest-expected-latency live holder, and the
//! timeout–retry protocol fails over past dead holders before resolving
//! [`PeerDown`](super::SystemError::PeerDown).
//!
//! ## Lifecycle: policy → registry → routing → failover
//!
//! ```text
//!  PlacementPolicy (GridVineConfig::placement, serde; null = exactly-
//!        │          owner placement, no replica machinery engaged)
//!        │ rule matches a lexical at insert time
//!        ▼
//!  replica registry ──commit_replica──► extra holders beyond σ(key)
//!        │   (atomic multi-peer copy in the commit_mapping_copies
//!        │    style: written copies roll back when the armed
//!        │    commit-crash hook downs the target mid-commit; inserts
//!        │    fan out to every registered extra the same way)
//!        │ a unit resolves a pattern whose routed lexical matches
//!        ▼
//!  replica-aware issue: rank σ(key) ∪ extras by the latency model's
//!        │  deterministic expected(origin, holder), ties by peer
//!        │  index; direct exchange with the best holder (no DHT walk,
//!        │  no routing-RNG draw)
//!        │
//!        ├──request answered──► replica_hits += 1, rows served
//!        │
//!        └──holder crashed / retries exhausted──► failovers += 1,
//!              next-ranked holder tried; only when every holder is
//!              down does the unit resolve PeerDown
//! ```
//!
//! ## Counters
//!
//! `replica_hits` / `failovers` join
//! [`ExecStats`](super::exec::ExecStats) (diffed per issued unit, like
//! the protocol counters) and surface as
//! [`gridvine_netsim::ReplicaCounters`] via
//! [`GridVineSystem::replica_counters`].
//!
//! ## Determinism
//!
//! A null policy (no rules) takes none of these paths: no registry
//! entries and no extra RNG draws, so rows, stats and the routing RNG
//! stream are those of the placement-free scheduler (a proptest pins
//! this for windows 1 and 4). An active policy consumes *no*
//! main-stream randomness either: candidate ranking uses the latency
//! model's deterministic [`expected`](gridvine_netsim::LatencyModel::expected)
//! and expected-latency scores are computed for **every** candidate
//! before liveness is probed, so the model's placement stream advances
//! identically in faulty and fault-free runs.

use super::{GridVineSystem, SystemError};
use gridvine_netsim::{NodeId, ReplicaCounters, SimDuration, SimTime};
use gridvine_pgrid::{BitString, PeerId};
use gridvine_rdf::Triple;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One placement rule: every key whose routed lexical starts with
/// `prefix` (a predicate URI, a schema name, or any key-prefix) is
/// held by `factor` peers — the natural σ(key) owners plus committed
/// extras.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementRule {
    /// Lexical prefix the rule covers (first matching rule wins).
    pub prefix: String,
    /// Desired number of live holders of a matching key. Factors at or
    /// below the natural σ-group size provision nothing up front but
    /// still enable replica-aware routing.
    pub factor: usize,
}

impl PlacementRule {
    pub fn new(prefix: impl Into<String>, factor: usize) -> PlacementRule {
        PlacementRule {
            prefix: prefix.into(),
            factor,
        }
    }
}

/// The per-key-prefix replication policy
/// ([`GridVineConfig::placement`](super::GridVineConfig)). The default
/// is the **null policy**: no rules, exactly-owner placement,
/// bit-identical to the placement-free scheduler.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementPolicy {
    /// Rules in priority order: the first whose prefix matches a
    /// routed lexical governs that key.
    #[serde(default)]
    pub rules: Vec<PlacementRule>,
}

impl PlacementPolicy {
    pub fn new() -> PlacementPolicy {
        PlacementPolicy::default()
    }

    /// Append a rule replicating `prefix`-keyed lexicals to `factor`
    /// holders.
    pub fn replicate(mut self, prefix: impl Into<String>, factor: usize) -> PlacementPolicy {
        self.rules.push(PlacementRule::new(prefix, factor));
        self
    }

    /// The null policy places every key at exactly its owners.
    pub fn is_null(&self) -> bool {
        self.rules.is_empty()
    }

    /// First rule covering `lexical`, if any.
    pub fn rule_for(&self, lexical: &str) -> Option<&PlacementRule> {
        self.rules.iter().find(|r| lexical.starts_with(&r.prefix))
    }

    /// Whether a rule covers any of the triple's three routed lexicals.
    pub(crate) fn covers(&self, t: &Triple) -> bool {
        [t.subject.as_str(), t.predicate.as_str(), t.object.lexical()]
            .iter()
            .any(|lexical| self.rule_for(lexical).is_some())
    }
}

/// Running placement counters, accumulated system-wide and diffed per
/// issued unit into [`ExecStats`](super::exec::ExecStats) — exactly
/// like [`ProtoCounters`](super::ProtoCounters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PlaceCounters {
    pub(crate) replica_hits: usize,
    pub(crate) failovers: usize,
}

/// Runtime placement state: the configured policy, the replica
/// registry (extra holders per key, beyond the natural σ owners) and
/// the lifetime counters.
#[derive(Debug)]
pub(crate) struct PlacementState {
    pub(crate) policy: PlacementPolicy,
    /// Extra holders per exact key. Only fully-committed replicas are
    /// registered (a rolled-back commit leaves no entry), and σ owners
    /// never appear here.
    extras: BTreeMap<BitString, Vec<PeerId>>,
    pub(crate) counters: PlaceCounters,
}

impl PlacementState {
    pub(crate) fn new(policy: PlacementPolicy) -> PlacementState {
        PlacementState {
            policy,
            extras: BTreeMap::new(),
            counters: PlaceCounters::default(),
        }
    }

    fn extras_for(&self, key: &BitString) -> &[PeerId] {
        self.extras.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    fn register_extra(&mut self, key: BitString, peer: PeerId) {
        let list = self.extras.entry(key).or_default();
        if !list.contains(&peer) {
            list.push(peer);
        }
    }
}

impl GridVineSystem {
    /// Replica-aware unit issue: when a placement rule covers
    /// `lexical`, serve from the lowest-expected-latency live holder of
    /// its key, failing over past dead holders (see the module docs).
    /// `None` when no rule covers the key — the caller takes the
    /// classic routed path, so the null policy touches nothing.
    pub(crate) fn replica_route(
        &mut self,
        origin: PeerId,
        lexical: &str,
    ) -> Option<Result<PeerId, SystemError>> {
        if self.place.policy.is_null() {
            return None;
        }
        self.place.policy.rule_for(lexical)?;
        let key = self.key_of(lexical);
        let holders = self.holders_of(&key);
        // Rank every holder before probing liveness: the latency
        // model's placement stream advances identically whether or not
        // any candidate is down.
        let mut ranked: Vec<(SimDuration, u32)> = holders
            .iter()
            .map(|&c| (self.expected_latency(origin, c), c.0))
            .collect();
        ranked.sort();
        let mut down = None;
        for &(_, c) in &ranked {
            let c = PeerId(c);
            match self.proto_request(origin, c) {
                Ok(()) => {
                    // A direct request/response exchange with a known
                    // holder: no DHT walk, no routing-RNG draw.
                    self.overlay.charge_direct(origin, c, 2);
                    self.place.counters.replica_hits += 1;
                    return Some(Ok(c));
                }
                Err(SystemError::PeerDown(p)) => {
                    // The unanswered request was still sent (and its
                    // retry backoffs accumulated in the unit's delay).
                    self.overlay.charge_direct(origin, c, 1);
                    self.place.counters.failovers += 1;
                    down = Some(SystemError::PeerDown(p));
                }
                Err(e) => return Some(Err(e)),
            }
        }
        Some(Err(down.unwrap_or(SystemError::NotRoutable)))
    }

    /// Placement hook of [`GridVineSystem::insert_triples`], run once
    /// the σ owners hold the triple: for each of its three keys covered
    /// by a rule, fan the new triple out to the registered extras and
    /// provision up to the rule's factor. Atomic across the keys: on
    /// `Err` every peer the hook gave the triple to loses it again — a
    /// replica provisioned for an earlier key keeps the other rows it
    /// holds — so no extra serves a triple its σ owners are about to
    /// give back, and a holder that had the triple already keeps it.
    pub(crate) fn place_triple(
        &mut self,
        origin: PeerId,
        t: &Triple,
        keys: &[BitString; 3],
    ) -> Result<(), SystemError> {
        let lexicals = [t.subject.as_str(), t.predicate.as_str(), t.object.lexical()];
        let mut gained = Vec::new();
        let placed = keys.iter().zip(lexicals).try_for_each(|(key, lexical)| {
            let Some(rule) = self.place.policy.rule_for(lexical).cloned() else {
                return Ok(());
            };
            self.fan_out_insert(origin, key, t, &mut gained)?;
            self.ensure_factor(origin, key, &rule, t, &mut gained)
        });
        if placed.is_err() {
            for peer in gained {
                self.local_dbs[peer.index()].remove(t);
            }
        }
        placed
    }

    /// Fan one freshly-placed triple out to the registered extras of
    /// `key`, in the `commit_mapping_copies` style: a down extra
    /// (possibly downed mid-commit by the armed crash hook) fails the
    /// insert, so the registry never points at a holder missing rows.
    /// Every extra that gains the triple is added to `gained`.
    fn fan_out_insert(
        &mut self,
        origin: PeerId,
        key: &BitString,
        t: &Triple,
        gained: &mut Vec<PeerId>,
    ) -> Result<(), SystemError> {
        let extras = self.place.extras_for(key).to_vec();
        for (i, x) in extras.into_iter().enumerate() {
            if i > 0 {
                // Between the first and later replica writes: the
                // armed crash hook fires here.
                if let Some(victim) = self.commit_crash.take() {
                    self.crash_peer(victim);
                }
            }
            if self.crashed.contains(&x) {
                return Err(SystemError::PeerDown(x));
            }
            if self.local_dbs[x.index()].insert(t.clone()) {
                gained.push(x);
            }
            self.overlay.charge_direct(origin, x, 1);
        }
        Ok(())
    }

    /// Commit replicas until `key` has `rule.factor` holders (or no
    /// non-holder is live at [`GridVineSystem::now`], the instant the
    /// insert is made). Every new holder that gains `t` — the
    /// triple being placed, which the copy includes — is added to
    /// `gained`.
    fn ensure_factor(
        &mut self,
        origin: PeerId,
        key: &BitString,
        rule: &PlacementRule,
        t: &Triple,
        gained: &mut Vec<PeerId>,
    ) -> Result<(), SystemError> {
        loop {
            let holders = self.holders_of(key);
            if holders.len() >= rule.factor {
                return Ok(());
            }
            let Some((_, target)) = self.best_new_holder(origin, &holders, self.now()) else {
                return Ok(());
            };
            let had = self.local_dbs[target.index()].contains(t);
            self.commit_replica(origin, key, target)?;
            if !had {
                gained.push(target);
            }
        }
    }

    /// Copy the full matching set of `key` from its first σ owner to
    /// `target` and register the extra — atomically: a target downed
    /// mid-copy (the armed crash hook fires between items) rolls the
    /// copied rows back, and the registry is only written after the
    /// last row lands. Charges one registration message plus one per
    /// copied triple as direct exchanges.
    fn commit_replica(
        &mut self,
        origin: PeerId,
        key: &BitString,
        target: PeerId,
    ) -> Result<(), SystemError> {
        if self.crashed.contains(&target) {
            return Err(SystemError::PeerDown(target));
        }
        let src = self
            .topology
            .responsible(key)
            .first()
            .copied()
            .expect("every key has a responsible peer");
        let items: Vec<Triple> = {
            let ks = self.keyspace();
            self.local_dbs[src.index()]
                .iter()
                .filter(|t| ks.triple_keys(t).contains(key))
                .collect()
        };
        let mut copied: Vec<Triple> = Vec::new();
        for t in items {
            if !copied.is_empty() {
                if let Some(victim) = self.commit_crash.take() {
                    self.crash_peer(victim);
                }
            }
            if self.crashed.contains(&target) {
                for c in &copied {
                    self.local_dbs[target.index()].remove(c);
                }
                return Err(SystemError::PeerDown(target));
            }
            self.local_dbs[target.index()].insert(t.clone());
            copied.push(t);
        }
        self.overlay
            .charge_direct(origin, target, 1 + copied.len() as u64);
        self.place.register_extra(key.clone(), target);
        Ok(())
    }

    /// The cheapest non-holder from `origin` that is live at `at`, ties
    /// broken by peer index. Expected latency is computed for **every**
    /// non-holder before liveness filtering so the model stream stays
    /// independent of the crash/churn state.
    fn best_new_holder(
        &mut self,
        origin: PeerId,
        holders: &[PeerId],
        at: SimTime,
    ) -> Option<(SimDuration, PeerId)> {
        let mut best: Option<(SimDuration, u32)> = None;
        for i in 0..self.config.peers {
            let p = PeerId::from_index(i);
            if holders.contains(&p) {
                continue;
            }
            let d = self.expected_latency(origin, p);
            if self.crashed.contains(&p) || self.churn_down_at(p, at) {
                continue;
            }
            if best.is_none_or(|b| (d, p.0) < b) {
                best = Some((d, p.0));
            }
        }
        best.map(|(d, p)| (d, PeerId(p)))
    }

    /// σ(key) ∪ registered extras, owners first.
    fn holders_of(&self, key: &BitString) -> Vec<PeerId> {
        let mut holders = self.topology.responsible(key).to_vec();
        for x in self.place.extras_for(key) {
            if !holders.contains(x) {
                holders.push(*x);
            }
        }
        holders
    }

    /// Deterministic expected one-way delay used to rank replica
    /// holders: zero to self, the flat per-message cost without a
    /// model, the model's [`expected`](gridvine_netsim::LatencyModel::expected)
    /// otherwise (an uninformative zero falls back to the flat cost so
    /// locality still wins ties).
    fn expected_latency(&mut self, from: PeerId, to: PeerId) -> SimDuration {
        if from == to {
            return SimDuration::ZERO;
        }
        match self.latency.as_deref_mut() {
            None => super::sched::PER_MESSAGE,
            Some(model) => {
                let d = model.expected(
                    NodeId::from_index(from.index()),
                    NodeId::from_index(to.index()),
                );
                if d == SimDuration::ZERO {
                    super::sched::PER_MESSAGE
                } else {
                    d
                }
            }
        }
    }

    /// Every peer currently holding copies of the key of `lexical`:
    /// the natural σ(key) owners plus the registered placement extras.
    pub fn replica_holders(&self, lexical: &str) -> Vec<PeerId> {
        self.holders_of(&self.key_of(lexical))
    }

    /// Lifetime replica-placement counters: replica-path serves and
    /// failovers past dead holders.
    pub fn replica_counters(&self) -> ReplicaCounters {
        let c = self.place.counters;
        ReplicaCounters {
            replica_hits: c.replica_hits as u64,
            failovers: c.failovers as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_policy_matches_nothing() {
        let p = PlacementPolicy::default();
        assert!(p.is_null());
        assert!(p.rule_for("EMBL#Organism").is_none());
    }

    #[test]
    fn first_matching_rule_wins() {
        let p = PlacementPolicy::new().replicate("S0#", 3).replicate("S", 2);
        assert_eq!(p.rule_for("S0#a0").unwrap().factor, 3);
        assert_eq!(p.rule_for("S1#a1").unwrap().factor, 2);
        assert!(p.rule_for("T0#b0").is_none());
        assert!(!p.is_null());
    }

    #[test]
    fn extras_register_idempotently() {
        let mut state = PlacementState::new(PlacementPolicy::default());
        let key = BitString::parse("0011");
        assert!(state.extras_for(&key).is_empty());
        state.register_extra(key.clone(), PeerId(7));
        state.register_extra(key.clone(), PeerId(7)); // idempotent
        state.register_extra(key.clone(), PeerId(9));
        assert_eq!(state.extras_for(&key), &[PeerId(7), PeerId(9)]);
    }
}

//! The schema/mapping graph and its registry.
//!
//! "GridVine maintains information about the graph of schemas and
//! mappings" (§3.1). The [`MappingRegistry`] owns schemas and mappings
//! and derives graph analytics: the directed edge set over *active*
//! mappings, per-schema in/out degrees, strongly connected components
//! (Tarjan), and reachability — the ground truth against which the
//! connectivity indicator of [`crate::connectivity`] is an estimate.

use crate::mapping::{
    Correspondence, Direction, Mapping, MappingId, MappingKind, MappingStatus, Provenance,
};
use crate::schema::{Schema, SchemaId};
use gridvine_rdf::fasthash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Degree record a schema-responsible peer publishes under
/// `Hash(Domain)` (§3.1): `{Schema, InDegree, OutDegree}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegreeRecord {
    pub schema: SchemaId,
    pub in_degree: usize,
    pub out_degree: usize,
}

/// Owns schemas + mappings; the mediation layer's semantic state.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MappingRegistry {
    schemas: BTreeMap<SchemaId, Schema>,
    mappings: Vec<Mapping>,
    next_id: u32,
    /// Monotone counter of mapping-network mutations: bumped by every
    /// mapping insert, deprecation and mutable mapping access
    /// (quality/status repair). Consumers key derived state on it —
    /// most importantly the reformulation-closure cache
    /// ([`crate::reformulate::ClosureCache`]): as long as the epoch is
    /// unchanged, any previously computed closure over this registry is
    /// still valid.
    epoch: u64,
}

impl MappingRegistry {
    pub fn new() -> MappingRegistry {
        MappingRegistry::default()
    }

    /// Register a schema (idempotent by id; later definitions win).
    pub fn add_schema(&mut self, schema: Schema) {
        self.schemas.insert(schema.id().clone(), schema);
    }

    pub fn schema(&self, id: &SchemaId) -> Option<&Schema> {
        self.schemas.get(id)
    }

    pub fn schemas(&self) -> impl Iterator<Item = &Schema> {
        self.schemas.values()
    }

    /// The current mapping-network epoch (see the field docs). Two
    /// reads returning the same value bracket a window in which no
    /// mapping was inserted, deprecated or repaired.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Register a mapping; returns its id.
    pub fn add_mapping(
        &mut self,
        source: impl Into<SchemaId>,
        target: impl Into<SchemaId>,
        kind: MappingKind,
        provenance: Provenance,
        correspondences: Vec<Correspondence>,
    ) -> MappingId {
        let id = MappingId(self.next_id);
        self.next_id += 1;
        self.epoch += 1;
        self.mappings.push(Mapping::new(
            id,
            source,
            target,
            kind,
            provenance,
            correspondences,
        ));
        id
    }

    pub fn mapping(&self, id: MappingId) -> Option<&Mapping> {
        self.mappings.iter().find(|m| m.id == id)
    }

    /// Mutable access to a mapping. Conservatively bumps the epoch:
    /// the caller may change status or quality (the self-organization
    /// repair path does), either of which invalidates cached closures.
    pub fn mapping_mut(&mut self, id: MappingId) -> Option<&mut Mapping> {
        let m = self.mappings.iter_mut().find(|m| m.id == id);
        if m.is_some() {
            self.epoch += 1;
        }
        m
    }

    pub fn mappings(&self) -> impl Iterator<Item = &Mapping> {
        self.mappings.iter()
    }

    pub fn active_mappings(&self) -> impl Iterator<Item = &Mapping> {
        self.mappings.iter().filter(|m| m.is_active())
    }

    pub fn active_count(&self) -> usize {
        self.active_mappings().count()
    }

    /// Deprecate a mapping: it disappears from reformulation and from
    /// the connectivity statistics (§3.2).
    pub fn deprecate(&mut self, id: MappingId) -> bool {
        match self.mapping_mut(id) {
            Some(m) => {
                m.status = MappingStatus::Deprecated;
                true
            }
            None => false,
        }
    }

    /// Remove a mapping from the registry entirely (bumps the epoch; its
    /// id is not reused). A mapping is registered before its DHT copies
    /// are written, to take its id; when the write is refused (a down
    /// holder) or rolled back (a route error), the mediation layer
    /// retracts it, so the registry never names a mapping the DHT does
    /// not hold.
    pub fn retract(&mut self, id: MappingId) -> bool {
        let before = self.mappings.len();
        self.mappings.retain(|m| m.id != id);
        if self.mappings.len() != before {
            self.epoch += 1;
            true
        } else {
            false
        }
    }

    /// Active mappings usable from `schema`, with their direction.
    pub fn applicable_from(&self, schema: &SchemaId) -> Vec<(&Mapping, Direction)> {
        self.active_mappings()
            .filter_map(|m| m.applicable_from(schema).map(|d| (m, d)))
            .collect()
    }

    /// Whether any active mapping already connects the (unordered) pair.
    pub fn connected_directly(&self, a: &SchemaId, b: &SchemaId) -> bool {
        self.active_mappings()
            .any(|m| (&m.source == a && &m.target == b) || (&m.source == b && &m.target == a))
    }

    /// Directed edges of the active graph (deduplicated).
    pub fn edges(&self) -> BTreeSet<(SchemaId, SchemaId)> {
        self.active_mappings().flat_map(|m| m.edges()).collect()
    }

    /// Per-schema (in, out) degrees over active directed edges. Every
    /// registered schema appears, including isolated ones — those are
    /// exactly what drags the connectivity indicator down.
    pub fn degree_records(&self) -> Vec<DegreeRecord> {
        let mut degs: BTreeMap<SchemaId, (usize, usize)> =
            self.schemas.keys().map(|s| (s.clone(), (0, 0))).collect();
        for (from, to) in self.edges() {
            degs.entry(from).or_insert((0, 0)).1 += 1;
            degs.entry(to).or_insert((0, 0)).0 += 1;
        }
        degs.into_iter()
            .map(|(schema, (in_degree, out_degree))| DegreeRecord {
                schema,
                in_degree,
                out_degree,
            })
            .collect()
    }

    /// Schemas reachable from `start` by following active directed
    /// edges (including `start`). This is the set of schemas a query
    /// can be disseminated to (§3.1).
    pub fn reachable(&self, start: &SchemaId) -> BTreeSet<SchemaId> {
        let adj = self.adjacency();
        let mut seen: BTreeSet<SchemaId> = BTreeSet::new();
        let mut stack = vec![start.clone()];
        while let Some(s) = stack.pop() {
            if !seen.insert(s.clone()) {
                continue;
            }
            if let Some(nexts) = adj.get(&s) {
                for n in nexts {
                    if !seen.contains(n) {
                        stack.push(n.clone());
                    }
                }
            }
        }
        seen
    }

    fn adjacency(&self) -> FxHashMap<SchemaId, Vec<SchemaId>> {
        let mut adj: FxHashMap<SchemaId, Vec<SchemaId>> = FxHashMap::default();
        for (from, to) in self.edges() {
            adj.entry(from).or_default().push(to);
        }
        adj
    }

    /// Strongly connected components (Tarjan, iterative). Isolated
    /// schemas form singleton components.
    fn strongly_connected_components(&self) -> Vec<Vec<SchemaId>> {
        let nodes: Vec<SchemaId> = self.schemas.keys().cloned().collect();
        let index_of: FxHashMap<&SchemaId, usize> =
            nodes.iter().enumerate().map(|(i, s)| (s, i)).collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (from, to) in self.edges() {
            if let (Some(&f), Some(&t)) = (index_of.get(&from), index_of.get(&to)) {
                adj[f].push(t);
            }
        }

        // Iterative Tarjan.
        const UNSET: usize = usize::MAX;
        let n = nodes.len();
        let mut index = vec![UNSET; n];
        let mut low = vec![UNSET; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut sccs: Vec<Vec<SchemaId>> = Vec::new();

        for root in 0..n {
            if index[root] != UNSET {
                continue;
            }
            // (node, next child position)
            let mut call: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(&mut (v, ref mut ci)) = call.last_mut() {
                if *ci == 0 {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if *ci < adj[v].len() {
                    let w = adj[v][*ci];
                    *ci += 1;
                    if index[w] == UNSET {
                        call.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("stack non-empty");
                            on_stack[w] = false;
                            comp.push(nodes[w].clone());
                            if w == v {
                                break;
                            }
                        }
                        comp.sort();
                        sccs.push(comp);
                    }
                    call.pop();
                    if let Some(&mut (parent, _)) = call.last_mut() {
                        low[parent] = low[parent].min(low[v]);
                    }
                }
            }
        }
        sccs.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
        sccs
    }

    /// Fraction of schemas inside the largest strongly connected
    /// component — the "giant component" the indicator predicts.
    pub fn largest_scc_fraction(&self) -> f64 {
        if self.schemas.is_empty() {
            return 0.0;
        }
        let largest = self
            .strongly_connected_components()
            .first()
            .map(Vec::len)
            .unwrap_or(0);
        largest as f64 / self.schemas.len() as f64
    }

    /// Whether the active graph is one strongly connected component —
    /// the paper's goal state ("the network of schemas and mappings
    /// forms a strongly connected graph", §3.1).
    pub fn is_strongly_connected(&self) -> bool {
        self.schemas.len() <= 1 || self.largest_scc_fraction() == 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema(name: &str) -> Schema {
        Schema::new(name, ["a", "b"])
    }

    fn corr() -> Vec<Correspondence> {
        vec![Correspondence::new("a", "a")]
    }

    fn chain(n: usize, kind: MappingKind) -> MappingRegistry {
        let mut reg = MappingRegistry::new();
        for i in 0..n {
            reg.add_schema(schema(&format!("S{i}")));
        }
        for i in 0..n.saturating_sub(1) {
            reg.add_mapping(
                format!("S{i}").as_str(),
                format!("S{}", i + 1).as_str(),
                kind,
                Provenance::Manual,
                corr(),
            );
        }
        reg
    }

    #[test]
    fn equivalence_chain_is_strongly_connected() {
        let reg = chain(5, MappingKind::Equivalence);
        assert!(reg.is_strongly_connected());
        assert_eq!(reg.largest_scc_fraction(), 1.0);
        assert_eq!(reg.reachable(&SchemaId::new("S0")).len(), 5);
    }

    #[test]
    fn subsumption_chain_is_weakly_connected_only() {
        let reg = chain(5, MappingKind::Subsumption);
        assert!(!reg.is_strongly_connected());
        // Each node its own SCC in a directed path.
        assert_eq!(reg.strongly_connected_components().len(), 5);
        assert_eq!(reg.reachable(&SchemaId::new("S0")).len(), 5);
        assert_eq!(reg.reachable(&SchemaId::new("S4")).len(), 1);
    }

    #[test]
    fn deprecation_cuts_the_graph() {
        let mut reg = chain(3, MappingKind::Equivalence);
        assert!(reg.is_strongly_connected());
        let cut = reg
            .mappings()
            .find(|m| m.source == SchemaId::new("S1"))
            .map(|m| m.id)
            .expect("exists");
        assert!(reg.deprecate(cut));
        assert!(!reg.is_strongly_connected());
        assert_eq!(reg.reachable(&SchemaId::new("S0")).len(), 2);
        assert_eq!(reg.active_count(), 1);
        assert_eq!(reg.mappings().count(), 2);
    }

    #[test]
    fn retract_removes_the_mapping_and_bumps_epoch() {
        let mut reg = chain(2, MappingKind::Equivalence);
        let id = reg.mappings().next().map(|m| m.id).expect("exists");
        let e0 = reg.epoch();
        assert!(reg.retract(id));
        assert!(reg.epoch() > e0);
        assert!(reg.mapping(id).is_none());
        assert_eq!(reg.mappings().count(), 0);
        assert!(!reg.retract(id), "second retract is a no-op");
    }

    #[test]
    fn degree_records_count_directed_edges() {
        let reg = chain(3, MappingKind::Equivalence);
        let recs = reg.degree_records();
        assert_eq!(recs.len(), 3);
        let by_name: BTreeMap<&str, (usize, usize)> = recs
            .iter()
            .map(|r| (r.schema.as_str(), (r.in_degree, r.out_degree)))
            .collect();
        // Equivalence edges are bidirectional: middle has 2 in, 2 out.
        assert_eq!(by_name["S0"], (1, 1));
        assert_eq!(by_name["S1"], (2, 2));
        assert_eq!(by_name["S2"], (1, 1));
    }

    #[test]
    fn isolated_schemas_appear_with_zero_degree() {
        let mut reg = chain(2, MappingKind::Equivalence);
        reg.add_schema(schema("LONER"));
        let recs = reg.degree_records();
        let loner = recs
            .iter()
            .find(|r| r.schema.as_str() == "LONER")
            .expect("present");
        assert_eq!((loner.in_degree, loner.out_degree), (0, 0));
        assert!(!reg.is_strongly_connected());
        assert!((reg.largest_scc_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn two_cycles_bridged_one_way_are_two_sccs() {
        let mut reg = MappingRegistry::new();
        for s in ["A", "B", "C", "D"] {
            reg.add_schema(schema(s));
        }
        // A ≡ B, C ≡ D, B ⊑ C
        reg.add_mapping(
            "A",
            "B",
            MappingKind::Equivalence,
            Provenance::Manual,
            corr(),
        );
        reg.add_mapping(
            "C",
            "D",
            MappingKind::Equivalence,
            Provenance::Manual,
            corr(),
        );
        reg.add_mapping(
            "B",
            "C",
            MappingKind::Subsumption,
            Provenance::Manual,
            corr(),
        );
        let sccs = reg.strongly_connected_components();
        assert_eq!(sccs.len(), 2);
        assert_eq!(sccs[0].len(), 2);
        assert_eq!(reg.reachable(&SchemaId::new("A")).len(), 4);
        assert_eq!(reg.reachable(&SchemaId::new("C")).len(), 2);
    }

    #[test]
    fn connected_directly_ignores_direction_and_deprecated() {
        let mut reg = chain(2, MappingKind::Subsumption);
        assert!(reg.connected_directly(&SchemaId::new("S0"), &SchemaId::new("S1")));
        assert!(reg.connected_directly(&SchemaId::new("S1"), &SchemaId::new("S0")));
        let id = reg.mappings().next().map(|m| m.id).expect("exists");
        reg.deprecate(id);
        assert!(!reg.connected_directly(&SchemaId::new("S0"), &SchemaId::new("S1")));
    }

    #[test]
    fn empty_registry_is_trivially_connected() {
        let reg = MappingRegistry::new();
        assert!(reg.is_strongly_connected());
        assert_eq!(reg.largest_scc_fraction(), 0.0);
        assert!(reg.degree_records().is_empty());
    }

    #[test]
    fn applicable_from_respects_direction_and_status() {
        let mut reg = MappingRegistry::new();
        reg.add_schema(schema("A"));
        reg.add_schema(schema("B"));
        let id = reg.add_mapping(
            "A",
            "B",
            MappingKind::Subsumption,
            Provenance::Manual,
            corr(),
        );
        assert_eq!(reg.applicable_from(&SchemaId::new("A")).len(), 1);
        assert!(reg.applicable_from(&SchemaId::new("B")).is_empty());
        reg.deprecate(id);
        assert!(reg.applicable_from(&SchemaId::new("A")).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Naive reachability-based SCC for cross-checking Tarjan.
    fn naive_sccs(reg: &MappingRegistry) -> Vec<Vec<SchemaId>> {
        let nodes: Vec<SchemaId> = reg.schemas().map(|s| s.id().clone()).collect();
        let mut comps: Vec<Vec<SchemaId>> = Vec::new();
        let mut assigned: BTreeSet<SchemaId> = BTreeSet::new();
        for a in &nodes {
            if assigned.contains(a) {
                continue;
            }
            let from_a = reg.reachable(a);
            let mut comp = vec![a.clone()];
            for b in &nodes {
                if b != a && from_a.contains(b) && reg.reachable(b).contains(a) {
                    comp.push(b.clone());
                }
            }
            comp.sort();
            for c in &comp {
                assigned.insert(c.clone());
            }
            comps.push(comp);
        }
        comps.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
        comps
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Tarjan agrees with the O(n²) reachability definition of SCCs
        /// on random graphs.
        #[test]
        fn tarjan_matches_naive(
            n in 1usize..10,
            edges in proptest::collection::vec((0usize..10, 0usize..10, any::<bool>()), 0..25),
        ) {
            let mut reg = MappingRegistry::new();
            for i in 0..n {
                reg.add_schema(Schema::new(format!("S{i}").as_str(), ["a"]));
            }
            for (f, t, equiv) in edges {
                let (f, t) = (f % n, t % n);
                if f == t { continue; }
                let kind = if equiv { MappingKind::Equivalence } else { MappingKind::Subsumption };
                reg.add_mapping(
                    format!("S{f}").as_str(),
                    format!("S{t}").as_str(),
                    kind,
                    Provenance::Manual,
                    vec![Correspondence::new("a", "a")],
                );
            }
            prop_assert_eq!(reg.strongly_connected_components(), naive_sccs(&reg));
        }

        /// SCCs partition the schema set.
        #[test]
        fn sccs_partition(n in 1usize..12, seed_edges in proptest::collection::vec((0usize..12, 0usize..12), 0..30)) {
            let mut reg = MappingRegistry::new();
            for i in 0..n {
                reg.add_schema(Schema::new(format!("S{i}").as_str(), ["a"]));
            }
            for (f, t) in seed_edges {
                let (f, t) = (f % n, t % n);
                if f == t { continue; }
                reg.add_mapping(
                    format!("S{f}").as_str(),
                    format!("S{t}").as_str(),
                    MappingKind::Subsumption,
                    Provenance::Manual,
                    vec![Correspondence::new("a", "a")],
                );
            }
            let sccs = reg.strongly_connected_components();
            let total: usize = sccs.iter().map(Vec::len).sum();
            prop_assert_eq!(total, n);
            let mut all: Vec<SchemaId> = sccs.into_iter().flatten().collect();
            all.sort();
            all.dedup();
            prop_assert_eq!(all.len(), n);
        }
    }
}

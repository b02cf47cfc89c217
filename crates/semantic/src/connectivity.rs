//! The connectivity indicator `ci` (§3.1).
//!
//! "Each peer storing a schema definition is responsible for updating
//! the number of incoming and outgoing mappings attached to its schema
//! … The peer responsible for Hash(Domain) can then locally derive the
//! degree distribution of the graph of schemas … It evaluates the
//! connectivity of the mediation layer by computing a connectivity
//! indicator:  ci = Σ_{j,k} (jk − k) p_{jk},  where p_{jk} stands for
//! the probability of a schema to have in-degree j and out-degree k.
//! ci ≥ 0 indicates the emergence of a giant connected component …
//! Thus, the mediation layer is not strongly connected as long as
//! ci < 0."
//!
//! This is the directed-graph Molloy–Reed criterion from the authors'
//! ODBASE'04 paper \[2\]. The estimator is *local*: the domain peer sees
//! only the degree records, never the full graph, which is exactly why
//! GridVine can monitor connectivity without crawling.

use crate::graph::DegreeRecord;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The aggregated joint degree distribution held by the domain peer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DegreeDistribution {
    /// counts[(j, k)] = number of schemas with in-degree j, out-degree k.
    counts: BTreeMap<(usize, usize), usize>,
    total: usize,
}

impl DegreeDistribution {
    pub fn new() -> DegreeDistribution {
        DegreeDistribution::default()
    }

    /// Aggregate from the records published under `Hash(Domain)`.
    fn from_records(records: &[DegreeRecord]) -> DegreeDistribution {
        let mut d = DegreeDistribution::new();
        for r in records {
            d.add(r.in_degree, r.out_degree);
        }
        d
    }

    /// Record one schema's degrees.
    pub fn add(&mut self, in_degree: usize, out_degree: usize) {
        *self.counts.entry((in_degree, out_degree)).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of schemas aggregated.
    pub fn schemas(&self) -> usize {
        self.total
    }

    /// `p_{jk}` — empirical probability of the (j, k) degree pair.
    pub fn p(&self, j: usize, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        *self.counts.get(&(j, k)).unwrap_or(&0) as f64 / self.total as f64
    }

    /// The paper's connectivity indicator:
    /// `ci = Σ_{j,k} (jk − k) p_{jk} = E[jk] − E[k]`.
    pub fn connectivity_indicator(&self) -> f64 {
        self.counts
            .iter()
            .map(|(&(j, k), &c)| ((j * k) as f64 - k as f64) * c as f64)
            .sum::<f64>()
            / self.total.max(1) as f64
    }
}

/// Convenience: indicator straight from degree records.
pub fn connectivity_indicator(records: &[DegreeRecord]) -> f64 {
    DegreeDistribution::from_records(records).connectivity_indicator()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MappingRegistry;
    use crate::mapping::{Correspondence, MappingKind, Provenance};
    use crate::schema::Schema;

    fn record(schema: &str, j: usize, k: usize) -> DegreeRecord {
        DegreeRecord {
            schema: schema.into(),
            in_degree: j,
            out_degree: k,
        }
    }

    #[test]
    fn empty_distribution_is_zero() {
        let d = DegreeDistribution::new();
        assert_eq!(d.connectivity_indicator(), 0.0);
        assert_eq!(d.p(0, 0), 0.0);
    }

    #[test]
    fn matches_hand_computation() {
        // Two schemas: (j=1, k=1) and (j=0, k=2).
        // ci = [(1·1 − 1) + (0·2 − 2)] / 2 = (0 − 2)/2 = −1.
        let d = DegreeDistribution::from_records(&[record("a", 1, 1), record("b", 0, 2)]);
        assert!((d.connectivity_indicator() - (-1.0)).abs() < 1e-12);
    }

    #[test]
    fn ring_graph_is_critical() {
        // Directed ring: every schema has j = k = 1 ⇒ ci = (1·1 − 1) = 0,
        // exactly the critical point.
        let d = DegreeDistribution::from_records(&[
            record("a", 1, 1),
            record("b", 1, 1),
            record("c", 1, 1),
        ]);
        assert_eq!(d.connectivity_indicator(), 0.0);
    }

    #[test]
    fn dense_graph_is_positive_sparse_negative() {
        // Dense: everyone has in/out degree 3 ⇒ ci = 9 − 3 = 6.
        let dense = DegreeDistribution::from_records(&vec![record("a", 3, 3); 5]);
        assert!(dense.connectivity_indicator() > 0.0);
        // Sparse: mostly isolated with a couple of out-edges.
        let sparse = DegreeDistribution::from_records(&[
            record("a", 0, 1),
            record("b", 0, 1),
            record("c", 1, 0),
            record("d", 1, 0),
            record("e", 0, 0),
        ]);
        assert!(sparse.connectivity_indicator() < 0.0);
    }

    #[test]
    fn indicator_is_the_moment_difference() {
        // E[jk] = (8 + 0) / 2 = 4, E[k] = (4 + 2) / 2 = 3.
        let d = DegreeDistribution::from_records(&[record("a", 2, 4), record("b", 0, 2)]);
        // ci = E[jk] − E[k].
        assert!((d.connectivity_indicator() - (4.0 - 3.0)).abs() < 1e-12);
    }

    #[test]
    fn indicator_tracks_graph_ground_truth_on_growth() {
        // Grow a directed (subsumption) chain over 12 schemas, then
        // close it into a ring. While the chain is open the graph is
        // not strongly connected and ci < 0 (the chain head has
        // out-degree without in-degree); once the ring closes, every
        // schema has j = k = 1, ci = 0 — exactly the critical point —
        // and the graph becomes one SCC.
        let n = 12;
        let mut reg = MappingRegistry::new();
        for i in 0..n {
            reg.add_schema(Schema::new(format!("S{i}").as_str(), ["a"]));
        }
        for i in 0..n - 1 {
            reg.add_mapping(
                format!("S{i}").as_str(),
                format!("S{}", i + 1).as_str(),
                MappingKind::Subsumption,
                Provenance::Manual,
                vec![Correspondence::new("a", "a")],
            );
            let ci = connectivity_indicator(&reg.degree_records());
            assert!(ci < 0.0, "open chain after {i} mappings: ci = {ci}");
            assert!(!reg.is_strongly_connected());
        }
        // Close the ring.
        reg.add_mapping(
            format!("S{}", n - 1).as_str(),
            "S0",
            MappingKind::Subsumption,
            Provenance::Manual,
            vec![Correspondence::new("a", "a")],
        );
        let ci = connectivity_indicator(&reg.degree_records());
        assert!(reg.is_strongly_connected());
        assert!(ci >= 0.0, "closed ring must have ci ≥ 0, got {ci}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// ci computed via the p_{jk} sum equals E[jk] − E[k].
        #[test]
        fn ci_equals_moment_difference(recs in proptest::collection::vec((0usize..6, 0usize..6), 1..40)) {
            let records: Vec<DegreeRecord> = recs
                .iter()
                .enumerate()
                .map(|(i, &(j, k))| DegreeRecord {
                    schema: format!("S{i}").as_str().into(),
                    in_degree: j,
                    out_degree: k,
                })
                .collect();
            let d = DegreeDistribution::from_records(&records);
            let n = recs.len() as f64;
            let mean_product = recs.iter().map(|&(j, k)| (j * k) as f64).sum::<f64>() / n;
            let mean_out = recs.iter().map(|&(_, k)| k as f64).sum::<f64>() / n;
            let expected = mean_product - mean_out;
            prop_assert!((d.connectivity_indicator() - expected).abs() < 1e-9);
        }

        /// The probabilities p_{jk} sum to one.
        #[test]
        fn p_sums_to_one(recs in proptest::collection::vec((0usize..5, 0usize..5), 1..30)) {
            let mut d = DegreeDistribution::new();
            for &(j, k) in &recs { d.add(j, k); }
            let sum: f64 = (0..5).flat_map(|j| (0..5).map(move |k| (j, k)))
                .map(|(j, k)| d.p(j, k))
                .sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }
}

//! The self-organization loop (§3.1–§3.2, §4).
//!
//! "Peers responsible for a schema periodically inquire about the
//! connectivity of the mediation layer … ci < 0 … triggers the automatic
//! creation of additional schema mappings to reinforce the existing
//! network. … The quality of the mappings created in this way is
//! periodically assessed … A mapping detected as incorrect is marked as
//! deprecated … The deprecation of mappings fosters the creation of a
//! new topology of mappings, which will ensure the global
//! interoperability of the system eventually."
//!
//! One [`GridVineSystem::self_organization_round`] performs, with full
//! message accounting:
//!
//! 1. every schema's responsible peer republishes its degree record;
//! 2. the domain peer computes the connectivity indicator;
//! 3. if `ci < 0` (or the known graph is not strongly connected), new
//!    automatic mappings are created: candidate schema pairs are found
//!    through shared subject references (triples about the same
//!    sequence co-located at the subject-key peer), their attribute
//!    profiles are fetched from the DHT and matched with the combined
//!    lexical + instance matcher;
//! 4. the Bayesian cycle analysis runs and condemned automatic mappings
//!    are deprecated (their DHT copies refreshed).

use crate::system::{GridVineSystem, SystemError};
use gridvine_pgrid::PeerId;
use gridvine_semantic::{
    apply_assessment, assess, compose_path, find_path, match_profiles, BayesConfig, Correspondence,
    MappingId, MappingKind, MatcherConfig, Provenance, Schema, SchemaId, SchemaProfile,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Self-organization tunables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelfOrgConfig {
    pub matcher: MatcherConfig,
    pub bayes: BayesConfig,
    /// Cap on new automatic mappings per round.
    pub max_new_mappings: usize,
    /// Probability that a created correspondence is corrupted (models
    /// matcher noise; drives the deprecation experiment E5).
    pub error_rate: f64,
    /// When a mapping is deprecated and an alternative active path
    /// between its endpoints exists, register the composition of that
    /// path as a direct replacement mapping — the §4 "deprecated …
    /// gradually replaced by other mapping paths" behaviour. Off by
    /// default so the base experiments measure pure matcher-driven
    /// recovery.
    pub repair_with_composition: bool,
}

impl Default for SelfOrgConfig {
    fn default() -> Self {
        SelfOrgConfig {
            matcher: MatcherConfig::default(),
            bayes: BayesConfig::default(),
            max_new_mappings: 4,
            error_rate: 0.0,
            repair_with_composition: false,
        }
    }
}

/// What one round did.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundReport {
    /// Connectivity indicator observed at the start of the round.
    pub ci: f64,
    /// Ground truth at the end of the round.
    pub strongly_connected: bool,
    pub largest_scc_fraction: f64,
    /// Mappings created this round.
    pub created: Vec<MappingId>,
    /// Mappings deprecated this round.
    pub deprecated: Vec<MappingId>,
    /// Replacement mappings registered by composing alternative active
    /// paths between the endpoints of deprecated mappings (empty unless
    /// [`SelfOrgConfig::repair_with_composition`] is set).
    pub composed: Vec<MappingId>,
    /// Overlay messages the round consumed.
    pub messages: u64,
    /// Active mappings after the round.
    pub active_mappings: usize,
}

impl GridVineSystem {
    /// Candidate schema pairs discovered from shared subject
    /// references: for every subject-key peer, subjects whose triples
    /// carry predicates from two different schemas vote for that pair.
    /// Returns unconnected pairs sorted by decreasing shared-subject
    /// count.
    fn discover_candidates(&self) -> Vec<(SchemaId, SchemaId, usize)> {
        let mut pair_counts: BTreeMap<(SchemaId, SchemaId), BTreeSet<String>> = BTreeMap::new();
        for i in 0..self.topology().len() {
            let peer = PeerId::from_index(i);
            let view = self.overlay().view(peer);
            // subject → set of schemas seen, read from the peer's
            // indexed `DB_p` (the only triple storage). A peer holds
            // copies for all three of a triple's keys; only the
            // subject-indexed copy votes, i.e. triples whose subject
            // key this peer is responsible for.
            let mut by_subject: BTreeMap<&str, BTreeSet<SchemaId>> = BTreeMap::new();
            for t in self.peer_db(peer).iter_refs() {
                // Predicates that name no schema cannot vote at all.
                let Some((schema, _)) = Schema::split_predicate_str(t.predicate) else {
                    continue;
                };
                by_subject.entry(t.subject).or_default().insert(schema);
            }
            // One subject hash per *distinct* subject (a subject's facts
            // share the key): keep only subject-indexed copies, i.e.
            // subjects whose key this peer is responsible for — the
            // predicate- and object-indexed copies must not vote.
            by_subject.retain(|subject, _| view.is_responsible(&self.key_of(subject)));
            for (subject, schemas) in by_subject {
                let v: Vec<&SchemaId> = schemas.iter().collect();
                for a in 0..v.len() {
                    for b in a + 1..v.len() {
                        let (x, y) = if v[a] <= v[b] {
                            (v[a], v[b])
                        } else {
                            (v[b], v[a])
                        };
                        pair_counts
                            .entry((x.clone(), y.clone()))
                            .or_default()
                            .insert(subject.to_string());
                    }
                }
            }
        }
        let mut out: Vec<(SchemaId, SchemaId, usize)> = pair_counts
            .into_iter()
            .filter(|((a, b), _)| !self.registry().connected_directly(a, b))
            .map(|((a, b), subjects)| (a, b, subjects.len()))
            .collect();
        out.sort_by(|x, y| y.2.cmp(&x.2).then_with(|| (&x.0, &x.1).cmp(&(&y.0, &y.1))));
        out
    }

    /// Build a schema's observable profile from the network: one
    /// `Retrieve(Hash(schema#attr))` per attribute (messages counted).
    /// The destination peer answers from its indexed `DB_p` — it is
    /// responsible for the predicate's key, so its posting list holds
    /// every triple carrying that predicate (and, unlike the old bucket
    /// read, hash collisions with other values never surface).
    fn build_profile(
        &mut self,
        origin: PeerId,
        schema: &SchemaId,
    ) -> Result<SchemaProfile, SystemError> {
        let mut profile = SchemaProfile::new(schema.clone());
        let attrs: Vec<String> = self
            .registry()
            .schema(schema)
            .map(|s| s.attributes().to_vec())
            .unwrap_or_default();
        for attr in attrs {
            let predicate = format!("{schema}#{attr}");
            let key = self.key_of(&predicate);
            let dest = self.overlay.route(origin, &key, &mut self.rng)?.destination;
            self.overlay.charge_response(origin, dest);
            if self.crashed.contains(&dest) {
                return Err(SystemError::PeerDown(dest));
            }
            for t in self
                .peer_db(dest)
                .select_eq_rows(gridvine_rdf::Position::Predicate, &predicate)
                .refs()
            {
                if let Some(acc) = t.subject.strip_prefix("seq:") {
                    profile.observe(attr.clone(), acc, t.object);
                }
            }
        }
        Ok(profile)
    }

    /// One full self-organization round.
    pub fn self_organization_round(
        &mut self,
        cfg: &SelfOrgConfig,
    ) -> Result<RoundReport, SystemError> {
        let before = self.messages_sent();
        let monitor = self.random_peer();

        // 1–2: publish degree records, read back the indicator.
        self.publish_connectivity(monitor)?;
        let ci = self.connectivity_indicator(monitor)?;

        // 3: create mappings when connectivity is insufficient.
        let mut created = Vec::new();
        let needs_mappings = ci < 0.0 || !self.registry().is_strongly_connected();
        if needs_mappings {
            let candidates = self.discover_candidates();
            for (a, b, _shared) in candidates.into_iter().take(cfg.max_new_mappings) {
                let pa = self.build_profile(monitor, &a)?;
                let pb = self.build_profile(monitor, &b)?;
                let scored = match_profiles(&pa, &pb, &cfg.matcher);
                if scored.is_empty() {
                    continue;
                }
                let correspondences: Vec<Correspondence> = scored
                    .into_iter()
                    .map(|s| self.maybe_corrupt(&b, s.correspondence, cfg.error_rate))
                    .collect();
                let id = self.insert_mapping(
                    monitor,
                    a,
                    b,
                    MappingKind::Equivalence,
                    Provenance::Automatic,
                    correspondences,
                )?;
                created.push(id);
            }
        }

        // 4: Bayesian assessment + deprecation (DHT copies refreshed).
        let old: BTreeMap<MappingId, gridvine_semantic::Mapping> = self
            .registry()
            .active_mappings()
            .map(|m| (m.id, m.clone()))
            .collect();
        let assessment = assess(self.registry(), &cfg.bayes);
        let deprecated = apply_assessment(self.registry_mut(), &assessment, &cfg.bayes);
        for (id, old_mapping) in old {
            let changed = self
                .registry()
                .mapping(id)
                .map(|m| {
                    m.status != old_mapping.status || (m.quality - old_mapping.quality).abs() > 1e-3
                })
                .unwrap_or(false);
            if changed {
                self.refresh_mapping(monitor, id, &old_mapping)?;
            }
        }

        // 5 (optional): replace deprecated mappings by composing the
        // surviving path between their endpoints. All deprecated
        // mappings are considered, not only this round's — a pair whose
        // replacement path only appears later still gets healed
        // ("gradually replaced … eventually", §3.2/§4); once a direct
        // active mapping covers the pair, it is skipped, so repair is
        // idempotent.
        let mut composed = Vec::new();
        if cfg.repair_with_composition {
            let broken_pairs: Vec<(SchemaId, SchemaId)> = self
                .registry()
                .mappings()
                .filter(|m| !m.is_active())
                .map(|m| (m.source.clone(), m.target.clone()))
                .collect();
            for (source, target) in broken_pairs {
                if self.registry().connected_directly(&source, &target) {
                    continue; // a direct active mapping covers the pair
                }
                let Some(path) = find_path(self.registry(), &source, &target) else {
                    continue;
                };
                let Some(c) = compose_path(self.registry(), &path) else {
                    continue;
                };
                let new_id = self.insert_mapping(
                    monitor,
                    c.source,
                    c.target,
                    c.kind,
                    Provenance::Automatic,
                    c.correspondences,
                )?;
                // Carry the composite's degraded confidence into the
                // registry and its DHT copies.
                let old = self.registry().mapping(new_id).expect("just added").clone();
                self.registry_mut()
                    .mapping_mut(new_id)
                    .expect("exists")
                    .quality = c.quality;
                self.refresh_mapping(monitor, new_id, &old)?;
                composed.push(new_id);
            }
        }

        Ok(RoundReport {
            ci,
            strongly_connected: self.registry().is_strongly_connected(),
            largest_scc_fraction: self.registry().largest_scc_fraction(),
            created,
            deprecated,
            composed,
            messages: self.messages_sent() - before,
            active_mappings: self.registry().active_count(),
        })
    }

    /// With probability `error_rate`, corrupt a correspondence by
    /// retargeting it to a random different attribute of the target
    /// schema — the "erroneous mapping" injection of the demo script.
    fn maybe_corrupt(
        &mut self,
        target: &SchemaId,
        c: Correspondence,
        error_rate: f64,
    ) -> Correspondence {
        if error_rate <= 0.0 {
            return c;
        }
        let roll: f64 = self.rng.gen();
        if roll >= error_rate {
            return c;
        }
        let attrs: Vec<String> = self
            .registry()
            .schema(target)
            .map(|s| {
                s.attributes()
                    .iter()
                    .filter(|a| **a != c.target_attr)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();
        if attrs.is_empty() {
            return c;
        }
        let pick = self.rng.gen_range(0..attrs.len());
        Correspondence::new(c.source_attr, attrs[pick].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::GridVineConfig;
    use gridvine_workload::{recall, QueryConfig, QueryGenerator, Workload, WorkloadConfig};

    /// Load a small corpus into a system, seeding only `seed_mappings`
    /// manual mappings (a sparse network, as the demo starts with).
    fn load(seed_mappings: usize) -> (GridVineSystem, Workload) {
        let w = Workload::generate(WorkloadConfig::small(11));
        let mut sys = GridVineSystem::new(GridVineConfig {
            peers: 32,
            ..GridVineConfig::default()
        });
        let p0 = PeerId(0);
        for s in &w.schemas {
            sys.insert_schema(p0, s.clone()).unwrap();
        }
        for s in &w.schemas {
            for t in w.triples_of(s.id()) {
                sys.insert_triple(p0, t).unwrap();
            }
        }
        // Seed a chain of manual mappings over the first few schemas.
        for i in 0..seed_mappings.min(w.schemas.len() - 1) {
            let a = w.schemas[i].id().clone();
            let b = w.schemas[i + 1].id().clone();
            let corrs = w.ground_truth.correct_pairs(&a, &b);
            sys.insert_mapping(
                p0,
                a,
                b,
                MappingKind::Equivalence,
                Provenance::Manual,
                corrs,
            )
            .unwrap();
        }
        (sys, w)
    }

    #[test]
    fn candidates_come_from_shared_subjects() {
        let (sys, w) = load(0);
        let candidates = sys.discover_candidates();
        assert!(!candidates.is_empty());
        // Every candidate pair really shares entities in the corpus.
        for (a, b, n) in &candidates {
            let shared = w.shared_entities(a, b);
            assert!(*n > 0 && !shared.is_empty(), "{a} {b}");
        }
    }

    #[test]
    fn connected_pairs_are_not_candidates() {
        let (sys, _) = load(3);
        let connected: Vec<(SchemaId, SchemaId)> = sys
            .registry()
            .active_mappings()
            .map(|m| (m.source.clone(), m.target.clone()))
            .collect();
        let candidates = sys.discover_candidates();
        for (a, b) in connected {
            assert!(
                !candidates
                    .iter()
                    .any(|(x, y, _)| (x, y) == (&a, &b) || (x, y) == (&b, &a)),
                "{a}→{b} already connected"
            );
        }
    }

    #[test]
    fn profiles_built_from_dht_match_workload() {
        let (mut sys, w) = load(0);
        let schema = w.schemas[0].id().clone();
        let from_dht = sys.build_profile(PeerId(5), &schema).unwrap();
        let direct = w.profile_of(&schema);
        assert_eq!(from_dht.attributes.len(), direct.attributes.len());
        for (attr, vals) in &direct.attributes {
            assert_eq!(
                from_dht.attributes.get(attr),
                Some(vals),
                "attribute {attr} differs"
            );
        }
    }

    #[test]
    fn rounds_create_mappings_and_raise_recall() {
        let (mut sys, w) = load(1);
        let gen = QueryGenerator::new(&w, QueryConfig::default());
        let fig2 = gen.figure2();

        let before = sys
            .execute(
                PeerId(2),
                &crate::plan::QueryPlan::search(fig2.query.clone()),
                &crate::exec::QueryOptions::default(),
            )
            .unwrap();
        let recall_before = recall(&before.accessions(), &fig2.true_answers);

        let cfg = SelfOrgConfig {
            max_new_mappings: 6,
            ..SelfOrgConfig::default()
        };
        let mut reports = Vec::new();
        for _ in 0..6 {
            reports.push(sys.self_organization_round(&cfg).unwrap());
        }
        let created: usize = reports.iter().map(|r| r.created.len()).sum();
        assert!(created > 0, "rounds must create mappings: {reports:?}");

        let after = sys
            .execute(
                PeerId(2),
                &crate::plan::QueryPlan::search(fig2.query.clone()),
                &crate::exec::QueryOptions::default(),
            )
            .unwrap();
        let recall_after = recall(&after.accessions(), &fig2.true_answers);
        assert!(
            recall_after >= recall_before,
            "recall {recall_before} → {recall_after} must not drop"
        );
        assert!(
            recall_after > 0.5,
            "self-organization should integrate most sources: {recall_after}"
        );
        // Connectivity improves.
        let last = reports.last().unwrap();
        assert!(last.largest_scc_fraction >= reports[0].largest_scc_fraction);
    }

    #[test]
    fn erroneous_mapping_gets_deprecated_by_rounds() {
        // Seed a correct manual chain S0—S1—S2—S3, then inject one bad
        // automatic mapping S0→S2 whose correspondences are a
        // derangement of the correct ones: compositions around the
        // S0→S2→S1→S0 cycle survive but return the wrong attribute,
        // which is exactly what the Bayesian cycle analysis punishes.
        let (mut sys, w) = load(3);
        let a = w.schemas[0].id().clone();
        let c = w.schemas[2].id().clone();
        let mut corrs = w.ground_truth.correct_pairs(&a, &c);
        assert!(corrs.len() >= 2, "need ≥2 shared concepts to derange");
        let rotated_targets: Vec<String> = {
            let mut t: Vec<String> = corrs.iter().map(|x| x.target_attr.clone()).collect();
            t.rotate_left(1);
            t
        };
        for (corr, wrong) in corrs.iter_mut().zip(rotated_targets) {
            corr.target_attr = wrong;
        }
        let bad = sys
            .insert_mapping(
                PeerId(0),
                a,
                c,
                MappingKind::Equivalence,
                Provenance::Automatic,
                corrs,
            )
            .unwrap();

        let clean = SelfOrgConfig::default();
        let mut deprecated_ids = Vec::new();
        for _ in 0..6 {
            let r = sys.self_organization_round(&clean).unwrap();
            deprecated_ids.extend(r.deprecated);
        }
        assert!(
            deprecated_ids.contains(&bad),
            "the deranged mapping must be deprecated: {deprecated_ids:?}"
        );
        assert!(!sys.registry().mapping(bad).unwrap().is_active());
        // Manual chain mappings survive.
        for m in sys
            .registry()
            .mappings()
            .filter(|m| m.provenance == Provenance::Manual)
        {
            assert!(m.is_active(), "{:?} wrongly deprecated", m.id);
        }
    }

    #[test]
    fn deprecated_mapping_is_replaced_by_composed_path() {
        // Same derangement setup as above, but with composition repair
        // enabled: once the bad S0→S2 chord is deprecated, the round
        // must register a *correct* replacement composed from the
        // manual S0→S1→S2 path (§4: deprecated mappings "are gradually
        // replaced by other mapping paths").
        let (mut sys, w) = load(3);
        let a = w.schemas[0].id().clone();
        let c = w.schemas[2].id().clone();
        let mut corrs = w.ground_truth.correct_pairs(&a, &c);
        assert!(corrs.len() >= 2);
        let rotated: Vec<String> = {
            let mut t: Vec<String> = corrs.iter().map(|x| x.target_attr.clone()).collect();
            t.rotate_left(1);
            t
        };
        for (corr, wrong) in corrs.iter_mut().zip(rotated) {
            corr.target_attr = wrong;
        }
        let bad = sys
            .insert_mapping(
                PeerId(0),
                a.clone(),
                c.clone(),
                MappingKind::Equivalence,
                Provenance::Automatic,
                corrs,
            )
            .unwrap();

        let cfg = SelfOrgConfig {
            repair_with_composition: true,
            ..SelfOrgConfig::default()
        };
        let mut composed_ids = Vec::new();
        for _ in 0..6 {
            let r = sys.self_organization_round(&cfg).unwrap();
            composed_ids.extend(r.composed);
            if !composed_ids.is_empty() {
                break;
            }
        }
        assert!(!sys.registry().mapping(bad).unwrap().is_active());
        assert!(!composed_ids.is_empty(), "a replacement must be composed");
        let replacement = sys.registry().mapping(composed_ids[0]).unwrap();
        assert_eq!((&replacement.source, &replacement.target), (&a, &c));
        assert!(replacement.is_active());
        // The replacement's correspondences are the ground-truth ones
        // (composed from two correct manual mappings).
        for corr in &replacement.correspondences {
            assert!(
                w.ground_truth.is_correct(&a, &c, corr),
                "composed correspondence {corr:?} must be correct"
            );
        }
        // Confidence is the product along the path, never above manual.
        assert!(replacement.quality <= 1.0);
    }

    #[test]
    fn round_reports_account_messages() {
        let (mut sys, _) = load(1);
        let cfg = SelfOrgConfig::default();
        let r = sys.self_organization_round(&cfg).unwrap();
        assert!(r.messages > 0);
        assert!(r.active_mappings >= 1);
    }
}

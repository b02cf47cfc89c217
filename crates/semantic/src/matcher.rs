//! Automatic schema matching (§3.2/§4).
//!
//! "We take advantage of shared references to the same protein sequence
//! to select pairs of candidate schemas, and create the automatic
//! mappings using a combination of lexicographical measures and set
//! distance measures between the predicates defined in both schemas."
//!
//! Three signal families are implemented:
//!
//! * **lexicographic** — normalized Levenshtein similarity, trigram Dice
//!   coefficient, and token overlap over camel-case/underscore-split
//!   attribute names;
//! * **set distance** — Jaccard similarity between the value sets two
//!   attributes take *on the shared instances* (records present under
//!   both schemas, linked by a common accession);
//! * **combination** — a weighted blend with a decision threshold.

use crate::mapping::Correspondence;
use crate::schema::SchemaId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------
// Lexicographic measures
// ---------------------------------------------------------------------

/// Levenshtein edit distance (iterative two-row DP).
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Levenshtein similarity normalized to [0, 1]: `1 − d/max_len`.
fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max = a.chars().count().max(b.chars().count());
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max as f64
}

/// Character trigrams of the lowercased, padded string.
fn trigrams(s: &str) -> BTreeSet<[char; 3]> {
    let padded: Vec<char> = std::iter::once('^')
        .chain(s.to_lowercase().chars())
        .chain(std::iter::once('$'))
        .collect();
    padded.windows(3).map(|w| [w[0], w[1], w[2]]).collect()
}

/// Dice coefficient over character trigrams, in [0, 1].
fn trigram_dice(a: &str, b: &str) -> f64 {
    let ta = trigrams(a);
    let tb = trigrams(b);
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let shared = ta.intersection(&tb).count();
    2.0 * shared as f64 / (ta.len() + tb.len()) as f64
}

/// Split an attribute name into lowercase tokens on underscores, dashes
/// and camel-case boundaries: `SystematicName` → `["systematic",
/// "name"]`, `seq_length` → `["seq", "length"]`.
fn tokenize(name: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    let chars: Vec<char> = name.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c == '_' || c == '-' || c == ' ' {
            if !cur.is_empty() {
                tokens.push(std::mem::take(&mut cur));
            }
            continue;
        }
        let prev_lower = i > 0 && chars[i - 1].is_lowercase();
        if c.is_uppercase() && prev_lower && !cur.is_empty() {
            tokens.push(std::mem::take(&mut cur));
        }
        cur.extend(c.to_lowercase());
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

/// Jaccard similarity of the token sets.
fn token_overlap(a: &str, b: &str) -> f64 {
    let ta: BTreeSet<String> = tokenize(a).into_iter().collect();
    let tb: BTreeSet<String> = tokenize(b).into_iter().collect();
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    let inter = ta.intersection(&tb).count();
    let union = ta.union(&tb).count();
    inter as f64 / union as f64
}

/// The combined lexicographic score: the strongest of the three signals
/// (names match if *any* view of them matches well).
fn lexical_similarity(a: &str, b: &str) -> f64 {
    levenshtein_similarity(a, b)
        .max(trigram_dice(a, b))
        .max(token_overlap(a, b))
}

// ---------------------------------------------------------------------
// Instance-based (set distance) measures
// ---------------------------------------------------------------------

/// The observable extension of one schema: for every attribute, the
/// value each *instance* (shared accession) takes. Built from the
/// triples a peer can see.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemaProfile {
    pub schema: SchemaId,
    /// attribute → (instance key → value).
    pub attributes: BTreeMap<String, BTreeMap<String, String>>,
}

impl SchemaProfile {
    pub fn new(schema: impl Into<SchemaId>) -> SchemaProfile {
        SchemaProfile {
            schema: schema.into(),
            attributes: BTreeMap::new(),
        }
    }

    /// Record that `instance`'s `attr` has `value` under this schema.
    pub fn observe(
        &mut self,
        attr: impl Into<String>,
        instance: impl Into<String>,
        value: impl Into<String>,
    ) {
        self.attributes
            .entry(attr.into())
            .or_default()
            .insert(instance.into(), value.into());
    }

    /// Instances observed under any attribute.
    pub fn instances(&self) -> BTreeSet<&str> {
        self.attributes
            .values()
            .flat_map(|m| m.keys().map(String::as_str))
            .collect()
    }

    /// Instances shared with another profile — the candidate-selection
    /// signal ("shared references to the same protein sequence").
    pub fn shared_instances(&self, other: &SchemaProfile) -> BTreeSet<String> {
        self.instances()
            .intersection(&other.instances())
            .map(|s| s.to_string())
            .collect()
    }
}

/// Jaccard similarity between the value sets of two attributes,
/// restricted to the given shared instances. Returns `None` when fewer
/// than `min_support` shared instances carry both attributes.
fn instance_similarity(
    a: &BTreeMap<String, String>,
    b: &BTreeMap<String, String>,
    shared: &BTreeSet<String>,
    min_support: usize,
) -> Option<f64> {
    let va: BTreeSet<&str> = shared
        .iter()
        .filter_map(|i| a.get(i).map(String::as_str))
        .collect();
    let vb: BTreeSet<&str> = shared
        .iter()
        .filter_map(|i| b.get(i).map(String::as_str))
        .collect();
    let support = shared
        .iter()
        .filter(|i| a.contains_key(*i) && b.contains_key(*i))
        .count();
    if support < min_support {
        return None;
    }
    let inter = va.intersection(&vb).count();
    let union = va.union(&vb).count();
    if union == 0 {
        return None;
    }
    Some(inter as f64 / union as f64)
}

// ---------------------------------------------------------------------
// Combined matcher
// ---------------------------------------------------------------------

/// Matcher tunables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatcherConfig {
    /// Weight of the lexicographic score.
    pub lexical_weight: f64,
    /// Weight of the instance (set-distance) score.
    pub instance_weight: f64,
    /// Minimum combined score to emit a correspondence.
    pub threshold: f64,
    /// Minimum shared instances carrying both attributes for the
    /// instance score to count.
    pub min_support: usize,
    /// Minimum shared instances between two schemas to consider the
    /// pair at all.
    pub min_shared_instances: usize,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig {
            lexical_weight: 0.5,
            instance_weight: 0.5,
            threshold: 0.55,
            min_support: 2,
            min_shared_instances: 2,
        }
    }
}

impl MatcherConfig {
    /// Lexical-signal-only configuration (ablation A3).
    pub fn lexical_only() -> MatcherConfig {
        MatcherConfig {
            lexical_weight: 1.0,
            instance_weight: 0.0,
            ..MatcherConfig::default()
        }
    }

    /// Instance-signal-only configuration (ablation A3).
    pub fn instance_only() -> MatcherConfig {
        MatcherConfig {
            lexical_weight: 0.0,
            instance_weight: 1.0,
            ..MatcherConfig::default()
        }
    }
}

/// A scored candidate correspondence between two schemas' attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoredCorrespondence {
    pub correspondence: Correspondence,
    pub lexical: f64,
    pub instance: Option<f64>,
    pub score: f64,
}

/// Match two schema profiles: score every attribute pair and keep, per
/// source attribute, the best-scoring target above the threshold
/// (stable marriage is overkill at 5–12 attributes per schema).
pub fn match_profiles(
    a: &SchemaProfile,
    b: &SchemaProfile,
    cfg: &MatcherConfig,
) -> Vec<ScoredCorrespondence> {
    let shared = a.shared_instances(b);
    if shared.len() < cfg.min_shared_instances {
        return Vec::new();
    }
    let mut out: Vec<ScoredCorrespondence> = Vec::new();
    for (attr_a, vals_a) in &a.attributes {
        let mut best: Option<ScoredCorrespondence> = None;
        for (attr_b, vals_b) in &b.attributes {
            let lexical = lexical_similarity(attr_a, attr_b);
            let instance = instance_similarity(vals_a, vals_b, &shared, cfg.min_support);
            let denom = cfg.lexical_weight
                + if instance.is_some() {
                    cfg.instance_weight
                } else {
                    0.0
                };
            if denom == 0.0 {
                continue;
            }
            let blend = (cfg.lexical_weight * lexical
                + cfg.instance_weight * instance.unwrap_or(0.0))
                / denom;
            // A correspondence is accepted when the blend *or* any
            // enabled single signal clears the threshold: one decisive
            // signal (identical value sets, or near-identical names)
            // should not be vetoed by the other being unavailable or
            // degraded by formatting differences.
            let mut score = blend;
            if cfg.lexical_weight > 0.0 {
                score = score.max(lexical);
            }
            if cfg.instance_weight > 0.0 {
                score = score.max(instance.unwrap_or(0.0));
            }
            if score < cfg.threshold {
                continue;
            }
            let cand = ScoredCorrespondence {
                correspondence: Correspondence::new(attr_a.clone(), attr_b.clone()),
                lexical,
                instance,
                score,
            };
            if best.as_ref().map(|b| cand.score > b.score).unwrap_or(true) {
                best = Some(cand);
            }
        }
        if let Some(b) = best {
            out.push(b);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("organism", "organism"), 0);
    }

    #[test]
    fn levenshtein_similarity_range() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("abc", "abc"), 1.0);
        assert_eq!(levenshtein_similarity("abc", "xyz"), 0.0);
        let s = levenshtein_similarity("Organism", "Organisms");
        assert!(s > 0.85 && s < 1.0);
    }

    #[test]
    fn trigram_dice_detects_shared_substrings() {
        assert_eq!(trigram_dice("abc", "abc"), 1.0);
        assert!(trigram_dice("OrganismName", "Organism") > 0.5);
        assert!(trigram_dice("abc", "xyz") < 0.01);
    }

    #[test]
    fn tokenize_camel_and_snake() {
        assert_eq!(tokenize("SystematicName"), vec!["systematic", "name"]);
        assert_eq!(tokenize("seq_length"), vec!["seq", "length"]);
        assert_eq!(
            tokenize("EMBL-Organism name"),
            vec!["embl", "organism", "name"]
        );
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("ABC"), vec!["abc"]);
    }

    #[test]
    fn token_overlap_matches_reordered_names() {
        assert_eq!(token_overlap("OrganismName", "name_organism"), 1.0);
        assert!(token_overlap("OrganismName", "Organism") > 0.4);
        assert_eq!(token_overlap("abc", "xyz"), 0.0);
    }

    #[test]
    fn lexical_similarity_takes_best_signal() {
        // Token reorder: Levenshtein poor, token overlap perfect.
        assert_eq!(lexical_similarity("OrganismName", "name_organism"), 1.0);
        // Close spelling: Levenshtein strong.
        assert!(lexical_similarity("Organism", "Organisme") > 0.85);
    }

    fn profile_pair() -> (SchemaProfile, SchemaProfile) {
        let mut a = SchemaProfile::new("EMBL");
        let mut b = SchemaProfile::new("EMP");
        for (acc, org) in [
            ("P100", "Aspergillus niger"),
            ("P101", "Aspergillus nidulans"),
            ("P102", "Penicillium notatum"),
        ] {
            a.observe("Organism", acc, org);
            b.observe("SystematicName", acc, org);
            a.observe("SeqLength", acc, format!("{}", acc.len() * 100));
            b.observe("Length", acc, format!("{}", acc.len() * 100));
            // A decoy attribute with unrelated values.
            b.observe("Curator", acc, format!("curator-{acc}"));
        }
        (a, b)
    }

    #[test]
    fn shared_instances_found() {
        let (a, b) = profile_pair();
        assert_eq!(a.shared_instances(&b).len(), 3);
    }

    #[test]
    fn instance_similarity_separates_real_from_decoy() {
        let (a, b) = profile_pair();
        let shared = a.shared_instances(&b);
        let org_a = &a.attributes["Organism"];
        let sys_b = &b.attributes["SystematicName"];
        let cur_b = &b.attributes["Curator"];
        let good = instance_similarity(org_a, sys_b, &shared, 2).expect("supported");
        let bad = instance_similarity(org_a, cur_b, &shared, 2).expect("supported");
        assert_eq!(good, 1.0);
        assert_eq!(bad, 0.0);
    }

    #[test]
    fn instance_similarity_requires_support() {
        let (a, b) = profile_pair();
        let shared = a.shared_instances(&b);
        let org_a = &a.attributes["Organism"];
        let sys_b = &b.attributes["SystematicName"];
        assert!(instance_similarity(org_a, sys_b, &shared, 10).is_none());
    }

    #[test]
    fn combined_matcher_finds_both_correspondences() {
        let (a, b) = profile_pair();
        let found = match_profiles(&a, &b, &MatcherConfig::default());
        let pairs: BTreeSet<(String, String)> = found
            .iter()
            .map(|s| {
                (
                    s.correspondence.source_attr.clone(),
                    s.correspondence.target_attr.clone(),
                )
            })
            .collect();
        assert!(
            pairs.contains(&("Organism".into(), "SystematicName".into())),
            "{pairs:?}"
        );
        assert!(
            pairs.contains(&("SeqLength".into(), "Length".into())),
            "{pairs:?}"
        );
        // The decoy must not be chosen for Organism.
        assert!(!pairs.contains(&("Organism".into(), "Curator".into())));
    }

    #[test]
    fn matcher_needs_shared_instances() {
        let mut a = SchemaProfile::new("A");
        let mut b = SchemaProfile::new("B");
        a.observe("Organism", "X1", "v");
        b.observe("Organism", "Y1", "v");
        assert!(match_profiles(&a, &b, &MatcherConfig::default()).is_empty());
    }

    #[test]
    fn instance_only_matcher_ignores_names() {
        let mut a = SchemaProfile::new("A");
        let mut b = SchemaProfile::new("B");
        for acc in ["I1", "I2", "I3"] {
            a.observe("CompletelyDifferent", acc, format!("val-{acc}"));
            b.observe("UnrelatedName", acc, format!("val-{acc}"));
        }
        let found = match_profiles(&a, &b, &MatcherConfig::instance_only());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].instance, Some(1.0));
        // Lexical-only finds nothing here.
        assert!(match_profiles(&a, &b, &MatcherConfig::lexical_only()).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Levenshtein is a metric: symmetry + identity + triangle.
        #[test]
        fn levenshtein_metric(a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
            prop_assert_eq!(levenshtein(&a, &a), 0);
            prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        }

        /// All similarity measures stay within [0, 1].
        #[test]
        fn similarities_bounded(a in "[A-Za-z_]{0,14}", b in "[A-Za-z_]{0,14}") {
            for s in [levenshtein_similarity(&a, &b), trigram_dice(&a, &b),
                      token_overlap(&a, &b), lexical_similarity(&a, &b)] {
                prop_assert!((0.0..=1.0).contains(&s), "{s}");
            }
        }

        /// Identical names always score 1.0 on the combined signal.
        #[test]
        fn identical_names_score_one(a in "[A-Za-z][A-Za-z_]{0,10}") {
            prop_assert!((lexical_similarity(&a, &a) - 1.0).abs() < 1e-12);
        }
    }
}

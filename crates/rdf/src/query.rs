//! Queries: single-pattern `SearchFor` and conjunctive queries.
//!
//! "The simplest queries supported by GridVine retrieve information based
//! on a single triple pattern: SearchFor(x? : (s, p, o)) where x?, the
//! distinguished variable the query has to return, also appears in the
//! triple pattern" (§2.3). "Conjunctive queries can be resolved in a
//! similar manner, by iteratively resolving each triple pattern contained
//! in the query and aggregating the sets of results retrieved."

use crate::fasthash::FxHashSet;
use crate::join::{HashJoiner, VarTable};
use crate::store::TripleStore;
use crate::term::Term;
use crate::triple::{Binding, PatternTerm, TriplePattern};
use serde::{Deserialize, Serialize};
use std::fmt;

/// `SearchFor(x? : (s, p, o))` — one pattern, one distinguished variable.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TriplePatternQuery {
    /// The distinguished variable (without the `?`).
    pub distinguished: String,
    pub pattern: TriplePattern,
}

/// Errors raised when constructing or evaluating queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The distinguished variable does not occur in the pattern(s).
    UnboundDistinguished { var: String },
    /// A conjunctive query without patterns.
    EmptyQuery,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnboundDistinguished { var } => {
                write!(
                    f,
                    "distinguished variable ?{var} does not appear in the query"
                )
            }
            QueryError::EmptyQuery => write!(f, "conjunctive query has no patterns"),
        }
    }
}

impl std::error::Error for QueryError {}

impl TriplePatternQuery {
    /// Build the query, validating that `distinguished` occurs in the
    /// pattern (as the paper requires).
    pub fn new(
        distinguished: impl Into<String>,
        pattern: TriplePattern,
    ) -> Result<TriplePatternQuery, QueryError> {
        let distinguished = distinguished.into();
        if !pattern.variables().contains(&distinguished.as_str()) {
            return Err(QueryError::UnboundDistinguished { var: distinguished });
        }
        Ok(TriplePatternQuery {
            distinguished,
            pattern,
        })
    }

    /// The paper's running example:
    /// `SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))`.
    pub fn example_aspergillus() -> TriplePatternQuery {
        TriplePatternQuery::new(
            "x",
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri("EMBL#Organism")),
                PatternTerm::constant(Term::literal("%Aspergillus%")),
            ),
        )
        .expect("x occurs in the pattern")
    }

    /// Evaluate against a local database: the destination-side relational
    /// query of §2.3.
    pub fn evaluate(&self, db: &TripleStore) -> Vec<Term> {
        db.resolve(&self.pattern, &self.distinguished)
    }
}

impl fmt::Display for TriplePatternQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SearchFor(?{} : {})", self.distinguished, self.pattern)
    }
}

impl fmt::Debug for TriplePatternQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A conjunction of triple patterns sharing variables.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConjunctiveQuery {
    pub distinguished: Vec<String>,
    pub patterns: Vec<TriplePattern>,
}

impl ConjunctiveQuery {
    pub fn new(
        distinguished: Vec<String>,
        patterns: Vec<TriplePattern>,
    ) -> Result<ConjunctiveQuery, QueryError> {
        if patterns.is_empty() {
            return Err(QueryError::EmptyQuery);
        }
        let all_vars: Vec<&str> = patterns.iter().flat_map(|p| p.variables()).collect();
        for d in &distinguished {
            if !all_vars.contains(&d.as_str()) {
                return Err(QueryError::UnboundDistinguished { var: d.clone() });
            }
        }
        Ok(ConjunctiveQuery {
            distinguished,
            patterns,
        })
    }

    /// Evaluate against one local database: iterative pattern resolution
    /// over the id-level indexes, hash joins on the shared variables
    /// ([`crate::join`]), then projection onto the distinguished
    /// variables. Each pattern's matches are *streamed* off the store's
    /// granule-batched pattern pipeline through one reused scratch row
    /// ([`TripleStore::for_each_match_row`]) straight into a
    /// [`HashJoiner`] built over the accumulated solutions, so a match
    /// set is never materialized as a whole — and no code row is ever
    /// allocated for a match that joins with nothing; terms are
    /// materialized only for the surviving rows.
    pub fn evaluate(&self, db: &TripleStore) -> Vec<Binding> {
        let vars = VarTable::from_patterns(&self.patterns);
        let mut rows: Vec<Vec<u64>> = vec![vars.empty_row()];
        for pattern in &self.patterns {
            let probe_bound: Vec<usize> = pattern
                .variables()
                .iter()
                .filter_map(|v| vars.slot(v))
                .collect();
            let joiner = HashJoiner::new(&rows, &probe_bound);
            let mut next = Vec::new();
            db.for_each_match_row(pattern, &vars, |m| {
                joiner.probe(m, &mut next);
            });
            rows = next;
            if rows.is_empty() {
                break;
            }
        }
        // π onto the distinguished variables, dedup on codes, then
        // materialize and sort for a stable, readable output order.
        // `slots` and `proj` are built from the same filtered name set,
        // so a distinguished variable that occurs in no pattern (only
        // reachable by constructing the struct directly), or is named
        // twice, is skipped — like the session's projection — rather
        // than misaligning names.
        let mut slots: Vec<usize> = Vec::with_capacity(self.distinguished.len());
        let mut proj = VarTable::new();
        for d in &self.distinguished {
            if let (Some(s), None) = (vars.slot(d), proj.slot(d)) {
                slots.push(s);
                proj.slot_of(d);
            }
        }
        let mut seen: FxHashSet<Vec<u64>> =
            FxHashSet::with_capacity_and_hasher(rows.len(), Default::default());
        let mut out: Vec<Binding> = Vec::new();
        for row in &rows {
            let projected: Vec<u64> = slots.iter().map(|&s| row[s]).collect();
            if seen.insert(projected.clone()) {
                out.push(db.dict().decode_row(&projected, &proj));
            }
        }
        out.sort_by_key(|b| format!("{b}"));
        out
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SearchFor(")?;
        for (i, d) in self.distinguished.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "?{d}")?;
        }
        write!(f, " : ")?;
        for (i, p) in self.patterns.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::Triple;

    fn db() -> TripleStore {
        let mut db = TripleStore::new();
        for (s, p, o) in [
            ("embl:A78712", "EMBL#Organism", "Aspergillus niger"),
            ("embl:A78767", "EMBL#Organism", "Aspergillus nidulans"),
            ("embl:B00001", "EMBL#Organism", "Penicillium notatum"),
            ("embl:A78712", "EMBL#SequenceLength", "1042"),
            ("embl:A78767", "EMBL#SequenceLength", "2210"),
        ] {
            db.insert(Triple::new(s, p, Term::literal(o)));
        }
        db
    }

    #[test]
    fn single_pattern_query_runs() {
        let q = TriplePatternQuery::example_aspergillus();
        let results = q.evaluate(&db());
        assert_eq!(results.len(), 2);
        assert!(results.contains(&Term::uri("embl:A78712")));
        assert!(results.contains(&Term::uri("embl:A78767")));
    }

    #[test]
    fn distinguished_must_occur() {
        let err = TriplePatternQuery::new(
            "nope",
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::var("p"),
                PatternTerm::var("o"),
            ),
        )
        .unwrap_err();
        assert!(matches!(err, QueryError::UnboundDistinguished { .. }));
    }

    #[test]
    fn conjunctive_query_joins_on_shared_variable() {
        let q = ConjunctiveQuery::new(
            vec!["x".into(), "len".into()],
            vec![
                TriplePattern::new(
                    PatternTerm::var("x"),
                    PatternTerm::constant(Term::uri("EMBL#Organism")),
                    PatternTerm::constant(Term::literal("%Aspergillus%")),
                ),
                TriplePattern::new(
                    PatternTerm::var("x"),
                    PatternTerm::constant(Term::uri("EMBL#SequenceLength")),
                    PatternTerm::var("len"),
                ),
            ],
        )
        .expect("valid query");
        let results = q.evaluate(&db());
        assert_eq!(results.len(), 2);
        for b in &results {
            assert!(b.get("x").is_some());
            assert!(b.get("len").is_some());
            assert!(b.get("o").is_none(), "projection must drop extras");
        }
    }

    /// A selective head fanning out to two more attributes per subject:
    /// the streamed hash-join fold agrees with the nested loop over
    /// `Binding::join`, pattern by pattern.
    #[test]
    fn three_pattern_join_matches_the_nested_loop() {
        const SELECTIVE: usize = 16;
        let mut db = TripleStore::new();
        for i in 0..1000 {
            let genus = if i < SELECTIVE { "Aspergillus" } else { "E." };
            let facts = [
                ("EMBL#Organism", Term::literal(format!("{genus} sp. {i}"))),
                ("EMBL#Length", Term::literal((400 + i % 90).to_string())),
                ("EMBL#Laboratory", Term::uri(format!("lab:L{:02}", i % 25))),
            ];
            for (predicate, object) in facts {
                db.insert(Triple::new(format!("embl:E{i:04}"), predicate, object));
            }
        }
        let q = crate::parser::parse_query(
            "SELECT ?x, ?len, ?lab WHERE (?x, <EMBL#Organism>, \"%Aspergillus%\"), \
             (?x, <EMBL#Length>, ?len), (?x, <EMBL#Laboratory>, ?lab)",
        )
        .expect("valid query");
        let mut nested = vec![Binding::new()];
        for pattern in &q.patterns {
            let matches = db.match_pattern(pattern);
            nested = nested
                .iter()
                .flat_map(|acc| matches.iter().filter_map(|m| acc.join(m)))
                .collect();
        }
        nested.sort_by_key(|b| b.to_string());
        assert_eq!(q.evaluate(&db), nested);
        assert_eq!(nested.len(), SELECTIVE);
    }

    #[test]
    fn conjunctive_empty_on_unsatisfiable() {
        let q = ConjunctiveQuery::new(
            vec!["x".into()],
            vec![
                TriplePattern::new(
                    PatternTerm::var("x"),
                    PatternTerm::constant(Term::uri("EMBL#Organism")),
                    PatternTerm::constant(Term::literal("Penicillium notatum")),
                ),
                TriplePattern::new(
                    PatternTerm::var("x"),
                    PatternTerm::constant(Term::uri("EMBL#SequenceLength")),
                    PatternTerm::var("len"),
                ),
            ],
        )
        .expect("valid");
        // B00001 has no SequenceLength.
        assert!(q.evaluate(&db()).is_empty());
    }

    #[test]
    fn unbound_distinguished_is_skipped_not_misaligned() {
        // The constructor rejects this shape, but the fields are public;
        // a ghost variable must be dropped (seed projection semantics),
        // never bound to another variable's value.
        let q = ConjunctiveQuery {
            distinguished: vec!["ghost".into(), "x".into()],
            patterns: vec![TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri("EMBL#Organism")),
                PatternTerm::constant(Term::literal("%Aspergillus%")),
            )],
        };
        let results = q.evaluate(&db());
        assert_eq!(results.len(), 2);
        for b in &results {
            assert!(b.get("x").is_some());
            assert!(b.get("ghost").is_none(), "ghost must not capture ?x");
        }
    }

    #[test]
    fn empty_conjunction_rejected() {
        assert_eq!(
            ConjunctiveQuery::new(vec![], vec![]).unwrap_err(),
            QueryError::EmptyQuery
        );
    }

    #[test]
    fn display_matches_paper_notation() {
        let q = TriplePatternQuery::example_aspergillus();
        assert_eq!(
            q.to_string(),
            "SearchFor(?x : (?x, <EMBL#Organism>, \"%Aspergillus%\"))"
        );
    }
}

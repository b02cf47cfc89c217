//! # gridvine-rdf
//!
//! The data model of GridVine's semantic mediation layer (§2.2–2.3 of
//! the paper): RDF-style triples, the per-peer local triple database
//! `DB_p` with the three relational operators (selection σ, projection
//! π, self-join ⋈), triple patterns and conjunctive queries, and an
//! RDQL-subset parser.
//!
//! This crate is deliberately free of any networking or overlay
//! dependency: it is the "what" of GridVine's data, while
//! `gridvine-pgrid` is the "where" and `gridvine-core` the "how".
//!
//! ## Architecture: interned terms, one index, one scan, one join
//!
//! The storage and query layer is organized around a term dictionary
//! ([`dict`]): every distinct lexical value entering a [`TripleStore`]
//! is interned to a dense [`TermId`], and a stored triple is a row id
//! into three id columns (plus the object's uri/literal kind). On top
//! of that ([`store`]):
//!
//! * **one index** — per position, posting lists directly indexed by
//!   the dense id: a flat CSR head (offsets + data) over the rows up to
//!   the last rebuild and a sparse tail — only the terms that have such
//!   rows — for the rows since, sealed into the head once it holds a
//!   quarter as many rows. The columns are the one copy of a row:
//!   whether a row is live is read off its shortest posting list.
//!   Probing a value the store has never seen is one dictionary hash,
//!   no allocation. Each position additionally keeps a lazily built
//!   sorted key index (`BTreeMap<Arc<str>, TermId>`, sharing the
//!   dictionary's buffers), so `abc%` LIKE constants run as range
//!   scans;
//! * **one scan (σ, π)** — a pattern is compiled once (constants to
//!   codes, the shortest of their posting lists picked, `LIKE`s parsed)
//!   and bound per seed, the instance a bound join asks for — or, when
//!   that posting list is shorter than what the seeds would walk,
//!   scanned once and its rows matched to the seeds by code; an
//!   instance is answered by picking an access path (the shortest
//!   posting list among its exact codes, else a prefix range, else
//!   every row) and sweeping the residual predicate over 256-row
//!   granules of row ids. [`TripleStore::match_seeds_into`] (a
//!   [`SeedColumn`]'s instances) and [`TripleStore::match_into`] (no
//!   seed) append the codes a store ships to a [`CodedRows`] table;
//!   [`TripleStore::match_pattern`] (its rows decoded) and
//!   [`TripleStore::resolve`] are its other output formats;
//! * **one table** — every set of rows between a scan and the result
//!   boundary is a [`CodedRows`] ([`batch`]): a shared header of
//!   variable names and flat row-major term codes — shipped rows, join
//!   rows, seed columns and answers alike;
//! * **one join (⋈)** — conjunctive evaluation runs in the hash-join
//!   binding engine ([`join`]): join rows are tables over the query's
//!   variable slots ([`join::VarTable`]), merged by hashing the shared
//!   variables ([`join::hash_join_rows`]). The distributed engine in
//!   `gridvine-core` reuses the same kernel on the codes remote peers
//!   ship: every peer store is loaded through one lexicon
//!   ([`TermDict::canonical_triple`]) and ships codes over the
//!   lexicon's ids, so the origin places them into join rows
//!   ([`join::batch_rows`]) as they arrive;
//! * **result boundary** — a [`Binding`] (one string-keyed map per
//!   row) is built only for rows that survive selection, join,
//!   projection and dedup, its terms read through the dictionary the
//!   codes belong to; in between, rows are tables of codes.
//!
//! ```
//! use gridvine_rdf::prelude::*;
//!
//! let mut db = TripleStore::new();
//! db.insert(Triple::new(
//!     "embl:A78712",
//!     "EMBL#Organism",
//!     Term::literal("Aspergillus niger"),
//! ));
//! let q = parse_single(r#"SELECT ?x WHERE (?x, <EMBL#Organism>, "%Aspergillus%")"#).unwrap();
//! assert_eq!(q.evaluate(&db), vec![Term::uri("embl:A78712")]);
//! ```

pub mod batch;
pub mod dict;
pub mod fasthash;
pub mod join;
pub mod parser;
pub mod query;
pub mod store;
pub mod term;
pub mod triple;

/// Glob-import surface.
pub mod prelude {
    pub use crate::batch::{CodedRows, RowOrder, SeedColumn};
    pub use crate::dict::{TermDict, TermId};
    pub use crate::parser::{parse_query, parse_single, ParseError};
    pub use crate::query::{ConjunctiveQuery, QueryError, TriplePatternQuery};
    pub use crate::store::{RowCursor, TripleRef, TripleStore};
    pub use crate::term::{like_match, LikePattern, Term, Uri};
    pub use crate::triple::{Binding, PatternTerm, Position, Triple, TriplePattern};
}

pub use batch::{CodedRows, RowOrder, SeedColumn};
pub use dict::{Insertable, TaggedTriple, TermDict, TermId};
pub use parser::{parse_query, parse_single, ParseError};
pub use query::{ConjunctiveQuery, QueryError, TriplePatternQuery};
pub use store::{RowCursor, TripleRef, TripleStore};
pub use term::{like_match, LikePattern, Term, Uri};
pub use triple::{Binding, PatternTerm, Position, Triple, TriplePattern};

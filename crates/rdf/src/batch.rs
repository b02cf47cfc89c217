//! Columnar binding batches: the row currency between a destination
//! scan and the result boundary.
//!
//! A [`Binding`] is a `BTreeMap<String, Term>` — one map node and one
//! `String` per variable *per row*. Every match of one pattern binds
//! the same variables, so a [`BindingBatch`] states them once, in its
//! header, and keeps the rows as one flat row-major `Vec<u64>` of term
//! **codes** (`lexicon id << 1 | literal`, see [`crate::dict`]): `width`
//! codes per row, in header order. The row count is explicit, because
//! an all-constant pattern has a zero-width header and its matches
//! still count.
//!
//! [`TripleStore::match_into`](crate::TripleStore::match_into) and
//! [`TripleStore::match_seeds_into`](crate::TripleStore::match_seeds_into)
//! append to a batch, so every destination a query visits for the same
//! variables (the hops of a reformulation closure only swap the
//! predicate; the seeds of a binding column bind the same variables)
//! fills one batch. A cell is a code over the store's lexicon ids, so
//! the stores loaded through one lexicon ship equal codes for equal
//! terms, and shipping a cell touches no string and no reference count.
//! [`batch_rows`](crate::join::batch_rows) places a batch's codes into
//! join rows — all of it, or only the rows whose join keys are in a
//! set, so an independent join keeps each pattern's batch as shipped
//! until it knows which rows can join — and [`BindingBatch::bindings`]
//! decodes rows into [`Binding`]s through the dictionary whose ids the
//! codes are (the lexicon, or a store fed plain triples itself).
//!
//! A [`SeedColumn`] is the other way round: the binding column a bound
//! join's request carries to a destination — the bound variables once,
//! each seed's values as codes, and with each code the dictionary tag
//! of its lexical, computed once when the column is built. A
//! destination either matches the rows of one scan to the seeds by
//! code, or binds each seed by probing its dictionary with that tag and
//! the lexicon's buffer; either way no seed value is hashed or compared
//! byte by byte per hop.

use crate::dict::{tag_lexical, TermDict, TermId};
use crate::join::VarTable;
use crate::triple::{Binding, TriplePattern};

/// The matches of one pattern shape: variable names once, codes
/// row-major (see the module docs).
#[derive(Debug, Clone)]
pub struct BindingBatch {
    /// The header: distinct variable names, in slot order of first
    /// appearance — a variable's slot is its column.
    pub(crate) vars: VarTable,
    /// `rows * vars.len()` codes, row after row.
    pub(crate) codes: Vec<u64>,
    pub(crate) rows: usize,
}

impl BindingBatch {
    /// An empty batch whose header is `pattern`'s distinct variables
    /// (a repeated variable gets one column).
    pub fn for_pattern(pattern: &TriplePattern) -> BindingBatch {
        BindingBatch {
            vars: VarTable::from_patterns([pattern]),
            codes: Vec::new(),
            rows: 0,
        }
    }

    /// An empty batch for the instances `seeds` makes of `pattern`: its
    /// header is the pattern's variables the seeds leave unbound, in
    /// the pattern's order.
    pub fn for_instances(pattern: &TriplePattern, seeds: &SeedColumn) -> BindingBatch {
        let mut vars = VarTable::new();
        for v in pattern.variables() {
            if seeds.vars.slot(v).is_none() {
                vars.slot_of(v);
            }
        }
        BindingBatch {
            vars,
            codes: Vec::new(),
            rows: 0,
        }
    }

    /// The header: one name per column.
    pub fn vars(&self) -> &[String] {
        self.vars.names()
    }

    /// Column of a variable, if the header names it.
    pub fn column(&self, var: &str) -> Option<usize> {
        self.vars.slot(var)
    }

    /// Number of rows (matches), independent of the header width.
    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The rows in append order, each `vars().len()` codes wide.
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> {
        let width = self.vars.len();
        (0..self.rows).map(move |i| &self.codes[i * width..(i + 1) * width])
    }

    /// Drop the rows, keeping the header and the allocation.
    pub fn clear(&mut self) {
        self.codes.clear();
        self.rows = 0;
    }

    /// Every row as a [`Binding`], in append order, its codes decoded
    /// through `dict` — the dictionary whose ids they are.
    pub fn bindings(&self, dict: &TermDict) -> Vec<Binding> {
        self.rows()
            .map(|row| {
                let mut b = Binding::new();
                for (name, &code) in self.vars.names().iter().zip(row) {
                    b.bind(name.clone(), dict.term_of_code(code));
                }
                b
            })
            .collect()
    }
}

/// The binding column of a bound join's pattern: the variables its
/// seeds bind, once, and per seed one code per variable, each with its
/// lexical's dictionary tag (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct SeedColumn {
    vars: VarTable,
    /// `rows * vars.len()` codes, seed after seed.
    codes: Vec<u64>,
    /// The dictionary tag of each code's lexical, beside `codes`.
    tags: Vec<u32>,
    rows: usize,
}

impl SeedColumn {
    /// An empty column binding `vars`.
    pub fn new<'v>(vars: impl IntoIterator<Item = &'v str>) -> SeedColumn {
        let mut table = VarTable::new();
        for v in vars {
            table.slot_of(v);
        }
        SeedColumn {
            vars: table,
            ..SeedColumn::default()
        }
    }

    /// Append a seed: one code of `lexicon`'s ids per variable, in
    /// header order. Each value's tag is computed here, once.
    pub fn push(&mut self, codes: &[u64], lexicon: &TermDict) {
        assert_eq!(codes.len(), self.vars.len(), "one code per variable");
        for &code in codes {
            self.codes.push(code);
            let lexical = lexicon.resolve(TermId((code >> 1) as u32));
            self.tags.push(tag_lexical(lexical));
        }
        self.rows += 1;
    }

    /// Column of a variable, if the seeds bind it.
    pub fn column(&self, var: &str) -> Option<usize> {
        self.vars.slot(var)
    }

    /// Number of seeds.
    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Values carried in all: seeds times variables.
    pub fn values(&self) -> usize {
        self.codes.len()
    }

    /// Seed `i`'s codes and their tags.
    pub(crate) fn seed(&self, i: usize) -> (&[u64], &[u32]) {
        let width = self.vars.len();
        let cells = i * width..(i + 1) * width;
        (&self.codes[cells.clone()], &self.tags[cells])
    }

    /// A column of seed `i` alone.
    pub fn one(&self, i: usize) -> SeedColumn {
        let (codes, tags) = self.seed(i);
        SeedColumn {
            vars: self.vars.clone(),
            codes: codes.to_vec(),
            tags: tags.to_vec(),
            rows: 1,
        }
    }

    /// Seed `i` as a [`Binding`], its codes decoded through `lexicon`.
    pub fn binding(&self, i: usize, lexicon: &TermDict) -> Binding {
        let mut b = Binding::new();
        for (name, &code) in self.vars.names().iter().zip(self.seed(i).0) {
            b.bind(name.clone(), lexicon.term_of_code(code));
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;
    use crate::triple::PatternTerm;

    #[test]
    fn header_dedups_repeated_variables_in_slot_order() {
        let p = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::var("p"),
            PatternTerm::var("x"),
        );
        let b = BindingBatch::for_pattern(&p);
        assert_eq!(b.vars(), ["x".to_string(), "p".to_string()]);
        assert_eq!(b.column("p"), Some(1));
        assert_eq!(b.column("nope"), None);
        assert!(b.is_empty());
        // The instances of a column binding x leave p alone.
        let seeded = BindingBatch::for_instances(&p, &SeedColumn::new(["x"]));
        assert_eq!(seeded.vars(), ["p".to_string()]);
    }

    #[test]
    fn zero_width_batches_still_count_rows() {
        let ground = TriplePattern::new(
            PatternTerm::constant(Term::uri("s")),
            PatternTerm::constant(Term::uri("p")),
            PatternTerm::constant(Term::uri("o")),
        );
        let mut b = BindingBatch::for_pattern(&ground);
        b.rows = 2;
        assert_eq!(b.bindings(&TermDict::new()), vec![Binding::new(); 2]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.rows().count(), 2);
        assert!(b.rows().all(|r| r.is_empty()));
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn a_seed_column_carries_codes_and_decodes_through_its_lexicon() {
        let mut lexicon = TermDict::new();
        let t = lexicon
            .canonical_triple(&crate::Triple::new("a", "p", Term::literal("a")))
            .triple()
            .clone();
        let uri = lexicon.code_of(&Term::Uri(t.subject)).unwrap();
        let literal = lexicon.code_of(&t.object).unwrap();
        assert_eq!(uri >> 1, literal >> 1, "one lexical, one id");
        let mut seeds = SeedColumn::new(["x", "y"]);
        seeds.push(&[uri, literal], &lexicon);
        seeds.push(&[literal, uri], &lexicon);
        assert_eq!((seeds.len(), seeds.values()), (2, 4));
        let (codes, tags) = seeds.seed(1);
        assert_eq!(codes, [literal, uri]);
        assert_eq!(tags[0], tags[1], "one lexical, one tag");
        let b = seeds.one(1).binding(0, &lexicon);
        assert_eq!(b.get("x"), Some(&Term::literal("a")));
        assert_eq!(b.get("y"), Some(&Term::uri("a")));
    }
}

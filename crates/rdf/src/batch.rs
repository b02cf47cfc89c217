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
//! [`CodedRows`] is the answer side: the distinct rows a query admitted,
//! as codes over the projected variables, behind a header shared by
//! reference count, so a batch of them is built, moved and dropped
//! without a [`Binding`] or a `String`. A caller that reads a batch
//! decodes it through the lexicon ([`CodedRows::bindings`]);
//! [`CodedRows::sorted_bindings`] puts the rows in a query's canonical
//! order and decodes each row once.
//!
//! A [`SeedColumn`] is the other way round: the binding column a bound
//! join's request carries to a destination — the bound variables once,
//! each seed's values as codes. A destination either matches the rows
//! of one scan to the seeds by code, or binds each seed by probing its
//! dictionary with the dictionary tag of each value's lexical and the
//! lexicon's buffer; the tags are computed the first time a destination
//! probes, once per column, so a column every destination sweeps is
//! never tagged, and no seed value is hashed or compared byte by byte
//! per hop.

use crate::dict::{tag_lexical, TermDict, TermId};
use crate::join::{VarTable, UNBOUND};
use crate::triple::{Binding, TriplePattern};
use std::cell::OnceCell;
use std::sync::Arc;

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

/// A query's answer rows as codes over its projected variables: the
/// header once, shared by reference count, and the rows row-major (see
/// the module docs). The codes are over the lexicon's ids, so only the
/// lexicon decodes them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CodedRows {
    vars: Arc<VarTable>,
    /// `rows * vars.len()` codes, row after row.
    codes: Vec<u64>,
    rows: usize,
}

/// The canonical order [`CodedRows::sorted_bindings`] puts rows in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOrder {
    /// By the term in one column, as [`Term`](crate::Term) orders them:
    /// an unbound slot first, then URIs before literals, then by the
    /// lexical's bytes.
    ByTerm(usize),
    /// By the row's display form, as [`Binding::cmp_display`] orders
    /// them.
    ByDisplay,
}

impl CodedRows {
    /// No rows yet, over `vars`.
    pub fn new(vars: VarTable) -> CodedRows {
        CodedRows {
            vars: Arc::new(vars),
            ..CodedRows::default()
        }
    }

    /// No rows, over this batch's header: a reference count, no copy.
    pub fn empty_like(&self) -> CodedRows {
        CodedRows {
            vars: Arc::clone(&self.vars),
            ..CodedRows::default()
        }
    }

    /// Append a row: one code per header variable, [`UNBOUND`] for none.
    pub fn push(&mut self, row: &[u64]) {
        // A row of another width would shift every row after it.
        assert_eq!(row.len(), self.vars.len(), "one code per variable");
        self.codes.extend_from_slice(row);
        self.rows += 1;
    }

    /// Number of rows, independent of the header width.
    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `i`'s codes.
    fn row(&self, i: usize) -> &[u64] {
        let width = self.vars.len();
        &self.codes[i * width..(i + 1) * width]
    }

    /// Every row as a [`Binding`], in append order, decoded through
    /// `lexicon` (an unbound slot binds nothing).
    pub fn bindings(&self, lexicon: &TermDict) -> Vec<Binding> {
        (0..self.rows)
            .map(|i| lexicon.decode_row(self.row(i), &self.vars))
            .collect()
    }

    /// Every row as a [`Binding`] in `order`, decoded through `lexicon`
    /// once per row. Rows equal in the order keep their append order.
    /// [`RowOrder::ByTerm`] sorts the codes before decoding them;
    /// [`RowOrder::ByDisplay`] sorts the decoded rows by
    /// [`Binding::cmp_display`].
    pub fn sorted_bindings(&self, lexicon: &TermDict, order: RowOrder) -> Vec<Binding> {
        let col = match order {
            RowOrder::ByTerm(col) => col,
            RowOrder::ByDisplay => {
                let mut rows = self.bindings(lexicon);
                rows.sort_by(Binding::cmp_display);
                return rows;
            }
        };
        let mut at: Vec<usize> = (0..self.rows).collect();
        // Each row's term is read once, not once per comparison.
        at.sort_by_cached_key(|&i| {
            let code = self.row(i)[col];
            (code != UNBOUND).then(|| (code & 1, lexicon.resolve(TermId((code >> 1) as u32))))
        });
        at.into_iter()
            .map(|i| lexicon.decode_row(self.row(i), &self.vars))
            .collect()
    }
}

/// The binding column of a bound join's pattern: the variables its
/// seeds bind, once, and per seed one code per variable; each value's
/// dictionary tag is computed on the first probe (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct SeedColumn {
    vars: VarTable,
    /// `rows * vars.len()` codes, seed after seed.
    codes: Vec<u64>,
    /// The dictionary tag of each code's lexical, beside `codes`, once
    /// a destination has probed with them.
    tags: OnceCell<Vec<u32>>,
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

    /// Append a seed: one code of the lexicon's ids per variable, in
    /// header order.
    pub fn push(&mut self, codes: &[u64]) {
        assert_eq!(codes.len(), self.vars.len(), "one code per variable");
        self.codes.extend_from_slice(codes);
        // A tag computed before this seed would not cover it.
        self.tags.take();
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

    /// Seed `i`'s codes.
    pub(crate) fn seed(&self, i: usize) -> &[u64] {
        let width = self.vars.len();
        &self.codes[i * width..(i + 1) * width]
    }

    /// Seed `i`'s tags: the dictionary tag of each value's lexical in
    /// `lexicon`, the dictionary whose ids the codes are. The first call
    /// tags every seed of the column; later calls read what it kept.
    pub(crate) fn tags(&self, i: usize, lexicon: &TermDict) -> &[u32] {
        let tags = self.tags.get_or_init(|| {
            let lexical = |&code: &u64| lexicon.resolve(TermId((code >> 1) as u32));
            self.codes.iter().map(|c| tag_lexical(lexical(c))).collect()
        });
        let width = self.vars.len();
        &tags[i * width..(i + 1) * width]
    }

    /// A column of seed `i` alone.
    pub fn one(&self, i: usize) -> SeedColumn {
        SeedColumn {
            vars: self.vars.clone(),
            codes: self.seed(i).to_vec(),
            tags: OnceCell::new(),
            rows: 1,
        }
    }

    /// Seed `i` as a [`Binding`], its codes decoded through `lexicon`.
    pub fn binding(&self, i: usize, lexicon: &TermDict) -> Binding {
        let mut b = Binding::new();
        for (name, &code) in self.vars.names().iter().zip(self.seed(i)) {
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
        seeds.push(&[uri, literal]);
        seeds.push(&[literal, uri]);
        assert_eq!((seeds.len(), seeds.values()), (2, 4));
        assert_eq!(seeds.seed(1), [literal, uri]);
        assert!(
            seeds.tags.get().is_none(),
            "nothing tags a column but a probe"
        );
        let tags = seeds.tags(1, &lexicon);
        assert_eq!(tags[0], tags[1], "one lexical, one tag");
        assert_eq!(tags[0], tag_lexical("a"));
        let b = seeds.one(1).binding(0, &lexicon);
        assert_eq!(b.get("x"), Some(&Term::literal("a")));
        assert_eq!(b.get("y"), Some(&Term::uri("a")));
    }

    /// Rows over `vars`, each cell a term interned into `lexicon` or
    /// unbound.
    fn coded(lexicon: &mut TermDict, vars: &[&str], rows: &[Vec<Option<Term>>]) -> CodedRows {
        let mut table = VarTable::new();
        for v in vars {
            table.slot_of(v);
        }
        let mut batch = CodedRows::new(table);
        for row in rows {
            let codes: Vec<u64> = row
                .iter()
                .map(|t| {
                    t.as_ref()
                        .map_or(UNBOUND, |t| crate::join::tests::code(lexicon, t))
                })
                .collect();
            batch.push(&codes);
        }
        batch
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The sorted rows are the decoded rows in canonical order:
            /// by the first column's [`Term`] with the codes sorted
            /// before decoding, stably, and by their display strings.
            /// Values sit around the delimiters (`!` below `"`, `<` and
            /// `>`, `}` above them), each drawn beside itself extended
            /// by a closing delimiter and more, so one display form is
            /// often a proper prefix of another's; some rows leave a
            /// slot unbound, and the header is sometimes out of name
            /// order.
            #[test]
            fn sorted_rows_are_the_decoded_rows_in_canonical_order(
                values in proptest::collection::vec("[a!>\"<} ]{0,3}", 1..5),
                rows in proptest::collection::vec(
                    proptest::collection::vec((0usize..15, any::<bool>(), 0u8..10), 2),
                    0..12,
                ),
                reversed in any::<bool>(),
            ) {
                // Each value, then it extended past a `>` and past a `"`.
                let pool: Vec<String> = values
                    .iter()
                    .flat_map(|v| [v.clone(), format!("{v}>!"), format!("{v}\"a")])
                    .collect();
                let rows: Vec<Vec<Option<Term>>> = rows
                    .iter()
                    .map(|row| {
                        row.iter()
                            .map(|&(v, literal, unbound)| {
                                let lexical = pool[v % pool.len()].as_str();
                                let term = if literal { Term::literal(lexical) } else { Term::uri(lexical) };
                                (unbound != 0).then_some(term)
                            })
                            .collect()
                    })
                    .collect();
                let vars = if reversed { ["y", "x"] } else { ["x", "y"] };
                let lexicon = &mut TermDict::new();
                let batch = coded(lexicon, &vars, &rows);

                let sorted = batch.sorted_bindings(lexicon, RowOrder::ByDisplay);
                let strings: Vec<String> = sorted.iter().map(Binding::to_string).collect();
                let mut expected: Vec<String> =
                    batch.bindings(lexicon).iter().map(Binding::to_string).collect();
                expected.sort();
                prop_assert_eq!(strings, expected);

                let mut by_term = batch.bindings(lexicon);
                by_term.sort_by(|a, b| a.get(vars[0]).cmp(&b.get(vars[0])));
                prop_assert_eq!(batch.sorted_bindings(lexicon, RowOrder::ByTerm(0)), by_term);
            }
        }
    }
}

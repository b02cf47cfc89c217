//! The one table of term codes: every row set between a destination
//! scan and the result boundary.
//!
//! A [`Binding`] is a `BTreeMap<String, Term>` — one map node and one
//! `String` per variable *per row*. A set of rows binds the same
//! variables, so a [`CodedRows`] states them once, in a header shared by
//! reference count, and keeps the rows as one flat row-major `Vec<u64>`
//! of term **codes** (`id << 1 | literal`, see [`crate::dict`]), one per
//! header variable, [`UNBOUND`] where a row binds none. The row count is
//! explicit, because an all-constant pattern has a zero-width header and
//! its matches still count. Only this module knows that layout.
//!
//! One table serves every row set:
//!
//! * **shipped rows** — [`TripleStore::match_into`](crate::TripleStore::match_into)
//!   and [`TripleStore::match_seeds_into`](crate::TripleStore::match_seeds_into)
//!   append to a table over a pattern's variables
//!   ([`CodedRows::for_pattern`], [`CodedRows::for_instances`]), so every
//!   destination a query visits for the same variables (the hops of a
//!   reformulation closure only swap the predicate; the seeds of a
//!   binding column bind the same variables) fills one table. A cell is
//!   a code over the store's lexicon ids, so the stores loaded through
//!   one lexicon ship equal codes for equal terms, and shipping a cell
//!   touches no string and no reference count;
//! * **join rows** — a table over a conjunctive query's variables:
//!   [`batch_rows`](crate::join::batch_rows) places a shipped table's
//!   columns into it, all of it or only the rows whose join keys are in
//!   a set, and the hash join ([`crate::join`]) merges two such tables
//!   into a third ([`CodedRows::push_merge`]);
//! * **answers** — the distinct rows a query admitted, over its
//!   projected variables, built, moved and dropped without a
//!   [`Binding`] or a `String`;
//! * **seeds** — a [`SeedColumn`] is a table of the values a bound
//!   join's request carries to a destination, plus their dictionary
//!   tags, computed the first time a destination probes, once per
//!   column, so a column every destination sweeps is never tagged and
//!   no seed value is hashed or compared byte by byte per hop.
//!
//! A table is decoded through the dictionary whose ids its codes are
//! (the lexicon, or a store fed plain triples itself) by
//! [`CodedRows::bindings`], one [`TermDict::decode_row`] per row;
//! [`CodedRows::sorted_bindings`] puts the rows in a query's canonical
//! order first and decodes each row once.

use crate::dict::{tag_lexical, TermDict, TermId};
use crate::join::{VarTable, UNBOUND};
use crate::triple::{Binding, TriplePattern};
use std::cell::OnceCell;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Rows of term codes under one header (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct CodedRows {
    /// The header: distinct variable names, in slot order — a
    /// variable's slot is its column.
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

impl Default for CodedRows {
    /// No rows over no variables. Every such table shares one header,
    /// so an empty binding column — the one a request without seeds
    /// carries — allocates nothing.
    fn default() -> CodedRows {
        static NO_VARS: OnceLock<Arc<VarTable>> = OnceLock::new();
        CodedRows::new(Arc::clone(NO_VARS.get_or_init(Arc::default)))
    }
}

impl CodedRows {
    /// No rows yet, over `vars`.
    pub fn new(vars: impl Into<Arc<VarTable>>) -> CodedRows {
        CodedRows {
            vars: vars.into(),
            codes: Vec::new(),
            rows: 0,
        }
    }

    /// No rows yet, over `pattern`'s distinct variables (a repeated
    /// variable gets one column).
    pub fn for_pattern(pattern: &TriplePattern) -> CodedRows {
        CodedRows::new(VarTable::from_patterns([pattern]))
    }

    /// No rows yet, for the instances `seeds` make of `pattern`: over
    /// the pattern's variables the seeds leave unbound, in the
    /// pattern's order.
    pub fn for_instances(pattern: &TriplePattern, seeds: &SeedColumn) -> CodedRows {
        let mut vars = VarTable::new();
        for v in pattern.variables() {
            if seeds.column(v).is_none() {
                vars.slot_of(v);
            }
        }
        CodedRows::new(vars)
    }

    /// No rows, over this table's header: a reference count, no copy.
    pub fn empty_like(&self) -> CodedRows {
        CodedRows::new(Arc::clone(&self.vars))
    }

    /// The header: one name per column.
    pub fn vars(&self) -> &[String] {
        self.vars.names()
    }

    /// Column of a variable, if the header names it.
    pub fn column(&self, var: &str) -> Option<usize> {
        self.vars.slot(var)
    }

    /// Number of rows, independent of the header width.
    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append a row: one code per header variable, [`UNBOUND`] for none.
    pub fn push(&mut self, row: &[u64]) {
        // A row of another width would shift every row after it.
        assert_eq!(row.len(), self.vars.len(), "one code per variable");
        self.codes.extend_from_slice(row);
        self.rows += 1;
    }

    /// Append the slot-wise merge of two rows over this header: `left`'s
    /// code where it binds one, `right`'s elsewhere. Where both bind a
    /// slot — a join key — they carry the same code.
    pub fn push_merge(&mut self, left: &[u64], right: &[u64]) {
        assert!(
            left.len() == self.vars.len() && right.len() == self.vars.len(),
            "one code per variable"
        );
        let merged = left.iter().zip(right);
        (self.codes).extend(merged.map(|(&l, &r)| if l != UNBOUND { l } else { r }));
        self.rows += 1;
    }

    /// Where row `i`'s codes lie in the row-major layout; a column
    /// beside the codes (a [`SeedColumn`]'s tags) shares it.
    fn span(&self, i: usize) -> Range<usize> {
        let width = self.vars.len();
        i * width..(i + 1) * width
    }

    /// Row `i`'s codes, in header order.
    pub fn row(&self, i: usize) -> &[u64] {
        &self.codes[self.span(i)]
    }

    /// The rows in append order.
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> {
        (0..self.rows).map(|i| self.row(i))
    }

    /// Drop the rows, keeping the header and the allocation.
    pub fn clear(&mut self) {
        self.codes.clear();
        self.rows = 0;
    }

    /// Every row as a [`Binding`], in append order, decoded through
    /// `dict` — the dictionary whose ids the codes are (an unbound slot
    /// binds nothing).
    pub fn bindings(&self, dict: &TermDict) -> Vec<Binding> {
        self.rows()
            .map(|row| dict.decode_row(row, &self.vars))
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

/// The binding column of a bound join's pattern: a table of the values
/// its seeds bind, one row per seed, and each value's dictionary tag,
/// computed on the first probe (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct SeedColumn {
    seeds: CodedRows,
    /// The dictionary tag of each code's lexical, laid out as the codes
    /// are, once a destination has probed with them.
    tags: OnceCell<Vec<u32>>,
}

impl SeedColumn {
    /// An empty column binding `vars`.
    pub fn new<'v>(vars: impl IntoIterator<Item = &'v str>) -> SeedColumn {
        let mut table = VarTable::new();
        for v in vars {
            table.slot_of(v);
        }
        SeedColumn {
            seeds: CodedRows::new(table),
            tags: OnceCell::new(),
        }
    }

    /// Append a seed: one code of the lexicon's ids per variable, in
    /// header order.
    pub fn push(&mut self, codes: &[u64]) {
        self.seeds.push(codes);
        // A tag computed before this seed would not cover it.
        self.tags.take();
    }

    /// Column of a variable, if the seeds bind it.
    pub fn column(&self, var: &str) -> Option<usize> {
        self.seeds.column(var)
    }

    /// Number of seeds.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Values carried in all: seeds times variables.
    pub fn values(&self) -> usize {
        self.seeds.codes.len()
    }

    /// Seed `i`'s codes.
    pub(crate) fn seed(&self, i: usize) -> &[u64] {
        self.seeds.row(i)
    }

    /// Seed `i`'s tags: the dictionary tag of each value's lexical in
    /// `lexicon`, the dictionary whose ids the codes are. The first call
    /// tags every seed of the column; later calls read what it kept.
    pub(crate) fn tags(&self, i: usize, lexicon: &TermDict) -> &[u32] {
        let tags = self.tags.get_or_init(|| {
            let lexical = |&code: &u64| lexicon.resolve(TermId((code >> 1) as u32));
            self.seeds
                .codes
                .iter()
                .map(|c| tag_lexical(lexical(c)))
                .collect()
        });
        &tags[self.seeds.span(i)]
    }

    /// A column of seed `i` alone.
    pub fn one(&self, i: usize) -> SeedColumn {
        let mut seeds = self.seeds.empty_like();
        seeds.push(self.seed(i));
        SeedColumn {
            seeds,
            tags: OnceCell::new(),
        }
    }

    /// Seed `i` as a [`Binding`], its codes decoded through `lexicon`.
    pub fn binding(&self, i: usize, lexicon: &TermDict) -> Binding {
        lexicon.decode_row(self.seed(i), &self.seeds.vars)
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
        let b = CodedRows::for_pattern(&p);
        assert_eq!(b.vars(), ["x".to_string(), "p".to_string()]);
        assert_eq!(b.column("p"), Some(1));
        assert_eq!(b.column("nope"), None);
        assert!(b.is_empty());
        // The instances of a column binding x leave p alone.
        let seeded = CodedRows::for_instances(&p, &SeedColumn::new(["x"]));
        assert_eq!(seeded.vars(), ["p".to_string()]);
    }

    #[test]
    fn zero_width_batches_still_count_rows() {
        let ground = TriplePattern::new(
            PatternTerm::constant(Term::uri("s")),
            PatternTerm::constant(Term::uri("p")),
            PatternTerm::constant(Term::uri("o")),
        );
        let mut b = CodedRows::for_pattern(&ground);
        b.push(&[]);
        b.push(&[]);
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

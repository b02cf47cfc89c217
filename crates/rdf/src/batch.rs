//! Columnar binding batches: the row currency between a destination
//! scan and the result boundary.
//!
//! A [`Binding`] is a `BTreeMap<String, Term>` — one map node and one
//! `String` per variable *per row*. Every match of one pattern binds
//! the same variables, so a [`BindingBatch`] states them once, in its
//! header, and keeps the rows as one flat row-major `Vec<Term>`:
//! `width` terms per row, in header order. The row count is explicit,
//! because an all-constant pattern has a zero-width header and its
//! matches still count.
//!
//! [`TripleStore::match_into`](crate::TripleStore::match_into) and
//! [`TripleStore::match_seeds_into`](crate::TripleStore::match_seeds_into)
//! append to a batch, so every destination a query visits for the same
//! variables (the hops of a reformulation closure only swap the
//! predicate; the seeds of a binding column bind the same variables)
//! fills one batch; [`TermInterner::encode_batch`] turns a batch into
//! join rows with variable → slot resolved once — all of it, or only
//! the rows whose join keys the interner already holds, so an
//! independent join keeps each pattern's batch as shipped until it
//! knows which rows can join; and
//! [`BindingBatch::into_bindings`] is the one place rows become
//! [`Binding`]s — [`TripleStore::match_pattern`](crate::TripleStore::match_pattern)
//! is exactly that over one scan.
//!
//! [`TermInterner::encode_batch`]: crate::join::TermInterner::encode_batch

use crate::join::VarTable;
use crate::term::Term;
use crate::triple::{Binding, TriplePattern};

/// The matches of one pattern shape: variable names once, terms
/// row-major (see the module docs).
#[derive(Debug, Clone)]
pub struct BindingBatch {
    /// The header: distinct variable names, in slot order of first
    /// appearance — a variable's slot is its column.
    pub(crate) vars: VarTable,
    /// `rows * vars.len()` terms, row after row.
    pub(crate) terms: Vec<Term>,
    pub(crate) rows: usize,
}

impl BindingBatch {
    /// An empty batch whose header is `pattern`'s distinct variables
    /// (a repeated variable gets one column).
    pub fn for_pattern(pattern: &TriplePattern) -> BindingBatch {
        BindingBatch {
            vars: VarTable::from_patterns([pattern]),
            terms: Vec::new(),
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

    /// The rows in append order, each `vars().len()` terms wide.
    pub fn rows(&self) -> impl Iterator<Item = &[Term]> {
        let width = self.vars.len();
        (0..self.rows).map(move |i| &self.terms[i * width..(i + 1) * width])
    }

    /// Drop the rows, keeping the header and the allocation.
    pub fn clear(&mut self) {
        self.terms.clear();
        self.rows = 0;
    }

    /// Materialize every row as a [`Binding`], in append order.
    pub fn into_bindings(self) -> Vec<Binding> {
        let mut terms = self.terms.into_iter();
        (0..self.rows)
            .map(|_| {
                let mut b = Binding::new();
                for name in self.vars.names() {
                    let term = terms.next().expect("rows * width terms");
                    b.bind(name.clone(), term);
                }
                b
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(b.clone().into_bindings(), vec![Binding::new(); 2]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.rows().count(), 2);
        assert!(b.rows().all(|r| r.is_empty()));
        b.clear();
        assert!(b.is_empty());
    }
}

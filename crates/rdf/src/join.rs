//! The hash-join binding engine.
//!
//! Conjunctive evaluation — local ([`crate::ConjunctiveQuery::evaluate`],
//! [`crate::TripleStore::join`]) and distributed (`gridvine-core`'s
//! `search_conjunctive`) — used to merge binding sets with a nested loop
//! over [`crate::Binding::join`]: O(n·m) string-keyed map merges per
//! pattern. This module replaces that with a columnar representation and
//! a hash join:
//!
//! * a solution row is a `Vec<u64>` of *term codes*, one slot per query
//!   variable (see [`VarTable`]), [`UNBOUND`] where the variable is not
//!   yet bound;
//! * codes come from the store's term dictionary (local evaluation) or,
//!   in distributed evaluation, straight off the [`BindingBatch`]es the
//!   peers ship: their cells are codes over one lexicon's ids (see
//!   [`crate::dict`]), so equal terms from different stores carry equal
//!   codes and [`batch_rows`] only places each column's codes into its
//!   variable's slot — every row, or, filtered on the join slots, only
//!   the rows whose key codes are in a set, a semi-join that leaves a
//!   row which cannot join unplaced;
//! * [`hash_join_rows`] joins two row sets on their shared bound slots
//!   by hashing the smaller-keyed side, so a k-row ∧ m-row join costs
//!   O(k + m + output) `u64` comparisons instead of O(k·m) map merges.
//!
//! Strings are only touched again when the surviving rows are
//! materialized back into [`crate::Binding`]s at the result boundary
//! ([`crate::TermDict::decode_row`]).

use crate::batch::BindingBatch;
use crate::fasthash::{FxHashMap, FxHashSet};
use crate::triple::TriplePattern;

/// Code marking a variable slot not yet bound in a row.
pub const UNBOUND: u64 = u64::MAX;

/// The variable layout of a query: each distinct variable name is
/// assigned a dense slot, in order of first appearance.
///
/// Names are owned so a `VarTable` can outlive the query text it was
/// built from — session state (which owns its plan) stores one directly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarTable {
    names: Vec<String>,
}

impl VarTable {
    pub fn new() -> VarTable {
        VarTable::default()
    }

    /// Build from the patterns of a conjunctive query.
    pub fn from_patterns<'p>(patterns: impl IntoIterator<Item = &'p TriplePattern>) -> VarTable {
        let mut t = VarTable::new();
        for p in patterns {
            for v in p.variables() {
                t.slot_of(v);
            }
        }
        t
    }

    /// Slot of a variable, assigning the next free one on first sight.
    pub fn slot_of(&mut self, name: &str) -> usize {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_string());
                self.names.len() - 1
            }
        }
    }

    /// Slot of an already-registered variable.
    pub fn slot(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// A fresh row with every slot unbound.
    pub fn empty_row(&self) -> Vec<u64> {
        vec![UNBOUND; self.names.len()]
    }
}

/// A batch's rows as join rows over `vars`, in batch order: each
/// column's codes placed into its variable's slot (a column `vars` does
/// not name is dropped; a slot the batch does not bind stays
/// [`UNBOUND`]) — every row, or with a non-empty `held` only the rows
/// whose code in each listed slot is in that slot's set. When the sets
/// hold a join side's key codes, the rows of another side that could
/// join it are among the ones kept (a semi-join), and a dropped row
/// costs no row allocation.
pub fn batch_rows(
    batch: &BindingBatch,
    vars: &VarTable,
    held: &[(usize, &FxHashSet<u64>)],
) -> Vec<Vec<u64>> {
    let slots: Vec<Option<usize>> = batch.vars().iter().map(|v| vars.slot(v)).collect();
    // Each filter as (column, set).
    let filters: Vec<(usize, &FxHashSet<u64>)> = held
        .iter()
        .filter_map(|&(slot, set)| Some((slots.iter().position(|&s| s == Some(slot))?, set)))
        .collect();
    let mut out = Vec::with_capacity(if held.is_empty() { batch.rows } else { 0 });
    for cells in batch.rows() {
        if !filters.iter().all(|(c, set)| set.contains(&cells[*c])) {
            continue;
        }
        let mut row = vars.empty_row();
        for (slot, &code) in slots.iter().zip(cells) {
            if let Some(slot) = *slot {
                row[slot] = code;
            }
        }
        out.push(row);
    }
    out
}

/// Slots bound in a row set (all rows of one set share a bound-slot
/// layout: every match of a pattern binds exactly the pattern's
/// variables, and accumulated solutions bind the union of the processed
/// patterns' variables).
fn bound_slots(rows: &[Vec<u64>]) -> Vec<usize> {
    rows.first()
        .map(|r| {
            r.iter()
                .enumerate()
                .filter(|(_, &c)| c != UNBOUND)
                .map(|(i, _)| i)
                .collect()
        })
        .unwrap_or_default()
}

/// Merge two rows slot-wise, left winning on doubly-bound slots (the
/// join key slots, where both sides carry the same code).
fn merge_rows(left: &[u64], right: &[u64]) -> Vec<u64> {
    left.iter()
        .zip(right)
        .map(|(&l, &r)| if l != UNBOUND { l } else { r })
        .collect()
}

/// Hash table of a built join side, specialized by shared-slot count:
/// the overwhelmingly common one-shared-variable join keys the map on
/// the bare `u64` code — no key `Vec` is ever allocated, at build or
/// probe — while multi-variable joins fall back to composite keys.
enum Table {
    /// No shared slots: every probe merges with every inner row.
    Cartesian,
    /// One shared slot: bare-code keys.
    One(usize, FxHashMap<u64, Vec<usize>>),
    /// Several shared slots: composite keys.
    Many(Vec<usize>, FxHashMap<Vec<u64>, Vec<usize>>),
}

/// A built (inner) side of a hash join, ready to be probed with rows
/// streamed one at a time — e.g. straight out of
/// [`crate::TripleStore::for_each_match_row`] — without ever
/// collecting the probe side.
///
/// The inner rows are hashed once on the slots they share with the
/// probe side's bound-slot layout; [`HashJoiner::probe`] then emits the
/// merged rows a single probe row joins with, in inner insertion order.
/// With no shared slots every probe row merges with every inner row
/// (the cartesian product binding merge semantics require).
pub struct HashJoiner<'r> {
    inner: &'r [Vec<u64>],
    table: Table,
}

impl<'r> HashJoiner<'r> {
    /// Hash `inner` on the slots it shares with a probe side whose
    /// bound slots are `probe_bound`.
    pub fn new(inner: &'r [Vec<u64>], probe_bound: &[usize]) -> HashJoiner<'r> {
        let shared: Vec<usize> = bound_slots(inner)
            .into_iter()
            .filter(|s| probe_bound.contains(s))
            .collect();
        let table = match shared.as_slice() {
            [] => Table::Cartesian,
            &[slot] => {
                let mut map: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
                map.reserve(inner.len());
                for (i, r) in inner.iter().enumerate() {
                    map.entry(r[slot]).or_default().push(i);
                }
                Table::One(slot, map)
            }
            _ => {
                let mut map: FxHashMap<Vec<u64>, Vec<usize>> = FxHashMap::default();
                map.reserve(inner.len());
                for (i, r) in inner.iter().enumerate() {
                    let key: Vec<u64> = shared.iter().map(|&s| r[s]).collect();
                    map.entry(key).or_default().push(i);
                }
                Table::Many(shared, map)
            }
        };
        HashJoiner { inner, table }
    }

    /// Append to `out` the merged rows `probe` joins with.
    pub fn probe(&self, probe: &[u64], out: &mut Vec<Vec<u64>>) {
        match &self.table {
            Table::Cartesian => {
                for r in self.inner {
                    out.push(merge_rows(probe, r));
                }
            }
            Table::One(slot, map) => {
                if let Some(matches) = map.get(&probe[*slot]) {
                    for &i in matches {
                        out.push(merge_rows(probe, &self.inner[i]));
                    }
                }
            }
            Table::Many(slots, map) => {
                let key: Vec<u64> = slots.iter().map(|&s| probe[s]).collect();
                if let Some(matches) = map.get(&key) {
                    for &i in matches {
                        out.push(merge_rows(probe, &self.inner[i]));
                    }
                }
            }
        }
    }
}

/// Hash-join two row sets on their shared bound slots.
///
/// Produces exactly the rows the nested loop over [`crate::Binding::join`]
/// would (same multiset, same order: left-major, then right insertion
/// order), at O(|left| + |right| + |output|). With no shared slots this
/// degenerates to the cartesian product, as binding merge semantics
/// require. Implemented as a [`HashJoiner`] built over `right` and
/// probed with each `left` row in order — except for a single-row left
/// side (the executor's bound-join groups substitute one member at a
/// time), which filters `right` directly on the shared slots: same
/// rows, same order, no table build at all.
pub fn hash_join_rows(left: &[Vec<u64>], right: &[Vec<u64>]) -> Vec<Vec<u64>> {
    if left.is_empty() || right.is_empty() {
        return Vec::new();
    }
    if let [l] = left {
        let shared: Vec<usize> = bound_slots(right)
            .into_iter()
            .filter(|&s| l[s] != UNBOUND)
            .collect();
        let mut out = Vec::new();
        for r in right {
            if shared.iter().all(|&s| r[s] == l[s]) {
                out.push(merge_rows(l, r));
            }
        }
        return out;
    }
    let joiner = HashJoiner::new(right, &bound_slots(left));
    let mut out = Vec::new();
    for l in left {
        joiner.probe(l, &mut out);
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dict::TermDict;
    use crate::term::Term;
    use crate::triple::{Binding, PatternTerm};

    #[test]
    fn var_table_assigns_dense_slots_in_first_seen_order() {
        let mut t = VarTable::new();
        assert_eq!(t.slot_of("x"), 0);
        assert_eq!(t.slot_of("len"), 1);
        assert_eq!(t.slot_of("x"), 0);
        assert_eq!(t.slot("len"), Some(1));
        assert_eq!(t.slot("nope"), None);
        assert_eq!(t.empty_row(), vec![UNBOUND, UNBOUND]);
    }

    /// The code of `term` in `dict`, interning it on first sight.
    pub(crate) fn code(dict: &mut TermDict, term: &Term) -> u64 {
        let id = dict.intern(term.shared_lexical(), None, None);
        ((id.0 as u64) << 1) | term.is_literal() as u64
    }

    /// A batch over `pattern`'s variables holding `rows` of terms.
    fn batch_of(dict: &mut TermDict, pattern: &TriplePattern, rows: &[Vec<Term>]) -> BindingBatch {
        let mut batch = BindingBatch::for_pattern(pattern);
        for row in rows {
            batch.codes.extend(row.iter().map(|t| code(dict, t)));
            batch.rows += 1;
        }
        batch
    }

    #[test]
    fn codes_are_kind_sensitive() {
        let mut d = TermDict::new();
        let u = code(&mut d, &Term::uri("x"));
        let l = code(&mut d, &Term::literal("x"));
        assert_eq!(
            code(&mut d, &Term::uri("x")),
            u,
            "a seen term keeps its code"
        );
        assert_ne!(u, l, "uri and literal with equal lexical must differ");
        assert_eq!(d.term_of_code(u), Term::uri("x"));
        assert_eq!(d.term_of_code(l), Term::literal("x"));
    }

    #[test]
    fn placed_rows_decode_to_the_batch_bindings() {
        // Query layout [x, y, z]; the batch binds (z, x) — columns land
        // in their query slots, y stays unbound, and a column the query
        // does not name is dropped.
        let mut vars = VarTable::new();
        vars.slot_of("x");
        vars.slot_of("y");
        vars.slot_of("z");
        let pattern = TriplePattern::new(
            PatternTerm::var("z"),
            PatternTerm::var("other"),
            PatternTerm::var("x"),
        );
        let mut d = TermDict::new();
        let rows: Vec<Vec<Term>> = [("a", "u"), ("b", "u")]
            .iter()
            .map(|(z, x)| vec![Term::uri(*z), Term::uri("p"), Term::literal(*x)])
            .collect();
        let batch = batch_of(&mut d, &pattern, &rows);
        let placed = batch_rows(&batch, &vars, &[]);
        assert_eq!(placed.len(), 2);
        assert!(placed.iter().all(|r| r[1] == UNBOUND));
        assert_eq!(placed[0][0], placed[1][0], "equal terms share a code");
        let decoded: Vec<Binding> = placed.iter().map(|r| d.decode_row(r, &vars)).collect();
        let expected: Vec<Binding> = batch
            .bindings(&d)
            .iter()
            .map(|b| b.project(&["x", "z"]))
            .collect();
        assert_eq!(decoded, expected);
    }

    #[test]
    fn zero_width_batch_places_one_unbound_row_per_match() {
        let mut vars = VarTable::new();
        vars.slot_of("x");
        let ground = TriplePattern::new(
            PatternTerm::constant(Term::uri("s")),
            PatternTerm::constant(Term::uri("p")),
            PatternTerm::constant(Term::uri("o")),
        );
        let mut batch = BindingBatch::for_pattern(&ground);
        batch.rows = 3;
        assert_eq!(batch_rows(&batch, &vars, &[]), vec![vec![UNBOUND]; 3]);
    }

    #[test]
    fn a_key_filter_keeps_the_rows_whose_keys_are_held_and_interns_nothing_else() {
        // Layout [x, y]; the key set holds <a> and "b" (a literal).
        let mut vars = VarTable::new();
        let (x, y) = (vars.slot_of("x"), vars.slot_of("y"));
        let mut d = TermDict::new();
        let a = code(&mut d, &Term::uri("a"));
        let held: FxHashSet<u64> = [a, code(&mut d, &Term::literal("b"))].into_iter().collect();
        let pattern = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("p")),
            PatternTerm::var("y"),
        );
        let rows: Vec<Vec<Term>> = [("a", "1"), ("b", "2"), ("c", "3"), ("a", "4")]
            .iter()
            .map(|(s, o)| vec![Term::uri(*s), Term::literal(*o)])
            .collect();
        let batch = batch_of(&mut d, &pattern, &rows);
        // Keyed on x: <b> is held only as a literal, <c> not at all.
        let placed = batch_rows(&batch, &vars, &[(x, &held)]);
        assert_eq!(placed.len(), 2);
        assert!(placed.iter().all(|r| r[x] == a));
        let kept: Vec<Term> = placed.iter().map(|r| d.term_of_code(r[y])).collect();
        assert_eq!(kept, [Term::literal("1"), Term::literal("4")]);
        assert_eq!(held.len(), 2, "the two dropped rows added no key");
        // No filter: every row.
        assert_eq!(batch_rows(&batch, &vars, &[]).len(), 4);
        // A filter on a slot the batch does not bind constrains nothing.
        let mut wider = vars.clone();
        let z = wider.slot_of("z");
        assert_eq!(batch_rows(&batch, &wider, &[(z, &held)]).len(), 4);
    }

    #[test]
    fn join_on_shared_slot_filters_and_merges() {
        // vars: [x, a, b]; left binds (x, a), right binds (x, b).
        let left = vec![vec![1, 10, UNBOUND], vec![2, 20, UNBOUND]];
        let right = vec![
            vec![1, UNBOUND, 100],
            vec![3, UNBOUND, 300],
            vec![1, UNBOUND, 101],
        ];
        let out = hash_join_rows(&left, &right);
        assert_eq!(out, vec![vec![1, 10, 100], vec![1, 10, 101]]);
    }

    #[test]
    fn join_without_shared_slots_is_cartesian() {
        let left = vec![vec![1, UNBOUND], vec![2, UNBOUND]];
        let right = vec![vec![UNBOUND, 7], vec![UNBOUND, 8]];
        let out = hash_join_rows(&left, &right);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], vec![1, 7]);
        assert_eq!(out[3], vec![2, 8]);
    }

    #[test]
    fn empty_sides_yield_empty_join() {
        let rows = vec![vec![1u64]];
        assert!(hash_join_rows(&[], &rows).is_empty());
        assert!(hash_join_rows(&rows, &[]).is_empty());
    }

    #[test]
    fn single_row_left_takes_the_build_free_path_with_identical_output() {
        // One left row (the executor's bound-join member shape): output
        // must be exactly what the table path would emit, both on the
        // matching and the cartesian shape.
        let right = vec![
            vec![1, UNBOUND, 100],
            vec![3, UNBOUND, 300],
            vec![1, UNBOUND, 101],
        ];
        let l = vec![vec![1u64, 10, UNBOUND]];
        assert_eq!(
            hash_join_rows(&l, &right),
            vec![vec![1, 10, 100], vec![1, 10, 101]]
        );
        let unshared = vec![vec![UNBOUND, 10, UNBOUND]];
        assert_eq!(hash_join_rows(&unshared, &right).len(), 3);
    }

    #[test]
    fn multi_shared_slot_join_uses_composite_keys() {
        // Two shared slots force the composite-key table; both slots
        // must participate in the match.
        let left = vec![
            vec![1, 5, UNBOUND, 10],
            vec![1, 6, UNBOUND, 11],
            vec![2, 5, UNBOUND, 12],
        ];
        let right = vec![vec![1, 5, 100, UNBOUND], vec![2, 6, 200, UNBOUND]];
        let out = hash_join_rows(&left, &right);
        assert_eq!(out, vec![vec![1, 5, 100, 10]]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::dict::TermDict;
    use crate::term::Term;
    use crate::triple::Binding;
    use proptest::prelude::*;

    /// Random binding sets over a small var/value pool, as (slot, value)
    /// assignments. `left_vars`/`right_vars` control which slots each
    /// side binds, so joins exercise 0–3 shared variables.
    fn arb_side(vars: [bool; 4]) -> impl Strategy<Value = Vec<Vec<(usize, u8)>>> {
        let assignments: Vec<usize> = vars
            .iter()
            .enumerate()
            .filter(|(_, &on)| on)
            .map(|(i, _)| i)
            .collect();
        proptest::collection::vec(proptest::collection::vec(0u8..4, assignments.len()), 0..12)
            .prop_map(move |rows| {
                rows.into_iter()
                    .map(|vals| assignments.iter().copied().zip(vals).collect())
                    .collect()
            })
    }

    const VAR_NAMES: [&str; 4] = ["a", "b", "c", "d"];

    fn to_binding(assignment: &[(usize, u8)]) -> Binding {
        let mut b = Binding::new();
        for &(slot, v) in assignment {
            b.bind(VAR_NAMES[slot].to_string(), Term::literal(format!("v{v}")));
        }
        b
    }

    /// One side as the batch a scan would have shipped: the side's
    /// bound variables as header (every row of a side binds the same
    /// ones), rows in order.
    fn to_batch(dict: &mut TermDict, bound: [bool; 4], rows: &[Vec<(usize, u8)>]) -> BindingBatch {
        let mut vars = VarTable::new();
        for s in (0..4).filter(|&s| bound[s]) {
            vars.slot_of(VAR_NAMES[s]);
        }
        let codes = rows
            .iter()
            .flatten()
            .map(|&(_, v)| super::tests::code(dict, &Term::literal(format!("v{v}"))))
            .collect();
        BindingBatch {
            vars,
            codes,
            rows: rows.len(),
        }
    }

    proptest! {
        /// The hash join agrees with the naive nested loop over
        /// `Binding::join` — same rows, same order — for every
        /// combination of shared variables.
        #[test]
        fn hash_join_matches_nested_loop(
            lmask in 0usize..16,
            rmask in 0usize..16,
            seed_left in arb_side([true, true, false, false]),
            seed_right in arb_side([false, true, true, true]),
        ) {
            // Re-mask the generated sides so all share shapes occur.
            let lvars = [lmask & 1 != 0, lmask & 2 != 0, lmask & 4 != 0, lmask & 8 != 0];
            let left: Vec<Vec<(usize, u8)>> = seed_left
                .iter()
                .map(|row| row.iter().copied().filter(|(s, _)| lvars[*s]).collect())
                .collect();
            let rvars = [rmask & 1 != 0, rmask & 2 != 0, rmask & 4 != 0, rmask & 8 != 0];
            let right: Vec<Vec<(usize, u8)>> = seed_right
                .iter()
                .map(|row| row.iter().copied().filter(|(s, _)| rvars[*s]).collect())
                .collect();
            // Rows within a side must share a bound-slot layout (as the
            // engine's callers guarantee); masking preserves that.
            let lb: Vec<Binding> = left.iter().map(|r| to_binding(r)).collect();
            let rb: Vec<Binding> = right.iter().map(|r| to_binding(r)).collect();

            // Naive reference: nested loop over Binding::join.
            let mut expected: Vec<Binding> = Vec::new();
            for l in &lb {
                for r in &rb {
                    if let Some(j) = l.join(r) {
                        expected.push(j);
                    }
                }
            }

            // Engine under test.
            let mut vars = VarTable::new();
            for n in VAR_NAMES {
                vars.slot_of(n);
            }
            let mut dict = TermDict::new();
            // Each side binds its seed's slots that survive the mask.
            let lbound = [lvars[0], lvars[1], false, false];
            let rbound = [false, rvars[1], rvars[2], rvars[3]];
            // The left side in full, the right one keyed on the shared
            // slots, each holding the left side's codes there: a
            // semi-join reduction must not change the join.
            let lrows = batch_rows(&to_batch(&mut dict, lbound, &left), &vars, &[]);
            let shared: Vec<usize> = (0..4).filter(|&s| lbound[s] && rbound[s]).collect();
            let keys: Vec<FxHashSet<u64>> =
                shared.iter().map(|&s| lrows.iter().map(|r| r[s]).collect()).collect();
            let held: Vec<(usize, &FxHashSet<u64>)> = shared.iter().copied().zip(&keys).collect();
            let rrows = batch_rows(&to_batch(&mut dict, rbound, &right), &vars, &held);
            let joined: Vec<Binding> = hash_join_rows(&lrows, &rrows)
                .iter()
                .map(|r| dict.decode_row(r, &vars))
                .collect();

            prop_assert_eq!(joined, expected);
        }
    }
}

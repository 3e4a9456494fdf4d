//! CNF formulas with a built-in variable allocator.

use std::fmt;

use crate::clause::{evaluate_lits, fmt_lits};
use crate::{Assignment, Lit, Var};

/// A formula in conjunctive normal form.
///
/// The formula owns its clauses and tracks how many variables have been
/// allocated. Fresh variables are handed out by [`CnfFormula::new_var`],
/// which is how the encoding framework allocates the indexing Boolean
/// variables of each CSP variable.
///
/// Clauses are stored flat: one literal buffer holding every clause back
/// to back, plus the end offset of each clause in it. Iteration yields
/// each clause as a `&[Lit]` in insertion order, with its literals in the
/// order they were added; [`CnfFormula::clause`] indexes one. Appending a
/// clause copies its literals into the buffer, so building a formula
/// allocates no per-clause storage, and [`CnfFormula::stats`] reads
/// counters kept on append instead of scanning the clauses.
///
/// # Examples
///
/// ```
/// use satroute_cnf::{CnfFormula, Lit};
///
/// let mut f = CnfFormula::new();
/// let a = f.new_var();
/// let b = f.new_var();
/// f.add_clause([Lit::positive(a), Lit::positive(b)]);
/// assert_eq!(f.num_vars(), 2);
/// assert_eq!(f.num_clauses(), 1);
/// assert_eq!(f.clause(0), [Lit::positive(a), Lit::positive(b)]);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct CnfFormula {
    num_vars: u32,
    /// Every clause's literals, back to back.
    lits: Vec<Lit>,
    /// `ends[i]` is the end offset of clause `i` in `lits`; it starts where
    /// clause `i - 1` ends (or at 0).
    ends: Vec<usize>,
    num_unit: usize,
    num_binary: usize,
    max_clause_len: usize,
}

/// Summary statistics for a [`CnfFormula`], used by the formula-size
/// ablation (experiment A1 in `DESIGN.md`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FormulaStats {
    /// Number of allocated variables.
    pub num_vars: u32,
    /// Number of clauses.
    pub num_clauses: usize,
    /// Total number of literal occurrences.
    pub num_literals: usize,
    /// Number of unit (single-literal) clauses.
    pub num_unit: usize,
    /// Number of binary (two-literal) clauses.
    pub num_binary: usize,
    /// Length of the longest clause.
    pub max_clause_len: usize,
}

impl CnfFormula {
    /// Creates an empty formula with no variables.
    pub fn new() -> Self {
        CnfFormula::default()
    }

    /// Creates an empty formula with `num_vars` pre-allocated variables.
    pub fn with_vars(num_vars: u32) -> Self {
        CnfFormula {
            num_vars,
            ..CnfFormula::default()
        }
    }

    /// Reserves room for `clauses` more clauses holding `literals` more
    /// literal occurrences in total.
    pub fn reserve(&mut self, clauses: usize, literals: usize) {
        self.ends.reserve(clauses);
        self.lits.reserve(literals);
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Allocates `n` fresh variables, returning them in order.
    pub fn new_vars(&mut self, n: u32) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Ensures the variable count is at least `num_vars`.
    pub fn ensure_vars(&mut self, num_vars: u32) {
        self.num_vars = self.num_vars.max(num_vars);
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// The literals of clause `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_clauses()`.
    pub fn clause(&self, i: usize) -> &[Lit] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.lits[start..self.ends[i]]
    }

    /// Adds a clause built from the given literals, in the given order.
    ///
    /// Variables referenced by the clause are registered automatically, so a
    /// formula parsed from literals never under-reports `num_vars`.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let start = self.lits.len();
        self.lits.extend(lits);
        let added = &self.lits[start..];
        if let Some(max_var) = added.iter().map(|l| l.var().index() + 1).max() {
            self.num_vars = self.num_vars.max(max_var);
        }
        match added.len() {
            1 => self.num_unit += 1,
            2 => self.num_binary += 1,
            _ => {}
        }
        self.max_clause_len = self.max_clause_len.max(added.len());
        self.ends.push(self.lits.len());
    }

    /// Evaluates the formula under an assignment.
    ///
    /// Returns `Some(true)` if every clause is satisfied, `Some(false)` if
    /// some clause is falsified, `None` if undetermined.
    pub fn evaluate(&self, assignment: &Assignment) -> Option<bool> {
        let mut undetermined = false;
        for clause in self {
            match evaluate_lits(clause, assignment) {
                Some(true) => {}
                Some(false) => return Some(false),
                None => undetermined = true,
            }
        }
        if undetermined {
            None
        } else {
            Some(true)
        }
    }

    /// Returns `true` if `assignment` is a model of this formula (all clauses
    /// satisfied; unassigned variables are allowed as long as every clause
    /// already has a satisfied literal).
    pub fn is_satisfied_by(&self, assignment: &Assignment) -> bool {
        self.iter()
            .all(|c| evaluate_lits(c, assignment) == Some(true))
    }

    /// Summary statistics, from counters kept as clauses are added (O(1)).
    pub fn stats(&self) -> FormulaStats {
        FormulaStats {
            num_vars: self.num_vars,
            num_clauses: self.ends.len(),
            num_literals: self.lits.len(),
            num_unit: self.num_unit,
            num_binary: self.num_binary,
            max_clause_len: self.max_clause_len,
        }
    }

    /// Iterates over the clauses, in insertion order.
    pub fn iter(&self) -> Clauses<'_> {
        Clauses {
            lits: &self.lits,
            ends: self.ends.iter(),
            start: 0,
        }
    }
}

/// Iterator over the clauses of a [`CnfFormula`], each as a `&[Lit]`.
/// Created by [`CnfFormula::iter`].
#[derive(Clone, Debug)]
pub struct Clauses<'a> {
    lits: &'a [Lit],
    ends: std::slice::Iter<'a, usize>,
    start: usize,
}

impl<'a> Iterator for Clauses<'a> {
    type Item = &'a [Lit];

    #[inline]
    fn next(&mut self) -> Option<&'a [Lit]> {
        let end = *self.ends.next()?;
        let clause = &self.lits[self.start..end];
        self.start = end;
        Some(clause)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for Clauses<'_> {}

impl<'a> IntoIterator for &'a CnfFormula {
    type Item = &'a [Lit];
    type IntoIter = Clauses<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CnfFormula({} vars, {} clauses)",
            self.num_vars,
            self.num_clauses()
        )
    }
}

impl fmt::Display for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, clause) in self.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "(")?;
            fmt_lits(clause, f)?;
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn var_allocation_is_sequential() {
        let mut f = CnfFormula::new();
        assert_eq!(f.new_var().index(), 0);
        assert_eq!(f.new_var().index(), 1);
        let vs = f.new_vars(3);
        assert_eq!(vs.iter().map(|v| v.index()).collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(f.num_vars(), 5);
    }

    #[test]
    fn add_clause_registers_variables() {
        let mut f = CnfFormula::new();
        f.add_clause([lit(5), lit(-2)]);
        assert_eq!(f.num_vars(), 5);
    }

    #[test]
    fn evaluate_total_and_partial() {
        let mut f = CnfFormula::new();
        f.add_clause([lit(1), lit(2)]);
        f.add_clause([lit(-1)]);
        let mut a = Assignment::new(2);
        assert_eq!(f.evaluate(&a), None);
        a.assign(Var::new(0), false);
        a.assign(Var::new(1), true);
        assert_eq!(f.evaluate(&a), Some(true));
        assert!(f.is_satisfied_by(&a));
        a.assign(Var::new(0), true);
        assert_eq!(f.evaluate(&a), Some(false));
    }

    #[test]
    fn stats_counts_shapes() {
        let mut f = CnfFormula::new();
        f.add_clause([lit(1)]);
        f.add_clause([lit(1), lit(2)]);
        f.add_clause([lit(1), lit(2), lit(3)]);
        let s = f.stats();
        assert_eq!(s.num_vars, 3);
        assert_eq!(s.num_clauses, 3);
        assert_eq!(s.num_literals, 6);
        assert_eq!(s.num_unit, 1);
        assert_eq!(s.num_binary, 1);
        assert_eq!(s.max_clause_len, 3);
    }

    #[test]
    fn empty_formula_is_trivially_true() {
        let f = CnfFormula::new();
        assert_eq!(f.evaluate(&Assignment::new(0)), Some(true));
    }

    #[test]
    fn clauses_are_stored_flat_in_order() {
        let mut f = CnfFormula::new();
        f.add_clause([lit(1), lit(2)]);
        f.add_clause(std::iter::empty());
        f.add_clause([lit(-3)]);
        assert_eq!(f.num_clauses(), 3);
        assert_eq!(f.num_vars(), 3);
        assert_eq!(f.clause(0), [lit(1), lit(2)]);
        assert!(f.clause(1).is_empty());
        assert_eq!(f.clause(2), [lit(-3)]);
        let all: Vec<&[Lit]> = f.iter().collect();
        assert_eq!(all, [&[lit(1), lit(2)][..], &[], &[lit(-3)]]);
        assert_eq!(f.iter().len(), 3);
        assert_eq!(f.to_string(), "(x0 ∨ x1)\n(⊥)\n(¬x2)");
    }
}

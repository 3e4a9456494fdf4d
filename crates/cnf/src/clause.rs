//! Clauses: disjunctions of literals.

use std::fmt;

use crate::{Assignment, Lit};

/// A clause — a disjunction of [`Lit`]s — owned on its own.
///
/// A thin wrapper around `Vec<Lit>` that adds clause-level operations
/// (normalization, tautology detection, evaluation) for code that works on
/// one clause at a time, such as the level-0 preprocessor. A
/// [`CnfFormula`](crate::CnfFormula) does not store `Clause`s: it keeps its
/// clauses in one flat literal buffer and hands them out as `&[Lit]`. The
/// order of literals is preserved as given, which matters for reproducing
/// the paper's encodings literally (Table 1 lists clauses with a specific
/// literal order).
///
/// # Examples
///
/// ```
/// use satroute_cnf::{Clause, Lit, Var};
///
/// let a = Var::new(0);
/// let clause = Clause::from_lits([Lit::positive(a), Lit::negative(a)]);
/// assert!(clause.is_tautology());
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Clause {
    lits: Vec<Lit>,
}

impl Clause {
    /// Creates an empty clause (which is unsatisfiable).
    pub fn new() -> Self {
        Clause { lits: Vec::new() }
    }

    /// Creates a clause from literals.
    pub fn from_lits<I: IntoIterator<Item = Lit>>(lits: I) -> Self {
        Clause {
            lits: lits.into_iter().collect(),
        }
    }

    /// Returns the literals of this clause.
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Returns the number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Returns `true` if the clause has no literals.
    ///
    /// The empty clause is unsatisfiable.
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Returns `true` if the clause contains the given literal.
    pub fn contains(&self, lit: Lit) -> bool {
        self.lits.contains(&lit)
    }

    /// Returns `true` if the clause contains some literal and its negation,
    /// making it trivially satisfied.
    pub fn is_tautology(&self) -> bool {
        let mut sorted: Vec<Lit> = self.lits.clone();
        sorted.sort_unstable();
        sorted.windows(2).any(|w| w[0] == !w[1])
    }

    /// Removes duplicate literals, preserving first occurrences.
    pub fn dedup(&mut self) {
        let mut seen = std::collections::HashSet::with_capacity(self.lits.len());
        self.lits.retain(|l| seen.insert(*l));
    }

    /// Evaluates the clause under a (possibly partial) assignment.
    ///
    /// Returns `Some(true)` if some literal is satisfied, `Some(false)` if
    /// all literals are falsified, and `None` if the clause is undetermined.
    pub fn evaluate(&self, assignment: &Assignment) -> Option<bool> {
        evaluate_lits(&self.lits, assignment)
    }

    /// Iterates over the literals.
    pub fn iter(&self) -> std::slice::Iter<'_, Lit> {
        self.lits.iter()
    }

    /// Consumes the clause, returning its literal vector.
    pub fn into_lits(self) -> Vec<Lit> {
        self.lits
    }
}

/// Evaluates the disjunction of `lits` (see [`Clause::evaluate`]).
pub(crate) fn evaluate_lits(lits: &[Lit], assignment: &Assignment) -> Option<bool> {
    let mut undetermined = false;
    for &lit in lits {
        match assignment.lit_value(lit) {
            Some(true) => return Some(true),
            Some(false) => {}
            None => undetermined = true,
        }
    }
    if undetermined {
        None
    } else {
        Some(false)
    }
}

/// Writes the disjunction of `lits`, `⊥` when empty.
pub(crate) fn fmt_lits(lits: &[Lit], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if lits.is_empty() {
        return write!(f, "⊥");
    }
    for (i, lit) in lits.iter().enumerate() {
        if i > 0 {
            write!(f, " ∨ ")?;
        }
        write!(f, "{lit}")?;
    }
    Ok(())
}

impl From<Vec<Lit>> for Clause {
    fn from(lits: Vec<Lit>) -> Self {
        Clause { lits }
    }
}

impl FromIterator<Lit> for Clause {
    fn from_iter<I: IntoIterator<Item = Lit>>(iter: I) -> Self {
        Clause::from_lits(iter)
    }
}

impl Extend<Lit> for Clause {
    fn extend<I: IntoIterator<Item = Lit>>(&mut self, iter: I) {
        self.lits.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Clause {
    type Item = &'a Lit;
    type IntoIter = std::slice::Iter<'a, Lit>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.iter()
    }
}

impl IntoIterator for Clause {
    type Item = Lit;
    type IntoIter = std::vec::IntoIter<Lit>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.into_iter()
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Clause{:?}", self.lits)
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_lits(&self.lits, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn tautology_detection() {
        assert!(Clause::from_lits([lit(1), lit(-1)]).is_tautology());
        assert!(!Clause::from_lits([lit(1), lit(2)]).is_tautology());
        assert!(!Clause::new().is_tautology());
    }

    #[test]
    fn dedup_preserves_first_occurrence() {
        let mut c = Clause::from_lits([lit(1), lit(2), lit(1), lit(-2)]);
        c.dedup();
        assert_eq!(c.lits(), &[lit(1), lit(2), lit(-2)]);
    }

    #[test]
    fn evaluate_partial_assignments() {
        let c = Clause::from_lits([lit(1), lit(2)]);
        let mut a = Assignment::new(2);
        assert_eq!(c.evaluate(&a), None);
        a.assign(Var::new(0), false);
        assert_eq!(c.evaluate(&a), None);
        a.assign(Var::new(1), true);
        assert_eq!(c.evaluate(&a), Some(true));
        a.assign(Var::new(1), false);
        assert_eq!(c.evaluate(&a), Some(false));
    }

    #[test]
    fn empty_clause_is_false() {
        let a = Assignment::new(0);
        assert_eq!(Clause::new().evaluate(&a), Some(false));
    }

    #[test]
    fn display_uses_disjunction() {
        let c = Clause::from_lits([lit(1), lit(-2)]);
        assert_eq!(c.to_string(), "x0 ∨ ¬x1");
        assert_eq!(Clause::new().to_string(), "⊥");
    }
}

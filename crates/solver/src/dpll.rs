//! A simple DPLL solver used as a cross-checking oracle.
//!
//! This solver does chronological backtracking with unit propagation and a
//! most-occurrences branching rule — no learning, no restarts. It is
//! intentionally naive: its role is to independently confirm SAT/UNSAT
//! answers of [`crate::CdclSolver`] on small instances (tests, property
//! tests) and to serve as the "pre-CDCL era" baseline in ablation benches.

use satroute_cnf::{Assignment, CnfFormula, Lit, Var};

use crate::outcome::SolveOutcome;
use crate::run::StopReason;

/// A chronological-backtracking DPLL SAT solver.
///
/// # Examples
///
/// ```
/// use satroute_cnf::{CnfFormula, Lit};
/// use satroute_solver::{DpllSolver, SolveOutcome};
///
/// let mut f = CnfFormula::new();
/// let a = f.new_var();
/// f.add_clause([Lit::positive(a)]);
///
/// let outcome = DpllSolver::new().solve(&f);
/// assert!(outcome.is_sat());
/// ```
#[derive(Clone, Debug, Default)]
pub struct DpllSolver {
    /// Give up after this many decisions (`None` = unbounded).
    max_decisions: Option<u64>,
    decisions: u64,
}

impl DpllSolver {
    /// Creates a solver with no decision budget.
    pub fn new() -> Self {
        DpllSolver::default()
    }

    /// Creates a solver that answers [`SolveOutcome::Unknown`] after
    /// `max_decisions` branching decisions.
    pub fn with_decision_budget(max_decisions: u64) -> Self {
        DpllSolver {
            max_decisions: Some(max_decisions),
            decisions: 0,
        }
    }

    /// Number of branching decisions made by the last `solve` call.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Solves `formula`.
    ///
    /// Returns a total model on SAT. Never panics on malformed input; an
    /// empty clause simply makes the formula unsatisfiable.
    pub fn solve(&mut self, formula: &CnfFormula) -> SolveOutcome {
        self.decisions = 0;
        let num_vars = formula.num_vars();
        let clauses: Vec<Vec<Lit>> = formula.iter().map(<[Lit]>::to_vec).collect();
        let mut assignment = Assignment::new(num_vars);
        match self.search(&clauses, &mut assignment, num_vars) {
            Some(true) => {
                // Complete the model: unassigned variables get `false`.
                for i in 0..num_vars {
                    let v = Var::new(i);
                    if assignment.value(v).is_none() {
                        assignment.assign(v, false);
                    }
                }
                SolveOutcome::Sat(assignment)
            }
            Some(false) => SolveOutcome::Unsat,
            None => SolveOutcome::Unknown(StopReason::DecisionLimit),
        }
    }

    /// Returns `Some(true)` for SAT, `Some(false)` for UNSAT and `None` when
    /// the decision budget ran out.
    fn search(
        &mut self,
        clauses: &[Vec<Lit>],
        assignment: &mut Assignment,
        num_vars: u32,
    ) -> Option<bool> {
        // Unit propagation to fixpoint, remembering what we assigned so we
        // can undo on backtrack.
        let mut propagated: Vec<Var> = Vec::new();
        loop {
            let mut changed = false;
            for clause in clauses {
                let mut satisfied = false;
                let mut unassigned: Option<Lit> = None;
                let mut unassigned_count = 0;
                for &lit in clause {
                    match assignment.lit_value(lit) {
                        Some(true) => {
                            satisfied = true;
                            break;
                        }
                        Some(false) => {}
                        None => {
                            unassigned = Some(lit);
                            unassigned_count += 1;
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match unassigned_count {
                    0 => {
                        // Conflict: undo propagation.
                        for v in propagated {
                            assignment.unassign(v);
                        }
                        return Some(false);
                    }
                    1 => {
                        let lit = unassigned.expect("exactly one unassigned literal");
                        assignment.assign_lit(lit);
                        propagated.push(lit.var());
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                break;
            }
        }

        // Branch on the unassigned variable occurring most often in
        // not-yet-satisfied clauses.
        let branch_var = {
            let mut counts = vec![0u32; num_vars as usize];
            for clause in clauses {
                if clause
                    .iter()
                    .any(|&l| assignment.lit_value(l) == Some(true))
                {
                    continue;
                }
                for &lit in clause {
                    if assignment.lit_value(lit).is_none() {
                        counts[usize::from(lit.var())] += 1;
                    }
                }
            }
            counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .max_by_key(|&(_, &c)| c)
                .map(|(i, _)| Var::new(i as u32))
        };

        let Some(var) = branch_var else {
            // Every clause satisfied.
            return Some(true);
        };

        if let Some(max) = self.max_decisions {
            if self.decisions >= max {
                for v in propagated {
                    assignment.unassign(v);
                }
                return None;
            }
        }
        self.decisions += 1;

        for value in [true, false] {
            assignment.assign(var, value);
            match self.search(clauses, assignment, num_vars) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => {
                    assignment.unassign(var);
                    for v in propagated {
                        assignment.unassign(v);
                    }
                    return None;
                }
            }
            assignment.unassign(var);
        }

        for v in propagated {
            assignment.unassign(v);
        }
        Some(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn formula(clauses: &[Vec<i64>]) -> CnfFormula {
        let mut f = CnfFormula::new();
        for c in clauses {
            f.add_clause(c.iter().map(|&d| Lit::from_dimacs(d)));
        }
        f
    }

    #[test]
    fn trivial_cases() {
        assert!(DpllSolver::new().solve(&formula(&[])).is_sat());
        assert!(DpllSolver::new().solve(&formula(&[vec![]])).is_unsat());
        assert!(DpllSolver::new().solve(&formula(&[vec![1]])).is_sat());
        assert!(DpllSolver::new()
            .solve(&formula(&[vec![1], vec![-1]]))
            .is_unsat());
    }

    #[test]
    fn models_satisfy_formula() {
        let f = formula(&[vec![1, 2], vec![-1, 3], vec![-2, -3], vec![2, 3]]);
        let out = DpllSolver::new().solve(&f);
        let m = out.model().expect("should be SAT");
        assert!(f.is_satisfied_by(m));
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        let p = |i: i64, j: i64| 2 * i + j + 1;
        let mut clauses: Vec<Vec<i64>> = Vec::new();
        for i in 0..3 {
            clauses.push(vec![p(i, 0), p(i, 1)]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    clauses.push(vec![-p(a, j), -p(b, j)]);
                }
            }
        }
        assert!(DpllSolver::new().solve(&formula(&clauses)).is_unsat());
    }

    #[test]
    fn decision_budget_gives_unknown() {
        // Needs at least one decision.
        let f = formula(&[vec![1, 2], vec![-1, -2]]);
        let mut s = DpllSolver::with_decision_budget(0);
        assert_eq!(
            s.solve(&f),
            SolveOutcome::Unknown(StopReason::DecisionLimit)
        );
    }

    #[test]
    fn propagation_is_undone_on_backtrack() {
        // Crafted so the first branch direction fails after propagation.
        let f = formula(&[
            vec![1, 2],
            vec![-1, 3],
            vec![-3, 4],
            vec![-4, -1],
            vec![-2, 5],
        ]);
        let out = DpllSolver::new().solve(&f);
        let m = out.model().expect("should be SAT");
        assert!(f.is_satisfied_by(m));
    }
}

//! CNF substrate for the `satroute` workspace.
//!
//! This crate provides the propositional-logic plumbing shared by the SAT
//! solver ([`satroute-solver`]), the encoding framework ([`satroute-core`])
//! and the benchmark harness:
//!
//! * [`Var`] / [`Lit`] — compact variable and literal handles,
//! * [`Clause`] — a disjunction of literals,
//! * [`CnfFormula`] — a formula in conjunctive normal form with its own
//!   variable allocator, storing its clauses in one flat literal buffer,
//! * [`Assignment`] — a (possibly partial) truth assignment,
//! * [`dimacs`] — reading and writing the DIMACS CNF interchange format used
//!   by the tool flow described in the reproduced paper (Velev & Gao,
//!   DATE 2008).
//!
//! # Examples
//!
//! Build the formula `(a ∨ b) ∧ (¬a ∨ b)` and evaluate it:
//!
//! ```
//! use satroute_cnf::{CnfFormula, Lit};
//!
//! let mut f = CnfFormula::new();
//! let a = f.new_var();
//! let b = f.new_var();
//! f.add_clause([Lit::positive(a), Lit::positive(b)]);
//! f.add_clause([Lit::negative(a), Lit::positive(b)]);
//!
//! let mut model = satroute_cnf::Assignment::new(f.num_vars());
//! model.assign(a, false);
//! model.assign(b, true);
//! assert!(f.evaluate(&model).unwrap());
//! ```
//!
//! [`satroute-solver`]: https://example.com/satroute
//! [`satroute-core`]: https://example.com/satroute

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod clause;
mod formula;
mod lit;

pub mod dimacs;

pub use assignment::Assignment;
pub use clause::Clause;
pub use formula::{Clauses, CnfFormula, FormulaStats};
pub use lit::{Lit, Var};

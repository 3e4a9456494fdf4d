//! DIMACS CNF interchange format.
//!
//! The reproduced paper's tool flow passes problems between tools as DIMACS
//! files (graph-coloring `.col` files handled in `satroute-coloring`, CNF
//! `.cnf` files handled here). This module reads and writes the classic
//! `p cnf <vars> <clauses>` format.
//!
//! # Examples
//!
//! ```
//! use satroute_cnf::{dimacs, CnfFormula, Lit};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut f = CnfFormula::new();
//! let a = f.new_var();
//! let b = f.new_var();
//! f.add_clause([Lit::positive(a), Lit::negative(b)]);
//!
//! let mut text = Vec::new();
//! dimacs::write_cnf(&mut text, &f)?;
//! let parsed = dimacs::parse_cnf(&text[..])?;
//! assert_eq!(parsed.num_clauses(), 1);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

use crate::{CnfFormula, Lit};

/// Error produced when parsing a DIMACS CNF file fails.
#[derive(Debug)]
pub enum ParseCnfError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the file, with a line number (1-based) and
    /// message.
    Syntax {
        /// 1-based line number where the problem was found.
        line: usize,
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for ParseCnfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseCnfError::Io(e) => write!(f, "i/o error reading DIMACS CNF: {e}"),
            ParseCnfError::Syntax { line, message } => {
                write!(f, "DIMACS CNF syntax error at line {line}: {message}")
            }
        }
    }
}

impl Error for ParseCnfError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseCnfError::Io(e) => Some(e),
            ParseCnfError::Syntax { .. } => None,
        }
    }
}

impl From<io::Error> for ParseCnfError {
    fn from(e: io::Error) -> Self {
        ParseCnfError::Io(e)
    }
}

fn syntax(line: usize, message: impl Into<String>) -> ParseCnfError {
    ParseCnfError::Syntax {
        line,
        message: message.into(),
    }
}

/// Parses a DIMACS CNF file.
///
/// Accepts `c` comment lines, a single `p cnf <vars> <clauses>` header, and
/// whitespace-separated 0-terminated clauses, possibly spanning lines. The
/// declared variable count is honored as a lower bound (extra variables used
/// in clauses grow the formula, matching common solver behavior).
///
/// A `&mut R` can be passed for readers that cannot be consumed by value.
///
/// # Errors
///
/// Returns [`ParseCnfError`] on I/O failure, a malformed header, literals
/// outside `i64`, a missing header, or a clause not terminated by `0`.
pub fn parse_cnf<R: Read>(reader: R) -> Result<CnfFormula, ParseCnfError> {
    let reader = BufReader::new(reader);
    let mut formula = CnfFormula::new();
    let mut header: Option<(u32, usize)> = None;
    let mut current: Vec<Lit> = Vec::new();

    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') || trimmed.starts_with('%') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('p') {
            if header.is_some() {
                return Err(syntax(line_no, "duplicate problem header"));
            }
            let mut parts = rest.split_whitespace();
            if parts.next() != Some("cnf") {
                return Err(syntax(line_no, "expected `p cnf <vars> <clauses>`"));
            }
            let vars: u32 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| syntax(line_no, "bad variable count in header"))?;
            let clauses: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| syntax(line_no, "bad clause count in header"))?;
            header = Some((vars, clauses));
            continue;
        }
        if header.is_none() {
            return Err(syntax(line_no, "clause data before `p cnf` header"));
        }
        for tok in trimmed.split_whitespace() {
            let value: i64 = tok
                .parse()
                .map_err(|_| syntax(line_no, format!("bad literal token `{tok}`")))?;
            if value == 0 {
                formula.add_clause(current.drain(..));
            } else {
                current.push(Lit::from_dimacs(value));
            }
        }
    }

    let (vars, _declared_clauses) = header.ok_or_else(|| syntax(0, "missing `p cnf` header"))?;
    if !current.is_empty() {
        return Err(syntax(0, "last clause not terminated by 0"));
    }
    formula.ensure_vars(vars);
    Ok(formula)
}

/// Parses a DIMACS CNF document from a string.
///
/// # Errors
///
/// See [`parse_cnf`].
pub fn parse_cnf_str(text: &str) -> Result<CnfFormula, ParseCnfError> {
    parse_cnf(text.as_bytes())
}

/// Writes a formula in DIMACS CNF format.
///
/// A `&mut W` can be passed for writers that cannot be consumed by value.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_cnf<W: Write>(mut writer: W, formula: &CnfFormula) -> io::Result<()> {
    writeln!(
        writer,
        "p cnf {} {}",
        formula.num_vars(),
        formula.num_clauses()
    )?;
    for clause in formula {
        for lit in clause {
            write!(writer, "{} ", lit.to_dimacs())?;
        }
        writeln!(writer, "0")?;
    }
    Ok(())
}

/// Renders a formula as a DIMACS CNF string.
pub fn to_cnf_string(formula: &CnfFormula) -> String {
    let mut buf = Vec::new();
    write_cnf(&mut buf, formula).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("DIMACS output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple_formula() {
        let mut f = CnfFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        f.add_clause([Lit::positive(a), Lit::negative(b)]);
        f.add_clause([Lit::negative(a)]);

        let text = to_cnf_string(&f);
        let parsed = parse_cnf_str(&text).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn parses_comments_and_multiline_clauses() {
        let text = "c a comment\nc another\np cnf 3 2\n1 2\n3 0 -1\n-2 0\n";
        let f = parse_cnf_str(text).unwrap();
        assert_eq!(f.num_vars(), 3);
        assert_eq!(f.num_clauses(), 2);
        assert_eq!(f.clause(0).len(), 3);
        assert_eq!(f.clause(1).len(), 2);
    }

    #[test]
    fn honors_declared_var_count_as_lower_bound() {
        let f = parse_cnf_str("p cnf 10 1\n1 0\n").unwrap();
        assert_eq!(f.num_vars(), 10);
    }

    #[test]
    fn rejects_missing_header() {
        assert!(parse_cnf_str("1 2 0\n").is_err());
        assert!(parse_cnf_str("").is_err());
    }

    #[test]
    fn rejects_duplicate_header() {
        assert!(parse_cnf_str("p cnf 1 0\np cnf 1 0\n").is_err());
    }

    #[test]
    fn rejects_unterminated_clause() {
        assert!(parse_cnf_str("p cnf 2 1\n1 2\n").is_err());
    }

    #[test]
    fn rejects_garbage_tokens() {
        assert!(parse_cnf_str("p cnf 2 1\n1 x 0\n").is_err());
        assert!(parse_cnf_str("p cnf x 1\n1 0\n").is_err());
    }

    #[test]
    fn empty_clause_roundtrips() {
        let mut f = CnfFormula::new();
        f.add_clause(std::iter::empty());
        let text = to_cnf_string(&f);
        let parsed = parse_cnf_str(&text).unwrap();
        assert_eq!(parsed.num_clauses(), 1);
        assert!(parsed.clause(0).is_empty());
    }
}

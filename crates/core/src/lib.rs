//! The paper's contribution: SAT encodings for FPGA detailed routing.
//!
//! This crate reproduces the technical core of **Velev & Gao, "Comparison of
//! Boolean Satisfiability Encodings on FPGA Detailed Routing Problems"
//! (DATE 2008)**:
//!
//! * [`pattern`] — the *indexing Boolean pattern* framework (paper §2): an
//!   encoding of a CSP variable is a set of local Boolean variables, one
//!   pattern (conjunction of literals) per domain value, and structural
//!   clauses. Conflict clauses between adjacent CSP variables fall out as
//!   single CNF clauses.
//! * [`scheme`] — the simple encodings: **log**, **direct**, **muldirect**
//!   (Table 1).
//! * [`ite`] — structural ITE-tree encodings (§3): **ITE-linear**,
//!   **ITE-log**, and arbitrary tree shapes.
//! * [`hier`] — hierarchical 2-level composition (§4): a top scheme
//!   partitions the domain into subdomains, a bottom scheme (with one shared
//!   variable set) selects within each subdomain.
//! * [`catalog`] — the 14 encodings compared in the paper (plus `direct`),
//!   addressable by [`EncodingId`].
//! * [`symmetry`] — the symmetry-breaking heuristics **b1** (Van Gelder) and
//!   **s1** (the paper's new heuristic) (§5).
//! * [`encode`] / [`decode`] — graph-coloring CSP → CNF and SAT model →
//!   coloring.
//! * [`strategy`] — one (encoding, symmetry) combination run end to end
//!   with the Table 2 time breakdown, configured through the
//!   [`SolveRequest`] builder (budget, cancellation, observer).
//! * [`portfolio`] — parallel first-answer-wins execution of several
//!   strategies (§6), with per-member reports, a shared deadline, a
//!   parallelism-aware thread cap, and optional learnt-clause sharing
//!   between diversified same-strategy members.
//! * [`conquer`] — cube-and-conquer parallelism *within* one instance: a
//!   lookahead splitter ([`satroute_solver::cubes`]) partitions the CNF
//!   into `2^k` assumption-prefix subcubes that a work-stealing pool
//!   races with first-SAT-wins cancellation and all-UNSAT aggregation
//!   ([`ConquerRequest`], built by [`Strategy::cube_and_conquer`]).
//! * [`pipeline`] — the full FPGA flow: global routing → conflict graph →
//!   SAT → detailed routing / unroutability proof.
//! * [`incremental`] — assumption-based incremental width search: encode
//!   once at an upper bound with per-track activation selectors, probe any
//!   width on one warm solver ([`IncrementalSession`], built by
//!   [`Strategy::incremental`]).
//! * [`explain`] — unroutability explanations: re-encode with one
//!   activation selector per net group, extract a failed-assumption core
//!   and shrink it to a 1-minimal MUS over nets by warm deletion probes
//!   ([`ExplainRequest`], built by [`Strategy::explain`]).
//!
//! Run control (budgets, cancellation tokens) comes from
//! [`satroute_solver::run`] and is threaded through every entry point,
//! as is one [`Telemetry`] value per builder bundling the tracer, metrics
//! registry, flight recorder and observer; the commonly used types are
//! re-exported here.
//!
//! # Examples
//!
//! Prove a triangle is not 2-colorable with the paper's best encoding:
//!
//! ```
//! use satroute_coloring::CspGraph;
//! use satroute_core::{ColoringOutcome, EncodingId, Strategy, SymmetryHeuristic};
//!
//! let triangle = CspGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
//! let strategy = Strategy::new(EncodingId::IteLinear2Muldirect, SymmetryHeuristic::S1);
//! match strategy.solve_coloring(&triangle, 2).outcome {
//!     ColoringOutcome::Unsat => {}
//!     other => panic!("expected UNSAT, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod catalog;
pub mod conquer;
pub mod decode;
pub mod encode;
pub mod explain;
pub mod hier;
pub mod incremental;
pub mod ite;
pub mod pattern;
pub mod pipeline;
pub mod portfolio;
pub mod scheme;
pub mod strategy;
pub mod symmetry;

pub use catalog::{Encoding, EncodingId, ParseEncodingError};
pub use conquer::{ConquerRequest, ConquerResult, CubeReport};
pub use decode::{decode_coloring, DecodeError};
pub use encode::{
    encode_coloring, encode_coloring_grouped, encode_coloring_incremental, DecodeMap,
    EncodedColoring, GroupedEncoding, IncrementalEncoding,
};
pub use explain::{ExplainOutcome, ExplainReport, ExplainRequest, NetCore, ShrinkStatus};
pub use hier::TopScheme;
pub use incremental::{IncrementalSession, IncrementalSessionBuilder};
pub use ite::IteTree;
pub use pattern::{Pattern, SchemeCnf};
pub use pipeline::{
    PipelineError, RouteResult, RoutingPipeline, UnroutabilityCertificate, WidthSearch,
};
pub use portfolio::{
    run_portfolio_opts, simulate_portfolio, MemberReport, PortfolioOptions, PortfolioResult,
    SharingBus, SimulatedPortfolio,
};
pub use scheme::SimpleScheme;
pub use strategy::{ColoringOutcome, ColoringReport, SolveRequest, Strategy, TimingBreakdown};
pub use symmetry::SymmetryHeuristic;

// Run-control vocabulary used throughout this crate's APIs, re-exported
// so downstream code does not need a direct `satroute_solver` dependency.
pub use satroute_solver::{
    CancellationToken, ClauseExchange, MetricsRecorder, NullObserver, PhaseInit, ProgressLogger,
    RestartScheme, RunBudget, RunMetrics, RunObserver, SharingConfig, SolverEvent, StopReason,
    Telemetry, TraceObserver,
};

// Tracing vocabulary (spans, sinks, reports) from `satroute_obs`,
// re-exported for the same reason.
pub use satroute_obs::{
    parse_jsonl, FlightRecorder, Postmortem, SampleCause, SpanForest, TimelineSample, TraceReport,
    TraceTree, TraceWriter, Tracer,
};

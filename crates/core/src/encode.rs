//! Encoding a graph-coloring CSP into CNF.
//!
//! For a K-coloring of a [`CspGraph`] the encoder:
//!
//! 1. emits the chosen encoding's [`SchemeCnf`] for domain size K once (all
//!    CSP variables share the same domain — the K tracks);
//! 2. allocates a disjoint block of `num_vars` SAT variables per vertex
//!    (the paper's requirement that ITE trees "depend on a unique set of
//!    indexing Boolean variables");
//! 3. maps the structural clauses into each vertex's block;
//! 4. adds one conflict clause per edge and common domain value:
//!    `¬pattern_v(d) ∨ ¬pattern_w(d)` (§2–§4);
//! 5. adds symmetry-breaking restrictions: the p-th restricted vertex
//!    (0-based) gets `¬pattern(d)` clauses for every `d > p` (§5).
//!
//! The result carries a [`DecodeMap`] so that a SAT model can be converted
//! back into a coloring by [`crate::decode::decode_coloring`].
//!
//! All three public encoders ([`encode_coloring`],
//! [`encode_coloring_incremental`], [`encode_coloring_grouped`]) share one
//! emitter that differs only in which activation selectors it adds
//! ([`Selectors`]). Under a [`Telemetry`] the emitter records an encode
//! span (fields: encoding name, width, vertex/edge counts) with
//! `scheme_emit`, `structural_clauses`, `conflict_clauses` and
//! `symmetry_breaking` child spans plus final `variables`/`clauses`/
//! `literals` counters — the paper's per-encoding CNF-size comparison,
//! recorded per run. A plain encode also feeds the registry's
//! `encode.wall_us.<encoding>`, `encode.vars.<encoding>`,
//! `encode.clauses.<encoding>` and `encode.literals.<encoding>`
//! histograms; selector encodings stay out of them, since their extra
//! variables and clauses would skew the per-encoding comparison.

use std::time::Duration;

use satroute_cnf::{CnfFormula, Lit};
use satroute_coloring::CspGraph;
use satroute_obs::FieldValue;
use satroute_solver::Telemetry;

use crate::catalog::Encoding;
use crate::pattern::SchemeCnf;
use crate::symmetry::SymmetryHeuristic;

/// Mapping from SAT variables back to CSP vertices: the shared scheme and
/// each vertex's variable-block offset.
#[derive(Clone, Debug)]
pub struct DecodeMap {
    /// The per-vertex scheme (patterns over local variables).
    pub scheme: SchemeCnf,
    /// `offsets[v]` = index of the first SAT variable of vertex `v`.
    pub offsets: Vec<u32>,
    /// Number of colors the instance was encoded for.
    pub num_colors: u32,
}

/// The output of [`encode_coloring`]: the CNF formula and its decode map.
#[derive(Clone, Debug)]
pub struct EncodedColoring {
    /// The CNF instance; satisfiable iff the graph is `num_colors`-colorable
    /// (under the sound symmetry restrictions).
    pub formula: CnfFormula,
    /// Decoder state.
    pub decode: DecodeMap,
    /// Wall time spent encoding (the `encode` span's duration) — the
    /// `cnf_translation` component of [`crate::TimingBreakdown`].
    pub cnf_translation: Duration,
}

/// Encodes the K-coloring problem of `graph` as CNF.
///
/// `k == 0` with a non-empty graph yields a trivially unsatisfiable formula
/// (a single empty clause); with an empty graph, an empty (satisfiable)
/// formula.
///
/// # Examples
///
/// ```
/// use satroute_coloring::CspGraph;
/// use satroute_core::{encode_coloring, EncodingId, SymmetryHeuristic};
///
/// let triangle = CspGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
/// let enc = encode_coloring(
///     &triangle,
///     3,
///     &EncodingId::Muldirect.encoding(),
///     SymmetryHeuristic::None,
/// );
/// // 3 vertices × 3 value variables.
/// assert_eq!(enc.formula.num_vars(), 9);
/// ```
pub fn encode_coloring(
    graph: &CspGraph,
    k: u32,
    encoding: &Encoding,
    symmetry: SymmetryHeuristic,
) -> EncodedColoring {
    emit(
        graph,
        k,
        encoding,
        symmetry,
        Selectors::None,
        &Telemetry::default(),
    )
    .0
}

/// The output of [`encode_coloring_incremental`]: one CNF encoded at the
/// upper-bound width plus per-track *activation selectors* that let a
/// single warm solver probe every width `0..=upper` with assumptions.
///
/// For each track `d` a fresh selector variable `s_d` is allocated (after
/// all vertex blocks, so the [`DecodeMap`] is unchanged) together with the
/// clauses `¬s_d ∨ ¬pattern_v(d)` for every vertex `v`. Assuming `s_d`
/// *true* therefore disables track `d` for the whole graph; a width-`W`
/// probe assumes `{s_d : d ≥ W}` and leaves the remaining selectors free.
/// Because patterns are conjunctions this works for every catalog
/// encoding, not just single-positive-literal indexings like muldirect.
///
/// Soundness of decoding at width `W < upper`: the structural clauses'
/// totality guarantee forces some pattern true for each vertex, and the
/// activation clauses falsify every pattern `≥ W`, so the decoded color is
/// `< W`. Symmetry restrictions emitted at `upper` stay sound at smaller
/// widths because they only ever *forbid* high tracks.
#[derive(Clone, Debug)]
pub struct IncrementalEncoding {
    /// The CNF instance at the upper-bound width, including activation
    /// clauses; satisfiable with `{s_d : d ≥ W}` assumed iff the graph is
    /// `W`-colorable (under the sound symmetry restrictions).
    pub formula: CnfFormula,
    /// Decoder state (identical to the non-incremental encode at `upper`).
    pub decode: DecodeMap,
    /// `selectors[d]` = the positive literal of track `d`'s selector
    /// variable; assuming it disables the track.
    pub selectors: Vec<Lit>,
    /// Wall time spent encoding (the `encode_incremental` span's duration).
    pub cnf_translation: Duration,
}

impl IncrementalEncoding {
    pub(crate) fn from_parts((base, selectors): (EncodedColoring, Vec<Lit>)) -> Self {
        IncrementalEncoding {
            formula: base.formula,
            decode: base.decode,
            selectors,
            cnf_translation: base.cnf_translation,
        }
    }

    /// The upper-bound width the instance was encoded at.
    #[must_use]
    pub fn upper(&self) -> u32 {
        self.selectors.len() as u32
    }

    /// The assumption vector for a width-`width` probe: the selectors of
    /// every track `≥ width`, highest track first (so consecutive
    /// downward probes share an assumption prefix).
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds the encoded upper bound.
    #[must_use]
    pub fn assumptions_for_width(&self, width: u32) -> Vec<Lit> {
        assert!(
            width <= self.upper(),
            "width {width} above encoded upper bound {}",
            self.upper()
        );
        (width..self.upper())
            .rev()
            .map(|d| self.selectors[d as usize])
            .collect()
    }

    /// Maps a failed-assumption literal back to the track it disables, or
    /// `None` for literals that are not positive selector occurrences.
    #[must_use]
    pub fn track_of(&self, selector: Lit) -> Option<u32> {
        self.selectors
            .iter()
            .position(|&s| s == selector)
            .map(|d| d as u32)
    }
}

/// Encodes the coloring problem once at width `upper` with per-track
/// activation selectors, for assumption-based width probing (see
/// [`IncrementalEncoding`]).
///
/// # Panics
///
/// Panics if `upper == 0` — the ladder needs at least one track to hang
/// selectors on (a width-0 probe is expressed by assuming *all* selectors).
pub fn encode_coloring_incremental(
    graph: &CspGraph,
    upper: u32,
    encoding: &Encoding,
    symmetry: SymmetryHeuristic,
) -> IncrementalEncoding {
    IncrementalEncoding::from_parts(emit(
        graph,
        upper,
        encoding,
        symmetry,
        Selectors::PerTrack,
        &Telemetry::default(),
    ))
}

/// The output of [`encode_coloring_grouped`]: one CNF with a *group
/// activation selector* per vertex group (for routing: per net), so a
/// single warm solver can probe colorability of any vertex-induced union
/// of groups with assumptions — the substrate for UNSAT-core extraction
/// and deletion-based core minimization over nets.
///
/// For each group `g` a fresh selector variable `s_g` is allocated (after
/// all vertex blocks, so the [`DecodeMap`] is unchanged) and every clause
/// mentioning a vertex of `g` is guarded with `¬s_g`: structural clauses
/// get their vertex's guard, conflict clauses the guards of both
/// endpoints. Assuming `s_g` *true* activates group `g`; leaving it free
/// lets the solver satisfy the group's clauses by setting `s_g` false,
/// which is equivalent to deleting the group's vertices from the graph.
/// A probe assuming selectors of a set `A` of groups is therefore SAT iff
/// the subgraph induced by `A`'s vertices is `k`-colorable, and an UNSAT
/// answer's failed assumptions name a subset of `A` that is already
/// uncolorable on its own — a group-level core.
///
/// No symmetry restrictions are emitted: they are derived from a clique
/// and vertex order of the *full* graph and do not stay sound once groups
/// are deleted, and an unsound restriction would let a group subset look
/// UNSAT that is in fact colorable — exactly the error a core must not
/// make.
///
/// `k == 0` with a non-empty graph emits the unit clause `¬s_g` for every
/// populated group instead of an empty clause, so even width-0 probes
/// produce group cores.
#[derive(Clone, Debug)]
pub struct GroupedEncoding {
    /// The CNF instance; satisfiable with a set `A` of group selectors
    /// assumed iff the subgraph induced by `A`'s vertices is
    /// `num_colors`-colorable.
    pub formula: CnfFormula,
    /// Decoder state (identical to the non-incremental encode; selector
    /// variables live after all vertex blocks).
    pub decode: DecodeMap,
    /// `selectors[g]` = the positive literal of group `g`'s selector
    /// variable; assuming it activates the group.
    pub selectors: Vec<Lit>,
    /// `groups[v]` = the group id of vertex `v` (the caller's mapping,
    /// kept for diagnostics).
    pub groups: Vec<u32>,
    /// Wall time spent encoding (the `encode_grouped` span's duration).
    pub cnf_translation: Duration,
}

impl GroupedEncoding {
    pub(crate) fn from_parts(
        (base, selectors): (EncodedColoring, Vec<Lit>),
        groups: &[u32],
    ) -> Self {
        GroupedEncoding {
            formula: base.formula,
            decode: base.decode,
            selectors,
            groups: groups.to_vec(),
            cnf_translation: base.cnf_translation,
        }
    }

    /// Number of groups (max group id + 1; ids need not all be populated).
    #[must_use]
    pub fn num_groups(&self) -> u32 {
        self.selectors.len() as u32
    }

    /// The selector literal activating `group`.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    #[must_use]
    pub fn selector_of(&self, group: u32) -> Lit {
        self.selectors[group as usize]
    }

    /// Maps a failed-assumption literal back to the group it activates, or
    /// `None` for literals that are not positive selector occurrences.
    #[must_use]
    pub fn group_of(&self, selector: Lit) -> Option<u32> {
        self.selectors
            .iter()
            .position(|&s| s == selector)
            .map(|g| g as u32)
    }

    /// The assumption vector activating exactly the given groups
    /// (ascending group-id order for determinism).
    #[must_use]
    pub fn assumptions_for<I>(&self, groups: I) -> Vec<Lit>
    where
        I: IntoIterator<Item = u32>,
    {
        let mut ids: Vec<u32> = groups.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(|g| self.selector_of(g)).collect()
    }

    /// The assumption vector activating every group.
    #[must_use]
    pub fn all_assumptions(&self) -> Vec<Lit> {
        self.selectors.clone()
    }
}

/// Encodes the K-coloring problem of `graph` with one activation selector
/// per vertex group, for assumption-based group-core extraction (see
/// [`GroupedEncoding`]). `groups[v]` is the group id of vertex `v`; for a
/// routing conflict graph, the subnet's net id.
///
/// # Panics
///
/// Panics if `groups.len() != graph.num_vertices()`.
pub fn encode_coloring_grouped(
    graph: &CspGraph,
    k: u32,
    groups: &[u32],
    encoding: &Encoding,
) -> GroupedEncoding {
    let emitted = emit(
        graph,
        k,
        encoding,
        SymmetryHeuristic::None,
        Selectors::PerGroup(groups),
        &Telemetry::default(),
    );
    GroupedEncoding::from_parts(emitted, groups)
}

/// Which activation selectors [`emit`] adds to the coloring CNF.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Selectors<'a> {
    /// None: the plain encoding of [`encode_coloring`].
    None,
    /// One selector per track, emitted after the symmetry restrictions
    /// (see [`IncrementalEncoding`]).
    PerTrack,
    /// One selector per vertex group guarding its clauses, with no
    /// symmetry restrictions (see [`GroupedEncoding`]).
    PerGroup(&'a [u32]),
}

/// Shifts a scheme-local clause into the variable block at `offset`.
fn shift(lits: &[Lit], offset: u32) -> impl Iterator<Item = Lit> + '_ {
    lits.iter()
        .map(move |&l| Lit::from_code(l.code() + 2 * offset))
}

/// The one body behind every encoder: the K-coloring CNF of `graph`
/// plus the `selectors` policy's activation literals, recorded into
/// `telemetry` (see the module docs). Selector variables live after all
/// vertex blocks, so the [`DecodeMap`] never depends on the policy.
///
/// # Panics
///
/// Panics for [`Selectors::PerTrack`] with `k == 0`, and for
/// [`Selectors::PerGroup`] without exactly one group id per vertex.
pub(crate) fn emit(
    graph: &CspGraph,
    k: u32,
    encoding: &Encoding,
    symmetry: SymmetryHeuristic,
    selectors: Selectors<'_>,
    telemetry: &Telemetry,
) -> (EncodedColoring, Vec<Lit>) {
    let tracer = &telemetry.tracer;
    let n = graph.num_vertices();
    let groups: &[u32] = match selectors {
        Selectors::None => &[],
        Selectors::PerTrack => {
            assert!(k > 0, "incremental encoding needs at least one track");
            &[]
        }
        Selectors::PerGroup(groups) => {
            assert_eq!(
                groups.len(),
                n,
                "need exactly one group id per vertex ({} ids for {n} vertices)",
                groups.len()
            );
            groups
        }
    };
    let num_groups = groups.iter().map(|&g| g + 1).max().unwrap_or(0);
    let (span_name, width_field) = match selectors {
        Selectors::None => ("encode", "k"),
        Selectors::PerTrack => ("encode_incremental", "upper"),
        Selectors::PerGroup(_) => ("encode_grouped", "k"),
    };
    let mut fields = vec![
        ("encoding", FieldValue::from(encoding.name())),
        (width_field, FieldValue::from(k)),
        ("vertices", FieldValue::from(n)),
        ("edges", FieldValue::from(graph.num_edges())),
    ];
    if let Selectors::PerGroup(_) = selectors {
        fields.push(("groups", FieldValue::from(num_groups)));
    }
    let span = tracer.span_with(span_name, fields);

    let mut formula = CnfFormula::new();
    let mut selector_lits = Vec::new();
    let decode = if k == 0 {
        if let Selectors::PerGroup(_) = selectors {
            // No tracks at all: each populated group is unroutable by
            // itself, expressed as a unit clause against its selector (one
            // per group, not per vertex, so cores stay minimal).
            selector_lits = (0..num_groups)
                .map(|_| Lit::positive(formula.new_var()))
                .collect();
            let mut populated = vec![false; num_groups as usize];
            for &g in groups {
                if !std::mem::replace(&mut populated[g as usize], true) {
                    formula.add_clause([!selector_lits[g as usize]]);
                }
            }
        } else if n > 0 {
            formula.add_clause(std::iter::empty());
        }
        DecodeMap {
            scheme: SchemeCnf::default(),
            offsets: vec![0; n],
            num_colors: 0,
        }
    } else {
        let scheme = encoding.emit_traced(k, tracer);
        formula = CnfFormula::with_vars(scheme.num_vars * n as u32);
        let offsets: Vec<u32> = (0..n as u32).map(|v| v * scheme.num_vars).collect();
        if let Selectors::PerGroup(_) = selectors {
            selector_lits = (0..num_groups)
                .map(|_| Lit::positive(formula.new_var()))
                .collect();
        }
        // A grouped vertex's clauses are guarded by its group's selector:
        // deactivating the group releases them.
        let guard = |v: u32| -> Option<Lit> {
            match selectors {
                Selectors::PerGroup(groups) => Some(!selector_lits[groups[v as usize] as usize]),
                _ => None,
            }
        };
        let group_span =
            matches!(selectors, Selectors::PerGroup(_)).then(|| tracer.span("group_selectors"));
        let negations: Vec<Vec<Lit>> = scheme
            .patterns
            .iter()
            .map(|p| p.negation_clause())
            .collect();
        // Symmetry restrictions come from a clique and vertex order of the
        // full graph and turn unsound once groups are deleted.
        let restricted = match selectors {
            Selectors::PerGroup(_) => Vec::new(),
            _ => symmetry.restricted_sequence(graph, k),
        };

        // Reserve the whole formula up front so the literal buffer never
        // reallocates while it is filled.
        let lens = |clauses: &[Vec<Lit>]| clauses.iter().map(Vec::len).sum::<usize>();
        let (num_edges, neg_lits) = (graph.num_edges(), lens(&negations));
        // Upper bound: a grouped clause carries at most one guard per
        // endpoint.
        let guards = usize::from(group_span.is_some());
        let mut clauses = n * scheme.structural.len() + num_edges * negations.len();
        let mut literals = n * (lens(&scheme.structural) + guards * scheme.structural.len())
            + num_edges * (2 * neg_lits + 2 * guards * negations.len());
        for p in 0..restricted.len() {
            let restricted_negations = &negations[p + 1..k as usize];
            clauses += restricted_negations.len();
            literals += lens(restricted_negations);
        }
        if let Selectors::PerTrack = selectors {
            clauses += n * negations.len();
            literals += n * (neg_lits + negations.len());
        }
        formula.reserve(clauses, literals);

        // Structural clauses, one copy per vertex.
        let structural = tracer.span("structural_clauses");
        for (v, &offset) in offsets.iter().enumerate() {
            let g = guard(v as u32);
            for clause in &scheme.structural {
                formula.add_clause(g.into_iter().chain(shift(clause, offset)));
            }
        }
        structural.counter("clauses", formula.num_clauses() as u64);
        drop(structural);

        // Conflict clauses: for each edge and common value, forbid both
        // patterns simultaneously (only while both endpoints' groups are
        // active).
        let conflicts = tracer.span("conflict_clauses");
        let before_conflicts = formula.num_clauses();
        for (u, v) in graph.edges() {
            let gu = guard(u);
            let gv = guard(v).filter(|&g| Some(g) != gu);
            let (ou, ov) = (offsets[u as usize], offsets[v as usize]);
            for neg in &negations {
                formula.add_clause(
                    gu.into_iter()
                        .chain(gv)
                        .chain(shift(neg, ou))
                        .chain(shift(neg, ov)),
                );
            }
        }
        conflicts.counter("clauses", (formula.num_clauses() - before_conflicts) as u64);
        drop(conflicts);

        if let Some(group_span) = group_span {
            group_span.counter("selectors", u64::from(num_groups));
        } else {
            // Symmetry restrictions: position p (0-based) may only use
            // colors 0..=p.
            let sym = tracer.span_with(
                "symmetry_breaking",
                [("heuristic", FieldValue::from(symmetry.to_string()))],
            );
            let before_sym = formula.num_clauses();
            for (p, &v) in restricted.iter().enumerate() {
                for d in (p as u32 + 1)..k {
                    formula.add_clause(shift(&negations[d as usize], offsets[v as usize]));
                }
            }
            sym.counter("clauses", (formula.num_clauses() - before_sym) as u64);
        }

        if let Selectors::PerTrack = selectors {
            // Track d's selector disables pattern d for every vertex.
            let track_span = tracer.span("activation_selectors");
            let before = formula.num_clauses();
            selector_lits = (0..k).map(|_| Lit::positive(formula.new_var())).collect();
            for &offset in &offsets {
                for (d, neg) in negations.iter().enumerate() {
                    formula
                        .add_clause(std::iter::once(!selector_lits[d]).chain(shift(neg, offset)));
                }
            }
            track_span.counter("clauses", (formula.num_clauses() - before) as u64);
        }
        debug_assert_eq!(formula.num_clauses(), clauses);
        debug_assert!(formula.stats().num_literals <= literals);
        DecodeMap {
            scheme,
            offsets,
            num_colors: k,
        }
    };

    let stats = formula.stats();
    span.counter("variables", stats.num_vars as u64);
    span.counter("clauses", stats.num_clauses as u64);
    span.counter("literals", stats.num_literals as u64);
    let cnf_translation = span.close();
    let metrics = &telemetry.metrics;
    if selectors == Selectors::None && metrics.is_enabled() {
        let name = encoding.name();
        let micros = u64::try_from(cnf_translation.as_micros()).unwrap_or(u64::MAX);
        metrics
            .histogram(&format!("encode.wall_us.{name}"))
            .record(micros);
        metrics
            .histogram(&format!("encode.vars.{name}"))
            .record(stats.num_vars as u64);
        metrics
            .histogram(&format!("encode.clauses.{name}"))
            .record(stats.num_clauses as u64);
        metrics
            .histogram(&format!("encode.literals.{name}"))
            .record(stats.num_literals as u64);
    }
    let encoded = EncodedColoring {
        formula,
        decode,
        cnf_translation,
    };
    (encoded, selector_lits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::EncodingId;

    fn triangle() -> CspGraph {
        CspGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn zero_colors_nonempty_graph_is_trivially_unsat() {
        let enc = encode_coloring(
            &triangle(),
            0,
            &EncodingId::Log.encoding(),
            SymmetryHeuristic::None,
        );
        assert_eq!(enc.formula.num_clauses(), 1);
        assert!(enc.formula.clause(0).is_empty());
    }

    #[test]
    fn zero_colors_empty_graph_is_trivially_sat() {
        let enc = encode_coloring(
            &CspGraph::new(0),
            0,
            &EncodingId::Log.encoding(),
            SymmetryHeuristic::None,
        );
        assert_eq!(enc.formula.num_clauses(), 0);
    }

    #[test]
    fn muldirect_triangle_clause_counts() {
        // Per vertex: 1 ALO clause. Per edge: 3 conflict clauses.
        let enc = encode_coloring(
            &triangle(),
            3,
            &EncodingId::Muldirect.encoding(),
            SymmetryHeuristic::None,
        );
        assert_eq!(enc.formula.num_clauses(), 3 + 9);
        assert_eq!(enc.formula.num_vars(), 9);
    }

    #[test]
    fn direct_triangle_clause_counts() {
        // Per vertex: 1 ALO + 3 AMO. Per edge: 3 conflicts.
        let enc = encode_coloring(
            &triangle(),
            3,
            &EncodingId::Direct.encoding(),
            SymmetryHeuristic::None,
        );
        assert_eq!(enc.formula.num_clauses(), 3 * 4 + 9);
    }

    #[test]
    fn table1_conflict_clause_shape_for_log() {
        // Table 1's log conflict clauses on a single edge, k = 3, are
        // 4-literal clauses (two 2-literal patterns negated).
        let g = CspGraph::from_edges(2, [(0, 1)]);
        let enc = encode_coloring(&g, 3, &EncodingId::Log.encoding(), SymmetryHeuristic::None);
        // 2 illegal-value clauses + 3 conflict clauses.
        assert_eq!(enc.formula.num_clauses(), 5);
        let conflicts: Vec<_> = enc.formula.iter().filter(|c| c.len() == 4).collect();
        assert_eq!(conflicts.len(), 3);
    }

    #[test]
    fn symmetry_restrictions_add_unit_like_clauses() {
        let without = encode_coloring(
            &triangle(),
            3,
            &EncodingId::Muldirect.encoding(),
            SymmetryHeuristic::None,
        );
        let with = encode_coloring(
            &triangle(),
            3,
            &EncodingId::Muldirect.encoding(),
            SymmetryHeuristic::S1,
        );
        // Sequence has 2 vertices: position 0 forbids colors 1,2 (2
        // clauses), position 1 forbids color 2 (1 clause).
        assert_eq!(
            with.formula.num_clauses(),
            without.formula.num_clauses() + 3
        );
    }

    #[test]
    fn ite_encodings_have_no_structural_clauses() {
        let enc = encode_coloring(
            &triangle(),
            5,
            &EncodingId::IteLog.encoding(),
            SymmetryHeuristic::None,
        );
        // Only conflict clauses: 3 edges × 5 values.
        assert_eq!(enc.formula.num_clauses(), 15);
    }

    #[test]
    fn incremental_encoding_adds_selectors_after_vertex_blocks() {
        let enc = encode_coloring_incremental(
            &triangle(),
            3,
            &EncodingId::Muldirect.encoding(),
            SymmetryHeuristic::None,
        );
        let per = enc.decode.scheme.num_vars;
        // Decode map identical to the plain encode; selectors appended.
        assert_eq!(enc.decode.offsets, vec![0, per, 2 * per]);
        assert_eq!(enc.formula.num_vars(), 3 * per + 3);
        assert_eq!(enc.upper(), 3);
        // Base clauses (3 ALO + 9 conflicts) + 3 vertices × 3 activations.
        assert_eq!(enc.formula.num_clauses(), 12 + 9);
    }

    #[test]
    fn incremental_assumption_vectors_probe_suffixes() {
        let enc = encode_coloring_incremental(
            &triangle(),
            3,
            &EncodingId::IteLinear.encoding(),
            SymmetryHeuristic::S1,
        );
        // Full-width probe assumes nothing; width 1 disables tracks 2 and
        // 1, highest first; width 0 disables everything.
        assert!(enc.assumptions_for_width(3).is_empty());
        assert_eq!(
            enc.assumptions_for_width(1),
            vec![enc.selectors[2], enc.selectors[1]]
        );
        assert_eq!(enc.assumptions_for_width(0).len(), 3);
        assert_eq!(enc.track_of(enc.selectors[2]), Some(2));
        assert_eq!(enc.track_of(!enc.selectors[2]), None);
    }

    #[test]
    fn grouped_encoding_guards_clauses_and_keeps_decode_map() {
        // Triangle, vertices 0 and 1 in group 0, vertex 2 in group 1.
        let enc = encode_coloring_grouped(
            &triangle(),
            3,
            &[0, 0, 1],
            &EncodingId::Muldirect.encoding(),
        );
        assert_eq!(enc.num_groups(), 2);
        // Vertex blocks first, then one selector variable per group.
        assert_eq!(enc.decode.offsets, vec![0, 3, 6]);
        assert_eq!(enc.formula.num_vars(), 9 + 2);
        // Same clause count as the ungrouped encode (3 ALO + 9 conflicts),
        // each clause merely widened by its guard literal(s).
        assert_eq!(enc.formula.num_clauses(), 3 + 9);
        // ALO clauses gain one guard; intra-group conflicts one, the
        // cross-group ones two.
        let lens: Vec<usize> = enc.formula.iter().map(<[Lit]>::len).collect();
        assert_eq!(lens.iter().filter(|&&l| l == 4).count(), 3 + 6);
        assert_eq!(lens.iter().filter(|&&l| l == 3).count(), 3);
        assert_eq!(enc.group_of(enc.selectors[1]), Some(1));
        assert_eq!(enc.group_of(!enc.selectors[1]), None);
        assert_eq!(enc.assumptions_for([1, 0, 1]), enc.all_assumptions());
    }

    #[test]
    fn grouped_zero_colors_emits_one_unit_guard_per_populated_group() {
        let enc = encode_coloring_grouped(&triangle(), 0, &[0, 2, 2], &EncodingId::Log.encoding());
        // Groups 0 and 2 are populated, group 1 is not.
        assert_eq!(enc.num_groups(), 3);
        assert_eq!(enc.formula.num_clauses(), 2);
        assert!(enc.formula.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn plain_encodings_emit_clauses_in_normal_order() {
        // The solver attaches a clause with strictly increasing literal
        // codes and no repeated variable straight from the formula; an
        // encoder that stopped emitting that order would silently move
        // every load onto the normalizing path.
        let graph = CspGraph::from_edges(
            6,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (0, 3),
                (3, 4),
                (4, 5),
                (1, 5),
            ],
        );
        for id in EncodingId::ALL {
            for symmetry in SymmetryHeuristic::ALL {
                for k in 1..=9 {
                    let enc = encode_coloring(&graph, k, &id.encoding(), symmetry);
                    for clause in &enc.formula {
                        assert!(
                            clause
                                .windows(2)
                                .all(|w| w[0].code() < w[1].code() && w[0].var() != w[1].var()),
                            "{id}/{symmetry} at k = {k} emits {clause:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn vertex_blocks_are_disjoint() {
        let enc = encode_coloring(
            &triangle(),
            4,
            &EncodingId::IteLinear.encoding(),
            SymmetryHeuristic::None,
        );
        let per = enc.decode.scheme.num_vars;
        assert_eq!(enc.decode.offsets, vec![0, per, 2 * per]);
        assert_eq!(enc.formula.num_vars(), 3 * per);
    }
}

//! One telemetry handle per run, and the one place it meets a solver.
//!
//! A run can feed four sinks: a [`Tracer`] (spans), a [`MetricsRegistry`]
//! (counters and histograms), a [`FlightRecorder`] (search-state samples)
//! and a caller's [`RunObserver`]. [`Telemetry`] bundles them into one
//! cloneable value that every request builder carries, and
//! [`Telemetry::attach`] is the only code that wires a [`CdclSolver`] to
//! them — so a new signal is added in one place and reaches every entry
//! point.

use std::fmt;
use std::sync::Arc;

use satroute_obs::{FlightRecorder, MetricsRegistry, SpanId, Tracer};

use crate::cdcl::CdclSolver;
use crate::run::{FanoutObserver, MetricsRecorder, RegistryObserver, RunObserver, TraceObserver};

/// Every telemetry sink of a run, as one cloneable value.
///
/// The `Default` is fully disabled: no trace, no metrics, no samples and
/// no observer, at one branch per solver boundary.
///
/// # Examples
///
/// ```
/// use satroute_cnf::{CnfFormula, Lit};
/// use satroute_obs::MetricsRegistry;
/// use satroute_solver::{CdclSolver, Telemetry};
///
/// let mut f = CnfFormula::new();
/// let a = f.new_var();
/// f.add_clause([Lit::positive(a)]);
///
/// let telemetry = Telemetry {
///     metrics: MetricsRegistry::new(),
///     ..Telemetry::default()
/// };
/// let mut solver = CdclSolver::new();
/// // No tracer, so there is no span to bridge onto: pass id 0.
/// let recorder = telemetry.attach(&mut solver, 0);
/// solver.add_formula(&f);
/// assert!(solver.solve().is_sat());
/// assert_eq!(recorder.snapshot().sat, Some(true));
/// assert!(telemetry.metrics.snapshot().counter("solver.decisions").is_some());
/// ```
#[derive(Clone, Default)]
pub struct Telemetry {
    /// Span destination; attached solvers bridge their event stream onto
    /// the span passed to [`Telemetry::attach`].
    pub tracer: Tracer,
    /// Metrics destination; attached solvers feed the `solver.*` family.
    pub metrics: MetricsRegistry,
    /// Flight recorder; attached solvers deposit search-state samples.
    pub flight: FlightRecorder,
    /// The caller's observer, receiving every attached solver's events.
    pub observer: Option<Arc<dyn RunObserver>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("tracer", &self.tracer)
            .field("metrics", &self.metrics)
            .field("flight", &self.flight)
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

impl Telemetry {
    /// Wires `solver` to every sink: the registry, the flight recorder,
    /// and an observer fanning events out to a fresh [`MetricsRecorder`],
    /// the caller's observer and (when tracing) a [`TraceObserver`] on
    /// `span`. Returns the recorder, whose snapshot is the run's
    /// [`RunMetrics`](crate::RunMetrics).
    ///
    /// Re-attaching a warm solver is how multi-probe sessions give each
    /// probe its own span and recorder; the registry counts only work
    /// done after the latest attach (see [`CdclSolver::set_metrics`]).
    pub fn attach(&self, solver: &mut CdclSolver, span: SpanId) -> Arc<MetricsRecorder> {
        solver.set_metrics(&self.metrics);
        solver.set_flight(&self.flight);
        let recorder = Arc::new(MetricsRecorder::new());
        let mut fanout = FanoutObserver::new().with(recorder.clone());
        if let Some(user) = &self.observer {
            fanout = fanout.with(user.clone());
        }
        if self.tracer.is_enabled() {
            fanout = fanout.with(Arc::new(TraceObserver::new(self.tracer.clone(), span)));
        }
        solver.set_observer(Arc::new(fanout));
        recorder
    }

    /// The scope of member `index` of a parallel run (a portfolio member
    /// or a conquered cube) whose own span is `span`: samples are stamped
    /// with `index`, and solvers attached through the scope also bridge
    /// their events onto `span` (when tracing) and, given a metric
    /// `family` such as `"portfolio.member_"`, into a per-member
    /// [`RegistryObserver`] under `<family><index>.` (when metrics are
    /// on).
    #[must_use]
    pub fn member(&self, index: usize, span: SpanId, family: Option<&str>) -> Telemetry {
        let mut sinks: Vec<Arc<dyn RunObserver>> = Vec::new();
        if self.tracer.is_enabled() {
            sinks.push(Arc::new(TraceObserver::new(self.tracer.clone(), span)));
        }
        if let (Some(family), true) = (family, self.metrics.is_enabled()) {
            sinks.push(Arc::new(RegistryObserver::new(
                &self.metrics,
                &format!("{family}{index}."),
            )));
        }
        sinks.extend(self.observer.clone());
        let observer: Option<Arc<dyn RunObserver>> = match sinks.len() {
            0 | 1 => sinks.pop(),
            _ => Some(Arc::new(
                sinks
                    .into_iter()
                    .fold(FanoutObserver::new(), FanoutObserver::with),
            )),
        };
        Telemetry {
            tracer: self.tracer.clone(),
            metrics: self.metrics.clone(),
            flight: self.flight.labelled(index as u64),
            observer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satroute_obs::TraceTree;

    #[test]
    fn member_scope_bridges_onto_its_span_and_family() {
        let tree = TraceTree::new();
        let telemetry = Telemetry {
            tracer: Tracer::to_sink(tree.clone()),
            metrics: MetricsRegistry::new(),
            flight: FlightRecorder::new(),
            observer: None,
        };
        let member_span = telemetry.tracer.span("member");
        let scope = telemetry.member(3, member_span.id(), Some("portfolio.member_"));
        let solve_span = telemetry.tracer.span("solve");
        let mut solver = CdclSolver::new();
        let recorder = scope.attach(&mut solver, solve_span.id());
        let mut f = satroute_cnf::CnfFormula::new();
        let a = f.new_var();
        f.add_clause([satroute_cnf::Lit::positive(a)]);
        solver.add_formula(&f);
        assert!(solver.solve().is_sat());
        drop(solve_span);
        drop(member_span);

        assert_eq!(recorder.snapshot().sat, Some(true));
        let snap = telemetry.metrics.snapshot();
        assert_eq!(snap.counter("portfolio.member_3.outcome.sat"), Some(1));
        let forest = tree.forest().unwrap();
        for name in ["member", "solve"] {
            let span = &forest.spans_named(name)[0];
            assert_eq!(span.marks.get("outcome").map(String::as_str), Some("sat"));
        }
        let samples = telemetry.flight.samples();
        assert!(!samples.is_empty());
        assert!(samples.iter().all(|s| s.member == Some(3)));
    }
}

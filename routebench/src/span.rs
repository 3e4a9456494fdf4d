//! The benchmark's own span recorder.
//!
//! Spans are recorded around each public layer call the benchmark makes:
//! name, start, end, parent span and request id. They stay in memory and
//! are written out as JSON lines when the run ends. A disabled recorder
//! ignores every call, so the untraced run shares the same code.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Request id of spans recorded outside any request (instance set-up).
pub const SETUP: u64 = u64::MAX;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call name, `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in microseconds since the recorder was created.
    pub start_us: u64,
    /// End, in microseconds since the recorder was created.
    pub end_us: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to ([`SETUP`] for set-up work).
    pub request: u64,
}

/// In-memory span and counter recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    counts: BTreeMap<&'static str, u64>,
    sums: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// A recorder that keeps nothing.
    pub fn off() -> Spans {
        Spans {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: SETUP,
            counts: BTreeMap::new(),
            sums: BTreeMap::new(),
        }
    }

    /// A recorder that keeps every span and count.
    pub fn on() -> Spans {
        Spans {
            on: true,
            ..Spans::off()
        }
    }

    /// An empty recorder sharing this one's state, clock and request, for
    /// another thread; merge it back with [`Spans::absorb`].
    pub fn fork(&self) -> Spans {
        Spans {
            on: self.on,
            epoch: self.epoch,
            request: self.request,
            ..Spans::off()
        }
    }

    /// Appends the spans and counts of a [`Spans::fork`]ed recorder.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (name, value) in other.counts {
            *self.counts.entry(name).or_insert(0) += value;
        }
        for (name, value) in other.sums {
            *self.sums.entry(name).or_insert(0.0) += value;
        }
    }

    /// Tags the spans recorded from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn us(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_micros()).unwrap_or(u64::MAX)
    }

    /// Opens a span that encloses the spans recorded until [`Spans::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_us: self.us(Instant::now()),
            end_us: 0,
            parent: self.open.last().copied(),
            request: self.request,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_us = self.us(Instant::now());
        }
    }

    /// Records a leaf span that started at `start` and ends now.
    pub fn record(&mut self, name: &'static str, start: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_us: self.us(start),
            end_us: self.us(Instant::now()),
            parent: self.open.last().copied(),
            request: self.request,
        };
        self.spans.push(span);
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&mut self, name: &'static str, value: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += value;
        }
    }

    /// Adds `value` to the real-valued sum `name`.
    pub fn count_f(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.sums.entry(name).or_insert(0.0) += value;
        }
    }

    /// The real-valued sum `name` (0 when never added to).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// The counter `name` (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Total seconds spent in spans named `name`, either inside requests
    /// or in set-up.
    pub fn total_s(&self, name: &str, in_requests: bool) -> f64 {
        let us: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name && (s.request != SETUP) == in_requests)
            .map(|s| s.end_us.saturating_sub(s.start_us))
            .sum();
        us as f64 / 1e6
    }

    /// Writes every span, then every counter, as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = if s.request == SETUP {
                "null".to_string()
            } else {
                s.request.to_string()
            };
            writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"request\":{request}}}",
                s.name, s.start_us, s.end_us
            )?;
        }
        for (name, value) in &self.counts {
            writeln!(out, "{{\"counter\":\"{name}\",\"value\":{value}}}")?;
        }
        for (name, value) in &self.sums {
            writeln!(out, "{{\"counter\":\"{name}\",\"value\":{value}}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_requests() {
        let mut s = Spans::on();
        s.set_request(3);
        s.begin("request");
        s.record("core.encode", Instant::now());
        s.end();
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[1].parent, Some(0));
        assert!(s.spans.iter().all(|x| x.request == 3));
        assert!(s.spans[0].end_us >= s.spans[1].end_us);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut s = Spans::off();
        s.begin("request");
        s.record("core.encode", Instant::now());
        s.count("encode.vars", 5);
        s.end();
        assert!(s.spans.is_empty());
        assert_eq!(s.counter("encode.vars"), 0);
    }
}

//! In-memory spans for the traced pass, written as JSONL at exit.
//!
//! The benchmark records spans from its own code, around the public
//! calls it makes into each layer; nothing inside the program is
//! instrumented. Every op opens one root span named `op`, and each
//! layer call is a span under it. A span's self time is its duration
//! minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::stats::median;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    /// Layer name, e.g. `stage.segment`.
    name: &'static str,
    /// Index of the op the span belongs to.
    op: usize,
    /// Index of the enclosing span, `None` for an op's root.
    parent: Option<usize>,
    /// Start, relative to the tracer's origin.
    start: Duration,
    /// End, relative to the tracer's origin.
    end: Duration,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans; see the [module docs](self).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    /// Opens a span under the innermost open span and returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Opens the root span of op `op`.
    pub fn begin_op(&mut self, op: usize) {
        assert!(self.open.is_empty(), "ops do not nest");
        self.op = op;
        self.enter("op");
    }

    /// Closes every open span, the op's root last. Also ends an op that
    /// stopped early on an error.
    pub fn end_op(&mut self) {
        while let Some(&id) = self.open.last() {
            self.exit(id);
        }
    }

    /// Self time of every span, by index.
    fn self_times(&self) -> Vec<Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration().saturating_sub(c))
            .collect()
    }

    /// Per layer name: the median over ops of the op's summed self time
    /// in that layer, in milliseconds. Ops that never entered a layer
    /// count as zero for it.
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let ops: Vec<usize> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.op)
            .collect();
        let mut per_op: BTreeMap<&'static str, BTreeMap<usize, f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            if s.parent.is_some() {
                *per_op.entry(s.name).or_default().entry(s.op).or_default() +=
                    t.as_secs_f64() * 1e3;
            }
        }
        per_op
            .into_iter()
            .map(|(name, by_op)| {
                let v: Vec<f64> = ops
                    .iter()
                    .map(|op| by_op.get(op).copied().unwrap_or(0.0))
                    .collect();
                (name, median(&v))
            })
            .collect()
    }

    /// Share of op wall time that the layer spans directly under each
    /// op root cover, in percent over all ops.
    pub fn coverage_pct(&self) -> f64 {
        let mut root = Duration::ZERO;
        let mut covered = Duration::ZERO;
        for s in &self.spans {
            match s.parent {
                None => root += s.duration(),
                Some(p) if self.spans[p].parent.is_none() => covered += s.duration(),
                Some(_) => {}
            }
        }
        if root.is_zero() {
            0.0
        } else {
            100.0 * covered.as_secs_f64() / root.as_secs_f64()
        }
    }

    /// The spans as JSONL, one object per line, followed by `extra`
    /// lines (the run's counters and per-layer summary).
    pub fn to_jsonl(&self, extra: &[(String, f64)]) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.op,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            )
            .expect("writing to a String cannot fail");
        }
        for (name, value) in extra {
            writeln!(out, "{{\"metric\":\"{name}\",\"value\":{value}}}")
                .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    #[test]
    fn self_time_excludes_children_and_coverage_counts_direct_children() {
        let mut t = Tracer::default();
        for op in 0..2 {
            t.begin_op(op);
            t.span("outer", || sleep(Duration::from_millis(1)));
            let outer = t.enter("parent");
            t.span("inner", || sleep(Duration::from_millis(2)));
            t.exit(outer);
            t.end_op();
        }
        let layers = t.layer_self_ms();
        assert!(layers["inner"] >= 2.0);
        assert!(layers["parent"] < layers["inner"]);
        let cov = t.coverage_pct();
        assert!(cov > 50.0 && cov <= 100.0, "{cov}");
        let jsonl = t.to_jsonl(&[("x".into(), 1.0)]);
        assert_eq!(jsonl.lines().count(), 9);
    }
}

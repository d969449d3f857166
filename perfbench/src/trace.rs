//! In-memory span recorder for the traced run: name, start, end, parent
//! span and run id, kept in a `Vec` and written out once at the end with a
//! self-time table per layer (the name's first dot-separated component).

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    pub run_id: String,
    origin: Instant,
    pub spans: Vec<Span>,
}

/// Per-name or per-layer totals of the self-time table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Tracer {
    pub fn new(run_id: String) -> Self {
        Tracer {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, start, Instant::now(), parent);
        r
    }

    /// Summed duration of every span named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Self time of each span: its duration minus the union of its
    /// children's intervals clipped to it.
    fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self-time table keyed by span name, and by layer.
    pub fn self_times(
        &self,
    ) -> (
        BTreeMap<&'static str, Totals>,
        BTreeMap<&'static str, Totals>,
    ) {
        let mut by_name: BTreeMap<&'static str, Totals> = BTreeMap::new();
        let mut by_layer: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            for t in [
                by_name.entry(s.name).or_default(),
                by_layer.entry(layer).or_default(),
            ] {
                t.count += 1;
                t.total_ms += s.ms();
                t.self_ms += own as f64 / 1e6;
            }
        }
        (by_name, by_layer)
    }

    /// Share of `[from, to)` covered by top-level spans, in percent.
    pub fn coverage_pct(&self, from: Instant, to: Instant) -> f64 {
        let (lo, hi) = (self.ns(from), self.ns(to));
        let mut top: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns.max(lo), s.end_ns.min(hi)))
            .filter(|(a, b)| b > a)
            .collect();
        top.sort_unstable();
        let (mut covered, mut reach) = (0u64, lo);
        for (a, b) in top {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        if hi > lo {
            100.0 * covered as f64 / (hi - lo) as f64
        } else {
            0.0
        }
    }

    /// The self-time table as text, layers by descending self time.
    pub fn table(&self) -> String {
        let (by_name, by_layer) = self.self_times();
        let mut out = format!("self time per layer (run {}):\n", self.run_id);
        let mut layers: Vec<_> = by_layer.into_iter().collect();
        layers.sort_by(|a, b| b.1.self_ms.total_cmp(&a.1.self_ms));
        for (layer, t) in layers {
            out.push_str(&format!(
                "  {layer:<10} self {:>10.1} ms  total {:>10.1} ms  spans {}\n",
                t.self_ms, t.total_ms, t.count
            ));
            for (name, t) in by_name
                .iter()
                .filter(|(n, _)| n.split('.').next() == Some(layer))
            {
                out.push_str(&format!(
                    "    {name:<28} self {:>10.1} ms  total {:>10.1} ms  spans {}\n",
                    t.self_ms, t.total_ms, t.count
                ));
            }
        }
        out
    }

    /// Every span as JSON, plus the self-time table.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"run_id\": \"{}\", \"spans\": [\n", self.run_id);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".into());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run_id\": \"{}\"}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                self.run_id,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        let (_, by_layer) = self.self_times();
        let rows: Vec<String> = by_layer
            .iter()
            .map(|(l, t)| {
                format!(
                    "\"{l}\": {{\"self_ms\": {}, \"total_ms\": {}, \"spans\": {}}}",
                    t.self_ms, t.total_ms, t.count
                )
            })
            .collect();
        out.push_str(&format!(
            "], \"self_time_by_layer\": {{{}}}}}\n",
            rows.join(", ")
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(t: &Tracer, ms: u64) -> Instant {
        t.origin + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut t = Tracer::new("r".into());
        let root = t.record("core.round", at(&t, 0), at(&t, 100), None);
        t.record("tsdb.commit", at(&t, 10), at(&t, 30), Some(root));
        // Overlaps the first child and pokes past the parent's end.
        t.record("core.checkpoint", at(&t, 20), at(&t, 120), Some(root));
        let (by_name, by_layer) = t.self_times();
        assert_eq!(by_name["core.round"].self_ms, 10.0);
        assert_eq!(by_name["tsdb.commit"].self_ms, 20.0);
        assert_eq!(by_layer["core"].count, 2);
        assert_eq!(by_layer["core"].self_ms, 110.0);
        assert!(t.table().contains("tsdb.commit"));
        assert!(t.to_json().contains("\"parent\": 0"));
    }

    #[test]
    fn coverage_counts_top_level_spans_inside_the_window() {
        let mut t = Tracer::new("r".into());
        t.record("a", at(&t, 0), at(&t, 40), None);
        let p = t.record("b", at(&t, 50), at(&t, 100), None);
        t.record("c", at(&t, 60), at(&t, 70), Some(p));
        let pct = t.coverage_pct(at(&t, 20), at(&t, 100));
        assert!((pct - 87.5).abs() < 1e-9, "{pct}");
    }
}

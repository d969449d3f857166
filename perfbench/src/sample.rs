//! One sample: what a worker process measured, and the line protocol that
//! carries it to the orchestrating process.
//!
//! ```text
//! metric <name> <value>      one per measured metric
//! steps <ms> <ms> ...        per-step latencies (rounds, requests, studies)
//! attempted <n>
//! failed <n>
//! fingerprint <text>         last line; the rest of the line verbatim
//! ```

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Default)]
pub struct SampleOut {
    pub metrics: BTreeMap<String, f64>,
    pub steps_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: String,
    /// The traced sample's spans, written out by the worker at exit.
    pub trace: Option<Tracer>,
}

impl SampleOut {
    pub fn new(fingerprint: String) -> Self {
        SampleOut {
            fingerprint,
            ..SampleOut::default()
        }
    }

    /// The end-to-end figures every workload measures in-process (peak RSS
    /// is read last, at exit).
    pub fn e2e(&mut self, setup_s: f64, run_s: f64, rounds_per_s: f64, cpu_s: f64) {
        for (k, v) in [
            ("setup_s", setup_s),
            ("run_s", run_s),
            ("rounds_per_s", rounds_per_s),
            ("cpu_s", cpu_s),
        ] {
            self.metrics.insert(k.into(), v);
        }
    }

    /// Attach the tracer with its coverage of the timed part.
    pub fn finish_trace(&mut self, tr: Tracer, timed_start: Instant, run_end: Instant) {
        self.metrics.insert(
            "obs.trace_coverage_pct".into(),
            tr.coverage_pct(timed_start, run_end),
        );
        self.trace = Some(tr);
    }

    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.metrics {
            out.push_str(&format!("metric {k} {v}\n"));
        }
        out.push_str("steps");
        for s in &self.steps_ms {
            out.push_str(&format!(" {s}"));
        }
        out.push('\n');
        out.push_str(&format!(
            "attempted {}\nfailed {}\n",
            self.attempted, self.failed
        ));
        out.push_str(&format!(
            "fingerprint {}\n",
            self.fingerprint.replace('\n', " ")
        ));
        out
    }

    pub fn parse(text: &str) -> Result<SampleOut, String> {
        let mut out = SampleOut::default();
        let mut saw_fp = false;
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let num = |s: &str| {
                s.parse::<f64>()
                    .map_err(|e| format!("bad number {s:?} in {line:?}: {e}"))
            };
            match tag {
                "metric" => {
                    let (k, v) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("bad line {line:?}"))?;
                    out.metrics.insert(k.to_string(), num(v)?);
                }
                "steps" => {
                    out.steps_ms = rest.split_whitespace().map(num).collect::<Result<_, _>>()?;
                }
                "attempted" => out.attempted = num(rest)? as u64,
                "failed" => out.failed = num(rest)? as u64,
                "fingerprint" => {
                    out.fingerprint = rest.to_string();
                    saw_fp = true;
                }
                _ => return Err(format!("unexpected sample line {line:?}")),
            }
        }
        if !saw_fp {
            return Err("sample printed no fingerprint".into());
        }
        Ok(out)
    }
}

/// Bytes per MB in every `_mb` metric.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Prometheus text → value per base metric name, summed over label sets.
/// Histograms contribute `<name>_sum` and `<name>_count`; buckets are
/// skipped.
pub fn counters_from_prometheus(text: &str) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let base = series.split('{').next().unwrap_or(series);
        if base.ends_with("_bucket") {
            continue;
        }
        if let Ok(v) = value.parse::<f64>() {
            *out.entry(base.to_string()).or_insert(0.0) += v;
        }
    }
    out
}

/// The per-layer metrics that are plain reads of the program's own
/// `manic_*` counters and histograms.
pub fn layer_counters(c: &BTreeMap<String, f64>, out: &mut BTreeMap<String, f64>) {
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let rows = [
        ("core.rounds", get("manic_core_rounds")),
        ("core.commit_ms", get("manic_core_commit_ms_sum")),
        (
            "core.checkpoint_ms",
            get("manic_core_checkpoint_write_ms_sum"),
        ),
        ("core.checkpoints", get("manic_core_checkpoint_writes")),
        (
            "core.checkpoint_mb",
            get("manic_core_checkpoint_bytes") / MIB,
        ),
        (
            "core.health_transitions",
            get("manic_core_health_transitions"),
        ),
        ("bdrmap.cycles", get("manic_bdrmap_cycles")),
        ("netsim.probes_sent", get("manic_netsim_probes_sent")),
        (
            "netsim.packets_forwarded",
            get("manic_netsim_packets_forwarded"),
        ),
        (
            "netsim.icmp_rate_limited",
            get("manic_netsim_icmp_rate_limited"),
        ),
        ("probing.probes_sent", get("manic_probing_probes_sent")),
        (
            "probing.answered_ratio",
            ratio(
                get("manic_probing_probes_answered"),
                get("manic_probing_probes_sent"),
            ),
        ),
        ("probing.traceroutes", get("manic_probing_traceroutes")),
        ("tsdb.wal_mb", get("manic_tsdb_wal_bytes") / MIB),
        ("tsdb.wal_fsyncs", get("manic_tsdb_wal_fsyncs")),
        ("tsdb.wal_appends", get("manic_tsdb_wal_appends")),
        (
            "inference.levelshift_runs",
            get("manic_inference_levelshift_runs"),
        ),
        (
            "inference.summary_backfills",
            get("manic_inference_summary_backfills"),
        ),
        (
            "inference.summary_windows_served",
            get("manic_inference_summary_windows_served"),
        ),
        (
            "inference.summary_window_fallbacks",
            get("manic_inference_summary_window_fallbacks"),
        ),
        (
            "inference.autocorr_windows",
            get("manic_inference_autocorr_windows"),
        ),
        (
            "inference.autocorr_asserted_ratio",
            ratio(
                get("manic_inference_autocorr_asserted"),
                get("manic_inference_autocorr_windows"),
            ),
        ),
    ];
    for (k, v) in rows {
        out.insert(k.to_string(), v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_protocol_round_trips() {
        let mut s = SampleOut::new("hash=00ff verdicts: congested=10.0.0.1,10.0.0.2".into());
        s.e2e(0.25, 3.5, 80.125, 6.0);
        s.steps_ms = vec![1.5, 2.0, 0.001];
        s.attempted = 3;
        let back = SampleOut::parse(&s.to_lines()).unwrap();
        assert_eq!(back.metrics, s.metrics);
        assert_eq!(back.steps_ms, s.steps_ms);
        assert_eq!((back.attempted, back.failed), (3, 0));
        assert_eq!(back.fingerprint, s.fingerprint);
        assert!(SampleOut::parse("metric a 1\n")
            .err()
            .unwrap()
            .contains("fingerprint"));
        assert!(SampleOut::parse("bogus\nfingerprint x\n").is_err());
    }

    #[test]
    fn prometheus_sums_label_sets_and_skips_buckets() {
        let text = "# TYPE manic_x counter\nmanic_x{vp=\"a\"} 2\nmanic_x{vp=\"b\"} 3\n\
                    manic_h_bucket{le=\"1\"} 4\nmanic_h_sum 12.5\nmanic_h_count 4\n";
        let c = counters_from_prometheus(text);
        assert_eq!(c["manic_x"], 5.0);
        assert_eq!(c["manic_h_sum"], 12.5);
        assert_eq!(c["manic_h_count"], 4.0);
        assert!(!c.contains_key("manic_h_bucket"));
    }
}

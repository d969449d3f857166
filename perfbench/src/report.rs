//! The metric catalogue, its validation, the fingerprint gate, and the one
//! JSON line the benchmark ends with.

/// One reported metric: name and unit, as listed in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

pub const MAX_END_TO_END: usize = 16;
pub const MAX_PER_LAYER: usize = 128;

/// End-to-end metrics, reported by every untraced run of every workload.
/// README.md defines each per workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("run_s", "s"),
    m("rounds_per_s", "1/s"),
    m("cpu_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run of every workload; a
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("worldgen.build_ms", "ms"),
    m("core.system_new_ms", "ms"),
    m("core.rounds", "count"),
    m("core.round_ms.p50", "ms"),
    m("core.round_ms.tail", "ms"),
    m("core.round_ms.tail_pct", "pct"),
    m("core.round_ms.max", "ms"),
    m("core.rounds_with_cycle", "count"),
    m("core.commit_ms", "ms"),
    m("core.checkpoint_ms", "ms"),
    m("core.checkpoints", "count"),
    m("core.checkpoint_mb", "MB"),
    m("core.finalize_ms", "ms"),
    m("core.arm_ms", "ms"),
    m("core.longitudinal_ms", "ms"),
    m("core.health_transitions", "count"),
    m("bdrmap.startup_ms", "ms"),
    m("bdrmap.cycles", "count"),
    m("bdrmap.cycles_per_vp_day", "1/day"),
    m("bdrmap.useful_ratio", "ratio"),
    m("netsim.probes_sent", "count"),
    m("netsim.packets_forwarded", "count"),
    m("netsim.icmp_rate_limited", "count"),
    m("probing.probes_sent", "count"),
    m("probing.answered_ratio", "ratio"),
    m("probing.traceroutes", "count"),
    m("probing.synthesize_ms", "ms"),
    m("tsdb.points", "count"),
    m("tsdb.series", "count"),
    m("tsdb.content_hash_ms", "ms"),
    m("tsdb.wal_mb", "MB"),
    m("tsdb.wal_fsyncs", "count"),
    m("tsdb.wal_appends", "count"),
    m("tsdb.disk_written_mb", "MB"),
    m("inference.levelshift_runs", "count"),
    m("inference.summary_backfills", "count"),
    m("inference.summary_windows_served", "count"),
    m("inference.summary_window_fallbacks", "count"),
    m("inference.autocorr_ms", "ms"),
    m("inference.autocorr_windows", "count"),
    m("inference.autocorr_asserted_ratio", "ratio"),
    m("inference.study_precision", "ratio"),
    m("inference.study_recall", "ratio"),
    m("serve.requests", "count"),
    m("serve.failed_ratio", "ratio"),
    m("serve.links_ms.p50", "ms"),
    m("serve.links_ms.tail", "ms"),
    m("serve.timeseries_ms.p50", "ms"),
    m("serve.timeseries_ms.tail", "ms"),
    m("serve.explain_ms.p50", "ms"),
    m("serve.explain_ms.tail", "ms"),
    m("serve.health_ms.p50", "ms"),
    m("serve.server_ms_mean", "ms"),
    m("serve.cache_hit_ratio", "ratio"),
    m("serve.shed", "count"),
    m("serve.rate_limited", "count"),
    m("serve.breaker_rejected", "count"),
    m("serve.snapshots_published", "count"),
    m("serve.sim_round_ms_mean", "ms"),
    m("serve.publish_ms", "ms"),
    m("serve.gen_late_ms.tail", "ms"),
    m("obs.audit_records", "count"),
    m("obs.step_count", "count"),
    m("obs.step_p50_ms", "ms"),
    m("obs.step_tail_ms", "ms"),
    m("obs.step_tail_pct", "pct"),
    m("obs.host_speed", "ratio"),
    m("obs.trace_overhead_pct", "pct"),
    m("obs.trace_coverage_pct", "pct"),
];

/// A metric name: starts with a letter or digit, at most 64 of letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Check both catalogues: sizes, name and unit syntax, and that no name is
/// used twice across them.
pub fn validate(end_to_end: &[MetricDef], per_layer: &[MetricDef]) -> Result<(), String> {
    if end_to_end.is_empty() || end_to_end.len() > MAX_END_TO_END {
        return Err(format!(
            "{} end-to-end metrics, want 1..={MAX_END_TO_END}",
            end_to_end.len()
        ));
    }
    if per_layer.is_empty() || per_layer.len() > MAX_PER_LAYER {
        return Err(format!(
            "{} per-layer metrics, want 1..={MAX_PER_LAYER}",
            per_layer.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for d in end_to_end.iter().chain(per_layer) {
        if !valid_name(d.name) {
            return Err(format!("invalid metric name {:?}", d.name));
        }
        if !valid_unit(d.unit) {
            return Err(format!("invalid unit {:?} for {}", d.unit, d.name));
        }
        if !seen.insert(d.name) {
            return Err(format!("metric {} listed twice", d.name));
        }
    }
    Ok(())
}

/// The correctness gate's comparison: every `(label, fingerprint)` must
/// equal the first. The error names the first label that differs.
pub fn same_fingerprint(what: &str, fps: &[(String, String)]) -> Result<(), String> {
    let Some((first_label, first)) = fps.first() else {
        return Err(format!("{what}: no fingerprints recorded"));
    };
    match fps.iter().find(|(_, fp)| fp != first) {
        None => Ok(()),
        Some((label, fp)) => Err(format!(
            "{what}: fingerprint of {label} differs from {first_label}:\n  {first_label}: {first}\n  {label}: {fp}"
        )),
    }
}

/// Cross-run half of the gate: the first run to see `key` records its
/// fingerprint under `dir`; every later run must reproduce it.
pub fn check_recorded(dir: &std::path::Path, key: &str, fingerprint: &str) -> Result<(), String> {
    let path = dir.join(key);
    match std::fs::read_to_string(&path) {
        Ok(recorded) if recorded == fingerprint => Ok(()),
        Ok(recorded) => Err(format!(
            "{key}: fingerprint differs from an earlier run of this build:\n  earlier: {recorded}\n  now:     {fingerprint}"
        )),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            std::fs::write(&path, fingerprint).map_err(|e| format!("write {}: {e}", path.display()))
        }
        Err(e) => Err(format!("read {}: {e}", path.display())),
    }
}

/// The benchmark's last stdout line. `values` must hold a finite value for
/// every metric of `defs`, in any order; extra entries are an error too,
/// so the line carries exactly the catalogue.
pub fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &std::collections::BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    if let Some(extra) = values.keys().find(|k| !defs.iter().any(|d| d.name == **k)) {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    let mut body = Vec::with_capacity(defs.len());
    for d in defs {
        let v = *values
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", d.name));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn catalogues_are_valid() {
        validate(END_TO_END, PER_LAYER).unwrap();
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn name_and_unit_syntax() {
        for ok in [
            "setup_s",
            "core.round_ms.p50",
            "a",
            "9-lives",
            &"x".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "pct%",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "1/s", "%", "count", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn catalogue_limits_and_duplicates() {
        let many: Vec<MetricDef> = (0..17).map(|_| m("x", "s")).collect();
        assert!(validate(&many, PER_LAYER)
            .unwrap_err()
            .contains("end-to-end"));
        assert!(validate(&[], PER_LAYER).is_err());
        let layers: Vec<MetricDef> = (0..129).map(|_| m("y", "s")).collect();
        assert!(validate(END_TO_END, &layers)
            .unwrap_err()
            .contains("per-layer"));
        let dup = [m("setup_s", "s"), m("setup_s", "ms")];
        assert!(validate(&dup, PER_LAYER).unwrap_err().contains("twice"));
        // A name may not repeat across the two catalogues either.
        assert!(validate(END_TO_END, &[m("run_s", "s")])
            .unwrap_err()
            .contains("twice"));
        assert!(validate(&[m("bad name", "s")], PER_LAYER).is_err());
    }

    #[test]
    fn fingerprints_must_all_match() {
        let fp = |l: &str, f: &str| (l.to_string(), f.to_string());
        assert!(same_fingerprint("w", &[fp("a", "x"), fp("b", "x")]).is_ok());
        let err =
            same_fingerprint("w", &[fp("a", "x"), fp("b", "x"), fp("traced", "y")]).unwrap_err();
        assert!(
            err.contains("traced") && err.contains("differs from a"),
            "{err}"
        );
        assert!(same_fingerprint("w", &[]).is_err());
    }

    #[test]
    fn recorded_fingerprints_must_repeat() {
        let dir = std::env::temp_dir().join(format!("perfbench-fp-{}", std::process::id()));
        check_recorded(&dir, "run-us-7", "hash=1").unwrap();
        check_recorded(&dir, "run-us-7", "hash=1").unwrap();
        check_recorded(&dir, "run-us-8", "hash=2").unwrap();
        let err = check_recorded(&dir, "run-us-7", "hash=3").unwrap_err();
        assert!(
            err.contains("earlier: hash=1") && err.contains("now:     hash=3"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn render_requires_exactly_the_catalogue() {
        let defs = [m("a_s", "s"), m("b_ms", "ms")];
        let mut v = BTreeMap::new();
        v.insert("a_s", 1.5);
        assert!(render(true, 1, 0, &defs, &v).unwrap_err().contains("b_ms"));
        v.insert("b_ms", 0.000_125);
        let line = render(true, 3, 0, &defs, &v).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"b_ms\": {\"value\": 0.000125, \"unit\": \"ms\"}}}"
        );
        v.insert("b_ms", f64::NAN);
        assert!(render(true, 1, 0, &defs, &v).is_err());
        v.insert("b_ms", 1.0);
        v.insert("c", 1.0);
        assert!(render(true, 1, 0, &defs, &v)
            .unwrap_err()
            .contains("catalogue"));
    }

    /// `BENCHMARK.json` at the repository root lists the same metrics with
    /// the same units as these catalogues.
    #[test]
    fn benchmark_json_matches_catalogues() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = text.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "metric count in {path}"
        );
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(text.contains(&entry), "{path} lacks {entry}");
        }
    }
}

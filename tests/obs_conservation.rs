//! Probe-conservation invariant over the whole instrumented pipeline.
//!
//! This test lives alone in its own integration-test binary on purpose: it
//! asserts *exact* equalities over the process-wide metrics registry, so no
//! other test may share the process and probe concurrently.

use manic_core::{System, SystemConfig};
use manic_netsim::time::{datetime_to_sim, Date};
use manic_scenario::worlds::toy;

/// Every probe `Network::send_probe` accepts must be accounted for by
/// exactly one outcome counter — answered (echo reply / time exceeded),
/// unroutable, or a named drop reason. A silent-drop path (an early return
/// that forgets to count) breaks the equality and fails here.
#[test]
fn probes_sent_equals_sum_of_outcomes_and_metrics_cover_subsystems() {
    let mut sys = System::new(toy(1), SystemConfig::default());
    // Evening window: includes the scripted congestion episode, so the
    // level-shift detector has something to find.
    let from = datetime_to_sim(Date::new(2016, 6, 7), 22, 0, 0);
    let to = from + 8 * 3600;
    sys.run_packet_mode(from, to);
    for vi in 0..sys.vps.len() {
        sys.arm_reactive_loss(vi, from, to);
        sys.snapshot(vi, to, 8 * 3600);
    }

    let r = manic_obs::registry();
    let sent = r.counter_value("manic_netsim_probes_sent");
    let answered = r.counter_value("manic_netsim_probe_echo_reply")
        + r.counter_value("manic_netsim_probe_time_exceeded");
    let unroutable = r.counter_value("manic_netsim_probe_unroutable");
    let dropped = r.sum_counters_with_prefix("manic_netsim_probe_dropped");
    assert!(sent > 0, "pipeline sent no probes");
    assert_eq!(
        sent,
        answered + unroutable + dropped,
        "conservation violated: sent={sent} answered={answered} \
         unroutable={unroutable} dropped={dropped} — some send_probe exit \
         path is not incrementing an outcome counter"
    );

    // The probing layer's own ledger must balance the same way.
    let p_sent = r.sum_counters_with_prefix("manic_probing_probes_sent");
    let p_accounted = r.sum_counters_with_prefix("manic_probing_probes_answered")
        + r.sum_counters_with_prefix("manic_probing_probes_timed_out")
        + r.sum_counters_with_prefix("manic_probing_probes_mismatched")
        + r.sum_counters_with_prefix("manic_probing_probes_lost");
    assert!(p_sent > 0);
    assert_eq!(p_sent, p_accounted, "TSLP sample classification must be total");

    // A pipeline run leaves nonzero counters in at least five subsystems.
    let subsystems = [
        "manic_netsim_",
        "manic_probing_",
        "manic_bdrmap_",
        "manic_inference_",
        "manic_core_",
    ];
    for prefix in subsystems {
        assert!(
            r.sum_counters_with_prefix(prefix) > 0,
            "no nonzero counters under {prefix}"
        );
    }

    // Every bdrmap cycle is counted under exactly one reason.
    let cycles = r.counter_value("manic_bdrmap_cycles");
    assert!(cycles >= sys.vps.len() as u64, "one startup cycle per VP at least");
    assert_eq!(
        cycles,
        r.sum_counters_with_prefix("manic_bdrmap_cycles_by_reason"),
        "per-reason cycle counters must sum to the total"
    );

    // The Prometheus rendering is well-formed: every non-comment line is
    // `name[{labels}] value`, every metric family has exactly one TYPE line.
    let text = r.render_prometheus();
    let mut type_lines = std::collections::HashSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let fam = parts.next().expect("family name");
            let kind = parts.next().expect("metric kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "bad TYPE kind in {line:?}"
            );
            assert!(type_lines.insert(fam.to_string()), "duplicate TYPE for {fam}");
        } else if !line.is_empty() {
            let (name_part, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name_part.is_empty());
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "unparseable sample value in {line:?}"
            );
        }
    }
    assert!(type_lines.len() >= 10, "expected a rich registry, got {}", type_lines.len());
}

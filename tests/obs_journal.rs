//! Journal and audit-trail integration: the control-loop behaviors the
//! fault-recovery suite asserts through tsdb annotations must also be
//! *observable* — health transitions as journal events at the sim times
//! they happened, and congestion verdicts explainable from the audit trail.
//!
//! Tests here only append to the process-wide journal/audit singletons and
//! assert "contains" (never exact counts), so they are safe to run in
//! parallel within this binary.

use manic_core::{System, SystemConfig};
use manic_netsim::fault::{FaultEvent, FaultKind, FaultScope};
use manic_netsim::time::{datetime_to_sim, Date};
use manic_obs::Value;
use manic_probing::tslp::ROUND_SECS;
use manic_scenario::worlds::{toy, toy_asns};

fn field_str<'a>(ev: &'a manic_obs::Event, key: &str) -> &'a str {
    match ev.field(key) {
        Some(Value::Str(s)) => s.as_str(),
        other => panic!("field {key} missing or not a string: {other:?}"),
    }
}

/// Interface silence walks the task's health machine down the ladder; every
/// transition must surface as a `health_transition` journal event stamped
/// with the sim time of the round that observed it.
#[test]
fn health_transitions_appear_as_journal_events_at_sim_times() {
    let mut sys = System::new(toy(1), SystemConfig::default());
    let from = datetime_to_sim(Date::new(2016, 6, 7), 6, 0, 0);
    sys.run_bdrmap_cycle(0, from);
    let gt = &sys.world.links_between(toy_asns::ACME, toy_asns::VIDCO)[0];
    let far_ip = gt.far_addr_from(toy_asns::ACME);
    let ifc = sys.world.net.topo.iface_by_addr(far_ip).expect("far iface");
    sys.world.net.fault.push(FaultEvent::window(
        FaultKind::IfaceSilence,
        FaultScope::Iface(ifc.id),
        from,
        from + 8 * 3600,
    ));
    let to = from + 6 * 3600;
    sys.run_packet_mode(from, to);

    let far = far_ip.to_string();
    let transitions: Vec<manic_obs::Event> = manic_obs::journal()
        .snapshot()
        .into_iter()
        .filter(|e| e.name == "health_transition" && field_str(e, "far") == far)
        .collect();
    assert!(
        !transitions.is_empty(),
        "no health_transition events for the silenced link {far}"
    );
    for ev in &transitions {
        assert!(
            ev.t >= from && ev.t < to,
            "event time {} outside the run window [{from}, {to})",
            ev.t
        );
        assert_eq!(
            (ev.t - from) % ROUND_SECS,
            0,
            "transitions are observed on the probing-round grid"
        );
        assert_eq!(field_str(ev, "vp"), "acme-nyc");
    }
    // The ladder is walked in order: degraded before quarantined.
    let order: Vec<&str> = transitions.iter().map(|e| field_str(e, "to")).collect();
    let degraded = order.iter().position(|s| *s == "degraded");
    let quarantined = order.iter().position(|s| *s == "quarantined");
    assert!(degraded.is_some(), "expected a degraded transition, got {order:?}");
    assert!(quarantined.is_some(), "silence outlasts quarantine: {order:?}");
    assert!(degraded < quarantined, "out-of-order transitions: {order:?}");

    // Health-transition counters agree that transitions happened.
    assert!(
        manic_obs::registry()
            .sum_counters_with_prefix("manic_core_health_transitions")
            > 0
    );
}

/// Every bdrmap cycle says why it ran: the startup cycle is `scheduled`,
/// and a far end answering from the wrong address (§3.2) yields a
/// `reactive` one at a later sim time.
#[test]
fn bdrmap_cycle_events_carry_their_reason() {
    let mut sys = System::new(toy(2), SystemConfig::default());
    let from = datetime_to_sim(Date::new(2016, 6, 8), 6, 0, 0);
    sys.run_bdrmap_cycle(0, from);
    // The cdnco link: the health-transition test above owns the vidco one's
    // journal events.
    let gt = &sys.world.links_between(toy_asns::ACME, toy_asns::CDNCO)[0];
    let ifc = sys.world.net.topo.iface_by_addr(gt.far_addr_from(toy_asns::ACME)).expect("iface");
    sys.world.net.fault.push(FaultEvent::window(
        FaultKind::Renumber { alias: manic_netsim::Ipv4(0xC0A8_0002) },
        FaultScope::Iface(ifc.id),
        from + 3600,
        from + 8 * 3600,
    ));
    sys.run_packet_mode(from, from + 3 * 3600);

    let reasons: Vec<(i64, String)> = manic_obs::journal()
        .snapshot()
        .into_iter()
        .filter(|e| e.name == "bdrmap_cycle" && field_str(e, "vp") == "acme-nyc")
        .filter(|e| e.t >= from && e.t < from + 3 * 3600)
        .map(|e| (e.t, field_str(&e, "reason").to_string()))
        .collect();
    assert!(reasons.contains(&(from, "scheduled".into())), "{reasons:?}");
    assert!(
        reasons.iter().any(|(t, r)| r == "reactive" && *t > from + 3600),
        "renumbering must trigger a reactive cycle: {reasons:?}"
    );
    for (_, r) in &reasons {
        assert!(matches!(r.as_str(), "scheduled" | "reactive" | "retry"), "{r}");
    }
}

/// Every congested verdict must be explainable after the fact: the audit
/// trail for the congested link carries the level-shift evidence the
/// reactive trigger acted on.
#[test]
fn congested_verdict_is_explainable_from_the_audit_trail() {
    let mut sys = System::new(toy(1), SystemConfig::default());
    // Evening window with the scripted 4h congestion episode.
    let from = datetime_to_sim(Date::new(2016, 6, 7), 22, 0, 0);
    let to = from + 8 * 3600;
    sys.run_packet_mode(from, to);
    let n = sys.arm_reactive_loss(0, from, to);
    assert!(n >= 1, "congested peering should arm loss probing");

    let gt = &sys.world.links_between(toy_asns::ACME, toy_asns::CDNCO)[0];
    let far = gt.far_addr_from(toy_asns::ACME).to_string();
    let records = manic_obs::audit().explain(&far);
    let congested: Vec<_> = records
        .iter()
        .filter(|r| r.detector == "levelshift" && r.congested)
        .collect();
    assert!(
        !congested.is_empty(),
        "no congested levelshift verdict for {far}; links with records: {:?}",
        manic_obs::audit().links()
    );
    for rec in congested {
        assert!(rec.t >= from && rec.t <= to);
        let shift = rec
            .evidence
            .iter()
            .find(|e| e.kind == "level_shift")
            .expect("congested verdict without level-shift evidence");
        // The episode lies inside the analysis window and shows an actual
        // elevation over baseline.
        let num = |e: &manic_obs::Evidence, k: &str| match e.field(k) {
            Some(Value::I64(v)) => *v as f64,
            Some(Value::U64(v)) => *v as f64,
            Some(Value::F64(v)) => *v,
            other => panic!("field {k}: {other:?}"),
        };
        assert!(num(shift, "start_t") >= from as f64);
        assert!(num(shift, "end_t") <= to as f64);
        assert!(
            num(shift, "level_ms") > num(shift, "baseline_ms"),
            "level-shift evidence must show elevation"
        );
        // Masked-bin accounting is always present, even when zero.
        assert!(rec.evidence.iter().any(|e| e.kind == "masked_bins"));
    }
}

//! The in-process workloads: `manic run` (in memory or durable) and
//! `manic study`, repeated call for call through the crates' public API in
//! a fresh process per sample.

use crate::sample::{counters_from_prometheus, layer_counters, SampleOut, MIB};
use crate::trace::Tracer;
use crate::{procfs, THREADS, WORLD};
use manic_core::{
    run_longitudinal, DurabilityConfig, Durable, LongitudinalConfig, System, SystemConfig,
};
use manic_inference::autocorr::{analyze_window, INTERVALS_PER_DAY};
use manic_netsim::time::{date_to_sim, month_index, Date, SECS_PER_DAY};
use manic_netsim::AsNumber;
use manic_probing::tslp::ROUND_SECS;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

/// The CLI's default window start (2017-03-01, inside the study period).
pub fn t0() -> i64 {
    date_to_sim(Date::new(2017, 3, 1))
}

/// The serving layer's dashboard lookback, as `manic serve` publishes it.
const LOOKBACK_SECS: i64 = 6 * 3600;

/// `build_world_full` → `System::new`, as the CLI's `build_system` does.
fn build_system(seed: u64, tr: &mut Option<Tracer>) -> Result<System, String> {
    let t = Instant::now();
    let built = manic_worldgen::build_world_full(WORLD, seed).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let cfg = SystemConfig {
        threads: THREADS,
        ..SystemConfig::default()
    };
    let mut sys = System::new(built.world, cfg);
    sys.set_world_label(&built.name, built.fingerprint);
    if let Some(tr) = tr {
        tr.record("worldgen.build", t, t1, None);
        tr.record("core.system_new", t1, Instant::now(), None);
    }
    Ok(sys)
}

/// The window-start bdrmap cycle of every VP, one span each, under one
/// `bdrmap.startup` span. The engine (and `run_longitudinal`) would run
/// the same cycles at the same sim time on its first round.
fn startup_cycles(sys: &mut System, t: i64, tr: &mut Tracer) {
    let start = Instant::now();
    let mut kids = Vec::with_capacity(sys.vps.len());
    for vi in 0..sys.vps.len() {
        let s = Instant::now();
        sys.run_bdrmap_cycle(vi, t);
        kids.push((s, Instant::now()));
    }
    let parent = tr.record("bdrmap.startup", start, Instant::now(), None);
    for (s, e) in kids {
        tr.record("bdrmap.cycle", s, e, Some(parent));
    }
}

/// Share of `bdrmap_cycle` journal events that changed the probing set.
fn bdrmap_useful_ratio() -> f64 {
    let cycles = manic_obs::journal().events_where(|e| e.name == "bdrmap_cycle");
    let changed = cycles
        .iter()
        .filter(|e| {
            let n = |k| e.field(k).map(|v| v.to_string()).unwrap_or_default();
            n("discovered") != "0" || n("lost") != "0"
        })
        .count();
    if cycles.is_empty() {
        0.0
    } else {
        changed as f64 / cycles.len() as f64
    }
}

/// One `manic run --world us --hours <hours> --threads 2 [--data-dir ..]`.
///
/// Untraced, the call sequence is the CLI's: one `run_packet_mode` per
/// round in memory; durably, `run_window` per round (the CLI's single
/// call runs the same rounds and checkpoints on the same round count),
/// then `finalize`, `arm_reactive_loss` per VP and `content_hash`. Traced,
/// each VP's window-start bdrmap cycle is run explicitly first so its cost
/// has a span of its own.
pub fn run(
    seed: u64,
    hours: i64,
    data_dir: Option<&Path>,
    traced: bool,
) -> Result<SampleOut, String> {
    let mut tr = traced.then(|| Tracer::new(format!("run-{seed}-{}", std::process::id())));
    let from = t0();
    let to = from + hours * 3600;
    let setup_start = Instant::now();
    let mut sys = build_system(seed, &mut tr)?;
    let mut durable = match data_dir {
        None => None,
        Some(dir) => {
            let s = Instant::now();
            let cfg = DurabilityConfig {
                fsync: manic_tsdb::FsyncPolicy::parse("every-64").expect("valid policy"),
                checkpoint_every_rounds: 12,
                ..DurabilityConfig::default()
            };
            let d = Durable::create(&sys, WORLD, seed, dir, from, to, cfg)
                .map_err(|e| e.to_string())?;
            if let Some(tr) = &mut tr {
                tr.record("core.durable_create", s, Instant::now(), None);
            }
            Some(d)
        }
    };
    let timed_start = Instant::now();
    let (cpu0, written0) = (procfs::cpu_s()?, procfs::written_bytes()?);
    if let Some(tr) = &mut tr {
        startup_cycles(&mut sys, from, tr);
    }

    let reg = manic_obs::registry();
    let cycles = reg.counter("manic_bdrmap_cycles");
    let commit = reg.histogram("manic_core_commit_ms");
    let checkpoint = reg.histogram("manic_core_checkpoint_write_ms");
    let mut steps = Vec::new();
    let mut rounds_with_cycle = 0u64;
    let loop_start = Instant::now();
    let mut t = from;
    while t < to {
        let next = (t + ROUND_SECS).min(to);
        let before = (cycles.get(), commit.sum_ms(), checkpoint.sum_ms());
        let start = Instant::now();
        match &mut durable {
            Some(d) => {
                d.run_window(&mut sys, next, &|| false)
                    .map_err(|e| e.to_string())?;
            }
            None => {
                sys.run_packet_mode(t, next);
            }
        }
        let end = Instant::now();
        steps.push((end - start).as_secs_f64() * 1e3);
        if let Some(tr) = &mut tr {
            // The program times its own commit and checkpoint; place them
            // as children at the end of the round, where they run.
            let round = tr.record("core.round", start, end, None);
            let ms = |d: f64| std::time::Duration::from_secs_f64(d.max(0.0) / 1e3);
            let ckpt = ms(checkpoint.sum_ms() - before.2);
            let cmt = ms(commit.sum_ms() - before.1);
            let ckpt_start = end.checked_sub(ckpt).unwrap_or(start).max(start);
            let cmt_start = ckpt_start.checked_sub(cmt).unwrap_or(start).max(start);
            tr.record("tsdb.commit", cmt_start, ckpt_start, Some(round));
            if !ckpt.is_zero() {
                tr.record("core.checkpoint", ckpt_start, end, Some(round));
            }
            rounds_with_cycle += u64::from(cycles.get() > before.0);
        }
        t = next;
    }
    let loop_s = loop_start.elapsed().as_secs_f64();

    if let Some(d) = &mut durable {
        let s = Instant::now();
        d.finalize(&sys, t).map_err(|e| e.to_string())?;
        if let Some(tr) = &mut tr {
            tr.record("core.finalize", s, Instant::now(), None);
        }
    }
    let arm_start = Instant::now();
    let mut congested: Vec<String> = Vec::new();
    for vi in 0..sys.vps.len() {
        sys.arm_reactive_loss(vi, from, t);
        congested.extend(
            sys.vps[vi]
                .loss
                .targets
                .iter()
                .map(|x| x.far_ip.to_string()),
        );
    }
    congested.sort();
    congested.dedup();
    let hash_start = Instant::now();
    let hash = sys.store.content_hash();
    let run_end = Instant::now();
    let cpu = procfs::cpu_s()? - cpu0;
    let written = procfs::written_bytes()? - written0;

    let mut out = SampleOut::new(format!(
        "store: series={} points={} hash={hash:016x} verdicts: congested={}",
        sys.store.series_count(),
        sys.store.point_count(),
        congested.join(",")
    ));
    let run_s = (run_end - timed_start).as_secs_f64();
    out.e2e(
        (timed_start - setup_start).as_secs_f64(),
        run_s,
        steps.len() as f64 / loop_s,
        cpu,
    );
    out.steps_ms = steps;
    out.attempted = out.steps_ms.len() as u64;
    let Some(mut tr) = tr else { return Ok(out) };

    tr.record("core.arm", arm_start, hash_start, None);
    tr.record("tsdb.content_hash", hash_start, run_end, None);
    // One snapshot capture as `manic serve` publishes it at window end;
    // outside `run_s`.
    let hub = manic_serve::SnapshotHub::new();
    tr.span("serve.publish", None, || {
        hub.publish_from(&sys, t, LOOKBACK_SECS.min(t - from).max(1))
    });

    let c = counters_from_prometheus(&reg.render_prometheus());
    layer_counters(&c, &mut out.metrics);
    let vp_days = sys.vps.len() as f64 * (t - from) as f64 / SECS_PER_DAY as f64;
    let l = &mut out.metrics;
    l.insert("core.rounds_with_cycle".into(), rounds_with_cycle as f64);
    l.insert(
        "bdrmap.cycles_per_vp_day".into(),
        l["bdrmap.cycles"] / vp_days,
    );
    l.insert("bdrmap.useful_ratio".into(), bdrmap_useful_ratio());
    l.insert("tsdb.points".into(), sys.store.point_count() as f64);
    l.insert("tsdb.series".into(), sys.store.series_count() as f64);
    l.insert(
        "tsdb.disk_written_mb".into(),
        if durable.is_some() {
            written as f64 / MIB
        } else {
            0.0
        },
    );
    l.insert("obs.audit_records".into(), manic_obs::audit().len() as f64);
    for (metric, span) in [
        ("worldgen.build_ms", "worldgen.build"),
        ("core.system_new_ms", "core.system_new"),
        ("core.finalize_ms", "core.finalize"),
        ("core.arm_ms", "core.arm"),
        ("bdrmap.startup_ms", "bdrmap.startup"),
        ("tsdb.content_hash_ms", "tsdb.content_hash"),
        ("serve.publish_ms", "serve.publish"),
    ] {
        l.insert(metric.into(), tr.total_ms(span));
    }
    out.finish_trace(tr, timed_start, run_end);
    Ok(out)
}

/// Ground-truth congested AS pairs of `us_schedule()` whose episode
/// overlaps `[from, to)`, anchored to sibling-group minima and ordered,
/// the way `chaos_sweep` scores.
fn ground_truth(sys: &System, from: i64, to: i64) -> BTreeSet<(AsNumber, AsNumber)> {
    let (m0, m1) = (month_index(from), month_index(to - 1) + 1);
    manic_scenario::worlds::us_schedule()
        .iter()
        .filter(|e| e.start_month < m1 && e.end_month > m0)
        .map(|e| pair(sys, e.ap, e.tcp))
        .collect()
}

fn pair(sys: &System, a: AsNumber, b: AsNumber) -> (AsNumber, AsNumber) {
    let anchor = |x| {
        sys.world
            .artifacts
            .siblings(x)
            .into_iter()
            .min()
            .unwrap_or(x)
    };
    let (a, b) = (anchor(a), anchor(b));
    (a.min(b), a.max(b))
}

/// Precision and recall of merged links against ground truth: a link is
/// inferred congested with at least 5 days over the §6 4% bar; recall
/// counts only pairs the run observed at all.
fn score(sys: &System, links: &[manic_core::LinkDays], from: i64, to: i64) -> (f64, f64) {
    let gt = ground_truth(sys, from, to);
    let mut observed = BTreeSet::new();
    let mut predicted = BTreeSet::new();
    for l in links {
        let p = pair(sys, l.host_as, l.neighbor_as);
        if l.observed_days() > 0 {
            observed.insert(p);
        }
        if l.congested_days(0.04) >= 5 {
            predicted.insert(p);
        }
    }
    let tp = predicted.intersection(&gt).count();
    let fp = predicted.len() - tp;
    let fn_ = gt
        .iter()
        .filter(|p| observed.contains(*p) && !predicted.contains(*p))
        .count();
    let ratio = |num: usize, den: usize| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    (ratio(tp, tp + fp), ratio(tp, tp + fn_))
}

/// FNV-1a digest of everything `manic study` reports per merged link.
fn digest(links: &[manic_core::LinkDays]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for l in links {
        eat(format!(
            "{}|{}|{}|{}|{:?}|{}|{}",
            l.host_as.0,
            l.neighbor_as.0,
            l.near_ip,
            l.far_ip,
            l.rel,
            l.via_ixp,
            l.vps.join(",")
        )
        .as_bytes());
        for (d, m) in &l.day_masks {
            eat(&d.to_le_bytes());
            eat(&m.to_le_bytes());
        }
        for d in &l.observed {
            eat(&d.to_le_bytes());
        }
    }
    h
}

/// One `manic study --world us --days <days>`: `run_longitudinal` over the
/// window, then the digest and ground-truth score. Traced, a serial side
/// pass after the timed part re-runs synthesis and the autocorrelation
/// windows per VP so the longitudinal span splits into the two.
pub fn study(seed: u64, days: i64, traced: bool) -> Result<SampleOut, String> {
    let mut tr = traced.then(|| Tracer::new(format!("study-{seed}-{}", std::process::id())));
    let from = t0();
    let to = from + days * SECS_PER_DAY;
    let setup_start = Instant::now();
    let mut sys = build_system(seed, &mut tr)?;
    let timed_start = Instant::now();
    let cpu0 = procfs::cpu_s()?;
    if let Some(tr) = &mut tr {
        startup_cycles(&mut sys, from, tr);
    }
    let mut cfg = LongitudinalConfig::new(from, to);
    cfg.threads = THREADS;
    let long_start = Instant::now();
    let links = run_longitudinal(&mut sys, &cfg);
    let long_end = Instant::now();
    let fp = digest(&links);
    let (precision, recall) = score(&sys, &links, from, to);
    let run_end = Instant::now();
    let cpu = procfs::cpu_s()? - cpu0;

    let mut out = SampleOut::new(format!(
        "links={} linkdays={fp:016x} precision={precision:.4} recall={recall:.4}",
        links.len()
    ));
    let run_s = (run_end - timed_start).as_secs_f64();
    let rounds = (days * SECS_PER_DAY / ROUND_SECS) as f64;
    out.e2e(
        (timed_start - setup_start).as_secs_f64(),
        run_s,
        rounds / (long_end - long_start).as_secs_f64(),
        cpu,
    );
    // The unit a `manic study` user waits for is the whole study.
    out.steps_ms = vec![run_s * 1e3];
    out.attempted = 1;
    let Some(mut tr) = tr else { return Ok(out) };

    tr.record("core.longitudinal", long_start, long_end, None);
    tr.record("core.study_score", long_end, run_end, None);
    let c = counters_from_prometheus(&manic_obs::registry().render_prometheus());
    layer_counters(&c, &mut out.metrics);
    split_longitudinal(&sys, &cfg, &mut tr);
    let l = &mut out.metrics;
    l.insert("inference.study_precision".into(), precision);
    l.insert("inference.study_recall".into(), recall);
    l.insert(
        "bdrmap.cycles_per_vp_day".into(),
        l["bdrmap.cycles"] / (sys.vps.len() as f64 * days as f64),
    );
    l.insert("bdrmap.useful_ratio".into(), bdrmap_useful_ratio());
    l.insert("obs.audit_records".into(), manic_obs::audit().len() as f64);
    for (metric, span) in [
        ("worldgen.build_ms", "worldgen.build"),
        ("core.system_new_ms", "core.system_new"),
        ("core.longitudinal_ms", "core.longitudinal"),
        ("bdrmap.startup_ms", "bdrmap.startup"),
        ("probing.synthesize_ms", "probing.synthesize"),
        ("inference.autocorr_ms", "inference.autocorr"),
    ] {
        l.insert(metric.into(), tr.total_ms(span));
    }
    out.finish_trace(tr, timed_start, run_end);
    Ok(out)
}

/// Serial re-run of `run_longitudinal`'s per-VP work: synthesis, then the
/// autocorrelation windows (same window starts and step), each in a span
/// under one `side.longitudinal_split` root. Runs after the timed part and
/// after the counters were read, since `analyze_window` counts windows.
fn split_longitudinal(sys: &System, cfg: &LongitudinalConfig, tr: &mut Tracer) {
    let total_days = ((cfg.to - cfg.from) / SECS_PER_DAY) as usize;
    let wdays = cfg.autocorr.window_days;
    let mut starts: Vec<usize> = if total_days >= wdays {
        (0..=total_days - wdays)
            .step_by(cfg.window_step_days)
            .collect()
    } else {
        Vec::new()
    };
    if total_days >= wdays && starts.last() != Some(&(total_days - wdays)) {
        starts.push(total_days - wdays);
    }
    let root_start = Instant::now();
    let mut kids = Vec::new();
    for vp in sys.vps.iter().filter(|v| v.active) {
        let Some(bdr) = vp.bdrmap.as_ref() else {
            continue;
        };
        let s = Instant::now();
        let series = vp
            .tslp
            .synthesize_window(&sys.world.net, cfg.from, cfg.to, 900);
        kids.push(("probing.synthesize", s, Instant::now()));
        for ser in &series {
            if !bdr
                .links
                .iter()
                .any(|l| l.near_ip == ser.near_ip && l.far_ip == ser.far_ip)
            {
                continue;
            }
            for &w0 in &starts {
                let (lo, hi) = (w0 * INTERVALS_PER_DAY, (w0 + wdays) * INTERVALS_PER_DAY);
                let s = Instant::now();
                std::hint::black_box(analyze_window(
                    &ser.near[lo..hi],
                    &ser.far[lo..hi],
                    &cfg.autocorr,
                ));
                kids.push(("inference.autocorr", s, Instant::now()));
            }
        }
    }
    let root = tr.record("side.longitudinal_split", root_start, Instant::now(), None);
    for (name, s, e) in kids {
        tr.record(name, s, e, Some(root));
    }
}

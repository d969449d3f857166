//! Determinism gate for the parallel round engine: the thread count is a
//! pure throughput knob. For any `--threads N`, a measurement window must
//! produce a byte-identical store (content hash, series and point counts),
//! identical congestion verdicts, and an identical durable checkpoint /
//! resume trajectory as the serial engine — with and without a chaos fault
//! schedule running against the world.
//!
//! The parallel leg's thread count defaults to 8 and can be overridden with
//! `MANIC_TEST_THREADS` so CI can sweep the matrix (2, 8, ...).

use manic_core::{resume, Durable, DurabilityConfig, System, SystemConfig};
use manic_netsim::time::{date_to_sim, Date};
use manic_netsim::{FaultEvent, FaultKind, FaultSchedule, FaultScope};
use manic_scenario::worlds::toy;
use manic_tsdb::wal::FsyncPolicy;
use std::path::PathBuf;
use std::sync::Mutex;

const SEED: u64 = 42;

fn test_threads() -> usize {
    std::env::var("MANIC_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(8)
}

fn sys_with_threads(threads: usize) -> System {
    let mut sys = System::new(toy(SEED), SystemConfig::default());
    sys.cfg.threads = threads;
    sys
}

fn install_chaos(sys: &mut System, from: i64, until: i64) {
    let vp_routers: Vec<_> = sys.world.vps.iter().map(|v| v.router).collect();
    let chaos =
        FaultSchedule::chaos(1312, 0.6, &sys.world.net.topo, &vp_routers, from, until);
    assert!(!chaos.is_empty(), "chaos schedule generated no events");
    for &e in chaos.events() {
        sys.world.net.fault.push(e);
    }
}

/// Serializes arming across this binary's tests, so each leg's delta of the
/// process-wide level-shift run counter counts that leg's analyses alone.
static ARMING: Mutex<()> = Mutex::new(());

/// Sorted far-IP verdicts across every VP, as the CLI summary reports them,
/// and the number of level-shift analyses arming ran to reach them.
fn verdicts(sys: &mut System, from: i64, to: i64) -> (Vec<String>, u64) {
    let _serial = ARMING.lock().unwrap_or_else(|e| e.into_inner());
    let runs = || manic_obs::registry().counter_value("manic_inference_levelshift_runs");
    let before = runs();
    let mut out = Vec::new();
    for vi in 0..sys.vps.len() {
        sys.arm_reactive_loss(vi, from, to);
        out.extend(sys.vps[vi].loss.targets.iter().map(|t| t.far_ip.to_string()));
    }
    out.sort();
    out.dedup();
    (out, runs() - before)
}

struct Fingerprint {
    hash: u64,
    series: usize,
    points: usize,
    verdicts: Vec<String>,
    analyses: u64,
}

fn fingerprint(sys: &mut System, from: i64, to: i64) -> Fingerprint {
    let (verdicts, analyses) = verdicts(sys, from, to);
    Fingerprint {
        hash: sys.store.content_hash(),
        series: sys.store.series_count(),
        points: sys.store.point_count(),
        verdicts,
        analyses,
    }
}

fn assert_identical(serial: &Fingerprint, parallel: &Fingerprint, label: &str) {
    assert_eq!(
        serial.hash, parallel.hash,
        "{label}: store content hash diverged (serial {:016x} vs parallel {:016x})",
        serial.hash, parallel.hash
    );
    assert_eq!(serial.series, parallel.series, "{label}: series count diverged");
    assert_eq!(serial.points, parallel.points, "{label}: point count diverged");
    assert_eq!(serial.verdicts, parallel.verdicts, "{label}: verdicts diverged");
    // Equal verdict lists prove nothing if arming analyzed no link at all.
    assert!(serial.analyses > 0, "{label}: serial arming ran no level-shift analysis");
    assert!(parallel.analyses > 0, "{label}: parallel arming ran no level-shift analysis");
}

fn run_pair(chaos: bool, label: &str) {
    let from = date_to_sim(Date::new(2017, 3, 1));
    let to = from + 6 * 3600;
    let threads = test_threads();

    let mut serial = sys_with_threads(1);
    let mut parallel = sys_with_threads(threads);
    if chaos {
        install_chaos(&mut serial, from, to);
        install_chaos(&mut parallel, from, to);
    }

    let r1 = serial.run_packet_mode(from, to);
    let rn = parallel.run_packet_mode(from, to);
    assert_eq!(r1, rn, "{label}: round counts diverged");

    let f1 = fingerprint(&mut serial, from, to);
    let fn_ = fingerprint(&mut parallel, from, to);
    assert!(f1.points > 0, "{label}: serial run produced no samples");
    assert_identical(&f1, &fn_, label);
}

#[test]
fn parallel_matches_serial() {
    run_pair(false, "clean world");
}

#[test]
fn parallel_matches_serial_under_chaos() {
    run_pair(true, "chaos world");
}

/// A VP whose worker panics must not take the round down with it: the
/// engine catches the panic, discards the VP's half-staged round, and the
/// supervisor quarantines it with backoff — identically at every thread
/// count, because the injected panic is a pure function of `(router, t)`.
#[test]
fn panicking_vp_is_quarantined_and_rounds_complete() {
    let from = date_to_sim(Date::new(2017, 3, 1));
    let to = from + 6 * 3600;
    // Panic window over [from+1h, from+2h): first panic strikes the VP into
    // a 30-minute quarantine, the re-probe at +1h30 strikes again (1h
    // backoff), and the next attempt lands past the window — the VP comes
    // back and finishes the run.
    let panic_window = (from + 3600, from + 2 * 3600);

    let mut serial = sys_with_threads(1);
    let mut parallel = sys_with_threads(test_threads());
    for sys in [&mut serial, &mut parallel] {
        let router = sys.world.vps[0].router;
        sys.world.net.fault.push(FaultEvent::window(
            FaultKind::VpPanic,
            FaultScope::Router(router),
            panic_window.0,
            panic_window.1,
        ));
    }

    let r1 = serial.run_packet_mode(from, to);
    let rn = parallel.run_packet_mode(from, to);
    assert_eq!(r1, rn, "panicking VP: round counts diverged");
    assert_eq!(r1, 72, "every round of the window completed despite the panics");

    for (label, sys) in [("serial", &serial), ("parallel", &parallel)] {
        let sup = &sys.vps[0].supervisor;
        assert_eq!(sup.strikes, 2, "{label}: one strike per post-backoff attempt");
        assert!(!sup.retired, "{label}: under max_strikes, quarantined not retired");
        assert!(
            sup.may_run(to),
            "{label}: backoff expired past the window — the VP is back"
        );
        assert_eq!(sys.vps[1].supervisor.strikes, 0, "{label}: other VPs untouched");
    }

    let f1 = fingerprint(&mut serial, from, to);
    let fn_ = fingerprint(&mut parallel, from, to);
    assert!(f1.points > 0, "surviving VPs kept measuring");
    assert_identical(&f1, &fn_, "panicking VP");
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join(format!("manic-par-det-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Kill a parallel durable run between checkpoints, resume it serially, and
/// require the finished window to match an uninterrupted serial in-memory
/// run. Crossing thread counts across the kill is the point: the WAL tail
/// written by 8 workers must replay into the exact state 1 worker rebuilds.
#[test]
fn kill_parallel_resume_serial_matches() {
    let from = date_to_sim(Date::new(2017, 3, 1));
    let to = from + 6 * 3600;
    let mid = from + 4 * 3600 + 20 * 60; // between 12-round checkpoints
    let dcfg = DurabilityConfig {
        fsync: FsyncPolicy::EveryN(64),
        checkpoint_every_rounds: 12,
        ..DurabilityConfig::default()
    };

    // Reference: uninterrupted serial run, entirely in memory.
    let mut ref_sys = sys_with_threads(1);
    ref_sys.run_packet_mode(from, to);
    let ref_fp = fingerprint(&mut ref_sys, from, to);
    drop(ref_sys);

    // Durable run at N threads, killed mid-window with a WAL tail pending.
    let dir = tmpdir("world");
    let mut sys = sys_with_threads(test_threads());
    let mut durable = Durable::create(&sys, "toy", SEED, &dir, from, to, dcfg.clone())
        .expect("create durable");
    durable.run_window(&mut sys, mid, &|| false).expect("run to kill point");
    drop(durable);
    drop(sys);

    // Resume serially and finish the window.
    let (mut sys2, mut durable2, info) = resume(&dir, Some(dcfg)).expect("resume");
    assert!(info.store_hash_ok, "restored snapshot hash verified");
    sys2.cfg.threads = 1;
    durable2.run_window(&mut sys2, to, &|| false).expect("run to window end");
    durable2.finalize(&sys2, to).expect("final checkpoint");

    let res_fp = fingerprint(&mut sys2, from, to);
    assert_identical(&ref_fp, &res_fp, "kill@parallel/resume@serial");

    std::fs::remove_dir_all(&dir).unwrap();
}

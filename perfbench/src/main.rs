//! manic-rs pipeline benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload as a series of samples, each in a fresh worker
//! process (`perfbench sample ...`) so peak RSS, the obs registry, the
//! audit trail and the journal all start empty. With `--trace 0` it prints
//! the end-to-end metrics (medians over the samples); with `--trace 1` it
//! adds one traced sample and prints the per-layer metrics. Either way it
//! fails unless every sample's output fingerprint agrees. The last stdout
//! line is the JSON result; see README.md.

mod calib;
mod pipeline;
mod procfs;
mod report;
mod sample;
mod serve;
mod stats;
mod trace;

use report::{END_TO_END, PER_LAYER};
use sample::SampleOut;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Every workload runs on the paper's US-broadband world.
pub const WORLD: &str = "us";
/// Round-engine worker threads: `nproc` of the reference box, fixed so
/// results do not depend on the host.
pub const THREADS: usize = 2;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Run { hours: i64, durable: bool },
    Study { days: i64 },
    Serve,
}

struct Workload {
    name: &'static str,
    kind: Kind,
    /// Wall seconds of one sample on the reference box, which sets how many
    /// samples fill `--seconds`.
    sample_s: f64,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "run-us",
        kind: Kind::Run {
            hours: 12,
            durable: false,
        },
        sample_s: 3.2,
    },
    Workload {
        name: "run-us-durable",
        kind: Kind::Run {
            hours: 2,
            durable: true,
        },
        sample_s: 2.7,
    },
    Workload {
        name: "study-us",
        kind: Kind::Study { days: 90 },
        sample_s: 2.0,
    },
    Workload {
        name: "serve-us",
        kind: Kind::Serve,
        sample_s: 4.7,
    },
];

/// Top-level spans must cover at least this share of `run_s`.
const MIN_COVERAGE_PCT: f64 = 90.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            k @ ("--workload" | "--seed" | "--seconds" | "--trace") => k,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let val = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        flags.insert(key, val);
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", names.join(", "))
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Traces and durable data directories live next to the executable, in
/// the build directory, so a run writes nothing outside its checkout.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("executable has no parent")?
        .join("perfbench-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Worker mode: `perfbench sample <workload> <world seed> <traced 0|1> <reference 0|1>`.
/// `reference` runs a durable workload's window in memory, for the hash
/// gate.
fn worker(argv: &[String]) -> Result<(), String> {
    let [name, seed, traced, reference] = argv else {
        return Err("usage: perfbench sample <workload> <seed> <traced> <reference>".into());
    };
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or("unknown workload")?;
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let (traced, reference) = (traced == "1", reference == "1");
    manic_obs::journal().set_stderr_level(None);
    let out = out_dir()?;
    let cal_before = calib::kernel_s();
    let mut s = match w.kind {
        Kind::Run { hours, durable } => {
            let dir = out.join(format!("data-{}", std::process::id()));
            let data = (durable && !reference).then_some(dir.as_path());
            let r = pipeline::run(seed, hours, data, traced);
            if data.is_some() {
                std::fs::remove_dir_all(&dir)
                    .map_err(|e| format!("remove {}: {e}", dir.display()))?;
            }
            r?
        }
        Kind::Study { days } => pipeline::study(seed, days, traced)?,
        Kind::Serve => serve::sample(seed, traced)?,
    };
    if !matches!(w.kind, Kind::Serve) {
        s.metrics
            .insert("peak_rss_mb".into(), procfs::peak_rss_mb(None)?);
    }
    let speed = calib::host_speed(cal_before, calib::kernel_s());
    s.metrics.insert("obs.host_speed".into(), speed);
    if let Some(tr) = &s.trace {
        let path = out.join(format!("trace-{}-seed{seed}.json", w.name));
        std::fs::write(&path, tr.to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprint!("{}", tr.table());
        eprintln!("trace written to {}", path.display());
    }
    print!("{}", s.to_lines());
    Ok(())
}

/// A sample's end-to-end value: times and rates of work in reference-box
/// units (see `calib`); peak RSS, and `serve-us`'s `run_s`, which is
/// mostly its fixed wall-clock load schedule, as measured.
fn e2e_value(kind: Kind, s: &SampleOut, metric: &str) -> Option<f64> {
    let raw = *s.metrics.get(metric)?;
    if metric == "peak_rss_mb" || (matches!(kind, Kind::Serve) && metric == "run_s") {
        return Some(raw);
    }
    Some(calib::normalize(
        metric,
        raw,
        *s.metrics.get("obs.host_speed")?,
    ))
}

/// Run one sample in a fresh process and parse what it measured.
fn run_sample(
    w: &Workload,
    world_seed: u64,
    traced: bool,
    reference: bool,
) -> Result<SampleOut, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let flag = |b: bool| if b { "1" } else { "0" };
    let out = Command::new(exe)
        .args([
            "sample",
            w.name,
            &world_seed.to_string(),
            flag(traced),
            flag(reference),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn sample: {e}"))?;
    if !out.status.success() {
        return Err(format!("{} sample failed ({})", w.name, out.status));
    }
    SampleOut::parse(&String::from_utf8_lossy(&out.stdout))
}

/// World seed of sample `i` of a run with workload seed `seed`. Each sample
/// runs its own world, so a run's medians average over worlds rather than
/// hinge on one: on `us`, a 24 h run's CPU time differs by up to 30%
/// between worlds.
fn world_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(100).wrapping_add(i as u64)
}

/// Identity of this build, so fingerprints recorded by an earlier run are
/// only compared against the same program.
fn build_id() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let meta = std::fs::metadata(&exe).map_err(|e| format!("stat {}: {e}", exe.display()))?;
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok());
    Ok(format!(
        "{}-{}",
        meta.len(),
        mtime.map_or(0, |d| d.as_nanos())
    ))
}

fn run(args: &Args) -> Result<(bool, String), String> {
    report::validate(END_TO_END, PER_LAYER)?;
    let w = args.workload;
    let full = ((args.seconds / w.sample_s).ceil() as usize).max(3);
    // A traced run keeps half the untraced samples: enough for the
    // fingerprint gate and the tracing-overhead baseline.
    let untraced = if args.trace { full.div_ceil(2) } else { full };
    let mut samples = Vec::new();
    for i in 0..untraced {
        samples.push((
            world_seed(args.seed, i),
            run_sample(w, world_seed(args.seed, i), false, false)?,
        ));
    }
    let first = samples[0].0;
    let traced = if args.trace {
        Some(run_sample(w, first, true, false)?)
    } else {
        None
    };

    // Correctness gate: the traced sample and (durable) an in-memory run
    // of the same window agree with the first sample's world; every world
    // agrees with what earlier runs of this build recorded for it.
    let mut problems = Vec::new();
    let mut same_world = vec![("sample 0".to_string(), samples[0].1.fingerprint.clone())];
    if let Some(t) = &traced {
        same_world.push(("the traced sample".into(), t.fingerprint.clone()));
    }
    if let Kind::Run { durable: true, .. } = w.kind {
        let r = run_sample(w, first, false, true)?;
        same_world.push(("the in-memory run of the same window".into(), r.fingerprint));
    }
    if let Err(e) = report::same_fingerprint(&format!("{} world {first}", w.name), &same_world) {
        problems.push(e);
    }
    let store = out_dir()?.join("fingerprints").join(build_id()?);
    for (ws, s) in &samples {
        if let Err(e) = report::check_recorded(&store, &format!("{}-{ws}", w.name), &s.fingerprint)
        {
            problems.push(e);
        }
    }
    for (ws, s) in &samples {
        let fp: String = s.fingerprint.chars().take(80).collect();
        eprintln!(
            "{} world {ws}: raw run_s {:.3} cpu_s {:.3} rounds_per_s {:.2}, host speed {:.3}: {fp}",
            w.name,
            s.metrics["run_s"],
            s.metrics["cpu_s"],
            s.metrics["rounds_per_s"],
            s.metrics["obs.host_speed"]
        );
    }

    let all = samples.iter().map(|(_, s)| s).chain(&traced);
    let attempted: u64 = all.clone().map(|s| s.attempted).sum();
    let failed: u64 = all.map(|s| s.failed).sum();
    let med = |k: &str| {
        stats::median(
            &samples
                .iter()
                .filter_map(|(_, s)| e2e_value(w.kind, s, k))
                .collect::<Vec<_>>(),
        )
        .ok_or_else(|| format!("{k} not measured"))
    };
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let line = match &traced {
        None => {
            for d in END_TO_END {
                values.insert(d.name, med(d.name)?);
            }
            report::render(problems.is_empty(), attempted, failed, END_TO_END, &values)?
        }
        Some(t) => {
            for d in PER_LAYER {
                values.insert(d.name, t.metrics.get(d.name).copied().unwrap_or(0.0));
            }
            if let Kind::Run { .. } = w.kind {
                let s = stats::summarize(&t.steps_ms).ok_or("no rounds measured")?;
                values.insert("core.round_ms.p50", s.p50);
                values.insert("core.round_ms.tail", s.tail);
                values.insert("core.round_ms.tail_pct", s.tail_pct);
                values.insert(
                    "core.round_ms.max",
                    t.steps_ms.iter().copied().fold(0.0, f64::max),
                );
            }
            let steps: Vec<f64> = samples
                .iter()
                .flat_map(|(_, s)| s.steps_ms.iter().copied())
                .collect();
            let step = stats::summarize(&steps).ok_or("no steps measured")?;
            values.insert("obs.step_count", step.n as f64);
            values.insert("obs.step_p50_ms", step.p50);
            values.insert("obs.step_tail_ms", step.tail);
            values.insert("obs.step_tail_pct", step.tail_pct);
            let traced_run = e2e_value(w.kind, t, "run_s").ok_or("traced run_s not measured")?;
            values.insert(
                "obs.trace_overhead_pct",
                100.0 * (traced_run / med("run_s")? - 1.0),
            );
            let coverage = values["obs.trace_coverage_pct"];
            if coverage < MIN_COVERAGE_PCT {
                problems.push(format!(
                    "top-level spans cover {coverage:.1}% of run_s, want >= {MIN_COVERAGE_PCT}%"
                ));
            }
            report::render(problems.is_empty(), attempted, failed, PER_LAYER, &values)?
        }
    };
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }
    Ok((problems.is_empty(), line))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("sample") {
        return match worker(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench sample: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((ok, line)) => {
            println!("{line}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse_args(&argv("--workload run-us --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("run-us", 7, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 10 --trace 0",
            "--workload run-us --seed -1 --seconds 10 --trace 0",
            "--workload run-us --seed 1 --seconds 0 --trace 0",
            "--workload run-us --seed 1 --seconds 10 --trace 2",
            "--workload run-us --seed 1 --seconds 10",
            "--workload run-us --seed 1 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}

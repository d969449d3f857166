//! The live-serve workload: the real `manic serve` binary as a child
//! process, driven by an open-loop generator while its sim keeps
//! advancing.
//!
//! The generator holds two keep-alive connections and two threads
//! (`nproc` on the reference box): one sends, one receives. Requests go out
//! at their scheduled due time whether or not earlier responses have
//! arrived (HTTP/1.1 pipelining), and each latency runs from the due time
//! to the response's last byte, so a server stall is charged to every
//! request queued behind it.

use crate::sample::{counters_from_prometheus, layer_counters, SampleOut};
use crate::stats::summarize;
use crate::trace::Tracer;
use crate::{procfs, WORLD};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Keep-alive connections the generator spreads its requests over.
pub const CONNECTIONS: usize = 2;
/// Open-loop request rate over all connections.
pub const RATE_PER_S: u64 = 500;
/// Length of the load phase.
pub const LOAD_SECS: u64 = 4;
/// Round-engine threads of the served sim: one, so request handling has
/// the second core. With both cores on the sim, latency measures CPU
/// scheduling: the median's spread over five runs was 0.39.
pub const SIM_THREADS: usize = 1;
/// The server must exit this soon after SIGINT (dropped, it is killed).
const DRAIN_LIMIT_SECS: u64 = 30;
/// Name `manic serve` gives the thread that runs the sim.
const SIM_THREAD: &str = "serve-sim";
/// Sim hours given to `manic serve`: far more than the sample lasts, so
/// the sim advances during the whole load phase.
pub const SIM_HOURS: u64 = 168;
/// A sample is invalid when the generator's median send is this late: it
/// has fallen behind its schedule, and latencies would measure the
/// generator rather than the server. Its tail lateness is reported
/// (`serve.gen_late_ms.tail`); on two cores shared with a running sim, a
/// few sends per thousand wait for a core.
pub const MAX_GEN_LAG_MS: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    Links,
    Timeseries,
    Explain,
    Health,
}

impl Route {
    fn span(self) -> &'static str {
        match self {
            Route::Links => "serve.links",
            Route::Timeseries => "serve.timeseries",
            Route::Explain => "serve.explain",
            Route::Health => "serve.health",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Request {
    /// Offset from the start of the load phase.
    pub due: Duration,
    pub route: Route,
    pub path: String,
}

/// splitmix64: the schedule's only randomness, from the workload seed.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded request schedule: `n` requests evenly spaced at `rate`, 40%
/// `/api/links`, 40% timeseries and 10% explain of a far IP drawn
/// uniformly from `far_ips`, 10% `/api/health`.
pub fn schedule(seed: u64, n: usize, rate: u64, far_ips: &[String]) -> Vec<Request> {
    let mut st = seed ^ 0x5eed_5eed_5eed_5eed;
    (0..n)
        .map(|i| {
            let due = Duration::from_nanos(i as u64 * 1_000_000_000 / rate);
            let pick = next_u64(&mut st) % 100;
            let far = &far_ips[(next_u64(&mut st) % far_ips.len() as u64) as usize];
            let (route, path) = match pick {
                0..=39 => (Route::Links, "/api/links".to_string()),
                40..=79 => (Route::Timeseries, format!("/api/link/{far}/timeseries")),
                80..=89 => (Route::Explain, format!("/api/link/{far}/explain")),
                _ => (Route::Health, "/api/health".to_string()),
            };
            Request { due, route, path }
        })
        .collect()
}

/// One request's fate. Times are offsets from the start of the load phase.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub route: Route,
    /// HTTP status, or 0 when no response came before the deadline.
    pub status: u16,
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl Outcome {
    /// Due-time latency: from when the request should have gone out to its
    /// last response byte, so generator lateness and queueing both count.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// Parse one complete `Content-Length` response at the front of `buf`:
/// `(status, bytes used)`, or `None` while incomplete.
fn parse_response(buf: &[u8]) -> Result<Option<(u16, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or_else(|| format!("no Content-Length in {head:?}"))?;
    let total = head_end + 4 + len;
    Ok((buf.len() >= total).then_some((status, total)))
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}
const POLLIN: i16 = 1;
const SIGINT: i32 = 2;

/// Receive every connection's responses until `expected[c]` have arrived
/// on connection `c` or `deadline` passes: `(status, done)` per response,
/// in arrival order (HTTP/1.1 answers a connection's requests in order).
fn receive(
    conns: &mut [TcpStream],
    expected: &[usize],
    start: Instant,
    deadline: Duration,
) -> Result<Vec<Vec<(u16, Duration)>>, String> {
    use std::os::fd::AsRawFd;
    let mut got: Vec<Vec<(u16, Duration)>> =
        expected.iter().map(|&n| Vec::with_capacity(n)).collect();
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); conns.len()];
    let mut chunk = vec![0u8; 64 * 1024];
    while got.iter().zip(expected).any(|(g, &n)| g.len() < n) && start.elapsed() < deadline {
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                fd: c.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` pollfd structs for the duration of the call.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, 20) };
        if rc < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                continue;
            }
            return Err(format!("poll: {e}"));
        }
        for (c, fd) in fds.iter().enumerate() {
            if fd.revents == 0 {
                continue;
            }
            // Readable (or hung up): a blocking read returns at once.
            let n = conns[c]
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            let done = start.elapsed();
            bufs[c].extend_from_slice(&chunk[..n]);
            while let Some((status, used)) = parse_response(&bufs[c])? {
                bufs[c].drain(..used);
                got[c].push((status, done));
            }
        }
    }
    Ok(got)
}

/// Run the load phase open loop: this thread sends each request at its due
/// time on connection `i % conns.len()`, sleeping in between; one more
/// thread receives on all connections. Requests unanswered at `deadline`
/// come back with status 0.
pub fn run_load(
    conns: &[TcpStream],
    start: Instant,
    reqs: &[Request],
    deadline: Duration,
) -> Result<Vec<Outcome>, String> {
    let k = conns.len();
    let mut readers = conns
        .iter()
        .map(TcpStream::try_clone)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut writers = conns
        .iter()
        .map(TcpStream::try_clone)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    for w in &writers {
        w.set_nodelay(true).map_err(|e| e.to_string())?;
    }
    let expected: Vec<usize> = (0..k)
        .map(|c| reqs.iter().skip(c).step_by(k).count())
        .collect();
    let (sent, got) = std::thread::scope(|s| {
        let rx = s.spawn(|| receive(&mut readers, &expected, start, deadline));
        let mut sent = Vec::with_capacity(reqs.len());
        for (i, r) in reqs.iter().enumerate() {
            if let Some(wait) = r.due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            sent.push(start.elapsed());
            let msg = format!("GET {} HTTP/1.1\r\nHost: perfbench\r\n\r\n", r.path);
            writers[i % k]
                .write_all(msg.as_bytes())
                .map_err(|e| format!("send {}: {e}", r.path))?;
        }
        let got = rx
            .join()
            .map_err(|_| "receiver thread panicked".to_string())??;
        Ok::<_, String>((sent, got))
    })?;
    Ok(reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let (status, done) = got[i % k].get(i / k).copied().unwrap_or((0, deadline));
            Outcome {
                route: r.route,
                status,
                due: r.due,
                sent: sent[i],
                done,
            }
        })
        .collect())
}

/// One blocking request on an idle keep-alive connection: `(status, body)`.
fn get(stream: &mut TcpStream, path: &str) -> Result<(u16, Vec<u8>), String> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let msg = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
    stream
        .write_all(msg.as_bytes())
        .map_err(|e| format!("send {path}: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        if let Some((status, used)) = parse_response(&buf)? {
            let head_end = buf
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .expect("parsed head")
                + 4;
            return Ok((status, buf[head_end..used].to_vec()));
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("read {path}: {e}"))?;
        if n == 0 {
            return Err(format!("{path}: connection closed"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Far IPs of the `/api/links` entries that already hold samples
/// (`far_latest_ms` set), sorted and deduplicated.
pub fn far_ips(body: &str) -> Vec<String> {
    let mut ips: Vec<String> = body
        .split("\"far\":\"")
        .skip(1)
        .filter(|entry| {
            !entry
                .split('}')
                .next()
                .unwrap_or("")
                .contains("\"far_latest_ms\":null")
        })
        .filter_map(|entry| entry.split('"').next().map(str::to_string))
        .collect();
    ips.sort();
    ips.dedup();
    ips
}

/// The `manic serve` child: killed and reaped on drop unless it already
/// exited, so no error path leaves it running.
struct ServeChild(Option<Child>);

impl Drop for ServeChild {
    fn drop(&mut self) {
        if let Some(mut c) = self.0.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// CPU seconds the server's threads other than the sim thread spent
/// between two per-thread readings: the cost of serving the requests.
fn serving_cpu_s(
    before: &BTreeMap<u32, (String, f64)>,
    after: &BTreeMap<u32, (String, f64)>,
) -> f64 {
    after
        .iter()
        .filter(|(_, (name, _))| name != SIM_THREAD)
        .map(|(tid, (_, s))| s - before.get(tid).map_or(0.0, |b| b.1))
        .sum()
}

/// The server's counters as `/metrics` reports them.
fn scrape(conn: &mut TcpStream) -> Result<BTreeMap<String, f64>, String> {
    let (status, body) = get(conn, "/metrics")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    Ok(counters_from_prometheus(&String::from_utf8_lossy(&body)))
}

pub fn sample(seed: u64, traced: bool) -> Result<SampleOut, String> {
    let mut tr = traced.then(|| Tracer::new(format!("serve-{seed}-{}", std::process::id())));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let manic = exe.with_file_name("manic");
    let spawned = Instant::now();
    let mut child = ServeChild(Some(
        Command::new(&manic)
            .args([
                "serve",
                "--world",
                WORLD,
                "--seed",
                &seed.to_string(),
                "--addr",
                "127.0.0.1:0",
            ])
            .args([
                "--hours",
                &SIM_HOURS.to_string(),
                "--snapshot-interval",
                "1",
            ])
            .args(["--threads", &SIM_THREADS.to_string(), "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", manic.display()))?,
    ));
    let proc = child.0.as_mut().expect("child just spawned");
    let pid = proc.id();
    let mut stdout = BufReader::new(proc.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("manic serve exited before listening".into());
        }
        if let Some(rest) = line.strip_prefix("manic-serve listening on http://") {
            break rest
                .split_whitespace()
                .next()
                .unwrap_or_default()
                .to_string();
        }
    };
    let banner = Instant::now();

    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        conns.push(TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?);
    }
    // The first snapshot lands after the sim's first chunk (and every VP's
    // first bdrmap cycle); until then there are no links to ask about.
    // Only links with samples and audit evidence are asked about: their
    // timeseries and explain answers exist for good, whereas a link a
    // reactive bdrmap cycle drops before it has either would turn 404
    // depending on timing.
    let ips = loop {
        let (status, body) = get(&mut conns[0], "/api/links")?;
        let mut ips = Vec::new();
        for ip in far_ips(&String::from_utf8_lossy(&body)) {
            let (st, explain) = get(&mut conns[0], &format!("/api/link/{ip}/explain"))?;
            if st == 200 && !String::from_utf8_lossy(&explain).contains("\"records\":[]") {
                ips.push(ip);
            }
        }
        if status == 200 && !ips.is_empty() {
            break ips;
        }
        if banner.elapsed() > Duration::from_secs(60) {
            return Err("no links with evidence published within 60 s".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let warm = Instant::now();
    let before = scrape(&mut conns[0])?;

    let n = (RATE_PER_S * LOAD_SECS) as usize;
    let reqs = schedule(seed, n, RATE_PER_S, &ips);
    let deadline = Duration::from_secs(LOAD_SECS + 10);
    let threads0 = procfs::thread_cpu_s(pid)?;
    let load_start = Instant::now();
    let outcomes = run_load(&conns, load_start, &reqs, deadline)?;
    let load_end = Instant::now();
    let serving_cpu = serving_cpu_s(&threads0, &procfs::thread_cpu_s(pid)?);
    let after = scrape(&mut conns[0])?;
    let rss = procfs::peak_rss_mb(Some(pid))?;

    let stop = Instant::now();
    // SAFETY: `kill(2)` only sends a signal; `pid` is our own child, not
    // yet reaped (we still hold its `Child`), so the pid cannot be reused.
    if unsafe { kill(pid as i32, SIGINT) } != 0 {
        return Err(format!(
            "SIGINT to manic serve: {}",
            std::io::Error::last_os_error()
        ));
    }
    drop(conns);
    // `stdout` stays open until the child has exited: it prints its drain
    // lines there, and a closed pipe would fail those writes.
    let proc = child.0.as_mut().expect("child still held");
    let status = loop {
        if let Some(status) = proc.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if stop.elapsed() > Duration::from_secs(DRAIN_LIMIT_SECS) {
            return Err(format!(
                "manic serve did not exit within {DRAIN_LIMIT_SECS} s of SIGINT"
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    child.0 = None;
    let exited = Instant::now();
    drop(stdout);
    if !status.success() {
        return Err(format!("manic serve exited with {status} after the drain"));
    }

    let mut by_status: BTreeMap<u16, u64> = BTreeMap::new();
    for o in &outcomes {
        *by_status.entry(o.status).or_default() += 1;
    }
    let fp: Vec<String> = by_status.iter().map(|(s, c)| format!("{s}={c}")).collect();
    let mut out = SampleOut::new(format!("status {}", fp.join(" ")));
    out.attempted = outcomes.len() as u64;
    out.failed = outcomes.iter().filter(|o| o.status != 200).count() as u64;
    let d = |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    // Counted from the sim's start, right after the banner, so every sample
    // measures the opening stretch of its world rather than whichever
    // rounds the load window happens to land on.
    let sim_s = (load_end - banner).as_secs_f64();
    let rounds = after.get("manic_core_rounds").copied().unwrap_or(0.0);
    out.e2e(
        (banner - spawned).as_secs_f64(),
        (exited - banner).as_secs_f64(),
        rounds / sim_s,
        serving_cpu,
    );
    out.metrics.insert("peak_rss_mb".into(), rss);
    out.steps_ms = outcomes.iter().map(Outcome::latency_ms).collect();
    let late: Vec<f64> = outcomes.iter().map(Outcome::late_ms).collect();
    let late = summarize(&late).ok_or("no requests sent")?;
    out.metrics
        .insert("serve.gen_late_ms.tail".into(), late.tail);
    if late.p50 > MAX_GEN_LAG_MS {
        return Err(format!(
            "invalid sample: the generator fell behind its schedule (median send {:.2} ms late, limit {MAX_GEN_LAG_MS} ms)",
            late.p50
        ));
    }
    let Some(mut tr) = tr.take() else {
        return Ok(out);
    };

    tr.record("serve.setup", spawned, banner, None);
    tr.record("serve.warmup", banner, warm, None);
    tr.record("serve.scrape", warm, load_start, None);
    let load = tr.record("serve.load", load_start, load_end, None);
    tr.record("serve.scrape", load_end, stop, None);
    tr.record("serve.drain", stop, exited, None);
    for o in &outcomes {
        tr.record(
            o.route.span(),
            load_start + o.due,
            load_start + o.done,
            Some(load),
        );
    }
    layer_counters(&after, &mut out.metrics);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let l = &mut out.metrics;
    for (route, p50, tail) in [
        (
            Route::Links,
            "serve.links_ms.p50",
            Some("serve.links_ms.tail"),
        ),
        (
            Route::Timeseries,
            "serve.timeseries_ms.p50",
            Some("serve.timeseries_ms.tail"),
        ),
        (
            Route::Explain,
            "serve.explain_ms.p50",
            Some("serve.explain_ms.tail"),
        ),
        (Route::Health, "serve.health_ms.p50", None),
    ] {
        let lat: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.route == route)
            .map(Outcome::latency_ms)
            .collect();
        let s = summarize(&lat);
        l.insert(p50.into(), s.map(|s| s.p50).unwrap_or(0.0));
        if let Some(tail) = tail {
            l.insert(tail.into(), s.map(|s| s.tail).unwrap_or(0.0));
        }
    }
    let hits = d("manic_serve_cache_hits");
    l.insert("serve.requests".into(), outcomes.len() as f64);
    l.insert(
        "serve.failed_ratio".into(),
        ratio(out.failed as f64, out.attempted as f64),
    );
    l.insert(
        "serve.server_ms_mean".into(),
        ratio(
            d("manic_serve_request_duration_ms_sum"),
            d("manic_serve_request_duration_ms_count"),
        ),
    );
    l.insert(
        "serve.cache_hit_ratio".into(),
        ratio(hits, hits + d("manic_serve_cache_misses")),
    );
    l.insert("serve.shed".into(), d("manic_serve_shed"));
    l.insert("serve.rate_limited".into(), d("manic_serve_rate_limited"));
    l.insert(
        "serve.breaker_rejected".into(),
        d("manic_serve_breaker_rejected"),
    );
    l.insert(
        "serve.snapshots_published".into(),
        d("manic_serve_snapshots_published"),
    );
    l.insert(
        "serve.sim_round_ms_mean".into(),
        ratio(
            d("manic_core_round_duration_ms_sum"),
            d("manic_core_round_duration_ms_count"),
        ),
    );
    out.finish_trace(tr, banner, exited);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn schedule_is_seeded_and_mixed() {
        let ips: Vec<String> = (0..464)
            .map(|i| format!("10.0.{}.{}", i / 256, i % 256))
            .collect();
        let a = schedule(7, 10_000, 500, &ips);
        let b = schedule(7, 10_000, 500, &ips);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.path == y.path && x.due == y.due));
        assert_ne!(
            schedule(8, 100, 500, &ips)[..]
                .iter()
                .map(|r| &r.path)
                .collect::<Vec<_>>(),
            a[..100].iter().map(|r| &r.path).collect::<Vec<_>>()
        );
        assert_eq!(a[500].due, Duration::from_secs(1));
        let share = |r: Route| a.iter().filter(|x| x.route == r).count() as f64 / a.len() as f64;
        assert!((share(Route::Links) - 0.4).abs() < 0.02);
        assert!((share(Route::Timeseries) - 0.4).abs() < 0.02);
        assert!((share(Route::Explain) - 0.1).abs() < 0.02);
        assert!((share(Route::Health) - 0.1).abs() < 0.02);
    }

    #[test]
    fn response_framing() {
        assert_eq!(
            parse_response(b"HTTP/1.1 200 OK\r\nContent-Len").unwrap(),
            None
        );
        let one = b"HTTP/1.1 404 Not Found\r\ncontent-length: 3\r\n\r\nabcHTTP/1.1";
        assert_eq!(parse_response(one).unwrap(), Some((404, one.len() - 8)));
        assert_eq!(
            parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab").unwrap(),
            None
        );
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
        let body = r#"[{"far":"10.0.0.9","far_latest_ms":3.5},{"far":"10.0.0.1","far_latest_ms":1},
                       {"far":"10.0.0.7","far_latest_ms":null},{"far":"10.0.0.9","far_latest_ms":2}]"#;
        assert_eq!(far_ips(body), vec!["10.0.0.1", "10.0.0.9"]);
    }

    #[test]
    fn serving_cpu_excludes_the_sim_thread() {
        let t = |v: &[(u32, &str, f64)]| {
            v.iter()
                .map(|&(id, n, s)| (id, (n.to_string(), s)))
                .collect()
        };
        let before = t(&[
            (1, "manic", 1.0),
            (2, "serve-sim", 5.0),
            (3, "serve-worker", 0.5),
        ]);
        let after = t(&[
            (1, "manic", 1.0),
            (2, "serve-sim", 9.0),
            (3, "serve-worker", 0.75),
            (4, "late", 0.25),
        ]);
        assert!((serving_cpu_s(&before, &after) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn latency_and_lateness_count_from_the_due_time() {
        let ms = Duration::from_millis;
        let o = Outcome {
            route: Route::Links,
            status: 200,
            due: ms(10),
            sent: ms(12),
            done: ms(15),
        };
        assert!((o.latency_ms() - 5.0).abs() < 1e-9);
        assert!((o.late_ms() - 2.0).abs() < 1e-9);
    }

    /// A server that stalls on its first request: the requests due during
    /// the stall still go out on time (open loop), and their latency
    /// includes the wait for the stalled one ahead of them.
    #[test]
    fn a_stall_is_charged_to_requests_queued_behind_it() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 1024];
            let mut served = 0;
            while served < 5 {
                while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    let n = s.read(&mut chunk).unwrap();
                    buf.extend_from_slice(&chunk[..n]);
                }
                let end = buf.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
                buf.drain(..end);
                if served == 0 {
                    std::thread::sleep(Duration::from_millis(60));
                }
                s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                    .unwrap();
                served += 1;
            }
        });
        let reqs: Vec<Request> = (0..5u64)
            .map(|i| Request {
                due: Duration::from_millis(10 * i),
                route: Route::Health,
                path: "/x".into(),
            })
            .collect();
        let conn = TcpStream::connect(addr).unwrap();
        let out = run_load(&[conn], Instant::now(), &reqs, Duration::from_secs(5)).unwrap();
        server.join().unwrap();
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|o| o.status == 200));
        for (i, o) in out.iter().enumerate() {
            // Sent on schedule even though the first answer took 60 ms...
            assert!(
                o.late_ms() < 30.0,
                "request {i} sent {} ms late",
                o.late_ms()
            );
            // ...and answered only after the stall: latency from due time.
            let stall_left = 60.0 - 10.0 * i as f64;
            assert!(
                o.latency_ms() >= stall_left,
                "request {i}: {} ms < {stall_left}",
                o.latency_ms()
            );
        }
    }

    #[test]
    fn unanswered_requests_time_out_as_failures() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let conn = TcpStream::connect(addr).unwrap();
        let _held = listener.accept().unwrap();
        let reqs = vec![Request {
            due: Duration::ZERO,
            route: Route::Links,
            path: "/".into(),
        }];
        let out = run_load(&[conn], Instant::now(), &reqs, Duration::from_millis(50)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].status, 0);
    }
}

//! Process resource readings from `/proc`: peak RSS, CPU time, bytes
//! written. `pid` `None` reads this process.

fn read(pid: Option<u32>, file: &str) -> Result<String, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/{file}"),
        None => format!("/proc/self/{file}"),
    };
    std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))
}

/// Value of a `key:   <number> ...` line.
fn field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let kb = field(&read(pid, "status")?, "VmHWM").ok_or("no VmHWM in status")?;
    Ok(kb as f64 / 1024.0)
}

/// User plus system CPU time of every thread this process has run, in
/// seconds (clock ticks of 1/100 s, the Linux `USER_HZ`).
pub fn cpu_s() -> Result<f64, String> {
    let stat = read(None, "stat")?;
    // Fields after the parenthesised command name, which may hold spaces;
    // utime and stime are fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').ok_or("malformed stat")?.1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        f.get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or("malformed stat")
    };
    Ok((tick(11)? + tick(12)?) as f64 / 100.0)
}

/// On-CPU seconds of each live thread of process `pid`, by thread id, with
/// the thread's name (`/proc/<pid>/task/<tid>/schedstat`, nanoseconds).
pub fn thread_cpu_s(pid: u32) -> Result<std::collections::BTreeMap<u32, (String, f64)>, String> {
    let dir = format!("/proc/{pid}/task");
    let mut out = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("read {dir}: {e}"))? {
        let name = entry.map_err(|e| e.to_string())?.file_name();
        let Some(tid) = name.to_str().and_then(|t| t.parse::<u32>().ok()) else {
            continue;
        };
        // A thread may exit between listing and reading: skip it.
        let (Ok(sched), Ok(comm)) = (
            std::fs::read_to_string(format!("{dir}/{tid}/schedstat")),
            std::fs::read_to_string(format!("{dir}/{tid}/comm")),
        ) else {
            continue;
        };
        let ns: u64 = sched
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or("malformed schedstat")?;
        out.insert(tid, (comm.trim().to_string(), ns as f64 / 1e9));
    }
    Ok(out)
}

/// Bytes this process has passed to `write`-family calls (`wchar`).
pub fn written_bytes() -> Result<u64, String> {
    field(&read(None, "io")?, "wchar").ok_or_else(|| "no wchar in io".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        assert!(cpu_s().unwrap() >= 0.0);
        let before = written_bytes().unwrap();
        std::fs::write("/dev/null", [0u8; 4096]).unwrap();
        assert!(written_bytes().unwrap() >= before + 4096);
        let threads = thread_cpu_s(std::process::id()).unwrap();
        assert!(!threads.is_empty());
        assert!(threads.values().all(|(_, s)| *s >= 0.0));
    }

    #[test]
    fn field_parsing() {
        assert_eq!(
            field("VmPeak:\t  10 kB\nVmHWM:\t 2048 kB\n", "VmHWM"),
            Some(2048)
        );
        assert_eq!(field("rchar: 5\nwchar: 77\n", "wchar"), Some(77));
        assert_eq!(field("VmHWMx: 1\n", "VmHWM"), None);
    }
}

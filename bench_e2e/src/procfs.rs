//! CPU time and peak memory from `/proc`.
//!
//! CPU is user + system time of the process **and the children it has
//! waited for** (`utime + stime + cutime + cstime`), so a spawned
//! client's work is charged to the workload once the client is reaped.
//! The kernel reports these in clock ticks of `USER_HZ`, which Linux
//! fixes at 100 for every architecture's user-visible interfaces.

/// Clock ticks per second in `/proc/<pid>/stat`.
const USER_HZ: f64 = 100.0;

/// Sums `utime`, `stime`, `cutime` and `cstime` (fields 14–17) of a
/// `/proc/<pid>/stat` line. The command name (field 2) may itself hold
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state).
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let mut total = 0u64;
    for _ in 0..4 {
        total = total.checked_add(fields.next()?.parse().ok()?)?;
    }
    Some(total)
}

/// Reads a `kB` line such as `VmHWM` from `/proc/<pid>/status` text.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut parts = rest.split_ascii_whitespace();
        let value = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(value)
    })
}

/// CPU seconds this process and its reaped children have used so far.
pub fn self_cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    parse_stat_cpu_ticks(&stat)
        .map(|ticks| ticks as f64 / USER_HZ)
        .ok_or_else(|| "unparseable /proc/self/stat".to_string())
}

/// Peak resident set (`VmHWM`) of `pid` in MB (10⁶ bytes would mislead
/// next to `kB` = 1024 bytes, so MB here is 1024 kB).
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    parse_status_kb(&status, "VmHWM")
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from a real process, with a hostile command name.
    const STAT: &str = "4242 (rte (cli) ent) S 4000 4242 4000 34816 4242 4194304 \
        1520 310 0 0 173 21 40 6 20 0 3 0 8812345 123456789 2345 18446744073709551615 \
        1 1 0 0 0 0 0 4096 0 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";

    const STATUS: &str = "Name:\tbench_e2e\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  220044 kB\nVmSize:\t  154508 kB\nVmHWM:\t   81234 kB\nVmRSS:\t   40100 kB\n\
        Threads:\t3\n";

    #[test]
    fn stat_sums_own_and_reaped_children_cpu() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(173 + 21 + 40 + 6));
    }

    #[test]
    fn stat_rejects_truncated_or_garbled_lines() {
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis at all"), None);
        let garbled = STAT.replace(" 173 ", " abc ");
        assert_eq!(parse_stat_cpu_ticks(&garbled), None);
    }

    #[test]
    fn status_reads_the_named_line_only() {
        assert_eq!(parse_status_kb(STATUS, "VmHWM"), Some(81234));
        assert_eq!(parse_status_kb(STATUS, "VmRSS"), Some(40100));
        assert_eq!(parse_status_kb(STATUS, "VmSwap"), None);
        // `Vm` is a prefix of several keys but not a key itself.
        assert_eq!(parse_status_kb(STATUS, "Vm"), None);
        assert_eq!(parse_status_kb("VmHWM:\t12 MB\n", "VmHWM"), None);
    }

    #[test]
    fn live_proc_is_readable() {
        assert!(self_cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        assert!(peak_rss_mb(Some(std::process::id())).unwrap() > 0.0);
    }
}

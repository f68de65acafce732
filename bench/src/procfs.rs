//! Process-level cost counters read from `/proc/self`: CPU time
//! (`utime + stime` of `stat`) and peak resident set (`VmHWM` of
//! `status`). The parsers take the file text so they can be tested
//! without a live process.

/// Clock ticks per second of the `utime`/`stime` fields: `USER_HZ`,
/// which the kernel ABI fixes at 100 on every architecture this
/// repository builds for (`sysconf(_SC_CLK_TCK)` without a libc call).
const USER_HZ: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The second field is the executable name in parentheses and may itself
/// contain spaces and parentheses, so fields are counted from the *last*
/// `)`: state is field 3, `utime` 14, `stime` 15.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    utime.checked_add(stime)
}

/// `VmHWM` in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut parts = line.split_ascii_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(value)
}

/// CPU seconds (user + system, all threads) this process has used, in
/// steps of one clock tick (10 ms). Fine for the delta over all timed
/// rounds, which `cpu_s_per_round` is; a single round reads to ±2 %.
///
/// # Panics
///
/// Panics when `/proc/self/stat` is missing or malformed: the benchmark
/// cannot report its cost metric without it.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("utime and stime in /proc/self/stat") as f64 / USER_HZ
}

/// Peak resident set size of this process, in MiB.
///
/// # Panics
///
/// Panics when `/proc/self/status` carries no `VmHWM` line.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_counts_fields_after_the_last_parenthesis() {
        let plain = "4242 (roundbench) R 1 4242 4242 0 -1 4194304 900 0 0 0 1234 56 0 0 20 0 8 0 \
                     100 200 300";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(1290));
        // A process may call itself anything, including ") R 1 2 3".
        let hostile = "7 (a b) R (x)) S 1 7 7 0 -1 0 0 0 0 0 31 11 0 0 20 0 1 0 5 6 7";
        assert_eq!(parse_stat_cpu_ticks(hostile), Some(42));
        assert_eq!(parse_stat_cpu_ticks("7 (short) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis at all"), None);
        let words = "7 (x) R 1 7 7 0 -1 0 0 0 0 0 many few 0 0";
        assert_eq!(parse_stat_cpu_ticks(words), None);
    }

    #[test]
    fn vm_hwm_parser() {
        let status =
            "Name:\troundbench\nVmPeak:\t  900000 kB\nVmHWM:\t  168960 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(168_960));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn live_counters_are_positive_and_monotonic() {
        let c0 = cpu_seconds();
        assert!(peak_rss_mib() > 0.0);
        let mut x = 0u64;
        while cpu_seconds() - c0 < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() > c0);
    }
}

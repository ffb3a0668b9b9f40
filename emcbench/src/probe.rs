//! Host probes read from `/proc`: memory high-water, resident set and
//! process CPU time. Each reads 0 where `/proc` is unavailable.

fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

/// Current resident set of this process (`VmRSS`), in MiB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") as f64 / 1024.0
}

/// User + system CPU seconds of this process, all threads included.
/// Resolution is one clock tick (assumed 100 Hz, the Linux default).
pub fn cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    f.iter().sum::<u64>() as f64 / 100.0
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_this_process() {
        assert!(peak_rss_mb() >= rss_mb() * 0.5);
        let v: Vec<u64> = (0..3_000_000u64).collect();
        assert!(v.iter().sum::<u64>() > 0);
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_s() >= 0.0);
        assert!(nproc() >= 1);
    }
}

//! The CPU-time probe that `benchmark/` reads its `cpu_s` metric with.

/// Accumulated CPU seconds (`utime + stime` from `/proc/<pid>/stat`).
/// `None` off Linux or once the process is gone.
#[cfg(target_os = "linux")]
pub fn probe_cpu_secs(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The comm field may contain spaces and parentheses; everything
    // after the *last* ')' is whitespace-delimited. Fields 14/15
    // (1-indexed) are utime/stime, i.e. indices 11/12 after the split.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / clock_ticks_per_sec())
}

/// See the Linux implementation; always `None` elsewhere.
#[cfg(not(target_os = "linux"))]
pub fn probe_cpu_secs(_pid: u32) -> Option<f64> {
    None
}

#[cfg(target_os = "linux")]
fn clock_ticks_per_sec() -> f64 {
    // std already links libc on Linux; no libc crate is vendored, so
    // declare the one symbol we need directly.
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes a plain integer and reads or writes no
    // memory of ours.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn probes_read_our_own_process() {
        let cpu = probe_cpu_secs(std::process::id()).expect("own stat readable");
        assert!(cpu >= 0.0);
        assert!(probe_cpu_secs(u32::MAX - 1).is_none(), "dead pid");
    }
}

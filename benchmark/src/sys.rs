//! What the operating system knows about this process: core count,
//! CPU time, peak memory. Linux `/proc` only; elsewhere the figures
//! read 0 and the README says so.

use std::time::Duration;

/// Puts glibc's allocator in the state of a long-running process.
///
/// glibc adjusts two thresholds as a process frees memory. Freeing one
/// large block raises the mmap threshold, so the *second* engine built
/// in a process gets its frame buffers from the heap, 16-byte aligned,
/// where the first got page-aligned mappings — and runs an 8×2 frame
/// some 40 % slower (README.md, known gaps). And whether the heap top
/// is trimmed on free decides whether a frame's short-lived vectors
/// cost thousands of page faults or none. A deployed engine is built
/// once and runs for days; the benchmark builds several engines in
/// seconds, so left alone its phases would measure different machines
/// depending on their order. Large blocks therefore always map (the
/// default threshold, frozen) and the heap is never trimmed.
pub fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` is glibc's documented tuning call; it takes
        // two integers, touches only allocator parameters, and is called
        // before any other thread exists. Setting either threshold
        // explicitly also turns their dynamic adjustment off.
        let ok = unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
        };
        if !ok {
            eprintln!("note: mallopt refused; engines after the first may run differently");
        }
    }
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// User + system CPU time of the whole process so far, exited threads
/// included. `/proc/self/stat` counts in clock ticks, 100 per second on
/// every Linux this runs on, so differences are good to 10 ms.
pub fn cpu_time() -> Duration {
    const TICKS_PER_SECOND: u64 = 100;
    let ticks = std::fs::read_to_string("/proc/self/stat").ok().and_then(|stat| parse_stat(&stat));
    Duration::from_millis(ticks.unwrap_or(0) * 1000 / TICKS_PER_SECOND)
}

/// `utime + stime` (fields 14 and 15). The command name, field 2, may
/// hold spaces, so fields are counted from its closing parenthesis.
fn parse_stat(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size in megabytes (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status").ok().and_then(|s| parse_hwm(&s)).unwrap_or(0.0)
}

fn parse_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let stat = "42 (a b) c) S 1 42 42 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_stat(stat), Some(300));
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn hwm_is_read_in_megabytes() {
        assert_eq!(parse_hwm("Name:\tx\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n"), Some(200.0));
        assert_eq!(parse_hwm("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_has_cores_and_burns_cpu() {
        assert!(cores() >= 1);
        let before = cpu_time();
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        if cfg!(target_os = "linux") {
            assert!(cpu_time() > before);
            assert!(peak_rss_mb() > 0.0);
        }
    }
}

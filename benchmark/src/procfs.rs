//! Host-cost readings from `/proc`: on-CPU time per thread, peak resident
//! set, and voluntary context switches. Parsers are separate from readers
//! so they are testable on fixed text.

use std::fs;
use std::io;

/// On-CPU nanoseconds from a `schedstat` line (`<run_ns> <wait_ns>
/// <timeslices>`): field 1, the scheduler's own accounting rather than
/// tick-sampled `utime`.
pub fn parse_schedstat_run_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// The value of a `Key:\t<n> kB` line of `/proc/<pid>/status`, in kB.
fn status_kb(text: &str, key: &str) -> Option<u64> {
    let rest = text
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    let mut it = rest.split_whitespace();
    let n = it.next()?.parse().ok()?;
    (it.next() == Some("kB")).then_some(n)
}

/// Peak resident set (`VmHWM`) in kB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(text: &str) -> Option<u64> {
    status_kb(text, "VmHWM")
}

/// `voluntary_ctxt_switches` from `/proc/<pid>/task/<tid>/status` text.
pub fn parse_voluntary_ctxt_switches(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?
        .trim()
        .parse()
        .ok()
}

/// The thread id in a `/proc/thread-self` link target (`<pid>/task/<tid>`).
pub fn parse_thread_self(target: &str) -> Option<u32> {
    target.rsplit('/').next()?.parse().ok()
}

fn bad_data(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_owned())
}

/// The calling thread's id, read from the `/proc/thread-self` link.
pub fn current_tid() -> io::Result<u32> {
    let target = fs::read_link("/proc/thread-self")?;
    parse_thread_self(&target.to_string_lossy()).ok_or_else(|| bad_data("/proc/thread-self"))
}

/// On-CPU nanoseconds of thread `tid` of this process so far.
pub fn thread_cpu_ns(tid: u32) -> io::Result<u64> {
    let text = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))?;
    parse_schedstat_run_ns(&text).ok_or_else(|| bad_data("schedstat"))
}

/// Voluntary context switches of thread `tid` of this process so far.
pub fn thread_voluntary_switches(tid: u32) -> io::Result<u64> {
    let text = fs::read_to_string(format!("/proc/self/task/{tid}/status"))?;
    parse_voluntary_ctxt_switches(&text).ok_or_else(|| bad_data("voluntary_ctxt_switches"))
}

/// This process's peak resident set so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> io::Result<f64> {
    let text = fs::read_to_string("/proc/self/status")?;
    let kb = parse_vm_hwm_kb(&text).ok_or_else(|| bad_data("VmHWM"))?;
    Ok(kb as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tson-benchmark\nVmPeak:\t  204800 kB\nVmHWM:\t   31337 kB\n\
                          VmRSS:\t   20000 kB\nThreads:\t4\n\
                          voluntary_ctxt_switches:\t10321\nnonvoluntary_ctxt_switches:\t17\n";

    #[test]
    fn schedstat_field_one_is_on_cpu_ns() {
        assert_eq!(
            parse_schedstat_run_ns("123456789 4242 17\n"),
            Some(123_456_789)
        );
        assert_eq!(parse_schedstat_run_ns(""), None);
        assert_eq!(parse_schedstat_run_ns("abc 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_the_high_water_mark_not_current_rss() {
        assert_eq!(parse_vm_hwm_kb(STATUS), Some(31_337));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 5 kB\n"), None);
        // A value without its unit is not trusted.
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 5\n"), None);
    }

    #[test]
    fn voluntary_switches_ignore_the_nonvoluntary_line() {
        assert_eq!(parse_voluntary_ctxt_switches(STATUS), Some(10_321));
        assert_eq!(
            parse_voluntary_ctxt_switches("nonvoluntary_ctxt_switches:\t17\n"),
            None
        );
    }

    #[test]
    fn thread_self_target_ends_in_the_tid() {
        assert_eq!(parse_thread_self("4321/task/4399"), Some(4399));
        assert_eq!(parse_thread_self("garbage"), None);
    }

    #[test]
    fn readers_agree_with_the_live_proc() {
        let tid = current_tid().unwrap();
        let before = thread_cpu_ns(tid).unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_ns(tid).unwrap() >= before);
        assert!(peak_rss_mb().unwrap() > 0.0);
        thread_voluntary_switches(tid).unwrap();
    }
}

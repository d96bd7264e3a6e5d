//! What the harness reads from the operating system: the CPUs it may run
//! on (and pinning itself to a subset), process CPU time, peak resident
//! memory, and the toolchain stamp. Linux only: `/proc/thread-self/status`, and
//! two libc calls the standard library does not wrap.

use std::ffi::{c_int, c_long};
use std::process::Command;

/// A field of the calling thread's status: the affinity of a thread that
/// is not the process's first is its own (memory fields are the process's
/// either way).
fn proc_status_field(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix(field)
            .and_then(|rest| rest.strip_prefix(':'))
            .map(|rest| rest.trim().to_string())
    })
}

/// Parses a kernel CPU list such as `0-3,8,10-11`.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((lo, hi)) => {
                if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
                    cpus.extend(lo..=hi);
                }
            }
            None => {
                if let Ok(cpu) = part.parse() {
                    cpus.push(cpu);
                }
            }
        }
    }
    cpus
}

/// The CPUs the calling thread may currently run on (`Cpus_allowed_list`).
pub fn allowed_cpus() -> Vec<usize> {
    proc_status_field("Cpus_allowed_list")
        .map(|list| parse_cpu_list(&list))
        .unwrap_or_default()
}

/// `struct timespec` as Linux lays it out (`time_t` and `long` are both
/// the platform's `long`).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// CPU time consumed by all threads of the process, exited ones included.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    fn clock_gettime(clock: c_int, out: *mut Timespec) -> c_int;
}

/// Restricts this process — the calling thread and every thread it spawns
/// afterwards — to `cpus`.
pub fn pin_to(cpus: &[usize]) -> std::io::Result<()> {
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        let word = mask.get_mut(cpu / 64).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "cpu id above 1023")
        })?;
        *word |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, properly aligned buffer of exactly the
    // byte length passed; pid 0 names the calling thread; the call only
    // reads the buffer.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Process CPU time so far (user + system, all threads), in seconds, at
/// the scheduler's nanosecond resolution — the tick-counted `utime`/`stime`
/// of `/proc/self/stat` would read 0 for a 5 ms session.
pub fn cpu_seconds() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable `timespec`-shaped value and the
    // call writes nothing else; the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(rc, 0, "the process CPU clock exists on every Linux");
    now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_field("VmHWM")
        .and_then(|v| {
            v.split_whitespace()
                .next()
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string()
    })
}

/// `rustc -V`, or `unknown`.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, or `unknown` outside a git work tree (the
/// benchmark driver runs from an exported tree).
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-3,8,10-11"), vec![0, 1, 2, 3, 8, 10, 11]);
        assert_eq!(parse_cpu_list("0"), vec![0]);
        assert!(parse_cpu_list("").is_empty());
    }

    #[test]
    fn procfs_readings_are_sane() {
        assert!(!allowed_cpus().is_empty());
        assert!(peak_rss_mib() > 0.0);
        let before = cpu_seconds();
        let mut x = 1u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(
            cpu_seconds() > before,
            "60 ms of spinning must show in CPU time"
        );
    }
}

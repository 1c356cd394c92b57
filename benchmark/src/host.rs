//! What the benchmark reads from the host: process CPU time, resident
//! memory, and a fixed reference kernel that shows the host's weather.
//!
//! Linux on a 64-bit target only (`/proc`, `clock_gettime`).

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU time of the whole process so far, in nanoseconds:
/// every thread, including the ones that have already exited.
///
/// `/proc/self/task/*/schedstat` has the same resolution but forgets a
/// thread when it ends, and `IndoorService::execute_batch` — what
/// `NetServer` calls for every coalesced run — spawns and ends one
/// worker per call, so summing it would lose the server's work.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C `long`s
    // on 64-bit Linux, which `Timespec` mirrors with `repr(C)`), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The `VmRSS` line of a `/proc/<pid>/status` page, in KiB.
pub fn parse_vm_rss_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Resident set size of this process in MiB.
pub fn resident_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_rss_kib(&status).expect("VmRSS line in /proc/self/status") as f64 / 1024.0
}

/// Return the allocator's free memory to the kernel, so that a reading
/// of [`resident_mib`] counts live memory only. glibc's `malloc_trim`;
/// elsewhere nothing (the reading is then noisier, not wrong).
pub fn trim_heap() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers; it only releases free
        // heap pages, which no live allocation refers to.
        unsafe { malloc_trim(0) };
    }
}

/// Time a fixed register-only xorshift loop, in microseconds. The work
/// never changes, so two runs that read it differently ran in different
/// host weather (a neighbour on the other hyper-thread, a frequency step).
pub fn ref_kernel_us() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 88_172_645_463_325_252;
    for _ in 0..500_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from `/proc/self/status` on the builder's host.
    const STATUS: &str = "Name:\tcat\nUmask:\t0022\nState:\tR (running)\nVmPeak:\t    5804 kB\n\
VmSize:\t    5804 kB\nVmHWM:\t    1388 kB\nVmRSS:\t    1388 kB\nRssAnon:\t      88 kB\n\
Threads:\t1\n";

    #[test]
    fn vm_rss_parses_the_captured_page() {
        assert_eq!(parse_vm_rss_kib(STATUS), Some(1388));
        assert_eq!(parse_vm_rss_kib("Name:\tx\nVmHWM:\t 12 kB\n"), None);
        assert_eq!(parse_vm_rss_kib("VmRSS:\t lots kB\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(resident_mib() > 0.5);
        let a = process_cpu_ns();
        let spun = ref_kernel_us();
        let b = process_cpu_ns();
        assert!(spun > 0.0);
        assert!(b > a, "the reference kernel burns CPU the clock must see");
    }

    #[test]
    fn cpu_clock_counts_threads_that_have_ended() {
        let before = process_cpu_ns();
        std::thread::spawn(|| {
            for _ in 0..20 {
                ref_kernel_us();
            }
        })
        .join()
        .unwrap();
        let burnt = (process_cpu_ns() - before) as f64 / 1e3;
        // 20 kernels of ~1 ms each ran on a thread that is now gone.
        assert!(burnt > 5_000.0, "only {burnt} us accounted");
    }
}

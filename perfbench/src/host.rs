//! What the benchmark measures of its own process on the host: the CPU
//! clock, the peak resident set, the allocator setting that keeps the
//! latter steady, and the CPU affinity that keeps a workload serial.
//!
//! The host clock is CPU time of the whole process, all threads, from
//! `CLOCK_PROCESS_CPUTIME_ID`. On a small shared VM the wall clock loses
//! a varying share of every run to CPU steal (10-50 % measured on a
//! 2-vCPU VM), which would dominate the run-to-run spread; process CPU
//! time does not count steal. Only the length of a
//! run's timed phase uses the wall clock.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
compile_error!("the benchmark needs 64-bit Linux with glibc (process CPU clock, mallopt)");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const M_ARENA_MAX: i32 = -8;

/// Cap glibc's malloc at two arenas. With the default (one per thread,
/// up to 8 × cores) the engine's server threads each keep freed memory
/// in an arena of their own, and the peak resident set of otherwise
/// identical runs differed by 10 %. Call before any thread starts.
pub fn steady_allocator() {
    // SAFETY: `mallopt` takes two integers and touches only glibc's
    // allocator settings; no other thread exists yet to race with it.
    let ok = unsafe { mallopt(M_ARENA_MAX, 2) };
    assert_eq!(ok, 1, "mallopt(M_ARENA_MAX) failed");
}

/// Restrict the process to the first CPU it may run on. The engine's
/// server pool sizes itself by `available_parallelism`, which then is 1,
/// so every broadcast runs inline on the client thread. Call before any
/// thread starts: threads inherit the mask of the thread that spawns them.
pub fn one_cpu() {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable 1024-bit CPU set for the whole
    // call and its size is passed with it; pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    let (word, bits) = mask
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .expect("the process may run on some CPU");
    let mut one = [0u64; 16];
    one[word] = 1 << bits.trailing_zeros();
    // SAFETY: as above; `one` is read only.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
    assert_eq!(
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        1,
        "one CPU leaves one worker thread"
    );
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// Process CPU time consumed so far.
pub fn cpu_now() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked above) for the whole call, and
    // `clock_gettime` writes nothing but it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A point on the process CPU clock.
#[derive(Clone, Copy)]
pub struct CpuInstant(Duration);

impl CpuInstant {
    pub fn now() -> Self {
        CpuInstant(cpu_now())
    }

    pub fn elapsed(&self) -> Duration {
        cpu_now().saturating_sub(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t = CpuInstant::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        assert!(t.elapsed() > Duration::from_micros(100));
    }
}

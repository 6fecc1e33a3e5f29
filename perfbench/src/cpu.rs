//! CPU time of this process, its children and other processes.
//!
//! The end-to-end metrics count CPU time rather than wall time. The kernel
//! charges a task only for time it actually ran (with paravirtual steal
//! accounting, time the hypervisor gave the vCPU to someone else is not
//! charged), so these figures do not move when a shared host is busy,
//! while wall times do.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_CHILDREN: i32 = -1;

/// CPU time of this process so far, all threads.
pub fn process() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime writes one timespec through a valid pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time of this process's children that have ended and been waited for.
pub fn children() -> Duration {
    let zero = || Timeval {
        tv_sec: 0,
        tv_usec: 0,
    };
    let mut ru = Rusage {
        utime: zero(),
        stime: zero(),
        rest: [0; 14],
    };
    // SAFETY: getrusage writes one struct rusage through a valid pointer.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    let us = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    Duration::from_micros(us(&ru.utime) + us(&ru.stime))
}

/// CPU time of the live threads of process `pid`: the sum of the first
/// field (nanoseconds on the CPU) of every `/proc/<pid>/task/*/schedstat`.
pub fn of_pid(pid: u32) -> Option<Duration> {
    let mut ns = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let path = task.ok()?.path().join("schedstat");
        // A thread that ended between the listing and the read ran no more.
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        ns += text.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(Duration::from_nanos(ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance() {
        let t = process();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process() > t);
        assert!(of_pid(std::process::id()).is_some_and(|d| d > Duration::ZERO));
        let _ = children();
    }
}

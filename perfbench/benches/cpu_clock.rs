//! Host CPU time of the calling thread.
//!
//! On a shared host the thread running the workload is descheduled now and
//! then: by other processes, and by the hypervisor when it gives the
//! virtual CPU to another guest. Wall time counts those gaps, so a wall
//! figure moves with the host's load. The thread's CPU time counts only the
//! time the thread itself ran (the kernel leaves out time stolen by the
//! hypervisor), so it measures the program's own cost.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn now_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A running stopwatch over the calling thread's CPU time.
#[derive(Debug, Clone, Copy)]
pub struct CpuWatch(u64);

/// Start a stopwatch at the calling thread's current CPU time.
pub fn start() -> CpuWatch {
    CpuWatch(now_ns())
}

impl CpuWatch {
    /// CPU seconds the calling thread has run since [`start`].
    pub fn elapsed_secs(&self) -> f64 {
        (now_ns() - self.0) as f64 * 1e-9
    }

    /// CPU microseconds the calling thread has run since [`start`].
    pub fn elapsed_micros(&self) -> f64 {
        (now_ns() - self.0) as f64 * 1e-3
    }
}

//! One CPU for the whole run.
//!
//! Unpinned, the scheduler moves the process between the host's two
//! CPUs and wakes the loopback peer on the other one: the same binary
//! then measures 87–118 µs for a served read that takes 34 µs when
//! client and server share a CPU, and every workload's run-to-run
//! spread is two to five times wider (NOISE.md). The workloads are
//! closed loops — one thread runs at a time — so one CPU is all they use.

/// Pins the calling thread — and every thread it later spawns — to the
/// highest-numbered CPU it may run on (CPU 0 takes the interrupts and
/// whatever else the machine runs). Returns the CPU, or `None` where
/// the platform has no such call or the call fails; the run then
/// proceeds unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    imp::pin()
}

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t` of the C library: 1024 CPUs.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn pin() -> Option<usize> {
        let mut allowed = [0u64; WORDS];
        // SAFETY: `allowed` is a live, writable buffer of exactly the
        // `cpusetsize` bytes passed; pid 0 names the calling thread.
        let rc =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let cpu = (0..WORDS * 64)
            .rev()
            .find(|&c| (allowed[c / 64] >> (c % 64)) & 1 == 1)?;
        let mut only = [0u64; WORDS];
        only[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `only` is a live, readable buffer of exactly the
        // `cpusetsize` bytes passed; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) };
        (rc == 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin() -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg(target_os = "linux")]
    fn pinning_leaves_exactly_one_allowed_cpu() {
        // On a thread of its own: the test harness's threads stay free.
        let pinned = std::thread::spawn(|| {
            let cpu = super::pin_to_one_cpu()?;
            // Pinning again finds only that CPU left.
            Some((cpu, super::pin_to_one_cpu()?))
        })
        .join()
        .expect("pinning does not panic");
        if let Some((first, second)) = pinned {
            assert_eq!(first, second);
        }
    }
}

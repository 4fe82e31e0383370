//! Pinning the calling thread to one CPU.
//!
//! A single-threaded workload left to the scheduler migrates between CPUs.
//! In back-to-back runs on a shared 2-core host its generation rate then
//! varied by 10-20%; pinned, by 1-2%. Workloads whose threads the library
//! spawns are not pinned: those threads inherit the creating thread's CPU
//! set, and one CPU would serialise them.

/// Pins the calling thread to the last CPU it is allowed to run on.
/// Returns that CPU, or `None` where pinning is unsupported or refused.
#[cfg(target_os = "linux")]
pub fn pin_current_thread() -> Option<usize> {
    /// A `cpu_set_t` of 1024 CPUs, glibc's fixed size.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable CPU set of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..allowed.len() * 64)
        .rev()
        .find(|&cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable CPU set of exactly the size passed, and
    // pid 0 names the calling thread.
    let pinned = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0;
    pinned.then_some(cpu)
}

/// Pinning is only implemented for Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread() -> Option<usize> {
    None
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pins_a_fresh_thread_to_one_allowed_cpu() {
        let cpu = std::thread::spawn(pin_current_thread)
            .join()
            .expect("pinning thread ran");
        assert!(cpu.is_some(), "Linux lets a thread narrow its own CPU set");

        let parallelism = std::thread::spawn(|| {
            pin_current_thread();
            std::thread::available_parallelism().map(|n| n.get())
        })
        .join()
        .expect("pinning thread ran");
        assert_eq!(parallelism.ok(), Some(1));
    }
}

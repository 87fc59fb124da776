//! The benchmark's view of the host: the allocator setting that keeps
//! page faults out of the timings, and the reference kernel that
//! measures how fast the shared host runs at the moment.

use std::time::Instant;

/// Bytes the reference kernel allocates and streams over: larger than
/// the last-level cache, so the kernel meets the memory-system
/// contention the simulation meets.
const REFERENCE_BYTES: usize = 64 << 20;
/// Passes of the reference kernel over its buffer.
const REFERENCE_PASSES: u8 = 4;
/// The reference kernel's time on the reference host, in ms: reported
/// times are scaled to a host on which the kernel takes this long.
pub const REFERENCE_MS: f64 = 50.0;

/// Times the reference kernel once, in ms: a fresh 64 MB allocation
/// (page-faulted on first touch, as the program's set-up is) and four
/// read-modify-write passes over it. It is the benchmark's own code, so
/// a change to the program never moves it; only the host does.
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    let mut buffer = vec![0u8; REFERENCE_BYTES];
    for pass in 0..REFERENCE_PASSES {
        buffer.iter_mut().for_each(|b| *b = b.wrapping_add(pass));
    }
    std::hint::black_box(&buffer);
    drop(buffer);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Keeps memory the program frees inside the process (glibc: no trim of
/// the heap top, and allocations up to 32 MB from the heap rather than
/// fresh mappings), so a round reuses the pages earlier rounds touched.
/// Otherwise every round page-faults its allocations anew (about 40 000
/// faults per `fig8_o2` round), and what a fault costs depends on the
/// hypervisor's load, not on the program. Allocation calls themselves
/// are still timed, and `peak_rss_mb` still sees the peak. Returns
/// whether the allocator accepted both settings.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn retain_freed_memory() -> bool {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only changes glibc allocator tunables; it is
    // called before any other thread exists.
    unsafe { mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn retain_freed_memory() -> bool {
    false
}

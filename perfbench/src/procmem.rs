//! Process memory: the resident-set high-water mark and returning free
//! heap pages to the kernel between measured items.
//!
//! Which cells share the heap at a cell's peak depends on the seeded
//! order, and glibc keeps freed pages mapped (tens of MiB after a large
//! cell). Trimming the heap and restarting the high-water mark before each
//! cell makes a cell's peak, and the page faults it pays, independent of
//! which cells ran before it.

/// Return free heap pages to the kernel. A no-op off glibc.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases pages
        // the allocator holds free; glibc documents it as safe to call at
        // any time, and std links the same glibc allocator it trims.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Restart the kernel's resident-set high-water mark, so the next
/// [`peak_rss_mb`] reads the peak since now. Best effort: where the file
/// is not writable the peak stays the process's lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MiB, from `/proc/self/status`
/// (0 where that file is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Start measuring one item: a trimmed heap and a fresh high-water mark.
pub fn begin_item() {
    release_free_heap();
    reset_peak_rss();
}

//! What the benchmark reads from the operating system: CPU clocks, peak
//! resident memory, and the machine facts recorded beside every result.

use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call (x86-64/aarch64 Linux layout: two 64-bit fields), and both clock
    // ids are constants every Linux kernel since 2.6.12 supports.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time (user + system) consumed by every thread of this process, in
/// nanoseconds. Unlike wall time it does not grow while the hypervisor
/// runs somebody else.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Time the hypervisor ran somebody else while a vCPU of this VM wanted to
/// run, summed over vCPUs, in nanoseconds since boot (`steal` in
/// `/proc/stat`, which counts in 10-ms ticks). 0 where the kernel does
/// not report it.
pub fn steal_ns() -> u64 {
    const TICK_NS: u64 = 10_000_000;
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?;
            line.split_whitespace().nth(8)?.parse::<u64>().ok()
        })
        .map_or(0, |ticks| ticks * TICK_NS)
}

/// Nanoseconds since the first call in this process (the span clock).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Kernel release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Filesystem type holding `path` (longest mount-point prefix in
/// `/proc/self/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs.to_string())
}

/// The checked-out commit, when the benchmark runs inside a git work
/// tree (the driver's checkouts are not one).
pub fn commit(repo_root: &Path) -> String {
    let head = match std::fs::read_to_string(repo_root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(repo_root.join(".git").join(reference))
            .map_or_else(|_| head.clone(), |s| s.trim().to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > t0);
        assert!(process_cpu_ns() > p0);
    }

    #[test]
    fn machine_facts_are_readable() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(!kernel().is_empty());
        assert_ne!(fs_type(Path::new("/")), "unknown");
    }
}

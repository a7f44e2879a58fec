//! What the benchmark reads from the operating system: child-process
//! resource usage, a resident process's peak memory and CPU time, and the
//! host context recorded with every result.

use std::path::{Path, PathBuf};
use std::process::Child;
use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals followed by fourteen
/// `long` counters, of which the first is the peak resident set in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn seconds(t: &Timeval) -> f64 {
    t.sec as f64 + t.usec as f64 * 1e-6
}

/// How a reaped child ended and what it used.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, `None` when a signal ended the process.
    pub code: Option<i32>,
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set in MiB.
    pub peak_rss_mb: f64,
}

/// Waits for `child` to end and reaps it with `wait4`, which — unlike
/// `Child::wait` — also returns the child's own resource usage.
pub fn reap(child: Child) -> std::io::Result<Exit> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel's `int` and 64-bit `struct rusage`; `pid` is our own
        // unreaped child, so no other process can be reaped by mistake.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // The child is reaped; dropping the handle closes our pipe ends only.
    drop(child);
    let signalled = status & 0x7f != 0;
    Ok(Exit {
        code: (!signalled).then_some((status >> 8) & 0xff),
        cpu_s: seconds(&usage.utime) + seconds(&usage.stime),
        peak_rss_mb: usage.maxrss_kib as f64 / 1024.0,
    })
}

/// User plus system CPU seconds this process has used so far.
pub fn self_cpu_s() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    seconds(&usage.utime) + seconds(&usage.stime)
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM for process {pid}"))
}

/// User plus system CPU seconds a live process has used so far.
pub fn process_cpu_s(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line, in clock ticks.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc stat line")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc stat line".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS_PER_S)
}

/// `sysconf(_SC_CLK_TCK)` on every Linux the benchmark targets.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// The 1-minute load average.
pub fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// CPU seconds the hypervisor has taken from this machine's virtual CPUs
/// since boot (the `steal` column of `/proc/stat`), summed over CPUs.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks = stat.lines().next()?.split_whitespace().nth(8)?;
    Some(ticks.parse::<f64>().ok()? / CLOCK_TICKS_PER_S)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout was made from, when it is a git work tree of
/// its own (not merely a directory inside another repository).
pub fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// FNV-1a digest of the sources the benchmark builds and runs — the
/// workspace manifests, `crates/`, `src/`, `vendor/` and `perfbench/src/` —
/// so runs of different code can be told apart where no commit id exists.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "src",
        "vendor",
        "perfbench/src",
    ] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    match std::fs::read_dir(path) {
        Ok(entries) => {
            for entry in entries.flatten() {
                collect_files(&entry.path(), out);
            }
        }
        Err(_) if path.is_file() => out.push(path.to_path_buf()),
        Err(_) => {}
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

//! Host facts and clocks: process and thread CPU time, hypervisor steal,
//! and the line that records the host next to each run's metrics.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux clock ids (`<linux/time.h>`).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) for the whole call, and both clock ids are valid
    // Linux CPU-time clocks, so the call only writes into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time (user + sys) of the whole process, including threads that
/// have already exited, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time (user + sys) of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// A CPU-time window opened on one thread: process CPU and that thread's
/// CPU since it opened.
pub struct CpuWindow {
    /// Process CPU when the window opened.
    pub process: u64,
    thread: u64,
}

impl CpuWindow {
    /// Start a window on the calling thread.
    pub fn start() -> CpuWindow {
        CpuWindow { process: process_cpu_ns(), thread: thread_cpu_ns() }
    }

    /// Process CPU since `start`, in nanoseconds.
    pub fn process_ns(&self) -> u64 {
        process_cpu_ns() - self.process
    }

    /// The calling thread's CPU since `start`, in nanoseconds.
    pub fn thread_ns(&self) -> u64 {
        thread_cpu_ns() - self.thread
    }
}

/// Aggregate `cpu` line of `/proc/stat`: (steal, total) jiffies.
fn proc_stat_cpu() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total: u64 = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Share of all CPU time the hypervisor stole between `start` and now.
pub struct StealWindow {
    steal: u64,
    total: u64,
}

impl StealWindow {
    /// Start measuring.
    pub fn start() -> StealWindow {
        let (steal, total) = proc_stat_cpu();
        StealWindow { steal, total }
    }

    /// Steal share since `start` (0 when `/proc/stat` is unreadable).
    pub fn frac(&self) -> f64 {
        let (steal, total) = proc_stat_cpu();
        let dt = total.saturating_sub(self.total);
        if dt == 0 {
            0.0
        } else {
            steal.saturating_sub(self.steal) as f64 / dt as f64
        }
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The batch-kernel path EM runs on.
pub fn kernel_path() -> &'static str {
    tcrowd_stat::batch::kernels().path().name()
}

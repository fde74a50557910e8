//! Injectable storage I/O: every byte the WAL and snapshot writers push
//! toward the disk goes through a [`StoreIo`] handle, so durability failure
//! modes — `ENOSPC` on the Nth write, `EIO` on fsync, short writes, rename
//! failure — are drivable at runtime instead of only via post-hoc file
//! corruption.
//!
//! The default handle ([`RealIo`], via [`real_io`]) is a passthrough to
//! `std::fs`; tests and chaos harnesses substitute a [`FaultyIo`], which
//! executes a deterministic fault schedule: one-shot faults keyed by a
//! per-operation counter (optionally seeded with [`FaultyIo::seeded`]), plus
//! sticky per-operation failures for scripted fault *windows*
//! ([`FaultyIo::break_op`] / [`FaultyIo::heal`]).
//!
//! Only the **write path** is injectable (writes, fsync, rename): that is
//! where durability promises are made. Read-side corruption is already
//! covered by the CRC/torn-tail machinery and its kill-bytes tests.

use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// `errno` for "no space left on device" (what a full disk returns).
pub const ENOSPC: i32 = 28;
/// `errno` for a low-level I/O error (what a dying disk returns on fsync).
pub const EIO: i32 = 5;

/// The file operations the durability layer performs on its write path.
/// `path` identifies the file for fault targeting; the handle must not use
/// it to re-open anything.
pub trait StoreIo: Send + Sync + std::fmt::Debug {
    /// Write all of `bytes` to `file` (which lives at `path`). On error, an
    /// unknown prefix of `bytes` may have reached the file — exactly the
    /// torn-write contract the WAL's poisoning and recovery are built for.
    fn write_all(&self, path: &Path, file: &mut File, bytes: &[u8]) -> std::io::Result<()>;

    /// `fsync`/`fdatasync` the file's data.
    fn sync_data(&self, path: &Path, file: &File) -> std::io::Result<()>;

    /// Atomically rename `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;
}

/// A shared, dynamically-dispatched [`StoreIo`] handle.
pub type IoHandle = Arc<dyn StoreIo>;

/// The default passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl StoreIo for RealIo {
    fn write_all(&self, _path: &Path, file: &mut File, bytes: &[u8]) -> std::io::Result<()> {
        file.write_all(bytes)
    }

    fn sync_data(&self, _path: &Path, file: &File) -> std::io::Result<()> {
        file.sync_data()
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }
}

/// The real-filesystem handle every non-injected path uses.
pub fn real_io() -> IoHandle {
    Arc::new(RealIo)
}

/// Which operation a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// A `write_all` call.
    Write,
    /// A `sync_data` call.
    Sync,
    /// A `rename` call.
    Rename,
}

impl FaultOp {
    fn index(self) -> usize {
        match self {
            FaultOp::Write => 0,
            FaultOp::Sync => 1,
            FaultOp::Rename => 2,
        }
    }
}

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail with the given `errno` without touching the file.
    Error(i32),
    /// Write only the first `keep` bytes of the buffer, then fail with the
    /// `errno` — a torn write (meaningful for [`FaultOp::Write`] only).
    ShortWrite {
        /// Bytes that do reach the file before the failure.
        keep: usize,
        /// The `errno` reported after the partial write.
        errno: i32,
    },
}

impl FaultKind {
    fn error(self) -> std::io::Error {
        let errno = match self {
            FaultKind::Error(e) | FaultKind::ShortWrite { errno: e, .. } => e,
        };
        std::io::Error::from_raw_os_error(errno)
    }
}

/// One scheduled fault: fires when the `op` counter reaches `nth` (1-based,
/// counted across the whole [`FaultyIo`]) and the operation's path contains
/// `path_contains` (when set). One-shot: consumed when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Operation targeted.
    pub op: FaultOp,
    /// 1-based operation count at which the fault fires.
    pub nth: u64,
    /// Only fire when the operation's path contains this substring.
    pub path_contains: Option<String>,
    /// What firing does.
    pub kind: FaultKind,
}

#[derive(Debug, Clone)]
struct Sticky {
    path_contains: Option<String>,
    errno: i32,
}

#[derive(Debug, Default)]
struct FaultState {
    /// Per-op call counters (write, sync, rename), incremented whether or
    /// not a fault fires.
    counts: [u64; 3],
    /// Faults that have fired so far.
    fired: u64,
    /// Armed one-shot faults.
    schedule: Vec<Fault>,
    /// Sticky per-op failures (fault *windows*), active until [`FaultyIo::heal`].
    sticky: [Option<Sticky>; 3],
}

/// A [`StoreIo`] that executes a deterministic fault schedule in front of
/// the real filesystem. Thread-safe; counters are shared across every file
/// the handle touches.
#[derive(Debug, Default)]
pub struct FaultyIo {
    state: Mutex<FaultState>,
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultyIo {
    /// A handle with no faults armed (behaves like [`RealIo`] until armed).
    pub fn new() -> Arc<FaultyIo> {
        Arc::new(FaultyIo::default())
    }

    /// A handle pre-armed with an explicit schedule.
    pub fn with_schedule(schedule: Vec<Fault>) -> Arc<FaultyIo> {
        let io = FaultyIo::new();
        for f in schedule {
            io.arm(f);
        }
        io
    }

    /// A deterministic seeded schedule: `n` faults spread over the first
    /// `horizon` calls of each operation — ENOSPC (plain or short-write) on
    /// writes, EIO on fsync and rename. The same seed always produces the
    /// same schedule.
    pub fn seeded(seed: u64, n: usize, horizon: u64) -> Arc<FaultyIo> {
        let mut s = seed;
        let horizon = horizon.max(1);
        let mut schedule = Vec::with_capacity(n);
        for _ in 0..n {
            let r = splitmix64(&mut s);
            let op = match r % 4 {
                0 | 1 => FaultOp::Write,
                2 => FaultOp::Sync,
                _ => FaultOp::Rename,
            };
            let nth = 1 + splitmix64(&mut s) % horizon;
            let kind = match op {
                FaultOp::Write => {
                    if splitmix64(&mut s) % 2 == 0 {
                        FaultKind::ShortWrite {
                            keep: (splitmix64(&mut s) % 64) as usize,
                            errno: ENOSPC,
                        }
                    } else {
                        FaultKind::Error(ENOSPC)
                    }
                }
                FaultOp::Sync | FaultOp::Rename => FaultKind::Error(EIO),
            };
            schedule.push(Fault { op, nth, path_contains: None, kind });
        }
        FaultyIo::with_schedule(schedule)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Arm one additional one-shot fault. `nth` counts from the handle's
    /// creation, not from this call.
    pub fn arm(&self, fault: Fault) {
        self.lock().schedule.push(fault);
    }

    /// Open a sticky fault window: every `op` whose path contains
    /// `path_contains` (all paths when `None`) fails with `errno` until
    /// [`Self::heal`]. Replaces any previous window on the same op.
    pub fn break_op(&self, op: FaultOp, path_contains: Option<&str>, errno: i32) {
        self.lock().sticky[op.index()] =
            Some(Sticky { path_contains: path_contains.map(str::to_string), errno });
    }

    /// Clear every armed fault — one-shot schedule and sticky windows. The
    /// handle behaves like [`RealIo`] again.
    pub fn heal(&self) {
        let mut st = self.lock();
        st.schedule.clear();
        st.sticky = [None, None, None];
    }

    /// `(writes, syncs, renames)` performed so far (attempted, faulted or
    /// not).
    pub fn counts(&self) -> (u64, u64, u64) {
        let st = self.lock();
        (st.counts[0], st.counts[1], st.counts[2])
    }

    /// How many faults have fired.
    pub fn fired(&self) -> u64 {
        self.lock().fired
    }

    /// Count the call, consume a matching scheduled fault or match the
    /// sticky window, and return what should happen.
    fn next_fault(&self, op: FaultOp, path: &Path) -> Option<FaultKind> {
        let mut st = self.lock();
        let idx = op.index();
        st.counts[idx] += 1;
        let n = st.counts[idx];
        let path_str = path.to_string_lossy();
        let matches = |filter: &Option<String>| match filter {
            Some(s) => path_str.contains(s.as_str()),
            None => true,
        };
        if let Some(pos) =
            st.schedule.iter().position(|f| f.op == op && f.nth == n && matches(&f.path_contains))
        {
            let f = st.schedule.remove(pos);
            st.fired += 1;
            return Some(f.kind);
        }
        if let Some(s) = st.sticky[idx].clone() {
            if matches(&s.path_contains) {
                st.fired += 1;
                return Some(FaultKind::Error(s.errno));
            }
        }
        None
    }
}

impl StoreIo for FaultyIo {
    fn write_all(&self, path: &Path, file: &mut File, bytes: &[u8]) -> std::io::Result<()> {
        match self.next_fault(FaultOp::Write, path) {
            None => file.write_all(bytes),
            Some(kind) => {
                if let FaultKind::ShortWrite { keep, .. } = kind {
                    // The torn prefix really lands (and errors here are
                    // subsumed by the injected one).
                    let _ = file.write_all(&bytes[..keep.min(bytes.len())]);
                }
                Err(kind.error())
            }
        }
    }

    fn sync_data(&self, path: &Path, file: &File) -> std::io::Result<()> {
        match self.next_fault(FaultOp::Sync, path) {
            None => file.sync_data(),
            Some(kind) => Err(kind.error()),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        match self.next_fault(FaultOp::Rename, from) {
            None => std::fs::rename(from, to),
            Some(kind) => Err(kind.error()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("tcrowd_store_io_tests")
            .join(format!("{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn scheduled_faults_fire_once_at_their_count() {
        let dir = tmp("sched");
        let io = FaultyIo::with_schedule(vec![Fault {
            op: FaultOp::Write,
            nth: 2,
            path_contains: None,
            kind: FaultKind::Error(ENOSPC),
        }]);
        let path = dir.join("f");
        let mut f = File::create(&path).unwrap();
        assert!(io.write_all(&path, &mut f, b"one").is_ok());
        let err = io.write_all(&path, &mut f, b"two").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(ENOSPC));
        // One-shot: the third write succeeds.
        assert!(io.write_all(&path, &mut f, b"three").is_ok());
        assert_eq!(io.counts().0, 3);
        assert_eq!(io.fired(), 1);
        assert!(io.lock().schedule.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_write_leaves_a_torn_prefix() {
        let dir = tmp("short");
        let io = FaultyIo::with_schedule(vec![Fault {
            op: FaultOp::Write,
            nth: 1,
            path_contains: None,
            kind: FaultKind::ShortWrite { keep: 3, errno: ENOSPC },
        }]);
        let path = dir.join("f");
        let mut f = File::create(&path).unwrap();
        assert!(io.write_all(&path, &mut f, b"abcdef").is_err());
        drop(f);
        let mut got = String::new();
        File::open(&path).unwrap().read_to_string(&mut got).unwrap();
        assert_eq!(got, "abc");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sticky_windows_filter_by_path_and_heal() {
        let dir = tmp("sticky");
        let io = FaultyIo::new();
        io.break_op(FaultOp::Sync, Some("wal"), EIO);
        let wal = dir.join("wal.log");
        let other = dir.join("snapshot.snap");
        let fw = File::create(&wal).unwrap();
        let fo = File::create(&other).unwrap();
        assert_eq!(io.sync_data(&wal, &fw).unwrap_err().raw_os_error(), Some(EIO));
        assert!(io.sync_data(&other, &fo).is_ok());
        // Still broken on the next call (sticky), then healed.
        assert!(io.sync_data(&wal, &fw).is_err());
        io.heal();
        assert!(io.sync_data(&wal, &fw).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        let a = FaultyIo::seeded(42, 8, 100);
        let b = FaultyIo::seeded(42, 8, 100);
        assert_eq!(a.lock().schedule, b.lock().schedule);
        assert_eq!(a.lock().schedule.len(), 8);
        let c = FaultyIo::seeded(43, 8, 100);
        assert_ne!(a.lock().schedule, c.lock().schedule);
    }

    #[test]
    fn rename_faults_block_the_rename() {
        let dir = tmp("rename");
        let io = FaultyIo::new();
        io.break_op(FaultOp::Rename, None, EIO);
        let from = dir.join("a");
        let to = dir.join("b");
        std::fs::write(&from, b"x").unwrap();
        assert!(io.rename(&from, &to).is_err());
        assert!(from.exists() && !to.exists());
        io.heal();
        assert!(io.rename(&from, &to).is_ok());
        assert!(to.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}

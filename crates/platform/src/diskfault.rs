//! Injectable disk write faults for degraded-mode testing.
//!
//! The durable layers (`spool`, `checkpoint`, and — through its own
//! self-contained hook — `core::serverlog`) consult a shared
//! [`DiskFaults`] handle before touching the filesystem.  A test (or the
//! chaos harness) arms the handle with ENOSPC / EIO / short-write
//! behaviour at runtime; production code holds an unarmed handle and pays
//! one atomic load per write.
//!
//! The handle is `Clone` + `Send`: the chaos-matrix test keeps a clone
//! while the agent/daemon own theirs, so faults can be injected and
//! cleared mid-run, and the number of writes actually failed is visible
//! afterwards via [`DiskFaults::injected`] (the test asserts every
//! injected fault surfaced in the platform metrics — no silent modes).

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use netsim::sync::lock;

/// The flavour of write failure to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// Device full: the write fails before any byte lands.
    Enospc,
    /// Generic I/O error: the write fails before any byte lands.
    Eio,
    /// Torn write: a *prefix* of the record reaches the disk, then the
    /// write fails — exercises the torn-tail recovery paths.
    ShortWrite,
}

impl DiskFaultKind {
    /// The `io::Error` this fault surfaces as.
    pub fn to_error(self) -> io::Error {
        match self {
            DiskFaultKind::Enospc => io::Error::other("injected fault: no space left on device"),
            DiskFaultKind::Eio => io::Error::other("injected fault: input/output error"),
            DiskFaultKind::ShortWrite => io::Error::other("injected fault: short write"),
        }
    }
}

#[derive(Debug)]
struct Armed {
    kind: DiskFaultKind,
    /// Fail this many more writes; `None` = until cleared.
    remaining: Option<u64>,
}

#[derive(Debug, Default)]
struct Inner {
    armed: Mutex<Option<Armed>>,
    injected: AtomicU64,
}

/// Shared, runtime-armable write-fault injector.  `Default`/[`Self::none`]
/// is permanently quiet.
#[derive(Debug, Clone, Default)]
pub struct DiskFaults {
    inner: Arc<Inner>,
}

impl DiskFaults {
    /// A handle that never faults (the production value).
    pub fn none() -> Self {
        Self::default()
    }

    /// Arms the injector: the next `count` writes fail with `kind`
    /// (`None` = every write until [`Self::clear`]).
    pub fn inject(&self, kind: DiskFaultKind, count: Option<u64>) {
        *lock(&self.inner.armed) = Some(Armed { kind, remaining: count });
    }

    /// Disarms the injector.
    pub fn clear(&self) {
        *lock(&self.inner.armed) = None;
    }

    /// Number of writes actually failed so far.
    pub fn injected(&self) -> u64 {
        self.inner.injected.load(Ordering::Relaxed)
    }

    /// Called by a durable layer on the write path: consumes one armed
    /// fault, or `None` when the handle is quiet.
    pub fn check(&self) -> Option<DiskFaultKind> {
        let mut armed = lock(&self.inner.armed);
        let hit = match armed.as_mut() {
            None => return None,
            Some(a) => {
                let kind = a.kind;
                match &mut a.remaining {
                    None => Some(kind),
                    Some(0) => None,
                    Some(n) => {
                        *n -= 1;
                        Some(kind)
                    }
                }
            }
        };
        if let Some(a) = armed.as_ref() {
            if a.remaining == Some(0) {
                *armed = None;
            }
        }
        if hit.is_some() {
            self.inner.injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_by_default() {
        let f = DiskFaults::none();
        assert_eq!(f.check(), None);
        assert_eq!(f.injected(), 0);
    }

    #[test]
    fn counted_faults_exhaust() {
        let f = DiskFaults::none();
        f.inject(DiskFaultKind::Enospc, Some(2));
        assert_eq!(f.check(), Some(DiskFaultKind::Enospc));
        assert_eq!(f.check(), Some(DiskFaultKind::Enospc));
        assert_eq!(f.check(), None, "budget spent");
        assert_eq!(f.injected(), 2);
    }

    #[test]
    fn persistent_until_cleared_and_shared() {
        let f = DiskFaults::none();
        let clone = f.clone();
        f.inject(DiskFaultKind::Eio, None);
        assert_eq!(clone.check(), Some(DiskFaultKind::Eio));
        assert_eq!(clone.check(), Some(DiskFaultKind::Eio));
        f.clear();
        assert_eq!(clone.check(), None);
        assert_eq!(f.injected(), 2, "injections visible through either handle");
    }
}

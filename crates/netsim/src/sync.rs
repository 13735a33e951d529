//! The workspace's one locking rule.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, taking the guard back from a poisoned lock.
///
/// Agent and daemon threads are killed mid-critical-section by the chaos
/// suites (and by real crashes); the survivors — supervisor, merge thread,
/// the test harness reading metrics — must keep working on the state the
/// dead thread left, as they did when these locks could not poison.  What
/// has to hold on that state is checked where it matters: the recovered
/// measurement replays bit-identical and no sequence merges twice.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_survives_a_holder_that_panicked() {
        let m = Arc::new(Mutex::new(vec![1u32]));
        let held = m.clone();
        let died = std::thread::spawn(move || {
            let mut g = lock(&held);
            g.push(2);
            panic!("killed while holding the lock");
        })
        .join();
        assert!(died.is_err());
        assert!(m.is_poisoned());
        lock(&m).push(3);
        assert_eq!(*lock(&m), vec![1, 2, 3]);
    }
}

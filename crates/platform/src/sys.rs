//! `poll(2)`, the one foreign function the control plane calls (unix only).
//!
//! `std` already links the C library on every unix target, so declaring
//! the symbol is all it takes; no crate is added.  A reactor shard with
//! nothing to do blocks here on its sockets plus its wake socket (DESIGN
//! §3p).  Non-unix targets keep the shard's fixed idle sleep and never
//! compile this module.

use std::io;
use std::os::raw::{c_int, c_short};
use std::time::Duration;

/// Readable (or hung up: the kernel reports `POLLHUP`/`POLLERR` whatever
/// was asked).
pub(crate) const POLLIN: c_short = 0x001;
/// Writable.
pub(crate) const POLLOUT: c_short = 0x004;

/// `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    pub(crate) fd: c_int,
    pub(crate) events: c_short,
    pub(crate) revents: c_short,
}

impl PollFd {
    pub(crate) fn new(fd: c_int, events: c_short) -> Self {
        PollFd { fd, events, revents: 0 }
    }
}

#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks until one of `fds` is ready or `timeout` passes (`None`: no
/// limit), and fills in every `revents`.  The timeout is rounded *up* to
/// whole milliseconds, so a deadline is never woken for early and spun
/// on.  A signal interrupting the wait counts as a wake-up.
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let ms = timeout.map_or(-1, |t| t.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int);
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // `pollfd` structs and `nfds` is its exact length, so the kernel reads
    // and writes only inside it; `poll` keeps no pointer past its return.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn poll_waits_for_readiness_and_honours_the_timeout() {
        let (mut tx, rx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
        let started = Instant::now();
        poll_fds(&mut fds, Some(Duration::from_millis(20))).unwrap();
        assert_eq!(fds[0].revents, 0, "nothing written yet");
        assert!(started.elapsed() >= Duration::from_millis(20), "woke before the timeout");

        tx.write_all(&[1]).unwrap();
        poll_fds(&mut fds, None).unwrap();
        assert_ne!(fds[0].revents & POLLIN, 0, "a written byte makes the socket readable");

        let mut fds = [PollFd::new(tx.as_raw_fd(), POLLOUT)];
        poll_fds(&mut fds, Some(Duration::ZERO)).unwrap();
        assert_ne!(fds[0].revents & POLLOUT, 0, "an empty socket buffer is writable");
    }
}

//! Accept-loop error triage for the control plane.
//!
//! [`classify_accept`] sorts `accept(2)` failures: per-connection failures
//! that name a socket which is already gone are *transient* (keep
//! accepting at full speed), while resource exhaustion (out of file
//! descriptors, out of memory) is *resource* pressure that the loop
//! should back off from instead of spinning on.  The daemon's accept loop
//! and the observability scraper share it.  "No data right now" on a
//! socket is [`edonkey_net::would_block`], the one copy the whole
//! workspace reads socket errors through.

use std::io;

/// Accept-loop error classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptError {
    /// The pending connection died before we picked it up (ECONNABORTED,
    /// ECONNRESET, EINTR…).  Nothing is wrong with the listener — accept
    /// again immediately.
    Transient,
    /// The process or host is out of a resource (EMFILE/ENFILE → file
    /// descriptors, ENOMEM…).  Accepting again immediately would spin;
    /// back off and let the reaper free capacity.
    Resource,
}

/// Classifies an `accept(2)` failure.  Unknown kinds are treated as
/// resource pressure — backing off on a surprise is the safe default.
pub fn classify_accept(e: &io::Error) -> AcceptError {
    match e.kind() {
        io::ErrorKind::ConnectionAborted
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::Interrupted
        | io::ErrorKind::WouldBlock
        | io::ErrorKind::TimedOut => AcceptError::Transient,
        _ => AcceptError::Resource,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_triage_separates_dead_peers_from_fd_exhaustion() {
        let dead = io::Error::from(io::ErrorKind::ConnectionAborted);
        assert_eq!(classify_accept(&dead), AcceptError::Transient);
        let eintr = io::Error::from(io::ErrorKind::Interrupted);
        assert_eq!(classify_accept(&eintr), AcceptError::Transient);
        let emfile = io::Error::other("Too many open files");
        assert_eq!(classify_accept(&emfile), AcceptError::Resource);
    }
}

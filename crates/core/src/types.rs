//! Common identifiers and metadata shared by the honeypot platform.

use edonkey_proto::{ClientId, Ipv4};
use netsim::SimTime;

/// Identifier of one honeypot within a measurement (0-based index).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct HoneypotId(pub u32);

impl std::fmt::Display for HoneypotId {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(fm, "hp{:02}", self.0)
    }
}

/// Description of the eDonkey server a honeypot is connected to.  The paper
/// records server name, IP and port with every log (§III-B).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ServerInfo {
    pub name: String,
    pub ip: Ipv4,
    pub port: u16,
}

impl ServerInfo {
    pub fn new(name: impl Into<String>, ip: Ipv4, port: u16) -> Self {
        ServerInfo { name: name.into(), ip, port }
    }
}

/// Whether a peer holds a directly-reachable (high) or NATed (low) ID.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IdStatus {
    High,
    Low,
}

impl IdStatus {
    pub fn of(client_id: ClientId) -> Self {
        if client_id.is_high() {
            IdStatus::High
        } else {
            IdStatus::Low
        }
    }
}

/// Liveness of a honeypot as tracked by the manager.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HoneypotStatus {
    /// Not launched yet.
    Pending,
    /// Connected to its server with this client ID.
    Connected { client_id: ClientId },
    /// Launched but the server connection failed or was lost.
    Disconnected,
    /// The process died; the manager should relaunch it.
    Dead,
}

impl HoneypotStatus {
    /// Whether the manager's periodic status check should (re)launch it.
    pub fn needs_relaunch(&self) -> bool {
        matches!(
            self,
            HoneypotStatus::Pending | HoneypotStatus::Dead | HoneypotStatus::Disconnected
        )
    }
}

/// A status report a honeypot sends its manager after a launch attempt or a
/// periodic check (paper §III-A: "reports its status (connected or not), as
/// well as its clientID").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StatusReport {
    pub honeypot: HoneypotId,
    pub at: SimTime,
    pub status: HoneypotStatus,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_status_follows_client_id() {
        assert_eq!(IdStatus::of(ClientId::high_from_ip(Ipv4::new(82, 66, 1, 2))), IdStatus::High);
        assert_eq!(IdStatus::of(ClientId::low(99)), IdStatus::Low);
    }

    #[test]
    fn relaunch_policy() {
        assert!(HoneypotStatus::Pending.needs_relaunch());
        assert!(HoneypotStatus::Dead.needs_relaunch());
        assert!(HoneypotStatus::Disconnected.needs_relaunch());
        assert!(!HoneypotStatus::Connected { client_id: ClientId(LOW) }.needs_relaunch());
        const LOW: u32 = 5;
    }

    #[test]
    fn honeypot_id_display() {
        assert_eq!(HoneypotId(3).to_string(), "hp03");
        assert_eq!(HoneypotId(17).to_string(), "hp17");
    }
}

//! The accept loop the server and the honeypot host share.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use edonkey_proto::Ipv4;

/// Hands every accepted connection, Nagle off (see [`crate::framing`]), to
/// `serve` until `shutdown` is set (see [`wake_accept`]).  Transient accept errors (EMFILE/ENFILE when peers
/// flood in, ECONNABORTED, EINTR) must neither kill the listener nor spin
/// it: back off and retry, escalating while the condition persists and
/// resetting on the next successful accept.
pub(crate) fn accept_until(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    mut serve: impl FnMut(TcpStream),
) {
    let mut accept_errors: u32 = 0;
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                accept_errors = 0;
                let _ = stream.set_nodelay(true);
                serve(stream);
            }
            Err(_) => {
                accept_errors = accept_errors.saturating_add(1);
                let pause = (5u64 << accept_errors.min(6)).min(250);
                std::thread::sleep(Duration::from_millis(pause));
            }
        }
    }
}

/// Wakes a blocking [`accept_until`] whose `shutdown` flag was just set,
/// with a throw-away connection.
pub(crate) fn wake_accept(listener_addr: SocketAddr) {
    let _ = TcpStream::connect(listener_addr);
}

/// The remote address as the protocol's IPv4 (an IPv6 loopback peer reads
/// as 127.0.0.1).
pub(crate) fn remote_ipv4(stream: &TcpStream) -> std::io::Result<Ipv4> {
    Ok(match stream.peer_addr()?.ip() {
        std::net::IpAddr::V4(v4) => Ipv4::from(v4),
        std::net::IpAddr::V6(_) => Ipv4::new(127, 0, 0, 1),
    })
}

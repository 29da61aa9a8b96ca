//! Transport implementations: real UDP sockets and a deterministic
//! in-memory virtual network for tests.
//!
//! Both implement [`son_netsim::driver::Transport`] — framed datagrams
//! addressed by a dense peer index (the peer's overlay node id). The daemon
//! runtime never knows which one it is running over.

use std::collections::HashMap;
use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

use son_netsim::driver::Transport;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the ppoll(2) declaration below is laid out for 64-bit Linux");

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `struct timespec` on 64-bit Linux, where `time_t` is a `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x001;

extern "C" {
    /// `ppoll(2)` from the C library std already links. Unlike `poll` its
    /// timeout is a `timespec`, and unlike `SO_RCVTIMEO` (jiffy-granular:
    /// any sub-millisecond value slept 8 ms on the reference host) it is
    /// served by a high-resolution timer.
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Unknown-source datagrams and stale ICMP errors one
/// [`UdpTransport::recv_from`] call reads past before it reports the socket
/// empty, so an outsider keeping the buffer full cannot hold the caller in
/// the receive loop.
const MAX_SKIPS_PER_RECV: usize = 16;

/// A [`Transport`] over one non-blocking [`UdpSocket`].
///
/// Peers are a fixed address book resolved at construction: peer index `i`
/// (an overlay node id) maps to one socket address, and inbound datagrams
/// are attributed to a peer by their source address. Datagrams from unknown
/// addresses are dropped and counted — on an open socket that is ordinary
/// background noise, not an error — a bounded number per receive, after
/// which `recv_from` answers `None` with the rest still queued and
/// [`backlogged`](Transport::backlogged) says so.
#[derive(Debug)]
pub struct UdpTransport {
    socket: UdpSocket,
    peers: Vec<Option<SocketAddr>>,
    by_addr: HashMap<SocketAddr, usize>,
    buf: Vec<u8>,
    /// The last receive stopped at its skip budget, not at an empty socket.
    backlogged: bool,
    /// Datagrams dropped because their source address is not a known peer.
    pub unknown_src: u64,
}

impl UdpTransport {
    /// Binds `local` and records the peer address book; index `i` in
    /// `peers` is peer `i` (`None` for ids that are not neighbors).
    ///
    /// # Errors
    ///
    /// Returns the bind or `set_nonblocking` error.
    pub fn bind(local: SocketAddr, peers: Vec<Option<SocketAddr>>) -> io::Result<UdpTransport> {
        let socket = UdpSocket::bind(local)?;
        socket.set_nonblocking(true)?;
        let by_addr = peers
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.map(|a| (a, i)))
            .collect();
        Ok(UdpTransport {
            socket,
            peers,
            by_addr,
            buf: vec![0u8; 64 * 1024],
            backlogged: false,
            unknown_src: 0,
        })
    }

    /// The locally bound address (useful when binding port 0 in tests).
    ///
    /// # Errors
    ///
    /// Returns the underlying `local_addr` error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }
}

impl Transport for UdpTransport {
    fn send_to(&mut self, peer: usize, frame: &[u8]) -> io::Result<()> {
        let addr = self
            .peers
            .get(peer)
            .copied()
            .flatten()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "unknown peer index"))?;
        // A full OS buffer surfaces as WouldBlock on some platforms; that
        // is datagram loss, not a daemon-fatal condition.
        match self.socket.send_to(frame, addr) {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn recv_from(&mut self) -> io::Result<Option<(usize, Vec<u8>)>> {
        self.backlogged = false;
        for _ in 0..MAX_SKIPS_PER_RECV {
            match self.socket.recv_from(&mut self.buf) {
                Ok((n, src)) => match self.by_addr.get(&src) {
                    Some(&peer) => return Ok(Some((peer, self.buf[..n].to_vec()))),
                    None => self.unknown_src += 1,
                },
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                // Linux surfaces async ICMP errors (peer not yet bound)
                // as ConnectionRefused on the next receive; for datagrams
                // that is history, not state — keep reading.
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {}
                Err(e) => return Err(e),
            }
        }
        // Still readable: the caller's timers get their turn before it
        // reads on.
        self.backlogged = true;
        Ok(None)
    }

    fn backlogged(&self) -> bool {
        self.backlogged
    }

    fn wait_readable(&mut self, timeout: Duration) -> io::Result<bool> {
        let mut fd = PollFd {
            fd: self.socket.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: c_long::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fd` and `ts` are live, correctly laid-out locals for the
        // whole call (`nfds` is 1, matching the single `PollFd`), the
        // descriptor is owned by `self.socket`, and a null `sigmask` leaves
        // the signal mask alone. `ppoll` writes only `fd.revents`.
        let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
        match ready {
            // POLLERR counts as ready: the next receive drains the error.
            1.. => Ok(true),
            0 => Ok(false),
            _ => match io::Error::last_os_error() {
                e if e.kind() == io::ErrorKind::Interrupted => Ok(false),
                e => Err(e),
            },
        }
    }
}

/// A datagram in flight on the vnet: `(sender id, frame bytes)`.
type VnetFrame = (usize, Vec<u8>);

/// A deterministic in-memory [`Transport`]: every node holds a receiver and
/// the senders of all its peers. Delivery is instantaneous and lossless —
/// latency, loss, and outages are the [`RealDriver`](crate::RealDriver)'s
/// job, exactly as on UDP, so tests over the vnet exercise the same link
/// emulation code as the real thing.
#[derive(Debug)]
pub struct VnetTransport {
    inbox: Receiver<VnetFrame>,
    /// The frame a wait took off the inbox; the next receive returns it.
    stash: Option<VnetFrame>,
    /// Sender handles to each peer's inbox, tagged with our own id.
    peers: Vec<Option<(usize, Sender<VnetFrame>)>>,
}

impl VnetTransport {
    /// Builds one connected transport per node for `n` nodes; `linked`
    /// lists the node-id pairs that may exchange datagrams.
    #[must_use]
    pub fn mesh(n: usize, linked: &[(usize, usize)]) -> Vec<VnetTransport> {
        let mut senders = Vec::with_capacity(n);
        let mut nets: Vec<VnetTransport> = (0..n)
            .map(|_| {
                let (tx, rx) = channel();
                senders.push(tx);
                VnetTransport {
                    inbox: rx,
                    stash: None,
                    peers: vec![None; n],
                }
            })
            .collect();
        for &(a, b) in linked {
            nets[a].peers[b] = Some((a, senders[b].clone()));
            nets[b].peers[a] = Some((b, senders[a].clone()));
        }
        nets
    }
}

impl Transport for VnetTransport {
    fn send_to(&mut self, peer: usize, frame: &[u8]) -> io::Result<()> {
        let (me, tx) = self
            .peers
            .get(peer)
            .and_then(Option::as_ref)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "unknown peer index"))?;
        // A hung-up peer is datagram loss, not an error.
        let _ = tx.send((*me, frame.to_vec()));
        Ok(())
    }

    fn recv_from(&mut self) -> io::Result<Option<(usize, Vec<u8>)>> {
        Ok(self.stash.take().or_else(|| self.inbox.try_recv().ok()))
    }

    fn wait_readable(&mut self, timeout: Duration) -> io::Result<bool> {
        if self.stash.is_none() {
            match self.inbox.recv_timeout(timeout) {
                Ok(frame) => self.stash = Some(frame),
                Err(RecvTimeoutError::Timeout) => {}
                // Every peer hung up, so nothing can arrive any more; the
                // caller's deadline still stands.
                Err(RecvTimeoutError::Disconnected) => std::thread::sleep(timeout),
            }
        }
        Ok(self.stash.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn loopback() -> UdpSocket {
        UdpSocket::bind("127.0.0.1:0").expect("loopback bind")
    }

    /// A transport on loopback whose only peer (index 1) is `peer`.
    fn udp_with_peer(peer: &UdpSocket) -> UdpTransport {
        let local = "127.0.0.1:0".parse().unwrap();
        UdpTransport::bind(local, vec![None, Some(peer.local_addr().unwrap())]).unwrap()
    }

    /// The wait's granularity is a high-resolution timer's, not a jiffy's:
    /// a 200 µs wait on a silent socket takes its 200 µs and, at the median
    /// of twenty, not the 8 ms `SO_RCVTIMEO` rounds it up to.
    #[test]
    fn udp_wait_times_out_with_sub_millisecond_granularity() {
        let peer = loopback();
        let mut t = udp_with_peer(&peer);
        let asked = Duration::from_micros(200);
        let mut took: Vec<Duration> = (0..20)
            .map(|_| {
                let started = Instant::now();
                assert!(!t.wait_readable(asked).unwrap());
                started.elapsed()
            })
            .collect();
        took.sort();
        assert!(
            took[0] >= asked && took[10] < Duration::from_millis(2),
            "{took:?}"
        );
    }

    /// Both transports: a wait ends when a datagram arrives, well before
    /// its timeout, and the datagram is there for the next receive.
    #[test]
    fn a_datagram_ends_the_wait() {
        fn check<T: Transport>(mut t: T, send: impl FnOnce() + Send + 'static) {
            let sender = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                send();
            });
            let started = Instant::now();
            assert!(t.wait_readable(Duration::from_secs(5)).unwrap());
            assert!(started.elapsed() < Duration::from_secs(1));
            sender.join().unwrap();
            assert!(t.wait_readable(Duration::ZERO).unwrap(), "still pending");
            assert_eq!(t.recv_from().unwrap(), Some((1, b"hi".to_vec())));
            assert_eq!(t.recv_from().unwrap(), None);
            assert!(!t.wait_readable(Duration::from_micros(100)).unwrap());
        }
        let peer = loopback();
        let t = udp_with_peer(&peer);
        let to = t.local_addr().unwrap();
        check(t, move || {
            peer.send_to(b"hi", to).unwrap();
        });
        let mut nets = VnetTransport::mesh(2, &[(0, 1)]);
        let mut b = nets.pop().unwrap();
        check(nets.pop().unwrap(), move || b.send_to(0, b"hi").unwrap());
    }

    /// A vnet endpoint whose peers are all gone still honours the timeout
    /// instead of returning at once (which would spin its daemon).
    #[test]
    fn vnet_wait_outlives_its_peers() {
        let mut alone = VnetTransport::mesh(2, &[(0, 1)]).remove(0);
        let started = Instant::now();
        assert!(!alone.wait_readable(Duration::from_millis(3)).unwrap());
        assert!(started.elapsed() >= Duration::from_millis(3));
    }

    /// One receive reads past a bounded number of outsiders' datagrams and
    /// then reports the socket empty, so whoever polls it gets control back
    /// however full an outsider keeps the buffer; nothing is lost, the
    /// peer's datagram behind them arrives on a later call.
    #[test]
    fn udp_receive_skips_a_bounded_number_of_unknown_sources() {
        let (peer, outsider) = (loopback(), loopback());
        let mut t = udp_with_peer(&peer);
        let to = t.local_addr().unwrap();
        let junk = 2 * MAX_SKIPS_PER_RECV + 3;
        for _ in 0..junk {
            outsider.send_to(b"x", to).unwrap();
        }
        peer.send_to(b"hi", to).unwrap();
        for call in 1..=2 {
            assert_eq!(t.recv_from().unwrap(), None);
            assert_eq!(t.unknown_src, (call * MAX_SKIPS_PER_RECV) as u64);
            assert!(t.wait_readable(Duration::ZERO).unwrap(), "more is queued");
        }
        assert_eq!(t.recv_from().unwrap(), Some((1, b"hi".to_vec())));
        assert_eq!(t.unknown_src, junk as u64);
    }
}

//! Frame transports: the [`Communicator`] trait plus its two
//! implementations — an in-process [`Loopback`] pair for tests and the
//! `--local` self-test mode, and [`tcp_v1`] for real sockets.
//!
//! Both ends of either transport speak exactly the same
//! [`Frame`] codec: the loopback encodes and
//! decodes every message through the byte-level codec (it is a codec
//! test as much as a transport), so protocol behaviour observed over
//! loopback transfers to TCP unchanged.
//!
//! # Examples
//!
//! A loopback round trip — the satellite doc-example contract:
//!
//! ```
//! use perfport_serve::comm::{Communicator, Loopback};
//! use perfport_serve::frame::{Frame, Role};
//!
//! let (mut coord_end, mut worker_end) = Loopback::pair();
//! worker_end
//!     .send(&Frame::Hello {
//!         role: Role::Worker,
//!         ident: "w0".to_string(),
//!         detail: "{}".to_string(),
//!     })
//!     .unwrap();
//! match coord_end.recv().unwrap() {
//!     Frame::Hello { role, ident, .. } => {
//!         assert_eq!(role, Role::Worker);
//!         assert_eq!(ident, "w0");
//!     }
//!     other => panic!("unexpected frame {}", other.name()),
//! }
//!
//! // Dropping one end closes the channel: the peer sees a typed error,
//! // which the coordinator treats as a dead worker (immediate re-lease).
//! drop(worker_end);
//! assert!(coord_end.recv().is_err());
//! ```

use crate::frame::{DecodeStep, Frame, FrameError};
use std::fmt;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A transport-level failure while sending or receiving frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The peer is gone: orderly close, dropped loopback end, TCP
    /// EOF/reset. The coordinator maps this to an immediate re-lease.
    Closed,
    /// An I/O error other than closure (message carries the OS detail).
    Io(String),
    /// The peer's bytes failed to decode; the connection is unusable
    /// because framing has lost sync.
    Frame(FrameError),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Closed => write!(f, "connection closed by peer"),
            CommError::Io(detail) => write!(f, "transport error: {detail}"),
            CommError::Frame(e) => write!(f, "framing error: {e}"),
        }
    }
}

impl std::error::Error for CommError {}

impl From<FrameError> for CommError {
    fn from(e: FrameError) -> CommError {
        CommError::Frame(e)
    }
}

/// A bidirectional, ordered frame channel between one worker and the
/// coordinator. Implementations must preserve frame order and must
/// surface peer death as [`CommError::Closed`] rather than blocking
/// forever — the lease state machine's failure detection depends on it.
pub trait Communicator: Send {
    /// Sends one frame, blocking until it is handed to the transport.
    ///
    /// # Errors
    ///
    /// [`CommError::Closed`] when the peer is gone, [`CommError::Io`]
    /// for other transport failures.
    fn send(&mut self, frame: &Frame) -> Result<(), CommError>;

    /// Waits up to `timeout` for the next frame. `Ok(None)` means the
    /// timeout elapsed with the peer still alive. A zero `timeout`
    /// still returns a frame that has already been delivered. The
    /// coordinator's per-connection driver waits one heartbeat TTL at a
    /// time, so `Ok(None)` there means the worker stayed silent that
    /// long.
    ///
    /// # Errors
    ///
    /// [`CommError::Closed`] on peer death, [`CommError::Frame`] when
    /// the stream desynchronizes.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Frame>, CommError>;

    /// Blocks until a frame arrives (or the peer dies).
    ///
    /// # Errors
    ///
    /// Same as [`Communicator::recv_timeout`], minus the timeout case.
    fn recv(&mut self) -> Result<Frame, CommError> {
        loop {
            if let Some(frame) = self.recv_timeout(Duration::from_millis(500))? {
                return Ok(frame);
            }
        }
    }

    /// A short human-readable peer description for logs.
    fn peer(&self) -> String;
}

/// In-process transport: a pair of connected endpoints over byte
/// channels. Frames are encoded on send and decoded on receive, so the
/// loopback exercises the full wire codec.
pub struct Loopback {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
    label: &'static str,
}

impl Loopback {
    /// Creates a connected endpoint pair `(a, b)`: everything sent on
    /// `a` is received by `b` and vice versa. Dropping either end makes
    /// the peer observe [`CommError::Closed`].
    pub fn pair() -> (Loopback, Loopback) {
        let (atx, brx) = mpsc::channel();
        let (btx, arx) = mpsc::channel();
        (
            Loopback {
                tx: atx,
                rx: arx,
                label: "loopback:a",
            },
            Loopback {
                tx: btx,
                rx: brx,
                label: "loopback:b",
            },
        )
    }
}

impl Communicator for Loopback {
    fn send(&mut self, frame: &Frame) -> Result<(), CommError> {
        perfport_telemetry::counter_add("serve/frames_tx", 1);
        self.tx.send(frame.encode()).map_err(|_| CommError::Closed)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Frame>, CommError> {
        match self.rx.recv_timeout(timeout) {
            Ok(bytes) => {
                perfport_telemetry::counter_add("serve/frames_rx", 1);
                Ok(Some(Frame::decode_exact(&bytes)?))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(CommError::Closed),
        }
    }

    fn peer(&self) -> String {
        self.label.to_string()
    }
}

/// Version 1 of the TCP transport: one [`Frame`] stream per
/// `TcpStream`, decoded incrementally through
/// [`Frame::decode_step`](crate::frame::Frame::decode_step) so frames
/// split across segments reassemble correctly.
pub mod tcp_v1 {
    use super::*;
    use std::io::{ErrorKind, Read, Write};
    use std::net::{TcpStream, ToSocketAddrs};

    /// A [`Communicator`] over one TCP connection.
    pub struct TcpCommunicator {
        stream: TcpStream,
        buf: Vec<u8>,
        peer: String,
    }

    impl TcpCommunicator {
        /// Wraps an accepted or connected stream. Disables Nagle so
        /// heartbeats are timely; failure to do so is non-fatal.
        pub fn new(stream: TcpStream) -> TcpCommunicator {
            let _ = stream.set_nodelay(true);
            let peer = stream
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "tcp:unknown".to_string());
            TcpCommunicator {
                stream,
                buf: Vec::new(),
                peer,
            }
        }

        /// Reads whatever the socket buffer holds without waiting.
        fn read_now(&mut self, chunk: &mut [u8]) -> std::io::Result<usize> {
            self.stream.set_nonblocking(true)?;
            let read = self.stream.read(chunk);
            self.stream.set_nonblocking(false).and(read)
        }

        /// Connects to a coordinator, retrying every 100 ms for up to
        /// `patience` (workers routinely start before the coordinator's
        /// listener is up).
        ///
        /// # Errors
        ///
        /// [`CommError::Io`] with the last OS error once patience runs
        /// out.
        pub fn connect(
            addr: impl ToSocketAddrs,
            patience: Duration,
        ) -> Result<TcpCommunicator, CommError> {
            let deadline = Instant::now() + patience;
            loop {
                match TcpStream::connect(&addr) {
                    Ok(stream) => return Ok(TcpCommunicator::new(stream)),
                    Err(e) if Instant::now() < deadline => {
                        let _ = e;
                        std::thread::sleep(Duration::from_millis(100));
                    }
                    Err(e) => return Err(CommError::Io(format!("connect: {e}"))),
                }
            }
        }
    }

    fn closed_kind(kind: ErrorKind) -> bool {
        matches!(
            kind,
            ErrorKind::BrokenPipe
                | ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::UnexpectedEof
                | ErrorKind::NotConnected
        )
    }

    impl Communicator for TcpCommunicator {
        fn send(&mut self, frame: &Frame) -> Result<(), CommError> {
            perfport_telemetry::counter_add("serve/frames_tx", 1);
            self.stream.write_all(&frame.encode()).map_err(|e| {
                if closed_kind(e.kind()) {
                    CommError::Closed
                } else {
                    CommError::Io(format!("send: {e}"))
                }
            })
        }

        fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Frame>, CommError> {
            let deadline = Instant::now() + timeout;
            loop {
                match Frame::decode_step(&self.buf)? {
                    DecodeStep::Ready { frame, consumed } => {
                        self.buf.drain(..consumed);
                        perfport_telemetry::counter_add("serve/frames_rx", 1);
                        return Ok(Some(frame));
                    }
                    DecodeStep::Incomplete { .. } => {}
                }
                let mut chunk = [0u8; 4096];
                let read = if timeout.is_zero() {
                    // Non-blocking reads until the buffer runs dry: a
                    // zero timeout still sees bytes already delivered.
                    self.read_now(&mut chunk)
                } else {
                    let now = Instant::now();
                    if now >= deadline {
                        return Ok(None);
                    }
                    // Short read timeout so a frame arriving mid-wait is
                    // still picked up promptly within the window.
                    let wait = (deadline - now)
                        .min(Duration::from_millis(50))
                        .max(Duration::from_millis(1));
                    self.stream
                        .set_read_timeout(Some(wait))
                        .map_err(|e| CommError::Io(format!("set_read_timeout: {e}")))?;
                    self.stream.read(&mut chunk)
                };
                match read {
                    Ok(0) => return Err(CommError::Closed),
                    Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        if timeout.is_zero() {
                            return Ok(None);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) if closed_kind(e.kind()) => return Err(CommError::Closed),
                    Err(e) => return Err(CommError::Io(format!("recv: {e}"))),
                }
            }
        }

        fn peer(&self) -> String {
            format!("tcp:{}", self.peer)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Role;

    #[test]
    fn loopback_round_trips_frames_in_order() {
        let (mut a, mut b) = Loopback::pair();
        for i in 0..5u64 {
            a.send(&Frame::Heartbeat {
                lease_id: i,
                done: i,
            })
            .unwrap();
        }
        for i in 0..5u64 {
            assert_eq!(
                b.recv().unwrap(),
                Frame::Heartbeat {
                    lease_id: i,
                    done: i
                }
            );
        }
    }

    #[test]
    fn loopback_timeout_and_close_are_distinct() {
        let (mut a, b) = Loopback::pair();
        assert_eq!(a.recv_timeout(Duration::from_millis(10)), Ok(None));
        drop(b);
        assert_eq!(
            a.recv_timeout(Duration::from_millis(10)),
            Err(CommError::Closed)
        );
        assert_eq!(
            a.send(&Frame::Bye {
                reason: "x".to_string()
            }),
            Err(CommError::Closed)
        );
    }

    #[test]
    fn tcp_v1_round_trips_split_frames() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut comm = tcp_v1::TcpCommunicator::new(stream);
            let frame = comm.recv().unwrap();
            comm.send(&frame).unwrap();
            // Hold the connection open until the client has read the
            // echo back.
            let _ = comm.recv_timeout(Duration::from_millis(500));
        });
        let mut client = tcp_v1::TcpCommunicator::connect(addr, Duration::from_secs(5)).unwrap();
        let frame = Frame::Hello {
            role: Role::Worker,
            ident: "w9".to_string(),
            detail: "x".repeat(10_000), // spans multiple 4 KiB reads
        };
        client.send(&frame).unwrap();
        assert_eq!(client.recv().unwrap(), frame);
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn zero_timeout_returns_an_already_delivered_frame() {
        use std::net::TcpListener;
        let frame = Frame::Heartbeat {
            lease_id: 7,
            done: 3,
        };

        let (mut a, mut b) = Loopback::pair();
        assert_eq!(b.recv_timeout(Duration::ZERO), Ok(None));
        a.send(&frame).unwrap();
        assert_eq!(b.recv_timeout(Duration::ZERO), Ok(Some(frame.clone())));

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = tcp_v1::TcpCommunicator::connect(addr, Duration::from_secs(5)).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let probe = stream.try_clone().unwrap();
        let mut server = tcp_v1::TcpCommunicator::new(stream);
        assert_eq!(server.recv_timeout(Duration::ZERO), Ok(None));
        client.send(&frame).unwrap();
        // Wait until the whole frame sits in the server's socket buffer.
        let len = frame.encode().len();
        let mut peeked = vec![0u8; len];
        while probe.peek(&mut peeked).unwrap() < len {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(server.recv_timeout(Duration::ZERO), Ok(Some(frame)));
        assert_eq!(server.recv_timeout(Duration::ZERO), Ok(None));
    }

    #[test]
    fn tcp_v1_reports_closure() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(stream); // immediate close
        });
        let mut client = tcp_v1::TcpCommunicator::connect(addr, Duration::from_secs(5)).unwrap();
        server.join().unwrap();
        assert_eq!(client.recv(), Err(CommError::Closed));
    }
}

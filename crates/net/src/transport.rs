//! Transports: how frames move between a coordinator and its clients.
//!
//! A [`Transport`] is one bidirectional, ordered, reliable frame pipe.
//! Two backends ship here:
//!
//! - [`ChannelTransport`] — an in-process pair over `std::sync::mpsc`,
//!   the reference backend. The sender encodes the prelude and hands the
//!   payload over by pointer; the receiver validates both exactly as the
//!   byte decoder would, so the wire format is exercised even in-process.
//! - [`UdsTransport`] (Unix) — a Unix-domain socket stream, the
//!   process-boundary backend the `rte-coordinator`/`rte-client`
//!   binaries speak.
//!
//! [`FanIn`] merges several transports into one wall-clock arrival-order
//! stream. It exists *only* for the documented non-deterministic
//! wall-clock async mode (determinism contract rule 8's opt-out): it
//! spawns one reader thread per link, which is a sanctioned exception to
//! lint rule L5 — deterministic code never touches it.

use std::io::{BufReader, BufWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

use crate::error::NetError;
use crate::frame::{Frame, SealedFrame};

/// One bidirectional, ordered, reliable frame pipe.
pub trait Transport {
    /// Sends one frame (blocking until it is handed to the pipe).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] when the peer hung up, or any
    /// encoding/I/O error.
    fn send(&mut self, frame: &Frame) -> Result<(), NetError>;

    /// Receives the next frame (blocking).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] when the peer hung up, or any
    /// decoding/I/O error.
    fn recv(&mut self) -> Result<Frame, NetError>;

    /// Receives the next frame, giving up after `timeout` with
    /// [`NetError::Timeout`]. A stalled or half-dead peer must never
    /// wedge the caller forever — every coordinator-side read goes
    /// through this path.
    ///
    /// The default implementation falls back to the blocking [`recv`]
    /// (so external impls keep compiling) — backends that can honour a
    /// deadline override it.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when the deadline elapses, otherwise the
    /// same errors as [`recv`].
    ///
    /// [`recv`]: Transport::recv
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, NetError> {
        let _ = timeout;
        self.recv()
    }

    /// Sends one frame, giving up after `timeout` with
    /// [`NetError::Timeout`]. Defaults to the blocking [`send`].
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when the deadline elapses, otherwise the
    /// same errors as [`send`].
    ///
    /// [`send`]: Transport::send
    fn send_timeout(&mut self, frame: &Frame, timeout: Duration) -> Result<(), NetError> {
        let _ = timeout;
        self.send(frame)
    }
}

/// In-process transport half over `std::sync::mpsc`, carrying *sealed*
/// frames — encoded prelude, shared payload, remembered trailer — so the
/// codec's validation is on the path even without a socket.
pub struct ChannelTransport {
    tx: Sender<SealedFrame>,
    rx: Receiver<SealedFrame>,
}

impl ChannelTransport {
    /// Creates a connected pair of transport halves.
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let (a_tx, b_rx) = channel();
        let (b_tx, a_rx) = channel();
        (
            ChannelTransport { tx: a_tx, rx: a_rx },
            ChannelTransport { tx: b_tx, rx: b_rx },
        )
    }

    /// Receives the next frame without blocking; `Ok(None)` when the
    /// queue is currently empty (single-threaded pumps poll with this).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] when the peer hung up, or a decode
    /// error for damaged bytes.
    pub fn try_recv(&mut self) -> Result<Option<Frame>, NetError> {
        match self.rx.try_recv() {
            Ok(sealed) => Ok(Some(sealed.open()?)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(NetError::Closed),
        }
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.tx.send(frame.seal()?).map_err(|_| NetError::Closed)
    }

    fn recv(&mut self) -> Result<Frame, NetError> {
        self.rx.recv().map_err(|_| NetError::Closed)?.open()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, NetError> {
        match self.rx.recv_timeout(timeout) {
            Ok(sealed) => sealed.open(),
            Err(RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }

    // `send` on an unbounded channel never blocks, so the default
    // `send_timeout` fallback is already deadline-correct here.
}

/// Unix-domain-socket transport: the process-boundary backend.
#[cfg(unix)]
#[derive(Debug)]
pub struct UdsTransport {
    reader: BufReader<std::os::unix::net::UnixStream>,
    writer: BufWriter<std::os::unix::net::UnixStream>,
}

#[cfg(unix)]
impl UdsTransport {
    /// Wraps a connected stream (cloning the descriptor for the read
    /// half so reads and writes buffer independently).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the descriptor cannot be cloned.
    pub fn from_stream(stream: std::os::unix::net::UnixStream) -> Result<Self, NetError> {
        let read_half = stream.try_clone()?;
        Ok(UdsTransport {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        })
    }

    /// Connects to the socket at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the connection fails.
    pub fn connect(path: impl AsRef<std::path::Path>) -> Result<Self, NetError> {
        Self::from_stream(std::os::unix::net::UnixStream::connect(path)?)
    }

    /// Clones the underlying socket into a second transport handle, for
    /// the wall-clock split: the original goes into a [`FanIn`] (read
    /// side) while the clone stays with the coordinator for sends.
    /// Receiving on both handles concurrently would split the byte
    /// stream between two buffers — treat the clone as write-only.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the descriptor cannot be cloned.
    pub fn duplicate(&self) -> Result<Self, NetError> {
        Self::from_stream(self.writer.get_ref().try_clone()?)
    }
}

#[cfg(unix)]
impl Transport for UdsTransport {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        frame.write_to(&mut self.writer)?;
        self.writer.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, NetError> {
        Frame::read_from(&mut self.reader)
    }

    /// Deadline via the socket's read timeout. A timeout that fires
    /// *mid-frame* leaves the byte stream desynchronized — the caller
    /// must treat the transport as dead and reconnect, never resume
    /// reading on it (the retry layer does exactly that).
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, NetError> {
        // A zero Duration would mean "no timeout" to the OS; clamp up.
        let timeout = timeout.max(Duration::from_millis(1));
        self.reader.get_ref().set_read_timeout(Some(timeout))?;
        let result = Frame::read_from(&mut self.reader);
        let _ = self.reader.get_ref().set_read_timeout(None);
        result
    }

    fn send_timeout(&mut self, frame: &Frame, timeout: Duration) -> Result<(), NetError> {
        let timeout = timeout.max(Duration::from_millis(1));
        self.writer.get_ref().set_write_timeout(Some(timeout))?;
        let result = frame
            .write_to(&mut self.writer)
            .and_then(|()| self.writer.flush().map_err(NetError::from));
        let _ = self.writer.get_ref().set_write_timeout(None);
        result
    }
}

/// Listening side of the UDS backend.
#[cfg(unix)]
pub struct UdsListener {
    listener: std::os::unix::net::UnixListener,
}

#[cfg(unix)]
impl UdsListener {
    /// Binds a fresh socket at `path` (removing a stale file first, so a
    /// crashed previous run cannot wedge the address).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the bind fails.
    pub fn bind(path: impl AsRef<std::path::Path>) -> Result<Self, NetError> {
        let path = path.as_ref();
        let _ = std::fs::remove_file(path);
        Ok(UdsListener {
            listener: std::os::unix::net::UnixListener::bind(path)?,
        })
    }

    /// Accepts the next client connection (blocking).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the accept fails.
    pub fn accept(&self) -> Result<UdsTransport, NetError> {
        let (stream, _) = self.listener.accept()?;
        UdsTransport::from_stream(stream)
    }

    /// Accepts the next client connection, giving up after `timeout`
    /// with [`NetError::Timeout`] — so an accept loop whose fleet never
    /// fully arrives can shut down instead of wedging forever.
    ///
    /// Implemented by polling a non-blocking accept every few
    /// milliseconds; the listener is restored to blocking mode before
    /// returning.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when the deadline elapses, otherwise
    /// [`NetError::Io`].
    pub fn accept_timeout(&self, timeout: Duration) -> Result<UdsTransport, NetError> {
        const POLL: Duration = Duration::from_millis(5);
        self.listener.set_nonblocking(true)?;
        let result = (|| {
            let mut budget = timeout;
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false)?;
                        return UdsTransport::from_stream(stream);
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        if budget.is_zero() {
                            return Err(NetError::Timeout);
                        }
                        let step = POLL.min(budget);
                        std::thread::sleep(step);
                        budget = budget.saturating_sub(step);
                    }
                    Err(e) => return Err(NetError::from(e)),
                }
            }
        })();
        let _ = self.listener.set_nonblocking(false);
        result
    }
}

/// Wall-clock arrival-order fan-in over several transports.
///
/// **This is the non-deterministic opt-out.** Each link gets a reader
/// thread; frames surface in true arrival order, so two runs of the
/// same experiment can aggregate in different orders. Deterministic mode
/// (the default everywhere) never constructs one of these — the seeded
/// virtual clock replays a fixed order instead.
pub struct FanIn {
    rx: Receiver<(usize, Result<Frame, NetError>)>,
    links: usize,
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl FanIn {
    /// How often reader threads surface from their link to check the
    /// stop flag. Pure wall-clock machinery (this whole type is the
    /// rule-8 opt-out), so the cadence carries no determinism weight.
    const POLL: Duration = Duration::from_millis(20);

    /// Consumes `links` and starts one reader thread per link. Threads
    /// exit when their link closes or errors terminally (the terminal
    /// result is forwarded first), or when the fan-in is dropped —
    /// readers poll with [`Transport::recv_timeout`] so a stop request
    /// is honoured even while a link is silent, and `Drop` joins every
    /// thread: no leaked readers outlive the fan-in.
    pub fn new<T: Transport + Send + 'static>(links: Vec<T>) -> Self {
        let (tx, rx) = channel();
        let n = links.len();
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::with_capacity(n);
        for (index, mut link) in links.into_iter().enumerate() {
            let tx = tx.clone();
            let stop = Arc::clone(&stop);
            // rte-lint: allow(L5) sanctioned wall-clock fan-in: one reader
            // thread per link, used only by the documented non-deterministic
            // async opt-out, never by deterministic mode.
            handles.push(std::thread::spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let item = match link.recv_timeout(Self::POLL) {
                    Err(NetError::Timeout) => continue,
                    item => item,
                };
                let terminal = item.is_err();
                if tx.send((index, item)).is_err() || terminal {
                    break;
                }
            }));
        }
        FanIn {
            rx,
            links: n,
            stop,
            handles,
        }
    }

    /// Number of links this fan-in was built over.
    pub fn links(&self) -> usize {
        self.links
    }

    /// The next `(link index, frame)` in wall-clock arrival order.
    ///
    /// # Errors
    ///
    /// Returns the failing link's error (with its index) or
    /// [`NetError::Closed`] when every link has finished.
    pub fn recv_any(&mut self) -> Result<(usize, Frame), NetError> {
        match self.rx.recv() {
            Ok((index, Ok(frame))) => Ok((index, frame)),
            Ok((_, Err(e))) => Err(e),
            Err(_) => Err(NetError::Closed),
        }
    }

    /// Signals every reader thread to stop and joins them. Called by
    /// `Drop`; exposed so tests can assert the threads are really gone.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for FanIn {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pair_round_trips() {
        let (mut a, mut b) = ChannelTransport::pair();
        let frame = Frame::new(1, 0, 0, b"ping".to_vec());
        a.send(&frame).unwrap();
        assert_eq!(b.recv().unwrap(), frame);
        let reply = Frame::new(2, 1, 0, b"pong".to_vec());
        b.send(&reply).unwrap();
        assert_eq!(a.try_recv().unwrap(), Some(reply));
        assert_eq!(a.try_recv().unwrap(), None);
    }

    #[test]
    fn dropped_peer_is_closed() {
        let (mut a, b) = ChannelTransport::pair();
        drop(b);
        assert_eq!(
            a.send(&Frame::new(0, 0, 0, Vec::new())).unwrap_err(),
            NetError::Closed
        );
        assert_eq!(a.recv().unwrap_err(), NetError::Closed);
    }

    #[cfg(unix)]
    #[test]
    fn uds_round_trips_across_a_socket() {
        let dir = std::env::temp_dir().join(format!("rte-net-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("uds-roundtrip.sock");
        let listener = UdsListener::bind(&path).unwrap();
        let client = std::thread::spawn({
            let path = path.clone();
            move || {
                let mut t = UdsTransport::connect(&path).unwrap();
                t.send(&Frame::new(1, 5, 0, b"hello".to_vec())).unwrap();
                t.recv().unwrap()
            }
        });
        let mut server_side = listener.accept().unwrap();
        let got = server_side.recv().unwrap();
        assert_eq!(got.sender, 5);
        assert_eq!(&got.payload[..], b"hello");
        server_side
            .send(&Frame::new(2, 0, 0, b"welcome".to_vec()))
            .unwrap();
        let reply = client.join().unwrap();
        assert_eq!(&reply.payload[..], b"welcome");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fan_in_surfaces_every_frame() {
        let (mut near_a, far_a) = ChannelTransport::pair();
        let (mut near_b, far_b) = ChannelTransport::pair();
        near_a.send(&Frame::new(1, 1, 0, b"a".to_vec())).unwrap();
        near_b.send(&Frame::new(1, 2, 0, b"b".to_vec())).unwrap();
        let mut fan = FanIn::new(vec![far_a, far_b]);
        assert_eq!(fan.links(), 2);
        let mut seen = Vec::new();
        for _ in 0..2 {
            let (_, frame) = fan.recv_any().unwrap();
            seen.push(frame.sender);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
        drop(near_a);
        drop(near_b);
        assert!(fan.recv_any().is_err());
    }

    #[test]
    fn channel_recv_timeout_times_out_then_delivers() {
        let (mut a, mut b) = ChannelTransport::pair();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            NetError::Timeout
        );
        let frame = Frame::new(1, 3, 7, b"late".to_vec());
        a.send(&frame).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_millis(10)).unwrap(), frame);
        drop(a);
        assert_eq!(
            b.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            NetError::Closed
        );
    }

    #[cfg(unix)]
    #[test]
    fn uds_recv_timeout_survives_a_silent_peer() {
        let dir = std::env::temp_dir().join(format!("rte-net-to-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("uds-timeout.sock");
        let listener = UdsListener::bind(&path).unwrap();
        // The client connects and then says nothing at all.
        let silent = UdsTransport::connect(&path).unwrap();
        let mut server_side = listener.accept().unwrap();
        assert_eq!(
            server_side
                .recv_timeout(Duration::from_millis(30))
                .unwrap_err(),
            NetError::Timeout
        );
        // The transport is still usable once the peer wakes up (the
        // timeout fired between frames, not mid-frame).
        let mut silent = silent;
        silent
            .send(&Frame::new(1, 9, 0, b"awake".to_vec()))
            .unwrap();
        let got = server_side.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&got.payload[..], b"awake");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn accept_timeout_gives_up_without_a_client() {
        let dir = std::env::temp_dir().join(format!("rte-net-acc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("uds-accept.sock");
        let listener = UdsListener::bind(&path).unwrap();
        assert_eq!(
            listener
                .accept_timeout(Duration::from_millis(20))
                .unwrap_err(),
            NetError::Timeout
        );
        // A real client still gets through afterwards.
        let joiner = std::thread::spawn({
            let path = path.clone();
            move || UdsTransport::connect(&path).unwrap()
        });
        let accepted = listener.accept_timeout(Duration::from_secs(5));
        assert!(accepted.is_ok());
        drop(joiner.join().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fan_in_joins_its_readers_on_drop() {
        // Peers stay open and silent: without the stop flag + timeout
        // polling, the reader threads would block forever in `recv` and
        // leak past the fan-in's lifetime.
        let (near_a, far_a) = ChannelTransport::pair();
        let (near_b, far_b) = ChannelTransport::pair();
        let mut fan = FanIn::new(vec![far_a, far_b]);
        assert_eq!(fan.handles.len(), 2);
        fan.shutdown();
        assert!(fan.handles.is_empty(), "shutdown joins every reader");
        // Dropping after an explicit shutdown is a no-op, and the silent
        // peers were never required to close first.
        drop(fan);
        drop(near_a);
        drop(near_b);
    }
}

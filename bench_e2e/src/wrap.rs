//! Benchmark-side wrappers at the program's public seams.
//!
//! The program is measured from outside: nothing here changes what the
//! wrapped code computes, only counts what crosses the seam and, in the
//! traced run, records a span around each crossing.
//!
//! - [`MeteredTransport`] wraps any [`Transport`]: frame and byte counts
//!   always, `net.send` / `net.recv_wait` spans when tracing.
//! - [`TracedLink`] does what `rte_fed::LocalLink` does, assembled from
//!   the same public pieces (`ChannelTransport::pair`,
//!   `Message::from_frame`, `ClientSession::handle`, `into_frame`), with
//!   a span on each piece.
//! - [`Seam`] names the time *between* two seam crossings of the real
//!   `run_rounds_resilient` loop after the library work known to happen
//!   there (encoding a deploy before a send, decoding an update after a
//!   receive), and keeps the `fed.round` span open from one round hook
//!   to the next.
//! - [`TracedShardSource`] is a [`RecordSource`] over one shard file —
//!   what `rte_core` builds privately — with a span and a counter on
//!   every read.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use decentralized_routability::eda::shard::ShardReader;
use decentralized_routability::fed::wire::Message;
use decentralized_routability::fed::{ClientSession, FedError, RecordSource, WireStats};
use decentralized_routability::net::{ChannelTransport, Frame, NetError, Transport};

use crate::clock::now_ns;
use crate::trace::{SpanGuard, Tracer};

/// Which side of the loop the coordinator thread was last seen on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Crossing {
    /// A round began (run start or the previous round's hook returned).
    RoundStart,
    /// A `send` returned.
    Sent,
    /// A `recv` returned.
    Received,
}

/// Tracks the coordinator thread between seam crossings of one traced
/// wire run. Single-threaded by construction: the coordinator loop and
/// its in-process links all run on the calling thread.
pub struct Seam<'t> {
    tracer: &'t Tracer,
    last_ns: Cell<u64>,
    last: Cell<Crossing>,
    round: Cell<usize>,
    open_round: RefCell<Option<SpanGuard<'t>>>,
}

impl<'t> Seam<'t> {
    /// Starts tracking at the top of a run and opens round 1's span.
    pub fn begin(tracer: &'t Tracer) -> Self {
        let seam = Seam {
            tracer,
            last_ns: Cell::new(now_ns()),
            last: Cell::new(Crossing::RoundStart),
            round: Cell::new(1),
            open_round: RefCell::new(None),
        };
        *seam.open_round.borrow_mut() = Some(tracer.span("fed.round").round(1));
        seam
    }

    /// The tracer spans are recorded into.
    pub fn tracer(&self) -> &'t Tracer {
        self.tracer
    }

    fn round(&self) -> usize {
        self.round.get()
    }

    /// Records the time since the last crossing under `name`.
    fn gap(&self, name: &'static str, client: Option<usize>) {
        self.tracer
            .record(name, self.last_ns.get(), now_ns(), self.round(), client);
    }

    fn crossed(&self, crossing: Crossing) {
        self.last.set(crossing);
        self.last_ns.set(now_ns());
    }

    /// A `send` is about to happen: since the last crossing the loop
    /// cloned the global state and encoded it into a deploy frame.
    fn before_send(&self, client: usize) {
        self.gap("fed.message_encode", Some(client));
    }

    /// A `recv` is about to happen: if the previous crossing was a
    /// receive, the loop spent the gap decoding that update.
    fn before_recv(&self, client: usize) {
        let name = match self.last.get() {
            Crossing::Received => "fed.message_decode",
            Crossing::Sent | Crossing::RoundStart => "fed.coord_other",
        };
        self.gap(name, Some(client));
    }

    /// The round hook fired: the gap since the last receive is the last
    /// update's decode plus aggregation (plus evaluation in a recorded
    /// round), which no public seam separates.
    pub fn hook_entered(&self) {
        self.gap("fed.collect_tail", None);
    }

    /// The round hook is about to return: closes this round's span and
    /// opens the next one when there is one.
    pub fn hook_done(&self, round: usize, rounds: usize) {
        let mut open = self.open_round.borrow_mut();
        *open = None; // drop = close
        if round < rounds {
            self.round.set(round + 1);
            *open = Some(self.tracer.span("fed.round").round(round + 1));
        }
        drop(open);
        self.crossed(Crossing::RoundStart);
    }

    /// The run loop returned: everything after the last hook is the
    /// shutdown wave (already spanned as sends) and the final
    /// evaluation.
    pub fn run_returned(&self) {
        *self.open_round.borrow_mut() = None;
        self.tracer
            .record("fed.eval_global", self.last_ns.get(), now_ns(), 0, None);
    }
}

/// Counts what crosses a [`Transport`]; spans it when tracing.
pub struct MeteredTransport<'s, 't, T: Transport> {
    inner: T,
    client: usize,
    seam: Option<&'s Seam<'t>>,
    /// Frames and encoded bytes seen so far, coordinator's view.
    pub stats: WireStats,
}

impl<'s, 't, T: Transport> MeteredTransport<'s, 't, T> {
    /// Wraps the link to fleet client `client`.
    pub fn new(inner: T, client: usize, seam: Option<&'s Seam<'t>>) -> Self {
        MeteredTransport {
            inner,
            client,
            seam,
            stats: WireStats::default(),
        }
    }

    fn received(&mut self, result: Result<Frame, NetError>) -> Result<Frame, NetError> {
        if let Ok(frame) = &result {
            self.stats.frames_received += 1;
            self.stats.bytes_received += frame.encoded_len() as u64;
        }
        if let Some(seam) = self.seam {
            seam.crossed(Crossing::Received);
        }
        result
    }

    fn recv_span(&self) -> Option<SpanGuard<'t>> {
        self.seam.map(|seam| {
            seam.before_recv(self.client);
            seam.tracer()
                .span("net.recv_wait")
                .round(seam.round())
                .client(self.client)
        })
    }
}

impl<T: Transport> Transport for MeteredTransport<'_, '_, T> {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.encoded_len() as u64;
        let span = self.seam.map(|seam| {
            seam.before_send(self.client);
            seam.tracer()
                .span("net.send")
                .round(seam.round())
                .client(self.client)
        });
        let result = self.inner.send(frame);
        drop(span);
        if let Some(seam) = self.seam {
            seam.crossed(Crossing::Sent);
        }
        result
    }

    fn recv(&mut self) -> Result<Frame, NetError> {
        let span = self.recv_span();
        let result = self.inner.recv();
        drop(span);
        self.received(result)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, NetError> {
        let span = self.recv_span();
        let result = self.inner.recv_timeout(timeout);
        drop(span);
        self.received(result)
    }
}

/// A client-side failure surfaced through the coordinator's transport
/// (what `LocalLink` does with the same error).
fn as_net_error(e: FedError) -> NetError {
    NetError::Protocol {
        reason: e.to_string(),
    }
}

/// An in-process link that does what `rte_fed::LocalLink` does — the
/// client answers synchronously when the coordinator sends — built from
/// public pieces so each can carry a span.
pub struct TracedLink<'a, 's, 't> {
    near: ChannelTransport,
    far: ChannelTransport,
    session: ClientSession<'a>,
    client: usize,
    reply_seq: u64,
    seam: &'s Seam<'t>,
    /// Frames and encoded bytes seen so far, coordinator's view.
    pub stats: WireStats,
}

impl<'a, 's, 't> TracedLink<'a, 's, 't> {
    /// Wraps `session` (fleet client `client`) behind a fresh channel
    /// pair.
    pub fn new(session: ClientSession<'a>, client: usize, seam: &'s Seam<'t>) -> Self {
        let (near, far) = ChannelTransport::pair();
        TracedLink {
            near,
            far,
            session,
            client,
            reply_seq: 0,
            seam,
            stats: WireStats::default(),
        }
    }

    fn span(&self, name: &'static str) -> SpanGuard<'t> {
        self.seam
            .tracer()
            .span(name)
            .round(self.seam.round())
            .client(self.client)
    }

    /// Drains every frame the coordinator queued, letting the session
    /// answer each one — `LocalLink::pump`, one span per step.
    fn pump(&mut self) -> Result<(), NetError> {
        loop {
            let frame = {
                let _span = self.span("net.frame_decode");
                self.far.try_recv()?
            };
            let Some(frame) = frame else { return Ok(()) };
            let message = {
                let _span = self.span("fed.message_decode");
                Message::from_frame(&frame).map_err(as_net_error)?
            };
            let reply = {
                // A deploy is answered by training the slot; the only
                // other message a client accepts is the shutdown.
                let _span = self.span(match message {
                    Message::Deploy { .. } => "fed.train_slot",
                    _ => "fed.shutdown",
                });
                self.session.handle(message).map_err(as_net_error)?
            };
            let Some(reply) = reply else { return Ok(()) };
            let reply_frame = {
                let _span = self.span("fed.message_encode");
                reply
                    .into_frame(self.session.sender_id(), self.reply_seq)
                    .map_err(as_net_error)?
            };
            self.reply_seq += 1;
            self.stats.frames_received += 1;
            self.stats.bytes_received += reply_frame.encoded_len() as u64;
            let _span = self.span("net.send");
            self.far.send(&reply_frame)?;
        }
    }
}

impl Transport for TracedLink<'_, '_, '_> {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.encoded_len() as u64;
        self.seam.before_send(self.client);
        {
            let _span = self.span("net.send");
            self.near.send(frame)?;
        }
        let result = self.pump();
        self.seam.crossed(Crossing::Sent);
        result
    }

    fn recv(&mut self) -> Result<Frame, NetError> {
        self.recv_timeout(Duration::ZERO)
    }

    /// As on `LocalLink`: the reply is already queued or never coming,
    /// so an empty queue is the timeout.
    fn recv_timeout(&mut self, _timeout: Duration) -> Result<Frame, NetError> {
        self.seam.before_recv(self.client);
        let result = {
            let _span = self.span("net.recv_wait");
            self.near.try_recv()
        };
        self.seam.crossed(Crossing::Received);
        match result? {
            Some(frame) => Ok(frame),
            None => Err(NetError::Timeout),
        }
    }
}

/// What the traced shard sources of one run read, summed (the number
/// of reads is the number of `eda.read` spans).
#[derive(Debug, Default)]
pub struct ReadCounters {
    /// Records decoded by all `read_into` calls.
    pub samples: AtomicU64,
}

/// [`RecordSource`] over one shard file with a span and counters on
/// every read — the benchmark's stand-in for the adapter `rte_core`
/// builds privately around the same [`ShardReader`].
///
/// Client sets hold their source as `Arc<dyn RecordSource>` (`'static`),
/// hence the shared handles rather than borrows.
pub struct TracedShardSource {
    reader: ShardReader,
    tracer: Arc<Tracer>,
    counters: Arc<ReadCounters>,
}

impl TracedShardSource {
    /// Wraps an opened shard.
    pub fn new(reader: ShardReader, tracer: Arc<Tracer>, counters: Arc<ReadCounters>) -> Self {
        TracedShardSource {
            reader,
            tracer,
            counters,
        }
    }
}

impl RecordSource for TracedShardSource {
    fn len(&self) -> usize {
        self.reader.len()
    }

    fn geometry(&self) -> (usize, usize, usize) {
        self.reader.geometry()
    }

    fn read_into(
        &self,
        range: Range<usize>,
        features: &mut Vec<f32>,
        labels: &mut Vec<f32>,
    ) -> Result<(), FedError> {
        // A statistic: the counter publishes no other data.
        self.counters
            .samples
            .fetch_add(range.len() as u64, Ordering::Relaxed);
        let _span = self.tracer.span("eda.read");
        self.reader
            .read_batch_into(range, features, labels)
            .map_err(|e| FedError::Stream {
                reason: e.to_string(),
            })
    }

    fn descriptor(&self) -> String {
        self.reader.path().display().to_string()
    }
}

//! The wire: how frames travel between parties.
//!
//! The paper's §2/Fig. 8 architecture is a set of *autonomous
//! providers* exchanging signed sub-queries and audited result tables
//! over a network — one kind of edge. This module states that edge
//! once:
//!
//! * a `Link` is an established connection to one subject that can
//!   `send` a `Frame`, `send_half` of one, and be `sever`ed. There are
//!   two: the destination party's mailbox `Sender` (in-process: a
//!   `send` is an `mpsc` enqueue of an owned message — zero
//!   serialization, zero sockets, and the other two are no-ops) and
//!   `Conn`, a framed `std::net` TCP stream writing `[u32 len][frame]`
//!   records encoded by `crate::codec`;
//! * `Links` is the one connection cache, keyed by subject: lazy dial,
//!   an introduction step supplied by the plane (`Frame::Peer` on the
//!   data plane, `Hello`/`HelloAck` on the `mpq-server` control plane —
//!   see [`crate::remote`]), eviction on any failed or damaged write.
//!   Its `attempt` is the one reading of a [`FaultAction`] — *one
//!   delivery attempt* of one frame to one subject — for both planes
//!   and both backends;
//! * `TcpHub` is the receiving half of a TCP party (listener + accept
//!   loop): it decodes data frames into the same
//!   `Mailbox` the in-proc link enqueues to,
//!   so whoever drives the party core is transport-agnostic, and
//!   hands a connection that opens with `Hello` to the server as its
//!   coordinator.
//!
//! Per-edge byte accounting is **logical** (the receiver accounts
//! `table.byte_size()` of every table that crosses a subject
//! boundary), so the two transports report bit-identical transfer
//! maps — the property the TCP differential test pins.
//!
//! Parties do not use a `Links` directly: they hold a `Wire`
//! (crate-private), which retries failed attempts under a bounded
//! [`RetryPolicy`] with seeded decorrelated-jitter backoff — the one
//! retry loop of the crate, under the data plane and (as a second
//! `Wire` with a ledger of its own) the coordinator's control plane
//! alike. Each wire counts into one `Ledger`, shared by every wire of
//! a session: the active [`FaultPlan`] and, per directed edge, one
//! [`EdgeRecovery`] — whose attempt count is also the index the plan
//! decides the next attempt by. Injected failures are *synthesized by
//! the wire* (not the link), so the in-proc and TCP transports surface
//! byte-identical errors and recovery traces for the same schedule.
//! Every table carries a `(from, seq)` stamped by the sending party;
//! the receiving party core (`party.rs`) drops duplicates, which makes
//! re-sends idempotent: a [`FaultAction::Reset`](crate::fault::FaultAction)
//! delivers *and* fails the sender, forcing the duplicate the dedup
//! exists for.
//!
//! All socket use in this crate is confined to this module
//! (`mpq-lint` enforces it), as are the connect/read timeouts that
//! turn a dead peer into a typed [`TransportError`] instead of a
//! hang.

use crate::codec::{decode_frame, encode_frame, Frame};
use crate::fault::{splitmix64, FaultAction, FaultPlan, RetryPolicy, BASE_MS};
use crate::runtime::{Msg, Stamped};
use mpq_algebra::SubjectId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Which wire a session runs its data plane over.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process `mpsc` mailboxes (the default; fastest, no sockets).
    #[default]
    InProc,
    /// Loopback TCP: every party binds a real listener and messages
    /// travel as length-prefixed frames through the OS socket stack.
    Tcp,
}

/// Why a wire operation failed. Carries rendered details (not
/// `io::Error`) so it stays `Clone + PartialEq + Eq` like every other
/// [`SimError`](crate::SimError) cause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// Binding a listener failed.
    Bind {
        /// Requested address.
        addr: String,
        /// OS error rendering.
        detail: String,
    },
    /// Connecting to a peer failed (refused, unreachable, or timed
    /// out).
    Connect {
        /// Peer address.
        addr: String,
        /// OS error rendering.
        detail: String,
    },
    /// Writing to an established connection failed (peer died
    /// mid-query).
    Send {
        /// Destination subject.
        to: SubjectId,
        /// OS error rendering.
        detail: String,
    },
    /// Reading from a connection failed.
    Recv {
        /// OS error rendering.
        detail: String,
    },
    /// A frame arrived but did not decode (truncation, bad tag,
    /// trailing bytes) or was not valid in its protocol state.
    Frame {
        /// What was malformed.
        detail: String,
    },
    /// Nothing arrived within the configured receive window — a peer
    /// died (or stalled) mid-query and the epoch is aborted instead of
    /// hanging.
    Timeout {
        /// The expired window, in milliseconds.
        millis: u64,
    },
    /// A remote party reported failing its share of the query; the
    /// message is the Display rendering of its error.
    Peer {
        /// The failing subject.
        from: SubjectId,
        /// Its rendered error.
        message: String,
    },
    /// The channel or connection closed before the operation.
    Closed,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Bind { addr, detail } => write!(f, "bind {addr} failed: {detail}"),
            TransportError::Connect { addr, detail } => {
                write!(f, "connect to {addr} failed: {detail}")
            }
            TransportError::Send { to, detail } => write!(f, "send to {to} failed: {detail}"),
            TransportError::Recv { detail } => write!(f, "receive failed: {detail}"),
            TransportError::Frame { detail } => write!(f, "malformed frame: {detail}"),
            TransportError::Timeout { millis } => {
                write!(f, "no message within {millis} ms — peer dead or stalled")
            }
            TransportError::Peer { from, message } => {
                write!(f, "party {from} failed its share: {message}")
            }
            TransportError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Lock `m`, poisoned or not: every critical section of this crate
/// leaves what it guards consistent (a counter bump, a map insert or
/// remove), so a holder that panicked — a party's panic is caught and
/// reported as its [`Outcome`](crate::runtime::Outcome) — has broken
/// nothing the next holder needs to refuse.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An established link to one subject — the paper's one kind of edge.
/// What can be done to it is exactly what a [`FaultAction`] needs.
pub(crate) trait Link: Send {
    /// Write one whole frame.
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError>;
    /// Write a frame's length prefix and half its body: the receiver
    /// hits EOF mid-record and discards the garbage. Real failures
    /// while damaging are ignored — the wire reports the injected
    /// error either way.
    fn send_half(&mut self, _frame: &Frame) {}
    /// Kill the connection under the link.
    fn sever(&mut self) {}
}

/// The in-process link is the destination party's mailbox sender: a
/// `send` is an `mpsc` enqueue of an owned [`Msg`], zero serialization.
/// A mailbox has no partial delivery and no connection to kill, so a
/// dropped, truncated or reset frame looks to its receiver exactly as
/// it does over a socket: absent, absent, delivered.
impl Link for Sender<Stamped> {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        // Mailboxes carry the data plane only.
        let Frame::Data { epoch, msg } = frame else {
            return Err(TransportError::Closed);
        };
        Sender::send(self, (*epoch, msg.clone())).map_err(|_| TransportError::Closed)
    }
}

/// The connection cache of one plane of one party: links keyed by
/// subject, opened lazily by the plane's `open` (dial + introduction —
/// `Frame::Peer` on the data plane, `Hello`/`HelloAck` on the control
/// plane, a sender clone in-process) and evicted by any failed or
/// damaged write, so the next attempt — the retry, or the next query —
/// opens a fresh one.
pub(crate) struct Links<L> {
    open: Box<dyn Fn(SubjectId) -> Result<L, TransportError> + Send + Sync>,
    conns: Mutex<HashMap<SubjectId, L>>,
}

impl<L: Link> Links<L> {
    pub(crate) fn new(
        open: impl Fn(SubjectId) -> Result<L, TransportError> + Send + Sync + 'static,
    ) -> Links<L> {
        Links {
            open: Box::new(open),
            conns: Mutex::default(),
        }
    }

    /// Whether a link to `to` is cached (it may still turn out dead).
    pub(crate) fn is_open(&self, to: SubjectId) -> bool {
        lock(&self.conns).contains_key(&to)
    }

    /// Run `f` over every cached link.
    pub(crate) fn each(&self, f: impl FnMut(&mut L)) {
        lock(&self.conns).values_mut().for_each(f);
    }

    /// Run `f` on the link to `to`, opening it if there is none. One
    /// attempt, never a loop of its own — every caller sits inside a
    /// bounded retry budget. A link `f` failed on, or one the caller
    /// wants `sever`ed, never comes back: it is killed and evicted.
    pub(crate) fn with<T>(
        &self,
        to: SubjectId,
        sever: bool,
        f: impl FnOnce(&mut L) -> Result<T, TransportError>,
    ) -> Result<T, TransportError> {
        let mut conns = lock(&self.conns);
        let link = match conns.entry(to) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => slot.insert((self.open)(to)?),
        };
        let done = f(link);
        if sever || done.is_err() {
            link.sever();
            conns.remove(&to);
        }
        done
    }
}

impl Links<Sender<Stamped>> {
    /// The in-process data plane: a clone of every party's mailbox
    /// sender, by subject index.
    pub(crate) fn in_proc(txs: Vec<Sender<Stamped>>) -> Self {
        Links::new(move |to| txs.get(to.index()).cloned().ok_or(TransportError::Closed))
    }
}

impl Links<Conn> {
    /// The TCP data plane of party `me`: `peers` maps each subject to
    /// the `host:port` of its [`TcpHub`]. The first frame on a fresh
    /// connection is `Peer { from }` so the receiving hub knows which
    /// mailbox edge the traffic belongs to (asserted identity —
    /// transport authentication is out of scope; the protocol's
    /// integrity rests on the signed request envelopes and the
    /// cell-level receive audit, not on the socket).
    pub(crate) fn tcp(me: SubjectId, peers: HashMap<SubjectId, String>) -> Self {
        Links::new(move |to| {
            let addr = peers.get(&to).ok_or(TransportError::Closed)?;
            let mut conn = Conn::connect(addr, to, CONNECT_TIMEOUT)?;
            conn.send(&Frame::Peer { from: me })?;
            Ok(conn)
        })
    }
}

/// Sending half of the wire: **one attempt** to deliver one frame to
/// one subject. Retries and fault injection live in [`Wire`], which is
/// what parties actually hold; this trait only hides which kind of
/// [`Link`] a [`Links`] caches. Receiving stays the party's
/// [`Mailbox`](crate::runtime::Mailbox) regardless of transport — TCP
/// hubs feed the same mailbox the in-proc links enqueue to.
pub(crate) trait Transport: Send + Sync {
    /// Make one delivery attempt of `frame` to `to`, damaged in the
    /// link's *native* failure mode as `action` says (a truncate really
    /// poisons a socket). `Delay` and `Stall` deliver: the wire has
    /// already slept. Only *real* failures are returned; injected ones
    /// are reported by the wire.
    fn attempt(
        &self,
        to: SubjectId,
        frame: &Frame,
        action: FaultAction,
    ) -> Result<(), TransportError>;
}

impl<L: Link> Transport for Links<L> {
    /// The one reading of a [`FaultAction`], for every plane and backend.
    fn attempt(
        &self,
        to: SubjectId,
        frame: &Frame,
        action: FaultAction,
    ) -> Result<(), TransportError> {
        match action {
            FaultAction::Deliver | FaultAction::Delay(_) | FaultAction::Stall(_) => {
                self.with(to, false, |link| link.send(frame))
            }
            // The ambiguous case: the receiver's idempotency (`(from,
            // seq)` dedup, key-ring inserts, the epoch outcome cache)
            // absorbs the re-delivery.
            FaultAction::Reset => self.with(to, true, |link| link.send(frame)),
            FaultAction::Truncate => {
                let _ = self.with(to, true, |link| {
                    link.send_half(frame);
                    Ok(())
                });
                Ok(())
            }
            FaultAction::Drop => Ok(()),
        }
    }
}

/// How long a dial of either plane waits before failing typed.
pub(crate) const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Frames larger than this are rejected as malformed before
/// allocation: no legitimate table in this repo approaches it, and a
/// corrupt length prefix must not look like a 4 GiB allocation
/// request.
const MAX_FRAME: usize = 1 << 30;

/// Most a frame's buffer holds before any of its body has arrived.
const FIRST_READ: usize = 64 << 10;

/// Read one `[u32 len][frame]` record. `Ok(None)` is clean EOF. The
/// length prefix is a peer's claim, not an allocation request: the
/// buffer grows with the bytes that actually arrive.
fn read_frame(stream: &mut impl Read) -> Result<Option<Frame>, TransportError> {
    let mut len = [0u8; 4];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            return Err(TransportError::Timeout { millis: 0 })
        }
        Err(e) => {
            return Err(TransportError::Recv {
                detail: e.to_string(),
            })
        }
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(TransportError::Frame {
            detail: format!("{len}-byte frame exceeds the {MAX_FRAME}-byte cap"),
        });
    }
    let mut body = Vec::with_capacity(len.min(FIRST_READ));
    let got = stream
        .take(len as u64)
        .read_to_end(&mut body)
        .map_err(|e| TransportError::Recv {
            detail: e.to_string(),
        })?;
    if got < len {
        return Err(TransportError::Recv {
            detail: format!("connection closed {got} bytes into a {len}-byte frame"),
        });
    }
    decode_frame(&body)
        .ok_or(TransportError::Frame {
            detail: format!("{len}-byte frame did not decode"),
        })
        .map(Some)
}

/// Per-edge recovery counters, exposed through
/// [`Session::recovery_stats`](crate::Session::recovery_stats) (and
/// the coordinator's equivalent). `attempts` counts every delivery
/// attempt — and is the index the fault schedule decides the next one
/// by — `retries` the re-sends after a failed attempt, `injected` the
/// attempts the fault plan damaged. The counts are a function of the
/// fault schedule alone — identical across transport backends — which
/// is what the retry-determinism proptest pins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeRecovery {
    /// Delivery attempts (logical sends + retries).
    pub attempts: u64,
    /// Re-sends after a failed attempt.
    pub retries: u64,
    /// Attempts damaged by the fault plan.
    pub injected: u64,
}

/// The one ledger of a set of wires — every party's wire of a session,
/// or one wire of a server or coordinator: the active fault plan and,
/// per directed edge, its [`EdgeRecovery`]. Swapping the plan (chaos
/// tests sweep schedules over one long-lived session) clears the edges,
/// so each schedule starts from attempt 0 and the counters read "since
/// the last swap".
pub(crate) struct Ledger {
    plan: Option<FaultPlan>,
    pub(crate) edges: HashMap<(SubjectId, SubjectId), EdgeRecovery>,
}

impl Ledger {
    /// A fresh ledger under `plan`, as the handle its wires share.
    pub(crate) fn shared(plan: Option<FaultPlan>) -> Arc<Mutex<Ledger>> {
        let edges = HashMap::new();
        Arc::new(Mutex::new(Ledger { plan, edges }))
    }

    pub(crate) fn set_plan(&mut self, plan: Option<FaultPlan>) {
        self.plan = plan;
        self.edges.clear();
    }

    /// Count one attempt on `from → to` and pick its action: the
    /// schedule's decision for the edge's attempt index, unless the
    /// plan's per-edge injection cap is spent.
    fn next_action(&mut self, from: SubjectId, to: SubjectId) -> FaultAction {
        let edge = self.edges.entry((from, to)).or_default();
        let index = edge.attempts;
        edge.attempts += 1;
        let Some(plan) = &self.plan else {
            return FaultAction::Deliver;
        };
        let cap = plan.max_per_edge.map_or(u64::MAX, u64::from);
        if edge.injected >= cap {
            return FaultAction::Deliver;
        }
        let action = plan.decide(from, to, index);
        if action != FaultAction::Deliver {
            edge.injected += 1;
        }
        action
    }
}

/// What a party actually sends through: fault consultation and the
/// bounded retry loop over a [`Transport`] backend.
///
/// Retries re-send the *same* frame — for a table, the same
/// `(from, seq)` — and the receiving core drops duplicates, which is
/// what makes re-sending after an ambiguous failure (`Reset`) safe. A
/// failed attempt backs off with seeded decorrelated jitter and tries
/// again until the [`RetryPolicy`] budget is spent; the last typed
/// error then surfaces through the existing abort path. Every attempt
/// and retry is counted in the wire's [`Ledger`], one lock each.
pub(crate) struct Wire {
    me: SubjectId,
    /// Session seed share for deterministic backoff jitter.
    seed: u64,
    inner: Arc<dyn Transport>,
    ledger: Arc<Mutex<Ledger>>,
    retry: RetryPolicy,
}

impl Wire {
    pub(crate) fn new(
        me: SubjectId,
        seed: u64,
        inner: Arc<dyn Transport>,
        ledger: Arc<Mutex<Ledger>>,
        retry: RetryPolicy,
    ) -> Wire {
        Wire {
            me,
            seed,
            inner,
            ledger,
            retry,
        }
    }

    /// The ledger this wire counts into.
    pub(crate) fn ledger(&self) -> MutexGuard<'_, Ledger> {
        lock(&self.ledger)
    }

    /// Send one data-plane message of query `epoch`.
    pub(crate) fn send(&self, to: SubjectId, epoch: u64, msg: Msg) -> Result<(), TransportError> {
        self.send_with_retry(to, &Frame::Data { epoch, msg })
    }

    /// Tell every other participant of query `epoch` to stop: one
    /// fault-exempt attempt each, best-effort (peers that already
    /// exited or are unreachable time out on their own). Abort *is* the
    /// recovery path — damaging it would only delay epoch teardown, and
    /// exempting it keeps in-proc sessions hang-free even without a
    /// configured timeout.
    pub(crate) fn broadcast_abort(&self, epoch: u64, participants: &[SubjectId]) {
        let msg = Msg::Abort;
        let frame = Frame::Data { epoch, msg };
        for &p in participants.iter().filter(|&&p| p != self.me) {
            let _ = self.inner.attempt(p, &frame, FaultAction::Deliver);
        }
    }

    /// Deliver one frame: every attempt consults the fault plan, and a
    /// failed one — real or injected — is retried by [`Wire::retry`].
    pub(crate) fn send_with_retry(
        &self,
        to: SubjectId,
        frame: &Frame,
    ) -> Result<(), TransportError> {
        self.retry(to, || {
            let action = self.ledger().next_action(self.me, to);
            if let FaultAction::Delay(d) | FaultAction::Stall(d) = action {
                std::thread::sleep(d);
            }
            let outcome = self.inner.attempt(to, frame, action);
            // Injected failures are synthesized here, not by the
            // backend, so every transport reports the identical error
            // for the same scheduled fault.
            let what = match action {
                FaultAction::Drop => "frame dropped",
                FaultAction::Truncate => "frame truncated",
                FaultAction::Reset => "connection reset",
                FaultAction::Deliver | FaultAction::Delay(_) | FaultAction::Stall(_) => {
                    return outcome
                }
            };
            Err(TransportError::Send {
                to,
                detail: format!("injected fault: {what}"),
            })
        })
    }

    /// The bounded retry loop, the only one in the crate: every failed
    /// `attempt` consumes one unit of the `max_attempts` budget, and
    /// the sleeps between attempts are decorrelated jitter seeded from
    /// `(seed, edge, attempt)` — fully reproducible.
    pub(crate) fn retry<T>(
        &self,
        to: SubjectId,
        mut attempt_once: impl FnMut() -> Result<T, TransportError>,
    ) -> Result<T, TransportError> {
        let max_attempts = self.retry.max_attempts.max(1);
        let edge_seed =
            splitmix64(self.seed ^ ((self.me.index() as u64) << 32) ^ to.index() as u64);
        let mut prev_ms = BASE_MS;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let err = match attempt_once() {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            if attempt >= max_attempts {
                return Err(err);
            }
            let edge = (self.me, to);
            self.ledger().edges.entry(edge).or_default().retries += 1;
            let ms = self.retry.backoff_ms(edge_seed, attempt, prev_ms);
            prev_ms = ms;
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
}

/// The receiving half of the TCP wire for one party: a bound listener
/// plus an accept loop that turns incoming framed records into
/// [`Stamped`] messages on the party's mailbox. Control connections
/// (first frame `Hello`) are handed to the `control` channel instead —
/// that is how an `mpq-server` process receives its coordinator.
pub(crate) struct TcpHub {
    addr: String,
    closing: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl TcpHub {
    /// Bind `addr` (use port 0 for an OS-assigned port) and start the
    /// accept loop.
    pub(crate) fn bind(
        addr: &str,
        inbox: Sender<Stamped>,
        control: Option<Sender<Conn>>,
    ) -> Result<TcpHub, TransportError> {
        let failed = |e: std::io::Error| TransportError::Bind {
            addr: addr.to_string(),
            detail: e.to_string(),
        };
        let listener = TcpListener::bind(addr).map_err(failed)?;
        let local = listener.local_addr().map_err(failed)?.to_string();
        let closing = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&closing);
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = conn else { continue };
                stream.set_nodelay(true).ok();
                let inbox = inbox.clone();
                let control = control.clone();
                // Pump threads are detached: they exit on EOF when the
                // sending peer drops its link cache, which the
                // teardown ordering guarantees happens before the hub
                // itself is considered gone.
                std::thread::spawn(move || pump(stream, inbox, control));
            }
        });
        Ok(TcpHub {
            addr: local,
            closing,
            accept: Some(accept),
        })
    }

    /// The actually-bound `host:port` (resolves port 0).
    pub(crate) fn addr(&self) -> &str {
        &self.addr
    }
}

impl Drop for TcpHub {
    fn drop(&mut self) {
        self.closing.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        if let Ok(addr) = self.addr.parse::<std::net::SocketAddr>() {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Per-connection receive loop: route data frames to the mailbox,
/// control connections to the control channel, drop anything else.
fn pump(mut stream: TcpStream, inbox: Sender<Stamped>, control: Option<Sender<Conn>>) {
    match read_frame(&mut stream) {
        Ok(Some(Frame::Peer { .. })) => loop {
            match read_frame(&mut stream) {
                Ok(Some(Frame::Data { epoch, msg })) => {
                    if inbox.send((epoch, msg)).is_err() {
                        return;
                    }
                }
                // Clean EOF, a dead peer, or a non-data frame: either
                // way this connection is done. The *absence* of an
                // expected message is handled where it is observable —
                // the mailbox's receive timeout.
                _ => return,
            }
        },
        Ok(Some(Frame::Hello { user, public })) => {
            if let Some(control) = control {
                let _ = control.send(Conn {
                    stream,
                    peer: user,
                    pending: Some(Frame::Hello { user, public }),
                    read_timeout: None,
                });
            }
        }
        _ => {}
    }
}

/// One framed connection to `peer` — the socket [`Link`] of both
/// planes, and what a hub hands a [`Server`](crate::Server) for its
/// coordinator. Keeps all socket handling inside this module: callers
/// see only [`Frame`] values and typed errors.
pub(crate) struct Conn {
    stream: TcpStream,
    /// Who is at the other end: the subject dialed, or the user an
    /// accepted connection's `Hello` announced.
    peer: SubjectId,
    /// A frame already consumed by the hub's dispatcher (the `Hello`),
    /// replayed on the first `recv`.
    pending: Option<Frame>,
    /// The read timeout currently configured on `stream`, tracked so
    /// `recv` can restore the *previous* value after a bounded read
    /// instead of clobbering it to `None`.
    read_timeout: Option<Duration>,
}

impl Conn {
    /// Resolve `addr` and open a no-delay connection to `peer` there
    /// within `timeout` — the one dial both planes use.
    pub(crate) fn connect(
        addr: &str,
        peer: SubjectId,
        timeout: Duration,
    ) -> Result<Conn, TransportError> {
        let failed = |detail: String| TransportError::Connect {
            addr: addr.to_string(),
            detail,
        };
        let target = std::net::ToSocketAddrs::to_socket_addrs(addr)
            .map_err(|e| failed(e.to_string()))?
            .next()
            .ok_or_else(|| failed("address resolved to nothing".to_string()))?;
        let stream =
            TcpStream::connect_timeout(&target, timeout).map_err(|e| failed(e.to_string()))?;
        stream.set_nodelay(true).ok();
        Ok(Conn {
            stream,
            peer,
            pending: None,
            read_timeout: None,
        })
    }

    /// Write a `[u32 len][frame]` record claiming `body`, carrying its
    /// first `sent` bytes.
    fn write(&mut self, body: &[u8], sent: usize) -> std::io::Result<()> {
        self.stream.write_all(&(body.len() as u32).to_be_bytes())?;
        self.stream.write_all(&body[..sent])?;
        self.stream.flush()
    }

    /// Reconfigure the socket's read timeout. A failure here is a real
    /// socket failure and surfaces as a typed error instead of being
    /// silently swallowed (which would turn the next `recv` into an
    /// unbounded wait, or a spuriously bounded one).
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        if self.read_timeout == timeout {
            return Ok(());
        }
        self.stream
            .set_read_timeout(timeout)
            .map_err(|e| TransportError::Recv {
                detail: format!("set_read_timeout: {e}"),
            })?;
        self.read_timeout = timeout;
        Ok(())
    }

    /// Receive one frame, waiting at most `timeout` (or indefinitely
    /// when `None`). EOF surfaces as [`TransportError::Closed`]. The
    /// stream's previous read timeout is restored afterwards, so a
    /// bounded `recv` nested in an otherwise-bounded protocol phase
    /// does not leak an unbounded socket.
    pub(crate) fn recv(&mut self, timeout: Option<Duration>) -> Result<Frame, TransportError> {
        if let Some(f) = self.pending.take() {
            return Ok(f);
        }
        let prev = self.read_timeout;
        self.set_read_timeout(timeout)?;
        let r = read_frame(&mut self.stream);
        self.set_read_timeout(prev)?;
        match r {
            Ok(Some(f)) => Ok(f),
            Ok(None) => Err(TransportError::Closed),
            Err(TransportError::Timeout { .. }) => Err(TransportError::Timeout {
                millis: timeout.map(|d| d.as_millis() as u64).unwrap_or(0),
            }),
            Err(e) => Err(e),
        }
    }
}

impl Link for Conn {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        let body = encode_frame(frame);
        self.write(&body, body.len())
            .map_err(|e| TransportError::Send {
                to: self.peer,
                detail: e.to_string(),
            })
    }

    fn send_half(&mut self, frame: &Frame) {
        let body = encode_frame(frame);
        let _ = self.write(&body, body.len() / 2);
    }

    /// Also a cheap way for tests to simulate a dying peer.
    fn sever(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::Transfer;
    use mpq_exec::Table;
    use std::sync::mpsc::channel;

    /// A one-cell table from subject 1 carrying sequence number `seq`.
    fn probe_msg(seq: u64) -> Msg {
        Msg::Table(Transfer {
            node: mpq_algebra::NodeId(0),
            from: SubjectId(1),
            seq,
            table: Table::from_rows(
                vec![mpq_algebra::AttrId(0)],
                vec![vec![mpq_algebra::Value::Int(7)]],
            ),
        })
    }

    /// A peer that sends `bytes` and hangs up, remembering the largest
    /// buffer it was ever asked to fill.
    struct Peer<'a> {
        bytes: &'a [u8],
        largest_buf: usize,
    }

    impl Read for Peer<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest_buf = self.largest_buf.max(buf.len());
            let n = buf.len().min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_length_prefix_is_not_an_allocation_request() {
        // Four bytes claiming the largest admissible frame, then EOF:
        // a typed error, and no buffer of anything like that size was
        // ever presented to the socket.
        let mut claim = (MAX_FRAME as u32).to_be_bytes().to_vec();
        let mut peer = Peer {
            bytes: &claim,
            largest_buf: 0,
        };
        let hung_up = read_frame(&mut peer);
        assert!(
            matches!(&hung_up, Err(TransportError::Recv { detail }) if detail.contains("0 bytes into")),
            "{hung_up:?}"
        );
        assert!(peer.largest_buf <= FIRST_READ, "{}", peer.largest_buf);
        // The same claim backed by a few real bytes: still only as
        // much memory as bytes received.
        claim.extend([0xAB; 100_000]);
        let mut peer = Peer {
            bytes: &claim,
            largest_buf: 0,
        };
        assert!(matches!(
            read_frame(&mut peer),
            Err(TransportError::Recv { .. })
        ));
        assert!(peer.largest_buf <= 4 * 100_000, "{}", peer.largest_buf);
        // An honest frame comes through the same path whole.
        let mut honest = Vec::new();
        let body = encode_frame(&Frame::Shutdown);
        honest.extend((body.len() as u32).to_be_bytes());
        honest.extend(body);
        let mut peer = Peer {
            bytes: &honest,
            largest_buf: 0,
        };
        assert!(matches!(read_frame(&mut peer), Ok(Some(Frame::Shutdown))));
        assert!(matches!(read_frame(&mut peer), Ok(None)));
    }

    #[test]
    fn tcp_hub_delivers_data_frames_to_the_mailbox() {
        let (tx, rx) = channel();
        let hub = TcpHub::bind("127.0.0.1:0", tx, None).expect("bind loopback");
        let me = SubjectId(1);
        let peers: HashMap<SubjectId, String> = [(SubjectId(0), hub.addr().to_string())]
            .into_iter()
            .collect();
        let wire = Links::tcp(me, peers);
        let Msg::Table(sent) = probe_msg(0) else {
            unreachable!("probe messages are tables")
        };
        let frame = Frame::Data {
            epoch: 3,
            msg: Msg::Table(sent.clone()),
        };
        wire.attempt(SubjectId(0), &frame, FaultAction::Deliver)
            .expect("loopback send");
        match rx.recv_timeout(Duration::from_secs(5)).expect("delivered") {
            (3, Msg::Table(t)) => {
                assert_eq!(t.from, me);
                assert_eq!(t.table.to_rows(), sent.table.to_rows());
            }
            _ => panic!("wrong delivery"),
        }
    }

    #[test]
    fn connecting_to_a_dead_peer_is_a_typed_error() {
        // Bind-then-drop guarantees a port with no listener.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let peers: HashMap<SubjectId, String> = [(SubjectId(0), dead)].into_iter().collect();
        let wire = Links::tcp(SubjectId(1), peers);
        let abort = Frame::Data {
            epoch: 1,
            msg: Msg::Abort,
        };
        let err = wire
            .attempt(SubjectId(0), &abort, FaultAction::Deliver)
            .expect_err("no listener");
        assert!(matches!(err, TransportError::Connect { .. }), "got {err:?}");
    }

    #[test]
    fn each_fault_action_damages_an_in_proc_attempt_in_its_own_way() {
        let (tx, rx) = channel();
        let links = Links::in_proc(vec![tx]);
        let (to, pause) = (SubjectId(0), Duration::from_millis(1));
        let frame = Frame::Data {
            epoch: 1,
            msg: probe_msg(0),
        };
        // (action, messages enqueued, link still cached)
        for (action, enqueued, kept) in [
            (FaultAction::Deliver, 1, true),
            (FaultAction::Delay(pause), 1, true),
            (FaultAction::Stall(pause), 1, true),
            (FaultAction::Drop, 0, true),
            (FaultAction::Truncate, 0, false),
            (FaultAction::Reset, 1, false),
        ] {
            // Open the link first, so an evicting action has a link to
            // evict.
            links.with(to, false, |_| Ok(())).expect("open");
            links.attempt(to, &frame, action).expect("no real failure");
            assert_eq!(rx.try_iter().count(), enqueued, "{action:?}");
            assert_eq!(links.is_open(to), kept, "{action:?}");
        }
    }

    fn test_wire(
        plan: Option<FaultPlan>,
        retry: RetryPolicy,
    ) -> (Wire, std::sync::mpsc::Receiver<Stamped>) {
        let (tx, rx) = channel();
        let inner = Arc::new(Links::in_proc(vec![tx]));
        let wire = Wire::new(SubjectId(1), 7, inner, Ledger::shared(plan), retry);
        (wire, rx)
    }

    #[test]
    fn wire_retries_recover_from_scheduled_drops() {
        // max=retry budget−1 guarantees every message eventually
        // delivers: the worst case spends all injections on one seq.
        let plan = FaultPlan::parse("seed=3,drop=400,max=3").expect("valid");
        let (wire, rx) = test_wire(Some(plan), RetryPolicy::default());
        for seq in 0..20 {
            wire.send(SubjectId(0), 1, probe_msg(seq))
                .expect("within budget");
        }
        let mut seqs = Vec::new();
        while let Ok((_, msg)) = rx.try_recv() {
            if let Msg::Table(t) = msg {
                seqs.push(t.seq);
            }
        }
        assert_eq!(seqs, (0..20).collect::<Vec<u64>>(), "in order, no loss");
    }

    #[test]
    fn exhausted_budget_is_the_scheduled_typed_error() {
        // 100% drop rate, no cap: every attempt fails, budget spends.
        let plan = FaultPlan::parse("seed=3,drop=1000").expect("valid");
        let (wire, _rx) = test_wire(Some(plan), RetryPolicy { max_attempts: 3 });
        let err = wire
            .send(SubjectId(0), 1, probe_msg(0))
            .expect_err("all attempts dropped");
        assert_eq!(
            err,
            TransportError::Send {
                to: SubjectId(0),
                detail: "injected fault: frame dropped".to_string()
            }
        );
    }

    #[test]
    fn reset_injection_delivers_a_duplicate_with_the_same_seq() {
        let plan = FaultPlan::parse("seed=5,reset=1000,max=1").expect("valid");
        let (wire, rx) = test_wire(Some(plan), RetryPolicy::default());
        wire.send(SubjectId(0), 9, probe_msg(4))
            .expect("retry after reset succeeds");
        let mut seqs = Vec::new();
        while let Ok((_, msg)) = rx.try_recv() {
            if let Msg::Table(t) = msg {
                seqs.push(t.seq);
            }
        }
        assert_eq!(seqs, vec![4, 4], "delivered twice, same sequence number");
    }

    #[test]
    fn control_roundtrip_and_timeout() {
        let (tx, _rx) = channel();
        let (ctl_tx, ctl_rx) = channel();
        let hub = TcpHub::bind("127.0.0.1:0", tx, Some(ctl_tx)).expect("bind loopback");
        let mut client =
            Conn::connect(hub.addr(), SubjectId(1), Duration::from_secs(2)).expect("connect");
        let public = {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(1);
            mpq_crypto::rsa::RsaKeypair::generate(&mut rng, 512).public
        };
        client
            .send(&Frame::Hello {
                user: SubjectId(0),
                public: public.clone(),
            })
            .expect("send hello");
        let mut server = ctl_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("control conn surfaced");
        match server.recv(Some(Duration::from_secs(2))).expect("hello") {
            Frame::Hello { user, public: p } => {
                assert_eq!(user, SubjectId(0));
                assert_eq!(p.n, public.n);
            }
            _ => panic!("expected hello"),
        }
        // Nothing else was sent: a bounded recv times out, typed.
        let err = server
            .recv(Some(Duration::from_millis(200)))
            .expect_err("no frame pending");
        assert!(matches!(err, TransportError::Timeout { .. }), "got {err:?}");
    }
}

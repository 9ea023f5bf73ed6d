//! The blocking scheduler over the party core (`party.rs`): a mailbox
//! in, a `Wire` out.
//!
//! `drive` runs one subject's share of one query epoch by feeding a
//! `PartyRun` from the party's mailbox and sending what it produces
//! through the party's `Wire`. It is the whole of two of the three
//! schedulers:
//!
//! * **thread per subject** — `PartyThreads`: one long-lived OS
//!   thread per subject, spawned **once** when a
//!   [`Session`](crate::Session) opens and reused for every query
//!   (`Session::execute`). Between queries a party idles on its
//!   mailbox; a `PartyMsg::Run` wakes the participants, and each runs
//!   a Fig. 8 region of its own, as one pipeline, as soon as the
//!   region's operands are local, so independent regions of different
//!   subjects execute concurrently;
//! * **process per subject** — [`Server`](crate::Server) and the
//!   [`Coordinator`](crate::Coordinator)'s own share call the same
//!   `drive` from their own threads (see [`remote`](crate::remote)).
//!
//! The third, **same thread**, is
//! [`Session::execute_sequential`](crate::Session::execute_sequential),
//! which steps the same core without any of this module.
//!
//! Failure handling: the core returns a typed error; `drive` — and
//! only `drive` — broadcasts a best-effort abort to the query's other
//! participants and reports the error. Peers receiving `Abort` stop
//! without an error of their own. `PartyThreads::run` returns the
//! failing party's error, picking the lowest subject id when several
//! fail independently — and the session remains usable: the party
//! threads return to their mailboxes and the next query runs normally.
//!
//! Because mailboxes outlive queries, every data message carries the
//! query *epoch* it belongs to. A message that arrives after its query
//! already ended (e.g. a table sent concurrently with an abort) is
//! dropped when a later epoch begins; a message that arrives *before*
//! its recipient has been woken for that epoch is stashed and replayed
//! once the matching wake-up arrives. Epochs are what make an aborted
//! query leave no residue for the next one.

use crate::error::SimError;
use crate::fault::RetryPolicy;
use crate::party::{Party, PartyOut, PartyRun, QueryJob, Transfer};
use crate::transport::{
    FaultState, InProcTransport, TcpHub, TcpTransport, Transport, TransportError, Wire, WireStats,
};
use crate::TransportKind;
use mpq_algebra::SubjectId;
use mpq_crypto::rsa::{RsaPublic, SignedEnvelope};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One data-plane message exchanged between parties while a query
/// runs. `Clone` because a delivery *attempt* may damage or duplicate
/// the message without consuming the sender's copy (see
/// [`crate::transport`]).
#[derive(Clone, Debug)]
pub(crate) enum Msg {
    /// A table crossing a subject edge.
    Table(Transfer),
    /// A peer failed; stop without producing more traffic.
    Abort,
}

/// Everything on a party's persistent mailbox.
pub(crate) enum PartyMsg {
    /// Wake up and execute your share of a query.
    Run {
        /// Query epoch (strictly increasing per session).
        epoch: u64,
        /// The shared, immutable description of the query.
        job: Arc<QueryJob>,
        /// This party's signed request, travelling beside the job
        /// exactly as in `Frame::Execute`.
        envelope: Option<SignedEnvelope>,
        /// The user's RSA public key (envelope verification).
        user_public: RsaPublic,
    },
    /// A data message belonging to query `epoch`.
    Data {
        /// Query epoch the message belongs to.
        epoch: u64,
        /// The payload.
        msg: Msg,
    },
    /// The session is closing; exit the thread.
    Shutdown,
}

/// What a party reports back for one epoch.
pub(crate) enum Outcome {
    /// Finished cleanly.
    Done(PartyOut),
    /// Failed with a real error (already broadcast `Abort`).
    Failed(SimError),
    /// Stopped because a peer aborted (or the session is closing).
    Aborted,
    /// The party panicked (a bug, not a protocol failure); the panic
    /// was caught so the other parties could finish, and is re-raised
    /// by whoever collects the outcomes.
    Panicked(String),
}

/// Run `party`'s share of query `epoch` to an [`Outcome`]: the blocking
/// scheduler. Outputs leave through `wire` (in-proc mailbox senders or
/// framed TCP), inputs arrive on the party's own mailbox `rx` whichever
/// way they traveled. This is the one place an epoch is aborted: any
/// error the core, the wire or the mailbox returns — and any panic —
/// ends here, where the other participants are told to stop.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive(
    party: &Party,
    job: &QueryJob,
    envelope: Option<&SignedEnvelope>,
    user_public: &RsaPublic,
    epoch: u64,
    rx: &Receiver<PartyMsg>,
    wire: &Wire,
    stash: &mut Vec<(u64, Msg)>,
) -> Outcome {
    let run = || run_epoch(party, job, envelope, user_public, epoch, rx, wire, stash);
    let failure = match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(Some(out))) => return Outcome::Done(out),
        Ok(Ok(None)) => return Outcome::Aborted,
        Ok(Err(e)) => Outcome::Failed(e),
        Err(payload) => Outcome::Panicked(
            payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string()),
        ),
    };
    wire.broadcast_abort(epoch, &job.participants);
    failure
}

/// [`drive`] without the failure handling: `Ok(None)` means a peer
/// aborted (or the mailbox closed) and this party simply stops.
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    party: &Party,
    job: &QueryJob,
    envelope: Option<&SignedEnvelope>,
    user_public: &RsaPublic,
    epoch: u64,
    rx: &Receiver<PartyMsg>,
    wire: &Wire,
    stash: &mut Vec<(u64, Msg)>,
) -> Result<Option<PartyOut>, SimError> {
    let mut run = PartyRun::new(party, job, envelope, user_public)?;
    // Data that arrived while idle: residue of an earlier (aborted)
    // query is dropped, messages that raced ahead of our own wake-up
    // for this epoch are replayed first.
    let (early, later) = std::mem::take(stash)
        .into_iter()
        .filter(|(e, _)| *e >= epoch)
        .partition(|(e, _)| *e == epoch);
    *stash = later;
    let mut early = Vec::into_iter(early);
    loop {
        while let Some(id) = run.ready() {
            if let Some((to, transfer)) = run.step(id)? {
                wire.send(to, epoch, Msg::Table(transfer))?;
            }
        }
        if run.is_done() {
            return Ok(Some(run.finish()));
        }
        // A configured timeout bounds the wait, so a dead peer aborts
        // the epoch with a typed error instead of hanging the session.
        let msg = match early.next() {
            Some((_, msg)) => msg,
            None => {
                let received = match job.timeout() {
                    Some(d) => match rx.recv_timeout(d) {
                        Err(RecvTimeoutError::Timeout) => {
                            let millis = job.timeout_ms;
                            return Err(TransportError::Timeout { millis }.into());
                        }
                        received => received.ok(),
                    },
                    None => rx.recv().ok(),
                };
                match received {
                    Some(PartyMsg::Data { epoch: e, msg }) if e == epoch => msg,
                    Some(PartyMsg::Data { epoch: e, msg }) => {
                        // Residue of an earlier query is dropped; one
                        // racing ahead of the next epoch — impossible
                        // while we still owe an outcome for this one —
                        // is safest stashed.
                        if e > epoch {
                            stash.push((e, msg));
                        }
                        continue;
                    }
                    // Queries never overlap; a Run here would be a bug
                    // in whoever owns this mailbox.
                    Some(PartyMsg::Run { .. }) => {
                        unreachable!("Run received while an epoch is still in flight")
                    }
                    Some(PartyMsg::Shutdown) | None => return Ok(None),
                }
            }
        };
        match msg {
            Msg::Table(transfer) => run.deliver(transfer)?,
            Msg::Abort => return Ok(None),
        }
    }
}

/// The long-lived party threads of one session: a mailbox sender per
/// subject, a shared completion channel, and the join handles used for
/// clean teardown on drop. With [`TransportKind::Tcp`] every party
/// additionally owns a [`TcpHub`] (loopback listener) and data-plane
/// messages travel as framed records through real sockets; the control
/// plane (run/shutdown/outcomes) stays on in-process channels either
/// way.
pub(crate) struct PartyThreads {
    txs: Vec<Sender<PartyMsg>>,
    done_rx: Receiver<(SubjectId, u64, Outcome)>,
    handles: Vec<JoinHandle<()>>,
    epoch: u64,
    /// Keeps the TCP listeners alive for the threads' lifetime; dropped
    /// (and joined) after the party threads exit, so every in-flight
    /// frame either lands or sees a clean EOF.
    _hubs: Vec<TcpHub>,
}

impl PartyThreads {
    /// Spawn one party loop per subject. Threads idle on their
    /// mailboxes until [`PartyThreads::run`] wakes them with a query.
    pub(crate) fn spawn(
        parties: &[Arc<Party>],
        transport: TransportKind,
        seed: u64,
        faults: &Arc<Mutex<FaultState>>,
        retry: RetryPolicy,
        stats: &Arc<WireStats>,
    ) -> PartyThreads {
        let n = parties.len();
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
        // One wire per party. In-proc: clones of everyone's mailbox
        // sender. TCP: every party binds a loopback hub feeding its own
        // mailbox, and sends connect to the peers' hubs. All wires
        // share one fault-injection state and one recovery-stats sink,
        // so a session-level schedule swap reaches every party.
        let mut hubs = Vec::new();
        let backends: Vec<Arc<dyn Transport>> = match transport {
            TransportKind::InProc => (0..n)
                .map(|_| Arc::new(InProcTransport::new(txs.clone())) as Arc<dyn Transport>)
                .collect(),
            TransportKind::Tcp => {
                for tx in &txs {
                    hubs.push(
                        TcpHub::bind("127.0.0.1:0", tx.clone(), None)
                            .expect("bind a loopback listener for the TCP transport"),
                    );
                }
                let peers: HashMap<SubjectId, String> = hubs
                    .iter()
                    .enumerate()
                    .map(|(j, hub)| (SubjectId::from_index(j), hub.addr().to_string()))
                    .collect();
                (0..n)
                    .map(|i| {
                        let me = SubjectId::from_index(i);
                        let mut peers = peers.clone();
                        peers.remove(&me);
                        Arc::new(TcpTransport::new(me, peers, Duration::from_secs(5)))
                            as Arc<dyn Transport>
                    })
                    .collect()
            }
        };
        let (done_tx, done_rx) = channel();
        let mut handles = Vec::with_capacity(n);
        for ((party, rx), backend) in parties.iter().zip(rxs).zip(backends) {
            let party = Arc::clone(party);
            let wire = Wire::new(
                party.me,
                seed,
                backend,
                Arc::clone(faults),
                retry,
                Arc::clone(stats),
            );
            let done = done_tx.clone();
            handles.push(std::thread::spawn(move || {
                party_main(&party, &rx, &wire, &done)
            }));
        }
        PartyThreads {
            txs,
            done_rx,
            handles,
            epoch: 0,
            _hubs: hubs,
        }
    }

    /// Run one prepared query across the persistent party threads and
    /// return each clean participant's contribution. `envelopes` holds
    /// each subject's signed request, by subject index. Blocks until
    /// every participant reported an outcome for this epoch, so a
    /// failed query is fully drained before the next one starts.
    pub(crate) fn run(
        &mut self,
        job: QueryJob,
        mut envelopes: Vec<Option<SignedEnvelope>>,
        user_public: &RsaPublic,
    ) -> Result<Vec<PartyOut>, SimError> {
        self.epoch += 1;
        let epoch = self.epoch;
        let job = Arc::new(job);
        for &s in &job.participants {
            self.txs[s.index()]
                .send(PartyMsg::Run {
                    epoch,
                    job: Arc::clone(&job),
                    envelope: envelopes[s.index()].take(),
                    user_public: user_public.clone(),
                })
                .expect("party thread alive for the session's lifetime");
        }

        let mut outcomes: HashMap<SubjectId, Outcome> = HashMap::new();
        while outcomes.len() < job.participants.len() {
            let (s, e, outcome) = self
                .done_rx
                .recv()
                .expect("party threads alive for the session's lifetime");
            if e == epoch {
                outcomes.insert(s, outcome);
            }
        }

        let mut outs = Vec::new();
        let mut first_error: Option<SimError> = None;
        let mut panic_msg: Option<String> = None;
        // Participant order (ascending subject id) keeps the reported
        // error deterministic when several parties fail independently.
        for s in &job.participants {
            match outcomes.remove(s).expect("one outcome per participant") {
                Outcome::Done(out) => outs.push(out),
                Outcome::Failed(e) => first_error = first_error.or(Some(e)),
                Outcome::Aborted => {}
                Outcome::Panicked(m) => panic_msg = panic_msg.or(Some(m)),
            }
        }
        if let Some(m) = panic_msg {
            panic!("party thread panicked: {m}");
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(outs),
        }
    }
}

impl Drop for PartyThreads {
    fn drop(&mut self) {
        for tx in &self.txs {
            let _ = tx.send(PartyMsg::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The persistent per-subject loop: idle on the mailbox, [`drive`] a
/// query when woken, stash data messages that arrive while idle.
fn party_main(
    party: &Party,
    rx: &Receiver<PartyMsg>,
    wire: &Wire,
    done: &Sender<(SubjectId, u64, Outcome)>,
) {
    let mut stash: Vec<(u64, Msg)> = Vec::new();
    loop {
        match rx.recv() {
            Ok(PartyMsg::Run {
                epoch,
                job,
                envelope,
                user_public,
            }) => {
                let outcome = drive(
                    party,
                    &job,
                    envelope.as_ref(),
                    &user_public,
                    epoch,
                    rx,
                    wire,
                    &mut stash,
                );
                if done.send((party.me, epoch, outcome)).is_err() {
                    return;
                }
            }
            Ok(PartyMsg::Data { epoch, msg }) => stash.push((epoch, msg)),
            Ok(PartyMsg::Shutdown) | Err(_) => return,
        }
    }
}

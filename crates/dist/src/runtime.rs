//! The blocking driver over the party core (`party.rs`): a `Mailbox`
//! in, a `Wire` out.
//!
//! Every cross-subject table travels the same way, whoever steps the
//! core: the producer sends it through its `Wire` (in-proc mailbox
//! senders or framed TCP, with fault injection and bounded retry), and
//! it lands in the consumer's `Mailbox`. Two drivers pull from there:
//!
//! * [`Session::execute`](crate::Session::execute) walks the Fig. 8
//!   regions producers first on the calling thread, pulling each
//!   subject's mailbox until its next region is ready (see
//!   [`session`](crate::session));
//! * `drive`, here, runs one subject's share of one query epoch by
//!   feeding a `PartyRun` from that party's mailbox until it is done.
//!   Every [`Server`](crate::Server) calls it for its own subject and
//!   the [`Coordinator`](crate::Coordinator) for the user's share (see
//!   [`remote`](crate::remote)).
//!
//! Failure handling: the core returns a typed error; `drive` — and
//! only `drive` — broadcasts a best-effort abort to the query's other
//! participants and reports the error. Peers receiving `Abort` stop
//! without an error of their own. `settle` — and only `settle` —
//! turns the participants' outcomes into what the coordinator's query
//! reports: a real failure before an abort echo, the lowest subject id
//! when several fail independently.
//!
//! Because mailboxes outlive queries, every data message carries the
//! query *epoch* it belongs to, and the mailbox carries nothing else.
//! `Mailbox::next` is the one epoch filter: a message that arrives
//! after its query already ended (e.g. a table a producer sent before
//! a later region failed) is dropped when a later epoch asks for its
//! next message; one that arrives *before* its recipient has started
//! that epoch simply waits in the mailbox, or is held aside if it is
//! read while an earlier epoch is still being drained. Epochs are what
//! make an aborted query leave no residue for the next one.

use crate::error::SimError;
use crate::party::{Party, PartyOut, PartyRun, QueryJob, Transfer};
use crate::transport::{TransportError, Wire};
use mpq_algebra::SubjectId;
use mpq_crypto::rsa::{RsaPublic, SignedEnvelope};
use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// One data-plane message exchanged between parties while a query
/// runs. `Clone` because a delivery *attempt* may damage or duplicate
/// the message without consuming the sender's copy (see
/// [`crate::transport`]); a transfer is shared, not copied, so cloning
/// the message counts a reference.
#[derive(Clone, Debug)]
pub(crate) enum Msg {
    /// A region's result crossing a subject edge.
    Table(Arc<Transfer>),
    /// A peer failed; stop without producing more traffic.
    Abort,
}

/// What a mailbox carries: a message and the query epoch it belongs to.
pub(crate) type Stamped = (u64, Msg);

/// A party's persistent inbox. It carries data only, and it alone
/// knows about epochs: whoever drives a query asks for the next
/// message *of that query*.
pub(crate) struct Mailbox {
    rx: Receiver<Stamped>,
    /// Messages of epochs this party has not started yet, in arrival
    /// order.
    ahead: Vec<Stamped>,
}

impl Mailbox {
    /// An empty mailbox and the sender that links and hubs deliver to.
    pub(crate) fn new() -> (Sender<Stamped>, Mailbox) {
        let (tx, rx) = channel();
        let ahead = Vec::new();
        (tx, Mailbox { rx, ahead })
    }

    /// The next table of query `epoch`; `None` once a peer aborted the
    /// epoch (or every sender is gone), which ends this party's share
    /// without an error of its own. Residue of earlier epochs is
    /// dropped, a message of a later one is held until its epoch runs,
    /// and `timeout` of silence is the typed [`TransportError::Timeout`]
    /// — a dead peer aborts the epoch instead of hanging the session.
    /// The transfer is handed out as its sole owner, so in-process it
    /// is the sender's own; it is copied only while another reference
    /// is alive — a fault-injected duplicate still queued.
    pub(crate) fn next(
        &mut self,
        epoch: u64,
        timeout: Option<Duration>,
    ) -> Result<Option<Transfer>, TransportError> {
        loop {
            let held = self.ahead.iter().position(|(e, _)| *e <= epoch);
            let (e, msg) = match (held, timeout) {
                (Some(i), _) => self.ahead.remove(i),
                (None, None) => match self.rx.recv() {
                    Ok(stamped) => stamped,
                    Err(_) => return Ok(None),
                },
                (None, Some(d)) => match self.rx.recv_timeout(d) {
                    Ok(stamped) => stamped,
                    Err(RecvTimeoutError::Disconnected) => return Ok(None),
                    Err(RecvTimeoutError::Timeout) => {
                        let millis = d.as_millis() as u64;
                        return Err(TransportError::Timeout { millis });
                    }
                },
            };
            match (e.cmp(&epoch), msg) {
                (Ordering::Less, _) => {}
                (Ordering::Greater, msg) => self.ahead.push((e, msg)),
                (Ordering::Equal, Msg::Table(transfer)) => {
                    return Ok(Some(Arc::unwrap_or_clone(transfer)))
                }
                (Ordering::Equal, Msg::Abort) => return Ok(None),
            }
        }
    }
}

/// One party's share of one query, as `Frame::Execute` hands it over.
pub(crate) struct Run {
    /// Query epoch (strictly increasing per coordinator).
    pub(crate) epoch: u64,
    /// The shared, immutable description of the query.
    pub(crate) job: Arc<QueryJob>,
    /// This party's signed request, travelling beside the job exactly
    /// as in `Frame::Execute`.
    pub(crate) envelope: Option<SignedEnvelope>,
    /// The user's RSA public key (envelope verification).
    pub(crate) user_public: RsaPublic,
}

/// What a party reports back for one epoch.
pub(crate) enum Outcome {
    /// Finished cleanly.
    Done(PartyOut),
    /// Failed with a real error (already broadcast `Abort`).
    Failed(SimError),
    /// Stopped because a peer aborted (or the mailbox closed).
    Aborted,
    /// The party panicked (a bug, not a protocol failure); the panic
    /// was caught so the other parties could finish, and is re-raised
    /// by [`settle`].
    Panicked(String),
}

/// What an [`Outcome::Aborted`] reads as where an error must be named —
/// a server's `Frame::Failed`, and [`settle`] when it finds only echoes.
pub(crate) const ABORTED_MARK: &str = "aborted: a peer failed first";

/// Run `party`'s share of query `run` to an [`Outcome`]: the blocking
/// scheduler. Outputs leave through `wire` (in-proc mailbox senders or
/// framed TCP), inputs arrive on the party's own `mailbox` whichever
/// way they traveled. This is the one place an epoch is aborted: any
/// error the core, the wire or the mailbox returns — and any panic —
/// ends here, where the other participants are told to stop.
pub(crate) fn drive(party: &Party, run: &Run, mailbox: &mut Mailbox, wire: &Wire) -> Outcome {
    let epoch = || run_epoch(party, run, mailbox, wire);
    let failure = match catch_unwind(AssertUnwindSafe(epoch)) {
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
    wire.broadcast_abort(run.epoch, &run.job.participants);
    failure
}

/// [`drive`] without the failure handling: `Ok(None)` means a peer
/// aborted (or the mailbox closed) and this party simply stops.
fn run_epoch(
    party: &Party,
    run: &Run,
    mailbox: &mut Mailbox,
    wire: &Wire,
) -> Result<Option<PartyOut>, SimError> {
    let job = &run.job;
    let mut core = PartyRun::new(party, job, run.envelope.as_ref(), &run.user_public)?;
    loop {
        while let Some(id) = core.ready() {
            if let Some((to, transfer)) = core.step(id)? {
                wire.send(to, run.epoch, Msg::Table(Arc::new(transfer)))?;
            }
        }
        if core.is_done() {
            return Ok(Some(core.finish()));
        }
        match mailbox.next(run.epoch, job.timeout())? {
            Some(transfer) => core.deliver(transfer)?,
            None => return Ok(None),
        }
    }
}

/// What a query reports, given every participant's outcome: a real
/// failure before an abort echo, then the lowest subject id — so the
/// error is deterministic when several parties fail independently —
/// and the clean parties' contributions otherwise. The one place an
/// outcome list becomes an error, whoever scheduled the parties.
pub(crate) fn settle(mut outcomes: Vec<(SubjectId, Outcome)>) -> Result<Vec<PartyOut>, SimError> {
    outcomes.sort_by_key(|(s, _)| s.index());
    let mut outs = Vec::new();
    let mut failed = None;
    let mut echo = None;
    for (s, outcome) in outcomes {
        match outcome {
            Outcome::Done(out) => outs.push(out),
            Outcome::Failed(e) => failed = failed.or(Some(e)),
            Outcome::Aborted => echo = echo.or(Some(s)),
            Outcome::Panicked(m) => panic!("party {s} panicked: {m}"),
        }
    }
    let echo = echo.map(|s| peer_failure(s, ABORTED_MARK.to_string()));
    failed.or(echo).map_or(Ok(outs), Err)
}

/// Subject `from` failed its share of a query, in its own words.
pub(crate) fn peer_failure(from: SubjectId, message: String) -> SimError {
    TransportError::Peer { from, message }.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_algebra::{AttrId, NodeId, Value};
    use mpq_exec::Table;

    /// A one-cell table from subject 1 carrying sequence number `seq`.
    fn table(seq: u64) -> Msg {
        Msg::Table(Arc::new(Transfer {
            node: NodeId(0),
            from: SubjectId(1),
            seq,
            batches: Table::from_rows(vec![AttrId(0)], vec![vec![Value::Int(7)]]).into(),
        }))
    }

    /// The sequence number of the next table of `epoch`, if any.
    fn next_seq(mailbox: &mut Mailbox, epoch: u64) -> Option<u64> {
        let next = mailbox.next(epoch, Some(Duration::from_secs(5)));
        next.expect("no timeout").map(|t| t.seq)
    }

    #[test]
    fn mailbox_drops_stale_and_delivers_current_in_order() {
        let (tx, mut mailbox) = Mailbox::new();
        for stamped in [
            (1, table(10)),
            (1, Msg::Abort),
            (2, table(20)),
            (2, table(21)),
        ] {
            tx.send(stamped).expect("mailbox open");
        }
        // Epoch 1's table *and* its abort are residue by epoch 2: an
        // aborted query must not abort the next one.
        assert_eq!(next_seq(&mut mailbox, 2), Some(20));
        assert_eq!(next_seq(&mut mailbox, 2), Some(21));
    }

    #[test]
    fn mailbox_holds_a_later_epoch_until_its_turn() {
        let (tx, mut mailbox) = Mailbox::new();
        for stamped in [
            (5, table(50)),
            (4, table(40)),
            (5, table(51)),
            (4, table(41)),
        ] {
            tx.send(stamped).expect("mailbox open");
        }
        assert_eq!(next_seq(&mut mailbox, 4), Some(40));
        assert_eq!(next_seq(&mut mailbox, 4), Some(41));
        // Epoch 5's messages were read past while 4 ran: they come out
        // when 5 runs, in arrival order, with nothing left in the
        // channel — and then the closed channel ends the epoch.
        drop(tx);
        assert_eq!(next_seq(&mut mailbox, 5), Some(50));
        assert_eq!(next_seq(&mut mailbox, 5), Some(51));
        assert_eq!(next_seq(&mut mailbox, 5), None);
    }

    #[test]
    fn mailbox_honours_this_epochs_abort_and_times_out_on_silence() {
        let (tx, mut mailbox) = Mailbox::new();
        tx.send((3, Msg::Abort)).expect("mailbox open");
        tx.send((3, table(30))).expect("mailbox open");
        assert_eq!(next_seq(&mut mailbox, 3), None, "abort ends the epoch");
        // What followed the abort is residue one epoch later; then
        // nothing arrives, and the wait is bounded and typed.
        let silence = mailbox.next(4, Some(Duration::from_millis(20)));
        assert_eq!(
            silence.expect_err("nothing was sent"),
            TransportError::Timeout { millis: 20 }
        );
    }

    #[test]
    fn settle_prefers_a_real_failure_then_the_lowest_subject() {
        let failed = |s: u32| {
            (
                SubjectId(s),
                Outcome::Failed(SimError::Unassigned(NodeId(s))),
            )
        };
        let aborted = |s: u32| (SubjectId(s), Outcome::Aborted);
        let done = |s: u32| (SubjectId(s), Outcome::Done(PartyOut::default()));
        let settled = settle(vec![aborted(0), failed(3), done(2), failed(1)]);
        assert!(matches!(settled, Err(SimError::Unassigned(NodeId(1)))));
        // Only echoes: the error names one, it does not vanish.
        let echo = TransportError::Peer {
            from: SubjectId(2),
            message: ABORTED_MARK.to_string(),
        };
        match settle(vec![done(4), aborted(5), aborted(2)]) {
            Err(SimError::Transport(e)) => assert_eq!(e, echo),
            _ => panic!("an abort echo is not a clean run"),
        }
        let clean = settle(vec![done(1), done(0)]).expect("clean");
        assert_eq!(clean.len(), 2);
    }
}

//! The federated client/server deployment: one OS **process** per
//! subject.
//!
//! [`Session`](crate::Session) realizes the paper's §6 protocol inside
//! a single process, every subject's regions stepped by one walk on the
//! calling thread. This module promotes that topology to the
//! architecture Fig. 8 actually draws:
//! every subject is its own [`Server`] process holding **only its own
//! material** — its partition of the base relations, its RSA keypair,
//! and the cluster keys Def. 6.1 provisions to it — while a
//! [`Coordinator`] embedded in the querying user's process drives the
//! protocol over real TCP:
//!
//! 1. **hello** — the coordinator connects to every server's control
//!    port and announces the querying user and its RSA public key; each
//!    server answers with its subject id, its public key and the
//!    highest query epoch it has been sent
//!    (`Frame::Hello`/`Frame::HelloAck`), then holds the user's key to
//!    the fleet's for the user named and drops a connection announcing
//!    any other (the typed [`TransportError::ForeignUser`]). The
//!    coordinator holds the server's key to the one it expects and
//!    refuses any other (below), and numbers its queries above every
//!    server's epoch;
//! 2. **provision** — Def. 6.1 cluster keys are generated client-side
//!    and shipped to their holders as sealed
//!    `[[key]_priU]_pubS` envelopes (`Frame::Provision`) carrying the
//!    key's master, from which a holder derives a Paillier keypair only
//!    if it needs one; computing non-holders receive only the public
//!    Paillier modulus of a cluster the query sums under Paillier
//!    (`Frame::ProvisionPublic`) — enough to aggregate, never to
//!    decrypt. Private RSA keys never cross the wire in any direction;
//! 3. **execute** — each participant receives the query job plus its
//!    signed sub-query request
//!    (`Frame::Execute`); the signed request *is* the authorization
//!    to compute, and a server that cannot open and verify its
//!    envelope refuses the epoch;
//! 4. **data plane** — result tables flow *directly* between the
//!    subject processes (true peer-to-peer, not through the
//!    coordinator) as framed `Msg` records; the
//!    receiving party audits every cell against its own view and
//!    accounts the bytes, exactly as in-process;
//! 5. **done** — every participant reports
//!    `Frame::Done`/`Frame::Failed` on its control connection and
//!    the coordinator assembles the [`Report`].
//!
//! The whole exchange is built to survive flaky links: control sends
//! run under the same bounded-retry/backoff discipline as the data
//! plane, a dead control connection is re-dialed and the pending
//! `Execute` re-delivered, and servers cache per-epoch outcomes so
//! re-delivery replays the recorded answer instead of executing twice
//! (after re-verifying the signed envelope — recovery never relaxes
//! authorization). A fault that outlives the budget aborts *the epoch*
//! with a typed error; the fleet keeps serving the next query.
//!
//! **One fleet from one seed.** Every party's RSA identity is drawn
//! from one seeded stream, the *fleet seed*, in subject order
//! (`party::fleet_identities`): a [`Session`](crate::Session) draws
//! them all, a [`Coordinator`] draws them all too and keeps the user's
//! keypair and every public key, and a [`Server`] draws up to its own
//! subject's, and on to the user a hello names (at most 64 identities).
//! So the coordinator knows each server's key before it dials, and a
//! server started with another seed — which would hold other keys and
//! derive other fixture data — is refused at connect with the typed
//! [`TransportError::ForeignKey`]; a server refuses a client of another
//! seed the same way, so no other client provisions keys to it. The
//! coordinator's `Dispatcher` continues the stream exactly as a session's does (it
//! seals `Frame::Provision` envelopes from a stream of its own), so a
//! federated query puts on every edge the bytes a session's puts there
//! after [`reset_provisioning`](crate::Session::reset_provisioning).
//! Every key is a public function of the shared seed, as it always
//! was: real key distribution is out of scope.
//!
//! A fleet outlives its coordinators. Epochs grow across them, so a
//! second coordinator's query never meets the first one's cached
//! outcomes or mailbox residue, and a server dials its data links
//! afresh for each coordinator connection (the user's hub may have
//! moved with its process).
//!
//! This is the **process-per-subject** driver, and it owns no
//! protocol logic of its own. The coordinator prepares a query with
//! the same `Dispatcher` a [`Session`](crate::Session) uses
//! (authorize → provision → seal; only the delivery of a key differs);
//! every server, and the coordinator for the user's own share, runs
//! the party core (`party.rs`) under the blocking `drive` of
//! [`runtime`](crate::runtime), over the mailbox and wire a session's
//! walk uses, so every guarantee (envelope check, receive audit, epoch
//! isolation, typed transport aborts) carries over. The control
//! connections are a second `Links` cache — the data plane's, with the
//! hello handshake as its introduction step — under a second `Wire`:
//! control frames retry, back off and take injected faults by the data
//! plane's own loop and its one reading of a `FaultAction`, and
//! `settle` picks the error a query reports.

use crate::codec::Frame;
use crate::error::SimError;
use crate::fault::{FaultPlan, RetryPolicy};
use crate::party::{fleet_identities, Party, PartyOut};
use crate::runtime::{drive, peer_failure, settle, Mailbox, Outcome, Run, ABORTED_MARK};
use crate::session::{set_up, Dispatched, Dispatcher, Grant, SessionConfig};
use crate::transport::{
    Conn, EdgeRecovery, Ledger, Link, Links, TcpHub, TransportError, TransportKind, Wire,
    CONNECT_TIMEOUT,
};
use crate::Report;
use mpq_algebra::{Catalog, SubjectId};
use mpq_core::authz::{Policy, SubjectView};
use mpq_core::extend::ExtendedPlan;
use mpq_core::keys::KeyPlan;
use mpq_core::subjects::Subjects;
use mpq_crypto::bignum::BigUint;
use mpq_crypto::keyring::ClusterKey;
use mpq_crypto::paillier::PaillierPublic;
use mpq_crypto::rsa::{RsaPublic, SignedEnvelope};
use mpq_exec::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Extra slack the coordinator grants servers past the data-plane
/// receive timeout before declaring their control connection dead: a
/// server that hits its own timeout still needs a moment to report
/// `Failed`.
const DONE_SLACK: Duration = Duration::from_secs(5);

/// How many completed epochs a server keeps outcome frames for, so a
/// coordinator re-sending `Execute` after an ambiguous failure gets the
/// recorded `Done`/`Failed` replayed instead of a second execution.
const OUTCOME_CACHE: u64 = 8;

/// Salt separating control-plane backoff jitter from the data plane's
/// (both derive from the session seed).
const CTL_SALT: u64 = 0x6374_6c5f_7365_6564; // "ctl_seed"

/// Salt of the stream a coordinator seals `Frame::Provision` envelopes
/// from. A stream of its own leaves the `Dispatcher`'s where a
/// session's is, so both seal the same request bytes.
const SEAL_SALT: u64 = 0x7365_616c_7365_6564; // "sealseed"

/// The most identities a server draws from the fleet stream to check a
/// hello's user key: a hello naming a subject beyond it is refused
/// without drawing, so a client cannot make a server generate RSA keys
/// without bound.
const FLEET_CAP: usize = 64;

/// Everything one `mpq-server` process needs to host a subject.
///
/// The deliberate *absence* here is the point: no other subject's
/// store, no other subject's keys, no policy-wide state beyond this
/// subject's own view (needed for the receive audit). Catalog, view,
/// and the store partition are derived from a shared fixture on both
/// sides of the wire (see the `mpq-server` binary).
pub struct ServerConfig {
    /// The subject this process hosts.
    pub me: SubjectId,
    /// Listen address (`host:port`; port 0 for OS-assigned).
    pub listen: String,
    /// Data-plane addresses of the *other* parties, including the
    /// coordinator's user.
    pub peers: HashMap<SubjectId, String>,
    /// The fleet seed: the one every party of the fleet and its
    /// coordinators are given. This server's RSA keypair is the one a
    /// session of this seed would give its subject (see
    /// [`Session::open`](crate::Session::open)), which is the key a
    /// coordinator of the seed expects; the binary also derives the
    /// fixture from it.
    pub seed: u64,
    /// The shared schema.
    pub catalog: Catalog,
    /// This subject's overall view (receive audits).
    pub view: SubjectView,
    /// This subject's partition of the base relations.
    pub store: Database,
    /// Fault schedule for this server's *sending* data plane (`None`:
    /// no injection).
    pub faults: Option<FaultPlan>,
    /// Retry budget for data-plane sends.
    pub retry: RetryPolicy,
}

/// A bound subject process: one listener serving both the data plane
/// (peer connections) and the control plane (the coordinator).
pub struct Server {
    party: Party,
    /// The fleet's public keys drawn so far, by subject index: up to
    /// this server's own, then up to the highest user a hello named.
    fleet: Vec<RsaPublic>,
    peers: HashMap<SubjectId, String>,
    mailbox: Mailbox,
    ctl_rx: Receiver<Conn>,
    hub: TcpHub,
    seed: u64,
    /// The one ledger of this server's data plane, across coordinators.
    ledger: Arc<Mutex<Ledger>>,
    retry: RetryPolicy,
    /// Outcome frames of recent epochs, replayed when a recovering
    /// coordinator re-delivers an `Execute` this server already ran.
    outcomes: HashMap<u64, Frame>,
}

impl Server {
    /// Bind the listener and draw this subject's keypair from the
    /// fleet stream (every identity up to its own: once per process).
    /// The process serves coordinators until one sends
    /// `Frame::Shutdown`.
    pub fn bind(config: ServerConfig) -> Result<Server, TransportError> {
        let (mut identities, _) = fleet_identities(config.seed, config.me.index() + 1);
        let fleet = identities.iter().map(|k| k.public.clone()).collect();
        let rsa = identities.swap_remove(config.me.index());
        let catalog = Arc::new(config.catalog);
        let party = Party::new(config.me, catalog, config.view, rsa, config.store);
        let (tx, mailbox) = Mailbox::new();
        let (ctl_tx, ctl_rx) = channel();
        let hub = TcpHub::bind(&config.listen, tx, Some(ctl_tx))?;
        Ok(Server {
            party,
            fleet,
            peers: config.peers,
            mailbox,
            ctl_rx,
            hub,
            seed: config.seed,
            ledger: Ledger::shared(config.faults),
            retry: config.retry,
            outcomes: HashMap::new(),
        })
    }

    /// The actually-bound `host:port` (resolves port 0).
    pub fn addr(&self) -> &str {
        self.hub.addr()
    }

    /// The subject this server hosts.
    pub fn subject(&self) -> SubjectId {
        self.party.me
    }

    /// Replace the peer address map given at [`Server::bind`] — for a
    /// fleet bound on OS-assigned ports, whose addresses are only known
    /// once every member is bound.
    pub fn set_peers(&mut self, peers: HashMap<SubjectId, String>) {
        self.peers = peers;
    }

    /// Serve coordinators until one sends `Frame::Shutdown`. A
    /// coordinator dropping its connection — or damaging it mid-epoch —
    /// returns the server to accepting the next one; provisioned keys,
    /// cached epoch outcomes and the data plane's ledger persist across
    /// coordinator connections (they are this subject's material), the
    /// data links do not: the user's hub a cached link reached may
    /// have gone with its coordinator.
    pub fn run(mut self) -> Result<(), TransportError> {
        loop {
            let Ok(mut ctl) = self.ctl_rx.recv() else {
                return Ok(());
            };
            let wire = self.data_wire();
            match self.serve_conn(&mut ctl, &wire) {
                Ok(true) => return Ok(()),
                // The coordinator went away or its connection died
                // mid-conversation: either way this server keeps its
                // material and serves the next connection. A fleet
                // survives any one flaky link.
                Ok(false) | Err(_) => continue,
            }
        }
    }

    /// The fleet's public key of `s`, drawing the fleet's identities up
    /// to it the first time a subject past those drawn is named; `None`
    /// past [`FLEET_CAP`].
    fn fleet_key(&mut self, s: SubjectId) -> Option<&RsaPublic> {
        if (self.fleet.len()..FLEET_CAP).contains(&s.index()) {
            let (identities, _) = fleet_identities(self.seed, s.index() + 1);
            self.fleet = identities.into_iter().map(|k| k.public).collect();
        }
        self.fleet.get(s.index())
    }

    /// This server's sending data plane: fresh links, its one ledger.
    fn data_wire(&self) -> Wire {
        let me = self.party.me;
        let links = Arc::new(Links::tcp(me, self.peers.clone()));
        let ledger = Arc::clone(&self.ledger);
        Wire::new(me, self.seed, links, ledger, self.retry)
    }

    /// Serve one coordinator connection. `Ok(true)` means shutdown was
    /// requested; `Ok(false)` means the coordinator went away.
    fn serve_conn(&mut self, ctl: &mut Conn, wire: &Wire) -> Result<bool, TransportError> {
        // The handshake fixes who we are talking *for*: every envelope
        // of this connection must verify against this user key, which
        // must be the fleet's for the user the hello names.
        let mut user_public: Option<RsaPublic> = None;
        loop {
            let frame = match ctl.recv(None) {
                Ok(f) => f,
                Err(TransportError::Closed) => return Ok(false),
                Err(e) => return Err(e),
            };
            match frame {
                Frame::Hello { user, public } => {
                    ctl.send(&Frame::HelloAck {
                        me: self.party.me,
                        public: self.party.rsa.public.clone(),
                        // The highest epoch this server ran: the
                        // coordinator numbers its queries above it, so
                        // none meets a cached outcome or residue of
                        // another coordinator's.
                        epoch: self.outcomes.keys().max().copied().unwrap_or_default(),
                    })?;
                    // Each end holds the other's key to the fleet's. The
                    // answer goes first, so that a coordinator of another
                    // seed names the mismatch (`ForeignKey`); then the
                    // connection of a user the fleet did not draw is
                    // dropped before any of its frames is read.
                    if self.fleet_key(user) != Some(&public) {
                        return Err(TransportError::ForeignUser { subject: user });
                    }
                    user_public = Some(public);
                }
                Frame::Provision { envelope } => {
                    // Def. 6.1 delivery: sealed to us, signed by the
                    // user. A key that fails to open is simply not
                    // granted — the query that needed it will fail with
                    // a typed MissingKey at execution.
                    if let Some(pk) = &user_public {
                        if let Some(key) = envelope
                            .open(&self.party.rsa, pk)
                            .and_then(|bytes| ClusterKey::from_bytes(&bytes))
                        {
                            self.party.ring.insert(key);
                        }
                    }
                }
                Frame::ProvisionPublic { id, n } => {
                    // Unauthenticated bytes: a modulus no Paillier key
                    // can have is not granted, like a key that fails to
                    // open above.
                    if let Some(public) = PaillierPublic::from_modulus(BigUint::from_bytes_be(&n)) {
                        self.party.ring.insert_public(id, public);
                    }
                }
                Frame::Execute {
                    epoch,
                    job,
                    envelope,
                } => {
                    let failed = |message| Frame::Failed { epoch, message };
                    let Some(user_public) = user_public.clone() else {
                        ctl.send(&failed("Execute before Hello".to_string()))?;
                        continue;
                    };
                    // A re-delivered Execute (the coordinator re-sent
                    // after an ambiguous failure) replays the recorded
                    // outcome instead of executing twice — but the
                    // authorization is never relaxed: the envelope must
                    // still open and verify against the session's user
                    // key before anything is replayed.
                    if self.outcomes.contains_key(&epoch) {
                        let authorized = envelope
                            .as_ref()
                            .is_some_and(|env| env.open(&self.party.rsa, &user_public).is_some());
                        let reply = if authorized {
                            self.outcomes[&epoch].clone()
                        } else {
                            failed(SimError::Envelope { to: self.party.me }.to_string())
                        };
                        ctl.send(&reply)?;
                        continue;
                    }
                    // The signed request is the licence to compute; the
                    // party core refuses the epoch without it.
                    let run = Run {
                        epoch,
                        job,
                        envelope,
                        user_public,
                    };
                    let reply = match drive(&self.party, &run, &mut self.mailbox, wire) {
                        Outcome::Done(out) => Frame::Done {
                            epoch,
                            transfers: out.transfers,
                        },
                        Outcome::Failed(e) => failed(e.to_string()),
                        Outcome::Aborted => failed(ABORTED_MARK.to_string()),
                        Outcome::Panicked(m) => failed(format!("party panicked: {m}")),
                    };
                    // Record the outcome *before* reporting it: if the
                    // send fails because the coordinator's connection
                    // died, the recovery path re-delivers Execute and
                    // finds the answer here.
                    self.outcomes.insert(epoch, reply.clone());
                    self.outcomes.retain(|&e, _| e + OUTCOME_CACHE > epoch);
                    ctl.send(&reply)?;
                }
                Frame::Shutdown => return Ok(true),
                // Data-plane or coordinator-bound frames on a control
                // connection: a confused peer. Drop the connection.
                _ => return Ok(false),
            }
        }
    }
}

/// The coordinator's control plane: a [`Links`] cache whose
/// introduction step is the hello handshake — dial `s`'s control port,
/// announce the user with `hello`, wait up to `wait` for the
/// `HelloAck`, refuse a server whose key is not `publics[s]` (the
/// fleet's, by subject index) and raise `seen` to the epoch it reports.
fn control_links(
    hello: Frame,
    addrs: HashMap<SubjectId, String>,
    wait: Duration,
    publics: Vec<RsaPublic>,
    seen: &Arc<AtomicU64>,
) -> Links<Conn> {
    let seen = Arc::clone(seen);
    Links::new(move |s| {
        let addr = addrs.get(&s).ok_or(TransportError::Closed)?;
        let mut ctl = Conn::connect(addr, s, CONNECT_TIMEOUT)?;
        ctl.send(&hello)?;
        let detail = match ctl.recv(Some(wait))? {
            Frame::HelloAck { me, public, epoch } if me == s => {
                if publics.get(s.index()) != Some(&public) {
                    return Err(TransportError::ForeignKey { subject: s });
                }
                seen.fetch_max(epoch, Ordering::SeqCst);
                return Ok(ctl);
            }
            Frame::HelloAck { me, .. } => format!("server at {addr} hosts {me}, expected {s}"),
            _ => "expected HelloAck".to_string(),
        };
        Err(TransportError::Frame { detail })
    })
}

/// One attempt to receive `s`'s outcome of `epoch` within `wait`. A
/// connection lost since the `Execute` went out is re-dialed and
/// `pending` re-delivered first — the server either replays its cached
/// outcome or runs the epoch it never received. An `Err` is worth
/// another attempt (the connection died, and is evicted); what the
/// server said, or that a *quiet* but healthy connection said nothing —
/// not recoverable by reconnecting, so the typed timeout surfaces
/// immediately — is final.
fn recv_outcome(
    links: &Links<Conn>,
    wait: Duration,
    s: SubjectId,
    epoch: u64,
    pending: Option<&Frame>,
) -> Result<Outcome, TransportError> {
    let redialed = !links.is_open(s);
    links.with(s, false, |ctl| {
        if let (true, Some(frame)) = (redialed, pending) {
            ctl.send(frame)?;
        }
        loop {
            let outcome = match ctl.recv(Some(wait)) {
                // Residue of an earlier epoch is drained without
                // consuming recovery budget.
                Ok(Frame::Done { epoch: e, .. } | Frame::Failed { epoch: e, .. }) if e != epoch => {
                    continue
                }
                Ok(Frame::Done { transfers, .. }) => Outcome::Done(PartyOut {
                    transfers,
                    result: None,
                }),
                Ok(Frame::Failed { message, .. }) if message == ABORTED_MARK => Outcome::Aborted,
                Ok(Frame::Failed { message, .. }) => Outcome::Failed(peer_failure(s, message)),
                Ok(_) => lost(
                    s,
                    TransportError::Frame {
                        detail: "expected Done/Failed".to_string(),
                    },
                ),
                Err(e @ TransportError::Timeout { .. }) => lost(s, e),
                Err(e) => return Err(e),
            };
            return Ok(outcome);
        }
    })
}

/// The outcome of a server whose answer never arrived.
fn lost(s: SubjectId, e: TransportError) -> Outcome {
    Outcome::Failed(peer_failure(s, e.to_string()))
}

/// The querying user's end of the federated deployment: holds the
/// user's own party (keys, store partition, data-plane hub), a control
/// connection to every server, and drives the full §6 protocol per
/// query.
pub struct Coordinator {
    dispatcher: Dispatcher,
    /// The user's own party: the coordinator process *is* a party of
    /// the data plane like any provider (Fig. 8).
    party: Party,
    /// One control connection per server.
    links: Arc<Links<Conn>>,
    /// The stream `Frame::Provision` envelopes are sealed from.
    seal_rng: StdRng,
    /// How long a `HelloAck` or an outcome may take. Grants
    /// `DONE_SLACK` past the query timeout because a mid-epoch server
    /// only answers once its current serve loop observes the dead
    /// predecessor connection.
    wait: Duration,
    /// The control plane: a wire over `links` with its *own* fault
    /// counters and stats, so the data-plane trace stays a function of
    /// data-plane attempts alone, comparable across transport backends.
    ctl: Wire,
    wire: Wire,
    mailbox: Mailbox,
    _hub: TcpHub,
    /// The last query epoch: every server's highest at connect, then
    /// one more per query.
    epoch: u64,
}

impl Coordinator {
    /// Connect to every server, run the hello handshake, and set up
    /// the user's own party (data-plane hub on `listen`, store holding
    /// the relations the user is the authority of).
    ///
    /// The coordinator draws the fleet's identities from the seed as a
    /// [`Session`](crate::Session) does, keeps the user's and every
    /// public key, and continues the stream into its `Dispatcher`: a
    /// query prepares the bytes a session's would after
    /// [`reset_provisioning`](crate::Session::reset_provisioning). A
    /// server whose `HelloAck` carries another key — one started with
    /// another seed — is refused with the typed
    /// [`TransportError::ForeignKey`]. Queries are numbered above the
    /// highest epoch any server reports, so they never meet another
    /// coordinator's.
    ///
    /// `servers` maps each remote subject to its `host:port`; the
    /// servers' own `peers` maps must point back at `listen` for the
    /// user's subject, since result tables flow peer-to-peer. `db` is
    /// the full fixture database — only the user-authority partition
    /// stays in this process.
    ///
    /// Of the [`SessionConfig`], a coordinator reads `seed`,
    /// `preflight`, `timeout`, `faults` (one schedule for the user's
    /// data-plane sends, a second copy with its own counters for the
    /// control plane) and `retry`. It sets `transport` to
    /// [`TransportKind::Tcp`] — a coordinator is TCP by definition — so
    /// an unset `timeout` is the TCP default.
    #[allow(clippy::too_many_arguments)]
    pub fn connect(
        catalog: &Catalog,
        subjects: &Subjects,
        policy: &Policy,
        db: &Database,
        user: SubjectId,
        listen: &str,
        servers: &HashMap<SubjectId, String>,
        config: SessionConfig,
    ) -> Result<Coordinator, SimError> {
        let config = config.transport(TransportKind::Tcp);
        // A session's set-up, of which only the user's party stays, and
        // every public key.
        let (mut parties, dispatcher) = set_up(catalog, subjects, policy, db, &config);
        let party = parties.swap_remove(user.index());
        let (tx, mailbox) = Mailbox::new();
        let hub = TcpHub::bind(listen, tx, None)?;
        // One ledger per wire: the control plane's attempts never shift
        // the data plane's schedule.
        let wire_of = |seed, backend| {
            let ledger = Ledger::shared(config.faults.clone());
            Wire::new(user, seed, backend, ledger, config.retry)
        };
        let hello = Frame::Hello {
            user,
            public: party.rsa.public.clone(),
        };
        // Over TCP the receive timeout is always set.
        let wait = config.effective_timeout().unwrap_or_default() + DONE_SLACK;
        let seen = Arc::new(AtomicU64::new(0));
        let publics = dispatcher.publics.clone();
        let links = control_links(hello, servers.clone(), wait, publics, &seen);
        let links = Arc::new(links);
        let ctl = wire_of(config.seed ^ CTL_SALT, Arc::clone(&links) as _);
        let peers = Links::tcp(user, servers.clone());
        let wire = wire_of(config.seed, Arc::new(peers) as _);
        for s in subjects.iter().filter(|s| servers.contains_key(s)) {
            links.with(s, false, |_| Ok(()))?;
        }
        Ok(Coordinator {
            dispatcher,
            party,
            links,
            seal_rng: StdRng::seed_from_u64(config.seed ^ SEAL_SALT),
            wait,
            ctl,
            wire,
            mailbox,
            _hub: hub,
            epoch: seen.load(Ordering::SeqCst),
        })
    }

    /// Run one query across the server processes: the shared
    /// preparation (Def. 4.1 per node, optional static pre-flight,
    /// Def. 6.1 provisioning — here over the wire — and signed request
    /// dispatch), peer-to-peer execution, and report assembly. Each
    /// query is a standalone one: it provisions fresh cluster keys, as
    /// a [`Session`](crate::Session) does after
    /// [`reset_provisioning`](crate::Session::reset_provisioning).
    pub fn execute(&mut self, ext: &ExtendedPlan, keys: &KeyPlan) -> Result<Report, SimError> {
        let user = self.party.me;
        for id in self.dispatcher.reset() {
            self.party.ring.revoke(id);
        }
        let mut grants = Vec::new();
        let prepared = (self.dispatcher).prepare(ext, keys, user, &self.party.rsa, &mut grants);
        for grant in grants {
            self.grant(grant)?;
        }
        let Dispatched {
            job,
            mut envelopes,
            request_bytes,
            requests,
        } = prepared?;
        let job = Arc::new(job);

        self.epoch += 1;
        let epoch = self.epoch;
        let mut pending_execute = HashMap::new();
        let servers = job.participants.iter().filter(|&&s| s != user);
        for &s in servers.clone() {
            let frame = Frame::Execute {
                epoch,
                job: Arc::clone(&job),
                envelope: envelopes[s.index()].take(),
            };
            let sent = self.ctl.send_with_retry(s, &frame);
            // Keep the frame: a reconnected control channel re-delivers
            // it, and the server-side outcome cache makes re-delivery
            // idempotent.
            pending_execute.insert(s, frame);
            if let Err(e) = sent {
                // Graceful degradation: a server whose control channel
                // is beyond the retry budget fails *this epoch*, not
                // the session. Abort the epoch on the data plane so the
                // participants that did receive Execute stop waiting
                // and report, leaving every channel clean for the next
                // query.
                self.wire.broadcast_abort(epoch, &job.participants);
                return Err(e.into());
            }
        }

        // The user's own share runs inline, under the same driver as
        // every server's, and needs no request envelope to serve itself.
        let run = Run {
            epoch,
            job: Arc::clone(&job),
            envelope: None,
            user_public: self.party.rsa.public.clone(),
        };
        let own = drive(&self.party, &run, &mut self.mailbox, &self.wire);
        let mut outcomes = vec![(user, own)];
        for &s in servers {
            // A control channel dead beyond the retry budget fails this
            // epoch for this participant; the remaining participants
            // are still drained so the next query starts on clean
            // channels.
            let pending = pending_execute.get(&s);
            let outcome = self.ctl.retry(s, || {
                recv_outcome(&self.links, self.wait, s, epoch, pending)
            });
            outcomes.push((s, outcome.unwrap_or_else(|e| lost(s, e))));
        }
        Report::assemble(request_bytes, requests, settle(outcomes)?)
    }

    /// Deliver one grant. The user's ring is in this process; every
    /// other ring is behind a control connection, and a full key
    /// reaches it as a `[[key]_priU]_pubS` envelope, sealed from the
    /// coordinator's own stream. Private RSA keys never cross the wire
    /// in any direction.
    fn grant(&mut self, grant: Grant) -> Result<(), SimError> {
        let to = grant.to();
        if to == self.party.me {
            grant.insert_into(&self.party.ring);
            return Ok(());
        }
        let frame = match grant {
            Grant::Key(_, key) => {
                let public = &self.dispatcher.publics[to.index()];
                let (bytes, signer) = (key.to_bytes(), &self.party.rsa);
                let envelope = SignedEnvelope::seal(&mut self.seal_rng, &bytes, signer, public);
                Frame::Provision { envelope }
            }
            Grant::Public(_, id, public) => Frame::ProvisionPublic {
                id,
                n: public.n.to_bytes_be(),
            },
        };
        Ok(self.ctl.send_with_retry(to, &frame)?)
    }

    /// A snapshot of the ledger of this coordinator's *data-plane*
    /// wire — per edge, the recovery of the user's share of the
    /// peer-to-peer traffic. The counts are a pure function of the
    /// fault schedule, so the same schedule yields the same map a
    /// [`crate::Session`] reports.
    pub fn recovery_stats(&self) -> HashMap<(SubjectId, SubjectId), EdgeRecovery> {
        self.wire.ledger().edges.clone()
    }

    /// Total recovered deliveries so far: data-plane re-sends plus
    /// control-plane re-sends and reconnects. Non-zero means the
    /// session survived at least one injected or real fault.
    pub fn recovered_sends(&self) -> u64 {
        let retries = |w: &Wire| w.ledger().edges.values().map(|e| e.retries).sum::<u64>();
        retries(&self.wire) + retries(&self.ctl)
    }

    /// Ask every server to exit, then drop the connections.
    pub fn shutdown(self) {
        self.links.each(|ctl| {
            let _ = ctl.send(&Frame::Shutdown);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_frame;
    use crate::session::set_up;
    use crate::RSA_BITS;
    use mpq_algebra::AttrSet;
    use mpq_core::fixtures::RunningExample;
    use mpq_crypto::rsa::RsaKeypair;

    /// The fleet seed of [`bare_server`].
    const FLEET: u64 = 11;

    /// A server for subject 1 with nothing to its name, on loopback.
    fn bare_server() -> Server {
        let me = SubjectId(1);
        Server::bind(ServerConfig {
            me,
            listen: "127.0.0.1:0".to_string(),
            peers: HashMap::new(),
            seed: FLEET,
            catalog: Catalog::new(),
            view: SubjectView {
                subject: me,
                plain: AttrSet::new(),
                enc: AttrSet::new(),
            },
            store: Database::new(),
            faults: None,
            retry: RetryPolicy::default(),
        })
        .expect("bind a loopback server")
    }

    /// Provisioning frames carry peer bytes: key material no key can
    /// have is not granted, and the server keeps serving.
    #[test]
    fn malformed_provisioning_is_not_granted() {
        let mut server = bare_server();
        let me = server.subject();
        let addr = server.addr().to_string();

        let coordinator = std::thread::spawn(move || {
            let (mut identities, mut rng) = fleet_identities(FLEET, 1);
            let user = identities.remove(0);
            let mut ctl = Conn::connect(&addr, me, CONNECT_TIMEOUT).expect("connect");
            ctl.send(&Frame::Hello {
                user: SubjectId(0),
                public: user.public.clone(),
            })
            .expect("hello");
            let Ok(Frame::HelloAck { public, .. }) = ctl.recv(Some(CONNECT_TIMEOUT)) else {
                panic!("expected HelloAck");
            };
            for (id, n) in [(1, vec![]), (2, vec![1]), (3, vec![0x40, 0]), (4, vec![9])] {
                ctl.send(&Frame::ProvisionPublic { id, n }).expect("send");
            }
            let good = ClusterKey::generate(&mut rng, 5, 256);
            let mut no_modulus = good.to_bytes();
            no_modulus[3] = 6;
            no_modulus[20..].copy_from_slice(&1u32.to_be_bytes());
            for bytes in [no_modulus, good.to_bytes()] {
                let envelope = SignedEnvelope::seal(&mut rng, &bytes, &user, &public);
                ctl.send(&Frame::Provision { envelope }).expect("send");
            }
            ctl.send(&Frame::Shutdown).expect("shutdown");
        });

        let mut ctl = server.ctl_rx.recv().expect("control connection");
        let wire = server.data_wire();
        let shutdown = server
            .serve_conn(&mut ctl, &wire)
            .expect("every frame is handled");
        coordinator.join().expect("coordinator thread");
        assert!(shutdown, "served through to Shutdown");
        let ring = &server.party.ring;
        for id in [1, 2, 3] {
            assert!(ring.get_public(id).is_none(), "modulus {id} is no key's");
        }
        assert!(ring.get_public(4).is_some());
        assert!(ring.holds(5) && !ring.holds(6));
    }

    /// A server takes provisioning from the fleet's own users only: a
    /// hello with a key the fleet did not draw for the user it names —
    /// or naming a user past the fleet's cap — is answered, then
    /// refused, typed, before the connection's `Provision` is read.
    #[test]
    fn a_hello_with_a_key_the_fleet_did_not_draw_is_refused() {
        let mut server = bare_server();
        let me = server.subject();
        let addr = server.addr().to_string();
        let (identities, mut rng) = fleet_identities(FLEET, 2);
        let stranger = RsaKeypair::generate(&mut rng, RSA_BITS);
        let (user, server_key) = (identities[0].public.clone(), identities[1].public.clone());
        let far = SubjectId(FLEET_CAP as u32);
        let hellos = [(SubjectId(0), stranger.public.clone()), (far, user)];
        let client = std::thread::spawn(move || {
            for (user, public) in hellos {
                let mut ctl = Conn::connect(&addr, me, CONNECT_TIMEOUT).expect("connect");
                ctl.send(&Frame::Hello { user, public }).expect("hello");
                let ack = ctl.recv(Some(CONNECT_TIMEOUT));
                assert!(matches!(ack, Ok(Frame::HelloAck { .. })), "{ack:?}");
                let key = ClusterKey::generate(&mut rng, 5, 256);
                let envelope =
                    SignedEnvelope::seal(&mut rng, &key.to_bytes(), &stranger, &server_key);
                // The server may have hung up already; then it does.
                let _ = ctl.send(&Frame::Provision { envelope });
                assert!(ctl.recv(Some(CONNECT_TIMEOUT)).is_err());
            }
        });
        let wire = server.data_wire();
        for subject in [SubjectId(0), far] {
            let mut ctl = server.ctl_rx.recv().expect("control connection");
            let refused = server.serve_conn(&mut ctl, &wire);
            assert_eq!(refused, Err(TransportError::ForeignUser { subject }));
        }
        client.join().expect("client thread");
        assert!(!server.party.ring.holds(5), "no key was granted");
        assert_eq!(server.fleet.len(), 2, "nothing drawn past the cap");
    }

    /// A `Truncate` on the control plane really poisons the socket —
    /// the server sees a record end mid-body and drops the connection —
    /// and the wire's retry re-dials, re-introduces itself and
    /// re-delivers: the key arrives exactly as if nothing had happened.
    #[test]
    fn a_truncated_provision_is_recovered_by_redial_and_redelivery() {
        let mut server = bare_server();
        let me = server.subject();
        let addrs: HashMap<_, _> = [(me, server.addr().to_string())].into();

        let coordinator = std::thread::spawn(move || {
            let user = SubjectId(0);
            let (mut identities, mut rng) = fleet_identities(FLEET, 2);
            let server_key = identities.remove(1).public;
            let rsa = identities.remove(0);
            let public = rsa.public.clone();
            let hello = Frame::Hello { user, public };
            let expected = vec![rsa.public.clone(), server_key.clone()];
            let seen = Arc::default();
            let links = control_links(hello, addrs, CONNECT_TIMEOUT, expected, &seen);
            let links = Arc::new(links);
            // The first attempt on the edge is damaged, no other.
            let plan = FaultPlan::parse("seed=1,truncate=1000,max=1").expect("valid");
            let ledger = Ledger::shared(Some(plan));
            let retry = RetryPolicy::default();
            let ctl = Wire::new(user, 7, Arc::clone(&links) as _, ledger, retry);
            links.with(me, false, |_| Ok(())).expect("handshake");
            let key = ClusterKey::generate(&mut rng, 5, 256);
            let envelope = SignedEnvelope::seal(&mut rng, &key.to_bytes(), &rsa, &server_key);
            ctl.send_with_retry(me, &Frame::Provision { envelope })
                .expect("the retry recovers the truncated attempt");
            ctl.send_with_retry(me, &Frame::Shutdown)
                .expect("the re-dialed link is cached");
            let edges = ctl.ledger().edges.clone();
            edges[&(user, me)]
        });

        let wire = server.data_wire();
        let mut first = server.ctl_rx.recv().expect("first connection");
        let poisoned = server.serve_conn(&mut first, &wire);
        assert!(
            matches!(&poisoned, Err(TransportError::Recv { detail }) if detail.contains("bytes into")),
            "{poisoned:?}"
        );
        assert!(!server.party.ring.holds(5), "half a frame grants nothing");
        let mut second = server.ctl_rx.recv().expect("the re-dial");
        let shutdown = server.serve_conn(&mut second, &wire);
        assert_eq!(shutdown, Ok(true), "served through to Shutdown");
        assert!(
            server.party.ring.holds(5),
            "the re-delivery granted the key"
        );
        let edge = coordinator.join().expect("coordinator thread");
        let expected = EdgeRecovery {
            attempts: 3,
            retries: 1,
            injected: 1,
        };
        assert_eq!(edge, expected);
    }

    /// A server started with another fleet seed holds another key: the
    /// coordinator refuses it at connect, typed, where it would
    /// otherwise seal keys to it and run queries over its data. Under
    /// the fleet's own seed the same server is accepted.
    #[test]
    fn a_server_of_another_seed_is_refused_at_connect() {
        let mut server = bare_server();
        let me = server.subject();
        let servers: HashMap<_, _> = [(me, server.addr().to_string())].into();
        let fleet = std::thread::spawn(move || {
            let wire = server.data_wire();
            for _ in 0..2 {
                let mut ctl = server.ctl_rx.recv().expect("a coordinator");
                let _ = server.serve_conn(&mut ctl, &wire);
            }
        });
        let ex = RunningExample::new();
        let connect = |seed| {
            let config = SessionConfig::new(seed);
            let (cat, subjects, db) = (&ex.catalog, &ex.subjects, &Database::new());
            let user = ex.subject("U");
            Coordinator::connect(
                cat,
                subjects,
                &ex.policy,
                db,
                user,
                "127.0.0.1:0",
                &servers,
                config,
            )
        };
        let refused = connect(FLEET + 1).err();
        let expected = TransportError::ForeignKey { subject: me };
        assert_eq!(refused, Some(SimError::Transport(expected)));
        connect(FLEET).expect("the fleet's own seed").shutdown();
        fleet.join().expect("server thread");
    }

    /// A coordinator prepares the bytes a session of its seed prepares:
    /// query after query, the same grants in the same order, and every
    /// participant's `Execute` frame — the job with its encrypted
    /// literals, and the sealed request — byte for byte the session's.
    #[test]
    fn a_coordinator_prepares_the_bytes_a_session_prepares() {
        let ex = RunningExample::new();
        let mut db = Database::new();
        db.load(&ex.catalog, "Hosp", RunningExample::sample_hosp_rows());
        db.load(&ex.catalog, "Ins", RunningExample::sample_ins_rows());
        let user = ex.subject("U");
        let config = SessionConfig::new(FLEET).timeout(Duration::from_secs(3));
        let (cat, subjects, policy) = (&ex.catalog, &ex.subjects, &ex.policy);
        let (listen, none) = ("127.0.0.1:0", &HashMap::new());
        let mut coordinator = Coordinator::connect(
            cat,
            subjects,
            policy,
            &db,
            user,
            listen,
            none,
            config.clone(),
        )
        .expect("a coordinator of no servers");
        let (parties, mut dispatcher) = set_up(cat, subjects, policy, &db, &config);
        let bytes = |d: Dispatched, grants: Vec<Grant>| {
            let grants = grants.iter().map(|g| match g {
                Grant::Key(to, key) => (*to, key.to_bytes()),
                Grant::Public(to, id, public) => (
                    *to,
                    [&id.to_be_bytes()[..], &public.n.to_bytes_be()].concat(),
                ),
            });
            let grants: Vec<_> = grants.collect();
            let job = Arc::new(d.job);
            let execute = |envelope| {
                let job = Arc::clone(&job);
                encode_frame(&Frame::Execute {
                    epoch: 1,
                    job,
                    envelope,
                })
            };
            (
                grants,
                d.envelopes.into_iter().map(execute).collect::<Vec<_>>(),
            )
        };
        let ext = ex.fig7a_extended();
        let keys = mpq_core::keys::plan_keys(&ext);
        for _ in 0..2 {
            coordinator.dispatcher.reset();
            dispatcher.reset();
            let c = &mut coordinator;
            let (mut sent, mut inserted) = (Vec::new(), Vec::new());
            let federated = c
                .dispatcher
                .prepare(&ext, &keys, user, &c.party.rsa, &mut sent);
            let signer = &parties[user.index()].rsa;
            let local = dispatcher.prepare(&ext, &keys, user, signer, &mut inserted);
            let (federated, local) = (federated.expect("prepared"), local.expect("prepared"));
            assert_eq!(federated.request_bytes, local.request_bytes);
            assert_eq!(bytes(federated, sent), bytes(local, inserted));
        }
    }
}

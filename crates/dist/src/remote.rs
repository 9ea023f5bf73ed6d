//! The federated client/server deployment: one OS **process** per
//! subject.
//!
//! [`Session`](crate::Session) realizes the paper's §6 protocol with
//! one *thread* per subject inside a single process. This module
//! promotes that topology to the architecture Fig. 8 actually draws:
//! every subject is its own [`Server`] process holding **only its own
//! material** — its partition of the base relations, its RSA keypair,
//! and the cluster keys Def. 6.1 provisions to it — while a
//! [`Coordinator`] embedded in the querying user's process drives the
//! protocol over real TCP:
//!
//! 1. **hello** — the coordinator connects to every server's control
//!    port, announces the querying user and its RSA public key, and
//!    learns each server's subject id and public key
//!    (`Frame::Hello`/`Frame::HelloAck`);
//! 2. **provision** — Def. 6.1 cluster keys are generated client-side
//!    and shipped to their holders as sealed
//!    `[[key]_priU]_pubS` envelopes (`Frame::Provision`); computing
//!    non-holders receive only the public Paillier modulus
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
//! This is the **process-per-subject** scheduler, and it owns no
//! protocol logic of its own. The coordinator prepares a query with
//! the same `Dispatcher` a [`Session`](crate::Session) uses
//! (authorize → provision → seal; only the delivery of a key differs);
//! every server, and the coordinator for the user's own share, runs
//! the party core (`party.rs`) under the same blocking `drive` of
//! [`runtime`](crate::runtime) the in-process party threads use, so
//! every guarantee (envelope check, receive audit, epoch isolation,
//! typed transport aborts) carries over. The control connections are a
//! `Transport` backend under a second `Wire`: control frames retry,
//! back off and take injected faults by the data plane's own loop.

use crate::codec::Frame;
use crate::error::SimError;
use crate::fault::{FaultPlan, RetryPolicy};
use crate::party::{Party, PartyOut};
use crate::runtime::{drive, Msg, Outcome, PartyMsg};
use crate::session::{Dispatched, Dispatcher, Holders, SessionConfig};
use crate::transport::{
    Control, EdgeRecovery, FaultState, TcpHub, TcpTransport, Transport, TransportError, Wire,
    WireOp, WireStats,
};
use crate::{Report, RSA_BITS};
use mpq_algebra::{Catalog, SubjectId};
use mpq_core::authz::{Policy, SubjectView};
use mpq_core::extend::ExtendedPlan;
use mpq_core::keys::KeyPlan;
use mpq_core::subjects::Subjects;
use mpq_crypto::bignum::BigUint;
use mpq_crypto::keyring::{ClusterKey, KeyRing};
use mpq_crypto::paillier::PaillierPublic;
use mpq_crypto::rsa::{RsaKeypair, RsaPublic, SignedEnvelope};
use mpq_exec::{Database, WorkerPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long control-plane connects wait before failing typed.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

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
    /// Seed for this server's RSA keypair.
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
    /// Retry budget and backoff shape for data-plane sends.
    pub retry: RetryPolicy,
}

/// A bound subject process: one listener serving both the data plane
/// (peer connections) and the control plane (the coordinator).
pub struct Server {
    party: Party,
    peers: HashMap<SubjectId, String>,
    rx: Receiver<PartyMsg>,
    ctl_rx: Receiver<Control>,
    hub: TcpHub,
    seed: u64,
    faults: Option<FaultPlan>,
    retry: RetryPolicy,
    /// Outcome frames of recent epochs, replayed when a recovering
    /// coordinator re-delivers an `Execute` this server already ran.
    outcomes: HashMap<u64, Frame>,
}

impl Server {
    /// Bind the listener and generate this subject's keypair. The
    /// process serves coordinators until one sends
    /// `Frame::Shutdown`.
    pub fn bind(config: ServerConfig) -> Result<Server, TransportError> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let (tx, rx) = channel();
        let (ctl_tx, ctl_rx) = channel();
        let hub = TcpHub::bind(&config.listen, tx, Some(ctl_tx))?;
        Ok(Server {
            party: Party {
                me: config.me,
                catalog: Arc::new(config.catalog),
                view: config.view,
                rsa: RsaKeypair::generate(&mut rng, RSA_BITS),
                ring: KeyRing::new(),
                store: config.store,
                pool: WorkerPool::global(),
            },
            peers: config.peers,
            rx,
            ctl_rx,
            hub,
            seed: config.seed,
            faults: config.faults,
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
    /// returns the server to accepting the next one; provisioned keys
    /// and cached epoch outcomes persist across coordinator
    /// connections (they are this subject's material).
    pub fn run(mut self) -> Result<(), TransportError> {
        let wire = self.data_wire();
        let mut stash: Vec<(u64, Msg)> = Vec::new();
        loop {
            let Ok(mut ctl) = self.ctl_rx.recv() else {
                return Ok(());
            };
            match self.serve_conn(&mut ctl, &wire, &mut stash) {
                Ok(true) => return Ok(()),
                // The coordinator went away or its connection died
                // mid-conversation: either way this server keeps its
                // material and serves the next connection. A fleet
                // survives any one flaky link.
                Ok(false) | Err(_) => continue,
            }
        }
    }

    /// This server's sending data plane.
    fn data_wire(&self) -> Wire {
        let backend: Arc<dyn Transport> = Arc::new(TcpTransport::new(
            self.party.me,
            self.peers.clone(),
            CONNECT_TIMEOUT,
        ));
        Wire::new(
            self.party.me,
            self.seed,
            backend,
            Arc::new(Mutex::new(FaultState::new(self.faults.clone()))),
            self.retry,
            Arc::new(WireStats::default()),
        )
    }

    /// Serve one coordinator connection. `Ok(true)` means shutdown was
    /// requested; `Ok(false)` means the coordinator went away.
    fn serve_conn(
        &mut self,
        ctl: &mut Control,
        wire: &Wire,
        stash: &mut Vec<(u64, Msg)>,
    ) -> Result<bool, TransportError> {
        // The handshake fixes who we are talking *for*: every envelope
        // of this connection must verify against this user key.
        let mut user_public: Option<RsaPublic> = None;
        loop {
            let frame = match ctl.recv(None) {
                Ok(f) => f,
                Err(TransportError::Closed) => return Ok(false),
                Err(e) => return Err(e),
            };
            match frame {
                Frame::Hello { user: _, public } => {
                    user_public = Some(public);
                    ctl.send(&Frame::HelloAck {
                        me: self.party.me,
                        public: self.party.rsa.public.clone(),
                    })?;
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
                    let Some(pk) = user_public.clone() else {
                        ctl.send(&Frame::Failed {
                            epoch,
                            message: "Execute before Hello".to_string(),
                        })?;
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
                            .is_some_and(|env| env.open(&self.party.rsa, &pk).is_some());
                        let reply = if authorized {
                            self.outcomes[&epoch].clone()
                        } else {
                            Frame::Failed {
                                epoch,
                                message: SimError::Envelope { to: self.party.me }.to_string(),
                            }
                        };
                        ctl.send(&reply)?;
                        continue;
                    }
                    // The signed request is the licence to compute; the
                    // party core refuses the epoch without it.
                    let envelope = envelope.as_ref();
                    let outcome = drive(
                        &self.party,
                        &job,
                        envelope,
                        &pk,
                        epoch,
                        &self.rx,
                        wire,
                        stash,
                    );
                    let reply = match outcome {
                        Outcome::Done(out) => {
                            let mut transfers: Vec<(SubjectId, SubjectId, u64)> = out
                                .transfers
                                .into_iter()
                                .map(|((f, t), b)| (f, t, b as u64))
                                .collect();
                            transfers.sort_by_key(|(f, t, _)| (f.index(), t.index()));
                            Frame::Done { epoch, transfers }
                        }
                        Outcome::Failed(e) => Frame::Failed {
                            epoch,
                            message: e.to_string(),
                        },
                        Outcome::Aborted => Frame::Failed {
                            epoch,
                            message: ABORTED_MARK.to_string(),
                        },
                        Outcome::Panicked(m) => Frame::Failed {
                            epoch,
                            message: format!("party panicked: {m}"),
                        },
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

/// Marker a server reports when it stopped because a *peer* failed —
/// the coordinator prefers the actual failure over this echo.
const ABORTED_MARK: &str = "aborted: a peer failed first";

/// The coordinator's control connections, one per server, as a
/// [`Transport`] backend: the control-plane [`Wire`] on top brings the
/// fault schedule and the bounded retry loop; this brings the
/// (re-)dialing. The server keys learned in the handshake live here
/// too, since every re-dial may refresh them.
struct ControlLinks {
    /// The frame opening every control connection.
    hello: Frame,
    /// Control addresses, kept for re-dialing a lost connection.
    addrs: HashMap<SubjectId, String>,
    /// How long a `HelloAck` or an outcome may take. Grants
    /// `DONE_SLACK` past the query timeout because a mid-epoch server
    /// only answers once its current serve loop observes the dead
    /// predecessor connection.
    wait: Duration,
    state: Mutex<Links>,
}

#[derive(Default)]
struct Links {
    conns: HashMap<SubjectId, Control>,
    publics: HashMap<SubjectId, RsaPublic>,
}

impl ControlLinks {
    fn state(&self) -> std::sync::MutexGuard<'_, Links> {
        self.state.lock().expect("control-link lock poisoned")
    }

    /// The live connection to `s`, dialing its control port and redoing
    /// the hello handshake if there is none. One attempt, never a loop
    /// of its own — every caller sits inside a bounded retry budget.
    fn dial<'a>(
        &self,
        links: &'a mut Links,
        s: SubjectId,
    ) -> Result<&'a mut Control, TransportError> {
        if !links.conns.contains_key(&s) {
            let addr = self.addrs.get(&s).ok_or(TransportError::Closed)?;
            let mut ctl = Control::connect(addr, CONNECT_TIMEOUT)?;
            ctl.send(&self.hello)?;
            let detail = match ctl.recv(Some(self.wait))? {
                Frame::HelloAck { me, public } if me == s => {
                    links.publics.insert(s, public);
                    links.conns.insert(s, ctl);
                    return Ok(links.conns.get_mut(&s).expect("just dialed"));
                }
                Frame::HelloAck { me, .. } => format!("server at {addr} hosts {me}, expected {s}"),
                _ => "expected HelloAck".to_string(),
            };
            return Err(TransportError::Frame { detail });
        }
        Ok(links.conns.get_mut(&s).expect("checked above"))
    }

    /// One attempt to receive `s`'s outcome of `epoch`. A connection
    /// lost since the `Execute` went out is re-dialed and `pending`
    /// re-delivered first — the server either replays its cached
    /// outcome or runs the epoch it never received. The outer `Err` is
    /// worth another attempt (the connection died); the inner one is
    /// final: a *quiet* but healthy connection is not recoverable by
    /// reconnecting and surfaces as the typed timeout immediately.
    fn recv_outcome(
        &self,
        s: SubjectId,
        epoch: u64,
        pending: Option<&Frame>,
    ) -> Result<Result<Frame, TransportError>, TransportError> {
        let mut links = self.state();
        let redialed = !links.conns.contains_key(&s);
        let ctl = self.dial(&mut links, s)?;
        let mut alive = match pending {
            Some(frame) if redialed => ctl.send(frame),
            _ => Ok(()),
        };
        let lost = loop {
            if let Err(e) = alive {
                break e;
            }
            alive = match ctl.recv(Some(self.wait)) {
                // Residue of an earlier epoch is drained without
                // consuming recovery budget.
                Ok(Frame::Done { epoch: e, .. } | Frame::Failed { epoch: e, .. }) if e != epoch => {
                    Ok(())
                }
                Ok(f @ (Frame::Done { .. } | Frame::Failed { .. })) => return Ok(Ok(f)),
                Ok(_) => {
                    return Ok(Err(TransportError::Frame {
                        detail: "expected Done/Failed".to_string(),
                    }))
                }
                Err(e @ TransportError::Timeout { .. }) => return Ok(Err(e)),
                Err(e) => Err(e),
            };
        };
        links.conns.remove(&s);
        Err(lost)
    }
}

impl Transport for ControlLinks {
    fn attempt(&self, to: SubjectId, frame: &Frame, op: WireOp) -> Result<(), TransportError> {
        // A dropped frame vanishes in flight; the connection is fine.
        if op == WireOp::Drop {
            return Ok(());
        }
        let mut links = self.state();
        let ctl = self.dial(&mut links, to)?;
        // Truncate: the frame is damaged mid-record, nothing usable
        // arrives. Reset: it arrives, then the connection dies — the
        // ambiguous case; the receiver's idempotency (key-ring
        // inserts, the epoch outcome cache) absorbs the re-delivery.
        let sent = match op {
            WireOp::Truncate => Ok(()),
            _ => ctl.send(frame),
        };
        if sent.is_err() || op != WireOp::Deliver {
            // A dead or poisoned connection never comes back; the next
            // attempt re-dials.
            ctl.shutdown();
            links.conns.remove(&to);
        }
        sent
    }
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
    links: Arc<ControlLinks>,
    /// The control plane: a wire over `links` with its *own* fault
    /// counters and stats, so the data-plane trace stays a function of
    /// data-plane attempts alone, comparable across transport backends.
    ctl: Wire,
    wire: Wire,
    /// The Execute frame sent to each participant this epoch, kept so a
    /// reconnected control channel can re-deliver it.
    pending_execute: HashMap<SubjectId, Frame>,
    rx: Receiver<PartyMsg>,
    stash: Vec<(u64, Msg)>,
    _hub: TcpHub,
    epoch: u64,
}

/// [`Holders`] of a coordinator: the user's ring is local, every other
/// ring is behind a control connection, and a key reaches it as a
/// sealed `[[key]_priU]_pubS` envelope. Private RSA keys never cross
/// the wire in any direction.
struct Fleet<'a> {
    party: &'a Party,
    links: &'a ControlLinks,
    ctl: &'a Wire,
}

impl Holders for Fleet<'_> {
    fn signer(&self) -> &RsaKeypair {
        &self.party.rsa
    }

    fn public_of(&self, s: SubjectId) -> Option<RsaPublic> {
        if s == self.party.me {
            return Some(self.party.rsa.public.clone());
        }
        self.links.state().publics.get(&s).cloned()
    }

    fn grant(&mut self, rng: &mut StdRng, to: SubjectId, key: &ClusterKey) -> Result<(), SimError> {
        if to == self.party.me {
            self.party.ring.insert(key.clone());
            return Ok(());
        }
        let public = self.public_of(to).ok_or(SimError::Envelope { to })?;
        let envelope = SignedEnvelope::seal(rng, &key.to_bytes(), &self.party.rsa, &public);
        Ok(self
            .ctl
            .send_with_retry(to, &Frame::Provision { envelope })?)
    }

    fn grant_public(&mut self, to: SubjectId, key: &ClusterKey) -> Result<(), SimError> {
        let public = key.paillier_public();
        if to == self.party.me {
            self.party.ring.insert_public(key.id, public);
            return Ok(());
        }
        let n = public.n.to_bytes_be();
        Ok(self
            .ctl
            .send_with_retry(to, &Frame::ProvisionPublic { id: key.id, n })?)
    }
}

impl Coordinator {
    /// Connect to every server, run the hello handshake, and set up
    /// the user's own party (data-plane hub on `listen`, store holding
    /// the relations the user is the authority of).
    ///
    /// `servers` maps each remote subject to its `host:port`; the
    /// servers' own `peers` maps must point back at `listen` for the
    /// user's subject, since result tables flow peer-to-peer. `db` is
    /// the full fixture database — only the user-authority partition
    /// stays in this process.
    ///
    /// Of the [`SessionConfig`], a coordinator reads `seed`, `workers`
    /// (the user's own party), `preflight`, `timeout` (10 s when
    /// unset), `faults` (one schedule for the user's data-plane sends,
    /// a second copy with its own counters for the control plane) and
    /// `retry`. It does not read `transport`: a coordinator is TCP by
    /// definition.
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
        let mut rng = StdRng::seed_from_u64(config.seed);
        let rsa = RsaKeypair::generate(&mut rng, RSA_BITS);
        let views = policy.all_views(catalog, subjects);
        let catalog = Arc::new(catalog.clone());
        let (tx, rx) = channel();
        let hub = TcpHub::bind(listen, tx, None)?;
        let party = Party {
            me: user,
            catalog: Arc::clone(&catalog),
            view: views[user.index()].clone(),
            rsa,
            ring: KeyRing::new(),
            store: db.partition(|rel| subjects.authority(rel) == Some(user)),
            pool: config.pool(),
        };
        let timeout = config
            .effective_timeout()
            .unwrap_or(Duration::from_secs(10));
        let wire_of = |seed, backend| {
            let faults = Arc::new(Mutex::new(FaultState::new(config.faults.clone())));
            Wire::new(user, seed, backend, faults, config.retry, Arc::default())
        };
        let links = Arc::new(ControlLinks {
            hello: Frame::Hello {
                user,
                public: party.rsa.public.clone(),
            },
            addrs: servers.clone(),
            wait: timeout + DONE_SLACK,
            state: Mutex::default(),
        });
        let ctl = wire_of(config.seed ^ CTL_SALT, Arc::clone(&links) as _);
        let peers = Arc::new(TcpTransport::new(user, servers.clone(), CONNECT_TIMEOUT));
        let wire = wire_of(config.seed, peers as _);
        let mut order: Vec<SubjectId> = servers.keys().copied().collect();
        order.sort_by_key(|s| s.index());
        for s in order {
            links.dial(&mut links.state(), s)?;
        }
        Ok(Coordinator {
            dispatcher: Dispatcher::new(&catalog, subjects, views, rng, &config, Some(timeout)),
            party,
            links,
            ctl,
            wire,
            pending_execute: HashMap::new(),
            rx,
            stash: Vec::new(),
            _hub: hub,
            epoch: 0,
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
        let mut fleet = Fleet {
            party: &self.party,
            links: &self.links,
            ctl: &self.ctl,
        };
        let Dispatched {
            job,
            mut envelopes,
            request_bytes,
            requests,
        } = self.dispatcher.prepare(ext, keys, user, &mut fleet)?;
        let job = Arc::new(job);

        self.epoch += 1;
        let epoch = self.epoch;
        self.pending_execute.clear();
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
            self.pending_execute.insert(s, frame);
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
        // every server's.
        let own = drive(
            &self.party,
            &job,
            envelopes[user.index()].as_ref(),
            &self.party.rsa.public,
            epoch,
            &self.rx,
            &self.wire,
            &mut self.stash,
        );
        let mut outs = Vec::new();
        let mut failures: Vec<(SubjectId, String)> = Vec::new();
        match own {
            Outcome::Done(out) => outs.push(out),
            Outcome::Failed(e) => return Err(e),
            Outcome::Aborted => failures.push((user, ABORTED_MARK.to_string())),
            Outcome::Panicked(m) => panic!("coordinator party panicked: {m}"),
        }
        for &s in servers {
            // A control channel dead beyond the retry budget fails this
            // epoch for this participant; the remaining participants
            // are still drained so the next query starts on clean
            // channels.
            let pending = self.pending_execute.get(&s);
            let outcome = self
                .ctl
                .retry(s, || self.links.recv_outcome(s, epoch, pending));
            match outcome.and_then(|outcome| outcome) {
                Ok(Frame::Failed { message, .. }) => failures.push((s, message)),
                Ok(Frame::Done { transfers, .. }) => outs.push(PartyOut {
                    transfers: transfers
                        .into_iter()
                        .map(|(f, t, bytes)| ((f, t), bytes as usize))
                        .collect(),
                    result: None,
                }),
                Ok(_) => unreachable!("recv_outcome returns Done or Failed"),
                Err(e) => failures.push((s, e.to_string())),
            }
        }
        self.pending_execute.clear();
        // Prefer the actual failure over "a peer failed" echoes, then
        // lowest subject id, mirroring the session's deterministic
        // error precedence.
        failures.sort_by_key(|(s, m)| (m == ABORTED_MARK, s.index()));
        if let Some((from, message)) = failures.into_iter().next() {
            return Err(SimError::Transport(TransportError::Peer { from, message }));
        }
        Report::assemble(request_bytes, requests, outs)
    }

    /// Per-edge recovery counters of this coordinator's *data-plane*
    /// sends — the user's share of the peer-to-peer traffic. The
    /// counters are a pure function of the fault schedule, so the same
    /// schedule yields the same map a [`crate::Session`] reports.
    pub fn recovery_stats(&self) -> HashMap<(SubjectId, SubjectId), EdgeRecovery> {
        self.wire.stats().snapshot()
    }

    /// Total recovered deliveries so far: data-plane re-sends plus
    /// control-plane re-sends and reconnects. Non-zero means the
    /// session survived at least one injected or real fault.
    pub fn recovered_sends(&self) -> u64 {
        self.wire.stats().total_retries() + self.ctl.stats().total_retries()
    }

    /// Ask every server to exit, then drop the connections.
    pub fn shutdown(self) {
        for ctl in self.links.state().conns.values_mut() {
            let _ = ctl.send(&Frame::Shutdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_algebra::AttrSet;

    /// Provisioning frames carry peer bytes: key material no key can
    /// have is not granted, and the server keeps serving.
    #[test]
    fn malformed_provisioning_is_not_granted() {
        let me = SubjectId(1);
        let mut server = Server::bind(ServerConfig {
            me,
            listen: "127.0.0.1:0".to_string(),
            peers: HashMap::new(),
            seed: 11,
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
        .expect("bind a loopback server");
        let addr = server.addr().to_string();

        let coordinator = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(12);
            let user = RsaKeypair::generate(&mut rng, RSA_BITS);
            let mut ctl = Control::connect(&addr, CONNECT_TIMEOUT).expect("connect");
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
            let mut even_factor = good.to_bytes();
            even_factor[3] = 6;
            *even_factor.last_mut().expect("non-empty") &= !1;
            for bytes in [even_factor, good.to_bytes()] {
                let envelope = SignedEnvelope::seal(&mut rng, &bytes, &user, &public);
                ctl.send(&Frame::Provision { envelope }).expect("send");
            }
            ctl.send(&Frame::Shutdown).expect("shutdown");
        });

        let mut ctl = server.ctl_rx.recv().expect("control connection");
        let wire = server.data_wire();
        let shutdown = server
            .serve_conn(&mut ctl, &wire, &mut Vec::new())
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
}

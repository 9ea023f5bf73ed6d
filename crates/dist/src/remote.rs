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
use crate::party::{Party, PartyOut};
use crate::runtime::{drive, peer_failure, settle, Mailbox, Outcome, Run, ABORTED_MARK};
use crate::session::{Dispatched, Dispatcher, Holders, SessionConfig};
use crate::transport::{
    lock, Conn, EdgeRecovery, Ledger, Link, Links, TcpHub, TransportError, TransportKind, Wire,
    CONNECT_TIMEOUT,
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
use mpq_exec::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
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
    /// Retry budget for data-plane sends.
    pub retry: RetryPolicy,
}

/// A bound subject process: one listener serving both the data plane
/// (peer connections) and the control plane (the coordinator).
pub struct Server {
    party: Party,
    peers: HashMap<SubjectId, String>,
    mailbox: Mailbox,
    ctl_rx: Receiver<Conn>,
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
        let (tx, mailbox) = Mailbox::new();
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
            },
            peers: config.peers,
            mailbox,
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
        loop {
            let Ok(mut ctl) = self.ctl_rx.recv() else {
                return Ok(());
            };
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

    /// This server's sending data plane.
    fn data_wire(&self) -> Wire {
        let me = self.party.me;
        let links = Arc::new(Links::tcp(me, self.peers.clone()));
        let ledger = Ledger::shared(self.faults.clone());
        Wire::new(me, self.seed, links, ledger, self.retry)
    }

    /// Serve one coordinator connection. `Ok(true)` means shutdown was
    /// requested; `Ok(false)` means the coordinator went away.
    fn serve_conn(&mut self, ctl: &mut Conn, wire: &Wire) -> Result<bool, TransportError> {
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
                    let Some(user_public) = user_public.clone() else {
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
                            .is_some_and(|env| env.open(&self.party.rsa, &user_public).is_some());
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

/// The coordinator's control plane: a [`Links`] cache whose
/// introduction step is the hello handshake — dial `s`'s control port,
/// announce the user with `hello`, wait up to `wait` for the
/// `HelloAck`, and record the server key it carries in `publics`
/// (every re-dial may refresh it).
fn control_links(
    hello: Frame,
    addrs: HashMap<SubjectId, String>,
    wait: Duration,
    publics: Arc<Mutex<HashMap<SubjectId, RsaPublic>>>,
) -> Links<Conn> {
    Links::new(move |s| {
        let addr = addrs.get(&s).ok_or(TransportError::Closed)?;
        let mut ctl = Conn::connect(addr, s, CONNECT_TIMEOUT)?;
        ctl.send(&hello)?;
        let detail = match ctl.recv(Some(wait))? {
            Frame::HelloAck { me, public } if me == s => {
                lock(&publics).insert(s, public);
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
    /// The server keys learned in the hello handshakes.
    publics: Arc<Mutex<HashMap<SubjectId, RsaPublic>>>,
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
    epoch: u64,
}

/// [`Holders`] of a coordinator: the user's ring is local, every other
/// ring is behind a control connection, and a key reaches it as a
/// sealed `[[key]_priU]_pubS` envelope. Private RSA keys never cross
/// the wire in any direction.
struct Fleet<'a> {
    party: &'a Party,
    publics: &'a Mutex<HashMap<SubjectId, RsaPublic>>,
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
        lock(self.publics).get(&s).cloned()
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
        let mut rng = StdRng::seed_from_u64(config.seed);
        let rsa = RsaKeypair::generate(&mut rng, RSA_BITS);
        let views = policy.all_views(catalog, subjects);
        let catalog = Arc::new(catalog.clone());
        let (tx, mailbox) = Mailbox::new();
        let hub = TcpHub::bind(listen, tx, None)?;
        let party = Party {
            me: user,
            catalog: Arc::clone(&catalog),
            view: views[user.index()].clone(),
            rsa,
            ring: KeyRing::new(),
            store: db.partition(|rel| subjects.authority(rel) == Some(user)),
        };
        let config = config.transport(TransportKind::Tcp);
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
        let publics = Arc::default();
        let links = control_links(hello, servers.clone(), wait, Arc::clone(&publics));
        let links = Arc::new(links);
        let ctl = wire_of(config.seed ^ CTL_SALT, Arc::clone(&links) as _);
        let peers = Links::tcp(user, servers.clone());
        let wire = wire_of(config.seed, Arc::new(peers) as _);
        let mut order: Vec<SubjectId> = servers.keys().copied().collect();
        order.sort_by_key(|s| s.index());
        for s in order {
            links.with(s, false, |_| Ok(()))?;
        }
        Ok(Coordinator {
            dispatcher: Dispatcher::new(&catalog, subjects, views, rng, &config),
            party,
            links,
            publics,
            wait,
            ctl,
            wire,
            mailbox,
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
            publics: &self.publics,
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
        // every server's.
        let run = Run {
            epoch,
            job: Arc::clone(&job),
            envelope: envelopes[user.index()].take(),
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
    use mpq_algebra::AttrSet;

    /// A server for subject 1 with nothing to its name, on loopback.
    fn bare_server() -> Server {
        let me = SubjectId(1);
        Server::bind(ServerConfig {
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
            let mut rng = StdRng::seed_from_u64(12);
            let user = RsaKeypair::generate(&mut rng, RSA_BITS);
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
            let mut rng = StdRng::seed_from_u64(12);
            let rsa = RsaKeypair::generate(&mut rng, RSA_BITS);
            let public = rsa.public.clone();
            let publics = Arc::default();
            let hello = Frame::Hello { user, public };
            let links = control_links(hello, addrs, CONNECT_TIMEOUT, Arc::clone(&publics));
            let links = Arc::new(links);
            // The first attempt on the edge is damaged, no other.
            let plan = FaultPlan::parse("seed=1,truncate=1000,max=1").expect("valid");
            let ledger = Ledger::shared(Some(plan));
            let retry = RetryPolicy::default();
            let ctl = Wire::new(user, 7, Arc::clone(&links) as _, ledger, retry);
            links.with(me, false, |_| Ok(())).expect("handshake");
            let server_key = lock(&publics)[&me].clone();
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
}

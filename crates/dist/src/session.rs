//! Persistent multi-query sessions: amortize trust establishment
//! across queries.
//!
//! Run as a standalone query, the §6 protocol provisions fresh
//! Def. 6.1 cluster keys and ships the Paillier public halves every
//! time; once the crypto hot path is cheap, those *per-query fixed
//! costs* dominate short queries. A production multi-provider
//! deployment — like SMCQL's federated honest-broker sessions — holds
//! long-lived connections to each provider and runs many queries per
//! trust establishment; a [`Session`] is that model:
//!
//! * **parties, wires and mailboxes are set up once**, at
//!   [`Session::open`]: one driver, [`Session::execute`], walks the
//!   Fig. 8 regions producers first on the calling thread, and every
//!   table crossing a subject edge still travels through its
//!   producer's `Wire` into its consumer's long-lived `Mailbox`
//!   ([`runtime`](crate::runtime)) — in-proc or over loopback TCP;
//! * **key provisioning is incremental** — generated [`ClusterKey`]
//!   material is cached per [`ClusterSig`] (cluster attribute set +
//!   holder set), so a repeated query re-uses already-provisioned keys
//!   and already-delivered Paillier public halves, and only *new*
//!   clusters are generated and shipped;
//! * **authorization stays per-query** — every [`Session::execute`]
//!   re-checks Def. 4.1 for every node and re-seals the signed request
//!   envelopes (`[[q_S, keys]_priU]_pubS`); only trust, transport and
//!   key material amortize;
//! * **errors abort the query, not the session** — what a failed
//!   query left in a mailbox is residue of its epoch, which the next
//!   query drops (see [`runtime`](crate::runtime)), and the session
//!   keeps serving;
//! * [`Session::revoke_key`] models policy change: it drops the key
//!   from every ring *and* invalidates the cache entry, so the next
//!   query that needs the cluster provisions fresh material;
//! * [`Session::reset_provisioning`] forgets everything provisioned:
//!   called before a query, it makes that query the standalone,
//!   protocol-faithful one (what the paper-fidelity tests drive).
//!
//! The per-query preparation — authorize, provision, seal — is the
//! crate-private `Dispatcher`, shared with the federated
//! [`Coordinator`](crate::Coordinator): the two differ only in how a
//! key reaches its holder (a ring insert here, a sealed
//! `Frame::Provision` there).

use crate::error::SimError;
use crate::fault::{FaultPlan, RetryPolicy};
use crate::party::{Party, PartyRun, QueryJob};
use crate::runtime::{Mailbox, Msg};
use crate::transport::{
    lock, EdgeRecovery, Ledger, Links, TcpHub, Transport, TransportError, TransportKind, Wire,
};
use crate::{Report, PAILLIER_BITS, RSA_BITS};
use mpq_algebra::{AttrId, Catalog, Operator, RelId, SubjectId};
use mpq_core::authz::{Policy, SubjectView};
use mpq_core::dispatch::dispatch;
use mpq_core::extend::ExtendedPlan;
use mpq_core::keys::{ClusterSig, KeyPlan};
use mpq_core::subjects::Subjects;
use mpq_crypto::keyring::{ClusterKey, KeyRing};
use mpq_crypto::rsa::{RsaKeypair, RsaPublic, SignedEnvelope};
use mpq_exec::{assign_schemes, rewrite_literals, Database};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Every runtime knob of a [`Session`] (and of a
/// [`Coordinator`](crate::Coordinator)) in one builder: seed, static
/// pre-flight, transport, receive timeout, fault schedule and retry
/// budget.
///
/// # Example
///
/// ```
/// use mpq_dist::{SessionConfig, TransportKind};
///
/// let config = SessionConfig::new(7)
///     .transport(TransportKind::Tcp)
///     .timeout(std::time::Duration::from_secs(3));
/// assert_eq!(config.seed, 7);
/// ```
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Master seed: RSA keypairs, cluster-key material, envelope
    /// session keys, and the derived execution seed all flow from it.
    pub seed: u64,
    /// Run the static verifier (`mpq_core::verify`) before spending
    /// crypto work on a query (on by default).
    pub preflight: bool,
    /// How data-plane messages travel between parties.
    pub transport: TransportKind,
    /// How long a party waits for an expected data message before
    /// aborting with a typed [`TransportError`].
    /// `None` defers to the transport default: wait forever in-proc
    /// (a table sent is already in its consumer's mailbox), 10 s over
    /// TCP (a dead peer must abort the query, not hang it). A set
    /// timeout is at least 1 ms.
    pub timeout: Option<Duration>,
    /// Deterministic transport-fault schedule (chaos testing). `None`:
    /// no injection.
    pub faults: Option<FaultPlan>,
    /// Bounded per-message retry with seeded backoff, applied to every
    /// data-plane send (real failures and injected ones alike).
    pub retry: RetryPolicy,
}

impl SessionConfig {
    /// Defaults: in-proc transport, pre-flight on, transport-default
    /// timeout.
    pub fn new(seed: u64) -> SessionConfig {
        SessionConfig {
            seed,
            preflight: true,
            transport: TransportKind::InProc,
            timeout: None,
            faults: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Disable the static pre-flight verifier, leaving only the dynamic
    /// defenses.
    pub fn without_preflight(mut self) -> SessionConfig {
        self.preflight = false;
        self
    }

    /// Select the data-plane transport.
    pub fn transport(mut self, transport: TransportKind) -> SessionConfig {
        self.transport = transport;
        self
    }

    /// Bound the wait for any expected data message.
    pub fn timeout(mut self, timeout: Duration) -> SessionConfig {
        self.timeout = Some(timeout);
        self
    }

    /// Inject transport faults per the given deterministic schedule.
    pub fn faults(mut self, plan: FaultPlan) -> SessionConfig {
        self.faults = Some(plan);
        self
    }

    /// Override the per-message retry budget.
    pub fn retry(mut self, retry: RetryPolicy) -> SessionConfig {
        self.retry = retry;
        self
    }

    /// The effective receive timeout: the explicit setting, or the
    /// transport default (`None` in-proc, 10 s over TCP).
    pub fn effective_timeout(&self) -> Option<Duration> {
        self.timeout.or(match self.transport {
            TransportKind::InProc => None,
            TransportKind::Tcp => Some(Duration::from_secs(10)),
        })
    }
}

/// One cached Def. 6.1 cluster: the generated material (already in the
/// holders' rings) and the subjects that already received the Paillier
/// public half.
struct CachedCluster {
    material: ClusterKey,
    /// Subject indices holding at least the public (aggregation) half —
    /// holders included, since a full key implies the public half.
    publics: HashSet<usize>,
}

/// Amortization counters of one [`Session`] — how much Def. 6.1 work
/// the cluster-key cache saved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries executed, failures included.
    pub queries: usize,
    /// Clusters generated, sealed, and shipped to their holders.
    pub clusters_provisioned: usize,
    /// Cluster cache hits: queries needed the key, the session already
    /// held it.
    pub clusters_reused: usize,
    /// Paillier public halves delivered to computing non-holders
    /// (deliveries, not re-sends: a subject that already has the half
    /// is never re-shipped it).
    pub publics_delivered: usize,
}

/// Who holds the keys, as the [`Dispatcher`] sees them: the one thing
/// in which a [`Session`] (every ring in this process) and a
/// [`Coordinator`](crate::Coordinator) (rings behind control
/// connections) differ while preparing a query.
pub(crate) trait Holders {
    /// The querying user's keypair: signs every envelope.
    fn signer(&self) -> &RsaKeypair;
    /// The key envelopes for `s` are sealed to.
    fn public_of(&self, s: SubjectId) -> Option<RsaPublic>;
    /// Hand the full cluster key to a Def. 6.1 holder.
    fn grant(&mut self, rng: &mut StdRng, to: SubjectId, key: &ClusterKey) -> Result<(), SimError>;
    /// Hand the public Paillier half to a computing non-holder: enough
    /// to aggregate, never to decrypt.
    fn grant_public(&mut self, to: SubjectId, key: &ClusterKey) -> Result<(), SimError>;
}

/// A prepared query: the job every participant runs, each recipient's
/// sealed request (by subject index), and the dispatch share of the
/// report.
pub(crate) struct Dispatched {
    pub(crate) job: QueryJob,
    pub(crate) envelopes: Vec<Option<SignedEnvelope>>,
    /// Envelope bytes per user → subject edge.
    pub(crate) request_bytes: HashMap<(SubjectId, SubjectId), usize>,
    /// Number of dispatched sub-query requests (before batching).
    pub(crate) requests: usize,
}

/// The querying user's side of §6, per query: runtime authorization
/// re-check (Def. 4.1 per node), *incremental* Def. 6.1 key
/// provisioning through the cluster cache, scheme assignment,
/// encrypted-literal rewriting, and sealing of the signed request
/// envelopes (batched per subject-pair edge).
pub(crate) struct Dispatcher {
    catalog: Arc<Catalog>,
    subjects: Arc<Subjects>,
    /// Per-subject overall views, fixed for the session's lifetime
    /// (the policy itself is immutable; key *revocation* is modeled by
    /// [`Session::revoke_key`]).
    views: Vec<SubjectView>,
    rng: StdRng,
    /// Derived once from the constructor seed; see
    /// [`QueryJob::exec_seed`].
    exec_seed: u64,
    /// The cluster-key cache: Def. 6.1 material by cluster signature.
    cache: HashMap<ClusterSig, CachedCluster>,
    /// Next session-wide cluster-key id. Plan-local key ids (positions
    /// in a `KeyPlan`) are remapped onto these so material cached from
    /// one query is addressable from every later one.
    next_key_id: u32,
    stats: SessionStats,
    /// Run the static verifier (`mpq_core::verify`) before spending any
    /// crypto work on a query. On by default; the runtime-enforcement
    /// tests opt out to exercise the dynamic checks the verifier
    /// subsumes.
    preflight: bool,
    timeout: Option<Duration>,
}

impl Dispatcher {
    /// `rng` arrives having drawn the RSA identities, so everything
    /// drawn here continues one seeded stream.
    pub(crate) fn new(
        catalog: &Arc<Catalog>,
        subjects: &Subjects,
        views: Vec<SubjectView>,
        rng: StdRng,
        config: &SessionConfig,
    ) -> Dispatcher {
        Dispatcher {
            catalog: Arc::clone(catalog),
            subjects: Arc::new(subjects.clone()),
            views,
            rng,
            exec_seed: config.seed ^ 0x6d70_715f_6578_6563, // "mpq_exec"
            cache: HashMap::new(),
            next_key_id: 0,
            stats: SessionStats::default(),
            preflight: config.preflight,
            timeout: config.effective_timeout(),
        }
    }

    /// Def. 4.1 for every node, then the static pre-flight. Returns
    /// which subjects compute (every assignee plus the user).
    /// Authorization never amortizes: the signed request is a
    /// per-query grant, so every query re-verifies every node.
    fn authorize(
        &self,
        ext: &ExtendedPlan,
        keys: &KeyPlan,
        user: SubjectId,
    ) -> Result<Vec<bool>, SimError> {
        let mut computing = vec![false; self.views.len()];
        computing[user.index()] = true;
        for id in ext.plan.postorder() {
            let node = ext.plan.node(id);
            let subject = *ext.assignment.get(&id).ok_or(SimError::Unassigned(id))?;
            computing[subject.index()] = true;
            if let Operator::Base { rel, .. } = &node.op {
                // Base relations never leave their authority: the
                // leaf's executor must be the storing authority, which
                // sees its own relation by construction.
                let authority = self
                    .subjects
                    .authority(*rel)
                    .ok_or(SimError::NoAuthority(*rel))?;
                if subject != authority {
                    return Err(SimError::NotTheAuthority {
                        node: id,
                        subject,
                        authority,
                    });
                }
                continue;
            }
            let view = &self.views[subject.index()];
            for relation in node.children.iter().chain([&id]) {
                view.check(&ext.profiles[relation.index()])
                    .map_err(|violation| SimError::Unauthorized {
                        node: id,
                        subject,
                        violation,
                    })?;
            }
        }
        // The full multi-pass verifier, after the per-node checks above
        // (preserving their error precedence) and before any key
        // material is generated: a plan that would leak on some edge,
        // miss a Def. 6.1 key, or hit a scheme conflict is refused
        // without spending a single modexp.
        if self.preflight {
            let report = mpq_core::verify::verify_extended(
                ext,
                keys,
                &self.catalog,
                &self.subjects,
                &self.views,
                Some(user),
            );
            if !report.is_clean() {
                return Err(SimError::Verify(report));
            }
        }
        Ok(computing)
    }

    /// Authorize, provision, seal. Consumes the RNG in a fixed order —
    /// per new cluster: the key, then whatever `holders` draws to ship
    /// it; then literal rewriting; then one envelope per recipient,
    /// ascending — so a seed fixes every ciphertext and every byte.
    pub(crate) fn prepare(
        &mut self,
        ext: &ExtendedPlan,
        keys: &KeyPlan,
        user: SubjectId,
        holders: &mut dyn Holders,
    ) -> Result<Dispatched, SimError> {
        self.stats.queries += 1;
        let computing = self.authorize(ext, keys, user)?;

        // ---- incremental key provisioning (Def. 6.1) -----------------
        let mut key_of_attr: HashMap<AttrId, u32> = HashMap::new();
        // Predicates over encrypted attributes need encrypted literals.
        // Conceptually the key-holding authorities rewrite their
        // conditions while preparing the sub-queries (§6); this ring
        // stands in for them at dispatch time.
        let dispatcher_ring = KeyRing::new();
        for plan_key in &keys.keys {
            let cached = match self.cache.entry(plan_key.cluster_sig()) {
                Entry::Occupied(slot) => {
                    self.stats.clusters_reused += 1;
                    slot.into_mut()
                }
                // A cluster this session has never provisioned: generate
                // under a fresh session-wide id and ship the full key to
                // every Def. 6.1 holder.
                Entry::Vacant(slot) => {
                    let id = self.next_key_id;
                    self.next_key_id += 1;
                    let material = ClusterKey::generate(&mut self.rng, id, PAILLIER_BITS);
                    for &holder in &plan_key.holders {
                        holders.grant(&mut self.rng, holder, &material)?;
                    }
                    let publics = plan_key.holders.iter().map(|s| s.index()).collect();
                    self.stats.clusters_provisioned += 1;
                    slot.insert(CachedCluster { material, publics })
                }
            };
            for a in plan_key.attrs.iter() {
                key_of_attr.insert(a, cached.material.id);
            }
            // Public Paillier halves for every computing non-holder not
            // yet served.
            for i in (0..computing.len()).filter(|&i| computing[i]) {
                if !cached.publics.contains(&i) {
                    holders.grant_public(SubjectId::from_index(i), &cached.material)?;
                    cached.publics.insert(i);
                    self.stats.publics_delivered += 1;
                }
            }
            if !plan_key.holders.is_empty() {
                dispatcher_ring.insert(cached.material.clone());
            }
        }

        // ---- dispatch: signed, encrypted sub-query requests ----------
        let schemes = assign_schemes(&ext.plan).map_err(|e| SimError::Scheme(e.to_string()))?;
        let exec_plan = rewrite_literals(
            &ext.plan,
            &self.catalog,
            &schemes,
            &key_of_attr,
            &dispatcher_ring,
            &mut self.rng,
        )
        .map_err(SimError::Rewrite)?;

        // Batch the request payloads per user → subject edge: one
        // envelope (one signature, one session key) per recipient,
        // regardless of how many sub-query regions it executes.
        let d = dispatch(ext, keys, &self.catalog, &self.subjects);
        let mut batches: Vec<Vec<u8>> = vec![Vec::new(); self.views.len()];
        for req in &d.requests {
            let batch = &mut batches[req.subject.index()];
            if !batch.is_empty() {
                batch.extend_from_slice(b"\n===\n");
            }
            batch.extend_from_slice(req.sql.as_bytes());
            for key_id in &req.keys {
                batch.extend_from_slice(format!("\nkey:{key_id}").as_bytes());
            }
        }
        let mut request_bytes: HashMap<(SubjectId, SubjectId), usize> = HashMap::new();
        let mut envelopes: Vec<Option<SignedEnvelope>> = vec![None; batches.len()];
        for (i, payload) in batches.iter().enumerate().filter(|(_, p)| !p.is_empty()) {
            let to = SubjectId::from_index(i);
            let public = holders.public_of(to).ok_or(SimError::Envelope { to })?;
            let envelope = SignedEnvelope::seal(&mut self.rng, payload, holders.signer(), &public);
            if to != user {
                *request_bytes.entry((user, to)).or_default() +=
                    envelope.wrapped_key.len() + envelope.body.len() + envelope.signature.len();
            }
            envelopes[i] = Some(envelope);
        }

        let job = QueryJob::new(
            exec_plan,
            schemes,
            key_of_attr,
            ext.assignment.clone(),
            user,
            self.exec_seed,
            // A set timeout is at least 1 ms: 0 means "wait forever".
            self.timeout.map_or(0, |d| d.as_millis().max(1) as u64),
        )?;
        Ok(Dispatched {
            job,
            envelopes,
            request_bytes,
            requests: d.requests.len(),
        })
    }

    /// Forget every provisioned cluster and restart key ids at 0: the
    /// next query provisions from scratch. Returns the forgotten ids,
    /// for the caller to drop from the rings it can reach.
    pub(crate) fn reset(&mut self) -> Vec<u32> {
        self.next_key_id = 0;
        self.cache.drain().map(|(_, c)| c.material.id).collect()
    }
}

/// The wire-free part of opening a session: one party per registered
/// subject (RSA identities drawn from the seed in subject order) and
/// the dispatcher that continues the same seeded stream.
pub(crate) fn set_up(
    catalog: &Catalog,
    subjects: &Subjects,
    policy: &Policy,
    db: &Database,
    config: &SessionConfig,
) -> (Vec<Party>, Dispatcher) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let views = policy.all_views(catalog, subjects);
    let catalog = Arc::new(catalog.clone());
    let parties = subjects
        .iter()
        .map(|me| Party {
            me,
            catalog: Arc::clone(&catalog),
            view: views[me.index()].clone(),
            rsa: RsaKeypair::generate(&mut rng, RSA_BITS),
            ring: KeyRing::new(),
            store: db.partition(|rel| subjects.authority(rel) == Some(me)),
        })
        .collect();
    let dispatcher = Dispatcher::new(&catalog, subjects, views, rng, config);
    (parties, dispatcher)
}

/// A persistent multi-query execution context over one set of parties.
///
/// See the [module docs](self) for what amortizes across queries and
/// what is re-checked per query.
///
/// # Example
///
/// ```
/// use mpq_core::fixtures::RunningExample;
/// use mpq_core::keys::plan_keys;
/// use mpq_dist::Session;
/// use mpq_exec::Database;
///
/// let ex = RunningExample::new();
/// let mut db = Database::new();
/// db.load(&ex.catalog, "Hosp", RunningExample::sample_hosp_rows());
/// db.load(&ex.catalog, "Ins", RunningExample::sample_ins_rows());
/// let ext = ex.fig7a_extended();
/// let keys = plan_keys(&ext);
///
/// let mut session = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, 7);
/// let first = session.execute(&ext, &keys, ex.subject("U")).unwrap();
/// let second = session.execute(&ext, &keys, ex.subject("U")).unwrap();
/// assert_eq!(first.result.to_rows(), second.result.to_rows());
/// // The second query re-used every cluster the first one provisioned.
/// assert_eq!(session.stats().clusters_provisioned, keys.keys.len());
/// assert_eq!(session.stats().clusters_reused, keys.keys.len());
/// ```
pub struct Session {
    dispatcher: Dispatcher,
    /// One party per registered subject.
    parties: Vec<Party>,
    /// Each party's inbox, by subject index.
    mailboxes: Vec<Mailbox>,
    /// The last query epoch.
    epoch: u64,
    /// The one ledger every party's wire counts into: the fault plan
    /// (swapped by [`Session::set_faults`]) and each edge's recovery.
    ledger: Arc<Mutex<Ledger>>,
    /// Each party's sending half, by subject index. Declared before
    /// `_hubs` so the wires' connections close first: every in-flight
    /// frame either lands or sees a clean EOF before its hub is joined.
    wires: Vec<Wire>,
    /// With [`TransportKind::Tcp`], one loopback listener per party,
    /// feeding its mailbox.
    _hubs: Vec<TcpHub>,
}

/// [`Holders`] of a session: every ring is in this process, and a key
/// reaches its holder by being inserted.
pub(crate) struct Rings<'a> {
    pub(crate) parties: &'a [Party],
    pub(crate) user: SubjectId,
}

impl Holders for Rings<'_> {
    fn signer(&self) -> &RsaKeypair {
        &self.parties[self.user.index()].rsa
    }

    fn public_of(&self, s: SubjectId) -> Option<RsaPublic> {
        Some(self.parties.get(s.index())?.rsa.public.clone())
    }

    fn grant(&mut self, _: &mut StdRng, to: SubjectId, key: &ClusterKey) -> Result<(), SimError> {
        self.parties[to.index()].ring.insert(key.clone());
        Ok(())
    }

    fn grant_public(&mut self, to: SubjectId, key: &ClusterKey) -> Result<(), SimError> {
        self.parties[to.index()]
            .ring
            .insert_public(key.id, key.paillier_public());
        Ok(())
    }
}

impl Session {
    /// Open a session: set up one party per registered subject (RSA
    /// envelope keypair, empty key ring, the base relations it is the
    /// data authority of), its mailbox and its wire.
    ///
    /// A relation without a declared authority is held by nobody —
    /// executing a plan over it fails at that leaf.
    ///
    /// Convenience shim over [`Session::open_with`] with the default
    /// [`SessionConfig`] (in-proc transport, pre-flight on).
    pub fn open(
        catalog: &Catalog,
        subjects: &Subjects,
        policy: &Policy,
        db: &Database,
        seed: u64,
    ) -> Session {
        Session::open_with(catalog, subjects, policy, db, SessionConfig::new(seed))
    }

    /// Open a session with an explicit [`SessionConfig`] — the one
    /// place all runtime knobs live. With
    /// [`TransportKind::Tcp`] the parties exchange data-plane messages
    /// as length-prefixed frames over loopback sockets instead of
    /// in-process channels (identical results and byte accounting; the
    /// differential tests compare the two).
    pub fn open_with(
        catalog: &Catalog,
        subjects: &Subjects,
        policy: &Policy,
        db: &Database,
        config: SessionConfig,
    ) -> Session {
        let (parties, dispatcher) = set_up(catalog, subjects, policy, db, &config);
        let ledger = Ledger::shared(config.faults.clone());
        let (txs, mailboxes): (Vec<_>, Vec<_>) = parties.iter().map(|_| Mailbox::new()).unzip();
        // One link cache per party. In-proc: clones of everyone's
        // mailbox sender. TCP: every party binds a loopback hub feeding
        // its own mailbox, and links dial the peers' hubs. All wires
        // share one ledger, so a session-level schedule swap reaches
        // every party.
        let mut hubs = Vec::new();
        let mut peers = HashMap::new();
        if config.transport == TransportKind::Tcp {
            for (party, tx) in parties.iter().zip(&txs) {
                // `Session::open` cannot fail by signature, and a host
                // without a free loopback port cannot run this session.
                let hub = TcpHub::bind("127.0.0.1:0", tx.clone(), None)
                    .expect("bind a loopback listener for the TCP transport");
                peers.insert(party.me, hub.addr().to_string());
                hubs.push(hub);
            }
        }
        let wires = parties
            .iter()
            .map(|party| {
                let links: Arc<dyn Transport> = match config.transport {
                    TransportKind::InProc => Arc::new(Links::in_proc(txs.clone())),
                    TransportKind::Tcp => Arc::new(Links::tcp(party.me, peers.clone())),
                };
                let ledger = Arc::clone(&ledger);
                Wire::new(party.me, config.seed, links, ledger, config.retry)
            })
            .collect();
        Session {
            dispatcher,
            parties,
            mailboxes,
            epoch: 0,
            ledger,
            wires,
            _hubs: hubs,
        }
    }

    /// Run one query over the session's persistent parties, on behalf
    /// of `user`, with the Def. 6.1 key establishment `keys`.
    ///
    /// The one session driver: every participant's request envelope
    /// opens and verifies first, then the Fig. 8 regions run producers
    /// first on the calling thread. Before a region runs, its subject
    /// takes what its mailbox holds for this query until the region's
    /// operands are all there; the region's root then leaves through
    /// the subject's wire — in-proc or TCP, under the session's fault
    /// schedule and retry budget — and the user finally takes the
    /// result from its own mailbox. The first region to fail decides
    /// the error; what it left in mailboxes is residue of its epoch,
    /// which the next query drops (see [`runtime`](crate::runtime)).
    ///
    /// An `Err` aborts this query only; the session remains usable.
    pub fn execute(
        &mut self,
        ext: &ExtendedPlan,
        keys: &KeyPlan,
        user: SubjectId,
    ) -> Result<Report, SimError> {
        let parties = &self.parties;
        let d = (self.dispatcher).prepare(ext, keys, user, &mut Rings { parties, user })?;
        self.epoch += 1;
        let (epoch, job, timeout) = (self.epoch, &d.job, d.job.timeout());
        let user_public = &parties[user.index()].rsa.public;
        let mut runs: Vec<Option<PartyRun>> = parties.iter().map(|_| None).collect();
        for &s in &job.participants {
            let envelope = d.envelopes[s.index()].as_ref();
            let run = PartyRun::new(&parties[s.index()], job, envelope, user_public)?;
            runs[s.index()] = Some(run);
        }
        // Each region's subject in turn, then the user for the result.
        let stops = job.regions.iter().map(|r| (r.subject, Some(r.root)));
        for (s, root) in stops.chain([(user, None)]) {
            // `QueryJob::new` lists every assignee and the user among
            // `participants`.
            let run = runs[s.index()].as_mut().expect("every stop participates");
            // Take this query's tables until the region can run — or,
            // at the user, until the result is in.
            let wanted = |run: &PartyRun| root.map_or(run.is_done(), |r| run.ready() == Some(r));
            while !wanted(run) {
                match self.mailboxes[s.index()].next(epoch, timeout)? {
                    Some(transfer) => run.deliver(transfer)?,
                    None => return Err(TransportError::Closed.into()),
                }
            }
            let Some(root) = root else { break };
            if let Some((to, transfer)) = run.step(root)? {
                self.wires[s.index()].send(to, epoch, Msg::Table(transfer))?;
            }
        }
        let outs = runs.into_iter().flatten().map(PartyRun::finish);
        Report::assemble(d.request_bytes, d.requests, outs)
    }

    /// [`Session::execute`], under the name the frozen benchmark calls.
    #[doc(hidden)]
    pub fn execute_sequential(
        &mut self,
        ext: &ExtendedPlan,
        keys: &KeyPlan,
        user: SubjectId,
    ) -> Result<Report, SimError> {
        self.execute(ext, keys, user)
    }

    /// Amortization counters: clusters provisioned vs re-used, public
    /// halves delivered, queries served.
    pub fn stats(&self) -> SessionStats {
        self.dispatcher.stats
    }

    /// Swap the transport fault schedule for the session's *next*
    /// queries (chaos tests sweep many schedules over one long-lived
    /// session, amortizing party setup). Clears the session's one
    /// per-edge ledger: each schedule starts from attempt 0 on every
    /// edge, and [`Session::recovery_stats`] reads as "since the last
    /// schedule swap".
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        lock(&self.ledger).set_plan(plan);
    }

    /// A snapshot of the session's ledger: per edge, the
    /// delivery/retry/injection counts since the session opened or the
    /// last [`Session::set_faults`]. A
    /// successful query with a nonzero retry count is a *recovered*
    /// run — the chaos soak counts these; the retry-determinism
    /// proptest asserts they are identical across transport backends.
    pub fn recovery_stats(&self) -> HashMap<(SubjectId, SubjectId), EdgeRecovery> {
        lock(&self.ledger).edges.clone()
    }

    /// Number of cluster keys currently cached (provisioned and not
    /// revoked).
    pub fn cached_clusters(&self) -> usize {
        self.dispatcher.cache.len()
    }

    /// Forget every provisioned cluster (the material is also dropped
    /// from the holders' rings) without touching the parties' wires.
    /// The next query provisions from scratch, with session-wide key
    /// ids restarting at 0: calling this before every query makes each
    /// one an independent, protocol-faithful one-query session — fresh
    /// Def. 6.1 keys, every Paillier public half re-shipped.
    pub fn reset_provisioning(&mut self) {
        for id in self.dispatcher.reset() {
            for party in &self.parties {
                party.ring.revoke(id);
            }
        }
    }

    /// Revoke the full cluster key `id` from every party, keeping only
    /// the public aggregation halves, and invalidate the session's
    /// cache entry for its cluster: the next query needing that cluster
    /// re-provisions *fresh* material under a new id (a revoked key
    /// must never come back from a cache).
    pub fn revoke_key(&mut self, id: u32) {
        for party in &self.parties {
            party.ring.revoke(id);
        }
        self.dispatcher.cache.retain(|_, c| c.material.id != id);
    }

    /// `true` if `s` currently holds the full cluster key `id`.
    pub fn holds_key(&self, s: SubjectId, id: u32) -> bool {
        self.parties[s.index()].ring.holds(id)
    }

    /// Which base relations a subject stores (the authority
    /// partitioning computed by [`Session::open`]).
    pub fn stored_relations(&self, s: SubjectId) -> Vec<RelId> {
        let party = &self.parties[s.index()];
        let relations = party.catalog.relations().iter().map(|r| r.rel);
        relations
            .filter(|&r| party.store.table(r).is_some())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_core::fixtures::RunningExample;
    use mpq_core::keys::plan_keys;

    /// A job reads a zero timeout as "wait forever", so a set timeout
    /// shorter than a millisecond must not round down to it.
    #[test]
    fn a_sub_millisecond_timeout_waits_one_millisecond_not_forever() {
        let ex = RunningExample::new();
        let config = SessionConfig::new(5).timeout(Duration::from_micros(500));
        let db = Database::new();
        let (parties, mut dispatcher) = set_up(&ex.catalog, &ex.subjects, &ex.policy, &db, &config);
        let (ext, user) = (ex.fig7a_extended(), ex.subject("U"));
        let mut rings = Rings {
            parties: &parties,
            user,
        };
        let d = dispatcher
            .prepare(&ext, &plan_keys(&ext), user, &mut rings)
            .expect("Fig. 7(a) is authorized");
        assert_eq!(d.job.timeout(), Some(Duration::from_millis(1)));
    }
}

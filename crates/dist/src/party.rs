//! The party core: the §6 execution rule, stated once.
//!
//! The signed sub-query is the unit of execution. Fig. 8 cuts the
//! extended plan into *regions* — maximal connected groups of nodes
//! with one assignee ([`mpq_core::dispatch::regions`], the same cut the
//! signed requests are rendered from) — and a region runs at its
//! subject, as one pipeline, once the tables it reads from other
//! regions have arrived; whatever crosses a subject edge is audited
//! against the receiver's view and byte-accounted; the signed
//! `[[q_S, keys]_priU]_pubS` request is the licence to compute. Nothing
//! is materialized where the paper puts no edge, so footnote 2 is not
//! a case: the engine turns a Select and the Encrypt below it into one
//! filter-then-encrypt stream when one region holds both, and cannot
//! when the ciphertext arrives as an operand. [`PartyRun`] is that rule for *one subject and one query*
//! as a pure state machine — no threads, no channels, no sockets, no
//! clock:
//!
//! * [`PartyRun::new`] verifies the request envelope addressed to this
//!   subject and works out which regions it runs and which operands it
//!   must be sent;
//! * [`PartyRun::deliver`] takes one incoming [`Transfer`]: drops a
//!   re-sent duplicate, refuses anything this party is not waiting for
//!   from that producer, audits every cell against this subject's view
//!   and accounts the bytes;
//! * [`PartyRun::step`] runs one region under this subject's key ring
//!   and store, and returns its root's result together with the subject
//!   it must travel to (the user keeps its own result);
//! * [`PartyRun::finish`] yields the [`PartyOut`].
//!
//! Every failure is a returned [`SimError`]; what to do about it
//! (end the query, tell the peers) is the driver's business. The two
//! drivers — one walk per session, process per subject — live in
//! [`session`](crate::session) and [`remote`](crate::remote), over the
//! mailbox and `drive` of [`runtime`](crate::runtime).

use crate::audit::audit_batches;
use crate::error::SimError;
use crate::transport::TransportError;
use crate::RSA_BITS;
use mpq_algebra::{AttrId, Catalog, NodeId, QueryPlan, SubjectId};
use mpq_core::authz::SubjectView;
use mpq_core::dispatch::{regions, Region};
use mpq_crypto::keyring::KeyRing;
use mpq_crypto::rsa::{RsaKeypair, RsaPublic, SignedEnvelope};
use mpq_exec::{execute_region, Batches, Database, ExecCtx, SchemePlan, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// One subject, for a session's whole life: identity, view, keys and
/// store. Deliberately holds only *this* subject's material — an
/// `mpq-server` process builds exactly one, with no other party's keys
/// or relations in its address space. [`Party::new`] is the one way to
/// make one, whoever hosts it: a [`Session`](crate::Session), a
/// [`Coordinator`](crate::Coordinator) or a [`Server`](crate::Server).
pub(crate) struct Party {
    pub(crate) me: SubjectId,
    pub(crate) catalog: Arc<Catalog>,
    /// This subject's overall view (receive audits).
    view: SubjectView,
    /// Request-envelope keypair.
    pub(crate) rsa: RsaKeypair,
    /// Def. 6.1 cluster keys granted to this subject.
    pub(crate) ring: KeyRing,
    /// The base relations this subject is the authority of.
    pub(crate) store: Database,
}

impl Party {
    /// Subject `me` with its fleet identity (see [`fleet_identities`]),
    /// an empty key ring, and `store`: the base relations it is the
    /// authority of.
    pub(crate) fn new(
        me: SubjectId,
        catalog: Arc<Catalog>,
        view: SubjectView,
        rsa: RsaKeypair,
        store: Database,
    ) -> Party {
        let ring = KeyRing::new();
        Party {
            me,
            catalog,
            view,
            rsa,
            ring,
            store,
        }
    }
}

/// The fleet's RSA identities: one seeded stream, `StdRng(seed)`, draws
/// every subject's keypair in subject order. Returns the first `count`
/// of them and the stream continued past them, which a session's or a
/// coordinator's `Dispatcher` draws on. A session and a coordinator
/// draw them all; a server draws up to its own and keeps that one, so
/// every party of a fleet started with one seed holds the key every
/// other party expects of it.
pub(crate) fn fleet_identities(seed: u64, count: usize) -> (Vec<RsaKeypair>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = (0..count)
        .map(|_| RsaKeypair::generate(&mut rng, RSA_BITS))
        .collect();
    (keys, rng)
}

/// One region's result crossing a subject edge: the only data message
/// of the protocol. The root's result travels to the querying user the
/// same way any operand travels to its consumer. It travels as the
/// batches the producer's pipeline emitted: in-process nothing copies
/// or reassembles them on the way to the consumer's operators, and the
/// codec writes them as the one table they concatenate to.
#[derive(Clone, Debug)]
pub(crate) struct Transfer {
    /// Node whose result this is.
    pub(crate) node: NodeId,
    /// Producing subject.
    pub(crate) from: SubjectId,
    /// Sequence number, unique per producer and epoch. A sender
    /// recovering from an ambiguous delivery failure re-sends the same
    /// number; the receiver drops the duplicate.
    pub(crate) seq: u64,
    /// The result rows.
    pub(crate) batches: Batches,
}

/// Everything the parties need to execute one query, shared immutably
/// by all participants — and exactly what `Frame::Execute` carries to a
/// server process. The derived fields are functions of the shipped
/// ones, computed once by [`QueryJob::new`] on whichever side of the
/// wire the job is built.
#[derive(Clone, Debug)]
pub(crate) struct QueryJob {
    /// The extended plan with encrypted literals spliced in.
    pub(crate) plan: QueryPlan,
    /// Per-attribute encryption schemes.
    pub(crate) schemes: SchemePlan,
    /// Attribute → session-wide cluster-key id.
    pub(crate) key_of_attr: HashMap<AttrId, u32>,
    /// Node → executing subject, total over the plan.
    pub(crate) assignment: HashMap<NodeId, SubjectId>,
    /// The querying user.
    pub(crate) user: SubjectId,
    /// Base seed for per-(node, column, row) encryption randomness;
    /// identical for every driver and every query of a session.
    pub(crate) exec_seed: u64,
    /// How long a party waits for an expected transfer before aborting
    /// the epoch with a typed timeout, in milliseconds (0: forever —
    /// the in-proc default, where every sent table is already in its
    /// consumer's mailbox).
    pub(crate) timeout_ms: u64,
    /// Derived: the Fig. 8 cut, producers first — the order a single
    /// thread runs the regions in.
    pub(crate) regions: Vec<Region>,
    /// Derived: every assignee plus the user, ascending by subject id.
    pub(crate) participants: Vec<SubjectId>,
}

impl QueryJob {
    /// Build a job, deriving the regions and the participants. Refuses
    /// an assignment that is not total over the plan, so everything
    /// downstream may index it.
    pub(crate) fn new(
        plan: QueryPlan,
        schemes: SchemePlan,
        key_of_attr: HashMap<AttrId, u32>,
        assignment: HashMap<NodeId, SubjectId>,
        user: SubjectId,
        exec_seed: u64,
        timeout_ms: u64,
    ) -> Result<QueryJob, SimError> {
        let mut regions = regions(&plan, &assignment).map_err(SimError::Unassigned)?;
        regions.reverse();
        let mut participants: Vec<SubjectId> = regions.iter().map(|r| r.subject).collect();
        participants.push(user);
        participants.sort_by_key(|s| s.index());
        participants.dedup();
        Ok(QueryJob {
            plan,
            schemes,
            key_of_attr,
            assignment,
            user,
            exec_seed,
            timeout_ms,
            regions,
            participants,
        })
    }

    /// The receive timeout as a duration (`None`: wait forever).
    pub(crate) fn timeout(&self) -> Option<Duration> {
        (self.timeout_ms > 0).then(|| Duration::from_millis(self.timeout_ms))
    }
}

/// A clean party's contribution to the run report.
#[derive(Default)]
pub(crate) struct PartyOut {
    /// Bytes received per (producer, me) edge.
    pub(crate) transfers: HashMap<(SubjectId, SubjectId), usize>,
    /// The final result (only ever `Some` at the user's party).
    pub(crate) result: Option<Table>,
}

/// One subject's share of one query, as a state machine. See the
/// [module docs](self).
pub(crate) struct PartyRun<'a> {
    party: &'a Party,
    job: &'a QueryJob,
    /// My regions not yet run, producers first.
    todo: Vec<&'a Region>,
    /// Tables still owed to me by other subjects: node → the subject
    /// assigned to produce it. Holds the root when I am the user and
    /// somebody else computes it.
    awaited: HashMap<NodeId, SubjectId>,
    /// Transfers already taken, by `(producer, seq)`.
    seen: HashSet<(SubjectId, u64)>,
    /// Operands delivered and not yet consumed.
    operands: HashMap<NodeId, Batches>,
    next_seq: u64,
    out: PartyOut,
}

impl<'a> PartyRun<'a> {
    /// Start this party's share of `job`. Nothing runs unless the
    /// request envelope addressed to this subject opens under its key
    /// and verifies against the user's: every subject that computes
    /// for somebody else needs one; the user needs none to serve
    /// itself, but one that is present must still verify.
    pub(crate) fn new(
        party: &'a Party,
        job: &'a QueryJob,
        envelope: Option<&SignedEnvelope>,
        user_public: &RsaPublic,
    ) -> Result<PartyRun<'a>, SimError> {
        let me = party.me;
        let licensed = match envelope {
            Some(envelope) => envelope.open(&party.rsa, user_public).is_some(),
            None => me == job.user,
        };
        if !licensed {
            return Err(SimError::Envelope { to: me });
        }
        let todo: Vec<&Region> = job.regions.iter().filter(|r| r.subject == me).collect();
        // A region's operands are other regions' roots, and a
        // neighbouring region is by construction another subject's.
        let mut awaited: HashMap<NodeId, SubjectId> = todo
            .iter()
            .flat_map(|r| &r.operands)
            .map(|&operand| (operand, job.assignment[&operand]))
            .collect();
        let root = job.plan.root();
        if me == job.user && job.assignment[&root] != me {
            awaited.insert(root, job.assignment[&root]);
        }
        Ok(PartyRun {
            party,
            job,
            todo,
            awaited,
            seen: HashSet::new(),
            operands: HashMap::new(),
            next_seq: 0,
            out: PartyOut::default(),
        })
    }

    /// Take one table sent by another subject. Accepted only if it is
    /// an operand this party still waits for, from the subject assigned
    /// to produce it; then audited cell by cell against this subject's
    /// view and byte-accounted on the `(producer, me)` edge. A re-sent
    /// `(from, seq)` is dropped without a second audit or accounting.
    pub(crate) fn deliver(&mut self, t: Transfer) -> Result<(), SimError> {
        if self.seen.contains(&(t.from, t.seq)) {
            return Ok(());
        }
        if self.awaited.get(&t.node) != Some(&t.from) {
            return Err(SimError::Transport(TransportError::Frame {
                detail: format!(
                    "subject {} does not expect node {} from subject {}",
                    self.party.me, t.node, t.from
                ),
            }));
        }
        let b = &t.batches;
        audit_batches(b.schema.attrs(), &b.batches, &self.party.view)?;
        self.awaited.remove(&t.node);
        self.seen.insert((t.from, t.seq));
        *self
            .out
            .transfers
            .entry((t.from, self.party.me))
            .or_default() += t.batches.byte_size();
        if t.node == self.job.plan.root() {
            self.out.result = Some(t.batches.into_table());
        } else {
            self.operands.insert(t.node, t.batches);
        }
        Ok(())
    }

    /// The root of my first region, producers first, whose operands
    /// are all here.
    pub(crate) fn ready(&self) -> Option<NodeId> {
        let here = |operand| self.operands.contains_key(operand);
        let region = self.todo.iter().find(|r| r.operands.iter().all(here))?;
        Some(region.root)
    }

    /// Run my region rooted at `root` as one pipeline under this
    /// subject's ring and store; its leaves are my base relations and
    /// the delivered operands, and an operand that never arrived is a
    /// typed [`ExecError::MissingOperand`](mpq_exec::ExecError) —
    /// another subject's node is never computed here. `Some((to,
    /// transfer))` carries the root's table to its consumer (the
    /// assignee of the node above it; the user for the plan root);
    /// `None` when I am the user and the result is my own.
    pub(crate) fn step(&mut self, root: NodeId) -> Result<Option<(SubjectId, Transfer)>, SimError> {
        let (party, job) = (self.party, self.job);
        let at = self.todo.iter().position(|r| r.root == root);
        let region = self
            .todo
            .remove(at.expect("drivers step the roots `ready` hands them"));
        // A fresh context per region: ciphertexts are a function of
        // (seed, node, column, row), so they are bit-identical whatever
        // the driver and the interleaving.
        let ctx = ExecCtx::builder(
            &party.catalog,
            &party.store,
            &party.ring,
            &job.schemes,
            &job.key_of_attr,
        )
        .seed(job.exec_seed)
        .build();
        let member = |n| region.nodes.contains(&n);
        let batches = execute_region(&job.plan, root, &member, &mut self.operands, &ctx)?;
        let consumer = region.parent.map_or(job.user, |p| job.assignment[&p]);
        if consumer != party.me {
            let seq = self.next_seq;
            self.next_seq += 1;
            let from = party.me;
            return Ok(Some((
                consumer,
                Transfer {
                    node: root,
                    from,
                    seq,
                    batches,
                },
            )));
        }
        // Even a result the user computed itself is audited.
        audit_batches(batches.schema.attrs(), &batches.batches, &party.view)?;
        self.out.result = Some(batches.into_table());
        Ok(None)
    }

    /// `true` once every region of mine has run and nothing is owed to me.
    pub(crate) fn is_done(&self) -> bool {
        self.todo.is_empty() && self.awaited.is_empty()
    }

    /// This party's contribution to the report.
    pub(crate) fn finish(self) -> PartyOut {
        self.out
    }
}

#[cfg(test)]
mod tests {
    //! The core, driven by hand: no threads, no channels, no sockets.
    use super::*;
    use crate::session::{set_up, Dispatched, SessionConfig};
    use mpq_algebra::expr::{AggExpr, AggFunc};
    use mpq_algebra::{Operator, Value};
    use mpq_core::candidates::candidates;
    use mpq_core::capability::CapabilityPolicy;
    use mpq_core::extend::{minimally_extend, Assignment, ExtendedPlan};
    use mpq_core::fixtures::RunningExample;
    use mpq_core::keys::plan_keys;
    use mpq_exec::eval::EvalError;
    use mpq_exec::{execute_step, fused_encrypt_child, ExecError};

    /// A prepared query over the running example and its parties.
    struct Fixture {
        ex: RunningExample,
        parties: Vec<Party>,
        d: Dispatched,
    }

    /// Fig. 7(b)'s assignment (σ→H, ⋈→Z, γ→Z, σᵧ→Y), minimally
    /// extended: D is encrypted at the source, so H's region holds a
    /// Select over its own Encrypt — a footnote-2 site.
    fn fig7b(ex: &RunningExample) -> ExtendedPlan {
        let (plan, policy) = (&ex.plan, &ex.policy);
        let capabilities = CapabilityPolicy::default();
        let cands = candidates(plan, &ex.catalog, policy, &ex.subjects, &capabilities, true);
        let mut a = Assignment::new();
        for (node, s) in [
            ("select_d", "H"),
            ("join", "Z"),
            ("group", "Z"),
            ("having", "Y"),
        ] {
            a.set(ex.node(node), ex.subject(s));
        }
        let user = Some(ex.subject("U"));
        minimally_extend(plan, &ex.catalog, policy, &ex.subjects, &cands, &a, user)
            .expect("fig7b assignment is drawn from Λ")
    }

    impl Fixture {
        /// Fig. 7(a): H and I feed X, X feeds Y, Y answers to U.
        fn new() -> Fixture {
            let ex = RunningExample::new();
            let ext = ex.fig7a_extended();
            Fixture::of(ex, &ext)
        }

        fn of(ex: RunningExample, ext: &ExtendedPlan) -> Fixture {
            let mut db = Database::new();
            db.load(&ex.catalog, "Hosp", RunningExample::sample_hosp_rows());
            db.load(&ex.catalog, "Ins", RunningExample::sample_ins_rows());
            let config = SessionConfig::new(5);
            let (parties, mut dispatcher) =
                set_up(&ex.catalog, &ex.subjects, &ex.policy, &db, &config);
            let user = ex.subject("U");
            let mut grants = Vec::new();
            let signer = &parties[user.index()].rsa;
            let d = dispatcher
                .prepare(ext, &plan_keys(ext), user, signer, &mut grants)
                .expect("the fixture plans are authorized");
            for grant in grants {
                let ring = &parties[grant.to().index()].ring;
                grant.insert_into(ring);
            }
            Fixture { ex, parties, d }
        }

        fn run(&self, name: &str) -> PartyRun<'_> {
            self.run_of(self.ex.subject(name))
        }

        fn run_of(&self, s: SubjectId) -> PartyRun<'_> {
            let user_public = &self.parties[self.d.job.user.index()].rsa.public;
            let envelope = self.d.envelopes[s.index()].as_ref();
            PartyRun::new(&self.parties[s.index()], &self.d.job, envelope, user_public)
                .expect("the sealed request opens at its recipient")
        }
    }

    /// Step everything that is ready; what leaves, in order.
    fn drain(run: &mut PartyRun) -> Vec<(SubjectId, Transfer)> {
        let mut sent = Vec::new();
        while let Some(id) = run.ready() {
            sent.extend(run.step(id).expect("authorized step"));
        }
        sent
    }

    /// Run the whole query by hand, handing X its two operands in the
    /// given order.
    fn run_all(f: &Fixture, reverse: bool) -> (Vec<Vec<Value>>, Vec<PartyOut>) {
        let mut to_x = drain(&mut f.run("H"));
        to_x.extend(drain(&mut f.run("I")));
        assert_eq!(to_x.len(), 2, "H and I each feed X one table");
        if reverse {
            to_x.reverse();
        }
        let mut outs = Vec::new();
        let mut inbox: Vec<Transfer> = to_x.into_iter().map(|(_, t)| t).collect();
        for name in ["X", "Y", "U"] {
            let mut run = f.run(name);
            assert!(run.ready().is_none(), "{name} has nothing to run yet");
            for t in inbox.drain(..) {
                run.deliver(t).expect("expected operand");
            }
            inbox.extend(drain(&mut run).into_iter().map(|(_, t)| t));
            assert!(run.is_done(), "{name} finished its share");
            outs.push(run.finish());
        }
        let result = outs[2].result.as_ref().expect("the user holds the result");
        (result.to_rows(), outs)
    }

    fn is_frame_error(r: Result<(), SimError>) -> bool {
        matches!(r, Err(SimError::Transport(TransportError::Frame { .. })))
    }

    #[test]
    fn operands_in_either_order_give_the_same_run() {
        let f = Fixture::new();
        let (rows, outs) = run_all(&f, false);
        let (rows_rev, outs_rev) = run_all(&f, true);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::str("tPA"));
        assert_eq!(format!("{rows:?}"), format!("{rows_rev:?}"));
        for (a, b) in outs.iter().zip(&outs_rev) {
            assert_eq!(a.transfers, b.transfers);
        }
    }

    #[test]
    fn a_table_for_a_node_nobody_waits_on_is_refused() {
        let f = Fixture::new();
        let (_, mut t) = drain(&mut f.run("H")).remove(0);
        // X waits for H's table under H's node id, not under the root.
        t.node = f.d.job.plan.root();
        let mut x = f.run("X");
        assert!(is_frame_error(x.deliver(t)));
        assert!(x.finish().transfers.is_empty(), "nothing was accounted");
    }

    #[test]
    fn a_table_from_the_wrong_producer_is_refused() {
        let f = Fixture::new();
        let (_, mut t) = drain(&mut f.run("H")).remove(0);
        t.from = f.ex.subject("I");
        let mut x = f.run("X");
        assert!(is_frame_error(x.deliver(t.clone())));
        // Y does not wait for that node at all, whoever sends it.
        t.from = f.ex.subject("H");
        assert!(is_frame_error(f.run("Y").deliver(t)));
    }

    #[test]
    fn a_resent_transfer_is_dropped_without_accounting_it_twice() {
        let f = Fixture::new();
        let (to, t) = drain(&mut f.run("H")).remove(0);
        assert_eq!(to, f.ex.subject("X"));
        let mut x = f.run("X");
        x.deliver(t.clone()).expect("first delivery");
        let edge = (f.ex.subject("H"), f.ex.subject("X"));
        let once = x.out.transfers[&edge];
        assert_eq!(once, t.batches.byte_size());
        x.deliver(t.clone())
            .expect("the duplicate is dropped, not an error");
        assert_eq!(x.out.transfers[&edge], once);
        // The same table under a *new* sequence number is not a re-send:
        // the operand was already taken, so it is refused.
        let again = Transfer {
            seq: t.seq + 1,
            ..t
        };
        assert!(is_frame_error(x.deliver(again)));
        assert_eq!(x.out.transfers[&edge], once);
    }

    #[test]
    fn nothing_runs_without_the_signed_request() {
        let f = Fixture::new();
        let x = f.ex.subject("X");
        let user_public = &f.parties[f.d.job.user.index()].rsa.public;
        let refused = |envelope| {
            let run = PartyRun::new(&f.parties[x.index()], &f.d.job, envelope, user_public);
            matches!(run, Err(SimError::Envelope { to }) if to == x)
        };
        assert!(refused(None), "no request, no licence");
        let for_y = f.d.envelopes[f.ex.subject("Y").index()].as_ref();
        assert!(refused(for_y), "a request sealed to somebody else");
    }

    type Edge = (SubjectId, SubjectId);

    /// The whole query on this thread, regions producers first. Every
    /// table that left its producer (by node), the bytes each edge
    /// carried as the receivers accounted them, and the number of
    /// pipelines run.
    fn run_by_regions(f: &Fixture) -> (HashMap<NodeId, Table>, HashMap<Edge, usize>, usize) {
        let job = &f.d.job;
        let mut runs: HashMap<SubjectId, PartyRun> =
            (job.participants.iter().map(|&s| (s, f.run_of(s)))).collect();
        let mut in_flight: HashMap<NodeId, (SubjectId, Transfer)> = HashMap::new();
        let mut shipped = HashMap::new();
        for region in &job.regions {
            let run = runs.get_mut(&region.subject).expect("a participant");
            for operand in &region.operands {
                let (to, t) = in_flight.remove(operand).expect("producers ran first");
                assert_eq!(to, region.subject);
                shipped.insert(t.node, t.batches.clone().into_table());
                run.deliver(t).expect("expected operand");
            }
            assert_eq!(run.ready(), Some(region.root));
            let sent = run.step(region.root).expect("authorized region");
            in_flight.extend(sent.map(|leaving| (region.root, leaving)));
        }
        if let Some((to, t)) = in_flight.remove(&job.plan.root()) {
            shipped.insert(t.node, t.batches.clone().into_table());
            runs.get_mut(&to)
                .expect("the user")
                .deliver(t)
                .expect("the result");
        }
        assert!(in_flight.is_empty() && runs.values().all(PartyRun::is_done));
        let mut bytes = HashMap::new();
        for (edge, n) in runs.into_values().flat_map(|run| run.finish().transfers) {
            *bytes.entry(edge).or_default() += n;
        }
        (shipped, bytes, job.regions.len())
    }

    /// The reference the regions replaced: every node stepped on its
    /// own under its assignee's ring and store, in literal plan order
    /// (no footnote-2 reordering: a Select finds its Encrypt already
    /// in `results`), every intermediate materialized.
    fn run_node_at_a_time(f: &Fixture) -> (HashMap<NodeId, Table>, HashMap<Edge, usize>) {
        let job = &f.d.job;
        let parents = job.plan.parents();
        let (mut results, mut shipped, mut bytes) =
            (HashMap::new(), HashMap::new(), HashMap::new());
        for id in job.plan.postorder() {
            let party = &f.parties[job.assignment[&id].index()];
            let (schemes, keys) = (&job.schemes, &job.key_of_attr);
            let ctx = ExecCtx::builder(&party.catalog, &party.store, &party.ring, schemes, keys)
                .seed(job.exec_seed)
                .build();
            let table = execute_step(&job.plan, id, &mut results, &ctx).expect("authorized node");
            let consumer = parents[id.index()].map_or(job.user, |p| job.assignment[&p]);
            if consumer != party.me {
                *bytes.entry((party.me, consumer)).or_default() += table.byte_size();
                shipped.insert(id, table.clone());
            }
            results.insert(id, table);
        }
        (shipped, bytes)
    }

    #[test]
    fn regions_ship_byte_for_byte_what_a_node_at_a_time_walk_ships() {
        let fig7b = Fixture::of(RunningExample::new(), &fig7b(&RunningExample::new()));
        let plan = &fig7b.d.job.plan;
        let folds =
            |r: &Region, n| fused_encrypt_child(plan, n).is_some_and(|e| r.nodes.contains(&e));
        let mut regions = fig7b.d.job.regions.iter();
        assert!(
            regions.any(|r| r.nodes.iter().any(|&n| folds(r, n))),
            "Fig. 7(b) exercises footnote 2"
        );
        for f in [Fixture::new(), fig7b] {
            let (shipped, bytes, pipelines) = run_by_regions(&f);
            let (reference, reference_bytes) = run_node_at_a_time(&f);
            assert!(pipelines < f.d.job.plan.postorder().len());
            assert_eq!(shipped, reference, "a table on an edge moved");
            assert_eq!(bytes, reference_bytes);
            // One signed sub-query, one pipeline.
            assert_eq!(f.d.requests, pipelines);
        }
    }

    #[test]
    fn a_region_whose_operand_never_arrived_runs_nothing() {
        let f = Fixture::new();
        let region = |name| {
            let mut mine =
                f.d.job
                    .regions
                    .iter()
                    .filter(|r| r.subject == f.ex.subject(name));
            mine.next().expect("one region each in fig7a")
        };
        // X joins what H and I encrypt. It holds neither their
        // relations nor their key: had it descended into a producer's
        // node, the refusal would be a missing table or key instead.
        let mut x = f.run("X");
        assert_eq!(x.ready(), None);
        let (x_root, operand) = (region("X").root, region("H").root);
        let refused = x.step(x_root).expect_err("nothing was delivered");
        let node = f.d.job.plan.parents()[operand.index()].expect("H feeds X");
        assert_eq!(
            refused,
            SimError::Exec(ExecError::MissingOperand { node, operand })
        );
        assert!(x.finish().transfers.is_empty());
    }

    /// Cells of a delivered table are peer input: a plaintext `SUM`
    /// they push past `i64::MAX` is the region's typed error — not a
    /// panic in the party's region (debug) or a wrapped total (release).
    #[test]
    fn a_sum_overflowing_on_a_delivered_operand_is_a_typed_error() {
        let f = Fixture::new();
        let (i, u) = (f.ex.subject("I"), f.ex.subject("U"));
        let (c, p) = (f.ex.attr("C"), f.ex.attr("P"));
        let ins = f.ex.catalog.relation("Ins").expect("fixture schema").rel;
        let mut plan = QueryPlan::new();
        let base = plan.add_base(ins, vec![c, p]);
        let aggs = vec![AggExpr::over_col(AggFunc::Sum, p)];
        let group = plan.add(Operator::GroupBy { keys: vec![], aggs }, vec![base]);
        let assignment = HashMap::from([(base, i), (group, u)]);
        let (schemes, no_keys) = (SchemePlan::default(), HashMap::new());
        let job = QueryJob::new(plan, schemes, no_keys, assignment, u, 5, 0).expect("total");
        let user = &f.parties[u.index()];
        let mut run =
            PartyRun::new(user, &job, None, &user.rsa.public).expect("the user serves itself");
        // U may see C and P in plaintext, so the audit lets these in.
        let cells = [i64::MAX, 1].map(|n| vec![Value::str("c"), Value::Int(n)]);
        let table = Table::from_rows(vec![c, p], cells.to_vec());
        let operand = Transfer {
            node: base,
            from: i,
            seq: 0,
            batches: table.into(),
        };
        run.deliver(operand)
            .expect("an awaited, authorized operand");
        assert!(matches!(
            run.step(group),
            Err(SimError::Exec(ExecError::Eval(EvalError::Overflow(_))))
        ));
    }

    /// So is a ciphertext: a Paillier cell with the right header over
    /// arbitrary bytes decrypts to a plaintext as wide as the modulus,
    /// which used to trip an `assert!` — in release — inside the key
    /// holder's region. The `Decrypt` region answers with a
    /// typed error.
    #[test]
    fn a_forged_paillier_cell_on_a_delivered_operand_is_a_typed_error() {
        use mpq_algebra::value::{EncScheme, EncValue};
        use mpq_crypto::keyring::ClusterKey;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let f = Fixture::new();
        let (i, u) = (f.ex.subject("I"), f.ex.subject("U"));
        let (c, p) = (f.ex.attr("C"), f.ex.attr("P"));
        let ins = f.ex.catalog.relation("Ins").expect("fixture schema").rel;
        let mut plan = QueryPlan::new();
        let base = plan.add_base(ins, vec![c, p]);
        let decrypt = plan.add(Operator::Decrypt { attrs: vec![p] }, vec![base]);
        let assignment = HashMap::from([(base, i), (decrypt, u)]);
        let key_id = 99;
        let mut schemes = SchemePlan::default();
        schemes.set(p, EncScheme::Paillier);
        let keys = HashMap::from([(p, key_id)]);
        let job = QueryJob::new(plan, schemes, keys, assignment, u, 5, 0).expect("total");
        let user = &f.parties[u.index()];
        let key = ClusterKey::generate(&mut StdRng::seed_from_u64(3), key_id, 256);
        user.ring.insert(key);
        let mut run =
            PartyRun::new(user, &job, None, &user.rsa.public).expect("the user serves itself");
        // `tag ‖ kind ‖ count` as an encryptor writes them, then noise
        // where the ciphertext should be.
        let mut forged = vec![1, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        forged.extend((0..64u8).map(|b| b.wrapping_mul(167) | 1));
        let cell = Value::Enc(EncValue {
            scheme: EncScheme::Paillier,
            key_id,
            bytes: Arc::from(forged),
        });
        let operand = Transfer {
            node: base,
            from: i,
            seq: 0,
            batches: Table::from_rows(vec![c, p], vec![vec![Value::str("c"), cell]]).into(),
        };
        run.deliver(operand)
            .expect("an awaited, authorized operand");
        assert!(matches!(
            run.step(decrypt),
            Err(SimError::Exec(ExecError::Crypto(_)))
        ));
    }
}

//! Economic costing of (extended) plans.
//!
//! `C_q = Σ_{n∈N} C_cpu^n + C_io^n + C_net_io^n` (§7): CPU is
//! processing time × the assignee's per-second price, I/O is processed
//! bytes × the unit price, network is transferred bytes × the link
//! price — charged on every plan edge whose endpoints are assigned to
//! different subjects, plus the final transfer of the result to the
//! user. Wall-clock time (CPU + transfer) is tracked alongside for the
//! paper's optional performance threshold.

use crate::pricing::PriceBook;
use mpq_algebra::stats::{Estimate, StatsCatalog};
use mpq_algebra::value::EncScheme;
use mpq_algebra::{Catalog, Expr, NodeId, Operator, QueryPlan, SubjectId};
use mpq_core::profile::Profile;
use mpq_exec::SchemePlan;
use std::collections::HashMap;

/// Cost components, in USD (plus wall-clock seconds).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostBreakdown {
    /// CPU cost.
    pub cpu: f64,
    /// Local I/O cost.
    pub io: f64,
    /// Network cost.
    pub net: f64,
    /// Estimated wall-clock seconds (sequential execution + transfers).
    pub time_secs: f64,
    /// The pure computation share of [`CostBreakdown::time_secs`]
    /// (no link time) — the quantity the `calibrate` replay can
    /// observe directly, since the runtime executes real work but
    /// does not delay transfers.
    pub cpu_secs: f64,
}

impl CostBreakdown {
    /// Total USD.
    pub fn total(&self) -> f64 {
        self.cpu + self.io + self.net
    }

    /// Component-wise sum.
    pub fn add(&self, other: &CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            cpu: self.cpu + other.cpu,
            io: self.io + other.io,
            net: self.net + other.net,
            time_secs: self.time_secs + other.time_secs,
            cpu_secs: self.cpu_secs + other.cpu_secs,
        }
    }
}

/// Estimated output bytes of one node, accounting for ciphertext
/// expansion of encrypted attributes.
fn output_bytes(
    catalog: &Catalog,
    stats: &StatsCatalog,
    est: &Estimate,
    profile: &Profile,
    schemes: &SchemePlan,
    book: &PriceBook,
) -> f64 {
    let mut width = 0.0;
    for a in profile.vp.iter() {
        width += stats.attr_width(catalog, a);
    }
    for a in profile.ve.iter() {
        let plain = stats.attr_width(catalog, a);
        width += book.ciphertext_width(schemes.scheme_of(a), plain);
    }
    est.rows * width.max(1.0)
}

/// Attributes an `Encrypt` node re-encrypts straight out of a
/// `Decrypt` child under the same (per-attribute, hence identical)
/// scheme. The pair is a no-op re-encryption edge: the plan's profile
/// needs it, but a single pass performs both halves, so charging each
/// node independently double-counts the work. The overlap is charged
/// once, at the `Decrypt`.
fn noop_reencrypt_attrs(plan: &QueryPlan, id: NodeId) -> Vec<mpq_algebra::AttrId> {
    let node = plan.node(id);
    let Operator::Encrypt { attrs } = &node.op else {
        return Vec::new();
    };
    let Operator::Decrypt { attrs: dec } = &plan.node(node.children[0]).op else {
        return Vec::new();
    };
    attrs.iter().filter(|a| dec.contains(a)).copied().collect()
}

/// CPU work of one operator in tuple operations (before crypto).
fn tuple_work(plan: &QueryPlan, id: NodeId, est: &[Estimate], book: &PriceBook) -> f64 {
    let node = plan.node(id);
    let rows_in = |i: usize| est[node.children[i].index()].rows;
    let rows_out = est[id.index()].rows;
    match &node.op {
        Operator::Base { .. } => rows_out,
        Operator::Project { .. } | Operator::Select { .. } | Operator::Having { .. } => rows_in(0),
        Operator::Product => rows_in(0) * rows_in(1),
        Operator::Join { .. } => rows_in(0) + rows_in(1) + rows_out,
        Operator::GroupBy { .. } => rows_in(0) + rows_out,
        Operator::Udf { .. } => rows_in(0) * book.udf_multiplier,
        // One pass over the rows; the per-value cryptographic work is
        // priced separately (and far more precisely) in `crypto_secs`.
        // An Encrypt whose attributes all come straight out of a
        // Decrypt below it shares that Decrypt's pass instead of
        // running its own.
        Operator::Encrypt { attrs } => {
            if noop_reencrypt_attrs(plan, id).len() == attrs.len() {
                0.0
            } else {
                rows_in(0)
            }
        }
        Operator::Decrypt { .. } => rows_in(0),
        Operator::Sort { .. } => {
            let r = rows_in(0).max(2.0);
            r * r.log2()
        }
        Operator::Limit { .. } => rows_out,
    }
}

/// Rows an `Encrypt` node actually has to encrypt, exactly as the
/// engine executes it.
///
/// Default: every row of its input. Exception: the paper's footnote 2
/// ("a subject that knows the key can operate on plaintext values and
/// encrypt D afterwards"), which `mpq-exec` implements as *fusion* —
/// when a `Select` sits directly on the `Encrypt`, its predicate only
/// compares encrypted attributes against literals, and both nodes run
/// at the same subject, the assignee filters the plaintext first and
/// encrypts only the surviving rows (at their original offsets, so the
/// ciphertexts are bit-identical). The credit here is gated on the
/// *same* predicate the engine uses ([`mpq_exec::fused_encrypt_child`]
/// plus the same-assignee condition of the region cut,
/// [`mpq_core::dispatch::regions`]: both nodes run in one region), so
/// the model prices precisely the plan the engine runs — an earlier
/// version of this credit applied it to every same-subject selection
/// whether or not the engine reordered, collapsing the q3/q6/q12
/// CostDp-vs-all-at-user pairs into dishonest model ties.
fn effective_encrypt_rows(
    plan: &QueryPlan,
    id: NodeId,
    est: &[Estimate],
    assignment: &HashMap<NodeId, SubjectId>,
) -> f64 {
    for p in plan.postorder() {
        if mpq_exec::fused_encrypt_child(plan, p) == Some(id)
            && assignment.get(&p) == assignment.get(&id)
        {
            return est[p.index()].rows;
        }
    }
    est[plan.node(id).children[0].index()].rows
}

/// Extra CPU seconds for cryptographic work at a node.
#[allow(clippy::too_many_arguments)]
fn crypto_secs(
    plan: &QueryPlan,
    id: NodeId,
    assignment: &HashMap<NodeId, SubjectId>,
    est: &[Estimate],
    profiles: &[Profile],
    schemes: &SchemePlan,
    book: &PriceBook,
) -> f64 {
    let node = plan.node(id);
    match &node.op {
        Operator::Encrypt { attrs } => {
            let rows = effective_encrypt_rows(plan, id, est, assignment);
            let noop = noop_reencrypt_attrs(plan, id);
            attrs
                .iter()
                .filter(|a| !noop.contains(a))
                .map(|a| rows * book.encrypt_secs(schemes.scheme_of(*a)))
                .sum()
        }
        Operator::Decrypt { attrs } => {
            // Audited against the engine: `Decrypt` walks every input
            // row once per listed attribute — input cardinality, not
            // output (they coincide: decryption is row-preserving) and
            // no filtering credit — the engine has no decrypt-side
            // counterpart of the footnote-2 fusion.
            let rows = est[node.children[0].index()].rows;
            attrs
                .iter()
                .map(|a| rows * book.decrypt_secs(schemes.scheme_of(*a)))
                .sum()
        }
        Operator::GroupBy { aggs, .. } => {
            // Homomorphic accumulation over encrypted aggregate inputs.
            let child = node.children[0];
            let rows = est[child.index()].rows;
            let enc = &profiles[child.index()].ve;
            aggs.iter()
                .map(|ag| match &ag.input {
                    Expr::Col(a)
                        if enc.contains(*a) && schemes.scheme_of(*a) == EncScheme::Paillier =>
                    {
                        rows * book.paillier_add_secs
                    }
                    _ => 0.0,
                })
                .sum()
        }
        _ => 0.0,
    }
}

/// Total modeled tuple operations of a plan — the quantity the
/// `calibrate` binary regresses measured execution seconds against to
/// fit [`calibrated::TUPLE_OP_SECS`](crate::pricing::calibrated::TUPLE_OP_SECS).
pub fn plan_tuple_ops(plan: &QueryPlan, est: &[Estimate], book: &PriceBook) -> f64 {
    plan.postorder()
        .into_iter()
        .map(|id| tuple_work(plan, id, est, book))
        .sum()
}

/// Modeled bytes for every cross-subject edge of an assigned plan,
/// final delivery to the user included — the per-edge counterpart of
/// the network term in [`cost_extended_plan`], compared by `calibrate`
/// against the bytes `mpq-dist` actually puts on the wire.
#[allow(clippy::too_many_arguments)]
pub fn edge_bytes_model(
    plan: &QueryPlan,
    assignment: &HashMap<NodeId, SubjectId>,
    catalog: &Catalog,
    stats: &StatsCatalog,
    est: &[Estimate],
    profiles: &[Profile],
    schemes: &SchemePlan,
    book: &PriceBook,
    user: SubjectId,
) -> HashMap<(SubjectId, SubjectId), f64> {
    let mut out: HashMap<(SubjectId, SubjectId), f64> = HashMap::new();
    let bytes_of = |id: NodeId| {
        output_bytes(
            catalog,
            stats,
            &est[id.index()],
            &profiles[id.index()],
            schemes,
            book,
        )
    };
    for id in plan.postorder() {
        let subject = assignment[&id];
        for &c in &plan.node(id).children {
            let child_subject = assignment[&c];
            if child_subject != subject {
                *out.entry((child_subject, subject)).or_default() += bytes_of(c);
            }
        }
    }
    let root = plan.root();
    let root_subject = assignment[&root];
    if root_subject != user {
        *out.entry((root_subject, user)).or_default() += bytes_of(root);
    }
    out
}

/// Cost a fully assigned (extended) plan.
///
/// `assignment` must cover every node (the output of
/// `mpq_core::extend::minimally_extend`); `profiles` and `est` must be
/// computed over the same plan.
#[allow(clippy::too_many_arguments)]
pub fn cost_extended_plan(
    plan: &QueryPlan,
    assignment: &HashMap<NodeId, SubjectId>,
    catalog: &Catalog,
    stats: &StatsCatalog,
    est: &[Estimate],
    profiles: &[Profile],
    schemes: &SchemePlan,
    book: &PriceBook,
    user: SubjectId,
) -> CostBreakdown {
    let mut out = CostBreakdown::default();
    for id in plan.postorder() {
        let node = plan.node(id);
        let subject = assignment[&id];
        let prices = book.of(subject);

        // CPU.
        let work = tuple_work(plan, id, est, book);
        let secs = work * book.tuple_op_secs
            + crypto_secs(plan, id, assignment, est, profiles, schemes, book);
        out.cpu += secs * prices.cpu_per_sec;
        out.time_secs += secs;
        out.cpu_secs += secs;

        // I/O: bytes read + written locally.
        let bytes_out = output_bytes(
            catalog,
            stats,
            &est[id.index()],
            &profiles[id.index()],
            schemes,
            book,
        );
        let bytes_in: f64 = node
            .children
            .iter()
            .map(|c| {
                output_bytes(
                    catalog,
                    stats,
                    &est[c.index()],
                    &profiles[c.index()],
                    schemes,
                    book,
                )
            })
            .sum();
        out.io += (bytes_in + bytes_out) / 1e9 * prices.io_per_gb;

        // Network: every edge crossing subjects.
        for &c in &node.children {
            let child_subject = assignment[&c];
            if child_subject != subject {
                let bytes = output_bytes(
                    catalog,
                    stats,
                    &est[c.index()],
                    &profiles[c.index()],
                    schemes,
                    book,
                );
                let sender = book.of(child_subject);
                out.net += bytes / 1e9 * book.net_price(child_subject, subject);
                let bw = sender.bandwidth_bps.min(prices.bandwidth_bps);
                out.time_secs += bytes * 8.0 / bw;
            }
        }
    }

    // Final delivery of the result to the user.
    let root = plan.root();
    let root_subject = assignment[&root];
    if root_subject != user {
        let bytes = output_bytes(
            catalog,
            stats,
            &est[root.index()],
            &profiles[root.index()],
            schemes,
            book,
        );
        let sender = book.of(root_subject);
        let receiver = book.of(user);
        out.net += bytes / 1e9 * book.net_price(root_subject, user);
        out.time_secs += bytes * 8.0 / sender.bandwidth_bps.min(receiver.bandwidth_bps);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{build_scenario, Scenario};
    use mpq_algebra::stats::estimate_plan;
    use mpq_core::candidates::candidates;
    use mpq_core::capability::CapabilityPolicy;
    use mpq_core::extend::{minimally_extend, Assignment};
    use mpq_core::profile::profile_plan;
    use mpq_exec::assign_schemes;
    use mpq_tpch::{query_plan, tpch_catalog, tpch_stats};

    /// Cost Q6 under UA with everything at the user vs everything at
    /// the storing authority: authority must be cheaper (3× vs 10×
    /// CPU, no client-link transfer of the scan).
    #[test]
    fn authority_cheaper_than_user_on_q6() {
        let cat = tpch_catalog();
        let stats = tpch_stats(&cat, 1.0);
        let env = build_scenario(&cat, Scenario::UA);
        let plan = query_plan(&cat, 6);
        let cands = candidates(
            &plan,
            &cat,
            &env.policy,
            &env.subjects,
            &CapabilityPolicy::default(),
            false,
        );
        let a1 = env.subjects.id("A1").unwrap();
        let cost_for = |subject| {
            let mut a = Assignment::new();
            for id in plan.postorder() {
                if !plan.node(id).children.is_empty() {
                    a.set(id, subject);
                }
            }
            let ext = minimally_extend(
                &plan,
                &cat,
                &env.policy,
                &env.subjects,
                &cands,
                &a,
                Some(env.user),
            )
            .unwrap();
            let est = estimate_plan(&ext.plan, &cat, &stats);
            let profiles = profile_plan(&ext.plan);
            let schemes = assign_schemes(&ext.plan).unwrap();
            cost_extended_plan(
                &ext.plan,
                &ext.assignment,
                &cat,
                &stats,
                &est,
                &profiles,
                &schemes,
                &env.prices,
                env.user,
            )
        };
        let at_user = cost_for(env.user);
        let at_authority = cost_for(a1);
        assert!(
            at_authority.total() < at_user.total(),
            "authority {} vs user {}",
            at_authority.total(),
            at_user.total()
        );
        assert!(at_user.total() > 0.0);
        assert!(at_user.time_secs > 0.0);
    }

    /// An `Encrypt` directly wrapping a `Decrypt` of the same scheme is
    /// a no-op re-encryption edge: the pair must be charged once, not
    /// twice (regression: both nodes used to bill full crypto work and
    /// a tuple pass each).
    #[test]
    fn noop_reencryption_not_double_counted() {
        use mpq_algebra::QueryPlan;
        use mpq_core::fixtures::RunningExample;

        let ex = RunningExample::new();
        let hosp = ex.catalog.relation("Hosp").unwrap().rel;
        let s = ex.catalog.attr("S").unwrap();
        let d = ex.catalog.attr("D").unwrap();
        let user = ex.subject("U");

        // Base → Encrypt{d} → Decrypt{d} → (Encrypt{d})? → Project.
        let build = |reencrypt: bool| {
            let mut plan = QueryPlan::new();
            let b = plan.add_base(hosp, vec![s, d]);
            let e1 = plan.add(Operator::Encrypt { attrs: vec![d] }, vec![b]);
            let dec = plan.add(Operator::Decrypt { attrs: vec![d] }, vec![e1]);
            let mut top = dec;
            if reencrypt {
                top = plan.add(Operator::Encrypt { attrs: vec![d] }, vec![top]);
            }
            plan.add(Operator::Project { attrs: vec![s, d] }, vec![top]);
            plan
        };
        let cost_of = |plan: &QueryPlan| {
            let stats = StatsCatalog::with_defaults(&ex.catalog, 10_000.0);
            let est = crate::stats::estimates_for(plan, &ex.catalog, &stats);
            let profiles = mpq_core::profile::profile_plan(plan);
            let schemes = mpq_exec::assign_schemes(plan).unwrap();
            let book = crate::pricing::PriceBook::paper_defaults(&ex.subjects, &[1.0]);
            let assignment: HashMap<NodeId, SubjectId> =
                plan.postorder().into_iter().map(|id| (id, user)).collect();
            cost_extended_plan(
                plan,
                &assignment,
                &ex.catalog,
                &stats,
                &est,
                &profiles,
                &schemes,
                &book,
                user,
            )
        };
        let with_pair = cost_of(&build(true));
        let without = cost_of(&build(false));
        // The re-encryption edge adds no CPU: no crypto work and no
        // extra tuple pass beyond the Decrypt already charged.
        assert!(
            (with_pair.cpu - without.cpu).abs() < 1e-12,
            "no-op re-encryption billed extra CPU: {} vs {}",
            with_pair.cpu,
            without.cpu
        );
    }

    /// The footnote-2 credit is exactly as wide as the engine's fusion:
    /// an `Encrypt` under a fusible same-assignee `Select` is priced at
    /// the *post*-selection cardinality (the rows the fused stream
    /// actually encrypts); move the selection to another subject and
    /// the credit vanishes — that subject must receive ciphertexts, so
    /// the `Encrypt` runs over every input row.
    #[test]
    fn encrypt_credit_tracks_engine_fusion() {
        use mpq_algebra::QueryPlan;
        use mpq_core::fixtures::RunningExample;

        let ex = RunningExample::new();
        let hosp = ex.catalog.relation("Hosp").unwrap().rel;
        let s = ex.catalog.attr("S").unwrap();
        let d = ex.catalog.attr("D").unwrap();
        let user = ex.subject("U");
        let h = ex.subject("H");

        // Base → Encrypt{s} → Select(d = 'stroke') → Project.
        let mut plan = QueryPlan::new();
        let b = plan.add_base(hosp, vec![s, d]);
        let e = plan.add(Operator::Encrypt { attrs: vec![s] }, vec![b]);
        let sel = plan.add(
            Operator::Select {
                pred: Expr::col_eq(d, mpq_algebra::Value::str("stroke")),
            },
            vec![e],
        );
        plan.add(Operator::Project { attrs: vec![s, d] }, vec![sel]);

        let stats = StatsCatalog::with_defaults(&ex.catalog, 10_000.0);
        let est = crate::stats::estimates_for(&plan, &ex.catalog, &stats);
        let base_rows = est[b.index()].rows;
        let kept_rows = est[sel.index()].rows;
        assert!(
            kept_rows < base_rows,
            "fixture must actually filter: {kept_rows} vs {base_rows}"
        );
        let profiles = mpq_core::profile::profile_plan(&plan);
        let schemes = mpq_exec::assign_schemes(&plan).unwrap();
        let book = crate::pricing::PriceBook::paper_defaults(&ex.subjects, &[1.0]);
        let cost_with_select_at = |select_subject: SubjectId| {
            let mut assignment: HashMap<NodeId, SubjectId> =
                plan.postorder().into_iter().map(|id| (id, h)).collect();
            assignment.insert(sel, select_subject);
            cost_extended_plan(
                &plan,
                &assignment,
                &ex.catalog,
                &stats,
                &est,
                &profiles,
                &schemes,
                &book,
                user,
            )
        };
        // The predicate (d = 'stroke') only touches a plaintext
        // attribute, so the engine fuses when Select and Encrypt share
        // an assignee: priced at the filtered cardinality. A
        // cross-subject selection cannot fuse: full input priced.
        assert!(mpq_exec::fused_encrypt_child(&plan, sel).is_some());
        let same_subject = cost_with_select_at(h);
        let cross_subject = cost_with_select_at(user);
        let scheme = schemes.scheme_of(s);
        let tuple_secs = plan_tuple_ops(&plan, &est, &book) * book.tuple_op_secs;
        let fused_secs = tuple_secs + kept_rows * book.encrypt_secs(scheme);
        let unfused_secs = tuple_secs + base_rows * book.encrypt_secs(scheme);
        assert!(
            (same_subject.cpu_secs - fused_secs).abs() < 1e-9,
            "fused: expected {fused_secs}, got {}",
            same_subject.cpu_secs
        );
        assert!(
            (cross_subject.cpu_secs - unfused_secs).abs() < 1e-9,
            "unfused: expected {unfused_secs}, got {}",
            cross_subject.cpu_secs
        );
        assert!(same_subject.cpu_secs < cross_subject.cpu_secs);

        // A predicate the engine refuses to fuse (comparing the
        // encrypted attribute against another column) gets no credit
        // even at the same subject.
        let mut plan2 = QueryPlan::new();
        let b2 = plan2.add_base(hosp, vec![s, d]);
        let e2 = plan2.add(Operator::Encrypt { attrs: vec![s] }, vec![b2]);
        let sel2 = plan2.add(
            Operator::Select {
                pred: Expr::cmp(Expr::Col(s), mpq_algebra::CmpOp::Eq, Expr::Col(d)),
            },
            vec![e2],
        );
        plan2.add(Operator::Project { attrs: vec![s, d] }, vec![sel2]);
        assert!(mpq_exec::fused_encrypt_child(&plan2, sel2).is_none());
        let est2 = crate::stats::estimates_for(&plan2, &ex.catalog, &stats);
        let profiles2 = mpq_core::profile::profile_plan(&plan2);
        let schemes2 = mpq_exec::assign_schemes(&plan2).unwrap();
        let assignment2: HashMap<NodeId, SubjectId> =
            plan2.postorder().into_iter().map(|id| (id, h)).collect();
        let cost2 = cost_extended_plan(
            &plan2,
            &assignment2,
            &ex.catalog,
            &stats,
            &est2,
            &profiles2,
            &schemes2,
            &book,
            user,
        );
        let base2 = est2[b2.index()].rows;
        let expect2 = plan_tuple_ops(&plan2, &est2, &book) * book.tuple_op_secs
            + base2 * book.encrypt_secs(schemes2.scheme_of(s));
        assert!(
            (cost2.cpu_secs - expect2).abs() < 1e-9,
            "unfusible same-subject selection must not earn the credit: \
             expected {expect2}, got {}",
            cost2.cpu_secs
        );
    }

    #[test]
    fn breakdown_adds_up() {
        let c1 = CostBreakdown {
            cpu: 1.0,
            io: 2.0,
            net: 3.0,
            time_secs: 4.0,
            cpu_secs: 3.5,
        };
        let c2 = CostBreakdown {
            cpu: 0.5,
            io: 0.5,
            net: 0.5,
            time_secs: 0.5,
            cpu_secs: 0.25,
        };
        let s = c1.add(&c2);
        assert_eq!(s.total(), 7.5);
        assert_eq!(s.time_secs, 4.5);
        assert_eq!(s.cpu_secs, 3.75);
    }
}

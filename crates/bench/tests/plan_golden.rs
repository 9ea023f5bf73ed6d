//! A golden over every plan the evaluation produces.
//!
//! `figure10_pin` holds the cumulative savings to half a point, which
//! cannot see one query's plan flip. This test can: for all 22 TPC-H
//! queries × {UA, UAPenc, UAPmix} it writes a canonical text of
//! everything the §5–§6 pipeline decides — `A_p` and Λ per node, the
//! chosen assignment, where the minimal extension put its
//! `Encrypt`/`Decrypt` operators and who runs them, the per-attribute
//! scheme, the Def. 6.1 clusters with their holders, and the exact
//! cost at twelve digits — and pins its SHA-256.
//!
//! Two tiers, as in `figure10_pin`: [`mpq_bench::sample_stats`] in the
//! default suite, the SF 1 [`mpq_bench::evaluation_stats`] behind
//! `#[ignore]` for the CI `figure10` job.
//!
//! A digest moves only when a plan moves. A refactoring that is meant
//! to keep every plan (the capability table of `mpq_core::capability`
//! was introduced under these two digests) leaves them alone; a
//! cost-model or capability change that *means* to move a plan re-pins
//! them in the same PR, after reading the diff of the canonical text (a
//! failing run leaves it in the system's temporary directory and says
//! where).

use mpq_algebra::stats::StatsCatalog;
use mpq_algebra::{AttrId, Operator, SubjectId};
use mpq_bench::{evaluation_stats, sample_stats};
use mpq_core::candidates::candidates;
use mpq_core::capability::CapabilityPolicy;
use mpq_crypto::sha256::sha256_hex;
use mpq_planner::{build_scenario, optimize, Scenario, Strategy};
use mpq_tpch::{query_plan, tpch_catalog, QUERY_COUNT};
use std::fmt::Write;

fn ids(attrs: impl IntoIterator<Item = AttrId>) -> String {
    let mut v: Vec<u32> = attrs.into_iter().map(|a| a.0).collect();
    v.sort_unstable();
    format!("{v:?}")
}

fn subjects(ss: &[SubjectId]) -> String {
    let mut v: Vec<usize> = ss.iter().map(|s| s.index()).collect();
    v.sort_unstable();
    format!("{v:?}")
}

/// Everything the pipeline decided for one query under one scenario,
/// every collection in a fixed order.
fn plan_text(stats: &StatsCatalog, q: usize, scenario: Scenario) -> String {
    let cat = tpch_catalog();
    let env = build_scenario(&cat, scenario);
    let plan = query_plan(&cat, q);
    let cap = CapabilityPolicy::tpch_evaluation();
    let cands = candidates(&plan, &cat, &env.policy, &env.subjects, &cap, true);
    let opt = optimize(&plan, &cat, stats, &env, &cap, Strategy::CostDp)
        .unwrap_or_else(|e| panic!("Q{q} {scenario:?}: {e}"));

    let mut out = String::new();
    writeln!(out, "Q{q} {}", scenario.name()).unwrap();
    for i in 0..plan.len() {
        writeln!(
            out,
            " n{i} ap={} lambda={}",
            ids(cands.ap[i].iter()),
            subjects(&cands.sets[i])
        )
        .unwrap();
    }
    let ext = &opt.extended;
    for id in ext.plan.postorder() {
        let node = ext.plan.node(id);
        let kids: Vec<usize> = node.children.iter().map(|c| c.index()).collect();
        let what = match &node.op {
            Operator::Encrypt { attrs } => format!("encrypt{}", ids(attrs.iter().copied())),
            Operator::Decrypt { attrs } => format!("decrypt{}", ids(attrs.iter().copied())),
            _ => "op".to_string(),
        };
        writeln!(
            out,
            " x{} {what} kids={kids:?} at={}",
            id.index(),
            ext.assignment[&id].index()
        )
        .unwrap();
    }
    let mut chosen: Vec<(usize, usize)> = opt
        .assignment
        .0
        .iter()
        .map(|(n, s)| (n.index(), s.index()))
        .collect();
    chosen.sort_unstable();
    writeln!(out, " assignment={chosen:?}").unwrap();
    let mut schemes: Vec<(u32, String)> = opt
        .schemes
        .iter()
        .map(|(a, s)| (a.0, format!("{s:?}")))
        .collect();
    schemes.sort();
    writeln!(out, " schemes={schemes:?}").unwrap();
    for k in &opt.keys.keys {
        writeln!(
            out,
            " k{} attrs={} holders={}",
            k.id,
            ids(k.attrs.iter()),
            subjects(&k.holders)
        )
        .unwrap();
    }
    writeln!(out, " cost={:.12e}", opt.cost.total()).unwrap();
    out
}

/// The canonical text of all 66 plans, queries optimized in parallel
/// and concatenated in query order.
fn canonical_text(stats: &StatsCatalog) -> String {
    let mut per_query = vec![String::new(); QUERY_COUNT];
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..=QUERY_COUNT)
            .map(|q| {
                s.spawn(move || {
                    Scenario::ALL
                        .iter()
                        .map(|scen| plan_text(stats, q, *scen))
                        .collect::<String>()
                })
            })
            .collect();
        for (slot, h) in per_query.iter_mut().zip(handles) {
            *slot = h.join().expect("worker");
        }
    });
    per_query.concat()
}

/// Compare the digest of `text` with its pin; on a mismatch leave the
/// text where the next run (parent or change) can be diffed against it.
fn assert_pinned(tier: &str, text: &str, pinned: &str) {
    let digest = sha256_hex(text.as_bytes());
    if digest != pinned {
        let path = std::env::temp_dir().join(format!("plan_golden_{tier}.txt"));
        std::fs::write(&path, text).expect("write the canonical text");
        panic!(
            "a plan moved under the {tier} statistics: digest {digest}, pinned {pinned}. The \
             canonical text is in {}; produce the parent's the same way and diff. Re-pin only \
             for a change that means to move a plan.",
            path.display()
        );
    }
}

/// SF 0.02 sampled statistics (tier 1).
const SAMPLE_DIGEST: &str = "29599550383514587288466f518a78f57f694b42842a3097e4c2e97905d50eb7";

/// SF 1 measured statistics (the `figure10` CI job).
const EVALUATION_DIGEST: &str = "a3f5f6c4dd52f1a55a81996cdbbc81e18a048b9a978cf8621936361d874f7452";

#[test]
fn every_plan_under_sample_statistics_is_pinned() {
    assert_pinned("sample", &canonical_text(sample_stats()), SAMPLE_DIGEST);
}

#[test]
#[ignore = "generates the full SF 1 database; run in release via the CI figure10 job \
            (cargo test -p mpq-bench --test plan_golden --release -- --include-ignored)"]
fn every_plan_under_evaluation_statistics_is_pinned() {
    assert_pinned(
        "evaluation",
        &canonical_text(evaluation_stats()),
        EVALUATION_DIGEST,
    );
}

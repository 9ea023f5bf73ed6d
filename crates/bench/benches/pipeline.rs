//! Criterion microbenchmarks for the authorization pipeline and the
//! cryptographic substrate (the per-operation costs feeding §7's
//! encryption cost estimates).

use criterion::{criterion_group, criterion_main, Criterion};
use mpq_algebra::value::EncScheme;
use mpq_algebra::Value;
use mpq_core::candidates::candidates;
use mpq_core::capability::CapabilityPolicy;
use mpq_core::extend::{minimally_extend, Assignment};
use mpq_core::fixtures::RunningExample;
use mpq_core::profile::profile_plan;
use mpq_crypto::keyring::ClusterKey;
use mpq_crypto::schemes::{decrypt_value, encrypt_value};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_profiles(c: &mut Criterion) {
    let cat = mpq_tpch::tpch_catalog();
    let plan = mpq_tpch::query_plan(&cat, 5);
    c.bench_function("profile_plan/tpch_q5", |b| {
        b.iter(|| profile_plan(std::hint::black_box(&plan)))
    });
}

fn bench_candidates(c: &mut Criterion) {
    let cat = mpq_tpch::tpch_catalog();
    let plan = mpq_tpch::query_plan(&cat, 5);
    let env = mpq_planner::build_scenario(&cat, mpq_planner::Scenario::UAPenc);
    let cap = CapabilityPolicy::tpch_evaluation();
    let mut g = c.benchmark_group("candidates/tpch_q5");
    g.bench_function("pruned", |b| {
        b.iter(|| candidates(&plan, &cat, &env.policy, &env.subjects, &cap, true))
    });
    g.bench_function("unpruned", |b| {
        b.iter(|| candidates(&plan, &cat, &env.policy, &env.subjects, &cap, false))
    });
    g.finish();
}

fn bench_extension(c: &mut Criterion) {
    let ex = RunningExample::new();
    let cands = candidates(
        &ex.plan,
        &ex.catalog,
        &ex.policy,
        &ex.subjects,
        &CapabilityPolicy::default(),
        false,
    );
    let mut a = Assignment::new();
    a.set(ex.node("select_d"), ex.subject("H"));
    a.set(ex.node("join"), ex.subject("X"));
    a.set(ex.node("group"), ex.subject("X"));
    a.set(ex.node("having"), ex.subject("Y"));
    c.bench_function("minimally_extend/fig7a", |b| {
        b.iter(|| {
            minimally_extend(
                &ex.plan,
                &ex.catalog,
                &ex.policy,
                &ex.subjects,
                &cands,
                &a,
                Some(ex.subject("U")),
            )
            .unwrap()
        })
    });
}

fn bench_optimizer(c: &mut Criterion) {
    let cat = mpq_tpch::tpch_catalog();
    let stats = mpq_bench::sample_stats();
    let env = mpq_planner::build_scenario(&cat, mpq_planner::Scenario::UAPenc);
    let plan = mpq_tpch::query_plan(&cat, 3);
    c.bench_function("optimize/tpch_q3_uapenc", |b| {
        b.iter(|| {
            mpq_planner::optimize(
                &plan,
                &cat,
                stats,
                &env,
                &CapabilityPolicy::tpch_evaluation(),
                mpq_planner::Strategy::CostDp,
            )
            .unwrap()
        })
    });
}

fn bench_crypto(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let key = ClusterKey::generate(&mut rng, 0, 512);
    let v = Value::Num(1234.56);
    let mut g = c.benchmark_group("encrypt_value");
    for scheme in [
        EncScheme::Deterministic,
        EncScheme::Random,
        EncScheme::Ope,
        EncScheme::Paillier,
    ] {
        g.bench_function(format!("{scheme:?}"), |b| {
            b.iter(|| encrypt_value(&mut rng, &v, scheme, &key).unwrap())
        });
    }
    g.finish();
    let enc = encrypt_value(&mut rng, &v, EncScheme::Deterministic, &key).unwrap();
    c.bench_function("decrypt_value/Deterministic", |b| {
        b.iter(|| decrypt_value(&enc, &key).unwrap())
    });
}

criterion_group!(
    benches,
    bench_profiles,
    bench_candidates,
    bench_extension,
    bench_optimizer,
    bench_crypto
);
criterion_main!(benches);

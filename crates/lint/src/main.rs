//! `mpq-lint` — dependency-free, token-scan enforcement of the repo
//! invariants CI gates on. The token rules are the rows of one table
//! (`RULES`: rule, tokens, scope, allowed-in, message) read by one loop;
//! what they are for:
//!
//! * **no-unwrap** — no `.unwrap()` in non-test library code of the
//!   execution hot paths (`crates/exec/src`, `crates/dist/src`): a
//!   panic inside a party's region or a server poisons the query, so
//!   fallibility must surface as typed errors (or a documented
//!   `expect` naming the invariant).
//! * **thread-discipline** — no `std::thread` spawning in engine code
//!   outside its one home, `dist/src/transport.rs`, for the TCP hub's
//!   accept loop and per-connection pumps: every thread must be owned
//!   by the hub's lifecycle. A session steps its parties on the calling
//!   thread, and the engine runs every batch whole on it.
//! * **determinism** — no wall-clock reads, no unseeded randomness and
//!   no environment reads in engine code (everything but the bench
//!   harness): the differential suites rely on runs being
//!   bit-reproducible from the seed alone. No engine file reads the
//!   environment.
//! * **net-confinement** — `std::net` (sockets, listeners) appears in
//!   exactly one file, `dist/src/transport.rs`, home of the one link
//!   cache and the one reading of a `FaultAction` under both the data
//!   plane and the coordinator's control plane: everything above it sees
//!   frames, a data-only mailbox and typed errors, so the in-proc and
//!   TCP links stay behaviorally interchangeable by construction.
//! * **one-edge-rule** — in `crates/dist/src`, the §6 edge rule has one
//!   home each: `audit_transfer(` is called only from the party core
//!   (`party.rs`), and the Def. 4.1 runtime check `view.check(`
//!   appears only in the shared query preparation (`session.rs`).
//!   Two drivers step one core; a second copy of the rule must not
//!   quietly come back. Nor may a second *cut*: the core runs
//!   Fig. 8 regions through `execute_region`, so the node-at-a-time
//!   entry points `execute_step(`, `effective_children(` and
//!   `fused_encrypt_child(` (kept exported for the frozen benchmark
//!   and the cost model) have no home in `crates/dist/src` at all.
//! * **columns-not-rows** — in `crates/exec/src` and `crates/dist/src`
//!   the row-shaped `Table` API (`from_rows(`, `to_rows(`,
//!   `push_row(`) stays out of the execution path: operators build
//!   their output by moving columns, and a transposition that comes
//!   back is a per-cell `Value` round trip on every tuple. The API's
//!   home is `exec/src/table.rs` (the loader), and the row oracle
//!   `exec/src/rowref.rs` is row-shaped on purpose. The same detour one
//!   column wide — `.into_values()` — stays out of `exec/src/engine.rs`:
//!   a cipher reads a column where it lies and writes one buffer.
//! * **independent-verifier** — `crates/core/src/verify.rs` re-derives
//!   what ciphertexts must support on its own (`collect_cap_demands`);
//!   that is the second version its N-version check compares
//!   `assign_schemes` against, so its non-test code may not mention
//!   `capability::`. The N-version stays N.
//! * **one-verifier-walk** — one verification is one walk: the passes
//!   of `crates/core/src/verify.rs` share one context and record the
//!   fuzzer's coverage as they decide it. A call of the retired second
//!   walk, the `coverage` function (its token spelled in halves), is a
//!   finding anywhere under `crates/`, and `explain_failure(` is one
//!   in `verify.rs` outside `pass_authorization`: a copy of a pass's
//!   loop kept for counting must not quietly come back.
//! * **one-capability-table** — operation → capability is stated once,
//!   in `core/src/capability.rs`. The names of the copies it replaced
//!   (`fn guess_schemes`, `fn expr_caps`, `fn walk_cmp`,
//!   `plaintext_required`) are findings anywhere under `crates/`: a
//!   second statement of the rule must not quietly come back.
//! * **column-evaluator** — operators evaluate expressions a column at
//!   a time (`eval_mask` / `eval_column`), a join's residual included
//!   (a mask over its candidate pairs). The row walk is the oracle's
//!   own: `RowCtx::` and `eval_pred(` are findings anywhere under
//!   `crates/` outside `exec/src/rowref.rs` (N-version on purpose, like
//!   the verifier), and the per-row context over a batch the operators
//!   once used (`RowCtx`'s `batch(` constructor) is one even there — a
//!   per-row tree walk must not quietly come back. Nor may owned
//!   keys: ⋈ and γ hash key *columns* and compare candidates where they
//!   lie (the key table), so `GroupKey` anywhere in
//!   `exec/src/engine.rs` is a finding.
//! * **one-form-per-pair** — the plan fixes the form of both sides of
//!   every join condition (`core/src/extend.rs` encrypts a plaintext
//!   side whose partner arrives encrypted), and the engine only refuses
//!   a pair whose forms differ. The names of the on-the-fly
//!   reconciliation it replaced (the fix decision, its cipher pair, the
//!   fixed column and the fixed cell; their tokens spelled in halves)
//!   are findings anywhere under `crates/`: the engine must not quietly
//!   decide a form again.
//! * **one-agg-scope** — the γ a `HAVING` predicate or a sort key
//!   stands on is found by `QueryPlan::agg_scope` and nowhere else.
//!   `through_crypto(`, the building block every hand-written copy of
//!   that walk used, is a finding outside `algebra/src/plan.rs` and the
//!   cardinality debug assertion in `planner/src/stats.rs`
//!   (`estimates_for`), and so are the names of the copies and of the
//!   `A_p`-override entry points retired with them: thirteen look-ups
//!   in three variants must not quietly come back.
//! * **one-extension** — Def. 5.4 has one walk, in
//!   `core/src/extend.rs`, and every §5 strategy is an input of it:
//!   `splice_above(` is a finding in non-test code under `crates/`
//!   outside that file, `algebra/src/plan.rs` (where it is defined)
//!   and `algebra/src/builder.rs` (`prune_columns`). A second
//!   extension walk must not quietly come back.
//! * **one-session-driver** — a `Session` has one driver,
//!   `Session::execute`, walking the Fig. 8 regions on the calling
//!   thread. The name of the party-thread scheduler it replaced (its
//!   token spelled in halves) is a finding anywhere under `crates/`:
//!   a second, threaded session driver must not quietly come back.
//! * **one-thread-per-query** — the engine, the receive audit and the
//!   party core process every batch whole on the calling thread. The
//!   names of the worker pool's knobs and of its row splitter (the
//!   environment variable, the session builder method, the range
//!   mapper; their tokens spelled in halves) are findings anywhere
//!   under `crates/` (a string literal is stripped before the scan, so
//!   reading the variable is the determinism rule's `env::var`
//!   finding): intra-operator parallelism must not quietly come back.
//! * **one-montgomery-engine** — modular arithmetic runs on one
//!   fixed-width engine over `[u64; N]` values (`crypto/src/bignum.rs`:
//!   a CIOS product, an SOS square, a sliding-window power). The names
//!   of the slice kernels and the fixed-window ladder it replaced (their
//!   tokens spelled in halves) are findings anywhere under `crates/`: a
//!   second kernel beside the engine must not quietly grow back.
//! * **one-ope-run** — an OPE column is encrypted one way,
//!   `OpeKey::encrypt_run` (`crypto/src/ope.rs`): each distinct code
//!   descended once, in ascending order, by a stateless call. The names
//!   of the stateful encryptor, its memo and the per-run wrapper it
//!   replaced (their tokens spelled in halves) are findings anywhere
//!   under `crates/`: a second, cached path to an OPE cell must not
//!   quietly grow back.
//!
//! Two rules read more than one line at a time:
//!
//! * **pub-has-a-caller** — a non-test `pub fn`, `pub const` or `pub
//!   static` in `algebra`, `core`, `crypto`, `exec`, `planner` or `dist`
//!   (the shared fixture `core/src/fixtures.rs` exempt) is used by the
//!   non-test code of another file — any crate's `src` or `benches`,
//!   `src/`, `examples/` — or anywhere in `benchmark/src`, its tests
//!   included, since the frozen benchmark must keep building. A `pub
//!   fn` is used where it is called or named by path (`name(`,
//!   `name::<`, `::name`, but not the module of `::name::`), so a local,
//!   a field or a module spelt like it is no caller; a `pub const` or
//!   `pub static` is used where its name appears as a token. A `pub
//!   use` re-export and a definition of the same name are not callers.
//!   Otherwise the item is private or `pub(crate)`, where rustc's
//!   `dead_code` sees it, or it has a line on `CALLER_ALLOW` (at most
//!   20) naming the test that drives behaviour through it that no other
//!   entry point exposes; an allow-list line that clears nothing is a
//!   finding too. The rule never flags an item that has a caller, but a
//!   method sharing its name with a std method (`len`, `is_empty`) is
//!   cleared by every call of that method.
//! * **tests-last** — under `crates/*/src` and `src/`, no non-test code
//!   follows a file's first `#[cfg(test)]`: `scripts/code_lines.sh`
//!   counts each file up to that line, so code below it would go
//!   uncounted.
//!
//! The scan strips comments and string literals and skips
//! `#[cfg(test)]` modules, so documentation and tests may freely
//! `unwrap()`. No dependencies: the linter must never be the thing
//! that breaks the build.

use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Engine code: everything but the bench harness, the fuzzer and this
/// linter (the harness drives load threads and reads the clock by
/// design). The six library crates come first.
const ENGINE: &[&str] = &[
    "crates/algebra/src",
    "crates/core/src",
    "crates/crypto/src",
    "crates/exec/src",
    "crates/dist/src",
    "crates/planner/src",
    "crates/tpch/src",
    "crates/server/src",
    "src",
];

/// The execution path: the engine and the distributed runtime.
const EXECUTION: &[&str] = &["crates/exec/src", "crates/dist/src"];
const DIST: &[&str] = &["crates/dist/src"];
const ENGINE_RS: &str = "crates/exec/src/engine.rs";
const ROWREF_RS: &str = "crates/exec/src/rowref.rs";
const AUDIT_RS: &str = "crates/dist/src/audit.rs";
const VERIFY_RS: &str = "crates/core/src/verify.rs";
const LINT: &str = "crates/lint";

/// The library crates whose `pub` fns, consts and statics need a caller
/// outside their own file (pub-has-a-caller): the first six of
/// [`ENGINE`].
const LIBRARIES: &[&str] = ENGINE.split_at(6).0;
/// The shared fixture of tests, examples and the benchmark: exempt.
const FIXTURES_RS: &str = "crates/core/src/fixtures.rs";
/// The frozen benchmark: every line a caller, its tests included.
const BENCHMARK: &str = "benchmark/src";

/// `(file, item, test)`: a `pub` item whose only caller outside its file
/// is `test`, which drives or observes behaviour through it that no
/// other entry point exposes.
type Allow<'a> = (&'a str, &'a str, &'a str);
/// pub-has-a-caller's allow-list: at most 20 lines.
#[rustfmt::skip]
const CALLER_ALLOW: &[Allow] = &[
    ("crates/algebra/src/stats.rs", "with_defaults", "mpq-planner's cost::tests::noop_reencryption_not_double_counted"),
    ("crates/core/src/authz.rs", "violations", "tests/properties.rs::def_4_1_readings_agree"),
    ("crates/core/src/candidates.rs", "min_required_view", "tests/paper_figures.rs::fig6_minimum_required_views"),
    ("crates/core/src/profile.rs", "footprint", "tests/properties.rs::theorem_3_1"),
    ("crates/crypto/src/sha256.rs", "sha256_hex", "crates/bench/tests/plan_golden.rs::every_plan_under_sample_statistics_is_pinned"),
    ("crates/dist/src/remote.rs", "set_peers", "tests/coordinator_differential.rs::coordinator_matches_both_session_schedulers"),
    ("crates/dist/src/session.rs", "set_faults", "tests/chaos_soak.rs::chaos_soak_never_returns_a_wrong_answer"),
    ("crates/dist/src/session.rs", "cached_clusters", "tests/session_reuse.rs::session_queries_match_fresh_session_runs"),
    ("crates/dist/src/session.rs", "revoke_key", "tests/session_reuse.rs::revoke_forces_reprovisioning"),
    ("crates/dist/src/session.rs", "holds_key", "tests/session_reuse.rs::revoke_forces_reprovisioning"),
    ("crates/dist/src/session.rs", "stored_relations", "tests/distributed.rs::base_relations_stay_with_their_authorities"),
    ("crates/exec/src/engine.rs", "batch_rows", "tests/tpch_pipeline.rs::all_22_plans_match_the_row_oracle_under_tiny_batches"),
    ("crates/exec/src/table.rs", "dictionary_codes", "tests/session_reuse.rs::revoked_keys_leave_no_ciphertext_behind"),
    ("crates/exec/src/rowref.rs", "with_agg_base", "crates/exec/tests/expr_differential.rs::column_evaluator_matches_the_row_walk"),
    ("crates/exec/src/rowref.rs", "eval_pred", "crates/exec/tests/string_cells.rs::string_predicates_at_word_boundaries_are_the_row_walk"),
];
const _: () = assert!(
    CALLER_ALLOW.len() <= 20,
    "the allow-list holds at most 20 lines"
);

/// One row of a rule: `tokens` are findings in non-test code under
/// `scope` (files or trees; everywhere under `crates/` and `src` when
/// empty), except in the files `allowed_in` and — the optional column —
/// in the one function `(file, fn)` of `allowed_fn`.
type Site = (
    &'static [&'static str],
    &'static [&'static str],
    &'static [&'static str],
    Option<(&'static str, &'static str)>,
);

/// A token rule: its name, what a finding says (`{t}` is the token) and
/// the rows stating where which tokens are findings. A line is reported
/// once per rule, for the first token found.
struct Rule {
    name: &'static str,
    message: &'static str,
    sites: &'static [Site],
}

/// Every token rule, one row per site, read by the one loop in
/// [`lint_source`]. Retired names are spelled in two halves, so that a
/// search for them under `crates/` comes back empty.
#[rustfmt::skip]
const RULES: &[Rule] = &[
    Rule {
        name: "no-unwrap",
        message: "`{t}` in hot-path library code — return a typed error or use \
                  `.expect(\"<invariant>\")`",
        sites: &[(&[".unwrap()"], EXECUTION, &[], None)],
    },
    Rule {
        name: "thread-discipline",
        message: "`{t}` outside transport.rs — threads must be owned by the TCP hub",
        // `transport.rs` earns its slot with the `TcpHub` accept loop
        // and its per-connection pumps, both owned by the hub's
        // lifecycle (joined/detached on drop, never free-floating).
        sites: &[
            (&["thread::spawn", "thread::scope", "thread::Builder"], ENGINE,
             &["crates/dist/src/transport.rs"], None),
        ],
    },
    Rule {
        name: "determinism",
        message: "`{t}` in engine code — runs must be reproducible from the seed alone",
        // An environment read is ambient input exactly like a wall-clock
        // read.
        sites: &[(&["Instant::now", "SystemTime::now", "thread_rng", "from_entropy", "rand::random",
                    "env::var"], ENGINE, &[], None)],
    },
    Rule {
        name: "one-edge-rule",
        message: "`{t}` outside its one home in mpq-dist — the §6 edge rule is stated once \
                  (the audit in party.rs, the Def. 4.1 check in session.rs: schedulers call \
                  the party core / the shared preparation), and a step is a Fig. 8 region \
                  the party core runs through `execute_region` only",
        // `audit.rs` defines the audit; the node-at-a-time engine entry
        // points have no home in `crates/dist/src` at all.
        sites: &[
            (&["audit_transfer("], DIST, &[AUDIT_RS, "crates/dist/src/party.rs"], None),
            (&["view.check("], DIST, &[AUDIT_RS, "crates/dist/src/session.rs"], None),
            (&["execute_step(", "effective_children(", "fused_encrypt_child("], DIST, &[AUDIT_RS], None),
        ],
    },
    Rule {
        name: "columns-not-rows",
        message: "`{t}` in the execution path — operators move columns (slice/filter/gather/\
                  append, or a cipher's column entry); rows and per-cell `Value` detours \
                  belong to the loader, the oracle and tests",
        // The row API's home (and loader) and the row oracle are row-
        // shaped; `batch.rs` takes a column apart to degrade it.
        sites: &[
            (&["from_rows(", "to_rows(", "push_row("], EXECUTION,
             &["crates/exec/src/table.rs", ROWREF_RS], None),
            (&[".into_values()"], &[ENGINE_RS], &[], None),
        ],
    },
    Rule {
        name: "independent-verifier",
        message: "`{t}` in the verifier — it derives capability demands on its own so that \
                  it can disagree with `assign_schemes`",
        sites: &[(&["capability::"], &["crates/core/src/verify.rs"], &[], None)],
    },
    Rule {
        name: "one-verifier-walk",
        message: "`{t}` — one verification is one walk: the passes record the coverage they \
                  decide (`VerifyReport::coverage`), and Def. 4.1 is explained in the \
                  authorization pass only",
        sites: &[
            (&[concat!("cover", "age(")], &[], &[], None),
            (&["explain_failure("], &[VERIFY_RS], &[], Some((VERIFY_RS, "pass_authorization"))),
        ],
    },
    Rule {
        name: "one-capability-table",
        message: "`{t}` — what an operation needs of a ciphertext is stated once, by \
                  `mpq_core::capability::demands`; filter its demands instead",
        sites: &[(&["fn guess_schemes", "fn expr_caps", "fn walk_cmp", "plaintext_required"], &[], &[], None)],
    },
    Rule {
        name: "column-evaluator",
        message: "`{t}`: rows or owned cells under an operator — expressions run a column at \
                  a time (`eval_mask` / `eval_column`, a join's residual as a mask over its \
                  candidate pairs) and hash operators read keys where they lie (the key \
                  table); only the oracle walks rows and keeps `GroupKey`s",
        sites: &[
            (&[concat!("RowCtx::", "batch(")], &[], &[], None),
            (&["RowCtx::", "eval_pred("], &[], &[ROWREF_RS], None),
            (&["GroupKey"], &[ENGINE_RS], &[], None),
        ],
    },
    Rule {
        name: "one-form-per-pair",
        message: "`{t}` — the plan fixes the form of both sides of a join condition (an \
                  `Encrypt` spliced below the join by `mpq_core::extend`); the engine \
                  refuses a pair whose forms differ and never decides one",
        sites: &[(&[concat!("fn decide_", "form_fix"), concat!("Form", "Fix"), concat!("fn fixed_", "column"),
                    concat!("fn fixed_", "cell")], &[], &[], None)],
    },
    Rule {
        name: "net-confinement",
        message: "`{t}` outside transport.rs — sockets are confined to the Transport seam so \
                  backends stay interchangeable",
        sites: &[(&["std::net", "TcpListener", "TcpStream"], ENGINE, &["crates/dist/src/transport.rs"], None)],
    },
    Rule {
        name: "one-agg-scope",
        message: "`{t}` — the γ a HAVING or a sort stands on is found in one place: call \
                  `QueryPlan::agg_scope` (and `AggScope::resolve`) instead",
        sites: &[
            (&["through_crypto("], &[], &["crates/algebra/src/plan.rs"],
             Some(("crates/planner/src/stats.rs", "estimates_for"))),
            (&[concat!("resolve_", "agg_refs"), concat!("sort_", "agg_base"), concat!("fn having_", "aggs"),
               concat!("candidates_with_", "overrides")], &[], &[], None),
        ],
    },
    Rule {
        name: "one-extension",
        message: "`{t}` outside the one extension walk — a §5 strategy is an input of \
                  `mpq_core::extend`, not a second copy of its splices",
        sites: &[(&["splice_above("], &[], &["crates/core/src/extend.rs", "crates/algebra/src/plan.rs",
                 "crates/algebra/src/builder.rs"], None)],
    },
    Rule {
        name: "one-session-driver",
        message: "`{t}` — a session has one driver, `Session::execute`, which walks the \
                  Fig. 8 regions on the calling thread; no party-thread scheduler beside it",
        sites: &[(&[concat!("Party", "Threads")], &[], &[], None)],
    },
    Rule {
        name: "one-thread-per-query",
        message: "`{t}` — the engine, the receive audit and the party core process every \
                  batch whole on the calling thread; no worker pool splits an operator's rows",
        sites: &[(&[concat!("MPQ_", "WORKERS"), concat!("map_", "ranges"), concat!("with_", "workers")],
                  &[], &[], None)],
    },
    Rule {
        name: "one-montgomery-engine",
        message: "`{t}` — modular arithmetic runs on the one fixed-width Montgomery engine \
                  (`Engine<N>` in crypto/src/bignum.rs); no second kernel beside it",
        sites: &[(&[concat!("fn ci", "os"), concat!("fn sos_", "sqr"), concat!("struct Lad", "der"),
                    concat!("fn win", "dows")], &[], &[], None)],
    },
    Rule {
        name: "one-ope-run",
        message: "`{t}` — an OPE column is one stateless `OpeKey::encrypt_run` (each distinct \
                  code descended once, ascending); no stateful encryptor or memo beside it",
        sites: &[(&[concat!("struct Ope", "Encryptor"), concat!("struct Column", "Encryptor"),
                    concat!("fn memo_", "slot"), concat!("fn encry", "ptor")], &[], &[], None)],
    },
];

struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl Finding {
    fn at(file: &Path, line: usize, rule: &'static str, message: String) -> Finding {
        let file = file.to_path_buf();
        Finding {
            file,
            line,
            rule,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Strip `//` and nested `/* */` comments, string literals (including
/// raw strings), and char literals, preserving line structure so
/// findings keep real line numbers.
fn clean_source(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            '/' if b.get(i + 1).copied() == Some('/') => {
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
            }
            '/' if b.get(i + 1).copied() == Some('*') => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && b.get(i + 1).copied() == Some('*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1).copied() == Some('/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            out.push('\n');
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                // Ordinary string literal with escapes.
                i += 1;
                while i < b.len() {
                    if b[i] == '\\' {
                        i += 2;
                    } else if b[i] == '"' {
                        i += 1;
                        break;
                    } else {
                        if b[i] == '\n' {
                            out.push('\n');
                        }
                        i += 1;
                    }
                }
            }
            'r' if matches!(b.get(i + 1).copied(), Some('"' | '#')) => {
                // Raw string r"..." / r#"..."# / r##"..."## …
                let mut hashes = 0;
                let mut j = i + 1;
                while b.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                if b.get(j) == Some(&'"') {
                    i = j + 1;
                    'raw: while i < b.len() {
                        if b[i] == '"' {
                            let mut k = 0;
                            while k < hashes && b.get(i + 1 + k) == Some(&'#') {
                                k += 1;
                            }
                            if k == hashes {
                                i += 1 + hashes;
                                break 'raw;
                            }
                        }
                        if b[i] == '\n' {
                            out.push('\n');
                        }
                        i += 1;
                    }
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            '\'' => {
                // Char literal vs lifetime: a char literal closes with
                // a `'` one or two positions later (escapes included).
                if b.get(i + 1).copied() == Some('\\') {
                    i += 2; // skip the escape introducer
                    while i < b.len() && b[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                } else if b.get(i + 2).copied() == Some('\'') {
                    i += 3;
                } else {
                    out.push(c);
                    i += 1; // lifetime — keep scanning normally
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// Line classification of cleaned source: which lines belong to
/// `#[cfg(test)]` items (modules or functions).
fn test_lines(cleaned: &str) -> Vec<bool> {
    let lines: Vec<&str> = cleaned.lines().collect();
    let mut skip = vec![false; lines.len()];
    let mut depth: i64 = 0;
    let mut armed = false; // saw #[cfg(test)], waiting for the item
    let mut skipping_from: Option<i64> = None;
    for (n, line) in lines.iter().enumerate() {
        let trimmed = line.trim();
        if let Some(from) = skipping_from {
            skip[n] = true;
            depth += brace_delta(line);
            if depth <= from {
                skipping_from = None;
            }
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") {
            armed = true;
            depth += brace_delta(line);
            continue;
        }
        if armed {
            skip[n] = true;
            let opens = line.contains('{');
            let before = depth;
            depth += brace_delta(line);
            if opens {
                armed = false;
                if depth > before {
                    skipping_from = Some(before);
                } // else: one-line item, already closed
            } else if !trimmed.starts_with('#') && trimmed.ends_with(';') {
                armed = false; // e.g. `mod tests;` — out-of-line test file
            }
            continue;
        }
        depth += brace_delta(line);
    }
    skip
}

fn brace_delta(line: &str) -> i64 {
    line.chars()
        .map(|c| match c {
            '{' => 1,
            '}' => -1,
            _ => 0,
        })
        .sum()
}

fn in_scope(rel: &Path, scopes: &[&str]) -> bool {
    scopes.iter().any(|s| rel.starts_with(s))
}

fn visit(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            visit(&path, files);
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
}

/// The function name a declaration line introduces, if any.
fn fn_name(line: &str) -> Option<&str> {
    let idx = line.find("fn ")?;
    // Word boundary: reject `catch_fn ` and the like.
    if idx > 0 {
        let prev = line.as_bytes()[idx - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            return None;
        }
    }
    let rest = &line[idx + 3..];
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then_some(&rest[..end])
}

/// no-unbounded-retry: a function that names itself a retry or
/// reconnect path and contains a loop must consume an attempt budget —
/// an unbounded retry loop spins forever on a dead peer, which is
/// exactly the hang the recovery machinery exists to prevent. The
/// heuristic: the brace-balanced body must mention `attempt` (the
/// budget counters are all named `attempt`/`max_attempts`). Loop-free
/// retry functions (builders, policy setters) are exempt.
fn lint_retry_budgets(rel: &Path, cleaned: &str, skip: &[bool], findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = cleaned.lines().collect();
    let mut n = 0;
    while n < lines.len() {
        if skip.get(n).copied().unwrap_or(false) {
            n += 1;
            continue;
        }
        let Some(name) = fn_name(lines[n]) else {
            n += 1;
            continue;
        };
        if !(name.contains("retry") || name.contains("reconnect")) {
            n += 1;
            continue;
        }
        let (decl, name) = (n, name.to_string());
        let mut depth = 0i64;
        let mut opened = false;
        let mut has_budget = false;
        let mut has_loop = false;
        while n < lines.len() {
            if lines[n].contains("attempt") {
                has_budget = true;
            }
            if lines[n].contains("loop") || lines[n].contains("while ") {
                has_loop = true;
            }
            depth += brace_delta(lines[n]);
            opened |= lines[n].contains('{');
            if opened && depth <= 0 {
                break;
            }
            n += 1;
        }
        if has_loop && !has_budget {
            let message = format!(
                "`fn {name}` never consumes an attempt budget — every retry/reconnect loop \
                 must be bounded (count attempts against RetryPolicy::max_attempts)"
            );
            findings.push(Finding::at(rel, decl + 1, "no-unbounded-retry", message));
        }
        n += 1;
    }
}

/// Every seed file under `tests/fuzz_corpus/` must be referenced by
/// name from some test under `tests/` — a corpus entry nobody replays
/// is a regression test that silently stopped existing. The scan runs
/// over *raw* sources (not [`clean_source`]d ones): the references
/// live inside `include_str!("fuzz_corpus/…")` string literals, which
/// cleaning would strip.
fn lint_fuzz_corpus(root: &Path, findings: &mut Vec<Finding>) {
    let corpus = root.join("tests/fuzz_corpus");
    let Ok(entries) = std::fs::read_dir(&corpus) else {
        return;
    };
    let mut seeds: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    seeds.sort();
    let mut test_sources = String::new();
    if let Ok(tests) = std::fs::read_dir(root.join("tests")) {
        for t in tests.flatten() {
            let p = t.path();
            if p.extension().is_some_and(|e| e == "rs") {
                if let Ok(src) = std::fs::read_to_string(&p) {
                    test_sources.push_str(&src);
                }
            }
        }
    }
    for seed in seeds {
        let Some(name) = seed.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !test_sources.contains(name) {
            let message = format!(
                "corpus seed `{name}` is not referenced by any test under tests/ — add a \
                 replay to tests/fuzz_regression.rs or delete the seed"
            );
            let file = seed.strip_prefix(root).unwrap_or(&seed);
            findings.push(Finding::at(file, 1, "no-orphaned-seeds", message));
        }
    }
}

/// One source file as the rules read it: its path from the root, its
/// [`clean_source`]d text, and which lines are test code.
struct Source {
    rel: PathBuf,
    cleaned: String,
    skip: Vec<bool>,
}

impl Source {
    /// In the frozen benchmark no line counts as test code: its tests
    /// must keep building too.
    fn new(rel: &Path, src: &str) -> Source {
        let (rel, cleaned) = (rel.to_path_buf(), clean_source(src));
        let skip = (!rel.starts_with(BENCHMARK)).then(|| test_lines(&cleaned));
        let skip = skip.unwrap_or_default();
        Source { rel, cleaned, skip }
    }

    /// The non-test lines, with their 0-based numbers.
    fn code_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        let test = |n: usize| self.skip.get(n).copied().unwrap_or(false);
        self.cleaned
            .lines()
            .enumerate()
            .filter(move |(n, _)| !test(*n))
    }
}

/// The name a `pub fn`, `pub const` or `pub static` line declares, if
/// any (`pub(crate)` and narrower declare none), and whether it is a
/// `fn`.
fn pub_item(line: &str) -> Option<(&str, bool)> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let (kind, rest) = ["fn ", "const fn ", "const ", "static mut ", "static "]
        .iter()
        .find_map(|k| Some((k, rest.strip_prefix(k)?)))?;
    let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
    let name = &rest[..end.unwrap_or(rest.len())];
    (!name.is_empty() && name != "_").then_some((name, kind.ends_with("fn ")))
}

/// What the non-test lines of one file name outside `pub use`
/// re-exports, leaving out the name each `fn` / `const` / `static`
/// defines: every identifier, and the subset it calls or names by path.
struct Uses<'a> {
    names: HashSet<&'a str>,
    calls: HashSet<&'a str>,
}

/// The [`Uses`] of `src`. A word is called as `name(` or `name::<`, or
/// named by path as `::name` — but not as the module of a longer path
/// (`::name::`), so a local, a field or a module spelt like a `pub fn`
/// does not count as its caller.
fn used_names(src: &Source) -> Uses<'_> {
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut uses = Uses {
        names: HashSet::new(),
        calls: HashSet::new(),
    };
    let mut in_pub_use = false;
    for (_, line) in src.code_lines() {
        let t = line.trim_start();
        in_pub_use |= t.starts_with("pub use ") || (t.starts_with("pub(") && t.contains(") use "));
        if in_pub_use {
            in_pub_use = !line.contains(';');
            continue;
        }
        let (mut rest, mut prev) = (line, "");
        while let Some(start) = rest.find(is_word) {
            let (before, tail) = rest.split_at(start);
            let (word, after) = tail.split_at(tail.find(|c| !is_word(c)).unwrap_or(tail.len()));
            if !matches!(prev, "fn" | "const" | "static") {
                uses.names.insert(word);
                let path = before.ends_with("::") && !after.starts_with("::");
                if path || after.starts_with('(') || after.starts_with("::<") {
                    uses.calls.insert(word);
                }
            }
            (rest, prev) = (after, word);
        }
    }
    uses
}

/// pub-has-a-caller: every non-test `pub fn` of a [`LIBRARIES`] crate
/// is called or named by path by another of the `sources`, and every
/// `pub const` / `pub static` is named by one ([`used_names`]), or the
/// item has a line of `allow`. An `allow` line that clears nothing is a
/// finding too.
fn lint_pub_callers(sources: &[&Source], allow: &[Allow], findings: &mut Vec<Finding>) {
    let used: Vec<Uses> = sources.iter().map(|s| used_names(s)).collect();
    let mut cleared = vec![false; allow.len()];
    for (i, src) in sources.iter().enumerate() {
        if !in_scope(&src.rel, LIBRARIES) || src.rel == Path::new(FIXTURES_RS) {
            continue;
        }
        let items = src
            .code_lines()
            .filter_map(|(n, l)| Some((n, pub_item(l)?)));
        for (n, (name, is_fn)) in items {
            let named = |u: &Uses| if is_fn { &u.calls } else { &u.names }.contains(name);
            if (used.iter().enumerate()).any(|(j, uses)| j != i && named(uses)) {
                continue;
            }
            let entry = |&(f, item, _): &Allow| src.rel == Path::new(f) && item == name;
            if let Some(e) = allow.iter().position(entry) {
                cleared[e] = true;
                continue;
            }
            let message = format!(
                "`pub` item `{name}` has no caller outside its file — make it private or \
                 `pub(crate)`, delete it, move it into the test that runs it, or allow-list the \
                 test that needs it"
            );
            findings.push(Finding::at(&src.rel, n + 1, "pub-has-a-caller", message));
        }
    }
    for ((file, item, test), _) in allow.iter().zip(cleared).filter(|(_, c)| !c) {
        let message = format!("allow-list line `{item}` (for {test}) clears nothing — delete it");
        findings.push(Finding::at(Path::new(file), 1, "pub-has-a-caller", message));
    }
}

/// tests-last: no non-test line follows a file's first `#[cfg(test)]`,
/// so `scripts/code_lines.sh` (which counts up to it) counts every one.
fn lint_tests_last(src: &Source, findings: &mut Vec<Finding>) {
    let is_cfg_test = |l: &str| l.trim_start().starts_with("#[cfg(test)]");
    let Some(first) = src.cleaned.lines().position(is_cfg_test) else {
        return;
    };
    let late = src
        .code_lines()
        .find(|&(n, l)| n > first && !l.trim().is_empty() && !is_cfg_test(l));
    if let Some((n, _)) = late {
        let message = format!(
            "non-test code after the first `#[cfg(test)]` (line {}) — move it above, so the \
             code-line recipe counts it",
            first + 1
        );
        findings.push(Finding::at(&src.rel, n + 1, "tests-last", message));
    }
}

/// Every rule over the repo at `root`: the number of files the per-file
/// rules scanned, and the findings.
fn lint_repo(root: &Path) -> (usize, Vec<Finding>) {
    let mut members: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .map(|e| e.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    members.sort();
    // Every `.rs` file under each member's `sub` and under `extra`.
    let read = |sub: &str, extra: &[&str]| -> Vec<Source> {
        let mut files = Vec::new();
        let dirs = members.iter().map(|m| m.join(sub));
        for dir in dirs.chain(extra.iter().map(|e| root.join(e))) {
            visit(&dir, &mut files);
        }
        let text = |f| Some((f, std::fs::read_to_string(f).ok()?));
        let sources = files.iter().filter_map(text);
        sources
            .map(|(f, src)| Source::new(f.strip_prefix(root).unwrap_or(f), &src))
            .collect()
    };
    let linted = read("src", &["src"]);
    let more = read("benches", &["examples", BENCHMARK]);
    // The linter does not lint itself with the token rules, nor call
    // anything: its scopes never include crates/lint, and its tables
    // would self-match.
    let own = |s: &&Source| s.rel.starts_with(LINT);
    let mut findings = Vec::new();
    for src in &linted {
        lint_tests_last(src, &mut findings);
        if !own(&src) {
            lint_source(src, &mut findings);
        }
    }
    let callers: Vec<&Source> = linted.iter().chain(&more).filter(|s| !own(s)).collect();
    lint_pub_callers(&callers, CALLER_ALLOW, &mut findings);
    lint_fuzz_corpus(root, &mut findings);
    (linted.len(), findings)
}

/// Every per-file token rule over `src`.
fn lint_source(src: &Source, findings: &mut Vec<Finding>) {
    let rel = src.rel.as_path();
    if in_scope(rel, ENGINE) {
        lint_retry_budgets(rel, &src.cleaned, &src.skip, findings);
    }
    let mut current_fn = None;
    for (n, line) in src.code_lines() {
        current_fn = fn_name(line).or(current_fn);
        for rule in RULES {
            let found = rule
                .sites
                .iter()
                .find_map(|(tokens, scope, allowed_in, allowed_fn)| {
                    let applies = (scope.is_empty() || in_scope(rel, scope))
                        && !allowed_in.iter().any(|f| rel == Path::new(f))
                        && !allowed_fn.is_some_and(|(f, name)| {
                            rel == Path::new(f) && current_fn == Some(name)
                        });
                    tokens.iter().find(|t| applies && line.contains(**t))
                });
            if let Some(t) = found {
                let message = rule.message.replace("{t}", t);
                findings.push(Finding::at(rel, n + 1, rule.name, message));
            }
        }
    }
}

fn main() {
    // Run from the workspace root (CI does; locally `cargo run -p
    // mpq-lint` sets cwd to the invocation dir, so fall back to the
    // manifest's grandparent when `crates/` is not beside us).
    let root = if Path::new("crates").is_dir() {
        PathBuf::from(".")
    } else {
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .parent()
            .and_then(Path::parent)
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."))
    };
    if !root.join("crates").is_dir() {
        eprintln!("mpq-lint: no crates/ directory under {}", root.display());
        std::process::exit(2);
    }
    let (scanned, findings) = lint_repo(&root);
    for f in &findings {
        println!("{f}");
    }
    let count = findings.len();
    println!("mpq-lint: {scanned} file(s) scanned, {count} finding(s)");
    if !findings.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_stripped() {
        let src = r##"
let a = "x.unwrap()"; // .unwrap() here too
/* thread::spawn */
let msg = r#"Instant::now"#;
let real = value.unwrap();
"##;
        let cleaned = clean_source(src);
        assert_eq!(cleaned.matches(".unwrap()").count(), 1);
        assert!(!cleaned.contains("thread::spawn"));
        assert!(!cleaned.contains("Instant::now"));
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = "
fn lib() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
fn lib2() { z.unwrap(); }
";
        let cleaned = clean_source(src);
        let skip = test_lines(&cleaned);
        let lines: Vec<&str> = cleaned.lines().collect();
        let flagged: Vec<&str> = lines
            .iter()
            .zip(&skip)
            .filter(|(l, &s)| !s && l.contains(".unwrap()"))
            .map(|(l, _)| *l)
            .collect();
        assert_eq!(flagged.len(), 2, "{flagged:?}");
        assert!(flagged.iter().all(|l| l.contains("lib")));
    }

    #[test]
    fn char_literals_do_not_break_the_scanner() {
        let src = "let c = '\"'; let d = '\\n'; let e: &'static str = x; y.unwrap();";
        let cleaned = clean_source(src);
        assert!(cleaned.contains(".unwrap()"));
    }

    #[test]
    fn unbounded_retry_loops_are_flagged_and_budgeted_ones_pass() {
        let src = "
fn retry_forever(x: u32) {
    loop {
        if send(x) {
            return;
        }
    }
}
fn send_with_retry(x: u32) -> bool {
    let mut attempt = 0;
    loop {
        attempt += 1;
        if send(x) || attempt >= max_attempts {
            return attempt < max_attempts;
        }
    }
}
fn reconnect_unbudgeted() {
    while !dial() {}
}
fn retry(mut self, retry: RetryPolicy) -> Self {
    self.retry = retry;
    self
}
#[cfg(test)]
mod tests {
    fn retry_in_tests_is_fine() { loop {} }
}
";
        let cleaned = clean_source(src);
        let skip = test_lines(&cleaned);
        let mut findings = Vec::new();
        lint_retry_budgets(
            Path::new("crates/dist/src/x.rs"),
            &cleaned,
            &skip,
            &mut findings,
        );
        let flagged: Vec<String> = findings.iter().map(|f| f.message.clone()).collect();
        assert_eq!(flagged.len(), 2, "{flagged:?}");
        assert!(flagged[0].contains("retry_forever"));
        assert!(flagged[1].contains("reconnect_unbudgeted"));
    }

    #[test]
    fn second_copies_of_the_edge_rule_are_flagged() {
        let src = "
fn scheduler(t: &Table, view: &SubjectView) -> Result<(), SimError> {
    audit_transfer(t, view)?;
    view.check(&profile)?;
    let table = execute_step(plan, id, &mut results, &ctx)?;
    Ok(())
}
#[cfg(test)]
mod tests {
    fn t() { audit_transfer(t, view).unwrap(); execute_step(p, id, r, c); }
}
";
        let rules_in = |file: &str| {
            let mut findings = Vec::new();
            lint_source(&Source::new(Path::new(file), src), &mut findings);
            findings
                .iter()
                .filter(|f| f.rule == "one-edge-rule")
                .map(|f| f.line)
                .collect::<Vec<_>>()
        };
        // A scheduler restating either half of the rule is flagged…
        assert_eq!(rules_in("crates/dist/src/runtime.rs"), vec![3, 4, 5]);
        // …each half is at home in exactly one file, a node-at-a-time
        // step in none…
        assert_eq!(rules_in("crates/dist/src/party.rs"), vec![4, 5]);
        assert_eq!(rules_in("crates/dist/src/session.rs"), vec![3, 5]);
        // …and the definition site and other crates are out of scope.
        assert!(rules_in("crates/dist/src/audit.rs").is_empty());
        assert!(rules_in("crates/core/src/authz.rs").is_empty());
    }

    #[test]
    fn rows_in_the_execution_path_are_flagged() {
        let src = "
fn join_output(schema: TableSchema, rows: Vec<Vec<Value>>) -> Table {
    let mut t = Table::from_rows(schema.attrs().to_vec(), rows);
    t.push_row(pad);
    for row in t.to_rows() {}
    t
}
#[cfg(test)]
mod tests {
    fn t() { assert_eq!(Table::from_rows(a, r).to_rows(), r); }
}
";
        let lines_in = |file: &str| {
            let mut findings = Vec::new();
            lint_source(&Source::new(Path::new(file), src), &mut findings);
            findings
                .iter()
                .filter(|f| f.rule == "columns-not-rows")
                .map(|f| f.line)
                .collect::<Vec<_>>()
        };
        assert_eq!(lines_in("crates/exec/src/engine.rs"), vec![3, 4, 5]);
        assert_eq!(lines_in("crates/dist/src/codec.rs"), vec![3, 4, 5]);
        // The API's home, the oracle, and crates outside the execution
        // path (loaders, checkers) are out of scope.
        assert!(lines_in("crates/exec/src/table.rs").is_empty());
        assert!(lines_in("crates/exec/src/rowref.rs").is_empty());
        assert!(lines_in("crates/tpch/src/gen.rs").is_empty());
    }

    #[test]
    fn a_column_taken_apart_in_the_engine_is_flagged() {
        let src = "
fn encrypt(col: ColumnVec) -> ColumnVec {
    let vals = col.into_values();
    ColumnVec::Val(vals)
}
#[cfg(test)]
mod tests {
    fn t(c: ColumnVec) { c.into_values(); }
}
";
        let lines_in = |file: &str| {
            let mut findings = Vec::new();
            lint_source(&Source::new(Path::new(file), src), &mut findings);
            findings
                .iter()
                .filter(|f| f.rule == "columns-not-rows")
                .map(|f| f.line)
                .collect::<Vec<_>>()
        };
        assert_eq!(lines_in("crates/exec/src/engine.rs"), vec![3]);
        // `batch.rs` degrades through it; the oracle is row-shaped.
        assert!(lines_in("crates/exec/src/batch.rs").is_empty());
        assert!(lines_in("crates/exec/src/rowref.rs").is_empty());
    }

    #[test]
    fn the_verifier_may_not_import_the_capability_table() {
        let src = "
use crate::capability::demands;
fn collect_cap_demands() { let d = crate::capability::demands(plan, id); }
#[cfg(test)]
mod tests {
    use crate::capability::CapabilityPolicy;
}
";
        let lines_in = |file: &str| {
            let mut findings = Vec::new();
            lint_source(&Source::new(Path::new(file), src), &mut findings);
            findings
                .iter()
                .filter(|f| f.rule == "independent-verifier")
                .map(|f| f.line)
                .collect::<Vec<_>>()
        };
        assert_eq!(lines_in("crates/core/src/verify.rs"), vec![2, 3]);
        // Everyone else is *supposed* to call the table.
        assert!(lines_in("crates/core/src/candidates.rs").is_empty());
        assert!(lines_in("crates/exec/src/scheme.rs").is_empty());
    }

    #[test]
    fn a_second_coverage_walk_is_flagged() {
        let src = [
            concat!("pub fn cover", "age(ext: &ExtendedPlan) {"),
            "    for v in view.explain_failure(&fresh[t.index()]) {}",
            "}",
            "fn pass_authorization(&self) {",
            "    for violation in view.explain_failure(&self.fresh[t.index()]) {}",
            "}",
            concat!("let cov = cover", "age(&ext, &keys, &views, &report);"),
            "let cov = report.coverage.clone();",
            "#[cfg(test)]",
            "mod tests {",
            "    fn t() { view.explain_failure(&p); }",
            "}",
        ]
        .join("\n");
        let lines_in = |file: &str| {
            let mut findings = Vec::new();
            lint_source(&Source::new(Path::new(file), &src), &mut findings);
            findings
                .iter()
                .filter(|f| f.rule == "one-verifier-walk")
                .map(|f| f.line)
                .collect::<Vec<_>>()
        };
        // In the verifier the retired entry point and an explanation
        // outside the authorization pass are findings…
        assert_eq!(lines_in(VERIFY_RS), vec![1, 2, 7]);
        // …anywhere else the entry point alone is.
        assert_eq!(lines_in("crates/fuzz/src/harness.rs"), vec![1, 7]);
        assert_eq!(lines_in("crates/core/src/authz.rs"), vec![1, 7]);
    }

    #[test]
    fn second_copies_of_the_capability_table_are_flagged() {
        let src = "
fn guess_schemes(plan: &QueryPlan) {}
fn expr_caps(e: &Expr) {}
fn walk_cmp(e: &Expr) {}
let ap = pred.plaintext_required(true);
let ap = plaintext_requirements(plan, policy, overrides);
#[cfg(test)]
mod tests {
    fn expr_caps() {}
}
";
        let lines_in = |file: &str| {
            let mut findings = Vec::new();
            lint_source(&Source::new(Path::new(file), src), &mut findings);
            findings
                .iter()
                .filter(|f| f.rule == "one-capability-table")
                .map(|f| f.line)
                .collect::<Vec<_>>()
        };
        // Anywhere under crates/, the table's own home included.
        for file in [
            "crates/planner/src/optimize.rs",
            "crates/core/src/capability.rs",
            "crates/bench/src/lib.rs",
        ] {
            assert_eq!(lines_in(file), vec![2, 3, 4, 5], "{file}");
        }
    }

    #[test]
    fn a_row_walk_under_an_operator_is_flagged() {
        let src = "
fn selection_mask(pred: &Expr, batch: &Table) -> Vec<bool> {
    let rc = RowCtx::batch(attrs, cols, row);
    let rc = RowCtx::plain(attrs, &row);
}
fn probe_batch(resid: &Expr) {
    ok = eval_pred(resid, &RowCtx::plain(combined_attrs, &combined))? == Some(true);
}
fn sort_stream() { let rc = RowCtx::plain(attrs, &row).with_agg_base(agg_base); }
#[cfg(test)]
mod tests {
    fn t() { RowCtx::plain(a, r); }
}
";
        let lines_in = |file: &str| {
            let mut findings = Vec::new();
            lint_source(&Source::new(Path::new(file), src), &mut findings);
            findings
                .iter()
                .filter(|f| f.rule == "column-evaluator")
                .map(|f| f.line)
                .collect::<Vec<_>>()
        };
        // Outside the oracle every row context and row predicate is a
        // finding — in the engine, in `eval.rs` itself, anywhere…
        for file in [
            "crates/exec/src/engine.rs",
            "crates/exec/src/eval.rs",
            "crates/dist/src/party.rs",
        ] {
            assert_eq!(lines_in(file), vec![3, 4, 7, 9], "{file}");
        }
        // …and in the oracle only the retired batch-row constructor is.
        assert_eq!(lines_in("crates/exec/src/rowref.rs"), vec![3]);
    }

    /// A join's residual is a mask over its candidate pairs: the row
    /// context it was once walked on is a finding in `probe_batch` too.
    #[test]
    fn a_row_context_in_the_join_probe_is_flagged() {
        let src = "
fn probe_batch(p: &Probe<'_>) {
    let rc = RowCtx::plain(p.combined_attrs, &combined);
    let (truth, failed) = mask_until_failure(r.expr, pairs, None, rows);
}
";
        let mut findings = Vec::new();
        lint_source(
            &Source::new(Path::new("crates/exec/src/engine.rs"), src),
            &mut findings,
        );
        let lines: Vec<usize> = (findings.iter())
            .filter(|f| f.rule == "column-evaluator")
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![3]);
    }

    #[test]
    fn owned_keys_under_a_hash_operator_are_flagged() {
        let src = "
use mpq_algebra::value::GroupKey;
fn build_hash(rt: &Table) -> HashMap<Vec<GroupKey>, Vec<usize>> {
    let key = GroupKey(rt.value(c, ri));
}
#[cfg(test)]
mod tests {
    fn t() { GroupKey(v); }
}
";
        let lines_in = |file: &str| {
            let mut findings = Vec::new();
            lint_source(&Source::new(Path::new(file), src), &mut findings);
            findings
                .iter()
                .filter(|f| f.rule == "column-evaluator")
                .map(|f| f.line)
                .collect::<Vec<_>>()
        };
        // The engine holds no `GroupKey`; the oracle does.
        assert_eq!(lines_in("crates/exec/src/engine.rs"), vec![2, 3, 4]);
        assert_eq!(lines_in("crates/exec/src/rowref.rs"), Vec::<usize>::new());
    }

    #[test]
    fn a_form_decided_at_run_time_is_flagged() {
        let src = [
            "fn join_stream() { one_form(c.attr, column_form(col), rform)?; }",
            concat!(
                "pub(crate) type Form",
                "Fix = (Option<ColumnCipher>, Option<ColumnCipher>);"
            ),
            concat!("pub(crate) fn decide_", "form_fix(l: Form, r: Form) {}"),
            concat!("fn fixed_", "column(col: &ColumnVec) {}"),
            concat!("fn fixed_", "cell(cell: &Value) {}"),
            "#[cfg(test)]",
            "mod tests {",
            concat!("    fn fixed_", "cell() {}"),
            "}",
        ]
        .join("\n");
        for file in [
            "crates/exec/src/engine.rs",
            "crates/exec/src/rowref.rs",
            "crates/core/src/keys.rs",
        ] {
            let mut findings = Vec::new();
            lint_source(&Source::new(Path::new(file), &src), &mut findings);
            let lines: Vec<usize> = (findings.iter())
                .filter(|f| f.rule == "one-form-per-pair")
                .map(|f| f.line)
                .collect();
            assert_eq!(lines, vec![2, 3, 4, 5], "{file}");
        }
    }

    #[test]
    fn a_second_walk_to_the_group_by_is_flagged() {
        let src = [
            "fn estimates_for(plan: &QueryPlan) { let through = plan.through_crypto(id); }",
            "fn having_base(plan: &QueryPlan, id: NodeId) -> Option<usize> {",
            "    match &plan.node(plan.through_crypto(node.children[0])).op {}",
            "}",
            concat!("fn having_", "aggs(plan: &QueryPlan) {}"),
            concat!("let p = resolve_", "agg_refs(pred, aggs);"),
            concat!("let base = sort_", "agg_base(plan, id);"),
            concat!("let c = candidates_with_", "overrides(plan, &overrides);"),
            "let scope = plan.agg_scope(id);",
            "#[cfg(test)]",
            "mod tests {",
            "    fn t() { plan.through_crypto(id); }",
            "}",
        ]
        .join("\n");
        let lines_in = |file: &str| {
            let mut findings = Vec::new();
            lint_source(&Source::new(Path::new(file), &src), &mut findings);
            findings
                .iter()
                .filter(|f| f.rule == "one-agg-scope")
                .map(|f| f.line)
                .collect::<Vec<_>>()
        };
        // Anywhere under crates/ the walk and the retired names are
        // findings…
        assert_eq!(
            lines_in("crates/exec/src/engine.rs"),
            vec![1, 3, 5, 6, 7, 8]
        );
        assert_eq!(lines_in("crates/bench/src/lib.rs"), vec![1, 3, 5, 6, 7, 8]);
        // …the walk is at home in plan.rs, and in stats.rs inside the
        // one debug assertion only; the names are at home nowhere.
        assert_eq!(lines_in("crates/algebra/src/plan.rs"), vec![5, 6, 7, 8]);
        assert_eq!(lines_in("crates/planner/src/stats.rs"), vec![3, 5, 6, 7, 8]);
    }

    #[test]
    fn a_second_extension_walk_is_flagged() {
        let src = "
fn finish_min_visibility(ext: &mut QueryPlan) { ext.splice_above(id, op); }
#[cfg(test)]
mod tests {
    fn t() { plan.splice_above(id, op); }
}
";
        let lines_in = |file: &str| {
            let mut findings = Vec::new();
            lint_source(&Source::new(Path::new(file), src), &mut findings);
            findings
                .iter()
                .filter(|f| f.rule == "one-extension")
                .map(|f| f.line)
                .collect::<Vec<_>>()
        };
        assert_eq!(lines_in("crates/planner/src/optimize.rs"), vec![2]);
        assert_eq!(lines_in("crates/dist/src/codec.rs"), vec![2]);
        for home in [
            "crates/core/src/extend.rs",
            "crates/algebra/src/plan.rs",
            "crates/algebra/src/builder.rs",
        ] {
            assert!(lines_in(home).is_empty(), "{home}");
        }
    }

    #[test]
    fn a_second_montgomery_kernel_is_flagged() {
        let src = [
            concat!("fn ci", "os(n: usize, t: &mut [u64], a: &[u64]) {}"),
            concat!("fn sos_", "sqr<const N: usize>(a: &mut [u64]) {}"),
            concat!("struct Lad", "der<'a> { acc: Vec<u64> }"),
            concat!("fn win", "dows<const K: usize>(l: [u8; K]) {}"),
            "fn sqr(&self, a: &[u64; N]) -> [u64; N] { a.windows(2); }",
            "#[cfg(test)]",
            "mod tests {",
            concat!("    fn ci", "os() {}"),
            "}",
        ]
        .join("\n");
        let lines_in = |file: &str| {
            let mut findings = Vec::new();
            lint_source(&Source::new(Path::new(file), &src), &mut findings);
            findings
                .iter()
                .filter(|f| f.rule == "one-montgomery-engine")
                .map(|f| f.line)
                .collect::<Vec<_>>()
        };
        // The retired names are at home nowhere, the engine's own file
        // included; the engine's kernels and a slice's `windows` pass.
        for file in [
            "crates/crypto/src/bignum.rs",
            "crates/crypto/src/paillier.rs",
            "crates/exec/src/eval.rs",
        ] {
            assert_eq!(lines_in(file), vec![1, 2, 3, 4], "{file}");
        }
    }

    #[test]
    fn a_second_ope_run_path_is_flagged() {
        let src = [
            concat!("pub struct Ope", "Encryptor { trail: [Node; 65] }"),
            concat!(
                "pub struct Column",
                "Encryptor<'c> { cipher: &'c ColumnCipher }"
            ),
            concat!("fn memo_", "slot(code: u64) -> usize { 0 }"),
            concat!("    pub fn encry", "ptor(&self) -> Runner { Runner }"),
            "pub fn encrypt_run(&self, run: &[Option<(OpeType, u64)>]) {}",
            "let encryptor = Runner::new(); let memo = HashMap::new();",
            "#[cfg(test)]",
            "mod tests {",
            concat!("    fn memo_", "slot() {}"),
            "}",
        ]
        .join("\n");
        let lines_in = |file: &str| {
            let mut findings = Vec::new();
            lint_source(&Source::new(Path::new(file), &src), &mut findings);
            (findings.iter())
                .filter(|f| f.rule == "one-ope-run")
                .map(|f| f.line)
                .collect::<Vec<_>>()
        };
        // The retired names are at home nowhere, the run's own file
        // included; the run itself, a variable and a memo map pass.
        for file in [
            "crates/crypto/src/ope.rs",
            "crates/crypto/src/schemes.rs",
            "crates/exec/src/engine.rs",
        ] {
            assert_eq!(lines_in(file), vec![1, 2, 3, 4], "{file}");
        }
    }

    #[test]
    fn threads_outside_the_hub_are_flagged() {
        let src = [
            "fn spawn_parties() { std::thread::spawn(move || drive(&party, &run)); }",
            concat!(
                "pub(crate) struct Party",
                "Threads { wake: Vec<Sender<Run>> }"
            ),
            "fn bind() { let accept = std::thread::spawn(move || pump(stream)); }",
            "fn chunks() { std::thread::scope(|s| s.spawn(|| f(0..n))); }",
            "#[cfg(test)]",
            "mod tests {",
            "    fn t() { std::thread::spawn(|| ()); }",
            "}",
        ]
        .join("\n");
        let lines_in = |file: &str, rule: &str| {
            let mut findings = Vec::new();
            lint_source(&Source::new(Path::new(file), &src), &mut findings);
            (findings.iter())
                .filter(|f| f.rule == rule)
                .map(|f| f.line)
                .collect::<Vec<_>>()
        };
        // The party runtime and the engine are no homes for threads…
        for file in [
            "crates/dist/src/runtime.rs",
            "crates/dist/src/session.rs",
            "crates/exec/src/engine.rs",
            "crates/exec/src/lib.rs",
        ] {
            assert_eq!(lines_in(file, "thread-discipline"), vec![1, 3, 4], "{file}");
        }
        // …the hub is…
        assert!(lines_in("crates/dist/src/transport.rs", "thread-discipline").is_empty());
        // …and the retired scheduler's name is at home nowhere.
        for file in [
            "crates/dist/src/runtime.rs",
            "crates/dist/src/transport.rs",
            "crates/bench/src/throughput.rs",
        ] {
            assert_eq!(lines_in(file, "one-session-driver"), vec![2], "{file}");
        }
    }

    #[test]
    fn retired_worker_pool_names_are_flagged_anywhere() {
        let src = [
            concat!("const MPQ_", "WORKERS: &str = \"workers\";"),
            concat!(
                "fn knob(c: SessionConfig) -> SessionConfig { c.with_",
                "workers(2) }"
            ),
            concat!(
                "fn select(p: &WorkerPool) { p.map_",
                "ranges(n, 256, |r| eval(r)); }"
            ),
            "fn run(c: SessionConfig) -> SessionConfig { c.timeout(t) }",
            "#[cfg(test)]",
            "mod tests {",
            concat!("    fn t() { pool.map_", "ranges(1, 1, Ok); }"),
            "}",
        ]
        .join("\n");
        for file in [
            "crates/exec/src/engine.rs",
            "crates/dist/src/session.rs",
            "crates/bench/src/bin/throughput.rs",
        ] {
            let mut findings = Vec::new();
            lint_source(&Source::new(Path::new(file), &src), &mut findings);
            let lines: Vec<usize> = (findings.iter())
                .filter(|f| f.rule == "one-thread-per-query")
                .map(|f| f.line)
                .collect();
            assert_eq!(lines, vec![1, 2, 3], "{file}");
        }
    }

    #[test]
    fn environment_reads_are_flagged_in_engine_code() {
        let src = "
fn knob() -> Option<String> {
    std::env::var(\"MPQ_ANYTHING\").ok()
}
fn args() -> Vec<String> {
    std::env::args().collect()
}
#[cfg(test)]
mod tests {
    fn t() { std::env::var(\"HOME\").unwrap(); }
}
";
        let lines_in = |file: &str| {
            let mut findings = Vec::new();
            lint_source(&Source::new(Path::new(file), src), &mut findings);
            findings
                .iter()
                .filter(|f| f.rule == "determinism")
                .map(|f| f.line)
                .collect::<Vec<_>>()
        };
        assert_eq!(lines_in("crates/dist/src/fault.rs"), vec![3]);
        assert_eq!(lines_in("crates/server/src/bin/server.rs"), vec![3]);
        assert_eq!(lines_in("crates/exec/src/engine.rs"), vec![3]);
        assert!(lines_in("crates/bench/src/throughput.rs").is_empty());
    }

    #[test]
    fn orphaned_corpus_seeds_are_flagged() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("lint-corpus-fixture");
        let corpus = root.join("tests/fuzz_corpus");
        std::fs::create_dir_all(&corpus).expect("fixture dir");
        std::fs::write(corpus.join("referenced.seed"), "# pin\n1\n").unwrap();
        std::fs::write(corpus.join("orphan.seed"), "# pin\n2\n").unwrap();
        std::fs::write(
            root.join("tests/replay.rs"),
            "const _: &str = include_str!(\"fuzz_corpus/referenced.seed\");\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        lint_fuzz_corpus(&root, &mut findings);
        let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(messages.len(), 1, "{messages:?}");
        assert!(messages[0].contains("orphan.seed"));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_pub_item_without_a_caller_outside_its_file_is_flagged() {
        let lib = Source::new(
            Path::new("crates/exec/src/batch.rs"),
            "pub fn lonely() {}
pub fn called() {}
pub const BENCH_ONLY: usize = 1;
pub(crate) fn narrow() {}
pub fn reexported() {}
pub fn allowed() {}
pub static TESTED: u8 = 0;
fn private() { lonely(); narrow(); }
#[cfg(test)]
mod tests {
    pub fn in_tests() {}
}
",
        );
        let caller = Source::new(
            Path::new("crates/dist/src/party.rs"),
            "pub use mpq_exec::batch::{
    reexported,
};
fn lonely() {}
fn run() { mpq_exec::batch::called(); }
#[cfg(test)]
mod tests {
    fn t() { TESTED; }
}
",
        );
        let bench = Source::new(
            Path::new("benchmark/src/main.rs"),
            "#[cfg(test)]
mod tests {
    fn t() { mpq_exec::batch::BENCH_ONLY; }
}
",
        );
        let flagged = |sources: &[&Source]| {
            let mut findings = Vec::new();
            lint_pub_callers(
                sources,
                &[("crates/exec/src/batch.rs", "allowed", "t")],
                &mut findings,
            );
            (findings.iter())
                .map(|f| (f.line, f.file.display().to_string()))
                .collect::<Vec<_>>()
        };
        // Named only in its own file, re-exported by a `pub use`,
        // defined (not called) elsewhere or called by a test module:
        // each is a finding. A caller in non-test code, in the
        // benchmark's tests or on the allow-list clears one.
        let lib_at = |lines: &[usize]| {
            (lines.iter())
                .map(|&l| (l, "crates/exec/src/batch.rs".to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(flagged(&[&lib, &caller, &bench]), lib_at(&[1, 5, 7]));
        // Without the benchmark, its test module's use is gone too.
        assert_eq!(flagged(&[&lib, &caller]), lib_at(&[1, 3, 5, 7]));
        // An allow-list line that clears nothing is itself a finding.
        let unused = Source::new(
            Path::new("crates/exec/src/batch.rs"),
            "pub fn called() {}\n",
        );
        assert_eq!(flagged(&[&unused, &caller]), lib_at(&[1]));
        let mut findings = Vec::new();
        lint_pub_callers(
            &[&unused, &caller],
            &[("crates/exec/src/batch.rs", "allowed", "t")],
            &mut findings,
        );
        assert!(
            findings[0].message.contains("clears nothing"),
            "{}",
            findings[0]
        );
        // Outside the six library crates, and in the shared fixture,
        // nothing is flagged.
        for file in ["crates/bench/src/lib.rs", FIXTURES_RS] {
            let other = Source::new(Path::new(file), "pub fn lonely() {}\n");
            let mut findings = Vec::new();
            lint_pub_callers(&[&other], &[], &mut findings);
            assert!(findings.is_empty(), "{file}");
        }
    }

    #[test]
    fn a_word_spelt_like_a_pub_fn_is_not_its_caller() {
        let lib = Source::new(
            Path::new("crates/dist/src/fault.rs"),
            "pub fn spec(&self) -> String {}\npub const SPEC: u8 = 0;\n",
        );
        let flagged = |caller: &str| {
            let other = Source::new(Path::new("crates/dist/src/session.rs"), caller);
            let mut findings = Vec::new();
            lint_pub_callers(&[&lib, &other], &[], &mut findings);
            findings.iter().map(|f| f.line).collect::<Vec<_>>()
        };
        // A binding, a field or a module of the same name: no caller.
        for word in [
            "fn f(p: Option<u8>) { match p { Some(spec) => spec, None => 0 }; SPEC; }",
            "fn f(c: Config) { let n = c.spec + 1; SPEC; }",
            "fn f() { crate::spec::parse(); SPEC; }",
        ] {
            assert_eq!(flagged(word), vec![1], "{word}");
        }
        // A call or a path clears the `fn`; a `const` needs only its name.
        for call in [
            "fn f(p: &FaultPlan) { p.spec(); SPEC; }",
            "fn f() { let g = FaultPlan::spec; SPEC; }",
            "fn f() { spec::<u8>(); let _ = SPEC; }",
        ] {
            assert!(flagged(call).is_empty(), "{call}");
        }
        assert_eq!(flagged("fn f() { FaultPlan::spec(); }"), vec![2]);
    }

    #[test]
    fn code_after_the_first_test_module_is_flagged() {
        let findings_in = |src: &str| {
            let mut findings = Vec::new();
            lint_tests_last(
                &Source::new(Path::new("crates/algebra/src/builder.rs"), src),
                &mut findings,
            );
            findings.iter().map(|f| f.line).collect::<Vec<_>>()
        };
        let late = "fn lib() {}
#[cfg(test)]
mod tests {
    fn t() {}
}
// a comment is not code
pub fn prune_columns() {}
";
        assert_eq!(findings_in(late), vec![7]);
        let last = "fn lib() {}
#[cfg(test)]
impl KeySeed {
    fn colliding() {}
}

#[cfg(test)]
mod tests {
    fn t() {}
}
";
        assert!(findings_in(last).is_empty());
        assert!(findings_in("fn lib() {}\n").is_empty());
    }

    #[test]
    fn the_repo_passes_its_own_lint() {
        // The gate CI enforces, as a unit test: zero findings over the
        // whole workspace.
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .map(Path::to_path_buf)
            .expect("crates/lint sits two levels below the root");
        let (_, findings) = lint_repo(&root);
        assert!(
            findings.is_empty(),
            "repo invariants violated:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

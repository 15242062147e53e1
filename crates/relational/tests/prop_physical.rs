//! Property tests for the optimized execution layer: the logical
//! rewriter and physical executor must be **bit-identical** to the naive
//! `AlgebraExpr::eval` backend (tuples *and* attribute order), and the
//! slot-compiled evaluator must match the string-keyed `solutions` —
//! including on the engine-parallel fan-out path.

use fq_engine::{Engine, EngineConfig};
use fq_logic::{Formula, Term};
use fq_relational::active_eval::{eval_query, eval_query_with, NoOps};
use fq_relational::algebra::{compile, AlgebraExpr, Condition};
use fq_relational::optimize::optimize;
use fq_relational::physical::{ExecOpts, PhysicalPlan};
use fq_relational::safe_range::is_safe_range;
use fq_relational::schema::Schema;
use fq_relational::state::{State, Value};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new().with_relation("R", 2).with_relation("S", 1)
}

fn arb_state() -> impl Strategy<Value = State> {
    (
        proptest::collection::btree_set((0u64..5, 0u64..5), 0..6),
        proptest::collection::btree_set(0u64..5, 0..4),
    )
        .prop_map(|(r, s)| {
            let mut state = State::new(schema());
            for (a, b) in r {
                state.insert("R", vec![Value::Nat(a), Value::Nat(b)]);
            }
            for a in s {
                state.insert("S", vec![Value::Nat(a)]);
            }
            state
        })
}

/// Random queries in the style of the `prop.rs` generator: range-giving
/// atoms, conjunction, attribute-compatible disjunction, negation
/// (filtered through the safe-range check), and existentials.
fn arb_query() -> impl Strategy<Value = Formula> {
    let v = || prop_oneof![Just("x"), Just("y"), Just("z")].prop_map(Term::var);
    let atom = prop_oneof![
        (v(), v()).prop_map(|(a, b)| Formula::pred("R", vec![a, b])),
        v().prop_map(|a| Formula::pred("S", vec![a])),
        (v(), 0u64..5).prop_map(|(a, k)| Formula::eq(a, Term::Nat(k))),
    ];
    atom.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            3 => (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::And(vec![a, b])),
            1 => inner.clone().prop_map(|a| Formula::Or(vec![a.clone(), a])),
            2 => (inner.clone(), inner.clone()).prop_map(|(a, b)| {
                Formula::And(vec![a, Formula::Not(Box::new(b))])
            }),
            2 => (prop_oneof![Just("x"), Just("y"), Just("z")], inner.clone())
                .prop_map(|(v, b)| Formula::exists(v, b)),
        ]
    })
}

/// Random raw algebra expressions (not necessarily from the compiler),
/// to exercise rewriter/executor shapes the Codd translation never
/// produces — cross products, unions of reordered branches, extends.
fn arb_expr() -> impl Strategy<Value = AlgebraExpr> {
    let base = prop_oneof![
        Just(AlgebraExpr::Base {
            name: "R".into(),
            attrs: vec!["x".into(), "y".into()],
        }),
        Just(AlgebraExpr::Base {
            name: "R".into(),
            attrs: vec!["y".into(), "z".into()],
        }),
        Just(AlgebraExpr::Base {
            name: "S".into(),
            attrs: vec!["x".into()],
        }),
        Just(AlgebraExpr::Base {
            name: "S".into(),
            attrs: vec!["w".into()],
        }),
        (0u64..5).prop_map(|k| AlgebraExpr::Singleton(vec![("x".into(), Value::Nat(k))])),
    ];
    base.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            2 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| AlgebraExpr::Join(Box::new(a), Box::new(b))),
            1 => inner.clone().prop_map(|a| {
                // Union with itself keeps the attribute sets compatible.
                AlgebraExpr::Union(Box::new(a.clone()), Box::new(a))
            }),
            1 => inner.clone().prop_map(|a| {
                AlgebraExpr::Diff(Box::new(a.clone()), Box::new(a))
            }),
            2 => (inner.clone(), 0u64..5).prop_map(|(a, k)| {
                let attr = a.attrs().first().cloned().unwrap_or_else(|| "x".into());
                AlgebraExpr::Select(Box::new(a), Condition::EqConst(attr, Value::Nat(k)))
            }),
            1 => inner.clone().prop_map(|a| {
                let attrs = a.attrs();
                let keep: Vec<String> = attrs.iter().skip(attrs.len() / 2).cloned().collect();
                AlgebraExpr::Project(Box::new(a), keep)
            }),
            1 => inner.clone().prop_map(|a| {
                let src = a.attrs().first().cloned().unwrap_or_else(|| "x".into());
                let new = format!("{src}2");
                if a.attrs().contains(&new) {
                    a
                } else {
                    AlgebraExpr::Extend(Box::new(a), new, src)
                }
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn optimized_physical_matches_naive_on_compiled_queries(
        state in arb_state(),
        q in arb_query(),
    ) {
        if !is_safe_range(state.schema(), &q) {
            return Ok(());
        }
        let Ok(expr) = compile(state.schema(), &q) else {
            return Ok(());
        };
        let naive = expr.eval(&state);
        let physical = PhysicalPlan::compile(&expr).execute(&state);
        prop_assert_eq!(&naive, &physical, "physical ≠ naive: {}", q);
        let opt = optimize(&expr, &state);
        prop_assert_eq!(opt.expr.attrs(), expr.attrs(), "rewrite changed attrs: {}", q);
        let optimized = PhysicalPlan::compile(&opt.expr).execute(&state);
        prop_assert_eq!(&naive, &optimized, "optimized ≠ naive: {} ({:?})", q, opt.rewrites);
    }

    #[test]
    fn optimized_physical_matches_naive_on_raw_expressions(
        state in arb_state(),
        expr in arb_expr(),
    ) {
        let naive = expr.eval(&state);
        let physical = PhysicalPlan::compile(&expr).execute(&state);
        prop_assert_eq!(&naive, &physical, "physical ≠ naive: {:?}", expr);
        let opt = optimize(&expr, &state);
        prop_assert_eq!(opt.expr.attrs(), expr.attrs(), "rewrite changed attrs");
        let optimized = PhysicalPlan::compile(&opt.expr).execute(&state);
        prop_assert_eq!(&naive, &optimized, "optimized ≠ naive: {:?} → {:?}", expr, opt.rewrites);
    }

    /// The morsel-driven parallel executor is bit-identical to the
    /// sequential path on arbitrary compiled queries, at arbitrary
    /// thread counts and morsel sizes. Tiny states (0–6 rows) under
    /// 1–4-row morsels cover the boundary shapes by construction: the
    /// empty relation, rows < morsel size, rows an exact multiple of
    /// the morsel size, and arity-2 stride alignment via `R`.
    #[test]
    fn parallel_physical_matches_sequential_on_compiled_queries(
        state in arb_state(),
        q in arb_query(),
        threads in 1usize..=8,
        morsel_rows in 1usize..=4,
    ) {
        if !is_safe_range(state.schema(), &q) {
            return Ok(());
        }
        let Ok(expr) = compile(state.schema(), &q) else {
            return Ok(());
        };
        let plan = PhysicalPlan::compile(&optimize(&expr, &state).expr);
        let sequential = plan.execute(&state);
        let engine = Engine::new(EngineConfig { threads, ..EngineConfig::default() });
        let parallel = plan
            .execute_with_stats_on(&state, &engine, ExecOpts { morsel_rows })
            .relation;
        prop_assert_eq!(&sequential, &parallel,
            "parallel ≠ sequential: {} ({} threads, morsel {})", q, threads, morsel_rows);
        prop_assert_eq!(&expr.eval(&state), &parallel, "parallel ≠ naive: {}", q);
    }

    /// The same contract over raw algebra shapes the compiler never
    /// emits — cross products, self-unions/diffs, extends.
    #[test]
    fn parallel_physical_matches_sequential_on_raw_expressions(
        state in arb_state(),
        expr in arb_expr(),
        threads in 1usize..=8,
        morsel_rows in 1usize..=4,
    ) {
        let plan = PhysicalPlan::compile(&expr);
        let sequential = plan.execute(&state);
        let engine = Engine::new(EngineConfig { threads, ..EngineConfig::default() });
        let parallel = plan
            .execute_with_stats_on(&state, &engine, ExecOpts { morsel_rows })
            .relation;
        prop_assert_eq!(&sequential, &parallel,
            "parallel ≠ sequential: {:?} ({} threads, morsel {})", expr, threads, morsel_rows);
    }

    #[test]
    fn slot_compiled_evaluation_matches_string_env(
        state in arb_state(),
        q in arb_query(),
        threads in 1usize..4,
    ) {
        let vars: Vec<String> = q.free_vars().into_iter().collect();
        let engine = Engine::new(EngineConfig { threads, ..EngineConfig::default() });
        let reference = eval_query(&state, &NoOps, &q, &vars);
        let slotted = eval_query_with(&state, &NoOps, &q, &vars, &engine);
        match (reference, slotted) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "rows differ: {}", q),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string(), "errors differ: {}", q),
            (a, b) => prop_assert!(false, "outcome mismatch on {}: {:?} vs {:?}", q, a, b),
        }
    }
}

/// Deterministic thread sweep on a join chain large enough for real
/// many-morsel schedules: the same plan at 1, 2, 4, and 8 threads
/// produces byte-identical answer relations.
#[test]
fn thread_sweep_is_byte_identical_on_a_join_chain() {
    use fq_relational::state::StateBuilder;
    let mut b = StateBuilder::new(schema());
    for i in 0..2_000u64 {
        b.row("R", vec![Value::Nat(i % 211), Value::Nat((i * 13) % 211)]);
        if i % 5 == 0 {
            b.row("S", vec![Value::Nat(i % 211)]);
        }
    }
    let state = b.finish();
    let f: Formula = Formula::exists(
        "y",
        Formula::And(vec![
            Formula::pred("R", vec![Term::var("x"), Term::var("y")]),
            Formula::pred("R", vec![Term::var("y"), Term::var("z")]),
            Formula::pred("S", vec![Term::var("y")]),
        ]),
    );
    let expr = compile(state.schema(), &f).expect("compiles");
    let plan = PhysicalPlan::compile(&optimize(&expr, &state).expr);
    let baseline = plan.execute(&state);
    for threads in [1, 2, 4, 8] {
        let engine = Engine::new(EngineConfig {
            threads,
            ..EngineConfig::default()
        });
        for morsel_rows in [32, 256, 4096] {
            let report = plan.execute_with_stats_on(&state, &engine, ExecOpts { morsel_rows });
            assert_eq!(
                report.relation, baseline,
                "drift at {threads} threads, morsel {morsel_rows}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Atom access paths: seek, skip-scan, run-scan and the answer edge.
// ---------------------------------------------------------------------

/// Every morsel size the suites above use.
const MORSEL_SIZES: [usize; 10] = [1, 2, 3, 4, 32, 50, 256, 400, 4096, 100_000];

fn access_schema() -> Schema {
    Schema::new().with_relation("T", 3).with_relation("S", 1)
}

/// Mixed stored values: inline naturals, a natural above the inline
/// range (interned like a string), and strings that sort among and
/// around each other.
fn stored_value(i: usize) -> Value {
    match i % 7 {
        0 => Value::Nat(0),
        1 => Value::Nat(2),
        2 => Value::Nat(u64::MAX),
        3 => Value::Str(String::new()),
        4 => Value::Str("a".into()),
        5 => Value::Str("b\"c".into()),
        _ => Value::Nat(1),
    }
}

/// Query constants: every stored value, plus values the dictionary
/// never interned (a string, a big natural) or no row holds (an inline
/// natural).
fn arb_constant() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0usize..7).prop_map(stored_value),
        Just(Value::Str("zz".into())),
        Just(Value::Nat((1 << 63) + 5)),
        Just(Value::Nat(9)),
    ]
}

/// A `T`/`S` state: either a few random rows, or a dense block whose
/// leading column takes `lead` distinct values over `7 · per` rows each
/// (less a random quarter) — long runs make a skip-scan pay, short ones
/// do not.
fn arb_access_state() -> impl Strategy<Value = State> {
    let sparse = proptest::collection::vec((0usize..7, 0usize..7, 0usize..7), 0..12);
    let per = prop_oneof![Just(3usize), Just(30)];
    let dense =
        (1usize..=4, 0usize..7, 0u64..u64::MAX, per).prop_map(|(lead, first, seed, per)| {
            let mut rng = seed | 1;
            let mut rows = Vec::new();
            for a in 0..lead {
                for b in 0..7 {
                    for c in 0..per {
                        // A sparse xorshift pattern drops some rows.
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        if rng % 4 != 0 {
                            rows.push((first + a, b, c));
                        }
                    }
                }
            }
            rows
        });
    (
        prop_oneof![sparse, dense],
        proptest::collection::btree_set(0usize..7, 0..4),
    )
        .prop_map(|(t, s)| {
            let mut b = fq_relational::StateBuilder::new(access_schema());
            for (x, y, z) in t {
                let z = if z < 7 {
                    stored_value(z)
                } else {
                    Value::Nat(z as u64)
                };
                b.row("T", vec![stored_value(x), stored_value(y), z]);
            }
            for x in s {
                b.row("S", vec![stored_value(x)]);
            }
            b.finish()
        })
}

/// One `T` atom with a variable or a constant at every position,
/// optionally projected (an `exists`) and joined with `S`.
fn arb_access_query() -> impl Strategy<Value = Formula> {
    let term = prop_oneof![
        2 => prop_oneof![Just("x"), Just("y"), Just("z")].prop_map(Term::var),
        1 => arb_constant().prop_map(|v| match v {
            Value::Nat(n) => Term::Nat(n),
            Value::Str(s) => Term::Str(s),
        }),
    ];
    let bound = prop_oneof![
        Just(None),
        prop_oneof![Just("x"), Just("y"), Just("z")].prop_map(Some),
    ];
    (term.clone(), term.clone(), term, bound, any::<bool>()).prop_map(|(a, b, c, bound, join)| {
        let mut f = Formula::pred("T", vec![a, b, c]);
        if join {
            f = Formula::And(vec![f, Formula::pred("S", vec![Term::var("x")])]);
        }
        match bound {
            Some(v) => Formula::exists(v, f),
            None => f,
        }
    })
}

/// Run `plan` every way the executor can: sequentially, and on
/// `threads` workers at every morsel size through the relation, count
/// and answer edges. Each must equal the naive oracle.
fn check_every_schedule(
    plan: &PhysicalPlan,
    state: &State,
    naive: &fq_relational::Relation,
    vars: &[String],
    threads: usize,
) -> Result<(), TestCaseError> {
    let expected: Vec<Vec<Value>> = naive.reorder(vars).tuples.into_iter().collect();
    prop_assert_eq!(&plan.execute(state), naive);
    let engine = Engine::new(EngineConfig {
        threads,
        ..EngineConfig::default()
    });
    for morsel_rows in MORSEL_SIZES {
        let opts = ExecOpts { morsel_rows };
        let report = plan.execute_with_stats_on(state, &engine, opts);
        prop_assert_eq!(&report.relation, naive, "morsel {}", morsel_rows);
        let (rows, ops) = plan.answer_on(state, &engine, opts, vars);
        prop_assert_eq!(&rows, &expected, "answer edge, morsel {}", morsel_rows);
        prop_assert_eq!(&ops, &report.operators);
        let (count, _) = plan.count_on(state, &engine, opts);
        prop_assert_eq!(count, naive.tuples.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Seek, both sides of the skip-scan choice, run-scan and hash
    /// dedup, residual filters and the answer-edge sort are bit-identical
    /// to the naive oracle at 1–8 threads and every morsel size.
    #[test]
    fn atom_access_paths_match_naive(
        state in arb_access_state(),
        q in arb_access_query(),
        threads in 1usize..=8,
    ) {
        if !is_safe_range(state.schema(), &q) {
            return Ok(());
        }
        let Ok(expr) = compile(state.schema(), &q) else {
            return Ok(());
        };
        let naive = expr.eval(&state);
        let vars: Vec<String> = q.free_vars().into_iter().collect();
        check_every_schedule(&PhysicalPlan::compile(&expr), &state, &naive, &vars, threads)?;
        let opt = optimize(&expr, &state);
        check_every_schedule(&PhysicalPlan::compile(&opt.expr), &state, &naive, &vars, threads)?;
    }
}

/// The scan labels of `src` over `state`, with the answer checked
/// against the naive oracle.
fn scan_labels(state: &State, src: &str) -> Vec<String> {
    let q = fq_logic::parse_formula(src).unwrap();
    let expr = compile(state.schema(), &q).expect("compiles");
    let plan = PhysicalPlan::compile(&optimize(&expr, state).expr);
    let report = plan.execute_with_stats(state);
    assert_eq!(report.relation, expr.eval(state), "{src}");
    report
        .operators
        .into_iter()
        .filter(|o| o.op.starts_with("scan "))
        .map(|o| o.op)
        .collect()
}

/// A dense `T`: `lead` leading values, each over `7 · per` rows.
fn dense_state(lead: usize, per: u64) -> State {
    let mut b = fq_relational::StateBuilder::new(access_schema());
    for a in 0..lead {
        for w in 0..7 {
            for p in 0..per {
                b.row("T", vec![stored_value(a), stored_value(w), Value::Nat(p)]);
            }
        }
    }
    b.finish()
}

#[test]
fn each_access_path_is_taken() {
    // 420 rows over two leading values: one seek per value pays.
    let few = dense_state(2, 30);
    let labels = scan_labels(&few, "exists p. T(m, \"a\", p)");
    assert!(labels[0].contains("skip-scan col 0"), "{labels:?}");
    assert!(labels[0].contains("run-scan"), "{labels:?}");
    // 147 rows over seven: scanning the range reads less.
    let many = dense_state(7, 3);
    let labels = scan_labels(&many, "exists p. T(m, \"a\", p)");
    assert!(!labels[0].contains("skip-scan"), "{labels:?}");
    assert!(labels[0].contains("filter"), "{labels:?}");
    for (src, path) in [
        ("T(2, w, p)", "seek 1 col, project"),
        ("T(2, \"a\", p)", "seek 2 col, project"),
        ("exists w p. T(m, w, p)", "run-scan"),
        ("exists p. T(2, w, p)", "seek 1 col, run-scan"),
        ("exists m. T(m, w, p)", "dedup"),
        ("T(m, w, 3)", "filter"),
    ] {
        let labels = scan_labels(&many, src);
        assert!(labels[0].contains(path), "{src}: {labels:?}");
    }
    // A constant no stored row holds reads nothing.
    assert_eq!(scan_labels(&many, "T(\"zz\", w, p)"), vec!["scan T"]);
}

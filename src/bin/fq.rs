//! `fq` — command-line interface to the finite-queries library.
//!
//! ```text
//! fq check   <schema> <query>                  safe-range test + diagnostics
//! fq eval    <state>  <query> [domain]         execute through the pipeline
//! fq plan    <state>  <query> [domain] [--json]  print the chosen plan
//! fq explain <state>  <query> [domain]         plan + execute + statistics
//! fq safe    <state>  <query> [domain]         relative safety
//! fq decide  <domain> <sentence>               decide a pure-domain sentence
//! fq traces  <machine-string> <word> [k]       run a machine, print its traces
//! fq machines [n]                              list the first n machine encodings
//! fq serve   <state> [addr] [--data-dir DIR] [--durability none|batch|always]
//!                                              serve queries over line/JSON TCP
//! fq recover <dir> [--compact]                 replay a durable directory, report
//!                                              the recovered epoch + fingerprint
//! fq convert <in> <out>                        convert JSON ↔ binary snapshot
//! ```
//!
//! Domains are the registry names `eq|nat|int|succ|presburger|words|traces`;
//! when omitted, the domain is inferred from the query's symbols.
//!
//! Every `<state>` (and `<schema>`) argument accepts either format —
//! JSON in the `fq-relational` serde shape (see `examples/data/`) or a
//! binary columnar snapshot — detected by magic bytes, never by file
//! extension. `fq convert` translates between them; snapshots cold-load
//! at I/O speed where JSON is parse-bound.
//!
//! With `--data-dir`, `fq serve` is **durable**: every published epoch
//! is appended to an epoch-delta log (`fqsnap-delta` segments beside a
//! full base snapshot) before it becomes visible, and a killed server
//! recovers on restart to the last fully-published epoch with a
//! bit-identical content fingerprint. When the directory already holds
//! a store, recovery wins over the `<state>` argument. `fq recover`
//! replays such a directory offline and reports what it finds;
//! `--compact` additionally folds the log into a fresh base snapshot.
//!
//! Every query-answering command routes through the `fq-query` pipeline:
//! **compile** (parse + scheme check + normalization) → **plan** (strategy
//! choice with justification, memoized in the engine's `query.plan`
//! namespace) → **execute** (uniform outcome with a completeness
//! certificate).

use finite_queries::logic::parse_formula;
use finite_queries::query::{Completeness, DomainId, Executor, QueryError};
use finite_queries::relational::{self, Schema, State};
use finite_queries::turing::trace::{count_traces, trace_string, TraceCount};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("eval") => cmd_eval(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("safe") => cmd_safe(&args[1..]),
        Some("decide") => cmd_decide(&args[1..]),
        Some("traces") => cmd_traces(&args[1..]),
        Some("machines") => cmd_machines(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        _ => {
            eprintln!(
                "usage: fq <check|eval|plan|explain|safe|decide|traces|machines|serve|recover|convert> …\n\
                 see `src/bin/fq.rs` for the full synopsis"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Where a loaded state came from: on-disk format id plus byte size,
/// for the `explain`/`serve` provenance lines.
struct StateSource {
    format: &'static str,
    bytes: usize,
}

/// Load a state from either on-disk format, detected by magic bytes.
fn load_state_with_source(path: &str) -> Result<(State, StateSource), Box<dyn std::error::Error>> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let source = StateSource {
        format: detected_format(&bytes),
        bytes: bytes.len(),
    };
    let state = if relational::is_snapshot(&bytes) {
        State::read_snapshot(&bytes)
            .map_err(|e| format!("`{path}` is not a valid snapshot: {e}"))?
    } else {
        let text = std::str::from_utf8(&bytes)
            .map_err(|e| format!("`{path}` is not a valid state: {e}"))?;
        fq_json::from_str(text).map_err(|e| format!("`{path}` is not a valid state: {e}"))?
    };
    Ok((state, source))
}

fn load_state(path: &str) -> Result<State, Box<dyn std::error::Error>> {
    Ok(load_state_with_source(path)?.0)
}

fn detected_format(bytes: &[u8]) -> &'static str {
    if relational::is_snapshot(bytes) {
        relational::FORMAT_ID
    } else {
        relational::JSON_FORMAT_ID
    }
}

/// Accept either a bare schema or a full state, in either on-disk
/// format. A JSON file that is neither reports **both** parse failures
/// — a malformed schema must not be diagnosed as a malformed state.
fn load_schema(path: &str) -> Result<Schema, QueryError> {
    let schema_load = |schema_error: String, state_error: String| QueryError::SchemaLoad {
        path: path.to_string(),
        schema_error,
        state_error,
    };
    let bytes = std::fs::read(path).map_err(|e| schema_load(e.to_string(), e.to_string()))?;
    if relational::is_snapshot(&bytes) {
        // The snapshot header + meta section carry the schema; no need
        // to materialize the columns.
        return relational::format::read_schema(&bytes)
            .map_err(|e| schema_load(e.to_string(), e.to_string()));
    }
    let text =
        std::str::from_utf8(&bytes).map_err(|e| schema_load(e.to_string(), e.to_string()))?;
    let schema_error = match fq_json::from_str::<Schema>(text) {
        Ok(schema) => return Ok(schema),
        Err(e) => e,
    };
    let state_error = match fq_json::from_str::<State>(text) {
        Ok(state) => return Ok(state.schema().clone()),
        Err(e) => e,
    };
    Err(schema_load(
        schema_error.to_string(),
        state_error.to_string(),
    ))
}

fn arg<'a>(args: &'a [String], i: usize, what: &str) -> Result<&'a str, String> {
    args.get(i)
        .map(String::as_str)
        .ok_or_else(|| format!("missing argument: {what}"))
}

/// The domain argument, or the one inferred from the query's symbols.
fn domain_arg(
    args: &[String],
    i: usize,
    query: &str,
) -> Result<DomainId, Box<dyn std::error::Error>> {
    match args.get(i) {
        Some(name) => Ok(DomainId::parse(name)?),
        None => Ok(DomainId::infer(&parse_formula(query)?)),
    }
}

fn print_rows(vars: &[String], rows: &[Vec<finite_queries::relational::Value>]) {
    println!("{}", vars.join("\t"));
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join("\t"));
    }
}

fn cmd_check(args: &[String]) -> CliResult {
    let schema = load_schema(arg(args, 0, "schema.json")?)?;
    let compiled = Executor::default().compile(&schema, arg(args, 1, "query")?)?;
    match compiled.safe_range() {
        Ok(()) => println!("safe-range: the query is domain-independent"),
        Err(e) => println!("NOT safe-range: {e}"),
    }
    Ok(())
}

fn cmd_eval(args: &[String]) -> CliResult {
    let state = load_state(arg(args, 0, "state.json")?)?;
    let query = arg(args, 1, "query")?;
    let domain = domain_arg(args, 2, query)?;
    let out = Executor::from_env().execute(&state, query, domain)?;
    match out.completeness {
        Completeness::Decided { value } => println!("{value}"),
        Completeness::Certified => print_rows(&out.vars, &out.rows),
        Completeness::CertifiedRanf {
            infinite,
            restrictor_rows,
        } => {
            print_rows(&out.vars, &out.rows);
            if infinite {
                println!(
                    "-- EXACT: answer is INFINITE; the rows above are its active-domain \
                     core ({restrictor_rows} restrictor witness(es))"
                );
            } else {
                println!("-- EXACT: answer is finite (RANF restrictor empty)");
            }
        }
        Completeness::Partial {
            candidates_tried,
            max_candidates,
        } => {
            print_rows(&out.vars, &out.rows);
            println!(
                "-- PARTIAL: budget exhausted after {candidates_tried}/{max_candidates} candidates"
            );
        }
    }
    Ok(())
}

fn cmd_plan(args: &[String]) -> CliResult {
    let json = args.iter().any(|a| a == "--json");
    let args: Vec<String> = args.iter().filter(|a| *a != "--json").cloned().collect();
    let state = load_state(arg(&args, 0, "state.json")?)?;
    let query = arg(&args, 1, "query")?;
    let domain = domain_arg(&args, 2, query)?;
    let (planned, _) = Executor::from_env().plan(&state, query, domain)?;
    if json {
        println!("{}", planned.to_json());
    } else {
        println!("strategy: {}", planned.plan.strategy());
        println!("why:      {}", planned.plan.justification());
    }
    Ok(())
}

fn cmd_explain(args: &[String]) -> CliResult {
    let (state, source) = load_state_with_source(arg(args, 0, "state.json")?)?;
    let query = arg(args, 1, "query")?;
    let domain = domain_arg(args, 2, query)?;
    let exec = Executor::from_env();
    let snapshot = finite_queries::relational::Snapshot::detached(state);
    let (planned, out) = exec.explain_snapshot(&snapshot, query, domain)?;
    println!("{}", planned.explain());
    println!("---");
    match out.completeness {
        Completeness::Decided { value } => println!("decided:    {value}"),
        Completeness::Certified => {
            println!(
                "answer:     {} tuple(s), certified complete",
                out.rows.len()
            );
            print_rows(&out.vars, &out.rows);
        }
        Completeness::CertifiedRanf {
            infinite,
            restrictor_rows,
        } => {
            println!(
                "answer:     {} tuple(s), certified by RANF — {}",
                out.rows.len(),
                if infinite {
                    format!(
                        "INFINITE answer; rows are its active-domain core \
                         ({restrictor_rows} restrictor witness(es))"
                    )
                } else {
                    "finite answer, exact (restrictor empty)".to_string()
                }
            );
            print_rows(&out.vars, &out.rows);
        }
        Completeness::Partial {
            candidates_tried,
            max_candidates,
        } => {
            println!(
                "answer:     {} tuple(s), PARTIAL ({candidates_tried}/{max_candidates} candidates tried)",
                out.rows.len()
            );
            print_rows(&out.vars, &out.rows);
        }
    }
    if !out.operators.is_empty() {
        println!("operators:  (bottom-up: rows produced, morsels processed)");
        for op in &out.operators {
            println!("  {:>6} {:>5}  {}", op.rows, op.morsels, op.op);
        }
    }
    println!(
        "parallel:   {} thread(s) (set FQ_THREADS to pin), morsel size {} row(s)",
        out.stats.threads, out.stats.morsel_rows
    );
    println!(
        "stats:      plan-cache {} ({} hit(s) / {} miss(es)), engine memo {} hit(s) / {} miss(es)",
        if out.stats.plan_cached { "hit" } else { "miss" },
        out.stats.plan_hits,
        out.stats.plan_misses,
        out.stats.engine_hits,
        out.stats.engine_misses
    );
    println!(
        "storage:    {} stored row(s), dictionary {} entr{} ({} string(s))",
        out.stats.stored_rows,
        out.stats.dict_entries,
        if out.stats.dict_entries == 1 {
            "y"
        } else {
            "ies"
        },
        out.stats.dict_strings
    );
    println!(
        "snapshot:   epoch {} of store {}",
        snapshot.epoch(),
        snapshot.store_id()
    );
    for (name, _) in snapshot.schema().relations() {
        println!("  {:>8} row(s) in {}", snapshot.relation_size(name), name);
    }
    println!(
        "source:     {} ({} byte(s) on disk; canonical snapshot {} byte(s))",
        source.format,
        source.bytes,
        relational::format::snapshot_len(snapshot.state())
    );
    println!("fingerprint: {:#034x}", out.stats.state_fingerprint);
    Ok(())
}

fn cmd_safe(args: &[String]) -> CliResult {
    let state = load_state(arg(args, 0, "state.json")?)?;
    let query = arg(args, 1, "query")?;
    let domain = match args.get(2) {
        Some(name) => DomainId::parse(name)?,
        None => DomainId::Nat,
    };
    match Executor::default().relative_safety(&state, query, domain)? {
        Some(finite) => println!(
            "the answer of `{query}` in this state is {} over domain `{}`",
            if finite { "FINITE" } else { "INFINITE" },
            domain.key()
        ),
        None => println!(
            "relative safety over `{}` is undecidable (Theorem 3.3); \
             use `fq eval … traces` for a budgeted partial answer",
            domain.key()
        ),
    }
    Ok(())
}

fn cmd_decide(args: &[String]) -> CliResult {
    let domain = DomainId::parse(arg(args, 0, "domain")?)?;
    let value = Executor::default().decide(domain, arg(args, 1, "sentence")?)?;
    println!("{value}");
    Ok(())
}

fn cmd_traces(args: &[String]) -> CliResult {
    let machine_str = arg(args, 0, "machine-string")?;
    let word = arg(args, 1, "word")?;
    let budget: usize = args
        .get(2)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(10_000);
    let machine = finite_queries::turing::decode_machine(machine_str)
        .ok_or("the machine string does not decode")?;
    match count_traces(&machine, word, budget) {
        TraceCount::Exactly(n) => {
            println!("machine halts: exactly {n} traces in {word:?}");
            for k in 1..=n {
                println!("  {}", trace_string(&machine, word, k).expect("k ≤ n"));
            }
        }
        TraceCount::AtLeast(n) => {
            println!(
                "machine still running after {budget} steps: at least {n} traces \
                 (showing the first 3)"
            );
            for k in 1..=3 {
                println!("  {}", trace_string(&machine, word, k).expect("running"));
            }
        }
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult {
    use finite_queries::query::{QueryService, Server};
    use finite_queries::relational::{wal, Durability, SharedState, WalOptions};
    use std::sync::Arc;

    let mut positional: Vec<String> = Vec::new();
    let mut data_dir: Option<std::path::PathBuf> = None;
    let mut durability = Durability::Batch;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--data-dir" => {
                data_dir = Some(arg(args, i + 1, "--data-dir DIR")?.into());
                i += 2;
            }
            "--durability" => {
                durability = Durability::parse(arg(args, i + 1, "--durability POLICY")?)?;
                i += 2;
            }
            other => {
                positional.push(other.to_string());
                i += 1;
            }
        }
    }
    let addr = positional
        .get(1)
        .map(String::as_str)
        .unwrap_or("127.0.0.1:7878");
    let opts = WalOptions::with_durability(durability);

    // A durable directory that already holds a store wins over the
    // <state> argument: the log is the authority on what was published.
    let shared = match &data_dir {
        Some(dir) if wal::exists(dir) => {
            let (shared, recovery) = SharedState::open_durable(dir, opts)?;
            println!(
                "fq serve: recovered epoch {} from `{}` (base epoch {}, {} delta record(s) \
                 replayed, {} stale record(s) skipped, {} torn byte(s) discarded)",
                recovery.epoch,
                dir.display(),
                recovery.base_epoch,
                recovery.replayed,
                recovery.skipped,
                recovery.discarded_bytes
            );
            if !positional.is_empty() {
                println!(
                    "note: `{}` ignored — the durable store in `{}` is the authority",
                    positional[0],
                    dir.display()
                );
            }
            println!(
                "fq serve: store {} (epoch {}, {} row(s), fingerprint {:#034x}, durability {}) \
                 recovered",
                shared.store_id(),
                shared.epoch(),
                shared.snapshot().size(),
                shared.snapshot().fingerprint(),
                durability.key()
            );
            Arc::new(shared)
        }
        Some(dir) => {
            let (state, source) = load_state_with_source(arg(&positional, 0, "state.json")?)?;
            let shared = SharedState::create_durable(dir, state, opts)?;
            println!(
                "fq serve: store {} (epoch {}, {} row(s), loaded from {} {} byte(s), \
                 durable in `{}` with durability {})",
                shared.store_id(),
                shared.epoch(),
                shared.snapshot().size(),
                source.format,
                source.bytes,
                dir.display(),
                durability.key()
            );
            Arc::new(shared)
        }
        None => {
            let (state, source) = load_state_with_source(arg(&positional, 0, "state.json")?)?;
            let shared = SharedState::new(state);
            println!(
                "fq serve: store {} (epoch {}, {} row(s), loaded from {} {} byte(s))",
                shared.store_id(),
                shared.epoch(),
                shared.snapshot().size(),
                source.format,
                source.bytes
            );
            Arc::new(shared)
        }
    };

    let service = QueryService::new(Arc::clone(&shared), Executor::from_env());
    let server = Server::bind(service, addr)?;
    let local = server.local_addr()?;
    println!("fq serve: listening on {local}");
    println!("protocol: one JSON request per line — cmd query|explain|ingest|snapshot-info");
    server.run()?;
    Ok(())
}

/// Replay a durable `--data-dir` offline and report what recovery
/// finds: the base used, every segment's record count and any torn
/// tail, and the recovered epoch + content fingerprint. `--compact`
/// additionally folds the whole log into a fresh base snapshot.
fn cmd_recover(args: &[String]) -> CliResult {
    use finite_queries::relational::wal;

    let compact = args.iter().any(|a| a == "--compact");
    let positional: Vec<String> = args.iter().filter(|a| *a != "--compact").cloned().collect();
    let dir = std::path::PathBuf::from(arg(&positional, 0, "data directory")?);
    let recovery = if compact {
        wal::compact_offline(&dir)?
    } else {
        wal::recover(&dir)?
    };
    println!(
        "base:        {} (epoch {})",
        recovery.base_path.display(),
        recovery.base_epoch
    );
    for seg in &recovery.segments {
        let torn = if seg.valid_bytes < seg.bytes {
            format!(
                " — torn tail, {} byte(s) discarded",
                seg.bytes - seg.valid_bytes
            )
        } else {
            String::new()
        };
        println!(
            "segment:     {} ({} record(s), {} byte(s){torn})",
            seg.path.display(),
            seg.records,
            seg.bytes
        );
    }
    if let Some(why) = &recovery.torn_tail {
        println!("torn tail:   {why}");
    }
    println!(
        "replayed:    {} delta record(s) ({} stale record(s) skipped)",
        recovery.replayed, recovery.skipped
    );
    println!(
        "recovered:   epoch {}, {} row(s)",
        recovery.epoch,
        recovery.state.size()
    );
    println!("fingerprint: {:#034x}", recovery.state.fingerprint());
    if compact {
        println!(
            "compacted:   log folded into base-{:020}.fqsnap; the delta log is now empty",
            recovery.epoch
        );
    }
    Ok(())
}

/// Convert a state between the JSON interchange format and the binary
/// columnar snapshot. Direction is inferred from the input's magic
/// bytes: a snapshot converts to JSON, anything else is parsed as JSON
/// and converts to a snapshot.
fn cmd_convert(args: &[String]) -> CliResult {
    let input = arg(args, 0, "input state")?;
    let output = arg(args, 1, "output path")?;
    let (state, source) = load_state_with_source(input)?;
    let (out_format, out_bytes) = if source.format == relational::FORMAT_ID {
        (
            relational::JSON_FORMAT_ID,
            fq_json::to_string(&state).into_bytes(),
        )
    } else {
        (relational::FORMAT_ID, state.snapshot_bytes())
    };
    std::fs::write(output, &out_bytes).map_err(|e| format!("cannot write `{output}`: {e}"))?;
    println!(
        "converted {} ({} byte(s), {}) -> {} ({} byte(s), {}): {} row(s)",
        input,
        source.bytes,
        source.format,
        output,
        out_bytes.len(),
        out_format,
        state.size()
    );
    Ok(())
}

fn cmd_machines(args: &[String]) -> CliResult {
    let n: usize = args.first().map(|s| s.parse()).transpose()?.unwrap_or(10);
    for (i, m) in finite_queries::turing::MachineEnumerator::new()
        .take(n)
        .enumerate()
    {
        println!(
            "M_{i}: {} ({} states, {} transitions)",
            finite_queries::turing::encode_machine(&m),
            m.n_states(),
            m.n_transitions()
        );
    }
    Ok(())
}

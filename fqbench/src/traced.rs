//! The traced run: the workload's seeded request stream replayed
//! in-process as the sequence of public calls `fq serve` makes, each
//! call wrapped in a span.
//!
//! Every request runs twice: once through the traced mirror of the
//! service on store A, once through `QueryService::handle_line` on an
//! identical store B. The two answers must agree (and match the digests
//! computed at generation time), so the mirror cannot drift from the
//! service; the time the two take gives the tracing overhead.

use crate::digest::{self, Digest};
use crate::inputs::{self, BatchStream, PoolStream, SeedDir, Text};
use crate::json;
use crate::stats;
use crate::{metric, Workload};
use fq_json::{FromJson, ToJson, Value as Json};
use fq_query::{Completeness, DomainId, DomainRegistry, Executor, QueryPlan, QueryService};
use fq_relational::{
    translate_to_domain_formula, Durability, ExecOpts, OpStat, PhysicalPlan, SharedState, State,
    Value, Wal, WalOptions, DEFAULT_MORSEL_ROWS,
};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Reads per connection replayed on `trace_read`.
const READS_PER_CONN: usize = 1000;
/// Ingests replayed on `trace_publish`, each followed by
/// `load::READS_PER_INGEST` reads as in the untraced run.
const PUBLISH_INGESTS: usize = 100;
/// Requests replayed on `strategy_mix`.
const MIX_REQUESTS: usize = 600;

const NO_PARENT: u32 = u32::MAX;

/// One timed call: name, request, parent span, start and end in
/// nanoseconds since the run began, and whether the call failed.
pub struct Span {
    pub name: &'static str,
    pub req: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub failed: bool,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    req: u32,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            req: self.req,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            start_ns: 0,
            end_ns: 0,
            failed: false,
        });
        self.stack.push(id);
        // Stamped last, so the bookkeeping above stays outside the span.
        self.spans[id as usize].start_ns = self.now();
        id
    }

    fn close(&mut self, id: u32, failed: bool) {
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.failed = failed;
        self.stack.pop();
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id, false);
        out
    }

    fn try_span<T, E>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> Result<T, E>,
    ) -> Result<T, E> {
        let id = self.open(name);
        let out = f(self);
        self.close(id, out.is_err());
        out
    }
}

/// What the traced run measured.
#[derive(Default)]
pub struct Traced {
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Per request: traced time and the service's time, in µs.
    pub traced_us: Vec<f64>,
    pub service_us: Vec<f64>,
    pub response_bytes: u64,
    pub plans: u64,
    pub plan_hits: u64,
    pub memo: (usize, usize),
    pub core_memo_misses: u64,
    pub scanned_rows: u64,
    pub answer_rows: u64,
    pub morsels: u64,
    pub executions: u64,
    pub restrictor_rows: u64,
    pub wal_bytes: u64,
    pub replayed: u64,
    pub dict_entries: u64,
}

impl Traced {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }

    /// Write the spans out, one per line.
    pub fn write_spans(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("name\treq\tparent\tstart_ns\tend_ns\tfailed\n");
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{}\t{}\t{parent}\t{}\t{}\t{}\n",
                s.name, s.req, s.start_ns, s.end_ns, s.failed as u8
            ));
        }
        fs::write(path, out)
    }
}

fn plan_span_name(hit: bool, strategy: &str) -> &'static str {
    match (hit, strategy) {
        (true, _) => "exec.plan_hit",
        (false, "algebra") => "exec.plan_miss.algebra",
        (false, "active-domain") => "exec.plan_miss.active-domain",
        (false, "ranf") => "exec.plan_miss.ranf",
        (false, "enumerate-and-ask") => "exec.plan_miss.enumerate-and-ask",
        (false, _) => "exec.plan_miss.qe-decide",
    }
}

/// The service's `completeness` field.
fn completeness_json(c: &Completeness) -> Json {
    match c {
        Completeness::Certified => Json::Str("certified".to_string()),
        Completeness::CertifiedRanf {
            infinite,
            restrictor_rows,
        } => fq_json::object([(
            "certified_ranf",
            fq_json::object([
                ("infinite", infinite.to_json()),
                ("restrictor_rows", restrictor_rows.to_json()),
            ]),
        )]),
        Completeness::Decided { value } => fq_json::object([("decided", value.to_json())]),
        Completeness::Partial {
            candidates_tried,
            max_candidates,
        } => fq_json::object([(
            "partial",
            fq_json::object([
                ("candidates_tried", candidates_tried.to_json()),
                ("max_candidates", max_candidates.to_json()),
            ]),
        )]),
    }
}

fn ok_response(fields: Json) -> String {
    let mut members = vec![("ok".to_string(), Json::Bool(true))];
    if let Json::Object(f) = fields {
        members.extend(f);
    }
    Json::Object(members).to_compact()
}

fn sum_scans(ops: &[OpStat], t: &mut Traced) {
    for op in ops {
        if op.op.starts_with("scan ") {
            t.scanned_rows += op.rows as u64;
        }
        t.morsels += op.morsels as u64;
    }
}

/// The `query` verb, call by call.
fn query(
    tr: &mut Tracer,
    t: &mut Traced,
    shared: &SharedState,
    exec: &Executor,
    line: &str,
) -> Result<String, String> {
    let (source, domain) = tr.try_span("serve.decode", |_| {
        let request = fq_json::parse(line).map_err(|e| e.to_string())?;
        let source = request
            .get("query")
            .and_then(Json::as_str)
            .ok_or("missing `query`")?
            .to_string();
        let domain = request
            .get("domain")
            .and_then(Json::as_str)
            .ok_or("missing `domain`")?;
        Ok::<_, String>((source, DomainId::parse(domain).map_err(|e| e.to_string())?))
    })?;
    let snapshot = tr.span("state.snapshot", |_| shared.snapshot());
    tr.span("state.fingerprint", |_| snapshot.fingerprint());
    tr.span("state.colstats", |_| {
        for (name, _) in snapshot.schema().relations() {
            snapshot.column_stats(name);
        }
    });
    let plan_span = tr.open("exec.plan");
    let planned = exec.plan(&snapshot, &source, domain);
    tr.close(plan_span, planned.is_err());
    let (planned, cached) = planned.map_err(|e| e.to_string())?;
    tr.spans[plan_span as usize].name = plan_span_name(cached, planned.plan.strategy());
    t.plans += 1;
    t.plan_hits += cached as u64;

    let vars = planned.compiled.free_vars.clone();
    let opts = ExecOpts {
        morsel_rows: DEFAULT_MORSEL_ROWS,
    };
    let engine = exec.engine();
    let (rows, completeness): (Vec<Vec<Value>>, Completeness) = match &planned.plan {
        QueryPlan::Algebra { optimized, .. } => {
            let physical = tr.span("physical.compile", |_| PhysicalPlan::compile(optimized));
            let report = tr.span("physical.execute", |_| {
                physical.execute_with_stats_on(&snapshot, engine, opts)
            });
            sum_scans(&report.operators, t);
            t.executions += 1;
            let rows: Vec<Vec<Value>> = tr.span("answer.reorder", |_| {
                report.relation.reorder(&vars).tuples.into_iter().collect()
            });
            t.answer_rows += rows.len() as u64;
            (rows, Completeness::Certified)
        }
        QueryPlan::Ranf {
            generator,
            restrictor,
            aux,
            ..
        } => {
            let gen = tr.span("physical.compile", |_| {
                PhysicalPlan::compile(&generator.optimized)
            });
            let res = tr.span("physical.compile", |_| {
                PhysicalPlan::compile(&restrictor.optimized)
            });
            let gen_report = tr.span("ranf.gen_execute", |_| {
                gen.execute_with_stats_on(&aux.state, engine, opts)
            });
            let res_report = tr.span("ranf.res_execute", |_| {
                res.execute_with_stats_on(&aux.state, engine, opts)
            });
            let rows: Vec<Vec<Value>> = tr.span("answer.reorder", |_| {
                gen_report
                    .relation
                    .reorder(&vars)
                    .tuples
                    .into_iter()
                    .collect()
            });
            let restrictor_rows = res_report.relation.tuples.len();
            t.restrictor_rows += restrictor_rows as u64;
            (
                rows,
                Completeness::CertifiedRanf {
                    infinite: restrictor_rows > 0,
                    restrictor_rows,
                },
            )
        }
        QueryPlan::ActiveDomain { .. } => {
            let rows = tr
                .try_span("core.eval_active", |_| {
                    DomainRegistry.eval_active(
                        planned.domain,
                        &snapshot,
                        &planned.compiled.normalized,
                        &vars,
                        engine,
                    )
                })
                .map_err(|e| e.to_string())?;
            (rows, Completeness::Certified)
        }
        QueryPlan::EnumerateAndAsk { max_candidates, .. } => {
            let before = engine.cache_stats().1;
            let out = tr
                .try_span("core.answer", |_| {
                    DomainRegistry.answer(
                        planned.domain,
                        &snapshot,
                        &planned.compiled.normalized,
                        &vars,
                        *max_candidates,
                        engine,
                    )
                })
                .map_err(|e| e.to_string())?;
            t.core_memo_misses += (engine.cache_stats().1 - before) as u64;
            match out {
                fq_core::answer::AnswerOutcome::Complete(rows) => (rows, Completeness::Certified),
                fq_core::answer::AnswerOutcome::BudgetExhausted {
                    found,
                    candidates_tried,
                } => (
                    found,
                    Completeness::Partial {
                        candidates_tried,
                        max_candidates: *max_candidates,
                    },
                ),
            }
        }
        QueryPlan::QeDecide { .. } => {
            let sentence = tr.span("domains.translate", |_| {
                translate_to_domain_formula(&planned.compiled.normalized, &snapshot)
            });
            let value = tr
                .try_span("domains.decide", |_| {
                    DomainRegistry.decide(planned.domain, &sentence, engine)
                })
                .map_err(|e| e.to_string())?;
            (Vec::new(), Completeness::Decided { value })
        }
    };
    let response = tr.span("serve.encode", |_| {
        ok_response(fq_json::object([
            ("epoch", snapshot.epoch().to_json()),
            ("domain", domain.key().to_json()),
            ("strategy", planned.plan.strategy().to_json()),
            ("vars", vars.to_json()),
            ("rows", rows.to_json()),
            ("completeness", completeness_json(&completeness)),
            ("plan_cached", cached.to_json()),
        ]))
    });
    tr.span("serve.release", |_| drop((rows, planned, snapshot)));
    Ok(response)
}

/// The `ingest` verb, call by call, publishing on a non-durable store
/// and appending to a separate log.
fn ingest(
    tr: &mut Tracer,
    shared: &SharedState,
    wal: &mut Wal,
    line: &str,
) -> Result<String, String> {
    let (relation, rows) = tr.try_span("serve.decode", |_| {
        let request = fq_json::parse(line).map_err(|e| e.to_string())?;
        let relation = request
            .get("relation")
            .and_then(Json::as_str)
            .ok_or("missing `relation`")?
            .to_string();
        let rows = Vec::<Vec<Value>>::from_json(request.get("rows").ok_or("missing `rows`")?)
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((relation, rows))
    })?;
    let base = tr.span("state.snapshot", |_| shared.snapshot());
    let (next, added) = tr.try_span("state.extend", |_| {
        let mut next = (**base.state()).clone();
        let added = next
            .extend_bulk(&relation, rows.iter().cloned())
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((next, added))
    })?;
    let fingerprint = tr.span("state.fingerprint", |_| next.fingerprint());
    let epoch = base.epoch() + 1;
    let next = Arc::new(next);
    tr.try_span("wal.append", |_| {
        wal.append(epoch, &[(relation.clone(), rows)], fingerprint, &next)
    })
    .map_err(|e| e.to_string())?;
    let next = Arc::try_unwrap(next).unwrap_or_else(|shared| (*shared).clone());
    let epoch = tr
        .try_span("state.publish", |_| shared.publish(next))
        .map_err(|e| e.to_string())?;
    let snapshot = tr.span("state.snapshot", |_| shared.snapshot());
    let bytes = tr.span("format.snapshot_len", |_| {
        fq_relational::format::snapshot_len(snapshot.state())
    });
    let response = tr.span("serve.encode", |_| {
        ok_response(fq_json::object([
            ("added", added.to_json()),
            ("epoch", epoch.to_json()),
            ("format", Json::Str(fq_relational::FORMAT_ID.to_string())),
            ("snapshot_bytes", bytes.to_json()),
        ]))
    });
    // The superseded snapshot's private columns are freed here, as at
    // the end of the service's ingest.
    tr.span("state.release", |_| drop((base, snapshot)));
    Ok(response)
}

enum Req {
    Query(Text, Digest),
    Ingest(String),
}

/// Compare the traced and service responses of one request. The
/// service's store counts epochs from `offset`, the traced one from 0.
fn agree(traced: &str, service: &str, want: Option<&Digest>, offset: u64) -> Result<(), String> {
    let a = json::parse(traced)?;
    let b = json::parse(service)?;
    let same = |k: &str| a.get(k) == b.get(k);
    let epoch = |j: &json::J| j.get("epoch").and_then(json::J::as_u64);
    let epochs = epoch(&a).map(|e| e + offset) == epoch(&b);
    if let Some(want) = want {
        let (da, db) = (digest::of_response(&a)?, digest::of_response(&b)?);
        if &da != want || &db != want || !epochs || !same("strategy") || !same("vars") {
            return Err(format!("traced {da:?}, service {db:?}, expected {want:?}"));
        }
    } else if !same("ok") || !same("added") || !epochs || !same("snapshot_bytes") {
        return Err(format!("traced {traced}, service {service}"));
    }
    Ok(())
}

/// The warm-up pass: every pool text once.
fn warm_up(pool: &[Text], expected: &[Digest]) -> impl Iterator<Item = Req> {
    let pairs: Vec<(Text, Digest)> = pool.iter().cloned().zip(expected.iter().cloned()).collect();
    pairs.into_iter().map(|(q, d)| Req::Query(q, d))
}

fn load(tr: &mut Tracer, path: &Path) -> io::Result<State> {
    tr.span("format.read", |_| {
        State::read_snapshot(&fs::read(path)?).map_err(io::Error::other)
    })
}

pub fn run(workload: Workload, seeds: &SeedDir, scratch: &Path) -> io::Result<Traced> {
    let mut tr = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        req: 0,
    };
    let mut t = Traced::default();
    let mut wal = None;
    let mut service_store = None;
    // The stream, exactly as the untraced run sends it: warm-up first,
    // then the connections' requests, interleaved.
    let mut reqs = Vec::new();
    let state = match workload {
        Workload::TraceRead => {
            let (pool, expected) = seeds.trace_texts()?;
            let state = load(&mut tr, &seeds.trace_snapshot())?;
            let mut streams: Vec<PoolStream> = (0..2)
                .map(|c| {
                    PoolStream::new(
                        &pool,
                        inputs::TRACE_WEIGHTS,
                        inputs::sub_seed(seeds.seed, &format!("read-{c}")),
                    )
                })
                .collect();
            reqs.extend(warm_up(&pool, &expected));
            for _ in 0..READS_PER_CONN {
                for s in &mut streams {
                    let i = s.next_text();
                    reqs.push(Req::Query(pool[i].clone(), expected[i].clone()));
                }
            }
            state
        }
        Workload::TracePublish => {
            let (prepared, pool, expected) = seeds.publish_inputs()?;
            let base = fs::read_dir(&prepared)?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .find(|p| {
                    p.file_name()
                        .is_some_and(|n| n.to_string_lossy().starts_with("base-"))
                })
                .ok_or_else(|| io::Error::other("prepared directory has no base snapshot"))?;
            load(&mut tr, &base)?;
            let copy = scratch.join("traced-data");
            crate::load::fresh_copy(&prepared, &copy)?;
            // The service side is the durable store `fq serve --data-dir`
            // runs; the traced side publishes on a plain store and appends
            // to its own log.
            let service_copy = scratch.join("service-data");
            crate::load::fresh_copy(&prepared, &service_copy)?;
            let opts = WalOptions::with_durability(Durability::Batch);
            service_store = Some(
                SharedState::open_durable(&service_copy, opts)
                    .map_err(io::Error::other)?
                    .0,
            );
            let (w, recovery) = tr
                .try_span("wal.recover", |_| Wal::open(&copy, opts))
                .map_err(io::Error::other)?;
            t.replayed = recovery.replayed as u64;
            wal = Some(w);
            reqs.extend(warm_up(&pool, &expected));
            let mut batches = BatchStream::new(seeds.seed, "w");
            let mut stream = PoolStream::new(
                &pool,
                inputs::TRACE_WEIGHTS,
                inputs::sub_seed(seeds.seed, "read-0"),
            );
            // Expected answers: the recovered answer plus the answer over
            // the batches ingested so far, whose strings are all new.
            let mut delta = State::new(fq_bench::workloads::trace_db_schema());
            let delta_exec = Executor::new(fq_engine::Engine::sequential());
            for _ in 0..PUBLISH_INGESTS {
                let (relation, rows) = batches.next_batch(crate::load::MAX_BATCH_ROWS);
                reqs.push(Req::Ingest(inputs::ingest_line(relation, &rows)));
                delta
                    .extend_bulk(relation, rows)
                    .map_err(io::Error::other)?;
                for _ in 0..crate::load::READS_PER_INGEST {
                    let i = stream.next_text();
                    let extra = delta_exec
                        .execute(&delta, &pool[i].source, pool[i].domain_id())
                        .map_err(|e| io::Error::other(e.to_string()))?;
                    reqs.push(Req::Query(
                        pool[i].clone(),
                        expected[i].union(&digest::of_outcome(&extra)),
                    ));
                }
            }
            recovery.state
        }
        Workload::StrategyMix => {
            let path = seeds.mix_snapshot()?;
            let state = load(&mut tr, &path)?;
            let (texts, expected) = seeds.mix_expected(MIX_REQUESTS)?;
            reqs.extend(
                texts
                    .into_iter()
                    .zip(expected)
                    .map(|(q, d)| Req::Query(q, d)),
            );
            state
        }
    };

    let traced_store = SharedState::new(state.clone());
    let service_store = service_store.unwrap_or_else(|| SharedState::new(state));
    let offset = service_store.epoch();
    let service = QueryService::new(Arc::new(service_store), Executor::from_env());
    let exec = Executor::from_env();
    let memo_before = exec.engine().cache_stats();
    for (n, req) in reqs.iter().enumerate() {
        tr.req = n as u32;
        let (line, want) = match req {
            Req::Query(text, want) => (text.line(), Some(want)),
            Req::Ingest(line) => (line.clone(), None),
        };
        // Alternate which side runs first, so neither always finds the
        // caches the other warmed.
        let mut traced_run = |tr: &mut Tracer, t: &mut Traced| {
            let t0 = Instant::now();
            let root = tr.open(if want.is_some() {
                "request.query"
            } else {
                "request.ingest"
            });
            let out = match want {
                Some(_) => query(tr, t, &traced_store, &exec, &line),
                None => ingest(
                    tr,
                    &traced_store,
                    wal.as_mut().expect("publish has a log"),
                    &line,
                ),
            };
            tr.close(root, out.is_err());
            (out, t0.elapsed().as_secs_f64() * 1e6)
        };
        let service_run = || {
            let t0 = Instant::now();
            let out = service.handle_line(&line);
            (out, t0.elapsed().as_secs_f64() * 1e6)
        };
        let ((traced, traced_us), (reference, service_us)) = if n % 2 == 0 {
            let a = traced_run(&mut tr, &mut t);
            (a, service_run())
        } else {
            let b = service_run();
            (traced_run(&mut tr, &mut t), b)
        };
        t.attempted += 1;
        t.traced_us.push(traced_us);
        t.service_us.push(service_us);
        match traced {
            Ok(response) => {
                t.response_bytes += response.len() as u64;
                if let Err(why) = agree(&response, &reference, want, offset) {
                    t.fail(format!("request {n}: {why}"));
                }
            }
            Err(why) => t.fail(format!("request {n}: traced call failed: {why}")),
        }
    }
    let memo_after = exec.engine().cache_stats();
    t.memo = (memo_after.0 - memo_before.0, memo_after.1 - memo_before.1);
    if let Some(w) = &wal {
        t.wal_bytes = w.info().log_bytes;
    }
    let ours = traced_store.snapshot();
    let theirs = service.shared().snapshot();
    t.attempted += 1;
    if ours.epoch() + offset != theirs.epoch() || ours.fingerprint() != theirs.fingerprint() {
        t.fail("traced and service stores diverged".to_string());
    }
    t.dict_entries = ours.dict().len() as u64;
    t.spans = tr.spans;
    Ok(t)
}

/// Per span name: calls, busy ns, self ns, failures.
fn layers(t: &Traced) -> BTreeMap<&'static str, (u64, u64, u64, u64)> {
    let mut child_ns = vec![0u64; t.spans.len()];
    for s in &t.spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.ns();
        }
    }
    let mut by: BTreeMap<&'static str, (u64, u64, u64, u64)> = BTreeMap::new();
    for (s, child) in t.spans.iter().zip(child_ns) {
        let e = by.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.ns();
        e.2 += s.ns().saturating_sub(child);
        e.3 += s.failed as u64;
    }
    by
}

fn request_ns(by: &BTreeMap<&'static str, (u64, u64, u64, u64)>) -> (u64, u64) {
    let q = by.get("request.query").copied().unwrap_or_default();
    let i = by.get("request.ingest").copied().unwrap_or_default();
    (q.1 + i.1, q.2 + i.2)
}

/// The per-layer metrics of the result line.
pub fn metrics(t: &Traced) -> Vec<String> {
    let by = layers(t);
    let get = |name: &str| by.get(name).copied().unwrap_or_default();
    let (busy, unattributed) = request_ns(&by);
    let mean_us = |names: &[&str]| {
        let (calls, ns) = names
            .iter()
            .map(|n| get(n))
            .fold((0, 0), |(c, b), e| (c + e.0, b + e.1));
        ns as f64 / 1e3 / calls.max(1) as f64
    };
    let misses: Vec<&str> = by
        .keys()
        .copied()
        .filter(|n| n.starts_with("exec.plan_miss."))
        .collect();
    let mut all_plans = misses.clone();
    all_plans.push("exec.plan_hit");
    let share = |name: &str| get(name).1 as f64 / busy.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    vec![
        metric("serve.decode_us", mean_us(&["serve.decode"]), "us"),
        metric("serve.encode_us", mean_us(&["serve.encode"]), "us"),
        metric(
            "serve.response_bytes",
            ratio(t.response_bytes as f64, t.attempted as f64),
            "B",
        ),
        metric("exec.plan_us", mean_us(&all_plans), "us"),
        metric("exec.plan_miss_us", mean_us(&misses), "us"),
        metric(
            "exec.plan_hit_ratio",
            ratio(t.plan_hits as f64, t.plans as f64),
            "ratio",
        ),
        metric(
            "state.fingerprint_us",
            mean_us(&["state.fingerprint"]),
            "us",
        ),
        metric("state.colstats_us", mean_us(&["state.colstats"]), "us"),
        metric("state.dict_entries", t.dict_entries as f64, "count"),
        metric("physical.compile_us", mean_us(&["physical.compile"]), "us"),
        metric("physical.execute_us", mean_us(&["physical.execute"]), "us"),
        metric(
            "physical.rows_scanned_per_answer_row",
            ratio(t.scanned_rows as f64, t.answer_rows as f64),
            "ratio",
        ),
        metric(
            "physical.morsels",
            ratio(t.morsels as f64, t.executions as f64),
            "count",
        ),
        metric("answer.reorder_us", mean_us(&["answer.reorder"]), "us"),
        metric("format.read_ms", mean_us(&["format.read"]) / 1e3, "ms"),
        metric(
            "engine.memo_hit_ratio",
            ratio(t.memo.0 as f64, (t.memo.0 + t.memo.1) as f64),
            "ratio",
        ),
        metric("state.extend_share", share("state.extend"), "fraction"),
        metric("state.publish_share", share("state.publish"), "fraction"),
        metric(
            "format.snapshot_len_share",
            share("format.snapshot_len"),
            "fraction",
        ),
        metric("wal.append_share", share("wal.append"), "fraction"),
        metric("wal.bytes_appended", t.wal_bytes as f64, "B"),
        metric("wal.replayed_records", t.replayed as f64, "count"),
        metric("domains.decide_share", share("domains.decide"), "fraction"),
        metric(
            "core.eval_active_share",
            share("core.eval_active"),
            "fraction",
        ),
        metric("core.answer_share", share("core.answer"), "fraction"),
        metric("core.memo_misses", t.core_memo_misses as f64, "count"),
        metric(
            "ranf.gen_execute_share",
            share("ranf.gen_execute"),
            "fraction",
        ),
        metric(
            "ranf.res_execute_share",
            share("ranf.res_execute"),
            "fraction",
        ),
        metric("ranf.restrictor_rows", t.restrictor_rows as f64, "count"),
        metric(
            "trace.unattributed_frac",
            ratio(unattributed as f64, busy as f64),
            "fraction",
        ),
        metric(
            "trace.overhead_frac",
            ratio(sum(&t.traced_us), sum(&t.service_us)) - 1.0,
            "fraction",
        ),
        metric("trace.requests", t.attempted as f64, "count"),
    ]
}

/// The report lines of a traced run.
pub fn report(t: &Traced) -> Vec<String> {
    let by = layers(t);
    let (busy, unattributed) = request_ns(&by);
    let rate = |us: &[f64]| us.len() as f64 / (us.iter().sum::<f64>() / 1e6);
    let mut lines = vec![
        format!(
            "traced in-process:  {:.1} req/s, request p50 {:.1} us ({} requests)",
            rate(&t.traced_us),
            stats::median(&t.traced_us),
            t.traced_us.len()
        ),
        format!(
            "service in-process: {:.1} req/s, request p50 {:.1} us (QueryService::handle_line)",
            rate(&t.service_us),
            stats::median(&t.service_us)
        ),
        format!(
            "spans cover {:.2}% of traced request time; {:.3} ms unattributed",
            100.0 * (1.0 - unattributed as f64 / busy.max(1) as f64),
            unattributed as f64 / 1e6
        ),
        format!(
            "{:34} {:>7} {:>10} {:>10} {:>10} {:>6}",
            "span", "calls", "busy_ms", "self_ms", "mean_us", "failed"
        ),
    ];
    for (name, (calls, busy, own, failed)) in &by {
        lines.push(format!(
            "{name:34} {calls:>7} {:>10.3} {:>10.3} {:>10.2} {failed:>6}",
            *busy as f64 / 1e6,
            *own as f64 / 1e6,
            *busy as f64 / 1e3 / *calls as f64
        ));
    }
    lines.push(format!(
        "failed_frac: {:.6} ({} of {} attempted)",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    ));
    for p in &t.problems {
        lines.push(format!(
            "  FAILED: {}",
            p.chars().take(300).collect::<String>()
        ));
    }
    lines
}

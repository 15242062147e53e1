//! The untraced run: closed-loop clients over loopback against a real
//! `fq serve` child process, with every answer checked.

use crate::digest::{self, Digest};
use crate::inputs::{self, BatchStream, MixStream, PoolStream, SeedDir, Text};
use crate::json::{self, J};
use crate::server::{Conn, Server};
use crate::stats;
use crate::Workload;
use fq_relational::State;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Server starts per run, `setup_s` being their median: at least
/// `SETUP_MIN_REPS`, more until `SETUP_MIN_SECONDS` have passed, so a
/// set-up of a few milliseconds is measured many times.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 25;
const SETUP_MIN_SECONDS: f64 = 2.0;
/// Largest ingest batch of `trace_publish`.
pub const MAX_BATCH_ROWS: usize = 64;
/// Reads after each ingest on `trace_publish`.
pub const READS_PER_INGEST: usize = 2;
/// Requests after which `strategy_mix` reads the server's peak RSS. The
/// engine memo and interner grow with every distinct text, so a reading
/// at the end of the window would grow with the host's speed.
const MIX_RSS_AT_REQUESTS: usize = 800;

/// What one untraced run measured.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub elapsed_s: f64,
    pub requests: u64,
    pub query_ms: Vec<f64>,
    pub ingest_ms: Vec<f64>,
    pub fresh_ms: Vec<f64>,
    pub per_class: BTreeMap<&'static str, Vec<f64>>,
    pub peak_rss_mb: f64,
    /// Requests served when `peak_rss_mb` was read.
    pub rss_requests: u64,
    pub log_bytes_per_row: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }
}

/// One query response kept for checking after the timed window, with
/// how many byte-identical responses it stands for.
struct Kept {
    text: usize,
    raw: String,
    count: u64,
}

/// What a reader connection saw.
#[derive(Default)]
struct ReaderLog {
    latency_ms: Vec<f64>,
    class: Vec<&'static str>,
    fresh: Vec<bool>,
    copies: Vec<Kept>,
    end: Option<Instant>,
}

/// The `epoch` of a response, read without parsing the whole line.
fn epoch_of(raw: &str) -> Option<u64> {
    let at = raw.find("\"epoch\":")? + "\"epoch\":".len();
    let digits: String = raw[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Keep `raw` unless a byte-identical response to the same text is kept.
fn keep(copies: &mut Vec<Kept>, index: &mut [Vec<usize>], text: usize, raw: &str) {
    for &i in &index[text] {
        if copies[i].raw == raw {
            copies[i].count += 1;
            return;
        }
    }
    index[text].push(copies.len());
    copies.push(Kept {
        text,
        raw: raw.to_string(),
        count: 1,
    });
}

/// A reader connection over a pool. `epoch` is the epoch it last saw,
/// so a newer one marks a fresh read.
struct Reader<'a> {
    conn: Conn,
    pool: &'a [Text],
    lines: Vec<String>,
    stream: PoolStream,
    epoch: u64,
    index: Vec<Vec<usize>>,
    log: ReaderLog,
}

impl<'a> Reader<'a> {
    fn connect(
        addr: std::net::SocketAddr,
        pool: &'a [Text],
        stream: PoolStream,
        epoch: u64,
    ) -> io::Result<Reader<'a>> {
        Ok(Reader {
            conn: Conn::connect(addr)?,
            pool,
            lines: pool.iter().map(Text::line).collect(),
            stream,
            epoch,
            index: vec![Vec::new(); pool.len()],
            log: ReaderLog::default(),
        })
    }

    /// One query, timed and kept for checking.
    fn step(&mut self) -> io::Result<()> {
        let text = self.stream.next_text();
        let t0 = Instant::now();
        let raw = self.conn.call(&self.lines[text])?;
        let log = &mut self.log;
        log.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        log.class.push(self.pool[text].class);
        let seen = epoch_of(raw).unwrap_or(self.epoch);
        log.fresh.push(seen > self.epoch);
        self.epoch = self.epoch.max(seen);
        keep(&mut log.copies, &mut self.index, text, raw);
        Ok(())
    }

    fn finish(mut self) -> ReaderLog {
        self.log.end = Some(Instant::now());
        self.log
    }
}

/// Closed loop over a pool until `deadline`.
fn read_loop(
    addr: std::net::SocketAddr,
    pool: &[Text],
    stream: PoolStream,
    epoch: u64,
    deadline: Instant,
) -> io::Result<ReaderLog> {
    let mut reader = Reader::connect(addr, pool, stream, epoch)?;
    while Instant::now() < deadline {
        reader.step()?;
    }
    Ok(reader.finish())
}

/// What the writer connection saw.
#[derive(Default)]
struct WriterLog {
    latency_ms: Vec<f64>,
    ingests: u64,
    rows: u64,
    epoch: u64,
    problems: Vec<String>,
    end: Option<Instant>,
}

/// The writer connection: fresh ingest batches, every acknowledgement
/// adding the whole batch at the next epoch.
struct Writer {
    conn: Conn,
    batches: BatchStream,
    log: WriterLog,
}

impl Writer {
    fn connect(addr: std::net::SocketAddr, batches: BatchStream, epoch: u64) -> io::Result<Writer> {
        Ok(Writer {
            conn: Conn::connect(addr)?,
            batches,
            log: WriterLog {
                epoch,
                ..WriterLog::default()
            },
        })
    }

    /// One ingest, timed and checked.
    fn step(&mut self) -> io::Result<()> {
        let log = &mut self.log;
        let (relation, rows) = self.batches.next_batch(MAX_BATCH_ROWS);
        let line = inputs::ingest_line(relation, &rows);
        let t0 = Instant::now();
        let raw = self.conn.call(&line)?;
        log.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        log.ingests += 1;
        let ack = json::parse(raw).unwrap_or(J::Null);
        let added = ack.get("added").and_then(J::as_u64);
        let acked = ack.get("epoch").and_then(J::as_u64);
        if ack.get("ok").and_then(J::as_bool) != Some(true)
            || added != Some(rows.len() as u64)
            || acked != Some(log.epoch + 1)
        {
            log.problems
                .push(format!("ingest at epoch {}: {raw}", log.epoch));
        } else {
            log.rows += rows.len() as u64;
        }
        log.epoch = acked.unwrap_or(log.epoch);
        Ok(())
    }

    fn finish(mut self) -> WriterLog {
        self.log.end = Some(Instant::now());
        self.log
    }
}

/// Replace `dst` with a copy of the flat directory `src`.
pub fn fresh_copy(src: &Path, dst: &Path) -> io::Result<()> {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst)?;
    for entry in fs::read_dir(src)? {
        let entry = entry?;
        fs::copy(entry.path(), dst.join(entry.file_name()))?;
    }
    Ok(())
}

/// Start the server repeatedly, timing spawn to the first correct
/// answer to `probe`; the last start is kept for the run.
fn start(
    fq: &Path,
    state: &Path,
    data: Option<(&Path, &Path)>,
    probe: &Text,
    expect: &Digest,
    out: &mut Outcome,
) -> io::Result<Server> {
    let line = probe.line();
    let begin = Instant::now();
    loop {
        if let Some((prepared, copy)) = data {
            fresh_copy(prepared, copy)?;
        }
        let t0 = Instant::now();
        let server = Server::spawn(fq, state, data.map(|(_, copy)| copy))?;
        let mut conn = Conn::connect(server.addr)?;
        let raw = conn.call(&line)?;
        let got = json::parse(raw).and_then(|j| digest::of_response(&j));
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        if got.as_ref() != Ok(expect) {
            out.fail(
                1,
                format!("probe `{}`: {got:?}, expected {expect:?}", probe.source),
            );
        }
        drop(conn);
        let reps = out.setup_s.len();
        let done = reps >= SETUP_MIN_REPS && begin.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS;
        if done || reps == SETUP_MAX_REPS {
            return Ok(server);
        }
        server.kill()?;
    }
}

/// Run every pool text once, checking it, so timed reads hit the plan
/// cache; returns the epoch the server answered at.
fn warm(
    addr: std::net::SocketAddr,
    pool: &[Text],
    expected: &[Digest],
    out: &mut Outcome,
) -> io::Result<u64> {
    let mut conn = Conn::connect(addr)?;
    let mut epoch = 0;
    for (text, expect) in pool.iter().zip(expected) {
        let raw = conn.call(&text.line())?;
        epoch = epoch_of(raw).unwrap_or(epoch);
        out.attempted += 1;
        match json::parse(raw)
            .map_err(|e| e.to_string())
            .and_then(|j| digest::of_response(&j))
        {
            Ok(got) if &got == expect => {}
            other => out.fail(1, format!("warm-up `{}`: {other:?}", text.source)),
        }
    }
    Ok(epoch)
}

fn absorb_reads(out: &mut Outcome, log: &ReaderLog) {
    out.requests += log.latency_ms.len() as u64;
    out.attempted += log.latency_ms.len() as u64;
    for ((&ms, &class), &fresh) in log.latency_ms.iter().zip(&log.class).zip(&log.fresh) {
        out.query_ms.push(ms);
        out.per_class.entry(class).or_default().push(ms);
        if fresh {
            out.fresh_ms.push(ms);
        }
    }
}

/// Count `copy` as failed unless it is a correct answer with digest
/// `want`.
fn check(out: &mut Outcome, source: &str, copy: &Kept, want: &Digest) {
    let got = json::parse(&copy.raw).and_then(|j| digest::of_response(&j));
    if got.as_ref() != Ok(want) {
        let got: String = format!("{got:?}").chars().take(200).collect();
        out.fail(copy.count, format!("`{source}`: {got}, expected {want:?}"));
    }
}

pub fn run(
    workload: Workload,
    fq: &Path,
    seeds: &SeedDir,
    seconds: f64,
    scratch: &Path,
) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let window = std::time::Duration::from_secs_f64(seconds);
    match workload {
        Workload::TraceRead => {
            let (pool, expected) = seeds.trace_texts()?;
            let probe = pool
                .iter()
                .position(|t| t.class == "looping")
                .expect("pool has Looping");
            let server = start(
                fq,
                &seeds.trace_snapshot(),
                None,
                &pool[probe],
                &expected[probe],
                &mut out,
            )?;
            let epoch = warm(server.addr, &pool, &expected, &mut out)?;
            let start = Instant::now();
            let deadline = start + window;
            let logs: Vec<io::Result<ReaderLog>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|c| {
                        let stream = PoolStream::new(
                            &pool,
                            inputs::TRACE_WEIGHTS,
                            inputs::sub_seed(seeds.seed, &format!("read-{c}")),
                        );
                        let pool = &pool;
                        s.spawn(move || read_loop(server.addr, pool, stream, epoch, deadline))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("reader thread"))
                    .collect()
            });
            let mut end = start;
            for log in logs {
                let log = log?;
                end = end.max(log.end.expect("set on return"));
                absorb_reads(&mut out, &log);
                for c in &log.copies {
                    check(&mut out, &pool[c.text].source, c, &expected[c.text]);
                }
            }
            out.elapsed_s = (end - start).as_secs_f64();
            out.peak_rss_mb = server.peak_rss_mb()?;
            out.rss_requests = out.requests;
            server.kill()?;
        }
        Workload::TracePublish => {
            let (prepared, pool, expected) = seeds.publish_inputs()?;
            let data = scratch.join("publish-data");
            let probe = pool
                .iter()
                .position(|t| t.class == "looping")
                .expect("pool has Looping");
            let server = start(
                fq,
                &seeds.trace_snapshot(),
                Some((&prepared, &data)),
                &pool[probe],
                &expected[probe],
                &mut out,
            )?;
            let base_epoch = warm(server.addr, &pool, &expected, &mut out)?;
            if base_epoch != inputs::PREPARED_DELTAS as u64 {
                out.fail(
                    1,
                    format!(
                        "recovered epoch {base_epoch}, expected {}",
                        inputs::PREPARED_DELTAS
                    ),
                );
            }
            let (_, _, log_before) = store_info(server.addr)?;
            // Writer and reader take turns, one ingest and then
            // READS_PER_INGEST reads, so the share of reads that land on
            // a new epoch and recompute column statistics does not hang
            // on how two concurrent connections happen to interleave.
            let mut writer =
                Writer::connect(server.addr, BatchStream::new(seeds.seed, "w"), base_epoch)?;
            let stream = PoolStream::new(
                &pool,
                inputs::TRACE_WEIGHTS,
                inputs::sub_seed(seeds.seed, "read-0"),
            );
            let mut reader = Reader::connect(server.addr, &pool, stream, base_epoch)?;
            let start = Instant::now();
            let deadline = start + window;
            while Instant::now() < deadline {
                writer.step()?;
                for _ in 0..READS_PER_INGEST {
                    reader.step()?;
                }
            }
            let (writer, reader) = (writer.finish(), reader.finish());
            out.elapsed_s =
                (writer.end.expect("set").max(reader.end.expect("set")) - start).as_secs_f64();
            out.requests += writer.ingests;
            out.attempted += writer.ingests;
            out.ingest_ms = writer.latency_ms.clone();
            out.per_class.insert("ingest", writer.latency_ms.clone());
            for p in &writer.problems {
                out.fail(1, p.clone());
            }
            absorb_reads(&mut out, &reader);
            check_publish_reads(
                &mut out,
                seeds.seed,
                &pool,
                &expected,
                &reader.copies,
                base_epoch,
            )?;

            // Every acknowledged batch added rows, so each published one
            // epoch; the store must end exactly there, and a SIGKILL
            // followed by recovery must restore it.
            let (epoch, fingerprint, log_after) = store_info(server.addr)?;
            out.attempted += 1;
            if epoch != base_epoch + writer.ingests || epoch != writer.epoch {
                out.fail(
                    1,
                    format!(
                        "final epoch {epoch} after {} ingests from {base_epoch}",
                        writer.ingests
                    ),
                );
            }
            out.log_bytes_per_row =
                Some((log_after.saturating_sub(log_before)) as f64 / writer.rows.max(1) as f64);
            out.peak_rss_mb = server.peak_rss_mb()?;
            out.rss_requests = out.requests;
            server.kill()?;
            let (recovered, recovered_fp) = recover(fq, &data)?;
            out.attempted += 1;
            if recovered != epoch || recovered_fp != fingerprint {
                out.fail(
                    1,
                    format!("recovered epoch {recovered} {recovered_fp}, acknowledged {epoch} {fingerprint}"),
                );
            }
            fs::remove_dir_all(&data)?;
        }
        Workload::StrategyMix => {
            let snapshot = seeds.mix_snapshot()?;
            let state = State::read_snapshot(&fs::read(&snapshot)?).map_err(io::Error::other)?;
            let probe = Text {
                class: "algebra",
                domain: "eq",
                source: "F(x, y)".to_string(),
            };
            let expect = inputs::expected(&state, std::slice::from_ref(&probe))?.remove(0);
            let server = start(fq, &snapshot, None, &probe, &expect, &mut out)?;
            let mut conn = Conn::connect(server.addr)?;
            let mut stream = MixStream::new(seeds.seed);
            let mut raws = Vec::new();
            let start = Instant::now();
            let deadline = start + window;
            while Instant::now() < deadline {
                let text = stream.next_text();
                let t0 = Instant::now();
                let raw = conn.call(&text.line())?;
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                out.query_ms.push(ms);
                out.per_class.entry(text.class).or_default().push(ms);
                raws.push(raw.to_string());
                if raws.len() == MIX_RSS_AT_REQUESTS {
                    out.peak_rss_mb = server.peak_rss_mb()?;
                    out.rss_requests = raws.len() as u64;
                }
            }
            out.elapsed_s = start.elapsed().as_secs_f64();
            out.requests = raws.len() as u64;
            out.attempted += raws.len() as u64;
            if out.rss_requests == 0 {
                out.peak_rss_mb = server.peak_rss_mb()?;
                out.rss_requests = out.requests;
            }
            drop(conn);
            server.kill()?;
            let (texts, expected) = seeds.mix_expected(raws.len())?;
            for (text, raw) in raws.into_iter().enumerate() {
                let copy = Kept {
                    text,
                    raw,
                    count: 1,
                };
                check(&mut out, &texts[text].source, &copy, &expected[text]);
            }
        }
    }
    Ok(out)
}

/// Reader answers on `trace_publish`: at epoch `e` the store is the
/// recovered state plus the first `e − base` writer batches, whose
/// strings are all new, so the answer is the recovered answer plus the
/// answer over those batches alone.
fn check_publish_reads(
    out: &mut Outcome,
    seed: u64,
    pool: &[Text],
    expected: &[Digest],
    copies: &[Kept],
    base_epoch: u64,
) -> io::Result<()> {
    let mut order: Vec<&Kept> = copies.iter().collect();
    order.sort_by_key(|c| epoch_of(&c.raw).unwrap_or(0));
    let exec = fq_query::Executor::new(fq_engine::Engine::sequential());
    let mut delta = State::new(fq_bench::workloads::trace_db_schema());
    let mut batches = BatchStream::new(seed, "w");
    let mut applied = base_epoch;
    for copy in order {
        let epoch = epoch_of(&copy.raw).unwrap_or(base_epoch);
        while applied < epoch {
            let (relation, rows) = batches.next_batch(MAX_BATCH_ROWS);
            delta
                .extend_bulk(relation, rows)
                .map_err(io::Error::other)?;
            applied += 1;
        }
        let text = &pool[copy.text];
        let extra = exec
            .execute(&delta, &text.source, text.domain_id())
            .map_err(|e| io::Error::other(e.to_string()))?;
        let want = expected[copy.text].union(&digest::of_outcome(&extra));
        check(out, &text.source, copy, &want);
    }
    Ok(())
}

/// `snapshot-info` of a durable store: epoch, fingerprint, log bytes.
fn store_info(addr: std::net::SocketAddr) -> io::Result<(u64, String, u64)> {
    let info = json::parse(Conn::connect(addr)?.call(r#"{"cmd":"snapshot-info"}"#)?)
        .map_err(io::Error::other)?;
    let epoch = info.get("epoch").and_then(J::as_u64);
    let fingerprint = info.get("fingerprint").and_then(J::as_str);
    let log = info
        .get("durability")
        .and_then(|d| d.get("log_bytes"))
        .and_then(J::as_u64);
    match (epoch, fingerprint, log) {
        (Some(e), Some(f), Some(l)) => Ok((e, f.to_string(), l)),
        _ => Err(io::Error::other(format!("bad snapshot-info: {info:?}"))),
    }
}

/// `fq recover <dir>`: the recovered epoch and fingerprint.
fn recover(fq: &Path, dir: &Path) -> io::Result<(u64, String)> {
    let output = std::process::Command::new(fq)
        .arg("recover")
        .arg(dir)
        .output()?;
    let text = String::from_utf8_lossy(&output.stdout);
    let epoch = text
        .lines()
        .find_map(|l| l.strip_prefix("recovered:"))
        .and_then(|l| l.trim().strip_prefix("epoch "))
        .and_then(|l| l.split(',').next())
        .and_then(|n| n.trim().parse().ok());
    let fingerprint = text
        .lines()
        .find_map(|l| l.strip_prefix("fingerprint:"))
        .map(|f| f.trim().to_string());
    match (output.status.success(), epoch, fingerprint) {
        (true, Some(e), Some(f)) => Ok((e, f)),
        _ => Err(io::Error::other(format!("fq recover failed: {text}"))),
    }
}

/// The report lines of an untraced run.
pub fn report(out: &Outcome, tail: f64) -> Vec<String> {
    let mut lines = vec![
        format!(
            "setup_s: median {:.4} of {:?}",
            stats::median(&out.setup_s),
            out.setup_s
                .iter()
                .map(|s| (s * 1e4).round() / 1e4)
                .collect::<Vec<_>>()
        ),
        format!(
            "throughput_rps: {:.2} ({} requests in {:.3} s)",
            out.requests as f64 / out.elapsed_s,
            out.requests,
            out.elapsed_s
        ),
        format!("query_ms: {}", stats::describe(&out.query_ms, tail)),
    ];
    if !out.ingest_ms.is_empty() {
        lines.push(format!(
            "ingest_ms: {}",
            stats::describe(&out.ingest_ms, 95.0)
        ));
        lines.push(format!(
            "fresh_read_ms: {}",
            stats::describe(&out.fresh_ms, 95.0)
        ));
    }
    if let Some(b) = out.log_bytes_per_row {
        lines.push(format!("log_bytes_per_row: {b:.1}"));
    }
    lines.push(format!(
        "peak_rss_mb: {:.1} (after {} requests)",
        out.peak_rss_mb, out.rss_requests
    ));
    lines.push(format!(
        "failed_frac: {:.6} ({} of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    for (class, ms) in &out.per_class {
        lines.push(format!("  class {class:14} {}", stats::describe(ms, tail)));
    }
    for p in &out.problems {
        lines.push(format!(
            "  FAILED: {}",
            p.chars().take(300).collect::<String>()
        ));
    }
    lines
}

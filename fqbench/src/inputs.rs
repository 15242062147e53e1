//! Seeded inputs: the stores, the query pools, the request streams and
//! the prepared durable directory, generated once per seed.
//!
//! Everything here is a function of the workload seed. Generated files
//! live in `<work>/seed-<n>-<GENERATION>/` and are reused by later runs
//! on the same seed; each file is written under a temporary name and
//! renamed, so an interrupted run never leaves a half-written input.

use crate::digest::{self, Digest};
use crate::json::quote;
use fq_bench::workloads::{genealogy_state, machine_zoo, trace_db_rows, trace_db_state};
use fq_engine::Engine;
use fq_query::{DomainId, Executor};
use fq_relational::{Durability, SharedState, State, Value, WalOptions};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Rows drawn for the trace store (before deduplication).
pub const TRACE_ROWS: usize = 1_000_000;
/// One-row epochs in the prepared `trace_publish` delta log.
pub const PREPARED_DELTAS: usize = 30;
/// Genealogy population and edge draws of the `strategy_mix` state.
pub const MIX_POPULATION: u64 = 60;
pub const MIX_EDGES: usize = 80;
/// Bumped whenever a generator changes, so stale caches are not reused.
const GENERATION: &str = "g2";
/// Seed directories kept in the work directory; older ones are removed.
const KEEP_SEEDS: usize = 3;

/// A seed derived from the workload seed and a purpose tag.
pub fn sub_seed(seed: u64, tag: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in tag.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One query text of a pool, with its request class.
#[derive(Clone, Debug)]
pub struct Text {
    pub class: &'static str,
    pub domain: &'static str,
    pub source: String,
}

impl Text {
    /// The `query` request line.
    pub fn line(&self) -> String {
        format!(
            r#"{{"cmd":"query","query":{},"domain":"{}"}}"#,
            quote(&self.source),
            self.domain
        )
    }

    pub fn domain_id(&self) -> DomainId {
        DomainId::parse(self.domain).expect("generated domains are valid")
    }
}

/// Picks request classes in blocks of 100 slots holding each class its
/// exact weight, shuffled within the block, so every run sees the same
/// class proportions whatever its length.
pub struct Blocks {
    rng: SmallRng,
    weights: &'static [(&'static str, usize)],
    block: Vec<&'static str>,
}

impl Blocks {
    pub fn new(weights: &'static [(&'static str, usize)], seed: u64) -> Blocks {
        assert_eq!(weights.iter().map(|(_, w)| w).sum::<usize>(), 100);
        Blocks {
            rng: SmallRng::seed_from_u64(seed),
            weights,
            block: Vec::new(),
        }
    }

    pub fn next_class(&mut self) -> &'static str {
        if self.block.is_empty() {
            for &(class, w) in self.weights {
                self.block.extend(std::iter::repeat_n(class, w));
            }
            // Fisher–Yates; popping from the end consumes the shuffle.
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.gen_range(0..=i));
            }
        }
        self.block.pop().expect("refilled above")
    }

    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

// ---------------------------------------------------------------------
// The trace store and its read mix.
// ---------------------------------------------------------------------

/// Class weights per 100 requests of the trace read mix, listed from
/// the cheapest class to the dearest on `trace_read`. The median falls
/// inside `word` and the 99th percentile inside `point`; on
/// `trace_publish`, where every `join_word` read recomputes column
/// statistics, the 90th falls inside `join_word`.
pub const TRACE_WEIGHTS: &[(&str, usize)] = &[
    ("looping", 20),
    ("word", 50),
    ("join_word", 18),
    ("project", 4),
    ("join_loop", 4),
    ("point", 4),
];

/// The read pool over a trace store: templates filled with machines and
/// words drawn from the stored rows.
fn trace_pool(state: &State, seed: u64) -> Vec<Text> {
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, "trace-pool"));
    let str_of = |v: &Value| match v {
        Value::Str(s) => s.clone(),
        Value::Nat(n) => n.to_string(),
    };
    let halted: Vec<Vec<Value>> = state.tuples("Halted").collect();
    let run: Vec<Vec<Value>> = state.tuples("Run").collect();
    let mut machines: Vec<String> = halted.iter().map(|t| str_of(&t[0])).collect();
    machines.dedup();
    let eq = |class, source: String| Text {
        class,
        domain: "eq",
        source,
    };
    let mut pool = Vec::new();
    for m in &machines {
        pool.push(eq("point", format!("Halted({}, w)", quote(m))));
    }
    for _ in 0..24 {
        let t = &run[rng.gen_range(0..run.len())];
        pool.push(eq(
            "word",
            format!("exists p. Run(m, {}, p)", quote(&str_of(&t[1]))),
        ));
    }
    pool.push(eq("project", "exists w. Halted(m, w)".to_string()));
    pool.push(eq("looping", "Looping(m)".to_string()));
    pool.push(eq(
        "join_loop",
        "exists w p. Run(m, w, p) & Looping(m)".to_string(),
    ));
    for _ in 0..16 {
        let w = quote(&str_of(&halted[rng.gen_range(0..halted.len())][1]));
        pool.push(eq("join_word", format!("Run(m, {w}, p) & Halted(m, {w})")));
    }
    pool
}

/// An endless request stream over a pool: stratified classes, a text
/// drawn uniformly within each class.
pub struct PoolStream {
    blocks: Blocks,
    by_class: Vec<(&'static str, Vec<usize>)>,
}

impl PoolStream {
    pub fn new(pool: &[Text], weights: &'static [(&'static str, usize)], seed: u64) -> Self {
        let by_class = weights
            .iter()
            .map(|&(class, _)| {
                let ids: Vec<usize> = (0..pool.len())
                    .filter(|&i| pool[i].class == class)
                    .collect();
                assert!(!ids.is_empty(), "no texts of class {class}");
                (class, ids)
            })
            .collect();
        PoolStream {
            blocks: Blocks::new(weights, seed),
            by_class,
        }
    }

    /// The next text's index into the pool.
    pub fn next_text(&mut self) -> usize {
        let class = self.blocks.next_class();
        let ids = &self
            .by_class
            .iter()
            .find(|(c, _)| *c == class)
            .expect("class listed")
            .1;
        ids[self.blocks.rng().gen_range(0..ids.len())]
    }
}

// ---------------------------------------------------------------------
// Ingest batches.
// ---------------------------------------------------------------------

/// Fresh ingest batches: 1–64 rows for one of `Run`, `Halted` and
/// `Looping`. Every string is new — it holds letters, which the trace
/// alphabet lacks — so every batch adds all of its rows, and an answer
/// over the store plus the batches is the union of the two answers.
pub struct BatchStream {
    rng: SmallRng,
    tag: &'static str,
    next: usize,
    looping: Vec<String>,
}

impl BatchStream {
    pub fn new(seed: u64, tag: &'static str) -> Self {
        BatchStream {
            rng: SmallRng::seed_from_u64(sub_seed(seed, tag)),
            tag,
            next: 0,
            looping: Vec::new(),
        }
    }

    /// A trace-like string of realistic length (stored traces have a
    /// median of about 44 bytes).
    fn trace(&mut self, i: usize, j: usize) -> String {
        let pad = self.rng.gen_range(8..80usize);
        format!("z{}p{i}.{j}#{}", self.tag, "1&".repeat(pad / 2))
    }

    pub fn next_batch(&mut self, max_rows: usize) -> (&'static str, Vec<Vec<Value>>) {
        let i = self.next;
        self.next += 1;
        let rows = self.rng.gen_range(1..=max_rows);
        let pick = self.rng.gen_range(0..10u32);
        let relation = match pick {
            0..=5 => "Run",
            6..=7 => "Halted",
            _ => "Looping",
        };
        let tag = self.tag;
        let mut out = Vec::with_capacity(rows);
        for j in 0..rows {
            let row = match relation {
                "Looping" => {
                    let m = format!("z{tag}m{i}.{j}");
                    self.looping.push(m.clone());
                    vec![Value::Str(m)]
                }
                _ => {
                    // Half the machines are earlier looping ones, so the
                    // Run ⋈ Looping join gains rows too.
                    let m = if !self.looping.is_empty() && self.rng.gen_bool(0.5) {
                        self.looping[self.rng.gen_range(0..self.looping.len())].clone()
                    } else {
                        format!("z{tag}r{i}.{j}")
                    };
                    let w = Value::Str(format!("z{tag}w{i}.{j}"));
                    if relation == "Run" {
                        let p = self.trace(i, j);
                        vec![Value::Str(m), w, Value::Str(p)]
                    } else {
                        vec![Value::Str(m), w]
                    }
                }
            };
            out.push(row);
        }
        (relation, out)
    }
}

/// The `ingest` request line for a batch.
pub fn ingest_line(relation: &str, rows: &[Vec<Value>]) -> String {
    let mut line = format!(r#"{{"cmd":"ingest","relation":"{relation}","rows":["#);
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push('[');
        for (k, v) in row.iter().enumerate() {
            if k > 0 {
                line.push(',');
            }
            match v {
                Value::Nat(n) => line.push_str(&format!(r#"{{"Nat":{n}}}"#)),
                Value::Str(s) => line.push_str(&format!(r#"{{"Str":{}}}"#, quote(s))),
            }
        }
        line.push(']');
    }
    line.push_str("]}");
    line
}

// ---------------------------------------------------------------------
// The strategy mix.
// ---------------------------------------------------------------------

/// Class weights per 100 requests of `strategy_mix`, listed from the
/// cheapest class to the dearest. The median falls inside
/// `presburger_qe`, a few milliseconds of QE work, rather than among
/// the sub-millisecond classes whose latency is mostly loopback and
/// wake-up time; the 99th percentile falls inside `enumerate`.
pub const MIX_WEIGHTS: &[(&str, usize)] = &[
    ("algebra", 9),
    ("traces_qe", 8),
    ("active_domain", 9),
    ("ranf", 8),
    ("presburger_qe", 64),
    ("enumerate", 2),
];

/// An endless stream of distinct query texts over the genealogy scheme
/// and the pure domains: every text carries a constant no earlier text
/// of its class used, so every request misses the plan cache.
pub struct MixStream {
    blocks: Blocks,
    n: u64,
    halting: Vec<(String, fq_turing::Machine)>,
}

impl MixStream {
    pub fn new(seed: u64) -> MixStream {
        let halting = machine_zoo()
            .into_iter()
            .filter(|(name, _)| !matches!(*name, "bouncer" | "looper"))
            .map(|(_, m)| (fq_turing::encode_machine(&m), m))
            .collect();
        MixStream {
            blocks: Blocks::new(MIX_WEIGHTS, sub_seed(seed, "mix")),
            n: 0,
            halting,
        }
    }

    pub fn next_text(&mut self) -> Text {
        self.n += 1;
        // A constant outside the population keeps the answer's shape and
        // makes the text unique.
        let u = 1000 + self.n;
        let class = self.blocks.next_class();
        let rng = self.blocks.rng();
        let k = rng.gen_range(0..MIX_POPULATION);
        let variant = rng.gen_range(0..2u32);
        let (domain, source) = match class {
            "algebra" => (
                "eq",
                if variant == 0 {
                    format!("exists y. F(x, y) & F(y, z) & z != {u}")
                } else {
                    format!("exists y z. y != z & F(x, y) & F(x, z) & x != {u}")
                },
            ),
            "active_domain" => (
                "nat",
                if variant == 0 {
                    format!("exists y. F(x, y) & x < y & y != {u}")
                } else {
                    format!("F(x, y) & x < y & x != {u}")
                },
            ),
            "presburger_qe" => (
                "presburger",
                format!("exists x y. F(x, y) & x + {k} < y & y != {u}"),
            ),
            "traces_qe" => {
                let (enc, machine) = &self.halting[(self.n as usize) % self.halting.len()];
                // The binary digits of n over {1, &}: a word no earlier
                // request used.
                let mut word = String::new();
                let mut v = self.n;
                while v > 0 || word.len() < 4 {
                    word.push(if v & 1 == 1 { '1' } else { '&' });
                    v >>= 1;
                }
                let first = fq_turing::trace_string(machine, &word, 1).expect("one snapshot");
                (
                    "traces",
                    format!(
                        "exists p. P({}, {}, p) & p != {}",
                        quote(enc),
                        quote(&word),
                        quote(&first)
                    ),
                )
            }
            "ranf" => (
                "eq",
                if variant == 0 {
                    format!("F(x, y) | F(x, {u})")
                } else {
                    format!("F(x, y) | F(x, {k}) & y != {u}")
                },
            ),
            "enumerate" => (
                "presburger",
                format!(
                    "(forall y. (exists p. F(y, p) | F(p, y)) -> y < x) & \
                     (forall z. z < x -> exists y. (exists p. F(y, p) | F(p, y)) & z <= y) & \
                     x != {u}"
                ),
            ),
            other => unreachable!("unknown class {other}"),
        };
        Text {
            class,
            domain,
            source,
        }
    }
}

// ---------------------------------------------------------------------
// Per-seed files.
// ---------------------------------------------------------------------

/// The generated inputs of one seed.
pub struct SeedDir {
    pub seed: u64,
    pub path: PathBuf,
}

fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

fn io_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Pool texts with their expected digests, one per line:
/// `class domain rows hash verdict source`, tab-separated.
fn write_texts(path: &Path, texts: &[Text], digests: &[Digest]) -> io::Result<()> {
    let mut out = String::new();
    for (t, d) in texts.iter().zip(digests) {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\n",
            t.class,
            t.domain,
            d.to_fields(),
            t.source
        ));
    }
    write_atomic(path, out.as_bytes())
}

/// The request domains the generators use.
const DOMAINS: &[&str] = &["eq", "nat", "presburger", "traces"];

fn read_texts(path: &Path) -> io::Result<(Vec<Text>, Vec<Digest>)> {
    let mut texts = Vec::new();
    let mut digests = Vec::new();
    for line in fs::read_to_string(path)?.lines() {
        let f: Vec<&str> = line.splitn(6, '\t').collect();
        let bad = || io_err(format!("bad line in {}: {line}", path.display()));
        if f.len() != 6 {
            return Err(bad());
        }
        let class = TRACE_WEIGHTS
            .iter()
            .chain(MIX_WEIGHTS)
            .map(|(c, _)| *c)
            .find(|c| *c == f[0])
            .ok_or_else(bad)?;
        let domain = DOMAINS.iter().find(|d| **d == f[1]).ok_or_else(bad)?;
        texts.push(Text {
            class,
            domain,
            source: f[5].to_string(),
        });
        digests.push(Digest::from_fields(f[2], f[3], f[4]).ok_or_else(bad)?);
    }
    Ok((texts, digests))
}

/// Expected digests of `texts` on `state`, from fresh in-process
/// executors, one sequential executor per core over interleaved texts.
pub fn expected(state: &State, texts: &[Text]) -> io::Result<Vec<Digest>> {
    let workers = fq_engine::available_threads().min(texts.len()).max(1);
    let parts: Vec<io::Result<Vec<(usize, Digest)>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let exec = Executor::new(Engine::sequential());
                    (w..texts.len())
                        .step_by(workers)
                        .map(|i| {
                            let t = &texts[i];
                            exec.execute(state, &t.source, t.domain_id())
                                .map(|out| (i, digest::of_outcome(&out)))
                                .map_err(|e| io_err(format!("`{}`: {e}", t.source)))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("expected-answer worker"))
            .collect()
    });
    let mut digests: Vec<Option<Digest>> = vec![None; texts.len()];
    for part in parts {
        for (i, d) in part? {
            digests[i] = Some(d);
        }
    }
    Ok(digests
        .into_iter()
        .map(|d| d.expect("every text computed"))
        .collect())
}

impl SeedDir {
    pub fn open(work: &Path, seed: u64) -> io::Result<SeedDir> {
        fs::create_dir_all(work)?;
        let name = format!("seed-{seed}-{GENERATION}");
        let path = work.join(&name);
        fs::create_dir_all(&path)?;
        // Touch it so eviction keeps the seeds in use.
        fs::write(path.join("last-used"), b"")?;
        let mut seeds: Vec<(std::time::SystemTime, PathBuf)> = fs::read_dir(work)?
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with("seed-"))
            .filter_map(|e| {
                let used = fs::metadata(e.path().join("last-used")).and_then(|m| m.modified());
                Some((used.ok()?, e.path()))
            })
            .collect();
        seeds.sort();
        let excess = seeds.len().saturating_sub(KEEP_SEEDS);
        for (_, old) in seeds.into_iter().take(excess) {
            if old != path {
                fs::remove_dir_all(&old)?;
            }
        }
        Ok(SeedDir { seed, path })
    }

    pub fn trace_snapshot(&self) -> PathBuf {
        self.path.join("trace.fqsnap")
    }

    /// The trace store, generated and written on first use.
    pub fn trace_state(&self) -> io::Result<State> {
        let path = self.trace_snapshot();
        if let Ok(bytes) = fs::read(&path) {
            return State::read_snapshot(&bytes).map_err(io_err);
        }
        let state = trace_db_state(&trace_db_rows(TRACE_ROWS, self.seed));
        write_atomic(&path, &state.snapshot_bytes())?;
        Ok(state)
    }

    /// The trace read pool with its digests on the trace store.
    pub fn trace_texts(&self) -> io::Result<(Vec<Text>, Vec<Digest>)> {
        let path = self.path.join("trace-texts.tsv");
        if let Ok(found) = read_texts(&path) {
            return Ok(found);
        }
        let state = self.trace_state()?;
        let texts = trace_pool(&state, self.seed);
        let digests = expected(&state, &texts)?;
        write_texts(&path, &texts, &digests)?;
        Ok((texts, digests))
    }

    /// The prepared durable directory of `trace_publish` — the trace
    /// store as base plus [`PREPARED_DELTAS`] one-row epochs — and the
    /// read pool's digests on the state it recovers to.
    pub fn publish_inputs(&self) -> io::Result<(PathBuf, Vec<Text>, Vec<Digest>)> {
        let dir = self.path.join("publish-data");
        let texts_path = self.path.join("publish-texts.tsv");
        if dir.is_dir() {
            if let Ok((texts, digests)) = read_texts(&texts_path) {
                return Ok((dir, texts, digests));
            }
        }
        let (texts, _) = self.trace_texts()?;
        let tmp = self.path.join("publish-data.tmp");
        let _ = fs::remove_dir_all(&tmp);
        let shared = SharedState::create_durable(
            &tmp,
            self.trace_state()?,
            WalOptions::with_durability(Durability::Batch),
        )
        .map_err(io_err)?;
        let mut prep = BatchStream::new(self.seed, "q");
        for _ in 0..PREPARED_DELTAS {
            let (relation, rows) = prep.next_batch(1);
            shared.ingest(relation, rows).map_err(io_err)?;
        }
        shared.sync().map_err(io_err)?;
        let digests = expected(&shared.snapshot(), &texts)?;
        drop(shared);
        let _ = fs::remove_dir_all(&dir);
        fs::rename(&tmp, &dir)?;
        write_texts(&texts_path, &texts, &digests)?;
        Ok((dir, texts, digests))
    }

    /// The genealogy state of `strategy_mix`, as a snapshot file.
    pub fn mix_snapshot(&self) -> io::Result<PathBuf> {
        let path = self.path.join("mix.fqsnap");
        if !path.exists() {
            let state = genealogy_state(MIX_POPULATION, MIX_EDGES, self.seed);
            write_atomic(&path, &state.snapshot_bytes())?;
        }
        Ok(path)
    }

    /// Digests of the first `n` texts of the mix stream, computing and
    /// caching any not yet known.
    pub fn mix_expected(&self, n: usize) -> io::Result<(Vec<Text>, Vec<Digest>)> {
        let path = self.path.join("mix-texts.tsv");
        let (mut texts, mut digests) = read_texts(&path).unwrap_or_default();
        if texts.len() >= n {
            texts.truncate(n);
            digests.truncate(n);
            return Ok((texts, digests));
        }
        let state = State::read_snapshot(&fs::read(self.mix_snapshot()?)?).map_err(io_err)?;
        let mut stream = MixStream::new(self.seed);
        let all: Vec<Text> = (0..n).map(|_| stream.next_text()).collect();
        for (known, t) in texts.iter().zip(&all) {
            if known.source != t.source {
                return Err(io_err("mix cache does not match the stream"));
            }
        }
        digests.extend(expected(&state, &all[texts.len()..])?);
        write_texts(&path, &all, &digests)?;
        Ok((all, digests))
    }
}

//! Physical execution of algebra expressions.
//!
//! [`PhysicalPlan::compile`] lowers an [`AlgebraExpr`] into operators
//! whose attribute references are resolved to column indexes once, at
//! compile time. Execution works on columnar word streams — flat,
//! arity-strided `Vec<Val>` buffers fed directly from the [`State`]'s
//! dictionary-encoded store:
//!
//! * **hash join** — build a hash table keyed on bare `u64` words (a
//!   single-word fast path for one-column keys) over the smaller input
//!   and probe with the larger, with no per-probe allocation or string
//!   hashing (strings are interned to one-word ids, so string keys take
//!   the single-`u64` path at the same cost as naturals);
//! * **streaming select/project/extend** — no intermediate
//!   materialization; duplicates are eliminated only where they can
//!   arise (narrowing projections and unions), so every stream stays
//!   duplicate-free and operator row counts equal logical cardinalities;
//! * **atom access paths** — the `Project(Extend*(Select*(Base)))`
//!   chain the Codd translation emits for one atom folds into a single
//!   scan operator holding the relation's column indexes, its equality
//!   constants and its output columns. A [`VRel`] is
//!   sorted and duplicate-free with the first column leading, so the
//!   scan reads only what the constants select (the simplest form of
//!   the sorted-trie access of Leapfrog Triejoin):
//!   - *seek* — constants on a leading column prefix become one
//!     binary-search row range over the borrowed column store;
//!   - *skip-scan* — constants on the columns after one unbound column
//!     become one seek per distinct value of that column, chosen only
//!     when the relation's column statistics say that reads less than
//!     scanning the range;
//!   - *run-scan* — a projection that drops only constant-fixed columns
//!     needs no dedup, and one onto a column prefix dedups by adjacency
//!     (galloping over runs of equal prefixes when nothing else filters)
//!     instead of through a hash set.
//!
//!   Conditions the range cannot answer filter it, morsel-parallel. A
//!   scan with no constants, conditions or projection borrows the store
//!   without copying a word. Its [`OpStat`] counts the rows it *read*:
//!   the range rows, or one per run when galloping.
//!
//! Plans are state-independent, so plan constants stay as [`Value`]s and
//! are encoded per execution through an [`OverlayDict`] (query constants
//! need not exist in the state's dictionary; an equality constant the
//! dictionary never interned empties a scan without reading it).
//!
//! # The answer edge
//!
//! Execution ends in one duplicate-free word stream. Its consumer
//! decides how far to decode it: [`PhysicalPlan::answer_on`] permutes
//! it to the caller's variable order, sorts it by the dictionary's
//! semantic order (overlay constants included) only when it is not
//! already sorted, and decodes each word exactly once;
//! [`PhysicalPlan::count_on`] reads its length and decodes nothing; and
//! [`PhysicalPlan::execute_with_stats_on`] decodes it into the
//! `BTreeSet`-backed [`Relation`] the naive [`AlgebraExpr::eval`]
//! produces, so the backends compare bit for bit (attribute order
//! included).
//!
//! # Morsel-driven parallelism
//!
//! [`PhysicalPlan::execute_on`] runs the same operators data-parallel on
//! an [`Engine`]'s worker pool. Inputs are split into fixed-size
//! **morsels** — contiguous row ranges of the flat buffer, boundaries
//! aligned to arity strides — and each streaming operator (filter,
//! project, extend, diff/union probe, join probe) maps its morsels on
//! the pool and stitches the partial outputs back **in morsel order**,
//! so the concatenation is exactly the sequential left-to-right scan.
//! Hash joins parallelize both sides: the build scan is **partitioned**
//! (each worker owns one shard of the Fx-hashed key space and keeps the
//! build rows hashing into it, so per-key row lists stay in build-input
//! order), and probe morsels consult the one shard their key hashes to.
//! Dedup operators dedup locally per morsel (keeping each morsel's first
//! occurrences) and re-filter once sequentially during the stitch, which
//! reproduces the global first-occurrence order. Parallel output is
//! therefore **bit-identical** to the sequential path at every thread
//! count and morsel size — parallelism is purely a performance knob.

use crate::algebra::{AlgebraExpr, Condition, Relation};
use crate::fx::{self, FxHasher, FxMap, FxSet};
use crate::state::{State, Tuple, Value};
use crate::val::{Dict, OverlayDict, VRel, Val};
use fq_engine::Engine;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};

/// Default rows per morsel: large enough that per-morsel overhead (one
/// pool hand-off, one partial buffer) is noise, small enough that a
/// million-row scan fans out hundreds of ways.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Tuning knobs for a parallel execution. The thread count comes from
/// the [`Engine`] itself ([`fq_engine::EngineConfig::threads`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecOpts {
    /// Rows per morsel; must be positive. Exposed so tests can force
    /// many-morsel schedules on tiny relations.
    pub morsel_rows: usize,
}

impl Default for ExecOpts {
    fn default() -> Self {
        ExecOpts {
            morsel_rows: DEFAULT_MORSEL_ROWS,
        }
    }
}

/// Per-operator execution statistics: a rendered operator label, a row
/// count, and how many morsels its input was split into (1 when the
/// operator ran sequentially). The row count is the number of
/// (duplicate-free) rows the operator produced — except for scans,
/// whose label starts with `scan <relation>` and whose count is the
/// number of stored rows they read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpStat {
    pub op: String,
    pub rows: usize,
    pub morsels: usize,
}

/// The result of a physical execution with its operator statistics, in
/// bottom-up completion order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecReport {
    pub relation: Relation,
    pub operators: Vec<OpStat>,
}

/// A column-index-resolved selection condition. Constants stay decoded
/// so the plan remains state-independent; they are resolved to words at
/// execution time.
#[derive(Clone, Debug, PartialEq)]
enum PCond {
    EqCol(usize, usize),
    NeqCol(usize, usize),
    EqConst(usize, Value),
    NeqConst(usize, Value),
}

/// A [`PCond`] with its constant resolved against one execution's
/// overlay. A constant the combined dictionary has never seen can match
/// no stream word: equality keeps nothing, inequality keeps everything.
enum RCond {
    EqCol(usize, usize),
    NeqCol(usize, usize),
    EqWord(usize, Val),
    NeqWord(usize, Val),
    KeepNone,
    KeepAll,
}

impl RCond {
    fn resolve(cond: &PCond, overlay: &OverlayDict<'_>) -> RCond {
        match cond {
            PCond::EqCol(i, j) => RCond::EqCol(*i, *j),
            PCond::NeqCol(i, j) => RCond::NeqCol(*i, *j),
            PCond::EqConst(i, v) => match overlay.lookup(v) {
                Some(w) => RCond::EqWord(*i, w),
                None => RCond::KeepNone,
            },
            PCond::NeqConst(i, v) => match overlay.lookup(v) {
                Some(w) => RCond::NeqWord(*i, w),
                None => RCond::KeepAll,
            },
        }
    }

    fn keep(&self, t: &[Val]) -> bool {
        match self {
            RCond::EqCol(i, j) => t[*i] == t[*j],
            RCond::NeqCol(i, j) => t[*i] != t[*j],
            RCond::EqWord(i, w) => t[*i] == *w,
            RCond::NeqWord(i, w) => t[*i] != *w,
            RCond::KeepNone => false,
            RCond::KeepAll => true,
        }
    }
}

/// One atom's read of a stored relation: the folded
/// `Project(Extend*(Select*(Base)))` chain, every reference resolved to
/// a column of the relation.
#[derive(Clone, Debug, PartialEq)]
struct AtomScan {
    name: String,
    /// Equality constants, by column.
    consts: Vec<(usize, Value)>,
    /// The other conditions.
    conds: Vec<PCond>,
    /// Output columns; a column may appear more than once.
    out: Vec<usize>,
}

/// A physical operator. Attribute names are gone; every reference is a
/// column index into the input stream's rows.
#[derive(Clone, Debug, PartialEq)]
enum PNode {
    Scan(AtomScan),
    Empty,
    Singleton {
        tuple: Tuple,
    },
    Filter {
        input: Box<PNode>,
        cond: PCond,
    },
    /// Projection to fewer columns — may create duplicates, so it dedups.
    ProjectNarrow {
        input: Box<PNode>,
        idx: Vec<usize>,
    },
    /// Pure column permutation — cannot create duplicates.
    ProjectPerm {
        input: Box<PNode>,
        idx: Vec<usize>,
    },
    /// Hash join: output is `left ++ right[rextra]`. The build side is
    /// chosen at run time from the actual input cardinalities.
    HashJoin {
        left: Box<PNode>,
        right: Box<PNode>,
        lkey: Vec<usize>,
        rkey: Vec<usize>,
        rextra: Vec<usize>,
    },
    /// Union dedups; `rperm` aligns the right stream to the left layout.
    Union {
        left: Box<PNode>,
        right: Box<PNode>,
        rperm: Vec<usize>,
    },
    Diff {
        left: Box<PNode>,
        right: Box<PNode>,
        rperm: Vec<usize>,
    },
    Extend {
        input: Box<PNode>,
        src: usize,
    },
}

/// A compiled physical plan. State-independent: the same plan can run
/// against any state of the scheme.
#[derive(Clone, Debug, PartialEq)]
pub struct PhysicalPlan {
    root: PNode,
    attrs: Vec<String>,
}

impl PhysicalPlan {
    /// Resolve every attribute reference of `expr` to column indexes.
    pub fn compile(expr: &AlgebraExpr) -> PhysicalPlan {
        PhysicalPlan {
            root: lower(expr),
            attrs: expr.attrs(),
        }
    }

    /// Execute against a state, producing the same [`Relation`] as
    /// `expr.eval(state)` for the compiled expression.
    pub fn execute(&self, state: &State) -> Relation {
        self.execute_with_stats(state).relation
    }

    /// Execute and report per-operator row counts (sequential path).
    pub fn execute_with_stats(&self, state: &State) -> ExecReport {
        self.report(state, None, ExecOpts::default())
    }

    /// Execute morsel-driven on `engine`'s worker pool. Output is
    /// bit-identical to [`PhysicalPlan::execute`] at any thread count.
    pub fn execute_on(&self, state: &State, engine: &Engine) -> Relation {
        self.execute_with_stats_on(state, engine, ExecOpts::default())
            .relation
    }

    /// [`PhysicalPlan::execute_on`] with statistics and tuning knobs.
    pub fn execute_with_stats_on(
        &self,
        state: &State,
        engine: &Engine,
        opts: ExecOpts,
    ) -> ExecReport {
        self.report(state, Some(engine), opts)
    }

    /// Execute and return the answer with its columns in `vars` order
    /// (each must be an output attribute), sorted in the semantic tuple
    /// order and decoded once — the tuples of
    /// `execute_on(..).reorder(vars)`, in the same order.
    pub fn answer_on(
        &self,
        state: &State,
        engine: &Engine,
        opts: ExecOpts,
        vars: &[String],
    ) -> (Vec<Tuple>, Vec<OpStat>) {
        let idx: Vec<usize> = vars.iter().map(|v| col(&self.attrs, v)).collect();
        self.exec(state, Some(engine), opts, |s, overlay| {
            answer_rows(s, &idx, overlay)
        })
    }

    /// Execute and return only the number of answer rows, decoding
    /// nothing.
    pub fn count_on(&self, state: &State, engine: &Engine, opts: ExecOpts) -> (usize, Vec<OpStat>) {
        self.exec(state, Some(engine), opts, |s, _| s.rows)
    }

    fn report(&self, state: &State, eng: Option<&Engine>, opts: ExecOpts) -> ExecReport {
        let (tuples, operators) = self.exec(state, eng, opts, |s, overlay| {
            s.rows()
                .map(|row| row.iter().map(|&v| overlay.decode(v)).collect())
                .collect::<BTreeSet<Tuple>>()
        });
        ExecReport {
            relation: Relation {
                attrs: self.attrs.clone(),
                tuples,
            },
            operators,
        }
    }

    /// Run the plan and hand the root word stream, with the overlay its
    /// words decode through, to `finish`.
    fn exec<R>(
        &self,
        state: &State,
        eng: Option<&Engine>,
        opts: ExecOpts,
        finish: impl FnOnce(&VStream<'_>, &OverlayDict<'_>) -> R,
    ) -> (R, Vec<OpStat>) {
        assert!(opts.morsel_rows > 0, "morsel size must be positive");
        let mut cx = ExecContext {
            state,
            overlay: OverlayDict::new(state.dict()),
            stats: Vec::new(),
            eng,
            morsel_rows: opts.morsel_rows,
        };
        let out = run(&self.root, &mut cx);
        (finish(&out, &cx.overlay), cx.stats)
    }
}

/// The answer edge: the root stream's rows permuted by `idx`, sorted in
/// semantic order unless they already are, each word decoded once.
fn answer_rows(s: &VStream<'_>, idx: &[usize], overlay: &OverlayDict<'_>) -> Vec<Tuple> {
    let k = idx.len();
    if k == 0 {
        // A zero-arity stream holds at most the one empty tuple.
        return vec![Vec::new(); s.rows.min(1)];
    }
    let identity = idx.iter().copied().eq(0..s.arity);
    let words: Cow<'_, [Val]> = if identity {
        Cow::Borrowed(&s.data)
    } else {
        s.rows()
            .flat_map(|row| idx.iter().map(move |&i| row[i]))
            .collect()
    };
    let row = |i: usize| &words[i * k..(i + 1) * k];
    let decode = |i: usize| -> Tuple { row(i).iter().map(|&v| overlay.decode(v)).collect() };
    let in_order = |i: usize| overlay.cmp_rows(row(i - 1), row(i)) == Ordering::Less;
    if (s.sorted && identity) || (1..s.rows).all(in_order) {
        return (0..s.rows).map(decode).collect();
    }
    let mut order: Vec<usize> = (0..s.rows).collect();
    order.sort_unstable_by(|&a, &b| overlay.cmp_rows(row(a), row(b)));
    // Only a narrowing `idx` can make rows equal.
    order.dedup_by(|a, b| row(*a) == row(*b));
    order.into_iter().map(decode).collect()
}

fn col(attrs: &[String], attr: &str) -> usize {
    attrs
        .iter()
        .position(|a| a == attr)
        .unwrap_or_else(|| panic!("attribute `{attr}` not in {attrs:?}"))
}

/// Resolve a condition's attributes to columns through `col_of`.
fn pcond(cond: &Condition, col_of: impl Fn(&str) -> usize) -> PCond {
    match cond {
        Condition::EqAttr(a, b) => PCond::EqCol(col_of(a), col_of(b)),
        Condition::NeqAttr(a, b) => PCond::NeqCol(col_of(a), col_of(b)),
        Condition::EqConst(a, v) => PCond::EqConst(col_of(a), v.clone()),
        Condition::NeqConst(a, v) => PCond::NeqConst(col_of(a), v.clone()),
    }
}

/// Fold a chain of selections, extensions and projections over one base
/// relation into an [`AtomScan`]; `None` for any other shape.
fn fold_atom(expr: &AlgebraExpr) -> Option<AtomScan> {
    match expr {
        AlgebraExpr::Base { name, attrs } => Some(AtomScan {
            name: name.clone(),
            consts: Vec::new(),
            conds: Vec::new(),
            out: (0..attrs.len()).collect(),
        }),
        AlgebraExpr::Select(e, cond) => {
            let mut atom = fold_atom(e)?;
            let attrs = e.attrs();
            match pcond(cond, |a| atom.out[col(&attrs, a)]) {
                PCond::EqConst(c, v) => atom.consts.push((c, v)),
                other => atom.conds.push(other),
            }
            Some(atom)
        }
        AlgebraExpr::Extend(e, _, src) => {
            let mut atom = fold_atom(e)?;
            atom.out.push(atom.out[col(&e.attrs(), src)]);
            Some(atom)
        }
        AlgebraExpr::Project(e, attrs) => {
            let mut atom = fold_atom(e)?;
            let in_attrs = e.attrs();
            atom.out = attrs.iter().map(|a| atom.out[col(&in_attrs, a)]).collect();
            Some(atom)
        }
        _ => None,
    }
}

fn lower(expr: &AlgebraExpr) -> PNode {
    if let Some(atom) = fold_atom(expr) {
        return PNode::Scan(atom);
    }
    match expr {
        AlgebraExpr::Base { .. } => unreachable!("a base relation always folds into a scan"),
        AlgebraExpr::Empty(_) => PNode::Empty,
        AlgebraExpr::Singleton(cols) => PNode::Singleton {
            tuple: cols.iter().map(|(_, v)| v.clone()).collect(),
        },
        AlgebraExpr::Select(e, cond) => {
            let attrs = e.attrs();
            PNode::Filter {
                input: Box::new(lower(e)),
                cond: pcond(cond, |a| col(&attrs, a)),
            }
        }
        AlgebraExpr::Project(e, attrs) => {
            let in_attrs = e.attrs();
            let idx: Vec<usize> = attrs.iter().map(|a| col(&in_attrs, a)).collect();
            let input = Box::new(lower(e));
            if idx.len() == in_attrs.len() {
                // Keeps every column: a permutation, duplicates impossible.
                PNode::ProjectPerm { input, idx }
            } else {
                PNode::ProjectNarrow { input, idx }
            }
        }
        AlgebraExpr::Join(a, b) => {
            let la = a.attrs();
            let lb = b.attrs();
            let mut lkey = Vec::new();
            let mut rkey = Vec::new();
            for (i, attr) in la.iter().enumerate() {
                if let Some(j) = lb.iter().position(|x| x == attr) {
                    lkey.push(i);
                    rkey.push(j);
                }
            }
            let rextra: Vec<usize> = lb
                .iter()
                .enumerate()
                .filter(|(_, attr)| !la.contains(attr))
                .map(|(j, _)| j)
                .collect();
            PNode::HashJoin {
                left: Box::new(lower(a)),
                right: Box::new(lower(b)),
                lkey,
                rkey,
                rextra,
            }
        }
        AlgebraExpr::Union(a, b) => {
            let la = a.attrs();
            let lb = b.attrs();
            let rperm: Vec<usize> = la.iter().map(|attr| col(&lb, attr)).collect();
            PNode::Union {
                left: Box::new(lower(a)),
                right: Box::new(lower(b)),
                rperm,
            }
        }
        AlgebraExpr::Diff(a, b) => {
            let la = a.attrs();
            let lb = b.attrs();
            let rperm: Vec<usize> = la.iter().map(|attr| col(&lb, attr)).collect();
            PNode::Diff {
                left: Box::new(lower(a)),
                right: Box::new(lower(b)),
                rperm,
            }
        }
        AlgebraExpr::Extend(e, _, src) => {
            let attrs = e.attrs();
            PNode::Extend {
                input: Box::new(lower(e)),
                src: col(&attrs, src),
            }
        }
    }
}

/// A flat, arity-strided stream of word rows. `rows` is explicit so
/// zero-arity streams (sentence subplans) keep their cardinality.
///
/// `data` is copy-on-write over the executed state's lifetime: a scan
/// that reads whole rows of one range *borrows* the
/// [`VRel`]'s flat store directly (a million-row string
/// relation scans without copying a word), while operators build owned
/// buffers. `to_mut` never actually clones in practice because rows are
/// only pushed into streams born owned.
#[derive(Clone, Debug)]
struct VStream<'a> {
    arity: usize,
    rows: usize,
    data: Cow<'a, [Val]>,
    /// Known to be strictly increasing in semantic order (set by scans
    /// whose output keeps the relation's order; `false` means unknown).
    sorted: bool,
}

impl<'a> VStream<'a> {
    fn empty(arity: usize) -> VStream<'a> {
        VStream {
            arity,
            rows: 0,
            data: Cow::Owned(Vec::new()),
            sorted: false,
        }
    }

    fn owned(arity: usize, rows: usize, data: Vec<Val>) -> VStream<'a> {
        debug_assert_eq!(data.len(), rows * arity);
        VStream {
            arity,
            rows,
            data: Cow::Owned(data),
            sorted: false,
        }
    }

    fn row(&self, i: usize) -> &[Val] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    fn rows(&self) -> impl Iterator<Item = &[Val]> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }

    fn push(&mut self, row: &[Val]) {
        debug_assert_eq!(row.len(), self.arity);
        self.data.to_mut().extend_from_slice(row);
        self.rows += 1;
    }

    /// The stream cut into `morsel_rows`-row slices on arity-stride
    /// boundaries (the tail morsel is shorter).
    fn morsels(&self, morsel_rows: usize) -> Vec<&[Val]> {
        (0..self.rows)
            .step_by(morsel_rows)
            .map(|start| {
                let end = (start + morsel_rows).min(self.rows);
                &self.data[start * self.arity..end * self.arity]
            })
            .collect()
    }
}

struct ExecContext<'a> {
    state: &'a State,
    /// Query constants absent from the state dictionary get overlay ids,
    /// so singleton tuples and filter constants share the word space.
    overlay: OverlayDict<'a>,
    stats: Vec<OpStat>,
    /// Worker pool for morsel fan-out; `None` runs fully sequential.
    eng: Option<&'a Engine>,
    morsel_rows: usize,
}

impl<'a> ExecContext<'a> {
    /// The engine to fan out on, when a parallel schedule is worthwhile
    /// for a stream of `rows` rows of `arity` columns: ≥ 2 pool threads
    /// and ≥ 2 morsels (zero-arity streams hold at most one row under
    /// the duplicate-freeness invariant, so they never qualify).
    fn fanout(&self, arity: usize, rows: usize) -> Option<&'a Engine> {
        let eng = self.eng?;
        (eng.threads() >= 2 && arity > 0 && rows.div_ceil(self.morsel_rows) >= 2).then_some(eng)
    }
}

/// Concatenate per-morsel partial outputs, in morsel order, into one
/// owned stream of `out_arity`-column rows.
fn stitch<'a>(parts: Vec<Vec<Val>>, out_arity: usize) -> VStream<'a> {
    debug_assert!(out_arity > 0, "parallel operators produce positive arity");
    let total: usize = parts.iter().map(Vec::len).sum();
    let mut data = Vec::with_capacity(total);
    for part in parts {
        data.extend(part);
    }
    VStream::owned(out_arity, total / out_arity, data)
}

/// Fan `s`'s morsels out on the pool, apply `f` to each independently,
/// and stitch the partial outputs back in morsel order — equal to the
/// sequential left-to-right scan whenever `f` is a per-row map/filter.
/// Returns the stream and the number of morsels processed.
fn par_morsel_map<'a, F>(
    eng: &Engine,
    s: &VStream<'_>,
    morsel_rows: usize,
    out_arity: usize,
    f: F,
) -> (VStream<'a>, usize)
where
    F: Fn(&[Val]) -> Vec<Val> + Sync,
{
    let morsels = s.morsels(morsel_rows);
    let n = morsels.len();
    let parts = eng.parallel_map(&morsels, |m| f(m));
    (stitch(parts, out_arity), n)
}

/// A seek probe — a semantic comparison through the dictionary — costs
/// about as much as scanning this many rows. The skip-scan choice
/// weighs its probes with it.
const SEEK_PROBE_ROWS: usize = 8;

/// How a scan drops the duplicates its projection can create.
#[derive(Clone, Copy, PartialEq)]
enum Dedup {
    /// The output determines the stored row: no duplicates.
    None,
    /// The output, with the constant-fixed columns, is the column
    /// prefix of this length: equal outputs are adjacent.
    Runs(usize),
    /// Anything else: a hash set.
    Hash,
}

/// Read an atom through its relation's sort order (see the module
/// docs), and record its [`OpStat`].
fn scan<'a>(atom: &AtomScan, cx: &mut ExecContext<'a>) -> VStream<'a> {
    let state = cx.state;
    let k = atom.out.len();
    let rel = state.vrel(&atom.name);
    let arity = rel.map_or(0, VRel::arity);
    // Resolve the equality constants. One no stored row can hold — never
    // interned, or two different constants on one column — empties the
    // scan before it reads a row.
    let mut eq: Vec<Option<Val>> = vec![None; arity];
    let mut satisfiable = true;
    for (c, v) in &atom.consts {
        match state.dict().lookup(v) {
            Some(w) if eq[*c].is_none_or(|e| e == w) => eq[*c] = Some(w),
            _ => satisfiable = false,
        }
    }
    let Some(rel) = rel.filter(|_| satisfiable) else {
        cx.stats.push(OpStat {
            op: format!("scan {}", atom.name),
            rows: 0,
            morsels: 1,
        });
        return VStream::empty(k);
    };
    let dict = state.dict();
    let mut path = Vec::new();

    // Seek: constants on the leading columns narrow one row range.
    let seek = eq.iter().take_while(|w| w.is_some()).count();
    let (mut lo, mut hi) = (0, rel.rows());
    for (c, w) in eq[..seek].iter().enumerate() {
        (lo, hi) = seek_range(rel, dict, lo, hi, c, w.expect("seek column"));
    }
    if seek > 0 {
        path.push(format!("seek {seek} col"));
    }
    // Skip-scan: constants after the next, unbound column become one
    // seek per distinct value of that column.
    let after = eq
        .get(seek + 1..)
        .map_or(0, |rest| rest.iter().take_while(|w| w.is_some()).count());
    let skip = after > 0 && {
        let stats = state.column_stats(&atom.name).expect("stored relation");
        skip_pays(stats[seek].distinct.min(hi - lo), after, hi - lo)
    };
    let mut ranges = Vec::new();
    let sought = if skip {
        path.push(format!("skip-scan col {seek}, seek {after} col"));
        let sought = seek + 1 + after;
        let mut i = lo;
        while i < hi {
            let v = rel.row(i)[seek];
            let end = gallop(i, hi, |r| rel.row(r)[seek] == v);
            let (mut a, mut b) = (i, end);
            for (c, w) in eq.iter().enumerate().take(sought).skip(seek + 1) {
                (a, b) = seek_range(rel, dict, a, b, c, w.expect("seek column"));
            }
            if a < b {
                ranges.push((a, b));
            }
            i = end;
        }
        sought
    } else {
        if lo < hi {
            ranges.push((lo, hi));
        }
        seek
    };
    let range_rows: usize = ranges.iter().map(|(a, b)| b - a).sum();

    // What the ranges cannot answer filters them.
    let mut conds: Vec<RCond> = (sought..arity)
        .filter_map(|c| eq[c].map(|w| RCond::EqWord(c, w)))
        .collect();
    conds.extend(
        atom.conds
            .iter()
            .map(|c| RCond::resolve(c, &cx.overlay))
            .filter(|c| !matches!(c, RCond::KeepAll)),
    );
    if !conds.is_empty() {
        path.push("filter".to_string());
    }

    // The projection's dedup: the columns the output keeps or a
    // constant fixes, closed under column equalities, determine the
    // rest or not.
    let known = |c: usize| eq[c].is_some() || atom.out.contains(&c);
    let mut determined: Vec<bool> = (0..arity).map(known).collect();
    let mut grew = true;
    while grew {
        grew = false;
        for cond in &atom.conds {
            if let PCond::EqCol(i, j) = *cond {
                if determined[i] != determined[j] {
                    (determined[i], determined[j]) = (true, true);
                    grew = true;
                }
            }
        }
    }
    let key = atom.out.iter().max().map_or(0, |&c| c + 1);
    let prefix = (0..key).all(known);
    let dedup = if determined.iter().all(|&d| d) {
        Dedup::None
    } else if prefix {
        Dedup::Runs(key)
    } else {
        Dedup::Hash
    };
    if !atom.out.iter().copied().eq(0..arity) {
        path.push(
            match dedup {
                Dedup::None => "project",
                Dedup::Runs(_) => "run-scan",
                Dedup::Hash => "dedup",
            }
            .to_string(),
        );
    }

    let (mut out, read, morsels) = if k == 0 {
        // Zero arity: the one empty tuple, if any row qualifies.
        let any = ranges
            .iter()
            .any(|&(a, b)| (a..b).any(|r| conds.iter().all(|c| c.keep(rel.row(r)))));
        let mut out = VStream::empty(0);
        out.rows = usize::from(any);
        (out, range_rows, 1)
    } else if let (Dedup::Runs(p), true) = (dedup, conds.is_empty()) {
        // Gallop from each run of equal prefixes to the next.
        let mut data = Vec::new();
        let mut runs = 0;
        for &(a, b) in &ranges {
            let mut i = a;
            while i < b {
                let head = rel.row(i);
                data.extend(atom.out.iter().map(|&c| head[c]));
                runs += 1;
                i = gallop(i + 1, b, |r| rel.row(r)[..p] == head[..p]);
            }
        }
        (VStream::owned(k, runs, data), runs, 1)
    } else if dedup == Dedup::Hash {
        let all: Vec<usize> = (0..arity).collect();
        let (kept, m) = filter_ranges(rel, &ranges, &conds, &all, false, cx);
        let (out, m2) = project_dedup(&kept, &atom.out, cx);
        (out, range_rows, m.max(m2))
    } else {
        let adjacent = matches!(dedup, Dedup::Runs(_));
        let (out, m) = filter_ranges(rel, &ranges, &conds, &atom.out, adjacent, cx);
        (out, range_rows, m)
    };
    let op = if path.is_empty() {
        format!("scan {}", atom.name)
    } else {
        format!("scan {} ({})", atom.name, path.join(", "))
    };
    cx.stats.push(OpStat {
        op,
        rows: read,
        morsels,
    });
    // Rows come out in stored order; their projection stays strictly
    // increasing when it reads a column prefix, constants aside, in
    // column order.
    out.sorted = prefix && atom.out.windows(2).all(|w| w[0] < w[1]);
    out
}

/// Whether one seek per distinct value (`cols` seek columns each) reads
/// less than scanning all `rows` rows of the range.
fn skip_pays(distinct: usize, cols: usize, rows: usize) -> bool {
    let log = (usize::BITS - rows.leading_zeros()) as usize;
    distinct
        .saturating_mul(cols + 1)
        .saturating_mul(log)
        .saturating_mul(SEEK_PROBE_ROWS)
        < rows
}

/// The rows of `lo..hi` — which agree on every column before `c`, so
/// are sorted by `c` — whose column `c` holds `w`: a binary search for
/// the first, a gallop to the end of its run.
fn seek_range(rel: &VRel, dict: &Dict, lo: usize, hi: usize, c: usize, w: Val) -> (usize, usize) {
    let start = partition(lo, hi, |r| {
        dict.cmp_vals(rel.row(r)[c], w) == Ordering::Less
    });
    (start, gallop(start, hi, |r| rel.row(r)[c] == w))
}

/// The first index of `lo..hi` where `pred` fails (`hi` if none), for a
/// `pred` that holds on a prefix of the range: a binary search.
fn partition(mut lo: usize, mut hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// [`partition`] by galloping from `lo`: O(log d) probes for a prefix of
/// length `d`, however long the range.
fn gallop(lo: usize, hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    let mut good = lo;
    let mut step = 1;
    while good < hi {
        let probe = (good + step).min(hi) - 1;
        if !pred(probe) {
            return partition(good, probe, pred);
        }
        good = probe + 1;
        step *= 2;
    }
    good
}

/// The rows of `ranges` (ascending row ranges of `rel`) that pass
/// `conds`, projected onto `proj` — dropping a row equal to the one
/// kept before it when `adjacent`. A single unfiltered range read whole
/// is borrowed, not copied. Fans out over morsels of the ranges;
/// returns the stream and the number of morsels processed.
fn filter_ranges<'a>(
    rel: &'a VRel,
    ranges: &[(usize, usize)],
    conds: &[RCond],
    proj: &[usize],
    adjacent: bool,
    cx: &ExecContext<'_>,
) -> (VStream<'a>, usize) {
    let arity = rel.arity();
    let data = rel.data();
    let identity = proj.iter().copied().eq(0..arity);
    if let [(a, b)] = ranges {
        if conds.is_empty() && identity {
            let stream = VStream {
                arity,
                rows: b - a,
                data: Cow::Borrowed(&data[a * arity..b * arity]),
                sorted: false,
            };
            return (stream, 1);
        }
    }
    let total: usize = ranges.iter().map(|(a, b)| b - a).sum();
    let eng = cx.fanout(arity, total);
    let step = if eng.is_some() {
        cx.morsel_rows
    } else {
        usize::MAX
    };
    let slices: Vec<&[Val]> = ranges
        .iter()
        .flat_map(|&(a, b)| {
            (a..b)
                .step_by(step)
                .map(move |s| &data[s * arity..s.saturating_add(step).min(b) * arity])
        })
        .collect();
    let k = proj.len();
    let part = |m: &&[Val]| -> Vec<Val> {
        let mut out: Vec<Val> = Vec::new();
        for row in m.chunks_exact(arity) {
            if !conds.iter().all(|c| c.keep(row)) {
                continue;
            }
            let n = out.len();
            if adjacent && n >= k && proj.iter().zip(&out[n - k..]).all(|(&c, &w)| row[c] == w) {
                continue;
            }
            out.extend(proj.iter().map(|&c| row[c]));
        }
        out
    };
    let parts: Vec<Vec<Val>> = match eng {
        Some(eng) => eng.parallel_map(&slices, part),
        None => slices.iter().map(part).collect(),
    };
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for p in parts {
        // Equal rows are adjacent, so only a part's first row can repeat
        // the last row kept before it.
        let n = out.len();
        let repeat = adjacent && n >= k && p.len() >= k && p[..k] == out[n - k..];
        out.extend_from_slice(&p[if repeat { k } else { 0 }..]);
    }
    let rows = out.len() / k;
    (
        VStream::owned(k, rows, out),
        eng.map_or(1, |_| slices.len()),
    )
}

/// Evaluate a node to a duplicate-free word stream.
///
/// Invariant: every stream returned here is duplicate-free. Scans and
/// singletons are sets; filters, permutations, extends, and differences
/// preserve duplicate-freeness; hash joins of duplicate-free inputs are
/// duplicate-free (the output determines both factors); narrowing
/// projections and unions are the only duplicate sources, and both
/// dedup. Row counts therefore equal the logical cardinalities of the
/// naive backend.
fn run<'a>(node: &PNode, cx: &mut ExecContext<'a>) -> VStream<'a> {
    let (label, out, morsels) = match node {
        PNode::Scan(atom) => return scan(atom, cx),
        PNode::Empty => ("empty".to_string(), VStream::empty(0), 1),
        PNode::Singleton { tuple } => {
            let mut out = VStream::empty(tuple.len());
            let row: Vec<Val> = tuple.iter().map(|v| cx.overlay.encode(v)).collect();
            out.push(&row);
            ("const".to_string(), out, 1)
        }
        PNode::Filter { input, cond } => {
            let s = run(input, cx);
            let cond = RCond::resolve(cond, &cx.overlay);
            let (out, morsels) = match cx.fanout(s.arity, s.rows) {
                Some(eng) => {
                    let arity = s.arity;
                    par_morsel_map(eng, &s, cx.morsel_rows, arity, |m| {
                        let mut kept = Vec::new();
                        for row in m.chunks_exact(arity) {
                            if cond.keep(row) {
                                kept.extend_from_slice(row);
                            }
                        }
                        kept
                    })
                }
                None => {
                    let mut out = VStream::empty(s.arity);
                    for row in s.rows() {
                        if cond.keep(row) {
                            out.push(row);
                        }
                    }
                    (out, 1)
                }
            };
            ("filter".to_string(), out, morsels)
        }
        PNode::ProjectPerm { input, idx } => {
            let s = run(input, cx);
            let (out, morsels) = match cx.fanout(s.arity, s.rows) {
                Some(eng) => {
                    let arity = s.arity;
                    par_morsel_map(eng, &s, cx.morsel_rows, idx.len(), |m| {
                        let mut data = Vec::with_capacity(m.len() / arity * idx.len());
                        for row in m.chunks_exact(arity) {
                            data.extend(idx.iter().map(|&i| row[i]));
                        }
                        data
                    })
                }
                None => {
                    let mut data = Vec::with_capacity(s.rows * idx.len());
                    for row in s.rows() {
                        data.extend(idx.iter().map(|&i| row[i]));
                    }
                    (VStream::owned(idx.len(), s.rows, data), 1)
                }
            };
            ("project(permute)".to_string(), out, morsels)
        }
        PNode::ProjectNarrow { input, idx } => {
            let s = run(input, cx);
            let (out, morsels) = project_dedup(&s, idx, cx);
            ("project(dedup)".to_string(), out, morsels)
        }
        PNode::HashJoin {
            left,
            right,
            lkey,
            rkey,
            rextra,
        } => {
            let l = run(left, cx);
            let r = run(right, cx);
            let label = format!("hash-join (left {} × right {})", l.rows, r.rows);
            let (out, morsels) = hash_join(&l, &r, lkey, rkey, rextra, cx);
            (label, out, morsels)
        }
        PNode::Union { left, right, rperm } => {
            let l = run(left, cx);
            let r = run(right, cx);
            let (out, morsels) = match cx.fanout(r.arity, r.rows).filter(|_| !rperm.is_empty()) {
                Some(eng) => {
                    // Both inputs are duplicate-free and `rperm` is a
                    // permutation, so the only possible collisions are
                    // right-vs-left: emit the left verbatim and filter
                    // right morsels against a left-row set in parallel.
                    let rarity = r.arity;
                    let lset: FxSet<&[Val]> = l.rows().collect();
                    let morsels = r.morsels(cx.morsel_rows);
                    let n = morsels.len();
                    let parts = eng.parallel_map(&morsels, |m| {
                        let mut kept = Vec::new();
                        for row in m.chunks_exact(rarity) {
                            let aligned: Vec<Val> = rperm.iter().map(|&i| row[i]).collect();
                            if !lset.contains(aligned.as_slice()) {
                                kept.extend(aligned);
                            }
                        }
                        kept
                    });
                    drop(lset);
                    let mut data = l.data.into_owned();
                    let mut rows = l.rows;
                    for part in parts {
                        rows += part.len() / rperm.len();
                        data.extend(part);
                    }
                    (VStream::owned(rperm.len(), rows, data), n)
                }
                None => {
                    let mut seen: FxSet<Vec<Val>> = fx::set_with_capacity(l.rows + r.rows);
                    let mut out = VStream::empty(rperm.len());
                    for row in l.rows() {
                        if seen.insert(row.to_vec()) {
                            out.push(row);
                        }
                    }
                    for row in r.rows() {
                        let aligned: Vec<Val> = rperm.iter().map(|&i| row[i]).collect();
                        if seen.insert(aligned.clone()) {
                            out.push(&aligned);
                        }
                    }
                    (out, 1)
                }
            };
            ("union(dedup)".to_string(), out, morsels)
        }
        PNode::Diff { left, right, rperm } => {
            let l = run(left, cx);
            let r = run(right, cx);
            let remove: FxSet<Vec<Val>> = r
                .rows()
                .map(|row| rperm.iter().map(|&i| row[i]).collect())
                .collect();
            let (out, morsels) = match cx.fanout(l.arity, l.rows) {
                Some(eng) => {
                    let arity = l.arity;
                    par_morsel_map(eng, &l, cx.morsel_rows, arity, |m| {
                        let mut kept = Vec::new();
                        for row in m.chunks_exact(arity) {
                            if !remove.contains(row) {
                                kept.extend_from_slice(row);
                            }
                        }
                        kept
                    })
                }
                None => {
                    let mut out = VStream::empty(l.arity);
                    for row in l.rows() {
                        if !remove.contains(row) {
                            out.push(row);
                        }
                    }
                    (out, 1)
                }
            };
            ("diff".to_string(), out, morsels)
        }
        PNode::Extend { input, src } => {
            let s = run(input, cx);
            let (out, morsels) = match cx.fanout(s.arity, s.rows) {
                Some(eng) => {
                    let arity = s.arity;
                    let src = *src;
                    par_morsel_map(eng, &s, cx.morsel_rows, arity + 1, |m| {
                        let mut data = Vec::with_capacity(m.len() / arity * (arity + 1));
                        for row in m.chunks_exact(arity) {
                            data.extend_from_slice(row);
                            data.push(row[src]);
                        }
                        data
                    })
                }
                None => {
                    let mut data = Vec::with_capacity(s.rows * (s.arity + 1));
                    for row in s.rows() {
                        data.extend_from_slice(row);
                        data.push(row[*src]);
                    }
                    (VStream::owned(s.arity + 1, s.rows, data), 1)
                }
            };
            ("extend".to_string(), out, morsels)
        }
    };
    cx.stats.push(OpStat {
        op: label,
        rows: out.rows,
        morsels,
    });
    out
}

/// Project `s` onto the columns `idx`, dropping repeated rows and
/// keeping each row's first occurrence, in stream order. Returns the
/// stream and the number of morsels processed.
fn project_dedup<'a>(s: &VStream<'_>, idx: &[usize], cx: &ExecContext<'_>) -> (VStream<'a>, usize) {
    match cx.fanout(s.arity, s.rows).filter(|_| !idx.is_empty()) {
        Some(eng) => {
            // Three parallel phases, equal to the sequential
            // scan's global first-occurrence semantics:
            //
            // 1. Per-morsel local dedup keeps each morsel's
            //    first occurrences and hashes each kept row.
            // 2. Sharded global dedup: shard workers scan the
            //    kept rows in global order, each claiming only
            //    rows whose hash lands in its shard. Equal rows
            //    always share a shard, so every shard's local
            //    first occurrence *is* the global one.
            // 3. An order-restoring stitch copies the surviving
            //    rows back in global order — no hashing, just a
            //    flag-guided sweep.
            let arity = s.arity;
            let k = idx.len();
            let morsels = s.morsels(cx.morsel_rows);
            let n = morsels.len();
            let parts: Vec<(Vec<Val>, Vec<u64>)> = eng.parallel_map(&morsels, |m| {
                let mut local: FxSet<Vec<Val>> = FxSet::default();
                let mut out = Vec::new();
                let mut hashes = Vec::new();
                for row in m.chunks_exact(arity) {
                    let narrow: Vec<Val> = idx.iter().map(|&i| row[i]).collect();
                    if local.contains(&narrow) {
                        continue;
                    }
                    let mut h = FxHasher::default();
                    for &v in &narrow {
                        std::hash::Hasher::write_u64(&mut h, v.raw());
                    }
                    hashes.push(std::hash::Hasher::finish(&h));
                    out.extend_from_slice(&narrow);
                    local.insert(narrow);
                }
                (out, hashes)
            });
            // Each part's offset in the concatenated kept rows.
            let mut offsets = Vec::with_capacity(n);
            let mut total = 0usize;
            for (_, hashes) in &parts {
                offsets.push(total);
                total += hashes.len();
            }
            let shard_ids: Vec<u64> = (0..eng.threads().max(1) as u64).collect();
            let nshards = shard_ids.len() as u64;
            let survivors = eng.parallel_map(&shard_ids, |&shard| {
                let mut seen: FxSet<&[Val]> = FxSet::default();
                let mut keep: Vec<usize> = Vec::new();
                for (p, (rows, hashes)) in parts.iter().enumerate() {
                    for (i, &h) in hashes.iter().enumerate() {
                        if h % nshards != shard {
                            continue;
                        }
                        if seen.insert(&rows[i * k..(i + 1) * k]) {
                            keep.push(offsets[p] + i);
                        }
                    }
                }
                keep
            });
            let mut keep_flags = vec![false; total];
            for list in &survivors {
                for &g in list {
                    keep_flags[g] = true;
                }
            }
            let mut out = VStream::empty(k);
            let mut g = 0usize;
            for (rows, hashes) in &parts {
                for i in 0..hashes.len() {
                    if keep_flags[g] {
                        out.push(&rows[i * k..(i + 1) * k]);
                    }
                    g += 1;
                }
            }
            (out, n)
        }
        None => {
            let mut seen: FxSet<Vec<Val>> = fx::set_with_capacity(s.rows);
            let mut out = VStream::empty(idx.len());
            for row in s.rows() {
                let narrow: Vec<Val> = idx.iter().map(|&i| row[i]).collect();
                if seen.insert(narrow.clone()) {
                    out.push(&narrow);
                }
            }
            (out, 1)
        }
    }
}

/// Build/probe hash join on word keys. The build side is the smaller
/// input; the output layout is always `left ++ right[rextra]` regardless
/// of which side was built, matching the logical Join's attribute list.
/// One-column keys hash a single `u64`; wider keys hash a small word
/// vector. An empty key is the cross-product case.
///
/// When `cx` carries an engine and the probe side spans ≥ 2 morsels, the
/// join runs parallel on both sides (see [`par_keyed_join`]); output is
/// bit-identical to the sequential path. Returns the stream and the
/// number of probe morsels (1 for the sequential path).
fn hash_join<'a>(
    l: &VStream<'_>,
    r: &VStream<'_>,
    lkey: &[usize],
    rkey: &[usize],
    rextra: &[usize],
    cx: &ExecContext<'_>,
) -> (VStream<'a>, usize) {
    let out_arity = l.arity + rextra.len();
    if lkey.is_empty() {
        // Cross product: fan out over left morsels, each crossed with
        // the whole right side — concatenation in morsel order equals
        // the sequential nested loop.
        if let Some(eng) = cx
            .fanout(l.arity, l.rows)
            .filter(|_| out_arity > 0 && r.rows > 0)
        {
            let larity = l.arity;
            return par_morsel_map(eng, l, cx.morsel_rows, out_arity, |m| {
                let mut part = Vec::with_capacity(m.len() / larity * r.rows * out_arity);
                for lrow in m.chunks_exact(larity) {
                    for rrow in r.rows() {
                        part.extend_from_slice(lrow);
                        part.extend(rextra.iter().map(|&j| rrow[j]));
                    }
                }
                part
            });
        }
    } else {
        // Keyed join: the build side is the smaller input, exactly as
        // in the sequential arms below, so per-key row lists and emit
        // order match bit for bit.
        let build_left = l.rows <= r.rows;
        let probe = if build_left { r } else { l };
        if let Some(eng) = cx.fanout(probe.arity, probe.rows).filter(|_| out_arity > 0) {
            let shards = eng
                .threads()
                .min(if build_left { l.rows } else { r.rows })
                .max(1);
            return if lkey.len() == 1 {
                let (lk, rk) = (lkey[0], rkey[0]);
                if build_left {
                    par_keyed_join(
                        eng,
                        l,
                        r,
                        cx.morsel_rows,
                        out_arity,
                        shards,
                        |brow| brow[lk],
                        |prow| prow[rk],
                        |part, i, rrow| {
                            part.extend_from_slice(l.row(i as usize));
                            part.extend(rextra.iter().map(|&j| rrow[j]));
                        },
                    )
                } else {
                    par_keyed_join(
                        eng,
                        r,
                        l,
                        cx.morsel_rows,
                        out_arity,
                        shards,
                        |brow| brow[rk],
                        |prow| prow[lk],
                        |part, j, lrow| {
                            part.extend_from_slice(lrow);
                            part.extend(rextra.iter().map(|&j2| r.row(j as usize)[j2]));
                        },
                    )
                }
            } else {
                let key_of = |row: &[Val], key: &[usize]| -> Vec<Val> {
                    key.iter().map(|&i| row[i]).collect()
                };
                if build_left {
                    par_keyed_join(
                        eng,
                        l,
                        r,
                        cx.morsel_rows,
                        out_arity,
                        shards,
                        |brow| key_of(brow, lkey),
                        |prow| key_of(prow, rkey),
                        |part, i, rrow| {
                            part.extend_from_slice(l.row(i as usize));
                            part.extend(rextra.iter().map(|&j| rrow[j]));
                        },
                    )
                } else {
                    par_keyed_join(
                        eng,
                        r,
                        l,
                        cx.morsel_rows,
                        out_arity,
                        shards,
                        |brow| key_of(brow, rkey),
                        |prow| key_of(prow, lkey),
                        |part, j, lrow| {
                            part.extend_from_slice(lrow);
                            part.extend(rextra.iter().map(|&j2| r.row(j as usize)[j2]));
                        },
                    )
                }
            };
        }
    }
    (hash_join_seq(l, r, lkey, rkey, rextra), 1)
}

/// Parallel keyed hash join: **partitioned build** (each worker owns one
/// shard of the Fx-hashed key space and scans the whole build input in
/// order, keeping the rows whose key hashes into its shard — one key
/// lives in exactly one shard, so its row list equals the sequential
/// table's) plus **morsel-parallel probe** (each probe morsel consults
/// the one shard its key hashes to and emits matches in build order;
/// stitching in morsel order reproduces the sequential probe scan).
#[allow(clippy::too_many_arguments)]
fn par_keyed_join<'a, K, BK, PK, EM>(
    eng: &Engine,
    build: &VStream<'_>,
    probe: &VStream<'_>,
    morsel_rows: usize,
    out_arity: usize,
    shards: usize,
    bkey: BK,
    pkey: PK,
    emit: EM,
) -> (VStream<'a>, usize)
where
    K: Hash + Eq + Send + Sync,
    BK: Fn(&[Val]) -> K + Sync,
    PK: Fn(&[Val]) -> K + Sync,
    EM: Fn(&mut Vec<Val>, u32, &[Val]) + Sync,
{
    let fxh = BuildHasherDefault::<FxHasher>::default();
    let shard_ids: Vec<usize> = (0..shards).collect();
    let barity = build.arity.max(1);
    let tables: Vec<FxMap<K, Vec<u32>>> = eng.parallel_map(&shard_ids, |&w| {
        let mut t: FxMap<K, Vec<u32>> = fx::map_with_capacity(build.rows / shards + 1);
        for (i, brow) in build.data.chunks_exact(barity).enumerate() {
            let k = bkey(brow);
            if fxh.hash_one(&k) as usize % shards == w {
                t.entry(k).or_default().push(i as u32);
            }
        }
        t
    });
    let morsels = probe.morsels(morsel_rows);
    let n = morsels.len();
    let parity = probe.arity;
    let parts = eng.parallel_map(&morsels, |m| {
        let mut part = Vec::new();
        for prow in m.chunks_exact(parity) {
            let k = pkey(prow);
            if let Some(matches) = tables[fxh.hash_one(&k) as usize % shards].get(&k) {
                for &i in matches {
                    emit(&mut part, i, prow);
                }
            }
        }
        part
    });
    (stitch(parts, out_arity), n)
}

/// The sequential build/probe arms of [`hash_join`].
fn hash_join_seq<'a>(
    l: &VStream<'_>,
    r: &VStream<'_>,
    lkey: &[usize],
    rkey: &[usize],
    rextra: &[usize],
) -> VStream<'a> {
    let mut out = VStream::empty(l.arity + rextra.len());
    let emit = |out: &mut VStream<'_>, lrow: &[Val], rrow: &[Val]| {
        let data = out.data.to_mut();
        data.extend_from_slice(lrow);
        data.extend(rextra.iter().map(|&j| rrow[j]));
        out.rows += 1;
    };
    if lkey.is_empty() {
        out.data.to_mut().reserve(l.rows * r.rows * out.arity);
        for lrow in l.rows() {
            for rrow in r.rows() {
                emit(&mut out, lrow, rrow);
            }
        }
        return out;
    }
    if lkey.len() == 1 {
        // Single-word key: hash bare u64s, no per-probe allocation.
        let (lk, rk) = (lkey[0], rkey[0]);
        if l.rows <= r.rows {
            let mut table: FxMap<Val, Vec<u32>> = fx::map_with_capacity(l.rows);
            for (i, lrow) in l.rows().enumerate() {
                table.entry(lrow[lk]).or_default().push(i as u32);
            }
            for rrow in r.rows() {
                if let Some(matches) = table.get(&rrow[rk]) {
                    for &i in matches {
                        emit(&mut out, l.row(i as usize), rrow);
                    }
                }
            }
        } else {
            let mut table: FxMap<Val, Vec<u32>> = fx::map_with_capacity(r.rows);
            for (j, rrow) in r.rows().enumerate() {
                table.entry(rrow[rk]).or_default().push(j as u32);
            }
            for lrow in l.rows() {
                if let Some(matches) = table.get(&lrow[lk]) {
                    for &j in matches {
                        emit(&mut out, lrow, r.row(j as usize));
                    }
                }
            }
        }
        return out;
    }
    let key_of = |row: &[Val], key: &[usize]| -> Vec<Val> { key.iter().map(|&i| row[i]).collect() };
    if l.rows <= r.rows {
        let mut table: FxMap<Vec<Val>, Vec<u32>> = fx::map_with_capacity(l.rows);
        for (i, lrow) in l.rows().enumerate() {
            table.entry(key_of(lrow, lkey)).or_default().push(i as u32);
        }
        for rrow in r.rows() {
            if let Some(matches) = table.get(&key_of(rrow, rkey)) {
                for &i in matches {
                    emit(&mut out, l.row(i as usize), rrow);
                }
            }
        }
    } else {
        let mut table: FxMap<Vec<Val>, Vec<u32>> = fx::map_with_capacity(r.rows);
        for (j, rrow) in r.rows().enumerate() {
            table.entry(key_of(rrow, rkey)).or_default().push(j as u32);
        }
        for lrow in l.rows() {
            if let Some(matches) = table.get(&key_of(lrow, lkey)) {
                for &j in matches {
                    emit(&mut out, lrow, r.row(j as usize));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::compile;
    use crate::optimize::optimize;
    use crate::schema::Schema;
    use fq_logic::parse_formula;

    fn fathers() -> State {
        let schema = Schema::new().with_relation("F", 2).with_relation("S", 1);
        State::new(schema)
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(2)])
            .with_tuple("F", vec![Value::Nat(1), Value::Nat(3)])
            .with_tuple("F", vec![Value::Nat(2), Value::Nat(4)])
            .with_tuple("S", vec![Value::Nat(2)])
    }

    fn check(query: &str) {
        let state = fathers();
        let f = parse_formula(query).unwrap();
        let expr = compile(state.schema(), &f).expect("compiles");
        let naive = expr.eval(&state);
        // Unoptimized physical execution.
        let phys = PhysicalPlan::compile(&expr).execute(&state);
        assert_eq!(naive, phys, "physical ≠ naive on {query}");
        // Optimized physical execution.
        let opt = optimize(&expr, &state);
        let phys_opt = PhysicalPlan::compile(&opt.expr).execute(&state);
        assert_eq!(naive, phys_opt, "optimized physical ≠ naive on {query}");
    }

    #[test]
    fn physical_matches_naive_backend() {
        for q in [
            "F(x, y)",
            "exists y z. y != z & F(x, y) & F(x, z)",
            "exists y. F(x, y) & F(y, z)",
            "F(x, y) & S(y)",
            "F(1, y)",
            "F(x, x)",
            "F(x, y) | (x = 9 & y = 9)",
            "F(x, y) & !F(y, x)",
            "(exists y. F(x, y)) & !(exists g. exists f. F(g, f) & F(f, x))",
            "F(x, y) & x != y",
            "F(x, y) & y != 2",
            "x = 2 & (exists z. F(y, z) & x != 0)",
            "(exists y. F(x, y)) & forall y. F(x, y) -> y = 2 | y = 3",
            "exists x y. F(x, y)",
        ] {
            check(q);
        }
    }

    #[test]
    fn constants_outside_the_state_dictionary_are_handled() {
        // "zz" is nowhere in the state: equality selections must keep
        // nothing, inequality selections everything, and singleton
        // values must flow through unions and filters via overlay words.
        for q in [
            "F(x, y) & y != \"zz\"",
            "F(x, y) | (x = \"zz\" & y = \"zz\")",
            "(F(x, y) | (x = \"zz\" & y = \"zz\")) & x != \"zz\"",
            "(F(x, y) | (x = \"zz\" & y = \"zz\")) & x = \"zz\"",
        ] {
            check(q);
        }
    }

    #[test]
    fn cross_join_is_the_empty_key_case() {
        let e = AlgebraExpr::Join(
            Box::new(AlgebraExpr::Base {
                name: "F".into(),
                attrs: vec!["x".into(), "y".into()],
            }),
            Box::new(AlgebraExpr::Base {
                name: "S".into(),
                attrs: vec!["s".into()],
            }),
        );
        let state = fathers();
        assert_eq!(e.eval(&state), PhysicalPlan::compile(&e).execute(&state));
    }

    #[test]
    fn stats_report_operator_cardinalities() {
        let state = fathers();
        let f = parse_formula("exists y. F(x, y) & F(y, z)").unwrap();
        let expr = compile(state.schema(), &f).unwrap();
        let report = PhysicalPlan::compile(&expr).execute_with_stats(&state);
        assert!(report
            .operators
            .iter()
            .any(|s| s.op.starts_with("scan F") && s.rows == 3));
        assert!(report
            .operators
            .iter()
            .any(|s| s.op.starts_with("hash-join")));
    }

    /// A state wide enough to span many morsels at small morsel sizes:
    /// a two-column chain relation plus a unary filter relation.
    fn chain(n: u64) -> State {
        let schema = Schema::new().with_relation("F", 2).with_relation("S", 1);
        let mut b = crate::state::StateBuilder::new(schema);
        for i in 0..n {
            b.row("F", vec![Value::Nat(i), Value::Nat(i + 1)]);
            b.row(
                "F",
                vec![Value::Nat(i), Value::Str(format!("tag{}", i % 7))],
            );
            if i % 2 == 0 {
                b.row("S", vec![Value::Nat(i)]);
            }
        }
        b.finish()
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_sequential() {
        use fq_engine::{Engine, EngineConfig};
        let state = chain(200);
        for q in [
            "F(x, y)",                                // scan
            "exists y. F(x, y) & F(y, z)",            // join + project
            "F(x, y) & S(y)",                         // key join
            "F(x, y) & x != y",                       // filter
            "F(x, y) | (x = 9 & y = 9)",              // union
            "F(x, y) & !F(y, x)",                     // diff
            "F(x, x)",                                // self filter
            "exists y z. y != z & F(x, y) & F(x, z)", // extend-heavy
            "exists x y. F(x, y)",                    // zero-arity root
        ] {
            let f = parse_formula(q).unwrap();
            let expr = compile(state.schema(), &f).expect("compiles");
            let plan = PhysicalPlan::compile(&optimize(&expr, &state).expr);
            let sequential = plan.execute_with_stats(&state);
            for threads in [1, 2, 4, 8] {
                let engine = Engine::new(EngineConfig {
                    threads,
                    ..EngineConfig::default()
                });
                // Morsel sizes straddling the edge cases: every row its
                // own morsel, a non-divisor, an exact divisor of 400,
                // one morsel total, and rows < morsel size.
                for morsel_rows in [1, 3, 50, 400, 100_000] {
                    let report =
                        plan.execute_with_stats_on(&state, &engine, ExecOpts { morsel_rows });
                    assert_eq!(
                        report.relation, sequential.relation,
                        "parallel ≠ sequential on {q} at {threads} threads, morsel {morsel_rows}"
                    );
                    // Row counts per operator are schedule-independent.
                    let rows: Vec<usize> = report.operators.iter().map(|s| s.rows).collect();
                    let seq_rows: Vec<usize> =
                        sequential.operators.iter().map(|s| s.rows).collect();
                    assert_eq!(rows, seq_rows, "cardinalities drift on {q}");
                }
            }
        }
    }

    #[test]
    fn parallel_schedules_actually_fan_out() {
        use fq_engine::{Engine, EngineConfig};
        let state = chain(100);
        let f = parse_formula("exists y. F(x, y) & F(y, z)").unwrap();
        let expr = compile(state.schema(), &f).unwrap();
        let plan = PhysicalPlan::compile(&optimize(&expr, &state).expr);
        let engine = Engine::new(EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        });
        let report = plan.execute_with_stats_on(&state, &engine, ExecOpts { morsel_rows: 16 });
        assert!(
            report.operators.iter().any(|s| s.morsels >= 2),
            "no operator fanned out: {:?}",
            report.operators
        );
        // The sequential path reports exactly one morsel everywhere.
        let seq = plan.execute_with_stats(&state);
        assert!(seq.operators.iter().all(|s| s.morsels == 1));
    }

    #[test]
    fn empty_relations_survive_any_morsel_schedule() {
        use fq_engine::{Engine, EngineConfig};
        let schema = Schema::new().with_relation("F", 2).with_relation("S", 1);
        let state = State::new(schema);
        let engine = Engine::new(EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        });
        for q in ["F(x, y)", "F(x, y) & S(y)", "F(x, y) & !F(y, x)"] {
            let f = parse_formula(q).unwrap();
            let expr = compile(state.schema(), &f).unwrap();
            let plan = PhysicalPlan::compile(&expr);
            let out = plan.execute_with_stats_on(&state, &engine, ExecOpts { morsel_rows: 1 });
            assert_eq!(out.relation, plan.execute(&state), "empty state on {q}");
        }
    }

    #[test]
    fn a_relation_referenced_twice_is_scanned_twice() {
        // F appears twice; each scan borrows the whole store and reads
        // all of it.
        let e = AlgebraExpr::Join(
            Box::new(AlgebraExpr::Base {
                name: "F".into(),
                attrs: vec!["x".into(), "y".into()],
            }),
            Box::new(AlgebraExpr::Base {
                name: "F".into(),
                attrs: vec!["y".into(), "z".into()],
            }),
        );
        let state = fathers();
        let report = PhysicalPlan::compile(&e).execute_with_stats(&state);
        let scans: Vec<&OpStat> = report
            .operators
            .iter()
            .filter(|s| s.op == "scan F")
            .collect();
        assert_eq!(scans.len(), 2);
        assert!(scans.iter().all(|s| s.rows == 3));
        assert_eq!(e.eval(&state), PhysicalPlan::compile(&e).execute(&state));
    }

    /// `Run(machine, word, trace)`, `Halted(machine, word)` over seven
    /// machines, as in the trace store.
    fn traces() -> State {
        let schema = Schema::new()
            .with_relation("Run", 3)
            .with_relation("Halted", 2);
        let mut b = crate::state::StateBuilder::new(schema);
        for m in 0..7 {
            for w in 0..100 {
                for t in 0..3 {
                    b.row(
                        "Run",
                        vec![
                            Value::Str(format!("m{m}")),
                            Value::Str(format!("w{w}")),
                            Value::Str(format!("t{m}.{w}.{t}")),
                        ],
                    );
                }
                if (m + w) % 2 == 0 {
                    b.row(
                        "Halted",
                        vec![Value::Str(format!("m{m}")), Value::Str(format!("w{w}"))],
                    );
                }
            }
        }
        b.finish()
    }

    /// A scan counts the rows of its range, or one per run when it
    /// gallops — never the whole relation.
    #[test]
    fn scans_read_the_range_not_the_relation() {
        let state = traces();
        for (q, path, read, answer) in [
            // point: the 50 `Halted` rows of one machine, of 350.
            ("Halted(\"m3\", w)", "seek 1 col", 50, 50),
            // word: one seek per machine finds the 21 `Run` rows of one
            // word, of 2100; the run-scan gallops over each machine's
            // three and reads one.
            ("exists p. Run(m, \"w42\", p)", "skip-scan col 0", 7, 7),
            // project: one row per run of equal machines.
            ("exists w. Halted(m, w)", "run-scan", 7, 7),
        ] {
            let f = parse_formula(q).unwrap();
            let expr = compile(state.schema(), &f).unwrap();
            let plan = PhysicalPlan::compile(&optimize(&expr, &state).expr);
            let report = plan.execute_with_stats(&state);
            assert_eq!(report.relation, expr.eval(&state), "{q}");
            assert_eq!(report.relation.tuples.len(), answer, "{q}");
            let [scan] = report.operators.as_slice() else {
                panic!("{q}: one scan expected, got {:?}", report.operators);
            };
            assert!(scan.op.contains(path), "{q}: {}", scan.op);
            assert_eq!(scan.rows, read, "{q}: {}", scan.op);
        }
    }
}

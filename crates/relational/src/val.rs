//! Compact value words, the per-state dictionary, and columnar storage.
//!
//! A [`Val`] is one machine word. Naturals below 2⁶³ are stored inline;
//! everything else (large naturals, strings) is an id into a [`Dict`] of
//! interned entries. Interning is canonical — a value has exactly one
//! word per dictionary — so word equality *is* semantic equality, and
//! hash joins and frame bindings work on bare `u64`s.
//!
//! Word *order* is not semantic (dictionary ids are assigned in
//! insertion order, not sort order): use [`Dict::cmp_vals`] wherever the
//! legacy [`Value`] ordering (`Nat < Str`, naturals numerically, strings
//! byte-lexicographically) matters.
//!
//! [`VRel`] stores a relation as a flat arity-strided `Vec<Val>` kept in
//! semantic sorted order without duplicates, so decoding yields exactly
//! the tuple sequence the old `BTreeSet<Tuple>` representation produced,
//! and membership is a binary search over words. Per-column min/max and
//! distinct counts ([`ColStats`]) are computed lazily, carried exactly
//! through batch merges, and feed the optimizer's cardinality
//! estimates.
//!
//! Writers have two paths into a [`VRel`]:
//!
//! * [`VRel::insert`] — the single-row path: binary search plus
//!   `splice`, O(rows) worst case per call. Right for point updates and
//!   small states; quadratic when driven in a bulk-load loop.
//! * [`VRel::extend_from_sorted`] / [`VRel::from_rows`] — the batch
//!   path: sort the incoming batch (adaptive, so already-sorted input
//!   is linear), drop in-batch duplicates, and merge once with the
//!   existing store. O((b log b) + rows + b) per batch of `b` rows.
//!   [`Dict::encode_rows`] is the matching batch interning entry point.
//!
//! Both paths uphold the same invariants — see the "Storage &
//! ingestion" section of `DESIGN.md` — and debug builds assert against
//! bulk loads accidentally driven through the single-row path.

use crate::fx::FxMap;
use crate::state::{Tuple, Value};
use std::cmp::Ordering;
use std::sync::{Arc, Mutex, OnceLock};

/// The tag bit: set for dictionary ids, clear for inline naturals.
const TAG: u64 = 1 << 63;

/// Semantic hash of a natural, for content fingerprints. Tagged apart
/// from [`hash_str`] so `Nat(5)` and `Str("5")` never collide by
/// construction.
pub(crate) fn hash_nat(n: u64) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::fx::FxHasher::default();
    h.write_u8(0);
    h.write_u64(n);
    h.finish()
}

/// Semantic hash of a string, for content fingerprints.
pub(crate) fn hash_str(s: &str) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::fx::FxHasher::default();
    h.write_u8(1);
    h.write(s.as_bytes());
    h.finish()
}

/// A database value packed into one word: an inline natural (`n < 2⁶³`)
/// or a dictionary id. Equality and hashing are word operations; the
/// derived `Ord` is **not** the semantic [`Value`] order — use
/// [`Dict::cmp_vals`] for that.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Val(u64);

impl Val {
    /// The inline word for a small natural, if it fits.
    pub fn inline_nat(n: u64) -> Option<Val> {
        (n & TAG == 0).then_some(Val(n))
    }

    /// The natural stored inline, if this word is untagged.
    pub fn as_inline_nat(self) -> Option<u64> {
        (self.0 & TAG == 0).then_some(self.0)
    }

    /// The dictionary id, if this word is tagged.
    pub fn id(self) -> Option<usize> {
        (self.0 & TAG != 0).then_some((self.0 & !TAG) as usize)
    }

    fn from_id(id: usize) -> Val {
        Val(TAG | id as u64)
    }

    /// The raw word.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reinterpret a raw word (the snapshot reader's inverse of
    /// [`Val::raw`]); the caller validates tagged ids against its
    /// dictionary.
    pub(crate) fn from_raw(word: u64) -> Val {
        Val(word)
    }
}

impl std::fmt::Debug for Val {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.as_inline_nat() {
            Some(n) => write!(f, "Val({n})"),
            None => write!(f, "Val(#{})", (self.0 & !TAG)),
        }
    }
}

/// An interned dictionary entry: a natural too large to inline, or a
/// string. `pub(crate)` so the snapshot format can dump and rebuild
/// the entry table in id order.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum DictEntry {
    Big(u64),
    Str(Arc<str>),
}

/// A borrowed view of a decoded word, cheap enough for comparators.
enum View<'a> {
    Nat(u64),
    Str(&'a str),
}

impl View<'_> {
    fn cmp(&self, other: &View<'_>) -> Ordering {
        // Mirrors the derived `Ord` on `Value`: Nat < Str, naturals
        // numerically, strings byte-lexicographically.
        match (self, other) {
            (View::Nat(a), View::Nat(b)) => a.cmp(b),
            (View::Nat(_), View::Str(_)) => Ordering::Less,
            (View::Str(_), View::Nat(_)) => Ordering::Greater,
            (View::Str(a), View::Str(b)) => a.cmp(b),
        }
    }
}

/// Entries interned since the base was frozen fold into the base once
/// the tail holds this many. A publish copies the tail, so the bound
/// caps that copy: about 60 µs for a full tail on a 2-vCPU Xeon host,
/// against ~19 ms for a publish that folds into the 10⁶-row trace
/// store's 258k-entry base. A fold into a shared base of `d` entries
/// copies the base once, `d / 4096` entry copies per interned entry;
/// folds into an unshared base (bulk loads, snapshot reads, log
/// replay) copy nothing.
pub(crate) const DICT_TAIL_FOLD: usize = 4096;

/// One id range of a [`Dict`]: the entries in id order, the reverse
/// indexes, and the running total of string payload bytes.
#[derive(Clone, Debug, Default)]
struct Entries {
    entries: Vec<DictEntry>,
    bigs: FxMap<u64, u32>,
    strs: FxMap<Arc<str>, u32>,
    string_bytes: usize,
}

impl Entries {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn lookup(&self, v: &Value) -> Option<u32> {
        match v {
            Value::Nat(n) => self.bigs.get(n).copied(),
            Value::Str(s) => self.strs.get(s.as_str()).copied(),
        }
    }

    /// Append a value known to be absent, under id `id`.
    fn push(&mut self, v: &Value, id: u32) {
        match v {
            Value::Nat(n) => {
                self.entries.push(DictEntry::Big(*n));
                self.bigs.insert(*n, id);
            }
            Value::Str(s) => {
                let arc: Arc<str> = Arc::from(s.as_str());
                self.string_bytes += arc.len();
                self.entries.push(DictEntry::Str(arc.clone()));
                self.strs.insert(arc, id);
            }
        }
    }

    fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
        self.strs.reserve(additional);
    }
}

/// The frozen part of a [`Dict`], shared between every state cloned
/// from one another. `hashes` holds each entry's semantic hash for
/// [`State::fingerprint`](crate::State::fingerprint); it is filled on
/// first use and extended, once filled, by every fold.
#[derive(Debug, Default)]
struct DictBase {
    part: Entries,
    hashes: OnceLock<Vec<u64>>,
}

impl DictBase {
    /// A copy whose vectors are allocated once, at their size after
    /// `extra` more entries: growing a copy by doubling would leave
    /// the allocator a trail of ever larger blocks, one per fold.
    fn copy_with_room(&self, extra: usize) -> DictBase {
        fn with_room<T: Clone>(items: &[T], extra: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(items.len() + extra);
            out.extend_from_slice(items);
            out
        }
        let hashes = OnceLock::new();
        if let Some(h) = self.hashes.get() {
            hashes.set(with_room(h, extra)).expect("fresh cell");
        }
        DictBase {
            part: Entries {
                entries: with_room(&self.part.entries, extra),
                bigs: self.part.bigs.clone(),
                strs: self.part.strs.clone(),
                string_bytes: self.part.string_bytes,
            },
            hashes,
        }
    }

    fn hashes(&self) -> &[u64] {
        self.hashes.get_or_init(|| {
            self.part
                .entries
                .iter()
                .map(DictEntry::semantic_hash)
                .collect()
        })
    }
}

impl DictEntry {
    fn view(&self) -> View<'_> {
        match self {
            DictEntry::Big(n) => View::Nat(*n),
            DictEntry::Str(s) => View::Str(s),
        }
    }

    /// The semantic hash: equal values hash equal in any dictionary.
    fn semantic_hash(&self) -> u64 {
        match self {
            DictEntry::Big(n) => hash_nat(*n),
            DictEntry::Str(s) => hash_str(s),
        }
    }
}

/// The per-[`State`](crate::State) append-only interning dictionary.
/// Every stored string and large natural has exactly one id, so two
/// words from the same dictionary are equal iff they denote the same
/// value.
///
/// A dictionary is an `Arc`-shared frozen **base** (ids `0 .. b`) plus
/// a private **tail** (ids `b ..`) of the entries interned since. A
/// clone copies only the tail, so cloning a state to publish a batch
/// costs the tail, not the dictionary. When the tail reaches
/// `DICT_TAIL_FOLD` entries it folds into the base — in place when no
/// other dictionary shares the base, through one copy otherwise. Ids
/// never move, so folding is invisible to every stored word.
#[derive(Clone, Debug, Default)]
pub struct Dict {
    base: Arc<DictBase>,
    tail: Entries,
}

impl Dict {
    /// Number of interned entries.
    pub fn len(&self) -> usize {
        self.base.part.len() + self.tail.len()
    }

    /// Is the dictionary empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of interned strings.
    pub fn strings(&self) -> usize {
        self.base.part.strs.len() + self.tail.strs.len()
    }

    /// Intern a value, returning its canonical word.
    pub fn encode(&mut self, v: &Value) -> Val {
        if let Some(val) = self.lookup(v) {
            return val;
        }
        let id = self.len();
        self.tail.push(v, id as u32);
        if self.tail.len() >= DICT_TAIL_FOLD {
            self.fold();
        }
        Val::from_id(id)
    }

    /// Move the tail into the base. Copies the base first when another
    /// dictionary shares it, so those dictionaries never change.
    fn fold(&mut self) {
        let tail = std::mem::take(&mut self.tail);
        if Arc::get_mut(&mut self.base).is_none() {
            self.base = Arc::new(self.base.copy_with_room(tail.len()));
        }
        let base = Arc::get_mut(&mut self.base).expect("unshared after the copy");
        if let Some(hashes) = base.hashes.get_mut() {
            hashes.extend(tail.entries.iter().map(DictEntry::semantic_hash));
        }
        let part = &mut base.part;
        part.entries.extend(tail.entries);
        part.bigs.extend(tail.bigs);
        part.strs.extend(tail.strs);
        part.string_bytes += tail.string_bytes;
    }

    /// Batch-intern a sequence of decoded tuples into one flat word
    /// buffer (arity-strided, insertion order preserved).
    ///
    /// Semantically identical to calling [`Dict::encode`] per value —
    /// interning stays canonical, ids are assigned in first-seen order —
    /// but the tail is grown once per batch instead of once per miss,
    /// which amortizes the rehash that dominates string-heavy loads.
    pub fn encode_rows<'a, I>(&mut self, tuples: I, out: &mut Vec<Val>)
    where
        I: IntoIterator<Item = &'a [Value]>,
    {
        let tuples = tuples.into_iter();
        // Reserve one fresh entry per row up front, up to the fold
        // bound. Over-reservation is harmless; under-reservation (wide
        // rows of all-new strings) just rehashes as the per-value path
        // would have.
        let (lo, _) = tuples.size_hint();
        self.tail
            .reserve(lo.min(DICT_TAIL_FOLD.saturating_sub(self.tail.len())));
        for tuple in tuples {
            out.reserve(tuple.len());
            for v in tuple {
                out.push(self.encode(v));
            }
        }
    }

    /// The word for a value **without** interning. `None` means the
    /// value is not in the dictionary (hence in no stored tuple).
    pub fn lookup(&self, v: &Value) -> Option<Val> {
        if let Value::Nat(n) = v {
            if let Some(val) = Val::inline_nat(*n) {
                return Some(val);
            }
        }
        self.base
            .part
            .lookup(v)
            .or_else(|| self.tail.lookup(v))
            .map(|id| Val::from_id(id as usize))
    }

    /// The entry behind an id.
    fn entry(&self, id: usize) -> &DictEntry {
        let base = &self.base.part.entries;
        match base.get(id) {
            Some(e) => e,
            None => &self.tail.entries[id - base.len()],
        }
    }

    /// The semantic hash of every interned entry, by id. Equal values
    /// hash equal in *any* dictionary, regardless of id assignment
    /// order, so [`State::fingerprint`](crate::State::fingerprint) can
    /// mix row words through this table and depend only on decoded
    /// content — never on interning history. The base's hashes are
    /// computed once and kept; only the tail's are computed per call.
    pub(crate) fn entry_hashes(&self) -> EntryHashes<'_> {
        EntryHashes {
            base: self.base.hashes(),
            tail: self
                .tail
                .entries
                .iter()
                .map(DictEntry::semantic_hash)
                .collect(),
        }
    }

    /// The interned entries in id order — exactly what the snapshot
    /// format serializes, so a reload via [`Dict::from_raw_entries`]
    /// reproduces this dictionary's id assignment and every stored
    /// word column stays valid verbatim.
    pub(crate) fn raw_entries(&self) -> impl Iterator<Item = &DictEntry> + Clone + '_ {
        self.base.part.entries.iter().chain(&self.tail.entries)
    }

    /// Total bytes of interned string payloads (snapshot sizing),
    /// kept as a running total.
    pub(crate) fn string_bytes(&self) -> usize {
        self.base.part.string_bytes + self.tail.string_bytes
    }

    /// Does this dictionary share its frozen base with `other`?
    #[cfg(test)]
    pub(crate) fn shares_base_with(&self, other: &Dict) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    /// Rebuild a dictionary from an entry table in id order,
    /// reconstructing the reverse maps; every entry lands in the base.
    /// `Err` (with a human-readable detail) when the table is not
    /// canonical — duplicate entries, or a "big" natural small enough
    /// to inline — since words encoded against such a table would break
    /// the one-word-per-value invariant word equality relies on.
    pub(crate) fn from_raw_entries(entries: Vec<DictEntry>) -> Result<Dict, String> {
        let mut bigs = crate::fx::map_with_capacity(entries.len());
        let mut strs = crate::fx::map_with_capacity(entries.len());
        let mut string_bytes = 0;
        for (id, entry) in entries.iter().enumerate() {
            match entry {
                DictEntry::Big(n) => {
                    if Val::inline_nat(*n).is_some() {
                        return Err(format!(
                            "dictionary entry {id} interns the inline-representable natural {n}"
                        ));
                    }
                    if bigs.insert(*n, id as u32).is_some() {
                        return Err(format!("dictionary entry {id} duplicates the natural {n}"));
                    }
                }
                DictEntry::Str(s) => {
                    string_bytes += s.len();
                    if strs.insert(Arc::clone(s), id as u32).is_some() {
                        return Err(format!("dictionary entry {id} duplicates a string"));
                    }
                }
            }
        }
        let part = Entries {
            entries,
            bigs,
            strs,
            string_bytes,
        };
        Ok(Dict {
            base: Arc::new(DictBase {
                part,
                hashes: OnceLock::new(),
            }),
            tail: Entries::default(),
        })
    }

    fn view(&self, v: Val) -> View<'_> {
        match v.as_inline_nat() {
            Some(n) => View::Nat(n),
            None => self.entry(v.id().expect("tagged")).view(),
        }
    }

    /// Decode a word back into a [`Value`].
    ///
    /// # Panics
    ///
    /// Panics if the id is not in this dictionary.
    pub fn decode(&self, v: Val) -> Value {
        match self.view(v) {
            View::Nat(n) => Value::Nat(n),
            View::Str(s) => Value::Str(s.to_string()),
        }
    }

    /// Render a word exactly as [`Value`]'s `Display` would.
    pub fn display(&self, v: Val) -> String {
        match self.view(v) {
            View::Nat(n) => n.to_string(),
            View::Str(s) => format!("\"{s}\""),
        }
    }

    /// The semantic order of two words, identical to comparing their
    /// decoded [`Value`]s.
    pub fn cmp_vals(&self, a: Val, b: Val) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        self.view(a).cmp(&self.view(b))
    }

    /// Lexicographic semantic order of two rows.
    pub fn cmp_rows(&self, a: &[Val], b: &[Val]) -> Ordering {
        for (&x, &y) in a.iter().zip(b.iter()) {
            match self.cmp_vals(x, y) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        a.len().cmp(&b.len())
    }

    /// Precompute an order-preserving integer key for every word of
    /// this dictionary: comparing keys is exactly [`Dict::cmp_vals`].
    ///
    /// Bulk merges compare the same interned strings against each other
    /// over and over, and trace-domain strings share long prefixes (a
    /// machine's whole encoding), so each comparison walks hundreds of
    /// equal bytes. Ranking the dictionary once — O(d log d) string
    /// comparisons for d entries — turns every subsequent row
    /// comparison into a `u128` compare. Worth it whenever a batch is
    /// large relative to the dictionary; [`VRel::extend_from_sorted`]
    /// decides, and bulk loaders that merge several relations against
    /// one dictionary ([`StateBuilder::finish`]) build the table once
    /// and pass it to [`VRel::extend_from_sorted_with`].
    ///
    /// [`StateBuilder::finish`]: crate::StateBuilder::finish
    pub fn sort_keys(&self) -> SortKeys {
        // Inline naturals key as their value (0 .. 2⁶³); interned big
        // naturals as their value (≥ 2⁶³, above every inline word);
        // strings as 2⁶⁴ + rank in byte order (above every natural) —
        // canonical interning makes ranks collision-free.
        let mut strs: Vec<(&str, u32)> = self
            .raw_entries()
            .enumerate()
            .filter_map(|(id, e)| match e {
                DictEntry::Str(s) => Some((&**s, id as u32)),
                DictEntry::Big(_) => None,
            })
            .collect();
        strs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut by_id = vec![0u128; self.len()];
        for (rank, &(_, id)) in strs.iter().enumerate() {
            by_id[id as usize] = (1u128 << 64) + rank as u128;
        }
        for (id, entry) in self.raw_entries().enumerate() {
            if let DictEntry::Big(n) = entry {
                by_id[id] = *n as u128;
            }
        }
        SortKeys { by_id }
    }
}

/// Per-entry semantic hashes of one [`Dict`] (see [`Dict::entry_hashes`]).
pub(crate) struct EntryHashes<'a> {
    base: &'a [u64],
    tail: Vec<u64>,
}

impl EntryHashes<'_> {
    /// The semantic hash of a word of the dictionary.
    pub(crate) fn word(&self, v: Val) -> u64 {
        let Some(id) = v.id() else {
            return hash_nat(v.raw());
        };
        match self.base.get(id) {
            Some(&h) => h,
            None => self.tail[id - self.base.len()],
        }
    }
}

/// Does ranking the dictionary pay for itself on this batch? Compares
/// the sort's comparison volume (`b log b` row compares, each walking
/// up to `arity` values) against the ranking cost (`d log d` string
/// compares for `d` dictionary entries). Shared by
/// [`VRel::extend_from_sorted`] and `StateBuilder::finish`.
pub(crate) fn batch_prefers_keys(rows: usize, arity: usize, dict_len: usize) -> bool {
    let log2 = |n: usize| (usize::BITS - n.max(2).leading_zeros()) as usize;
    dict_len > 0 && (rows * arity).saturating_mul(log2(rows)) >= dict_len * log2(dict_len)
}

/// Below this many staged rows one relation's batch merges sequentially
/// even when `StateBuilder::finish_with` has an engine: the chunk
/// fan-out and merge rounds cost more than the sort they replace.
pub(crate) const PARALLEL_SORT_MIN_ROWS: usize = 1 << 17;

/// Chunk size (rows) for [`VRel::extend_from_sorted_parallel`] when
/// driven from `StateBuilder::finish_with`.
pub(crate) const PARALLEL_SORT_CHUNK_ROWS: usize = 1 << 16;

/// An id-indexed table of order-preserving integer keys for one
/// [`Dict`] generation (see [`Dict::sort_keys`]). Stale tables must not
/// be used after the dictionary grows — debug builds catch this as an
/// out-of-bounds id.
pub struct SortKeys {
    by_id: Vec<u128>,
}

impl SortKeys {
    /// The key of a word; `key(a) < key(b)` iff `cmp_vals(a, b)` is
    /// `Less`.
    #[inline]
    pub fn key(&self, v: Val) -> u128 {
        match v.as_inline_nat() {
            Some(n) => n as u128,
            None => self.by_id[v.id().expect("tagged")],
        }
    }

    /// Lexicographic semantic order of two rows through the key table —
    /// identical to [`Dict::cmp_rows`].
    #[inline]
    pub fn cmp_rows(&self, a: &[Val], b: &[Val]) -> Ordering {
        for (&x, &y) in a.iter().zip(b.iter()) {
            if x == y {
                continue;
            }
            match self.key(x).cmp(&self.key(y)) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        a.len().cmp(&b.len())
    }
}

/// A read-only base dictionary plus an appendable overlay, for values a
/// query mentions that no stored tuple contains (literal constants,
/// singleton tuples, domain-function results). Overlay ids start at
/// `base.len()`, so base words stay valid and word equality still means
/// semantic equality across the combined id space.
#[derive(Debug)]
pub struct OverlayDict<'a> {
    base: &'a Dict,
    extra: Vec<DictEntry>,
    bigs: FxMap<u64, u32>,
    strs: FxMap<Arc<str>, u32>,
}

impl<'a> OverlayDict<'a> {
    pub fn new(base: &'a Dict) -> Self {
        OverlayDict {
            base,
            extra: Vec::new(),
            bigs: FxMap::default(),
            strs: FxMap::default(),
        }
    }

    /// The underlying state dictionary.
    pub fn base(&self) -> &'a Dict {
        self.base
    }

    /// Intern a value, preferring the base dictionary's word.
    pub fn encode(&mut self, v: &Value) -> Val {
        if let Some(val) = self.base.lookup(v) {
            return val;
        }
        match v {
            Value::Nat(n) => match self.bigs.get(n) {
                Some(&id) => Val::from_id(id as usize),
                None => {
                    let id = (self.base.len() + self.extra.len()) as u32;
                    self.extra.push(DictEntry::Big(*n));
                    self.bigs.insert(*n, id);
                    Val::from_id(id as usize)
                }
            },
            Value::Str(s) => match self.strs.get(s.as_str()) {
                Some(&id) => Val::from_id(id as usize),
                None => {
                    let id = (self.base.len() + self.extra.len()) as u32;
                    let arc: Arc<str> = Arc::from(s.as_str());
                    self.extra.push(DictEntry::Str(arc.clone()));
                    self.strs.insert(arc, id);
                    Val::from_id(id as usize)
                }
            },
        }
    }

    /// The word for a value if already interned in base or overlay.
    pub fn lookup(&self, v: &Value) -> Option<Val> {
        if let Some(val) = self.base.lookup(v) {
            return Some(val);
        }
        match v {
            Value::Nat(n) => self.bigs.get(n).map(|&id| Val::from_id(id as usize)),
            Value::Str(s) => self
                .strs
                .get(s.as_str())
                .map(|&id| Val::from_id(id as usize)),
        }
    }

    fn view(&self, v: Val) -> View<'_> {
        match v.as_inline_nat() {
            Some(n) => View::Nat(n),
            None => {
                let id = v.id().expect("tagged");
                match id.checked_sub(self.base.len()) {
                    Some(i) => self.extra[i].view(),
                    None => self.base.entry(id).view(),
                }
            }
        }
    }

    /// Decode a word from the combined id space.
    pub fn decode(&self, v: Val) -> Value {
        match self.view(v) {
            View::Nat(n) => Value::Nat(n),
            View::Str(s) => Value::Str(s.to_string()),
        }
    }

    /// The semantic order of two words of the combined id space,
    /// identical to comparing their decoded [`Value`]s.
    pub fn cmp_vals(&self, a: Val, b: Val) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        self.view(a).cmp(&self.view(b))
    }

    /// Lexicographic semantic order of two rows.
    pub fn cmp_rows(&self, a: &[Val], b: &[Val]) -> Ordering {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.cmp_vals(x, y))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| a.len().cmp(&b.len()))
    }
}

/// A thread-safe [`OverlayDict`]: encoding locks, decoding of inline
/// naturals and base-dictionary ids stays lock-free. Used by the
/// parallel slot evaluator, whose worker frames all bind words from one
/// shared id space.
#[derive(Debug)]
pub struct SharedOverlay<'a> {
    base: &'a Dict,
    inner: Mutex<OverlayDict<'a>>,
}

impl<'a> SharedOverlay<'a> {
    pub fn new(base: &'a Dict) -> Self {
        SharedOverlay {
            base,
            inner: Mutex::new(OverlayDict::new(base)),
        }
    }

    /// Intern a value (locks only when the base dictionary misses).
    pub fn encode(&self, v: &Value) -> Val {
        if let Value::Nat(n) = v {
            if let Some(val) = Val::inline_nat(*n) {
                return val;
            }
        }
        if let Some(val) = self.base.lookup(v) {
            return val;
        }
        self.inner.lock().expect("overlay lock").encode(v)
    }

    /// Decode a word from the combined id space.
    pub fn decode(&self, v: Val) -> Value {
        match v.as_inline_nat() {
            Some(n) => Value::Nat(n),
            None => {
                let id = v.id().expect("tagged");
                if id < self.base.len() {
                    self.base.decode(v)
                } else {
                    self.inner.lock().expect("overlay lock").decode(v)
                }
            }
        }
    }
}

/// Per-column statistics of a stored relation, in decoded form so the
/// optimizer can compare them against plan constants directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColStats {
    /// Number of distinct values in the column.
    pub distinct: usize,
    /// Smallest value (`None` for an empty relation).
    pub min: Option<Value>,
    /// Largest value (`None` for an empty relation).
    pub max: Option<Value>,
}

/// A columnar relation: `rows × arity` words in one flat vector, kept
/// sorted in semantic order without duplicates. Row `i` occupies
/// `data[i*arity .. (i+1)*arity]`.
#[derive(Clone, Debug)]
pub struct VRel {
    arity: usize,
    rows: usize,
    data: Vec<Val>,
    stats: OnceLock<Vec<ColStats>>,
    /// Debug-only bulk-misuse detector: consecutive [`VRel::insert`]
    /// calls since the last batch operation. See [`VRel::insert`].
    #[cfg(debug_assertions)]
    insert_streak: u32,
}

/// Debug builds trip an assertion when this many consecutive single-row
/// [`VRel::insert`] calls hit one relation with no batch call between
/// them — a loop that long is a bulk load on the wrong path.
#[cfg(debug_assertions)]
const INSERT_STREAK_LIMIT: u32 = 100_000;

impl VRel {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        VRel {
            arity,
            rows: 0,
            data: Vec::new(),
            stats: OnceLock::new(),
            #[cfg(debug_assertions)]
            insert_streak: 0,
        }
    }

    /// Build a relation directly from a flat, arity-strided word batch
    /// (`rows × arity` words, already encoded against `dict`). The batch
    /// may be unsorted and may contain duplicates; the result is sorted
    /// in semantic order and duplicate-free, exactly as if every row had
    /// been [`VRel::insert`]ed.
    pub fn from_rows(arity: usize, batch: Vec<Val>, dict: &Dict) -> VRel {
        let mut rel = VRel::new(arity);
        rel.extend_from_sorted(batch, dict);
        rel
    }

    /// Build a relation from a flat batch the caller **guarantees** is
    /// already strictly sorted in semantic order with no duplicates —
    /// e.g. rows streamed out of another [`VRel`], or snapshot-ordered
    /// trace batches whose producer emits canonical order. The batch is
    /// adopted as the store directly: no sort, no probe, no merge.
    /// Debug builds assert the precondition row by row.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is zero or `data.len()` is not a multiple of
    /// the arity; debug builds also panic when the batch is not
    /// strictly sorted under `dict`'s semantic order.
    pub fn from_sorted_unchecked(arity: usize, data: Vec<Val>, dict: &Dict) -> VRel {
        assert!(
            arity > 0 && data.len().is_multiple_of(arity),
            "batch of {} words is not a whole number of arity-{arity} rows",
            data.len()
        );
        let rows = data.len() / arity;
        debug_assert!(
            (1..rows).all(|i| {
                dict.cmp_rows(
                    &data[(i - 1) * arity..i * arity],
                    &data[i * arity..(i + 1) * arity],
                ) == Ordering::Less
            }),
            "from_sorted_unchecked batch is not strictly sorted"
        );
        let _ = dict;
        VRel {
            arity,
            rows,
            data,
            stats: OnceLock::new(),
            #[cfg(debug_assertions)]
            insert_streak: 0,
        }
    }

    /// Assemble a relation from parts the snapshot reader has already
    /// bounds-checked: `rows × arity` words in strict semantic order
    /// plus the precomputed per-column statistics, adopted with the
    /// stats cache pre-populated (a loaded snapshot never recomputes
    /// stats). Debug builds re-assert the shape and sortedness; release
    /// builds trust the reader's checksums.
    pub(crate) fn assemble(
        arity: usize,
        rows: usize,
        data: Vec<Val>,
        stats: Vec<ColStats>,
        dict: &Dict,
    ) -> VRel {
        debug_assert_eq!(data.len(), rows * arity);
        debug_assert_eq!(stats.len(), arity);
        debug_assert!(
            arity == 0
                || (1..rows).all(|i| {
                    dict.cmp_rows(
                        &data[(i - 1) * arity..i * arity],
                        &data[i * arity..(i + 1) * arity],
                    ) == Ordering::Less
                }),
            "assembled column is not strictly sorted"
        );
        let _ = dict;
        let cell = OnceLock::new();
        cell.set(stats).expect("fresh cell");
        VRel {
            arity,
            rows,
            data,
            stats: cell,
            #[cfg(debug_assertions)]
            insert_streak: 0,
        }
    }

    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of stored tuples.
    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The flat word store.
    pub fn data(&self) -> &[Val] {
        &self.data
    }

    /// Row `i` as a word slice.
    pub fn row(&self, i: usize) -> &[Val] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterate rows in semantic sorted order.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[Val]> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// Rows `start .. start + len` (clamped to the stored row count) as
    /// one flat, arity-strided word slice — a *morsel* of the relation.
    /// Morsel boundaries are always aligned to whole rows, so a worker
    /// handed a morsel never sees a torn tuple.
    pub fn morsel(&self, start: usize, len: usize) -> &[Val] {
        let start = start.min(self.rows);
        let end = start.saturating_add(len).min(self.rows);
        &self.data[start * self.arity..end * self.arity]
    }

    /// Partition the store into fixed-size morsels of `morsel_rows`
    /// rows (the last may be short). An empty relation yields no
    /// morsels; the concatenation of all morsels is exactly
    /// [`VRel::data`].
    ///
    /// # Panics
    ///
    /// Panics if `morsel_rows` is zero.
    pub fn morsels(&self, morsel_rows: usize) -> impl Iterator<Item = &[Val]> + '_ {
        assert!(morsel_rows > 0, "morsel size must be positive");
        (0..self.rows)
            .step_by(morsel_rows)
            .map(move |start| self.morsel(start, morsel_rows))
    }

    /// The insertion point of `row` in semantic order, and whether the
    /// row is already present.
    fn search(&self, row: &[Val], dict: &Dict) -> (usize, bool) {
        let mut lo = 0usize;
        let mut hi = self.rows;
        while lo < hi {
            let mid = (lo + hi) / 2;
            match dict.cmp_rows(self.row(mid), row) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return (mid, true),
            }
        }
        (lo, false)
    }

    /// Insert a row (already encoded against `dict`), keeping the store
    /// sorted and duplicate-free. Returns whether the row was new.
    ///
    /// This is the **single-row** path: a binary search plus a `splice`,
    /// O(rows) worst case per call because the tail of the flat store
    /// shifts to make room. Point updates and small states are fine;
    /// driving it in a bulk-load loop is quadratic — use
    /// [`VRel::extend_from_sorted`] (or, at the [`State`] level,
    /// `StateBuilder` / `State::extend_bulk`) for batches. Debug builds
    /// assert after `INSERT_STREAK_LIMIT` (100 000) consecutive
    /// single-row inserts with no intervening batch call.
    ///
    /// [`State`]: crate::State
    pub fn insert(&mut self, row: &[Val], dict: &Dict) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        #[cfg(debug_assertions)]
        {
            self.insert_streak += 1;
            debug_assert!(
                self.insert_streak < INSERT_STREAK_LIMIT,
                "{} consecutive single-row VRel::insert calls — this is a \
                 bulk load; use extend_from_sorted / StateBuilder instead",
                self.insert_streak
            );
        }
        let (pos, found) = self.search(row, dict);
        if found {
            return false;
        }
        let at = pos * self.arity;
        self.data.splice(at..at, row.iter().copied());
        self.rows += 1;
        self.stats.take();
        true
    }

    /// Append a batch of rows in one pass, keeping the store sorted and
    /// duplicate-free. `batch` is flat and arity-strided (`b × arity`
    /// words encoded against `dict`), in **any** order, duplicates
    /// allowed — the name records the *postcondition* (the store stays
    /// sorted), not a precondition on the input. Returns the number of
    /// rows that were new.
    ///
    /// Cost: O(b log b) comparisons to sort the batch (adaptive — an
    /// already-sorted batch sorts in O(b)), O(b log(rows / b))
    /// comparisons to place it, and one copy of the store, against
    /// O(b × rows) for the equivalent [`VRel::insert`] loop. Cached
    /// column statistics are carried over (see `VRel::merge_batch`).
    ///
    /// # Panics
    ///
    /// Panics if `batch.len()` is not a multiple of the arity.
    pub fn extend_from_sorted(&mut self, batch: Vec<Val>, dict: &Dict) -> usize {
        let merged = self.merge_batch(batch, dict, dict.len());
        self.adopt(merged)
    }

    /// This relation with `batch` merged in, built in one pass from the
    /// (possibly shared) store — or `None` when every batch row is
    /// already stored. Words with ids at or above `fresh_from` must be
    /// entries the batch's interning added to `dict`.
    ///
    /// When this relation's statistics are cached, the result's are
    /// derived from them instead of being cleared: min and max from the
    /// added rows, `distinct` exactly — a word interned for this batch
    /// is new to every column, the leading column's neighbours in the
    /// sort order settle it there, and any other column settles its
    /// older words with one word-equality pass over the stored column.
    ///
    /// # Panics
    ///
    /// Panics if `batch.len()` is not a multiple of the arity.
    pub(crate) fn merge_batch(
        &self,
        batch: Vec<Val>,
        dict: &Dict,
        fresh_from: usize,
    ) -> Option<VRel> {
        let b = self.check_batch(&batch)?;
        let arity = self.arity;
        let by_dict = |x: &[Val], y: &[Val]| dict.cmp_rows(x, y);
        // Sortedness probe, run *before* the rank-key decision: a batch
        // from an already-sorted producer (snapshot-ordered traces, rows
        // streamed out of another `VRel`) skips both the O(b log b)
        // permutation sort and the O(d log d) dictionary ranking, and an
        // unsorted batch fails the probe within a few comparisons.
        let (merged, added_at) = if Self::batch_is_sorted(&batch, b, arity, by_dict) {
            self.merge_ordered(batch, None, by_dict)?
        } else if batch_prefers_keys(b, arity, dict.len()) {
            let keys = dict.sort_keys();
            let by_keys = |x: &[Val], y: &[Val]| keys.cmp_rows(x, y);
            let order = Self::sort_order(&batch, b, arity, by_keys);
            self.merge_ordered(batch, Some(&order), by_keys)?
        } else {
            let order = Self::sort_order(&batch, b, arity, by_dict);
            self.merge_ordered(batch, Some(&order), by_dict)?
        };
        if let Some(stats) = self.stats.get() {
            if let Some(carried) = merged.carried_stats(stats, self, &added_at, dict, fresh_from) {
                merged.stats.set(carried).expect("fresh cell");
            }
        }
        Some(merged)
    }

    /// [`VRel::extend_from_sorted`] with a prebuilt key table, for bulk
    /// loaders that merge several relations against one dictionary and
    /// want to pay the [`Dict::sort_keys`] ranking once. `keys` must
    /// come from the dictionary the batch (and this store) was encoded
    /// against, built after the last interning.
    pub fn extend_from_sorted_with(&mut self, batch: Vec<Val>, keys: &SortKeys) -> usize {
        let cmp = |x: &[Val], y: &[Val]| keys.cmp_rows(x, y);
        let merged = self.check_batch(&batch).and_then(|b| {
            if Self::batch_is_sorted(&batch, b, self.arity, cmp) {
                self.merge_ordered(batch, None, cmp)
            } else {
                let order = Self::sort_order(&batch, b, self.arity, cmp);
                self.merge_ordered(batch, Some(&order), cmp)
            }
        });
        self.adopt(merged.map(|(rel, _)| rel))
    }

    /// [`VRel::extend_from_sorted_with`] with the batch sort fanned out
    /// on `engine`'s worker pool: chunks of `chunk_rows` rows are
    /// stable-sorted concurrently, then merged pairwise in parallel
    /// rounds, and the resulting permutation feeds the same single
    /// merge-with-store pass as the sequential path.
    ///
    /// The result is **identical** to the sequential entry points at
    /// any thread count and chunk size: chunk sorts are stable, chunks
    /// partition the batch in index order, and the pairwise merge
    /// breaks ties toward the left (earlier-index) run — so the final
    /// permutation equals the one stable sort the sequential path
    /// computes, and equal rows are word-identical anyway (interning is
    /// canonical), making dedupe order-independent.
    ///
    /// One oversized relation is exactly the case per-relation fan-out
    /// (`StateBuilder::finish_with`) cannot help; this is the
    /// intra-relation parallelism for it.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_rows` is zero or the batch is ragged.
    pub fn extend_from_sorted_parallel(
        &mut self,
        batch: Vec<Val>,
        keys: &SortKeys,
        engine: &fq_engine::Engine,
        chunk_rows: usize,
    ) -> usize {
        assert!(chunk_rows > 0, "chunk size must be positive");
        let Some(b) = self.check_batch(&batch) else {
            return self.adopt(None);
        };
        let arity = self.arity;
        let cmp = |x: &[Val], y: &[Val]| keys.cmp_rows(x, y);
        if Self::batch_is_sorted(&batch, b, arity, cmp) {
            let merged = self.merge_ordered(batch, None, cmp);
            return self.adopt(merged.map(|(rel, _)| rel));
        }
        let row_of = |i: u32| &batch[i as usize * arity..(i as usize + 1) * arity];
        // Sorted runs over disjoint index ranges, in index order.
        let ranges: Vec<(u32, u32)> = (0..b)
            .step_by(chunk_rows)
            .map(|start| (start as u32, start.saturating_add(chunk_rows).min(b) as u32))
            .collect();
        let mut runs: Vec<Vec<u32>> = engine.parallel_map(&ranges, |&(lo, hi)| {
            let mut run: Vec<u32> = (lo..hi).collect();
            // Stable, matching `sort_order` — equal rows keep index
            // order within a run.
            run.sort_by(|&i, &j| cmp(row_of(i), row_of(j)));
            run
        });
        // Pairwise merge rounds; ties go to the left run, whose indices
        // all precede the right run's, preserving global stability.
        while runs.len() > 1 {
            let mut pairs = Vec::with_capacity(runs.len().div_ceil(2));
            let mut it = runs.into_iter();
            while let Some(left) = it.next() {
                pairs.push((left, it.next()));
            }
            runs = engine.parallel_map_owned(pairs, |(left, right)| {
                let Some(right) = right else {
                    return left;
                };
                let mut out = Vec::with_capacity(left.len() + right.len());
                let (mut i, mut j) = (0usize, 0usize);
                while i < left.len() && j < right.len() {
                    if cmp(row_of(left[i]), row_of(right[j])) != Ordering::Greater {
                        out.push(left[i]);
                        i += 1;
                    } else {
                        out.push(right[j]);
                        j += 1;
                    }
                }
                out.extend_from_slice(&left[i..]);
                out.extend_from_slice(&right[j..]);
                out
            });
        }
        let order = runs.pop().expect("b > 0 yields at least one run");
        let merged = self.merge_ordered(batch, Some(&order), cmp);
        self.adopt(merged.map(|(rel, _)| rel))
    }

    /// Replace this relation by a merge result (if any), resetting the
    /// single-row streak guard. Returns the number of rows added.
    fn adopt(&mut self, merged: Option<VRel>) -> usize {
        #[cfg(debug_assertions)]
        {
            self.insert_streak = 0;
        }
        let Some(next) = merged else {
            return 0;
        };
        let added = next.rows - self.rows;
        *self = next;
        added
    }

    /// Is the batch already strictly sorted (no duplicates) under `cmp`?
    /// Early-exits at the first out-of-order pair, so unsorted batches
    /// pay almost nothing for the probe.
    fn batch_is_sorted<F>(batch: &[Val], b: usize, arity: usize, cmp: F) -> bool
    where
        F: Fn(&[Val], &[Val]) -> Ordering,
    {
        (1..b).all(|i| {
            cmp(
                &batch[(i - 1) * arity..i * arity],
                &batch[i * arity..(i + 1) * arity],
            ) == Ordering::Less
        })
    }

    /// Shared batch validation: filters out empty batches and panics on
    /// ragged input. Returns the batch row count.
    fn check_batch(&self, batch: &[Val]) -> Option<usize> {
        if batch.is_empty() {
            return None;
        }
        assert!(
            self.arity > 0 && batch.len().is_multiple_of(self.arity),
            "batch of {} words is not a whole number of arity-{} rows",
            batch.len(),
            self.arity
        );
        Some(batch.len() / self.arity)
    }

    /// The stable sorted order of the batch's rows, as a row-index
    /// permutation — sorting indices swaps one `u32` per move, not
    /// `arity` words.
    fn sort_order<F>(batch: &[Val], b: usize, arity: usize, cmp: F) -> Vec<u32>
    where
        F: Fn(&[Val], &[Val]) -> Ordering,
    {
        let mut order: Vec<u32> = (0..b as u32).collect();
        order.sort_by(|&i, &j| {
            cmp(
                &batch[i as usize * arity..(i as usize + 1) * arity],
                &batch[j as usize * arity..(j as usize + 1) * arity],
            )
        });
        order
    }

    /// The first stored row at or after `from` that is not below `row`,
    /// and whether it equals `row`: an exponential probe from `from`,
    /// then a binary search of the last gap — O(log distance)
    /// comparisons.
    fn gallop<F>(&self, from: usize, row: &[Val], cmp: &F) -> (usize, bool)
    where
        F: Fn(&[Val], &[Val]) -> Ordering,
    {
        let (mut lo, mut hi, mut step) = (from, from, 1usize);
        while hi < self.rows && cmp(self.row(hi), row) == Ordering::Less {
            lo = hi + 1;
            hi = hi.saturating_add(step);
            step = step.saturating_mul(2);
        }
        hi = hi.min(self.rows);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if cmp(self.row(mid), row) == Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (
            lo,
            lo < self.rows && cmp(self.row(lo), row) == Ordering::Equal,
        )
    }

    /// One merge of a batch whose sorted order is `order` (`None`: the
    /// batch is strictly sorted already), deduping the batch against
    /// itself and against the store. Returns the merged relation (with
    /// statistics uncomputed) and the merged row index of every added
    /// row, ascending — or `None` when nothing was added.
    fn merge_ordered<F>(
        &self,
        batch: Vec<Val>,
        order: Option<&[u32]>,
        cmp: F,
    ) -> Option<(VRel, Vec<usize>)>
    where
        F: Fn(&[Val], &[Val]) -> Ordering,
    {
        let arity = self.arity;
        let b = batch.len() / arity;
        let fresh = |data: Vec<Val>| VRel {
            arity,
            rows: data.len() / arity,
            data,
            stats: OnceLock::new(),
            #[cfg(debug_assertions)]
            insert_streak: 0,
        };
        if self.rows == 0 && order.is_none() {
            // A sorted batch into an empty store *is* the new store.
            return Some((fresh(batch), (0..b).collect()));
        }
        let row_of = |i: usize| &batch[i * arity..(i + 1) * arity];
        // Each new row's insertion point among the stored rows, in
        // sorted order; rows equal to their sorted predecessor or to a
        // stored row are skipped.
        let mut inserts: Vec<(usize, usize)> = Vec::new();
        let mut from = 0usize;
        let mut prev: Option<usize> = None;
        for k in 0..b {
            let i = order.map_or(k, |o| o[k] as usize);
            if prev.is_some_and(|p| cmp(row_of(p), row_of(i)) == Ordering::Equal) {
                continue;
            }
            prev = Some(i);
            let (at, found) = self.gallop(from, row_of(i), &cmp);
            from = at;
            if !found {
                inserts.push((at, i));
            }
        }
        if inserts.is_empty() {
            return None;
        }
        let mut data = Vec::with_capacity(self.data.len() + inserts.len() * arity);
        let mut added_at = Vec::with_capacity(inserts.len());
        let mut copied = 0usize;
        for &(at, i) in &inserts {
            data.extend_from_slice(&self.data[copied * arity..at * arity]);
            added_at.push(data.len() / arity);
            data.extend_from_slice(row_of(i));
            copied = at;
        }
        data.extend_from_slice(&self.data[copied * arity..]);
        Some((fresh(data), added_at))
    }

    /// Membership by binary search over words.
    pub fn contains(&self, row: &[Val], dict: &Dict) -> bool {
        row.len() == self.arity && self.search(row, dict).1
    }

    /// Decode every row, in semantic sorted order — exactly the sequence
    /// the legacy `BTreeSet<Tuple>` iteration produced.
    pub fn decoded<'a>(&'a self, dict: &'a Dict) -> impl Iterator<Item = Tuple> + 'a {
        self.rows_iter()
            .map(move |row| row.iter().map(|&v| dict.decode(v)).collect())
    }

    /// The words of column `c`, in row order.
    fn column(&self, c: usize) -> impl Iterator<Item = Val> + '_ {
        self.data.iter().skip(c).step_by(self.arity).copied()
    }

    /// Per-column statistics, computed once and cached until the next
    /// insertion (batch merges carry them over instead).
    pub fn stats(&self, dict: &Dict) -> &[ColStats] {
        self.stats.get_or_init(|| {
            (0..self.arity)
                .map(|c| self.column_stats(c, dict))
                .collect()
        })
    }

    fn column_stats(&self, c: usize, dict: &Dict) -> ColStats {
        if self.rows == 0 {
            return ColStats {
                distinct: 0,
                min: None,
                max: None,
            };
        }
        let (distinct, min, max) = if c == 0 {
            // Rows are sorted by the leading column first: its equal
            // values are adjacent and its extremes are the end rows.
            let mut distinct = 1;
            let mut last = self.data[0];
            for v in self.column(0) {
                if v != last {
                    distinct += 1;
                    last = v;
                }
            }
            (distinct, self.data[0], self.row(self.rows - 1)[0])
        } else {
            let mut seen = crate::fx::FxSet::default();
            seen.extend(self.column(c));
            let mut words = seen.iter().copied();
            let first = words.next().expect("a non-empty column");
            let by_value = |a: &Val, b: &Val| dict.cmp_vals(*a, *b);
            let (min, max) = words.fold((first, first), |(lo, hi), v| {
                (
                    std::cmp::min_by(lo, v, by_value),
                    std::cmp::max_by(hi, v, by_value),
                )
            });
            (seen.len(), min, max)
        };
        ColStats {
            distinct,
            min: Some(dict.decode(min)),
            max: Some(dict.decode(max)),
        }
    }

    /// The statistics of this merge result, derived from `old`'s (the
    /// relation it was merged from, with statistics `prev`) and the
    /// rows at `added_at`. `None` if a cached bound is not in `dict`.
    fn carried_stats(
        &self,
        prev: &[ColStats],
        old: &VRel,
        added_at: &[usize],
        dict: &Dict,
        fresh_from: usize,
    ) -> Option<Vec<ColStats>> {
        let at = |r: usize, c: usize| self.data[r * self.arity + c];
        let mut out = Vec::with_capacity(self.arity);
        for (c, prev) in prev.iter().enumerate() {
            if c == 0 {
                // An added leading value is stored already exactly when
                // a stored row sits next to its run of added rows with
                // the same value: the sort makes equal values adjacent.
                let mut new = 0;
                let mut k = 0;
                while k < added_at.len() {
                    let (p, v) = (added_at[k], at(added_at[k], 0));
                    let mut end = k + 1;
                    while end < added_at.len()
                        && added_at[end] == p + (end - k)
                        && at(added_at[end], 0) == v
                    {
                        end += 1;
                    }
                    let next = p + (end - k);
                    let stored =
                        (p > 0 && at(p - 1, 0) == v) || (next < self.rows && at(next, 0) == v);
                    new += usize::from(!stored);
                    k = end;
                }
                out.push(ColStats {
                    distinct: prev.distinct + new,
                    min: Some(dict.decode(at(0, 0))),
                    max: Some(dict.decode(at(self.rows - 1, 0))),
                });
                continue;
            }
            let word = |bound: &Option<Value>| match bound {
                Some(v) => dict.lookup(v).map(Some),
                None => Some(None),
            };
            let (mut lo, mut hi) = (word(&prev.min)?, word(&prev.max)?);
            let mut fresh = crate::fx::FxSet::default();
            let mut older = crate::fx::FxSet::default();
            for &p in added_at {
                let v = at(p, c);
                if v.id().is_some_and(|id| id >= fresh_from) {
                    fresh.insert(v);
                } else {
                    older.insert(v);
                }
                if lo.is_none_or(|m| dict.cmp_vals(v, m).is_lt()) {
                    lo = Some(v);
                }
                if hi.is_none_or(|m| dict.cmp_vals(v, m).is_gt()) {
                    hi = Some(v);
                }
            }
            // A word older than the batch may be stored in this column
            // already; one word-equality pass over it settles which.
            if !older.is_empty() {
                for v in old.column(c) {
                    if older.remove(&v) && older.is_empty() {
                        break;
                    }
                }
            }
            out.push(ColStats {
                distinct: prev.distinct + fresh.len() + older.len(),
                min: lo.map(|v| dict.decode(v)),
                max: hi.map(|v| dict.decode(v)),
            });
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_interned_words() {
        let mut d = Dict::default();
        let small = d.encode(&Value::Nat(42));
        assert_eq!(small.as_inline_nat(), Some(42));
        assert_eq!(d.len(), 0, "small naturals never intern");
        let big = d.encode(&Value::Nat(u64::MAX));
        assert_eq!(big.as_inline_nat(), None);
        let s = d.encode(&Value::Str("1&".into()));
        assert_eq!(d.len(), 2);
        assert_eq!(d.strings(), 1);
        assert_eq!(d.decode(big), Value::Nat(u64::MAX));
        assert_eq!(d.decode(s), Value::Str("1&".into()));
    }

    #[test]
    fn interning_is_canonical() {
        let mut d = Dict::default();
        let a = d.encode(&Value::Str("x".into()));
        let b = d.encode(&Value::Str("x".into()));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
        assert_eq!(d.lookup(&Value::Str("x".into())), Some(a));
        assert_eq!(d.lookup(&Value::Str("y".into())), None);
    }

    #[test]
    fn semantic_order_matches_value_order() {
        let mut d = Dict::default();
        let values = [
            Value::Nat(0),
            Value::Nat(7),
            Value::Nat(u64::MAX),
            Value::Str(String::new()),
            Value::Str("a".into()),
            Value::Str("b".into()),
        ];
        // Encode in reverse so raw id order disagrees with semantic order.
        let vals: Vec<Val> = values.iter().rev().map(|v| d.encode(v)).collect();
        let vals: Vec<Val> = vals.into_iter().rev().collect();
        for (i, (va, a)) in vals.iter().zip(&values).enumerate() {
            for (vb, b) in vals.iter().zip(&values).skip(i) {
                assert_eq!(d.cmp_vals(*va, *vb), a.cmp(b), "{a} vs {b}");
                assert_eq!(d.display(*va), a.to_string());
            }
        }
    }

    #[test]
    fn overlay_extends_without_touching_base() {
        let mut d = Dict::default();
        let base_word = d.encode(&Value::Str("base".into()));
        let mut o = OverlayDict::new(&d);
        assert_eq!(o.encode(&Value::Str("base".into())), base_word);
        let extra = o.encode(&Value::Str("extra".into()));
        assert_eq!(o.encode(&Value::Str("extra".into())), extra);
        assert!(extra.id().unwrap() >= d.len());
        assert_eq!(o.decode(extra), Value::Str("extra".into()));
        assert_eq!(o.decode(base_word), Value::Str("base".into()));
        assert_eq!(d.len(), 1, "base untouched");
    }

    #[test]
    fn shared_overlay_round_trips() {
        let mut d = Dict::default();
        d.encode(&Value::Str("base".into()));
        let o = SharedOverlay::new(&d);
        for v in [
            Value::Nat(3),
            Value::Nat(u64::MAX),
            Value::Str("base".into()),
            Value::Str("fresh".into()),
        ] {
            let w = o.encode(&v);
            assert_eq!(o.encode(&v), w, "canonical");
            assert_eq!(o.decode(w), v);
        }
    }

    #[test]
    fn batch_encode_matches_per_value_encode() {
        let tuples: Vec<Vec<Value>> = vec![
            vec![Value::Str("b".into()), Value::Nat(1)],
            vec![Value::Str("a".into()), Value::Nat(u64::MAX)],
            vec![Value::Str("b".into()), Value::Nat(2)],
        ];
        let mut per_value = Dict::default();
        let expected: Vec<Val> = tuples
            .iter()
            .flat_map(|t| t.iter().map(|v| per_value.encode(v)).collect::<Vec<_>>())
            .collect();
        let mut batched = Dict::default();
        let mut words = Vec::new();
        batched.encode_rows(tuples.iter().map(|t| t.as_slice()), &mut words);
        assert_eq!(words, expected, "ids assigned in the same first-seen order");
        assert_eq!(batched.len(), per_value.len());
        assert_eq!(batched.strings(), per_value.strings());
    }

    #[test]
    fn extend_from_sorted_equals_insert_loop() {
        let mut d = Dict::default();
        let rows: Vec<[Value; 2]> = vec![
            [Value::Nat(9), Value::Str("z".into())],
            [Value::Nat(1), Value::Str("a".into())],
            [Value::Nat(9), Value::Str("z".into())], // in-batch duplicate
            [Value::Nat(u64::MAX), Value::Str("".into())],
            [Value::Nat(1), Value::Str("a".into())], // again
            [Value::Nat(0), Value::Nat(0)],
        ];
        let mut by_insert = VRel::new(2);
        let mut flat = Vec::new();
        for row in &rows {
            let enc: Vec<Val> = row.iter().map(|v| d.encode(v)).collect();
            by_insert.insert(&enc, &d);
            flat.extend_from_slice(&enc);
        }
        let by_batch = VRel::from_rows(2, flat.clone(), &d);
        assert_eq!(by_batch.rows(), by_insert.rows());
        assert_eq!(by_batch.data(), by_insert.data());
        assert_eq!(by_batch.stats(&d), by_insert.stats(&d));
        // Merging into a non-empty store, including cross-batch dups.
        let mut merged = VRel::new(2);
        let head: Vec<Val> = flat[..4].to_vec();
        merged.extend_from_sorted(head, &d);
        let added = merged.extend_from_sorted(flat.clone(), &d);
        assert_eq!(merged.data(), by_insert.data());
        assert_eq!(added, by_insert.rows() - 2);
        // The prebuilt rank-key path merges to the identical store.
        let keys = d.sort_keys();
        let mut by_keys = VRel::new(2);
        by_keys.extend_from_sorted_with(flat, &keys);
        assert_eq!(by_keys.data(), by_insert.data());
        assert_eq!(by_keys.stats(&d), by_insert.stats(&d));
    }

    /// The rank-key heuristic must flip between the direct and keyed
    /// comparators without changing results: drive a batch through both
    /// entry points on a dictionary big enough that
    /// `extend_from_sorted` picks each path at one of the two sizes.
    #[test]
    fn keyed_and_direct_merges_agree_across_the_heuristic() {
        let mut d = Dict::default();
        // Interned strings with long shared prefixes plus boundary nats.
        let values: Vec<Value> = (0..300)
            .map(|i| match i % 3 {
                0 => Value::Str(format!("machine#shared-prefix#{:03}", i / 3)),
                1 => Value::Nat((1 << 63) + i as u64),
                _ => Value::Nat(i as u64),
            })
            .collect();
        let words: Vec<Val> = values.iter().map(|v| d.encode(v)).collect();
        for (small, large) in [(4usize, 280usize), (280, 4)] {
            let batch = |n: usize| -> Vec<Val> {
                (0..n)
                    .flat_map(|i| [words[(i * 7) % words.len()], words[(i * 13) % words.len()]])
                    .collect()
            };
            let (sm, lg) = (batch(small), batch(large));
            assert_ne!(
                batch_prefers_keys(small, 2, d.len()),
                batch_prefers_keys(large, 2, d.len()),
                "sizes must straddle the heuristic"
            );
            let mut auto = VRel::new(2);
            auto.extend_from_sorted(sm.clone(), &d);
            auto.extend_from_sorted(lg.clone(), &d);
            let keys = d.sort_keys();
            let mut keyed = VRel::new(2);
            keyed.extend_from_sorted_with(sm, &keys);
            keyed.extend_from_sorted_with(lg, &keys);
            assert_eq!(auto.data(), keyed.data());
            assert_eq!(auto.rows(), keyed.rows());
        }
    }

    // Parallel workers share `&VRel` / `&Dict` / `&SortKeys` across
    // scoped threads; keep them `Sync` by construction.
    const _: fn() = || {
        fn assert_sync<T: Sync>() {}
        assert_sync::<VRel>();
        assert_sync::<Dict>();
        assert_sync::<SortKeys>();
    };

    #[test]
    fn morsels_tile_the_store_on_row_boundaries() {
        let mut d = Dict::default();
        let mut r = VRel::new(3);
        let mut batch = Vec::new();
        for i in 0..10u64 {
            for v in [
                Value::Nat(i),
                Value::Str(format!("m{i}")),
                Value::Nat(i + 1),
            ] {
                batch.push(d.encode(&v));
            }
        }
        r.extend_from_sorted(batch, &d);
        assert_eq!(r.rows(), 10);
        for morsel_rows in [1, 3, 4, 5, 10, 64] {
            let parts: Vec<&[Val]> = r.morsels(morsel_rows).collect();
            assert_eq!(parts.len(), r.rows().div_ceil(morsel_rows));
            assert!(parts.iter().all(|m| m.len().is_multiple_of(3)));
            let glued: Vec<Val> = parts.concat();
            assert_eq!(glued, r.data(), "morsels of {morsel_rows} rows");
        }
        assert!(VRel::new(2).morsels(4).next().is_none());
        assert_eq!(r.morsel(8, 100), &r.data()[8 * 3..]);
        assert_eq!(r.morsel(99, 4), &[] as &[Val]);
    }

    #[test]
    fn from_sorted_unchecked_adopts_the_batch() {
        let mut d = Dict::default();
        let mut flat = Vec::new();
        for i in 0..6u64 {
            flat.push(d.encode(&Value::Nat(i)));
            flat.push(d.encode(&Value::Str(format!("s{i}"))));
        }
        let by_batch = VRel::from_rows(2, flat.clone(), &d);
        let unchecked = VRel::from_sorted_unchecked(2, by_batch.data().to_vec(), &d);
        assert_eq!(unchecked.rows(), by_batch.rows());
        assert_eq!(unchecked.data(), by_batch.data());
        assert_eq!(unchecked.stats(&d), by_batch.stats(&d));
    }

    #[test]
    #[should_panic(expected = "not strictly sorted")]
    #[cfg(debug_assertions)]
    fn from_sorted_unchecked_asserts_sortedness_in_debug() {
        let mut d = Dict::default();
        let hi = d.encode(&Value::Str("z".into()));
        let lo = d.encode(&Value::Str("a".into()));
        VRel::from_sorted_unchecked(1, vec![hi, lo], &d);
    }

    #[test]
    fn presorted_batches_merge_identically_to_unsorted_ones() {
        let mut d = Dict::default();
        // Strictly sorted batch (semantic order: nats then strings).
        let sorted: Vec<Val> = (0..40u64)
            .map(|i| {
                if i < 20 {
                    d.encode(&Value::Nat(i))
                } else {
                    d.encode(&Value::Str(format!("s{i:02}")))
                }
            })
            .collect();
        let mut shuffled: Vec<Val> = sorted.clone();
        shuffled.reverse();
        // Into an empty store (probe adopts the batch wholesale)…
        let mut a = VRel::new(1);
        assert_eq!(a.extend_from_sorted(sorted.clone(), &d), 40);
        let mut b = VRel::new(1);
        b.extend_from_sorted(shuffled.clone(), &d);
        assert_eq!(a.data(), b.data());
        // …and merging a sorted batch into a non-empty store.
        let tail: Vec<Val> = (40..60u64).map(|i| d.encode(&Value::Nat(i))).collect();
        let mut c = VRel::new(1);
        c.extend_from_sorted(tail.clone(), &d);
        assert_eq!(c.extend_from_sorted(sorted.clone(), &d), 40);
        let mut all = shuffled;
        all.extend(tail);
        let whole = VRel::from_rows(1, all, &d);
        assert_eq!(c.data(), whole.data());
        // The keyed entry point probes too.
        let keys = d.sort_keys();
        let mut k = VRel::new(1);
        assert_eq!(k.extend_from_sorted_with(sorted, &keys), 40);
        assert_eq!(k.rows(), 40);
    }

    #[test]
    fn parallel_batch_sort_equals_sequential_merge() {
        use fq_engine::{Engine, EngineConfig};
        let mut d = Dict::default();
        // Unsorted, duplicate-heavy, string/nat mixed batch.
        let flat: Vec<Val> = (0..500u64)
            .flat_map(|i| {
                [
                    d.encode(&Value::Str(format!("run#{}", (i * 37) % 90))),
                    d.encode(&Value::Nat((i * 13) % 47)),
                ]
            })
            .collect();
        let keys = d.sort_keys();
        let mut sequential = VRel::new(2);
        let seq_added = sequential.extend_from_sorted_with(flat.clone(), &keys);
        // Pre-seed a store so the merge-with-store leg is exercised too.
        let seed: Vec<Val> = flat[..40].to_vec();
        for threads in [1, 3] {
            let engine = Engine::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            });
            for chunk_rows in [1, 7, 64, 10_000] {
                let mut parallel = VRel::new(2);
                let added =
                    parallel.extend_from_sorted_parallel(flat.clone(), &keys, &engine, chunk_rows);
                assert_eq!(
                    added, seq_added,
                    "{threads} threads, chunks of {chunk_rows}"
                );
                assert_eq!(parallel.data(), sequential.data());
                let mut seeded_seq = VRel::new(2);
                seeded_seq.extend_from_sorted_with(seed.clone(), &keys);
                seeded_seq.extend_from_sorted_with(flat.clone(), &keys);
                let mut seeded_par = VRel::new(2);
                seeded_par.extend_from_sorted_with(seed.clone(), &keys);
                seeded_par.extend_from_sorted_parallel(flat.clone(), &keys, &engine, chunk_rows);
                assert_eq!(seeded_par.data(), seeded_seq.data());
            }
            // Presorted batches take the probe shortcut unchanged.
            let mut presorted = VRel::new(2);
            assert_eq!(
                presorted.extend_from_sorted_parallel(
                    sequential.data().to_vec(),
                    &keys,
                    &engine,
                    8
                ),
                sequential.rows()
            );
            assert_eq!(presorted.data(), sequential.data());
        }
    }

    #[test]
    fn empty_and_all_duplicate_batches_are_noops() {
        let mut d = Dict::default();
        let row: Vec<Val> = [Value::Nat(1), Value::Nat(2)]
            .iter()
            .map(|v| d.encode(v))
            .collect();
        let mut r = VRel::new(2);
        r.insert(&row, &d);
        assert_eq!(r.extend_from_sorted(Vec::new(), &d), 0);
        let mut twice = row.clone();
        twice.extend_from_slice(&row);
        assert_eq!(r.extend_from_sorted(twice, &d), 0);
        assert_eq!(r.rows(), 1);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_batch_is_rejected() {
        let d = Dict::default();
        let mut r = VRel::new(2);
        r.extend_from_sorted(vec![Val::inline_nat(1).unwrap()], &d);
    }

    #[test]
    fn vrel_keeps_sorted_dedup_and_stats() {
        let mut d = Dict::default();
        let mut r = VRel::new(2);
        let rows = [
            [Value::Nat(2), Value::Str("b".into())],
            [Value::Nat(1), Value::Str("a".into())],
            [Value::Nat(2), Value::Str("a".into())],
            [Value::Nat(1), Value::Str("a".into())], // duplicate
        ];
        for row in &rows {
            let enc: Vec<Val> = row.iter().map(|v| d.encode(v)).collect();
            r.insert(&enc, &d);
        }
        assert_eq!(r.rows(), 3);
        let decoded: Vec<Tuple> = r.decoded(&d).collect();
        let mut expected: Vec<Tuple> = rows[..3].iter().map(|r| r.to_vec()).collect();
        expected.sort();
        assert_eq!(decoded, expected);
        let key: Vec<Val> = rows[1].iter().map(|v| d.encode(v)).collect();
        assert!(r.contains(&key, &d));
        let stats = r.stats(&d);
        assert_eq!(stats[0].distinct, 2);
        assert_eq!(stats[0].min, Some(Value::Nat(1)));
        assert_eq!(stats[0].max, Some(Value::Nat(2)));
        assert_eq!(stats[1].distinct, 2);
    }
}

//! Snapshot-isolated shared states.
//!
//! A [`SharedState`] is the multi-reader ownership story for [`State`]:
//! readers take an immutable [`Snapshot`] (an `Arc`-shared state plus an
//! epoch number) and keep it for as long as a query runs; writers batch
//! mutations and *publish* — clone the current state, apply the batch
//! through the existing bulk-ingestion path, bump the epoch, and
//! atomically swap the pointer. In-flight readers are never blocked and
//! never observe a half-published batch: every snapshot is some state
//! that was published whole.
//!
//! A publish costs its delta, not the store. Cloning a state shares
//! every relation's column and the dictionary's frozen base, and copies
//! only the dictionary's tail of recently interned entries (at most
//! 4096). The batch merge builds each touched relation's new column
//! straight from the shared old one and carries its cached column
//! statistics over, so the next read does not recompute them from the
//! whole column, and the fingerprint reuses the dictionary's stored
//! entry hashes. Untouched relations stay shared pointer for pointer.
//!
//! A store can also be **durable**: [`SharedState::create_durable`]
//! seeds a directory with a base snapshot and an epoch-delta log
//! ([`crate::wal`]), and [`SharedState::open_durable`] recovers the
//! exact pre-crash state from it. The [`Wal`] lives inside the writer
//! mutex, so appending an epoch's record and publishing its snapshot
//! are one critical section — and the append happens *before* the
//! swap, so a crash between the two can only leave the log one epoch
//! ahead of what any reader observed, never behind.
//!
//! ```
//! use fq_relational::{Schema, SharedState, State, Value};
//!
//! let shared = SharedState::new(State::new(Schema::new().with_relation("R", 1)));
//! let before = shared.snapshot();
//! shared.ingest("R", vec![vec![Value::Nat(7)]]).unwrap();
//! let after = shared.snapshot();
//! assert_eq!(before.size(), 0); // pinned: publication is invisible
//! assert_eq!(after.size(), 1);
//! assert!(after.epoch() > before.epoch());
//! ```

use crate::state::{State, StateError, Tuple};
use crate::wal::{Recovery, Wal, WalInfo, WalOptions};
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Process-wide store id allocator: snapshots from different
/// [`SharedState`]s (or detached snapshots) never share an identity.
static STORE_IDS: AtomicU64 = AtomicU64::new(1);

fn next_store_id() -> u64 {
    STORE_IDS.fetch_add(1, Ordering::Relaxed)
}

/// An immutable, cheaply clonable view of a [`State`] at one publication
/// epoch. Derefs to [`State`], so everything that reads a state runs
/// unchanged against a snapshot.
#[derive(Clone, Debug)]
pub struct Snapshot {
    store_id: u64,
    epoch: u64,
    state: Arc<State>,
}

impl Snapshot {
    /// A detached snapshot of a free-standing state (epoch 0, fresh
    /// store id). One-shot callers — the CLI, tests — use this to run
    /// the snapshot-borrowing execution path without a [`SharedState`].
    pub fn detached(state: State) -> Snapshot {
        Snapshot {
            store_id: next_store_id(),
            epoch: 0,
            state: Arc::new(state),
        }
    }

    /// The identity of the store this snapshot was taken from.
    pub fn store_id(&self) -> u64 {
        self.store_id
    }

    /// The publication epoch: 0 for the initial state, bumped by one
    /// per published batch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared state (for callers that need to hold an `Arc`).
    pub fn state(&self) -> &Arc<State> {
        &self.state
    }
}

impl Deref for Snapshot {
    type Target = State;

    fn deref(&self) -> &State {
        &self.state
    }
}

/// A multi-reader, single-writer-at-a-time shared [`State`] with
/// atomic snapshot publication.
///
/// * [`SharedState::snapshot`] — wait-free for practical purposes: a
///   read lock held just long enough to bump an `Arc`.
/// * [`SharedState::ingest`] / [`SharedState::ingest_batches`] — batch
///   mutation through the bulk path, then an atomic epoch-bumping swap.
///   Writers serialize on a dedicated mutex; the `current` write lock
///   is held only for the pointer swap itself.
#[derive(Debug)]
pub struct SharedState {
    store_id: u64,
    current: RwLock<Snapshot>,
    /// Writers serialize here so clone → mutate → swap is atomic
    /// without holding the readers' lock across the mutation. The
    /// durable variants hold the epoch-delta log ([`crate::wal`]) in
    /// the same mutex: the append and the publication it describes are
    /// one critical section.
    writer: Mutex<Option<Wal>>,
}

impl SharedState {
    /// Share a state, as epoch 0 of a fresh store.
    pub fn new(state: State) -> SharedState {
        SharedState::with_wal(state, 0, None)
    }

    /// Seed a fresh **durable** store at `dir`: the state is written as
    /// the epoch-0 base snapshot, and every published epoch is appended
    /// to the epoch-delta log before it becomes visible. Fails if `dir`
    /// already holds a store — recover it with
    /// [`SharedState::open_durable`] instead.
    pub fn create_durable(
        dir: &Path,
        state: State,
        opts: WalOptions,
    ) -> Result<SharedState, StateError> {
        let wal = Wal::create(dir, &state, opts)?;
        Ok(SharedState::with_wal(state, 0, Some(wal)))
    }

    /// Recover the durable store at `dir` into the exact state of its
    /// last fully-published epoch — epoch counter and content
    /// fingerprint both restored — and reopen its log for appending.
    /// Returns the recovery audit alongside the store.
    pub fn open_durable(
        dir: &Path,
        opts: WalOptions,
    ) -> Result<(SharedState, Recovery), StateError> {
        let (wal, recovery) = Wal::open(dir, opts)?;
        let shared = SharedState::with_wal(recovery.state.clone(), recovery.epoch, Some(wal));
        Ok((shared, recovery))
    }

    fn with_wal(state: State, epoch: u64, wal: Option<Wal>) -> SharedState {
        let store_id = next_store_id();
        SharedState {
            store_id,
            current: RwLock::new(Snapshot {
                store_id,
                epoch,
                state: Arc::new(state),
            }),
            writer: Mutex::new(wal),
        }
    }

    /// The identity of this store.
    pub fn store_id(&self) -> u64 {
        self.store_id
    }

    /// The current publication epoch.
    pub fn epoch(&self) -> u64 {
        self.current.read().expect("not poisoned").epoch
    }

    /// Pin the current snapshot. The caller keeps it — and every result
    /// computed from it stays bit-identical — no matter how many epochs
    /// are published afterwards.
    pub fn snapshot(&self) -> Snapshot {
        self.current.read().expect("not poisoned").clone()
    }

    /// Ingest one relation's batch of tuples and publish. Returns the
    /// number of genuinely new rows and the epoch now current (a batch
    /// of only duplicates changes nothing and publishes nothing).
    pub fn ingest(&self, relation: &str, rows: Vec<Tuple>) -> Result<(usize, u64), StateError> {
        self.ingest_batches([(relation.to_string(), rows)])
    }

    /// Ingest batches for several relations as **one** publication:
    /// readers either see none of the batch or all of it. Any scheme
    /// violation aborts the whole ingest with nothing published.
    pub fn ingest_batches<I>(&self, batches: I) -> Result<(usize, u64), StateError>
    where
        I: IntoIterator<Item = (String, Vec<Tuple>)>,
    {
        let mut writing = self.writer.lock().expect("not poisoned");
        let base = self.snapshot();
        let batches: Vec<(String, Vec<Tuple>)> = batches.into_iter().collect();
        // Serialize the delta record *before* the batches are consumed
        // by the apply step; the post-apply fingerprint seals it below.
        let body = writing
            .as_ref()
            .map(|_| Wal::encode_batches(base.epoch + 1, &batches));
        // Pointer bumps plus the dictionary tail; the bulk path builds
        // the touched relations' new columns from the shared ones.
        let mut next = (*base.state).clone();
        let mut added = 0;
        for (relation, rows) in batches {
            added += next.extend_bulk(&relation, rows)?;
        }
        if added == 0 {
            return Ok((0, base.epoch));
        }
        let epoch = base.epoch + 1;
        let next = Arc::new(next);
        // Durability first: the record reaches the log (and, per
        // policy, stable storage) before any reader can observe the
        // epoch. A crash between append and swap leaves recovery at
        // most one epoch *ahead* of what clients saw — never behind.
        if let Some(wal) = writing.as_mut() {
            let record =
                crate::wal::finish_record(body.expect("encoded above"), next.fingerprint());
            wal.append_record(&record, epoch, &next)?;
        }
        *self.current.write().expect("not poisoned") = Snapshot {
            store_id: self.store_id,
            epoch,
            state: next,
        };
        Ok((added, epoch))
    }

    /// Replace the state wholesale (schema migrations, reloads) as the
    /// next epoch. On a durable store this is a synchronous checkpoint:
    /// deltas cannot express a wholesale replacement, so the new state
    /// is installed as a fresh base snapshot before it is published.
    pub fn publish(&self, state: State) -> Result<u64, StateError> {
        let mut writing = self.writer.lock().expect("not poisoned");
        let epoch = self.current.read().expect("not poisoned").epoch + 1;
        if let Some(wal) = writing.as_mut() {
            wal.checkpoint(&state, epoch)?;
        }
        let mut cur = self.current.write().expect("not poisoned");
        *cur = Snapshot {
            store_id: self.store_id,
            epoch,
            state: Arc::new(state),
        };
        Ok(epoch)
    }

    /// The durability layer's counters, when this store is durable.
    pub fn wal_info(&self) -> Option<WalInfo> {
        self.writer
            .lock()
            .expect("not poisoned")
            .as_ref()
            .map(Wal::info)
    }

    /// Force any batched-but-unsynced appends to stable storage
    /// (no-op on a non-durable store).
    pub fn sync(&self) -> Result<(), StateError> {
        match self.writer.lock().expect("not poisoned").as_mut() {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::state::{StateBuilder, Value};
    use crate::val::DICT_TAIL_FOLD;

    // The whole point: one store, many executors, scoped threads.
    const _: fn() = || {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<SharedState>();
        assert_sync::<Snapshot>();
    };

    fn schema() -> Schema {
        Schema::new().with_relation("R", 1).with_relation("S", 2)
    }

    #[test]
    fn snapshots_pin_their_epoch() {
        let shared = SharedState::new(State::new(schema()));
        let s0 = shared.snapshot();
        let (added, e1) = shared.ingest("R", vec![vec![Value::Nat(1)]]).unwrap();
        assert_eq!((added, e1), (1, 1));
        let s1 = shared.snapshot();
        shared
            .ingest("R", vec![vec![Value::Str("x".into())]])
            .unwrap();
        assert_eq!(s0.size(), 0);
        assert_eq!(s1.size(), 1);
        assert_eq!(shared.snapshot().size(), 2);
        assert_eq!((s0.epoch(), s1.epoch(), shared.epoch()), (0, 1, 2));
        assert_eq!(s0.store_id(), shared.store_id());
    }

    #[test]
    fn duplicate_only_batches_publish_nothing() {
        let shared = SharedState::new(State::new(schema()).with_tuple("R", vec![Value::Nat(1)]));
        let (added, epoch) = shared.ingest("R", vec![vec![Value::Nat(1)]]).unwrap();
        assert_eq!((added, epoch), (0, 0));
        assert_eq!(shared.epoch(), 0);
    }

    #[test]
    fn multi_relation_ingest_is_atomic_on_error() {
        let shared = SharedState::new(State::new(schema()));
        let err = shared.ingest_batches([
            ("R".to_string(), vec![vec![Value::Nat(1)]]),
            ("Bogus".to_string(), vec![vec![Value::Nat(2)]]),
        ]);
        assert!(matches!(err, Err(StateError::UnknownRelation { .. })));
        assert_eq!(shared.epoch(), 0, "failed batches publish nothing");
        assert_eq!(shared.snapshot().size(), 0);
    }

    #[test]
    fn publication_shares_untouched_columns() {
        let mut base = State::new(schema());
        // Enough strings to fold the dictionary tail into its base once.
        base.extend_bulk(
            "S",
            (0..DICT_TAIL_FOLD as u64 + 100)
                .map(|i| vec![Value::Nat(i), Value::Str(format!("s{i}"))])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let shared = SharedState::new(base);
        let before = shared.snapshot();
        shared
            .ingest("R", vec![vec![Value::Str("fresh".into())]])
            .unwrap();
        let after = shared.snapshot();
        // The untouched relation's column is the same allocation.
        assert!(std::ptr::eq(
            before.vrel("S").unwrap(),
            after.vrel("S").unwrap()
        ));
        assert!(!std::ptr::eq(
            before.vrel("R").unwrap(),
            after.vrel("R").unwrap()
        ));
        // So is the dictionary's frozen base: the publish copied only
        // the tail.
        assert!(before.dict().shares_base_with(after.dict()));
        assert_eq!(after.dict().len(), before.dict().len() + 1);
    }

    /// Publishes that together intern more than the fold bound: each
    /// snapshot equals a bulk build of the same rows (tuples,
    /// fingerprint, statistics, snapshot bytes), the fold gives the
    /// writer a base of its own, and pinned snapshots never change.
    #[test]
    fn publishes_across_the_fold_bound_equal_bulk_builds() {
        let shared = SharedState::new(State::new(schema()));
        let mut log: Vec<(&str, Vec<Value>)> = Vec::new();
        let mut pinned = Vec::new();
        for round in 0..6u64 {
            let mut batches = vec![("R".to_string(), Vec::new()), ("S".to_string(), Vec::new())];
            for i in 0..1000u64 {
                let fresh = Value::Str(format!("r{round}.{i}"));
                batches[0].1.push(vec![fresh.clone()]);
                // Old and fresh words in the non-leading column, big
                // naturals and duplicates across rounds.
                let old = Value::Str(format!("r0.{}", i % 10));
                let second = [fresh, old, Value::Nat(u64::MAX - i % 3)][(i % 3) as usize].clone();
                batches[1].1.push(vec![Value::Nat(i % 40), second]);
            }
            for (rel, rows) in &batches {
                log.extend(
                    rows.iter()
                        .map(|t| (if rel == "R" { "R" } else { "S" }, t.clone())),
                );
            }
            shared.ingest_batches(batches).unwrap();
            let snap = shared.snapshot();
            let mut b = StateBuilder::new(schema());
            for (rel, t) in &log {
                b.row_ref(rel, t);
            }
            let bulk = b.finish();
            assert_eq!(*snap.state().as_ref(), bulk);
            assert_eq!(snap.fingerprint(), bulk.fingerprint());
            for rel in ["R", "S"] {
                assert_eq!(snap.column_stats(rel), bulk.column_stats(rel), "{rel}");
            }
            let bytes = snap.snapshot_bytes();
            assert_eq!(bytes, bulk.snapshot_bytes(), "round {round}");
            pinned.push((snap, bulk, bytes));
        }
        assert!(pinned[5].0.dict().len() > DICT_TAIL_FOLD);
        // The first publish past the bound folded into a copy of the
        // base its predecessor still holds.
        assert!(!pinned[3].0.dict().shares_base_with(pinned[4].0.dict()));
        for (snap, bulk, bytes) in &pinned {
            assert_eq!(snap.state().as_ref(), bulk);
            assert_eq!(&snap.snapshot_bytes(), bytes);
        }
    }

    #[test]
    fn detached_snapshots_have_distinct_stores() {
        let a = Snapshot::detached(State::new(schema()));
        let b = Snapshot::detached(State::new(schema()));
        assert_ne!(a.store_id(), b.store_id());
        assert_eq!(a.epoch(), 0);
    }

    #[test]
    fn publish_replaces_wholesale() {
        let shared = SharedState::new(State::new(schema()));
        let epoch = shared
            .publish(State::new(schema()).with_tuple("R", vec![Value::Nat(3)]))
            .unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(shared.snapshot().size(), 1);
    }

    #[test]
    fn durable_store_recovers_published_epochs_exactly() {
        let dir = std::env::temp_dir().join(format!("fq-shared-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shared =
            SharedState::create_durable(&dir, State::new(schema()), WalOptions::default()).unwrap();
        shared.ingest("R", vec![vec![Value::Nat(1)]]).unwrap();
        shared
            .ingest_batches([
                ("R".to_string(), vec![vec![Value::Str("x".into())]]),
                ("S".to_string(), vec![vec![Value::Nat(2), Value::Nat(3)]]),
            ])
            .unwrap();
        // Duplicate-only batches publish nothing — and append nothing.
        shared.ingest("R", vec![vec![Value::Nat(1)]]).unwrap();
        let live = shared.snapshot();
        assert_eq!(live.epoch(), 2);
        drop(shared);

        let (reopened, recovery) = SharedState::open_durable(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovery.epoch, 2);
        assert_eq!(recovery.replayed, 2);
        let back = reopened.snapshot();
        assert_eq!(back.epoch(), 2);
        assert_eq!(*back.state().as_ref(), *live.state().as_ref());
        assert_eq!(back.fingerprint(), live.fingerprint());
        // The reopened store continues the epoch sequence durably.
        reopened
            .ingest("S", vec![vec![Value::Nat(9), Value::Nat(9)]])
            .unwrap();
        assert_eq!(reopened.epoch(), 3);
        assert!(reopened.wal_info().is_some());
        drop(reopened);
        assert_eq!(crate::wal::recover(&dir).unwrap().epoch, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_publish_checkpoints_wholesale() {
        let dir = std::env::temp_dir().join(format!("fq-shared-publish-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shared =
            SharedState::create_durable(&dir, State::new(schema()), WalOptions::default()).unwrap();
        shared.ingest("R", vec![vec![Value::Nat(1)]]).unwrap();
        let replacement = State::new(schema()).with_tuple("R", vec![Value::Nat(42)]);
        let epoch = shared.publish(replacement.clone()).unwrap();
        assert_eq!(epoch, 2);
        drop(shared);
        let r = crate::wal::recover(&dir).unwrap();
        assert_eq!(r.epoch, 2);
        assert_eq!(r.base_epoch, 2, "publish installs a fresh base");
        assert_eq!(r.state, replacement);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprints_track_content_not_history() {
        let by_insert = State::new(schema())
            .with_tuple("R", vec![Value::Str("b".into())])
            .with_tuple("R", vec![Value::Str("a".into())]);
        let mut by_bulk = State::new(schema());
        by_bulk
            .extend_bulk(
                "R",
                vec![vec![Value::Str("a".into())], vec![Value::Str("b".into())]],
            )
            .unwrap();
        // Different interning order, equal content: equal fingerprints.
        assert_eq!(by_insert.fingerprint(), by_bulk.fingerprint());
        let mut grown = by_bulk.clone();
        grown.insert("R", vec![Value::Str("c".into())]);
        assert_ne!(grown.fingerprint(), by_bulk.fingerprint());
    }
}

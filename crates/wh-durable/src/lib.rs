//! Crash durability for the Wormhole index: a write-ahead log,
//! crash-consistent snapshots, and recovery that rebuilds the in-memory
//! structure from the two.
//!
//! [`DurableWormhole<V, I>`](durable::DurableWormhole) wraps the index it
//! is given: the bare `Wormhole` by default, or the sharded front
//! (`wh_shard::ShardedWormhole`), which then keeps rebalancing live under
//! one log. All it asks of `I` is the concurrent-index contract plus
//! [`index_traits::FromSorted`], the bulk load recovery rebuilds it with.
//!
//! # The persistence-ordering invariant
//!
//! Every layer in this crate follows one discipline, the same
//! records → links → header-publish ordering the in-memory index uses for
//! its lock-free readers, transplanted to storage:
//!
//! 1. **Log before apply.** An operation's WAL frame is encoded under the
//!    sequencer lock *before* the in-memory index mutates, and both happen
//!    under the same critical section — WAL order and apply order are
//!    identical, so replay reproduces exactly the in-memory history.
//! 2. **Commit before acknowledge.** An operation is reported durable only
//!    after a `Commit` frame covering its LSN is appended *and* fsynced.
//!    Frames above the last synced `Commit` are provisional: recovery
//!    discards them, so nothing is ever acknowledged and then lost, and
//!    nothing half-written is ever replayed (each frame is CRC-framed;
//!    [`record::replay_committed`] stops at the first torn frame and
//!    truncates after the last surviving `Commit`).
//! 3. **Data before name.** A snapshot's bytes are fully written and
//!    fsynced in a temp file before the atomic rename publishes it, and
//!    the directory is fsynced so the rename survives. The WAL is
//!    committed through everything the fuzzy snapshot scan may have
//!    observed *before* the rename — a published snapshot never embeds an
//!    operation that a crash could still revoke.
//!
//! # The recovery contract
//!
//! [`DurableWormhole::open`](durable::DurableWormhole::open) restores
//! **exactly the operations covered by the last surviving `Commit`
//! frame**, in LSN order, on top of the newest snapshot that validates —
//! no more (uncommitted tails are truncated, not resurrected) and no less
//! (acknowledged operations are always covered). A corrupt newest
//! snapshot falls back to the older retained one plus more WAL replay;
//! because every record is a last-write-wins state assignment, replaying
//! from an older position converges to the same state. Only the leaf
//! records are persisted — the meta trie and hash tables (and a sharded
//! front's partition) are derived structures, rebuilt from the sorted leaf
//! stream on open ([`index_traits::FromSorted`]), which is what keeps the
//! log small and the format independent of the in-memory layout.
//!
//! # Crash testing
//!
//! [`storage::FailpointStorage`] implements the same [`storage::WalStorage`]
//! trait as the real file backend but dies at a configurable byte offset
//! and can drop everything not yet fsynced — the recovery fuzz harness
//! sweeps that offset across every byte and record boundary and checks the
//! recovered state against an independent replay of the committed prefix.

pub mod durable;
pub mod record;
pub mod snapshot;
pub mod storage;
pub mod telemetry;
pub mod value;
pub mod wal;

pub use durable::{DurableOptions, DurableWormhole, RecoveryReport, SyncPolicy};
pub use record::WalRecord;
pub use storage::{CrashMode, FailpointHandle, FailpointStorage, FileStorage, WalStorage};
pub use telemetry::DurableMetrics;
pub use value::DurableValue;
pub use wal::Wal;

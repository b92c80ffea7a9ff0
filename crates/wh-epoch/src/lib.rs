//! Quiescent-state-based reclamation (QSBR), the RCU flavour used by the
//! Wormhole paper (§2.5) to let readers traverse the MetaTrieHT without any
//! lock while writers replace it wholesale.
//!
//! # Model
//!
//! * Reader threads register with a [`Qsbr`] domain and obtain a
//!   [`QsbrHandle`]. A reader wraps each index operation in a critical
//!   section, the [`Guard`] that [`QsbrHandle::enter`] returns; between
//!   operations the thread is *quiescent*.
//! * A writer that unpublishes an object (e.g. the previous version of the
//!   MetaTrieHT) calls [`Qsbr::synchronize`] — which blocks until every
//!   registered reader has passed through a quiescent state since the call —
//!   or [`Qsbr::defer`] to queue the reclamation and let a later
//!   `synchronize` (or [`Qsbr::wait_grace`], or the owner's drop of the
//!   domain) free it.
//!
//! The implementation uses a global epoch counter and, per reader, one word
//! holding its last announced epoch and an in-section bit: the classic QSBR
//! construction described by McKenney (user-space RCU) and used by the
//! paper's C implementation. A grace-period wait yields to a reader it
//! finds inside a section a few times, then sleeps in short steps.
//!
//! # Biased fast entries
//!
//! Domains whose writers retire state only in rare, well-delimited phases
//! (e.g. the shard router table, which changes only during a migration) can
//! opt into a *biased* mode: while [`Qsbr::resume_bias`] is in effect,
//! [`QsbrHandle::try_fast`] grants a [`FastGuard`] read section that costs
//! one relaxed store, one fence, and one flag load — no epoch bookkeeping.
//! Before retiring anything the writer calls [`Qsbr::drain_barrier`], which
//! revokes the bias, waits out in-flight fast sections, and forces a grace
//! period for classic sections; fast entries then decline (readers fall
//! back to [`QsbrHandle::enter`]) until the writer resumes the bias.
//!
//! # Why not `crossbeam_epoch`?
//!
//! Crossbeam's EBR pins every operation and defers destruction to amortised
//! collection; the paper's scheme is QSBR with an explicit grace-period wait
//! (`synchronize`) on the writer side, because the writer *reuses* the old
//! table after the grace period instead of freeing it. Reproducing that
//! behaviour needs a blocking `synchronize`, which crossbeam does not expose.

pub mod qsbr;

pub use qsbr::{EpochMetrics, FastGuard, Guard, Qsbr, QsbrHandle};

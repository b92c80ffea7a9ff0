//! The QSBR domain, reader handles, and grace-period machinery.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use wh_telemetry::{Gauge, Histogram};

/// A queued reclamation callback and the epoch it was queued at.
type DeferredCallback = (u64, Box<dyn FnOnce() + Send>);

wh_telemetry::metrics! {
    /// Telemetry for one QSBR domain. Handles are `Arc`-shared with whatever
    /// [`Registry`](wh_telemetry::Registry) they are registered into, so the
    /// domain records into the same cells an exposition reads.
    ///
    /// Entering or leaving a critical section records nothing here; only
    /// the histograms are subject to the `telemetry-off` kill switch.
    pub struct EpochMetrics {
        /// Nanoseconds spent waiting for grace periods to complete
        /// (`synchronize` / `wait_grace`), including the deferred-callback
        /// drain that rides on them.
        pub grace_wait_ns: Histogram,
        /// Nanoseconds spent in [`Qsbr::drain_barrier`]: bias revocation,
        /// waiting out in-flight fast sections, and the trailing grace period.
        pub drain_barrier_ns: Histogram,
        /// Instantaneous deferred-callback queue depth; its high-water mark
        /// records the worst backlog between flushes.
        pub deferred_depth: Gauge,
    }
}

/// Per-reader-thread state tracked by the domain. Only the owning thread
/// writes either word.
#[derive(Debug)]
struct ThreadState {
    /// `epoch << 1 | in_section`: the epoch of the most recent quiescent
    /// state the thread announced, and whether it is inside a read-side
    /// critical section now.
    word: AtomicU64,
    /// Biased fast-section generation: odd while the thread is inside a
    /// [`FastGuard`] section, even otherwise. [`Qsbr::drain_barrier`]
    /// waits for it to become even.
    fast_gen: AtomicU64,
}

impl ThreadState {
    /// Whether the thread has passed the grace period whose
    /// [`Qsbr::start_grace`] returned `target`: it is outside any critical
    /// section right now (it will see the new pointer when it re-enters),
    /// or it has announced a quiescent state at or beyond `target`.
    fn passed(&self, target: u64) -> bool {
        let word = self.word.load(Ordering::SeqCst);
        word & 1 == 0 || word >> 1 >= target
    }
}

/// Shared state of a QSBR domain.
struct Shared {
    /// Unique id of this domain (used by the thread-local handle cache).
    domain_id: u64,
    /// Set when the owning [`Qsbr`] drops; thread caches then let go of
    /// their handles to the domain.
    closed: AtomicBool,
    /// Monotonically increasing grace-period counter.
    global_epoch: AtomicU64,
    /// All registered reader threads.
    threads: Mutex<Vec<Arc<ThreadState>>>,
    /// Deferred destructors: (epoch at which they were queued, callback).
    deferred: Mutex<Vec<DeferredCallback>>,
    /// `true` while the domain is *biased*: no retirement is in progress, so
    /// [`QsbrHandle::try_fast`] entries may elide the critical-section
    /// bookkeeping entirely. Revoked by [`Qsbr::drain_barrier`] before any
    /// publication that will retire shared state; restored by
    /// [`Qsbr::resume_bias`]. Domains start unbiased — owners opt in.
    bias: AtomicBool,
    /// Domain telemetry (see [`EpochMetrics`]).
    metrics: EpochMetrics,
}

/// A quiescent-state-based reclamation domain.
///
/// A domain has one owner, the structure whose retirements it orders;
/// threads that need the domain itself share that owner. Dropping the
/// owner waits out readers inside a section, then runs every callback
/// still deferred, even while a [`QsbrHandle`] to the domain lives on.
pub struct Qsbr {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Qsbr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Qsbr")
            .field(
                "global_epoch",
                &self.shared.global_epoch.load(Ordering::Relaxed),
            )
            .field("readers", &self.readers())
            .field("pending", &self.pending())
            .finish()
    }
}

/// Source of unique domain ids.
static NEXT_DOMAIN_ID: AtomicU64 = AtomicU64::new(1);

/// Per-thread cache of reader handles, keyed by domain id. Registering a
/// reader takes a lock on the domain's thread list, so callers that cannot
/// conveniently hold a handle (e.g. trait methods taking `&self`) use this
/// cache instead of re-registering on every operation.
struct LocalHandles {
    /// The entry served last: `(domain id, its handle in `all`)`, checked
    /// before anything else. A lookup that repeats the previous one's
    /// domain — an unsharded index, a batch running shard by shard — ends
    /// here without touching `all`; a thread alternating between domains
    /// (router, then the key's shard) falls through to the scan.
    /// Domain ids start at 1; id 0 marks the empty state.
    last: std::cell::Cell<(u64, *const QsbrHandle)>,
    /// The handles this thread has registered. Boxed so the addresses
    /// stay stable when the vector grows; registering another first drops
    /// those whose domain is closed.
    all: std::cell::RefCell<Vec<(u64, Box<QsbrHandle>)>>,
}

thread_local! {
    static LOCAL_HANDLES: LocalHandles = const {
        LocalHandles {
            last: std::cell::Cell::new((0, std::ptr::null())),
            all: std::cell::RefCell::new(Vec::new()),
        }
    };
}

/// Waits until `done` holds. Read sections never block, so one that lasts
/// means its reader was *preempted* inside it (common on oversubscribed
/// hosts): hand it the CPU a few times, then back off to short sleeps.
fn backoff_until(mut done: impl FnMut() -> bool) {
    let mut yields = 0u32;
    while !done() {
        if yields < 64 {
            yields += 1;
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

impl Qsbr {
    /// Creates a new, empty domain.
    #[allow(clippy::new_without_default, reason = "a domain is its owner's")]
    pub fn new() -> Self {
        Self {
            shared: Arc::new(Shared {
                domain_id: NEXT_DOMAIN_ID.fetch_add(1, Ordering::Relaxed),
                closed: AtomicBool::new(false),
                global_epoch: AtomicU64::new(0),
                threads: Mutex::new(Vec::new()),
                deferred: Mutex::new(Vec::new()),
                bias: AtomicBool::new(false),
                metrics: EpochMetrics::default(),
            }),
        }
    }

    /// Runs `f` with this thread's cached reader handle for the domain,
    /// registering one on first use.
    ///
    /// The cached handle stays registered until the thread exits or, once
    /// the domain's owner has dropped, until the thread next registers.
    pub fn with_local_handle<R>(&self, f: impl FnOnce(&QsbrHandle) -> R) -> R {
        let id = self.shared.domain_id;
        LOCAL_HANDLES.with(|local| {
            let (last_id, last_ptr) = local.last.get();
            let handle_ptr: *const QsbrHandle = if last_id == id {
                last_ptr
            } else {
                // The RefCell borrow ends with this block so `f` may
                // recurse into `with_local_handle` for another domain.
                let mut handles = local.all.borrow_mut();
                let ptr: *const QsbrHandle = match handles.iter().find(|(hid, _)| *hid == id) {
                    Some((_, handle)) => handle.as_ref(),
                    None => {
                        handles.retain(|(_, h)| !h.shared.closed.load(Ordering::Relaxed));
                        handles.push((id, Box::new(self.register())));
                        handles.last().expect("just pushed").1.as_ref()
                    }
                };
                local.last.set((id, ptr));
                ptr
            };
            // SAFETY: the handle is boxed and the cache, `last` included,
            // is thread-local. Registering removes only entries of closed
            // domains: not this one (`&self` keeps its owner alive), nor an
            // enclosing call's, whose owner is borrowed as long. So the
            // pointee is valid and not aliased mutably while `f` runs.
            f(unsafe { &*handle_ptr })
        })
    }

    /// Registers the calling thread as a reader and returns its handle.
    pub fn register(&self) -> QsbrHandle {
        let epoch = self.shared.global_epoch.load(Ordering::SeqCst);
        let state = Arc::new(ThreadState {
            word: AtomicU64::new(epoch << 1),
            fast_gen: AtomicU64::new(0),
        });
        self.shared.threads.lock().push(Arc::clone(&state));
        QsbrHandle {
            shared: Arc::clone(&self.shared),
            state,
            _not_sync: std::marker::PhantomData,
        }
    }

    /// This domain's telemetry handles (register them into a
    /// [`Registry`](wh_telemetry::Registry) via
    /// [`EpochMetrics::register_into`]).
    pub fn metrics(&self) -> &EpochMetrics {
        &self.shared.metrics
    }

    /// Number of currently registered reader threads.
    pub fn readers(&self) -> usize {
        self.shared.threads.lock().len()
    }

    /// Waits until every registered reader has passed through a quiescent
    /// state (or is currently quiescent) after this call began, and runs
    /// every callback deferred before it.
    ///
    /// The calling thread must not be inside one of its own read-side
    /// critical sections, otherwise the wait would deadlock.
    pub fn synchronize(&self) {
        // Readers that announce a quiescent state after this point carry
        // an epoch at or beyond the grace period started here.
        self.wait_grace(self.start_grace());
    }

    /// Starts a grace period *without waiting for it*, returning a token
    /// for [`Qsbr::wait_grace`]. Together they form an asynchronous grace
    /// period: start it at publication time, do other work, and wait only
    /// when the retired object is actually needed — by which point every
    /// reader has usually announced quiescence and the wait is free.
    pub fn start_grace(&self) -> u64 {
        self.shared.global_epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Completes the grace period started by the [`Qsbr::start_grace`] that
    /// returned `target`: returns once every reader registered now has
    /// either announced a quiescent state since that call or is currently
    /// outside any critical section. Also runs reclamation callbacks
    /// deferred at or before `target`. The caller must not be inside one of
    /// its own read-side critical sections.
    pub fn wait_grace(&self, target: u64) {
        let timing = wh_telemetry::start_timing();
        let threads: Vec<Arc<ThreadState>> = self.shared.threads.lock().clone();
        for t in threads {
            backoff_until(|| t.passed(target));
        }
        self.run_deferred_up_to(target);
        self.shared.metrics.grace_wait_ns.record_elapsed(timing);
    }

    /// Non-blocking probe of the grace period started by the
    /// [`Qsbr::start_grace`] that returned `target`: `true` when every
    /// registered reader has already passed it (a subsequent
    /// [`Qsbr::wait_grace`] would return without waiting). Unlike
    /// `wait_grace` this runs no deferred callbacks — it only observes.
    ///
    /// The asynchronous-grace users call this to *account* for how often
    /// the start-early/wait-late pattern made the wait free (e.g. the shard
    /// migration engine reports elapsed-for-free vs blocking grace waits).
    pub fn grace_elapsed(&self, target: u64) -> bool {
        self.shared.threads.lock().iter().all(|t| t.passed(target))
    }

    /// Whether the domain is currently biased (fast entries allowed).
    pub fn biased(&self) -> bool {
        self.shared.bias.load(Ordering::SeqCst)
    }

    /// Re-enables biased fast entries after the retirements that prompted
    /// [`Qsbr::drain_barrier`] have completed (i.e. every retired object's
    /// grace period has been waited out and no further swap of the protected
    /// pointer(s) will happen until the next `drain_barrier`).
    ///
    /// The `SeqCst` store pairs with the `Acquire`-or-stronger flag load in
    /// [`QsbrHandle::try_fast`]: a fast reader that observes the bias also
    /// observes every write sequenced before this call — in particular the
    /// final publication of the now-stable protected pointer.
    pub fn resume_bias(&self) {
        self.shared.bias.store(true, Ordering::SeqCst);
    }

    /// Revokes biased fast entries and waits until no thread is still inside
    /// one, then forces a full grace period for classic critical sections.
    ///
    /// After this returns (and until [`Qsbr::resume_bias`]) the domain is in
    /// the slow-path regime: every reader goes through
    /// [`QsbrHandle::enter`]-style critical sections, so the usual
    /// publish-then-`synchronize`/`defer` protocol is safe again. Call this
    /// *before the first* publication that will retire shared state.
    ///
    /// Ordering argument (a store/store + fence Dekker): a fast entry stores
    /// its odd generation, executes a `SeqCst` fence, then loads the bias
    /// flag; the barrier stores `bias = false`, executes a `SeqCst` fence,
    /// then loads the generations. Both fences are in the single total order
    /// of SC operations, so either the reader's fence is first — the barrier
    /// then observes the odd generation and spins until the `Release` store
    /// of the even generation (whose `Acquire` load orders the reader's table
    /// use before the barrier's return) — or the barrier's fence is first and
    /// the reader's flag load observes `false`, declining into the slow path.
    /// Either way no fast section that began before the barrier survives it,
    /// and none can begin after it.
    ///
    /// Threads that register mid-barrier are also covered: registration
    /// acquires the thread-list lock after this call's clone of the list
    /// released it, which makes the `bias = false` store visible to any fast
    /// entry the new thread attempts.
    pub fn drain_barrier(&self) {
        let timing = wh_telemetry::start_timing();
        self.shared.bias.store(false, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let threads: Vec<Arc<ThreadState>> = self.shared.threads.lock().clone();
        for t in threads {
            backoff_until(|| t.fast_gen.load(Ordering::Acquire) & 1 == 0);
        }
        // Fast sections are drained; now order against classic critical
        // sections that were already inside `enter` when the flag flipped.
        self.synchronize();
        self.shared.metrics.drain_barrier_ns.record_elapsed(timing);
    }

    /// Queues `f` to run after a future grace period and returns how many
    /// callbacks are now waiting, `f` included — what a caller that bounds
    /// the queue needs, without locking it a second time.
    pub fn defer(&self, f: Box<dyn FnOnce() + Send>) -> usize {
        let epoch = self.shared.global_epoch.load(Ordering::SeqCst) + 1;
        let mut q = self.shared.deferred.lock();
        q.push((epoch, f));
        // Published under the queue lock, so the gauge never goes stale
        // against a concurrent drain's own update.
        self.shared.metrics.deferred_depth.set(q.len() as u64);
        q.len()
    }

    /// Number of callbacks still waiting for a grace period.
    pub fn pending(&self) -> usize {
        self.shared.deferred.lock().len()
    }

    fn run_deferred_up_to(&self, epoch: u64) {
        let ready: Vec<Box<dyn FnOnce() + Send>> = {
            let mut q = self.shared.deferred.lock();
            let mut ready = Vec::new();
            let mut i = 0;
            while i < q.len() {
                if q[i].0 <= epoch {
                    ready.push(q.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
            self.shared.metrics.deferred_depth.set(q.len() as u64);
            ready
        };
        for f in ready {
            f();
        }
    }
}

impl Drop for Qsbr {
    fn drop(&mut self) {
        // Nothing can defer into the domain any more, so one grace period
        // runs every callback still queued — here, not whenever the last
        // cached or registered handle lets go of the shared state.
        self.shared.closed.store(true, Ordering::Relaxed);
        self.synchronize();
    }
}

/// A registered reader thread's handle to a [`Qsbr`] domain.
///
/// The handle is `Send` (it can be created on one thread and moved to the
/// worker that will use it) but deliberately not `Sync`: each reader thread
/// owns exactly one handle.
pub struct QsbrHandle {
    shared: Arc<Shared>,
    state: Arc<ThreadState>,
    /// Keeps the handle `!Sync`: both words of its state have one writer.
    _not_sync: std::marker::PhantomData<std::cell::Cell<()>>,
}

impl std::fmt::Debug for QsbrHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QsbrHandle")
            .field(
                "active",
                &(self.state.word.load(Ordering::Relaxed) & 1 == 1),
            )
            .finish()
    }
}

impl QsbrHandle {
    /// Enters a read-side critical section and returns an RAII guard.
    ///
    /// While the guard is alive, objects observed through RCU-protected
    /// pointers remain valid. Dropping the guard announces a quiescent state.
    #[inline]
    pub fn enter(&self) -> Guard<'_> {
        let word = self.state.word.load(Ordering::Relaxed);
        self.state.word.store(word | 1, Ordering::SeqCst);
        Guard { handle: self }
    }

    /// Attempts a *biased* fast entry: succeeds only while the domain is
    /// biased (no retirement in progress, see [`Qsbr::resume_bias`]), in
    /// which case the returned guard protects RCU-dereferenced pointers with
    /// one relaxed store, one fence, and one flag load — no critical-section
    /// bookkeeping and no grace-period participation.
    /// Returns `None` when the domain is unbiased; the caller must fall back
    /// to [`QsbrHandle::enter`].
    ///
    /// Soundness contract for the domain owner: every publication that
    /// retires shared state must be preceded by [`Qsbr::drain_barrier`]
    /// since the last [`Qsbr::resume_bias`]. Under that contract a fast
    /// section can only observe pointers that no in-progress retirement will
    /// free (the ordering argument lives on `drain_barrier`).
    #[inline]
    pub fn try_fast(&self) -> Option<FastGuard<'_>> {
        let odd = self.state.fast_gen.load(Ordering::Relaxed).wrapping_add(1);
        self.state.fast_gen.store(odd, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if self.shared.bias.load(Ordering::SeqCst) {
            Some(FastGuard {
                handle: self,
                exit_gen: odd.wrapping_add(1),
            })
        } else {
            // Declined: restore an even generation so a concurrent barrier
            // does not wait on a section that never materialised.
            self.state
                .fast_gen
                .store(odd.wrapping_add(1), Ordering::Release);
            None
        }
    }
}

impl Drop for QsbrHandle {
    fn drop(&mut self) {
        // Unregister: remove this thread's state from the domain so writers
        // stop waiting on it.
        self.shared
            .threads
            .lock()
            .retain(|t| !Arc::ptr_eq(t, &self.state));
    }
}

/// RAII guard for a read-side critical section.
#[derive(Debug)]
pub struct Guard<'a> {
    handle: &'a QsbrHandle,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        // Leaving the critical section is itself a quiescent state: one
        // store announces the epoch seen and clears the in-section bit.
        let epoch = self.handle.shared.global_epoch.load(Ordering::SeqCst);
        self.handle.state.word.store(epoch << 1, Ordering::SeqCst);
    }
}

/// RAII guard for a *biased* fast read section (see
/// [`QsbrHandle::try_fast`]). Exiting is a single `Release` store.
#[derive(Debug)]
pub struct FastGuard<'a> {
    handle: &'a QsbrHandle,
    exit_gen: u64,
}

impl Drop for FastGuard<'_> {
    fn drop(&mut self) {
        // Release: a drain barrier that Acquire-loads this even generation
        // orders every read in the section before the barrier's return.
        self.handle
            .state
            .fast_gen
            .store(self.exit_gen, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc as StdArc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn register_and_drop_changes_reader_count() {
        let q = Qsbr::new();
        assert_eq!(q.readers(), 0);
        let h1 = q.register();
        let h2 = q.register();
        assert_eq!(q.readers(), 2);
        drop(h1);
        assert_eq!(q.readers(), 1);
        drop(h2);
        assert_eq!(q.readers(), 0);
    }

    #[test]
    fn local_handle_cache_serves_each_domain_its_own_handle() {
        // One thread alternating between domains (a reader of a sharded
        // front holds one per shard plus the router's): every domain keeps
        // getting the one handle it registered, whether the lookup is
        // answered by the most-recently-used entry or by the scan behind it,
        // and nested use for another domain works.
        let domains: Vec<Qsbr> = (0..5).map(|_| Qsbr::new()).collect();
        let address = |d: &Qsbr| d.with_local_handle(|h| h as *const QsbrHandle);
        let first: Vec<*const QsbrHandle> = domains.iter().map(address).collect();
        for round in 0..3 {
            for (d, &expect) in domains.iter().zip(&first) {
                // Twice in a row (MRU hit), then move on (MRU miss).
                assert_eq!(address(d), expect, "round {round}");
                assert_eq!(address(d), expect, "round {round}");
                assert_eq!(d.readers(), 1, "no re-registration");
            }
        }
        domains[0].with_local_handle(|outer| {
            let _guard = outer.enter();
            let inner = address(&domains[3]);
            assert_eq!(inner, first[3]);
            assert_ne!(inner, outer as *const QsbrHandle);
        });
        // The entry served last belongs to domain 3 now; domain 0 must still
        // resolve to its own handle.
        assert_eq!(address(&domains[0]), first[0]);
    }

    #[test]
    fn synchronize_with_no_readers_returns_immediately() {
        let q = Qsbr::new();
        q.synchronize();
        q.synchronize();
    }

    #[test]
    fn synchronize_waits_for_active_reader() {
        let q = StdArc::new(Qsbr::new());
        let h = q.register();
        let entered = StdArc::new(AtomicBool::new(false));
        let released = StdArc::new(AtomicBool::new(false));
        let done = StdArc::new(AtomicBool::new(false));

        let q2 = StdArc::clone(&q);
        let entered2 = StdArc::clone(&entered);
        let released2 = StdArc::clone(&released);
        let reader = thread::spawn(move || {
            let guard = h.enter();
            entered2.store(true, Ordering::SeqCst);
            while !released2.load(Ordering::SeqCst) {
                thread::sleep(Duration::from_millis(1));
            }
            drop(guard);
            // Keep the handle alive a bit so unregistration is not what
            // unblocks the writer.
            thread::sleep(Duration::from_millis(20));
            drop(h);
        });

        while !entered.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(1));
        }
        let done2 = StdArc::clone(&done);
        let writer = thread::spawn(move || {
            q2.synchronize();
            done2.store(true, Ordering::SeqCst);
        });
        // The writer must not complete while the reader is still inside the
        // critical section.
        thread::sleep(Duration::from_millis(30));
        assert!(!done.load(Ordering::SeqCst));
        released.store(true, Ordering::SeqCst);
        writer.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
        reader.join().unwrap();
    }

    #[test]
    fn inactive_reader_does_not_block_writer() {
        let q = Qsbr::new();
        let _h = q.register();
        // The reader never enters a critical section; synchronize must return.
        q.synchronize();
    }

    #[test]
    fn deferred_callbacks_run_after_synchronize() {
        let q = Qsbr::new();
        let counter = StdArc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let c = StdArc::clone(&counter);
            q.defer(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        assert_eq!(q.pending(), 5);
        assert_eq!(counter.load(Ordering::SeqCst), 0);
        q.synchronize();
        assert_eq!(counter.load(Ordering::SeqCst), 5);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn deferred_callbacks_run_on_domain_drop() {
        // Callbacks queued after the last reader unregistered (so no future
        // `synchronize` will ever run) must still execute when the domain
        // itself is dropped — otherwise the deferred reclamation leaks.
        let ran = StdArc::new(AtomicUsize::new(0));
        {
            let q = Qsbr::new();
            let h = q.register();
            let guard = h.enter();
            drop(guard);
            drop(h);
            assert_eq!(q.readers(), 0);
            for _ in 0..3 {
                let c = StdArc::clone(&ran);
                q.defer(Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }));
            }
            assert_eq!(q.pending(), 3);
            assert_eq!(ran.load(Ordering::SeqCst), 0);
        }
        assert_eq!(ran.load(Ordering::SeqCst), 3, "domain drop must flush");
    }

    #[test]
    fn deferred_callbacks_run_at_owner_drop_while_a_handle_lives() {
        // A reader handle keeps the shared domain state alive, but not the
        // queue: the callbacks run when the owner drops, not when the last
        // handle does.
        let ran = StdArc::new(AtomicUsize::new(0));
        let q = Qsbr::new();
        let h = q.register();
        let c = StdArc::clone(&ran);
        q.defer(Box::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
        }));
        drop(q);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        drop(h);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_thread_lets_go_of_dropped_domains() {
        // A thread that uses many short-lived domains through its handle
        // cache: each owner's drop runs what was deferred on it, and the
        // cache lets go of the domain when it next registers a handle.
        let live = Qsbr::new();
        let ran = StdArc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let q = Qsbr::new();
            q.with_local_handle(|h| drop(h.enter()));
            let c = StdArc::clone(&ran);
            q.defer(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
            drop(q);
        }
        assert_eq!(ran.load(Ordering::SeqCst), 100, "every drop ran its queue");
        live.with_local_handle(|h| drop(h.enter()));
        let cached = LOCAL_HANDLES.with(|local| local.all.borrow().len());
        assert!(cached <= 2, "{cached} handles cached");
    }

    #[test]
    fn rcu_pointer_swap_is_safe_under_load() {
        use std::sync::atomic::AtomicPtr;

        // A miniature RCU usage mirroring the MetaTrieHT double-table scheme:
        // readers dereference an atomic pointer inside a critical section,
        // a writer swaps it and waits for a grace period before freeing.
        let q = StdArc::new(Qsbr::new());
        let initial = Box::into_raw(Box::new(vec![1u64; 64]));
        let ptr = StdArc::new(AtomicPtr::new(initial));
        let stop = StdArc::new(AtomicBool::new(false));

        let mut readers = Vec::new();
        for _ in 0..4 {
            let q = StdArc::clone(&q);
            let ptr = StdArc::clone(&ptr);
            let stop = StdArc::clone(&stop);
            readers.push(thread::spawn(move || {
                let h = q.register();
                let mut checksum = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let guard = h.enter();
                    let p = ptr.load(Ordering::SeqCst);
                    // SAFETY: the writer only frees a table after a grace
                    // period; we hold a critical section, so `p` is valid.
                    let v = unsafe { &*p };
                    checksum = checksum.wrapping_add(v[0]);
                    drop(guard);
                }
                checksum
            }));
        }

        for gen in 2u64..30 {
            let new = Box::into_raw(Box::new(vec![gen; 64]));
            let old = ptr.swap(new, Ordering::SeqCst);
            q.synchronize();
            // SAFETY: all readers have passed a quiescent state since the
            // swap, so nobody holds a reference into `old`.
            unsafe { drop(Box::from_raw(old)) };
        }
        stop.store(true, Ordering::SeqCst);
        for r in readers {
            let _ = r.join().unwrap();
        }
        let last = ptr.load(Ordering::SeqCst);
        // SAFETY: all readers have exited.
        unsafe { drop(Box::from_raw(last)) };
    }

    #[test]
    fn asynchronous_grace_period_completes_after_reader_quiesces() {
        let q = Qsbr::new();
        let h = q.register();
        // Reader active at start_grace: the grace period must not be
        // considered complete until it exits its critical section.
        let guard = h.enter();
        let target = q.start_grace();
        drop(guard); // quiescent state after the grace period began
        q.wait_grace(target); // must return without external help
                              // A fresh critical section entered *after* the grace period began
                              // does not hold up that (old) grace period.
        let _guard2 = h.enter();
        q.wait_grace(target);
    }

    #[test]
    fn grace_elapsed_probe_tracks_reader_quiescence() {
        let q = Qsbr::new();
        // No readers: every grace period is trivially elapsed.
        assert!(q.grace_elapsed(q.start_grace()));
        let h = q.register();
        let guard = h.enter();
        let target = q.start_grace();
        assert!(
            !q.grace_elapsed(target),
            "reader active since before the grace period began"
        );
        drop(guard);
        assert!(q.grace_elapsed(target), "reader announced quiescence");
        // A critical section entered *after* the grace period began does
        // not regress the (already elapsed) old grace period.
        let _guard2 = h.enter();
        assert!(q.grace_elapsed(target));
    }

    #[test]
    fn wait_grace_runs_deferred_callbacks_up_to_target() {
        let q = Qsbr::new();
        let ran = StdArc::new(AtomicUsize::new(0));
        let c = StdArc::clone(&ran);
        q.defer(Box::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
        }));
        let target = q.start_grace();
        // A later deferral belongs to a later grace period and must stay
        // queued.
        let c = StdArc::clone(&ran);
        let _later = q.start_grace();
        q.defer(Box::new(move || {
            c.fetch_add(100, Ordering::SeqCst);
        }));
        q.wait_grace(target);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(q.pending(), 1);
        q.synchronize();
        assert_eq!(ran.load(Ordering::SeqCst), 101);
    }

    #[test]
    fn try_fast_requires_bias() {
        let q = Qsbr::new();
        let h = q.register();
        // Domains start unbiased: fast entries must decline.
        assert!(!q.biased());
        assert!(h.try_fast().is_none());
        q.resume_bias();
        assert!(q.biased());
        assert!(h.try_fast().is_some());
        // A drain barrier revokes the bias again.
        drop(h); // barrier would wait on our own fast generation otherwise
        q.drain_barrier();
        assert!(!q.biased());
        let h = q.register();
        assert!(h.try_fast().is_none());
        q.resume_bias();
        assert!(h.try_fast().is_some());
    }

    #[test]
    fn fast_entries_skip_section_bookkeeping() {
        // A fast section leaves the section word alone: a grace period does
        // not wait for it, and does wait for a classic section.
        let q = Qsbr::new();
        q.resume_bias();
        let h = q.register();
        let fast = h.try_fast().expect("biased domain");
        assert!(q.grace_elapsed(q.start_grace()));
        drop(fast);
        let guard = h.enter();
        let target = q.start_grace();
        assert!(!q.grace_elapsed(target));
        drop(guard);
        assert!(q.grace_elapsed(target));
    }

    #[test]
    fn deferred_depth_gauge_tracks_queue_and_drops_to_zero() {
        // The deferred queue was unobservable between flushes; the gauge
        // must follow defer/flush live, remember its high water, and —
        // crucially — read zero after the Drop-time flush of the domain.
        let q = Qsbr::new();
        let gauge = q.metrics().deferred_depth.clone();
        let ran = StdArc::new(AtomicUsize::new(0));
        for i in 1..=4u64 {
            let c = StdArc::clone(&ran);
            let depth = q.defer(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
            assert_eq!(depth as u64, i, "defer reports the depth it leaves");
            assert_eq!(gauge.get(), i);
        }
        assert_eq!(gauge.high_water(), 4);
        q.synchronize();
        assert_eq!(gauge.get(), 0, "a grace period must drain the gauge");
        let c = StdArc::clone(&ran);
        q.defer(Box::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(gauge.get(), 1);
        drop(q);
        assert_eq!(ran.load(Ordering::SeqCst), 5, "drop must run callbacks");
        assert_eq!(gauge.get(), 0, "drop-time flush must zero the gauge");
        assert_eq!(gauge.high_water(), 4);
    }

    #[test]
    fn drain_barrier_waits_for_inflight_fast_section() {
        let q = StdArc::new(Qsbr::new());
        q.resume_bias();
        let h = q.register();
        let entered = StdArc::new(AtomicBool::new(false));
        let release = StdArc::new(AtomicBool::new(false));
        let drained = StdArc::new(AtomicBool::new(false));

        let entered2 = StdArc::clone(&entered);
        let release2 = StdArc::clone(&release);
        let reader = thread::spawn(move || {
            let fast = h.try_fast().expect("biased domain");
            entered2.store(true, Ordering::SeqCst);
            while !release2.load(Ordering::SeqCst) {
                thread::sleep(Duration::from_millis(1));
            }
            drop(fast);
            drop(h);
        });
        while !entered.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(1));
        }
        let q2 = StdArc::clone(&q);
        let drained2 = StdArc::clone(&drained);
        let barrier = thread::spawn(move || {
            q2.drain_barrier();
            drained2.store(true, Ordering::SeqCst);
        });
        // The barrier must not complete while a fast section is in flight.
        thread::sleep(Duration::from_millis(30));
        assert!(!drained.load(Ordering::SeqCst));
        release.store(true, Ordering::SeqCst);
        barrier.join().unwrap();
        assert!(drained.load(Ordering::SeqCst));
        reader.join().unwrap();
        // Post-barrier the domain is unbiased until explicitly resumed.
        assert!(!q.biased());
    }

    #[test]
    fn biased_rcu_swap_is_safe_under_load() {
        use std::sync::atomic::AtomicPtr;

        // The full biased protocol under load: readers prefer fast sections
        // and fall back to classic ones while the writer is mid-swap; the
        // writer brackets every retire cycle with drain_barrier/resume_bias.
        let q = StdArc::new(Qsbr::new());
        q.resume_bias();
        let initial = Box::into_raw(Box::new(vec![1u64; 64]));
        let ptr = StdArc::new(AtomicPtr::new(initial));
        let stop = StdArc::new(AtomicBool::new(false));
        let fast_seen = StdArc::new(AtomicBool::new(false));

        let mut readers = Vec::new();
        for _ in 0..4 {
            let q = StdArc::clone(&q);
            let ptr = StdArc::clone(&ptr);
            let stop = StdArc::clone(&stop);
            let fast_seen = StdArc::clone(&fast_seen);
            readers.push(thread::spawn(move || {
                let h = q.register();
                let mut checksum = 0u64;
                let mut fast_hits = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    if let Some(fast) = h.try_fast() {
                        let p = ptr.load(Ordering::SeqCst);
                        // SAFETY: bias was observed inside the fast section,
                        // so no retire precedes the next drain barrier —
                        // which waits for this section to end.
                        let v = unsafe { &*p };
                        checksum = checksum.wrapping_add(v[0]);
                        fast_hits += 1;
                        drop(fast);
                        fast_seen.store(true, Ordering::SeqCst);
                    } else {
                        let guard = h.enter();
                        let p = ptr.load(Ordering::SeqCst);
                        // SAFETY: classic critical section; the writer waits
                        // a grace period before freeing.
                        let v = unsafe { &*p };
                        checksum = checksum.wrapping_add(v[0]);
                        drop(guard);
                    }
                }
                (checksum, fast_hits)
            }));
        }

        for gen in 2u64..30 {
            q.drain_barrier();
            let new = Box::into_raw(Box::new(vec![gen; 64]));
            let old = ptr.swap(new, Ordering::SeqCst);
            q.synchronize();
            // SAFETY: fast sections drained at the barrier and every classic
            // reader passed a quiescent state since the swap.
            unsafe { drop(Box::from_raw(old)) };
            q.resume_bias();
            // Give readers a window to actually take the fast path.
            thread::yield_now();
        }
        // On a host whose CPUs other tests share, every cycle above can
        // finish before a reader runs at all. The bias stays on after the
        // last `resume_bias`, so hold it until some reader reports a fast
        // section; the bound is long enough that only a bias that never
        // takes effect fails the assertion below.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !fast_seen.load(Ordering::SeqCst) && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::SeqCst);
        let mut total_fast = 0u64;
        for r in readers {
            let (_, fast_hits) = r.join().unwrap();
            total_fast += fast_hits;
        }
        assert!(total_fast > 0, "fast path should be taken between barriers");
        let last = ptr.load(Ordering::SeqCst);
        // SAFETY: all readers have exited.
        unsafe { drop(Box::from_raw(last)) };
    }
}

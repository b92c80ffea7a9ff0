//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so this shim provides
//! the subset of the `parking_lot` API the workspace uses — [`Mutex`],
//! [`RwLock`], and [`Condvar`] with non-poisoning guards — implemented on
//! top of `std::sync`. Poisoned locks are recovered transparently, matching
//! parking_lot's behaviour of not propagating panics through locks.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::TryLockError;
use std::time::Duration;

/// ThreadSanitizer sees only instrumented code, and without `-Zbuild-std`
/// std's futex locks are not: built with `--cfg wh_tsan`, [`Mutex`],
/// [`Condvar`] and [`RwLock`] tell it by hand that taking the lock, shared
/// or exclusive, acquires, and letting it go releases, the protected data's
/// address. Other builds compile these to nothing.
mod tsan {
    #[cfg(wh_tsan)]
    extern "C" {
        fn __tsan_acquire(addr: *mut std::ffi::c_void);
        fn __tsan_release(addr: *mut std::ffi::c_void);
    }

    /// The lock protecting `data` was just taken.
    #[inline(always)]
    pub fn acquire<T: ?Sized>(data: &T) {
        // SAFETY: the call only records a happens-before edge on the address.
        #[cfg(wh_tsan)]
        unsafe {
            __tsan_acquire((data as *const T).cast_mut().cast())
        }
        #[cfg(not(wh_tsan))]
        let _ = data;
    }

    /// The lock protecting `data` is about to be let go.
    #[inline(always)]
    pub fn release<T: ?Sized>(data: &T) {
        // SAFETY: as in `acquire`.
        #[cfg(wh_tsan)]
        unsafe {
            __tsan_release((data as *const T).cast_mut().cast())
        }
        #[cfg(not(wh_tsan))]
        let _ = data;
    }
}

/// A mutual-exclusion lock with parking_lot's non-poisoning API.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self.0.lock().unwrap_or_else(|e| e.into_inner());
        tsan::acquire(&*guard);
        MutexGuard(Some(guard))
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.0.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        tsan::acquire(&*guard);
        Some(MutexGuard(Some(guard)))
    }

    /// Returns a mutable reference to the protected value.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present")
    }
}

#[cfg(wh_tsan)]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // `None` only inside a condvar wait, which annotates for itself.
        if let Some(guard) = &self.0 {
            tsan::release(&**guard);
        }
    }
}

/// A reader-writer lock with parking_lot's non-poisoning API.
///
/// The protected value lives in an [`std::cell::UnsafeCell`] *beside* the lock word
/// (mirroring parking_lot's own layout) rather than inside
/// `std::sync::RwLock`, so the lock can expose parking_lot's
/// [`RwLock::data_ptr`] — the escape hatch seqlock-style readers use to
/// read the data without acquiring the lock, at their own risk.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    lock: std::sync::RwLock<()>,
    data: std::cell::UnsafeCell<T>,
}

// SAFETY: same bounds std::sync::RwLock<T> provides — exclusive access is
// mediated by `lock`, and `data_ptr` callers opt into unsafety explicitly.
unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
// SAFETY: see above.
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

/// RAII guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    _guard: std::sync::RwLockReadGuard<'a, ()>,
    data: &'a T,
}

/// RAII guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    _guard: std::sync::RwLockWriteGuard<'a, ()>,
    data: &'a mut T,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            lock: std::sync::RwLock::new(()),
            data: std::cell::UnsafeCell::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.shared(self.lock.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Acquires exclusive write access, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.exclusive(self.lock.write().unwrap_or_else(|e| e.into_inner()))
    }

    /// Attempts to acquire shared read access without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let guard = match self.lock.try_read() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(self.shared(guard))
    }

    /// Attempts to acquire exclusive write access without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let guard = match self.lock.try_write() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(self.exclusive(guard))
    }

    /// The read guard over `guard`, the shared lock just taken.
    fn shared<'a>(&'a self, guard: std::sync::RwLockReadGuard<'a, ()>) -> RwLockReadGuard<'a, T> {
        // SAFETY: the shared lock is held for the guard's lifetime.
        let data = unsafe { &*self.data.get() };
        tsan::acquire(data);
        RwLockReadGuard {
            _guard: guard,
            data,
        }
    }

    /// The write guard over `guard`, the exclusive lock just taken.
    fn exclusive<'a>(
        &'a self,
        guard: std::sync::RwLockWriteGuard<'a, ()>,
    ) -> RwLockWriteGuard<'a, T> {
        // SAFETY: the exclusive lock is held for the guard's lifetime.
        let data = unsafe { &mut *self.data.get() };
        tsan::acquire(data);
        RwLockWriteGuard {
            _guard: guard,
            data,
        }
    }

    /// Returns a mutable reference to the protected value.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Returns a raw pointer to the protected value **without locking**
    /// (parking_lot's `data_ptr`). The caller is responsible for ensuring
    /// any access through the pointer is synchronised some other way — e.g.
    /// a seqlock validation that discards everything read during a
    /// concurrent write.
    pub fn data_ptr(&self) -> *mut T {
        self.data.get()
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_tuple("RwLock").field(&*g).finish(),
            None => f.write_str("RwLock(<locked>)"),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.data
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.data
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.data
    }
}

// The guards' own drops run before their fields', so the release is
// recorded while the lock is still held.
#[cfg(wh_tsan)]
impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        tsan::release(self.data);
    }
}

#[cfg(wh_tsan)]
impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        tsan::release(self.data);
    }
}

/// Result of a timed wait on a [`Condvar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Returns `true` when the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable usable with [`MutexGuard`], parking_lot style
/// (waits take `&mut guard` instead of consuming it).
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self(std::sync::Condvar::new())
    }

    /// Blocks until notified, releasing the guard's lock while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present");
        tsan::release(&*inner);
        let inner = self.0.wait(inner).unwrap_or_else(|e| e.into_inner());
        tsan::acquire(&*inner);
        guard.0 = Some(inner);
    }

    /// Blocks until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard present");
        tsan::release(&*inner);
        let (inner, result) = match self.0.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(e) => {
                let (g, r) = e.into_inner();
                (g, r)
            }
        };
        tsan::acquire(&*inner);
        guard.0 = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn rwlock_data_ptr_bypasses_lock() {
        let l = RwLock::new(7u32);
        let p = l.data_ptr();
        // SAFETY: no concurrent writer exists in this test.
        assert_eq!(unsafe { *p }, 7);
        *l.write() += 1;
        assert_eq!(unsafe { *p }, 8);
        // The pointer stays valid while a read guard is held.
        let g = l.read();
        assert_eq!(unsafe { *p }, *g);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(r.timed_out());
    }

    #[test]
    fn condvar_notify_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }
}

//! Offline stand-in for the `crossbeam` crate.
//!
//! The build environment has no crates.io access, so this shim provides the
//! one piece the workspace uses: bounded channels under [`channel`],
//! implemented over `std::sync::mpsc::sync_channel`. Unlike crossbeam's, a
//! [`channel::Receiver`] is not `Clone`: every channel here has one
//! consumer, so it is std's receiver as it is, with no lock around it.

pub mod channel {
    use std::sync::mpsc;

    /// Error returned when the receiving side disconnected.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Like real crossbeam: Debug does not require `T: Debug` (the payload
    // is elided), so `Result::expect` works for any message type.
    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned when the sending side disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// The sending half of a bounded channel.
    pub struct Sender<T>(mpsc::SyncSender<T>, Tsan);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Self(self.0.clone(), self.1.clone())
        }
    }

    impl<T> Sender<T> {
        /// Blocks until the message is enqueued (or the receiver is gone).
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.1.release();
            self.0.send(value).map_err(|e| SendError(e.0))
        }
    }

    /// The receiving half of a bounded channel: its one consumer.
    pub struct Receiver<T>(mpsc::Receiver<T>, Tsan);

    impl<T> Receiver<T> {
        /// Blocks until a message arrives (or every sender is gone).
        pub fn recv(&self) -> Result<T, RecvError> {
            let value = self.0.recv().map_err(|_| RecvError)?;
            self.1.acquire();
            Ok(value)
        }

        /// Returns a message if one is immediately available.
        pub fn try_recv(&self) -> Result<T, RecvError> {
            let value = self.0.try_recv().map_err(|_| RecvError)?;
            self.1.acquire();
            Ok(value)
        }
    }

    /// Creates a bounded channel with capacity `cap`.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        let tsan = Tsan::default();
        (Sender(tx, tsan.clone()), Receiver(rx, tsan))
    }

    /// ThreadSanitizer sees only instrumented code, and without
    /// `-Zbuild-std` std's non-generic channel code is not: built with
    /// `--cfg wh_tsan`, a send releases and a receive acquires one address
    /// per channel, so a message orders what its sender did before it with
    /// what its receiver does after, whatever part of std hands it over.
    /// Other builds carry nothing here.
    #[derive(Clone, Default)]
    struct Tsan(#[cfg(wh_tsan)] std::sync::Arc<u8>);

    #[cfg(wh_tsan)]
    extern "C" {
        fn __tsan_acquire(addr: *mut std::ffi::c_void);
        fn __tsan_release(addr: *mut std::ffi::c_void);
    }

    impl Tsan {
        #[inline(always)]
        fn release(&self) {
            // SAFETY: the call only records a happens-before edge on the address.
            #[cfg(wh_tsan)]
            unsafe {
                __tsan_release(std::sync::Arc::as_ptr(&self.0).cast_mut().cast())
            }
        }

        #[inline(always)]
        fn acquire(&self) {
            // SAFETY: as in `release`.
            #[cfg(wh_tsan)]
            unsafe {
                __tsan_acquire(std::sync::Arc::as_ptr(&self.0).cast_mut().cast())
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_round_trip() {
            let (tx, rx) = bounded(4);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn bounded_capacity_blocks_until_drained() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let t = std::thread::spawn(move || tx.send(2).unwrap());
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            t.join().unwrap();
        }

        #[test]
        fn cross_thread_pipeline() {
            let (tx, rx) = bounded(8);
            let producer = std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let mut sum = 0;
            while let Ok(v) = rx.recv() {
                sum += v;
            }
            producer.join().unwrap();
            assert_eq!(sum, 4950);
        }
    }
}

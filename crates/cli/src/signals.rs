//! Dependency-free SIGINT/SIGTERM capture for graceful interruption.
//!
//! `detect` wants ^C to mean "stop at the next safe point, write the
//! partial cover, exit cleanly" rather than die mid-write.
//! The handler only stores the signal number in an atomic; a watcher
//! thread in the command turns it into a [`oca_graph::CancelToken`]
//! cancellation, and the driver unwinds through its normal cancellation
//! path. After the first signal the default disposition is restored, so
//! a second ^C kills the process even if the graceful path wedges.

#[cfg(unix)]
mod imp {
    // The only unsafe here is the libc `signal(2)` binding; the handler
    // body itself is async-signal-safe (one atomic store, one re-arm).
    #![allow(unsafe_code)]

    use std::sync::atomic::{AtomicI32, Ordering};

    static PENDING: AtomicI32 = AtomicI32::new(0);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(signum: i32) {
        PENDING.store(signum, Ordering::SeqCst);
        // SAFETY: `signal(2)` is on POSIX's async-signal-safe list, and
        // re-arming the *default* disposition takes no locks; the
        // arguments are a valid signal number and SIG_DFL.
        unsafe {
            signal(signum, SIG_DFL);
        }
    }

    /// Installs the graceful handler for SIGINT and SIGTERM.
    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `on_signal` is an `extern "C" fn(i32)` — exactly the
        // handler shape `signal(2)` expects — and it lives for the whole
        // program, so installing it cannot dangle.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    /// The captured signal's name, if one arrived.
    pub fn pending() -> Option<&'static str> {
        match PENDING.load(Ordering::SeqCst) {
            0 => None,
            SIGINT => Some("SIGINT"),
            SIGTERM => Some("SIGTERM"),
            _ => Some("signal"),
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No-op off Unix: runs are only interruptible by process kill.
    pub fn install() {}

    /// Never reports a signal off Unix.
    pub fn pending() -> Option<&'static str> {
        None
    }
}

pub use imp::{install, pending};

//! Cooperative cancellation: the shared token the engine, the parallel
//! sweep, and the simulators all observe.
//!
//! Rust threads cannot be killed, so a deadline or a Ctrl-C can only
//! reclaim a running cell if the cell *checks*. This module provides the
//! check in a form cheap enough for simulator hot paths:
//!
//! * [`CancelToken`] — a clonable handle around a shared atomic
//!   generation counter. `is_cancelled()` is two relaxed loads (the
//!   token's own generation plus the process-wide interrupt epoch), so
//!   checking every N line-accesses costs amortized O(1) and nothing on
//!   the untriggered path.
//! * [`install`]/[`current`] — a thread-local registration, so deeply
//!   nested code (a kernel inside a simulator inside a worker thread)
//!   reaches the ambient token without threading it through every
//!   signature. The engine installs a fresh token per attempt;
//!   [`crate::par`] propagates the caller's token into its workers.
//! * [`raise`] — the observation side: unwinds with a typed
//!   [`CancellationUnwind`] payload that the engine's existing
//!   `catch_unwind` containment converts into
//!   `EngineError::Cancelled { after_accesses, .. }`. The unwind is
//!   silenced in the panic hook, so a cancelled cell does not spray
//!   "thread panicked" noise over the sweep output.
//! * [`install_sigint_handler`] — Ctrl-C bumps the process-wide epoch
//!   (one atomic increment — async-signal-safe), which every live token
//!   born before the bump observes as [`CancelReason::Interrupt`]. A
//!   second Ctrl-C exits immediately with the resumable code 130.
//!
//! Tokens snapshot the interrupt epoch at creation, so work started
//! *after* an interrupt (e.g. a `--resume` in the same process image, or
//! an unrelated test in the same binary) is not retro-cancelled.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

/// How many line-accesses (or traffic charges) between token checks on
/// the simulator hot paths. Small enough that a fired deadline is
/// observed within microseconds of simulated work, large enough that the
/// check never shows up in a profile.
pub const CHECK_INTERVAL: u64 = 8192;

/// Process exit code for "interrupted, journal flushed, resumable" —
/// the conventional 128 + SIGINT(2).
pub const INTERRUPT_EXIT_CODE: i32 = 130;

/// Process-wide interrupt epoch. Bumped by the SIGINT handler (and by
/// [`interrupt_now`]); never reset. Tokens compare against the value
/// they were born under.
static PROCESS_GEN: AtomicU64 = AtomicU64::new(0);

/// Why a token fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// The watchdog's deadline expired. Retriable: the next attempt gets
    /// a fresh deadline.
    Deadline,
    /// The process was interrupted (Ctrl-C). Not retriable: the sweep is
    /// shutting down.
    Interrupt,
}

impl CancelReason {
    pub fn as_str(&self) -> &'static str {
        match self {
            CancelReason::Deadline => "deadline",
            CancelReason::Interrupt => "interrupt",
        }
    }
}

#[derive(Debug, Default)]
struct Shared {
    generation: AtomicU64,
    /// 0 = unset, 1 = Deadline, 2 = Interrupt.
    reason: AtomicU8,
}

/// Clonable cancellation handle. All clones share one generation
/// counter; any clone may fire it, every clone observes it.
#[derive(Clone, Debug)]
pub struct CancelToken {
    shared: Arc<Shared>,
    born_process: u64,
}

impl CancelToken {
    /// A fresh, unfired token bound to the current interrupt epoch.
    pub fn new() -> Self {
        CancelToken {
            shared: Arc::new(Shared::default()),
            born_process: PROCESS_GEN.load(Ordering::Relaxed),
        }
    }

    /// Fire the token. Idempotent; the first reason wins.
    pub fn cancel(&self, reason: CancelReason) {
        let code = match reason {
            CancelReason::Deadline => 1,
            CancelReason::Interrupt => 2,
        };
        let _ = self
            .shared
            .reason
            .compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
        self.shared.generation.fetch_add(1, Ordering::Release);
    }

    /// Two relaxed loads: the token's own generation and the process
    /// interrupt epoch relative to the token's birth.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.shared.generation.load(Ordering::Relaxed) != 0
            || PROCESS_GEN.load(Ordering::Relaxed) != self.born_process
    }

    /// The reason the token fired, if it has.
    pub fn reason(&self) -> Option<CancelReason> {
        match self.shared.reason.load(Ordering::Relaxed) {
            1 => Some(CancelReason::Deadline),
            2 => Some(CancelReason::Interrupt),
            _ if PROCESS_GEN.load(Ordering::Relaxed) != self.born_process => {
                Some(CancelReason::Interrupt)
            }
            _ => None,
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
    /// Countdown + cumulative counters for [`tick`]-based checkpoints
    /// (the `Traffic`/`ExplicitHier` paths, which have no per-object
    /// access clock to piggyback on).
    static TICK_BUDGET: Cell<u64> = const { Cell::new(CHECK_INTERVAL) };
    static TICK_TOTAL: Cell<u64> = const { Cell::new(0) };
}

/// Restores the previously installed token (if any) on drop.
pub struct InstallGuard {
    previous: Option<CancelToken>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.previous.take());
    }
}

/// Install `token` as this thread's ambient cancellation token. The
/// returned guard restores the previous token when dropped. The tick
/// counters reset, so `after_accesses` counts from this installation.
pub fn install(token: CancelToken) -> InstallGuard {
    let previous = CURRENT.with(|c| c.borrow_mut().replace(token));
    TICK_BUDGET.with(|b| b.set(CHECK_INTERVAL));
    TICK_TOTAL.with(|t| t.set(0));
    InstallGuard { previous }
}

/// The ambient token of this thread, if one is installed.
pub fn current() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// The current process interrupt epoch. Capture at the start of a unit
/// of work; [`interrupted_since`] tells you whether Ctrl-C arrived while
/// it ran.
pub fn process_generation() -> u64 {
    PROCESS_GEN.load(Ordering::Relaxed)
}

/// Whether the process was interrupted after `generation` was captured.
pub fn interrupted_since(generation: u64) -> bool {
    PROCESS_GEN.load(Ordering::Relaxed) != generation
}

/// Bump the process interrupt epoch — exactly what the SIGINT handler
/// does. Every live token born before this call observes
/// [`CancelReason::Interrupt`]. Exposed for the harness and for tests
/// that simulate Ctrl-C in-process.
pub fn interrupt_now() {
    PROCESS_GEN.fetch_add(1, Ordering::SeqCst);
}

/// The payload [`raise`] unwinds with. The engine's `catch_unwind`
/// containment downcasts to this and produces
/// `EngineError::Cancelled { after_accesses, .. }` instead of
/// `Panicked` — cancellation is control flow, not a crash.
#[derive(Debug)]
pub struct CancellationUnwind {
    /// Accesses the observing counter had performed when the token was
    /// seen (the simulator clock, or the tick total).
    pub after_accesses: u64,
    pub reason: CancelReason,
}

/// Suppress the default "thread panicked" hook output for cancellation
/// unwinds. Installed once, on the first raise (the cold path), wrapping
/// whatever hook was active.
pub fn silence_cancellation_unwinds() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info
                .payload()
                .downcast_ref::<CancellationUnwind>()
                .is_none()
            {
                prev(info);
            }
        }));
    });
}

/// Unwind the current thread with a [`CancellationUnwind`]. Callers have
/// already observed a fired token; `after_accesses` is their access
/// count at observation.
pub fn raise(after_accesses: u64, reason: CancelReason) -> ! {
    silence_cancellation_unwinds();
    std::panic::panic_any(CancellationUnwind {
        after_accesses,
        reason,
    })
}

/// Checkpoint for counterless charge paths (`Traffic`, `ExplicitHier`,
/// `TraceMem`, `TraceTally`): accumulate `n` accesses on a thread-local
/// budget and check the ambient token every [`CHECK_INTERVAL`]. No-op
/// (one Cell arithmetic) when the budget has headroom; no-op entirely
/// when no token is installed.
#[inline]
pub fn tick(n: u64) {
    let due = TICK_BUDGET.with(|b| {
        let v = b.get();
        if v > n {
            b.set(v - n);
            false
        } else {
            b.set(CHECK_INTERVAL);
            true
        }
    });
    TICK_TOTAL.with(|t| t.set(t.get().saturating_add(n)));
    if due {
        check_now();
    }
}

/// Check the ambient token immediately; unwind if it has fired.
pub fn check_now() {
    if let Some(tok) = CURRENT.with(|c| c.borrow().clone()) {
        if tok.is_cancelled() {
            let total = TICK_TOTAL.with(|t| t.get());
            raise(total, tok.reason().unwrap_or(CancelReason::Interrupt));
        }
    }
}

/// Sleep for `total`, checking the ambient token every ~10 ms — the
/// cooperative replacement for `std::thread::sleep` in injected stalls,
/// so a stalled cell still honors its deadline by *joining*, not by
/// being detached.
pub fn sleep_cooperatively(total: Duration) {
    const SLICE: Duration = Duration::from_millis(10);
    let t0 = std::time::Instant::now();
    loop {
        check_now();
        let elapsed = t0.elapsed();
        if elapsed >= total {
            return;
        }
        std::thread::sleep(SLICE.min(total - elapsed));
    }
}

// Raw FFI: the offline build has no libc crate, and installing a SIGINT
// handler needs exactly two libc symbols. Linux-only, like the rest of
// the harness's /proc-based introspection.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn _exit(code: i32) -> !;
}

const SIGINT: i32 = 2;

extern "C" fn sigint_handler(_sig: i32) {
    // First Ctrl-C: bump the epoch (lock-free atomic — signal-safe) and
    // let the harness drain, journal, and exit 130. Second Ctrl-C: the
    // user means now.
    if PROCESS_GEN.fetch_add(1, Ordering::SeqCst) >= 1 {
        unsafe { _exit(INTERRUPT_EXIT_CODE) }
    }
}

/// Install the cooperative SIGINT handler: the first Ctrl-C cancels every
/// live token via the process epoch, the second exits immediately with
/// [`INTERRUPT_EXIT_CODE`].
pub fn install_sigint_handler() {
    unsafe {
        signal(SIGINT, sigint_handler as *const () as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_unfired_and_fires_once() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        t.cancel(CancelReason::Deadline);
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::Deadline));
        // First reason wins.
        t.cancel(CancelReason::Interrupt);
        assert_eq!(t.reason(), Some(CancelReason::Deadline));
    }

    #[test]
    fn clones_share_the_generation() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel(CancelReason::Deadline);
        assert!(t.is_cancelled());
    }

    #[test]
    fn install_is_scoped_and_nested() {
        assert!(current().is_none());
        let a = CancelToken::new();
        {
            let _g = install(a.clone());
            assert!(current().is_some());
            let b = CancelToken::new();
            b.cancel(CancelReason::Deadline);
            {
                let _g2 = install(b);
                assert!(current().unwrap().is_cancelled());
            }
            // Inner guard restored the outer (unfired) token.
            assert!(!current().unwrap().is_cancelled());
        }
        assert!(current().is_none());
    }

    #[test]
    fn tick_unwinds_with_the_access_count() {
        let t = CancelToken::new();
        let _g = install(t.clone());
        t.cancel(CancelReason::Deadline);
        let unwound = std::panic::catch_unwind(|| {
            // Budget forces a check within CHECK_INTERVAL + 1 ticks.
            for _ in 0..=CHECK_INTERVAL {
                tick(1);
            }
        })
        .unwrap_err();
        let c = unwound
            .downcast_ref::<CancellationUnwind>()
            .expect("typed cancellation payload");
        assert_eq!(c.reason, CancelReason::Deadline);
        assert!(
            c.after_accesses >= CHECK_INTERVAL - 1,
            "{}",
            c.after_accesses
        );
    }

    #[test]
    fn tick_without_token_never_unwinds() {
        for _ in 0..3 * CHECK_INTERVAL {
            tick(1);
        }
    }

    #[test]
    fn cooperative_sleep_observes_the_token_quickly() {
        let t = CancelToken::new();
        let _g = install(t.clone());
        t.cancel(CancelReason::Deadline);
        let t0 = std::time::Instant::now();
        let r = std::panic::catch_unwind(|| sleep_cooperatively(Duration::from_secs(30)));
        assert!(r.is_err(), "fired token must cut the sleep short");
        assert!(t0.elapsed() < Duration::from_secs(5));
    }
}

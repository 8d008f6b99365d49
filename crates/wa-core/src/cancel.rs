//! Cooperative cancellation: the shared token the engine, the parallel
//! sweep, the simulators and the explicit tallies all observe.
//!
//! Rust threads cannot be killed, so a deadline or a Ctrl-C can only
//! reclaim a running cell if the cell *checks*. Every backend counts the
//! words it moves on one clock and checks the token every
//! [`CHECK_INTERVAL`] words:
//!
//! * [`CancelToken`] — a clonable handle carrying the attempt's deadline
//!   (if any), a shared fired flag, and the process interrupt epoch it
//!   was born under. [`CancelToken::reason`] compares `Instant::now()`
//!   with the deadline, so an expired deadline is seen at the first
//!   checkpoint after it, with no other thread involved. An interrupt
//!   outranks a deadline, so a Ctrl-C'd cell never reads as timed out.
//! * [`CancelPoll`] — the per-object checkpoint for charge paths that own
//!   an access clock (`MemSim`, `StackSim`, `RawMem`): it captures the
//!   ambient token at construction and costs one compare per charge.
//! * [`tick`] — the same checkpoint on a thread-local clock, for charge
//!   paths that are plain counters (`Traffic`, `TraceMem`, `TraceTally`,
//!   `parallel::Machine`).
//! * [`install`]/[`current`] — a thread-local registration, so deeply
//!   nested code (a kernel inside a simulator inside a worker thread)
//!   reaches the ambient token without threading it through every
//!   signature. The engine installs a fresh token per attempt;
//!   [`crate::par`] propagates the caller's token into its workers.
//! * `raise` — the observation side: unwinds with a typed
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
use std::time::{Duration, Instant};

/// How many words (line-accesses, traffic words, raw-memory run words)
/// between token checks on the charge paths. Small enough that an
/// expired deadline is observed within microseconds of work, large
/// enough that the check never shows up in a profile.
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
    /// The attempt's deadline expired.
    Deadline,
    /// The process was interrupted (Ctrl-C): the sweep is shutting down.
    Interrupt,
}

impl CancelReason {
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            CancelReason::Deadline => "deadline",
            CancelReason::Interrupt => "interrupt",
        }
    }
}

/// [`CancelToken::cancel`] codes in the shared fired flag.
const UNFIRED: u8 = 0;
const FIRED_DEADLINE: u8 = 1;
const FIRED_INTERRUPT: u8 = 2;

/// Clonable cancellation handle. All clones share one fired flag and one
/// deadline; any clone may fire it, every clone observes it.
#[derive(Clone, Debug)]
pub struct CancelToken {
    fired: Arc<AtomicU8>,
    born_process: u64,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, unfired token with no deadline, bound to the current
    /// interrupt epoch.
    pub fn new() -> Self {
        CancelToken {
            fired: Arc::new(AtomicU8::new(UNFIRED)),
            born_process: PROCESS_GEN.load(Ordering::Relaxed),
            deadline: None,
        }
    }

    /// A fresh token that reads as cancelled ([`CancelReason::Deadline`])
    /// from `deadline` on.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            deadline: Some(deadline),
            ..CancelToken::new()
        }
    }

    /// Fire the token. Idempotent; the first reason wins.
    pub fn cancel(&self, reason: CancelReason) {
        let code = match reason {
            CancelReason::Deadline => FIRED_DEADLINE,
            CancelReason::Interrupt => FIRED_INTERRUPT,
        };
        // Relaxed: the flag publishes no other data, and a checkpoint
        // only needs to see it eventually.
        let _ = self
            .fired
            .compare_exchange(UNFIRED, code, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Whether the token has fired, the process was interrupted since
    /// its birth, or its deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.reason().is_some()
    }

    /// Why the token reads as cancelled, if it does. An interrupt
    /// outranks a deadline: a cell cut by Ctrl-C after its deadline
    /// passed reports `Interrupt`.
    pub fn reason(&self) -> Option<CancelReason> {
        let fired = self.fired.load(Ordering::Relaxed);
        if fired == FIRED_INTERRUPT || interrupted_since(self.born_process) {
            Some(CancelReason::Interrupt)
        } else if fired == FIRED_DEADLINE || self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(CancelReason::Deadline)
        } else {
            None
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// The checkpoint of a charge path that owns its access clock: the
/// ambient token captured at construction, and the clock value at which
/// it is next checked (`u64::MAX` when no token is installed, so the hot
/// path pays one predictable compare and never polls).
#[derive(Debug)]
pub struct CancelPoll {
    token: Option<CancelToken>,
    next: u64,
}

impl CancelPoll {
    /// Capture this thread's ambient token (see [`install`]); the first
    /// check is due after [`CHECK_INTERVAL`] words.
    pub fn new() -> Self {
        let token = current();
        let next = if token.is_some() {
            CHECK_INTERVAL
        } else {
            u64::MAX
        };
        CancelPoll { token, next }
    }

    /// The owner's clock now reads `clock` (words moved so far): check
    /// the token if a check is due, unwinding with `clock` as the
    /// cancellation point if it has fired.
    #[inline]
    pub fn at(&mut self, clock: u64) {
        if clock >= self.next {
            self.check(clock);
        }
    }

    #[cold]
    #[inline(never)]
    fn check(&mut self, clock: u64) {
        self.next = clock.saturating_add(CHECK_INTERVAL);
        if let Some(reason) = self.token.as_ref().and_then(CancelToken::reason) {
            raise(clock, reason);
        }
    }
}

impl Default for CancelPoll {
    fn default() -> Self {
        CancelPoll::new()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
    /// The thread-local clock behind [`tick`]: words ticked since the
    /// last [`install`], and the count at which the token is next
    /// checked — the [`CancelPoll`] scheme for charge paths that are
    /// plain counters with no object to own a clock.
    static TICK_CLOCK: Cell<u64> = const { Cell::new(0) };
    static TICK_NEXT: Cell<u64> = const { Cell::new(CHECK_INTERVAL) };
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
/// returned guard restores the previous token when dropped. The
/// thread-local [`tick`] clock resets, so `after_accesses` counts from
/// this installation.
pub fn install(token: CancelToken) -> InstallGuard {
    let previous = CURRENT.with(|c| c.borrow_mut().replace(token));
    TICK_CLOCK.with(|c| c.set(0));
    TICK_NEXT.with(|n| n.set(CHECK_INTERVAL));
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

/// The payload `raise` unwinds with. The engine's `catch_unwind`
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
pub(crate) fn silence_cancellation_unwinds() {
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
pub(crate) fn raise(after_accesses: u64, reason: CancelReason) -> ! {
    silence_cancellation_unwinds();
    std::panic::panic_any(CancellationUnwind {
        after_accesses,
        reason,
    })
}

/// Checkpoint for charge paths that are plain counters (`Traffic`,
/// `TraceMem`, `TraceTally`, `parallel::Machine`): advance the thread-local clock by `n` words
/// and check the ambient token every [`CHECK_INTERVAL`] words. One Cell
/// update and a compare when no check is due; a check with no token
/// installed does nothing.
#[inline]
pub fn tick(n: u64) {
    let clock = TICK_CLOCK.with(|c| {
        let v = c.get().saturating_add(n);
        c.set(v);
        v
    });
    if clock >= TICK_NEXT.with(Cell::get) {
        TICK_NEXT.with(|next| next.set(clock.saturating_add(CHECK_INTERVAL)));
        check_now();
    }
}

/// Check the ambient token immediately; unwind with the thread-local
/// [`tick`] clock as the cancellation point if it reads as cancelled.
pub(crate) fn check_now() {
    let reason = CURRENT.with(|c| c.borrow().as_ref().and_then(CancelToken::reason));
    if let Some(reason) = reason {
        raise(TICK_CLOCK.with(Cell::get), reason);
    }
}

/// Sleep for `total`, checking the ambient token every ~10 ms — the
/// cooperative replacement for `std::thread::sleep` in injected stalls,
/// so a stalled cell still ends as `Cancelled` within a slice of its
/// deadline.
pub(crate) fn sleep_cooperatively(total: Duration) {
    const SLICE: Duration = Duration::from_millis(10);
    let t0 = Instant::now();
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
    fn deadline_reads_as_cancelled_once_it_passes() {
        let later = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert_eq!(later.reason(), None);
        let passed = CancelToken::with_deadline(Instant::now());
        assert_eq!(passed.reason(), Some(CancelReason::Deadline));
        // Clones share the deadline.
        assert!(passed.clone().is_cancelled());
    }

    #[test]
    fn poll_unwinds_within_one_interval_with_its_owners_clock() {
        let _g = install(CancelToken::with_deadline(Instant::now()));
        let mut poll = CancelPoll::new();
        poll.at(CHECK_INTERVAL - 1); // no check due yet
        let unwound = std::panic::catch_unwind(move || poll.at(CHECK_INTERVAL + 5)).unwrap_err();
        let c = unwound
            .downcast_ref::<CancellationUnwind>()
            .expect("typed cancellation payload");
        assert_eq!(c.reason, CancelReason::Deadline);
        assert_eq!(c.after_accesses, CHECK_INTERVAL + 5);
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

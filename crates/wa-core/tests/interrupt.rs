//! Process-wide interrupt semantics (the in-process equivalent of
//! Ctrl-C), isolated in their own test binary: bumping the process
//! interrupt epoch poisons every token born earlier in the *same*
//! process, so these tests cannot share a binary with the rest of the
//! cancellation suite.

use std::time::Instant;
use wa_core::cancel::{self, CancelReason, CancelToken};
use wa_core::engine::{BackendKind, EngineError, RunCfg, RunLimits, Workload};
use wa_core::{Registry, Scale};

/// One test drives the whole lifecycle so the epoch bumps are ordered:
/// tokens born before an interrupt observe it (with the non-retriable
/// `Interrupt` reason), tokens born after do not, and the engine's retry
/// loop refuses to burn retries once the interrupt arrives mid-dispatch.
#[test]
fn interrupt_cancels_prior_tokens_and_suppresses_engine_retries() {
    // --- token-level semantics -----------------------------------------
    let before = CancelToken::new();
    let expired = CancelToken::with_deadline(Instant::now());
    let gen0 = cancel::process_generation();
    assert!(!before.is_cancelled());
    assert_eq!(expired.reason(), Some(CancelReason::Deadline));
    assert!(!cancel::interrupted_since(gen0));

    cancel::interrupt_now();

    assert!(cancel::interrupted_since(gen0));
    assert!(before.is_cancelled(), "pre-interrupt tokens must fire");
    assert_eq!(before.reason(), Some(CancelReason::Interrupt));
    // An interrupt outranks a passed deadline, so Ctrl-C never reads as
    // a retriable deadline.
    assert_eq!(expired.reason(), Some(CancelReason::Interrupt));

    // A token born after the interrupt is clean: new work (a --resume
    // run) is not poisoned by a stale epoch.
    let after = CancelToken::new();
    assert!(!after.is_cancelled());
    assert_eq!(after.reason(), None);

    // Interrupt cancellation is not retriable — retrying Ctrl-C'd work
    // would fight the user.
    let e = EngineError::Cancelled {
        workload: "w".to_string(),
        reason: CancelReason::Interrupt,
        after_accesses: 0,
        elapsed: std::time::Duration::ZERO,
    };
    assert!(!e.is_retriable());
    let e = EngineError::Cancelled {
        workload: "w".to_string(),
        reason: CancelReason::Deadline,
        after_accesses: 0,
        elapsed: std::time::Duration::ZERO,
    };
    assert!(e.is_retriable(), "deadline cancellations stay retriable");

    // --- engine retry loop ---------------------------------------------
    // The workload panics every invocation and *also* interrupts the
    // process on the first one. With a 3-retry budget the engine would
    // normally attempt 4 times; the mid-dispatch interrupt must cap it
    // at the one attempt already made.
    let mut reg = Registry::new();
    reg.register(Workload::new(
        "interruptive",
        "test",
        "interrupts the process then panics",
        &[BackendKind::Raw],
        |_, _| 1 << 30,
        |_| {
            cancel::interrupt_now();
            panic!("boom");
        },
    ));
    let cfg = RunCfg::new(BackendKind::Raw, Scale::Small).with_limits(RunLimits::new(None, 3));
    let (res, attempts) = reg.run_cfg_traced("interruptive", cfg);
    assert!(res.is_err());
    assert_eq!(
        attempts, 1,
        "an interrupt arriving mid-dispatch must suppress further retries"
    );
}

//! Process-wide interrupt semantics (the in-process equivalent of
//! Ctrl-C), isolated in their own test binary: bumping the process
//! interrupt epoch poisons every token born earlier in the *same*
//! process, so these tests cannot share a binary with the rest of the
//! cancellation suite.

use std::time::{Duration, Instant};
use wa_core::cancel::{self, CancelReason, CancelToken};
use wa_core::engine::{BackendKind, EngineError, RunCfg, Workload};
use wa_core::{Registry, Scale};

/// One test drives the whole lifecycle so the epoch bumps are ordered:
/// tokens born before an interrupt observe it (with the `Interrupt`
/// reason, which outranks a passed deadline), tokens born after do not,
/// and an engine dispatch interrupted after its deadline passed reports
/// `Interrupt`, not `Deadline`.
#[test]
fn interrupt_cancels_prior_tokens_and_outranks_a_dispatch_deadline() {
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
    // a deadline.
    assert_eq!(expired.reason(), Some(CancelReason::Interrupt));

    // A token born after the interrupt is clean: new work (a --resume
    // run) is not poisoned by a stale epoch.
    let after = CancelToken::new();
    assert!(!after.is_cancelled());
    assert_eq!(after.reason(), None);

    // --- engine dispatch -----------------------------------------------
    // The workload outlives its 1 ms deadline without a checkpoint, then
    // interrupts the process: the first checkpoint after that sees both,
    // and the cell is cancelled for the interrupt.
    let mut reg = Registry::new();
    reg.register(Workload::new(
        "interruptive",
        "test",
        "interrupts the process after its deadline passed",
        &[BackendKind::Raw],
        |_| {
            std::thread::sleep(Duration::from_millis(20));
            cancel::interrupt_now();
            loop {
                cancel::tick(1);
            }
        },
    ));
    let cfg =
        RunCfg::new(BackendKind::Raw, Scale::Small).with_timeout(Some(Duration::from_millis(1)));
    match reg.run_cfg("interruptive", cfg) {
        Err(EngineError::Cancelled { reason, .. }) => assert_eq!(reason, CancelReason::Interrupt),
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

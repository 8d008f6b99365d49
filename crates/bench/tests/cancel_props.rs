//! Property tests for cooperative cancellation inside the simulators:
//! firing the ambient token at an *arbitrary* access count always
//! surfaces as a typed `Cancelled` error — never a completed report,
//! never a leaked panic — and the cancellation point lands within one
//! check interval of the firing access, on the word-level cache
//! simulator (`MemSim`), the stack-distance simulator (`StackSim`) and
//! the streaming `traced` tally (`TraceTally`), each driven through a
//! `SimMem`.

use memsim::{MemSim, SimMem, StackSim, TraceTally};
use proptest::prelude::*;
use wa_core::cancel::{self, CHECK_INTERVAL};
use wa_core::engine::{
    BackendKind, EngineError, FnWorkload, RunCfg, Workload, DEFAULT_FOOTPRINT_BYTES,
};
use wa_core::report::RunReport;
use wa_core::{CancelReason, Registry, Scale};

/// Words the driven simulators hold; large enough that every access in
/// the loop below is in range.
const WORDS: usize = 4 * CHECK_INTERVAL as usize;

/// A workload that performs simulator accesses forever-ish, firing the
/// ambient cancel token after `fire_at` accesses. If cancellation were
/// lost it would finish all `total` accesses and return Ok — the
/// property rejects that.
fn driven_workload(fire_at: u64) -> Box<dyn Workload> {
    let total = fire_at + 3 * CHECK_INTERVAL;
    FnWorkload::boxed(
        "cancel-prop",
        "test",
        "fires the ambient token mid-simulation",
        &[BackendKind::Simmed, BackendKind::Stack, BackendKind::Traced],
        &[],
        |_, _| DEFAULT_FOOTPRINT_BYTES,
        move |cfg: RunCfg| {
            let drive = |ld: &mut dyn FnMut(usize) -> f64| {
                for i in 0..total {
                    if i == fire_at {
                        cancel::current()
                            .expect("engine must install a token")
                            .cancel(CancelReason::Deadline);
                    }
                    ld((i as usize) % WORDS);
                }
            };
            match cfg.backend {
                BackendKind::Simmed => {
                    let sim = MemSim::single_level_lru(256);
                    let mut mem = SimMem::from_vec(vec![0.0; WORDS], sim);
                    drive(&mut |i| memsim::Mem::ld(&mut mem, i));
                }
                BackendKind::Stack => {
                    let mut mem = SimMem::from_vec(vec![0.0; WORDS], StackSim::new());
                    drive(&mut |i| memsim::Mem::ld(&mut mem, i));
                }
                BackendKind::Traced => {
                    let tally = TraceTally::with_span(WORDS);
                    let mut mem = SimMem::from_vec(vec![0.0; WORDS], tally);
                    drive(&mut |i| memsim::Mem::ld(&mut mem, i));
                }
                other => unreachable!("undeclared backend {other}"),
            }
            Ok(RunReport::new("cancel-prop", cfg.backend, cfg.scale))
        },
    )
}

fn assert_cancels(
    backend: BackendKind,
    fire_at: u64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut reg = Registry::new();
    reg.register(driven_workload(fire_at));
    let res = reg.run_cfg("cancel-prop", RunCfg::new(backend, Scale::Small));
    match res {
        Err(EngineError::Cancelled {
            reason,
            after_accesses,
            ..
        }) => {
            prop_assert_eq!(reason, CancelReason::Deadline);
            // The simulators check the token at least every
            // CHECK_INTERVAL accesses, so the reported cancellation
            // point is after the firing access but within one interval
            // of it (plus the simulator's own pre-fire accesses — the
            // access clocks start together here).
            prop_assert!(
                after_accesses >= fire_at,
                "cancelled before the token fired: {} < {}",
                after_accesses,
                fire_at
            );
            prop_assert!(
                after_accesses <= fire_at + 2 * CHECK_INTERVAL,
                "stale cancellation point: {} for fire_at {}",
                after_accesses,
                fire_at
            );
            Ok(())
        }
        Err(other) => {
            prop_assert!(false, "expected Cancelled, got {:?}", other);
            Ok(())
        }
        Ok(_) => {
            prop_assert!(false, "a fired token must never yield a completed report");
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn firing_at_any_access_count_cancels_the_simmed_backend(fire_at in 0u64..20_000) {
        assert_cancels(BackendKind::Simmed, fire_at)?;
    }

    #[test]
    fn firing_at_any_access_count_cancels_the_stack_backend(fire_at in 0u64..20_000) {
        assert_cancels(BackendKind::Stack, fire_at)?;
    }

    #[test]
    fn firing_at_any_access_count_cancels_the_traced_backend(fire_at in 0u64..20_000) {
        assert_cancels(BackendKind::Traced, fire_at)?;
    }
}

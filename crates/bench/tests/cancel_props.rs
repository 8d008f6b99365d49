//! Property tests for cooperative cancellation on every charge path:
//! firing the ambient token at an *arbitrary* access count always
//! surfaces as a typed `Cancelled` error — never a completed report,
//! never a leaked panic — and the cancellation point lands within one
//! check interval of the firing access, on the word-level cache
//! simulator (`MemSim`), the stack-distance simulator (`StackSim`) and
//! the streaming `traced` tally (`TraceTally`), each driven through a
//! `SimMem`, on `RawMem` driven through its runs, and on the explicit
//! model's `Traffic` word charges. The two simulators are also driven
//! with a block re-read in order, where each pass is one long in-order
//! stretch that they count in one step.

use memsim::{Mem, MemSim, RawMem, SimMem, StackSim, TraceTally};
use proptest::prelude::*;
use wa_core::cancel::{self, CHECK_INTERVAL};
use wa_core::engine::{BackendKind, EngineError, RunCfg, Workload};
use wa_core::report::RunReport;
use wa_core::{CancelReason, Registry, Scale, Traffic};

/// Words the driven simulators hold; large enough that every access in
/// the loop below is in range.
const WORDS: usize = 4 * CHECK_INTERVAL as usize;

/// Words of the block [`reread_block`] reads per pass: 24 lines, which
/// the simmed cache (32 lines) holds.
const BLOCK: usize = 192;

/// Read one block over and over in order, one run per pass, until
/// `total` accesses, firing the ambient token before the first pass
/// that starts at `fire_at` accesses or later. After the first pass,
/// each pass is one in-order stretch.
fn reread_block(mem: &mut dyn Mem, fire_at: u64, total: u64) {
    let mut buf = [0.0; BLOCK];
    let mut done = 0;
    let mut fired = false;
    while done < total {
        if done >= fire_at && !fired {
            cancel::current()
                .expect("engine must install a token")
                .cancel(CancelReason::Deadline);
            fired = true;
        }
        mem.ld_run(0, &mut buf);
        done += BLOCK as u64;
    }
}

/// A workload that performs simulator accesses forever-ish, firing the
/// ambient cancel token after `fire_at` accesses. If cancellation were
/// lost it would finish all `total` accesses and return Ok — the
/// property rejects that. With `stretches`, the simulators read through
/// [`reread_block`] instead.
fn driven_workload(fire_at: u64, stretches: bool) -> Workload {
    let total = fire_at + 3 * CHECK_INTERVAL;
    Workload::new(
        "cancel-prop",
        "test",
        "fires the ambient token mid-simulation",
        &[
            BackendKind::Simmed,
            BackendKind::Stack,
            BackendKind::Traced,
            BackendKind::Raw,
            BackendKind::Explicit,
        ],
        &[],
        |_, _| 1 << 30,
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
                BackendKind::Simmed if stretches => {
                    let sim = MemSim::single_level_lru(256);
                    let mut mem = SimMem::from_vec(vec![0.0; WORDS], sim);
                    reread_block(&mut mem, fire_at, total);
                }
                BackendKind::Stack if stretches => {
                    let mut mem = SimMem::from_vec(vec![0.0; WORDS], StackSim::new());
                    reread_block(&mut mem, fire_at, total);
                }
                BackendKind::Simmed => {
                    let sim = MemSim::single_level_lru(256);
                    let mut mem = SimMem::from_vec(vec![0.0; WORDS], sim);
                    drive(&mut |i| mem.ld(i));
                }
                BackendKind::Stack => {
                    let mut mem = SimMem::from_vec(vec![0.0; WORDS], StackSim::new());
                    drive(&mut |i| mem.ld(i));
                }
                BackendKind::Traced => {
                    let tally = TraceTally::with_span(WORDS);
                    let mut mem = SimMem::from_vec(vec![0.0; WORDS], tally);
                    drive(&mut |i| mem.ld(i));
                }
                BackendKind::Raw => {
                    let mut mem = RawMem::from_vec(vec![0.0; WORDS]);
                    drive(&mut |i| {
                        let mut out = [0.0];
                        mem.ld_run(i, &mut out);
                        out[0]
                    });
                }
                BackendKind::Explicit => {
                    let mut traffic = Traffic::ZERO;
                    drive(&mut |_| {
                        traffic.load(1);
                        0.0
                    });
                }
            }
            Ok(RunReport::new("cancel-prop", cfg.backend, cfg.scale))
        },
    )
}

fn assert_cancels(
    backend: BackendKind,
    fire_at: u64,
    stretches: bool,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut reg = Registry::new();
    reg.register(driven_workload(fire_at, stretches));
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
        assert_cancels(BackendKind::Simmed, fire_at, false)?;
    }

    #[test]
    fn firing_at_any_access_count_cancels_the_stack_backend(fire_at in 0u64..20_000) {
        assert_cancels(BackendKind::Stack, fire_at, false)?;
    }

    #[test]
    fn firing_at_any_access_count_cancels_the_traced_backend(fire_at in 0u64..20_000) {
        assert_cancels(BackendKind::Traced, fire_at, false)?;
    }

    #[test]
    fn firing_at_any_access_count_cancels_the_raw_backend(fire_at in 0u64..20_000) {
        assert_cancels(BackendKind::Raw, fire_at, false)?;
    }

    #[test]
    fn firing_at_any_access_count_cancels_the_explicit_backend(fire_at in 0u64..20_000) {
        assert_cancels(BackendKind::Explicit, fire_at, false)?;
    }

    #[test]
    fn firing_at_any_access_count_cancels_simmed_stretches(fire_at in 0u64..20_000) {
        assert_cancels(BackendKind::Simmed, fire_at, true)?;
    }

    #[test]
    fn firing_at_any_access_count_cancels_stack_stretches(fire_at in 0u64..20_000) {
        assert_cancels(BackendKind::Stack, fire_at, true)?;
    }
}

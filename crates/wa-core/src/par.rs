//! Scoped-thread parallel map for scenario sweeps.
//!
//! The build environment is offline, so rayon is unavailable; this is the
//! few-dozen-line subset the harness needs — a work-stealing `par_map`
//! over a slice using `std::thread::scope` and an atomic work index.
//! Order of results matches the input order.
//!
//! Two entry points share one engine:
//!
//! * [`par_map_fallible`] — every item runs under
//!   [`std::panic::catch_unwind`]; a panicking closure costs *that item
//!   only* (its slot becomes `Err(payload)`), the worker thread moves on
//!   to the next item, and the other items' results are returned intact.
//! * [`par_map`] — the historical infallible API. A panic in any item is
//!   re-raised on the calling thread *after* the whole batch has drained,
//!   carrying the first panic's payload message.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `f` bracketed by worker-occupancy counter samples on the installed
/// [`crate::obs`] recorder (a `workers_busy` track in the trace). With no
/// recorder installed this is exactly `f()`.
fn with_occupancy<R>(busy: &AtomicUsize, f: impl FnOnce() -> R) -> R {
    match crate::obs::active() {
        None => f(),
        Some(rec) => {
            let n = busy.fetch_add(1, Ordering::Relaxed) + 1;
            rec.counter("workers_busy", &[("busy", n as u64)]);
            let r = f();
            let n = busy.fetch_sub(1, Ordering::Relaxed) - 1;
            rec.counter("workers_busy", &[("busy", n as u64)]);
            r
        }
    }
}

/// Number of workers to use when the caller does not care: the machine's
/// available parallelism, capped by the number of items.
pub fn default_threads(items: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items)
        .max(1)
}

/// Render a panic payload (the `Box<dyn Any>` from `catch_unwind`) as a
/// human-readable message. `panic!` with a literal yields `&'static str`;
/// `panic!` with a format string yields `String`; anything else is opaque.
pub(crate) fn panic_payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(c) = payload.downcast_ref::<crate::cancel::CancellationUnwind>() {
        format!(
            "cancelled ({}) after {} accesses",
            c.reason.as_str(),
            c.after_accesses
        )
    } else {
        "non-string panic payload".to_string()
    }
}

/// Apply `f` to every element of `items` on up to `threads` worker
/// threads, containing panics per item. Results come back in input order;
/// item `i` is `Err(message)` iff `f(&items[i])` panicked. A panic never
/// aborts the batch: the panicking worker catches it and continues with
/// the next unclaimed item.
pub fn par_map_fallible<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let guarded = |item: &T| -> Result<R, String> {
        std::panic::catch_unwind(AssertUnwindSafe(|| f(item))).map_err(panic_payload_message)
    };
    let workers = threads.clamp(1, n);
    let busy = AtomicUsize::new(0);
    if workers == 1 {
        return items
            .iter()
            .map(|item| with_occupancy(&busy, || guarded(item)))
            .collect();
    }

    let next = AtomicUsize::new(0);
    // Workers inherit the caller's cancel token (if any), so firing the
    // token cancels every item of the batch, not just the calling thread.
    let token = crate::cancel::current();
    let slots: Vec<Mutex<Option<Result<R, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        let (next, busy, slots, guarded) = (&next, &busy, &slots, &guarded);
        for _ in 0..workers {
            let token = token.clone();
            s.spawn(move || {
                let _guard = token.map(crate::cancel::install);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = with_occupancy(busy, || guarded(&items[i]));
                    *slots[i].lock().unwrap() = Some(r);
                }
            });
        }
        // Scope joins all workers; none can panic past `guarded`.
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker skipped a slot"))
        .collect()
}

/// Apply `f` to every element of `items` on up to `threads` worker
/// threads. Results are returned in input order. Panics in `f` propagate
/// to the caller — but only after every other item has finished, so a
/// panicking item no longer aborts the rest of the batch mid-flight.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let results = par_map_fallible(items, threads, f);
    let panics = results.iter().filter(|r| r.is_err()).count();
    results
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(msg) => panic!("par_map worker panicked ({panics} item(s) total): {msg}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all_items() {
        let items: Vec<usize> = (0..103).collect();
        let out = par_map(&items, 8, |&x| x * 2);
        assert_eq!(out, (0..103).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_and_empty_input() {
        assert_eq!(
            par_map::<usize, usize, _>(&[], 4, |&x| x),
            Vec::<usize>::new()
        );
        assert_eq!(par_map(&[5], 4, |&x| x + 1), vec![6]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = par_map(&[1, 2, 3], 64, |&x| x);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn default_threads_is_sane() {
        assert!(default_threads(100) >= 1);
        assert_eq!(default_threads(0), 1);
        assert!(default_threads(1) == 1);
    }

    #[test]
    fn fallible_contains_a_mid_batch_panic_to_its_item() {
        // Regression for the old `h.join().expect(...)` abort: item 13
        // panics on a worker thread mid-batch, yet every other item still
        // produces its result, in order.
        let items: Vec<usize> = (0..40).collect();
        let out = par_map_fallible(&items, 4, |&x| {
            if x == 13 {
                panic!("unlucky item {x}");
            }
            x * 10
        });
        assert_eq!(out.len(), 40);
        for (i, r) in out.iter().enumerate() {
            if i == 13 {
                let msg = r.as_ref().unwrap_err();
                assert!(msg.contains("unlucky item 13"), "{msg}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 10);
            }
        }
    }

    #[test]
    fn fallible_survives_multiple_panics_single_threaded() {
        let items: Vec<usize> = (0..6).collect();
        let out = par_map_fallible(&items, 1, |&x| {
            if x % 2 == 0 {
                panic!("even {x}");
            }
            x
        });
        let errs = out.iter().filter(|r| r.is_err()).count();
        assert_eq!(errs, 3);
        assert_eq!(*out[1].as_ref().unwrap(), 1);
    }

    #[test]
    fn infallible_map_reraises_with_payload() {
        let items = vec![1usize, 2, 3];
        let caught = std::panic::catch_unwind(|| {
            par_map(&items, 2, |&x| {
                if x == 2 {
                    panic!("boom on {x}");
                }
                x
            })
        });
        let msg = panic_payload_message(caught.unwrap_err());
        assert!(msg.contains("boom on 2"), "{msg}");
    }

    #[test]
    fn payload_message_handles_str_string_and_opaque() {
        let e = std::panic::catch_unwind(|| panic!("literal")).unwrap_err();
        assert_eq!(panic_payload_message(e), "literal");
        let n = 7;
        let e = std::panic::catch_unwind(move || panic!("formatted {n}")).unwrap_err();
        assert_eq!(panic_payload_message(e), "formatted 7");
        let e = std::panic::catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_payload_message(e), "non-string panic payload");
    }
}

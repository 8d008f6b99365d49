//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment is fully offline, so the real proptest cannot be
//! vendored. This shim implements the subset the in-tree property tests
//! use:
//!
//! * the [`proptest!`] macro with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(N))]` header and
//!   `fn name(pat in strategy, ...) { ... }` items;
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`];
//! * range strategies over the integer types and `f64`, tuple strategies,
//!   `any::<bool>()`, `prop::collection::vec`, and `prop::sample::select`.
//!
//! Generation is a deterministic xorshift stream seeded from the test name
//! and case index, so failures are reproducible run-to-run (the shim does
//! not implement shrinking; the failing inputs are printed instead).

pub mod strategy;
pub mod test_runner;

pub mod collection {
    pub use crate::strategy::vec;
}

pub mod sample {
    pub use crate::strategy::select;
}

pub mod prelude {
    pub use crate::strategy::{any, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};

    /// Mirrors `proptest::prelude::prop`, giving access to
    /// `prop::collection::vec` and `prop::sample::select`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// The `proptest!` macro: expands each `fn name(arg in strategy, ...)`
/// item into a `#[test]` (the `#[test]` attribute is written at the call
/// site and re-emitted) that runs `cases` deterministic iterations.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@expand ($cfg) $($rest)*);
    };
    (
        $(#[$meta:meta])*
        fn $($rest:tt)*
    ) => {
        $crate::proptest!(@expand ($crate::test_runner::ProptestConfig::default())
            $(#[$meta])* fn $($rest)*);
    };
    (@expand ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::test_runner::ProptestConfig = $cfg;
                let __test_name = concat!(module_path!(), "::", stringify!($name));
                let mut __ran: u32 = 0;
                let mut __case: u64 = 0;
                // Run until `cases` non-rejected executions (or a cap on
                // total attempts, mirroring proptest's rejection limit).
                while __ran < __cfg.cases {
                    assert!(
                        __case < 20 * __cfg.cases as u64 + 1000,
                        "proptest shim: too many rejected cases in {__test_name}"
                    );
                    let mut __rng =
                        $crate::test_runner::ShimRng::for_case(__test_name, __case);
                    __case += 1;
                    $(
                        let $arg =
                            $crate::strategy::Strategy::gen_value(&($strat), &mut __rng);
                    )+
                    let __inputs = {
                        let mut s = String::new();
                        $(
                            s.push_str(&format!(
                                "  {} = {:?}\n", stringify!($arg), &$arg
                            ));
                        )+
                        s
                    };
                    let __result: ::std::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (|| {
                        $body
                        Ok(())
                    })();
                    match __result {
                        Ok(()) => __ran += 1,
                        Err($crate::test_runner::TestCaseError::Reject) => {}
                        Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!(
                                "proptest case {} of {} failed: {}\ninputs:\n{}",
                                __case - 1, __test_name, msg, __inputs
                            );
                        }
                    }
                }
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)*)),
            );
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {} (left: {:?}, right: {:?})",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {} (left: {:?}, right: {:?}): {}",
            stringify!($left),
            stringify!($right),
            l,
            r,
            format!($($fmt)+)
        );
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::test_runner::TestCaseError;

    fn check(left: u64, right: u64) -> Result<(), TestCaseError> {
        prop_assert_eq!(left, right, "at {} block rows", 3);
        Ok(())
    }

    #[test]
    fn prop_assert_eq_takes_a_message_and_keeps_the_echo() {
        assert!(check(4, 4).is_ok());
        match check(4, 5) {
            Err(TestCaseError::Fail(msg)) => assert_eq!(
                msg,
                "assertion failed: left == right (left: 4, right: 5): at 3 block rows"
            ),
            other => panic!("expected a failure, got {other:?}"),
        }
    }
}

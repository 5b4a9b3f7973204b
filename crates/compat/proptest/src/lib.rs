//! In-tree stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this crate
//! implements the slice of the proptest API the workspace's property
//! tests use: the [`Strategy`](strategy::Strategy) trait with `prop_map`, range and tuple
//! strategies, `Just`, `prop_oneof!`, `prop::collection::vec`,
//! `prop::option::of`, `any::<T>()`, the `proptest!` macro with
//! `#![proptest_config(..)]`, and the `prop_assert*` macros.
//!
//! Semantics differ from real proptest in one important way: failing
//! cases are **not shrunk** — the harness reports the first failing
//! input as-is. Generation is deterministic per test (the RNG is
//! seeded from the test name), so failures reproduce across runs.

pub mod arbitrary;
pub mod collection;
pub mod option;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
    // Real proptest exposes `ProptestConfig` via `prelude::prop` re-exports
    // as well; tests name it unqualified, so re-export it here too.
    pub use crate::test_runner::Config as ProptestConfig;

    pub mod prop {
        //! The `prop::` namespace (`prop::collection::vec`, ...).
        pub use crate::collection;
        pub use crate::option;
    }
}

/// Chooses uniformly between several strategies with the same value
/// type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Fails the current test case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current test case unless both expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)+);
    }};
}

/// Fails the current test case if both expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ..) { .. }`
/// becomes a `#[test]` running the body over many sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!($config; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!($crate::test_runner::Config::default(); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($config:expr;) => {};
    (
        $config:expr;
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $config;
            let mut rng = $crate::test_runner::TestRng::for_test(stringify!($name));
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::sample(&($strategy), &mut rng);)+
                let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                if let ::core::result::Result::Err(err) = outcome {
                    panic!(
                        "proptest `{}` failed at case {}/{} (no shrinking): {}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        err
                    );
                }
            }
        }
        $crate::__proptest_impl!($config; $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_sample_within_bounds(x in 3.0f64..9.0, n in 1u64..100) {
            prop_assert!((3.0..9.0).contains(&x));
            prop_assert!((1..100).contains(&n));
        }

        #[test]
        fn vec_respects_size_and_element_bounds(
            xs in prop::collection::vec(0usize..5, 2..10),
        ) {
            prop_assert!(xs.len() >= 2 && xs.len() < 10);
            prop_assert!(xs.iter().all(|&x| x < 5));
        }

        #[test]
        fn map_and_oneof_compose(
            v in prop_oneof![
                (0usize..4).prop_map(|x| x * 2),
                Just(99usize),
            ],
        ) {
            prop_assert!(v == 99 || v % 2 == 0);
            prop_assert_ne!(v, 1);
        }

        #[test]
        fn tuples_and_options(
            (a, b) in (0u32..10, 10u32..20),
            opt in prop::option::of(5i64..6),
        ) {
            prop_assert!(a < 10 && (10..20).contains(&b));
            prop_assert_eq!(opt.unwrap_or(5), 5);
        }

        #[test]
        fn any_bool_is_sampled(flag in any::<bool>()) {
            prop_assert!(u8::from(flag) <= 1);
        }
    }

    #[test]
    fn failing_case_panics_with_context() {
        let result = std::panic::catch_unwind(|| {
            // No #[test] meta here: the generated fn is invoked by
            // hand to observe its panic.
            proptest! {
                fn always_fails(x in 0u8..10) {
                    prop_assert!(x > 200, "x was {x}");
                }
            }
            always_fails();
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        assert!(msg.contains("always_fails"), "{msg}");
        assert!(msg.contains("x was"), "{msg}");
    }

    #[test]
    fn generation_is_deterministic_per_test_name() {
        let mut a = crate::test_runner::TestRng::for_test("same");
        let mut b = crate::test_runner::TestRng::for_test("same");
        let s = 0.0f64..1.0;
        for _ in 0..50 {
            assert_eq!(Strategy::sample(&s, &mut a), Strategy::sample(&s, &mut b));
        }
    }
}

//! Integer-overflow and duplicate-binder probes: both execution modes
//! must agree, and neither may panic.

use fml::{ExecMode, Interp, NoHost};

/// Runs `src` under the VM and the tree-walker and returns both results
/// rendered with `Debug`.
fn both(src: &str) -> (String, String) {
    let vm = Interp::new().run(src, &mut NoHost);
    let tw = Interp::with_mode(ExecMode::TreeWalk).run(src, &mut NoHost);
    (format!("{vm:?}"), format!("{tw:?}"))
}

#[test]
fn min_div_neg1() {
    // Division wraps like `+ - *`: i64::MIN / -1 is i64::MIN.
    for src in [
        "(/ -9223372036854775808 -1)",
        "(let ((f /)) (f -9223372036854775808 -1))",
        "(/ -9223372036854775808 -1 1)",
    ] {
        let (vm, tw) = both(src);
        assert_eq!(vm, tw, "mode divergence on {src}");
        assert_eq!(vm, "Ok(Int(-9223372036854775808))", "{src}");
    }
}

#[test]
fn min_mod_neg1() {
    for src in [
        "(mod -9223372036854775808 -1)",
        "(let ((f mod)) (f -9223372036854775808 -1))",
    ] {
        let (vm, tw) = both(src);
        assert_eq!(vm, tw, "mode divergence on {src}");
        assert_eq!(vm, "Ok(Int(0))", "{src}");
    }
}

#[test]
fn dup_let_names() {
    // Duplicate binders are last-wins in both engines.
    for (src, want) in [
        ("(let ((x 1) (x 2)) x)", "Ok(Int(2))"),
        ("(let ((x 1) (y 5) (x 3)) (+ x y))", "Ok(Int(8))"),
        ("(let ((x 1) (x 2)) ((lambda () x)))", "Ok(Int(2))"),
    ] {
        let (vm, tw) = both(src);
        assert_eq!(vm, tw, "mode divergence on {src}");
        assert_eq!(vm, want, "{src}");
    }
}

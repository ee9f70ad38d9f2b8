//! A run whose expected join check is wrong must fail without numbers.

use std::process::Command;

#[test]
fn a_wrong_expected_check_exits_nonzero_and_prints_nothing() {
    let out = Command::new(env!("CARGO_BIN_EXE_hcj-perfbench"))
        .args(["--workload", "paper-ladder", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .arg("--wrong-check")
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success(), "a wrong check must fail the run");
    assert!(out.stdout.is_empty(), "no result line: {}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("join check mismatch"), "{stderr}");
}

//! The experiment binaries' command lines, driven as processes.

use std::process::Command;

#[test]
fn fork_sweep_refuses_fixed_before_any_run() {
    // The fork sweep runs on the strided core only; `--fixed` beside
    // `--fork` must stop the binary, not start a strided sweep. The
    // working directory keeps any artifact a wrong run writes out of
    // the crate.
    let out = Command::new(env!("CARGO_BIN_EXE_exp_scaling"))
        .args(["--smoke", "--fork", "--fixed"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("exp_scaling starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--fixed"), "{stderr}");
    assert!(out.stdout.is_empty(), "a run started");
}

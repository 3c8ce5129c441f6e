//! Boundary inputs reachable from the CLI (and so from a `netperf
//! serve` request, which runs the same parser) must fail with the
//! project's error contract — exit code 2 and one `error:` line on
//! stderr — before any engine is built, never with a panic.

use std::process::Command;

#[test]
fn out_of_range_inputs_exit_2_with_one_error_line() {
    let bin = env!("CARGO_BIN_EXE_netperf");
    let cases: &[(&str, &[&str])] = &[
        (
            "ports x vcs beyond the lane limit",
            &[
                "run",
                "--topology",
                "tree",
                "--k",
                "2",
                "--n",
                "4",
                "--algo",
                "adaptive",
                "--vcs",
                "1000",
                "--load",
                "0.3",
                "--quick",
            ],
        ),
        (
            "cycles below the warm-up",
            &["run", "tree-2vc-tiny", "--load", "0.3", "--cycles", "500"],
        ),
        (
            "warm-up equal to the run",
            &[
                "run",
                "cube-duato-tiny",
                "--cycles",
                "300",
                "--warmup",
                "300",
            ],
        ),
        (
            "negative load",
            &["run", "cube-duato-tiny", "--load", "-1", "--quick"],
        ),
        (
            "load above 1",
            &["run", "cube-duato-tiny", "--load", "1.5", "--quick"],
        ),
        (
            "NaN load",
            &["run", "cube-duato-tiny", "--load", "NaN", "--quick"],
        ),
        (
            "sweep grid beyond 1",
            &[
                "sweep",
                "cube-duato-tiny",
                "--grid",
                "0.5:1.5:0.5",
                "--quick",
            ],
        ),
        (
            "buffer depth beyond the lane limit",
            &[
                "run",
                "--topology",
                "tree",
                "--k",
                "2",
                "--n",
                "3",
                "--algo",
                "adaptive",
                "--buffer",
                "9",
                "--quick",
            ],
        ),
    ];
    for (what, args) in cases {
        let out = Command::new(bin)
            .args(*args)
            .output()
            .expect("spawn netperf");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{what}: expected exit 2, got {:?}: {stderr}",
            out.status
        );
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "{what}: stderr not one line: {stderr}");
        assert!(
            lines[0].starts_with("error:"),
            "{what}: unstructured error: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{what}: ran anyway");
    }
}

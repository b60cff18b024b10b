//! The `spatten-frontd` command line: a bad flag, value or fleet is
//! refused before the server binds, with exit status 2, an error line
//! naming what is wrong and the usage line.

use std::net::TcpListener;
use std::process::Command;

/// Runs the binary with `args`, bound to a port this test already holds:
/// a command line that got as far as binding fails there (status 1)
/// instead of serving.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let held = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = held.local_addr().expect("local addr").to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_spatten-frontd"))
        .args(["--bind", &addr])
        .args(args)
        .output()
        .expect("run spatten-frontd");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

#[test]
fn bad_command_lines_exit_2_with_usage_before_binding() {
    // Each command line, and what its error line must name.
    let cases: [(&[&str], &str); 7] = [
        (&["--bogus"], "--bogus"),
        (&["--chips", "x"], "--chips"),
        (&["--time-scale", "0"], "time_scale"),
        (&["--drain", "0"], "CHIP@MS"),
        (&["--revoke", "1@5"], "CHIP@MS:GRACE_MS"),
        (&["--join", "-1"], "non-negative"),
        // The only base chip drains: nothing would stay online.
        (&["--chips", "1", "--drain", "0@1"], "leave"),
    ];
    for (args, named) in cases {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        let mut lines = stderr.lines();
        let error = lines.next().unwrap_or_default();
        assert!(
            error.starts_with("error: ") && error.contains(named),
            "{args:?} must name {named}: {stderr}"
        );
        assert!(
            lines.any(|l| l.starts_with("usage: spatten-frontd")),
            "{args:?}: {stderr}"
        );
    }
}

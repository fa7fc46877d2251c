//! The shared exit contract, checked through a real binary: a usage error
//! exits 2 and names the argument, `--help` exits 0.

use std::process::{Command, Output};

fn tracedump(args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_tracedump");
    Command::new(bin)
        .args(args)
        .output()
        .expect("tracedump runs")
}

#[test]
fn usage_error_exits_two_and_names_the_argument() {
    let out = tracedump(&["t.jsonl", "--sub", "zero"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("tracedump: --sub: cannot parse `zero`\nusage: tracedump "));
}

#[test]
fn help_exits_zero_with_the_usage_on_stdout() {
    let out = tracedump(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: tracedump <path> "));
}

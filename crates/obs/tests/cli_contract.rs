//! The shared exit contract, checked through real binaries: a usage error
//! exits 2 and names the argument, `--help` exits 0, and a dump the tools
//! cannot use exits 1 with a message, never an abort.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tracedump(args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_tracedump");
    Command::new(bin)
        .args(args)
        .output()
        .expect("tracedump runs")
}

fn gage_audit(args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_gage-audit");
    Command::new(bin)
        .args(args)
        .output()
        .expect("gage-audit runs")
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

#[test]
fn a_window_below_one_scheduling_cycle_is_a_usage_error() {
    for window in ["1e-10", "0.0000001", "0.009"] {
        let out = gage_audit(&["t.jsonl", "--window", window]);
        assert_eq!(out.status.code(), Some(2), "--window {window}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let secs: f64 = window.parse().expect("a number");
        let want = format!("gage-audit: --window: `{secs}` is out of range\nusage: gage-audit ");
        assert!(stderr.starts_with(&want), "{stderr}");
    }
    // One cycle is accepted: the run gets as far as reading the dump.
    let out = gage_audit(&["no-such-dump.jsonl", "--window", "0.01"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("gage-audit: cannot read"));
}

#[test]
fn a_request_id_past_the_dump_exits_one_with_the_record_named() {
    for req in ["100000000", "9007199254740992"] {
        let header =
            r#"{"schema":"gage-trace-v1","emitted":1,"retained":1,"overwritten":0,"capacity":8}"#;
        let record = format!(r#"{{"seq":0,"t_ns":0,"kind":"req_arrival","sub":0,"req":{req}}}"#);
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("req-{req}.jsonl"));
        std::fs::write(&path, format!("{header}\n{record}\n")).expect("write scratch dump");
        let out = gage_audit(&[path.to_str().expect("utf-8 path")]);
        assert_eq!(out.status.code(), Some(1), "req {req}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(": record 0: req {req} out of range")),
            "{stderr}"
        );
    }
}

#[test]
fn a_number_out_of_range_exits_one_with_the_line_named() {
    let header =
        r#"{"schema":"gage-trace-v1","emitted":1,"retained":1,"overwritten":0,"capacity":8}"#;
    let record = r#"{"seq":0,"t_ns":0,"kind":"reservation","sub":0,"grps":1e999,"shard":0}"#;
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("grps-1e999.jsonl");
    std::fs::write(&path, format!("{header}\n{record}\n")).expect("write scratch dump");
    let path = path.to_str().expect("utf-8 path");
    for (tool, out) in [
        ("gage-audit", gage_audit(&[path])),
        ("tracedump", tracedump(&[path, "--check"])),
    ] {
        assert_eq!(out.status.code(), Some(1), "{tool}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(": line 2: ") && stderr.contains("number out of range"),
            "{tool}: {stderr}"
        );
    }
}

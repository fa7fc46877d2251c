//! CLI for the Gage workspace static analyzer.
//!
//! ```text
//! gage-lint [--json | --sarif] [ROOT]
//! ```
//!
//! Lints the workspace rooted at `ROOT` (default: the current directory,
//! which is the workspace root under `cargo run -p gage-lint`). Prints one
//! line per finding — or the `gage-lint-v2` JSON report with `--json`, or
//! a SARIF 2.1.0 log with `--sarif` — and exits 1 if there is any finding.

use std::path::PathBuf;
use std::process::ExitCode;

use gage_cli::Args;

const USAGE: &str = "gage-lint [--json | --sarif] [ROOT]";

struct Opts {
    json: bool,
    sarif: bool,
    root: PathBuf,
}

fn parse_args(args: &mut Args) -> Result<Opts, String> {
    let opts = Opts {
        json: args.flag("--json"),
        sarif: args.flag("--sarif"),
        root: args.free("ROOT")?.unwrap_or_else(|| PathBuf::from(".")),
    };
    if opts.json && opts.sarif {
        return Err("--json and --sarif are mutually exclusive".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = gage_cli::run(USAGE, parse_args);
    let root = opts.root;
    let findings = match gage_lint::lint_workspace(&root) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("gage-lint: cannot lint {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    if opts.json {
        print!("{}", gage_lint::report_json(&findings));
    } else if opts.sarif {
        print!("{}", gage_lint::report_sarif(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!(
            "gage-lint: {} finding(s) in {}",
            findings.len(),
            root.display()
        );
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_and_sarif_conflict() {
        let err = gage_cli::parse(["--json", "--sarif"], parse_args).err();
        let want = "--json and --sarif are mutually exclusive";
        assert_eq!(err.as_deref(), Some(want));
    }

    #[test]
    fn no_baseline_is_an_unexpected_argument() {
        // `gage_cli::run` turns this usage error into exit status 2.
        let err = gage_cli::parse(["--no-baseline", "crates/lint"], parse_args).err();
        let want = "unexpected argument `--no-baseline`";
        assert_eq!(err.as_deref(), Some(want));
    }
}

//! CLI for the Gage workspace static analyzer.
//!
//! ```text
//! gage-lint [--json | --sarif] [--no-baseline] [ROOT]
//! ```
//!
//! Lints the workspace rooted at `ROOT` (default: the current directory,
//! which is the workspace root under `cargo run -p gage-lint`). The
//! baseline at `ROOT/lint-baseline.json` is applied unless
//! `--no-baseline` is given; stale baseline entries surface as findings.
//! Prints one line per finding — or the `gage-lint-v2` JSON report with
//! `--json`, or a SARIF 2.1.0 log with `--sarif` — and exits non-zero if
//! any non-baselined finding remains.

use std::path::PathBuf;
use std::process::ExitCode;

use gage_cli::Args;

const USAGE: &str = "gage-lint [--json | --sarif] [--no-baseline] [ROOT]";

struct Opts {
    json: bool,
    sarif: bool,
    no_baseline: bool,
    root: PathBuf,
}

fn parse_args(args: &mut Args) -> Result<Opts, String> {
    let opts = Opts {
        json: args.flag("--json"),
        sarif: args.flag("--sarif"),
        no_baseline: args.flag("--no-baseline"),
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
    let result = if opts.no_baseline {
        gage_lint::lint_workspace(&root).map(|f| (f, 0))
    } else {
        gage_lint::lint_workspace_baselined(&root)
    };
    let (findings, suppressed) = match result {
        Ok(r) => r,
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
            "gage-lint: {} finding(s) in {} ({suppressed} baselined)",
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
}

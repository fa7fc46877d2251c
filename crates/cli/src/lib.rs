//! `gage-cli` — the one argument parser behind every Gage binary and
//! example.
//!
//! An entry point builds its options struct in one expression, pulling
//! its switches ([`Args::flag`]), valued flags ([`Args::opt`]), repeatable
//! flags ([`Args::all`]) and positional argument ([`Args::free`]) out of
//! [`Args`]. Names are `|`-separated aliases. A valued flag takes the next
//! argument as its value, whatever it looks like. The positional is the
//! first remaining argument that does not start with `-`, so it is pulled
//! after every flag. Any argument left over is an error.
//!
//! # Exit contract
//!
//! Every Gage program exits with one of three statuses:
//!
//! * `0`: success, or `-h`/`--help`, for which [`run`] prints the usage on
//!   stdout;
//! * `1`: the program's own failure, such as a failed run or check;
//! * `2`: a usage error, for which [`run`] prints `<prog>: <reason>` and
//!   the usage on stderr.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::str::FromStr;

/// The command-line arguments no pull has claimed yet.
pub struct Args(Vec<String>);

impl Args {
    /// Pulls a switch: whether any of `names` was given.
    pub fn flag(&mut self, names: &str) -> bool {
        let given = self.0.len();
        self.0.retain(|arg| !is(names, arg));
        self.0.len() < given
    }

    /// Pulls a valued flag. Given more than once, the last value wins, but
    /// every value must be there and parse.
    pub fn opt<T: FromStr>(&mut self, names: &str) -> Result<Option<T>, String> {
        Ok(self.all(names)?.pop())
    }

    /// Pulls every value of a flag that may repeat, in command-line order.
    pub fn all<T: FromStr>(&mut self, names: &str) -> Result<Vec<T>, String> {
        let mut values = Vec::new();
        while let Some(i) = self.0.iter().position(|arg| is(names, arg)) {
            let flag = self.0.remove(i);
            if i == self.0.len() {
                return Err(format!("{flag} needs a value"));
            }
            values.push(value(&flag, self.0.remove(i))?);
        }
        Ok(values)
    }

    /// Pulls the positional argument: the first one left that does not
    /// start with `-`. `name` labels it in errors.
    pub fn free<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.0.iter().position(|arg| !arg.starts_with('-')) {
            Some(i) => value(name, self.0.remove(i)).map(Some),
            None => Ok(None),
        }
    }
}

fn is(names: &str, arg: &str) -> bool {
    names.split('|').any(|name| name == arg)
}

fn value<T: FromStr>(name: &str, raw: String) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{name}: cannot parse `{raw}`"))
}

/// Builds options from `args` with `parse_args`, then rejects any
/// argument it left unclaimed.
pub fn parse<T>(
    args: impl IntoIterator<Item = impl Into<String>>,
    parse_args: impl FnOnce(&mut Args) -> Result<T, String>,
) -> Result<T, String> {
    let mut args = Args(args.into_iter().map(Into::into).collect());
    let opts = parse_args(&mut args)?;
    match args.0.first() {
        Some(arg) => Err(format!("unexpected argument `{arg}`")),
        None => Ok(opts),
    }
}

/// Parses the process arguments under the exit contract and returns the
/// options. `-h`/`--help` prints the usage on stdout and exits 0; a usage
/// error prints `<prog>: <reason>` and the usage on stderr and exits 2.
/// `usage` is the synopsis, starting with the program's name.
pub fn run<T>(usage: &str, parse_args: impl FnOnce(&mut Args) -> Result<T, String>) -> T {
    match outcome(usage, std::env::args().skip(1).collect(), parse_args) {
        Ok(opts) => opts,
        Err(code) => std::process::exit(code),
    }
}

/// [`run`] short of exiting: the options, or the exit status once the
/// usage or the error is printed.
fn outcome<T>(
    usage: &str,
    args: Vec<String>,
    parse_args: impl FnOnce(&mut Args) -> Result<T, String>,
) -> Result<T, i32> {
    if args.iter().any(|arg| is("-h|--help", arg)) {
        println!("usage: {usage}"); // lint:allow(no-print)
        return Err(0);
    }
    parse(args, parse_args).map_err(|reason| {
        let prog = usage.split(' ').next().unwrap_or(usage);
        eprintln!("{prog}: {reason}\nusage: {usage}"); // lint:allow(no-print)
        2
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn n(args: &mut Args) -> Result<Option<u32>, String> {
        args.opt("--n")
    }

    fn err(reason: &str) -> Result<Option<u32>, String> {
        Err(reason.to_string())
    }

    #[test]
    fn switch() {
        let switches = |a: &mut Args| Ok((a.flag("--json"), a.flag("-v|--verbose"), a.flag("-x")));
        assert_eq!(parse(words("-v --json"), switches), Ok((true, true, false)));
    }

    #[test]
    fn last_value_wins() {
        assert_eq!(parse(words("--n 1 --n 2"), n), Ok(Some(2)));
        assert_eq!(parse(words(""), n), Ok(None));
    }

    #[test]
    fn repeated_flag() {
        let sites = parse(words("--site a --n 1 --site b"), |a| {
            Ok((a.all("--site")?, n(a)?))
        });
        assert_eq!(sites, Ok((words("a b"), Some(1))));
    }

    #[test]
    fn positional() {
        let path = |a: &mut Args| Ok((n(a)?, a.flag("--json"), a.free::<String>("PATH")?));
        assert_eq!(
            parse(words("--n 1 t.jsonl --json"), path),
            Ok((Some(1), true, Some("t.jsonl".into())))
        );
        assert_eq!(parse(words(""), path), Ok((None, false, None)));
    }

    #[test]
    fn missing_value() {
        assert_eq!(parse(words("--n"), n), err("--n needs a value"));
    }

    #[test]
    fn unparsable_value() {
        assert_eq!(parse(words("--n 1 --n x"), n), err("--n: cannot parse `x`"));
        let seed = parse(words("abc"), |a| a.free::<u64>("SEED"));
        assert_eq!(seed, Err("SEED: cannot parse `abc`".to_string()));
    }

    #[test]
    fn leftover_argument() {
        assert_eq!(
            parse(words("--n 1 --bogus"), n),
            err("unexpected argument `--bogus`")
        );
        assert_eq!(parse(words("a"), n), err("unexpected argument `a`"));
    }

    #[test]
    fn help_exits_zero_and_usage_errors_exit_two() {
        let exit = |line: &str| outcome("prog [--n N]", words(line), n);
        assert_eq!(exit("--n x -h"), Err(0));
        assert_eq!(exit("--n x --help"), Err(0));
        assert_eq!(exit("--n x"), Err(2));
        assert_eq!(exit("--n 3"), Ok(Some(3)));
    }
}

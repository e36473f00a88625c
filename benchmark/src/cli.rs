//! Command-line arguments.

use crate::spec::{DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS};

/// Usage text.
pub const USAGE: &str =
    "usage: perfport-benchmark [--workload <name>] [--seed <n>] [--seconds <n>] \
     [--trace 0|1] [--runs <n>] [--out <path>]\n\
     \n\
     With --workload, runs that workload once and prints its result line last.\n\
     Without it, runs every workload in its own child process (--runs untraced\n\
     runs each, plus one traced run with --trace 1) and writes a report to --out.\n\
     Workloads: gemm-large, serve-batch, serve-single, gpusim, study-dist.";

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The one workload to run; `None` runs all of them.
    pub workload: Option<String>,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Set up the workload, report readiness and exit (the child
    /// processes that time set-up).
    pub setup_probe: bool,
    /// Untraced runs per workload (all-workloads mode).
    pub runs: usize,
    /// Where the all-workloads mode writes its report.
    pub out: Option<String>,
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A message naming the offending flag or value.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        setup_probe: false,
        runs: 1,
        out: None,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            a.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |min: u64| match value.parse::<u64>() {
            Ok(n) if n >= min => Ok(n),
            _ => Err(format!("invalid {flag} value '{value}'")),
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => a.workload = Some(value),
            "--workload" => return Err(format!("unknown workload '{value}'")),
            "--seed" => a.seed = number(0)?,
            "--seconds" => a.seconds = number(1)?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("invalid --trace value '{value}' (0 or 1)")),
                }
            }
            "--runs" => a.runs = number(1)? as usize,
            "--out" => a.out = Some(value),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if a.setup_probe && a.workload.is_none() {
        return Err("--setup-probe needs --workload".to_string());
    }
    if a.workload.is_some() && (a.runs != 1 || a.out.is_some()) {
        return Err("--runs and --out apply only without --workload".to_string());
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn benchmark_command_parses() {
        let a = args("--workload gpusim --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("gpusim"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(!args("--workload gpusim --trace 0").unwrap().trace);
        let d = args("").unwrap();
        assert_eq!((d.workload, d.seed, d.runs), (None, DEFAULT_SEED, 1));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--seconds 0",
            "--trace 2",
            "--trace yes",
            "--seed",
            "--frobnicate 1",
            "--setup-probe",
            "--workload gpusim --runs 3",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be refused");
        }
    }
}

//! `perf` — the repository's benchmark.
//!
//! ```text
//! perf run <workload> [--seed N] [--seconds S]    untraced: every end-to-end metric
//! perf trace <workload> [--seed N] [--seconds S]  traced: every per-layer metric
//! perf all [--seed N] [--seconds S]               both, for every workload
//! perf check [--seed N] [--seconds S]             every workload twice, against the bounds
//! perf --workload W --seed N --seconds S --trace 0|1   the driver's form of run / trace
//! ```
//!
//! Each workload runs in a process of its own (`all` and `check` spawn
//! this binary), so `peak_rss_mb` is the workload's and nothing else's.
//! A run prints a report for people and, as its last line, one JSON object
//! for the driver; it exits non-zero when an output check fails.
//! `README.md` beside this file is the glossary.

mod check;
mod churn;
mod drive;
mod fixtures;
mod fleet;
mod gen;
mod kernels;
mod pipeline;
mod run;
mod spec;
mod storm;
mod timer;
mod trace;
mod workload;

use run::Options;
use std::process::ExitCode;

const USAGE: &str = "usage: perf run|trace <workload> [--seed N] [--seconds S]\n       \
                     perf all|check [--seed N] [--seconds S]\n       \
                     perf --workload W --seed N --seconds S --trace 0|1";

/// The parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    Run(Options, bool),
    All(u64, f64),
    Check(u64, f64),
}

impl PartialEq for Options {
    fn eq(&self, other: &Options) -> bool {
        (self.workload.as_str(), self.seed, self.seconds)
            == (other.workload.as_str(), other.seed, other.seconds)
    }
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut words = Vec::new();
    let (mut workload, mut seed, mut seconds, mut traced) =
        (None, 1u64, f64::from(spec::RUN_SECONDS), None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                traced = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word => words.push(word),
        }
    }
    let named = |workload: Option<String>| -> Result<String, String> {
        let name = workload.ok_or("which workload?")?;
        if spec::WORKLOADS.contains(&name.as_str()) {
            Ok(name)
        } else {
            Err(format!(
                "unknown workload {name}; one of: {}",
                spec::WORKLOADS.join(", ")
            ))
        }
    };
    let options = |workload| -> Result<Options, String> {
        Ok(Options {
            workload: named(workload)?,
            seed,
            seconds,
        })
    };
    match (words.as_slice(), workload) {
        ([], workload @ Some(_)) => Ok(Command::Run(options(workload)?, traced.unwrap_or(false))),
        (["run", name], None) => Ok(Command::Run(options(Some((*name).to_owned()))?, false)),
        (["trace", name], None) => Ok(Command::Run(options(Some((*name).to_owned()))?, true)),
        (["all"], None) => Ok(Command::All(seed, seconds)),
        (["check"], None) => Ok(Command::Check(seed, seconds)),
        _ => Err(USAGE.to_owned()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(command) => command,
        Err(text) => {
            eprintln!("{text}");
            return ExitCode::from(2);
        }
    };
    let ok = match command {
        Command::Run(options, traced) => {
            let outcome = if traced {
                run::trace(&options)
            } else {
                run::run(&options)
            }
            .expect("the workload name was checked");
            print!("{}", outcome.report);
            println!("{}", outcome.json_line());
            outcome.correct()
        }
        Command::All(seed, seconds) => check::all(seed, seconds),
        Command::Check(seed, seconds) => check::check(seed, seconds),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn both_command_forms_parse_to_the_same_run() {
        let sub = parse(&words("trace storm_cold --seed 9 --seconds 4")).unwrap();
        let driver = parse(&words(
            "--workload storm_cold --seed 9 --seconds 4 --trace 1",
        ))
        .unwrap();
        assert_eq!(sub, driver);
        assert_eq!(
            parse(&words("run media_pipeline")).unwrap(),
            Command::Run(
                Options {
                    workload: "media_pipeline".to_owned(),
                    seed: 1,
                    seconds: f64::from(spec::RUN_SECONDS),
                },
                false
            )
        );
        assert_eq!(
            parse(&words("check --seed 3")).unwrap(),
            Command::Check(3, f64::from(spec::RUN_SECONDS))
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "",
            "run",
            "run nonesuch",
            "run storm_hot --seed",
            "run storm_hot --seed x",
            "run storm_hot --seconds 0",
            "run storm_hot --trace 2",
            "--workload storm_hot --bogus 1",
            "all storm_hot",
        ] {
            assert!(parse(&words(line)).is_err(), "{line:?} must not parse");
        }
    }
}

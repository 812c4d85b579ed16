//! `perf all` and `perf check`: every workload, each in a process of its
//! own, and the repeatability gate over two such passes.

use crate::spec::{END_TO_END, WORKLOADS};
use std::process::{Command, Stdio};

/// Runs this binary with `args`, echoing what it prints. Returns its last
/// stdout line (the JSON object) and whether it exited successfully.
fn child(args: &[String]) -> Option<(String, bool)> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&output.stdout).into_owned();
    print!("{text}");
    let last = text.lines().last().unwrap_or("").to_owned();
    Some((last, output.status.success()))
}

fn run_args(kind: &str, workload: &str, seed: u64, seconds: f64) -> Vec<String> {
    [
        kind,
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]
    .map(str::to_owned)
    .to_vec()
}

/// The value of metric `name` in a result line of this binary's making.
pub fn metric_value(json: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &json[json.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// `perf all`: the untraced and the traced run of every workload.
pub fn all(seed: u64, seconds: f64) -> bool {
    let mut ok = true;
    for workload in WORKLOADS {
        for kind in ["run", "trace"] {
            println!("==> perf {kind} {workload}");
            ok &= child(&run_args(kind, workload, seed, seconds)).is_some_and(|(_, ok)| ok);
        }
    }
    ok
}

/// How the second of two runs of the same code reads against the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Ok,
    /// Worse than the first run by more than the bound.
    Regressed,
    /// Better than the first run by more than the bound: the two runs
    /// spread wider than the bound, so the metric cannot resolve a change
    /// of that size on this host.
    Unresolved,
}

/// Judges `second` against `first` for a metric whose `better` direction
/// and `bound` are given.
pub fn judge(first: f64, second: f64, better: &str, bound: f64) -> Verdict {
    if first == 0.0 {
        return if second == 0.0 {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let change = (second - first) / first.abs();
    let worse = if better == "lower" { change } else { -change };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// `perf check`: every workload twice, every end-to-end metric against
/// its bound, one row per (workload, metric). True when every row is `ok`
/// and every run passed its own output checks.
pub fn check(seed: u64, seconds: f64) -> bool {
    let mut rows = Vec::new();
    let mut ok = true;
    for workload in WORKLOADS {
        let mut lines = Vec::new();
        for pass in 1..=2 {
            println!("==> perf run {workload} (pass {pass} of 2)");
            match child(&run_args("run", workload, seed, seconds)) {
                Some((line, passed)) => {
                    ok &= passed;
                    lines.push(line);
                }
                None => return false,
            }
        }
        for m in END_TO_END {
            let pair = (
                metric_value(&lines[0], m.name),
                metric_value(&lines[1], m.name),
            );
            let verdict = match pair {
                (Some(a), Some(b)) => judge(a, b, m.better, m.bound),
                _ => Verdict::Unresolved,
            };
            ok &= verdict == Verdict::Ok;
            rows.push((workload, m, pair, verdict));
        }
    }
    println!(
        "\n{:<16}{:<22}{:>14}{:>14}{:>9}{:>8}  verdict",
        "workload", "metric", "first", "second", "change", "bound"
    );
    for (workload, m, (a, b), verdict) in rows {
        let (a, b) = (a.unwrap_or(f64::NAN), b.unwrap_or(f64::NAN));
        println!(
            "{:<16}{:<22}{:>14.4}{:>14.4}{:>8.1}%{:>7.0}%  {}",
            workload,
            m.name,
            a,
            b,
            (b - a) / a * 100.0,
            m.bound * 100.0,
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_metric_direction() {
        // Lower is better, 10% bound.
        assert_eq!(judge(100.0, 105.0, "lower", 0.10), Verdict::Ok);
        assert_eq!(judge(100.0, 111.0, "lower", 0.10), Verdict::Regressed);
        assert_eq!(judge(100.0, 89.0, "lower", 0.10), Verdict::Unresolved);
        // Higher is better: the same numbers flip.
        assert_eq!(judge(100.0, 111.0, "higher", 0.10), Verdict::Unresolved);
        assert_eq!(judge(100.0, 89.0, "higher", 0.10), Verdict::Regressed);
        assert_eq!(judge(100.0, 95.0, "higher", 0.10), Verdict::Ok);
        assert_eq!(judge(0.0, 0.0, "lower", 0.10), Verdict::Ok);
    }

    #[test]
    fn metric_values_come_back_out_of_a_result_line() {
        let outcome = crate::run::Outcome {
            metrics: vec![
                ("setup_s", 0.8127, "s"),
                ("events_per_s", 267_422.25, "1/s"),
            ],
            attempted: 10,
            failed: 0,
            report: String::new(),
        };
        let line = outcome.json_line();
        assert_eq!(tbm_obs::validate_json(&line), Ok(()));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert_eq!(metric_value(&line, "setup_s"), Some(0.8127));
        assert_eq!(metric_value(&line, "events_per_s"), Some(267_422.25));
        assert_eq!(metric_value(&line, "nonesuch"), None);
    }
}

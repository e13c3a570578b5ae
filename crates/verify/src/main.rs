//! `unfold-verify`: run a randomized differential campaign from the
//! command line. Exits 1 when any case diverges (or on bad flags), so
//! CI can gate on it directly.

use std::path::PathBuf;
use std::process::ExitCode;

use unfold_verify::{run_campaign, CampaignConfig, CheckId, Mutation};

const USAGE: &str = "\
unfold-verify: randomized differential verification campaign

USAGE:
    unfold-verify [--cases N] [--seed S] [--jobs N] [--out DIR]
                  [--mutation none|olt-aliasing|free-backoff|stale-checksum
                             |lattice-beam-skip|bias-bonus-skip]
                  [--check NAME] [--no-shrink]

FLAGS:
    --cases N      cases to run (default 64)
    --seed S       campaign seed (default 42)
    --jobs N       worker threads (default: available parallelism)
    --out DIR      write minimized repro files here
    --mutation M   inject a known decoder bug (default none)
    --check NAME   run a single check (e.g. lattice-oracle or bias-oracle)
                   instead of the full matrix
    --no-shrink    skip delta-debugging of divergences
";

fn parse_args(args: &[String]) -> Result<CampaignConfig, String> {
    let mut config = CampaignConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--cases" => {
                config.cases = value("--cases")?
                    .parse()
                    .map_err(|_| "--cases: expected an integer".to_string())?;
            }
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed: expected an integer".to_string())?;
            }
            "--jobs" => {
                config.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs: expected an integer".to_string())?;
            }
            "--out" => config.out_dir = Some(PathBuf::from(value("--out")?)),
            "--mutation" => {
                let v = value("--mutation")?;
                config.mutation = Mutation::parse(&v)
                    .ok_or_else(|| format!("--mutation: unknown mutation {v:?}"))?;
            }
            "--check" => {
                let v = value("--check")?;
                config.only = Some(
                    CheckId::parse(&v).ok_or_else(|| format!("--check: unknown check {v:?}"))?,
                );
            }
            "--no-shrink" => config.shrink = false,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "campaign: {} cases, seed {}, mutation {}, {} jobs{}",
        config.cases,
        config.seed,
        config.mutation.name(),
        config.jobs.max(1),
        config
            .only
            .map_or(String::new(), |c| format!(", check {c} only"))
    );
    let report = match run_campaign(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("{}/{} cases passed", report.passed, report.cases);
    for d in &report.divergences {
        println!("case {:04}: {}", d.index, d.divergence);
        if let Some(s) = &d.shrunk {
            println!(
                "  shrunk in {} steps ({} evals) to {} LM states, {} AM states, {} frames",
                s.steps, s.evals, s.lm_states, s.am_states, s.frames
            );
            println!("  minimized: {}", s.divergence);
        }
        if let Some(p) = &d.repro_path {
            println!(
                "  repro: {} (replay: unfold-cli verify --repro {0})",
                p.display()
            );
        }
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

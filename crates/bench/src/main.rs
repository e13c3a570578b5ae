//! `unfold-bench [ID..]`: runs the paper experiments (default: all of
//! them) over the four paper tasks, each built once, and writes every
//! page to `results/<id>.md` under the current directory.
//! `UNFOLD_UTTS` sets the test utterances per task (default 8).

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use unfold_bench::{render, select, utterance_count, Bench};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = match select(&args) {
        Ok(experiments) => experiments,
        Err(usage) => {
            eprintln!("unfold-bench: {usage}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let bench = Bench::paper(utterance_count());
    let dir = Path::new("results");
    for (id, experiment) in experiments {
        let path = dir.join(format!("{id}.md"));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, render(&bench, experiment)));
        if let Err(e) = written {
            eprintln!("unfold-bench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "{} ({:.1} s)",
            path.display(),
            started.elapsed().as_secs_f64()
        );
    }
    ExitCode::SUCCESS
}

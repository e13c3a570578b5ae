//! `unfold-cli` entry point; all logic lives in the library for
//! testability.
//!
//! Exit codes: `0` on success, `1` on runtime failures (I/O, corrupt
//! bundles, invalid configurations, serve errors), `2` on usage errors
//! (which also print the usage text). Runtime failures print the full
//! `source()` chain, one `caused by:` line per link.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match unfold_cli::run(&args) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            let mut cause = std::error::Error::source(&e);
            while let Some(c) = cause {
                eprintln!("  caused by: {c}");
                cause = c.source();
            }
            if matches!(e, unfold_cli::Error::Usage(_)) {
                eprintln!("{}", unfold_cli::usage());
            }
            std::process::exit(e.exit_code());
        }
    }
}

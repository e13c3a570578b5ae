//! The runner renders every experiment, its ids are exactly the
//! checked-in `results/` pages, and a task the paper does not report
//! never borrows another task's paper numbers.

use std::collections::BTreeSet;
use std::path::Path;

use unfold::TaskSpec;
use unfold_bench::{render, select, Bench, EXPERIMENTS};

/// Is header cell `cell` a paper column (`… paper`, `… (paper)`)?
/// `(paper: 87-97%)` annotates a measured column and does not count.
fn is_paper_column(cell: &str) -> bool {
    cell.split_whitespace().any(|w| {
        w.trim_matches(|c| c == '(' || c == ')')
            .eq_ignore_ascii_case("paper")
    })
}

fn cells(line: &str) -> Vec<&str> {
    line.trim_matches('|').split('|').map(str::trim).collect()
}

#[test]
fn every_experiment_renders_on_the_tiny_task() {
    let bench = Bench::new(&[TaskSpec::tiny()], 2);
    let mut paper_cells = 0;
    for (id, experiment) in EXPERIMENTS {
        let page = render(&bench, experiment);
        assert!(page.starts_with("# "), "{id}: no title\n{page}");
        let lines: Vec<&str> = page.lines().collect();
        // Table 3 lists the two accelerator configurations instead.
        let has_table = lines.windows(2).any(|w| {
            w[0].starts_with("| ")
                && w[1].starts_with("|---")
                && cells(w[0]).len() == cells(w[1]).len()
        });
        assert!(
            has_table || (id == "table3_configs" && page.contains("\n## ")),
            "{id}: no Markdown header and separator row\n{page}"
        );
        // Every table's paper columns read `–` on the tiny task's rows.
        let mut paper_cols = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            if lines
                .get(i + 1)
                .is_some_and(|next| next.starts_with("|---"))
            {
                paper_cols = (cells(line).into_iter().enumerate())
                    .filter(|(_, c)| is_paper_column(c))
                    .map(|(col, _)| col)
                    .collect();
            } else if line.starts_with("| tiny |") {
                let row = cells(line);
                for &col in &paper_cols {
                    assert_eq!(row[col], "–", "{id}: paper column {col} of `{line}`");
                    paper_cells += 1;
                }
            }
        }
    }
    // Figure 1 and Tables 1, 2 and 6 carry per-task paper columns.
    assert_eq!(paper_cells, 4, "every per-task paper column was checked");
}

#[test]
fn experiment_ids_are_the_checked_in_results() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let pages: BTreeSet<String> = std::fs::read_dir(&results)
        .expect("results/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    let ids: BTreeSet<String> = EXPERIMENTS.iter().map(|(id, _)| id.to_string()).collect();
    assert_eq!(ids.len(), EXPERIMENTS.len(), "experiment ids are unique");
    assert_eq!(ids, pages);
}

#[test]
fn selection_keeps_order_and_rejects_unknown_ids() {
    let all = select::<&str>(&[]).unwrap();
    assert_eq!(all.len(), EXPERIMENTS.len());
    let two = select(&["table6_wer", "fig01_time_breakdown"]).unwrap();
    assert_eq!(two[0].0, "table6_wer");
    assert_eq!(two[1].0, "fig01_time_breakdown");

    let err = select(&["table6_wer", "fig99_nope"]).expect_err("unknown id");
    assert!(err.contains("fig99_nope"), "{err}");
    assert!(err.contains("usage: unfold-bench"), "{err}");
    for (id, _) in EXPERIMENTS {
        assert!(err.contains(id), "usage lists `{id}`: {err}");
    }
}

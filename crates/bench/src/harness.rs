//! Shared machinery for the experiments: the per-task context every
//! experiment reads, and the Markdown page they write.

use std::cell::OnceCell;

use unfold::experiments::{run_baseline_on, run_gpu, run_unfold, GpuRun, SystemRun};
use unfold::{SizeTable, System, TaskSpec};
use unfold_am::Utterance;
use unfold_decoder::{wer, AmSource, DecodeConfig, LmSource, NullSink, OtfDecoder, WerReport};
use unfold_wfst::Wfst;

/// One built task plus its test batch, and the products several
/// experiments share. Each shared product is built on first use and at
/// most once: the composed graph, the dataset sizes, and the default
/// UNFOLD, baseline and GPU runs.
pub struct TaskRun {
    /// The built system.
    pub system: System,
    /// Test utterances.
    pub utterances: Vec<Utterance>,
    composed: OnceCell<Wfst>,
    sizes: OnceCell<SizeTable>,
    unfold: OnceCell<SystemRun>,
    baseline: OnceCell<SystemRun>,
    gpu: OnceCell<GpuRun>,
}

impl TaskRun {
    /// Builds `spec` and synthesizes `utterances` test utterances.
    pub fn new(spec: &TaskSpec, utterances: usize) -> Self {
        let system = System::build(spec);
        let utterances = system.test_utterances(utterances);
        TaskRun {
            system,
            utterances,
            composed: OnceCell::new(),
            sizes: OnceCell::new(),
            unfold: OnceCell::new(),
            baseline: OnceCell::new(),
            gpu: OnceCell::new(),
        }
    }

    /// The task name.
    pub fn name(&self) -> &'static str {
        self.system.spec.name
    }

    /// The offline-composed graph ([`System::composed`]).
    pub fn composed(&self) -> &Wfst {
        self.composed.get_or_init(|| self.system.composed())
    }

    /// Every dataset size, measured against [`TaskRun::composed`].
    pub fn sizes(&self) -> &SizeTable {
        self.sizes
            .get_or_init(|| self.system.sizes_with(self.composed()))
    }

    /// The default UNFOLD run ([`run_unfold`]).
    pub fn unfold(&self) -> &SystemRun {
        self.unfold
            .get_or_init(|| run_unfold(&self.system, &self.utterances))
    }

    /// The default Reza et al. baseline run ([`run_baseline_on`]).
    pub fn baseline(&self) -> &SystemRun {
        self.baseline
            .get_or_init(|| run_baseline_on(&self.system, self.composed(), &self.utterances))
    }

    /// WER of a default-configuration decode of the batch against `am`
    /// and `lm`, with no simulator attached.
    pub fn wer_with<A: AmSource, L: LmSource>(&self, am: &A, lm: &L) -> WerReport {
        let decoder = OtfDecoder::new(DecodeConfig::default());
        let mut report = WerReport::default();
        for utt in &self.utterances {
            let res = decoder.decode(am, lm, &utt.scores, &mut NullSink);
            report.accumulate(wer(&utt.words, &res.words));
        }
        report
    }

    /// The Tegra X1 software run ([`run_gpu`]).
    pub fn gpu(&self) -> &GpuRun {
        self.gpu
            .get_or_init(|| run_gpu(&self.system, &self.utterances))
    }
}

/// The tasks one invocation runs its experiments over, each built once.
pub struct Bench {
    /// The tasks, in paper order.
    pub tasks: Vec<TaskRun>,
}

impl Bench {
    /// Builds every task in `specs` with `utterances` test utterances.
    pub fn new(specs: &[TaskSpec], utterances: usize) -> Self {
        Bench {
            tasks: specs.iter().map(|s| TaskRun::new(s, utterances)).collect(),
        }
    }

    /// The four paper tasks.
    pub fn paper(utterances: usize) -> Self {
        Self::new(&TaskSpec::all_paper_tasks(), utterances)
    }

    /// The first task (Kaldi-TEDLIUM on the paper set).
    pub fn first(&self) -> &TaskRun {
        self.tasks.first().expect("at least one task")
    }

    /// The last task (EESEN-TEDLIUM on the paper set: most LM traffic).
    pub fn last(&self) -> &TaskRun {
        self.tasks.last().expect("at least one task")
    }
}

/// Test utterances per task (`UNFOLD_UTTS`, default 8).
pub fn utterance_count() -> usize {
    std::env::var("UNFOLD_UTTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

/// A Markdown page under construction: one experiment's output.
#[derive(Debug, Default)]
pub struct Page(String);

impl Page {
    /// Appends `text` and a newline.
    pub fn line(&mut self, text: impl AsRef<str>) {
        self.0.push_str(text.as_ref());
        self.0.push('\n');
    }

    /// Appends a table header row + separator; `cols` separates the
    /// column titles with ` | `.
    pub fn header(&mut self, cols: &str) {
        self.line(format!("| {cols} |"));
        let n = cols.split(" | ").count();
        self.line(format!("|{}|", vec!["---"; n].join("|")));
    }

    /// Appends a table data row.
    pub fn row(&mut self, cells: &[String]) {
        self.line(format!("| {} |", cells.join(" | ")));
    }

    /// The finished Markdown.
    pub fn into_string(self) -> String {
        self.0
    }
}

/// A paper value for a table cell, or `–` where the paper reports none
/// (a task outside [`crate::paper::TASKS`]).
pub fn paper_cell(value: Option<f64>, fmt: fn(f64) -> String) -> String {
    value.map_or_else(|| "–".into(), fmt)
}

/// Formats with one decimal.
pub fn fmt1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats with two decimals.
pub fn fmt2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_utterance_count() {
        // (environment-dependent, but the default path must parse)
        assert!(utterance_count() >= 1);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt1(12.3456), "12.3");
        assert_eq!(fmt2(12.3456), "12.35");
    }
}

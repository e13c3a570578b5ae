//! Integration tests for the `unfold-verify` differential campaign:
//! a clean fixed-seed campaign finds nothing, and an intentionally
//! injected decoder bug is found, delta-debugged down to a handful of
//! LM states, serialized as a repro file, and replayed through
//! `unfold-cli verify --repro`.

use unfold_verify::{
    run_campaign, run_repro, shrink, CampaignConfig, CaseModels, CaseSpec, CheckId, Mutation,
    ReproCase,
};

/// How many cases the clean campaign runs under `cargo test`. The full
/// 256-case acceptance campaign is the CI smoke job / manual run
/// (`cargo run --release -p unfold-verify -- --cases 256`); here a
/// smaller fixed prefix of the same seed keeps debug-build test time
/// reasonable while still sweeping the edge-case knobs.
const CLEAN_CASES: u64 = 48;

#[test]
fn clean_campaign_has_zero_divergences() {
    let report = run_campaign(&CampaignConfig {
        seed: 42,
        cases: CLEAN_CASES,
        mutation: Mutation::None,
        only: None,
        out_dir: None,
        shrink: false,
        jobs: 4,
    })
    .expect("campaign I/O");
    assert_eq!(report.cases, CLEAN_CASES);
    assert!(
        report.is_clean(),
        "divergences on a clean decoder: {:#?}",
        report.divergences
    );
}

/// The acceptance scenario from the issue: inject a decoder bug that
/// skips the OLT-style full-key compare, let the campaign catch it,
/// and shrink the first diverging case to a repro of at most 10 LM
/// states.
#[test]
fn injected_olt_bug_is_caught_and_shrunk_to_tiny_repro() {
    let mutation = Mutation::OltAliasing;
    let report = run_campaign(&CampaignConfig {
        seed: 7,
        cases: 32,
        mutation,
        only: None,
        out_dir: None,
        shrink: false,
        jobs: 4,
    })
    .expect("campaign I/O");
    assert!(
        !report.divergences.is_empty(),
        "the aliasing bug must be detected within 32 cases"
    );

    // Shrink every diverging case; the best minimization must reach the
    // ≤ 10 LM-state budget (a near-minimal model: root + a few word
    // histories).
    let mut best_states = usize::MAX;
    let mut best: Option<(CaseSpec, unfold_verify::CheckId)> = None;
    for d in &report.divergences {
        let out = shrink(&d.original, mutation, None).expect("divergence must still reproduce");
        assert_eq!(
            out.divergence.check, d.divergence.check,
            "shrinking must preserve the failing check"
        );
        if out.lm_states < best_states {
            best_states = out.lm_states;
            best = Some((out.spec.clone(), out.divergence.check));
        }
    }
    let (spec, check) = best.expect("at least one shrink outcome");
    assert!(
        best_states <= 10,
        "best shrunk repro has {best_states} LM states, want <= 10"
    );

    // The minimized spec really is that small when rebuilt from scratch.
    let rebuilt = CaseModels::build(&spec);
    assert_eq!(rebuilt.lm_fst.num_states(), best_states);

    // And it still diverges on the same check when replayed as a repro.
    let repro = ReproCase {
        spec,
        check: Some(check),
        mutation,
    };
    let replayed = run_repro(&repro).expect("minimized repro must still diverge");
    assert_eq!(replayed.check, check);
}

/// The lattice-oracle acceptance scenario: a campaign restricted to the
/// lattice-oracle check runs clean on the correct decoder, and a
/// planted lattice-beam-skip bug (the lattice builder ignores
/// `lattice_beam` while claiming it) is caught by that check alone and
/// shrinks to a repro of at most 10 LM states.
#[test]
fn planted_lattice_beam_skip_is_caught_and_shrunk() {
    // Clean first: the same restricted campaign must find nothing.
    let clean = run_campaign(&CampaignConfig {
        seed: 7,
        cases: 16,
        mutation: Mutation::None,
        only: Some(CheckId::LatticeOracle),
        out_dir: None,
        shrink: false,
        jobs: 4,
    })
    .expect("campaign I/O");
    assert!(
        clean.is_clean(),
        "lattice-oracle divergences on a clean decoder: {:#?}",
        clean.divergences
    );

    let mutation = Mutation::LatticeBeamSkip;
    let report = run_campaign(&CampaignConfig {
        seed: 7,
        cases: 16,
        mutation,
        only: Some(CheckId::LatticeOracle),
        out_dir: None,
        shrink: false,
        jobs: 4,
    })
    .expect("campaign I/O");
    assert!(
        !report.divergences.is_empty(),
        "the skipped lattice beam must be detected within 16 cases"
    );
    for d in &report.divergences {
        assert_eq!(d.divergence.check, CheckId::LatticeOracle);
    }

    let mut best_states = usize::MAX;
    let mut best: Option<CaseSpec> = None;
    for d in &report.divergences {
        let out = shrink(&d.original, mutation, Some(CheckId::LatticeOracle))
            .expect("divergence must still reproduce");
        assert_eq!(out.divergence.check, CheckId::LatticeOracle);
        if out.lm_states < best_states {
            best_states = out.lm_states;
            best = Some(out.spec.clone());
        }
    }
    let spec = best.expect("at least one shrink outcome");
    assert!(
        best_states <= 10,
        "best shrunk repro has {best_states} LM states, want <= 10"
    );

    // The minimized case still diverges on the same check as a repro.
    let repro = ReproCase {
        spec,
        check: Some(CheckId::LatticeOracle),
        mutation,
    };
    let replayed = run_repro(&repro).expect("minimized repro must still diverge");
    assert_eq!(replayed.check, CheckId::LatticeOracle);
}

/// The repro file round-trips through disk and through the CLI: the
/// `verify --repro` subcommand reports DIVERGED for a buggy decode and
/// PASS once the mutation is turned off.
#[test]
fn cli_replays_repro_files() {
    let mutation = Mutation::FreeBackoff;
    let diverging = (0..16)
        .map(|i| CaseSpec::derive(0xB00, i))
        .find(|spec| unfold_verify::run_case_caught(spec, mutation).is_some())
        .expect("free-backoff must diverge within 16 cases");

    let dir = std::env::temp_dir().join(format!("unfold-verify-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repro.txt");
    let repro = ReproCase {
        spec: diverging.clone(),
        check: None,
        mutation,
    };
    std::fs::write(&path, repro.to_text()).unwrap();

    let argv = |m: &str| -> Vec<String> {
        ["verify", "--repro", m]
            .iter()
            .map(|s| s.to_string())
            .collect()
    };
    let out = unfold_cli::run(&argv(path.to_str().unwrap())).unwrap();
    assert!(out.contains("DIVERGED"), "expected DIVERGED in:\n{out}");

    // Same spec, mutation disabled: the decoder is correct, so the CLI
    // reports the divergence as gone.
    let fixed = ReproCase {
        spec: diverging,
        check: None,
        mutation: Mutation::None,
    };
    std::fs::write(&path, fixed.to_text()).unwrap();
    let out = unfold_cli::run(&argv(path.to_str().unwrap())).unwrap();
    assert!(out.contains("PASS"), "expected PASS in:\n{out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Campaign repro files land on disk with the shrunk spec inside.
#[test]
fn campaign_writes_replayable_repro_files() {
    let dir = std::env::temp_dir().join(format!("unfold-verify-camp-{}", std::process::id()));
    let report = run_campaign(&CampaignConfig {
        seed: 7,
        cases: 8,
        mutation: Mutation::OltAliasing,
        only: None,
        out_dir: Some(dir.clone()),
        shrink: true,
        jobs: 2,
    })
    .expect("campaign I/O");
    assert!(!report.divergences.is_empty());
    for d in &report.divergences {
        let path = d.repro_path.as_ref().expect("repro path recorded");
        let text = std::fs::read_to_string(path).expect("repro file written");
        let parsed = ReproCase::from_text(&text).expect("repro file parses");
        assert_eq!(parsed.mutation, Mutation::OltAliasing);
        let shrunk = d.shrunk.as_ref().expect("shrink ran");
        assert_eq!(parsed.spec, shrunk.spec, "file holds the minimized spec");
        assert_eq!(parsed.check, Some(shrunk.divergence.check));
    }
    std::fs::remove_dir_all(&dir).ok();
}

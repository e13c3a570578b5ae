//! The unified model API: one way to obtain decodable models.
//!
//! Decodable AM/LM pairs historically came from three unrelated places
//! — built in memory by [`System::build`], loaded from loose
//! `.unfa`/`.unfl` files, or (for serving) wrapped in `Arc`s by hand.
//! [`Models`] is the single facade over all of them:
//!
//! * [`Models::from_task`] / [`Models::from_system`] — generators and
//!   presets (owned, in memory),
//! * [`Models::from_parts`] — owned compressed models from anywhere,
//! * [`Models::open`] — a packed `.unfb` bundle, fully loaded and
//!   checksum-verified,
//! * [`Models::open_mmap`] — the same bundle, zero-copy: arcs decode
//!   straight out of the mapped file, nothing is deserialized (section
//!   checksums are still verified — one streaming pass over the mapped
//!   bytes per model section, no copy).
//!
//! Whatever the origin, the facade hands out one model type per format
//! — a `CompressedAm` / `CompressedLm` over its own bytes or over the
//! bundle's, exported here as [`AmModel`]/[`LmModel`] — implementing
//! the decoder's `AmSource`/`LmSource` traits, cheaply cloneable, and
//! `Send + Sync`: the same type drives a one-shot CLI decode and a
//! multi-worker server.

use std::path::Path;
use std::sync::Arc;

use unfold_compress::{Bundle, BundleError, BundleWriter, CompressedAm, CompressedLm};
use unfold_lm::NGramModel;

use crate::system::{System, QUANT_CLUSTERS};
use crate::task::TaskSpec;

/// Name given to the primary LM when packing a bundle.
pub const DEFAULT_LM: &str = "default";

pub use unfold_compress::{CompressedAm as AmModel, CompressedLm as LmModel};

/// One AM plus one or more named LMs, however they were obtained.
#[derive(Debug, Clone)]
pub struct Models {
    am: CompressedAm,
    lms: Vec<(String, CompressedLm)>,
    bundle: Option<Arc<Bundle>>,
}

impl Models {
    /// Wraps compressed models from anywhere. The first LM is the
    /// default.
    ///
    /// # Panics
    /// Panics if `lms` is empty or contains duplicate names.
    pub fn from_parts(am: CompressedAm, lms: Vec<(String, CompressedLm)>) -> Models {
        assert!(!lms.is_empty(), "a model set needs at least one LM");
        for (i, (name, _)) in lms.iter().enumerate() {
            assert!(
                lms[..i].iter().all(|(n, _)| n != name),
                "duplicate LM name '{name}'"
            );
        }
        Models {
            am,
            lms,
            bundle: None,
        }
    }

    /// Models of an already-built [`System`] (sharing the system's
    /// bytes). The LM is named [`DEFAULT_LM`].
    pub fn from_system(system: &System) -> Models {
        Models::from_parts(
            system.am_comp.clone(),
            vec![(DEFAULT_LM.to_string(), system.lm_comp.clone())],
        )
    }

    /// Builds a task preset and wraps its models; see
    /// [`Models::from_system`].
    pub fn from_task(spec: &TaskSpec) -> Models {
        Models::from_system(&System::build(spec))
    }

    /// Opens a `.unfb` bundle fully into memory, verifying every
    /// section checksum eagerly.
    ///
    /// # Errors
    /// [`BundleError`] on I/O failure, malformed container, checksum
    /// mismatch, or malformed model sections.
    pub fn open(path: &Path) -> Result<Models, BundleError> {
        Models::from_bundle(Bundle::open(path)?)
    }

    /// Opens a `.unfb` bundle zero-copy: the file is mapped read-only
    /// and arcs decode directly from the mapped bytes — nothing is
    /// copied or deserialized. Each model section's checksum *is*
    /// verified (once, while binding the models with `from_bundle`),
    /// because every decode through the returned models is
    /// infallible: corruption must be a typed error here, not a panic
    /// mid-decode. The verification is a streaming CRC pass over the
    /// mapped pages; the arc streams are never copied to the heap.
    ///
    /// # Errors
    /// [`BundleError`]; see [`Models::open`].
    pub fn open_mmap(path: &Path) -> Result<Models, BundleError> {
        Models::from_bundle(Bundle::open_mmap(path)?)
    }

    /// Wraps an already-opened bundle; the AM and every LM section are
    /// bound zero-copy (`from_bundle`: the section checksum, memoized
    /// and a no-op after an eager open, plus an O(states) header parse;
    /// no pass over the arcs).
    ///
    /// # Errors
    /// [`BundleError`] if any model section fails its checksum or
    /// layout validation.
    pub fn from_bundle(bundle: Bundle) -> Result<Models, BundleError> {
        let bundle = Arc::new(bundle);
        let am = CompressedAm::from_bundle(Arc::clone(&bundle))?;
        let names: Vec<String> = bundle.lm_names().iter().map(|s| s.to_string()).collect();
        let mut lms = Vec::with_capacity(names.len());
        for name in names {
            let lm = CompressedLm::from_bundle(Arc::clone(&bundle), &name)?;
            lms.push((name, lm));
        }
        Ok(Models {
            am,
            lms,
            bundle: Some(bundle),
        })
    }

    /// The acoustic model.
    pub fn am(&self) -> &CompressedAm {
        &self.am
    }

    /// The default LM (first packed / first added).
    pub fn default_lm(&self) -> &CompressedLm {
        &self.lms[0].1
    }

    /// The LM named `name`, if present.
    pub fn lm(&self, name: &str) -> Option<&CompressedLm> {
        self.lms.iter().find(|(n, _)| n == name).map(|(_, lm)| lm)
    }

    /// LM names in pack/insertion order (first is the default).
    pub fn lm_names(&self) -> Vec<&str> {
        self.lms.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Whether the models decode out of a read-only file mapping.
    pub fn is_mapped(&self) -> bool {
        self.bundle.as_ref().is_some_and(|b| b.is_mapped())
    }

    /// The backing bundle, when the models came from one.
    pub fn bundle(&self) -> Option<&Arc<Bundle>> {
        self.bundle.as_ref()
    }
}

/// Packs a built system into `.unfb` bundle bytes: the AM, the primary
/// LM (named [`DEFAULT_LM`]), one `variant-<seed>` LM per entry of
/// `variant_seeds` (trained on a reseeded corpus over the *same*
/// vocabulary, so each is decodable against the packed AM), a
/// `contacts` biasing model minted from the task seed, a word symbol
/// table, and a `task` metadata section.
///
/// # Errors
/// [`BundleError`] if the composition is rejected (cannot happen for a
/// well-formed system).
pub fn pack_system(system: &System, variant_seeds: &[u64]) -> Result<Vec<u8>, BundleError> {
    let mut w = BundleWriter::new();
    w.add_am(&system.am_comp);
    w.add_lm(DEFAULT_LM, &system.lm_comp);
    for &seed in variant_seeds {
        w.add_lm(&format!("variant-{seed}"), &system.lm_variant(seed));
    }
    let bias =
        unfold_bias::BiasingFst::mint(system.spec.seed ^ 0xB1A5, system.spec.vocab_size as u32, 8);
    w.add_bias("contacts", bias.to_bytes());
    let symtab: String = (0..system.spec.vocab_size).fold(String::new(), |mut s, w| {
        s.push('w');
        s.push_str(&w.to_string());
        s.push('\n');
        s
    });
    w.add_symtab("words", symtab.into_bytes());
    w.add_meta("task", system.spec.name.as_bytes().to_vec());
    w.finish()
}

impl System {
    /// Trains an alternative LM over this system's vocabulary from a
    /// reseeded corpus — a stand-in for the domain/persona LMs a
    /// multi-model server hosts side by side. Decodable against this
    /// system's AM; different n-gram statistics for any
    /// `variant_seed != spec.seed`.
    pub fn lm_variant(&self, variant_seed: u64) -> CompressedLm {
        let corpus = self.spec.corpus_spec().generate(variant_seed);
        let model = NGramModel::train(&corpus, self.spec.vocab_size, self.spec.discount);
        let fst = unfold_lm::lm_to_wfst(&model);
        CompressedLm::compress(&fst, QUANT_CLUSTERS, variant_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unfold_decoder::{DecodeConfig, NullSink, OtfDecoder};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("unfold-models-{}-{name}", std::process::id()))
    }

    #[test]
    fn facade_decodes_from_every_origin_identically() {
        let system = System::build(&TaskSpec::tiny());
        let utt = &system.test_utterances(1)[0];
        let dec = OtfDecoder::new(DecodeConfig::default());

        let owned = Models::from_system(&system);
        let base = dec.decode(owned.am(), owned.default_lm(), &utt.scores, &mut NullSink);
        assert!(base.is_complete());

        let path = tmp("roundtrip.unfb");
        std::fs::write(&path, pack_system(&system, &[]).unwrap()).unwrap();

        let loaded = Models::open(&path).unwrap();
        assert!(!loaded.is_mapped());
        let from_owned_bundle =
            dec.decode(loaded.am(), loaded.default_lm(), &utt.scores, &mut NullSink);
        assert_eq!(base, from_owned_bundle);

        let mapped = Models::open_mmap(&path).unwrap();
        let from_mapped = dec.decode(mapped.am(), mapped.default_lm(), &utt.scores, &mut NullSink);
        assert_eq!(base, from_mapped, "mmap decode must be bit-identical");

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn variant_lms_share_the_vocabulary_and_decode() {
        let system = System::build(&TaskSpec::tiny());
        let utt = &system.test_utterances(1)[0];
        let path = tmp("variants.unfb");
        std::fs::write(&path, pack_system(&system, &[7, 8]).unwrap()).unwrap();

        let models = Models::open_mmap(&path).unwrap();
        assert_eq!(
            models.lm_names(),
            vec![DEFAULT_LM, "variant-7", "variant-8"]
        );
        assert!(models.lm("nope").is_none());

        let dec = OtfDecoder::new(DecodeConfig::default());
        for name in models.lm_names() {
            let lm = models.lm(name).unwrap();
            let r = dec.decode(models.am(), lm, &utt.scores, &mut NullSink);
            assert!(r.is_complete(), "LM '{name}' failed to decode");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_open_rejects_corrupt_model_payloads() {
        let system = System::build(&TaskSpec::tiny());
        let mut bytes = pack_system(&system, &[]).unwrap();
        // Flip one byte in the middle of the AM payload — deep in the
        // arc bit stream, past everything layout parsing reads.
        let am = Bundle::from_bytes(bytes.clone())
            .unwrap()
            .sections()
            .iter()
            .find(|s| s.name == "am")
            .unwrap()
            .clone();
        bytes[am.offset + am.len / 2] ^= 0x04;
        let path = tmp("corrupt.unfb");
        std::fs::write(&path, &bytes).unwrap();
        match Models::open_mmap(&path) {
            Err(BundleError::ChecksumMismatch(name)) => assert_eq!(name, "am"),
            other => panic!("corrupt payload opened mapped: {other:?}"),
        }
        match Models::open(&path) {
            Err(BundleError::ChecksumMismatch(name)) => assert_eq!(name, "am"),
            other => panic!("corrupt payload opened owned: {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bundle_metadata_roundtrips() {
        let system = System::build(&TaskSpec::tiny());
        let path = tmp("meta.unfb");
        std::fs::write(&path, pack_system(&system, &[]).unwrap()).unwrap();
        let models = Models::open(&path).unwrap();
        let bundle = models.bundle().unwrap();
        assert_eq!(
            bundle.meta("task").unwrap().unwrap(),
            system.spec.name.as_bytes()
        );
        let words = bundle.symtab("words").unwrap().unwrap();
        assert_eq!(
            String::from_utf8_lossy(words).lines().count(),
            system.spec.vocab_size
        );
        std::fs::remove_file(&path).ok();
    }
}

//! Every call into the program, and the span recorded around it.
//!
//! The rest of the harness names no `unfold*` item: a later change that
//! moves or deletes a program surface edits this file only. Entry points
//! used (and nothing else): `TaskSpec`/`System`/`pack_system` (generator
//! side), `Models::{open, open_mmap}`, `validate_models`,
//! `OtfDecoder::{decode, decode_with}` on the default kernel,
//! `StreamSession` + `WorkScratch` with the lattice path
//! (`enable_lattice`, `finalize_lattice`, `nbest`, `best_path_detail`),
//! the lockstep `Server`/`ServeHandle` (`scoring_workers: 0`),
//! `ServeCore` + `Lease` for the replay, `TcpFront` with
//! `ClientMsg::FramesV2`, `GmmScorer`, `BiasingFst`/`BiasedLm`,
//! `CountingSink`, `ServeStats` and the `obs_jsonl` scrape.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use unfold::{pack_system, AmModel, LmModel, ScoringSynth, System, TaskSpec};
use unfold_am::{synthesize_utterance, AcousticScores, GmmModel, Utterance};
use unfold_bias::{BiasedLm, BiasingFst};
use unfold_compress::SectionKind;
use unfold_decoder::{
    validate_models, AcousticScorer, CountingSink, DecodeConfig, DecodeScratch, FrameInput,
    GmmScorer, KernelPhase, NullSink, OtfDecoder, StreamSession, TraceSink, WorkScratch,
};
use unfold_obs::ObsRecord;
use unfold_serve::wire::{read_server, write_client};
use unfold_serve::{
    ClientMsg, ServeConfig, ServeCore, ServeHandle, Server, ServerMsg, TcpFront, DEFAULT_LM,
};
use unfold_wfst::SizeModel;

use crate::spans::Tracer;

pub use unfold::Models;
pub use unfold_bias::BiasingFst as Bias;
#[cfg(test)]
pub use unfold_decoder::DecodeStats;
pub use unfold_decoder::{DecodeResult, WordLattice};
pub use unfold_serve::ServeStats;

/// Frames per client chunk, everywhere a workload streams.
pub const CHUNK_FRAMES: usize = 10;

/// Audio seconds one frame stands for.
pub const FRAME_SECONDS: f64 = unfold_am::acoustic::FRAME_SECONDS;

// ---------------------------------------------------------------------
// Generator side: models fixed by the task, inputs drawn from a seed.
// ---------------------------------------------------------------------

/// The model sets the workloads decode against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// `--smoke`: every code path in well under a second.
    Tiny,
    TedKaldi,
    TedEesen,
    /// Voxforge with a real 39-dim, 8-mixture GMM front end.
    VoxGmm,
    /// `--smoke` stand-in for [`Task::VoxGmm`].
    TinyGmm,
}

/// Mean separation of the Voxforge GMM and the standard deviation of the
/// seeded channel noise the generator adds to every feature, pinned
/// together where the task decodes at 10-15 % WER, every utterance still
/// reaches a final state, and scoring (~125 us a frame) still outweighs
/// search (~85 us). Separation alone cannot get there: at 39 dimensions
/// the mixtures' own 0.3 jitter keeps the classes apart however small it
/// gets (WER tops out near 4 %), and a wide separation with loud noise
/// fails by losing whole utterances, not words.
const VOX_GMM_SEPARATION: f32 = 0.1;
const FEATURE_NOISE: f32 = 0.5;

impl Task {
    fn spec(self) -> TaskSpec {
        match self {
            Task::Tiny => TaskSpec::tiny(),
            Task::TedKaldi => TaskSpec::tedlium_kaldi(),
            Task::TedEesen => TaskSpec::tedlium_eesen(),
            Task::VoxGmm => TaskSpec::voxforge().with_real_gmm(39, 8, VOX_GMM_SEPARATION),
            Task::TinyGmm => TaskSpec::tiny().with_real_gmm(12, 2, 1.2),
        }
    }
}

/// One generated utterance: ground truth, score rows, and (GMM tasks)
/// the feature frames the rows were scored from.
pub struct Utt {
    pub inner: Utterance,
    pub features: Option<Vec<Vec<f32>>>,
}

impl Utt {
    pub fn words(&self) -> &[u32] {
        &self.inner.words
    }

    pub fn num_frames(&self) -> usize {
        self.inner.scores.num_frames()
    }

    pub fn row(&self, t: usize) -> &[f32] {
        self.inner.scores.frame(t)
    }
}

/// The model builder and input synthesizer. Never timed.
pub struct Generator {
    system: System,
    heldout: Vec<Vec<u32>>,
    gmm: Option<Arc<GmmModel>>,
}

impl Generator {
    pub fn build(task: Task) -> Generator {
        let spec = task.spec();
        let system = System::build(&spec);
        // The same split `System::build` holds out, so drawn text follows
        // the LM's training distribution without being in it.
        let (_, heldout) = spec.corpus_spec().generate(spec.seed).split_heldout(0.05);
        let gmm = system.gmm.clone().map(Arc::new);
        Generator {
            system,
            heldout: heldout.sentences,
            gmm,
        }
    }

    /// Packs the models into a `.unfb` bundle at `path`.
    pub fn write_bundle(&self, path: &Path) {
        let bytes = pack_system(&self.system, &[]).expect("a built system packs");
        std::fs::write(path, bytes).expect("write the bundle inside the checkout");
    }

    /// The held-out sentences of at least `words` words.
    pub fn texts_of(&self, words: usize) -> Vec<usize> {
        (0..self.heldout.len())
            .filter(|&i| self.heldout[i].len() >= words)
            .collect()
    }

    pub fn num_pdfs(&self) -> usize {
        self.system.am.num_pdfs
    }

    pub fn vocab(&self) -> u32 {
        self.system.spec.vocab_size as u32
    }

    pub fn gmm(&self) -> Option<Arc<GmmModel>> {
        self.gmm.clone()
    }

    /// Bytes of the offline-composed graph this task would need instead.
    pub fn composed_bytes(&self) -> u64 {
        SizeModel::UNCOMPRESSED.bytes(&self.system.composed())
    }

    /// Synthesizes the first `words` words of held-out sentence `text`
    /// with acoustic noise drawn from `noise_seed`.
    pub fn utterance(&self, text: usize, words: usize, noise_seed: u64) -> Utt {
        let words = &self.heldout[text][..words];
        let spec = &self.system.spec;
        match (&self.gmm, spec.scoring) {
            (Some(gmm), ScoringSynth::RealGmm { .. }) => self.gmm_utterance(words, gmm, noise_seed),
            _ => Utt {
                inner: synthesize_utterance(
                    words,
                    &self.system.lexicon,
                    spec.topology,
                    &spec.noise,
                    noise_seed,
                ),
                features: None,
            },
        }
    }

    /// Like `unfold_am::synthesize_utterance_gmm`, but keeps the sampled
    /// feature frames: they are what a feature-pushing client sends.
    fn gmm_utterance(&self, words: &[u32], gmm: &Arc<GmmModel>, seed: u64) -> Utt {
        let mut rng = SmallRng::seed_from_u64(seed);
        let topology = self.system.spec.topology;
        let mut alignment = Vec::new();
        for &w in words {
            for &ph in self.system.lexicon.pronunciation(w) {
                for pdf in topology.pdfs(ph) {
                    let mut dwell = 1;
                    while dwell < 4 && rng.gen::<f32>() < 0.45 {
                        dwell += 1;
                    }
                    alignment.extend(std::iter::repeat_n(pdf, dwell));
                }
            }
        }
        let features: Vec<Vec<f32>> = alignment
            .iter()
            .map(|&pdf| {
                let mut f = gmm.sample_frame(pdf, &mut rng);
                for x in &mut f {
                    // Box-Muller: channel noise on top of the model's own
                    // within-class variance.
                    let (u1, u2): (f32, f32) = (rng.gen_range(1e-7..1.0), rng.gen());
                    *x += FEATURE_NOISE
                        * (-2.0 * u1.ln()).sqrt()
                        * (std::f32::consts::TAU * u2).cos();
                }
                f
            })
            .collect();
        // The reference rows come from the scorer the server will run.
        let scorer = GmmScorer::new(Arc::clone(gmm));
        let mut flat = Vec::with_capacity(features.len() * gmm.num_pdfs());
        let mut row = Vec::new();
        for f in &features {
            scorer
                .score_into(&FrameInput::Features(f.clone()), &mut row)
                .expect("sampled features have the model's width");
            flat.extend_from_slice(&row);
        }
        Utt {
            inner: Utterance {
                words: words.to_vec(),
                alignment,
                scores: AcousticScores::from_flat(flat, gmm.num_pdfs()),
            },
            features: Some(features),
        }
    }
}

/// The `user`-th minted biasing model (fixed by the task, not the seed).
pub fn mint_bias(user: usize, vocab: u32) -> Arc<BiasingFst> {
    Arc::new(BiasingFst::mint(0xB1A5_0000 + user as u64, vocab, 8))
}

pub fn bias_name(user: usize) -> String {
    format!("user-{user}")
}

/// Word errors of `hyp` against `reference`: `(errors, reference words)`.
pub fn word_errors(reference: &[u32], hyp: &[u32]) -> (u64, u64) {
    let r = unfold_decoder::wer(reference, hyp);
    (
        (r.substitutions + r.deletions + r.insertions) as u64,
        r.ref_words as u64,
    )
}

// ---------------------------------------------------------------------
// Decode-time sink: the program's CountingSink plus kernel phase clocks.
// ---------------------------------------------------------------------

/// Counts through the program's [`CountingSink`]; when `timing` is set it
/// also asks the kernel for its per-phase clocks.
#[derive(Default)]
pub struct Sink {
    pub counts: CountingSink,
    /// Nanoseconds per [`KernelPhase`], in `KernelPhase::ALL` order.
    pub kernel_ns: [u64; 4],
    pub timing: bool,
}

pub const KERNEL_PHASES: [&str; 4] = ["threshold", "batch_probe", "expand", "closure"];

impl TraceSink for Sink {
    fn frame_start(&mut self, frame: usize, active: usize) {
        self.counts.frame_start(frame, active);
    }
    fn state_fetch(&mut self, addr: u64) {
        self.counts.state_fetch(addr);
    }
    fn am_arc_fetch(&mut self, addr: u64, bytes: u32) {
        self.counts.am_arc_fetch(addr, bytes);
    }
    fn lm_lookup(&mut self, s: u32, w: u32) {
        self.counts.lm_lookup(s, w);
    }
    fn lm_arc_fetch(&mut self, addr: u64, bytes: u32) {
        self.counts.lm_arc_fetch(addr, bytes);
    }
    fn lm_resolved(&mut self, s: u32, w: u32, hops: u32) {
        self.counts.lm_resolved(s, w, hops);
    }
    fn acoustic_fetch(&mut self, frame: usize, pdf: u32) {
        self.counts.acoustic_fetch(frame, pdf);
    }
    fn hash_insert(&mut self, key: u64) {
        self.counts.hash_insert(key);
    }
    fn token_store(&mut self, addr: u64, bytes: u32) {
        self.counts.token_store(addr, bytes);
    }
    fn preemptive_prune(&mut self) {
        self.counts.preemptive_prune();
    }
    fn olt_probe(&mut self, s: u32, w: u32, hit: bool) {
        self.counts.olt_probe(s, w, hit);
    }
    fn olt_install(&mut self, evicted: bool) {
        self.counts.olt_install(evicted);
    }
    fn wants_kernel_timing(&self) -> bool {
        self.timing
    }
    fn kernel_phase(&mut self, phase: KernelPhase, ns: u64) {
        self.kernel_ns[phase.index()] += ns;
    }
}

/// What a decode call reports to: nothing on timed paths, a [`Sink`] on
/// the traced replay.
pub enum Probe<'a> {
    Null,
    Sink(&'a mut Sink),
}

impl Probe<'_> {
    fn with<R>(&mut self, f: impl FnOnce(&mut dyn TraceSink) -> R) -> R {
        match self {
            Probe::Null => f(&mut NullSink),
            Probe::Sink(s) => f(&mut **s),
        }
    }
}

// ---------------------------------------------------------------------
// Models.
// ---------------------------------------------------------------------

pub fn open_owned(path: &Path, t: &mut Tracer) -> Models {
    t.span("compress.open_owned", 0, || {
        Models::open(path).expect("the bundle this run just packed opens")
    })
}

pub fn open_mmap(path: &Path, t: &mut Tracer) -> Models {
    t.span("compress.open_mmap", 0, || {
        Models::open_mmap(path).expect("the bundle this run just packed maps")
    })
}

/// The one-time model sweep a decoder or server runs before its first
/// frame (PDF ids fit the score row, back-off chains terminate).
pub fn validate(models: &Models, num_pdfs: usize) {
    validate_models(models.am(), models.default_lm(), num_pdfs);
}

/// `(am, lm, whole bundle)` bytes the opened models hold.
pub fn model_bytes(models: &Models) -> (u64, u64, u64) {
    let bundle = models.bundle().expect("models were opened from a bundle");
    let section = |kind: SectionKind, name: &str| -> u64 {
        bundle
            .sections()
            .iter()
            .find(|s| s.kind == kind && (kind == SectionKind::Am || s.name == name))
            .map_or(0, |s| s.len as u64)
    };
    (
        section(SectionKind::Am, ""),
        section(SectionKind::Lm, unfold::DEFAULT_LM),
        bundle.bytes().len() as u64,
    )
}

fn decode_config(olt_entries: usize) -> DecodeConfig {
    DecodeConfig::builder()
        .olt_entries(olt_entries)
        .build()
        .expect("a power-of-two OLT is a valid config")
}

/// The untimed oracle: a fresh-scratch `OtfDecoder::decode` at the
/// default beams, through a `BiasedLm` for personalized sessions.
pub fn reference_decode(models: &Models, utt: &Utt, bias: Option<&BiasingFst>) -> DecodeResult {
    let dec = OtfDecoder::new(DecodeConfig::default());
    match bias {
        None => dec.decode(
            models.am(),
            models.default_lm(),
            &utt.inner.scores,
            &mut NullSink,
        ),
        Some(b) => dec.decode(
            models.am(),
            &BiasedLm::new(models.default_lm(), b),
            &utt.inner.scores,
            &mut NullSink,
        ),
    }
}

// ---------------------------------------------------------------------
// Offline decode.
// ---------------------------------------------------------------------

/// One thread's offline decoder: a decoder and its warm scratch.
pub struct Offline {
    decoder: OtfDecoder,
    scratch: DecodeScratch,
}

impl Offline {
    pub fn new(olt_entries: usize) -> Offline {
        Offline {
            decoder: OtfDecoder::new(decode_config(olt_entries)),
            scratch: DecodeScratch::new(),
        }
    }

    pub fn decode(
        &mut self,
        models: &Models,
        utt: &Utt,
        session: u32,
        probe: &mut Probe,
        t: &mut Tracer,
    ) -> DecodeResult {
        t.span("decoder.decode", session, || {
            probe.with(|sink| {
                self.decoder.decode_with(
                    models.am(),
                    models.default_lm(),
                    &utt.inner.scores,
                    &mut self.scratch,
                    sink,
                )
            })
        })
    }
}

/// Wall seconds of decoding `utts` with a `jobs`-wide pool.
pub fn batch_wall_s(models: &Models, utts: &[Utt], olt_entries: usize, jobs: usize) -> f64 {
    let decoder = OtfDecoder::new(decode_config(olt_entries));
    let inner: Vec<Utterance> = utts.iter().map(|u| u.inner.clone()).collect();
    let (results, pool) = unfold::decode_batch(&inner, jobs, |_, utt, scratch| {
        decoder.decode_with(
            models.am(),
            models.default_lm(),
            &utt.scores,
            scratch,
            &mut NullSink,
        )
    });
    std::hint::black_box(results);
    pool.wall_ns as f64 / 1e9
}

// ---------------------------------------------------------------------
// Streaming decode with the lattice path.
// ---------------------------------------------------------------------

/// One thread's streaming worker: the `WorkScratch` (and OLT) that
/// outlives sessions, exactly as a serve worker keeps it.
pub struct Streamer {
    config: DecodeConfig,
    work: WorkScratch,
}

impl Streamer {
    pub fn new(olt_entries: usize) -> Streamer {
        let mut work = WorkScratch::new();
        work.configure_olt(olt_entries);
        Streamer {
            config: decode_config(olt_entries),
            work,
        }
    }

    /// A seeded session, recording the expansion tape when `lattice`.
    pub fn begin(
        &mut self,
        models: &Models,
        lattice: bool,
        session: u32,
        probe: &mut Probe,
        t: &mut Tracer,
    ) -> StreamSession {
        t.span("decoder.stream.seed", session, || {
            let mut s = StreamSession::new(self.config);
            if lattice {
                s.enable_lattice();
            }
            probe.with(|sink| s.seed(models.am(), models.default_lm(), &mut self.work, sink));
            s
        })
    }

    pub fn push(
        &mut self,
        s: &mut StreamSession,
        models: &Models,
        row: &[f32],
        session: u32,
        probe: &mut Probe,
        t: &mut Tracer,
    ) {
        t.span("decoder.stream.push", session, || {
            probe.with(|sink| {
                s.push_frame(models.am(), models.default_lm(), &mut self.work, row, sink)
            })
        });
    }
}

pub fn stream_partial(s: &StreamSession, session: u32, t: &mut Tracer) -> Vec<u32> {
    t.span("decoder.stream.partial", session, || {
        s.partial_stable_prefix()
    })
}

/// The 1-best finalize alone. Only the replay calls it, to separate the
/// backtrace from the lattice build that `finalize_lattice` fuses.
pub fn stream_finalize(
    s: &StreamSession,
    models: &Models,
    session: u32,
    probe: &mut Probe,
    t: &mut Tracer,
) -> DecodeResult {
    t.span("decoder.stream.finalize", session, || {
        probe.with(|sink| s.finalize(models.am(), sink))
    })
}

pub fn stream_finalize_lattice(
    s: &StreamSession,
    models: &Models,
    session: u32,
    probe: &mut Probe,
    t: &mut Tracer,
) -> (DecodeResult, WordLattice) {
    t.span("decoder.lattice.build", session, || {
        probe.with(|sink| s.finalize_lattice(models.am(), sink))
    })
}

pub fn lattice_nbest(
    lat: &WordLattice,
    n: usize,
    session: u32,
    t: &mut Tracer,
) -> Vec<(Vec<u32>, f32)> {
    t.span("decoder.lattice.nbest", session, || lat.nbest(n))
}

/// Per-word detail of the best path; returns how many words it holds.
pub fn lattice_detail(lat: &WordLattice, session: u32, t: &mut Tracer) -> usize {
    t.span("decoder.lattice.detail", session, || {
        std::hint::black_box(lat.best_path_detail()).len()
    })
}

pub fn lattice_size(lat: &WordLattice) -> (u64, u64) {
    (lat.num_nodes() as u64, lat.num_arcs() as u64)
}

// ---------------------------------------------------------------------
// The threaded lockstep server, in process and behind TCP.
// ---------------------------------------------------------------------

/// One search worker, lockstep scoring, and bounds sized so admission
/// pressure stays under `DEGRADE_SOFT` at the workloads' concurrency.
fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        scoring_workers: 0,
        capacity: 2_048,
        max_backlog_frames: 262_144,
        ..ServeConfig::default()
    }
}

fn serve_parts(models: &Models) -> (Arc<AmModel>, Vec<(String, Arc<LmModel>)>) {
    (
        Arc::new(models.am().clone()),
        vec![(
            DEFAULT_LM.to_string(),
            Arc::new(models.default_lm().clone()),
        )],
    )
}

fn scorer_of(gmm: Option<Arc<GmmModel>>) -> Option<Arc<dyn AcousticScorer>> {
    gmm.map(|g| Arc::new(GmmScorer::new(g)) as Arc<dyn AcousticScorer>)
}

/// A live scrape of the server's own metrics record.
#[derive(Debug, Default, Clone, Copy)]
pub struct Scrape {
    pub backlog_frames: f64,
    pub frames_inflight: f64,
    pub search_occupancy: f64,
}

fn parse_scrape(jsonl: &str) -> Scrape {
    let Ok(ObsRecord::Run(pairs)) = ObsRecord::parse_line(jsonl.trim_end()) else {
        panic!("the server's stats scrape is not a run record");
    };
    let get = |name: &str| {
        pairs
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    Scrape {
        backlog_frames: get("serve.backlog_frames"),
        frames_inflight: get("serve.frames_inflight"),
        search_occupancy: get("serve.stage_search_occupancy"),
    }
}

pub type SessionId = u64;

pub struct InProc {
    server: Server<AmModel, LmModel>,
    handle: ServeHandle<AmModel, LmModel>,
}

impl InProc {
    pub fn start(models: &Models, gmm: Option<Arc<GmmModel>>) -> InProc {
        let (am, lms) = serve_parts(models);
        let server = Server::start_multi_with_scorer(serve_config(), am, lms, scorer_of(gmm));
        let handle = server.handle();
        InProc { server, handle }
    }

    pub fn add_bias(&self, name: &str, bias: Arc<BiasingFst>) {
        self.handle.add_bias(name, bias);
    }

    /// `None` when admission refuses the session.
    pub fn open(&self, bias: Option<&str>) -> Option<SessionId> {
        self.handle.open_with_models(None, bias).ok()
    }

    /// Whether the server took the frame.
    pub fn ingest_scores(&self, id: SessionId, row: &[f32]) -> bool {
        self.handle
            .ingest_frame(id, FrameInput::Scores(row.to_vec()))
            .is_ok()
    }

    pub fn finish(&self, id: SessionId) -> bool {
        self.handle.finish(id).is_ok()
    }

    /// The final result if it is ready; `Err` when the session vanished.
    pub fn poll_result(&self, id: SessionId) -> Result<Option<DecodeResult>, ()> {
        self.handle.wait_result(id, Duration::ZERO).map_err(|_| ())
    }

    /// `(frames decoded, admitted at full beams)`, `None` once gone.
    pub fn progress(&self, id: SessionId) -> Option<(u64, bool)> {
        self.handle
            .view(id)
            .ok()
            .map(|v| (v.frames_decoded, v.degrade_level == 0))
    }

    pub fn partial(&self, id: SessionId) -> Option<Vec<u32>> {
        self.handle.stable_partial(id).ok()
    }

    pub fn stats(&self) -> ServeStats {
        self.handle.stats()
    }

    pub fn scrape(&self) -> Scrape {
        parse_scrape(&self.handle.obs_jsonl())
    }

    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// The server behind its TCP front end on an ephemeral loopback port.
pub struct Tcp {
    inner: InProc,
    front: TcpFront,
}

impl Tcp {
    pub fn start(models: &Models, gmm: Option<Arc<GmmModel>>) -> Tcp {
        let inner = InProc::start(models, gmm);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let front = TcpFront::start(listener, inner.handle.clone()).expect("start the front end");
        Tcp { inner, front }
    }

    pub fn addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    pub fn stats(&self) -> ServeStats {
        self.inner.stats()
    }

    pub fn scrape(&self) -> Scrape {
        self.inner.scrape()
    }

    /// Stops accepting, then stops and joins the workers.
    pub fn shutdown(self) {
        drop(self.front);
        self.inner.shutdown();
    }
}

/// A wire client: one connection, sessions back to back.
pub struct Client {
    rd: BufReader<TcpStream>,
    wr: BufWriter<TcpStream>,
}

/// What the wire's `Final` carries.
pub struct WireFinal {
    pub words: Vec<u32>,
    pub cost: f32,
    pub frames: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            rd: BufReader::new(stream.try_clone()?),
            wr: BufWriter::new(stream),
        })
    }

    fn call(&mut self, msg: &ClientMsg) -> Option<ServerMsg> {
        write_client(&mut self.wr, msg).ok()?;
        read_server(&mut self.rd).ok()?
    }

    /// Whether the server admitted a session on this connection.
    pub fn open(&mut self) -> bool {
        matches!(
            self.call(&ClientMsg::Open {
                lm: None,
                bias: None
            }),
            Some(ServerMsg::Opened { .. })
        )
    }

    /// Sends one `FramesV2` feature chunk and waits for its `Partial`.
    pub fn send_features(&mut self, chunk: &[Vec<f32>]) -> Option<Vec<u32>> {
        let frames = chunk.iter().cloned().map(FrameInput::Features).collect();
        match self.call(&ClientMsg::FramesV2(frames)) {
            Some(ServerMsg::Partial { words }) => Some(words),
            _ => None,
        }
    }

    pub fn finish(&mut self) -> Option<WireFinal> {
        match self.call(&ClientMsg::Finish) {
            Some(ServerMsg::Final {
                words,
                cost,
                frames,
            }) => Some(WireFinal {
                words,
                cost,
                frames,
            }),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// The serve layer replayed by hand: ServeCore on an explicit clock, one
// thread playing client, worker and front end in turn.
// ---------------------------------------------------------------------

pub struct Replay {
    core: ServeCore<AmModel, LmModel>,
    am: Arc<AmModel>,
    work: WorkScratch,
    scorer: Option<GmmScorer>,
    row: Vec<f32>,
    /// Client-to-server bytes that crossed the (replayed) wire.
    pub wire_bytes: u64,
}

impl Replay {
    pub fn new(models: &Models, gmm: Option<Arc<GmmModel>>) -> Replay {
        let config = serve_config();
        let mut work = WorkScratch::new();
        work.configure_olt(config.olt_entries);
        let (am, lms) = serve_parts(models);
        let mut core = ServeCore::new_multi(config, Arc::clone(&am), lms);
        if let Some(s) = scorer_of(gmm.clone()) {
            core.set_scorer(s);
        }
        Replay {
            core,
            am,
            work,
            scorer: gmm.map(GmmScorer::new),
            row: Vec::new(),
            wire_bytes: 0,
        }
    }

    pub fn add_bias(&mut self, name: &str, bias: Arc<BiasingFst>) {
        self.core.add_bias(name, bias);
    }

    pub fn open(
        &mut self,
        bias: Option<&str>,
        now_ms: u64,
        session: u32,
        t: &mut Tracer,
    ) -> Option<SessionId> {
        t.span("serve.open", session, || {
            self.core.open_with_models(None, bias, now_ms).ok()
        })
    }

    pub fn ingest_scores(
        &mut self,
        id: SessionId,
        row: &[f32],
        now_ms: u64,
        session: u32,
        t: &mut Tracer,
    ) -> bool {
        let frame = FrameInput::Scores(row.to_vec());
        t.span("serve.ingest", session, || {
            self.core.ingest_frame(id, frame, now_ms).is_ok()
        })
    }

    /// What lockstep ingest does to a feature frame, split at the layer
    /// boundary: score it through the GMM, then admit the scored row.
    pub fn ingest_features(
        &mut self,
        id: SessionId,
        feat: &[f32],
        now_ms: u64,
        session: u32,
        t: &mut Tracer,
    ) -> bool {
        let scorer = self.scorer.as_ref().expect("a feature replay binds a GMM");
        let frame = FrameInput::Features(feat.to_vec());
        let scored = t.span("am.gmm.score", session, || {
            scorer.score_into(&frame, &mut self.row).is_ok()
        });
        if !scored {
            return false;
        }
        let row = std::mem::take(&mut self.row);
        let ok = self.ingest_scores(id, &row, now_ms, session, t);
        self.row = row;
        ok
    }

    pub fn finish(&mut self, id: SessionId, now_ms: u64, session: u32, t: &mut Tracer) -> bool {
        t.span("serve.finish", session, || {
            self.core.finish(id, now_ms).is_ok()
        })
    }

    /// Plays the worker until no session has pending work: idle sweep,
    /// lease, decode outside the "lock", return the lease. `session_of`
    /// maps a server id back to the harness's session index.
    pub fn drain(
        &mut self,
        now_ms: u64,
        session_of: impl Fn(SessionId) -> u32,
        probe: &mut Probe,
        t: &mut Tracer,
    ) {
        loop {
            t.span("serve.evict_idle", 0, || self.core.evict_idle(now_ms));
            let lease = t.span("serve.lease_next", 0, || self.core.lease_next(now_ms));
            let Some(mut lease) = lease else { return };
            let session = session_of(lease.session());
            t.span("serve.lease_run", session, || {
                probe.with(|sink| lease.run(&*self.am, &mut self.work, sink))
            });
            t.span("serve.complete_lease", session, || {
                self.core.complete_lease(lease, now_ms)
            });
        }
    }

    pub fn partial(&mut self, id: SessionId, session: u32, t: &mut Tracer) -> Option<Vec<u32>> {
        t.span("serve.partial", session, || {
            self.core.stable_partial(id).ok()
        })
    }

    pub fn take_result(
        &mut self,
        id: SessionId,
        session: u32,
        t: &mut Tracer,
    ) -> Option<DecodeResult> {
        t.span("serve.take_result", session, || {
            self.core.take_result(id).ok().flatten()
        })
    }

    pub fn scrape(&mut self, t: &mut Tracer) -> Scrape {
        let jsonl = t.span("obs.stats_scrape", 0, || self.core.obs_jsonl());
        parse_scrape(&jsonl)
    }

    pub fn stats(&self) -> ServeStats {
        self.core.stats()
    }

    fn client_roundtrip(&mut self, msg: &ClientMsg, session: u32, t: &mut Tracer) -> ClientMsg {
        let bytes = t.span("serve.wire.encode", session, || msg.encode());
        self.wire_bytes += bytes.len() as u64 + 4;
        t.span("serve.wire.decode", session, || {
            ClientMsg::decode(&bytes).expect("the wire decodes what it encoded")
        })
    }

    fn server_roundtrip(msg: &ServerMsg, session: u32, t: &mut Tracer) {
        let bytes = t.span("serve.wire.encode", session, || msg.encode());
        t.span("serve.wire.decode", session, || {
            std::hint::black_box(
                ServerMsg::decode(&bytes).expect("the wire decodes what it encoded"),
            )
        });
    }

    /// `Open` and its `Opened` reply across the wire codec.
    pub fn wire_open(&mut self, id: SessionId, session: u32, t: &mut Tracer) {
        self.client_roundtrip(
            &ClientMsg::Open {
                lm: None,
                bias: None,
            },
            session,
            t,
        );
        Self::server_roundtrip(&ServerMsg::Opened { session: id }, session, t);
    }

    /// A `FramesV2` feature chunk across the wire codec; returns the
    /// frames as the server's connection thread would see them.
    pub fn wire_features(
        &mut self,
        chunk: &[Vec<f32>],
        session: u32,
        t: &mut Tracer,
    ) -> Vec<Vec<f32>> {
        let msg = ClientMsg::FramesV2(chunk.iter().cloned().map(FrameInput::Features).collect());
        match self.client_roundtrip(&msg, session, t) {
            ClientMsg::FramesV2(frames) => {
                frames.into_iter().map(FrameInput::into_values).collect()
            }
            other => panic!("FramesV2 decoded as {other:?}"),
        }
    }

    pub fn wire_partial(&mut self, words: Vec<u32>, session: u32, t: &mut Tracer) {
        Self::server_roundtrip(&ServerMsg::Partial { words }, session, t);
    }

    pub fn wire_finish(&mut self, res: &DecodeResult, session: u32, t: &mut Tracer) {
        self.client_roundtrip(&ClientMsg::Finish, session, t);
        Self::server_roundtrip(
            &ServerMsg::Final {
                words: res.words.clone(),
                cost: res.cost,
                frames: res.stats.frames as u64,
            },
            session,
            t,
        );
    }
}

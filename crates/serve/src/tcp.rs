//! TCP front end: a `std::net` accept loop translating the wire
//! protocol onto a [`ServeHandle`], one session per connection.

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use unfold_decoder::{AmSource, FrameInput, LmSource};

use crate::server::ServeHandle;
use crate::wire::{read_client, write_server, ClientMsg, ServerMsg};
use crate::{ServeError, SessionId};

/// How long a connection waits for queued frames to decode before
/// answering `Partial`, and for the final result before giving up.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Poll interval of the (non-blocking) accept loop. Accept latency is
/// bounded by this; connection handling itself is blocking I/O.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// A running TCP front end. Dropping it (or calling
/// [`TcpFront::stop`]) stops accepting; established connections run to
/// completion on their own threads.
pub struct TcpFront {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl TcpFront {
    /// Starts accepting on `listener` (bind with port 0 for an
    /// ephemeral port, then read it back from
    /// [`TcpFront::local_addr`]). The accept loop also exits on the
    /// server's own shutdown flag, so a wire `Shutdown` message stops
    /// the front end too.
    ///
    /// # Errors
    /// Propagates listener setup failures.
    pub fn start<A, L>(listener: TcpListener, handle: ServeHandle<A, L>) -> io::Result<TcpFront>
    where
        A: AmSource + Send + Sync + 'static + ?Sized,
        L: LmSource + Send + Sync + 'static + ?Sized,
    {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("unfold-serve-accept".into())
            .spawn(move || accept_loop(&listener, &handle, &stop2))
            .expect("spawn accept loop");
        Ok(TcpFront {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the accept loop exits (i.e. until server shutdown
    /// is requested over the wire or [`TcpFront::stop`] is called from
    /// another thread).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Asks the accept loop to exit.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

impl Drop for TcpFront {
    fn drop(&mut self) {
        self.stop();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop<A, L>(listener: &TcpListener, handle: &ServeHandle<A, L>, stop: &AtomicBool)
where
    A: AmSource + Send + Sync + 'static + ?Sized,
    L: LmSource + Send + Sync + 'static + ?Sized,
{
    while !stop.load(Ordering::SeqCst) && !handle.shutdown_requested() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let handle = handle.clone();
                let _ = std::thread::Builder::new()
                    .name("unfold-serve-conn".into())
                    .spawn(move || {
                        let _ = serve_connection(stream, &handle);
                    });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
    }
}

fn reject_to_msg(e: ServeError) -> ServerMsg {
    match e {
        ServeError::Rejected(reason) => ServerMsg::Rejected { reason },
        other => ServerMsg::Error {
            msg: other.to_string(),
        },
    }
}

/// Answers one `FramesV2` chunk: pushes each frame in order and stops
/// at the first one refused (those before it stay admitted; the reply
/// carries the refusal).
fn ingest_chunk<A, L>(
    handle: &ServeHandle<A, L>,
    session: Option<SessionId>,
    frames: Vec<FrameInput>,
) -> ServerMsg
where
    A: AmSource + Send + Sync + 'static + ?Sized,
    L: LmSource + Send + Sync + 'static + ?Sized,
{
    let Some(id) = session else {
        return ServerMsg::Error {
            msg: "no open session on this connection".into(),
        };
    };
    for frame in frames {
        if let Err(e) = handle.ingest_frame(id, frame) {
            return reject_to_msg(e);
        }
    }
    // Closed loop: answer once this chunk has been decoded, so the
    // partial reflects it and the client paces itself to the server.
    handle.wait_drained(id, DRAIN_TIMEOUT);
    match handle.stable_partial(id) {
        Ok(words) => ServerMsg::Partial { words },
        Err(e) => reject_to_msg(e),
    }
}

/// Runs one connection to completion. Client disconnection
/// mid-session is fine: the session is left to the idle-timeout sweep.
/// A peer that sends nothing, or reads nothing, for the idle timeout
/// is treated the same way: the socket times out and the connection
/// closes, so a silent client cannot hold its thread forever.
fn serve_connection<A, L>(stream: TcpStream, handle: &ServeHandle<A, L>) -> io::Result<()>
where
    A: AmSource + Send + Sync + 'static + ?Sized,
    L: LmSource + Send + Sync + 'static + ?Sized,
{
    stream.set_nodelay(true).ok();
    let idle = handle.idle_timeout();
    stream.set_read_timeout(idle)?;
    stream.set_write_timeout(idle)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut session: Option<SessionId> = None;
    while let Some(msg) = read_client(&mut reader)? {
        let reply = match msg {
            ClientMsg::Open { lm, bias } => {
                match handle.open_with_models(lm.as_deref(), bias.as_deref()) {
                    Ok(id) => {
                        session = Some(id);
                        ServerMsg::Opened { session: id }
                    }
                    Err(e) => reject_to_msg(e),
                }
            }
            ClientMsg::AddBias { name, phrases } => {
                // `BiasingFst::build` asserts on malformed input (it is
                // a library-misuse check); a remote client's payload is
                // validated here so a bad phrase answers `Error` instead
                // of killing the connection thread.
                let bad = phrases.iter().any(|(words, bonus)| {
                    words.is_empty() || words.contains(&0) || !bonus.is_finite() || *bonus <= 0.0
                });
                if bad {
                    ServerMsg::Error {
                        msg: format!(
                            "bad biasing model '{name}': phrases must be non-empty, \
                             epsilon-free, with finite positive bonuses"
                        ),
                    }
                } else {
                    handle.add_bias(&name, Arc::new(unfold_bias::BiasingFst::build(&phrases)));
                    ServerMsg::Ack
                }
            }
            ClientMsg::RetireBias { name } => match handle.retire_bias(&name) {
                Ok(_) => ServerMsg::Ack,
                Err(e) => reject_to_msg(e),
            },
            ClientMsg::FramesV2(frames) => ingest_chunk(handle, session, frames),
            ClientMsg::Finish => match session.take() {
                None => ServerMsg::Error {
                    msg: "no open session on this connection".into(),
                },
                Some(id) => match handle.finish(id) {
                    Err(e) => reject_to_msg(e),
                    Ok(()) => match handle.wait_result(id, DRAIN_TIMEOUT) {
                        Ok(Some(res)) => ServerMsg::Final {
                            words: res.words.clone(),
                            cost: res.cost,
                            frames: res.stats.frames as u64,
                        },
                        Ok(None) => ServerMsg::Error {
                            msg: "timed out waiting for the final result".into(),
                        },
                        Err(e) => reject_to_msg(e),
                    },
                },
            },
            ClientMsg::Stats => ServerMsg::Stats {
                jsonl: handle.obs_jsonl(),
            },
            ClientMsg::Dump => ServerMsg::Dump {
                flight: handle.flight_jsonl(),
                spans: handle.spans_jsonl(),
            },
            ClientMsg::Shutdown => {
                handle.request_shutdown();
                break;
            }
        };
        write_server(&mut writer, &reply)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use crate::testkit::{setup, utt};
    use crate::wire::{read_server, write_client};
    use crate::ServeConfig;
    use std::io::{BufReader as R, BufWriter as W};
    use unfold_am::{synthesize_utterance, HmmTopology, NoiseModel};
    use unfold_decoder::{DecodeConfig, NullSink, OtfDecoder, ScoreError};

    #[test]
    fn tcp_session_roundtrip_matches_standalone_decode() {
        let (lex, am, lm) = setup();
        let u = utt(&lex, &[3, 9, 17], 5);
        let base = DecodeConfig::default();
        let alone = OtfDecoder::new(base).decode(&*am, &*lm, &u.scores, &mut NullSink);

        let server = Server::start(
            ServeConfig {
                workers: 1,
                olt_entries: 0,
                base,
                ..Default::default()
            },
            Arc::clone(&am),
            Arc::clone(&lm),
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let front = TcpFront::start(listener, server.handle()).unwrap();

        let stream = TcpStream::connect(front.local_addr()).unwrap();
        let mut rd = R::new(stream.try_clone().unwrap());
        let mut wr = W::new(stream);
        write_client(
            &mut wr,
            &ClientMsg::Open {
                lm: None,
                bias: None,
            },
        )
        .unwrap();
        assert!(matches!(
            read_server(&mut rd).unwrap(),
            Some(ServerMsg::Opened { .. })
        ));
        let frames: Vec<FrameInput> = (0..u.scores.num_frames())
            .map(|t| FrameInput::Scores(u.scores.frame(t).to_vec()))
            .collect();
        for chunk in frames.chunks(10) {
            write_client(&mut wr, &ClientMsg::FramesV2(chunk.to_vec())).unwrap();
            let reply = read_server(&mut rd).unwrap().unwrap();
            let ServerMsg::Partial { words } = reply else {
                panic!("expected Partial, got {reply:?}");
            };
            assert!(
                words.len() <= alone.words.len() && alone.words[..words.len()] == words[..],
                "stable partial {words:?} must prefix the final {:?}",
                alone.words
            );
        }
        write_client(&mut wr, &ClientMsg::Finish).unwrap();
        let reply = read_server(&mut rd).unwrap().unwrap();
        let ServerMsg::Final {
            words,
            cost,
            frames,
        } = reply
        else {
            panic!("expected Final, got {reply:?}");
        };
        assert_eq!(words, alone.words);
        assert_eq!(cost.to_bits(), alone.cost.to_bits());
        assert_eq!(frames as usize, u.scores.num_frames());

        write_client(&mut wr, &ClientMsg::Stats).unwrap();
        let ServerMsg::Stats { jsonl } = read_server(&mut rd).unwrap().unwrap() else {
            panic!("expected Stats");
        };
        assert!(jsonl.contains("serve.finals"));

        // A Dump over the same connection carries the flight ring (an
        // Admit at least) and the now-closed session's spans.
        write_client(&mut wr, &ClientMsg::Dump).unwrap();
        let ServerMsg::Dump { flight, spans } = read_server(&mut rd).unwrap().unwrap() else {
            panic!("expected Dump");
        };
        assert!(flight.contains("\"event\":\"admit\""), "{flight}");
        assert!(spans.contains("\"stage\":\"session\""), "{spans}");

        write_client(&mut wr, &ClientMsg::Shutdown).unwrap();
        front.join();
        server.shutdown();
    }

    /// `FramesV2` feature chunks over TCP — the path a deployed client
    /// takes — scored by the server's GMM, land the standalone
    /// transcript of the GMM's rows bit for bit.
    #[test]
    fn frames_v2_over_tcp_matches_standalone() {
        use unfold_am::{AcousticScores, GmmModel};
        use unfold_decoder::GmmScorer;

        let (lex, am, lm) = setup();
        let width = utt(&lex, &[3], 1).scores.frame(0).len();
        let model = Arc::new(GmmModel::synthesize(width, 8, 2, 3.0, 41));
        let feats: Vec<Vec<f32>> = (0..30)
            .map(|t: usize| {
                (0..model.dim())
                    .map(|d| ((t * 31 + d * 7) % 13) as f32 * 0.25 - 1.5)
                    .collect()
            })
            .collect();
        let rows: Vec<f32> = feats.iter().flat_map(|f| model.frame_costs(f)).collect();
        let scores = AcousticScores::from_flat(rows, width);
        let base = DecodeConfig::default();
        let alone = OtfDecoder::new(base).decode(&*am, &*lm, &scores, &mut NullSink);

        let server = Server::start_multi_with_scorer(
            ServeConfig {
                workers: 1,
                olt_entries: 0,
                base,
                ..Default::default()
            },
            am,
            vec![(crate::sched::DEFAULT_LM.to_string(), lm)],
            Some(Arc::new(GmmScorer::new(model))),
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let front = TcpFront::start(listener, server.handle()).unwrap();
        let stream = TcpStream::connect(front.local_addr()).unwrap();
        let mut rd = R::new(stream.try_clone().unwrap());
        let mut wr = W::new(stream);
        let open = ClientMsg::Open {
            lm: None,
            bias: None,
        };
        write_client(&mut wr, &open).unwrap();
        assert!(matches!(
            read_server(&mut rd).unwrap(),
            Some(ServerMsg::Opened { .. })
        ));
        for chunk in feats.chunks(10) {
            let frames = chunk.iter().cloned().map(FrameInput::Features).collect();
            write_client(&mut wr, &ClientMsg::FramesV2(frames)).unwrap();
            assert!(matches!(
                read_server(&mut rd).unwrap(),
                Some(ServerMsg::Partial { .. })
            ));
        }
        write_client(&mut wr, &ClientMsg::Finish).unwrap();
        let reply = read_server(&mut rd).unwrap().unwrap();
        let ServerMsg::Final { words, cost, .. } = reply else {
            panic!("expected Final, got {reply:?}");
        };
        assert_eq!(words, alone.words);
        assert_eq!(cost.to_bits(), alone.cost.to_bits());
        front.stop();
        server.shutdown();
    }

    /// A feature frame carrying NaN or ±inf is refused with a typed
    /// error at the bad frame: the chunk's earlier frames stay admitted,
    /// its later ones are never looked at, the connection and session
    /// keep working, and the ledger counts exactly the admitted frames.
    #[test]
    fn non_finite_feature_chunk_is_refused_and_the_connection_stays_usable() {
        use unfold_am::GmmModel;
        use unfold_decoder::GmmScorer;

        let (lex, am, lm) = setup();
        let probe = synthesize_utterance(
            &[3],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::clean(),
            1,
        );
        let model = Arc::new(GmmModel::synthesize(
            probe.scores.frame(0).len(),
            8,
            2,
            3.0,
            41,
        ));
        let server = Server::start_multi_with_scorer(
            ServeConfig {
                workers: 1,
                olt_entries: 0,
                ..Default::default()
            },
            am,
            vec![(crate::sched::DEFAULT_LM.to_string(), lm)],
            Some(Arc::new(GmmScorer::new(Arc::clone(&model)))),
        );
        let handle = server.handle();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let front = TcpFront::start(listener, server.handle()).unwrap();
        let stream = TcpStream::connect(front.local_addr()).unwrap();
        let mut rd = R::new(stream.try_clone().unwrap());
        let mut wr = W::new(stream);
        write_client(
            &mut wr,
            &ClientMsg::Open {
                lm: None,
                bias: None,
            },
        )
        .unwrap();
        assert!(matches!(
            read_server(&mut rd).unwrap(),
            Some(ServerMsg::Opened { .. })
        ));

        let good = |t: usize| -> FrameInput {
            FrameInput::Features(
                (0..model.dim())
                    .map(|d| ((t * 31 + d * 7) % 13) as f32 * 0.25 - 1.5)
                    .collect(),
            )
        };
        let mut send = |frames: Vec<FrameInput>| {
            write_client(&mut wr, &ClientMsg::FramesV2(frames)).unwrap();
            read_server(&mut rd).unwrap().unwrap()
        };
        assert!(matches!(
            send((0..6).map(good).collect()),
            ServerMsg::Partial { .. }
        ));
        for (round, bad) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            let mut poisoned = good(99).into_values();
            poisoned[5] = bad;
            let admitted = 6 + 2 * round;
            let reply = send(vec![
                good(admitted),
                good(admitted + 1),
                FrameInput::Features(poisoned),
                good(98),
            ]);
            let ServerMsg::Error { msg } = reply else {
                panic!("expected Error, got {reply:?}");
            };
            assert!(msg.contains("not finite at index 5"), "{msg}");
            assert_eq!(handle.stats().frames_accepted, admitted as u64 + 2);
        }
        assert!(matches!(
            send((12..16).map(good).collect()),
            ServerMsg::Partial { .. }
        ));
        write_client(&mut wr, &ClientMsg::Finish).unwrap();
        let reply = read_server(&mut rd).unwrap().unwrap();
        let ServerMsg::Final {
            words,
            cost,
            frames,
        } = reply
        else {
            panic!("expected Final, got {reply:?}");
        };
        assert_eq!(frames, 16);

        // The session decoded exactly the sixteen finite frames.
        let id = handle.open().expect("admit");
        for t in 0..16 {
            handle.ingest_frame(id, good(t)).expect("ingest");
        }
        handle.finish(id).expect("finish");
        let direct = handle
            .wait_result(id, DRAIN_TIMEOUT)
            .expect("known")
            .expect("no timeout");
        assert_eq!(words, direct.words);
        assert_eq!(cost.to_bits(), direct.cost.to_bits());

        // Ledger: every accepted frame was decoded, none is queued, in
        // flight or dropped, and no refused frame was counted as scored.
        let stats = handle.stats();
        assert_eq!(stats.frames_accepted, 32);
        assert_eq!(stats.frames_decoded, 32);
        assert_eq!(stats.frames_scored, 32);
        assert_eq!(stats.frames_dropped, 0);
        front.stop();
        server.shutdown();
    }

    /// A score row narrower than the AM's largest PDF id, sent over the
    /// wire with no scorer bound, is refused at ingest with the typed
    /// width error instead of panicking the worker that would lease it:
    /// the connection keeps working, and the session decodes its
    /// well-formed rows to the standalone transcript.
    #[test]
    fn narrow_score_row_is_refused_and_the_connection_stays_usable() {
        let (lex, am, lm) = setup();
        let u = utt(&lex, &[3, 9, 17], 5);
        let width = u.scores.frame(0).len();
        let base = DecodeConfig::default();
        let alone = OtfDecoder::new(base).decode(&*am, &*lm, &u.scores, &mut NullSink);
        let server = Server::start(
            ServeConfig {
                workers: 1,
                olt_entries: 0,
                base,
                ..Default::default()
            },
            am,
            lm,
        );
        let handle = server.handle();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let front = TcpFront::start(listener, server.handle()).unwrap();
        let stream = TcpStream::connect(front.local_addr()).unwrap();
        let mut rd = R::new(stream.try_clone().unwrap());
        let mut wr = W::new(stream);
        let open = ClientMsg::Open {
            lm: None,
            bias: None,
        };
        write_client(&mut wr, &open).unwrap();
        let Some(ServerMsg::Opened { session }) = read_server(&mut rd).unwrap() else {
            panic!("expected Opened");
        };
        let mut send = |frames: Vec<FrameInput>| {
            write_client(&mut wr, &ClientMsg::FramesV2(frames)).unwrap();
            read_server(&mut rd).unwrap().unwrap()
        };
        let row = |t: usize| FrameInput::Scores(u.scores.frame(t).to_vec());
        let half = u.scores.num_frames() / 2;
        assert!(matches!(
            send((0..half).map(row).collect()),
            ServerMsg::Partial { .. }
        ));
        // A chunk's rows share one width on the wire: the narrow row
        // travels alone.
        let reply = send(vec![FrameInput::Scores(vec![0.0])]);
        let ServerMsg::Error { msg } = reply else {
            panic!("expected Error, got {reply:?}");
        };
        let typed = ServeError::Score(
            session,
            unfold_decoder::ScoreError::WidthMismatch {
                expected: width,
                got: 1,
            },
        );
        assert_eq!(msg, typed.to_string());
        assert_eq!(handle.stats().frames_accepted, half as u64);
        assert!(matches!(
            send((half..u.scores.num_frames()).map(row).collect()),
            ServerMsg::Partial { .. }
        ));
        write_client(&mut wr, &ClientMsg::Finish).unwrap();
        let reply = read_server(&mut rd).unwrap().unwrap();
        let ServerMsg::Final { words, cost, .. } = reply else {
            panic!("expected Final, got {reply:?}");
        };
        assert_eq!(words, alone.words);
        assert_eq!(cost.to_bits(), alone.cost.to_bits());
        let stats = handle.stats();
        assert_eq!(stats.worker_panics, 0);
        assert_eq!(stats.frames_dropped, 0);
        assert_eq!(stats.frames_accepted, u.scores.num_frames() as u64);
        assert_eq!(stats.frames_decoded, stats.frames_accepted);
        front.stop();
        server.shutdown();
    }

    /// A score row carrying NaN or −inf, sent over the wire with no
    /// scorer bound, is refused with a typed error at the bad row: the
    /// chunk's earlier rows stay admitted, its later ones are never
    /// looked at, and the connection and session keep working — the
    /// session decodes exactly its admitted rows, in order, to the
    /// standalone transcript. A +inf cost is a legal row value.
    #[test]
    fn non_finite_score_row_is_refused_and_the_connection_stays_usable() {
        let (lex, am, lm) = setup();
        let u = utt(&lex, &[3, 9, 17], 5);
        let n = u.scores.num_frames();
        let base = DecodeConfig::default();
        let alone = OtfDecoder::new(base).decode(&*am, &*lm, &u.scores, &mut NullSink);
        let server = Server::start(
            ServeConfig {
                workers: 1,
                olt_entries: 0,
                base,
                ..Default::default()
            },
            am,
            lm,
        );
        let handle = server.handle();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let front = TcpFront::start(listener, server.handle()).unwrap();
        let stream = TcpStream::connect(front.local_addr()).unwrap();
        let mut rd = R::new(stream.try_clone().unwrap());
        let mut wr = W::new(stream);
        let open = ClientMsg::Open {
            lm: None,
            bias: None,
        };
        write_client(&mut wr, &open).unwrap();
        let Some(ServerMsg::Opened { session }) = read_server(&mut rd).unwrap() else {
            panic!("expected Opened");
        };
        let mut send = |frames: Vec<FrameInput>| {
            write_client(&mut wr, &ClientMsg::FramesV2(frames)).unwrap();
            read_server(&mut rd).unwrap().unwrap()
        };
        let row = |t: usize| FrameInput::Scores(u.scores.frame(t).to_vec());
        let mut admitted = n / 2;
        assert!(matches!(
            send((0..admitted).map(row).collect()),
            ServerMsg::Partial { .. }
        ));
        for bad in [f32::NAN, f32::NEG_INFINITY] {
            let mut poisoned = u.scores.frame(admitted + 2).to_vec();
            poisoned[4] = bad;
            let reply = send(vec![
                row(admitted),
                row(admitted + 1),
                FrameInput::Scores(poisoned),
                row(admitted + 2),
            ]);
            let ServerMsg::Error { msg } = reply else {
                panic!("expected Error, got {reply:?}");
            };
            let typed = ServeError::Score(session, ScoreError::NonFinite { index: 4 });
            assert_eq!(msg, typed.to_string());
            admitted += 2;
            assert_eq!(handle.stats().frames_accepted, admitted as u64);
        }
        // A +inf cost is a PDF with zero likelihood, not an error.
        let mut unlikely = u.scores.frame(admitted).to_vec();
        let worst = unlikely
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        unlikely[worst] = f32::INFINITY;
        let mut rest: Vec<FrameInput> = vec![FrameInput::Scores(unlikely)];
        rest.extend((admitted + 1..n).map(row));
        assert!(matches!(send(rest), ServerMsg::Partial { .. }));
        write_client(&mut wr, &ClientMsg::Finish).unwrap();
        let reply = read_server(&mut rd).unwrap().unwrap();
        let ServerMsg::Final {
            words,
            cost,
            frames,
        } = reply
        else {
            panic!("expected Final, got {reply:?}");
        };
        assert_eq!(frames, n as u64);
        assert_eq!(words, alone.words);
        assert!(cost.is_finite());
        let stats = handle.stats();
        assert_eq!(stats.worker_panics, 0);
        assert_eq!(stats.frames_dropped, 0);
        assert_eq!(stats.frames_accepted, n as u64);
        assert_eq!(stats.frames_decoded, stats.frames_accepted);
        front.stop();
        server.shutdown();
    }

    /// A client that opens a session, sends one chunk and goes silent
    /// loses its connection after the idle timeout; the session is
    /// evicted, the frame ledger balances, and a fresh connection
    /// still decodes to the standalone transcript.
    #[test]
    fn silent_peer_is_disconnected_and_its_session_evicted() {
        use std::time::Instant;

        let (lex, am, lm) = setup();
        let u = utt(&lex, &[3, 9, 17], 5);
        let base = DecodeConfig::default();
        let alone = OtfDecoder::new(base).decode(&*am, &*lm, &u.scores, &mut NullSink);
        let idle_ms = 400;
        let server = Server::start(
            ServeConfig {
                workers: 1,
                olt_entries: 0,
                idle_timeout_ms: idle_ms,
                base,
                ..Default::default()
            },
            am,
            lm,
        );
        let handle = server.handle();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let front = TcpFront::start(listener, server.handle()).unwrap();
        let frames: Vec<FrameInput> = (0..u.scores.num_frames())
            .map(|t| FrameInput::Scores(u.scores.frame(t).to_vec()))
            .collect();
        let connect = || {
            let stream = TcpStream::connect(front.local_addr()).unwrap();
            // Bounds the wait below, so a server that never closes
            // fails the test instead of hanging it.
            stream
                .set_read_timeout(Some(Duration::from_millis(10 * idle_ms)))
                .unwrap();
            (R::new(stream.try_clone().unwrap()), W::new(stream))
        };
        let open = ClientMsg::Open {
            lm: None,
            bias: None,
        };

        let (mut rd, mut wr) = connect();
        write_client(&mut wr, &open).unwrap();
        assert!(matches!(
            read_server(&mut rd).unwrap(),
            Some(ServerMsg::Opened { .. })
        ));
        write_client(&mut wr, &ClientMsg::FramesV2(frames[..10].to_vec())).unwrap();
        assert!(matches!(
            read_server(&mut rd).unwrap(),
            Some(ServerMsg::Partial { .. })
        ));
        // Silence: the server must hang up within twice the timeout.
        let silent = Instant::now();
        let closed = read_server(&mut rd);
        let waited = silent.elapsed();
        assert!(
            matches!(closed, Ok(None)),
            "expected the server to close the connection, got {closed:?} after {waited:?}"
        );
        assert!(
            waited <= Duration::from_millis(2 * idle_ms),
            "closed after {waited:?}, timeout {idle_ms} ms"
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.stats().evicted_idle == 0 {
            assert!(Instant::now() < deadline, "the session was never evicted");
            std::thread::sleep(Duration::from_millis(10));
        }
        let stats = handle.stats();
        assert_eq!(handle.active_sessions(), 0);
        assert_eq!(stats.frames_accepted, 10);
        assert_eq!(
            stats.frames_accepted,
            stats.frames_decoded + stats.frames_dropped,
            "frame ledger: {stats:?}"
        );

        let (mut rd, mut wr) = connect();
        write_client(&mut wr, &open).unwrap();
        assert!(matches!(
            read_server(&mut rd).unwrap(),
            Some(ServerMsg::Opened { .. })
        ));
        for chunk in frames.chunks(10) {
            write_client(&mut wr, &ClientMsg::FramesV2(chunk.to_vec())).unwrap();
            assert!(matches!(
                read_server(&mut rd).unwrap(),
                Some(ServerMsg::Partial { .. })
            ));
        }
        write_client(&mut wr, &ClientMsg::Finish).unwrap();
        let reply = read_server(&mut rd).unwrap().unwrap();
        let ServerMsg::Final { words, cost, .. } = reply else {
            panic!("expected Final, got {reply:?}");
        };
        assert_eq!(words, alone.words);
        assert_eq!(cost.to_bits(), alone.cost.to_bits());
        front.stop();
        server.shutdown();
    }

    #[test]
    fn frames_without_open_is_an_error_and_rejection_is_reported() {
        let (_lex, am, lm) = setup();
        let server = Server::start(
            ServeConfig {
                capacity: 0, // every open is refused
                workers: 1,
                ..Default::default()
            },
            am,
            lm,
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let front = TcpFront::start(listener, server.handle()).unwrap();
        let stream = TcpStream::connect(front.local_addr()).unwrap();
        let mut rd = R::new(stream.try_clone().unwrap());
        let mut wr = W::new(stream);

        let frames = ClientMsg::FramesV2(vec![FrameInput::Scores(vec![0.0])]);
        write_client(&mut wr, &frames).unwrap();
        assert!(matches!(
            read_server(&mut rd).unwrap(),
            Some(ServerMsg::Error { .. })
        ));
        write_client(
            &mut wr,
            &ClientMsg::Open {
                lm: None,
                bias: None,
            },
        )
        .unwrap();
        assert!(matches!(
            read_server(&mut rd).unwrap(),
            Some(ServerMsg::Rejected {
                reason: crate::RejectReason::AtCapacity
            })
        ));
        // Naming an unregistered model is an Error, not a Rejected.
        write_client(
            &mut wr,
            &ClientMsg::Open {
                lm: Some("nope".into()),
                bias: None,
            },
        )
        .unwrap();
        assert!(matches!(
            read_server(&mut rd).unwrap(),
            Some(ServerMsg::Error { .. })
        ));
        drop(wr);
        drop(rd);
        front.stop();
        server.shutdown();
    }
}

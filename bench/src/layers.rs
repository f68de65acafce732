//! Level 2 of the layer trace: each layer's public functions timed in
//! isolation, from outside, at the workload's own shapes.
//!
//! Data-path layers (transform, secure, wire, transport, socket codecs)
//! are timed on one fragment of the workload's model (`n_params / k`);
//! kernels with a shape of their own (`agg.*`, `tensor.*`, `nn.train_mlp_s`,
//! `nn.train_conv_s`, `paillier.*`) use the fixed shapes in their
//! glossary entry, so they read the same on every workload.
//!
//! Every figure is the fastest of [`PASSES`] samples, each a batch of
//! calls long enough to last [`SAMPLE_S`], and the samples of one
//! function are taken seconds apart ([`LayerBenches::pass`] runs one
//! sample of every function): the shared box this runs on only ever adds
//! time, for seconds at a stretch, so a slow stretch rarely covers every
//! sample and the fastest one saw the function and not the box. (These
//! figures are not gated. The budget multiplies them by calls per round
//! and compares with the fastest hand-driven round; with medians on both
//! sides the comparison swung between 0.88 and 1.23 in a noisy hour,
//! because the two sides are measured at different moments.)

use crate::report::Metric;
use crate::run::{lossless_runtime, TcpDeployment};
use crate::tap::{round_spans, RoundSpan, RoundTap};
use crate::workload::Workload;
use deta_bignum::BigUint;
use deta_core::agg::AggKind;
use deta_core::mapper::ModelMapper;
use deta_core::proxy::AttestationProxy;
use deta_core::shuffle::RoundPermutation;
use deta_core::wire::Msg;
use deta_core::{TransformConfig, Transformer};
use deta_crypto::sha256::sha256;
use deta_crypto::{DetRng, SigningKey};
use deta_datasets::DatasetSpec;
use deta_nn::models::{convnet8, mlp};
use deta_nn::train::{evaluate, train_local, LabeledData};
use deta_paillier::KeyPair;
use deta_runtime::{CtlMsg, ThreadedSession};
use deta_sev_sim::{AmdRas, GuestImage, Platform};
use deta_socket::{encode_frame, FrameDecoder, SocketFrame};
use deta_tensor::{im2col, ConvGeom, Tensor};
use deta_transport::secure::{respond, HandshakeInitiator};
use deta_transport::{LinkModel, Network, SecureChannel};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Least wall time of one sample (a batch of calls). A constant: some
/// fifty functions, [`PASSES`] samples each, have to fit beside level 1
/// and two deployments in a run of the driver's length, which leaves a
/// twentieth of a second and not the 0.4 s of the end-to-end timings.
pub const SAMPLE_S: f64 = 0.05;

/// Samples per layer function; the fastest is reported.
pub const PASSES: usize = 3;

/// One layer function under test: a closure that calls it once, the
/// calls per sample, and the seconds per call of the fastest sample.
struct Bench {
    name: &'static str,
    call: Box<dyn FnMut()>,
    batch: u64,
    best_s: f64,
}

impl Bench {
    fn run(&mut self, batch: u64) -> f64 {
        let t0 = Instant::now();
        for _ in 0..batch {
            (self.call)();
        }
        t0.elapsed().as_secs_f64()
    }

    /// Grows the batch until one batch lasts [`SAMPLE_S`]; that batch
    /// is the first sample.
    fn calibrate(&mut self) {
        loop {
            let t = self.run(self.batch);
            if t >= SAMPLE_S {
                self.best_s = t / self.batch as f64;
                return;
            }
            self.batch = if t < SAMPLE_S / 16.0 {
                self.batch * 8
            } else {
                (self.batch as f64 * SAMPLE_S / t * 1.1).ceil() as u64
            };
        }
    }

    fn sample(&mut self) {
        let per_call = self.run(self.batch) / self.batch as f64;
        self.best_s = self.best_s.min(per_call);
    }
}

/// A handshaken pair of secure channels (initiator, responder).
fn channel_pair(rng: &mut DetRng) -> (SecureChannel, SecureChannel) {
    let identity = SigningKey::generate(rng);
    let initiator = HandshakeInitiator::new(rng);
    let (response, responder) = respond(initiator.hello(), &identity, rng).expect("respond");
    let channel = initiator
        .complete(&response, &identity.verifying_key())
        .expect("complete");
    (channel, responder)
}

/// Seal and open of one encoded fragment. Records must be opened in the
/// order they were sealed, so a sample seals a batch and then opens it.
struct SealOpen {
    tx: SecureChannel,
    rx: SecureChannel,
    plain: Vec<u8>,
    batch: usize,
    seal_s: f64,
    open_s: f64,
}

impl SealOpen {
    fn new(plain: Vec<u8>, rng: &mut DetRng) -> SealOpen {
        let (mut tx, mut rx) = channel_pair(rng);
        let t0 = Instant::now();
        black_box(rx.open_msg(&tx.seal_msg(&plain)).expect("open"));
        let each = t0.elapsed().as_secs_f64() / 2.0;
        SealOpen {
            tx,
            rx,
            plain,
            batch: (SAMPLE_S / each).ceil().max(1.0) as usize,
            seal_s: f64::INFINITY,
            open_s: f64::INFINITY,
        }
    }

    fn sample(&mut self) {
        let t0 = Instant::now();
        let sealed: Vec<Vec<u8>> = (0..self.batch)
            .map(|_| self.tx.seal_msg(&self.plain))
            .collect();
        self.seal_s = self
            .seal_s
            .min(t0.elapsed().as_secs_f64() / self.batch as f64);
        let t1 = Instant::now();
        for record in &sealed {
            black_box(self.rx.open_msg(record).expect("open"));
        }
        self.open_s = self
            .open_s
            .min(t1.elapsed().as_secs_f64() / self.batch as f64);
    }
}

/// The far end of the loopback hop: reads frames, acknowledges each
/// with one byte, exits when the near end closes.
fn loopback_peer(listener: TcpListener) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut decoder = FrameDecoder::new();
        let mut buf = vec![0u8; 1 << 16];
        loop {
            let n = stream.read(&mut buf).expect("read");
            if n == 0 {
                return;
            }
            decoder.push(&buf[..n]);
            while let Some(frame) = decoder.try_next().expect("frame") {
                black_box(frame);
                stream.write_all(&[1]).expect("ack");
            }
        }
    })
}

fn random_updates(parties: usize, len: usize, rng: &mut DetRng) -> Vec<Vec<f32>> {
    (0..parties)
        .map(|_| (0..len).map(|_| rng.next_gaussian() as f32).collect())
        .collect()
}

/// Every layer function of level 2, ready to be sampled.
pub struct LayerBenches {
    benches: Vec<Bench>,
    seal_open: SealOpen,
    /// Joined by [`LayerBenches::finish`], after the benches (and with
    /// them the near end of the loopback socket) are dropped.
    loopback_peer: JoinHandle<()>,
}

impl LayerBenches {
    /// Builds the inputs of every layer function at `w`'s shapes,
    /// calibrates the batch sizes and takes the first of the [`PASSES`]
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics when the loopback socket cannot be set up.
    pub fn new(w: &'static Workload, shard: &LabeledData, test: &LabeledData) -> LayerBenches {
        let mut benches: Vec<Bench> = Vec::new();
        let mut add = |name: &'static str, call: Box<dyn FnMut()>| {
            benches.push(Bench {
                name,
                call,
                batch: 1,
                best_s: f64::INFINITY,
            });
        };
        let mut rng = DetRng::from_u64(0x1a7e5);
        let k = w.aggregators;
        let n_params = w.n_params();

        // --- tensor / nn ---
        let x = Tensor::randn(&[16, 784], 1.0, &mut rng);
        let wmat = Tensor::randn(&[784, 1280], 1.0, &mut rng);
        let dy = Tensor::randn(&[16, 1280], 1.0, &mut rng);
        add("tensor.matmul_s", {
            let x = x.clone();
            Box::new(move || {
                black_box(black_box(&x).matmul(&wmat));
            })
        });
        add(
            "tensor.matmul_tn_s",
            Box::new(move || {
                black_box(black_box(&x).matmul_tn(&dy));
            }),
        );
        let image = Tensor::randn(&[3 * 32 * 32], 1.0, &mut rng);
        let geom = ConvGeom {
            in_c: 3,
            in_h: 32,
            in_w: 32,
            k: 3,
            stride: 1,
            pad: 1,
        };
        add(
            "tensor.im2col_s",
            Box::new(move || {
                black_box(im2col(black_box(&image), &geom));
            }),
        );
        let mut big_mlp = mlp(&[784, 1280, 10], &mut rng);
        let mlp_shard = DatasetSpec::mnist_like().generate(16, 1);
        add(
            "nn.train_mlp_s",
            Box::new(move || {
                black_box(train_local(&mut big_mlp, &mlp_shard, 1, 16, 0.1));
            }),
        );
        let mut conv = convnet8(3, 32, 10, &mut rng);
        let conv_shard = DatasetSpec::cifar10_like()
            .at_resolution(32)
            .generate(128, 1);
        add(
            "nn.train_conv_s",
            Box::new(move || {
                black_box(train_local(&mut conv, &conv_shard, 1, 32, 0.1));
            }),
        );
        let mut model = w.build_model(&mut rng);
        let update = model.flat_params();
        add("nn.train_local_s", {
            let (shard, batch_size) = (shard.clone(), w.batch_size);
            Box::new(move || {
                black_box(train_local(&mut model, &shard, 1, batch_size, 0.1));
            })
        });
        let mut model = w.build_model(&mut rng);
        add("nn.evaluate_s", {
            let test = test.clone();
            Box::new(move || {
                black_box(evaluate(&mut model, &test, 128));
            })
        });
        let model = w.build_model(&mut rng);
        add(
            "nn.flat_params_s",
            Box::new(move || {
                black_box(model.flat_params());
            }),
        );

        // --- transform: mapper, shuffle, both composed ---
        let mapper = ModelMapper::generate(n_params, k, None, &mut rng);
        let (key, tid) = ([7u8; 32], [9u8; 16]);
        let transformer = Transformer::new(mapper.clone(), key, TransformConfig::full());
        let fragments = transformer.transform(&update, &tid);
        let fragment = fragments[0].clone();
        add("transform.forward_s", {
            let (transformer, update) = (transformer.clone(), update.clone());
            Box::new(move || {
                black_box(transformer.transform(black_box(&update), &tid));
            })
        });
        add(
            "transform.inverse_s",
            Box::new(move || {
                black_box(transformer.inverse(black_box(&fragments), &tid));
            }),
        );
        let parts = mapper.partition(&update);
        add("mapper.partition_s", {
            let (mapper, update) = (mapper.clone(), update.clone());
            Box::new(move || {
                black_box(mapper.partition(black_box(&update)));
            })
        });
        add(
            "mapper.merge_s",
            Box::new(move || {
                black_box(mapper.merge(black_box(&parts)));
            }),
        );
        let len = fragment.len();
        add(
            "shuffle.derive_s",
            Box::new(move || {
                black_box(RoundPermutation::derive(&key, &tid, 0, len));
            }),
        );
        let perm = RoundPermutation::derive(&key, &tid, 0, len);
        add("shuffle.apply_s", {
            let fragment = fragment.clone();
            Box::new(move || {
                black_box(perm.apply(black_box(&fragment)));
            })
        });

        // --- wire codecs on one fragment ---
        let upload = Msg::Upload {
            round: 3,
            fragment: fragment.clone(),
        };
        let plain = upload.encode().expect("encode");
        add(
            "wire.encode_s",
            Box::new(move || {
                black_box(black_box(&upload).encode().expect("encode"));
            }),
        );
        add("wire.decode_s", {
            let plain = plain.clone();
            Box::new(move || {
                black_box(Msg::decode(black_box(&plain)).expect("decode"));
            })
        });
        let sealed = channel_pair(&mut rng).0.seal_msg(&plain);
        let record = Msg::Record {
            sealed: sealed.clone(),
        };
        add(
            "wire.record_codec_s",
            Box::new(move || {
                let bytes = black_box(&record).encode().expect("encode");
                black_box(Msg::decode(&bytes).expect("decode"));
            }),
        );

        // --- secure channel, crypto, attestation ---
        let mut seal_open = SealOpen::new(plain, &mut rng);
        add("secure.handshake_s", {
            let mut rng = rng.fork(b"handshake");
            Box::new(move || {
                black_box(channel_pair(&mut rng));
            })
        });
        let block = vec![0x5au8; 1 << 16];
        let digest = sha256(&block);
        add(
            "crypto.sha256_s",
            Box::new(move || {
                black_box(sha256(black_box(&block)));
            }),
        );
        let signing = SigningKey::generate(&mut rng);
        let verifying = signing.verifying_key();
        let signature = signing.sign(&digest);
        add(
            "crypto.sign_s",
            Box::new(move || {
                black_box(signing.sign(black_box(&digest)));
            }),
        );
        add(
            "crypto.verify_s",
            Box::new(move || {
                assert!(verifying.verify(black_box(&digest), &signature));
            }),
        );
        let ras = AmdRas::new(&mut rng.fork(b"ras"));
        let guest = GuestImage::new(b"deta-ovmf-v1".to_vec(), b"deta-aggregator-v1".to_vec());
        let mut proxy = AttestationProxy::new(ras.root_certs(), guest.clone(), rng.fork(b"proxy"));
        add("sev.attest_s", {
            let (chips, mut chip) = (rng.fork(b"chips"), 0u64);
            Box::new(move || {
                chip += 1;
                let mut platform = Platform::genuine(
                    &ras,
                    &format!("EPYC-{chip}"),
                    &mut chips.fork_indexed(b"chip", chip),
                );
                black_box(
                    proxy
                        .verify_and_provision(&mut platform, &guest)
                        .expect("attest"),
                );
            })
        });

        // --- runtime control codec: the parameter snapshot a party reports ---
        let done = CtlMsg::PartyDone {
            round: 3,
            trained: true,
            train_loss: 0.5,
            train_s: 1.0,
            transform_s: 1.0,
            crypto_s: 0.0,
            params: Some(update),
        };
        add(
            "rtmsg.codec_s",
            Box::new(move || {
                let bytes = black_box(&done).encode().expect("encode");
                black_box(CtlMsg::decode(&bytes).expect("decode"));
            }),
        );

        // --- transport: one send -> recv hop, payload moved not copied ---
        for (name, size) in [
            ("transport.hop_s", sealed.len()),
            ("transport.hop_small_s", 64),
        ] {
            let net = Network::new(LinkModel::lan());
            let (a, b) = (net.register("a"), net.register("b"));
            let mut payload = Some(vec![0u8; size]);
            add(
                name,
                Box::new(move || {
                    a.send("b", payload.take().expect("payload in flight"))
                        .expect("send");
                    payload = Some(b.recv().expect("delivered").payload);
                }),
            );
        }

        // --- socket codecs and the loopback floor ---
        add("socket.frame_codec_s", {
            let sealed = sealed.clone();
            Box::new(move || {
                let framed = encode_frame(black_box(&sealed));
                let mut decoder = FrameDecoder::new();
                decoder.push(&framed);
                black_box(decoder.try_next().expect("frame").expect("complete"));
            })
        });
        let data = SocketFrame::Data {
            src: "party-0".to_string(),
            dst: "agg-1".to_string(),
            seq: 7,
            payload: sealed.clone(),
        };
        add(
            "socket.wire_codec_s",
            Box::new(move || {
                let bytes = black_box(&data).encode();
                black_box(SocketFrame::decode(&bytes).expect("decode"));
            }),
        );
        // One framed payload written to a loopback TCP socket, read by a
        // peer thread and acknowledged with one byte: the kernel's share
        // of a socket hop. (`deta_socket`'s own `SecureLink` is private
        // to its crate, so the sealed link cannot be driven from outside.)
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
        let mut stream =
            TcpStream::connect(listener.local_addr().expect("local addr")).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let loopback_peer = loopback_peer(listener);
        let framed = encode_frame(&sealed);
        add(
            "socket.loopback_hop_s",
            Box::new(move || {
                let mut ack = [0u8; 1];
                stream.write_all(&framed).expect("write");
                stream.read_exact(&mut ack).expect("ack");
            }),
        );

        // --- aggregation kernels at their glossary shapes ---
        let kernel = |kind: AggKind, inputs: Rc<Vec<Vec<f32>>>| -> Box<dyn FnMut()> {
            let (alg, weights) = (kind.build(), vec![1.0f32; inputs.len()]);
            Box::new(move || {
                black_box(alg.aggregate(black_box(&inputs), &weights));
            })
        };
        let four = Rc::new(random_updates(4, 339_204, &mut rng));
        add("agg.fedavg_s", kernel(AggKind::IterativeAveraging, four));
        let many = Rc::new(random_updates(32, 33_924, &mut rng));
        add(
            "agg.fedavg_32p_s",
            kernel(AggKind::IterativeAveraging, Rc::clone(&many)),
        );
        add(
            "agg.median_s",
            kernel(AggKind::CoordinateMedian, Rc::clone(&many)),
        );
        add(
            "agg.trimmed_s",
            kernel(AggKind::TrimmedMean { trim: 4 }, Rc::clone(&many)),
        );
        add(
            "agg.krum_s",
            kernel(AggKind::Krum { f: 4 }, Rc::clone(&many)),
        );
        add("agg.flame_s", kernel(AggKind::FlameLite, many));
        let own = Rc::new(random_updates(w.parties, len, &mut rng));
        add("agg.kernel_s", kernel(w.algorithm, own));

        // --- Paillier at the fusion path's default 384-bit modulus ---
        add("paillier.keygen_s", {
            let mut rng = rng.fork(b"keygen");
            Box::new(move || {
                black_box(KeyPair::generate(384, &mut rng));
            })
        });
        let keys = Rc::new(KeyPair::generate(384, &mut rng));
        let m = BigUint::from_u64(0x1234_5678_9abc_def0);
        let c1 = keys.public.encrypt(&m, &mut rng);
        let c2 = keys.public.encrypt(&m, &mut rng);
        add("paillier.encrypt_s", {
            let (keys, mut rng) = (Rc::clone(&keys), rng.fork(b"encrypt"));
            Box::new(move || {
                black_box(keys.public.encrypt(&m, &mut rng));
            })
        });
        add("paillier.add_s", {
            let (keys, c1) = (Rc::clone(&keys), c1.clone());
            Box::new(move || {
                black_box(c1.add(black_box(&c2), &keys.public));
            })
        });
        add("paillier.decrypt_s", {
            let (keys, c1) = (Rc::clone(&keys), c1.clone());
            Box::new(move || {
                black_box(keys.private.decrypt(black_box(&c1)));
            })
        });
        // The exponentiation `encrypt` spends its time in: r^n mod n^2.
        add(
            "bignum.modpow_s",
            Box::new(move || {
                black_box(c1.0.modpow(&keys.public.n, &keys.public.n2));
            }),
        );

        for bench in &mut benches {
            bench.calibrate();
        }
        seal_open.sample();
        LayerBenches {
            benches,
            seal_open,
            loopback_peer,
        }
    }

    /// Takes one sample of every layer function.
    pub fn pass(&mut self) {
        for bench in &mut self.benches {
            bench.sample();
        }
        self.seal_open.sample();
    }

    /// The fastest sample of every layer function, in seconds per call.
    ///
    /// # Panics
    ///
    /// Panics when the loopback peer thread panicked.
    pub fn finish(self) -> Vec<Metric> {
        let mut out: Vec<Metric> = self
            .benches
            .iter()
            .map(|b| Metric::new(b.name, "s", b.best_s))
            .collect();
        out.push(Metric::new("secure.seal_s", "s", self.seal_open.seal_s));
        out.push(Metric::new("secure.open_s", "s", self.seal_open.open_s));
        // Dropping the benches closes the near end of the loopback
        // socket, which ends the peer's read loop.
        drop(self.benches);
        self.loopback_peer.join().expect("loopback peer thread");
        out
    }
}

/// Round time and phases of a threaded or socket deployment.
#[derive(Clone, Copy, Debug)]
pub struct DeploymentPhases {
    pub setup_s: f64,
    pub round_s: f64,
    pub upload_phase_s: f64,
    pub agg_phase_s: f64,
    pub download_phase_s: f64,
}

/// The fastest round after the first (which is warm-up), with its own
/// phases, so the three phases still sum to the round.
fn phases(setup_s: f64, spans: &[RoundSpan]) -> DeploymentPhases {
    let fastest = spans
        .iter()
        .skip(1)
        .min_by(|a, b| a.wall_s().total_cmp(&b.wall_s()))
        .expect("a warm-up round and at least one more");
    DeploymentPhases {
        setup_s,
        round_s: fastest.wall_s(),
        upload_phase_s: fastest.upload_phase_s,
        agg_phase_s: fastest.agg_phase_s,
        download_phase_s: fastest.download_phase_s,
    }
}

/// Bytes delivered per round by link class in a threaded deployment.
#[derive(Clone, Copy, Debug)]
pub struct LinkBytes {
    pub party_agg: f64,
    pub agg_agg: f64,
    pub ctl: f64,
}

/// The workload's configuration on the in-process `ThreadedSession`:
/// one thread per node, phases from a tap on its network.
///
/// # Panics
///
/// Panics when the deployment fails; no workload makes it fail.
pub fn runtime_layer(
    w: &'static Workload,
    seed: u64,
    rounds: usize,
    test: &LabeledData,
) -> (DeploymentPhases, LinkBytes) {
    let tap = Arc::new(RoundTap::new());
    let t0 = Instant::now();
    let mut session = ThreadedSession::setup_with(
        w.config(seed, rounds),
        &|rng| w.build_model(rng),
        w.shards(seed),
        lossless_runtime(),
        |parts| parts.network.set_tap(tap.clone()),
    )
    .expect("threaded set-up");
    let setup_s = t0.elapsed().as_secs_f64();
    let bytes0 = session.network().link_bytes();
    let started_s = tap.now_s();
    let t1 = Instant::now();
    session.run(test).expect("threaded run");
    let end_s = started_s + t1.elapsed().as_secs_f64();
    let mut bytes = LinkBytes {
        party_agg: 0.0,
        agg_agg: 0.0,
        ctl: 0.0,
    };
    for ((from, to), total) in session.network().link_bytes() {
        let delta = (total
            - bytes0
                .get(&(from.clone(), to.clone()))
                .copied()
                .unwrap_or(0)) as f64
            / rounds as f64;
        let is = |name: &str, prefix: &str| name.starts_with(prefix);
        if is(&from, "agg-") && is(&to, "agg-") {
            bytes.agg_agg += delta;
        } else if (is(&from, "party-") && is(&to, "agg-"))
            || (is(&from, "agg-") && is(&to, "party-"))
        {
            bytes.party_agg += delta;
        } else {
            bytes.ctl += delta;
        }
    }
    let spans = round_spans(&tap.events(), end_s, false);
    assert_eq!(spans.len(), rounds, "the tap saw every round");
    (phases(setup_s, &spans), bytes)
}

/// The workload's configuration behind the TCP bridge on loopback.
///
/// # Panics
///
/// Panics when the deployment fails or does not tear down cleanly.
pub fn socket_layer(
    w: &'static Workload,
    seed: u64,
    rounds: usize,
    test: &LabeledData,
) -> DeploymentPhases {
    let tap = Arc::new(RoundTap::new());
    let t0 = Instant::now();
    let mut deployment =
        TcpDeployment::setup(w, seed, rounds, Arc::clone(&tap)).expect("socket set-up");
    let setup_s = t0.elapsed().as_secs_f64();
    let started_s = tap.now_s();
    let t1 = Instant::now();
    deployment.session.run(test).expect("socket run");
    let end_s = started_s + t1.elapsed().as_secs_f64();
    let problems = deployment.teardown();
    assert!(problems.is_empty(), "socket tear-down: {problems:?}");
    let spans = round_spans(&tap.events(), end_s, false);
    assert_eq!(spans.len(), rounds, "the tap saw every round");
    phases(setup_s, &spans)
}

//! Micro-benchmarks for DeTA's building blocks: the transform pipeline,
//! aggregation algorithms, cryptography, attestation, and secure
//! channels. Runs on the in-repo timer (`deta_bench::timing`) so the
//! workspace needs no external benchmark harness.

use deta_bench::timing::{BenchGroup, Throughput};
use deta_core::agg::AggKind;
use deta_core::mapper::ModelMapper;
use deta_core::shuffle::RoundPermutation;
use deta_core::transform::{TransformConfig, Transformer};
use deta_crypto::{sha256::sha256, DetRng, SigningKey};
use deta_paillier::{KeyPair, VectorCodec};
use deta_transport::secure::{respond, HandshakeInitiator};

const UPDATE_LEN: usize = 100_000;

fn update(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.37).sin()).collect()
}

fn bench_transform() {
    let mut g = BenchGroup::new("transform");
    g.throughput(Throughput::Elements(UPDATE_LEN as u64));
    let u = update(UPDATE_LEN);
    let mapper = ModelMapper::generate(UPDATE_LEN, 3, None, &mut DetRng::from_u64(1));
    let t = Transformer::new(mapper, [7u8; 32], TransformConfig::full());
    let tid = [1u8; 16];
    g.bench("partition+shuffle 100k params / 3 aggs", || {
        t.transform(&u, &tid)
    });
    let frags = t.transform(&u, &tid);
    g.bench("unshuffle+merge 100k params / 3 aggs", || {
        t.inverse(&frags, &tid)
    });
    g.bench("permutation derive 100k", || {
        RoundPermutation::derive(&[7u8; 32], &tid, 0, UPDATE_LEN)
    });
    g.finish();
}

fn bench_aggregation() {
    let mut g = BenchGroup::new("aggregation");
    let n = 50_000usize;
    g.throughput(Throughput::Elements(n as u64));
    let inputs: Vec<Vec<f32>> = (0..8)
        .map(|p| (0..n).map(|i| ((p * n + i) as f32 * 0.01).sin()).collect())
        .collect();
    let weights = vec![1.0f32; 8];
    for kind in [
        AggKind::IterativeAveraging,
        AggKind::GradientSum,
        AggKind::CoordinateMedian,
        AggKind::Krum { f: 1 },
        AggKind::FlameLite,
    ] {
        let alg = kind.build();
        g.bench(&format!("8 parties x 50k/{}", kind.name()), || {
            alg.aggregate(&inputs, &weights)
                .expect("equal-length inputs")
        });
    }
    g.finish();
}

fn bench_paillier() {
    let mut g = BenchGroup::new("paillier");
    g.sample_size(10);
    let mut rng = DetRng::from_u64(2);
    let kp = KeyPair::generate(256, &mut rng);
    let codec = VectorCodec::for_key(&kp.public, 4.0, 20, 8);
    let values = update(codec.slots * 4);
    g.bench("encrypt 4 packed ciphertexts (256-bit n)", || {
        codec.encrypt_vector(&kp.public, &values, &mut rng)
    });
    let cts = codec.encrypt_vector(&kp.public, &values, &mut rng);
    g.bench("homomorphic add 4 ciphertexts", || {
        cts.iter()
            .zip(cts.iter())
            .map(|(a, x)| a.add(x, &kp.public))
            .collect::<Vec<_>>()
    });
    g.bench("decrypt 4 packed ciphertexts", || {
        codec.decrypt_sum(&kp.private, &cts, values.len(), 1)
    });
    g.finish();
}

fn bench_crypto() {
    let mut g = BenchGroup::new("crypto");
    let data = vec![0xabu8; 1 << 16];
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench("sha256 64KiB", || sha256(&data));
    g.finish();

    let mut g = BenchGroup::new("signatures");
    let mut rng = DetRng::from_u64(3);
    let sk = SigningKey::generate(&mut rng);
    let vk = sk.verifying_key();
    g.bench("schnorr sign", || sk.sign(b"challenge nonce"));
    let sig = sk.sign(b"challenge nonce");
    g.bench("schnorr verify", || vk.verify(b"challenge nonce", &sig));
    g.finish();
}

fn bench_secure_channel() {
    let mut g = BenchGroup::new("secure-channel");
    let mut rng_i = DetRng::from_u64(4);
    let mut rng_r = DetRng::from_u64(5);
    let id = SigningKey::generate(&mut rng_i);
    g.bench("handshake (phase II challenge-response)", || {
        let init = HandshakeInitiator::new(&mut rng_i);
        let (resp, _chan) = respond(init.hello(), &id, &mut rng_r).unwrap();
        init.complete(&resp, &id.verifying_key()).unwrap()
    });
    // Record protection throughput at model-update sizes.
    let init = HandshakeInitiator::new(&mut rng_i);
    let (resp, mut chan_r) = respond(init.hello(), &id, &mut rng_r).unwrap();
    let mut chan_i = init.complete(&resp, &id.verifying_key()).unwrap();
    let payload = vec![0x11u8; 400_000]; // A 100k-param f32 fragment.
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench("seal+open 400KB record", || {
        let sealed = chan_i.seal_msg(&payload);
        chan_r.open_msg(&sealed).unwrap()
    });
    g.finish();
}

fn bench_attestation() {
    use deta_core::proxy::AttestationProxy;
    use deta_sev_sim::{AmdRas, GuestImage, Platform};
    let mut g = BenchGroup::new("attestation");
    g.sample_size(10);
    let rng = DetRng::from_u64(6);
    let ras = AmdRas::new(&mut rng.fork(b"ras"));
    let image = GuestImage::new(b"ovmf".to_vec(), b"agg".to_vec());
    g.bench("phase I verify+provision", || {
        let mut proxy = AttestationProxy::new(ras.root_certs(), image.clone(), rng.fork(b"ap"));
        let mut platform = Platform::genuine(&ras, "chip", &mut rng.fork(b"p"));
        proxy.verify_and_provision(&mut platform, &image).unwrap()
    });
    g.finish();
}

fn main() {
    bench_transform();
    bench_aggregation();
    bench_paillier();
    bench_crypto();
    bench_secure_channel();
    bench_attestation();
}

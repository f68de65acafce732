//! An aggregator's workload is the manifest its image was measured for:
//! known answers for the manifest's bytes and the launch measurement
//! over them, a fresh aggregator's memory (the manifest, and no upload
//! record), and a workload that is no manifest refused, not a panic.

use deta_core::agg::AggKind;
use deta_core::aggregator::{parse_breached_memory, AggError, AggregatorNode};
use deta_core::paillier_fusion::{PaillierFusion, PaillierFusionConfig};
use deta_core::proxy::AttestationProxy;
use deta_core::recovery::Manifest;
use deta_core::session::{DetaConfig, SessionParts};
use deta_crypto::DetRng;
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::mlp;
use deta_sev_sim::{AmdRas, GuestImage, Platform};
use deta_transport::{LinkModel, Network};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The default FedAvg session, Krum `f = 1` over a quorum of three, and
/// Paillier fusion under the key a seed-7 session of four parties draws.
fn manifests() -> [(&'static str, Manifest); 3] {
    let fedavg = DetaConfig::deta(4, 1);
    let krum = DetaConfig {
        algorithm: AggKind::Krum { f: 1 },
        participation: Some(3),
        ..fedavg.clone()
    };
    let paillier = DetaConfig {
        paillier: Some(PaillierFusionConfig::default()),
        seed: 7,
        ..fedavg.clone()
    };
    let fusion = PaillierFusion::setup(
        &PaillierFusionConfig::default(),
        paillier.n_parties,
        &mut DetRng::from_u64(paillier.seed).fork(b"paillier"),
    );
    [
        ("fedavg", Manifest::of(&fedavg, None)),
        ("krum", Manifest::of(&krum, None)),
        (
            "paillier",
            Manifest::of(&paillier, Some(fusion.aggregator_key())),
        ),
    ]
}

/// The magic, `deta-aggregator-manifest`, and version 1.
const HEADER: &str = "646574612d61676772656761746f722d6d616e69666573740100";

#[test]
fn the_manifest_and_its_measurement_are_known_answers() {
    let want = [
        (
            // FedAvg (tag 0, no parameter), every party, no key.
            concat!("00", "0000000000000000", "0000000000000000", "00000000"),
            "7dd95a51d353d984870a90d82469c549785022a2c3622bb0d6e12ab035b604e0",
        ),
        (
            // Krum (tag 3) with f = 1, a quorum of 3, no key.
            concat!("03", "0100000000000000", "0300000000000000", "00000000"),
            "fe50f2d33a2efcafeded8a8b80eaaa5f98bac07d5852e0e31c5016333d2ecc73",
        ),
        (
            // FedAvg, every party, and the 48 bytes of a 384-bit `n`.
            concat!(
                "00",
                "0000000000000000",
                "0000000000000000",
                "30000000",
                "b0e18974c585c5c071c2aa61e0acf86874e259bb8687497f",
                "735c11b121c09e87846534ae5085676fd5afc86ca602856b",
            ),
            "a3ce4f25094f0e97aef9d654e611616ce045b5b3799a2a04cf022de5ce843242",
        ),
    ];
    for ((name, manifest), (body, measurement)) in manifests().iter().zip(want) {
        assert_eq!(hex(&manifest.encode()), format!("{HEADER}{body}"), "{name}");
        let got = format!("{:x}", manifest.image().measurement());
        assert_eq!(got, measurement, "{name}");
    }
}

#[test]
fn every_manifest_decodes_to_itself() {
    let kinds = [
        AggKind::IterativeAveraging,
        AggKind::GradientSum,
        AggKind::CoordinateMedian,
        AggKind::Krum { f: 3 },
        AggKind::FlameLite,
        AggKind::TrimmedMean { trim: 2 },
    ];
    let [_, _, (_, paillier)] = manifests();
    for algorithm in kinds {
        for quorum in [None, Some(1), Some(usize::MAX)] {
            for paillier_pk in [None, paillier.paillier_pk.clone()] {
                let manifest = Manifest {
                    algorithm,
                    quorum,
                    paillier_pk,
                };
                assert_eq!(Manifest::decode(&manifest.encode()), Ok(manifest));
            }
        }
    }
}

#[test]
fn a_fresh_aggregator_holds_its_manifest_and_no_upload() {
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let shards = iid_partition(&spec.generate(16, 1), 2, 2);
    let config = DetaConfig {
        participation: Some(1),
        ..DetaConfig::deta(2, 1)
    };
    let builder = |rng: &mut DetRng| mlp(&[spec.dim(), 4, spec.classes], rng);
    let parts = SessionParts::build(config.clone(), &builder, shards).unwrap();
    for agg in &parts.aggregators {
        let memory = agg.cvm().breach().memory;
        assert!(parse_breached_memory(&memory).is_empty(), "{}", agg.name);
        assert_eq!(Manifest::decode(&memory), Ok(Manifest::of(&config, None)));
    }
}

/// `agg-0` over a genuine platform that launched `workload`, provisioned
/// by a proxy whose reference is that same image.
fn node_launched_with(workload: Vec<u8>) -> Result<AggregatorNode, AggError> {
    let rng = DetRng::from_u64(0x3a41);
    let ras = AmdRas::new(&mut rng.fork(b"ras"));
    let image = GuestImage::new(b"deta-ovmf-v1".to_vec(), workload);
    let mut proxy = AttestationProxy::new(ras.root_certs(), image.clone(), rng.fork(b"ap"));
    let mut platform = Platform::genuine(&ras, "chip", &mut rng.fork(b"p"));
    let prov = proxy.verify_and_provision(&mut platform, &image).unwrap();
    let net = Network::new(LinkModel::lan());
    AggregatorNode::new("agg-0", prov.cvm, net.register("agg-0"), rng.fork(b"agg"))
}

#[test]
fn a_workload_that_is_no_manifest_is_refused() {
    let [(_, fedavg), (_, krum), (_, paillier)] = manifests();
    assert!(node_launched_with(fedavg.encode()).is_ok());
    // The layout: magic (24 bytes), version (2), tag (1), parameter (8),
    // quorum (8), the key's length (4) and its bytes.
    let edited = |manifest: &Manifest, at: usize, bytes: &[u8]| {
        let mut out = manifest.encode();
        out[at..at + bytes.len()].copy_from_slice(bytes);
        out
    };
    let mut workloads = vec![
        b"deta-aggregator-v1".to_vec(),
        Vec::new(),
        [fedavg.encode(), vec![0]].concat(),
        edited(&fedavg, 0, b"D"),
        edited(&fedavg, 24, &[2, 0]),
        edited(&fedavg, 26, &[6]),
        // A parameter for a rule that takes none.
        edited(&fedavg, 27, &[1]),
        // A key of one zero byte, and a key with a leading zero byte: they
        // name no key and the unpadded key, but are not their encodings.
        [edited(&fedavg, 43, &[1, 0, 0, 0]), vec![0]].concat(),
    ];
    let mut padded = paillier.encode();
    let n_len = u32::from_le_bytes(padded[43..47].try_into().unwrap());
    padded[43..47].copy_from_slice(&(n_len + 1).to_le_bytes());
    padded.insert(47, 0);
    workloads.push(padded);
    for manifest in [&fedavg, &krum, &paillier] {
        let bytes = manifest.encode();
        workloads.extend((0..bytes.len()).map(|end| bytes[..end].to_vec()));
    }
    for workload in workloads {
        match node_launched_with(workload.clone()) {
            Err(AggError::BadManifest) => {}
            Err(other) => panic!("{} refused with {other:?}", hex(&workload)),
            Ok(_) => panic!("{} was taken for a manifest", hex(&workload)),
        }
    }
}

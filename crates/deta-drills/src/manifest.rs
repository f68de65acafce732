//! Measured-workload drill: the host swaps what an attested aggregator
//! computes. An aggregator's algorithm, upload quorum and Paillier key
//! are its image's workload (`deta_core::recovery::Manifest`), so the
//! launch measurement covers them, and a CVM launched for anything but
//! the session's manifest never receives a token. A quorum of 1 would
//! make one party's fragment the round's download, un-shuffled by every
//! other party; a swapped rule would change what the federation trains.

use crate::Drill;
use deta_core::agg::AggKind;
use deta_core::aggregator::AggregatorNode;
use deta_core::paillier_fusion::{PaillierFusion, PaillierFusionConfig};
use deta_core::proxy::AttestationProxy;
use deta_core::recovery::Manifest;
use deta_core::session::DetaConfig;
use deta_crypto::DetRng;
use deta_sev_sim::{AmdRas, Platform, SevError};
use deta_transport::{LinkModel, Network};

const PARTIES: usize = 4;

/// The measured-workload drill set.
pub fn drills() -> Vec<Drill> {
    vec![Drill {
        id: "algorithm-swap",
        claim: "Phase I binds what an aggregator computes: the launch \
                measurement covers its algorithm, upload quorum and \
                Paillier key, which the node reads from the memory it was \
                launched with, so the host cannot choose them (paper §4.1, \
                step 1; DESIGN.md §5)",
        attack: "against a proxy whose reference is a FedAvg session's \
                 manifest, the host launches a genuine platform for \
                 CoordinateMedian, one for a quorum of 1, and, in the \
                 session's Paillier variant, one for another key",
        run: algorithm_swap,
    }]
}

fn algorithm_swap() -> Result<String, String> {
    let rng = DetRng::from_u64(0xA75);
    let ras = AmdRas::new(&mut rng.fork(b"ras"));
    let fedavg = DetaConfig::deta(PARTIES, 1);
    let encrypted = DetaConfig {
        paillier: Some(PaillierFusionConfig::default()),
        ..fedavg.clone()
    };
    let key = |label: &[u8]| {
        let config = PaillierFusionConfig::default();
        PaillierFusion::setup(&config, PARTIES, &mut rng.fork(label)).aggregator_key()
    };
    let plain = Manifest::of(&fedavg, None);
    let swaps = [
        (
            "CoordinateMedian",
            plain.clone(),
            Manifest {
                algorithm: AggKind::CoordinateMedian,
                ..plain.clone()
            },
        ),
        (
            "a quorum of 1",
            plain.clone(),
            Manifest {
                quorum: Some(1),
                ..plain.clone()
            },
        ),
        (
            "another Paillier key",
            Manifest::of(&encrypted, Some(key(b"session-key"))),
            Manifest::of(&encrypted, Some(key(b"host-key"))),
        ),
    ];
    let mut refused = Vec::new();
    for (i, (swap, reference, launched)) in (0u64..).zip(swaps) {
        let mut proxy = AttestationProxy::new(
            ras.root_certs(),
            reference.image(),
            rng.fork_indexed(b"ap", i),
        );
        let chip = format!("EPYC-7642-{i:03}");
        let mut platform = Platform::genuine(&ras, &chip, &mut rng.fork_indexed(b"plat", i));
        match proxy.verify_and_provision(&mut platform, &launched.image()) {
            Err(SevError::MeasurementMismatch) => refused.push(swap),
            Err(e) => return Err(format!("{swap}: wrong rejection: {e}")),
            Ok(_) => return Err(format!("an aggregator launched for {swap} was provisioned")),
        }
        // The same platform launched for the session's own manifest is
        // provisioned, and a node starts on it.
        let prov = proxy
            .verify_and_provision(&mut platform, &reference.image())
            .map_err(|e| format!("{chip} refused the session's own image: {e}"))?;
        let net = Network::new(LinkModel::lan());
        let endpoint = net.register("agg-0");
        AggregatorNode::new("agg-0", prov.cvm, endpoint, rng.fork_indexed(b"agg", i))
            .map_err(|e| format!("{chip}'s node refused the session's manifest: {e}"))?;
    }
    Ok(format!(
        "SevError::MeasurementMismatch — {}: the launches for {} each measure \
         a manifest other than the session's, and get no token; the same \
         platforms launched for the session's manifest are provisioned",
        SevError::MeasurementMismatch,
        refused.join(", ")
    ))
}

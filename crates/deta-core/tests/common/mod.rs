//! A provisioned aggregator and hand-driven parties for the tests that
//! feed `AggregatorNode` inner messages a real `Party` would never send.

use deta_core::agg::AggKind;
use deta_core::aggregator::AggregatorNode;
use deta_core::proxy::AttestationProxy;
use deta_core::recovery::Manifest;
use deta_core::wire::Msg;
use deta_crypto::DetRng;
use deta_sev_sim::{AmdRas, Platform};
use deta_transport::{Endpoint, HandshakeInitiator, Network, SecureChannel};

/// The manifest of a plain-fusion aggregator running `kind` over every
/// registered party.
pub fn plain_manifest(kind: AggKind) -> Manifest {
    Manifest {
        algorithm: kind,
        quorum: None,
        paillier_pk: None,
    }
}

/// `agg-0`, attested and provisioned, launched from `manifest`.
pub fn aggregator(net: &Network, manifest: &Manifest, rng: &mut DetRng) -> AggregatorNode {
    let ras = AmdRas::new(&mut rng.fork(b"ras"));
    let image = manifest.image();
    let mut proxy = AttestationProxy::new(ras.root_certs(), image.clone(), rng.fork(b"ap"));
    let mut platform = Platform::genuine(&ras, "chip", &mut rng.fork(b"p"));
    let prov = proxy.verify_and_provision(&mut platform, &image).unwrap();
    AggregatorNode::new("agg-0", prov.cvm, net.register("agg-0"), rng.fork(b"agg")).unwrap()
}

/// `party-{i}` for each `i` of `order`, joined to `agg` in that order and
/// registered with weight 1, acknowledgements read.
pub fn registered(
    net: &Network,
    agg: &mut AggregatorNode,
    order: impl Iterator<Item = usize>,
    rng: &mut DetRng,
) -> Vec<RawParty> {
    let mut parties: Vec<RawParty> = order
        .map(|i| {
            let name = format!("party-{i}");
            let mut party = RawParty::join(net, agg, &name, rng);
            party.send(&Msg::Register {
                party: name,
                weight: 1.0,
            });
            party
        })
        .collect();
    agg.pump();
    for party in &mut parties {
        assert_eq!(party.recv(), Some(Msg::RegisterAck));
    }
    parties
}

/// The party side of one secure channel to `agg-0`.
pub struct RawParty {
    endpoint: Endpoint,
    channel: SecureChannel,
}

impl RawParty {
    /// Registers `name` on the network and completes Phase II with `agg`.
    pub fn join(net: &Network, agg: &mut AggregatorNode, name: &str, rng: &mut DetRng) -> RawParty {
        let endpoint = net.register(name);
        let hs = HandshakeInitiator::new(rng);
        let hello = Msg::Hello {
            handshake: hs.hello().to_vec(),
        };
        endpoint.send("agg-0", hello.encode().unwrap()).unwrap();
        agg.pump();
        let reply = endpoint.recv().expect("hello reply");
        let Msg::HelloReply { handshake } = Msg::decode(&reply.payload).unwrap() else {
            panic!("expected a HelloReply");
        };
        let token = agg.link_signing_key().verifying_key();
        let channel = hs.complete(&handshake, &token).unwrap();
        RawParty { endpoint, channel }
    }

    /// Seals `msg` on the channel and sends it; the caller pumps.
    pub fn send(&mut self, msg: &Msg) {
        let sealed = self.channel.seal_msg(&msg.encode().unwrap());
        let record = Msg::Record { sealed };
        self.endpoint
            .send("agg-0", record.encode().unwrap())
            .unwrap();
    }

    /// The next inner message `agg-0` sent this party, if any.
    pub fn recv(&mut self) -> Option<Msg> {
        let frame = self.endpoint.recv()?;
        let Msg::Record { sealed } = Msg::decode(&frame.payload).unwrap() else {
            panic!("expected a sealed record");
        };
        Some(Msg::decode(&self.channel.open_msg(&sealed).unwrap()).unwrap())
    }
}

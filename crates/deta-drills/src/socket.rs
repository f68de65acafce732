//! TCP-bridge drills: a hand-rolled rogue client (built from the public
//! wire primitives, free to violate the discipline `run_node` enforces)
//! replays frames, reorders frames, impersonates an aggregator seat and
//! over-claims delivery acknowledgements against a live [`SocketHub`].
//! The client and its hub are public: the workspace's socket fault tests
//! (`tests/socket_faults.rs`) misbehave through the same one.

use crate::Drill;
use deta_crypto::{DetRng, SigningKey};
use deta_socket::wire::auth_transcript;
use deta_socket::{
    encode_frame, hub_verifying_key, party_link_key, FrameDecoder, HubSeat, SocketError,
    SocketFrame, SocketHub,
};
use deta_transport::secure::{HandshakeInitiator, SecureChannel};
use deta_transport::{Endpoint, LinkModel, Network, RecvError};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const SEED: u64 = 0xD0D0;

/// A hub with one connectable party seat (`party-0`, whose link key is
/// returned) and one plain hub-network endpoint (`agg-0`) kept for
/// delivery assertions.
pub fn start_hub() -> (SocketHub, Network, Endpoint, SigningKey) {
    let network = Network::new(LinkModel::lan());
    let agg = network.register("agg-0");
    let (seat, link) = seat("party-0");
    let hub = SocketHub::bind(network.clone(), vec![seat], SEED).expect("hub bind");
    (hub, network, agg, link)
}

/// Three frames in the hub's custody: `party-0` and `agg-0` both seated
/// and linked, `party-0`'s frames 0..3 relayed to `agg-0` and read there
/// — acknowledged by nobody, so the hub retains all three for `agg-0`.
pub struct Custody {
    /// The hub holding the frames.
    pub hub: SocketHub,
    /// The client that sent them.
    pub party: Rogue,
    /// The client they were relayed to.
    pub agg: Rogue,
    agg_link: SigningKey,
}

impl Custody {
    /// Sets the scene.
    ///
    /// # Errors
    ///
    /// A refused client, or a relay that did not deliver 0, 1, 2.
    pub fn start() -> Result<Custody, String> {
        let network = Network::new(LinkModel::lan());
        let (party_seat, party_link) = seat("party-0");
        let (agg_seat, agg_link) = seat("agg-0");
        let hub = SocketHub::bind(network, vec![party_seat, agg_seat], SEED)
            .map_err(|e| format!("bind: {e}"))?;
        let mut agg = Rogue::connect(hub.addr(), "agg-0", &agg_link).ok_or("agg-0 auth refused")?;
        agg.resume();
        let mut party =
            Rogue::connect(hub.addr(), "party-0", &party_link).ok_or("party-0 auth refused")?;
        party.resume();
        for seq in 0..3 {
            party.send_data("agg-0", seq, b"upload");
        }
        if agg.recv_relayed(3)? != [0, 1, 2] {
            return Err("the relay reordered agg-0's frames".to_string());
        }
        Ok(Custody {
            hub,
            party,
            agg,
            agg_link,
        })
    }

    /// `agg-0` loses its connection abruptly and resumes claiming that
    /// nothing was delivered: the sequence numbers of the first `n`
    /// frames the hub then replays — everything it still retains for
    /// `agg-0`, oldest first.
    ///
    /// # Errors
    ///
    /// A refused reconnection, or fewer than `n` frames replayed.
    pub fn agg_resumes(&mut self, n: usize) -> Result<Vec<u64>, String> {
        // No Bye: the hub sees the transport die, and parks the seat.
        let _ = self.agg.stream.shutdown(std::net::Shutdown::Both);
        self.agg = Rogue::connect(self.hub.addr(), "agg-0", &self.agg_link)
            .ok_or("agg-0 could not resume")?;
        self.agg.resume();
        self.agg.recv_relayed(n)
    }
}

/// A seat for `name`, keyed by a link key derived from the drill seed.
fn seat(name: &str) -> (HubSeat, SigningKey) {
    let link = party_link_key(SEED, name);
    let seat = HubSeat {
        name: name.to_string(),
        key: link.verifying_key(),
    };
    (seat, link)
}

/// A minimal bridge-protocol client that can misbehave at will.
pub struct Rogue {
    stream: TcpStream,
    decoder: FrameDecoder,
    channel: SecureChannel,
}

impl Rogue {
    /// Handshakes and authenticates as `name`; `None` when the hub
    /// refuses the auth proof. The hub takes no frame but a `Resume`
    /// next ([`Rogue::resume`]).
    pub fn connect(addr: SocketAddr, name: &str, link: &SigningKey) -> Option<Rogue> {
        let mut rogue = Rogue::dial(addr, name);
        let Some(SocketFrame::Challenge { nonce }) = rogue.recv() else {
            panic!("hub must open with a challenge");
        };
        let proof = link.sign(&auth_transcript(&nonce, name));
        rogue.send(&SocketFrame::AuthProof {
            name: name.to_string(),
            sig: proof.to_bytes(),
        });
        match rogue.recv() {
            Some(SocketFrame::Welcome) => {}
            _ => return None,
        }
        // The hub aligns clocks right after Welcome and refuses data
        // until the probe is echoed; even a rogue must answer it.
        let Some(SocketFrame::ClockProbe { t_hub_ns }) = rogue.recv() else {
            panic!("hub must probe the clock after Welcome");
        };
        rogue.send(&SocketFrame::ClockEcho {
            t_hub_ns,
            t_peer_ns: deta_obs::now_ns(),
        });
        Some(rogue)
    }

    /// The secure-channel handshake alone: the hub's `Challenge` is the
    /// next frame, and nothing has been proved yet. `name` only salts
    /// the client's randomness.
    pub fn dial(addr: SocketAddr, name: &str) -> Rogue {
        let mut rng = DetRng::from_u64(SEED)
            .fork(b"rogue-client")
            .fork(name.as_bytes());
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .expect("read timeout");
        let mut decoder = FrameDecoder::new();
        let init = HandshakeInitiator::new(&mut rng);
        let mut s = stream.try_clone().expect("clone stream");
        s.write_all(&encode_frame(init.hello())).expect("hello");
        let response = read_raw(&mut s, &mut decoder).expect("handshake response");
        let channel = init
            .complete(&response, &hub_verifying_key(SEED))
            .expect("handshake");
        Rogue {
            stream,
            decoder,
            channel,
        }
    }

    /// Seals and sends one frame.
    pub fn send(&mut self, frame: &SocketFrame) {
        let record = self.channel.seal_msg(&frame.encode());
        self.stream
            .write_all(&encode_frame(&record))
            .expect("rogue send");
    }

    /// A data frame sealed as a *fresh* record but carrying an arbitrary
    /// logical sequence number — a byte-level-valid replay.
    pub fn send_data(&mut self, dst: &str, seq: u64, payload: &[u8]) {
        self.send(&SocketFrame::Data {
            src: "party-0".to_string(),
            dst: dst.to_string(),
            seq,
            payload: payload.to_vec(),
        });
    }

    /// Opens (or reopens) the link with a `Resume` that claims nothing
    /// delivered: every connection leads with one, and the hub relays to
    /// a seat only once its child has said where to resume from.
    pub fn resume(&mut self) {
        self.send(&SocketFrame::Resume { next: 0 });
    }

    /// Next frame from the hub, or `None` on EOF.
    pub fn recv(&mut self) -> Option<SocketFrame> {
        let record = read_raw(&mut self.stream, &mut self.decoder)?;
        let plain = self.channel.open_msg(&record).expect("open record");
        Some(SocketFrame::decode(&plain).expect("decode frame"))
    }

    /// The sequence numbers of the next `n` `Data` frames the hub relays
    /// from `party-0`, skipping control frames (the hub's
    /// acknowledgements, a `ResumeAck`, closures).
    ///
    /// # Errors
    ///
    /// The stream ended first, or carried another link's data.
    pub fn recv_relayed(&mut self, n: usize) -> Result<Vec<u64>, String> {
        let mut seqs = Vec::new();
        while seqs.len() < n {
            match self.recv() {
                Some(SocketFrame::Data { src, dst, seq, .. })
                    if src == "party-0" && dst == "agg-0" =>
                {
                    seqs.push(seq)
                }
                Some(other @ SocketFrame::Data { .. }) => {
                    return Err(format!("unexpected relay: {other:?}"))
                }
                Some(_) => {}
                None => return Err(format!("stream ended after {seqs:?}")),
            }
        }
        Ok(seqs)
    }
}

/// Short-polls until one complete frame or EOF.
fn read_raw(stream: &mut TcpStream, decoder: &mut FrameDecoder) -> Option<Vec<u8>> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(frame) = decoder.try_next().expect("well-formed stream") {
            return Some(frame);
        }
        assert!(Instant::now() < deadline, "hub went silent");
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => decoder.push(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => return None,
            Err(e) => panic!("rogue read failed: {e}"),
        }
    }
}

/// Polls until the hub records its first structured error.
pub fn wait_error(hub: &SocketHub) -> Result<SocketError, String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(e) = hub.first_error() {
            return Ok(e);
        }
        if Instant::now() >= deadline {
            return Err("the hub recorded no error".to_string());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The TCP-bridge drill set.
pub fn drills() -> Vec<Drill> {
    vec![
        Drill {
            id: "socket-frame-replay",
            claim: "the bridge rejects a re-sealed copy of an old logical \
                    frame and names the offending link (deta-socket \
                    replay window)",
            attack: "an authenticated peer re-sends its first upload \
                     frame, sealed as a fresh record",
            run: frame_replay,
        },
        Drill {
            id: "socket-frame-reorder",
            claim: "the bridge delivers frames strictly in per-link \
                    order; a future sequence number is rejected, not \
                    buffered",
            attack: "an authenticated peer opens its link with seq 5, \
                     hiding frames 0..5",
            run: frame_reorder,
        },
        Drill {
            id: "socket-reconnect-impersonation",
            claim: "a parked seat can only be resumed by the identity \
                    that opened it; a reconnect attempt under a \
                    different key is refused and the session survives \
                    for the real owner (deta-socket resume auth)",
            attack: "after a party's link drops mid-session, a rogue \
                     process reconnects to its parked seat answering \
                     the challenge with a self-generated key",
            run: reconnect_impersonation,
        },
        Drill {
            id: "socket-resume-replay",
            claim: "the per-link replay window survives a reconnect; a \
                    resumed peer re-sending an already-delivered frame \
                    is rejected with a structured error naming the link \
                    (deta-socket resume resync)",
            attack: "a party reconnects after an abrupt drop, completes \
                     the Resume/ResumeAck exchange, then re-sends its \
                     first upload frame sealed as a fresh record",
            run: resume_replay,
        },
        Drill {
            id: "socket-rogue-aggregator",
            claim: "an aggregator seat on the hub is bound to its \
                    attested token identity; a rogue binary without that \
                    identity never comes online (deta-socket auth)",
            attack: "a rogue process claims the agg-1 seat and answers \
                     the hub's challenge with a self-generated key",
            run: rogue_aggregator,
        },
    ]
}

/// The delivery-acknowledgement drill. Apart from [`drills`] because the
/// report numbers its rows by catalog position and this one came later.
pub fn ack_drills() -> Vec<Drill> {
    vec![Drill {
        id: "socket-forged-ack",
        claim: "the hub stops retaining a relayed frame only on the word \
                of the seat it was relayed to: an acknowledgement speaks \
                for the link it arrives on and never past what was sent \
                there, so no other authenticated peer can make the hub \
                forget what that seat may still need replayed (deta-socket \
                delivery acknowledgement)",
        attack: "party-0, authenticated, acknowledges three frames on its \
                 own link although the hub has sent it none; agg-0, which \
                 acknowledged none of the three frames relayed to it, then \
                 loses its connection and resumes",
        run: forged_ack,
    }]
}

fn forged_ack() -> Result<String, String> {
    let mut held = Custody::start()?;
    held.party.send(&SocketFrame::Ack { next: 3 });
    let err = wait_error(&held.hub)?;
    let observed = format!("SocketError::Ack — {err}");
    match err {
        SocketError::Ack {
            link,
            next: 3,
            stamped: 0,
        } if link == "hub->party-0" => {}
        other => return Err(format!("wrong rejection: {other}")),
    }
    // The hub owes agg-0 every frame nobody entitled has acknowledged.
    if held.agg_resumes(3)? != [0, 1, 2] {
        return Err("the forged acknowledgement cost agg-0 a frame".to_string());
    }
    held.hub.join();
    Ok(format!(
        "{observed}; all three frames were replayed to agg-0 when it resumed"
    ))
}

fn frame_replay() -> Result<String, String> {
    let (hub, _network, agg, link) = start_hub();
    let mut rogue = Rogue::connect(hub.addr(), "party-0", &link).ok_or("auth refused")?;
    rogue.resume();
    rogue.send_data("agg-0", 0, b"upload");
    agg.recv_timeout(Duration::from_secs(2))
        .map_err(|e| format!("honest frame not delivered: {e}"))?;
    rogue.send_data("agg-0", 0, b"upload");
    let err = wait_error(&hub)?;
    let observed = format!("SocketError::Replay — {err}");
    match err {
        SocketError::Replay {
            link,
            seq: 0,
            expected: 1,
        } if link == "party-0->agg-0" => {}
        other => return Err(format!("wrong rejection: {other}")),
    }
    if !matches!(
        agg.recv_timeout(Duration::from_millis(200)),
        Err(RecvError::Timeout)
    ) {
        return Err("the replayed frame was delivered".to_string());
    }
    hub.join();
    Ok(format!("{observed}; the duplicate was never delivered"))
}

fn frame_reorder() -> Result<String, String> {
    let (hub, _network, agg, link) = start_hub();
    let mut rogue = Rogue::connect(hub.addr(), "party-0", &link).ok_or("auth refused")?;
    rogue.resume();
    rogue.send_data("agg-0", 5, b"late");
    let err = wait_error(&hub)?;
    let observed = format!("SocketError::Replay — {err}");
    match err {
        SocketError::Replay {
            link,
            seq: 5,
            expected: 0,
        } if link == "party-0->agg-0" => {}
        other => return Err(format!("wrong rejection: {other}")),
    }
    if !matches!(
        agg.recv_timeout(Duration::from_millis(200)),
        Err(RecvError::Timeout)
    ) {
        return Err("the out-of-order frame was delivered".to_string());
    }
    hub.join();
    Ok(format!("{observed}; the frame was never delivered"))
}

fn reconnect_impersonation() -> Result<String, String> {
    let (hub, network, agg, link) = start_hub();
    let mut rogue = Rogue::connect(hub.addr(), "party-0", &link).ok_or("auth refused")?;
    rogue.resume();
    rogue.send_data("agg-0", 0, b"upload");
    agg.recv_timeout(Duration::from_secs(2))
        .map_err(|e| format!("honest frame not delivered: {e}"))?;
    // Abrupt loss: no Bye, so the hub parks the seat for reconnection.
    drop(rogue);
    std::thread::sleep(Duration::from_millis(200));
    if network.is_closed("party-0") {
        return Err("an abrupt drop closed the seat instead of parking it".to_string());
    }
    // The impostor tries to claim the parked seat with its own key.
    let rng = DetRng::from_u64(SEED);
    let self_generated = SigningKey::generate(&mut rng.fork(b"impostor"));
    if Rogue::connect(hub.addr(), "party-0", &self_generated).is_some() {
        return Err("an impostor resumed the parked party-0 seat".to_string());
    }
    let err = wait_error(&hub)?;
    let observed = format!("SocketError::Auth — {err}");
    match err {
        SocketError::Auth { peer, .. } if peer == "party-0" => {}
        other => return Err(format!("wrong rejection: {other}")),
    }
    // The session must survive the failed takeover: the real owner
    // reconnects and the link picks up at the next sequence number.
    let mut owner =
        Rogue::connect(hub.addr(), "party-0", &link).ok_or("the real owner could not resume")?;
    owner.resume();
    owner.send_data("agg-0", 1, b"resumed");
    agg.recv_timeout(Duration::from_secs(2))
        .map_err(|e| format!("post-resume frame not delivered: {e}"))?;
    hub.join();
    Ok(format!("{observed}; the real owner resumed and delivered"))
}

fn resume_replay() -> Result<String, String> {
    let (hub, _network, agg, link) = start_hub();
    let mut rogue = Rogue::connect(hub.addr(), "party-0", &link).ok_or("auth refused")?;
    rogue.resume();
    rogue.send_data("agg-0", 0, b"upload-0");
    rogue.send_data("agg-0", 1, b"upload-1");
    for seq in 0..2u64 {
        agg.recv_timeout(Duration::from_secs(2))
            .map_err(|e| format!("honest frame {seq} not delivered: {e}"))?;
    }
    // Abrupt loss, then a reconnect that completes the explicit
    // Resume/ResumeAck exchange under the legitimate key.
    drop(rogue);
    std::thread::sleep(Duration::from_millis(200));
    let mut rogue = Rogue::connect(hub.addr(), "party-0", &link).ok_or("reconnect auth refused")?;
    rogue.resume();
    match rogue.recv() {
        Some(SocketFrame::ResumeAck { next: 2 }) => {}
        other => return Err(format!("expected ResumeAck {{ next: 2 }}, got {other:?}")),
    }
    // The attack: re-send the already-delivered first frame as if the
    // outage had reset the link's history.
    rogue.send_data("agg-0", 0, b"upload-0");
    let err = wait_error(&hub)?;
    let observed = format!("SocketError::Replay — {err}");
    match err {
        SocketError::Replay {
            link,
            seq: 0,
            expected: 2,
        } if link == "party-0->agg-0" => {}
        other => return Err(format!("wrong rejection: {other}")),
    }
    if !matches!(
        agg.recv_timeout(Duration::from_millis(200)),
        Err(RecvError::Timeout)
    ) {
        return Err("the replayed frame was delivered after resume".to_string());
    }
    hub.join();
    Ok(format!("{observed}; the window outlived the outage"))
}

fn rogue_aggregator() -> Result<String, String> {
    // The agg-1 seat is keyed by its attested token identity, which the
    // rogue does not hold.
    let network = Network::new(LinkModel::lan());
    let rng = DetRng::from_u64(SEED);
    let attested = SigningKey::generate(&mut rng.fork(b"agg-1-identity"));
    let seats = vec![HubSeat {
        name: "agg-1".to_string(),
        key: attested.verifying_key(),
    }];
    let hub = SocketHub::bind(network.clone(), seats, SEED).map_err(|e| format!("bind: {e}"))?;
    let self_generated = SigningKey::generate(&mut rng.fork(b"rogue"));
    if Rogue::connect(hub.addr(), "agg-1", &self_generated).is_some() {
        return Err("a rogue binary was welcomed onto the agg-1 seat".to_string());
    }
    let err = wait_error(&hub)?;
    let observed = format!("SocketError::Auth — {err}");
    match err {
        SocketError::Auth { peer, .. } if peer == "agg-1" => {}
        other => return Err(format!("wrong rejection: {other}")),
    }
    if network.is_closed("agg-1") {
        return Err("the failed impostor closed the real seat's mailbox".to_string());
    }
    hub.join();
    Ok(format!("{observed}; the seat stayed live for its owner"))
}

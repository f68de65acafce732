//! Seeded fault plans and the deterministic fault policy they drive.
//!
//! A [`FaultPlan`] is a small set of [`Fault`]s derived from a single
//! `u64` seed via the in-repo PRNG: every fault names a directed
//! data-plane link and the send-attempt index it strikes at. The
//! matching [`SimPolicy`] implements `deta_transport::FaultPolicy` by
//! counting send attempts per link — each link has exactly one sender,
//! whose sends on it follow the protocol, so the counter sequence does
//! not depend on how the nodes are scheduled (on one thread or on many).
//! That is what makes a whole simulated deployment reproducible from one
//! integer.
//!
//! The control plane (any frame to or from the supervisor) is exempt:
//! supervision is the *oracle* that turns faults into structured errors,
//! so faulting it would make the observed verdict depend on the
//! supervisor's schedule rather than on the plan.

use crate::common::lock;
use deta_core::rtmsg::SUPERVISOR;
use deta_crypto::DetRng;
use deta_obs::TelemetryValue;
use deta_transport::{FaultPolicy, SendVerdict};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// The injectable fault types (the ISSUE's six: drop, duplicate,
/// delay/reorder, corrupt-frame, partition, peer-crash).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Silently lose one message.
    Drop,
    /// Deliver one message twice.
    Duplicate,
    /// Hold one message until the clock releases it: everything sent
    /// meanwhile overtakes it (a reorder), nothing is lost.
    Delay,
    /// Flip one payload byte (frame corruption; AEAD rejects it).
    Corrupt,
    /// Sever the link from the strike index onward (one direction; the
    /// plan generator always emits both directions together).
    Partition,
    /// Crash the sending node: its mailbox closes, the message is lost,
    /// and all its later sends are blackholed.
    Crash,
    /// Restart the link: for `after` send attempts starting at the
    /// strike index the link is down, and every frame sent during the
    /// outage is held and retransmitted, in order, when the clock
    /// releases it — the simulated analogue of `deta-socket`'s
    /// reconnect-and-replay (a TCP sever heals, the resumed link replays
    /// its retransmit buffer). Nothing is lost, so the run must stay
    /// bit-exact with its fault-free twin.
    LinkRestart {
        /// Send attempts the outage covers from the strike index on.
        after: u32,
    },
}

impl FaultKind {
    /// Stable name for reports and the seed-corpus JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Delay => "delay",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Partition => "partition",
            FaultKind::Crash => "crash",
            FaultKind::LinkRestart { .. } => "link_restart",
        }
    }
}

/// One scheduled fault on one directed link.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    /// What happens.
    pub kind: FaultKind,
    /// Sending endpoint name.
    pub from: String,
    /// Receiving endpoint name.
    pub to: String,
    /// Zero-based send-attempt index on (from, to) the fault strikes at
    /// (for [`FaultKind::Partition`]: strikes at every index ≥ this).
    pub at: u32,
}

/// The deployment's node names, used to enumerate faultable links.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Party endpoint names.
    pub parties: Vec<String>,
    /// Aggregator endpoint names (index 0 is the one the supervisor
    /// triggers).
    pub aggregators: Vec<String>,
}

impl Topology {
    /// The standard naming scheme (`party-{i}`, `agg-{j}`).
    pub fn new(n_parties: usize, n_aggregators: usize) -> Topology {
        Topology {
            parties: (0..n_parties).map(|i| format!("party-{i}")).collect(),
            aggregators: (0..n_aggregators).map(|j| format!("agg-{j}")).collect(),
        }
    }

    /// Every directed link a plan may fault: party ↔ aggregator in both
    /// directions, then aggregator 0 ↔ each other aggregator.
    /// Aggregators never address one another, so a fault drawn on one of
    /// the latter pairs never strikes; the pairs stay listed so that
    /// every seed keeps the plan it has always drawn. Deterministic order
    /// (the plan generator indexes into this).
    pub fn data_links(&self) -> Vec<(String, String)> {
        let mut links = Vec::new();
        for p in &self.parties {
            for a in &self.aggregators {
                links.push((p.clone(), a.clone()));
                links.push((a.clone(), p.clone()));
            }
        }
        if let Some(initiator) = self.aggregators.first() {
            for f in &self.aggregators[1..] {
                links.push((initiator.clone(), f.clone()));
                links.push((f.clone(), initiator.clone()));
            }
        }
        links
    }
}

/// A seed-derived set of faults for one simulated run.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// The seed the plan was derived from (0 for hand-built plans).
    pub seed: u64,
    /// The scheduled faults.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Derives a plan (zero to three faults; a partition counts as one
    /// fault but emits both directions) from `seed`. Deterministic: the
    /// same seed and topology always produce the identical plan.
    pub fn from_seed(seed: u64, topo: &Topology) -> FaultPlan {
        let mut rng = DetRng::from_u64(seed).fork(b"simnet-fault-plan");
        let links = topo.data_links();
        let mut faults = Vec::new();
        if links.is_empty() {
            return FaultPlan { seed, faults };
        }
        let n_faults = rng.gen_range(4) as usize;
        for _ in 0..n_faults {
            let kind = rng.gen_range(7);
            let (from, to) = links[rng.gen_range(links.len() as u64) as usize].clone();
            let at = rng.gen_range(6) as u32;
            let kind = match kind {
                0 => FaultKind::Drop,
                1 => FaultKind::Duplicate,
                2 => {
                    // The delay's length, drawn when deliveries released
                    // a hold: drawn still, so later faults keep theirs.
                    rng.gen_range(3);
                    FaultKind::Delay
                }
                3 => FaultKind::Corrupt,
                4 => FaultKind::Partition,
                5 => FaultKind::LinkRestart {
                    after: 1 + rng.gen_range(4) as u32,
                },
                _ => FaultKind::Crash,
            };
            // Partitions sever both directions at the same index.
            let back = (kind == FaultKind::Partition).then(|| Fault {
                kind,
                from: to.clone(),
                to: from.clone(),
                at,
            });
            faults.push(Fault { kind, from, to, at });
            faults.extend(back);
        }
        FaultPlan { seed, faults }
    }

    /// A hand-built plan (fixtures, shrinking).
    pub fn from_faults(faults: Vec<Fault>) -> FaultPlan {
        FaultPlan { seed: 0, faults }
    }

    /// Every node that is an endpoint of a faulted link. A run that ends
    /// in an error must implicate at least one of these — the
    /// "names the dark node" half of the termination invariant.
    pub fn incident_nodes(&self) -> BTreeSet<String> {
        let mut nodes = BTreeSet::new();
        for f in &self.faults {
            nodes.insert(f.from.clone());
            nodes.insert(f.to.clone());
        }
        nodes
    }

    /// The distinct fault kinds this plan schedules.
    pub fn kinds(&self) -> BTreeSet<&'static str> {
        self.faults.iter().map(|f| f.kind.as_str()).collect()
    }
}

struct PolicyState {
    /// Send attempts seen so far per directed link.
    counters: BTreeMap<(String, String), u32>,
    /// Nodes killed by a [`FaultKind::Crash`]; all their later sends
    /// (data and control plane alike) are blackholed.
    crashed: BTreeSet<String>,
    /// Indices into `faults` that actually struck.
    fired: BTreeSet<usize>,
}

/// The deterministic `FaultPolicy` executing a [`FaultPlan`].
pub struct SimPolicy {
    faults: Vec<Fault>,
    state: Mutex<PolicyState>,
}

impl SimPolicy {
    /// Arms a plan.
    pub fn new(plan: &FaultPlan) -> SimPolicy {
        SimPolicy {
            faults: plan.faults.clone(),
            state: Mutex::new(PolicyState {
                counters: BTreeMap::new(),
                crashed: BTreeSet::new(),
                fired: BTreeSet::new(),
            }),
        }
    }

    /// Kinds of the faults that actually struck during the run (a
    /// scheduled fault whose link never reaches its strike index stays
    /// dormant and the run is expected to behave like a healthy one).
    pub fn fired_kinds(&self) -> BTreeSet<&'static str> {
        let st = lock(&self.state);
        st.fired
            .iter()
            .filter_map(|&i| self.faults.get(i).map(|f| f.kind.as_str()))
            .collect()
    }
}

/// Emits a `fault_injected` event on the *sending* thread's flight
/// recorder (on_send runs on the sender, so the event is attributed to
/// the node the fault strikes from). Gated here because the from/to
/// fields allocate.
fn note_fault(kind: &'static str, from: &str, to: &str, at: u32) {
    if deta_obs::enabled() {
        deta_obs::event(
            "fault_injected",
            &[
                ("kind", TelemetryValue::from(kind)),
                ("from", TelemetryValue::from(from)),
                ("to", TelemetryValue::from(to)),
                ("at", TelemetryValue::from(at)),
            ],
        );
    }
}

impl FaultPolicy for SimPolicy {
    fn on_send(&self, from: &str, to: &str, payload: &[u8]) -> SendVerdict {
        let mut st = lock(&self.state);
        // A crashed node is gone: everything it still tries to send
        // (heartbeats and completion reports included) is blackholed, so
        // the supervisor deterministically observes its death.
        if st.crashed.contains(from) {
            return SendVerdict::Drop;
        }
        // Control plane exempt — see module docs.
        if from == SUPERVISOR || to == SUPERVISOR {
            return SendVerdict::Deliver;
        }
        let key = (from.to_string(), to.to_string());
        let at = *st.counters.get(&key).unwrap_or(&0);
        st.counters.insert(key, at + 1);
        // Partitions swallow the whole link from their strike index on;
        // link restarts hold (never lose) every frame in their outage
        // window — both are range faults, unlike the one-shot kinds.
        for (i, f) in self.faults.iter().enumerate() {
            if f.kind == FaultKind::Partition && f.from == from && f.to == to && at >= f.at {
                st.fired.insert(i);
                note_fault("partition", from, to, at);
                return SendVerdict::Drop;
            }
            if let FaultKind::LinkRestart { after } = f.kind {
                if f.from == from && f.to == to && at >= f.at && at < f.at + after {
                    st.fired.insert(i);
                    note_fault("link_restart", from, to, at);
                    // The frame sits in the dead link's retransmit buffer
                    // until the clock releases it, mirroring the socket
                    // layer's reconnect-and-replay — recovery must not
                    // depend on the stalled sender producing more traffic.
                    return SendVerdict::Hold;
                }
            }
        }
        for (i, f) in self.faults.iter().enumerate() {
            if matches!(f.kind, FaultKind::Partition | FaultKind::LinkRestart { .. })
                || f.from != from
                || f.to != to
                || f.at != at
            {
                continue;
            }
            st.fired.insert(i);
            note_fault(f.kind.as_str(), from, to, at);
            return match f.kind {
                FaultKind::Drop => SendVerdict::Drop,
                FaultKind::Duplicate => SendVerdict::Duplicate,
                FaultKind::Delay => SendVerdict::Hold,
                FaultKind::Corrupt => {
                    if payload.is_empty() {
                        SendVerdict::Drop
                    } else {
                        let mut bad = payload.to_vec();
                        let idx = (f.at as usize * 7 + 3) % bad.len();
                        bad[idx] ^= 0x5A;
                        SendVerdict::Replace(bad)
                    }
                }
                FaultKind::Crash => {
                    st.crashed.insert(from.to_string());
                    SendVerdict::CrashSender
                }
                FaultKind::Partition | FaultKind::LinkRestart { .. } => SendVerdict::Deliver,
            };
        }
        SendVerdict::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        let topo = Topology::new(3, 3);
        for seed in 0..64 {
            let a = FaultPlan::from_seed(seed, &topo);
            let b = FaultPlan::from_seed(seed, &topo);
            assert_eq!(a.faults, b.faults, "seed {seed}");
        }
    }

    #[test]
    fn seeds_cover_every_fault_kind() {
        let topo = Topology::new(3, 3);
        let mut kinds = BTreeSet::new();
        for seed in 0..200 {
            kinds.extend(FaultPlan::from_seed(seed, &topo).kinds());
        }
        for k in [
            "drop",
            "duplicate",
            "delay",
            "corrupt",
            "partition",
            "crash",
            "link_restart",
        ] {
            assert!(kinds.contains(k), "no seed in 0..200 schedules {k}");
        }
    }

    #[test]
    fn policy_counts_per_link_and_fires_once() {
        use SendVerdict::{Deliver, Drop, Duplicate};
        let cases = [
            (
                FaultKind::Drop,
                1,
                vec![
                    ("party-0", Deliver),
                    ("party-1", Deliver),
                    ("party-0", Drop),
                    ("party-0", Deliver),
                ],
                "drop",
            ),
            (
                FaultKind::Duplicate,
                0,
                vec![("party-0", Duplicate), ("party-0", Deliver)],
                "duplicate",
            ),
        ];
        for (kind, at, sends, fired) in cases {
            let plan = FaultPlan::from_faults(vec![Fault {
                kind,
                from: "party-0".into(),
                to: "agg-0".into(),
                at,
            }]);
            let p = SimPolicy::new(&plan);
            for (from, verdict) in sends {
                assert_eq!(p.on_send(from, "agg-0", b"x"), verdict, "{fired}");
            }
            assert_eq!(p.fired_kinds().into_iter().collect::<Vec<_>>(), [fired]);
        }
    }

    #[test]
    fn partition_severs_from_strike_index_onward() {
        let plan = FaultPlan::from_faults(vec![Fault {
            kind: FaultKind::Partition,
            from: "party-0".into(),
            to: "agg-1".into(),
            at: 2,
        }]);
        let p = SimPolicy::new(&plan);
        assert_eq!(p.on_send("party-0", "agg-1", b"x"), SendVerdict::Deliver);
        assert_eq!(p.on_send("party-0", "agg-1", b"x"), SendVerdict::Deliver);
        for _ in 0..4 {
            assert_eq!(p.on_send("party-0", "agg-1", b"x"), SendVerdict::Drop);
        }
    }

    #[test]
    fn crash_blackholes_all_later_sends() {
        let plan = FaultPlan::from_faults(vec![Fault {
            kind: FaultKind::Crash,
            from: "agg-2".into(),
            to: "party-1".into(),
            at: 0,
        }]);
        let p = SimPolicy::new(&plan);
        assert_eq!(
            p.on_send("agg-2", "party-1", b"x"),
            SendVerdict::CrashSender
        );
        // Data plane and control plane alike.
        assert_eq!(p.on_send("agg-2", "party-0", b"x"), SendVerdict::Drop);
        assert_eq!(p.on_send("agg-2", SUPERVISOR, b"x"), SendVerdict::Drop);
    }

    #[test]
    fn link_restart_delays_exactly_its_outage_window() {
        let plan = FaultPlan::from_faults(vec![Fault {
            kind: FaultKind::LinkRestart { after: 2 },
            from: "party-0".into(),
            to: "agg-0".into(),
            at: 1,
        }]);
        let p = SimPolicy::new(&plan);
        assert_eq!(p.on_send("party-0", "agg-0", b"x"), SendVerdict::Deliver);
        // Attempts 1 and 2 fall in the outage: held, never lost, and
        // released by the clock rather than by this link's own traffic.
        assert_eq!(p.on_send("party-0", "agg-0", b"x"), SendVerdict::Hold);
        assert_eq!(p.on_send("party-0", "agg-0", b"x"), SendVerdict::Hold);
        // The link has reconnected and replayed: back to normal.
        assert_eq!(p.on_send("party-0", "agg-0", b"x"), SendVerdict::Deliver);
        assert_eq!(
            p.fired_kinds().into_iter().collect::<Vec<_>>(),
            ["link_restart"]
        );
    }

    #[test]
    fn supervisor_links_are_exempt() {
        let plan = FaultPlan::from_faults(vec![Fault {
            kind: FaultKind::Drop,
            from: SUPERVISOR.into(),
            to: "agg-0".into(),
            at: 0,
        }]);
        let p = SimPolicy::new(&plan);
        assert_eq!(p.on_send(SUPERVISOR, "agg-0", b"x"), SendVerdict::Deliver);
    }
}

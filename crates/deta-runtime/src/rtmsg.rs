//! Control-plane protocol between the supervisor and its actors.
//!
//! Control messages ride the same simulated network as the training
//! protocol, distinguished purely by the sender: every node treats frames
//! from [`SUPERVISOR`] as control traffic and everything else as wire
//! protocol (`deta_core::wire::Msg`). The codec mirrors the wire codec's
//! discipline: a tag byte plus length-prefixed fields, total in both
//! directions — decoding never panics on malformed bytes, and encoding
//! refuses fields that would overflow their `u32` length prefix instead
//! of truncating. The field primitives are [`deta_transport::wire`]'s,
//! shared with the wire codec; this module owns the tags and field order.

use deta_transport::wire::{put_bytes, put_f32s, put_len, Malformed, Reader, TooLong};

/// The supervisor's endpoint name. Reserved: no party or aggregator is
/// ever named this, so the sender check is unambiguous.
pub const SUPERVISOR: &str = "supervisor";

/// One aggregator replacement inside a [`CtlMsg::Rebind`].
#[derive(Clone, PartialEq, Eq)]
pub struct RebindEntry {
    /// Fragment index of the replaced aggregator.
    pub index: u32,
    /// Endpoint name of the replacement.
    pub name: String,
    /// The replacement's token verifying key bytes (public material,
    /// published by the attestation proxy after the nonce challenge).
    pub verifying_key: Vec<u8>,
}

impl std::fmt::Debug for RebindEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The verifying key is public material, but key bytes stay out
        // of logs uniformly (see `SealedSecret`): debug output should
        // never be a place to copy key material from.
        f.debug_struct("RebindEntry")
            .field("index", &self.index)
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Control messages.
#[derive(Clone, Debug, PartialEq)]
pub enum CtlMsg {
    /// Node -> supervisor: the node finished its bootstrap (aggregators:
    /// thread up and serving; parties: registered with every aggregator).
    Ready,
    /// Node -> supervisor: unrecoverable node-level failure.
    Failed {
        /// Human-readable reason.
        reason: String,
    },
    /// Node -> supervisor: liveness signal emitted on idle ticks.
    Heartbeat {
        /// Monotonic per-node sequence number.
        seq: u64,
    },
    /// Supervisor -> initiator aggregator: trigger a round (the
    /// operator's `begin_round` call, made message-driven). Idempotent:
    /// re-delivery of an announced or completed round is harmless.
    Trigger {
        /// Round number, starting at 1.
        round: u64,
        /// Per-round training id from the key broker.
        training_id: [u8; 16],
    },
    /// Supervisor -> party: this round's marching orders.
    RoundPlan {
        /// Round number.
        round: u64,
        /// Train and upload (`true`) or only synchronize (`false`).
        train: bool,
        /// Whether to attach a model-parameter snapshot to `PartyDone`
        /// (one designated party per round feeds evaluation).
        report_params: bool,
    },
    /// Party -> supervisor: the round is applied locally.
    PartyDone {
        /// Round number.
        round: u64,
        /// Whether this party trained (vs. synchronized only).
        trained: bool,
        /// Mean local training loss for the round (0 when not trained).
        train_loss: f32,
        /// Cumulative local-training seconds.
        train_s: f64,
        /// Cumulative transform seconds.
        transform_s: f64,
        /// Cumulative Paillier seconds.
        crypto_s: f64,
        /// Post-synchronization parameter snapshot, when requested.
        params: Option<Vec<f32>>,
    },
    /// Aggregator -> supervisor: aggregation for the round is dispatched.
    AggDone {
        /// Round number.
        round: u64,
        /// Cumulative aggregation compute seconds.
        aggregate_s: f64,
    },
    /// Supervisor -> node: drain and exit.
    Shutdown,
    /// Supervisor -> party: the listed aggregators were replaced by
    /// freshly attested nodes; re-run Phase II against each
    /// (challenge-response pinned to its token) and re-register. All
    /// replacements ride one message so the party's readiness signal
    /// can never fire between two rebinds of the same failover.
    Rebind {
        /// One entry per replaced aggregator.
        rebinds: Vec<RebindEntry>,
    },
    /// Supervisor -> party: re-partition over the surviving aggregator
    /// set before replaying `round` (the old epoch's fragments for that
    /// round are discarded, never merged).
    Remap {
        /// The round being replayed under the new partition.
        round: u64,
        /// Serialized replacement `ModelMapper` assignment.
        mapper: Vec<u8>,
        /// Surviving aggregator endpoint names, index = fragment index.
        aggs: Vec<String>,
    },
    /// Supervisor -> party: re-upload the stored update for `round` (the
    /// idempotent round-replay step after a failover).
    Replay {
        /// Round to replay.
        round: u64,
    },
    /// Supervisor -> aggregator: roll completed-round bookkeeping back
    /// so replayed uploads for `round` are accepted again.
    Reopen {
        /// Round being replayed.
        round: u64,
    },
    /// Supervisor -> aggregator: the named party left the session
    /// (partial participation after its link died); stop expecting its
    /// uploads and re-examine every pending round against the shrunk
    /// registered set.
    Deregister {
        /// Endpoint name of the departed party.
        party: String,
    },
    /// Supervisor -> aggregator: the post-failover synchronization
    /// topology. The node named `initiator` adopts the initiator role
    /// over the other listed aggregators; everyone else follows it.
    Topology {
        /// Endpoint name of the (possibly newly promoted) initiator.
        initiator: String,
        /// The full current aggregator set.
        aggs: Vec<String>,
    },
}

const TAG_READY: u8 = 1;
const TAG_FAILED: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;
const TAG_TRIGGER: u8 = 4;
const TAG_ROUND_PLAN: u8 = 5;
const TAG_PARTY_DONE: u8 = 6;
const TAG_AGG_DONE: u8 = 7;
const TAG_SHUTDOWN: u8 = 8;
const TAG_REBIND: u8 = 9;
const TAG_REMAP: u8 = 10;
const TAG_REPLAY: u8 = 11;
const TAG_REOPEN: u8 = 12;
const TAG_TOPOLOGY: u8 = 13;
const TAG_DEREGISTER: u8 = 14;

/// Decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtlDecodeError;

impl std::fmt::Display for CtlDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed control message")
    }
}

impl std::error::Error for CtlDecodeError {}

/// Encode errors: a variable-length field exceeds the u32 length prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtlEncodeError;

impl std::fmt::Display for CtlEncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "control message field exceeds u32 length prefix")
    }
}

impl std::error::Error for CtlEncodeError {}

impl From<Malformed> for CtlDecodeError {
    fn from(_: Malformed) -> CtlDecodeError {
        CtlDecodeError
    }
}

impl From<TooLong> for CtlEncodeError {
    fn from(_: TooLong) -> CtlEncodeError {
        CtlEncodeError
    }
}

fn put_names(out: &mut Vec<u8>, v: &[String]) -> Result<(), TooLong> {
    put_len(out, v.len())?;
    for s in v {
        put_bytes(out, s.as_bytes())?;
    }
    Ok(())
}

fn names(r: &mut Reader<'_>) -> Result<Vec<String>, Malformed> {
    // Each entry costs at least its own length prefix.
    let n = r.count(4)?;
    (0..n).map(|_| Ok(r.str()?.to_string())).collect()
}

impl CtlMsg {
    /// The variant's name, for counted-drop telemetry labels.
    pub fn name(&self) -> &'static str {
        match self {
            CtlMsg::Ready => "Ready",
            CtlMsg::Failed { .. } => "Failed",
            CtlMsg::Heartbeat { .. } => "Heartbeat",
            CtlMsg::Trigger { .. } => "Trigger",
            CtlMsg::RoundPlan { .. } => "RoundPlan",
            CtlMsg::PartyDone { .. } => "PartyDone",
            CtlMsg::AggDone { .. } => "AggDone",
            CtlMsg::Shutdown => "Shutdown",
            CtlMsg::Rebind { .. } => "Rebind",
            CtlMsg::Remap { .. } => "Remap",
            CtlMsg::Replay { .. } => "Replay",
            CtlMsg::Reopen { .. } => "Reopen",
            CtlMsg::Deregister { .. } => "Deregister",
            CtlMsg::Topology { .. } => "Topology",
        }
    }

    /// Serializes the message.
    ///
    /// # Errors
    ///
    /// Fails when a field holds 2^32 or more elements, instead of
    /// truncating a length prefix.
    pub fn encode(&self) -> Result<Vec<u8>, CtlEncodeError> {
        let mut out = Vec::new();
        match self {
            CtlMsg::Ready => out.push(TAG_READY),
            CtlMsg::Failed { reason } => {
                out.push(TAG_FAILED);
                put_bytes(&mut out, reason.as_bytes())?;
            }
            CtlMsg::Heartbeat { seq } => {
                out.push(TAG_HEARTBEAT);
                out.extend_from_slice(&seq.to_le_bytes());
            }
            CtlMsg::Trigger { round, training_id } => {
                out.push(TAG_TRIGGER);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(training_id);
            }
            CtlMsg::RoundPlan {
                round,
                train,
                report_params,
            } => {
                out.push(TAG_ROUND_PLAN);
                out.extend_from_slice(&round.to_le_bytes());
                out.push(u8::from(*train));
                out.push(u8::from(*report_params));
            }
            CtlMsg::PartyDone {
                round,
                trained,
                train_loss,
                train_s,
                transform_s,
                crypto_s,
                params,
            } => {
                out.push(TAG_PARTY_DONE);
                out.extend_from_slice(&round.to_le_bytes());
                out.push(u8::from(*trained));
                out.extend_from_slice(&train_loss.to_le_bytes());
                out.extend_from_slice(&train_s.to_le_bytes());
                out.extend_from_slice(&transform_s.to_le_bytes());
                out.extend_from_slice(&crypto_s.to_le_bytes());
                match params {
                    None => out.push(0),
                    Some(p) => {
                        out.push(1);
                        put_f32s(&mut out, p)?;
                    }
                }
            }
            CtlMsg::AggDone { round, aggregate_s } => {
                out.push(TAG_AGG_DONE);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&aggregate_s.to_le_bytes());
            }
            CtlMsg::Shutdown => out.push(TAG_SHUTDOWN),
            CtlMsg::Rebind { rebinds } => {
                out.push(TAG_REBIND);
                put_len(&mut out, rebinds.len())?;
                for e in rebinds {
                    out.extend_from_slice(&e.index.to_le_bytes());
                    put_bytes(&mut out, e.name.as_bytes())?;
                    put_bytes(&mut out, &e.verifying_key)?;
                }
            }
            CtlMsg::Remap {
                round,
                mapper,
                aggs,
            } => {
                out.push(TAG_REMAP);
                out.extend_from_slice(&round.to_le_bytes());
                put_bytes(&mut out, mapper)?;
                put_names(&mut out, aggs)?;
            }
            CtlMsg::Replay { round } => {
                out.push(TAG_REPLAY);
                out.extend_from_slice(&round.to_le_bytes());
            }
            CtlMsg::Reopen { round } => {
                out.push(TAG_REOPEN);
                out.extend_from_slice(&round.to_le_bytes());
            }
            CtlMsg::Topology { initiator, aggs } => {
                out.push(TAG_TOPOLOGY);
                put_bytes(&mut out, initiator.as_bytes())?;
                put_names(&mut out, aggs)?;
            }
            CtlMsg::Deregister { party } => {
                out.push(TAG_DEREGISTER);
                put_bytes(&mut out, party.as_bytes())?;
            }
        }
        Ok(out)
    }

    /// Parses a control frame.
    ///
    /// # Errors
    ///
    /// Fails on any malformed input; never panics.
    pub fn decode(buf: &[u8]) -> Result<CtlMsg, CtlDecodeError> {
        let mut r = Reader::new(buf);
        let msg = match r.u8()? {
            TAG_READY => CtlMsg::Ready,
            TAG_FAILED => CtlMsg::Failed {
                reason: r.str()?.to_string(),
            },
            TAG_HEARTBEAT => CtlMsg::Heartbeat { seq: r.u64()? },
            TAG_TRIGGER => CtlMsg::Trigger {
                round: r.u64()?,
                training_id: r.array()?,
            },
            TAG_ROUND_PLAN => CtlMsg::RoundPlan {
                round: r.u64()?,
                train: r.bool()?,
                report_params: r.bool()?,
            },
            TAG_PARTY_DONE => CtlMsg::PartyDone {
                round: r.u64()?,
                trained: r.bool()?,
                train_loss: r.f32()?,
                train_s: r.f64()?,
                transform_s: r.f64()?,
                crypto_s: r.f64()?,
                params: if r.bool()? { Some(r.f32s()?) } else { None },
            },
            TAG_AGG_DONE => CtlMsg::AggDone {
                round: r.u64()?,
                aggregate_s: r.f64()?,
            },
            TAG_SHUTDOWN => CtlMsg::Shutdown,
            TAG_REBIND => {
                // Each entry costs at least its index and two prefixes.
                let n = r.count(12)?;
                let rebinds = (0..n)
                    .map(|_| {
                        Ok(RebindEntry {
                            index: r.u32()?,
                            name: r.str()?.to_string(),
                            verifying_key: r.bytes()?.to_vec(),
                        })
                    })
                    .collect::<Result<Vec<_>, Malformed>>()?;
                CtlMsg::Rebind { rebinds }
            }
            TAG_REMAP => CtlMsg::Remap {
                round: r.u64()?,
                mapper: r.bytes()?.to_vec(),
                aggs: names(&mut r)?,
            },
            TAG_REPLAY => CtlMsg::Replay { round: r.u64()? },
            TAG_REOPEN => CtlMsg::Reopen { round: r.u64()? },
            TAG_TOPOLOGY => CtlMsg::Topology {
                initiator: r.str()?.to_string(),
                aggs: names(&mut r)?,
            },
            TAG_DEREGISTER => CtlMsg::Deregister {
                party: r.str()?.to_string(),
            },
            _ => return Err(CtlDecodeError),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    // Golden bytes and the round-trip / truncation / trailing-byte /
    // allocation laws for every variant live in `tests/wire_laws.rs` at
    // the workspace root, shared with the other message layers.
    use super::*;

    #[test]
    fn empty_and_unknown_tag_rejected() {
        assert_eq!(CtlMsg::decode(&[]), Err(CtlDecodeError));
        assert_eq!(CtlMsg::decode(&[99]), Err(CtlDecodeError));
    }

    #[test]
    fn out_of_range_flag_rejected() {
        let mut plan = CtlMsg::RoundPlan {
            round: 1,
            train: true,
            report_params: false,
        }
        .encode()
        .expect("encode");
        let train = plan.len() - 2;
        plan[train] = 7;
        assert_eq!(CtlMsg::decode(&plan), Err(CtlDecodeError));
    }

    #[test]
    fn non_utf8_reason_rejected() {
        let mut bytes = vec![TAG_FAILED];
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(CtlMsg::decode(&bytes), Err(CtlDecodeError));
    }
}

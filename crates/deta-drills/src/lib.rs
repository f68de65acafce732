//! Adversarial drill suite: machine-checked falsification attempts
//! against the DeTA threat model.
//!
//! Each [`Drill`] mounts one concrete attack from the paper's threat
//! model — a tampered launch measurement, a replayed Phase II response,
//! a re-sealed frame on the TCP bridge, a breached-and-retired token
//! key, a model-poisoning party, an upload that erases a round —
//! against a *live* session or protocol
//! object, and passes only when the system rejects the attack with the
//! exact structured error the design promises. A drill that observes
//! the wrong error, or sees the attack succeed, FAILs.
//!
//! The `security_drills` binary renders the catalog into
//! `results/SECURITY_DRILLS.md`; `scripts/check.sh` regenerates that
//! report and diffs it against the committed copy, so any FAIL, any
//! drift in the observed rejections, and any drop in the drill count
//! breaks CI. The drill ↔ paper-claim mapping lives in `DESIGN.md` §14.

pub mod attest;
pub mod channel;
pub mod common;
pub mod failover;
pub mod hostile;
pub mod poisoning;
pub mod registration;
pub mod socket;
pub mod stale;

/// One adversarial drill: a named attack against a named claim, whose
/// `run` either observes the promised structured rejection (`Ok` with a
/// human-readable description of it) or reports how the attack got
/// through (`Err`).
pub struct Drill {
    /// Stable kebab-case identifier (the report's primary key).
    pub id: &'static str,
    /// The threat-model claim under attack, as stated by the paper or
    /// the design docs.
    pub claim: &'static str,
    /// The concrete attack this drill mounts.
    pub attack: &'static str,
    /// Mounts the attack. `Ok(observed)` describes the structured
    /// rejection; `Err(why)` explains the falsification.
    pub run: fn() -> Result<String, String>,
}

/// The outcome of one drill, ready for rendering.
pub struct DrillReport {
    /// The drill's identifier.
    pub id: &'static str,
    /// The attacked claim.
    pub claim: &'static str,
    /// The mounted attack.
    pub attack: &'static str,
    /// The rejection observed (PASS) or the failure detail (FAIL).
    pub observed: String,
    /// Whether the system rejected the attack as promised.
    pub pass: bool,
}

/// The full drill catalog, in report order.
pub fn catalog() -> Vec<Drill> {
    let mut out = Vec::new();
    out.extend(attest::drills());
    out.extend(channel::drills());
    out.extend(socket::drills());
    out.extend(failover::drills());
    out.extend(stale::drills());
    out.extend(poisoning::drills());
    out.extend(registration::drills());
    out.extend(socket::ack_drills());
    out.extend(hostile::drills());
    out
}

/// Executes one drill.
pub fn run_one(drill: &Drill) -> DrillReport {
    let (observed, pass) = match (drill.run)() {
        Ok(observed) => (observed, true),
        Err(why) => (why, false),
    };
    DrillReport {
        id: drill.id,
        claim: drill.claim,
        attack: drill.attack,
        observed,
        pass,
    }
}

/// Executes the whole catalog sequentially.
pub fn run_all() -> Vec<DrillReport> {
    catalog().iter().map(run_one).collect()
}

/// Markdown cells may not contain the table delimiter.
fn cell(text: &str) -> String {
    text.replace('|', "/").replace('\n', " ")
}

/// Renders the report table. Deterministic: every cell derives from
/// drill definitions and structured error `Display` output only — no
/// timings, addresses, or environment state.
pub fn render_markdown(reports: &[DrillReport]) -> String {
    let passed = reports.iter().filter(|r| r.pass).count();
    let mut md = String::new();
    md.push_str("# Security drills\n\n");
    md.push_str(
        "Machine-checked falsification attempts against the DeTA threat \
         model. Each row mounts a concrete active attack against a live \
         session, protocol object, or the TCP bridge; PASS means the \
         attack was rejected with the structured error shown. The \
         drill ↔ paper-claim mapping is documented in `DESIGN.md` §14.\n\n\
         Regenerated and diffed by `scripts/check.sh` (`drills` stage): \
         any FAIL, any drift in an observed rejection, or a drop in the \
         drill count fails the gate.\n\n",
    );
    md.push_str(&format!(
        "Verdict: **{passed}/{} drills PASS**.\n\n",
        reports.len()
    ));
    md.push_str(
        "| # | drill | attacked claim | mounted attack | structured rejection observed | verdict |\n\
         |--:|-------|----------------|----------------|-------------------------------|---------|\n",
    );
    for (i, r) in reports.iter().enumerate() {
        md.push_str(&format!(
            "| {} | `{}` | {} | {} | {} | {} |\n",
            i + 1,
            r.id,
            cell(r.claim),
            cell(r.attack),
            cell(&r.observed),
            if r.pass { "PASS" } else { "**FAIL**" },
        ));
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_are_unique_and_sufficient() {
        let drills = catalog();
        assert!(
            drills.len() >= 10,
            "the catalog must hold at least ten drills, found {}",
            drills.len()
        );
        let mut ids: Vec<&str> = drills.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), drills.len(), "drill ids must be unique");
    }

    #[test]
    fn render_escapes_table_delimiters() {
        let report = DrillReport {
            id: "x",
            claim: "a|b",
            attack: "c\nd",
            observed: "e|f".to_string(),
            pass: false,
        };
        let md = render_markdown(&[report]);
        assert!(md.contains("| a/b | c d | e/f | **FAIL** |"));
        assert!(md.contains("**0/1 drills PASS**"));
    }
}

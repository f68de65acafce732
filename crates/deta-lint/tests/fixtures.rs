//! One positive and one negative fixture per rule: deleting (or
//! breaking) any rule implementation fails at least one test here.

use deta_lint::check_source;

fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = check_source(path, src).iter().map(|v| v.rule).collect();
    rules.dedup();
    rules
}

// -------------------------------------------------------------------
// Rule 1: secret-expose
// -------------------------------------------------------------------

const EXPOSING: &str = r#"
pub fn report(&self, key: &Secret<[u8; 32]>) {
    let bytes = key.expose();
    let again = Secret::expose(key);
}
"#;

#[test]
fn expose_outside_the_listed_files_is_flagged() {
    let v = check_source("crates/deta-core/src/party.rs", EXPOSING);
    let lines: Vec<u32> = v
        .iter()
        .filter(|v| v.rule == "secret-expose" && v.ident == "expose")
        .map(|v| v.line)
        .collect();
    assert_eq!(lines, [3, 4], "the method call and the path form");
}

#[test]
fn expose_in_a_listed_file_a_literal_or_a_comment_is_fine() {
    // secret-expose, negative: the files that compute with a key.
    for path in [
        "crates/deta-crypto/src/secret.rs",
        "crates/deta-crypto/src/aead.rs",
        "crates/deta-transport/src/secure.rs",
        "crates/deta-core/src/transform.rs",
        "crates/deta-simnet/src/fleet.rs",
    ] {
        assert!(rules_hit(path, EXPOSING).is_empty(), "{path}");
    }
    // Elsewhere the word is inert inside a string literal, a comment, a
    // test module, and where the wrapper's own method would be defined.
    let src = r#"
// call key.expose() to read the bytes
pub fn doc() -> &'static str { "never call key.expose() here" }
pub fn expose(&self) -> &T { &self.0 }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert_eq!(key().expose(), &[0u8; 32]); }
}
"#;
    assert!(rules_hit("crates/deta-core/src/party.rs", src).is_empty());
}

// -------------------------------------------------------------------
// Rule 2: no-variable-time-eq
// -------------------------------------------------------------------

#[test]
fn tag_equality_is_flagged() {
    let src = r#"
pub fn open(expected_tag: &[u8], tag: &[u8]) -> bool {
    if expected_tag == tag {
        return true;
    }
    false
}
"#;
    let v = check_source("crates/deta-crypto/src/aead.rs", src);
    assert!(v.iter().any(|v| v.rule == "no-variable-time-eq"));
}

#[test]
fn measurement_inequality_is_flagged() {
    let src = "fn verify(want: [u8; 32], m: &Report) -> bool { want != m.measurement }\n";
    let v = check_source("crates/deta-sev-sim/src/lib.rs", src);
    assert!(v
        .iter()
        .any(|v| v.rule == "no-variable-time-eq" && v.ident == "measurement"));
}

#[test]
fn length_checks_and_out_of_scope_files_are_fine() {
    // `len` in the window marks a structural comparison.
    let src = "fn f(sig: &[u8]) -> bool { sig.len() == 64 }\n";
    assert!(rules_hit("crates/deta-crypto/src/sign.rs", src).is_empty());
    // ct_eq'd comparison has no == token at all.
    let src2 = "fn f(tag: &[u8], e: &[u8]) -> bool { ct_eq(tag, e) }\n";
    assert!(rules_hit("crates/deta-crypto/src/aead.rs", src2).is_empty());
    // The same tag comparison outside the auth scope is not this rule's
    // business (e.g. dataset code comparing label tags).
    let src3 = "fn f(tag: u32, other: u32) -> bool { tag == other }\n";
    assert!(rules_hit("crates/deta-datasets/src/lib.rs", src3).is_empty());
}

// -------------------------------------------------------------------
// Rule 3: deterministic-iteration
// -------------------------------------------------------------------

#[test]
fn hashmap_in_mapper_is_flagged() {
    let src = "use std::collections::HashMap;\npub struct M { parts: HashMap<u32, u32> }\n";
    let v = check_source("crates/deta-core/src/mapper.rs", src);
    assert!(v
        .iter()
        .any(|v| v.rule == "deterministic-iteration" && v.ident == "HashMap"));
}

#[test]
fn hashset_in_shuffle_is_flagged() {
    let src = "use std::collections::HashSet;\n";
    let v = check_source("crates/deta-core/src/shuffle.rs", src);
    assert!(v
        .iter()
        .any(|v| v.rule == "deterministic-iteration" && v.ident == "HashSet"));
}

#[test]
fn btreemap_in_scope_and_hashmap_out_of_scope_are_fine() {
    let src = "use std::collections::BTreeMap;\npub struct M { parts: BTreeMap<u32, u32> }\n";
    assert!(rules_hit("crates/deta-core/src/mapper.rs", src).is_empty());
    assert!(rules_hit("crates/deta-core/src/aggregator.rs", src).is_empty());
    // party.rs is allowed to use HashMap (its iteration never feeds the
    // permutation).
    let src2 = "use std::collections::HashMap;\n";
    assert!(rules_hit("crates/deta-core/src/party.rs", src2).is_empty());
}

#[test]
fn hashmap_in_aggregator_is_flagged() {
    // The party table's iteration order is the fan-out order.
    let src = "pub struct Node { parties: HashMap<String, Peer> }\n";
    let v = check_source("crates/deta-core/src/aggregator.rs", src);
    assert!(v
        .iter()
        .any(|v| v.rule == "deterministic-iteration" && v.ident == "HashMap"));
}

// -------------------------------------------------------------------
// Rule 4: no-panic-in-aggregation
// -------------------------------------------------------------------

#[test]
fn unwrap_in_aggregator_is_flagged() {
    let src = "pub fn pump(&mut self) { let x = self.pending.remove(&r).unwrap(); }\n";
    let v = check_source("crates/deta-core/src/aggregator.rs", src);
    assert!(v
        .iter()
        .any(|v| v.rule == "no-panic-in-aggregation" && v.ident == "unwrap"));
}

#[test]
fn expect_and_panic_macros_are_flagged() {
    let src = r#"
pub fn handle(&mut self) {
    let r = self.current.expect("no round");
    match r {
        0 => panic!("zero"),
        _ => unreachable!(),
    }
}
"#;
    let v = check_source("crates/deta-core/src/party.rs", src);
    let idents: Vec<&str> = v
        .iter()
        .filter(|v| v.rule == "no-panic-in-aggregation")
        .map(|v| v.ident.as_str())
        .collect();
    assert!(idents.contains(&"expect"));
    assert!(idents.contains(&"panic"));
    assert!(idents.contains(&"unreachable"));
}

const ASSERTING_KERNEL: &str = r#"
fn validate(inputs: &[Vec<f32>], weights: &[f32]) -> usize {
    assert!(!inputs.is_empty(), "no inputs to aggregate");
    assert_eq!(weights.len(), inputs.len(), "weight count mismatch");
    inputs[0].len()
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert_eq!(super::validate(&[vec![1.0]], &[1.0]), 1);
    }
}
"#;

#[test]
fn asserts_in_the_aggregation_kernels_are_flagged() {
    // no-panic-in-aggregation, positive: every input of agg.rs is a
    // party's, so an assert there is a remote kill switch.
    let v = check_source("crates/deta-core/src/agg.rs", ASSERTING_KERNEL);
    let idents: Vec<&str> = v
        .iter()
        .filter(|v| v.rule == "no-panic-in-aggregation")
        .map(|v| v.ident.as_str())
        .collect();
    assert_eq!(idents, ["assert", "assert_eq"], "test-module asserts stay");
}

#[test]
fn asserts_elsewhere_in_scope_stay_allowed() {
    // no-panic-in-aggregation, negative: the same source in a file that
    // does have internal invariants to assert.
    for path in [
        "crates/deta-core/src/aggregator.rs",
        "crates/deta-core/src/mapper.rs",
        "crates/deta-transport/src/wire.rs",
    ] {
        assert!(rules_hit(path, ASSERTING_KERNEL).is_empty(), "{path}");
    }
}

#[test]
fn test_code_asserts_and_nonpanicking_variants_are_fine() {
    // unwrap inside #[cfg(test)] mod tests is excluded.
    let src = r#"
pub fn live() -> u32 { 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x: Option<u32> = None;
        x.unwrap();
        panic!("fine in tests");
    }
}
"#;
    assert!(rules_hit("crates/deta-core/src/aggregator.rs", src).is_empty());
    // assert! states internal invariants and stays allowed.
    let src2 = "pub fn f(n: usize) { assert!(n > 0, \"need parties\"); }\n";
    assert!(rules_hit("crates/deta-core/src/party.rs", src2).is_empty());
    // unwrap_or_else is the sanctioned poison-recovery idiom.
    let src3 =
        "fn lock(m: &Mutex<u32>) { m.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }\n";
    assert!(rules_hit("crates/deta-transport/src/lib.rs", src3).is_empty());
    // Out-of-scope files may unwrap.
    let src4 = "pub fn f() { x.unwrap(); }\n";
    assert!(rules_hit("crates/deta-core/src/session.rs", src4).is_empty());
}

#[test]
fn runtime_crate_is_in_rule4_scope() {
    // The actor runtime handles frames from every node: its supervisor
    // and actor loops must not be able to panic on hostile input.
    let src = "pub fn handle(&mut self, f: &[u8]) { let m = CtlMsg::decode(f).unwrap(); }\n";
    for path in [
        "crates/deta-runtime/src/actor.rs",
        "crates/deta-runtime/src/supervisor.rs",
        "crates/deta-runtime/src/rtmsg.rs",
        "crates/deta-runtime/src/session.rs",
    ] {
        let v = check_source(path, src);
        assert!(
            v.iter()
                .any(|v| v.rule == "no-panic-in-aggregation" && v.ident == "unwrap"),
            "rule 4 must cover {path}"
        );
    }
    // Tests within the runtime crate stay exempt like everywhere else.
    let src2 = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n";
    assert!(rules_hit("crates/deta-runtime/src/rtmsg.rs", src2).is_empty());
}

#[test]
fn panic_in_failover_handler_is_flagged() {
    // The recovery module runs while the deployment is already degraded:
    // a panic in a failover handler would turn a healable fault into a
    // dead supervisor. Both the deta-core recovery kit and the session's
    // failover path (deta-runtime, covered by the crate-wide prefix) are
    // in rule 4 scope.
    let src = r#"
pub fn failover(&mut self, dead: &str) {
    let role = self.roles.remove(dead).unwrap_or_else(|| panic!("unknown node {dead}"));
    self.respawn(dead, role);
}
"#;
    for path in [
        "crates/deta-core/src/recovery.rs",
        "crates/deta-runtime/src/session.rs",
    ] {
        let v = check_source(path, src);
        assert!(
            v.iter()
                .any(|v| v.rule == "no-panic-in-aggregation" && v.ident == "panic"),
            "rule 4 must flag panic! in a failover handler at {path}"
        );
    }
}

#[test]
fn socket_bridge_is_in_rule4_scope() {
    // The socket crate parses attacker-reachable bytes straight off
    // TCP; a reachable panic there is a remote kill switch for the
    // whole deployment.
    let src =
        "pub fn ingest(&mut self, raw: &[u8]) { let f = SocketFrame::decode(raw).unwrap(); }\n";
    for path in [
        "crates/deta-socket/src/frame.rs",
        "crates/deta-socket/src/wire.rs",
        "crates/deta-socket/src/hub.rs",
    ] {
        let v = check_source(path, src);
        assert!(
            v.iter()
                .any(|v| v.rule == "no-panic-in-aggregation" && v.ident == "unwrap"),
            "rule 4 must cover {path}"
        );
    }
    // The sanctioned idioms stay allowed in the bridge too.
    let src2 =
        "fn lock(m: &Mutex<u32>) { m.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }\n";
    assert!(rules_hit("crates/deta-socket/src/hub.rs", src2).is_empty());
    let src3 = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n";
    assert!(rules_hit("crates/deta-socket/src/wire.rs", src3).is_empty());
}

#[test]
fn resume_path_panics_are_flagged() {
    // The resume exchange parses peer-controlled window claims right
    // after reconnection — before the link has proven anything beyond
    // its key. A panic here lets a flaky (or hostile) peer kill the hub
    // by crashing mid-resume and replaying garbage.
    let src = r#"
fn apply_resume(&mut self, raw: &[u8]) {
    let ack = SocketFrame::decode(raw).expect("resume ack");
    let next = self.windows.get(&ack.src).unwrap();
}
"#;
    for path in [
        "crates/deta-socket/src/node.rs",
        "crates/deta-socket/src/link.rs",
    ] {
        let v = check_source(path, src);
        assert!(
            v.iter()
                .any(|v| v.rule == "no-panic-in-aggregation" && v.ident == "expect"),
            "rule 4 must cover the resume path in {path}"
        );
        assert!(
            v.iter()
                .any(|v| v.rule == "no-panic-in-aggregation" && v.ident == "unwrap"),
            "rule 4 must flag the window lookup in {path}"
        );
    }
}

#[test]
fn resume_path_structured_errors_are_clean() {
    // The sanctioned shape: a malformed resume claim surfaces as a
    // structured error naming the link, never a crash.
    let src = r#"
fn apply_resume(&mut self, raw: &[u8]) -> Result<(), SocketError> {
    let ack = SocketFrame::decode(raw).map_err(|_| SocketError::Protocol("resume ack"))?;
    let next = self
        .windows
        .get(&ack.src)
        .ok_or(SocketError::Protocol("unknown link"))?;
    Ok(())
}
"#;
    assert!(rules_hit("crates/deta-socket/src/node.rs", src).is_empty());
    assert!(rules_hit("crates/deta-socket/src/link.rs", src).is_empty());
}

// -------------------------------------------------------------------
// Rule 5: no-truncating-cast
// -------------------------------------------------------------------

#[test]
fn narrowing_cast_in_wire_is_flagged() {
    let src = "fn put_len(out: &mut Vec<u8>, len: usize) { let n = len as u32; }\n";
    let v = check_source("crates/deta-core/src/wire.rs", src);
    assert!(v
        .iter()
        .any(|v| v.rule == "no-truncating-cast" && v.ident == "u32"));
}

#[test]
fn widening_casts_try_from_and_other_files_are_fine() {
    let src = "fn get(n: u32) -> usize { n as usize }\nfn put(n: u32) -> u64 { n as u64 }\n";
    assert!(rules_hit("crates/deta-core/src/wire.rs", src).is_empty());
    let src2 = "fn put_len(len: usize) -> Result<u32, E> { u32::try_from(len).map_err(E::from) }\n";
    assert!(rules_hit("crates/deta-core/src/wire.rs", src2).is_empty());
    // Numeric work elsewhere may narrow deliberately.
    let src3 = "fn quantize(x: f32) -> u8 { (x * 255.0) as u8 }\n";
    assert!(rules_hit("crates/deta-tensor/src/lib.rs", src3).is_empty());
}

// -------------------------------------------------------------------
// Cross-cutting: literals and comments can never trigger rules.
// -------------------------------------------------------------------

#[test]
fn rule_tokens_inside_literals_and_comments_are_inert() {
    let src = r##"
// A comment mentioning x.unwrap() and panic!().
/* block comment: measurement == forged */
pub fn doc() -> &'static str {
    "call .unwrap() or compare tag == expected"
}
pub fn raw() -> &'static str {
    r#"HashMap iteration, len as u32, expect("boom")"#
}
"##;
    assert!(rules_hit("crates/deta-core/src/wire.rs", src).is_empty());
    assert!(rules_hit("crates/deta-core/src/aggregator.rs", src).is_empty());
    assert!(rules_hit("crates/deta-crypto/src/aead.rs", src).is_empty());
}

//! Fixtures for the two flow rules (8–9): at least two positive and two
//! negative cases each.

use deta_lint::parse::FileAnalysis;
use deta_lint::rules::{channel_liveness, exhaustive_handling, lock_order};

const CORE: &str = "crates/deta-core/src/party.rs";
const RUNTIME: &str = "crates/deta-runtime/src/actor.rs";

// -------------------------------------------------------------------
// Rule 8: channel-liveness
// -------------------------------------------------------------------

#[test]
fn liveness_positive_unbounded_condvar_wait() {
    let src = r#"
fn serve(cv: &Condvar, m: &Mutex<u32>) {
    let mut guard = m.lock().unwrap();
    guard = cv.wait(guard).unwrap();
}
"#;
    let fa = FileAnalysis::new(RUNTIME, src);
    let v = channel_liveness(&fa);
    assert!(
        v.iter()
            .any(|v| v.rule == "channel-liveness" && v.ident == "wait"),
        "{v:?}"
    );
}

#[test]
fn liveness_positive_bare_recv_in_runtime() {
    let src = r#"
fn pump(endpoint: &Endpoint) {
    let msg = endpoint.recv();
    handle(msg);
}
"#;
    let fa = FileAnalysis::new(RUNTIME, src);
    let v = channel_liveness(&fa);
    assert!(
        v.iter()
            .any(|v| v.rule == "channel-liveness" && v.ident == "recv"),
        "{v:?}"
    );
}

#[test]
fn liveness_positive_inconsistent_lock_order() {
    let src = r#"
fn a(&self) {
    let s = lock(&self.state);
    let p = lock(&self.peers);
}
fn b(&self) {
    let p = lock(&self.peers);
    let s = lock(&self.state);
}
"#;
    let fa = FileAnalysis::new("crates/deta-transport/src/lib.rs", src);
    let v = lock_order(&[&fa]);
    assert!(
        v.iter()
            .any(|v| v.rule == "channel-liveness" && v.message.contains("opposite order")),
        "{v:?}"
    );
}

#[test]
fn liveness_negative_timeouts_and_supervised_wait() {
    let src = r#"
fn serve(cv: &Condvar, m: &Mutex<u32>, sup: &Supervisor) {
    let guard = m.lock().unwrap();
    let (g, timed_out) = cv.wait_timeout(guard, TICK).unwrap();
    let msg = endpoint.recv_timeout(TICK);
    sup.wait(a, b, c, d, e);
}
"#;
    let fa = FileAnalysis::new(RUNTIME, src);
    assert!(
        channel_liveness(&fa).is_empty(),
        "{:?}",
        channel_liveness(&fa)
    );
}

#[test]
fn liveness_negative_consistent_lock_order_and_other_crates() {
    let src = r#"
fn a(&self) {
    let s = lock(&self.state);
    let p = lock(&self.peers);
}
fn b(&self) {
    let s = lock(&self.state);
    let p = lock(&self.peers);
}
"#;
    let fa = FileAnalysis::new("crates/deta-transport/src/lib.rs", src);
    assert!(lock_order(&[&fa]).is_empty());
    // The transport's non-blocking `recv` is out of the recv check's
    // scope by design.
    let recv_src = "fn drain(&self) { while let Some(m) = self.recv() { go(m); } }";
    let fa2 = FileAnalysis::new("crates/deta-transport/src/lib.rs", recv_src);
    assert!(channel_liveness(&fa2).is_empty());
}

const BRIDGE: &str = "crates/deta-socket/src/hub.rs";

#[test]
fn liveness_positive_bridge_lock_inversion_and_unbounded_wait() {
    // Two bridge functions take a pair of locks in opposite orders, and
    // a sign-off parks on a bare condvar.
    let src = r#"
fn serve(shared: &HubShared) {
    let seats = lock(&shared.egress);
    let cuts = lock(&shared.chaos);
}
fn sever(shared: &HubShared) {
    let cuts = lock(&shared.chaos);
    let seats = lock(&shared.egress);
}
fn sign_off(shared: &LinkShared) {
    let mut st = lock(&shared.state);
    st = shared.live.wait(st).unwrap();
}
"#;
    let fa = FileAnalysis::new(BRIDGE, src);
    let v = lock_order(&[&fa]);
    assert!(
        v.iter()
            .any(|v| v.rule == "channel-liveness" && v.message.contains("opposite order")),
        "{v:?}"
    );
    let v = channel_liveness(&fa);
    assert!(v.iter().any(|v| v.ident == "wait"), "{v:?}");
}

#[test]
fn liveness_negative_bridge_one_order_and_bounded_waits() {
    let src = r#"
fn serve(shared: &HubShared) {
    let seats = lock(&shared.egress);
    let cuts = lock(&shared.chaos);
}
fn sever(shared: &HubShared) {
    let seats = lock(&shared.egress);
    let cuts = lock(&shared.chaos);
}
fn write_loop(rx: Receiver<Frame>, link: &mut LinkReceiver, stop: &AtomicBool) {
    // Ended by its sender being dropped, and a polled socket read.
    while let Ok(frame) = rx.recv() {
        let next = link.recv(None, Some(stop));
    }
}
"#;
    let fa = FileAnalysis::new(BRIDGE, src);
    assert!(lock_order(&[&fa]).is_empty(), "{:?}", lock_order(&[&fa]));
    assert!(
        channel_liveness(&fa).is_empty(),
        "{:?}",
        channel_liveness(&fa)
    );
}

// -------------------------------------------------------------------
// Rule 9: exhaustive-handling
// -------------------------------------------------------------------

#[test]
fn exhaustive_positive_silent_wire_wildcard() {
    let src = r#"
fn handle(&mut self, msg: Msg) {
    match msg {
        Msg::Hello { handshake } => self.hello(handshake),
        Msg::Record { sealed } => self.record(sealed),
        _ => {}
    }
}
"#;
    let fa = FileAnalysis::new(CORE, src);
    let v = exhaustive_handling(&fa);
    assert!(
        v.iter()
            .any(|v| v.rule == "exhaustive-handling" && v.ident == "Msg"),
        "{v:?}"
    );
}

#[test]
fn exhaustive_positive_unit_body_ctl_wildcard() {
    let src = r#"
fn on_ctl(msg: Result<CtlMsg, E>) {
    match msg {
        Ok(CtlMsg::Shutdown) => stop(),
        _ => (),
    }
}
"#;
    let fa = FileAnalysis::new(RUNTIME, src);
    let v = exhaustive_handling(&fa);
    assert!(
        v.iter()
            .any(|v| v.rule == "exhaustive-handling" && v.ident == "CtlMsg"),
        "{v:?}"
    );
}

#[test]
fn exhaustive_negative_counted_drop_and_enumeration() {
    let src = r#"
fn handle(&mut self, msg: Msg) {
    match msg {
        Msg::Hello { handshake } => self.hello(handshake),
        other => {
            deta_telemetry::metrics::counter_add("ignored", other.name(), 1);
        }
    }
}
fn on_ctl(msg: Result<CtlMsg, E>) {
    match msg {
        Ok(CtlMsg::Shutdown) => stop(),
        Ok(CtlMsg::Ready | CtlMsg::Heartbeat { .. }) => count(),
        Err(_) => {}
    }
}
"#;
    let fa = FileAnalysis::new(CORE, src);
    assert!(
        exhaustive_handling(&fa).is_empty(),
        "{:?}",
        exhaustive_handling(&fa)
    );
}

#[test]
fn exhaustive_negative_non_protocol_enum_wildcard() {
    let src = r#"
fn verdict(v: Verdict) {
    match v {
        Verdict::Pass => ok(),
        _ => {}
    }
}
"#;
    let fa = FileAnalysis::new("crates/deta-simnet/src/fleet.rs", src);
    assert!(exhaustive_handling(&fa).is_empty());
}

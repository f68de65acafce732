//! `deta-cli attack [N]` refuses an image count it cannot run: zero
//! images have no median to print, and a count that does not parse is a
//! typo, not a request for the default.

use std::process::Command;

#[test]
fn attack_refuses_a_count_it_cannot_run() {
    for count in ["0", "many", "--images"] {
        let out = Command::new(env!("CARGO_BIN_EXE_deta-cli"))
            .args(["attack", count])
            .output()
            .expect("spawn deta-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "attack {count}: {stderr}");
        assert!(
            stderr.contains(&format!("{count:?}")),
            "the refusal names {count:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "attack {count} ran: {out:?}");
    }
}

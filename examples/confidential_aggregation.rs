//! The trust lifecycle of a DeTA aggregator, step by step: platform
//! attestation, token provisioning, what the host can and cannot see,
//! and what a worst-case CC breach actually yields.
//!
//! ```text
//! cargo run --release --example confidential_aggregation
//! ```

use deta::core::proxy::{AttestationProxy, TOKEN_SECRET_LABEL};
use deta::crypto::{DetRng, SigningKey};
use deta::sev_sim::{AmdRas, GuestImage, Platform};

fn main() {
    let rng = DetRng::from_u64(2024);
    println!("1. Vendor root of trust (simulated AMD RAS) comes online.");
    let ras = AmdRas::new(&mut rng.fork(b"ras"));

    println!("2. The parties agree on a reference aggregator image and stand up the AP.");
    let image = GuestImage::new(b"ovmf-2024.02".to_vec(), b"deta-aggregator-v1".to_vec());
    let mut proxy = AttestationProxy::new(ras.root_certs(), image.clone(), rng.fork(b"ap"));

    println!("3. A genuine EPYC platform launches the aggregator CVM...");
    let mut genuine = Platform::genuine(&ras, "EPYC-7642-A0", &mut rng.fork(b"p1"));
    let prov = proxy
        .verify_and_provision(&mut genuine, &image)
        .expect("genuine platform must attest");
    println!("   -> attested; auth token injected into encrypted memory.");

    println!("4. A tampered image (collusion code) tries to launch...");
    let evil_image = GuestImage::new(b"ovmf-2024.02".to_vec(), b"deta-aggregator-evil".to_vec());
    match proxy.verify_and_provision(&mut genuine, &evil_image) {
        Err(e) => println!("   -> rejected: {e}"),
        Ok(_) => unreachable!("tampered image must fail attestation"),
    }

    println!("5. A counterfeit platform (no vendor endorsement) tries...");
    let mut fake = Platform::counterfeit("EPYC-???", &mut rng.fork(b"p2"));
    match proxy.verify_and_provision(&mut fake, &image) {
        Err(e) => println!("   -> rejected: {e}"),
        Ok(_) => unreachable!("counterfeit platform must fail attestation"),
    }

    println!("6. The CVM runs; a party's fragment lands in guest memory.");
    let cvm = prov.cvm;
    cvm.guest()
        .write(b"[fragment of a shuffled model update: 0.12 -0.07 0.31 ...]".to_vec());

    println!("7. The hypervisor (host administrator) dumps VM memory:");
    let host_view = cvm.host_memory_image();
    let printable = host_view
        .iter()
        .take(24)
        .map(|b| format!("{b:02x}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("   -> ciphertext under the VEK: {printable} ...");
    assert!(!host_view.windows(8).any(|w| w == b"fragment"));

    println!("8. Worst case: a CC vulnerability is exploited (breach injection).");
    let dump = cvm.breach();
    println!(
        "   -> attacker now holds {} bytes of plaintext and {} secret(s), including the auth token.",
        dump.memory.len(),
        dump.secrets.len()
    );
    let token_bytes = dump
        .secrets
        .iter()
        .find(|(l, _)| l == TOKEN_SECRET_LABEL)
        .map(|(_, v)| v.clone())
        .expect("token leaked in breach");
    let leaked_token = SigningKey::from_bytes(&token_bytes).unwrap();
    assert!(prov
        .token_key
        .verify(b"probe", &leaked_token.sign(b"probe")));
    println!("   -> but all it contains is a FRAGMENTED, SHUFFLED update:");
    println!("      {}", String::from_utf8_lossy(&dump.memory));
    println!();
    println!("That is DeTA's defense-in-depth: even with CC fully broken, no");
    println!("aggregator ever held a complete, in-order model update.");
}

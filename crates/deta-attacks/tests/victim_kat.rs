//! Known answers for the attack victims: SHA-256 digests of the `f32`
//! bits of the gradient each victim shares and of short DLG and IG
//! reconstructions from it.
//!
//! The victims are Table 1's Tanh MLP (`[192, 24, 100]`, weights
//! `N(0, 0.3²)` from seed 1) and Table 3's strided Tanh conv classifier
//! (3×16×16 input, 4 channels, 10 classes, weights from seed 3). The
//! images are uniform draws in `[0, 1)`, one seed per image. Any change to
//! how a victim is put on the tape, to a tape op or to an optimizer that
//! moves a single bit of these outputs fails here.

use deta_attacks::dlg::{run_dlg, DlgConfig};
use deta_attacks::harness::{breach_view, random_victim, victim_gradient, AttackView};
use deta_attacks::ig::{run_ig, IgConfig};
use deta_crypto::sha256::sha256;
use deta_crypto::DetRng;
use deta_nn::models::mlp;
use deta_nn::{Conv2d, Flatten, Linear, Sequential, Tanh};

/// Hex SHA-256 of the values' bits, little-endian.
fn digest(values: &[f32]) -> String {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    sha256(&bytes).iter().map(|b| format!("{b:02x}")).collect()
}

/// Table 1's victim.
fn mlp_victim() -> Sequential {
    random_victim(|r| mlp(&[192, 24, 100], r), &mut DetRng::from_u64(1))
}

/// Table 3's victim.
fn conv_victim() -> Sequential {
    let build = |r: &mut DetRng| {
        Sequential::new()
            .push(Conv2d::new(3, 4, 16, 16, 3, 2, 1, r))
            .push(Tanh::new())
            .push(Flatten::new())
            .push(Linear::new(4 * 8 * 8, 10, r))
    };
    random_victim(build, &mut DetRng::from_u64(3))
}

/// Image `img` of a victim with `dim` inputs.
fn image(dim: usize, img: u64) -> Vec<f32> {
    let mut rng = DetRng::from_u64(100 + img);
    (0..dim).map(|_| rng.next_f32()).collect()
}

fn dlg(iterations: usize) -> DlgConfig {
    DlgConfig {
        iterations,
        seed: 0,
        restarts: 1,
    }
}

fn ig(image_shape: (usize, usize, usize), label: usize) -> IgConfig {
    IgConfig {
        iterations: 5,
        lr: 0.05,
        tv_weight: 1e-4,
        restarts: 1,
        seed: 0,
        image_shape,
        label,
    }
}

#[test]
fn mlp_victim_gradients() {
    let model = mlp_victim();
    let want = [
        "cdd6a1eb936162f0472f7e2c5b06568f294239148477b0807e9fee7f94f4dea2",
        "13566b7483704e2afe3beffb48987ac5b9237933bf9034c2630c620e837c6341",
    ];
    for (img, want) in want.iter().enumerate() {
        let label = (img * 7) % 100;
        let x = image(192, img as u64);
        let g = victim_gradient(&model, &x, &[label]).unwrap();
        assert_eq!(digest(&g), *want, "image {img}");
    }
}

#[test]
fn conv_victim_gradient() {
    let model = conv_victim();
    let g = victim_gradient(&model, &image(768, 0), &[0]).unwrap();
    assert_eq!(
        digest(&g),
        "5d1979925faecfcec3fdff1e6bb52ae9c2b33bd10fde2ea08c2c6284bfa0a1b9"
    );
}

#[test]
fn mlp_victim_reconstructions() {
    let model = mlp_victim();
    let g = victim_gradient(&model, &image(192, 0), &[0]).unwrap();
    let view = breach_view(&g, AttackView::Full, 42, &[0; 16]);
    let dlg = run_dlg(&model, &view, &dlg(5)).unwrap();
    assert_eq!(
        digest(&dlg.reconstruction),
        "ee12ed379abb1065d36c824d5f11b78402b2e02eb818ed1982f8da5648e80a92"
    );
    let ig = run_ig(&model, &view, &ig((3, 8, 8), 0)).unwrap();
    assert_eq!(
        digest(&ig.reconstruction),
        "b7d7a44101c9b0d7200124e59f5ae89714fa46cf51e2a56254521d0f30fe3707"
    );
}

#[test]
fn conv_victim_reconstructions() {
    let model = conv_victim();
    let g = victim_gradient(&model, &image(768, 0), &[0]).unwrap();
    let view = breach_view(&g, AttackView::Full, 44, &[0; 16]);
    let dlg = run_dlg(&model, &view, &dlg(5)).unwrap();
    assert_eq!(
        digest(&dlg.reconstruction),
        "3b8f52ae1e6c96189088db8d78bc5d0072f1e622a006dabe5171fd5be141e76c"
    );
    let ig = run_ig(&model, &view, &ig((3, 16, 16), 0)).unwrap();
    assert_eq!(
        digest(&ig.reconstruction),
        "c7bf83bd7826573385e303191cd9d5ac47c222feaf72b99ee9d25fdbf596a0db"
    );
}

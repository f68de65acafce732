//! Full-stack attack-vs-defense: a real FL session runs, an aggregator is
//! breached, and the DLG attack is launched on exactly what the breach
//! yielded. With DeTA's transform off the attack reconstructs the
//! training input; with it on, it does not.

use deta::attacks::dlg::{run_dlg, DlgConfig};
use deta::attacks::graphnet::{GraphModel, MlpSpec};
use deta::attacks::harness::{AttackView, BreachedView};
use deta::attacks::metrics::mse;
use deta::core::aggregator::parse_breached_memory;
use deta::core::{DetaConfig, DetaSession, SyncMode, TransformConfig};
use deta::datasets::DatasetSpec;
use deta::nn::models::mlp;
use deta::nn::train::LabeledData;
use deta::tensor::Tensor;

/// Runs one FedSGD round with a single-example party and breaches
/// aggregator 0, returning (victim image, model params at round start,
/// breached fragment, full gradient length).
fn breach_one_round(
    transform: TransformConfig,
    n_aggs: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>, usize) {
    let spec = DatasetSpec::cifar100_like().at_resolution(8);
    // Party 0 holds exactly one example: the paper's single-sample
    // reconstruction setting.
    let victim = spec.generate_class(7, 1, 3);
    let victim_img = victim.features.data().to_vec();
    let other = spec.generate_class(2, 1, 4);
    let dim = spec.dim();
    let classes = 10usize; // Reduced label space keeps the test fast.
    let victim = LabeledData::new(Tensor::from_vec(victim_img.clone(), &[1, dim]), vec![7]);
    let other = LabeledData::new(
        Tensor::from_vec(other.features.data().to_vec(), &[1, dim]),
        vec![2],
    );
    let mut cfg = DetaConfig::deta(2, 1);
    cfg.n_aggregators = n_aggs;
    cfg.transform = transform;
    cfg.mode = SyncMode::FedSgd;
    cfg.batch_size = 1;
    cfg.seed = 8;
    let mut session = DetaSession::setup(
        cfg,
        &move |rng| mlp(&[dim, 16, classes], rng),
        vec![victim, other],
    )
    .unwrap();
    let params = session.party_params(0);
    let test = DatasetSpec::cifar100_like()
        .at_resolution(8)
        .generate(10, 5);
    // Labels in `test` may exceed `classes`; clamp for evaluation only.
    let test = LabeledData::new(
        test.features.clone(),
        test.labels.iter().map(|&l| l % classes).collect(),
    );
    session.step(&test);
    let dump = session.breach_aggregator(0);
    let records = parse_breached_memory(&dump.memory);
    let fragment = records
        .iter()
        .find(|(p, _, _)| p == "party-0")
        .expect("party-0 fragment in breach")
        .2
        .clone();
    let n_params = params.len();
    (victim_img, params, fragment, n_params)
}

fn attack(params: &[f32], fragment: Vec<f32>, full_len: usize, dim: usize) -> Vec<f32> {
    let spec = MlpSpec::new(&[dim, 16, 10]);
    assert_eq!(spec.param_count(), full_len);
    let view = BreachedView {
        visible: fragment,
        full_len,
        view: AttackView::Full, // Label only; the data came from the breach.
        known_positions: None,
    };
    run_dlg(
        &spec,
        params,
        &view,
        &DlgConfig {
            iterations: 500,
            seed: 2,
            restarts: 1,
        },
    )
    .reconstruction
}

#[test]
fn breached_central_aggregator_leaks_training_image() {
    let (victim, params, fragment, n_params) = breach_one_round(TransformConfig::none(), 1);
    assert_eq!(fragment.len(), n_params, "central breach sees everything");
    let recon = attack(&params, fragment, n_params, victim.len());
    let err = mse(&recon, &victim);
    assert!(
        err < 0.02,
        "attack on the unprotected baseline should reconstruct, mse={err}"
    );
}

#[test]
fn breached_deta_aggregator_defeats_reconstruction() {
    let (victim, params, fragment, n_params) = breach_one_round(TransformConfig::full(), 3);
    assert!(fragment.len() < n_params / 2, "breach sees only a fragment");
    let recon = attack(&params, fragment, n_params, victim.len());
    let err = mse(&recon, &victim);
    assert!(err > 0.03, "attack on DeTA must not reconstruct, mse={err}");
}

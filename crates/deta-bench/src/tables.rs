//! The victims and per-image rows of the attack tables that the test
//! `tests/attack_tables.rs` recomputes against the committed CSVs: Table 1
//! (DLG) and Table 3 (IG). `table1_dlg` and `table3_ig` print and write
//! exactly these rows.

use deta_attacks::dlg::{run_dlg, DlgConfig};
use deta_attacks::graphnet::{ConvSpec, GraphModel, MlpSpec};
use deta_attacks::harness::{breach_view, victim_gradient, AttackView};
use deta_attacks::ig::{run_ig, IgConfig};
use deta_attacks::metrics::mse;
use deta_crypto::DetRng;
use deta_datasets::DatasetSpec;

/// The six columns of Tables 1-3: no DeTA, partitioning at 0.6 and 0.2,
/// then partitioning at 1.0, 0.6 and 0.2 with the keyed shuffle.
pub const VIEWS: [AttackView; 6] = [
    AttackView::Full,
    AttackView::Partition { factor: 0.6 },
    AttackView::Partition { factor: 0.2 },
    AttackView::PartitionShuffle { factor: 1.0 },
    AttackView::PartitionShuffle { factor: 0.6 },
    AttackView::PartitionShuffle { factor: 0.2 },
];

/// A victim's weights: `N(0, 0.3²)` draws from `seed`, the randomly
/// initialized model of the DLG evaluation.
pub fn random_params(model: &dyn GraphModel, seed: u64) -> Vec<f32> {
    let mut params = vec![0.0f32; model.param_count()];
    DetRng::from_u64(seed).fill_gaussian(&mut params);
    params.iter_mut().for_each(|v| *v *= 0.3);
    params
}

/// Table 1: DLG against a Tanh MLP on 8x8 CIFAR-100-like images.
pub struct Table1 {
    data: DatasetSpec,
    model: MlpSpec,
    params: Vec<f32>,
}

impl Table1 {
    /// L-BFGS iterations per image (the paper's 300).
    pub const ITERATIONS: usize = 300;

    /// The table's victim.
    pub fn new() -> Table1 {
        let data = DatasetSpec::cifar100_like().at_resolution(8);
        let model = MlpSpec::new(&[data.dim(), 24, data.classes]);
        let params = random_params(&model, 1);
        Table1 {
            data,
            model,
            params,
        }
    }

    /// Reconstruction MSE of image `img` under `view`.
    pub fn mse(&self, view: AttackView, img: usize, iterations: usize) -> f64 {
        let label = (img * 7) % self.data.classes;
        let sample = self.data.generate_class(label, 1, img as u64 + 100);
        let image = sample.features.data();
        let gradient = victim_gradient(&self.model, &self.params, image, &[label]);
        // The attacker's view after DeTA's transformations.
        let bv = breach_view(&gradient, view, 42, &[(img % 251) as u8; 16]);
        let cfg = DlgConfig {
            iterations,
            seed: img as u64,
            restarts: 1,
        };
        mse(
            &run_dlg(&self.model, &self.params, &bv, &cfg).reconstruction,
            image,
        )
    }
}

impl Default for Table1 {
    fn default() -> Self {
        Table1::new()
    }
}

/// Table 3: Inverting Gradients against a strided Tanh conv classifier on
/// 16x16 ImageNet-like images, with a 10-class label space (the paper
/// infers the label with iDLG).
pub struct Table3 {
    data: DatasetSpec,
    model: ConvSpec,
    params: Vec<f32>,
}

impl Table3 {
    /// Signed-Adam iterations per restart.
    pub const ITERATIONS: usize = 600;
    /// Restarts per image (the paper's 2).
    pub const RESTARTS: usize = 2;
    /// Image height and width.
    pub const HW: usize = 16;

    /// The table's victim.
    pub fn new() -> Table3 {
        let data = DatasetSpec::imagenet_like().at_resolution(Self::HW);
        let model = ConvSpec {
            in_c: 3,
            hw: Self::HW,
            out_c: 4,
            k: 3,
            classes: 10,
        };
        let params = random_params(&model, 3);
        Table3 {
            data,
            model,
            params,
        }
    }

    /// Final cosine distance of image `img` under `view`.
    pub fn cosine(&self, view: AttackView, img: usize, iterations: usize, restarts: usize) -> f64 {
        let label = (img * 3) % self.model.classes;
        let sample = self.data.generate_class(label, 1, img as u64 + 900);
        let image = sample.features.data();
        let gradient = victim_gradient(&self.model, &self.params, image, &[label]);
        let bv = breach_view(&gradient, view, 44, &[(img % 251) as u8; 16]);
        let cfg = IgConfig {
            iterations,
            lr: 0.05,
            tv_weight: 1e-4,
            restarts,
            seed: img as u64,
            image_shape: (3, Self::HW, Self::HW),
            label,
        };
        run_ig(&self.model, &self.params, &bv, &cfg).final_cosine
    }
}

impl Default for Table3 {
    fn default() -> Self {
        Table3::new()
    }
}

//! The victims and per-image rows of the attack tables that the test
//! `tests/attack_tables.rs` recomputes against the committed CSVs: Table 1
//! (DLG) and Table 3 (IG). `table1_dlg` and `table3_ig` print and write
//! exactly these rows.

use deta_attacks::dlg::{run_dlg, DlgConfig};
use deta_attacks::harness::{breach_view, random_victim, victim_gradient, AttackView};
use deta_attacks::ig::{run_ig, IgConfig};
use deta_attacks::lower::widths;
use deta_attacks::metrics::mse;
use deta_crypto::DetRng;
use deta_datasets::DatasetSpec;
use deta_nn::models::mlp;
use deta_nn::{Conv2d, Flatten, Linear, Sequential, Tanh};

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

/// The MLP victim of Tables 1 and 2 and of the DLG extensions: a Tanh
/// MLP from `dim` inputs through 24 hidden units to `classes`, its
/// weights drawn from `rng` ([`random_victim`]).
pub fn mlp_victim(dim: usize, classes: usize, rng: &mut DetRng) -> Sequential {
    random_victim(|r| mlp(&[dim, 24, classes], r), rng)
}

/// The conv victim of Table 3 and Figure 4: one strided Tanh convolution
/// (3 to 4 channels, 3x3 kernel, stride 2, padding 1) over a 16x16x3
/// image and a linear head to 10 classes, its weights drawn from `rng`.
pub fn conv_victim(rng: &mut DetRng) -> Sequential {
    let hw = Table3::HW;
    let build = |r: &mut DetRng| {
        Sequential::new()
            .push(Conv2d::new(3, 4, hw, hw, 3, 2, 1, r))
            .push(Tanh::new())
            .push(Flatten::new())
            .push(Linear::new(4 * (hw / 2) * (hw / 2), 10, r))
    };
    random_victim(build, rng)
}

/// Table 1: DLG against a Tanh MLP on 8x8 CIFAR-100-like images.
pub struct Table1 {
    data: DatasetSpec,
    model: Sequential,
}

impl Table1 {
    /// L-BFGS iterations per image (the paper's 300).
    pub const ITERATIONS: usize = 300;

    /// The table's victim.
    pub fn new() -> Table1 {
        let data = DatasetSpec::cifar100_like().at_resolution(8);
        let model = mlp_victim(data.dim(), data.classes, &mut DetRng::from_u64(1));
        Table1 { data, model }
    }

    /// Reconstruction MSE of image `img` under `view`.
    pub fn mse(&self, view: AttackView, img: usize, iterations: usize) -> f64 {
        let label = (img * 7) % self.data.classes;
        let sample = self.data.generate_class(label, 1, img as u64 + 100);
        let image = sample.features.data();
        let gradient = victim_gradient(&self.model, image, &[label]).unwrap();
        // The attacker's view after DeTA's transformations.
        let bv = breach_view(&gradient, view, 42, &[(img % 251) as u8; 16]);
        let cfg = DlgConfig {
            iterations,
            seed: img as u64,
            restarts: 1,
        };
        let dlg = run_dlg(&self.model, &bv, &cfg).unwrap();
        mse(&dlg.reconstruction, image)
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
    model: Sequential,
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
        let model = conv_victim(&mut DetRng::from_u64(3));
        Table3 { data, model }
    }

    /// Final cosine distance of image `img` under `view`.
    pub fn cosine(&self, view: AttackView, img: usize, iterations: usize, restarts: usize) -> f64 {
        let label = (img * 3) % widths(&self.model).1;
        let sample = self.data.generate_class(label, 1, img as u64 + 900);
        let image = sample.features.data();
        let gradient = victim_gradient(&self.model, image, &[label]).unwrap();
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
        run_ig(&self.model, &bv, &cfg).unwrap().final_cosine
    }
}

impl Default for Table3 {
    fn default() -> Self {
        Table3::new()
    }
}

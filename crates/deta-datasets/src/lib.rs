//! Deterministic synthetic datasets for the DeTA reproduction.
//!
//! The paper trains on MNIST, CIFAR-10, CIFAR-100, RVL-CDIP, and ImageNet.
//! Those corpora are not redistributable inside this repository, so this
//! crate synthesizes datasets with the same *shape*: image dimensions,
//! channel counts, and class counts match, and each class has a smooth
//! deterministic template pattern so that (a) models genuinely learn and
//! converge, and (b) gradient-inversion attacks produce recognizably
//! class-shaped reconstructions whose fidelity can be scored with MSE, just
//! like the paper's Tables 1-3.
//!
//! Everything is a pure function of the seed: the same
//! [`DatasetSpec`] + seed always yields bit-identical data.

pub mod splits;

pub use splits::{iid_partition, noniid_skew_partition, train_test_split};

use deta_crypto::DetRng;
use deta_nn::train::LabeledData;
use deta_tensor::Tensor;

/// The shape of a synthetic dataset.
///
/// # Examples
///
/// ```
/// use deta_datasets::{iid_partition, DatasetSpec};
///
/// let spec = DatasetSpec::mnist_like().at_resolution(8);
/// let train = spec.generate(100, 1);
/// let shards = iid_partition(&train, 4, 2);
/// assert_eq!(shards.len(), 4);
/// assert_eq!(shards[0].len(), 25);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Human-readable name (used in reports).
    pub name: &'static str,
    /// Color channels.
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Number of classes.
    pub classes: usize,
    /// Seed namespace for the class templates (the dataset "identity").
    ///
    /// Two specs with the same `template_seed` share class patterns, so a
    /// train set and a test set drawn with different *sample* seeds remain
    /// the same classification problem.
    pub template_seed: u64,
}

impl DatasetSpec {
    /// Flat feature dimension (`C * H * W`).
    pub fn dim(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// MNIST-shaped: 1x28x28, 10 classes.
    pub fn mnist_like() -> DatasetSpec {
        DatasetSpec {
            name: "mnist-like",
            channels: 1,
            height: 28,
            width: 28,
            classes: 10,
            template_seed: 0,
        }
    }

    /// CIFAR-10-shaped: 3x32x32, 10 classes.
    pub fn cifar10_like() -> DatasetSpec {
        DatasetSpec {
            name: "cifar10-like",
            channels: 3,
            height: 32,
            width: 32,
            classes: 10,
            template_seed: 0,
        }
    }

    /// CIFAR-100-shaped: 3x32x32, 100 classes.
    pub fn cifar100_like() -> DatasetSpec {
        DatasetSpec {
            name: "cifar100-like",
            channels: 3,
            height: 32,
            width: 32,
            classes: 100,
            template_seed: 0,
        }
    }

    /// RVL-CDIP-shaped: grayscale documents, 16 classes.
    ///
    /// Real RVL-CDIP images are 1000px scans; this uses 32x32 thumbnails.
    pub fn rvlcdip_like() -> DatasetSpec {
        DatasetSpec {
            name: "rvlcdip-like",
            channels: 1,
            height: 32,
            width: 32,
            classes: 16,
            template_seed: 0,
        }
    }

    /// ImageNet-shaped color images (downscaled), 100 classes.
    pub fn imagenet_like() -> DatasetSpec {
        DatasetSpec {
            name: "imagenet-like",
            channels: 3,
            height: 32,
            width: 32,
            classes: 100,
            template_seed: 0,
        }
    }

    /// Returns a copy with a different square resolution.
    ///
    /// Benchmarks use this to trade fidelity for runtime; the class
    /// structure is unchanged.
    pub fn at_resolution(mut self, hw: usize) -> DatasetSpec {
        self.height = hw;
        self.width = hw;
        self
    }

    /// Returns the deterministic template image for a class, flattened to
    /// `[C * H * W]` with values in `[0, 1]`.
    ///
    /// Templates are smooth superpositions of class-seeded sinusoids — far
    /// apart in pixel space, so classes are learnable and reconstructions
    /// are visually attributable to a class.
    ///
    /// # Panics
    ///
    /// Panics if `class >= self.classes`.
    pub fn class_template(&self, class: usize) -> Vec<f32> {
        assert!(class < self.classes, "class out of range");
        let mut rng = DetRng::from_u64(self.template_seed)
            .fork(b"dataset-template")
            .fork_indexed(self.name.as_bytes(), class as u64);
        let mut img = vec![0.0f32; self.dim()];
        // Per channel: 3 random 2-D sinusoids plus a random offset blob.
        for c in 0..self.channels {
            let base = c * self.height * self.width;
            let mut waves = Vec::new();
            for _ in 0..3 {
                let fx = rng.next_f64() * 3.0 + 0.5;
                let fy = rng.next_f64() * 3.0 + 0.5;
                let phase = rng.next_f64() * std::f64::consts::TAU;
                let amp = rng.next_f64() * 0.5 + 0.25;
                waves.push((fx, fy, phase, amp));
            }
            let (cx, cy) = (rng.next_f64(), rng.next_f64());
            let blob_w = rng.next_f64() * 0.2 + 0.1;
            for y in 0..self.height {
                for x in 0..self.width {
                    let u = x as f64 / self.width as f64;
                    let v = y as f64 / self.height as f64;
                    let mut val = 0.0f64;
                    for &(fx, fy, phase, amp) in &waves {
                        val += amp * (std::f64::consts::TAU * (fx * u + fy * v) + phase).sin();
                    }
                    let d2 = (u - cx) * (u - cx) + (v - cy) * (v - cy);
                    val += (-d2 / blob_w).exp();
                    // Map roughly [-1.75, 2.75] to [0, 1].
                    img[base + y * self.width + x] = (((val + 1.75) / 4.5).clamp(0.0, 1.0)) as f32;
                }
            }
        }
        img
    }

    /// Generates `n` labeled examples.
    ///
    /// Labels cycle through classes in a seeded random order; each sample
    /// is its class template plus Gaussian pixel noise and a small random
    /// brightness shift, clamped to `[0, 1]`.
    pub fn generate(&self, n: usize, seed: u64) -> LabeledData {
        let templates: Vec<Vec<f32>> = (0..self.classes).map(|c| self.class_template(c)).collect();
        let mut rng = DetRng::from_u64(seed).fork(b"dataset-samples");
        let dim = self.dim();
        let mut feats = vec![0.0f32; n * dim];
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = rng.gen_range(self.classes as u64) as usize;
            let brightness = (rng.next_f32() - 0.5) * 0.2;
            let example = &mut feats[i * dim..(i + 1) * dim];
            rng.fill_gaussian(example);
            for (v, &t) in example.iter_mut().zip(&templates[class]) {
                let noise = *v * 0.1;
                *v = (t + noise + brightness).clamp(0.0, 1.0);
            }
            labels.push(class);
        }
        LabeledData::new(Tensor::from_vec(feats, &[n, dim]), labels)
    }

    /// Generates `n` examples all of one class (used by attack harnesses
    /// that need known ground-truth images).
    ///
    /// # Panics
    ///
    /// Panics if `class >= self.classes`.
    pub fn generate_class(&self, class: usize, n: usize, seed: u64) -> LabeledData {
        assert!(class < self.classes);
        let template = self.class_template(class);
        let mut rng = DetRng::from_u64(seed).fork_indexed(b"dataset-class", class as u64);
        let dim = self.dim();
        let mut feats = vec![0.0f32; n * dim];
        rng.fill_gaussian(&mut feats);
        for (v, &t) in feats.iter_mut().zip(template.iter().cycle()) {
            let noise = *v * 0.05;
            *v = (t + noise).clamp(0.0, 1.0);
        }
        LabeledData::new(Tensor::from_vec(feats, &[n, dim]), vec![class; n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_have_paper_shapes() {
        let m = DatasetSpec::mnist_like();
        assert_eq!((m.channels, m.height, m.width, m.classes), (1, 28, 28, 10));
        let c = DatasetSpec::cifar10_like();
        assert_eq!((c.channels, c.classes), (3, 10));
        assert_eq!(DatasetSpec::cifar100_like().classes, 100);
        assert_eq!(DatasetSpec::rvlcdip_like().classes, 16);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetSpec::mnist_like().at_resolution(8);
        let a = spec.generate(20, 7);
        let b = spec.generate(20, 7);
        assert_eq!(a.features.data(), b.features.data());
        assert_eq!(a.labels, b.labels);
        let c = spec.generate(20, 8);
        assert_ne!(a.features.data(), c.features.data());
    }

    #[test]
    fn values_in_unit_range() {
        let spec = DatasetSpec::cifar10_like().at_resolution(8);
        let d = spec.generate(50, 1);
        assert!(d.features.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn labels_cover_classes() {
        let spec = DatasetSpec::mnist_like().at_resolution(8);
        let d = spec.generate(500, 2);
        let mut seen = vec![false; spec.classes];
        for &l in &d.labels {
            seen[l] = true;
        }
        assert!(seen.iter().all(|&s| s), "not all classes sampled");
    }

    #[test]
    fn templates_are_distinct() {
        let spec = DatasetSpec::mnist_like().at_resolution(16);
        let t0 = spec.class_template(0);
        let t1 = spec.class_template(1);
        let mse: f32 = t0
            .iter()
            .zip(t1.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            / t0.len() as f32;
        assert!(mse > 0.01, "templates too similar: mse={mse}");
    }

    #[test]
    fn samples_cluster_near_their_template() {
        let spec = DatasetSpec::mnist_like().at_resolution(16);
        let d = spec.generate_class(3, 5, 9);
        let t = spec.class_template(3);
        for i in 0..5 {
            let row = &d.features.data()[i * spec.dim()..(i + 1) * spec.dim()];
            let mse: f32 = row
                .iter()
                .zip(t.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                / t.len() as f32;
            assert!(mse < 0.01, "sample too far from template: {mse}");
        }
    }

    #[test]
    fn resolution_override() {
        let spec = DatasetSpec::cifar10_like().at_resolution(16);
        assert_eq!(spec.dim(), 3 * 16 * 16);
        let d = spec.generate(3, 1);
        assert_eq!(d.features.shape(), &[3, 3 * 16 * 16]);
    }

    #[test]
    fn a_model_can_learn_the_synthetic_data() {
        use deta_nn::models::mlp;
        use deta_nn::train::{evaluate, train_local};
        let spec = DatasetSpec::mnist_like().at_resolution(8);
        let train = spec.generate(300, 5);
        let test = spec.generate(100, 6);
        let mut rng = deta_crypto::DetRng::from_u64(0);
        let mut model = mlp(&[spec.dim(), 32, spec.classes], &mut rng);
        train_local(&mut model, &train, 5, 32, 0.5);
        let (_, acc) = evaluate(&mut model, &test, 50);
        assert!(acc > 0.8, "synthetic data should be learnable, acc={acc}");
    }
}

//! Local training and evaluation loops.
//!
//! These functions are the "party side" compute of federated learning:
//! each FL party calls [`train_local`] on its private shard and shares only
//! the resulting model update.

use crate::loss::{accuracy, softmax_cross_entropy};
use crate::{sgd_step, Sequential};
use deta_tensor::Tensor;

/// A labeled dataset with flat features.
#[derive(Clone, Debug)]
pub struct LabeledData {
    /// Features, shape `[n, d]`.
    pub features: Tensor,
    /// Class labels, length `n`.
    pub labels: Vec<usize>,
}

impl LabeledData {
    /// Creates a dataset, validating dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `features` is not 2-D or label count mismatches.
    pub fn new(features: Tensor, labels: Vec<usize>) -> LabeledData {
        assert_eq!(features.shape().len(), 2, "features must be [n, d]");
        assert_eq!(features.shape()[0], labels.len(), "label count mismatch");
        LabeledData { features, labels }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.features.shape()[1]
    }

    /// Extracts examples `[start, end)` as a batch.
    pub fn slice(&self, start: usize, end: usize) -> (Tensor, &[usize]) {
        let d = self.dim();
        let batch = Tensor::from_vec(
            self.features.data()[start * d..end * d].to_vec(),
            &[end - start, d],
        );
        (batch, &self.labels[start..end])
    }
}

/// Statistics from one local training call.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrainStats {
    /// Mean loss over all processed batches.
    pub loss: f32,
    /// Mean training accuracy over all processed batches.
    pub accuracy: f32,
    /// Number of examples processed (counting repeats across epochs).
    pub examples: usize,
}

/// Trains `model` on `data` for `epochs` epochs of minibatch SGD.
///
/// Returns statistics averaged over all batches. The model's gradients
/// exist only during the call: the first batch's `zero_grad` allocates
/// them and they are released before it returns.
///
/// # Panics
///
/// Panics if `batch_size == 0` or `data` is empty.
pub fn train_local(
    model: &mut Sequential,
    data: &LabeledData,
    epochs: usize,
    batch_size: usize,
    lr: f32,
) -> TrainStats {
    assert!(batch_size > 0, "batch_size must be positive");
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let mut total_loss = 0.0f64;
    let mut total_acc = 0.0f64;
    let mut batches = 0usize;
    let mut examples = 0usize;
    for _ in 0..epochs {
        let mut start = 0;
        while start < data.len() {
            let end = (start + batch_size).min(data.len());
            let (x, y) = data.slice(start, end);
            let logits = model.forward(&x, true);
            let (loss, grad) = softmax_cross_entropy(&logits, y);
            model.zero_grad();
            model.backward_params(&grad);
            sgd_step(model, lr);
            total_loss += loss as f64;
            total_acc += accuracy(&logits, y) as f64;
            batches += 1;
            examples += end - start;
            start = end;
        }
    }
    model.release_grads();
    TrainStats {
        loss: (total_loss / batches as f64) as f32,
        accuracy: (total_acc / batches as f64) as f32,
        examples,
    }
}

/// Computes the mean gradient of the loss on a single batch without
/// updating the model (the FedSGD party-side computation). The flat
/// vector returned is the only copy of the gradients left: the model's
/// own are released.
pub fn batch_gradient(model: &mut Sequential, x: &Tensor, labels: &[usize]) -> (f32, Vec<f32>) {
    let logits = model.forward(x, true);
    let (loss, grad) = softmax_cross_entropy(&logits, labels);
    model.zero_grad();
    model.backward_params(&grad);
    let flat = model.flat_grads();
    model.release_grads();
    (loss, flat)
}

/// Evaluates mean loss and accuracy over a dataset.
pub fn evaluate(model: &mut Sequential, data: &LabeledData, batch_size: usize) -> (f32, f32) {
    assert!(!data.is_empty());
    let mut total_loss = 0.0f64;
    let mut correct = 0.0f64;
    let mut start = 0;
    while start < data.len() {
        let end = (start + batch_size).min(data.len());
        let (x, y) = data.slice(start, end);
        let logits = model.forward(&x, false);
        let (loss, _) = softmax_cross_entropy(&logits, y);
        total_loss += loss as f64 * (end - start) as f64;
        correct += accuracy(&logits, y) as f64 * (end - start) as f64;
        start = end;
    }
    let n = data.len() as f64;
    ((total_loss / n) as f32, (correct / n) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::mlp;
    use deta_crypto::DetRng;

    /// Builds a linearly separable two-class problem.
    fn toy_data(n: usize, seed: u64) -> LabeledData {
        let mut rng = DetRng::from_u64(seed);
        let mut feats = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let class = rng.gen_range(2) as usize;
            let cx = if class == 0 { -1.0 } else { 1.0 };
            feats.push(cx + rng.next_gaussian() as f32 * 0.3);
            feats.push(cx + rng.next_gaussian() as f32 * 0.3);
            labels.push(class);
        }
        LabeledData::new(Tensor::from_vec(feats, &[n, 2]), labels)
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        let mut rng = DetRng::from_u64(1);
        let mut model = mlp(&[2, 16, 2], &mut rng);
        let data = toy_data(200, 2);
        let (loss_before, acc_before) = evaluate(&mut model, &data, 50);
        let stats = train_local(&mut model, &data, 5, 20, 0.1);
        let (loss_after, acc_after) = evaluate(&mut model, &data, 50);
        assert!(loss_after < loss_before, "{loss_after} !< {loss_before}");
        assert!(acc_after > acc_before.max(0.9), "{acc_after}");
        assert_eq!(stats.examples, 200 * 5);
    }

    #[test]
    fn batch_gradient_matches_manual() {
        let mut rng = DetRng::from_u64(3);
        let mut model = mlp(&[2, 4, 2], &mut rng);
        let data = toy_data(10, 4);
        let (x, y) = data.slice(0, 10);
        let (_, g1) = batch_gradient(&mut model, &x, y);
        let (_, g2) = batch_gradient(&mut model, &x, y);
        // Gradient computation must not mutate the model.
        assert_eq!(g1, g2);
        assert_eq!(g1.len(), model.param_count());
    }

    #[test]
    fn evaluate_on_perfect_model_is_high_accuracy() {
        let mut rng = DetRng::from_u64(5);
        let mut model = mlp(&[2, 16, 2], &mut rng);
        let data = toy_data(100, 6);
        train_local(&mut model, &data, 10, 10, 0.2);
        let (_, acc) = evaluate(&mut model, &data, 32);
        assert!(acc > 0.95, "acc={acc}");
    }

    #[test]
    fn slice_extracts_correct_rows() {
        let data = toy_data(10, 7);
        let (x, y) = data.slice(3, 7);
        assert_eq!(x.shape(), &[4, 2]);
        assert_eq!(y.len(), 4);
        assert_eq!(x.data()[0], data.features.data()[6]);
    }

    #[test]
    #[should_panic]
    fn empty_dataset_panics() {
        let mut rng = DetRng::from_u64(8);
        let mut model = mlp(&[2, 2], &mut rng);
        let empty = LabeledData::new(Tensor::zeros(&[0, 2]), vec![]);
        train_local(&mut model, &empty, 1, 4, 0.1);
    }
}

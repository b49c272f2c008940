#include "core/kd.hpp"

#include <stdexcept>

#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

namespace sdd::core {
namespace {

// Teacher probabilities at temperature tau over every position of the batch
// (constant w.r.t. the student's autograd tape).
std::vector<float> teacher_soft_targets(const nn::TransformerLM& teacher,
                                        const train::SftBatch& batch,
                                        float temperature) {
  NoGradGuard no_grad;
  const Tensor logits = teacher.forward(batch.inputs, batch.batch, batch.seq);
  std::vector<float> probs(logits.data().begin(), logits.data().end());
  const float inv_tau = 1.0F / temperature;
  for (float& v : probs) v *= inv_tau;
  const std::int64_t vocab = teacher.config().vocab_size;
  kernels::softmax_rows(probs.data(), batch.batch * batch.seq, vocab);
  return probs;
}

}  // namespace

train::TrainStats kd_train(nn::TransformerLM& student,
                           const nn::TransformerLM& teacher,
                           const data::SftDataset& dataset,
                           const train::SftTrainConfig& config, const KdConfig& kd) {
  if (dataset.examples.empty()) throw std::invalid_argument("kd_train: empty dataset");
  if (!(student.config().vocab_size == teacher.config().vocab_size)) {
    throw std::invalid_argument("kd_train: teacher/student vocab mismatch");
  }
  if (kd.alpha < 0.0F || kd.alpha > 1.0F) {
    throw std::invalid_argument("kd_train: alpha must be in [0, 1]");
  }

  const std::int64_t max_len = student.config().max_seq_len;
  std::uint64_t h = fnv1a("kd");
  h = hash_combine(h, dataset.hash());
  h = hash_combine(h, config.hash());
  h = fnv1a_value(max_len, h);
  h = hash_combine(h, kd.hash());
  h = hash_combine(h, teacher.weight_hash());
  const auto steps =
      config.steps_for(static_cast<std::int64_t>(dataset.examples.size()));
  const float tau = kd.temperature;
  return train::train_loop(
      "kd[" + dataset.name + "]", student.trainable_parameters(), steps, h, config,
      [&](Rng& rng) {
        const train::SftBatch batch =
            train::draw_sft_batch(dataset, config.batch_size, max_len, rng);
        const std::vector<float> soft_targets =
            teacher_soft_targets(teacher, batch, tau);
        const Tensor logits = student.forward(batch.inputs, batch.batch, batch.seq);
        // Soft term at temperature tau (the tau^2 factor keeps gradient scale
        // comparable to the hard term, as in Hinton et al. 2015).
        const Tensor scaled_logits = ops::scale(logits, 1.0F / tau);
        const Tensor soft_loss =
            ops::soft_cross_entropy(scaled_logits, soft_targets, batch.weights);
        const Tensor hard_loss =
            ops::cross_entropy(logits, batch.targets, batch.weights);
        return ops::add_scaled(ops::scale(soft_loss, kd.alpha * tau * tau),
                               hard_loss, 1.0F - kd.alpha);
      });
}

}  // namespace sdd::core

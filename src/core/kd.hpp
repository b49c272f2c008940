// Teacher logit distillation (KD) for pruned-model recovery.
//
// The paper leaves "combining self-data distillation with standard KD
// techniques" as future work (§5, Distillation). This module implements the
// standard recipe — the unpruned model provides temperature-softened token
// distributions over the response positions, and the pruned student
// minimizes  alpha * tau^2 * H(teacher_tau, student_tau)
//          + (1 - alpha) * NLL(hard targets)
// — so the ablation bench can measure KD, SDD, and SDD+KD side by side.
#pragma once

#include <cstdint>

#include "data/sft.hpp"
#include "nn/transformer.hpp"
#include "train/trainer.hpp"

namespace sdd::core {

#define SDD_KD_FIELDS(X)                                                      \
  X(float, temperature, 2.0F, kKey, "softmax temperature of both models")   \
  X(float, alpha, 0.7F, kKey, "weight of the soft (teacher) term")

struct KdConfig {
  SDD_CONFIG_FIELDS(SDD_KD_FIELDS)

  std::uint64_t hash() const { return config::hash(*this); }
};

train::TrainStats kd_train(nn::TransformerLM& student,
                           const nn::TransformerLM& teacher,
                           const data::SftDataset& dataset,
                           const train::SftTrainConfig& config, const KdConfig& kd);

}  // namespace sdd::core

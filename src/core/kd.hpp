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

struct KdConfig {
  float temperature = 2.0F;
  float alpha = 0.7F;  // weight of the soft (teacher) term

  std::uint64_t hash() const {
    std::uint64_t h = kFnvOffset;
    h = fnv1a_value(temperature, h);
    h = fnv1a_value(alpha, h);
    return h;
  }
};

// Fine-tune `student` on the dataset with teacher-logit distillation. It runs
// train::train_loop with the SFT configuration (LoRA vs full, steps,
// schedule, clipping, checkpoint/resume, numeric guard), so it resumes and is
// guarded exactly as sft_train is; the loss mixes soft and hard terms per
// `kd`. The checkpoint fingerprint covers `kd` and the teacher's weights.
train::TrainStats kd_train(nn::TransformerLM& student,
                           const nn::TransformerLM& teacher,
                           const data::SftDataset& dataset,
                           const train::SftTrainConfig& config, const KdConfig& kd);

}  // namespace sdd::core

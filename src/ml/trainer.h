// Dataset splitting and the train-and-evaluate pipeline of the ML Manager:
// every model family is trained on the same data with the same early-
// stopping protocol, then reported with consistent metrics (accuracy via
// q-error plus training overhead).

#ifndef PDSP_ML_TRAINER_H_
#define PDSP_ML_TRAINER_H_

#include <string>

#include "src/common/rng.h"
#include "src/ml/metrics.h"
#include "src/ml/model.h"

namespace pdsp {

/// \brief Deterministically shuffled train/val/test split.
struct DatasetSplit {
  Dataset train;
  Dataset val;
  Dataset test;
};

/// Splits by fractions (remainder goes to test). Fractions must be positive
/// and sum to < 1.
Result<DatasetSplit> SplitDataset(const Dataset& data, double train_fraction,
                                  double val_fraction, uint64_t seed);

/// Partitions by structure tag: samples whose tag is in `held_out_tags` go
/// to `unseen`, the rest to `seen` (Figure 6's seen/unseen protocol).
void SplitByStructure(const Dataset& data,
                      const std::vector<int>& held_out_tags, Dataset* seen,
                      Dataset* unseen);

/// \brief One model's full training + evaluation record.
struct ModelEvaluation {
  std::string model_name;
  TrainReport train_report;
  EvalMetrics val_metrics;
  EvalMetrics test_metrics;
};

/// Fits `model` on split.train (early stopping on split.val) and evaluates
/// on val and test.
Result<ModelEvaluation> TrainAndEvaluate(LearnedCostModel* model,
                                         const DatasetSplit& split,
                                         const TrainOptions& options);

}  // namespace pdsp

#endif  // PDSP_ML_TRAINER_H_

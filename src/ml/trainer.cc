#include "src/ml/trainer.h"

#include <algorithm>
#include <numeric>

namespace pdsp {

Result<DatasetSplit> SplitDataset(const Dataset& data, double train_fraction,
                                  double val_fraction, uint64_t seed) {
  if (train_fraction <= 0.0 || val_fraction <= 0.0 ||
      train_fraction + val_fraction >= 1.0) {
    return Status::InvalidArgument("bad split fractions");
  }
  if (data.size() < 3) {
    return Status::InvalidArgument("need at least 3 samples to split");
  }
  std::vector<size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<size_t>(
                  rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
  }
  const auto n = static_cast<double>(data.size());
  const size_t n_train = std::max<size_t>(1, static_cast<size_t>(
                                                 n * train_fraction));
  const size_t n_val = std::max<size_t>(
      1, static_cast<size_t>(n * val_fraction));
  DatasetSplit split;
  for (size_t i = 0; i < order.size(); ++i) {
    const PlanSample& s = data.samples[order[i]];
    if (i < n_train) {
      split.train.samples.push_back(s);
    } else if (i < n_train + n_val) {
      split.val.samples.push_back(s);
    } else {
      split.test.samples.push_back(s);
    }
  }
  if (split.test.empty()) split.test = split.val;
  return split;
}

void SplitByStructure(const Dataset& data,
                      const std::vector<int>& held_out_tags, Dataset* seen,
                      Dataset* unseen) {
  seen->samples.clear();
  unseen->samples.clear();
  for (const PlanSample& s : data.samples) {
    const bool held_out =
        std::find(held_out_tags.begin(), held_out_tags.end(),
                  s.structure_tag) != held_out_tags.end();
    (held_out ? unseen : seen)->samples.push_back(s);
  }
}

Result<ModelEvaluation> TrainAndEvaluate(LearnedCostModel* model,
                                         const DatasetSplit& split,
                                         const TrainOptions& options) {
  if (model == nullptr) return Status::InvalidArgument("null model");
  ModelEvaluation eval;
  eval.model_name = model->name();
  PDSP_ASSIGN_OR_RETURN(eval.train_report,
                        model->Fit(split.train, split.val, options));
  PDSP_ASSIGN_OR_RETURN(eval.val_metrics, Evaluate(*model, split.val));
  PDSP_ASSIGN_OR_RETURN(eval.test_metrics, Evaluate(*model, split.test));
  return eval;
}

}  // namespace pdsp

// Ablation: why does the GNN win in the paper? The flat models here ship
// with cardinality-model "oracle" features (estimated rates, key counts,
// per-instance utilization) that a benchmarking system can compute but a
// production optimizer often cannot. Stripping those features from the flat
// models — leaving only raw structure and parameters — recreates the
// paper's setting, where per-operator features plus message passing must
// recover the bottleneck structurally.

#include <cstdio>

#include "bench/drivers/driver_util.h"
#include "src/common/string_util.h"
#include "src/harness/harness.h"
#include "src/ml/datagen.h"
#include "src/ml/trainer.h"

namespace pdsp {

namespace {

// Zeroes the derived (oracle) flat features in a copy of the dataset.
Dataset StripDerivedFeatures(const Dataset& data) {
  Dataset out = data;
  for (PlanSample& s : out.samples) {
    for (size_t idx : kFlatDerivedFeatureIndices) s.flat[idx] = 0.0;
  }
  return out;
}

DatasetSplit StripSplit(const DatasetSplit& split) {
  DatasetSplit out;
  out.train = StripDerivedFeatures(split.train);
  out.val = StripDerivedFeatures(split.val);
  out.test = StripDerivedFeatures(split.test);
  return out;
}

}  // namespace

int Main(int argc, char** argv) {
  const int jobs =
      bench::ParseDriverOptions(argc, argv, /*monitored=*/false).jobs;
  const bool fast = bench::FastMode();

  DataGenOptions gen;
  gen.jobs = jobs;
  gen.num_samples = fast ? 45 : 200;
  gen.seed = 717;
  gen.query.rate_floor = 1000.0;
  gen.query.rate_cap = 200000.0;
  gen.query.count_policy_probability = 0.2;
  gen.query.window_durations_ms = {250, 500, 1000};
  gen.query.max_keys = 10000;
  gen.strategy = EnumerationStrategy::kRandom;
  gen.enumeration.max_degree = 32;
  gen.execution.sim.duration_s = fast ? 1.5 : 2.5;
  gen.execution.sim.warmup_s = 0.5;

  const Cluster cluster = Cluster::M510(10);
  std::printf("generating %d labeled queries...\n", gen.num_samples);
  auto corpus = GenerateTrainingData(gen, cluster);
  if (!corpus.ok()) {
    std::fprintf(stderr, "datagen: %s\n",
                 corpus.status().ToString().c_str());
    return 1;
  }
  auto split = SplitDataset(corpus->dataset, 0.7, 0.15, 77);
  if (!split.ok()) return 1;
  const DatasetSplit stripped = StripSplit(*split);

  TrainOptions train;
  train.max_epochs = fast ? 60 : 250;
  train.patience = 15;
  train.seed = 9;

  TableReporter table(
      "Ablation: flat-model features with vs without the analytic oracle "
      "(median q-error, held-out)",
      {"model", "rich features", "raw structure only"});

  for (ModelKind kind :
       {ModelKind::kLinearRegression, ModelKind::kMlp,
        ModelKind::kRandomForest, ModelKind::kGradientBoost}) {
    std::vector<std::string> row = {ModelKindToString(kind)};
    const DatasetSplit* variants[] = {&*split, &stripped};
    for (const DatasetSplit* variant : variants) {
      auto model = MakeModel(kind);
      auto eval = TrainAndEvaluate(model.get(), *variant, train);
      row.push_back(eval.ok()
                        ? StrFormat("%.2f", eval->test_metrics.median_q)
                        : "n/a");
    }
    table.AddRow(std::move(row));
  }
  // The GNN uses the graph encoding in both variants: its per-node features
  // are local observations, and structure is its mechanism for combining
  // them.
  {
    auto gnn = MakeModel(ModelKind::kGnn);
    auto eval = TrainAndEvaluate(gnn.get(), *split, train);
    const std::string q =
        eval.ok() ? StrFormat("%.2f", eval->test_metrics.median_q) : "n/a";
    table.AddRow({"gnn (graph)", q, q});
  }
  table.Print();
  (void)table.WriteCsv("results/ablation_features.csv");
  return 0;
}

}  // namespace pdsp

int main(int argc, char** argv) { return pdsp::Main(argc, argv); }

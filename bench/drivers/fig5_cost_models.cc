// Figure 5: q-error of the four learned cost models (linear regression,
// MLP, random forest, GNN) on synthetic PQPs of increasing complexity
// (linear -> 2-way join -> 3-way join). All models are trained on the same
// simulator-labeled corpus with the same early-stopping protocol, exactly
// as the ML Manager prescribes.
//
// Expected shape (paper O8): the GNN's graph representation tracks query
// structure and stays the most accurate as complexity grows; LR degrades
// fastest.

#include <cstdio>

#include "bench/drivers/driver_util.h"
#include "src/common/string_util.h"
#include "src/common/stats.h"
#include "src/harness/harness.h"
#include "src/ml/datagen.h"
#include "src/ml/metrics.h"
#include "src/sim/analytic.h"
#include "src/ml/trainer.h"

namespace pdsp {

int Main(int argc, char** argv) {
  const int jobs =
      bench::ParseDriverOptions(argc, argv, /*monitored=*/false).jobs;
  const bool fast = bench::FastMode();
  const std::vector<SyntheticStructure> structures = {
      SyntheticStructure::kLinear,
      SyntheticStructure::kTwoWayJoin,
      SyntheticStructure::kThreeWayJoin,
  };

  // A deliberately hard corpus: rates up to 200k (deep into saturation for
  // unlucky parallelism draws), wild random degrees up to 32, mixed window
  // policies — the regimes where flat aggregate features stop explaining
  // latency and plan structure starts to matter.
  DataGenOptions gen;
  gen.structures = structures;
  gen.num_samples = fast ? 45 : 300;
  gen.seed = 515;
  gen.query.rate_floor = 1000.0;
  gen.query.rate_cap = 200000.0;
  gen.query.count_policy_probability = 0.25;
  gen.query.window_durations_ms = {250, 500, 1000, 2000};
  gen.query.max_keys = 20000;
  gen.strategy = EnumerationStrategy::kRandom;
  gen.enumeration.max_degree = 32;
  gen.execution.sim.duration_s = fast ? 1.5 : 2.5;
  gen.execution.sim.warmup_s = 0.5;
  gen.jobs = jobs;

  const Cluster cluster = Cluster::M510(10);
  std::printf("generating %d labeled queries...\n", gen.num_samples);
  auto corpus = GenerateTrainingData(gen, cluster);
  if (!corpus.ok()) {
    std::fprintf(stderr, "datagen: %s\n",
                 corpus.status().ToString().c_str());
    return 1;
  }
  std::printf("corpus: %zu samples (%.1fs collection, %d discarded)\n",
              corpus->dataset.size(), corpus->collection_seconds,
              corpus->discarded);

  auto split = SplitDataset(corpus->dataset, 0.7, 0.15, 77);
  if (!split.ok()) {
    std::fprintf(stderr, "split: %s\n", split.status().ToString().c_str());
    return 1;
  }

  TrainOptions train;
  train.max_epochs = fast ? 60 : 300;
  train.patience = 20;
  train.seed = 9;
  train.gnn_rounds = 3;
  train.gnn_hidden = 48;

  std::vector<std::string> columns = {"model"};
  for (SyntheticStructure s : structures) {
    columns.push_back(StrFormat("%s q50", SyntheticStructureToString(s)));
  }
  columns.push_back("all q50");
  columns.push_back("train(s)");
  columns.push_back("epochs");
  TableReporter table(
      "Fig. 5: learned cost model q-error vs query complexity (m510 x10)",
      columns);

  for (ModelKind kind :
       {ModelKind::kLinearRegression, ModelKind::kMlp,
        ModelKind::kRandomForest, ModelKind::kGnn,
        ModelKind::kGradientBoost}) {
    auto model = MakeModel(kind);
    auto eval = TrainAndEvaluate(model.get(), *split, train);
    if (!eval.ok()) {
      std::fprintf(stderr, "%s: %s\n", ModelKindToString(kind),
                   eval.status().ToString().c_str());
      return 1;
    }
    std::vector<std::string> row = {eval->model_name};
    for (SyntheticStructure s : structures) {
      Dataset subset;
      for (const PlanSample& sample : split->test.samples) {
        if (sample.structure_tag == static_cast<int>(s)) {
          subset.samples.push_back(sample);
        }
      }
      if (subset.empty()) {
        row.push_back("n/a");
        continue;
      }
      auto metrics = Evaluate(*model, subset);
      row.push_back(metrics.ok() ? StrFormat("%.2f", metrics->median_q)
                                 : "n/a");
    }
    row.push_back(StrFormat("%.2f", eval->test_metrics.median_q));
    row.push_back(StrFormat("%.2f", eval->train_report.train_seconds));
    row.push_back(StrFormat("%d", eval->train_report.epochs_run));
    table.AddRow(std::move(row));
  }
  // Ablation row: the closed-form analytic queueing model as a non-learned
  // baseline. It needs the plan itself (corpus samples only carry feature
  // encodings), so it is evaluated on freshly generated queries from the
  // same distribution.
  {
    std::vector<std::string> row = {"analytic_baseline"};
    QueryGenOptions qopt = gen.query;
    const Cluster& c = cluster;
    std::vector<double> all_q;
    for (SyntheticStructure s : structures) {
      QueryGenerator qgen(qopt, 9090 + static_cast<uint64_t>(s));
      std::vector<double> qs;
      for (int i = 0; i < (fast ? 5 : 15); ++i) {
        auto plan = qgen.Generate(s);
        if (!plan.ok()) continue;
        Rng prng(100 + static_cast<uint64_t>(i));
        EnumerationOptions eopt;
        eopt.max_degree = 16;
        auto asg = EnumerateParallelism(*plan, EnumerationStrategy::kRandom,
                                        eopt, &prng);
        if (!asg.ok() || !ApplyParallelism(&*plan, (*asg)[0]).ok()) continue;
        auto analytic = EstimateLatencyAnalytically(*plan, c);
        ExecutionOptions exec = gen.execution;
        auto sim = ExecutePlan(*plan, c, exec);
        if (!analytic.ok() || !sim.ok() || sim->sink_tuples == 0) continue;
        qs.push_back(QError(sim->median_latency_s, analytic->latency_s));
      }
      row.push_back(qs.empty() ? "n/a"
                               : StrFormat("%.2f", Percentile(qs, 50.0)));
      for (double q : qs) all_q.push_back(q);
    }
    row.push_back(all_q.empty()
                      ? "n/a"
                      : StrFormat("%.2f", Percentile(all_q, 50.0)));
    row.push_back("0.00");
    row.push_back("0");
    table.AddRow(std::move(row));
  }

  table.Print();
  Status st = table.WriteCsv("results/fig5_cost_models.csv");
  if (!st.ok()) std::fprintf(stderr, "csv: %s\n", st.ToString().c_str());
  return 0;
}

}  // namespace pdsp

int main(int argc, char** argv) { return pdsp::Main(argc, argv); }

// Figure 6: influence of the parallelism enumeration strategy on GNN
// training efficiency. (a) q-error vs number of training queries for
// rule-based and random enumeration, on both seen structures (linear,
// 2-way, 3-way join) and unseen ones (chained filters, filter+join+agg);
// (b) total training time (data collection + model fitting).
//
// Both strategies are evaluated against a common test workload drawn from
// the realistic deployment space (rule-based degrees with wide jitter),
// since deployed queries run at sane parallelism; this mirrors the paper's
// setting where rule-based training data is "representative".
//
// Expected shape (paper O9): rule-based enumeration reaches a given q-error
// with roughly a third of the queries and substantially less total time.

#include <cstdio>

#include "bench/drivers/driver_util.h"
#include "src/common/string_util.h"
#include "src/harness/harness.h"
#include "src/ml/datagen.h"
#include "src/ml/trainer.h"

namespace pdsp {

namespace {

DataGenOptions BaseGen(bool fast) {
  DataGenOptions gen;
  gen.query.rate_floor = 1000.0;
  gen.query.rate_cap = 50000.0;
  gen.query.count_policy_probability = 0.15;
  gen.query.window_durations_ms = {250, 500, 1000};
  gen.query.max_keys = 2000;
  gen.enumeration.max_degree = 16;
  gen.execution.sim.duration_s = fast ? 1.5 : 2.5;
  gen.execution.sim.warmup_s = 0.5;
  return gen;
}

}  // namespace

int Main(int argc, char** argv) {
  const int jobs =
      bench::ParseDriverOptions(argc, argv, /*monitored=*/false).jobs;
  const bool fast = bench::FastMode();
  const Cluster cluster = Cluster::M510(10);
  const std::vector<SyntheticStructure> seen_structures = {
      SyntheticStructure::kLinear,
      SyntheticStructure::kTwoWayJoin,
      SyntheticStructure::kThreeWayJoin,
  };
  const std::vector<SyntheticStructure> unseen_structures = {
      SyntheticStructure::kChain2Filters,
      SyntheticStructure::kChain3Filters,
      SyntheticStructure::kFilterJoinAgg,
  };

  // Common evaluation corpora: realistic deployment configurations.
  DataGenOptions eval_gen = BaseGen(fast);
  eval_gen.jobs = jobs;
  eval_gen.strategy = EnumerationStrategy::kRuleBased;
  eval_gen.enumeration.rule_jitter = 3;
  eval_gen.seed = 6001;
  eval_gen.structures = seen_structures;
  eval_gen.num_samples = fast ? 20 : 50;
  auto eval_seen = GenerateTrainingData(eval_gen, cluster);
  eval_gen.seed = 6002;
  eval_gen.structures = unseen_structures;
  eval_gen.num_samples = fast ? 15 : 40;
  auto eval_unseen = GenerateTrainingData(eval_gen, cluster);
  if (!eval_seen.ok() || !eval_unseen.ok()) {
    std::fprintf(stderr, "eval corpus generation failed\n");
    return 1;
  }
  std::printf("eval corpora: %zu seen, %zu unseen\n",
              eval_seen->dataset.size(), eval_unseen->dataset.size());

  const std::vector<int> training_sizes =
      fast ? std::vector<int>{12, 25} : std::vector<int>{25, 50, 100};

  TrainOptions train;
  train.max_epochs = fast ? 60 : 150;
  train.patience = 12;
  train.seed = 11;

  TableReporter table(
      "Fig. 6: GNN training efficiency by enumeration strategy "
      "(a: q-error vs #queries; b: time)",
      {"strategy", "#queries", "seen q50", "unseen q50", "collect(s)",
       "fit(s)", "total(s)"});

  for (EnumerationStrategy strategy :
       {EnumerationStrategy::kRandom, EnumerationStrategy::kRuleBased}) {
    for (int size : training_sizes) {
      DataGenOptions gen = BaseGen(fast);
      gen.jobs = jobs;
      gen.strategy = strategy;
      gen.structures = seen_structures;
      gen.num_samples = size;
      gen.seed = 7000 + static_cast<uint64_t>(size);
      auto corpus = GenerateTrainingData(gen, cluster);
      if (!corpus.ok()) {
        std::fprintf(stderr, "datagen(%s,%d): %s\n",
                     EnumerationStrategyToString(strategy), size,
                     corpus.status().ToString().c_str());
        return 1;
      }
      auto split = SplitDataset(corpus->dataset, 0.75, 0.2, 3);
      if (!split.ok()) continue;

      auto gnn = MakeModel(ModelKind::kGnn);
      auto report = gnn->Fit(split->train, split->val, train);
      if (!report.ok()) {
        std::fprintf(stderr, "fit: %s\n",
                     report.status().ToString().c_str());
        return 1;
      }
      auto q_seen = Evaluate(*gnn, eval_seen->dataset);
      auto q_unseen = Evaluate(*gnn, eval_unseen->dataset);
      table.AddRow({EnumerationStrategyToString(strategy),
                    StrFormat("%d", size),
                    q_seen.ok() ? StrFormat("%.2f", q_seen->median_q)
                                : "n/a",
                    q_unseen.ok() ? StrFormat("%.2f", q_unseen->median_q)
                                  : "n/a",
                    StrFormat("%.1f", corpus->collection_seconds),
                    StrFormat("%.1f", report->train_seconds),
                    StrFormat("%.1f", corpus->collection_seconds +
                                          report->train_seconds)});
    }
  }
  table.Print();
  Status st = table.WriteCsv("results/fig6_enumeration.csv");
  if (!st.ok()) std::fprintf(stderr, "csv: %s\n", st.ToString().c_str());
  return 0;
}

}  // namespace pdsp

int main(int argc, char** argv) { return pdsp::Main(argc, argv); }

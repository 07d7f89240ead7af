// Cross-thread-count determinism: the concurrency contract (ARCHITECTURE.md)
// promises that training, prediction, and evaluation are bit-identical at
// any thread count. These tests run the same workloads at 1, 2, and 8
// threads and compare serialized models, edge probabilities, and metrics
// exactly — no tolerances.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/baseline.h"
#include "common/parallel.h"
#include "core/auto_bi.h"
#include "core/trainer.h"
#include "eval/harness.h"
#include "fuzz/faultpoints.h"
#include "ml/gbdt.h"
#include "profile/sketch.h"
#include "synth/corpus.h"

namespace autobi {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

std::vector<BiCase> TrainCorpus() {
  CorpusOptions opt;
  opt.seed = 77;
  opt.training_cases = 24;
  return BuildTrainingCorpus(opt);
}

std::vector<BiCase> TestCases() {
  CorpusOptions opt;
  opt.seed = 1234;  // Disjoint from training.
  opt.training_cases = 6;
  return BuildTrainingCorpus(opt);
}

LocalModel TrainAt(const std::vector<BiCase>& corpus, int threads) {
  TrainerOptions opt;
  opt.forest.num_trees = 12;
  opt.forest.threads = threads;
  opt.candidates.threads = threads;
  return TrainLocalModel(corpus, opt);
}

std::string Serialize(const LocalModel& model) {
  std::ostringstream os;
  os.precision(17);
  model.Save(os);
  return os.str();
}

TEST(DeterminismTest, TrainingBitIdenticalAcrossThreadCounts) {
  std::vector<BiCase> corpus = TrainCorpus();
  std::string reference = Serialize(TrainAt(corpus, kThreadCounts[0]));
  EXPECT_FALSE(reference.empty());
  for (size_t i = 1; i < std::size(kThreadCounts); ++i) {
    std::string other = Serialize(TrainAt(corpus, kThreadCounts[i]));
    EXPECT_EQ(reference, other)
        << "LocalModel differs between threads=" << kThreadCounts[0]
        << " and threads=" << kThreadCounts[i];
  }
}

// Sets AUTOBI_THREADS for one scope and restores the value it had before
// (the TSan stage of scripts/check.sh runs this binary with it set).
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    if (const char* old = std::getenv("AUTOBI_THREADS")) old_ = old;
    setenv("AUTOBI_THREADS", value, 1);
  }
  ~ScopedThreadsEnv() {
    if (old_) {
      setenv("AUTOBI_THREADS", old_->c_str(), 1);
    } else {
      unsetenv("AUTOBI_THREADS");
    }
  }

 private:
  std::optional<std::string> old_;
};

// The corpus builders generate their cases in parallel from streams drawn
// before the fan-out, so the corpus is the same at any thread count.
TEST(DeterminismTest, TrainingCorpusIdenticalAcrossThreadCounts) {
  std::vector<BiCase> serial;
  {
    ScopedThreadsEnv env("1");
    serial = TrainCorpus();
  }
  std::vector<BiCase> parallel;
  {
    ScopedThreadsEnv env("8");
    parallel = TrainCorpus();
  }
  ASSERT_EQ(serial.size(), 24u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].name, parallel[i].name) << "case " << i;
    EXPECT_EQ(TablesContentHash(serial[i].tables),
              TablesContentHash(parallel[i].tables))
        << "case " << i;
    EXPECT_TRUE(serial[i].ground_truth.joins ==
                parallel[i].ground_truth.joins)
        << "case " << i;
  }
}

// GenerateCandidates queries the candidates.exhausted fault point, whose
// decisions follow the order of queries, so training under an armed spec
// runs its cases serially: two runs at 8 threads fire the same faults and
// save the same model.
TEST(DeterminismTest, TrainingUnderArmedFaultsIsReproducible) {
  std::vector<BiCase> corpus = TrainCorpus();
  std::string models[2];
  long fires[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    ASSERT_TRUE(
        FaultPoints::Global().Configure("candidates.exhausted=0.5@7"));
    models[run] = Serialize(TrainAt(corpus, 8));
    fires[run] = FaultPoints::Global().fires();
  }
  FaultPoints::Global().Disable();
  EXPECT_GT(fires[0], 0);
  EXPECT_EQ(fires[0], fires[1]);
  EXPECT_EQ(models[0], models[1]);
}

TEST(DeterminismTest, PredictionBitIdenticalAcrossThreadCounts) {
  std::vector<BiCase> corpus = TrainCorpus();
  LocalModel model = TrainAt(corpus, 2);
  std::vector<BiCase> cases = TestCases();

  for (const BiCase& bi_case : cases) {
    AutoBiOptions ref_opt;
    ref_opt.threads = kThreadCounts[0];
    AutoBiResult reference = AutoBi(&model, ref_opt).Predict(bi_case.tables);

    for (size_t t = 1; t < std::size(kThreadCounts); ++t) {
      AutoBiOptions opt;
      opt.threads = kThreadCounts[t];
      AutoBiResult result = AutoBi(&model, opt).Predict(bi_case.tables);

      // The scored join graph must match edge-for-edge, probabilities
      // compared exactly.
      ASSERT_EQ(reference.graph.num_edges(), result.graph.num_edges());
      for (size_t e = 0; e < reference.graph.num_edges(); ++e) {
        const JoinEdge& a = reference.graph.edges()[e];
        const JoinEdge& b = result.graph.edges()[e];
        EXPECT_EQ(a.src, b.src);
        EXPECT_EQ(a.dst, b.dst);
        EXPECT_EQ(a.src_columns, b.src_columns);
        EXPECT_EQ(a.dst_columns, b.dst_columns);
        EXPECT_EQ(a.one_to_one, b.one_to_one);
        EXPECT_EQ(a.probability, b.probability)  // Exact, not NEAR.
            << "edge " << e << " at threads=" << kThreadCounts[t];
      }

      // And so must the final predicted BiModel.
      ASSERT_EQ(reference.model.joins.size(), result.model.joins.size());
      for (size_t j = 0; j < reference.model.joins.size(); ++j) {
        EXPECT_TRUE(reference.model.joins[j] == result.model.joins[j])
            << "join " << j << " at threads=" << kThreadCounts[t];
      }
      EXPECT_EQ(reference.backbone_edges, result.backbone_edges);
      EXPECT_EQ(reference.recall_edges, result.recall_edges);
    }
  }
}

TEST(DeterminismTest, HarnessMetricsIdenticalAcrossThreadCounts) {
  std::vector<BiCase> corpus = TrainCorpus();
  LocalModel model = TrainAt(corpus, 2);
  std::vector<BiCase> cases = TestCases();
  AutoBiPredictor predictor("Auto-BI", &model, AutoBiOptions{});

  HarnessOptions ref_opt;
  ref_opt.threads = kThreadCounts[0];
  MethodResults reference = RunMethod(predictor, cases, ref_opt);

  for (size_t t = 1; t < std::size(kThreadCounts); ++t) {
    HarnessOptions opt;
    opt.threads = kThreadCounts[t];
    MethodResults results = RunMethod(predictor, cases, opt);
    ASSERT_EQ(reference.cases.size(), results.cases.size());
    for (size_t i = 0; i < reference.cases.size(); ++i) {
      const EdgeMetrics& a = reference.cases[i].metrics;
      const EdgeMetrics& b = results.cases[i].metrics;
      EXPECT_EQ(a.predicted, b.predicted);
      EXPECT_EQ(a.ground_truth, b.ground_truth);
      EXPECT_EQ(a.correct, b.correct);
      EXPECT_EQ(a.precision, b.precision);  // Exact.
      EXPECT_EQ(a.recall, b.recall);
      EXPECT_EQ(a.f1, b.f1);
      EXPECT_EQ(a.case_correct, b.case_correct);
    }
    AggregateMetrics qa = reference.Quality();
    AggregateMetrics qb = results.Quality();
    EXPECT_EQ(qa.precision, qb.precision);
    EXPECT_EQ(qa.recall, qb.recall);
    EXPECT_EQ(qa.f1, qb.f1);
    EXPECT_EQ(qa.case_precision, qb.case_precision);
  }
}

TEST(DeterminismTest, GbdtBitIdenticalAcrossThreadCounts) {
  // Big enough that several nodes clear the parallel-split-search floor.
  Dataset d({"x0", "x1", "x2"});
  Rng data_rng(5);
  for (int i = 0; i < 2000; ++i) {
    double x0 = data_rng.NextDouble();
    double x1 = data_rng.NextDouble();
    double x2 = data_rng.NextDouble();
    d.Add({x0, x1, x2}, x0 + 0.3 * x1 > 0.6 ? 1 : 0);
  }
  std::string reference;
  for (int threads : kThreadCounts) {
    GbdtOptions opt;
    opt.num_rounds = 10;
    opt.threads = threads;
    Rng rng(99);  // Same seed per run: subsampling must match too.
    Gbdt model;
    model.Fit(d, opt, rng);
    std::ostringstream os;
    model.Save(os);
    if (reference.empty()) {
      reference = os.str();
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(reference, os.str()) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace autobi

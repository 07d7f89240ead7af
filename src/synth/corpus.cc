#include "synth/corpus.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats_util.h"

namespace autobi {

int BucketOfTableCount(int num_tables) {
  if (num_tables < 4) return -1;
  if (num_tables <= 10) return num_tables - 4;
  if (num_tables <= 15) return 7;
  if (num_tables <= 20) return 8;
  return 9;
}

const char* BucketLabel(int bucket) {
  static const char* kLabels[kNumBuckets] = {
      "4", "5", "6", "7", "8", "9", "10", "[11,15]", "[16,20]", "21+"};
  // invariant: bucket indices come from the bucketing function above.
  AUTOBI_CHECK(bucket >= 0 && bucket < kNumBuckets);
  return kLabels[bucket];
}

namespace {

// One case of a fixed-count corpus: its generator options and its own
// random stream, both drawn before any case is generated.
struct CaseDraw {
  BiGenOptions gen;
  Rng rng;
};

// Generates each drawn case into its own slot, in parallel over cases with
// the largest table counts first. A case reads only its own options and
// stream, so the corpus is the same at any thread count and schedule.
std::vector<BiCase> GenerateCases(std::vector<CaseDraw> draws) {
  std::vector<BiCase> cases(draws.size());
  const std::vector<size_t> order = LargestFirst(
      draws.size(), [&](size_t i) { return size_t(draws[i].gen.num_tables); });
  ParallelFor(draws.size(), [&](size_t k) {
    CaseDraw& draw = draws[order[k]];
    cases[order[k]] = GenerateBiCase(draw.gen, draw.rng);
  });
  return cases;
}

}  // namespace

std::vector<BiCase> BuildTrainingCorpus(const CorpusOptions& options) {
  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<CaseDraw> draws;
  draws.reserve(options.training_cases);
  while (draws.size() < options.training_cases) {
    BiGenOptions gen = options.gen;
    // Training sizes 3..12, skewed small like the harvested population.
    gen.num_tables = 3 + static_cast<int>(rng.NextZipf(10, 0.7));
    // The broad harvested population has noticeably incomplete ground truth
    // (Appendix A); the label noise spreads classifier scores the way real
    // training data does.
    gen.missing_gt_prob = 0.06;
    draws.push_back({gen, rng.Fork()});
  }
  return GenerateCases(std::move(draws));
}

std::vector<BiCase> BuildWildCollection(const CorpusOptions& options,
                                        size_t num_cases) {
  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 2);
  std::vector<CaseDraw> draws;
  draws.reserve(num_cases);
  while (draws.size() < num_cases) {
    BiGenOptions gen = options.gen;
    gen.num_tables = 2 + static_cast<int>(rng.NextZipf(12, 1.2));
    draws.push_back({gen, rng.Fork()});
  }
  return GenerateCases(std::move(draws));
}

// Serial: the bucket an attempt fills depends on the table count of the
// case it generates, so the next attempt's draws cannot be made ahead.
RealBenchmark BuildRealBenchmark(const CorpusOptions& options) {
  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 3);
  RealBenchmark bench;
  std::vector<size_t> filled(kNumBuckets, 0);
  size_t total_needed = options.cases_per_bucket * kNumBuckets;
  size_t attempts = 0;
  while (bench.cases.size() < total_needed &&
         attempts < total_needed * 40) {
    ++attempts;
    // Aim at the least-filled bucket.
    int target_bucket = 0;
    for (int b = 1; b < kNumBuckets; ++b) {
      if (filled[size_t(b)] < filled[size_t(target_bucket)]) {
        target_bucket = b;
      }
    }
    if (filled[size_t(target_bucket)] >= options.cases_per_bucket) break;
    int target_tables;
    if (target_bucket <= 6) {
      target_tables = 4 + target_bucket;
    } else if (target_bucket == 7) {
      target_tables = 11 + int(rng.NextBelow(5));
    } else if (target_bucket == 8) {
      target_tables = 16 + int(rng.NextBelow(5));
    } else {
      // Heavy tail up to ~40 tables (the paper's largest case has 88; we cap
      // the default for single-core runtime, scalable via options).
      target_tables = 21 + int(rng.NextBelow(20));
    }
    BiGenOptions gen = options.gen;
    gen.num_tables = target_tables;
    // The curated benchmark sample has nearly complete ground truth (the
    // paper's evaluation set was manually stratified and deduplicated).
    gen.missing_gt_prob = 0.01;
    Rng case_rng = rng.Fork();
    BiCase bi_case = GenerateBiCase(gen, case_rng);
    // Bucket by the case's *actual* table count (generation may wiggle by a
    // table when 1:1 splits land).
    int bucket = BucketOfTableCount(static_cast<int>(bi_case.tables.size()));
    if (bucket < 0 || filled[size_t(bucket)] >= options.cases_per_bucket) {
      continue;
    }
    ++filled[size_t(bucket)];
    bench.bucket_of.push_back(bucket);
    bench.cases.push_back(std::move(bi_case));
  }
  return bench;
}

CorpusStats ComputeCorpusStats(const std::vector<BiCase>& cases) {
  std::vector<double> rows, cols, tables, edges;
  for (const BiCase& c : cases) {
    tables.push_back(double(c.tables.size()));
    edges.push_back(double(c.ground_truth.joins.size()));
    for (const Table& t : c.tables) {
      rows.push_back(double(t.num_rows()));
      cols.push_back(double(t.num_columns()));
    }
  }
  CorpusStats s;
  s.rows_avg = Mean(rows);
  s.rows_p50 = Percentile(rows, 50);
  s.rows_p90 = Percentile(rows, 90);
  s.rows_p95 = Percentile(rows, 95);
  s.cols_avg = Mean(cols);
  s.cols_p50 = Percentile(cols, 50);
  s.cols_p90 = Percentile(cols, 90);
  s.cols_p95 = Percentile(cols, 95);
  s.tables_avg = Mean(tables);
  s.tables_p50 = Percentile(tables, 50);
  s.tables_p90 = Percentile(tables, 90);
  s.tables_p95 = Percentile(tables, 95);
  s.edges_avg = Mean(edges);
  s.edges_p50 = Percentile(edges, 50);
  s.edges_p90 = Percentile(edges, 90);
  s.edges_p95 = Percentile(edges, 95);
  return s;
}

}  // namespace autobi

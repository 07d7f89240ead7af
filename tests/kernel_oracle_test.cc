// Kernel-oracle equivalence suite (PR 7): the hash-first columnar kernels
// (table/key_view.h + radix-sorted aggregation) must be *bit-identical* to
// the legacy string-map/string-set kernels of oracle/profile_oracle.h on
// every surface the pipeline consumes — canonical key bytes, ColumnProfile
// fields, UCC sets, composite IND key sets and containments, and end-to-end
// candidates — on adversarial randomized data (nulls, escape bytes '|' and
// '\', int/double canonicalization edges, mixed-type columns), on the
// synthetic REAL corpus, and on TPC-H ingested through the SQL-DDL path, at
// 1, 2, and 8 threads.
// The partition-refinement UCC lattice is held to the legacy string-set
// lattice the same way, plus its own edge cases (KernelOraclePliTest).
// KernelOracleCollisionTest runs profiling, value ids, UCCs and the append
// merge on real 64-bit hash collisions.
//
// scripts/check.sh runs this file under ASan/UBSan on every invocation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "core/candidates.h"
#include "oracle/profile_oracle.h"
#include "profile/column_profile.h"
#include "profile/ind.h"
#include "profile/sketch.h"
#include "profile/ucc.h"
#include "synth/corpus.h"
#include "synth/tpch_ddl.h"
#include "table/key_view.h"
#include "tests/test_util.h"

namespace autobi {
namespace {

// Adversarial cell pool: empty (= null), the tuple-escape bytes '|' and '\'
// alone / doubled / embedded, int canonicalization edges (leading zeros,
// negative zero, INT64_MIN, > 2^53), double rendering edges (integral
// doubles below/above the 1e15 canonicalization cutoff, tiny/huge
// magnitudes), and plain strings with spaces and multi-byte characters.
const char* const kAdversarialPool[] = {
    "",        "a",       "b",     "a|b",   "a\\b",  "|",
    "\\",      "\\|",     "|\\",   "||",    "a|",    "|b",
    "a\\|b",   "0",       "-0",    "7",     "007",   "-7",
    "42",      "1000000000000000",  "9007199254740993",
    "-9223372036854775808",        "3.5",   "-3.5",  "0.125",
    "1e300",   "-1e-300", "1e15",  "999999999999999",
    "2.000000000001",     "x y",   " lead", "trail ", "ümlaut",
};

std::vector<std::string> RandomCells(Rng& rng, size_t rows) {
  // Per-column shape: 0 = ints, 1 = doubles, 2 = adversarial strings,
  // 3 = mixed (forces a string column over numeric-looking cells).
  int kind = int(rng.NextBelow(4));
  double null_p = double(rng.NextBelow(4)) * 0.1;
  std::vector<std::string> cells;
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextDouble() < null_p) {
      cells.push_back("");
      continue;
    }
    switch (kind) {
      case 0:
        cells.push_back(std::to_string(rng.NextInt(-30, 30)));
        break;
      case 1:
        cells.push_back(StrFormat("%lld.%llu",
                                  (long long)rng.NextInt(-20, 20),
                                  (unsigned long long)rng.NextBelow(100)));
        break;
      default: {
        const size_t pool =
            sizeof(kAdversarialPool) / sizeof(kAdversarialPool[0]);
        // Skip index 0 ("") so null frequency stays governed by null_p; for
        // the mixed shape interleave numeric-looking and string cells.
        size_t i = 1 + rng.NextBelow(pool - 1);
        if (kind == 3 && rng.NextBelow(2) == 0) {
          cells.push_back(std::to_string(rng.NextInt(0, 20)));
        } else {
          cells.push_back(kAdversarialPool[i]);
        }
        break;
      }
    }
  }
  return cells;
}

Table RandomTable(Rng& rng, const std::string& name) {
  size_t rows = 5 + rng.NextBelow(60);
  size_t ncols = 1 + rng.NextBelow(4);
  std::vector<std::pair<std::string, std::vector<std::string>>> cols;
  for (size_t c = 0; c < ncols; ++c) {
    cols.emplace_back(StrFormat("c%zu", c), RandomCells(rng, rows));
  }
  return MakeTable(name, cols);
}

void ExpectProfilesIdentical(const ColumnProfile& a, const ColumnProfile& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.row_count, b.row_count);
  EXPECT_EQ(a.non_null_count, b.non_null_count);
  EXPECT_EQ(a.num_distinct, b.num_distinct);
  EXPECT_EQ(a.distinct_hashes, b.distinct_hashes);
  EXPECT_EQ(a.distinct_counts, b.distinct_counts);
  EXPECT_EQ(a.distinct_rows, b.distinct_rows);
  EXPECT_EQ(a.distinct_ratio, b.distinct_ratio);  // Bitwise, not NEAR.
  EXPECT_EQ(a.is_numeric, b.is_numeric);
  EXPECT_EQ(a.min_value, b.min_value);
  EXPECT_EQ(a.max_value, b.max_value);
  EXPECT_EQ(a.sorted_numeric_sample, b.sorted_numeric_sample);
  EXPECT_EQ(a.avg_value_length, b.avg_value_length);
  EXPECT_EQ(a.key_bytes, b.key_bytes);
  EXPECT_EQ(a.collision_hashes, b.collision_hashes);
  EXPECT_EQ(a.collision_rows, b.collision_rows);
}

// Legacy-profiled TableProfile, assembled column-by-column through the
// string-map oracle.
TableProfile ProfileTableLegacy(const Table& t) {
  TableProfile tp;
  tp.row_count = t.num_rows();
  for (size_t c = 0; c < t.num_columns(); ++c) {
    tp.columns.push_back(ProfileColumnLegacy(t.column(c)));
  }
  return tp;
}

std::string UccsToString(const std::vector<Ucc>& uccs) {
  std::string out;
  for (const Ucc& u : uccs) {
    for (int c : u.columns) out += StrFormat("%d,", c);
    out += ";";
  }
  return out;
}

std::string IndsToString(const std::vector<Ind>& inds) {
  std::string out;
  for (const Ind& ind : inds) {
    out += StrFormat("%d:", ind.dependent.table);
    for (int c : ind.dependent.columns) out += StrFormat("%d,", c);
    out += StrFormat("->%d:", ind.referenced.table);
    for (int c : ind.referenced.columns) out += StrFormat("%d,", c);
    out += StrFormat("@%.17g;", ind.containment);
  }
  return out;
}

std::string CandidatesToString(const std::vector<JoinCandidate>& cands) {
  std::string out;
  for (const JoinCandidate& jc : cands) {
    out += StrFormat("%d:", jc.src.table);
    for (int c : jc.src.columns) out += StrFormat("%d,", c);
    out += StrFormat("->%d:", jc.dst.table);
    for (int c : jc.dst.columns) out += StrFormat("%d,", c);
    out += StrFormat("@%.17g/%.17g/%d;", jc.left_containment,
                     jc.right_containment, jc.one_to_one ? 1 : 0);
  }
  return out;
}

class KernelOracleTest : public ::testing::TestWithParam<uint64_t> {};

// The columnar key view reproduces Column::KeyAt byte-for-byte, including
// null placement and the stable hash identity.
TEST_P(KernelOracleTest, KeyViewMatchesKeyAt) {
  Rng rng(GetParam() * 7919 + 1);
  Table t = RandomTable(rng, "kv");
  TableKeyView view(t);
  ASSERT_EQ(view.num_columns(), t.num_columns());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const Column& col = t.column(c);
    const ColumnKeyView& cv = view.column(c);
    ASSERT_EQ(cv.size(), t.num_rows());
    size_t non_null = 0;
    size_t bytes = 0;
    std::string key;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      ASSERT_EQ(cv.IsNull(r), col.IsNull(r)) << "col " << c << " row " << r;
      if (col.IsNull(r)) continue;
      ASSERT_TRUE(col.KeyAt(r, &key));
      EXPECT_EQ(cv.key(r), key) << "col " << c << " row " << r;
      EXPECT_EQ(cv.hash(r), StableHash64(key));
      ++non_null;
      bytes += key.size();
    }
    EXPECT_EQ(cv.num_non_null(), non_null);
    EXPECT_EQ(cv.key_bytes(), bytes);
  }
}

// The radix-sort profiling kernel is bit-identical to the string-map oracle
// on every ColumnProfile field (including the representative and collision
// rows and their (hash, first-row) order).
TEST_P(KernelOracleTest, ProfileMatchesLegacyOracle) {
  Rng rng(GetParam() * 104729 + 2);
  Table t = RandomTable(rng, "prof");
  TableKeyView view(t);
  for (size_t c = 0; c < t.num_columns(); ++c) {
    ColumnProfile hashed = ProfileColumn(t.column(c));
    ColumnProfile via_view = ProfileColumn(t.column(c), view.column(c));
    ColumnProfile legacy = ProfileColumnLegacy(t.column(c));
    ExpectProfilesIdentical(hashed, legacy);
    ExpectProfilesIdentical(via_view, legacy);
  }
}

// UCC discovery with the partition-refinement candidate checks (lazy and
// prebuilt views) returns exactly the legacy string-set lattice result.
TEST_P(KernelOracleTest, UccsMatchLegacyOracle) {
  Rng rng(GetParam() * 15485863 + 3);
  Table t = RandomTable(rng, "ucc");
  TableProfile profile = ProfileTable(t);
  std::vector<Ucc> legacy = DiscoverUccsLegacy(t, profile);
  std::vector<Ucc> lazy = DiscoverUccs(t, profile);
  TableKeyView view(t);
  std::vector<Ucc> prebuilt = DiscoverUccs(t, profile, {}, &view);
  EXPECT_EQ(UccsToString(lazy), UccsToString(legacy));
  EXPECT_EQ(UccsToString(prebuilt), UccsToString(legacy));
}

// Composite key sets and containments from the streamed view kernel equal
// the per-row KeyAt/TupleHash oracles.
TEST_P(KernelOracleTest, CompositeKernelsMatchLegacyOracle) {
  Rng rng(GetParam() * 32452843 + 4);
  Table a = RandomTable(rng, "ca");
  Table b = RandomTable(rng, "cb");
  for (size_t i = 0; i < a.num_columns(); ++i) {
    for (size_t j = i + 1; j < a.num_columns(); ++j) {
      std::vector<int> ca = {int(i), int(j)};
      EXPECT_EQ(BuildCompositeKeySet(a, ca), BuildCompositeKeySetLegacy(a, ca));
      for (size_t k = 0; k + 1 < b.num_columns(); ++k) {
        std::vector<int> cb = {int(k), int(k + 1)};
        EXPECT_EQ(CompositeContainment(a, ca, b, cb),
                  CompositeContainmentLegacy(a, ca, b, cb));
      }
    }
  }
}

// IND discovery fed by hash-first profiles/UCCs returns exactly the INDs of
// the all-legacy pipeline (legacy profiles, legacy UCC kernel), serially and
// with a thread pool.
TEST_P(KernelOracleTest, IndsMatchLegacyPipeline) {
  Rng rng(GetParam() * 49979687 + 5);
  std::vector<Table> tables;
  for (int t = 0; t < 3; ++t) {
    tables.push_back(RandomTable(rng, StrFormat("t%d", t)));
  }
  std::vector<TableProfile> profiles = ProfileTables(tables);
  std::vector<TableProfile> legacy_profiles;
  std::vector<std::vector<Ucc>> uccs;
  std::vector<std::vector<Ucc>> legacy_uccs;
  for (size_t i = 0; i < tables.size(); ++i) {
    legacy_profiles.push_back(ProfileTableLegacy(tables[i]));
    TableKeyView view(tables[i]);
    uccs.push_back(DiscoverUccs(tables[i], profiles[i], {}, &view));
    legacy_uccs.push_back(DiscoverUccsLegacy(tables[i], legacy_profiles[i]));
  }
  for (int threads : {1, 8}) {
    IndOptions opt;
    opt.threads = threads;
    std::vector<Ind> inds = DiscoverInds(tables, profiles, uccs, opt);
    std::vector<Ind> legacy_inds =
        DiscoverInds(tables, legacy_profiles, legacy_uccs, opt);
    EXPECT_EQ(IndsToString(inds), IndsToString(legacy_inds))
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelOracleTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// End-to-end candidate generation on the REAL corpus and on TPC-H ingested
// through the SQL-DDL path: profiles and candidates are bit-identical at 1,
// 2, and 8 threads, and equal to the all-legacy reference pipeline.
TEST(KernelOracleEndToEndTest, CorpusAndTpchIdenticalAcrossThreadsAndKernels) {
  CorpusOptions copt;
  copt.seed = 777;
  copt.cases_per_bucket = 1;
  RealBenchmark real = BuildRealBenchmark(copt);
  std::vector<std::vector<Table>> case_tables;
  for (const BiCase& c : real.cases) case_tables.push_back(c.tables);
  Rng tpch_rng(99);
  StatusOr<BiCase> tpch = GenerateTpchFromDdl(/*scale=*/0.5, tpch_rng);
  ASSERT_TRUE(tpch.ok()) << tpch.status().ToString();
  case_tables.push_back(tpch->tables);

  for (const std::vector<Table>& tables : case_tables) {
    CandidateGenOptions base;
    base.threads = 1;
    CandidateSet ref = GenerateCandidates(tables, base);
    for (int threads : {2, 8}) {
      CandidateGenOptions opt;
      opt.threads = threads;
      CandidateSet got = GenerateCandidates(tables, opt);
      ASSERT_EQ(got.profiles.size(), ref.profiles.size());
      for (size_t t = 0; t < ref.profiles.size(); ++t) {
        ASSERT_EQ(got.profiles[t].columns.size(),
                  ref.profiles[t].columns.size());
        for (size_t c = 0; c < ref.profiles[t].columns.size(); ++c) {
          ExpectProfilesIdentical(got.profiles[t].columns[c],
                                  ref.profiles[t].columns[c]);
        }
        EXPECT_EQ(UccsToString(got.uccs[t]), UccsToString(ref.uccs[t]));
      }
      EXPECT_EQ(CandidatesToString(got.candidates),
                CandidatesToString(ref.candidates))
          << "threads=" << threads;
    }
    // All-legacy reference: legacy profiles + legacy UCC kernel feeding the
    // same IND scan must yield the same discovery result.
    std::vector<TableProfile> legacy_profiles;
    std::vector<std::vector<Ucc>> legacy_uccs;
    for (const Table& t : tables) {
      legacy_profiles.push_back(ProfileTableLegacy(t));
      legacy_uccs.push_back(DiscoverUccsLegacy(t, legacy_profiles.back()));
    }
    for (size_t t = 0; t < tables.size(); ++t) {
      ASSERT_EQ(legacy_profiles[t].columns.size(),
                ref.profiles[t].columns.size());
      for (size_t c = 0; c < ref.profiles[t].columns.size(); ++c) {
        ExpectProfilesIdentical(legacy_profiles[t].columns[c],
                                ref.profiles[t].columns[c]);
      }
      EXPECT_EQ(UccsToString(legacy_uccs[t]), UccsToString(ref.uccs[t]));
    }
    IndOptions iopt;
    iopt.threads = 1;
    EXPECT_EQ(IndsToString(DiscoverInds(tables, legacy_profiles, legacy_uccs,
                                        iopt)),
              IndsToString(DiscoverInds(tables, ref.profiles, ref.uccs,
                                        iopt)));
  }
}

// Partition-refinement lattice edge cases. Each runs DiscoverUccs without a
// view (ids from transient per-column views, the delta path) and with a
// prebuilt view (the cold path), and requires both to equal the legacy
// string-set lattice. Returns the legacy result for shape assertions.
std::string ExpectLatticeMatchesLegacy(const Table& t, const UccOptions& opt) {
  TableProfile profile = ProfileTable(t);
  std::string legacy = UccsToString(DiscoverUccsLegacy(t, profile, opt));
  TableKeyView view(t);
  EXPECT_EQ(UccsToString(DiscoverUccs(t, profile, opt)), legacy) << t.name();
  EXPECT_EQ(UccsToString(DiscoverUccs(t, profile, opt, &view)), legacy)
      << t.name();
  return legacy;
}

std::vector<std::string> Cells(size_t rows,
                               const std::function<std::string(size_t)>& f) {
  std::vector<std::string> out;
  for (size_t r = 0; r < rows; ++r) out.push_back(f(r));
  return out;
}

// No row is non-null in both a and b, so {a, b} has an empty partition and
// still is not a key; {a, c} and {b, c} are keys over their complete rows.
TEST(KernelOraclePliTest, CandidatesWithoutCompleteRows) {
  const size_t n = 40;
  Table t = MakeTable(
      "nulls",
      {{"a", Cells(n, [](size_t r) {
          return r % 2 == 0 ? std::to_string(r / 4) : std::string();
        })},
       {"b", Cells(n, [](size_t r) {
          return r % 2 == 1 ? std::to_string(r / 4) : std::string();
        })},
       {"c", Cells(n, [](size_t r) { return std::to_string(r % 3); })}});
  UccOptions opt;
  opt.min_distinct_ratio = 0.0;
  EXPECT_EQ(ExpectLatticeMatchesLegacy(t, opt), "0,2,;1,2,;");
  EXPECT_FALSE(IsUniqueCombinationLegacy(t, {0, 1}));

  // Randomized: mostly-null adversarial columns, full lattice.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 7727 + 11);
    size_t rows = 2 + rng.NextBelow(50);
    std::vector<std::pair<std::string, std::vector<std::string>>> cols;
    for (size_t c = 0; c < 5; ++c) {
      std::vector<std::string> cells = RandomCells(rng, rows);
      for (std::string& cell : cells) {
        if (rng.NextBelow(2) == 0) cell.clear();
      }
      cols.emplace_back(StrFormat("c%zu", c), std::move(cells));
    }
    ExpectLatticeMatchesLegacy(MakeTable(StrFormat("sparse%llu",
                                                   (unsigned long long)seed),
                                         cols),
                               opt);
  }
}

// Low-cardinality columns: every level-1 partition is a handful of clusters
// holding almost every row, and the only key appears at arity 3.
TEST(KernelOraclePliTest, LowCardinalityLargeClusters) {
  const size_t n = 3000;
  Rng rng(17);
  std::vector<std::string> noise = Cells(n, [&](size_t r) {
    return r % 10 == 0 ? std::string() : std::to_string(rng.NextBelow(4));
  });
  Table t = MakeTable(
      "clusters",
      {{"x", Cells(n, [](size_t r) { return std::to_string(r % 60); })},
       {"y", Cells(n, [](size_t r) { return std::to_string(r / 60 % 25); })},
       {"z", Cells(n, [](size_t r) { return std::to_string(r / 1500); })},
       {"noise", noise},
       {"flag", Cells(n, [](size_t r) { return r % 2 ? "t" : "f"; })}});
  UccOptions opt;
  opt.min_distinct_ratio = 0.0;
  // {x, y, z} is the key (60 * 25 * 2 = 3000 rows); no pair is.
  std::string legacy = ExpectLatticeMatchesLegacy(t, opt);
  EXPECT_NE(legacy.find("0,1,2,;"), std::string::npos) << legacy;
}

// The max_candidates cutoff lands on the same candidate: every prefix of
// the lattice equals the legacy prefix.
TEST(KernelOraclePliTest, TruncatedLattice) {
  Rng rng(23);
  const size_t n = 200;
  auto random = [&](size_t domain) {
    return Cells(n,
                 [&](size_t) { return std::to_string(rng.NextBelow(domain)); });
  };
  // {c1, c3} is a key at arity 2; the random columns add arity-3 candidates
  // around it.
  std::vector<std::pair<std::string, std::vector<std::string>>> cols = {
      {"c0", random(8)},
      {"c1", Cells(n, [](size_t r) { return std::to_string(r % 20); })},
      {"c2", random(12)},
      {"c3", Cells(n, [](size_t r) { return std::to_string(r / 20); })},
      {"c4", random(15)},
      {"c5", Cells(n, [](size_t r) { return std::to_string(r * 7 % 25); })},
      {"c6", random(30)}};
  Table t = MakeTable("truncated", cols);
  UccOptions opt;
  opt.min_distinct_ratio = 0.0;
  std::string full = ExpectLatticeMatchesLegacy(t, opt);
  bool truncated = false;
  for (size_t limit = 0; limit <= 60; ++limit) {
    opt.max_candidates = limit;
    if (ExpectLatticeMatchesLegacy(t, opt) != full) truncated = true;
  }
  EXPECT_TRUE(truncated);
}

// Arity 4: the key {c2, c3, c5, c7} over 210 rows exists only at the fourth
// level (Chinese remainder theorem), so the prefix stack is three deep.
TEST(KernelOraclePliTest, MaxArityFour) {
  const size_t n = 210;
  Rng rng(29);
  Table t = MakeTable(
      "arity4",
      {{"c2", Cells(n, [](size_t r) { return std::to_string(r % 2); })},
       {"c3", Cells(n, [](size_t r) { return std::to_string(r % 3); })},
       {"c5", Cells(n, [](size_t r) { return std::to_string(r % 5); })},
       {"c7", Cells(n, [](size_t r) { return std::to_string(r % 7); })},
       {"r", Cells(n, [&](size_t) {
          return std::to_string(rng.NextBelow(9));
        })}});
  UccOptions opt;
  opt.min_distinct_ratio = 0.0;
  opt.max_arity = 4;
  std::string legacy = ExpectLatticeMatchesLegacy(t, opt);
  EXPECT_NE(legacy.find("0,1,2,3,;"), std::string::npos) << legacy;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng table_rng(seed * 15485863 + 31);
    ExpectLatticeMatchesLegacy(RandomTable(table_rng, "r4"), opt);
  }
}

// TPC-H via DDL at scale 2: lineitem's arity-3 lattice and partsupp's
// composite key, per table and through GenerateCandidates at 1/2/8 threads.
TEST(KernelOraclePliTest, TpchScaleTwoLattice) {
  Rng rng(41);
  StatusOr<BiCase> tpch = GenerateTpchFromDdl(/*scale=*/2.0, rng);
  ASSERT_TRUE(tpch.ok()) << tpch.status().ToString();
  std::vector<std::string> legacy;
  for (const Table& t : tpch->tables) {
    legacy.push_back(ExpectLatticeMatchesLegacy(t, UccOptions{}));
  }
  for (int threads : {1, 2, 8}) {
    CandidateGenOptions opt;
    opt.threads = threads;
    CandidateSet got = GenerateCandidates(tpch->tables, opt);
    ASSERT_EQ(got.uccs.size(), legacy.size());
    for (size_t t = 0; t < legacy.size(); ++t) {
      EXPECT_EQ(UccsToString(got.uccs[t]), legacy[t])
          << tpch->tables[t].name() << " threads=" << threads;
    }
  }
}

// The DDL-ingested TPC-H case has the expected shape: 8 tables, 8 declared
// FK joins including the composite (l_partkey,l_suppkey) -> partsupp, the
// fixed-size region/nation dimensions, and a parseable embedded script.
TEST(TpchDdlTest, GeneratesExpectedShape) {
  Rng rng(5);
  StatusOr<BiCase> c = GenerateTpchFromDdl(/*scale=*/0.25, rng);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_EQ(c->tables.size(), 8u);
  EXPECT_EQ(c->tables[0].name(), "region");
  EXPECT_EQ(c->tables[0].num_rows(), 5u);
  EXPECT_EQ(c->tables[1].name(), "nation");
  EXPECT_EQ(c->tables[1].num_rows(), 25u);
  EXPECT_EQ(c->tables[7].name(), "lineitem");
  EXPECT_EQ(c->tables[7].num_columns(), 16u);
  EXPECT_EQ(c->ground_truth.joins.size(), 8u);
  bool composite = false;
  for (const Join& join : c->ground_truth.joins) {
    if (join.from.columns.size() == 2) composite = true;
  }
  EXPECT_TRUE(composite);
  // The partsupp composite key is genuinely unique (cross-product keys).
  const Table& partsupp = c->tables[5];
  EXPECT_EQ(partsupp.name(), "partsupp");
  EXPECT_TRUE(IsUniqueCombinationLegacy(partsupp, {0, 1}));
}

// The canonical double key is produced via std::to_chars(general, 12), which
// the standard specifies as printf %.12g output; pin that equivalence (and
// KeyAt/key-view agreement) against a literal snprintf reference across
// random bit patterns and rendering edge cases, so a libstdc++ deviation
// would surface here instead of as a silent content-hash change.
TEST(KernelOracleKeyTest, DoubleKeysMatchSnprintfReference) {
  Rng rng(99);
  std::vector<double> values = {0.5,    -0.5,     0.1,     1.0 / 3.0,
                                2.5e-5, 1e300,    -1e-300, 5e-324,
                                1e15 + 0.5,       123456.789012345,
                                1.7976931348623157e308,    2.000000000001};
  for (int i = 0; i < 20000; ++i) {
    uint64_t bits = rng.Next();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) values.push_back(v);
  }
  Column col("d");
  for (double v : values) col.AppendDouble(v);
  ColumnKeyView view(col);
  std::string key;
  char buf[64];
  for (size_t i = 0; i < values.size(); ++i) {
    double v = values[i];
    std::string expect;
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
      expect = std::to_string(static_cast<int64_t>(v));
    } else {
      int n = std::snprintf(buf, sizeof(buf), "%.12g", v);
      expect.assign(buf, static_cast<size_t>(n));
    }
    ASSERT_TRUE(col.KeyAt(i, &key));
    EXPECT_EQ(key, expect) << "v=" << v;
    EXPECT_EQ(std::string(view.key(i)), expect) << "v=" << v;
  }
}


// Real 64-bit collisions: two pairs of distinct strings that share a
// StableHash64 (FNV-1a), found by a distinguished-point search. The hash
// kernels must keep colliding values apart wherever they count values.
constexpr const char* kCollideA = "8a2fedc9e1521b8d";
constexpr const char* kCollideX = "0aa6c8b27dfed25f";
constexpr const char* kCollideY = "1406bf6f34a3a42d";
constexpr const char* kCollideZ = "e914fe83ce597eb8";

// A string column of `cells`; an empty cell is a null.
Column StringColumn(const std::vector<std::string>& cells) {
  Column col("v", ValueType::kString);
  for (const std::string& cell : cells) {
    if (cell.empty()) {
      col.AppendNull();
    } else {
      col.AppendString(cell);
    }
  }
  return col;
}

TEST(KernelOracleCollisionTest, PairsShareAHash) {
  EXPECT_EQ(StableHash64(kCollideA), 0xb9151b4bb1f67fc7ULL);
  EXPECT_EQ(StableHash64(kCollideX), 0xb9151b4bb1f67fc7ULL);
  EXPECT_EQ(StableHash64(kCollideY), 0xca61f88fa8e1eda8ULL);
  EXPECT_EQ(StableHash64(kCollideZ), 0xca61f88fa8e1eda8ULL);
}

TEST(KernelOracleCollisionTest, ProfileMatchesLegacyOracle) {
  Column col = StringColumn({kCollideZ, "b", kCollideA, "", kCollideX,
                             kCollideY, kCollideA, kCollideZ, "b", kCollideX});
  ColumnProfile p = ProfileColumn(col);
  ExpectProfilesIdentical(p, ProfileColumnLegacy(col));
  EXPECT_EQ(p.num_distinct, 5u);
  EXPECT_EQ(p.distinct_hashes.size(), 3u);
  EXPECT_FALSE(p.IsUnique());
  // Both collisions are recorded, each at its first occurrence: x (row 4)
  // behind a (row 2), y (row 5) behind z (row 0).
  EXPECT_EQ(p.collision_hashes,
            (std::vector<uint64_t>{0xb9151b4bb1f67fc7ULL,
                                   0xca61f88fa8e1eda8ULL}));
  EXPECT_EQ(p.collision_rows, (std::vector<uint32_t>{4, 5}));
}

TEST(KernelOracleCollisionTest, ValueIdsKeepCollidingRowsApart) {
  Column col = StringColumn({kCollideA, kCollideX, kCollideA, kCollideY,
                             kCollideZ, kCollideX, kCollideZ});
  std::vector<uint32_t> ids;
  ColumnValueIds(ColumnKeyView(col), &ids);
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 0, 3, 4, 1, 4}));
}

TEST(KernelOracleCollisionTest, CollidingPairIsAKey) {
  Table pair("pair");
  Column& v = pair.AddColumn("v", ValueType::kString);
  v.AppendString(kCollideA);
  v.AppendString(kCollideX);
  TableProfile profile = ProfileTable(pair);
  EXPECT_TRUE(profile.columns[0].IsUnique());
  EXPECT_EQ(UccsToString(DiscoverUccs(pair, profile)), "0,;");

  // At arity 2 the key needs a and x told apart: (a, k1), (x, k1), (a, k2),
  // (x, k2) are four distinct tuples.
  Table grid("grid");
  Column& g = grid.AddColumn("v", ValueType::kString);
  Column& k = grid.AddColumn("k", ValueType::kString);
  for (const char* key : {"k1", "k2"}) {
    for (const char* value : {kCollideA, kCollideX}) {
      g.AppendString(value);
      k.AppendString(key);
    }
  }
  UccOptions opt;
  opt.min_distinct_ratio = 0.0;
  EXPECT_EQ(ExpectLatticeMatchesLegacy(grid, opt), "0,1,;");
}

// The merge tells an appended key that collides with an old one from a
// repeat of it. Old rows [a, x, a, c, y], appended [b, a, d, b, z]: 7
// distinct values over 5 hashes, z colliding with the old y across the
// batches. Every other split point of the same column must merge to the
// same profile too.
TEST(KernelOracleCollisionTest, MergeAcrossBatches) {
  const std::vector<std::string> cells = {kCollideA, kCollideX, kCollideA,
                                          "c",       kCollideY, "b",
                                          kCollideA, "d",       "b",
                                          kCollideZ};
  Column full = StringColumn(cells);
  ColumnProfile fresh = ProfileColumn(full);
  ExpectProfilesIdentical(fresh, ProfileColumnLegacy(full));
  EXPECT_EQ(fresh.num_distinct, 7u);
  EXPECT_EQ(fresh.distinct_hashes.size(), 5u);
  EXPECT_EQ(fresh.collision_rows, (std::vector<uint32_t>{1, 9}));
  for (size_t split = 0; split <= cells.size(); ++split) {
    SCOPED_TRACE("split " + std::to_string(split));
    Column old_rows = StringColumn(
        std::vector<std::string>(cells.begin(), cells.begin() + split));
    ExpectProfilesIdentical(
        MergeAppendedColumnProfile(ProfileColumn(old_rows), full), fresh);
  }
}

}  // namespace
}  // namespace autobi

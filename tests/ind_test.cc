#include "profile/ind.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "oracle/profile_oracle.h"
#include "tests/test_util.h"

namespace autobi {
namespace {

// Convenience: run discovery with profiling + UCCs.
std::vector<Ind> Discover(const std::vector<Table>& tables,
                          const IndOptions& options = {}) {
  auto profiles = ProfileTables(tables);
  std::vector<std::vector<Ucc>> uccs;
  for (size_t i = 0; i < tables.size(); ++i) {
    uccs.push_back(DiscoverUccs(tables[i], profiles[i]));
  }
  return DiscoverInds(tables, profiles, uccs, options);
}

TEST(IndTest, FindsFullInclusion) {
  std::vector<Table> tables;
  tables.push_back(MakeTable(
      "fact", {{"cust_id", {"1", "2", "2", "3", "1"}}}));
  tables.push_back(MakeTable("dim", {{"id", SeqCells(1, 5)}}));
  std::vector<Ind> inds = Discover(tables);
  ASSERT_FALSE(inds.empty());
  bool found = false;
  for (const Ind& ind : inds) {
    if (ind.dependent.table == 0 && ind.referenced.table == 1) {
      found = true;
      EXPECT_DOUBLE_EQ(ind.containment, 1.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(IndTest, RespectsContainmentThreshold) {
  std::vector<Table> tables;
  // Only 2 of 4 distinct fact values appear in the dim.
  tables.push_back(MakeTable("fact", {{"x", {"1", "2", "8", "9"}}}));
  tables.push_back(MakeTable("dim", {{"id", SeqCells(1, 4)}}));
  IndOptions strict;
  strict.min_containment = 0.9;
  EXPECT_TRUE(Discover(tables, strict).empty());
  IndOptions loose;
  loose.min_containment = 0.4;
  EXPECT_FALSE(Discover(tables, loose).empty());
}

TEST(IndTest, ReferencedSideMustBeKeyLike) {
  std::vector<Table> tables;
  tables.push_back(MakeTable("a", {{"x", {"1", "2"}}}));
  tables.push_back(MakeTable("b", {{"y", {"1", "1", "2", "2", "1"}}}));
  // b.y has distinct ratio 0.4 < 0.9: no IND a.x ⊆ b.y.
  for (const Ind& ind : Discover(tables)) {
    EXPECT_NE(ind.referenced.table, 1);
  }
}

TEST(IndTest, NumericRangeScreenDoesNotDropOverlapping) {
  std::vector<Table> tables;
  tables.push_back(MakeTable("a", {{"x", {"5", "6"}}}));
  tables.push_back(MakeTable("b", {{"y", SeqCells(1, 10)}}));
  EXPECT_FALSE(Discover(tables).empty());
}

TEST(IndTest, DisjointRangesProduceNothing) {
  std::vector<Table> tables;
  tables.push_back(MakeTable("a", {{"x", {"100", "200"}}}));
  tables.push_back(MakeTable("b", {{"y", SeqCells(1, 10)}}));
  EXPECT_TRUE(Discover(tables).empty());
}

TEST(CompositeContainmentTest, ExactTupleMatching) {
  Table a = MakeTable("a", {{"p", {"1", "1", "2"}}, {"q", {"7", "8", "7"}}});
  Table b = MakeTable("b", {{"p", {"1", "1", "2"}}, {"q", {"7", "8", "8"}}});
  // Distinct tuples of a: (1,7),(1,8),(2,7); of b: (1,7),(1,8),(2,8).
  EXPECT_NEAR(CompositeContainment(a, {0, 1}, b, {0, 1}), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(CompositeContainment(a, {0, 1}, a, {0, 1}), 1.0);
}

TEST(IndTest, CompositeIndAgainstCompositeUcc) {
  // Referenced table keyed by (a,b); dependent tuples drawn from it.
  std::vector<Table> tables;
  tables.push_back(MakeTable(
      "fact",
      {{"fa", {"1", "1", "2", "2", "1"}}, {"fb", {"1", "2", "1", "2", "1"}}}));
  tables.push_back(MakeTable(
      "link", {{"a", {"1", "1", "2", "2"}}, {"b", {"1", "2", "1", "2"}}}));
  IndOptions opt;
  opt.min_referenced_distinct_ratio = 0.9;
  std::vector<Ind> inds = Discover(tables, opt);
  bool composite_found = false;
  for (const Ind& ind : inds) {
    if (ind.IsComposite() && ind.dependent.table == 0 &&
        ind.referenced.table == 1) {
      composite_found = true;
      EXPECT_EQ(ind.dependent.columns.size(), 2u);
      EXPECT_DOUBLE_EQ(ind.containment, 1.0);
    }
  }
  EXPECT_TRUE(composite_found);
}

// Regression (PR 2 tentpole cache): the referenced composite tuple-hash set
// is built at most once per (table, UCC) even when several dependent tables
// probe the same UCC — before the cache it was rebuilt on every probe.
TEST(IndTest, CompositeReferencedSetBuiltOncePerUcc) {
  // dim's columns are individually non-unique; (a,b) is its only (minimal,
  // composite) UCC. The three fact tables have duplicated rows, so they have
  // no UCCs and are never referenced sides themselves.
  std::vector<Table> tables;
  tables.push_back(MakeTable(
      "dim", {{"a", {"1", "1", "2", "2"}}, {"b", {"1", "2", "1", "2"}}}));
  for (const char* name : {"f1", "f2", "f3"}) {
    tables.push_back(MakeTable(
        name, {{"fa", {"1", "1", "2", "2"}}, {"fb", {"1", "1", "2", "2"}}}));
  }
  auto profiles = ProfileTables(tables);
  std::vector<std::vector<Ucc>> uccs;
  for (size_t i = 0; i < tables.size(); ++i) {
    uccs.push_back(DiscoverUccs(tables[i], profiles[i]));
  }
  ASSERT_EQ(uccs[0].size(), 1u);
  ASSERT_EQ(uccs[0][0].columns.size(), 2u);

  for (int threads : {1, 8}) {
    IndOptions opt;
    opt.threads = threads;
    IndStats stats;
    DiscoverInds(tables, profiles, uccs, opt, &stats);
    // Every fact table probed dim's (a,b) UCC...
    EXPECT_GE(stats.composite_probes, 3u) << "threads=" << threads;
    // ...but the referenced tuple-hash set was constructed exactly once.
    EXPECT_EQ(stats.composite_sets_built, 1u) << "threads=" << threads;
    EXPECT_EQ(stats.composite_budget_truncations, 0u);
  }
}

// Regression (PR 2 budget fix): exhausting max_composite_probes terminates
// ALL composite probing for the pair (it used to silently continue with the
// next UCC) and the truncation is recorded, not silent.
TEST(IndTest, CompositeBudgetTerminatesPairAndRecordsTruncation) {
  // dim has three minimal composite UCCs: (a,b), (a,c), (b,c); each admits
  // two source assignments from fact's (fa, fb).
  std::vector<Table> tables;
  tables.push_back(MakeTable("dim", {{"a", {"1", "1", "2", "2"}},
                                     {"b", {"1", "2", "1", "2"}},
                                     {"c", {"1", "2", "2", "1"}}}));
  tables.push_back(MakeTable(
      "fact", {{"fa", {"1", "1", "2", "2"}}, {"fb", {"1", "1", "2", "2"}}}));
  auto profiles = ProfileTables(tables);
  std::vector<std::vector<Ucc>> uccs;
  for (size_t i = 0; i < tables.size(); ++i) {
    uccs.push_back(DiscoverUccs(tables[i], profiles[i]));
  }
  ASSERT_EQ(uccs[0].size(), 3u);

  IndOptions opt;
  opt.max_composite_probes = 1;
  IndStats stats;
  DiscoverInds(tables, profiles, uccs, opt, &stats);
  // Exactly one probe executed, then the pair's budget cut off everything —
  // including the two untouched UCCs (5 enumerable assignments remained).
  EXPECT_EQ(stats.composite_probes, 1u);
  EXPECT_EQ(stats.composite_budget_truncations, 1u);

  // With a budget that covers the space there is no truncation.
  IndOptions roomy;
  roomy.max_composite_probes = 64;
  IndStats full;
  DiscoverInds(tables, profiles, uccs, roomy, &full);
  EXPECT_EQ(full.composite_budget_truncations, 0u);
  EXPECT_EQ(full.composite_probes, 6u);
}

// Property test: discovered unary INDs exactly match a naive O(n^2)
// reference computation over random tables.
class IndPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndPropertyTest, MatchesNaiveReference) {
  Rng rng(GetParam());
  // Random small tables with int columns over random ranges.
  std::vector<Table> tables;
  for (int t = 0; t < 3; ++t) {
    std::vector<std::pair<std::string, std::vector<std::string>>> cols;
    size_t ncols = 1 + rng.NextBelow(3);
    // One row count per table: Table's contract requires equal-length
    // columns (Table::Validate), and the columnar key view checks it.
    size_t rows = 5 + rng.NextBelow(20);
    for (size_t c = 0; c < ncols; ++c) {
      std::vector<std::string> cells;
      long lo = long(rng.NextBelow(5));
      long hi = lo + 3 + long(rng.NextBelow(25));
      for (size_t r = 0; r < rows; ++r) {
        cells.push_back(std::to_string(rng.NextInt(lo, hi)));
      }
      cols.emplace_back(StrFormat("c%zu", c), cells);
    }
    tables.push_back(MakeTable(StrFormat("t%d", t), cols));
  }
  IndOptions opt;
  opt.max_arity = 1;  // Compare unary only.
  std::vector<Ind> inds = Discover(tables, opt);

  // Naive reference.
  auto profiles = ProfileTables(tables);
  size_t expected = 0;
  for (size_t ti = 0; ti < tables.size(); ++ti) {
    for (size_t tj = 0; tj < tables.size(); ++tj) {
      if (ti == tj) continue;
      for (size_t a = 0; a < tables[ti].num_columns(); ++a) {
        for (size_t bcol = 0; bcol < tables[tj].num_columns(); ++bcol) {
          const ColumnProfile& pa = profiles[ti].columns[a];
          const ColumnProfile& pb = profiles[tj].columns[bcol];
          if (pa.num_distinct < kMinDependentDistinct) continue;
          if (pb.non_null_count == 0 ||
              pb.distinct_ratio < opt.min_referenced_distinct_ratio) {
            continue;
          }
          if (pa.non_null_count == 0) continue;
          // Row-weighted reference, matching Containment's contract,
          // built from the cells.
          DistinctKeyMap ma = BuildDistinctKeyMap(tables[ti].column(a));
          DistinctKeyMap mb = BuildDistinctKeyMap(tables[tj].column(bcol));
          int64_t hits = 0;
          for (const auto& [key, count] : ma) {
            if (mb.count(key)) hits += count;
          }
          double containment = double(hits) / double(pa.non_null_count);
          if (containment >= opt.min_containment) ++expected;
        }
      }
    }
  }
  EXPECT_EQ(inds.size(), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

}  // namespace
}  // namespace autobi

// Property tests for the hash-sketch profiling layer (profile/sketch.h):
// the sorted-merge Containment must equal the legacy string-map
// implementation on adversarial randomized columns (nulls, duplicates,
// escape-worthy values), the composite tuple-hash containment must equal a
// string-set oracle, and the blocking-screened DiscoverInds must return
// byte-identical IND and candidate lists on the synthetic REAL corpus with
// the screen on and off, at 1 and 8 threads.

#include "profile/sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "core/candidates.h"
#include "oracle/profile_oracle.h"
#include "profile/column_profile.h"
#include "profile/ind.h"
#include "profile/ucc.h"
#include "synth/corpus.h"
#include "tests/test_util.h"

namespace autobi {
namespace {

// Values chosen to stress canonicalization: separator and escape characters,
// empty strings, numeric lookalikes, duplicates.
const char* kValuePool[] = {
    "a",      "b",    "a|b",   "a\\|b", "x\\y",  "p|q\\", "\\",
    "|",      "",     "dup",   "dup",   "3",     "3.0",   "-7",
    "0.5",    "id_1", "id_2",  "id_10", "Id_1",  " id",   "id ",
    "\\|\\|", "||",   "\\\\|", "cafe",  "Cafe'", "0",     "00",
};

Column RandomColumn(Rng* rng, size_t rows, double null_prob) {
  Column col("c", ValueType::kString);
  for (size_t r = 0; r < rows; ++r) {
    if (rng->NextBool(null_prob)) {
      col.AppendNull();
    } else {
      col.AppendString(kValuePool[rng->NextBelow(std::size(kValuePool))]);
    }
  }
  return col;
}

TEST(SketchTest, StableHashIsPureAndOrderFree) {
  EXPECT_EQ(StableHash64("abc"), StableHash64(std::string("abc")));
  EXPECT_NE(StableHash64("ab|c"), StableHash64("a|bc"));
  EXPECT_NE(StableHash64(""), StableHash64("\\"));
  // Monotone unit mapping.
  EXPECT_LT(HashToUnitInterval(1), HashToUnitInterval(uint64_t{1} << 60));
}

TEST(SketchTest, ProfileHashVectorsMirrorDistinctKeys) {
  Rng rng(7);
  Column col = RandomColumn(&rng, 200, 0.1);
  ColumnProfile p = ProfileColumn(col);
  ASSERT_EQ(p.distinct_hashes.size(), p.distinct_counts.size());
  ASSERT_EQ(p.distinct_offsets.size(), p.distinct_hashes.size() + 1);
  // No collisions among the pool values: vector size == exact distinct
  // count, counts sum to the non-null row count, hashes strictly increasing.
  EXPECT_EQ(p.distinct_hashes.size(), p.num_distinct);
  int64_t total = 0;
  for (int32_t c : p.distinct_counts) total += c;
  EXPECT_EQ(total, int64_t(p.non_null_count));
  for (size_t i = 1; i < p.distinct_hashes.size(); ++i) {
    EXPECT_LT(p.distinct_hashes[i - 1], p.distinct_hashes[i]);
  }
  // Every pooled distinct key hashes to its own slot.
  for (size_t i = 0; i < p.distinct_hashes.size(); ++i) {
    EXPECT_EQ(StableHash64(p.distinct_key(i)), p.distinct_hashes[i]);
  }
}

// The tentpole exactness contract: hash-merge containment == string-map
// containment, bit for bit, on randomized adversarial columns.
class ContainmentEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ContainmentEquivalenceTest, HashMergeEqualsStringMap) {
  Rng rng(GetParam() * 2654435761ULL + 1);
  std::vector<ColumnProfile> profiles;
  for (int i = 0; i < 6; ++i) {
    size_t rows = 1 + rng.NextBelow(300);
    Column col = RandomColumn(&rng, rows, 0.15);
    profiles.push_back(ProfileColumn(col));
  }
  // Include an all-null and an empty column.
  Column empty("e", ValueType::kString);
  profiles.push_back(ProfileColumn(empty));
  Column nulls("n", ValueType::kString);
  for (int i = 0; i < 5; ++i) nulls.AppendNull();
  profiles.push_back(ProfileColumn(nulls));

  for (const ColumnProfile& a : profiles) {
    for (const ColumnProfile& b : profiles) {
      EXPECT_EQ(Containment(a, b), ContainmentViaStringMap(a, b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentEquivalenceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

// String-set oracle for composite containment, written independently of the
// production TupleKey/TupleHash code.
double CompositeContainmentOracle(const Table& ta, const std::vector<int>& ca,
                                  const Table& tb,
                                  const std::vector<int>& cb) {
  auto tuple_of = [](const Table& t, const std::vector<int>& cols, size_t r,
                     std::string* out) {
    out->clear();
    std::string cell;
    for (int c : cols) {
      if (!t.column(size_t(c)).KeyAt(r, &cell)) return false;
      for (char ch : cell) {
        if (ch == '|' || ch == '\\') out->push_back('\\');
        out->push_back(ch);
      }
      out->push_back('|');
    }
    return true;
  };
  std::unordered_set<std::string> referenced;
  std::string key;
  for (size_t r = 0; r < tb.num_rows(); ++r) {
    if (tuple_of(tb, cb, r, &key)) referenced.insert(key);
  }
  size_t total = 0, hits = 0;
  for (size_t r = 0; r < ta.num_rows(); ++r) {
    if (!tuple_of(ta, ca, r, &key)) continue;
    ++total;
    if (referenced.count(key)) ++hits;
  }
  return total == 0 ? 0.0 : double(hits) / double(total);
}

TEST_P(ContainmentEquivalenceTest, CompositeHashEqualsStringOracle) {
  Rng rng(GetParam() * 40503 + 11);
  auto random_table = [&](const char* name) {
    Table t(name);
    for (int c = 0; c < 2; ++c) {
      Column& col = t.AddColumn(StrFormat("c%d", c), ValueType::kString);
      for (int r = 0; r < 60; ++r) {
        if (rng.NextBool(0.1)) {
          col.AppendNull();
        } else {
          col.AppendString(kValuePool[rng.NextBelow(std::size(kValuePool))]);
        }
      }
    }
    return t;
  };
  Table a = random_table("a");
  Table b = random_table("b");
  std::vector<int> cols = {0, 1};
  EXPECT_EQ(CompositeContainment(a, cols, b, cols),
            CompositeContainmentOracle(a, cols, b, cols));
  EXPECT_EQ(CompositeContainment(b, cols, a, cols),
            CompositeContainmentOracle(b, cols, a, cols));
  EXPECT_DOUBLE_EQ(CompositeContainment(a, cols, a, cols), 1.0);
}

TEST(SketchTest, BlockingSkipsDisjointHighCardinalityPair) {
  // Two large key-like string columns with disjoint domains: blocking must
  // prune both ordered pairs — no exact merges, no active table pairs —
  // without changing the (empty) result.
  std::vector<std::string> va, vb;
  for (int i = 0; i < 3000; ++i) {
    va.push_back(StrFormat("a%d", i));
    vb.push_back(StrFormat("b%d", i));
  }
  std::vector<Table> tables;
  tables.push_back(MakeTable("ta", {{"k", va}}));
  tables.push_back(MakeTable("tb", {{"k", vb}}));
  auto profiles = ProfileTables(tables);
  std::vector<std::vector<Ucc>> uccs(2);

  IndOptions blocked;
  IndStats s_on;
  auto on = DiscoverInds(tables, profiles, uccs, blocked, &s_on);
  EXPECT_TRUE(on.empty());
  EXPECT_EQ(s_on.blocking.column_pairs_pruned, 2u);
  EXPECT_EQ(s_on.unary_exact_checks, 0u);
  EXPECT_EQ(s_on.blocking.table_pairs_active, 0u);
  EXPECT_EQ(s_on.pairs_scanned, 0u);

  IndOptions exhaustive;
  exhaustive.blocking.enabled = false;
  IndStats s_off;
  auto off = DiscoverInds(tables, profiles, uccs, exhaustive, &s_off);
  EXPECT_TRUE(off.empty());
  EXPECT_EQ(s_off.blocking.column_pairs_pruned, 0u);
  EXPECT_EQ(s_off.unary_exact_checks, 2u);
  EXPECT_EQ(s_off.pairs_scanned, 2u);
}

TEST(SketchTest, BlockingKeepsContainedHighCardinalityPair) {
  // A true FK -> PK inclusion over a large domain must survive blocking.
  std::vector<std::string> pk, fk;
  for (int i = 0; i < 4000; ++i) pk.push_back(StrFormat("k%d", i));
  Rng rng(3);
  for (int i = 0; i < 4000; ++i) {
    fk.push_back(StrFormat("k%d", int(rng.NextBelow(4000))));
  }
  std::vector<Table> tables;
  tables.push_back(MakeTable("fact", {{"fk", fk}}));
  tables.push_back(MakeTable("dim", {{"pk", pk}}));
  auto profiles = ProfileTables(tables);
  std::vector<std::vector<Ucc>> uccs(2);
  IndStats stats;
  auto inds = DiscoverInds(tables, profiles, uccs, IndOptions{}, &stats);
  ASSERT_EQ(inds.size(), 1u);
  EXPECT_DOUBLE_EQ(inds[0].containment, 1.0);
}

// --- Mergeable profile sketches (MergeAppendedColumnProfile) ---------------

// Copies the first `rows` cells of a column (same name and type).
Column PrefixColumn(const Column& col, size_t rows) {
  Column out(col.name(), col.type());
  for (size_t r = 0; r < rows; ++r) {
    if (col.IsNull(r)) {
      out.AppendNull();
    } else if (col.type() == ValueType::kInt) {
      out.AppendInt(col.Int(r));
    } else if (col.type() == ValueType::kDouble) {
      out.AppendDouble(col.Double(r));
    } else {
      out.AppendString(col.Str(r));
    }
  }
  return out;
}

// Every ColumnProfile field, bitwise — the merge contract is bit-identity
// with a from-scratch profile, not approximation.
void ExpectMergedEqualsFromScratch(const ColumnProfile& merged,
                                   const ColumnProfile& scratch) {
  EXPECT_EQ(merged.type, scratch.type);
  EXPECT_EQ(merged.row_count, scratch.row_count);
  EXPECT_EQ(merged.non_null_count, scratch.non_null_count);
  EXPECT_EQ(merged.num_distinct, scratch.num_distinct);
  EXPECT_EQ(merged.distinct_hashes, scratch.distinct_hashes);
  EXPECT_EQ(merged.distinct_counts, scratch.distinct_counts);
  EXPECT_EQ(merged.distinct_pool, scratch.distinct_pool);
  EXPECT_EQ(merged.distinct_offsets, scratch.distinct_offsets);
  EXPECT_EQ(merged.distinct_ratio, scratch.distinct_ratio);
  EXPECT_EQ(merged.is_numeric, scratch.is_numeric);
  EXPECT_EQ(merged.min_value, scratch.min_value);
  EXPECT_EQ(merged.max_value, scratch.max_value);
  EXPECT_EQ(merged.sorted_numeric_sample, scratch.sorted_numeric_sample);
  EXPECT_EQ(merged.avg_value_length, scratch.avg_value_length);
  EXPECT_EQ(merged.key_bytes, scratch.key_bytes);
  EXPECT_EQ(merged.collision_hashes, scratch.collision_hashes);
  EXPECT_EQ(merged.collision_keys, scratch.collision_keys);
}

// old-profile ∪ appended-delta == from-scratch, on adversarial randomized
// columns (separator/escape values, nulls, duplicates) at every split point
// flavor: empty prefix, empty delta, and interior splits.
class MergeEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergeEquivalenceTest, MergedProfileEqualsFromScratch) {
  Rng rng(GetParam() * 912839 + 7);
  size_t rows = 1 + rng.NextBelow(250);
  Column full = RandomColumn(&rng, rows, 0.15);
  ColumnProfile scratch = ProfileColumn(full);
  std::vector<size_t> splits = {0, rows, rows / 2, 1 + rng.NextBelow(rows)};
  for (size_t split : splits) {
    Column prefix = PrefixColumn(full, split);
    ColumnProfile old_profile = ProfileColumn(prefix);
    ColumnProfile merged = MergeAppendedColumnProfile(old_profile, full);
    ExpectMergedEqualsFromScratch(merged, scratch);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeEquivalenceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

TEST(SketchTest, MergeHandlesAllNullAndNumericColumns) {
  Column nulls("n", ValueType::kString);
  for (int i = 0; i < 8; ++i) nulls.AppendNull();
  ColumnProfile null_prefix = ProfileColumn(PrefixColumn(nulls, 3));
  ExpectMergedEqualsFromScratch(MergeAppendedColumnProfile(null_prefix, nulls),
                                ProfileColumn(nulls));

  Column ints("i", ValueType::kInt);
  for (int i = 0; i < 40; ++i) ints.AppendInt(i % 7);
  ColumnProfile int_prefix = ProfileColumn(PrefixColumn(ints, 25));
  ExpectMergedEqualsFromScratch(MergeAppendedColumnProfile(int_prefix, ints),
                                ProfileColumn(ints));

  Column dbl("d", ValueType::kDouble);
  for (int i = 0; i < 30; ++i) {
    if (i % 5 == 0) {
      dbl.AppendNull();
    } else {
      dbl.AppendDouble(i * 0.25);
    }
  }
  ColumnProfile dbl_prefix = ProfileColumn(PrefixColumn(dbl, 11));
  ExpectMergedEqualsFromScratch(MergeAppendedColumnProfile(dbl_prefix, dbl),
                                ProfileColumn(dbl));
}

TEST(SketchTest, MergeAppendedTableProfileMatchesProfileTable) {
  Rng rng(4242);
  Table full("t");
  for (int c = 0; c < 3; ++c) {
    Column& col = full.AddColumn(StrFormat("c%d", c), ValueType::kString);
    for (int r = 0; r < 120; ++r) {
      if (rng.NextBool(0.1)) {
        col.AppendNull();
      } else {
        col.AppendString(kValuePool[rng.NextBelow(std::size(kValuePool))]);
      }
    }
  }
  Table prefix("t");
  for (size_t c = 0; c < full.num_columns(); ++c) {
    const Column& src = full.column(c);
    Column& dst = prefix.AddColumn(src.name(), src.type());
    for (size_t r = 0; r < 70; ++r) {
      if (src.IsNull(r)) {
        dst.AppendNull();
      } else {
        dst.AppendString(src.Str(r));
      }
    }
  }
  TableProfile old_profile = ProfileTable(prefix);
  TableProfile merged = MergeAppendedTableProfile(old_profile, full);
  TableProfile scratch = ProfileTable(full);
  ASSERT_EQ(merged.columns.size(), scratch.columns.size());
  EXPECT_EQ(merged.row_count, scratch.row_count);
  for (size_t c = 0; c < merged.columns.size(); ++c) {
    ExpectMergedEqualsFromScratch(merged.columns[c], scratch.columns[c]);
  }
}

// --- Content-hash identities the schema diff depends on --------------------

TEST(SketchTest, PrefixHashEqualsHashOfTruncatedColumn) {
  Rng rng(77);
  Column full = RandomColumn(&rng, 90, 0.2);
  EXPECT_EQ(ColumnContentHashPrefix(full, full.size()),
            ColumnContentHash(full));
  for (size_t rows : {size_t{0}, size_t{1}, size_t{45}, size_t{89}}) {
    EXPECT_EQ(ColumnContentHashPrefix(full, rows),
              ColumnContentHash(PrefixColumn(full, rows)))
        << rows;
  }
}

TEST(SketchTest, CellsHashIgnoresNamesButNotCellsOrTypes) {
  Rng rng(78);
  Column a = RandomColumn(&rng, 60, 0.1);
  Column renamed("other_name", a.type());
  for (size_t r = 0; r < a.size(); ++r) {
    if (a.IsNull(r)) {
      renamed.AppendNull();
    } else {
      renamed.AppendString(a.Str(r));
    }
  }
  EXPECT_EQ(ColumnCellsHash(a), ColumnCellsHash(renamed));
  EXPECT_NE(ColumnContentHash(a), ColumnContentHash(renamed));

  Column ints("c", ValueType::kInt);
  ints.AppendInt(3);
  Column strs("c", ValueType::kString);
  strs.AppendString("3");
  EXPECT_NE(ColumnCellsHash(ints), ColumnCellsHash(strs));
}

// --- Corpus-level identity guards -----------------------------------------

std::string SerializeInds(const std::vector<Ind>& inds) {
  std::string out;
  for (const Ind& ind : inds) {
    out += StrFormat("%d:", ind.dependent.table);
    for (int c : ind.dependent.columns) out += StrFormat("%d,", c);
    out += StrFormat("<=%d:", ind.referenced.table);
    for (int c : ind.referenced.columns) out += StrFormat("%d,", c);
    out += StrFormat("@%.17g\n", ind.containment);
  }
  return out;
}

std::string SerializeCandidates(const std::vector<JoinCandidate>& cands) {
  std::string out;
  for (const JoinCandidate& c : cands) {
    out += StrFormat("%d:", c.src.table);
    for (int col : c.src.columns) out += StrFormat("%d,", col);
    out += StrFormat("->%d:", c.dst.table);
    for (int col : c.dst.columns) out += StrFormat("%d,", col);
    out += StrFormat("@%.17g/%.17g/%d\n", c.left_containment,
                     c.right_containment, c.one_to_one ? 1 : 0);
  }
  return out;
}

// On the synthetic corpus: (1) hash-merge containment equals the string-map
// reference on every cross-table column pair, and (2) the composite-probe
// budget is never hit (so the pair-wide budget-stop semantics cannot have
// changed any corpus result).
TEST(SketchCorpusTest, ContainmentMatchesReferenceOnTrainingCorpus) {
  CorpusOptions opt;
  opt.seed = 5150;
  opt.training_cases = 8;
  std::vector<BiCase> cases = BuildTrainingCorpus(opt);
  ASSERT_FALSE(cases.empty());
  for (const BiCase& bi_case : cases) {
    auto profiles = ProfileTables(bi_case.tables);
    for (size_t ti = 0; ti < profiles.size(); ++ti) {
      for (size_t tj = 0; tj < profiles.size(); ++tj) {
        if (ti == tj) continue;
        for (const ColumnProfile& pa : profiles[ti].columns) {
          for (const ColumnProfile& pb : profiles[tj].columns) {
            ASSERT_EQ(Containment(pa, pb), ContainmentViaStringMap(pa, pb))
                << bi_case.name;
          }
        }
      }
    }
    std::vector<std::vector<Ucc>> uccs;
    for (size_t i = 0; i < bi_case.tables.size(); ++i) {
      uccs.push_back(DiscoverUccs(bi_case.tables[i], profiles[i]));
    }
    IndStats stats;
    DiscoverInds(bi_case.tables, profiles, uccs, IndOptions{}, &stats);
    EXPECT_EQ(stats.composite_budget_truncations, 0u) << bi_case.name;
  }
}

// Blocking's default probe budgets must not change a single IND or
// candidate on the REAL corpus, at 1 and 8 threads (blocked results are
// additionally thread-count invariant by construction).
TEST(SketchCorpusTest, BlockingIdenticalIndsAndCandidatesOnRealCorpus) {
  CorpusOptions opt;
  opt.seed = 9091;
  opt.cases_per_bucket = 1;
  RealBenchmark real = BuildRealBenchmark(opt);
  ASSERT_FALSE(real.cases.empty());
  size_t screened_total = 0;
  for (const BiCase& bi_case : real.cases) {
    auto profiles = ProfileTables(bi_case.tables);
    std::vector<std::vector<Ucc>> uccs;
    for (size_t i = 0; i < bi_case.tables.size(); ++i) {
      uccs.push_back(DiscoverUccs(bi_case.tables[i], profiles[i]));
    }
    std::string reference;
    for (int threads : {1, 8}) {
      for (bool block : {false, true}) {
        IndOptions ind_opt;
        ind_opt.threads = threads;
        ind_opt.blocking.enabled = block;
        IndStats stats;
        std::string got =
            SerializeInds(DiscoverInds(bi_case.tables, profiles, uccs,
                                       ind_opt, &stats));
        if (reference.empty()) {
          reference = got;
        } else {
          EXPECT_EQ(reference, got)
              << bi_case.name << " threads=" << threads
              << " blocking=" << block;
        }
        if (block) screened_total += stats.blocking.column_pairs_pruned;
      }
    }

    // Candidate sets (what downstream prediction consumes) are identical
    // too; identical candidates make every downstream stage a pure function
    // of identical input, so predicted join graphs cannot differ either.
    CandidateGenOptions gen_on;
    CandidateGenOptions gen_off;
    gen_off.ind.blocking.enabled = false;
    EXPECT_EQ(
        SerializeCandidates(GenerateCandidates(bi_case.tables, gen_on)
                                .candidates),
        SerializeCandidates(GenerateCandidates(bi_case.tables, gen_off)
                                .candidates))
        << bi_case.name;
  }
  // The corpus must actually exercise the screen somewhere, or this test
  // proves nothing.
  EXPECT_GT(screened_total, 0u);
}

}  // namespace
}  // namespace autobi

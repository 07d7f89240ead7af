// Byte-level fuzz of the untrusted-input loaders (ReadCsv / ParseSqlDdl):
// seeded mutations of well-formed inputs plus arbitrary byte strings. The
// invariant is error-not-crash — every input yields either a well-formed
// Status or a Table/DdlSchema that passes Validate(). Deterministic from a
// fixed seed, so a failure here reproduces exactly.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "loader_fuzz_inputs.h"
#include "table/csv.h"
#include "table/sql_ddl.h"

namespace autobi {
namespace {

const char* const kDdlSeeds[] = {
    "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20));\n",
    "create table a (x int);\n"
    "create table b (y int, a_x int,\n"
    "  foreign key (a_x) references a (x));\n",
    "CREATE TABLE [s].[t] (\"c one\" DECIMAL, `c2` BIGINT REFERENCES a(x));",
};

// The loaders must never crash, and an OK result must be well-formed.
void CheckCsv(const std::string& text, const CsvOptions& options) {
  CsvStats stats;
  StatusOr<Table> t = ReadCsv(text, "fuzz", options, &stats);
  if (t.ok()) {
    EXPECT_TRUE(t.value().Validate()) << "accepted table is ragged";
  } else {
    EXPECT_NE(t.status().code(), StatusCode::kOk);
    EXPECT_FALSE(t.status().message().empty());
  }
}

void CheckDdl(const std::string& script) {
  StatusOr<DdlSchema> schema = ParseSqlDdl(script);
  if (schema.ok()) {
    EXPECT_FALSE(schema.value().tables.empty());
    for (const Table& t : schema.value().tables) {
      EXPECT_TRUE(t.Validate());
      EXPECT_EQ(t.num_rows(), 0u);
    }
  } else {
    EXPECT_FALSE(schema.status().message().empty());
  }
}

TEST(LoaderFuzzTest, MutatedCsvNeverCrashes) {
  Rng rng(0xC5Fu);
  for (int i = 0; i < 700; ++i) {
    Rng child = rng.Fork();
    std::string text =
        Mutate(kCsvSeeds[child.NextBelow(std::size(kCsvSeeds))], child);
    CsvOptions options;
    options.lenient = child.NextBool(0.5);
    if (child.NextBool(0.2)) options.max_bytes = 1 + child.NextBelow(64);
    CheckCsv(text, options);
  }
}

TEST(LoaderFuzzTest, ArbitraryByteCsvNeverCrashes) {
  Rng rng(0xAB17u);
  for (int i = 0; i < 300; ++i) {
    Rng child = rng.Fork();
    std::string text = RandomBytes(child);
    CsvOptions options;
    options.lenient = child.NextBool(0.5);
    CheckCsv(text, options);
  }
}

TEST(LoaderFuzzTest, MutatedDdlNeverCrashes) {
  Rng rng(0xDD1u);
  for (int i = 0; i < 700; ++i) {
    Rng child = rng.Fork();
    CheckDdl(Mutate(kDdlSeeds[child.NextBelow(std::size(kDdlSeeds))], child));
  }
}

TEST(LoaderFuzzTest, ArbitraryByteDdlNeverCrashes) {
  Rng rng(0xF00Du);
  for (int i = 0; i < 300; ++i) {
    Rng child = rng.Fork();
    CheckDdl(RandomBytes(child));
  }
}

// Unmutated seeds must stay accepted — guards the mutator against a seed
// corpus that silently stopped parsing.
TEST(LoaderFuzzTest, SeedCorpusParsesClean) {
  for (const char* seed : kCsvSeeds) {
    StatusOr<Table> t = ReadCsv(seed, "seed");
    EXPECT_TRUE(t.ok()) << t.status().ToString();
  }
  for (const char* seed : kDdlSeeds) {
    StatusOr<DdlSchema> s = ParseSqlDdl(seed);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
  }
}

}  // namespace
}  // namespace autobi

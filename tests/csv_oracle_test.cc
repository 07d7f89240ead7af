// Differential test of ReadCsv against ReadCsvOracle, the original reader
// kept in src/oracle/csv_oracle.cc. On every input both must produce the same
// column names, types, null masks, cell bits and CsvStats, or fail with the
// same status code and message (and the same CsvStats).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "loader_fuzz_inputs.h"
#include "oracle/csv_oracle.h"
#include "synth/bi_generator.h"
#include "synth/lake.h"
#include "synth/tpch_ddl.h"
#include "table/csv.h"

namespace autobi {
namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// First difference between two tables, or "" when they are bit-identical.
std::string TableDiff(const Table& want, const Table& got) {
  if (want.name() != got.name()) return "table name";
  if (want.num_columns() != got.num_columns()) return "column count";
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const Column& a = want.column(c);
    const Column& b = got.column(c);
    const std::string where = StrFormat("column %zu: ", c);
    if (a.name() != b.name()) return where + "name";
    if (a.type() != b.type()) {
      return where + "type " + ValueTypeName(a.type()) + " vs " +
             ValueTypeName(b.type());
    }
    if (a.size() != b.size()) return where + "row count";
    if (a.num_null() != b.num_null()) return where + "null count";
    for (size_t r = 0; r < a.size(); ++r) {
      const std::string cell = where + StrFormat("row %zu ", r);
      if (a.IsNull(r) != b.IsNull(r)) return cell + "null mask";
      if (a.IsNull(r)) continue;
      switch (a.type()) {
        case ValueType::kInt:
          if (a.Int(r) != b.Int(r)) return cell + "int value";
          break;
        case ValueType::kDouble:
          if (DoubleBits(a.Double(r)) != DoubleBits(b.Double(r))) {
            return cell + StrFormat("double bits %.17g vs %.17g", a.Double(r),
                                    b.Double(r));
          }
          break;
        case ValueType::kString:
          if (a.Str(r) != b.Str(r)) return cell + "string value";
          break;
        case ValueType::kNull:
          break;
      }
    }
  }
  return "";
}

// First difference between ReadCsv and the oracle on one input.
std::string ReadDiff(std::string_view text, const CsvOptions& options) {
  CsvStats want_stats;
  CsvStats got_stats;
  // Both readers must reset stats they are handed.
  got_stats.had_bom = true;
  got_stats.ragged_rows_padded = 7;
  StatusOr<Table> want = ReadCsvOracle(text, "t", options, &want_stats);
  StatusOr<Table> got = ReadCsv(text, "t", options, &got_stats);
  if (want_stats.had_bom != got_stats.had_bom ||
      want_stats.ragged_rows_padded != got_stats.ragged_rows_padded ||
      want_stats.ragged_rows_truncated != got_stats.ragged_rows_truncated) {
    return "CsvStats";
  }
  if (want.ok() != got.ok()) {
    return "oracle " + want.status().ToString() + ", reader " +
           got.status().ToString();
  }
  if (!want.ok()) {
    if (want.status().code() != got.status().code() ||
        want.status().message() != got.status().message()) {
      return "oracle " + want.status().ToString() + ", reader " +
             got.status().ToString();
    }
    return "";
  }
  return TableDiff(*want, *got);
}

// Printable form of an input for failure messages (C escapes, truncated).
std::string Show(std::string_view text) {
  std::string out;
  for (char raw : text.substr(0, 300)) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c < 0x20 || c >= 0x7F) {
      out += StrFormat("\\x%02x", c);
    } else {
      out.push_back(raw);
    }
  }
  if (text.size() > 300) out += StrFormat("... (%zu bytes)", text.size());
  return out;
}

// Strict, lenient, and with a byte cap that some inputs exceed.
void ExpectSameInAllModes(std::string_view text) {
  CsvOptions strict;
  CsvOptions lenient;
  lenient.lenient = true;
  CsvOptions capped;
  capped.max_bytes = 1 + text.size() / 2;
  EXPECT_EQ(ReadDiff(text, strict), "") << "strict: " << Show(text);
  EXPECT_EQ(ReadDiff(text, lenient), "") << "lenient: " << Show(text);
  EXPECT_EQ(ReadDiff(text, capped), "") << "capped: " << Show(text);
}

TEST(CsvOracleTest, CsvTestInputs) {
  const char* inputs[] = {
      "id,name,price\n1,apple,1.5\n2,pear,2.0\n",
      "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n\"line1\nline2\",plain\n",
      "a,b\n1,\n,2\n",
      "a\n1\nx\n",
      "a,b\r\n1,2\r\n",
      "\xEF\xBB\xBF" "a,b\n1,2\n",
      "a,b\n1\n",
      "a,b\n1\n1,2,3\n4,5\n",
      "a,b\n1,2\n3,4\n",
      "a\n\"broken\n",
      "",
      "num,txt\n1,\"with, comma\"\n,\"with \"\"quote\"\"\"\n",
  };
  for (const char* input : inputs) ExpectSameInAllModes(input);
}

TEST(CsvOracleTest, LoaderFuzzSeedsMutationsAndRandomBytes) {
  for (const char* seed : kCsvSeeds) ExpectSameInAllModes(seed);
  Rng rng(0xC5Fu);
  for (int i = 0; i < 2000; ++i) {
    Rng child = rng.Fork();
    ExpectSameInAllModes(
        Mutate(kCsvSeeds[child.NextBelow(std::size(kCsvSeeds))], child));
  }
  Rng bytes(0xAB17u);
  for (int i = 0; i < 300; ++i) {
    Rng child = bytes.Fork();
    ExpectSameInAllModes(RandomBytes(child));
  }
}

// Random text over the bytes that steer tokenizing and number parsing:
// separators, quotes, CR/LF, whitespace, NUL, signs, digits, and the
// letters of exponents, hex floats, inf and nan.
TEST(CsvOracleTest, RandomTextOverSignificantBytes) {
  const std::string alphabet =
      std::string(",,,\"\n\n\r \t\v\f.+-eExXpPinfaINFA()_19 0") + '\0';
  Rng rng(0x0AC1Eu);
  for (int i = 0; i < 3000; ++i) {
    Rng child = rng.Fork();
    std::string text(child.NextBelow(80), ' ');
    for (char& c : text) c = alphabet[child.NextBelow(alphabet.size())];
    ExpectSameInAllModes(text);
  }
}

// Every token becomes the cell of a one-column file, alone and after an int
// cell (int + double unify to double; anything else to string), and
// surrounded by spaces.
TEST(CsvOracleTest, NumberEdgeCases) {
  const std::string int30 = std::string(29, '0') + "7";
  const std::string double60 = "0." + std::string(57, '0') + "1";
  const std::vector<std::string> tokens = {
      "0", "-0", "+0", "-0.0", "+1", "+-1", "-+1", "++1", "--1", "+", "-",
      ".", "+.5", "-.5", ".5", "5.", "1e5", "1E-5", "1e", "1e+", "1e-",
      "1e+5", "00012", "1_000", "1 000", "12x", "x12",
      "0x1p3", "0X1.8P-2", "-0x10", "0x", "0x1p", "0xg",
      "0x1.fffffffffffffp1023", "0x1p-1074", "0x1p-1080", "0x1p1024",
      "inf", "INF", "-Inf", "+inf", "infinity", "-Infinity", "iNfInItY",
      "infin", "nan", "NaN", "-nan", "+NAN", "nan(123)", "NAN(abc_9)",
      "nan()", "nan(", "nan(1 2)", "nanx",
      "1e400", "-1e400", "1e-400", "1e-310", "-1e-310", "4.9e-324",
      "2.4703282292062327e-324", "2.2250738585072011e-308",
      "2.2250738585072014e-308", "2.225073858507201e-308", "1e-300",
      "9.999999999999999e-301", "1e300", "1.0000000000000001e300",
      "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "0e999", "0e-999", "0.000e400", "0e-5",
      "-0e22", "0.0e-20", "1e-22", "1e22", "1e23", "1e-23",
      "9007199254740992e22", "9007199254740992e-22", "9007199254740993e1",
      "1234567890123456789e0", "12345678901234567890e0", "0.3e-21",
      "9007199254740993", "9007199254740993.0", "0.1", "3.14159",
      "123456789012345678901234567890",
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "18446744073709551616",
      int30, int30 + "1", "-" + int30, "+" + int30.substr(1),
      double60, double60 + "1", "-" + double60.substr(1),
      double60.substr(0, 59) + "e", std::string(60, '9'),
      std::string(61, '9'),
  };
  for (const std::string& token : tokens) {
    ExpectSameInAllModes("v\n" + token + "\n");
    ExpectSameInAllModes("v\n1\n" + token + "\n");
    ExpectSameInAllModes("v\n1.5\n" + token + "\n");
    ExpectSameInAllModes("v\n \t" + token + "\v\f\n");
    ExpectSameInAllModes("v,w\n" + token + ",\"" + token + "\"\n");
  }
}

TEST(CsvOracleTest, TokenizingEdgeCases) {
  const std::vector<std::string> inputs = {
      // Cells padded with every isspace byte; headers are not trimmed.
      " a ,\tb\n\t\v\f12\v\f,\f x \t\n",
      std::string("a,b\n1\0,x\0y\n", 12),          // Embedded NUL.
      std::string("a\n\0\n", 4),                  // A NUL-only cell.
      "a,b\nx\ry,1\r2\n",                          // CR mid-field.
      "a,b\r\n1\r,2\r\r\n",                        // CR before CRLF.
      "a,b\nab\"c,1\n",                            // Quote mid-field.
      "a,b\n\"ab\"cd,1\n",                         // Text after a close.
      "a,b\n\"ab\"c\"d,1\n",
      "a,b\n\"\"\"\",\"\"\n",                      // Escaped quotes only.
      "a\n\"\"\n1\n",                              // A ""-only line.
      "a,b\n\n1,2\n\n\n3,4\n",                     // Blank lines.
      "a,b\n\r\n1,2\r\n\r\n\r",                    // CR-only lines.
      "\r\n\r\na,b\n1,2",                          // Leading blank lines.
      "\xEF\xBB\xBF" "a,b\r\n1,2\r\n3,4\r\n",      // BOM with CRLF.
      "\xEF\xBB\xBF",                              // A BOM alone.
      "\xEF\xBB\xBF\r\n",
      "a,b\n1\n\"open\n",                          // Ragged + unterminated.
      "a,b\n1,2,3\n4\n\"x",
      "a,b\n1\n2,3\n",                             // Ragged only.
      "a,b\n1,2\n3,4,5\n6\n",
      "a,b\n\"x\r\ny\",1\n",                       // CRLF inside quotes.
      "a,b\n\"\"\r\"x\",1\n",                      // CR, then a reopen.
      "a,b\n\"\" \"x\",1\n",                       // Space, then a quote.
      "a,b\n1,2,\n3,4,\n",                         // Trailing commas.
      "a,\n1,\n",
      ",\n,\n",
      "a\n,\n",
      "\n\n\n",
      "\r\n\r\n",
      "\"",
      "\"\"",
      "\"\"\"",
      "a\n\"x\"\"",
      "header only",
      "h1,h2",
      "h1,h2\n",
      "\"h,1\",\"h\n2\"\nv,w\n",
      "a,b\n\"1\",\" 2 \"\n",                      // Quoted numbers.
      "a\n\"1,5\"\n",
      "a,b\n1,2\n3,4",                             // No final newline.
      "a,b\n1,2\n3,4\r",
      "a,b\n1,\"2\"\r",
  };
  for (const std::string& input : inputs) ExpectSameInAllModes(input);
}

TEST(CsvOracleTest, GeneratedTables) {
  Rng rng(0xB1Cu);
  std::vector<Table> tables;
  for (int i = 0; i < 6; ++i) {
    BiGenOptions options;
    options.num_tables = 4 + i;
    for (Table& t : GenerateBiCase(options, rng).tables) {
      tables.push_back(std::move(t));
    }
  }
  LakeGenOptions lake;
  lake.num_tables = 24;
  for (Table& t : GenerateLake(lake, rng).tables) {
    tables.push_back(std::move(t));
  }
  StatusOr<BiCase> tpch = GenerateTpchFromDdl(0.05, rng);
  ASSERT_TRUE(tpch.ok()) << tpch.status().ToString();
  for (Table& t : tpch->tables) tables.push_back(std::move(t));
  CsvOptions options;
  for (const Table& t : tables) {
    EXPECT_EQ(ReadDiff(WriteCsv(t), options), "") << t.name();
  }
}

}  // namespace
}  // namespace autobi

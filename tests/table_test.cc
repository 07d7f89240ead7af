#include "table/table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "table/value.h"

namespace autobi {
namespace {

// --- ValueType inference.

TEST(InferValueTypeTest, Basic) {
  EXPECT_EQ(InferValueType("42"), ValueType::kInt);
  EXPECT_EQ(InferValueType("-17"), ValueType::kInt);
  EXPECT_EQ(InferValueType("3.14"), ValueType::kDouble);
  EXPECT_EQ(InferValueType("2e5"), ValueType::kDouble);
  EXPECT_EQ(InferValueType("abc"), ValueType::kString);
  EXPECT_EQ(InferValueType("12ab"), ValueType::kString);
  EXPECT_EQ(InferValueType(""), ValueType::kNull);
  EXPECT_EQ(InferValueType("   "), ValueType::kNull);
}

TEST(UnifyValueTypesTest, NullIsIdentity) {
  EXPECT_EQ(UnifyValueTypes(ValueType::kNull, ValueType::kInt),
            ValueType::kInt);
  EXPECT_EQ(UnifyValueTypes(ValueType::kString, ValueType::kNull),
            ValueType::kString);
}

TEST(UnifyValueTypesTest, IntWidensToDouble) {
  EXPECT_EQ(UnifyValueTypes(ValueType::kInt, ValueType::kDouble),
            ValueType::kDouble);
  EXPECT_EQ(UnifyValueTypes(ValueType::kDouble, ValueType::kInt),
            ValueType::kDouble);
}

TEST(UnifyValueTypesTest, MixedDegradesToString) {
  EXPECT_EQ(UnifyValueTypes(ValueType::kInt, ValueType::kString),
            ValueType::kString);
  EXPECT_EQ(UnifyValueTypes(ValueType::kDouble, ValueType::kString),
            ValueType::kString);
}

// --- Column.

TEST(ColumnTest, IntColumnRoundTrip) {
  Column col("c", ValueType::kInt);
  col.AppendInt(5);
  col.AppendNull();
  col.AppendInt(-3);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.Int(0), 5);
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.Int(2), -3);
  EXPECT_EQ(col.num_non_null(), 2u);
  EXPECT_EQ(col.num_null(), 1u);
}

TEST(ColumnTest, NullsBeforeFirstTypedAppendAreBackfilled) {
  Column col("c");
  col.AppendNull();
  col.AppendNull();
  col.AppendString("x");
  ASSERT_EQ(col.size(), 3u);
  EXPECT_TRUE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.Str(2), "x");
}

TEST(ColumnTest, KeyAtCanonicalizesIntAndIntegralDouble) {
  Column ints("a", ValueType::kInt);
  ints.AppendInt(3);
  Column doubles("b", ValueType::kDouble);
  doubles.AppendDouble(3.0);
  std::string ka, kb;
  ASSERT_TRUE(ints.KeyAt(0, &ka));
  ASSERT_TRUE(doubles.KeyAt(0, &kb));
  EXPECT_EQ(ka, kb);  // Cross-type joins line up.
}

TEST(ColumnTest, KeyAtReturnsFalseForNull) {
  Column col("c", ValueType::kInt);
  col.AppendNull();
  std::string key;
  EXPECT_FALSE(col.KeyAt(0, &key));
}

TEST(ColumnTest, KeysSkipsNulls) {
  Column col("c", ValueType::kString);
  col.AppendString("a");
  col.AppendNull();
  col.AppendString("b");
  EXPECT_EQ(col.Keys(), (std::vector<std::string>{"a", "b"}));
}

TEST(ColumnTest, AsDoubleNumericAndNan) {
  Column col("c", ValueType::kInt);
  col.AppendInt(7);
  col.AppendNull();
  EXPECT_DOUBLE_EQ(col.AsDouble(0), 7.0);
  EXPECT_TRUE(std::isnan(col.AsDouble(1)));
  Column s("s", ValueType::kString);
  s.AppendString("x");
  EXPECT_TRUE(std::isnan(s.AsDouble(0)));
}

TEST(ColumnTest, AppendParsedHonorsColumnType) {
  Column col("c", ValueType::kInt);
  col.AppendParsed("12");
  col.AppendParsed("oops");  // Unparseable numeric -> null.
  col.AppendParsed("");
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.Int(0), 12);
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_TRUE(col.IsNull(2));
}

// --- Table.

TEST(TableTest, AddAndLookupColumns) {
  Table t("orders");
  t.AddColumn("id", ValueType::kInt);
  t.AddColumn("name", ValueType::kString);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.ColumnIndex("name"), 1);
  EXPECT_EQ(t.ColumnIndex("missing"), -1);
}

TEST(TableTest, ValidateDetectsRaggedColumns) {
  Table t("t");
  t.AddColumn("a", ValueType::kInt).AppendInt(1);
  t.AddColumn("b", ValueType::kInt);
  EXPECT_FALSE(t.Validate());
  t.column(1).AppendInt(2);
  EXPECT_TRUE(t.Validate());
}

TEST(TableTest, NumRowsComesFromFirstColumn) {
  Table t("t");
  EXPECT_EQ(t.num_rows(), 0u);
  Column& c = t.AddColumn("a", ValueType::kInt);
  c.AppendInt(1);
  c.AppendInt(2);
  EXPECT_EQ(t.num_rows(), 2u);
}

// --- Table handles: copies share columns, writes copy them first.

Table MakeOrders(int rows) {
  Table t("orders");
  Column& id = t.AddColumn("id", ValueType::kInt);
  Column& label = t.AddColumn("label", ValueType::kString);
  for (int r = 0; r < rows; ++r) {
    id.AppendInt(r);
    label.AppendString("o" + std::to_string(r));
  }
  return t;
}

// The table's name, column names and every cell, for equality checks.
std::string Describe(const Table& t) {
  std::string out = t.name();
  for (const Column& c : t.columns()) {
    out += "|" + c.name() + ":";
    std::string key;
    for (size_t r = 0; r < c.size(); ++r) {
      out += c.KeyAt(r, &key) ? key : "null";
      out += ",";
    }
  }
  return out;
}

TEST(TableTest, CopiesShareColumns) {
  const Table a = MakeOrders(3);
  const Table b = a;
  Table c;
  c = a;
  for (size_t i = 0; i < a.num_columns(); ++i) {
    EXPECT_EQ(&a.column(i), &b.column(i));
    EXPECT_EQ(&a.column(i), &std::as_const(c).column(i));
  }
  EXPECT_EQ(&a.columns(), &b.columns());
}

TEST(TableTest, WritesThroughOneCopyLeaveTheOtherUnchanged) {
  const std::vector<std::pair<const char*, std::function<void(Table&)>>>
      writes = {
          {"append a cell",
           [](Table& t) {
             t.column(0).AppendInt(99);
             t.column(1).AppendString("o99");
           }},
          {"rename a column", [](Table& t) { t.column(1).set_name("tag"); }},
          {"replace a column",
           [](Table& t) { t.column(0) = Column("id", ValueType::kInt); }},
          {"add a column", [](Table& t) { t.AddColumn("extra"); }},
          {"rename the table", [](Table& t) { t.set_name("orders_v2"); }},
      };
  for (const auto& [what, write] : writes) {
    for (const bool write_copy : {true, false}) {
      Table a = MakeOrders(3);
      Table b = a;
      Table& written = write_copy ? b : a;
      const Table& other = write_copy ? a : b;
      const std::string before = Describe(other);
      write(written);
      EXPECT_EQ(Describe(other), before)
          << what << (write_copy ? " on the copy" : " on the original");
      EXPECT_NE(Describe(written), before) << what;
    }
  }
}

TEST(TableTest, WriteToAnUnsharedTableCopiesNothing) {
  Table a = MakeOrders(3);
  const Column* id = &std::as_const(a).column(0);
  {
    Table b = a;
    b.column(0).AppendInt(3);  // b takes its own copy; a's stays put.
  }
  a.column(0).AppendInt(3);
  a.AddColumn("extra");
  EXPECT_EQ(&std::as_const(a).column(0), id);
  EXPECT_EQ(a.column(0).size(), 4u);
}

TEST(TableTest, DefaultAndMovedFromTablesAreEmpty) {
  const Table empty;
  EXPECT_EQ(empty.num_columns(), 0u);
  EXPECT_EQ(empty.num_rows(), 0u);
  EXPECT_TRUE(empty.columns().empty());
  EXPECT_TRUE(empty.Validate());
  EXPECT_EQ(empty.ColumnIndex("id"), -1);

  Table moved = MakeOrders(3);
  Table into = std::move(moved);
  EXPECT_EQ(into.num_rows(), 3u);
  EXPECT_EQ(moved.num_columns(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.num_rows(), 0u);

  Table assigned = MakeOrders(2);
  into = std::move(assigned);
  EXPECT_EQ(into.num_rows(), 2u);
  EXPECT_EQ(assigned.num_columns(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(assigned.num_rows(), 0u);
  // A moved-from table is an empty one and takes writes.
  assigned.AddColumn("id", ValueType::kInt).AppendInt(1);
  EXPECT_EQ(assigned.num_rows(), 1u);
}

// Threads copy one table and write their copies while others read theirs;
// one thread also drops a copy while the original's owner writes, which
// either copies the columns or, once the count reads one, writes them in
// place. Under TSan this checks the reference count's acquire/release
// pairing.
TEST(TableTest, CopiesWrittenOnManyThreadsStayIndependent) {
  const Table base = MakeOrders(64);
  const std::string base_cells = Describe(base);
  std::vector<Table> results(8);
  std::vector<std::thread> writers;
  for (size_t i = 0; i < results.size(); ++i) {
    writers.emplace_back([&base, &results, i] {
      Table mine = base;
      for (size_t k = 0; k <= i; ++k) {
        mine.column(0).AppendInt(int64_t(i));
        mine.column(1).AppendNull();
      }
      results[i] = std::move(mine);
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(Describe(base), base_cells);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].num_rows(), 64 + i + 1);
    EXPECT_TRUE(results[i].Validate());
  }

  for (int round = 0; round < 50; ++round) {
    Table a = MakeOrders(64);
    int64_t sum = 0;
    std::thread reader([&sum, b = Table(a)]() mutable {
      for (size_t r = 0; r < b.num_rows(); ++r) {
        sum += std::as_const(b).column(0).Int(r);
      }
      b = Table();  // Drops the shared handle before the thread ends.
    });
    a.column(0).AppendInt(64);
    a.column(1).AppendString("o64");
    reader.join();
    EXPECT_EQ(sum, 64 * 63 / 2);
    EXPECT_EQ(a.num_rows(), 65u);
  }
}

TEST(ColumnRefTest, OrderingAndToString) {
  ColumnRef a{0, {1}};
  ColumnRef b{0, {2}};
  ColumnRef c{1, {0}};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (ColumnRef{0, {1}}));

  Table t("orders");
  t.AddColumn("id", ValueType::kInt);
  t.AddColumn("cust", ValueType::kInt);
  std::vector<Table> tables;
  tables.push_back(std::move(t));
  EXPECT_EQ(ColumnRefToString(tables, ColumnRef{0, {0, 1}}),
            "orders(id,cust)");
}

}  // namespace
}  // namespace autobi

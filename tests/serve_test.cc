// Serving-layer tests: the NDJSON protocol surface (serve/json.h,
// serve/engine.h), the versioned model catalog, the cross-request
// content-hash caches (core/predict_cache.h), in-run profile dedupe, and
// admission control. The load-bearing properties:
//   - any request bytes produce one well-formed JSON response line,
//   - Predict responses are byte-identical at any thread count and whether
//     the caches are cold or warm,
//   - admission overflow is an immediate kResourceExhausted, not a hang,
//   - a client hanging up never takes the socket transport down.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "core/auto_bi.h"
#include "core/candidates.h"
#include "core/predict_cache.h"
#include "core/trainer.h"
#include "profile/sketch.h"
#include "serve/catalog.h"
#include "serve/engine.h"
#include "serve/json.h"
#include "serve/transport.h"
#include "synth/corpus.h"
#include "table/csv.h"

namespace autobi {
namespace {

// ---------------------------------------------------------------------------
// JSON wire format.

TEST(ServeJson, RoundTripsScalarsAndContainers) {
  const char* inputs[] = {
      "null",
      "true",
      "false",
      "0",
      "-17",
      "9007199254740993",  // > 2^53: must stay exact through int64.
      "1.5",
      "\"hi\"",
      "[]",
      "[1,2,[3]]",
      "{}",
      "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}",
  };
  for (const char* input : inputs) {
    StatusOr<Json> parsed = ParseJson(input);
    ASSERT_TRUE(parsed.ok()) << input;
    EXPECT_EQ(parsed->Write(), input) << input;
  }
}

TEST(ServeJson, ObjectPreservesInsertionOrder) {
  StatusOr<Json> parsed = ParseJson(R"({"z":1,"a":2,"m":3})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Write(), R"({"z":1,"a":2,"m":3})");
}

TEST(ServeJson, EscapesControlCharactersToASingleLine) {
  Json obj = Json::MakeObject();
  obj.Set("text", Json::MakeString("line1\nline2\ttab\x01\"quote\""));
  std::string wire = obj.Write();
  EXPECT_EQ(wire.find('\n'), std::string::npos);
  StatusOr<Json> back = ParseJson(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Find("text")->AsString(), "line1\nline2\ttab\x01\"quote\"");
}

TEST(ServeJson, ParsesUnicodeEscapes) {
  StatusOr<Json> parsed = ParseJson(R"("\u00e9\ud83d\ude00")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "\xC3\xA9\xF0\x9F\x98\x80");  // é + emoji.
}

TEST(ServeJson, RejectsMalformedInput) {
  const char* inputs[] = {
      "",       "{",     "}",          "[1,",       "{\"a\"}",
      "\"abc",  "01",    "1.",         "1e",        "tru",
      "nul",    "[1]]",  "{\"a\":1,}", "\"\\q\"",   "\"\\ud800\"",
      "\"\x01\"",
  };
  for (const char* input : inputs) {
    StatusOr<Json> parsed = ParseJson(input);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << input;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidInput) << input;
    }
  }
}

TEST(ServeJson, RejectsExcessiveNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

// Long strings decode run by run: escapes at the start, at the end and at
// every k-th byte of a run must round-trip byte-identically, and errors
// after a long run must name the same byte offset a byte-at-a-time decoder
// reports.
TEST(ServeJson, LongStringsWithEscapesRoundTrip) {
  struct Escape {
    const char* json;
    const char* decoded;
  };
  const Escape escapes[] = {
      {"\\\"", "\""}, {"\\\\", "\\"}, {"\\/", "/"},
      {"\\b", "\b"},  {"\\f", "\f"},  {"\\n", "\n"},
      {"\\r", "\r"},  {"\\t", "\t"},  {"\\u00e9", "\xC3\xA9"},
      {"\\u0001", "\x01"}, {"\\ud83d\\ude00", "\xF0\x9F\x98\x80"},
  };
  Rng rng(0x5EEDu);
  size_t escape_index = 0;
  for (size_t size : {size_t{0}, size_t{1}, size_t{31}, size_t{4096},
                      size_t{65537}, size_t{200} << 10}) {
    for (size_t k : {size_t{1}, size_t{3}, size_t{64}, size_t{4096},
                     size_t{1} << 30}) {
      std::string json = "\"";
      std::string want;
      auto escape = [&] {
        const Escape& e = escapes[escape_index++ % std::size(escapes)];
        json += e.json;
        want += e.decoded;
      };
      escape();  // At the start.
      for (size_t i = 0; i < size; ++i) {
        // Plain bytes: printable ASCII but '"' and '\\', plus UTF-8 bytes.
        char c = static_cast<char>(0x20 + rng.NextBelow(0x60));
        if (c == '"' || c == '\\') c = 'q';
        if (rng.NextBelow(16) == 0) {
          c = static_cast<char>(0x80 + rng.NextBelow(0x80));
        }
        json.push_back(c);
        want.push_back(c);
        if ((i + 1) % k == 0) escape();
      }
      escape();  // At the end.
      json += "\"";
      StatusOr<Json> parsed = ParseJson(json);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      EXPECT_EQ(parsed->AsString(), want) << "size " << size << " k " << k;
      StatusOr<Json> again = ParseJson(Json::MakeString(want).Write());
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(again->AsString(), want) << "size " << size << " k " << k;
    }
  }
}

TEST(ServeJson, ErrorsAfterLongRunsKeepTheirByteOffsets) {
  for (size_t run : {size_t{0}, size_t{5}, size_t{100000}}) {
    const std::string plain = "\"" + std::string(run, 'a');
    struct Case {
      std::string json;
      size_t offset;
      const char* message;
    };
    const Case cases[] = {
        {plain + '\x01' + "tail\"", run + 1, "raw control character in string"},
        {plain + "\\n" + '\x1f' + "\"", run + 3,
         "raw control character in string"},
        {plain + "\\", run + 2, "truncated escape"},
        {plain + "\\u12", run + 5, "truncated \\u escape"},
        {plain + "\\q\"", run + 3, "invalid escape character"},
        {plain, run + 1, "unterminated string"},
    };
    for (const Case& c : cases) {
      StatusOr<Json> parsed = ParseJson(c.json);
      ASSERT_FALSE(parsed.ok()) << "run " << run;
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidInput);
      EXPECT_EQ(parsed.status().message(),
                StrFormat("JSON parse error at byte %zu: %s", c.offset,
                          c.message))
          << "run " << run;
    }
  }
}

TEST(ServeJson, TypedGettersDistinguishAbsentFromWrongType) {
  StatusOr<Json> obj = ParseJson(R"({"n":3,"s":"x"})");
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->GetInt("n", 0).value(), 3);
  EXPECT_EQ(obj->GetInt("missing", 7).value(), 7);
  EXPECT_FALSE(obj->GetInt("s", 0).ok());
  EXPECT_FALSE(obj->GetString("n", "").ok());
}

// ---------------------------------------------------------------------------
// Content hashing + PredictCache.

Table MakeTable(const std::string& name, int rows, int salt = 0) {
  Table t(name);
  Column& id = t.AddColumn("id");
  Column& label = t.AddColumn("label");
  for (int i = 0; i < rows; ++i) {
    id.AppendInt(i + salt);
    label.AppendString("v" + std::to_string((i * 7 + salt) % 23));
  }
  return t;
}

TEST(ContentHash, SensitiveToValuesNamesAndTypes) {
  Table a = MakeTable("t", 50);
  Table b = MakeTable("t", 50);
  EXPECT_EQ(TableContentHash(a), TableContentHash(b));
  EXPECT_NE(TableContentHash(a), TableContentHash(MakeTable("t2", 50)));
  EXPECT_NE(TableContentHash(a), TableContentHash(MakeTable("t", 50, 1)));

  // null vs "" vs 3 vs "3" must not alias.
  Table n1("x"), n2("x"), n3("x"), n4("x");
  n1.AddColumn("c").AppendNull();
  n2.AddColumn("c").AppendString("");
  n3.AddColumn("c").AppendInt(3);
  n4.AddColumn("c").AppendString("3");
  uint64_t h1 = TableContentHash(n1), h2 = TableContentHash(n2);
  uint64_t h3 = TableContentHash(n3), h4 = TableContentHash(n4);
  EXPECT_NE(h1, h2);
  EXPECT_NE(h3, h4);
  EXPECT_NE(h2, h3);
}

TEST(PredictCacheTest, TableShardHitMissAndEviction) {
  PredictCache::Options options;
  options.max_table_entries = 2;
  PredictCache cache(options);
  EXPECT_EQ(cache.FindTable(1), nullptr);
  for (uint64_t k = 1; k <= 3; ++k) {
    auto entry = std::make_shared<PredictCache::TableEntry>();
    cache.InsertTable(k, entry);
  }
  PredictCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.table_entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.FindTable(1), nullptr);  // FIFO: oldest evicted.
  EXPECT_NE(cache.FindTable(3), nullptr);
  stats = cache.GetStats();
  EXPECT_EQ(stats.table_hits, 1u);
  EXPECT_GE(stats.table_misses, 2u);

  // Random insert sequences, re-inserted and evicted keys included, against
  // a reference FIFO: after every insert the shard holds exactly the
  // reference's keys, and the eviction counter matches.
  Rng rng(20261019);
  for (int sequence = 0; sequence < 2000; ++sequence) {
    options.max_table_entries = 1 + rng.NextBelow(4);
    PredictCache shard(options);
    std::deque<uint64_t> fifo;
    size_t evictions = 0;
    const uint64_t keys = 2 + rng.NextBelow(8);
    const int inserts = 1 + int(rng.NextBelow(24));
    for (int i = 0; i < inserts; ++i) {
      const uint64_t key = rng.NextBelow(keys);
      shard.InsertTable(key, std::make_shared<PredictCache::TableEntry>());
      if (std::find(fifo.begin(), fifo.end(), key) == fifo.end()) {
        fifo.push_back(key);
        if (fifo.size() > options.max_table_entries) {
          fifo.pop_front();
          ++evictions;
        }
      }
      ASSERT_EQ(shard.GetStats().evictions, evictions)
          << "sequence " << sequence << " insert " << i;
      for (uint64_t k = 0; k < keys; ++k) {
        const bool cached = shard.FindTable(k) != nullptr;
        const bool expected =
            std::find(fifo.begin(), fifo.end(), k) != fifo.end();
        ASSERT_EQ(cached, expected)
            << "sequence " << sequence << " insert " << i << " key " << k;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Shared trained model for pipeline-level tests (tiny: the tests probe the
// serving machinery, not classifier quality).

const LocalModel& TestModel() {
  static const LocalModel* model = [] {
    CorpusOptions copt;
    copt.seed = 99;
    copt.training_cases = 12;
    TrainerOptions topt;
    topt.forest.num_trees = 4;
    return new LocalModel(TrainLocalModel(BuildTrainingCorpus(copt), topt));
  }();
  return *model;
}

std::vector<Table> StarTables() {
  std::vector<Table> tables;
  Table customers("customers");
  Column& cid = customers.AddColumn("cust_id");
  Column& cname = customers.AddColumn("cust_name");
  for (int i = 0; i < 40; ++i) {
    cid.AppendInt(1000 + i);
    cname.AppendString("customer_" + std::to_string(i));
  }
  tables.push_back(std::move(customers));
  Table orders("orders");
  Column& oid = orders.AddColumn("order_id");
  Column& ocust = orders.AddColumn("cust_id");
  Column& qty = orders.AddColumn("quantity");
  for (int i = 0; i < 150; ++i) {
    oid.AppendInt(i + 1);
    ocust.AppendInt(1000 + (i * 13) % 40);
    qty.AppendInt(1 + i % 9);
  }
  tables.push_back(std::move(orders));
  return tables;
}

// ---------------------------------------------------------------------------
// Library-side cache behaviour: warm == cold, partial reuse, identical
// tables in one run.

TEST(PredictCacheTest, WarmSolveIsBitIdenticalToCold) {
  PredictCache cache;
  AutoBiOptions options;
  options.threads = 1;
  options.cache = &cache;
  AutoBi predictor(&TestModel(), options);
  std::vector<Table> tables = StarTables();

  AutoBiResult cold = predictor.Predict(tables);
  PredictCache::Stats after_cold = cache.GetStats();
  EXPECT_EQ(after_cold.solve_hits, 0u);
  EXPECT_EQ(after_cold.solve_entries, 1u);

  AutoBiResult warm = predictor.Predict(tables);
  PredictCache::Stats after_warm = cache.GetStats();
  EXPECT_EQ(after_warm.solve_hits, 1u);

  ASSERT_EQ(cold.model.joins.size(), warm.model.joins.size());
  for (size_t i = 0; i < cold.model.joins.size(); ++i) {
    EXPECT_TRUE(cold.model.joins[i] == warm.model.joins[i]);
  }
  EXPECT_EQ(cold.backbone_edges, warm.backbone_edges);
  EXPECT_EQ(cold.recall_edges, warm.recall_edges);
  EXPECT_EQ(cold.graph.edges().size(), warm.graph.edges().size());
}

TEST(PredictCacheTest, PartialChangeReusesUnchangedTableProfiles) {
  PredictCache cache;
  AutoBiOptions options;
  options.threads = 1;
  options.cache = &cache;
  AutoBi predictor(&TestModel(), options);
  std::vector<Table> tables = StarTables();
  predictor.Predict(tables);

  // Change only the fact table; the dimension's profile must come from the
  // cache, and the result must equal a cache-free run on the same input.
  std::vector<Table> mutated = tables;
  for (size_t c = 0; c < mutated[1].num_columns(); ++c) {
    mutated[1].column(c).AppendNull();
  }
  PredictCache::Stats before = cache.GetStats();
  AutoBiResult cached_run = predictor.Predict(mutated);
  PredictCache::Stats after = cache.GetStats();
  EXPECT_GE(after.table_hits, before.table_hits + 1);

  AutoBiOptions nocache;
  nocache.threads = 1;
  AutoBi reference(&TestModel(), nocache);
  AutoBiResult ref = reference.Predict(mutated);
  ASSERT_EQ(cached_run.model.joins.size(), ref.model.joins.size());
  for (size_t i = 0; i < ref.model.joins.size(); ++i) {
    EXPECT_TRUE(cached_run.model.joins[i] == ref.model.joins[i]);
  }
}

TEST(PredictCacheTest, DegradedRunsNeverPopulateTheSolveMemo) {
  PredictCache cache;
  AutoBiOptions options;
  options.threads = 1;
  options.cache = &cache;
  AutoBi predictor(&TestModel(), options);
  std::vector<Table> tables = StarTables();

  RunContext ctx;
  ctx.budgets.max_rows_per_table = 5;  // Trips metadata-only degradation.
  StatusOr<AutoBiResult> degraded = predictor.Predict(tables, &ctx);
  ASSERT_TRUE(degraded.ok());
  ASSERT_TRUE(degraded->degradation.Any());
  EXPECT_EQ(cache.GetStats().solve_entries, 0u);
}

TEST(CandidatesTest, IdenticalTablesInOneRunGetIdenticalProfiles) {
  std::vector<Table> tables = StarTables();
  tables.push_back(tables[0]);  // The same dimension table twice.
  CandidateGenOptions options;
  options.threads = 1;
  CandidateSet set = GenerateCandidates(tables, options, nullptr);
  ASSERT_EQ(set.profiles.size(), 3u);
  ASSERT_EQ(set.uccs.size(), 3u);
  ASSERT_EQ(set.uccs[0].size(), set.uccs[2].size());
  for (size_t u = 0; u < set.uccs[0].size(); ++u) {
    EXPECT_EQ(set.uccs[0][u].columns, set.uccs[2][u].columns);
  }
  ASSERT_EQ(set.profiles[0].columns.size(), set.profiles[2].columns.size());
  for (size_t c = 0; c < set.profiles[0].columns.size(); ++c) {
    EXPECT_EQ(set.profiles[0].columns[c].distinct_hashes,
              set.profiles[2].columns[c].distinct_hashes);
    EXPECT_EQ(set.profiles[0].columns[c].distinct_counts,
              set.profiles[2].columns[c].distinct_counts);
  }
}

// ---------------------------------------------------------------------------
// ServeEngine protocol tests.

Json Call(ServeEngine& engine, const std::string& request) {
  StatusOr<Json> response = ParseJson(engine.HandleLine(request));
  EXPECT_TRUE(response.ok()) << "response not JSON for: " << request;
  return response.ok() ? *response : Json();
}

bool IsOk(const Json& response) {
  const Json* ok = response.Find("ok");
  return ok != nullptr && ok->is_bool() && ok->AsBool();
}

std::string ErrorCode(const Json& response) {
  const Json* error = response.Find("error");
  if (error == nullptr) return "";
  const Json* code = error->Find("code");
  return code != nullptr && code->is_string() ? code->AsString() : "";
}

std::string UploadLine(const std::string& session, const Table& table) {
  Json req = Json::MakeObject();
  req.Set("verb", Json::MakeString("upload_table"));
  req.Set("session", Json::MakeString(session));
  req.Set("name", Json::MakeString(table.name()));
  req.Set("csv", Json::MakeString(WriteCsv(table)));
  return req.Write();
}

// Creates a session, uploads the star schema, returns the session id.
std::string SetUpStarSession(ServeEngine& engine) {
  Json created = Call(engine, R"({"verb":"create_session"})");
  EXPECT_TRUE(IsOk(created));
  std::string session = created.Find("session")->AsString();
  for (const Table& t : StarTables()) {
    EXPECT_TRUE(IsOk(Call(engine, UploadLine(session, t))));
  }
  return session;
}

TEST(ServeEngineTest, SessionLifecycle) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  std::string session = SetUpStarSession(engine);

  Json predict = Call(engine, R"({"verb":"predict","session":")" + session +
                                  R"(","tier":"standard"})");
  ASSERT_TRUE(IsOk(predict)) << predict.Write();
  EXPECT_EQ(predict.Find("num_tables")->AsInt(), 2);
  ASSERT_NE(predict.Find("joins"), nullptr);

  Json model = Call(engine, R"({"verb":"get_model","session":")" + session +
                                R"(","format":"json"})");
  ASSERT_TRUE(IsOk(model)) << model.Write();
  EXPECT_NE(model.Find("model"), nullptr);

  Json diff =
      Call(engine, R"({"verb":"diff","session":")" + session + R"("})");
  ASSERT_TRUE(IsOk(diff));
  EXPECT_FALSE(diff.Find("against_previous")->AsBool());

  EXPECT_TRUE(IsOk(Call(engine, R"({"verb":"close_session","session":")" +
                                    session + R"("})")));
  Json after = Call(engine, R"({"verb":"predict","session":")" + session +
                                R"("})");
  EXPECT_FALSE(IsOk(after));
  EXPECT_EQ(ErrorCode(after), "INVALID_INPUT");
}

TEST(ServeEngineTest, MalformedAndInvalidRequestsReturnTypedErrors) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  EXPECT_EQ(ErrorCode(Call(engine, "{not json")), "INVALID_INPUT");
  EXPECT_EQ(ErrorCode(Call(engine, "[1,2,3]")), "INVALID_INPUT");
  EXPECT_EQ(ErrorCode(Call(engine, R"({"verb":"no_such_verb"})")),
            "INVALID_INPUT");
  EXPECT_EQ(ErrorCode(Call(engine, R"({"id":4})")), "INVALID_INPUT");
  EXPECT_EQ(ErrorCode(Call(engine, R"({"verb":"predict","session":"nope"})")),
            "INVALID_INPUT");
  // The id is echoed even on errors.
  Json echoed = Call(engine, R"({"verb":"nope","id":42})");
  ASSERT_NE(echoed.Find("id"), nullptr);
  EXPECT_EQ(echoed.Find("id")->AsInt(), 42);
}

TEST(ServeEngineTest, UploadValidationAndReplacement) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  Json created = Call(engine, R"({"verb":"create_session"})");
  std::string session = created.Find("session")->AsString();

  EXPECT_EQ(ErrorCode(Call(engine, R"({"verb":"upload_table","session":")" +
                                       session + R"("})")),
            "INVALID_INPUT");
  EXPECT_EQ(ErrorCode(Call(
                engine, R"({"verb":"upload_table","session":")" + session +
                            R"(","name":"t","csv":"a,b\n1\n"})")),
            "INVALID_INPUT");  // Ragged CSV.
  Json first = Call(engine, R"({"verb":"upload_table","session":")" + session +
                                R"(","name":"t","csv":"a,b\n1,2\n"})");
  ASSERT_TRUE(IsOk(first));
  EXPECT_FALSE(first.Find("replaced")->AsBool());
  Json second = Call(engine, R"({"verb":"upload_table","session":")" +
                                 session +
                                 R"(","name":"t","csv":"a,b\n3,4\n"})");
  ASSERT_TRUE(IsOk(second));
  EXPECT_TRUE(second.Find("replaced")->AsBool());
  EXPECT_EQ(second.Find("num_tables")->AsInt(), 1);
  EXPECT_NE(first.Find("content_hash")->AsString(),
            second.Find("content_hash")->AsString());

  // Columns-form upload with mixed types is rejected.
  EXPECT_EQ(ErrorCode(Call(engine,
                           R"({"verb":"upload_table","session":")" + session +
                               R"(","name":"u","columns":[)"
                               R"({"name":"c","values":[1,"x"]}]})")),
            "INVALID_INPUT");
}

TEST(ServeEngineTest, PredictIsByteIdenticalAcrossThreadCountsAndCacheState) {
  std::vector<std::string> joins_by_threads;
  for (int threads : {1, 2, 8}) {
    ServeOptions options;
    options.threads = threads;
    ServeEngine engine(&TestModel(), options);
    std::string session = SetUpStarSession(engine);
    std::string line = R"({"verb":"predict","session":")" + session +
                       R"(","tier":"standard"})";
    Json cold = Call(engine, line);
    ASSERT_TRUE(IsOk(cold)) << cold.Write();
    Json warm = Call(engine, line);
    ASSERT_TRUE(IsOk(warm)) << warm.Write();
    // Warm re-submission hits the solve memo and matches byte-for-byte.
    EXPECT_GE(warm.Find("cache")->Find("solve_hits")->AsInt(), 1);
    EXPECT_EQ(cold.Find("joins")->Write(), warm.Find("joins")->Write());
    joins_by_threads.push_back(cold.Find("joins")->Write());
  }
  EXPECT_EQ(joins_by_threads[0], joins_by_threads[1]);
  EXPECT_EQ(joins_by_threads[0], joins_by_threads[2]);
}

// The orders rows of StarTables(), parameterized by row count so a fresh
// full upload can reproduce exactly what update_table appends.
Table OrdersTable(int rows) {
  Table orders("orders");
  Column& oid = orders.AddColumn("order_id");
  Column& ocust = orders.AddColumn("cust_id");
  Column& qty = orders.AddColumn("quantity");
  for (int i = 0; i < rows; ++i) {
    oid.AppendInt(i + 1);
    ocust.AppendInt(1000 + (i * 13) % 40);
    qty.AppendInt(1 + i % 9);
  }
  return orders;
}

std::string UpdateOrdersLine(const std::string& session, int start,
                             int count) {
  Table delta = OrdersTable(start + count);
  Json req = Json::MakeObject();
  req.Set("verb", Json::MakeString("update_table"));
  req.Set("session", Json::MakeString(session));
  req.Set("name", Json::MakeString("orders"));
  Json cols = Json::MakeArray();
  for (size_t c = 0; c < delta.num_columns(); ++c) {
    Json col = Json::MakeObject();
    col.Set("name", Json::MakeString(delta.column(c).name()));
    Json values = Json::MakeArray();
    for (int r = start; r < start + count; ++r) {
      values.Append(Json::MakeInt(delta.column(c).Int(size_t(r))));
    }
    col.Set("values", std::move(values));
    cols.Append(std::move(col));
  }
  req.Set("columns", std::move(cols));
  return req.Write();
}

TEST(ServeEngineTest, UpdateTableAppendsAndIncrementalPredictMatchesFresh) {
  ServeOptions options;
  options.threads = 2;
  ServeEngine engine(&TestModel(), options);
  std::string session = SetUpStarSession(engine);
  std::string predict_line = R"({"verb":"predict","session":")" + session +
                             R"(","tier":"standard","incremental":true})";

  // First incremental predict: a cold rebuild through the delta engine —
  // everything reprofiled, nothing reused, counters say so.
  Json first = Call(engine, predict_line);
  ASSERT_TRUE(IsOk(first)) << first.Write();
  const Json* inc = first.Find("incremental");
  ASSERT_NE(inc, nullptr);
  EXPECT_FALSE(inc->Find("used")->AsBool());
  EXPECT_EQ(inc->Find("tables_reprofiled")->AsInt(), 2);
  EXPECT_EQ(inc->Find("pairs_rescored")->AsInt(), 1);
  EXPECT_EQ(inc->Find("pairs_reused")->AsInt(), 0);

  // Append ten orders rows. The response reports the append, and the next
  // incremental predict merges the orders profile forward instead of
  // reprofiling anything (tables_reprofiled == changed-from-scratch == 0).
  Json updated = Call(engine, UpdateOrdersLine(session, 150, 10));
  ASSERT_TRUE(IsOk(updated)) << updated.Write();
  EXPECT_EQ(updated.Find("rows_appended")->AsInt(), 10);
  EXPECT_EQ(updated.Find("rows")->AsInt(), 160);

  Json second = Call(engine, predict_line);
  ASSERT_TRUE(IsOk(second)) << second.Write();
  inc = second.Find("incremental");
  ASSERT_NE(inc, nullptr);
  EXPECT_TRUE(inc->Find("used")->AsBool());
  EXPECT_EQ(inc->Find("tables_reprofiled")->AsInt(), 0);
  EXPECT_EQ(inc->Find("tables_delta_merged")->AsInt(), 1);
  EXPECT_EQ(inc->Find("pairs_rescored")->AsInt(), 1);

  // A fresh session holding the full 160-row orders table predicts the
  // exact same joins and model export with a plain (non-incremental)
  // predict — the serve-side differential-equivalence contract.
  ServeEngine fresh_engine(&TestModel(), options);
  Json created = Call(fresh_engine, R"({"verb":"create_session"})");
  ASSERT_TRUE(IsOk(created));
  std::string fresh = created.Find("session")->AsString();
  for (const Table& t : StarTables()) {
    if (t.name() == "orders") continue;
    ASSERT_TRUE(IsOk(Call(fresh_engine, UploadLine(fresh, t))));
  }
  ASSERT_TRUE(IsOk(Call(fresh_engine, UploadLine(fresh, OrdersTable(160)))));
  Json reference = Call(fresh_engine, R"({"verb":"predict","session":")" +
                                          fresh + R"(","tier":"standard"})");
  ASSERT_TRUE(IsOk(reference)) << reference.Write();
  EXPECT_EQ(second.Find("joins")->Write(), reference.Find("joins")->Write());
  Json inc_model = Call(engine, R"({"verb":"get_model","session":")" +
                                    session + R"(","format":"json"})");
  Json ref_model = Call(fresh_engine, R"({"verb":"get_model","session":")" +
                                          fresh + R"(","format":"json"})");
  ASSERT_TRUE(IsOk(inc_model) && IsOk(ref_model));
  EXPECT_EQ(inc_model.Find("model")->Write(), ref_model.Find("model")->Write());

  // No-op re-predict: everything reused, solve warm-started wholesale.
  Json third = Call(engine, predict_line);
  ASSERT_TRUE(IsOk(third)) << third.Write();
  inc = third.Find("incremental");
  ASSERT_NE(inc, nullptr);
  EXPECT_TRUE(inc->Find("used")->AsBool());
  EXPECT_EQ(inc->Find("tables_reprofiled")->AsInt(), 0);
  EXPECT_EQ(inc->Find("tables_delta_merged")->AsInt(), 0);
  EXPECT_EQ(inc->Find("pairs_rescored")->AsInt(), 0);
  EXPECT_EQ(inc->Find("pairs_reused")->AsInt(), 1);
  EXPECT_TRUE(inc->Find("warm_start_used")->AsBool());
  EXPECT_EQ(third.Find("joins")->Write(), second.Find("joins")->Write());

  // A replace-style change (re-upload with different cells) reprofiles
  // exactly the changed table.
  Table salted = MakeTable("customers", 40, 3);
  ASSERT_TRUE(IsOk(Call(engine, UploadLine(session, salted))));
  Json fourth = Call(engine, predict_line);
  ASSERT_TRUE(IsOk(fourth)) << fourth.Write();
  inc = fourth.Find("incremental");
  ASSERT_NE(inc, nullptr);
  EXPECT_TRUE(inc->Find("used")->AsBool());
  EXPECT_EQ(inc->Find("tables_reprofiled")->AsInt(), 1);
}

// `table`'s rows from `from` on, as the "columns" array of upload_table
// (from == 0) or update_table.
Json ColumnsJson(const Table& table, size_t from) {
  Json cols = Json::MakeArray();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    Json values = Json::MakeArray();
    for (size_t r = from; r < column.size(); ++r) {
      if (column.IsNull(r)) {
        values.Append(Json());
      } else if (column.type() == ValueType::kInt) {
        values.Append(Json::MakeInt(column.Int(r)));
      } else {
        values.Append(Json::MakeString(column.Str(r)));
      }
    }
    Json col = Json::MakeObject();
    col.Set("name", Json::MakeString(column.name()));
    col.Set("values", std::move(values));
    cols.Append(std::move(col));
  }
  return cols;
}

std::string ColumnsLine(const char* verb, const std::string& session,
                        const Table& table, size_t from) {
  Json req = Json::MakeObject();
  req.Set("verb", Json::MakeString(verb));
  req.Set("session", Json::MakeString(session));
  req.Set("name", Json::MakeString(table.name()));
  req.Set("columns", ColumnsJson(table, from));
  return req.Write();
}

// Drives the delta path as a client does: uploads `tables`, runs an
// incremental predict, then grows tables with update_table, one request
// per entry of `grown` (the whole table after its append; the request
// carries the rows past the session's). Each update's content_hash must be
// TableContentHash of the grown table. A second incremental predict then
// must give the joins and get_model export of a fresh engine's plain
// predict over the final tables. Returns that predict's "incremental"
// counters.
Json DeltaPredictAfterUpdates(std::vector<Table> tables,
                              const std::vector<Table>& grown) {
  ServeOptions options;
  options.threads = 2;
  ServeEngine engine(&TestModel(), options);
  const std::string session =
      Call(engine, R"({"verb":"create_session"})").Find("session")->AsString();
  for (const Table& t : tables) {
    EXPECT_TRUE(IsOk(Call(engine, ColumnsLine("upload_table", session, t, 0))));
  }
  const std::string predict_line = R"({"verb":"predict","session":")" +
                                   session + R"(","incremental":true})";
  Json first = Call(engine, predict_line);
  EXPECT_TRUE(IsOk(first)) << first.Write();

  for (const Table& t : grown) {
    size_t slot = 0;
    while (tables[slot].name() != t.name()) ++slot;
    Json updated = Call(engine, ColumnsLine("update_table", session, t,
                                            tables[slot].num_rows()));
    EXPECT_TRUE(IsOk(updated)) << updated.Write();
    EXPECT_EQ(updated.Find("content_hash")->AsString(),
              StrFormat("%016llx", static_cast<unsigned long long>(
                                       TableContentHash(t))));
    tables[slot] = t;
  }
  Json second = Call(engine, predict_line);
  EXPECT_TRUE(IsOk(second)) << second.Write();

  ServeEngine fresh_engine(&TestModel(), options);
  const std::string fresh = Call(fresh_engine, R"({"verb":"create_session"})")
                                .Find("session")
                                ->AsString();
  for (const Table& t : tables) {
    EXPECT_TRUE(
        IsOk(Call(fresh_engine, ColumnsLine("upload_table", fresh, t, 0))));
  }
  Json reference = Call(fresh_engine, R"({"verb":"predict","session":")" +
                                          fresh + R"("})");
  EXPECT_TRUE(IsOk(reference)) << reference.Write();
  EXPECT_EQ(second.Find("joins")->Write(), reference.Find("joins")->Write());
  const std::string get_model = R"({"verb":"get_model","format":"json",)";
  Json inc_model =
      Call(engine, get_model + R"("session":")" + session + R"("})");
  Json ref_model =
      Call(fresh_engine, get_model + R"("session":")" + fresh + R"("})");
  EXPECT_TRUE(IsOk(inc_model) && IsOk(ref_model));
  EXPECT_EQ(inc_model.Find("model")->Write(), ref_model.Find("model")->Write());
  return *second.Find("incremental");
}

// One update_table records the orders table's old hashes in its snapshot;
// the delta predict proves the append from that record.
TEST(ServeEngineTest, UpdateTableContentHashIsTableContentHash) {
  Json inc = DeltaPredictAfterUpdates(StarTables(), {OrdersTable(155)});
  EXPECT_EQ(inc.Find("tables_reprofiled")->AsInt(), 0);
  EXPECT_EQ(inc.Find("tables_delta_merged")->AsInt(), 1);
}

// Two updates between delta predicts: the second snapshot's record
// describes 160 rows, the state 150, so the diff rehashes the 150-row
// prefix and still finds an append.
TEST(ServeEngineTest, TwoUpdatesBetweenDeltaPredictsStillMergeTheAppend) {
  Json inc = DeltaPredictAfterUpdates(StarTables(),
                                      {OrdersTable(160), OrdersTable(170)});
  EXPECT_EQ(inc.Find("tables_reprofiled")->AsInt(), 0);
  EXPECT_EQ(inc.Find("tables_delta_merged")->AsInt(), 1);
}

// Ints appended to an all-null column give it a type, and the type is
// hashed: the update keeps no append record, and the diff, which then
// rehashes the old rows, finds the table replaced rather than appended.
TEST(ServeEngineTest, AppendThatTypesAnAllNullColumnIsReprofiled) {
  auto orders = [](int rows, int typed_from) {
    Table t = OrdersTable(rows);
    Column& note = t.AddColumn("note");
    for (int i = 0; i < rows; ++i) {
      if (i < typed_from) {
        note.AppendNull();
      } else {
        note.AppendInt(i % 4);
      }
    }
    return t;
  };
  std::vector<Table> base = StarTables();
  base[1] = orders(150, 150);
  ASSERT_EQ(base[1].column(3).type(), ValueType::kNull);
  Json inc = DeltaPredictAfterUpdates(base, {orders(160, 150)});
  EXPECT_EQ(inc.Find("tables_reprofiled")->AsInt(), 1);
  EXPECT_EQ(inc.Find("tables_delta_merged")->AsInt(), 0);
}

TEST(ServeEngineTest, UpdateTableRejectsMalformedDeltas) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  std::string session = SetUpStarSession(engine);

  // Unknown table.
  EXPECT_EQ(ErrorCode(Call(
                engine, R"({"verb":"update_table","session":")" + session +
                            R"(","name":"nope","columns":[]})")),
            "INVALID_INPUT");
  // Wrong column set.
  EXPECT_EQ(ErrorCode(Call(
                engine, R"({"verb":"update_table","session":")" + session +
                            R"(","name":"orders","columns":[)" +
                            R"({"name":"order_id","values":[999]}]})")),
            "INVALID_INPUT");
  // Type mismatch: a string into the int order_id column.
  EXPECT_EQ(
      ErrorCode(Call(
          engine,
          R"({"verb":"update_table","session":")" + session +
              R"(","name":"orders","columns":[)" +
              R"({"name":"order_id","values":["x"]},)" +
              R"({"name":"cust_id","values":[1000]},)" +
              R"({"name":"quantity","values":[1]}]})")),
      "INVALID_INPUT");
  // Ragged delta.
  EXPECT_EQ(
      ErrorCode(Call(
          engine,
          R"({"verb":"update_table","session":")" + session +
              R"(","name":"orders","columns":[)" +
              R"({"name":"order_id","values":[999,1000]},)" +
              R"({"name":"cust_id","values":[1000]},)" +
              R"({"name":"quantity","values":[1,2]}]})")),
      "INVALID_INPUT");
  // Failed updates must not have mutated the table: predict still works on
  // 150 orders rows.
  Json predict = Call(engine, R"({"verb":"predict","session":")" + session +
                                  R"(","tier":"standard"})");
  ASSERT_TRUE(IsOk(predict)) << predict.Write();
}

// publish_model stamps a snapshot from the table hashes taken at upload and
// update time. After an upload, a re-upload under the same name and an
// update_table, the published tables_hash must still be TablesContentHash
// of the session's tables, in the session's order.
TEST(ServeEngineTest, PublishedTablesHashIsTablesContentHash) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  Json created = Call(engine, R"({"verb":"create_session"})");
  ASSERT_TRUE(IsOk(created));
  const std::string session = created.Find("session")->AsString();
  ASSERT_TRUE(IsOk(Call(engine, UploadLine(session, MakeTable("orders", 30)))));
  std::vector<Table> tables;
  for (const Table& t : StarTables()) {
    ASSERT_TRUE(IsOk(Call(engine, UploadLine(session, t))));
    StatusOr<Table> uploaded = ReadCsv(WriteCsv(t), t.name());
    ASSERT_TRUE(uploaded.ok());
    tables.push_back(std::move(uploaded).value());
  }
  // The re-upload kept the first upload's slot: orders, then customers.
  std::swap(tables[0], tables[1]);
  ASSERT_TRUE(IsOk(Call(engine, R"({"verb":"update_table","session":")" +
                                    session +
                                    R"(","name":"orders","columns":[)"
                                    R"({"name":"order_id","values":[151]},)"
                                    R"({"name":"cust_id","values":[1003]},)"
                                    R"({"name":"quantity","values":[7]}]})")));
  tables[0].column(0).AppendInt(151);
  tables[0].column(1).AppendInt(1003);
  tables[0].column(2).AppendInt(7);

  ASSERT_TRUE(IsOk(Call(engine, R"({"verb":"predict","session":")" +
                                    session + R"("})")));
  ASSERT_TRUE(IsOk(Call(engine, R"({"verb":"publish_model","session":")" +
                                    session + R"(","label":"v1"})")));
  Json listed = Call(engine, R"({"verb":"list_models"})");
  ASSERT_TRUE(IsOk(listed)) << listed.Write();
  ASSERT_EQ(listed.Find("models")->size(), 1u);
  EXPECT_EQ(listed.Find("models")->at(0).Find("tables_hash")->AsString(),
            StrFormat("%016llx", static_cast<unsigned long long>(
                                     TablesContentHash(tables))));
}

// A number after string cells in one column is a typed error, in an upload
// and in a delta alike — not an aborted daemon.
TEST(ServeEngineTest, NumberIntoStringColumnIsInvalidInput) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  std::string session = SetUpStarSession(engine);
  Json upload = Call(engine, R"({"verb":"upload_table","session":")" +
                                 session +
                                 R"(","name":"u","columns":[)"
                                 R"({"name":"c","values":["x",1]}]})");
  EXPECT_EQ(ErrorCode(upload), "INVALID_INPUT");
  EXPECT_EQ(upload.Find("error")->Find("message")->AsString(),
            "upload_table: column 'c' mixes numbers with string cells");
  Json delta = Call(engine, R"({"verb":"update_table","session":")" +
                                session +
                                R"(","name":"customers","columns":[)"
                                R"({"name":"cust_id","values":[1]},)"
                                R"({"name":"cust_name","values":[2.5]}]})");
  EXPECT_EQ(ErrorCode(delta), "INVALID_INPUT");
  EXPECT_EQ(
      delta.Find("error")->Find("message")->AsString(),
      "update_table: column 'cust_name' mixes numbers with string cells");
}

TEST(ServeEngineTest, ConcurrentPredictsAreDeterministic) {
  ServeOptions options;
  options.threads = 2;
  options.max_inflight = 8;
  ServeEngine engine(&TestModel(), options);
  // Eight sessions with the same tables, predicted concurrently.
  std::vector<std::string> sessions;
  for (int i = 0; i < 8; ++i) sessions.push_back(SetUpStarSession(engine));

  std::vector<std::string> joins(sessions.size());
  std::vector<std::thread> workers;
  for (size_t i = 0; i < sessions.size(); ++i) {
    workers.emplace_back([&, i] {
      Json response =
          Call(engine, R"({"verb":"predict","session":")" + sessions[i] +
                           R"(","tier":"standard"})");
      if (IsOk(response)) joins[i] = response.Find("joins")->Write();
    });
  }
  for (std::thread& w : workers) w.join();
  for (size_t i = 1; i < joins.size(); ++i) {
    EXPECT_EQ(joins[0], joins[i]) << "thread " << i;
    EXPECT_FALSE(joins[i].empty());
  }
}

// Eight clients append the same ten orders rows to one session while a
// ninth runs incremental predicts on it. Each update edits its own copy of
// the table set outside the engine lock and installs it only over the set
// it started from, so every update applies exactly once: the rows the
// responses report are 160, 170, ..., 230 in some order, and the session
// ends holding the 230-row table a serial client would have built.
TEST(ServeEngineTest, ConcurrentUpdatesToOneSessionApplyOnce) {
  ServeOptions options;
  options.threads = 2;
  ServeEngine engine(&TestModel(), options);
  const std::string session = SetUpStarSession(engine);
  const std::string update_line = UpdateOrdersLine(session, 150, 10);
  const std::string predict_line = R"({"verb":"predict","session":")" +
                                   session + R"(","incremental":true})";

  constexpr int kUpdaters = 8;
  std::vector<Json> updates(kUpdaters);
  std::atomic<bool> go{false};
  std::atomic<int> updated{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kUpdaters; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      updates[i] = Call(engine, update_line);
      ++updated;
    });
  }
  threads.emplace_back([&] {
    while (!go.load()) std::this_thread::yield();
    int predicts = 0;
    while (predicts == 0 || updated.load() < kUpdaters) {
      Json predicted = Call(engine, predict_line);
      EXPECT_TRUE(IsOk(predicted)) << predicted.Write();
      ++predicts;
    }
  });
  go = true;
  for (std::thread& t : threads) t.join();

  // The same table, built serially: 150 rows, then rows 150-159 eight times.
  Table expected = OrdersTable(150);
  const Table delta = OrdersTable(160);
  for (int k = 0; k < kUpdaters; ++k) {
    for (size_t c = 0; c < expected.num_columns(); ++c) {
      for (size_t r = 150; r < 160; ++r) {
        expected.column(c).AppendInt(delta.column(c).Int(r));
      }
    }
  }
  std::vector<int64_t> rows;
  std::string final_hash;
  for (const Json& update : updates) {
    ASSERT_TRUE(IsOk(update)) << update.Write();
    rows.push_back(update.Find("rows")->AsInt());
    if (rows.back() == 230) final_hash = update.Find("content_hash")->AsString();
  }
  std::sort(rows.begin(), rows.end());
  for (int i = 0; i < kUpdaters; ++i) EXPECT_EQ(rows[i], 160 + 10 * i);
  EXPECT_EQ(final_hash, StrFormat("%016llx", static_cast<unsigned long long>(
                                                 TableContentHash(expected))));

  const std::string plain_line =
      R"({"verb":"predict","session":")" + session + R"("})";
  Json final_predict = Call(engine, plain_line);
  ASSERT_TRUE(IsOk(final_predict)) << final_predict.Write();
  ServeEngine fresh_engine(&TestModel(), options);
  const std::string fresh = Call(fresh_engine, R"({"verb":"create_session"})")
                                .Find("session")
                                ->AsString();
  ASSERT_TRUE(IsOk(Call(fresh_engine, UploadLine(fresh, StarTables()[0]))));
  ASSERT_TRUE(IsOk(Call(fresh_engine, UploadLine(fresh, expected))));
  Json reference = Call(fresh_engine, R"({"verb":"predict","session":")" +
                                          fresh + R"("})");
  ASSERT_TRUE(IsOk(reference)) << reference.Write();
  EXPECT_EQ(final_predict.Find("joins")->Write(),
            reference.Find("joins")->Write());
  const std::string get_model = R"({"verb":"get_model","format":"json",)";
  Json model = Call(engine, get_model + R"("session":")" + session + R"("})");
  Json ref_model =
      Call(fresh_engine, get_model + R"("session":")" + fresh + R"("})");
  ASSERT_TRUE(IsOk(model) && IsOk(ref_model));
  EXPECT_EQ(model.Find("model")->Write(), ref_model.Find("model")->Write());
}

TEST(AdmissionGateTest, OverflowRejectsImmediately) {
  AdmissionGate gate(/*max_inflight=*/1, /*max_queue=*/0);
  ASSERT_TRUE(gate.Enter().ok());
  Status second = gate.Enter();
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gate.GetStats().rejected, 1);
  gate.Exit();
  EXPECT_TRUE(gate.Enter().ok());
  gate.Exit();
}

TEST(AdmissionGateTest, QueuedCallerProceedsAfterExit) {
  AdmissionGate gate(1, 1);
  ASSERT_TRUE(gate.Enter().ok());
  std::atomic<bool> entered{false};
  std::thread waiter([&] {
    Status status = gate.Enter();
    EXPECT_TRUE(status.ok());
    entered.store(true);
    gate.Exit();
  });
  // The waiter parks in the queue; an Exit must wake it.
  while (gate.GetStats().queued == 0) std::this_thread::yield();
  EXPECT_FALSE(entered.load());
  gate.Exit();
  waiter.join();
  EXPECT_TRUE(entered.load());
}

TEST(AdmissionGateTest, TracksAdmittedAndQueueWaitTime) {
  AdmissionGate gate(1, 1);
  ASSERT_TRUE(gate.Enter().ok());
  EXPECT_EQ(gate.GetStats().admitted, 1);
  EXPECT_EQ(gate.GetStats().queue_wait_total_seconds, 0.0);

  std::thread waiter([&] {
    EXPECT_TRUE(gate.Enter().ok());
    gate.Exit();
  });
  while (gate.GetStats().queued == 0) std::this_thread::yield();
  // Make the waiter's queue time unambiguously measurable.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Exit();
  waiter.join();

  const AdmissionGate::Stats stats = gate.GetStats();
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_GT(stats.queue_wait_total_seconds, 0.0);
  EXPECT_GE(stats.queue_wait_max_seconds, 0.015);
  EXPECT_LE(stats.queue_wait_max_seconds, stats.queue_wait_total_seconds);
}

TEST(ServeEngineTest, PredictOverflowReturnsResourceExhausted) {
  ServeOptions options;
  options.threads = 1;
  options.max_inflight = 1;
  options.max_queue = 0;
  ServeEngine engine(&TestModel(), options);
  std::string session = SetUpStarSession(engine);
  std::string line = R"({"verb":"predict","session":")" + session + R"("})";

  // The hook parks the first Predict while it holds the only slot.
  std::mutex mu;
  std::condition_variable cv;
  bool holding = false, release = false;
  engine.SetPredictHoldHookForTest([&] {
    std::unique_lock<std::mutex> lock(mu);
    holding = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });

  std::thread holder([&] {
    Json response = Call(engine, line);
    EXPECT_TRUE(IsOk(response)) << response.Write();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return holding; });
  }
  // Slot taken, queue empty: this request must be rejected, not parked.
  engine.SetPredictHoldHookForTest(nullptr);
  Json rejected = Call(engine, line);
  EXPECT_FALSE(IsOk(rejected));
  EXPECT_EQ(ErrorCode(rejected), "RESOURCE_EXHAUSTED");
  {
    std::unique_lock<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  holder.join();
}

TEST(ServeEngineTest, QosTierOverridesValidated) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  std::string session = SetUpStarSession(engine);
  EXPECT_EQ(ErrorCode(Call(engine, R"({"verb":"predict","session":")" +
                                       session + R"(","tier":"warp"})")),
            "INVALID_INPUT");
  EXPECT_EQ(ErrorCode(Call(engine,
                           R"({"verb":"predict","session":")" + session +
                               R"(","deadline_seconds":-1})")),
            "INVALID_INPUT");
  Json batch = Call(engine, R"({"verb":"predict","session":")" + session +
                                R"(","tier":"batch","mode":"precision_only"})");
  ASSERT_TRUE(IsOk(batch)) << batch.Write();
  EXPECT_EQ(batch.Find("tier")->AsString(), "batch");
}

// ---------------------------------------------------------------------------
// Catalog.

std::vector<NamedJoin> OneJoin(const std::string& from_table,
                               const std::string& to_table) {
  NamedJoin j;
  j.from = {from_table, {"id"}};
  j.to = {to_table, {"id"}};
  j.kind = JoinKind::kNToOne;
  return {j};
}

TEST(ModelCatalogTest, PublishListPinDiff) {
  ModelCatalog catalog(8);
  EXPECT_EQ(catalog.Publish("acme", "v1", 111, OneJoin("a", "b")).value(), 1);
  std::vector<NamedJoin> two = OneJoin("a", "b");
  two.push_back(OneJoin("c", "d")[0]);
  EXPECT_EQ(catalog.Publish("acme", "v2", 222, two).value(), 2);
  // Tenants are isolated.
  EXPECT_EQ(catalog.Publish("other", "x", 333, OneJoin("q", "r")).value(), 1);

  std::vector<ModelSnapshot> listed = catalog.List("acme");
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].version, 1);
  EXPECT_EQ(listed[1].label, "v2");

  // Get: explicit version and "latest".
  EXPECT_EQ(catalog.Get("acme", 1)->joins.size(), 1u);
  EXPECT_EQ(catalog.Get("acme", 0)->version, 2);
  EXPECT_FALSE(catalog.Get("acme", 9).ok());
  EXPECT_FALSE(catalog.Get("ghost", 1).ok());

  StatusOr<ModelDiff> diff = catalog.Diff("acme", 1, 2);
  ASSERT_TRUE(diff.ok());
  ASSERT_EQ(diff->added.size(), 1u);
  EXPECT_TRUE(diff->added[0] == OneJoin("c", "d")[0]);
  EXPECT_TRUE(diff->removed.empty());

  ASSERT_TRUE(catalog.Pin("acme", 1, true).ok());
  EXPECT_TRUE(catalog.Get("acme", 1)->pinned);
  EXPECT_FALSE(catalog.Pin("acme", 9, true).ok());
}

TEST(ModelCatalogTest, EvictionSkipsPinnedSnapshots) {
  ModelCatalog catalog(/*max_unpinned_per_tenant=*/2);
  ASSERT_TRUE(catalog.Publish("t", "keep", 1, OneJoin("a", "b")).ok());
  ASSERT_TRUE(catalog.Pin("t", 1, true).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        catalog.Publish("t", "churn", 10 + uint64_t(i), OneJoin("c", "d"))
            .ok());
  }
  // The pinned v1 survives; only 2 unpinned remain.
  EXPECT_TRUE(catalog.Get("t", 1).ok());
  std::vector<ModelSnapshot> listed = catalog.List("t");
  size_t unpinned = 0;
  for (const ModelSnapshot& s : listed) {
    if (!s.pinned) ++unpinned;
  }
  EXPECT_EQ(unpinned, 2u);
}

TEST(ServeEngineTest, CatalogVerbsEndToEnd) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  std::string session = SetUpStarSession(engine);
  ASSERT_TRUE(IsOk(Call(engine, R"({"verb":"predict","session":")" + session +
                                    R"("})")));
  Json published = Call(engine, R"({"verb":"publish_model","session":")" +
                                    session + R"(","label":"first"})");
  ASSERT_TRUE(IsOk(published)) << published.Write();
  EXPECT_EQ(published.Find("version")->AsInt(), 1);

  Json listed = Call(engine, R"({"verb":"list_models"})");
  ASSERT_TRUE(IsOk(listed));
  ASSERT_EQ(listed.Find("models")->size(), 1u);
  EXPECT_EQ(listed.Find("models")->at(0).Find("label")->AsString(), "first");

  EXPECT_TRUE(IsOk(Call(engine, R"({"verb":"pin_model","version":1})")));
  Json got = Call(engine, R"({"verb":"get_catalog_model","version":1})");
  ASSERT_TRUE(IsOk(got));
  EXPECT_TRUE(got.Find("pinned")->AsBool());

  Json diff = Call(engine, R"({"verb":"diff_models","from":1,"to":1})");
  ASSERT_TRUE(IsOk(diff));
  EXPECT_EQ(diff.Find("added")->size(), 0u);
  EXPECT_EQ(diff.Find("removed")->size(), 0u);
}

// Lake-scale observability (PR 9): every successful predict reports what the
// blocking stage pruned and how the global solve partitioned, and the stats
// verb accumulates those numbers across requests.
TEST(ServeEngineTest, PredictReportsBlockingAndPartitionCounters) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  std::string session = SetUpStarSession(engine);
  Json predict =
      Call(engine, R"({"verb":"predict","session":")" + session + R"("})");
  ASSERT_TRUE(IsOk(predict)) << predict.Write();

  const Json* blocking = predict.Find("blocking");
  ASSERT_NE(blocking, nullptr);
  int64_t total = blocking->Find("column_pairs_total")->AsInt();
  int64_t admitted = blocking->Find("column_pairs_admitted")->AsInt();
  int64_t pruned = blocking->Find("column_pairs_pruned")->AsInt();
  EXPECT_GT(total, 0);
  EXPECT_EQ(total, admitted + pruned);
  EXPECT_GE(blocking->Find("table_pairs_total")->AsInt(),
            blocking->Find("table_pairs_active")->AsInt());
  const Json* rate = blocking->Find("pruning_rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_GE(rate->AsDouble(), 0.0);
  EXPECT_LE(rate->AsDouble(), 1.0);

  const Json* partition = predict.Find("partition");
  ASSERT_NE(partition, nullptr);
  ASSERT_NE(partition->Find("used"), nullptr);
  EXPECT_GE(partition->Find("components")->AsInt(),
            partition->Find("components_solved")->AsInt());

  // The stats verb carries the cumulative sums of the same counters.
  Json stats = Call(engine, R"({"verb":"stats"})");
  ASSERT_TRUE(IsOk(stats));
  const Json* cumulative = stats.Find("blocking");
  ASSERT_NE(cumulative, nullptr);
  EXPECT_EQ(cumulative->Find("column_pairs_pruned")->AsInt(), pruned);
  EXPECT_EQ(cumulative->Find("column_pairs_admitted")->AsInt(), admitted);
  EXPECT_GE(cumulative->Find("components_solved")->AsInt(), 0);
}

// A graph that is one island is a partition of one: its predict solves one
// component, and `used` (more than one island) stays false.
TEST(ServeEngineTest, OneIslandPredictSolvesOneComponent) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  std::string session = SetUpStarSession(engine);
  Json predict =
      Call(engine, R"({"verb":"predict","session":")" + session + R"("})");
  ASSERT_TRUE(IsOk(predict)) << predict.Write();
  ASSERT_GT(predict.Find("joins")->size(), 0u);
  const Json* partition = predict.Find("partition");
  ASSERT_NE(partition, nullptr);
  EXPECT_EQ(partition->Find("components")->AsInt(), 1);
  EXPECT_EQ(partition->Find("components_solved")->AsInt(), 1);
  EXPECT_GT(partition->Find("largest_component_edges")->AsInt(), 0);
  EXPECT_FALSE(partition->Find("used")->AsBool());

  Json stats = Call(engine, R"({"verb":"stats"})");
  ASSERT_TRUE(IsOk(stats));
  EXPECT_EQ(stats.Find("blocking")->Find("components_solved")->AsInt(), 1);
}

TEST(ServeEngineTest, StatsAndShutdown) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  Call(engine, R"({"verb":"ping"})");
  Json stats = Call(engine, R"({"verb":"stats"})");
  ASSERT_TRUE(IsOk(stats));
  EXPECT_GE(stats.Find("requests")->AsInt(), 1);
  const Json* admission = stats.Find("admission");
  ASSERT_NE(admission, nullptr);
  // Queue-wait and rejection counters are always present; only predicts
  // pass through the gate, so everything is zero after a ping.
  EXPECT_EQ(admission->Find("admitted")->AsInt(), 0);
  EXPECT_EQ(admission->Find("rejected")->AsInt(), 0);
  EXPECT_EQ(admission->Find("queue_wait_total_seconds")->AsDouble(), 0.0);
  EXPECT_EQ(admission->Find("queue_wait_max_seconds")->AsDouble(), 0.0);
  // Without --state_dir the durability block reports disabled.
  const Json* durability = stats.Find("durability");
  ASSERT_NE(durability, nullptr);
  EXPECT_FALSE(durability->Find("enabled")->AsBool());
  EXPECT_FALSE(engine.shutdown_requested());
  Json shutdown = Call(engine, R"({"verb":"shutdown"})");
  EXPECT_TRUE(IsOk(shutdown));
  EXPECT_TRUE(shutdown.Find("state_flushed")->AsBool());
  EXPECT_TRUE(engine.shutdown_requested());
}

// Replaces the value of every object key ending in "_seconds", at any depth,
// with 0: wall-clock times are the one part of a response that varies.
Json ZeroSeconds(const Json& value) {
  if (value.is_array()) {
    Json out = Json::MakeArray();
    for (size_t i = 0; i < value.size(); ++i) {
      out.Append(ZeroSeconds(value.at(i)));
    }
    return out;
  }
  if (!value.is_object()) return value;
  Json out = Json::MakeObject();
  for (const auto& [key, member] : value.members()) {
    const bool seconds =
        key.size() >= 8 && key.compare(key.size() - 8, 8, "_seconds") == 0;
    out.Set(key, seconds ? Json::MakeInt(0) : ZeroSeconds(member));
  }
  return out;
}

// The wire format, pinned. tests/golden/serve_wire_transcript.txt is a
// script covering every verb's success response and every error path: each
// "> " line is a request line, the "< " line after it the response it must
// get. On a mismatch the transcript this engine produced is written to the
// test temp dir, to diff against the golden file.
TEST(ServeEngineTest, WireTranscriptIsStable) {
  ServeOptions options;
  options.threads = 2;
  options.max_sessions = 3;
  options.max_tables_per_session = 3;
  ServeEngine engine(&TestModel(), options);

  std::ifstream golden(AUTOBI_TESTS_DIR "/golden/serve_wire_transcript.txt");
  ASSERT_TRUE(golden) << "cannot open the golden transcript";
  std::vector<std::string> expected, actual;
  for (std::string line; std::getline(golden, line);) {
    expected.push_back(line);
    if (line.rfind("< ", 0) == 0) continue;
    actual.push_back(line);
    if (line.rfind("> ", 0) != 0) continue;
    StatusOr<Json> response =
        ParseJson(engine.HandleLine(std::string_view(line).substr(2)));
    ASSERT_TRUE(response.ok()) << "response not JSON for: " << line;
    actual.push_back("< " + ZeroSeconds(*response).Write());
  }
  EXPECT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < std::min(expected.size(), actual.size()); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << "golden line " << i + 1;
  }
  if (HasFailure()) {
    const std::string path =
        ::testing::TempDir() + "serve_wire_transcript.actual";
    std::ofstream out(path);
    for (const std::string& line : actual) out << line << "\n";
    ADD_FAILURE() << "this engine's transcript: " << path;
  }
}

// The tentpole end-to-end property: a daemon restarted from a populated
// state dir serves the published model byte-identically, and the stats verb
// reports what recovery found.
TEST(ServeEngineTest, StateDirRestartServesByteIdenticalCatalogModel) {
  std::string dir = ::testing::TempDir() + "/autobi_serve_restart";
  std::filesystem::remove_all(dir);
  ServeOptions options;
  options.state_dir = dir;

  std::string first_response;
  {
    ServeEngine engine(&TestModel(), options);
    ASSERT_TRUE(engine.RecoverState().ok());
    std::string session = SetUpStarSession(engine);
    ASSERT_TRUE(IsOk(Call(engine, R"({"verb":"predict","session":")" +
                                      session + R"("})")));
    Json published = Call(engine, R"({"verb":"publish_model","session":")" +
                                      session + R"(","label":"durable"})");
    ASSERT_TRUE(IsOk(published)) << published.Write();
    ASSERT_TRUE(IsOk(Call(engine, R"({"verb":"pin_model","version":1})")));
    first_response =
        engine.HandleLine(R"({"verb":"get_catalog_model","version":1})");
    ASSERT_TRUE(engine.FlushState().ok());
  }  // Engine destroyed: the "restart".

  ServeEngine engine(&TestModel(), options);
  ASSERT_TRUE(engine.RecoverState().ok());
  // Byte-identical response without any session or re-predict.
  EXPECT_EQ(engine.HandleLine(R"({"verb":"get_catalog_model","version":1})"),
            first_response);

  Json stats = Call(engine, R"({"verb":"stats"})");
  ASSERT_TRUE(IsOk(stats));
  const Json* durability = stats.Find("durability");
  ASSERT_NE(durability, nullptr);
  EXPECT_TRUE(durability->Find("enabled")->AsBool());
  EXPECT_EQ(durability->Find("recovered_versions")->AsInt(), 1);
  EXPECT_EQ(durability->Find("recovered_tenants")->AsInt(), 1);
  EXPECT_EQ(durability->Find("discarded_records")->AsInt(), 0);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Unix-socket transport.

// Connects to the unix socket at `path`, retrying while the server binds.
int ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  for (int attempt = 0; attempt < 1000; ++attempt) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0 &&
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    if (fd >= 0) ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

// Sends all of `bytes`; MSG_NOSIGNAL turns a server that already closed the
// connection into a false return instead of a SIGPIPE.
bool WriteAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t w = ::send(fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (w <= 0) return false;
    off += size_t(w);
  }
  return true;
}

// Reads one response line ("" on EOF, error or timeout before a newline).
std::string ReadLine(int fd) {
  std::string line;
  char ch;
  while (::read(fd, &ch, 1) == 1) {
    if (ch == '\n') return line;
    line.push_back(ch);
  }
  return "";
}

// Sends one request line and returns the response line ("" on a failure).
std::string RoundTrip(int fd, const std::string& request) {
  if (!WriteAll(fd, request + "\n")) return "";
  return ReadLine(fd);
}

// A client that sends a burst and hangs up without reading leaves the server
// writing responses into a closed socket. The write must fail with EPIPE
// and end only that connection: without MSG_NOSIGNAL the default SIGPIPE
// action kills the whole process (this test binary included).
TEST(ServeTransportTest, ClientHangUpLeavesServerRunning) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  const std::string path =
      ::testing::TempDir() + StrFormat("autobi_hangup_%d.sock", int(getpid()));
  ASSERT_LT(path.size(), sizeof(sockaddr_un{}.sun_path));
  Status served;
  std::thread server([&] { served = RunUnixSocketServer(&engine, path); });

  int hangup = ConnectUnix(path);
  EXPECT_GE(hangup, 0);
  std::string burst;
  for (int i = 0; i < 2000; ++i) burst += "{\"verb\":\"ping\"}\n";
  EXPECT_TRUE(WriteAll(hangup, burst));
  ::close(hangup);

  int fresh = ConnectUnix(path);
  EXPECT_GE(fresh, 0);
  StatusOr<Json> pong = ParseJson(RoundTrip(fresh, R"({"verb":"ping"})"));
  EXPECT_TRUE(pong.ok() && pong->Find("pong") != nullptr &&
              pong->Find("pong")->AsBool());
  // Shut down in-process whatever happened above, so the server always
  // joins.
  engine.HandleLine(R"({"verb":"shutdown"})");
  ::close(fresh);
  server.join();
  EXPECT_TRUE(served.ok()) << served.ToString();
}

// Bounds every read on `fd`, so a server that never answers fails the test
// instead of hanging it.
void SetReceiveTimeout(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
}

int64_t ResponseId(const std::string& line) {
  StatusOr<Json> parsed = ParseJson(line);
  if (!parsed.ok() || parsed->Find("id") == nullptr) return -1;
  return parsed->Find("id")->AsInt();
}

// Runs RunUnixSocketServer on a thread for the scope of a test.
class SocketServer {
 public:
  SocketServer(ServeEngine* engine, const std::string& tag)
      : engine_(engine),
        path_(::testing::TempDir() +
              StrFormat("autobi_%s_%d.sock", tag.c_str(), int(getpid()))),
        thread_([this] { served_ = RunUnixSocketServer(engine_, path_); }) {}
  ~SocketServer() {
    // Shut down in-process whatever the test did, so the server joins.
    engine_->HandleLine(R"({"verb":"shutdown"})");
    thread_.join();
    EXPECT_TRUE(served_.ok()) << served_.ToString();
  }
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  int Connect() const {
    int fd = ConnectUnix(path_);
    EXPECT_GE(fd, 0);
    if (fd >= 0) SetReceiveTimeout(fd, 60);
    return fd;
  }

 private:
  ServeEngine* engine_;
  const std::string path_;
  Status served_;
  std::thread thread_;
};

// Framing: several requests in one write, and a multi-megabyte upload line
// arriving in pieces of 1 B to 100 KB whose last piece also carries the
// next request. One response per request, in order, and the upload parses
// to the same table as ReadCsv of the CSV it carried.
TEST(ServeTransportTest, FramesBatchedAndChunkedRequestsInOrder) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  SocketServer server(&engine, "framing");
  int fd = server.Connect();
  ASSERT_GE(fd, 0);

  ASSERT_TRUE(WriteAll(fd, "{\"verb\":\"ping\",\"id\":1}\n"
                          "{\"verb\":\"create_session\",\"id\":2}\r\n"
                          "{\"verb\":\"ping\",\"id\":3}\n"));
  EXPECT_EQ(ResponseId(ReadLine(fd)), 1);
  StatusOr<Json> created = ParseJson(ReadLine(fd));
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created->Find("id")->AsInt(), 2);
  const std::string session = created->Find("session")->AsString();
  EXPECT_EQ(ResponseId(ReadLine(fd)), 3);

  // A >= 4 MB CSV whose JSON form carries escapes (quotes, newlines).
  Rng rng(0xF4A3u);
  std::string csv = "id,label,amount\n";
  for (int64_t i = 0; csv.size() < (size_t{4} << 20); ++i) {
    csv += StrFormat("%lld,\"name \"\"%llu\"\", x\",%.3f\n",
                     static_cast<long long>(i),
                     static_cast<unsigned long long>(rng.NextBelow(100000)),
                     double(rng.NextBelow(1000000)) / 7.0);
  }
  Json upload = Json::MakeObject();
  upload.Set("verb", Json::MakeString("upload_table"));
  upload.Set("id", Json::MakeInt(4));
  upload.Set("session", Json::MakeString(session));
  upload.Set("name", Json::MakeString("big"));
  upload.Set("csv", Json::MakeString(csv));
  const std::string line = upload.Write() + "\n";
  const std::string tail = "{\"verb\":\"ping\",\"id\":5}\n";
  size_t off = 0;
  const size_t last = line.size() - 1 - rng.NextBelow(64);
  while (off < last) {
    size_t chunk = std::min(last - off, size_t(1 + rng.NextBelow(100000)));
    ASSERT_TRUE(WriteAll(fd, std::string_view(line).substr(off, chunk)));
    off += chunk;
  }
  ASSERT_TRUE(WriteAll(fd, line.substr(off) + tail));

  StatusOr<Json> uploaded = ParseJson(ReadLine(fd));
  ASSERT_TRUE(uploaded.ok());
  EXPECT_EQ(uploaded->Find("id")->AsInt(), 4);
  ASSERT_TRUE(IsOk(*uploaded)) << uploaded->Write();
  StatusOr<Table> table = ReadCsv(csv, "big");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(uploaded->Find("content_hash")->AsString(),
            StrFormat("%016llx", static_cast<unsigned long long>(
                                     TableContentHash(*table))));
  EXPECT_EQ(uploaded->Find("rows")->AsInt(), int64_t(table->num_rows()));
  EXPECT_EQ(ResponseId(ReadLine(fd)), 5);
  ::close(fd);
}

// A client that half-closes after a last line without '\n' still gets
// that line answered, and a CRLF blank line is skipped like a blank one:
// two pings, two responses, then EOF.
TEST(ServeTransportTest, ServesUnterminatedLastLineAtEof) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  SocketServer server(&engine, "eof");
  int fd = server.Connect();
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteAll(fd, "{\"verb\":\"ping\",\"id\":1}\r\n\r\n"
                          "{\"verb\":\"ping\",\"id\":2}"));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  EXPECT_EQ(ResponseId(ReadLine(fd)), 1);
  EXPECT_EQ(ResponseId(ReadLine(fd)), 2);
  char ch;
  EXPECT_EQ(::read(fd, &ch, 1), 0) << "connection not closed after EOF";
  ::close(fd);
}

// One line per mapping of this process: a thread stack (and its guard
// page) that stays mapped shows up here.
size_t MappingLines() {
  std::ifstream maps("/proc/self/maps");
  size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

// Connections one after another, each served by a thread that returns
// when its client hangs up. An unjoined thread keeps its stack mapped, two
// mapping lines per connection; joined at the next accept, the finished
// threads leave at most a few behind.
TEST(ServeTransportTest, FinishedConnectionThreadsAreReaped) {
  ServeEngine engine(&TestModel(), ServeOptions{});
  SocketServer server(&engine, "reap");
  auto ping = [&server] {
    int fd = server.Connect();
    ASSERT_GE(fd, 0);
    EXPECT_EQ(ResponseId(RoundTrip(fd, R"({"verb":"ping","id":7})")), 7);
    ::close(fd);
  };
  // A first batch lets one-time mappings settle: a sanitizer runtime's
  // allocator grows by some 70 lines over it, then holds.
  for (int i = 0; i < 64; ++i) ping();
  const size_t before = MappingLines();
  for (int i = 0; i < 64; ++i) ping();
  const size_t after = MappingLines();
  EXPECT_LT(after, before + 32)
      << "mappings grew from " << before << " to " << after
      << " over 64 sequential connections";
}

// A request line longer than the cap gets one RESOURCE_EXHAUSTED line
// naming the cap, then the connection closes. Other connections are
// unaffected.
TEST(ServeTransportTest, OverCapLineIsAnsweredOnceThenClosed) {
  ServeOptions options;
  options.max_csv_bytes = 1024;
  const size_t cap = MaxRequestLineBytes(options);
  EXPECT_EQ(cap, 2 * options.max_csv_bytes + (size_t{64} << 10));
  ServeEngine engine(&TestModel(), options);
  SocketServer server(&engine, "linecap");

  int fd = server.Connect();
  ASSERT_GE(fd, 0);
  SetReceiveTimeout(fd, 10);
  std::string request = R"({"verb":"upload_table","csv":")";
  request.resize(cap + 1, 'a');  // No newline: the line never ends.
  ASSERT_TRUE(WriteAll(fd, request));
  StatusOr<Json> rejected = ParseJson(ReadLine(fd));
  ASSERT_TRUE(rejected.ok()) << "no error line before the timeout";
  EXPECT_EQ(ErrorCode(*rejected), "RESOURCE_EXHAUSTED");
  EXPECT_NE(rejected->Find("error")->Find("message")->AsString().find(
                std::to_string(cap)),
            std::string::npos);
  char ch;
  EXPECT_EQ(::read(fd, &ch, 1), 0) << "connection not closed";
  ::close(fd);

  int fresh = server.Connect();
  ASSERT_GE(fresh, 0);
  StatusOr<Json> pong = ParseJson(RoundTrip(fresh, R"({"verb":"ping"})"));
  EXPECT_TRUE(pong.ok() && pong->Find("pong") != nullptr &&
              pong->Find("pong")->AsBool());
  ::close(fresh);
}

}  // namespace
}  // namespace autobi

// Traced replay: the recorded sessions run again in-process, once through a
// fresh ServeEngine (HandleLine, the daemon's code minus the socket) and
// once through the public function of every layer, each call timed as a
// span. Layers are measured from outside only: the spans wrap calls into
// table/, profile/, core/, graph/ and serve/, never code inside them.
//
// Span tree of one request (children listed under their parent):
//   request
//     serve.engine           HandleLine on the same request line
//     decompose              the same request, one layer call at a time
//       serve.json.parse     ParseJson(line)
//       table.csv.read       ReadCsv                       (upload)
//       profile.sketch.*     TableContentHash / TablesContentHash
//       predict              the plain pipeline, stage by stage (predicts)
//         profile.sketch.table_keys, profile.column_profile, profile.ucc,
//         profile.blocking, profile.ind, core.candidates.convert,
//         core.score, core.graph.build, core.graph.partition,
//         graph.kmca_cc (one child span per solved component), graph.ems,
//         core.model
//       serve.catalog.name_joins
//       serve.json.write     Json::Write of the response
//   core.incremental         AutoBi::PredictIncremental (cold and delta)
// The wire time of the same request in the daemon run closes the top
// level: serve.transport = wire - serve.engine.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/parallel.h"
#include "common/run_context.h"
#include "common/strings.h"
#include "core/auto_bi.h"
#include "core/candidates.h"
#include "core/graph_builder.h"
#include "core/incremental.h"
#include "graph/ems.h"
#include "graph/kmca_cc.h"
#include "perfbench.h"
#include "profile/blocking.h"
#include "profile/column_profile.h"
#include "profile/ind.h"
#include "profile/sketch.h"
#include "profile/ucc.h"
#include "serve/catalog.h"
#include "serve/engine.h"
#include "table/csv.h"
#include "table/key_view.h"

namespace autobi::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// In-memory span recorder; written out as Chrome trace-event JSON when the
// run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t id = 0;
    int64_t parent = -1;
    int64_t request = -1;
    double start_us = 0.0;
    double end_us = 0.0;
    size_t tid = 0;
    std::map<std::string, double> args;
  };

  // A disabled tracer records nothing: the untraced baseline of the
  // tracing-overhead figure.
  explicit Tracer(bool enabled = true)
      : enabled_(enabled), epoch_(Clock::now()) {}

  int64_t Begin(const std::string& name, int64_t parent, int64_t request) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.id = int64_t(spans_.size());
    s.parent = parent;
    s.request = request;
    s.tid = std::hash<std::thread::id>()(std::this_thread::get_id()) % 1000;
    s.start_us = NowUs();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  // Ends span `id` and returns its duration in ms.
  double End(int64_t id) {
    if (id < 0) return 0.0;
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[size_t(id)];
    s.end_us = NowUs();
    return (s.end_us - s.start_us) / 1e3;
  }

  void Arg(int64_t id, const std::string& key, double value) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[size_t(id)].args[key] = value;
  }

  void WriteChrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "")
          << StrFormat("{\"name\":\"%s\",\"cat\":\"autobi\",\"ph\":\"X\","
                       "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%zu,"
                       "\"args\":{\"id\":%lld,\"parent\":%lld,"
                       "\"request\":%lld",
                       s.name.c_str(), s.start_us, s.end_us - s.start_us,
                       s.tid, static_cast<long long>(s.id),
                       static_cast<long long>(s.parent),
                       static_cast<long long>(s.request));
      for (const auto& [k, v] : s.args) {
        out << StrFormat(",\"%s\":%.6f", k.c_str(), v);
      }
      out << "}}";
    }
    out << "\n]}\n";
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Times one call as a child span of `parent`.
template <typename Fn>
double Timed(Tracer* tracer, const char* name, int64_t parent,
             int64_t request, Fn&& fn) {
  int64_t id = tracer->Begin(name, parent, request);
  fn();
  return tracer->End(id);
}

// Per-layer samples: one value per request (or per predict) a layer served.
struct Samples {
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::string> units;

  void Add(const std::string& name, const char* unit, double v) {
    values[name].push_back(v);
    units[name] = unit;
  }
};

struct PredictReplay {
  BiModel model;
  double stages_ms = 0.0;  // Sum of the stage spans.
  double wall_ms = 0.0;    // The enclosing `predict` span.
};

// The plain pipeline (AutoBi::Predict without a cache) replayed from its
// public building blocks in RunPipeline's order, with the defaults the
// daemon uses (AutoBiOptions{threads}, the standard tier's budgets). The
// driver checks the resulting joins against the daemon's response.
PredictReplay ReplayPredict(const LocalModel& model,
                            const std::vector<Table>& tables, int threads,
                            Tracer* tracer, int64_t parent, int64_t request,
                            Samples* samples) {
  PredictReplay out;
  AutoBiOptions options;
  options.threads = threads;
  RunContext ctx;
  const QosPolicy policy = PolicyForTier(QosTier::kStandard);
  ctx.budgets = policy.budgets;
  CandidateGenOptions cand = options.candidates;
  cand.threads = threads;
  const size_t n = tables.size();
  const int64_t span = tracer->Begin("predict", parent, request);
  double ms = 0.0;
  auto stage = [&](const char* name, auto&& fn) {
    double t = Timed(tracer, name, span, request, fn);
    out.stages_ms += t;
    return t;
  };

  std::vector<char> admitted(n);
  std::vector<uint64_t> keys(n);
  ms = stage("profile.sketch.table_keys", [&] {
    const uint64_t fp = UccOptionsFingerprint(cand.ucc);
    for (size_t i = 0; i < n; ++i) {
      admitted[i] = !OverTableBudget(tables[i], ctx.budgets);
    }
    ParallelFor(
        n,
        [&](size_t i) {
          if (admitted[i]) keys[i] = SplitMix64(TableContentHash(tables[i]) ^ fp);
        },
        threads);
  });
  samples->Add("profile.sketch.table_keys_ms", "ms", ms);

  std::vector<TableKeyView> views(n);
  std::vector<TableProfile> profiles(n);
  ms = stage("profile.column_profile", [&] {
    ParallelFor(
        n,
        [&](size_t i) {
          if (!admitted[i]) {
            profiles[i] = MetadataOnlyProfile(tables[i]);
            return;
          }
          views[i] = TableKeyView(tables[i]);
          profiles[i] = ProfileTable(tables[i], views[i]);
        },
        threads);
  });
  size_t rows = 0;
  for (const Table& t : tables) rows += t.num_rows();
  samples->Add("profile.column_profile.ms", "ms", ms);
  samples->Add("profile.column_profile.rows", "count", double(rows));

  std::vector<std::vector<Ucc>> uccs(n);
  ms = stage("profile.ucc", [&] {
    ParallelFor(
        n,
        [&](size_t i) {
          if (admitted[i]) {
            uccs[i] = DiscoverUccs(tables[i], profiles[i], cand.ucc, &views[i]);
          }
        },
        threads);
  });
  size_t ucc_count = 0;
  for (const auto& u : uccs) ucc_count += u.size();
  samples->Add("profile.ucc.ms", "ms", ms);
  samples->Add("profile.ucc.uccs", "count", double(ucc_count));

  IndOptions ind = cand.ind;
  if (ind.threads == 0) ind.threads = threads;
  IndStats ind_stats;
  std::map<std::pair<int, int>, PairBlocking> plan;
  ms = stage("profile.blocking", [&] {
    plan = BuildBlockingPlan(profiles, ind.blocking, &ind_stats.blocking,
                             ind.threads, &ctx);
  });
  samples->Add("profile.blocking.ms", "ms", ms);
  samples->Add("profile.blocking.column_pairs_total", "count",
               double(ind_stats.blocking.column_pairs_total));
  samples->Add("profile.blocking.column_pairs_admitted", "count",
               double(ind_stats.blocking.column_pairs_admitted));
  samples->Add("profile.blocking.pruning_rate", "frac",
               ind_stats.blocking.PruningRate());

  // DiscoverInds is BuildBlockingPlan plus one ScanTablePair per active
  // pair; the scans run here on the plan above so the plan is timed once.
  CompositeKeyCache composite_cache;
  std::vector<Ind> inds;
  ms = stage("profile.ind", [&] {
    std::vector<std::pair<std::pair<int, int>, const PairBlocking*>> pairs;
    for (const auto& [key, admission] : plan) pairs.push_back({key, &admission});
    std::vector<IndPairScan> scans = ParallelMap(
        pairs.size(),
        [&](size_t p) {
          return ScanTablePair(tables, profiles, uccs, ind, &composite_cache,
                               pairs[p].first.first, pairs[p].first.second,
                               pairs[p].second);
        },
        ind.threads);
    for (IndPairScan& s : scans) {
      ind_stats.Add(s.stats);
      inds.insert(inds.end(), s.inds.begin(), s.inds.end());
    }
  });
  samples->Add("profile.ind.ms", "ms", ms);
  samples->Add("profile.ind.pairs_scanned", "count",
               double(ind_stats.pairs_scanned));
  samples->Add("profile.ind.unary_exact_checks", "count",
               double(ind_stats.unary_exact_checks));
  samples->Add("profile.ind.composite_probes", "count",
               double(ind_stats.composite_probes));
  samples->Add("profile.ind.inds", "count", double(inds.size()));

  std::vector<JoinCandidate> candidates;
  ms = stage("core.candidates.convert", [&] {
    CandidateMap dedup;
    AddIndCandidates(inds, tables, profiles, cand, &composite_cache, &dedup);
    if (cand.metadata_fallback_for_empty_tables) {
      std::vector<char> probed(n);
      for (size_t i = 0; i < n; ++i) {
        probed[i] = admitted[i] && tables[i].num_rows() > 0;
      }
      for (int ti = 0; ti < int(n); ++ti) {
        for (int tj = 0; tj < int(n); ++tj) {
          AddMetadataFallbackCandidates(tables, probed, ti, tj, &dedup);
        }
      }
    }
    for (auto& [key, c] : dedup) candidates.push_back(std::move(c));
  });
  samples->Add("core.candidates.convert_ms", "ms", ms);
  samples->Add("core.candidates.candidates", "count", double(candidates.size()));
  samples->Add("profile.ind.composite_sets_built", "count",
               double(composite_cache.builds()));

  std::vector<double> scores;
  ms = stage("core.score", [&] {
    scores = ScoreCandidates(tables, profiles, candidates, model,
                             /*schema_only=*/false, threads, &ctx);
  });
  samples->Add("core.score.ms", "ms", ms);
  samples->Add("core.score.scored", "count", double(scores.size()));

  JoinGraph graph;
  ms = stage("core.graph.build", [&] {
    graph = BuildJoinGraphFromScores(n, candidates, scores);
  });
  samples->Add("core.graph.build_ms", "ms", ms);

  std::vector<GraphComponent> components;
  ms = stage("core.graph.partition", [&] {
    components = PartitionJoinGraph(graph);
  });
  samples->Add("core.graph.partition_ms", "ms", ms);
  samples->Add("core.graph.components", "count", double(components.size()));

  // RunGlobalPredict's precision-mode solve, flat for 0-1 solvable
  // components and per component otherwise.
  KmcaCcOptions solver = options.solver;
  solver.penalty_weight =
      -std::log(JoinGraph::ClampProbability(options.penalty_probability));
  solver.enforce_fk_once = options.enforce_fk_once;
  std::vector<const GraphComponent*> solvable;
  for (const GraphComponent& c : components) {
    if (!c.edge_ids.empty()) solvable.push_back(&c);
  }
  std::vector<int> backbone;
  KmcaCcStats kstats;
  const int64_t kmca_span = tracer->Begin("graph.kmca_cc", span, request);
  if (solvable.size() <= 1) {
    backbone = SolveKmcaCc(graph, solver, &kstats).edge_ids;
  } else {
    KmcaCcOptions comp_solver = solver;
    comp_solver.threads = 1;
    struct CompSolve {
      KmcaResult result;
      KmcaCcStats stats;
    };
    std::vector<CompSolve> solves = ParallelMap(
        solvable.size(),
        [&](size_t i) {
          int64_t id =
              tracer->Begin("graph.kmca_cc.component", kmca_span, request);
          CompSolve s;
          JoinGraph local = BuildComponentGraph(graph, *solvable[i]);
          s.result = SolveKmcaCc(local, comp_solver, &s.stats);
          tracer->End(id);
          return s;
        },
        threads);
    for (size_t i = 0; i < solves.size(); ++i) {
      for (int local_id : solves[i].result.edge_ids) {
        backbone.push_back(solvable[i]->edge_ids[size_t(local_id)]);
      }
      kstats.one_mca_calls += solves[i].stats.one_mca_calls;
      kstats.memo_hits += solves[i].stats.memo_hits;
    }
  }
  ms = tracer->End(kmca_span);
  out.stages_ms += ms;
  samples->Add("graph.kmca_cc.ms", "ms", ms);
  samples->Add("graph.kmca_cc.one_mca_calls", "count",
               double(kstats.one_mca_calls));
  samples->Add("graph.kmca_cc.memo_hits", "count", double(kstats.memo_hits));

  std::vector<int> recall;
  ms = stage("graph.ems", [&] {
    EmsOptions ems;
    ems.tau = options.tau;
    recall = SolveEmsGreedy(graph, backbone, ems);
  });
  samples->Add("graph.ems.ms", "ms", ms);

  ms = stage("core.model", [&] {
    std::vector<int> all = backbone;
    all.insert(all.end(), recall.begin(), recall.end());
    std::sort(all.begin(), all.end());
    out.model = EdgesToModel(graph, all);
  });
  out.wall_ms = tracer->End(span);
  return out;
}

}  // namespace

TraceResult ReplayTraced(const LocalModel& model, const WorkloadSpec& spec,
                         const std::vector<SessionInput>& inputs,
                         const std::vector<SessionRecord>& records,
                         const TraceOptions& options) {
  TraceResult result;
  Tracer tracer;
  Samples samples;
  ServeOptions serve_options;
  serve_options.threads = options.threads;
  serve_options.state_dir = options.state_dir;
  ServeEngine engine(&model, serve_options);
  if (!engine.RecoverState().ok()) return result;
  const int threads = options.threads;
  std::vector<double> overhead;
  double upload_bytes = 0.0, csv_ms_total = 0.0;
  int64_t request = 0;

  for (size_t s = 0; s < records.size(); ++s) {
    const SessionInput& input = inputs[s];
    const SessionRecord& record = records[s];
    const std::vector<Table> pre = ParseSessionTables(input);
    const std::vector<Table> post = WithAppend(pre, input);
    std::vector<ScriptStep> script = SessionScript(spec, input, 0);
    if (script.size() != record.ops.size()) continue;
    std::string session;
    std::shared_ptr<IncrementalState> inc_state =
        std::make_shared<IncrementalState>();
    bool appended = false;
    bool replayed = true;
    size_t upload_index = 0;

    for (size_t k = 0; k < script.size(); ++k, ++request) {
      ScriptStep& step = script[k];
      const OpRecord& wire = record.ops[k];
      if (step.verb != "create_session") {
        step.request.Set("session", Json::MakeString(session));
      }
      const std::string line = step.request.Write();
      // Untraced baseline of a cold predict's replay, once before and once
      // after the traced one, so neither side alone gets the warmer caches.
      const bool cold = step.verb == "predict" && step.phase == "cold";
      auto untraced_ms = [&] {
        Tracer off(/*enabled=*/false);
        Samples scratch;
        auto t0 = Clock::now();
        ReplayPredict(model, appended ? post : pre, threads, &off, -1, request,
                      &scratch);
        return std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
      };
      double traced_predict_ms = 0.0;
      const double untraced_before = cold ? untraced_ms() : 0.0;
      const int64_t req_span = tracer.Begin("request", -1, request);
      tracer.Arg(req_span, "wire_ms", wire.wire_ms);

      std::string response;
      const double engine_ms = Timed(&tracer, "serve.engine", req_span, request,
                                     [&] { response = engine.HandleLine(line); });
      const double transport_ms = wire.wire_ms - engine_ms;
      tracer.Arg(req_span, "transport_ms", transport_ms);
      StatusOr<Json> parsed_response = ParseJson(response);
      const Json* id = parsed_response.ok() && step.verb == "create_session"
                           ? parsed_response->Find("session")
                           : nullptr;
      if (!parsed_response.ok() ||
          (step.verb == "create_session" && (id == nullptr || !id->is_string()))) {
        tracer.End(req_span);
        ++result.join_mismatches;  // The replay no longer follows the daemon.
        replayed = false;
        break;
      }
      if (id != nullptr) session = id->AsString();
      const std::vector<Table>& tables = appended ? post : pre;

      const int64_t dec = tracer.Begin("decompose", req_span, request);
      double children = 0.0;
      const double parse_ms = Timed(&tracer, "serve.json.parse", dec, request,
                                    [&] { (void)ParseJson(line); });
      children += parse_ms;
      if (step.verb == "upload_table") {
        const TableInput& t = input.uploads[upload_index];
        StatusOr<Table> table = Status::Internal("unset");
        CsvOptions csv_options;
        csv_options.max_bytes = serve_options.max_csv_bytes;
        const double csv_ms = Timed(&tracer, "table.csv.read", dec, request, [&] {
          table = ReadCsv(t.csv, t.name, csv_options);
        });
        double hash_ms = 0.0;
        if (table.ok()) {
          hash_ms = Timed(&tracer, "profile.sketch.table_hash", dec, request,
                          [&] { (void)TableContentHash(*table); });
        }
        const double write_ms = Timed(&tracer, "serve.json.write", dec, request,
                                      [&] { (void)parsed_response->Write(); });
        children += csv_ms + hash_ms + write_ms;
        const double session_ms = engine_ms - children;
        samples.Add("serve.transport.upload_ms", "ms", transport_ms);
        samples.Add("serve.json.parse_ms", "ms", parse_ms);
        samples.Add("serve.json.bytes", "bytes", double(line.size()));
        samples.Add("table.csv.read_ms", "ms", csv_ms);
        samples.Add("profile.sketch.table_hash_ms", "ms", hash_ms);
        samples.Add("serve.engine.session_ms", "ms", session_ms);
        if (upload_index > 0) {
          samples.Add("serve.engine.session_us_per_resident_table", "us",
                      1e3 * session_ms / double(upload_index));
        }
        upload_bytes += double(t.csv.size());
        csv_ms_total += csv_ms;
        ++upload_index;
      } else if (step.verb == "update_table") {
        children += Timed(&tracer, "profile.sketch.table_hash", dec, request,
                          [&] {
                            for (const Table& t : post) {
                              if (t.name() == input.append_table) {
                                (void)TableContentHash(t);
                              }
                            }
                          });
        appended = true;
      } else if (step.verb == "predict") {
        const Json* joins = parsed_response->Find("joins");
        const std::vector<std::string> engine_joins =
            joins ? CanonicalJoins(*joins) : std::vector<std::string>{};
        const Json* daemon_joins = nullptr;
        StatusOr<Json> daemon_response = ParseJson(wire.response);
        if (daemon_response.ok()) daemon_joins = daemon_response->Find("joins");
        const std::vector<std::string> wire_joins =
            daemon_joins ? CanonicalJoins(*daemon_joins)
                         : std::vector<std::string>{"<missing>"};
        if (engine_joins != wire_joins) ++result.join_mismatches;
        const bool plain = step.phase == "warm" ||
                           (step.phase == "cold" && !spec.cold_incremental);
        if (plain) {
          // The memo key: one pass over every cell of every table.
          const double hash_ms =
              Timed(&tracer, "profile.sketch.tables_hash", dec, request,
                    [&] { (void)TablesContentHash(tables); });
          children += hash_ms;
          samples.Add("profile.sketch.tables_hash_ms", "ms", hash_ms);
        }
        if (step.phase == "cold") {
          PredictReplay replay = ReplayPredict(model, tables, threads, &tracer,
                                               dec, request, &samples);
          children += replay.wall_ms;
          std::vector<std::string> named;
          const double name_ms =
              Timed(&tracer, "serve.catalog.name_joins", dec, request,
                    [&] { named = CanonicalJoins(tables, replay.model); });
          children += name_ms;
          if (named != wire_joins) ++result.join_mismatches;
          samples.Add("serve.catalog.name_joins_ms", "ms", name_ms);
          samples.Add("unaccounted.predict_ms", "ms",
                      replay.wall_ms - replay.stages_ms);
          traced_predict_ms = replay.wall_ms;
        }
        const double write_ms = Timed(&tracer, "serve.json.write", dec, request,
                                      [&] { (void)parsed_response->Write(); });
        children += write_ms;
        if (step.phase == "warm") {
          samples.Add("serve.transport.predict_ms", "ms", transport_ms);
        }
        if (step.phase == "cold") {
          samples.Add("serve.json.write_ms", "ms", write_ms);
          samples.Add("unaccounted.engine_ms", "ms", engine_ms - children);
        }
      } else if (step.verb == "publish_model") {
        children += Timed(&tracer, "profile.sketch.tables_hash", dec, request,
                          [&] { (void)TablesContentHash(tables); });
        samples.Add("serve.catalog.publish_ms", "ms", engine_ms);
      }
      tracer.End(dec);
      tracer.End(req_span);
      if (cold) {
        overhead.push_back(traced_predict_ms -
                           0.5 * (untraced_before + untraced_ms()));
      }

      // The delta engine, outside the request tree: a cold build on the
      // session's first tables where the cold predict is incremental, then
      // the post-append run the delta predict made.
      if (step.verb == "predict" && step.phase != "warm" &&
          (step.phase == "delta" || spec.cold_incremental)) {
        AutoBiOptions ab;
        ab.threads = threads;
        AutoBi predictor(&model, ab);
        RunContext ctx;
        StatusOr<AutoBiResult> inc = Status::Internal("unset");
        const double inc_ms =
            Timed(&tracer, "core.incremental", -1, request, [&] {
              inc = predictor.PredictIncremental(tables, &ctx, inc_state.get());
            });
        if (step.phase == "delta" && inc.ok()) {
          samples.Add("core.incremental.ms", "ms", inc_ms);
          samples.Add("core.incremental.tables_reprofiled", "count",
                      double(inc->incremental.tables_reprofiled));
          samples.Add("core.incremental.tables_delta_merged", "count",
                      double(inc->incremental.tables_delta_merged));
          samples.Add("core.incremental.pairs_rescored", "count",
                      double(inc->incremental.pairs_rescored));
          samples.Add("core.incremental.pairs_reused", "count",
                      double(inc->incremental.pairs_reused));
          const Json* daemon_joins = nullptr;
          StatusOr<Json> daemon_response = ParseJson(wire.response);
          if (daemon_response.ok()) {
            daemon_joins = daemon_response->Find("joins");
          }
          if (daemon_joins == nullptr ||
              CanonicalJoins(*daemon_joins) !=
                  CanonicalJoins(tables, inc->model)) {
            ++result.join_mismatches;
          }
        }
      }
    }
    result.replayed_sessions += size_t(replayed);
  }
  (void)engine.HandleLine(R"({"verb":"shutdown"})");

  for (const auto& [name, values] : samples.values) {
    result.metrics[name] = Median(values);
    result.units[name] = samples.units[name];
  }
  result.metrics["table.csv.mb_per_s"] =
      csv_ms_total > 0 ? (upload_bytes / 1e6) / (csv_ms_total / 1e3) : 0.0;
  result.units["table.csv.mb_per_s"] = "MB/s";
  result.overhead_ms = Median(overhead);
  if (!options.trace_path.empty()) tracer.WriteChrome(options.trace_path);
  return result;
}

}  // namespace autobi::perfbench

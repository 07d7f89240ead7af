// autobi_perfbench: the wire-to-kernel benchmark driver.
//
// One run boots a real `autobi_serve --socket` daemon, drives it from this
// process with closed-loop session scripts for --seconds, checks every
// response against references computed in-process, and prints one JSON
// result line (README.md in this directory has the full description).
//
//   autobi_perfbench --workload star_session --seed 1 --seconds 15
//       --trace 0 --serve PATH/autobi_serve --workdir DIR [--record FILE]
//       [--build_type Release]
//
// --workdir must be an empty directory; the driver chdirs into it and keeps
// the socket, model file, daemon logs and --state_dir there. The caller
// removes it. With --trace 1 the run additionally replays its sessions
// in-process, layer by layer, and reports the per-layer metrics instead of
// the end-to-end ones.

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/auto_bi.h"
#include "core/trainer.h"
#include "eval/metrics.h"
#include "perfbench.h"
#include "serve/catalog.h"
#include "synth/corpus.h"

namespace autobi::perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Tail(std::vector<double> v, double* percentile) {
  if (v.empty()) {
    *percentile = 0.0;
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n < 21) {
    *percentile = 50.0;
    return Median(v);
  }
  const size_t rank = n - 11;  // Exactly 10 samples lie beyond it.
  *percentile = 100.0 * double(rank + 1) / double(n);
  return v[rank];
}

std::vector<std::string> CanonicalJoins(const Json& joins_array) {
  std::vector<std::string> out;
  if (!joins_array.is_array()) return out;
  for (size_t i = 0; i < joins_array.size(); ++i) {
    const Json& j = joins_array.at(i);
    const Json* from = j.Find("from");
    const Json* to = j.Find("to");
    const Json* kind = j.Find("kind");
    if (from == nullptr || to == nullptr || kind == nullptr ||
        !from->is_string() || !to->is_string() || !kind->is_string()) {
      out.push_back("<malformed>");
      continue;
    }
    out.push_back(from->AsString() + " -> " + to->AsString() + " [" +
                  kind->AsString() + "]");
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> CanonicalJoins(const std::vector<Table>& tables,
                                        const BiModel& model) {
  std::vector<std::string> out;
  for (const NamedJoin& j : NameJoins(tables, model)) {
    out.push_back(j.from.ToString() + " -> " + j.to.ToString() + " [" +
                  (j.kind == JoinKind::kOneToOne ? "1:1" : "N:1") + "]");
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

// Fixed training configuration of the set-up phase.
constexpr uint64_t kTrainSeed = 20230701;
constexpr size_t kTrainCases = 60;
constexpr int kSetups = 3;
constexpr int kReplaySessions = 4;

// The daemon alive right now (set-up stops one before booting the next);
// the signal handler and every exit path kill it. Atomic so the handler
// can read it.
std::atomic<pid_t> g_daemon{-1};

void KillDaemon() {
  pid_t pid = g_daemon.exchange(-1);
  if (pid > 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
}

void OnSignal(int sig) {
  KillDaemon();  // kill and waitpid are async-signal-safe.
  ::_exit(128 + sig);
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "autobi_perfbench: %s\n", message.c_str());
  KillDaemon();
  std::exit(1);
}

// One client connection speaking the NDJSON protocol.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() { Close(); }

  bool Open(const std::string& path) {
    Close();
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    timeval tv{};
    tv.tv_sec = 120;  // A hung daemon fails the op instead of the run.
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    buffer_.clear();
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  // Sends one request line and reads its whole response line. Returns
  // false when the connection broke (daemon gone or timed out).
  bool Call(const std::string& line, std::string* response, double* ms) {
    auto start = std::chrono::steady_clock::now();
    std::string out = line;
    out.push_back('\n');
    size_t sent = 0;
    while (sent < out.size()) {
      ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += size_t(n);
    }
    for (;;) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        response->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        break;
      }
      char chunk[1 << 16];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, size_t(n));
    }
    *ms = std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
    return true;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

pid_t SpawnDaemon(const std::string& serve, const std::vector<std::string>& args,
                  const std::string& log_path) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(serve.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = ::fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    int devnull = ::open("/dev/null", O_RDONLY);
    int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (devnull >= 0) ::dup2(devnull, 0);
    if (log >= 0) {
      ::dup2(log, 1);
      ::dup2(log, 2);
    }
    ::execv(serve.c_str(), argv.data());
    ::_exit(127);
  }
  g_daemon = pid;
  return pid;
}

bool DaemonAlive(pid_t pid) {
  int status = 0;
  return ::waitpid(pid, &status, WNOHANG) == 0;
}

// Sends `shutdown` and waits for the daemon to exit (SIGKILL after 30 s).
void StopDaemon(pid_t pid, Connection* conn) {
  std::string response;
  double ms = 0;
  conn->Call(R"({"verb":"shutdown"})", &response, &ms);
  conn->Close();
  for (int i = 0; i < 3000; ++i) {
    if (::waitpid(pid, nullptr, WNOHANG) == pid) {
      g_daemon = -1;
      return;
    }
    ::usleep(10000);
  }
  KillDaemon();
}

struct ProcStats {
  double cpu_seconds = 0.0;
  double peak_rss_mb = 0.0;
};

ProcStats ReadProc(pid_t pid) {
  ProcStats out;
  std::ifstream stat(StrFormat("/proc/%d/stat", int(pid)));
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  size_t close_paren = text.rfind(')');
  if (close_paren != std::string::npos) {
    std::istringstream fields(text.substr(close_paren + 2));
    std::string f;
    long utime = 0, stime = 0;
    // Fields after the command name start at field 3 (state); utime and
    // stime are fields 14 and 15.
    for (int i = 3; i <= 15 && (fields >> f); ++i) {
      if (i == 14) utime = std::atol(f.c_str());
      if (i == 15) stime = std::atol(f.c_str());
    }
    out.cpu_seconds = double(utime + stime) / double(::sysconf(_SC_CLK_TCK));
  }
  std::ifstream status(StrFormat("/proc/%d/status", int(pid)));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      out.peak_rss_mb = std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return out;
}

// Host CPU time stolen by the hypervisor so far, summed over all CPUs: a
// run whose window saw much of it ran on a busy host.
double HostStealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  long v[8] = {0};
  stat >> cpu;
  for (long& x : v) stat >> x;
  return double(v[7]) / double(::sysconf(_SC_CLK_TCK));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string serve;
  std::string workdir;
  std::string record;
  std::string build_type = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v.c_str());
    else if (flag == "--trace") a.trace = std::atoi(v.c_str());
    else if (flag == "--serve") a.serve = v;
    else if (flag == "--workdir") a.workdir = v;
    else if (flag == "--record") a.record = v;
    else if (flag == "--build_type") a.build_type = v;
    else Die("unknown flag " + flag);
  }
  if (a.serve.empty() || a.workdir.empty()) Die("--serve and --workdir are required");
  if (a.seconds <= 0) Die("--seconds must be positive");
  return a;
}

// --- Set-up ------------------------------------------------------------------

struct Daemon {
  pid_t pid = -1;
  std::string socket;
};

// Trains the model, saves it, boots the daemon and waits for the first
// answered ping. Returns the elapsed seconds.
double SetUp(const Args& args, const WorkloadSpec& spec, int index,
             Daemon* daemon, Connection* conn) {
  Timer timer;
  CorpusOptions corpus;
  corpus.seed = kTrainSeed;
  corpus.training_cases = kTrainCases;
  LocalModel model = TrainLocalModel(BuildTrainingCorpus(corpus));
  if (!model.SaveToFile("model.txt")) Die("cannot save model.txt");
  daemon->socket = StrFormat("serve-%d.sock", index);
  std::string state_dir = StrFormat("state-%d", index);
  daemon->pid = SpawnDaemon(
      args.serve,
      {"--socket", daemon->socket, "--model", "model.txt", "--threads",
       std::to_string(spec.daemon_threads), "--state_dir", state_dir},
      StrFormat("serve-%d.log", index));
  for (;;) {
    if (conn->Open(daemon->socket)) break;
    if (!DaemonAlive(daemon->pid)) {
      g_daemon = -1;
      Die(StrFormat("autobi_serve exited during start-up (see serve-%d.log)",
                    index));
    }
    if (timer.Seconds() > 60) Die("autobi_serve did not start within 60 s");
    ::usleep(2000);
  }
  std::string response;
  double ms = 0;
  if (!conn->Call(R"({"verb":"ping"})", &response, &ms) ||
      response.find("\"pong\":true") == std::string::npos) {
    Die("first ping failed: " + response);
  }
  return timer.Seconds();
}

// --- The closed loop ---------------------------------------------------------

struct Counters {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  std::atomic<bool> daemon_lost{false};
};

// True when `response` is a well-formed ok response.
bool ResponseOk(const std::string& response, Json* parsed) {
  StatusOr<Json> json = ParseJson(response);
  if (!json.ok()) return false;
  *parsed = std::move(json).value();
  const Json* ok = parsed->Find("ok");
  return ok != nullptr && ok->is_bool() && ok->AsBool();
}

// Runs one session script; returns false if the connection broke. A failed
// request (error response, RESOURCE_EXHAUSTED, degraded predict) counts as
// failed and the script goes on.
bool RunSession(Connection* conn, const WorkloadSpec& spec,
                const SessionInput& input, int client, SessionRecord* record,
                Counters* counters, std::barrier<>* lockstep) {
  std::string session;
  std::vector<ScriptStep> script = SessionScript(spec, input, client);
  for (size_t k = 0; k < script.size(); ++k) {
    ScriptStep& step = script[k];
    lockstep->arrive_and_wait();
    if (step.verb != "create_session") {
      step.request.Set("session", Json::MakeString(session));
    }
    OpRecord op;
    op.verb = step.verb;
    op.phase = step.phase;
    ++counters->attempted;
    if (!conn->Call(step.request.Write(), &op.response, &op.wire_ms)) {
      // The daemon is gone: this op and the rest of the script fail.
      const int64_t rest = int64_t(script.size() - k - 1);
      counters->daemon_lost = true;
      counters->attempted += rest;
      counters->failed += 1 + rest;
      record->ops.push_back(std::move(op));
      return false;
    }
    Json parsed;
    op.ok = ResponseOk(op.response, &parsed);
    if (op.ok && op.verb == "predict") {
      const Json* degraded = parsed.Find("degraded");
      op.ok = degraded != nullptr && degraded->is_bool() && !degraded->AsBool();
    }
    if (op.ok && op.verb == "create_session") {
      const Json* id = parsed.Find("session");
      op.ok = id != nullptr && id->is_string();
      if (op.ok) session = id->AsString();
    }
    if (!op.ok) ++counters->failed;
    record->ops.push_back(std::move(op));
  }
  record->completed = true;
  for (const OpRecord& op : record->ops) record->completed &= op.ok;
  return true;
}

const OpRecord* FindOp(const SessionRecord& r, const std::string& verb,
                       const std::string& phase) {
  for (const OpRecord& op : r.ops) {
    if (op.verb == verb && op.phase == phase) return &op;
  }
  return nullptr;
}

std::string JsonNumber(double v) { return StrFormat("%.6f", v); }

int Run(const Args& args) {
  WorkloadSpec spec;
  if (!LookupWorkload(args.workload, &spec)) {
    Die("unknown workload '" + args.workload +
        "' (want star_session, lake_session or tpch_keys)");
  }
  if (::chdir(args.workdir.c_str()) != 0) Die("cannot enter " + args.workdir);
  const int nproc = int(std::thread::hardware_concurrency());
  const int gen_threads = std::max(1, std::min(4, nproc));

  // Inputs and references are outside every timed phase.
  const size_t pool =
      size_t(std::ceil(args.seconds * spec.pool_per_second)) + 2;
  Timer gen_timer;
  std::vector<SessionInput> inputs =
      GenerateSessions(spec, args.seed, pool, gen_threads);
  const double gen_seconds = gen_timer.Seconds();

  // Set-up, several times; the last daemon serves the run.
  std::vector<double> setups;
  Daemon daemon;
  Connection admin;
  for (int i = 0; i < kSetups; ++i) {
    if (daemon.pid > 0) StopDaemon(daemon.pid, &admin);
    setups.push_back(SetUp(args, spec, i, &daemon, &admin));
  }
  LocalModel model;
  if (!model.LoadFromFile("model.txt")) Die("cannot reload model.txt");

  // Closed loop in lockstep rounds until the clock runs out.
  Counters counters;
  std::vector<SessionRecord> records(inputs.size());
  std::atomic<size_t> next_input{0};
  const ProcStats proc_before = ReadProc(daemon.pid);
  const double steal_before = HostStealSeconds();
  auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  std::atomic<bool> pool_exhausted{false};
  // Rounds: every client starts its next session together with the others,
  // so concurrent sessions always overlap the same way (a free-running loop
  // drifts between phase alignments, and the cold-predict median with it).
  // The round's completion step decides whether another round starts.
  bool another_round = true;
  // Peak RSS is read after a fixed number of rounds: the daemon's caches
  // grow with every session, so a value read at the end of the run would
  // grow with throughput.
  int rounds_done = 0;
  double rss_at_round = -1.0;
  std::barrier round(spec.clients, [&]() noexcept {
    if (rounds_done++ == spec.rss_round) {
      rss_at_round = ReadProc(daemon.pid).peak_rss_mb;
    }
    const bool time_left = std::chrono::steady_clock::now() < deadline;
    const bool inputs_left =
        next_input.load() + size_t(spec.clients) <= inputs.size();
    if (time_left && !inputs_left) pool_exhausted = true;
    another_round =
        time_left && inputs_left && !counters.daemon_lost;
  });
  // Within a round the clients also send each request together: every op
  // is measured under the same concurrency (all clients on the same verb).
  std::barrier<> lockstep(spec.clients);
  std::vector<std::thread> clients;
  for (int c = 0; c < spec.clients; ++c) {
    clients.emplace_back([&, c] {
      Connection conn;
      if (!conn.Open(daemon.socket)) counters.daemon_lost = true;
      for (;;) {
        round.arrive_and_wait();
        if (!another_round) break;
        size_t i = next_input.fetch_add(1);
        if (!RunSession(&conn, spec, inputs[i], c, &records[i], &counters,
                        &lockstep)) {
          break;
        }
      }
      // A client that leaves early must not hold up the others.
      if (another_round) {
        lockstep.arrive_and_drop();
        round.arrive_and_drop();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double window = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  const double steal_seconds = HostStealSeconds() - steal_before;
  ProcStats proc_after;
  Json stats;
  if (!counters.daemon_lost && DaemonAlive(daemon.pid)) {
    proc_after = ReadProc(daemon.pid);
    std::string response;
    double ms = 0;
    if (!admin.Call(R"({"verb":"stats"})", &response, &ms) ||
        !ResponseOk(response, &stats)) {
      counters.daemon_lost = true;
    }
    StopDaemon(daemon.pid, &admin);
  } else {
    counters.daemon_lost = true;
    KillDaemon();
  }

  // References, computed in-process from the same model file and the same
  // parsed tables, after the timed phase.
  Timer ref_timer;
  size_t sessions_started = std::min(next_input.load(), inputs.size());
  struct Check {
    bool cold_ok = true, warm_ok = true, delta_ok = true;
    double f1 = 0.0;
  };
  std::vector<Check> checks = ParallelMap(
      sessions_started,
      [&](size_t i) {
        Check c;
        const SessionRecord& r = records[i];
        if (!r.completed) return c;
        AutoBiOptions options;
        options.threads = 1;
        AutoBi predictor(&model, options);
        std::vector<Table> pre = ParseSessionTables(inputs[i]);
        StatusOr<AutoBiResult> ref = predictor.Predict(pre, nullptr);
        std::vector<Table> post = WithAppend(pre, inputs[i]);
        StatusOr<AutoBiResult> ref_post = predictor.Predict(post, nullptr);
        auto joins_of = [](const OpRecord* op) {
          Json parsed;
          if (op == nullptr || !op->ok || !ResponseOk(op->response, &parsed)) {
            return std::vector<std::string>{"<failed>"};
          }
          const Json* joins = parsed.Find("joins");
          return joins ? CanonicalJoins(*joins)
                       : std::vector<std::string>{"<missing>"};
        };
        std::vector<std::string> cold = joins_of(FindOp(r, "predict", "cold"));
        std::vector<std::string> warm = joins_of(FindOp(r, "predict", "warm"));
        std::vector<std::string> delta =
            joins_of(FindOp(r, "predict", "delta"));
        c.cold_ok = ref.ok() && cold == CanonicalJoins(pre, ref->model);
        c.warm_ok = warm == cold;
        c.delta_ok =
            ref_post.ok() && delta == CanonicalJoins(post, ref_post->model);
        if (ref.ok()) {
          BiCase truth;
          truth.tables = pre;
          truth.ground_truth = inputs[i].ground_truth;
          c.f1 = EvaluateCase(truth, ref->model).f1;
        }
        return c;
      },
      gen_threads);

  const double ref_seconds = ref_timer.Seconds();

  // Per-op samples and the workload-property checks.
  // Latency samples per round: the clients of one round send each request
  // together, and requests that serialize on a daemon lock (update_table,
  // publish_model) then finish first or second with equal odds. The round
  // mean is one sample with a single mode, where the per-request median
  // would flip between the two modes from run to run. Session i ran in
  // round i / clients.
  std::map<size_t, std::pair<double, int>> cold_r, warm_r, delta_r, update_r,
      publish_r;
  auto add = [&](std::map<size_t, std::pair<double, int>>& m, size_t i,
                 double v) {
    auto& [sum, n] = m[i / size_t(spec.clients)];
    sum += v;
    ++n;
  };
  auto round_means = [](const std::map<size_t, std::pair<double, int>>& m) {
    std::vector<double> out;
    for (const auto& [r, sn] : m) out.push_back(sn.first / sn.second);
    return out;
  };
  std::vector<double> cold_ms;  // Per request, for the tail.
  double upload_ms_total = 0.0, upload_bytes = 0.0, f1_sum = 0.0;
  size_t completed = 0, mismatches = 0;
  size_t warm_hits = 0, warm_count = 0, delta_expected = 0, delta_count = 0;
  size_t plain_colds = 0;
  for (size_t i = 0; i < sessions_started; ++i) {
    const SessionRecord& r = records[i];
    if (!r.completed) continue;
    ++completed;
    const Check& c = checks[i];
    mismatches += size_t(!c.cold_ok) + size_t(!c.warm_ok) + size_t(!c.delta_ok);
    f1_sum += c.f1;
    if (!spec.cold_incremental) ++plain_colds;
    size_t upload_index = 0;
    for (const OpRecord& op : r.ops) {
      if (!op.ok) continue;
      if (op.verb == "upload_table") {
        upload_ms_total += op.wire_ms;
        upload_bytes += double(inputs[i].uploads[upload_index++].csv.size());
      } else if (op.verb == "update_table") {
        add(update_r, i, op.wire_ms);
      } else if (op.verb == "publish_model") {
        add(publish_r, i, op.wire_ms);
      } else if (op.verb == "predict") {
        Json parsed;
        ResponseOk(op.response, &parsed);
        if (op.phase == "cold") {
          cold_ms.push_back(op.wire_ms);
          add(cold_r, i, op.wire_ms);
        }
        if (op.phase == "warm") {
          add(warm_r, i, op.wire_ms);
          ++warm_count;
          const Json* timing = parsed.Find("timing");
          const Json* total =
              timing != nullptr ? timing->Find("total_seconds") : nullptr;
          if (total != nullptr && total->is_number() &&
              total->AsDouble() == 0.0) {
            ++warm_hits;
          }
        }
        if (op.phase == "delta") {
          add(delta_r, i, op.wire_ms);
          ++delta_count;
          const Json* inc = parsed.Find("incremental");
          const Json* used = inc != nullptr ? inc->Find("used") : nullptr;
          const Json* merged =
              inc != nullptr ? inc->Find("tables_delta_merged") : nullptr;
          bool used_v = used != nullptr && used->is_bool() && used->AsBool();
          int64_t merged_v =
              merged != nullptr && merged->is_number() ? merged->AsInt() : -1;
          // star_session's delta follows an incremental cold predict and
          // must merge exactly the appended table; elsewhere the delta path
          // has no state yet and must say so.
          bool expected = spec.cold_incremental
                              ? (used_v && merged_v == 1)
                              : (!used_v && merged_v == 0);
          delta_expected += size_t(expected);
        }
      }
    }
  }
  // The `stats` counters; -1 when missing (the property checks then fail).
  auto stat = [&](const char* block, const char* key) {
    const Json* b = stats.Find(block);
    const Json* v = b != nullptr ? b->Find(key) : nullptr;
    return v != nullptr && v->is_number() ? v->AsDouble() : -1.0;
  };
  const int64_t table_hits = int64_t(stat("cache", "table_hits"));
  const int64_t table_misses = int64_t(stat("cache", "table_misses"));
  const int64_t solve_hits = int64_t(stat("cache", "solve_hits"));
  const int64_t solve_misses = int64_t(stat("cache", "solve_misses"));
  const double queue_wait_s = stat("admission", "queue_wait_total_seconds");
  const int64_t rejected = int64_t(stat("admission", "rejected"));
  const int64_t admitted = int64_t(stat("admission", "admitted"));
  // Cold predicts are the only cache lookups besides warm ones: zero table
  // hits, and exactly one solve hit per warm predict, rule out reuse.
  const bool cold_clean = table_hits == 0 && solve_hits == int64_t(warm_count) &&
                          solve_misses == int64_t(plain_colds);
  const double share_cold =
      cold_clean ? 1.0 : 0.0;
  const double share_warm =
      warm_count ? double(warm_hits) / double(warm_count) : 0.0;
  const double share_delta =
      delta_count ? double(delta_expected) / double(delta_count) : 0.0;
  const bool properties_ok = completed > 0 && cold_clean &&
                             warm_hits == warm_count &&
                             delta_expected == delta_count;

  const int64_t attempted = counters.attempted.load();
  int64_t failed = counters.failed.load() + int64_t(mismatches);
  const bool correct = completed > 0 && failed == 0 && properties_ok &&
                       !counters.daemon_lost;

  double tail_pct = 0.0;
  const double cold_tail = Tail(cold_ms, &tail_pct);
  const double cpu_seconds = proc_after.cpu_seconds - proc_before.cpu_seconds;

  struct Metric {
    std::string name, unit;
    double value;
    size_t samples;
  };
  std::vector<Metric> metrics;
  TraceResult traced;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", "s", Median(setups), setups.size()},
        {"sessions_per_s", "1/s", double(completed) / window, completed},
        {"predict_cold_p50_ms", "ms", Median(round_means(cold_r)),
         cold_r.size()},
        {"predict_cold_tail_ms", "ms", cold_tail, cold_ms.size()},
        {"predict_warm_p50_ms", "ms", Median(round_means(warm_r)),
         warm_r.size()},
        {"predict_incr_p50_ms", "ms", Median(round_means(delta_r)),
         delta_r.size()},
        {"update_p50_ms", "ms", Median(round_means(update_r)), update_r.size()},
        {"publish_p50_ms", "ms", Median(round_means(publish_r)),
         publish_r.size()},
        {"ingest_mb_per_s", "MB/s",
         upload_ms_total > 0 ? (upload_bytes / 1e6) / (upload_ms_total / 1e3)
                             : 0.0,
         completed},
        {"cpu_ms_per_session", "ms",
         completed ? 1e3 * cpu_seconds / double(completed) : 0.0, completed},
        {"peak_rss_mb", "MB",
         rss_at_round > 0 ? rss_at_round : proc_after.peak_rss_mb,
         size_t(std::min(rounds_done - 1, spec.rss_round) * spec.clients)},
        {"join_f1", "f1", completed ? f1_sum / double(completed) : 0.0,
         completed},
        {"ok_frac", "frac",
         attempted ? 1.0 - double(failed) / double(attempted) : 0.0,
         size_t(attempted)},
    };
  } else {
    TraceOptions topts;
    topts.threads = spec.daemon_threads;
    topts.trace_path = args.record.empty()
                           ? std::string()
                           : args.record + ".trace.json";
    topts.state_dir = "replay-state";
    std::vector<SessionRecord> done;
    std::vector<SessionInput> done_inputs;
    for (size_t i = 0; i < sessions_started &&
                       done.size() < size_t(kReplaySessions);
         ++i) {
      if (!records[i].completed) continue;
      done.push_back(records[i]);
      done_inputs.push_back(inputs[i]);
    }
    traced = ReplayTraced(model, spec, done_inputs, done, topts);
    if (traced.join_mismatches > 0 || traced.replayed_sessions == 0) {
      failed += int64_t(traced.join_mismatches);
    }
    traced.metrics["serve.admission.queue_wait_ms"] =
        1e3 * queue_wait_s / double(std::max<int64_t>(1, admitted));
    traced.units["serve.admission.queue_wait_ms"] = "ms";
    traced.metrics["serve.admission.rejected"] = double(rejected);
    traced.units["serve.admission.rejected"] = "count";
    traced.metrics["core.predict_cache.solve_hits"] = double(solve_hits);
    traced.metrics["core.predict_cache.solve_misses"] = double(solve_misses);
    traced.metrics["core.predict_cache.table_hits"] = double(table_hits);
    for (const char* k : {"core.predict_cache.solve_hits",
                          "core.predict_cache.solve_misses",
                          "core.predict_cache.table_hits"}) {
      traced.units[k] = "count";
    }
    traced.metrics["core.predict_cache.table_misses"] = double(table_misses);
    traced.units["core.predict_cache.table_misses"] = "count";
    const double lookups = double(solve_hits + solve_misses);
    traced.metrics["core.predict_cache.solve_hit_ratio"] =
        lookups > 0 ? double(solve_hits) / lookups : 0.0;
    traced.units["core.predict_cache.solve_hit_ratio"] = "frac";
    for (const auto& [name, value] : traced.metrics) {
      metrics.push_back({name, traced.units[name], value, 0});
    }
  }
  const bool final_correct =
      correct && (args.trace == 0 ||
                  (traced.join_mismatches == 0 && traced.replayed_sessions > 0));

  // Run record (stderr, and --record FILE when given).
  std::string rec = "{";
  rec += "\"workload\":\"" + spec.name + "\"";
  rec += StrFormat(",\"seed\":%llu,\"seconds\":%s,\"trace\":%d",
                   static_cast<unsigned long long>(args.seed),
                   JsonNumber(args.seconds).c_str(), args.trace);
  rec += StrFormat(",\"nproc\":%d,\"build_type\":\"%s\"", nproc,
                   args.build_type.c_str());
  rec += StrFormat(",\"clients\":%d,\"daemon_threads\":%d", spec.clients,
                   spec.daemon_threads);
  rec += StrFormat(",\"loop\":\"closed_lockstep\",\"train_cases\":%zu",
                   kTrainCases);
  rec += ",\"window_s\":" + JsonNumber(window);
  rec += ",\"host_steal_s\":" + JsonNumber(steal_seconds);
  rec += ",\"input_generation_s\":" + JsonNumber(gen_seconds);
  rec += ",\"references_s\":" + JsonNumber(ref_seconds);
  rec += StrFormat(",\"pool\":%zu,\"pool_exhausted\":%s", inputs.size(),
                   pool_exhausted ? "true" : "false");
  rec += StrFormat(",\"sessions_completed\":%zu", completed);
  rec += StrFormat(",\"rss_round\":%d,\"rss_round_reached\":%s",
                   spec.rss_round, rss_at_round > 0 ? "true" : "false");
  rec += StrFormat(",\"tail_percentile\":%.2f", tail_pct);
  rec += ",\"setup_samples_s\":[";
  for (size_t i = 0; i < setups.size(); ++i) {
    rec += (i ? "," : "") + JsonNumber(setups[i]);
  }
  rec += "]";
  rec += StrFormat(
      ",\"properties\":{\"cold_no_cache_hits_share\":%.4f,"
      "\"warm_solve_hit_share\":%.4f,\"delta_expected_share\":%.4f,"
      "\"table_hits\":%lld,\"solve_hits\":%lld,\"solve_misses\":%lld,"
      "\"ok\":%s}",
      share_cold, share_warm, share_delta, static_cast<long long>(table_hits),
      static_cast<long long>(solve_hits), static_cast<long long>(solve_misses),
      properties_ok ? "true" : "false");
  rec += StrFormat(",\"mismatches\":%zu,\"daemon_lost\":%s", mismatches,
                   counters.daemon_lost ? "true" : "false");
  if (args.trace == 1) {
    rec += StrFormat(",\"replayed_sessions\":%zu,\"replay_join_mismatches\":%zu",
                     traced.replayed_sessions, traced.join_mismatches);
    rec += ",\"trace_overhead_ms\":" + JsonNumber(traced.overhead_ms);
  }
  rec += ",\"samples\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    rec += StrFormat("%s\"%s\":%zu", i ? "," : "", metrics[i].name.c_str(),
                     metrics[i].samples);
  }
  rec += "}}";
  std::fprintf(stderr, "run record: %s\n", rec.c_str());
  if (!args.record.empty()) {
    std::ofstream(args.record) << rec << "\n";
  }

  std::string out = StrFormat(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{",
      final_correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += StrFormat("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                     metrics[i].name.c_str(), metrics[i].value,
                     metrics[i].unit.c_str());
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace autobi::perfbench

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  struct sigaction sa {};
  sa.sa_handler = autobi::perfbench::OnSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGHUP, &sa, nullptr);
  int rc = autobi::perfbench::Run(autobi::perfbench::ParseArgs(argc, argv));
  autobi::perfbench::KillDaemon();
  return rc;
}

// autobi_serve: the long-lived Auto-BI prediction daemon (SERVING.md).
//
// Wraps a trained LocalModel behind the session protocol — CreateSession ->
// UploadTable* -> Predict -> GetModel/Diff -> CloseSession — over
// newline-delimited JSON on stdin/stdout (--stdio) or a unix-domain socket
// (--socket PATH). Cross-request content-hash caches make re-predicting a
// mostly-unchanged schema skip the profiling/UCC bottleneck for unchanged
// tables.
//
// Usage:
//   autobi_serve --stdio
//   autobi_serve --socket /tmp/autobi.sock --threads 4
//   autobi_serve --model forests.bin --socket /tmp/autobi.sock
//   autobi_serve --socket /tmp/autobi.sock --state_dir /var/lib/autobi
//
// With --state_dir the model catalog (published versions, labels, pins) is
// journaled and survives crashes and restarts; see SERVING.md "Durability &
// recovery".

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/local_model.h"
#include "core/trainer.h"
#include "serve/engine.h"
#include "serve/transport.h"
#include "synth/corpus.h"

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: autobi_serve [--stdio | --socket PATH] [options]\n"
               "  --model PATH      load trained forests (default: train on\n"
               "                    the synthetic corpus at startup)\n"
               "  --train_cases N   synthetic training-corpus size (240)\n"
               "  --threads N       worker threads per predict (0 = auto)\n"
               "  --max_inflight N  concurrent predicts (4)\n"
               "  --max_queue N     waiting predicts before rejection (16)\n"
               "  --state_dir PATH  journal the model catalog to PATH and\n"
               "                    recover it on boot (default: in-memory)\n");
}

bool ParseInt(const char* text, long* out) {
  char* end = nullptr;
  long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < 0) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_path;
  std::string socket_path;
  bool stdio = false;
  long train_cases = 240;
  autobi::ServeOptions options;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "autobi_serve: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    long v = 0;
    if (arg == "--stdio") {
      stdio = true;
    } else if (arg == "--socket") {
      socket_path = next("--socket");
    } else if (arg == "--model") {
      model_path = next("--model");
    } else if (arg == "--train_cases") {
      if (!ParseInt(next("--train_cases"), &train_cases)) {
        std::fprintf(stderr, "autobi_serve: bad --train_cases\n");
        return 2;
      }
    } else if (arg == "--threads") {
      if (!ParseInt(next("--threads"), &v)) {
        std::fprintf(stderr, "autobi_serve: bad --threads\n");
        return 2;
      }
      options.threads = int(v);
    } else if (arg == "--max_inflight") {
      if (!ParseInt(next("--max_inflight"), &v)) {
        std::fprintf(stderr, "autobi_serve: bad --max_inflight\n");
        return 2;
      }
      options.max_inflight = int(v);
    } else if (arg == "--max_queue") {
      if (!ParseInt(next("--max_queue"), &v)) {
        std::fprintf(stderr, "autobi_serve: bad --max_queue\n");
        return 2;
      }
      options.max_queue = int(v);
    } else if (arg == "--state_dir") {
      options.state_dir = next("--state_dir");
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "autobi_serve: unknown flag '%s'\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }
  // Exactly one transport; stdio is the default when neither is given.
  if (stdio && !socket_path.empty()) {
    std::fprintf(stderr,
                 "autobi_serve: pass exactly one of --stdio / --socket\n");
    return 2;
  }
  if (!stdio && socket_path.empty()) stdio = true;

  autobi::LocalModel model;
  if (!model_path.empty()) {
    if (!model.LoadFromFile(model_path)) {
      std::fprintf(stderr, "autobi_serve: cannot load model '%s'\n",
                   model_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "autobi_serve: loaded model from %s\n",
                 model_path.c_str());
  } else {
    // No model file: train on the synthetic corpus (first ping after
    // 1.5-1.7 s on a 4-vCPU host; corpus generation and the trainer's
    // per-case pass fan out over cores). For production-style startup,
    // train once with examples/train_and_save and pass --model.
    std::fprintf(stderr,
                 "autobi_serve: training on %ld synthetic cases...\n",
                 train_cases);
    autobi::CorpusOptions corpus_options;
    corpus_options.training_cases = size_t(train_cases);
    model = autobi::TrainLocalModel(
        autobi::BuildTrainingCorpus(corpus_options));
    std::fprintf(stderr, "autobi_serve: training done\n");
  }

  autobi::ServeEngine engine(&model, options);
  if (!options.state_dir.empty()) {
    autobi::Status recovered = engine.RecoverState();
    if (!recovered.ok()) {
      std::fprintf(stderr, "autobi_serve: state recovery failed: %s\n",
                   recovered.ToString().c_str());
      return 1;
    }
    autobi::DurabilityStats dur = engine.durability();
    std::fprintf(stderr,
                 "autobi_serve: recovered %ld model version(s) across %ld "
                 "tenant(s) from %s (generation %llu, %ld discarded "
                 "record(s))\n",
                 dur.recovered_versions, dur.recovered_tenants,
                 options.state_dir.c_str(),
                 static_cast<unsigned long long>(dur.generation),
                 dur.discarded_records);
  }
  // A reader that goes away must cost only its own responses: writes to a
  // closed stdout pipe fail with EPIPE instead of killing the daemon (the
  // socket transport also sends with MSG_NOSIGNAL).
  std::signal(SIGPIPE, SIG_IGN);
  autobi::Status status;
  if (stdio) {
    status = autobi::RunStdioServer(&engine);
  } else {
    std::fprintf(stderr, "autobi_serve: listening on %s\n",
                 socket_path.c_str());
    status = autobi::RunUnixSocketServer(&engine, socket_path);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "autobi_serve: %s\n", status.ToString().c_str());
    return 1;
  }
  // Final fsync barrier after the transport drains (HandleShutdown already
  // flushed once; this also covers EOF-driven stdio exits).
  autobi::Status flushed = engine.FlushState();
  if (!flushed.ok()) {
    std::fprintf(stderr, "autobi_serve: state flush failed: %s\n",
                 flushed.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "autobi_serve: clean shutdown\n");
  return 0;
}

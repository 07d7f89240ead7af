#include "serve/transport.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <exception>
#include <list>
#include <string>
#include <thread>

#include "common/strings.h"

namespace autobi {

namespace {

// Bytes requested per read(2).
constexpr size_t kReadChunkBytes = size_t{64} << 10;

// A request line's allowance beyond its escaped CSV payload: verb, session,
// table name and id.
constexpr size_t kEnvelopeBytes = size_t{64} << 10;

// Accumulates bytes read from a stream and hands out complete lines. Each
// byte is searched for '\n' once, so framing is linear in the stream
// length whatever the line lengths.
class LineReader {
 public:
  enum class Result { kLine, kNeedMore, kOverCap };

  explicit LineReader(size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  // Next complete line, without its '\n'. The view stays valid until the
  // next Read. kOverCap: the line (complete or not) is longer than the cap.
  Result Next(std::string_view* line) {
    const char* nl = static_cast<const char*>(std::memchr(
        buffer_.data() + scanned_, '\n', buffer_.size() - scanned_));
    if (nl == nullptr) {
      scanned_ = buffer_.size();
      return Pending().size() > max_line_bytes_ ? Result::kOverCap
                                                : Result::kNeedMore;
    }
    const size_t end = size_t(nl - buffer_.data());
    *line = std::string_view(buffer_.data() + start_, end - start_);
    start_ = scanned_ = end + 1;
    return line->size() > max_line_bytes_ ? Result::kOverCap : Result::kLine;
  }

  // Reads once from `fd`, after dropping the lines already handed out.
  // Returns read(2)'s result. At EOF (0) the bytes after the last '\n', if
  // any, are terminated, so Next serves them as the last line.
  ssize_t Read(int fd) {
    buffer_.erase(0, start_);
    scanned_ -= start_;
    start_ = 0;
    const size_t old_size = buffer_.size();
    buffer_.resize(old_size + kReadChunkBytes);
    ssize_t n = ::read(fd, buffer_.data() + old_size, kReadChunkBytes);
    buffer_.resize(old_size + (n > 0 ? size_t(n) : 0));
    if (n == 0 && !Pending().empty()) buffer_.push_back('\n');
    return n;
  }

 private:
  // Bytes received after the last complete line.
  std::string_view Pending() const {
    return std::string_view(buffer_).substr(start_);
  }

  const size_t max_line_bytes_;
  std::string buffer_;
  size_t start_ = 0;    // First byte not yet handed out.
  size_t scanned_ = 0;  // [start_, scanned_) holds no '\n'.
};

std::string OverCapResponse(size_t max_line_bytes) {
  return MakeErrorResponse(
             nullptr,
             Status::ResourceExhausted(StrFormat(
                 "request line exceeds the %zu-byte cap (2 x max_csv_bytes "
                 "+ %zu envelope bytes)",
                 max_line_bytes, kEnvelopeBytes)))
      .Write();
}

// Writes all of `bytes`; false once the reader is gone. On a socket,
// MSG_NOSIGNAL turns a peer that hung up into EPIPE instead of a SIGPIPE,
// whose default action would kill the daemon and every other session with
// it; stdout is not a socket (ENOTSOCK) and gets write(2).
bool WriteAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t w = ::send(fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (w < 0 && errno == ENOTSOCK) {
      w = ::write(fd, bytes.data() + off, bytes.size() - off);
    }
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    off += size_t(w);
  }
  return true;
}

// The one read loop of both transports: reads request lines from `in_fd`
// and writes one response line per request to `out_fd`. A '\r' before the
// '\n' is dropped, blank lines are skipped, and at EOF a last line without
// '\n' is served. Returns at EOF, on a read or write error, after
// answering an over-cap line with one RESOURCE_EXHAUSTED line, or on
// engine shutdown. `wake_fd` (-1 for none) is the read end of the socket
// transport's self-pipe: the engine's shutdown callback writes one byte
// there (never drained, so the pipe stays level-triggered readable), waking
// every blocked poller at once — shutdown accepted on one connection
// unblocks all others immediately, with no polling interval.
void ServeLines(ServeEngine* engine, int in_fd, int out_fd, int wake_fd) {
  const size_t max_line_bytes = MaxRequestLineBytes(engine->options());
  LineReader reader(max_line_bytes);
  bool eof = false;
  while (!engine->shutdown_requested()) {
    std::string_view line;
    LineReader::Result result = reader.Next(&line);
    if (result == LineReader::Result::kOverCap) {
      WriteAll(out_fd, OverCapResponse(max_line_bytes) + "\n");
      return;
    }
    if (result == LineReader::Result::kLine) {
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.empty()) continue;
      if (!WriteAll(out_fd, engine->HandleLine(line) + "\n")) return;
      continue;
    }
    if (eof) return;
    struct pollfd pfds[2];
    pfds[0].fd = in_fd;
    pfds[0].events = POLLIN;
    pfds[1].fd = wake_fd;  // poll(2) ignores a negative fd.
    pfds[1].events = POLLIN;
    int ready = ::poll(pfds, 2, -1);
    if (engine->shutdown_requested()) return;
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (pfds[1].revents != 0) return;  // Shutdown wakeup.
    if (pfds[0].revents == 0) continue;
    ssize_t n = reader.Read(in_fd);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    // EOF or a read error: serve the lines already buffered, then stop.
    eof = n <= 0;
  }
}

}  // namespace

size_t MaxRequestLineBytes(const ServeOptions& options) {
  const size_t csv = options.max_csv_bytes;
  if (csv == 0 || csv > (SIZE_MAX - kEnvelopeBytes) / 2) return SIZE_MAX;
  return 2 * csv + kEnvelopeBytes;
}

Status RunStdioServer(ServeEngine* engine) {
  ServeLines(engine, STDIN_FILENO, STDOUT_FILENO, /*wake_fd=*/-1);
  return Status::Ok();
}

Status RunUnixSocketServer(ServeEngine* engine, const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return Status::InvalidInput(
        StrFormat("socket path too long (%zu bytes)", path.size()));
  }
  int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return Status::Internal(
        StrFormat("socket() failed: %s", std::strerror(errno)));
  }
  ::unlink(path.c_str());  // Replace a stale socket from a previous run.
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Status::Internal(
        StrFormat("bind(%s) failed: %s", path.c_str(), std::strerror(errno)));
    ::close(listen_fd);
    return status;
  }
  if (::listen(listen_fd, 16) < 0) {
    Status status = Status::Internal(
        StrFormat("listen failed: %s", std::strerror(errno)));
    ::close(listen_fd);
    ::unlink(path.c_str());
    return status;
  }

  // Self-pipe shutdown wakeup: the engine's shutdown callback writes one
  // byte to the pipe, which is never read back — it stays level-triggered
  // readable, so the accept loop and every connection poller unblock at
  // once instead of timing out on a polling interval.
  int wake[2];
  if (::pipe(wake) != 0) {
    Status status = Status::Internal(
        StrFormat("pipe failed: %s", std::strerror(errno)));
    ::close(listen_fd);
    ::unlink(path.c_str());
    return status;
  }
  const int wake_write = wake[1];
  engine->SetShutdownCallback([wake_write] {
    char byte = 1;
    ssize_t ignored = ::write(wake_write, &byte, 1);
    (void)ignored;
  });

  // One thread per connection. A thread that has returned keeps its stack
  // mapped until it is joined, so finished ones are joined on every accept
  // and a long-lived daemon holds only its live connections' stacks.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};  // Set by the thread as its last act.
  };
  std::list<Connection> connections;
  while (!engine->shutdown_requested()) {
    struct pollfd pfds[2];
    pfds[0].fd = listen_fd;
    pfds[0].events = POLLIN;
    pfds[1].fd = wake[0];
    pfds[1].events = POLLIN;
    int ready = ::poll(pfds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[1].revents != 0) break;  // Shutdown wakeup.
    if ((pfds[0].revents & POLLIN) == 0) continue;
    int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    if (conn_fd < 0) continue;
    for (auto it = connections.begin(); it != connections.end();) {
      if (!it->done.load(std::memory_order_acquire)) {
        ++it;
        continue;
      }
      it->thread.join();
      it = connections.erase(it);
    }
    try {
      // The node is built apart and spliced in only once its thread runs,
      // so a throw leaves `connections` holding joinable threads only.
      std::list<Connection> fresh(1);
      Connection& conn = fresh.front();
      conn.thread = std::thread([engine, conn_fd, wake_fd = wake[0],
                                 done = &conn.done] {
        ServeLines(engine, conn_fd, conn_fd, wake_fd);
        ::close(conn_fd);
        done->store(true, std::memory_order_release);
      });
      connections.splice(connections.end(), fresh);
    } catch (const std::exception&) {
      // No thread to serve it (thread creation failed, or no memory for
      // the node or the thread's state): hang up, and keep accepting.
      ::close(conn_fd);
    }
  }
  for (Connection& conn : connections) conn.thread.join();
  engine->SetShutdownCallback(nullptr);
  ::close(wake[0]);
  ::close(wake[1]);
  ::close(listen_fd);
  ::unlink(path.c_str());
  return Status::Ok();
}

}  // namespace autobi

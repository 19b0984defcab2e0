#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "serve/dispatcher.hpp"
#include "serve/protocol.hpp"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#endif

namespace apsq::serve {

namespace {

/// True for a line a shell heredoc or netcat commonly appends — blank
/// lines are ignored rather than answered with a parse error.
bool blank_line(const std::string& line) {
  for (const char c : line)
    if (c != ' ' && c != '\t' && c != '\r') return false;
  return true;
}

}  // namespace

i64 serve_stream(Dispatcher& dispatcher, std::istream& in, std::ostream& out) {
  i64 errors = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (blank_line(line)) continue;
    const LineResult r = handle_request_line(dispatcher, line);
    out << r.response << "\n";
    out.flush();
    if (!r.ok) ++errors;
    if (r.shutdown) break;
  }
  return errors;
}

#ifndef _WIN32

namespace {

/// How long the accept loop sleeps after a failed accept().
constexpr std::chrono::milliseconds kAcceptBackoff{10};

/// Shared between the accept loop and the per-connection threads: the
/// open sockets, so a shutdown command can unblock every blocked read,
/// and the connection threads that have returned, for the accept loop to
/// join.
struct ServerState {
  Mutex mu;
  bool stopping APSQ_GUARDED_BY(mu) = false;
  int listen_fd APSQ_GUARDED_BY(mu) = -1;
  std::vector<int> conn_fds APSQ_GUARDED_BY(mu);
  std::vector<std::thread::id> finished APSQ_GUARDED_BY(mu);
};

void begin_shutdown(ServerState& state) {
  MutexLock lock(state.mu);
  if (state.stopping) return;
  state.stopping = true;
  // shutdown() (not close()) — it reliably wakes a thread blocked in
  // accept()/recv() on the fd, and the owning loop still closes it.
  if (state.listen_fd >= 0) ::shutdown(state.listen_fd, SHUT_RDWR);
  for (const int fd : state.conn_fds) ::shutdown(fd, SHUT_RD);
}

bool send_all(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Make every recv() on `fd` give up after `timeout` without data.
void set_recv_timeout(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>(timeout.count() % 1000 * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// One connection: buffered line reads, one response line per request.
/// A line longer than kMaxRequestLineBytes is answered with an error and
/// ends the connection. Every read waits at most the idle timeout, so a
/// silent client (or one that never closes after an oversize line) ends
/// the connection too.
void serve_connection(Dispatcher& dispatcher, ServerState& state, int fd,
                      std::chrono::milliseconds idle_timeout) {
  set_recv_timeout(fd, idle_timeout);
  std::string buf;
  char chunk[4096];
  for (;;) {
    const size_t nl = buf.find('\n');
    if ((nl == std::string::npos ? buf.size() : nl) > kMaxRequestLineBytes) {
      send_all(fd, error_response("", "request: line exceeds " +
                                          std::to_string(kMaxRequestLineBytes) +
                                          " bytes") +
                       "\n");
      // Half-close and discard the rest of the input, so unread bytes do
      // not turn the close into a reset that loses the reply.
      ::shutdown(fd, SHUT_WR);
      while (::recv(fd, chunk, sizeof(chunk), 0) > 0) {
      }
      break;
    }
    if (nl == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;  // disconnect, error, idle timeout, or stop
      buf.append(chunk, static_cast<size_t>(n));
      continue;
    }
    std::string line = buf.substr(0, nl);
    buf.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (blank_line(line)) continue;
    const LineResult r = handle_request_line(dispatcher, line);
    if (!send_all(fd, r.response + "\n")) break;
    if (r.shutdown) {
      begin_shutdown(state);
      break;
    }
  }
  ::close(fd);
  MutexLock lock(state.mu);
  for (size_t i = 0; i < state.conn_fds.size(); ++i)
    if (state.conn_fds[i] == fd) {
      state.conn_fds.erase(state.conn_fds.begin() +
                           static_cast<std::ptrdiff_t>(i));
      break;
    }
  state.finished.push_back(std::this_thread::get_id());
}

}  // namespace

int serve_tcp(Dispatcher& dispatcher, const ServeOptions& opts) {
  const auto fail = [&](const std::string& what) {
    if (opts.log != nullptr) *opts.log << "apsq_dsed: " << what << "\n";
    return 1;
  };
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) return fail("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
  addr.sin_port = htons(static_cast<std::uint16_t>(opts.port));
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd);
    return fail("bind(127.0.0.1:" + std::to_string(opts.port) + ") failed");
  }
  if (::listen(listen_fd, 16) != 0) {
    ::close(listen_fd);
    return fail("listen() failed");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  const int port = static_cast<int>(ntohs(bound.sin_port));
  if (!opts.port_file.empty()) {
    std::ofstream pf(opts.port_file, std::ios::trunc);
    pf << port << "\n";
    pf.flush();
    if (!pf) {
      ::close(listen_fd);
      return fail("failed to write " + opts.port_file);
    }
  }
  if (opts.log != nullptr) {
    *opts.log << "apsq_dsed listening on 127.0.0.1:" << port << "\n";
    opts.log->flush();
  }

  ServerState state;
  {
    MutexLock lock(state.mu);
    state.listen_fd = listen_fd;
  }
  // Connection threads by id. Each accept first joins the threads that
  // have returned since the last one, so a long-lived server holds only
  // the threads of live connections, not one per connection ever served.
  std::map<std::thread::id, std::thread> threads;
  for (;;) {
    std::vector<std::thread::id> finished;
    {
      MutexLock lock(state.mu);
      finished.swap(state.finished);
    }
    for (const std::thread::id id : finished) {
      const auto it = threads.find(id);
      it->second.join();
      threads.erase(it);
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    {
      MutexLock lock(state.mu);
      if (state.stopping) {
        if (fd >= 0) ::close(fd);
        break;
      }
      if (fd >= 0) state.conn_fds.push_back(fd);
    }
    if (fd < 0) {
      // Keep serving, but back off: a failure like EMFILE leaves the
      // pending connection queued, so an immediate retry fails again and
      // the loop would spin a core until an fd frees up.
      std::this_thread::sleep_for(kAcceptBackoff);
      continue;
    }
    try {
      std::thread t([&dispatcher, &state, fd, idle = opts.idle_timeout] {
        serve_connection(dispatcher, state, fd, idle);
      });
      const std::thread::id id = t.get_id();
      threads.emplace(id, std::move(t));
    } catch (const std::system_error&) {
      // No thread for this connection (e.g. at the thread limit): drop it
      // and keep serving the live ones.
      ::close(fd);
      MutexLock lock(state.mu);
      state.conn_fds.erase(
          std::remove(state.conn_fds.begin(), state.conn_fds.end(), fd),
          state.conn_fds.end());
    }
  }
  ::close(listen_fd);
  for (auto& [id, t] : threads) t.join();
  if (opts.log != nullptr) {
    *opts.log << "apsq_dsed: shutdown complete\n";
    opts.log->flush();
  }
  return 0;
}

#else  // _WIN32

int serve_tcp(Dispatcher&, const ServeOptions& opts) {
  if (opts.log != nullptr)
    *opts.log << "apsq_dsed: TCP mode is not supported on this platform "
                 "(use --once)\n";
  return 1;
}

#endif

}  // namespace apsq::serve

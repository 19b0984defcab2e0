// The TCP transport under long uptime and hostile input: connection
// threads are joined while the server runs (sequential connection churn
// leaves the process's virtual memory flat), an oversized request line is
// answered with an error and its connection closed, without affecting
// later connections, a connection that stays silent is closed after the
// idle timeout, and a server out of file descriptors waits for one
// instead of spinning.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dse/store.hpp"
#include "serve/dispatcher.hpp"
#include "serve/protocol.hpp"

#ifndef _WIN32
#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace apsq::serve {
namespace {

#ifndef _WIN32

/// A blocking line client for one connection to 127.0.0.1.
class LineClient {
 public:
  explicit LineClient(int port)
      : LineClient(port, ::socket(AF_INET, SOCK_STREAM, 0)) {}
  /// Connect `fd`, a socket made earlier (e.g. while fds were still
  /// free); the client owns it from here.
  LineClient(int port, int fd) : fd_(fd) {
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() failed");
    }
  }
  ~LineClient() { ::close(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Send all of `data`; false if the server stopped reading first.
  bool send(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// The next response line (newline stripped); "" at end of stream.
  std::string read_line() {
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  std::string roundtrip(const std::string& line) {
    send(line + "\n");
    return read_line();
  }

 private:
  int fd_;
  std::string buf_;
};

/// serve_tcp on an ephemeral port in a background thread, shut down (and
/// required to exit 0) on destruction. The port file is named after the
/// process: ctest runs tests as concurrent processes, and a shared file
/// would hand one test another test's port.
class TestServer {
 public:
  explicit TestServer(
      std::chrono::milliseconds idle_timeout = ServeOptions{}.idle_timeout)
      : dispatcher_(store_) {
    opts_.port_file = ::testing::TempDir() + "apsq_server_test_port_" +
                      std::to_string(::getpid()) + ".txt";
    opts_.idle_timeout = idle_timeout;
    std::remove(opts_.port_file.c_str());
    thread_ = std::thread([this] { rc_ = serve_tcp(dispatcher_, opts_); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (port_ == 0 && std::chrono::steady_clock::now() < deadline) {
      std::ifstream f(opts_.port_file);
      if (!(f >> port_)) {
        port_ = 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  ~TestServer() {
    if (port_ != 0) LineClient(port_).roundtrip("{\"cmd\": \"shutdown\"}");
    thread_.join();
    std::remove(opts_.port_file.c_str());
    EXPECT_EQ(rc_, 0);
  }
  TestServer(const TestServer&) = delete;
  TestServer& operator=(const TestServer&) = delete;

  int port() const { return port_; }

 private:
  dse::EvalStore store_;
  Dispatcher dispatcher_;
  ServeOptions opts_;
  int port_ = 0;
  int rc_ = -1;
  std::thread thread_;
};

/// This process's virtual size in MB (VmSize), or -1 where /proc is
/// unavailable.
double vm_size_mb() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "VmSize:") {
      double kb = 0.0;
      f >> kb;
      return kb / 1024.0;
    }
  }
  return -1.0;
}

TEST(Server, SequentialConnectionChurnKeepsVirtualMemoryBounded) {
  // Each connection thread reserves a full stack; a server that joins them
  // only at shutdown grows by ~8 MB of address space per connection ever
  // served (2.4 GB over this churn). Joined during uptime, the growth
  // stays near zero: at most a couple of connections are alive at once.
  TestServer server;
  ASSERT_NE(server.port(), 0);
  const auto ping = [&] {
    LineClient c(server.port());
    return c.roundtrip("{\"cmd\": \"ping\"}");
  };
  for (int i = 0; i < 5; ++i) ASSERT_NE(ping().find("\"ok\": true"), std::string::npos);
  const double before = vm_size_mb();
  if (before < 0.0) GTEST_SKIP() << "no /proc/self/status";
  for (int i = 0; i < 300; ++i)
    ASSERT_NE(ping().find("\"ok\": true"), std::string::npos) << "connection " << i;
  const double growth = vm_size_mb() - before;
  EXPECT_LT(growth, 256.0) << "VmSize grew by " << growth << " MB";
}

TEST(Server, OversizedRequestLineIsRejectedAndTheServerKeepsServing) {
  TestServer server;
  ASSERT_NE(server.port(), 0);
  {
    LineClient c(server.port());
    // The server may stop reading once the cap is passed; the reply must
    // arrive either way.
    c.send(std::string(kMaxRequestLineBytes + 1, 'x') + "\n");
    EXPECT_EQ(c.read_line(),
              "{\"schema_version\": 1, \"ok\": false, \"error\": \"request: "
              "line exceeds 1048576 bytes\"}");
    EXPECT_EQ(c.read_line(), "");  // and the connection is closed
  }
  // A line at the cap is read whole and answered like any malformed line.
  {
    LineClient c(server.port());
    const std::string reply =
        c.roundtrip(std::string(kMaxRequestLineBytes, 'x'));
    EXPECT_NE(reply.find("\"ok\": false"), std::string::npos);
    EXPECT_EQ(reply.find("line exceeds"), std::string::npos) << reply;
    EXPECT_NE(c.roundtrip("{\"cmd\": \"ping\"}").find("\"ok\": true"),
              std::string::npos);
  }
  LineClient fresh(server.port());
  EXPECT_NE(fresh.roundtrip("{\"cmd\": \"ping\"}").find("\"ok\": true"),
            std::string::npos);
}

TEST(Server, SilentConnectionIsClosedAfterTheIdleTimeout) {
  // A client that connects and sends nothing would otherwise hold its
  // connection thread forever.
  const auto idle = std::chrono::milliseconds(200);
  TestServer server(idle);
  ASSERT_NE(server.port(), 0);
  {
    LineClient silent(server.port());
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(silent.read_line(), "");  // the server closed it
    const auto waited = std::chrono::steady_clock::now() - t0;
    EXPECT_GE(waited, idle / 2);
    EXPECT_LT(waited, std::chrono::seconds(30));
  }
  // The server keeps serving.
  LineClient fresh(server.port());
  EXPECT_NE(fresh.roundtrip("{\"cmd\": \"ping\"}").find("\"ok\": true"),
            std::string::npos);
}

/// The highest open file descriptor of this process, or -1 where
/// /proc/self/fd is unavailable.
int highest_open_fd() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int top = -1;
  while (const dirent* e = ::readdir(dir)) {
    char* end = nullptr;
    const long fd = std::strtol(e->d_name, &end, 10);
    if (end != e->d_name && *end == '\0') top = std::max(top, static_cast<int>(fd));
  }
  ::closedir(dir);
  return top;
}

/// This process's user + system CPU time in milliseconds.
double cpu_ms() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(u.ru_utime) + ms(u.ru_stime);
}

/// Lowers RLIMIT_NOFILE to a few fds above the highest open one and
/// fills every free fd below it; the destructor closes the fillers and
/// restores the limit, so the test server can still be shut down when an
/// assertion fails midway.
class FdExhaustion {
 public:
  explicit FdExhaustion(int model_fd) {
    if (::getrlimit(RLIMIT_NOFILE, &old_) != 0) return;
    rlimit low = old_;
    low.rlim_cur = std::min<rlim_t>(
        old_.rlim_cur, static_cast<rlim_t>(highest_open_fd() + 8));
    if (::setrlimit(RLIMIT_NOFILE, &low) != 0) return;
    lowered_ = true;
    for (;;) {
      const int fd = ::dup(model_fd);
      if (fd < 0) {
        exhausted_ = errno == EMFILE;
        break;
      }
      fillers_.push_back(fd);
    }
  }
  ~FdExhaustion() {
    for (const int fd : fillers_) ::close(fd);
    if (lowered_) ::setrlimit(RLIMIT_NOFILE, &old_);
  }
  FdExhaustion(const FdExhaustion&) = delete;
  FdExhaustion& operator=(const FdExhaustion&) = delete;

  /// True once every fd below the lowered limit is taken.
  bool exhausted() const { return exhausted_; }

  /// Free one fd.
  void release_one() {
    if (fillers_.empty()) return;
    ::close(fillers_.back());
    fillers_.pop_back();
    exhausted_ = false;
  }

 private:
  rlimit old_{};
  bool lowered_ = false;
  bool exhausted_ = false;
  std::vector<int> fillers_;
};

TEST(Server, AcceptAtFdExhaustionBacksOffInsteadOfSpinning) {
  // At EMFILE a pending connection stays queued, so every accept() fails
  // at once; a loop that simply retries burns a core until an fd frees
  // up. Hold the server there for ~300 ms (the limit is this process's —
  // ctest runs each test in its own), bound the CPU time it spends, then
  // free one fd and require the queued connection to be served.
  TestServer server;
  ASSERT_NE(server.port(), 0);
  if (highest_open_fd() < 0) GTEST_SKIP() << "no /proc/self/fd";
  // The client's socket must exist before the fds run out.
  const int sock = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(sock, 0);
  FdExhaustion squeeze(sock);
  ASSERT_TRUE(squeeze.exhausted());
  LineClient client(server.port(), sock);  // queued: accept() has no fd
  const double cpu0 = cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double spent = cpu_ms() - cpu0;
  EXPECT_LT(spent, 100.0) << "the accept loop spun at EMFILE";
  squeeze.release_one();
  EXPECT_NE(client.roundtrip("{\"cmd\": \"ping\"}").find("\"ok\": true"),
            std::string::npos);
}

#endif  // _WIN32

}  // namespace
}  // namespace apsq::serve

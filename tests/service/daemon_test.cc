// depmatch_serve end to end: the daemon runs as a real subprocess (its
// path is injected by CMake as DEPMATCH_SERVE_PATH) on a sharded store
// written here. It must serve the store's entries, exit 0 on a SIGTERM
// sent as soon as it reports that it is listening, and refuse to start
// on a missing or corrupt store.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "depmatch/common/string_util.h"
#include "depmatch/core/graph_catalog.h"
#include "depmatch/core/sharded_store.h"
#include "depmatch/datagen/graph_corpus.h"
#include "depmatch/graph/graph_io.h"
#include "depmatch/service/client.h"

extern char** environ;

namespace depmatch {
namespace service {
namespace {

constexpr size_t kStoreEntries = 6;
constexpr auto kStartTimeout = std::chrono::seconds(60);
constexpr auto kStopTimeout = std::chrono::seconds(10);

// A depmatch_serve subprocess with its stdout and stderr on one pipe.
// The destructor kills and reaps a daemon that is still running.
class Daemon {
 public:
  explicit Daemon(const std::vector<std::string>& args) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDERR_FILENO);
    // The daemon starts with no signal blocked, whatever this process has.
    posix_spawnattr_t attributes;
    posix_spawnattr_init(&attributes);
    sigset_t empty;
    sigemptyset(&empty);
    posix_spawnattr_setsigmask(&attributes, &empty);
    posix_spawnattr_setflags(&attributes, POSIX_SPAWN_SETSIGMASK);
    std::vector<std::string> arg_strings = {DEPMATCH_SERVE_PATH};
    arg_strings.insert(arg_strings.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& arg : arg_strings) argv.push_back(arg.data());
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, DEPMATCH_SERVE_PATH, &actions, &attributes,
                    argv.data(), environ) != 0) {
      pid_ = -1;
    }
    posix_spawnattr_destroy(&attributes);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    output_fd_ = fds[0];
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (output_fd_ >= 0) ::close(output_fd_);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  // Everything the daemon has printed so far.
  const std::string& output() const { return output_; }

  // Reads output until it holds `needle`, the pipe closes, or `timeout`
  // passes. True iff the needle arrived.
  bool ReadUntil(const std::string& needle,
                 std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (output_.find(needle) == std::string::npos) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      pollfd ready = {output_fd_, POLLIN, 0};
      if (::poll(&ready, 1, static_cast<int>(left.count())) <= 0) continue;
      if (!ReadSome()) return false;
    }
    return true;
  }

  // The daemon's exit code once it exits, or -1 if it did not exit
  // normally or is still running after `timeout` (it is then killed).
  // Reads the rest of its output.
  int WaitForExit(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    int status = 0;
    bool timed_out = false;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() >= deadline) {
        timed_out = true;
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    pid_ = -1;
    while (ReadSome()) {
    }
    if (timed_out || !WIFEXITED(status)) return -1;
    return WEXITSTATUS(status);
  }

 private:
  // One blocking read of the pipe; false at its end or on an error.
  bool ReadSome() {
    char buffer[4096];
    ssize_t n = ::read(output_fd_, buffer, sizeof(buffer));
    if (n <= 0) return false;
    output_.append(buffer, static_cast<size_t>(n));
    return true;
  }

  pid_t pid_ = -1;
  int output_fd_ = -1;
  std::string output_;
};

std::string WriteCorpusStore(const char* tag) {
  GraphCatalog catalog;
  GraphCorpusOptions corpus;
  for (size_t i = 0; i < kStoreEntries; ++i) {
    EXPECT_TRUE(
        catalog.Insert(CorpusEntryName(i), CorpusEntry(corpus, i)).ok());
  }
  std::string dir = StrFormat("%s/depmatch_serve_%d_%s",
                              testing::TempDir().c_str(), getpid(), tag);
  ShardedStoreWriteOptions write;
  write.entries_per_segment = 2;
  EXPECT_TRUE(WriteShardedCatalog(catalog, dir, write).ok());
  return dir;
}

std::string SocketPath(const char* tag) {
  return StrFormat("%s/depmatch_serve_%d_%s.sock", testing::TempDir().c_str(),
                   getpid(), tag);
}

TEST(DepmatchServeTest, ServesTheStoreItBootsFrom) {
  const std::string socket = SocketPath("serve");
  Daemon serve({"--socket", socket, "--catalog", WriteCorpusStore("serve")});
  ASSERT_GT(serve.pid(), 0);
  ASSERT_TRUE(serve.ReadUntil(" entries)\n", kStartTimeout)) << serve.output();
  EXPECT_NE(serve.output().find(StrFormat("listening on %s (%zu entries)\n",
                                          socket.c_str(), kStoreEntries)),
            std::string::npos)
      << serve.output();

  {
    Result<ServiceClient> client = ServiceClient::Connect(socket);
    ASSERT_TRUE(client.ok()) << client.status();
    Result<Response> stats = client->Stats();
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->status, WireStatus::kOk);
    EXPECT_EQ(stats->stats.catalog_entries, kStoreEntries);
  }

  ASSERT_EQ(::kill(serve.pid(), SIGTERM), 0);
  EXPECT_EQ(serve.WaitForExit(kStopTimeout), 0) << serve.output();
}

TEST(DepmatchServeTest, ExitsOnSigtermSentWithTheListeningLine) {
  const std::string store = WriteCorpusStore("sigterm");
  for (int round = 0; round < 10; ++round) {
    Daemon serve({"--socket", SocketPath("sigterm"), "--catalog", store});
    ASSERT_GT(serve.pid(), 0);
    ASSERT_TRUE(serve.ReadUntil("listening", kStartTimeout)) << serve.output();
    ASSERT_EQ(::kill(serve.pid(), SIGTERM), 0);
    EXPECT_EQ(serve.WaitForExit(kStopTimeout), 0)
        << "round " << round << ": " << serve.output();
  }
}

TEST(DepmatchServeTest, RefusesAMissingOrCorruptStore) {
  Daemon missing({"--socket", SocketPath("missing"), "--catalog",
                  testing::TempDir() + "/depmatch_serve_no_store"});
  ASSERT_GT(missing.pid(), 0);
  EXPECT_EQ(missing.WaitForExit(kStartTimeout), 1) << missing.output();
  EXPECT_NE(missing.output().find("failed to load catalog"), std::string::npos)
      << missing.output();

  const std::string store = WriteCorpusStore("corrupt");
  const std::string segment = store + "/segment-00001.seg";
  std::string bytes;
  ASSERT_TRUE(graphio::ReadFileToString(segment, &bytes).ok());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5A);
  ASSERT_TRUE(graphio::WriteStringToFile(segment, bytes).ok());
  Daemon corrupt({"--socket", SocketPath("corrupt"), "--catalog", store});
  ASSERT_GT(corrupt.pid(), 0);
  EXPECT_EQ(corrupt.WaitForExit(kStartTimeout), 1) << corrupt.output();
  EXPECT_NE(corrupt.output().find("failed to load catalog"), std::string::npos)
      << corrupt.output();
}

}  // namespace
}  // namespace service
}  // namespace depmatch

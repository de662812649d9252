// End-to-end loopback cluster test: spawns three real `hotmand` processes,
// drives quorum put/get through net::RemoteClient, SIGKILLs one node and
// verifies the sloppy quorum keeps serving, then tears the cluster down
// with SIGTERM and asserts every daemon exits cleanly (under the TSan
// preset that also asserts the daemons are race-report-free).
//
// The daemon binary path arrives via $HOTMAND_BIN (set by tests/CMakeLists
// to the built target); without it the test skips, so bare ./ binary runs
// stay green.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "net/remote_client.h"

namespace hotman::net {
namespace {

using namespace std::chrono_literals;

/// Reserves an ephemeral port by binding and releasing it. A tiny race
/// remains (another process could grab it before hotmand binds), which the
/// boot-retry loop below absorbs.
std::uint16_t PickPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len), 0);
  ::close(fd);
  return ntohs(bound.sin_port);
}

struct Node {
  std::string name;
  std::uint16_t port = 0;
  pid_t pid = -1;
};

class LoopbackClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* bin = std::getenv("HOTMAND_BIN");
    if (bin == nullptr) {
      GTEST_SKIP() << "HOTMAND_BIN not set (run via ctest)";
    }
    bin_ = bin;
    for (int i = 0; i < 3; ++i) {
      Node node;
      node.port = PickPort();
      node.name = "n" + std::to_string(i + 1) + ":" +
                  std::to_string(node.port);
      nodes_.push_back(node);
    }
    for (Node& node : nodes_) Spawn(&node);
  }

  void TearDown() override {
    for (Node& node : nodes_) {
      if (node.pid > 0) ::kill(node.pid, SIGKILL);
    }
    for (Node& node : nodes_) Reap(&node, /*expect_clean=*/false);
  }

  void Spawn(Node* node) {
    std::vector<std::string> args = {
        bin_,
        "--node", node->name,
        "--listen", "127.0.0.1:" + std::to_string(node->port),
        "--seeds", nodes_[0].name,
        "--n", "3", "--w", "2", "--r", "1",
        "--gossip-ms", "200",
        "--op-timeout-ms", "500",
    };
    for (const Node& peer : nodes_) {
      args.push_back("--peer");
      args.push_back(peer.name + "=127.0.0.1:" + std::to_string(peer.port));
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      ::execv(bin_.c_str(), argv.data());
      std::perror("execv hotmand");
      ::_exit(127);
    }
    node->pid = pid;
  }

  /// Waits for the process; with expect_clean, asserts a 0 exit status —
  /// which under the TSan preset also means no race report (TSan exits
  /// non-zero on findings).
  void Reap(Node* node, bool expect_clean) {
    if (node->pid <= 0) return;
    int status = 0;
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (std::chrono::steady_clock::now() < deadline) {
      const pid_t r = ::waitpid(node->pid, &status, WNOHANG);
      if (r == node->pid) {
        if (expect_clean) {
          EXPECT_TRUE(WIFEXITED(status))
              << node->name << " did not exit normally";
          if (WIFEXITED(status)) {
            EXPECT_EQ(WEXITSTATUS(status), 0) << node->name;
          }
        }
        node->pid = -1;
        return;
      }
      std::this_thread::sleep_for(10ms);
    }
    ::kill(node->pid, SIGKILL);
    ::waitpid(node->pid, &status, 0);
    node->pid = -1;
    if (expect_clean) ADD_FAILURE() << node->name << " hung on shutdown";
  }

  RemoteClientConfig ClientConfig(const Node& node, const char* who) {
    RemoteClientConfig config;
    config.host = "127.0.0.1";
    config.port = node.port;
    config.name = std::string(who) + "-" + std::to_string(::getpid());
    config.op_timeout = 5 * kMicrosPerSecond;
    return config;
  }

  /// Retries the first put until the cluster has booted (daemons need a
  /// moment to bind, connect and gossip).
  bool AwaitBoot(RemoteClient* client, const std::string& server) {
    const auto deadline = std::chrono::steady_clock::now() + 20s;
    while (std::chrono::steady_clock::now() < deadline) {
      if (client->Put(server, "boot-probe", ToBytes("up")).ok()) return true;
      std::this_thread::sleep_for(100ms);
    }
    return false;
  }

  /// A counter from a node's stats JSON ({"counters":{"name":N,...}});
  /// -1 when the node does not answer or lacks the counter.
  std::int64_t Counter(RemoteClient* client, const Node& node,
                       const std::string& name) {
    auto stats = client->Stats(node.name);
    if (!stats.ok()) return -1;
    const std::string needle = "\"" + name + "\":";
    const std::size_t at = stats->find(needle);
    if (at == std::string::npos) return -1;
    return std::strtoll(stats->c_str() + at + needle.size(), nullptr, 10);
  }

  std::string bin_;
  std::vector<Node> nodes_;
};

TEST_F(LoopbackClusterTest, RequestAtFirstAcceptIsAnswered) {
  // Dial n1 in a tight loop while it boots and send a get the moment the
  // port accepts. The daemon must answer it rather than drop it for want
  // of an endpoint; a dropped request would only end in the client's
  // timeout, made long here so a slow (sanitized, loaded) boot still
  // counts as answered.
  RemoteClientConfig config = ClientConfig(nodes_[0], "early");
  config.op_timeout = 30 * kMicrosPerSecond;
  RemoteClient early(config);
  const auto boot_deadline = std::chrono::steady_clock::now() + 20s;
  while (!early.Connect().ok()) {
    ASSERT_LT(std::chrono::steady_clock::now(), boot_deadline)
        << "n1 never accepted";
    std::this_thread::sleep_for(1ms);
  }
  auto reply = early.Get(nodes_[0].name, "never-written");
  // R=1 and n1 replicates every key to itself: an authoritative NotFound.
  EXPECT_TRUE(reply.status().IsNotFound()) << reply.status().ToString();

  // Boot completes, and no daemon dropped a frame for a missing endpoint
  // on the way: early frames wait in the kernel until the node serves.
  RemoteClient c1(ClientConfig(nodes_[0], "c1"));
  ASSERT_TRUE(AwaitBoot(&c1, nodes_[0].name)) << "cluster never booted";
  for (const Node& node : nodes_) {
    RemoteClient probe(ClientConfig(node, "probe"));
    EXPECT_EQ(Counter(&probe, node, "net.dropped_no_endpoint"), 0) << node.name;
  }
}

TEST_F(LoopbackClusterTest, QuorumOpsSurviveNodeKill) {
  RemoteClient c1(ClientConfig(nodes_[0], "c1"));
  ASSERT_TRUE(AwaitBoot(&c1, nodes_[0].name)) << "cluster never booted";

  // Phase 1: writes through n1, reads through every node (any node can
  // coordinate; R=1 reads may be served by any replica).
  for (int i = 0; i < 20; ++i) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(c1.Put(nodes_[0].name, key, ToBytes("v" + std::to_string(i))).ok())
        << key;
  }
  RemoteClient c2(ClientConfig(nodes_[1], "c2"));
  RemoteClient c3(ClientConfig(nodes_[2], "c3"));
  for (int i = 0; i < 20; ++i) {
    const std::string key = "key" + std::to_string(i);
    auto via2 = c2.Get(nodes_[1].name, key);
    ASSERT_TRUE(via2.ok()) << key << ": " << via2.status().ToString();
    EXPECT_EQ(ToString(*via2), "v" + std::to_string(i));
    auto via3 = c3.Get(nodes_[2].name, key);
    ASSERT_TRUE(via3.ok()) << key << ": " << via3.status().ToString();
  }

  // Deletes propagate as tombstones.
  ASSERT_TRUE(c1.Delete(nodes_[0].name, "key0").ok());
  auto deleted = c2.Get(nodes_[1].name, "key0");
  EXPECT_TRUE(!deleted.ok() && deleted.status().IsNotFound())
      << deleted.status().ToString();

  // Phase 2: hard-kill n3. W=2 of N=3 still holds on the two survivors, so
  // the sloppy quorum keeps accepting writes and serving reads.
  ASSERT_EQ(::kill(nodes_[2].pid, SIGKILL), 0);
  ::waitpid(nodes_[2].pid, nullptr, 0);
  nodes_[2].pid = -1;

  int survived = 0;
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  while (survived < 10 && std::chrono::steady_clock::now() < deadline) {
    const std::string key = "after" + std::to_string(survived);
    if (!c1.Put(nodes_[0].name, key, ToBytes("post-kill")).ok()) {
      // The first writes after the kill may time out while n1 notices the
      // death; the client's job is to retry.
      std::this_thread::sleep_for(100ms);
      continue;
    }
    auto read_back = c2.Get(nodes_[1].name, key);
    ASSERT_TRUE(read_back.ok()) << key << ": " << read_back.status().ToString();
    EXPECT_EQ(ToString(*read_back), "post-kill");
    ++survived;
  }
  EXPECT_EQ(survived, 10) << "sloppy quorum did not keep serving";

  // Pre-kill data stays readable (key0 was deleted above, start at 1).
  for (int i = 1; i < 20; ++i) {
    const std::string key = "key" + std::to_string(i);
    auto r = c1.Get(nodes_[0].name, key);
    ASSERT_TRUE(r.ok()) << key << ": " << r.status().ToString();
  }

  // Stats surface the transport metrics end to end.
  auto stats = c1.Stats(nodes_[0].name);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("net.frames_delivered"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("puts_succeeded"), std::string::npos) << *stats;

  // Phase 3: graceful teardown. Clean exits prove shutdown ordering (node
  // stop -> transport stop) and, under TSan, the absence of data races.
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(::kill(nodes_[i].pid, SIGTERM), 0);
  }
  for (int i = 0; i < 2; ++i) {
    Reap(&nodes_[i], /*expect_clean=*/true);
  }
}

// hotmand runs one reactor per node: `--shards 1` is accepted for launch
// scripts that pass it, and any other count is refused at argument parsing.
TEST(HotmandFlagsTest, MultiShardRequestExitsTwo) {
  const char* bin = std::getenv("HOTMAND_BIN");
  if (bin == nullptr) GTEST_SKIP() << "HOTMAND_BIN not set (run via ctest)";
  std::vector<std::string> args = {
      bin, "--node", "n1:1", "--listen", "127.0.0.1:1",
      "--peer", "n1:1=127.0.0.1:1", "--shards", "2"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    std::FILE* sink = std::freopen("/dev/null", "w", stderr);
    (void)sink;
    ::execv(bin, argv.data());
    ::_exit(127);
  }
  // A daemon that accepted the flag would start serving and never exit.
  int status = 0;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (::waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      FAIL() << "hotmand --shards 2 kept running";
    }
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
}

}  // namespace
}  // namespace hotman::net

// hotman_ctl: command-line client for a hotmand node.
//
//   hotman_ctl --connect 127.0.0.1:19870 --server db1:19870 put KEY VALUE
//   hotman_ctl --connect 127.0.0.1:19870 --server db1:19870 get KEY
//   hotman_ctl --connect 127.0.0.1:19870 --server db1:19870 del KEY
//   hotman_ctl --connect 127.0.0.1:19870 --server db1:19870 stats
//   hotman_ctl --connect 127.0.0.1:19870 --server db1:19870 bench 1000
//   hotman_ctl --connect 127.0.0.1:19870 --server db1:19870 join db6:19870
//       [VNODES] [CAPACITY]   (one command line; wrapped here)
//   hotman_ctl --connect 127.0.0.1:19870 --server db1:19870 decommission
//   hotman_ctl --connect 127.0.0.1:19870 --server db1:19870 rebalance-status
//
// `--server` is the node's cluster endpoint name (any node coordinates);
// `--connect` is that node's TCP listen address.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "net/remote_client.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --connect HOST:PORT --server NAME [--timeout-ms MS]\n"
               "          put KEY VALUE | get KEY | del KEY | stats | bench N\n"
               "          | join NODE [VNODES] [CAPACITY] | decommission\n"
               "          | rebalance-status\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hotman;

  net::RemoteClientConfig config;
  config.name = "ctl-" + std::to_string(::getpid());
  std::string server;
  std::vector<std::string> cmd;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      const std::string hp = argv[++i];
      const std::size_t colon = hp.rfind(':');
      if (colon == std::string::npos) { Usage(argv[0]); return 2; }
      config.host = hp.substr(0, colon);
      config.port = static_cast<std::uint16_t>(std::atoi(hp.c_str() + colon + 1));
    } else if (arg == "--server" && i + 1 < argc) {
      server = argv[++i];
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      config.op_timeout = std::atoll(argv[++i]) * kMicrosPerMilli;
    } else {
      cmd.push_back(arg);
    }
  }
  if (config.port == 0 || server.empty() || cmd.empty()) {
    Usage(argv[0]);
    return 2;
  }

  net::RemoteClient client(config);
  const std::string& op = cmd[0];

  if (op == "put" && cmd.size() == 3) {
    Status s = client.Put(server, cmd[1], ToBytes(cmd[2]));
    std::printf("%s\n", s.ToString().c_str());
    return s.ok() ? 0 : 1;
  }
  if (op == "get" && cmd.size() == 2) {
    Result<Bytes> r = client.Get(server, cmd[1]);
    if (!r.ok()) {
      std::printf("%s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", ToString(*r).c_str());
    return 0;
  }
  if (op == "del" && cmd.size() == 2) {
    Status s = client.Delete(server, cmd[1]);
    std::printf("%s\n", s.ToString().c_str());
    return s.ok() ? 0 : 1;
  }
  if (op == "stats" && cmd.size() == 1) {
    Result<std::string> r = client.Stats(server);
    if (!r.ok()) {
      std::printf("%s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", r->c_str());
    return 0;
  }
  if (op == "join" && cmd.size() >= 2 && cmd.size() <= 4) {
    const std::int64_t vnodes = cmd.size() >= 3 ? std::atoll(cmd[2].c_str()) : 0;
    const double capacity = cmd.size() >= 4 ? std::atof(cmd[3].c_str()) : 1.0;
    Status s = client.Join(server, cmd[1], vnodes, capacity);
    std::printf("%s\n", s.ToString().c_str());
    return s.ok() ? 0 : 1;
  }
  if (op == "decommission" && cmd.size() == 1) {
    Status s = client.Decommission(server);
    std::printf("%s\n", s.ok() ? "decommission started" : s.ToString().c_str());
    return s.ok() ? 0 : 1;
  }
  if (op == "rebalance-status" && cmd.size() == 1) {
    Result<std::string> r = client.RebalanceStatus(server);
    if (!r.ok()) {
      std::printf("%s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", r->c_str());
    return 0;
  }
  if (op == "bench" && cmd.size() == 2) {
    const int n = std::atoi(cmd[1].c_str());
    const Clock* clock = SystemClock::Default();
    const Micros t0 = clock->NowMicros();
    int failures = 0;
    for (int i = 0; i < n; ++i) {
      const std::string key = "bench" + std::to_string(i);
      if (!client.Put(server, key, ToBytes("value" + std::to_string(i))).ok()) {
        ++failures;
      }
    }
    const Micros t1 = clock->NowMicros();
    for (int i = 0; i < n; ++i) {
      const std::string key = "bench" + std::to_string(i);
      if (!client.Get(server, key).ok()) ++failures;
    }
    const Micros t2 = clock->NowMicros();
    std::printf("bench: %d puts in %.1f ms, %d gets in %.1f ms, %d failures\n",
                n, static_cast<double>(t1 - t0) / 1000.0, n,
                static_cast<double>(t2 - t1) / 1000.0, failures);
    return failures == 0 ? 0 : 1;
  }

  Usage(argv[0]);
  return 2;
}

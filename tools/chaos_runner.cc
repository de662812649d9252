// chaos_runner: seeded chaos experiments against the simulated cluster.
//
// One seed, full determinism:
//   chaos_runner --seed=42                 # one quorum-profile run
//   chaos_runner --seed=42 --profile=convergence
//   chaos_runner --seed=42 --verify        # run twice, compare history hashes
//   chaos_runner --seeds=1-50              # sweep; prints failing seeds
//   chaos_runner --seeds=1-200 --profile=convergence --quiet
//   chaos_runner --seeds=1-50 --read-path=primary   # single-replica reads
//
// Exit code 0 when every run is checker-clean (and, with --verify,
// deterministic); 1 otherwise. The failing seeds line is machine-parsable
// ("FAILING_SEEDS: 3 17") so CI sweeps can archive it.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "chaos/harness.h"

namespace {

using hotman::chaos::ChaosOptions;
using hotman::chaos::ChaosResult;
using hotman::chaos::RunChaos;
using hotman::chaos::Violation;
using hotman::cluster::ReadPath;

struct Args {
  std::uint64_t seed_lo = 1;
  std::uint64_t seed_hi = 1;
  std::string profile = "quorum";
  bool verify = false;
  bool quiet = false;
  bool show_history = false;
  bool show_nemesis = false;
  std::optional<ReadPath> read_path;  // unset keeps the profile's plan
  double zipf_theta = -1.0;   // <0 keeps the profile's own skew setting
  std::string lying_replica;  // negative-control passthrough
};

void Usage() {
  std::fprintf(stderr,
               "usage: chaos_runner [--seed=N | --seeds=LO-HI]\n"
               "                    [--profile=quorum|convergence|membership"
               "|skew]\n"
               "                    [--read-path=quorum|primary|hot]\n"
               "                    [--zipf-theta=T]\n"
               "                    [--verify] [--quiet] [--history]\n"
               "                    [--nemesis-log] [--lying-replica=ADDR]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--seed=")) {
      args->seed_lo = args->seed_hi = std::strtoull(v, nullptr, 10);
    } else if (const char* range = value("--seeds=")) {
      char* dash = nullptr;
      args->seed_lo = std::strtoull(range, &dash, 10);
      args->seed_hi = (dash != nullptr && *dash == '-')
                          ? std::strtoull(dash + 1, nullptr, 10)
                          : args->seed_lo;
    } else if (const char* name = value("--profile=")) {
      args->profile = name;
    } else if (const char* addr = value("--lying-replica=")) {
      args->lying_replica = addr;
    } else if (const char* theta = value("--zipf-theta=")) {
      args->zipf_theta = std::atof(theta);
    } else if (const char* path = value("--read-path=")) {
      const std::string plan = path;
      if (plan == "quorum") {
        args->read_path = ReadPath::kQuorum;
      } else if (plan == "primary") {
        args->read_path = ReadPath::kPrimary;
      } else if (plan == "hot") {
        args->read_path = ReadPath::kHotRotation;
      } else {
        Usage();
        return false;
      }
    } else if (arg == "--verify") {
      args->verify = true;
    } else if (arg == "--quiet") {
      args->quiet = true;
    } else if (arg == "--history") {
      args->show_history = true;
    } else if (arg == "--nemesis-log") {
      args->show_nemesis = true;
    } else {
      Usage();
      return false;
    }
  }
  if (args->seed_hi < args->seed_lo ||
      (args->profile != "quorum" && args->profile != "convergence" &&
       args->profile != "membership" && args->profile != "skew")) {
    Usage();
    return false;
  }
  return true;
}

ChaosOptions OptionsFor(const Args& args, std::uint64_t seed) {
  ChaosOptions options = args.profile == "quorum"
                             ? ChaosOptions::QuorumProfile(seed)
                         : args.profile == "membership"
                             ? ChaosOptions::MembershipProfile(seed)
                         : args.profile == "skew"
                             ? ChaosOptions::SkewProfile(seed)
                             : ChaosOptions::ConvergenceProfile(seed);
  options.lying_replica = args.lying_replica;
  if (args.read_path.has_value()) options.read_path = *args.read_path;
  if (args.read_path == ReadPath::kHotRotation && args.profile != "skew") {
    // Same test-scale heat thresholds SkewProfile uses; the production
    // defaults never fire at chaos traffic rates.
    options.heat.hot_qps = 1.0;
    options.heat.min_hits = 6.0;
    options.heat.half_life = 4 * hotman::kMicrosPerSecond;
  }
  if (args.zipf_theta >= 0.0) options.zipf_theta = args.zipf_theta;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;

  std::vector<std::uint64_t> failing;
  bool nondeterministic = false;

  for (std::uint64_t seed = args.seed_lo; seed <= args.seed_hi; ++seed) {
    ChaosResult result = RunChaos(OptionsFor(args, seed));

    std::string verdict = result.ok() ? "ok" : "VIOLATIONS";
    if (args.verify) {
      ChaosResult again = RunChaos(OptionsFor(args, seed));
      if (again.history_hash != result.history_hash) {
        nondeterministic = true;
        verdict = "NONDETERMINISTIC";
      }
    }
    if (!result.ok()) failing.push_back(seed);

    if (!args.quiet || !result.ok()) {
      std::printf(
          "seed=%llu profile=%s hash=%s ops=%zu faults=%zu hot=%llu/%llu %s\n",
          static_cast<unsigned long long>(seed), args.profile.c_str(),
          result.history_hash.c_str(), result.history.size(),
          result.faults_injected,
          static_cast<unsigned long long>(result.hot_gets_fanned),
          static_cast<unsigned long long>(result.hot_read_demotions),
          verdict.c_str());
      if (!result.ok()) {
        std::printf("%s\n", result.report.Summary().c_str());
      }
    }
    if (args.show_nemesis) {
      for (const std::string& line : result.nemesis_log) {
        std::printf("  %s\n", line.c_str());
      }
    }
    if (args.show_history) {
      std::fputs(result.history.Canonical().c_str(), stdout);
    }
  }

  if (args.seed_hi > args.seed_lo || !failing.empty()) {
    std::string seeds;
    for (std::uint64_t seed : failing) {
      seeds += " " + std::to_string(seed);
    }
    std::printf("FAILING_SEEDS:%s\n", seeds.c_str());
  }
  return (failing.empty() && !nondeterministic) ? 0 : 1;
}

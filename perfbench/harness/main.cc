// gum_perfbench: runs one workload of the end-to-end benchmark and prints
// its report as one JSON line, or (--selftest) runs the determinism
// self-test on reduced sizes of every workload.
//
//   gum_perfbench --workload NAME [--seed N] [--seconds S] [--threads T]
//                 [--trace-dir DIR]
//   gum_perfbench --selftest [--seed N]
//
// perfbench/run.py builds this binary and wraps it in the benchmark's
// command-line contract.

#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

using perfbench::Config;
using perfbench::Report;

struct Workload {
  const char* name;
  void (*run)(const Config&, Report*);
  // Host threads unless --threads says otherwise. road-lt and
  // web-serve-mutate run on one: their supersteps and waves are small, so
  // at 4 threads their host time follows the wake-up latency of idle pool
  // workers on a shared host (rounds of one seed varied by half), which
  // the serial baseline cannot follow. rmat-analytics has the dense
  // supersteps where the pool pays (2.7x at 4 threads).
  int threads;
};

constexpr Workload kWorkloads[] = {
    {"rmat-analytics", perfbench::RunRmatAnalytics, 4},
    {"road-lt", perfbench::RunRoadLt, 1},
    {"web-serve-mutate", perfbench::RunWebServeMutate, 1},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Runs every workload on reduced inputs, two rounds each, at 1 host thread
// and twice at 4: simulated makespan and the digest of every output value
// must agree across all three runs, and every output check must pass.
int SelfTest(uint64_t seed) {
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    std::string line;
    uint64_t digest = 0;
    double makespan = 0.0;
    for (const int threads : {1, 4, 4}) {
      Config cfg;
      cfg.workload = w.name;
      cfg.seed = seed;
      cfg.threads = threads;
      cfg.small = true;
      cfg.rounds = 2;
      Report report;
      w.run(cfg, &report);
      const bool same = line.empty() || (report.digest == digest &&
                                         report.Get("sim_makespan_ms") ==
                                             makespan);
      digest = report.digest;
      makespan = report.Get("sim_makespan_ms");
      ok = ok && same && report.correct();
      line += " threads=" + std::to_string(threads) +
              (report.correct() ? "" : " (check failed)") +
              (same ? "" : " (differs)");
    }
    std::cout.precision(17);
    std::cout << "selftest " << w.name << ": sim_makespan_ms " << makespan
              << ", digest " << digest << ";" << line << "\n";
  }
  std::cout << "selftest: " << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "gum_perfbench: " << why << "\n"
            << "usage: gum_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--threads T] [--trace-dir DIR]\n"
               "       gum_perfbench --selftest [--seed N]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = next();
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      cfg.seconds = std::stod(next());
    } else if (arg == "--threads") {
      cfg.threads = std::stoi(next());
    } else if (arg == "--trace-dir") {
      cfg.trace_dir = next();
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      Usage("unknown argument " + arg);
    }
  }
  if (selftest) return SelfTest(cfg.seed);
  const Workload* workload = FindWorkload(cfg.workload);
  if (workload == nullptr) Usage("unknown workload '" + cfg.workload + "'");
  if (cfg.threads == 0) cfg.threads = workload->threads;
  if (cfg.threads < 1) Usage("--threads must be >= 1");

  Report report;
  workload->run(cfg, &report);
  report.PrintJson(std::cout);
  return 0;
}

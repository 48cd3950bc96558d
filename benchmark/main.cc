// brep_benchmark: the end-to-end benchmark of the BrePartition index.
//
//   brep_benchmark --workload <knn-isd100|file-l2-64|churn-l2|all>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--scale small] [--dir <scratch dir>]
//
// --trace 0 measures every end-to-end metric; --trace 1 replays the same
// inputs stage by stage and reports the per-layer metrics. Every answer is
// checked against the benchmark's own brute-force oracle. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// The exit code is 0 when every check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "bench.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: brep_benchmark --workload <knn-isd100|file-l2-64|"
               "churn-l2|all> --seed <n> --seconds <s> --trace <0|1> "
               "[--scale small] [--dir <scratch dir>]\n");
}

/// Metric values with all their digits (JSON has no NaN/inf: those become
/// null, which no caller should accept).
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintReport(const bench::Report& r, const bench::Spec& spec,
                 uint64_t seed, bool traced) {
  std::printf("== %s (%s, n=%zu, d=%zu, k=%zu, seed %llu, %s)\n",
              r.workload.c_str(), bench::DivergenceName(spec.kind), spec.n,
              spec.d, spec.k, static_cast<unsigned long long>(seed),
              traced ? "traced" : "untraced");
  for (const auto& [name, m] : r.metrics) {
    std::printf("  %-28s %16.6f %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& [type, c] : r.ops) {
    std::printf("  ops %-24s attempted %8llu  failed %llu\n", type.c_str(),
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
  }
  for (const std::string& e : r.errors) {
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  bench::RunOptions opt;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
      have_seconds = opt.seconds > 0.0;
    } else if (key == "--trace") {
      trace = val == "1" ? 1 : val == "0" ? 0 : -1;
    } else if (key == "--scale") {
      opt.small = val == "small";
    } else if (key == "--dir") {
      opt.dir = val;
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || workload.empty() || !have_seed || !have_seconds ||
      trace < 0) {
    Usage();
    return 2;
  }

  std::vector<bench::Spec> specs;
  for (const bench::Spec& s : bench::AllSpecs(opt.small)) {
    if (workload == "all" || workload == s.name) specs.push_back(s);
  }
  if (specs.empty()) {
    std::fprintf(stderr, "unknown workload \"%s\"\n", workload.c_str());
    Usage();
    return 2;
  }

  if (opt.dir.empty()) {
    opt.dir = ".bench_build/run-" + std::to_string(::getpid());
  }
  // Remove the directory afterwards only if this run created it.
  std::error_code ec;
  const bool created = !std::filesystem::exists(opt.dir, ec);
  std::filesystem::create_directories(opt.dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", opt.dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string metrics;
  for (const bench::Spec& spec : specs) {
    const bench::Report r = trace == 1 ? bench::RunTraced(spec, opt)
                                       : bench::RunUntraced(spec, opt);
    PrintReport(r, spec, opt.seed, trace == 1);
    correct = correct && r.correct;
    attempted += r.attempted();
    failed += r.failed();
    for (const auto& [name, m] : r.metrics) {
      const std::string key =
          specs.size() == 1 ? name : spec.name + "." + name;
      if (!metrics.empty()) metrics += ", ";
      metrics += "\"" + key + "\": {\"value\": " + Num(m.value) +
                 ", \"unit\": \"" + m.unit + "\"}";
    }
  }
  if (created) std::filesystem::remove_all(opt.dir, ec);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

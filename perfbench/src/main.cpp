// perfbench — the repository benchmark.
//
//   perfbench --workload pipeline-gnm|flood-durable|serve-mix --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//
// Builds the workload's input from the seed, measures for S seconds, checks
// every answer against the sequential references, and prints the metrics;
// the last line of stdout is the JSON result. Exit status 1 on any wrong
// answer or ledger mismatch, 2 on bad arguments. See README.md.

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload pipeline-gnm|flood-durable|serve-mix --seed N\n"
               "                 --seconds S --trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return usage("missing value after a flag");
    const char* value = argv[++i];
    std::uint64_t v = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      opt.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!parse_u64(value, opt.seed)) return usage("--seed takes a non-negative integer");
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!parse_u64(value, v) || v == 0 || v > 3600) return usage("--seconds takes 1..3600");
      opt.seconds = static_cast<double>(v);
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (!parse_u64(value, v) || v > 1) return usage("--trace takes 0 or 1");
      opt.trace = v == 1;
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      opt.work_dir = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (!have_workload) return usage("--workload is required");

  void (*run)(const perfbench::Options&, perfbench::Report&, perfbench::Checker&) = nullptr;
  if (opt.workload == "pipeline-gnm") {
    run = perfbench::run_pipeline_gnm;
  } else if (opt.workload == "flood-durable") {
    run = perfbench::run_flood_durable;
  } else if (opt.workload == "serve-mix") {
    run = perfbench::run_serve_mix;
  } else {
    return usage("unknown workload");
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) return usage("cannot create --work-dir");

  kmm::obs::set_alloc_count_source(&perfbench::alloc_count);
  std::printf("perfbench: workload=%s seed=%llu seconds=%.0f trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  perfbench::Report report;
  perfbench::Checker check;
  run(opt, report, check);
  if (!report.print(opt, check)) return 1;
  return check.failed == 0 ? 0 : 1;
}

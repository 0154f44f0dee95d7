#pragma once
// Shared argv handling for the small example CLIs: positional arguments
// plus a `--threads T` flag (the runtime's worker-thread count; 0 = use
// hardware concurrency) and the observability outputs `--metrics-out FILE`
// (per-superstep metrics timeline JSON, aggregate_bench.py-ingestible) and
// `--trace-out FILE` (Chrome trace-event JSON for chrome://tracing /
// Perfetto). Both flags accept `--flag FILE` and `--flag=FILE`.
// The serving-layer examples add `--serve` (boolean), `--deadline-ms MS`
// (per-query wall deadline; 0 = unlimited) and `--max-inflight N` (executor
// threads = in-flight query bound; must be positive).
// kmachine_cli has a richer flag set and keeps its own parser, but reuses
// ObsScope below.
//
// Parsing is strict: duplicate flags, non-numeric values, and trailing
// garbage after a number ("8x") exit(2) with a one-line error instead of
// silently running with a misread configuration.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "kmm.hpp"

namespace kmmex {

// ---- argument validation (shared by kmachine_cli and scenario examples) ----
//
// strtoull-style parsing silently turns garbage into 0 and a leading minus
// into a huge wraparound value; every machine/thread/budget count in the
// examples goes through these helpers instead so the failure is a clean
// one-line error, not a confusing run with k=0.

/// Parse a whole non-negative base-10 integer into `value`; false on an
/// empty string, a sign, trailing garbage or overflow.
inline bool parse_u64(const char* text, std::uint64_t& value) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text, &end, 10);
  if (text[0] == '\0' || text[0] == '-' || end == nullptr || *end != '\0' ||
      errno == ERANGE) {
    return false;
  }
  value = parsed;
  return true;
}

/// Parse a non-negative base-10 integer or exit(2) with a clean error.
inline std::uint64_t require_u64(const char* flag, const char* text) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value)) {
    std::fprintf(stderr, "error: %s expects a non-negative integer, got '%s'\n", flag,
                 text);
    std::exit(2);
  }
  return value;
}

/// Same, but zero is also rejected (for counts where 0 has no meaning).
inline std::uint64_t require_positive_u64(const char* flag, const char* text) {
  const std::uint64_t value = require_u64(flag, text);
  if (value == 0) {
    std::fprintf(stderr, "error: %s must be positive, got '%s'\n", flag, text);
    std::exit(2);
  }
  return value;
}

/// k-machine sanity: the model needs 2 <= k, and k <= n so every machine
/// can host at least one vertex. Exits(2) with a clean error otherwise.
inline void require_machines(std::uint64_t k, std::uint64_t n, const char* flag) {
  if (k < 2) {
    std::fprintf(stderr, "error: %s: the k-machine model needs at least 2 machines, got %llu\n",
                 flag, static_cast<unsigned long long>(k));
    std::exit(2);
  }
  if (k > n) {
    std::fprintf(stderr,
                 "error: %s: more machines (%llu) than vertices (%llu) — every machine "
                 "must host at least one vertex\n",
                 flag, static_cast<unsigned long long>(k),
                 static_cast<unsigned long long>(n));
    std::exit(2);
  }
}

// ---- edge-list input (kmachine_cli --input) ----

/// Load a "u v [w]" edge list — one edge per line, '#' comment lines, the
/// weight defaulting to 1 — through Graph::make, or exit(2) with the file
/// and line. Strict like the flags: every token must be a whole
/// non-negative integer, vertex ids must fit a 32-bit Vertex (no silent
/// truncation), a line holds two or three tokens, and Graph::make's rules
/// (no self-loops, parallel or weight-0 edges) hold.
inline kmm::Graph load_edge_list(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    std::exit(2);
  }
  const auto fail = [&](std::size_t line_no, const std::string& what) {
    std::fprintf(stderr, "error: '%s' line %zu: %s\n", path.c_str(), line_no, what.c_str());
    std::exit(2);
  };
  std::vector<kmm::WeightedEdge> edges;
  std::uint64_t max_vertex = 0;
  std::string line;
  for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::vector<std::string> tokens;
    for (std::string token; ls >> token;) tokens.push_back(std::move(token));
    if (tokens.empty()) continue;
    if (tokens.size() < 2 || tokens.size() > 3) {
      fail(line_no, "expected 'u v [w]', got '" + line + "'");
    }
    std::uint64_t ids[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
      const std::string& id = tokens[static_cast<std::size_t>(i)];
      if (!parse_u64(id.c_str(), ids[i])) {
        fail(line_no, "vertex id '" + id + "' is not a non-negative integer");
      }
      if (ids[i] > std::numeric_limits<kmm::Vertex>::max()) {
        fail(line_no, "vertex id " + id + " does not fit a 32-bit vertex id");
      }
    }
    std::uint64_t w = 1;
    if (tokens.size() == 3 && !parse_u64(tokens[2].c_str(), w)) {
      fail(line_no, "weight '" + tokens[2] + "' is not a non-negative integer");
    }
    edges.push_back(kmm::WeightedEdge{static_cast<kmm::Vertex>(ids[0]),
                                      static_cast<kmm::Vertex>(ids[1]), w});
    max_vertex = std::max({max_vertex, ids[0], ids[1]});
  }
  // Strict: a malformed file (self-loop, duplicate undirected edge, weight
  // 0) exits with the factory's diagnostic rather than being repaired.
  auto made = kmm::Graph::make(static_cast<std::size_t>(max_vertex) + 1, std::move(edges));
  if (!made.ok()) {
    std::fprintf(stderr, "error: '%s': %s\n", path.c_str(), made.error().message.c_str());
    std::exit(2);
  }
  return std::move(made).value();
}

struct ExampleArgs {
  unsigned threads = 1;
  const char* metrics_out = nullptr;  // per-superstep timeline JSON
  const char* trace_out = nullptr;    // Chrome trace-event JSON
  // Serving-layer flags (graph_query_server; kmachine_cli --serve has its
  // own parser with the same names/semantics).
  bool serve = false;            // run the query-serving demo loop
  std::uint64_t deadline_ms = 0;  // per-query wall deadline; 0 = unlimited
  unsigned max_inflight = 0;      // executor threads / in-flight bound; 0 = default
  std::vector<const char*> pos;

  /// pos[i] as an integer, or `fallback` when absent. Strict: trailing
  /// garbage ("4096x") or a negative sign exits(2) instead of parsing a
  /// prefix.
  [[nodiscard]] unsigned long long pos_u64(std::size_t i, unsigned long long fallback) const {
    if (i >= pos.size()) return fallback;
    char flag[32];
    std::snprintf(flag, sizeof flag, "positional #%zu", i + 1);
    return require_u64(flag, pos[i]);
  }
};

/// Scenario-side owner of the observability sinks: builds an ObsSink from
/// the requested output paths, hands `sink()` to every algorithm config of
/// the run (null when neither flag was given — the run records nothing),
/// and writes both files once at scope exit. Sequential algorithm calls
/// sharing one scope concatenate into one timeline/trace, which is the
/// point: the scenario IS one run.
class ObsScope {
 public:
  ObsScope(const char* metrics_path, const char* trace_path, const char* name)
      : name_(name), metrics_path_(metrics_path), trace_path_(trace_path) {
    if (metrics_path_ != nullptr) sink_.timeline = &timeline_;
    if (trace_path_ != nullptr) sink_.trace = &trace_;
  }
  ObsScope(const ExampleArgs& args, const char* name)
      : ObsScope(args.metrics_out, args.trace_out, name) {}

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

  ~ObsScope() { flush(); }

  /// Pointer for the configs' `obs` field; null when nothing was requested.
  [[nodiscard]] const kmm::ObsSink* sink() const noexcept {
    return sink_.empty() ? nullptr : &sink_;
  }

  /// Write the requested files (idempotent; also run by the destructor).
  void flush() {
    if (flushed_) return;
    flushed_ = true;
    if (metrics_path_ != nullptr) {
      if (timeline_.write_json_file(metrics_path_, name_)) {
        std::fprintf(stderr, "metrics timeline (%zu supersteps) -> %s\n",
                     timeline_.size(), metrics_path_);
      } else {
        std::fprintf(stderr, "cannot write metrics timeline to '%s'\n", metrics_path_);
      }
    }
    if (trace_path_ != nullptr) {
      if (trace_.write_chrome_json_file(trace_path_)) {
        std::fprintf(stderr, "chrome trace (%zu spans%s) -> %s\n", trace_.total_spans(),
                     trace_.dropped() != 0 ? ", ring wrapped" : "", trace_path_);
      } else {
        std::fprintf(stderr, "cannot write trace to '%s'\n", trace_path_);
      }
    }
  }

 private:
  const char* name_;
  const char* metrics_path_;
  const char* trace_path_;
  kmm::MetricsTimeline timeline_;
  kmm::TraceRecorder trace_;
  kmm::ObsSink sink_;
  bool flushed_ = false;
};

inline ExampleArgs parse_example_args(int argc, char** argv) {
  ExampleArgs args;
  // Flag-with-value helper accepting both `--flag VALUE` and `--flag=VALUE`;
  // returns the value (advancing i for the two-token form) or nullptr when
  // argv[i] is not `flag`. A trailing valueless flag is ignored rather than
  // misread as a positional argument.
  const auto flag_value = [&](int& i, const char* flag) -> const char* {
    const std::size_t len = std::strlen(flag);
    if (std::strncmp(argv[i], flag, len) != 0) return nullptr;
    if (argv[i][len] == '\0') return i + 1 < argc ? argv[++i] : nullptr;
    if (argv[i][len] == '=') return argv[i] + len + 1;
    return nullptr;
  };
  // Repeating a flag is almost always a stale shell history line; reject it
  // instead of silently keeping whichever occurrence wins.
  const auto once = [](bool& seen, const char* flag) {
    if (seen) {
      std::fprintf(stderr, "error: duplicate flag %s\n", flag);
      std::exit(2);
    }
    seen = true;
  };
  bool seen_threads = false, seen_metrics = false, seen_trace = false;
  bool seen_serve = false, seen_deadline = false, seen_inflight = false;
  for (int i = 1; i < argc; ++i) {
    if (const char* value = flag_value(i, "--threads")) {
      once(seen_threads, "--threads");
      // Strict: a non-numeric or partially numeric value exits instead of
      // silently parsing to 0 (= all hardware threads).
      args.threads = static_cast<unsigned>(require_u64("--threads", value));
    } else if (const char* metrics = flag_value(i, "--metrics-out")) {
      once(seen_metrics, "--metrics-out");
      args.metrics_out = metrics;
    } else if (const char* trace = flag_value(i, "--trace-out")) {
      once(seen_trace, "--trace-out");
      args.trace_out = trace;
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      once(seen_serve, "--serve");
      args.serve = true;
    } else if (const char* deadline = flag_value(i, "--deadline-ms")) {
      once(seen_deadline, "--deadline-ms");
      args.deadline_ms = require_u64("--deadline-ms", deadline);
    } else if (const char* inflight = flag_value(i, "--max-inflight")) {
      once(seen_inflight, "--max-inflight");
      args.max_inflight =
          static_cast<unsigned>(require_positive_u64("--max-inflight", inflight));
    } else if (std::strcmp(argv[i], "--threads") == 0 ||
               std::strcmp(argv[i], "--metrics-out") == 0 ||
               std::strcmp(argv[i], "--trace-out") == 0 ||
               std::strcmp(argv[i], "--deadline-ms") == 0 ||
               std::strcmp(argv[i], "--max-inflight") == 0) {
      // Valueless trailing flag: already reported by flag_value returning
      // null with i at argc - 1; skip it.
    } else {
      args.pos.push_back(argv[i]);
    }
  }
  return args;
}

}  // namespace kmmex

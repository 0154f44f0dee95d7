// kmachine_cli — run any algorithm of the library on any generator from the
// command line and read the round/traffic ledger.
//
//   kmachine_cli --algo conn --graph gnm --n 4096 --m 12288 --k 16
//   kmachine_cli --algo mst --graph grid --rows 64 --cols 64 --k 8
//   kmachine_cli --algo mincut --graph dumbbell --n 256 --lambda 4 --k 8
//   kmachine_cli --algo 2ec --graph cycle --n 1024 --k 8 --coinflip
//   kmachine_cli --algo conn --input edges.txt --k 16
//
// Algorithms: conn | mst | flood | referee | mincut | 2ec | bipartite | leader
// Graphs:     gnm | rmat | connected | path | cycle | star | complete | grid |
//             communities | pa | dumbbell | cliquechain
//             or --input FILE with one "u v [w]" edge per line ('#' comments)
// Common flags: --n --m --k --seed --bandwidth --coordinator --coinflip
//               --threads T (parallel runtime; 0 = hardware concurrency)
//               --verify (compare against the sequential reference)
//               --metrics-out FILE (per-superstep metrics timeline JSON)
//               --trace-out FILE (Chrome trace JSON for chrome://tracing)
//               --stream-ingest (build per-machine shards straight from the
//                 chunked generator stream — gnm/rmat only; every --algo and
//                 --serve run on the shards, but the global edge list and
//                 Graph are never materialized, so --verify is skipped)
//               --mem-budget BYTES (per-machine shard byte cap for
//                 --stream-ingest; ingest fails with a diagnostic exit when
//                 any machine would exceed it)
//               --fault-profile none|crashes|lossy|corrupt|chaos (seeded
//                 fault schedule for conn|mst|flood; crashes recover via the
//                 checkpoint/replay plane, lossy links are retransmitted,
//                 corruption is left for --verify to catch)
//               --fault-seed S (schedule PRF seed; default 0)
//               --checkpoint-every C (checkpoint cadence for crash recovery)
//               --durable-dir DIR (durable checkpoint & restart plane: every
//                 cadence checkpoint is also committed to DIR as a
//                 checksummed resume frame; --algo conn|mst|flood — the
//                 checkpointable programs. SIGKILL the process at any point
//                 and relaunch with --resume to continue bit-identically.
//                 With --serve, DIR/queries.log journals query lifecycles)
//               --resume (restore the newest intact generation in
//                 --durable-dir and continue; corrupt/torn/stale generations
//                 are skipped with a diagnostic, never silently restored, and
//                 a directory written for another graph, edge list, algorithm,
//                 --coordinator/--coinflip setting or cluster shape exits 1)
// Every value flag accepts both `--key value` and `--key=value`.
// Flags are validated strictly: non-numeric or trailing-garbage values,
// duplicate flags, zero where it has no meaning, and k > n or k < 2 are all
// rejected with a clean one-line error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>

#include "example_args.hpp"
#include "kmm.hpp"

namespace {

using namespace kmm;

struct Options {
  std::string algo = "conn";
  std::string graph = "gnm";
  std::string input;  // edge-list file; overrides --graph
  std::size_t n = 1024;
  std::size_t m = 0;  // 0 => 3n
  std::size_t rows = 32, cols = 32;
  std::size_t lambda = 4;
  std::size_t blocks = 8;
  MachineId k = 8;
  std::uint64_t seed = 1;
  std::uint64_t bandwidth = 0;   // 0 => ceil(log2 n)^2
  unsigned threads = 1;          // runtime worker threads; 0 => hardware
  std::uint64_t mem_budget = 0;  // per-machine shard byte cap; 0 = unlimited
  std::string metrics_out;       // per-superstep timeline JSON ("" = off)
  std::string trace_out;         // Chrome trace-event JSON ("" = off)
  std::string fault_profile = "none";  // seeded fault schedule preset
  std::uint64_t fault_seed = 0;        // schedule PRF seed
  unsigned checkpoint_every = 8;       // crash-recovery checkpoint cadence
  std::string durable_dir;             // durable frame directory ("" = off)
  bool resume = false;                 // restore newest generation and continue
  bool stream_ingest = false;    // shard-direct ingest, no global graph
  bool coordinator = false;
  bool coinflip = false;
  bool verify = true;
  // --serve mode: load the graph once, run a mixed concurrent query
  // workload through ClusterService, print structured outcomes.
  bool serve = false;
  std::size_t queries = 24;       // workload size (cycles through all kinds)
  unsigned max_inflight = 4;      // executor threads = in-flight bound
  std::size_t max_queue = 64;     // admission queue bound
  std::uint64_t deadline_ms = 0;  // default per-query wall deadline (0 = off)
  std::string query_log;          // per-query outcome JSON ("" = off)
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --algo conn|mst|flood|referee|mincut|2ec|bipartite|leader\n"
               "          --graph gnm|rmat|connected|path|cycle|star|complete|grid|"
               "communities|pa|dumbbell|cliquechain\n"
               "          [--n N] [--m M] [--rows R --cols C] [--lambda L]\n"
               "          [--blocks B] [--k K] [--seed S] [--bandwidth BITS]\n"
               "          [--threads T] [--coordinator] [--coinflip] [--no-verify]\n"
               "          [--stream-ingest] [--mem-budget BYTES]\n"
               "          [--metrics-out FILE] [--trace-out FILE]\n"
               "          [--fault-profile none|crashes|lossy|corrupt|chaos]\n"
               "          [--fault-seed S] [--checkpoint-every C]\n"
               "          [--durable-dir DIR] [--resume]\n"
               "          [--serve] [--queries Q] [--max-inflight W] [--max-queue B]\n"
               "          [--deadline-ms MS] [--query-log FILE]\n"
               "\n"
               "  --serve loads the graph once and runs a mixed concurrent query\n"
               "  workload (all kinds, cycling) through the resilient serving layer:\n"
               "  per-query deadlines/budgets, cooperative cancellation, admission\n"
               "  shedding, and — with --fault-profile crashes|chaos — seeded lethal\n"
               "  chaos with deterministic retry/backoff. Query #1 is a guaranteed\n"
               "  over-budget probe demonstrating a structured timeout. Outcomes are\n"
               "  always structured (exit 0); --query-log writes them as JSON.\n"
               "\n"
               "  --stream-ingest (gnm|rmat only) builds per-machine shards straight\n"
               "  from the generator stream. Every --algo and --serve run on them;\n"
               "  no global graph exists, so --verify is skipped and --input is\n"
               "  rejected.\n"
               "\n"
               "  --durable-dir (--algo conn|mst|flood) commits every checkpoint as\n"
               "  a resume frame; after a kill, the same command with --resume\n"
               "  continues bit-identically from the newest intact generation.\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  std::map<std::string, std::string> kv;
  // A repeated value flag is rejected rather than last-one-wins: a stale
  // shell history line should fail loudly, not silently override.
  const auto set_kv = [&](const std::string& key, std::string value) {
    if (!kv.emplace(key, std::move(value)).second) {
      std::fprintf(stderr, "error: duplicate flag --%s\n", key.c_str());
      std::exit(2);
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Boolean flags go through set_kv too, so repeating one is rejected
    // exactly like a repeated value flag.
    if (arg == "--coordinator") {
      set_kv("coordinator", "");
      opt.coordinator = true;
    } else if (arg == "--coinflip") {
      set_kv("coinflip", "");
      opt.coinflip = true;
    } else if (arg == "--no-verify") {
      set_kv("no-verify", "");
      opt.verify = false;
    } else if (arg == "--stream-ingest") {
      set_kv("stream-ingest", "");
      opt.stream_ingest = true;
    } else if (arg == "--serve") {
      set_kv("serve", "");
      opt.serve = true;
    } else if (arg == "--resume") {
      set_kv("resume", "");
      opt.resume = true;
    } else if (arg.rfind("--", 0) == 0 && arg.find('=') != std::string::npos) {
      const std::size_t eq = arg.find('=');
      set_kv(arg.substr(2, eq - 2), arg.substr(eq + 1));
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      set_kv(arg.substr(2), argv[++i]);
    } else {
      usage(argv[0]);
    }
  }
  // Strict numeric parsing: a typo'd value exits with a clean one-line
  // error instead of strtoull's silent 0 (which would mean k=0 machines or
  // all hardware threads).
  const auto get_u64 = [&](const char* key, std::uint64_t dflt) {
    const auto it = kv.find(key);
    if (it == kv.end()) return dflt;
    char flag[64];
    std::snprintf(flag, sizeof flag, "--%s", key);
    return kmmex::require_u64(flag, it->second.c_str());
  };
  const auto get_positive_u64 = [&](const char* key, std::uint64_t dflt) {
    const auto it = kv.find(key);
    if (it == kv.end()) return dflt;
    char flag[64];
    std::snprintf(flag, sizeof flag, "--%s", key);
    return kmmex::require_positive_u64(flag, it->second.c_str());
  };
  if (kv.count("algo")) opt.algo = kv["algo"];
  if (kv.count("graph")) opt.graph = kv["graph"];
  if (kv.count("input")) opt.input = kv["input"];
  opt.n = get_positive_u64("n", opt.n);
  opt.m = get_u64("m", 0);
  opt.rows = get_positive_u64("rows", opt.rows);
  opt.cols = get_positive_u64("cols", opt.cols);
  opt.lambda = get_u64("lambda", opt.lambda);
  opt.blocks = get_positive_u64("blocks", opt.blocks);
  opt.k = static_cast<MachineId>(get_positive_u64("k", opt.k));
  opt.seed = get_u64("seed", opt.seed);
  opt.bandwidth = get_u64("bandwidth", 0);
  opt.threads = static_cast<unsigned>(get_u64("threads", opt.threads));
  opt.mem_budget = get_positive_u64("mem-budget", 0);
  if (kv.count("metrics-out")) opt.metrics_out = kv["metrics-out"];
  if (kv.count("trace-out")) opt.trace_out = kv["trace-out"];
  opt.fault_seed = get_u64("fault-seed", opt.fault_seed);
  opt.checkpoint_every =
      static_cast<unsigned>(get_positive_u64("checkpoint-every", opt.checkpoint_every));
  opt.queries = get_positive_u64("queries", opt.queries);
  opt.max_inflight = static_cast<unsigned>(get_positive_u64("max-inflight", opt.max_inflight));
  opt.max_queue = get_positive_u64("max-queue", opt.max_queue);
  opt.deadline_ms = get_u64("deadline-ms", opt.deadline_ms);
  if (kv.count("query-log")) opt.query_log = kv["query-log"];
  if (kv.count("fault-profile")) opt.fault_profile = kv["fault-profile"];
  if (FaultProfile::find(opt.fault_profile) == nullptr) {
    std::fprintf(stderr,
                 "error: unknown --fault-profile '%s' (expected "
                 "none|crashes|lossy|corrupt|chaos)\n",
                 opt.fault_profile.c_str());
    std::exit(2);
  }
  if (kv.count("durable-dir")) opt.durable_dir = kv["durable-dir"];
  if (opt.resume && opt.durable_dir.empty()) {
    std::fprintf(stderr, "error: --resume requires --durable-dir\n");
    std::exit(2);
  }
  if (!opt.durable_dir.empty() && !opt.serve) {
    if (opt.algo != "conn" && opt.algo != "mst" && opt.algo != "flood") {
      std::fprintf(stderr,
                   "error: --durable-dir supports --algo conn|mst|flood (the "
                   "checkpointable programs; rule 10 in runtime.hpp), got '%s'\n",
                   opt.algo.c_str());
      std::exit(2);
    }
    if (opt.fault_profile != "none") {
      std::fprintf(stderr,
                   "error: --durable-dir and --fault-profile are separate planes; "
                   "drop one (durable restart models process death, the profile "
                   "models in-process faults)\n");
      std::exit(2);
    }
  }
  return opt;
}

Graph make_graph(const Options& opt) {
  if (!opt.input.empty()) return kmmex::load_edge_list(opt.input);
  Rng rng(split(opt.seed, 0x9a4f));
  const std::size_t m = opt.m != 0 ? opt.m : 3 * opt.n;
  if (opt.graph == "gnm") return gen::gnm(opt.n, m, rng);
  if (opt.graph == "rmat") return gen::rmat(opt.n, m, rng);
  if (opt.graph == "connected") return gen::connected_gnm(opt.n, m, rng);
  if (opt.graph == "path") return gen::path(opt.n);
  if (opt.graph == "cycle") return gen::cycle(opt.n);
  if (opt.graph == "star") return gen::star(opt.n);
  if (opt.graph == "complete") return gen::complete(opt.n);
  if (opt.graph == "grid") return gen::grid(opt.rows, opt.cols);
  if (opt.graph == "communities") {
    return gen::planted_communities(opt.n, opt.blocks, 0.05, opt.blocks / 2, rng);
  }
  if (opt.graph == "pa") return gen::preferential_attachment(opt.n, 3, rng);
  if (opt.graph == "dumbbell") return gen::dumbbell(opt.n, opt.lambda, rng);
  if (opt.graph == "cliquechain") return gen::clique_chain(opt.n / 16, 16);
  std::fprintf(stderr, "unknown graph family '%s'\n", opt.graph.c_str());
  std::exit(2);
}

void print_stats(const char* what, const RunStats& stats) {
  std::printf("%-12s rounds=%-10llu messages=%-10llu bits=%llu\n", what,
              static_cast<unsigned long long>(stats.rounds),
              static_cast<unsigned long long>(stats.messages),
              static_cast<unsigned long long>(stats.bits));
}

void print_fault_stats(const FaultPlane* plane) {
  if (plane == nullptr) return;
  const FaultStats s = plane->stats();
  std::printf("faults: crashes=%llu restores=%llu replayed=%llu checkpoints=%llu\n",
              static_cast<unsigned long long>(s.crashes),
              static_cast<unsigned long long>(s.restores),
              static_cast<unsigned long long>(s.replayed_steps),
              static_cast<unsigned long long>(s.checkpoints));
  std::printf("faults: drops=%llu dups=%llu reorders=%llu corruptions=%llu "
              "stall_rounds=%llu overhead_rounds=%llu\n",
              static_cast<unsigned long long>(s.drops),
              static_cast<unsigned long long>(s.duplicates),
              static_cast<unsigned long long>(s.reorders),
              static_cast<unsigned long long>(s.corruptions),
              static_cast<unsigned long long>(s.stall_rounds),
              static_cast<unsigned long long>(s.overhead_rounds));
}

/// Identity of (graph, algorithm, merge rules, cluster shape, seed) stamped
/// into every durable frame: a --resume against a directory written under
/// different flags or another --input is rejected as kFingerprintMismatch
/// instead of restoring alien state. `g` is the global graph when one exists; its edge
/// list (weights included) is folded in, since n and m alone cannot tell
/// two input files apart. The algorithm is folded in because conn and mst
/// frames share a state version, and --coordinator and --coinflip because
/// they change which proxy holds a record and how DRR attaches children,
/// so a frame written under one setting is no state of a run under the other.
std::uint64_t durable_fingerprint(const Options& opt, const Graph* g, std::size_t n,
                                  std::size_t m) {
  std::uint64_t fp = split(0x6475'7261'626cULL, n);
  fp = split(fp, m);
  fp = split(fp, opt.k);
  fp = split(fp, opt.seed);
  fp = split(fp, opt.bandwidth);
  fp = split(fp, opt.stream_ingest ? 1 : 0);
  fp = split(fp, opt.coordinator ? 1 : 0);
  fp = split(fp, opt.coinflip ? 1 : 0);
  for (const char c : opt.graph) fp = split(fp, static_cast<unsigned char>(c));
  for (const char c : opt.algo) fp = split(fp, static_cast<unsigned char>(c));
  if (g != nullptr) fp = split(fp, edge_list_fingerprint(g->edges()));
  return fp;
}

/// The --durable-dir plane, shared by conn, mst and flood: an
/// empty-schedule FaultPlane that tees every cadence checkpoint into a
/// DurableStore, with the newest intact generation armed on it under
/// --resume.
struct DurableRun {
  explicit DurableRun(const Options& opt)
      : quiet(opt.fault_seed),
        plane(quiet, FaultPlaneConfig{.checkpoint_every = opt.checkpoint_every}) {}

  FaultSchedule quiet;
  FaultPlane plane;
  std::optional<DurableStore> store;
  std::optional<RecoveryManager::RecoveredState> recovered;
};

/// Open DIR for a program whose frames carry `state_version`. False (after
/// a diagnostic) on an unusable directory or, with --resume, when no
/// generation is restorable for this run.
bool open_durable(const Options& opt, DurableRun& run, std::uint64_t state_version,
                  std::uint64_t fingerprint) {
  std::string dir_error;
  if (!ensure_directory(opt.durable_dir, &dir_error)) {
    std::fprintf(stderr, "error: --durable-dir: %s\n", dir_error.c_str());
    return false;
  }
  run.store.emplace(
      DurableStoreConfig{opt.durable_dir, /*fsync=*/true, /*keep_generations=*/3, fingerprint});
  run.plane.set_durable_store(&*run.store);
  if (!opt.resume) return true;
  auto rec = RecoveryManager::recover(opt.durable_dir, {state_version, fingerprint, opt.k});
  if (!rec.ok()) {
    std::fprintf(stderr, "error: --resume: %s: %s\n", durable_error_name(rec.error().code),
                 rec.error().message.c_str());
    return false;
  }
  run.recovered = std::move(rec).value();
  for (const auto& rej : run.recovered->rejected) {
    std::fprintf(stderr, "resume: skipped generation %llu: %s (%s)\n",
                 static_cast<unsigned long long>(rej.ordinal),
                 durable_error_name(rej.error.code), rej.error.message.c_str());
  }
  std::printf("resume: superstep %llu from %s\n",
              static_cast<unsigned long long>(run.recovered->frame.ordinal),
              run.recovered->path.c_str());
  run.plane.arm_resume(&run.recovered->frame);
  return true;
}

void print_durable_stats(const Options& opt, const DurableRun* run) {
  if (run == nullptr) return;
  std::printf("durable: commits=%llu bytes=%llu resumes=%llu dir=%s\n",
              static_cast<unsigned long long>(run->store->stats().commits),
              static_cast<unsigned long long>(run->store->stats().bytes_written),
              static_cast<unsigned long long>(run->plane.stats().resumes),
              opt.durable_dir.c_str());
}

/// The --stream-ingest build: per-machine shards straight from the chunked
/// generator stream. No global edge list or Graph ever exists, so there is
/// no sequential reference to --verify against. Exits 2 on flags it cannot
/// honor and 1 when ingest fails.
DistributedGraph stream_graph(const Options& opt) {
  const std::size_t n = opt.n;
  const std::size_t m = opt.m != 0 ? opt.m : 3 * opt.n;
  if (!opt.input.empty()) {
    std::fprintf(stderr,
                 "error: --stream-ingest generates the graph shard-direct; "
                 "--input is incompatible\n");
    std::exit(2);
  }
  if (opt.graph != "gnm" && opt.graph != "rmat") {
    std::fprintf(stderr,
                 "error: --stream-ingest supports --graph gnm|rmat (the chunked "
                 "streaming generators), got '%s'\n",
                 opt.graph.c_str());
    std::exit(2);
  }
  kmmex::require_machines(opt.k, n, "--k");

  gen::ParGenConfig gcfg;
  gcfg.seed = split(opt.seed, 0x9a4f);
  gcfg.threads = opt.threads;
  // MST needs weighted edges; the PRF weight stream keys off the canonical
  // edge index, so streamed weights are chunk- and thread-invariant.
  if (opt.algo == "mst") gcfg.weight_limit = 1u << 30;
  const gen::EdgeStream stream = opt.graph == "gnm"
                                     ? gen::gnm_stream_source(n, m, gcfg)
                                     : gen::rmat_stream_source(n, m, gcfg);

  StreamIngestOptions iopts;
  iopts.budget.bytes_per_machine = opt.mem_budget;
  iopts.threads = opt.threads;
  auto ingest = stream_ingest(
      n, VertexPartition::random(n, opt.k, split(opt.seed, 0x9a97)), stream, iopts);
  if (!ingest.ok()) {
    std::fprintf(stderr, "error: %s\n", ingest.error().message.c_str());
    std::exit(1);
  }
  return std::move(ingest).value();
}

/// The --serve path: one long-lived DistributedGraph, a mixed concurrent
/// query workload cycling through every QueryKind, structured outcomes only.
/// Query #1 is a deliberately over-budget probe (1 ms deadline, two-superstep
/// cap) demonstrating that a blown budget is a clean error, not an abort.
int run_serve(const Options& opt, const DistributedGraph& dg) {
  const std::size_t n = dg.num_vertices();

  ServiceConfig scfg;
  scfg.k = opt.k;
  scfg.bandwidth_bits = opt.bandwidth;
  scfg.workers = opt.max_inflight;
  scfg.max_queue = opt.max_queue;
  scfg.query_threads = opt.threads;
  scfg.default_budget.deadline_ms = opt.deadline_ms;
  if (opt.fault_profile != "none") {
    // Chaos mode: the profile's link-fault rates ride along unchanged; its
    // crash stream is replaced by the service's one-kill-draw-per-attempt
    // model (kill_prob), which is what lets retries converge.
    const FaultProfile profile = *FaultProfile::find(opt.fault_profile);
    scfg.chaos.profile = profile;
    scfg.chaos.kill_prob = profile.crash_prob > 0.0 ? 0.3 : 0.0;
    scfg.chaos.seed = opt.fault_seed;
  }

  // Durable query journal: every admitted query is logged at submission and
  // completion so a killed serve process can be relaunched with --resume and
  // re-run ONLY the queries that were in flight, under their original ids.
  std::unique_ptr<QueryJournal> journal;
  QueryJournal::Replay replayed;
  if (!opt.durable_dir.empty()) {
    std::string dir_error;
    if (!ensure_directory(opt.durable_dir, &dir_error)) {
      std::fprintf(stderr, "error: --durable-dir: %s\n", dir_error.c_str());
      return 1;
    }
    const std::string journal_path = opt.durable_dir + "/queries.log";
    if (opt.resume) {
      auto rep = QueryJournal::replay(journal_path);
      if (!rep.ok()) {
        std::fprintf(stderr, "error: --resume: %s: %s\n",
                     durable_error_name(rep.error().code), rep.error().message.c_str());
        return 1;
      }
      replayed = std::move(rep).value();
      scfg.first_query_id = replayed.max_id + 1;
      std::printf("resume: journal %s: %llu submitted, %llu completed, %zu pending, "
                  "%llu torn\n",
                  journal_path.c_str(), static_cast<unsigned long long>(replayed.submitted),
                  static_cast<unsigned long long>(replayed.completed),
                  replayed.pending.size(),
                  static_cast<unsigned long long>(replayed.torn_records));
    }
    auto opened = QueryJournal::open(journal_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "error: --durable-dir: %s: %s\n",
                   durable_error_name(opened.error().code), opened.error().message.c_str());
      return 1;
    }
    journal = std::move(opened).value();
    scfg.journal = journal.get();
  }

  std::printf("serve: graph=%s n=%zu m=%zu | k=%u workers=%u queue<=%zu deadline=%llums\n",
              opt.graph.c_str(), n, dg.num_edges(), opt.k, scfg.workers, scfg.max_queue,
              static_cast<unsigned long long>(opt.deadline_ms));
  if (opt.fault_profile != "none") {
    std::printf("serve: chaos profile=%s kill_prob=%.2f seed=%llu\n",
                opt.fault_profile.c_str(), scfg.chaos.kill_prob,
                static_cast<unsigned long long>(opt.fault_seed));
  }

  ClusterService service(dg, scfg);

  // Re-run the journal's pending set first, idempotent by original id.
  std::vector<std::shared_ptr<QueryTicket>> resumed;
  for (const auto& [id, request] : replayed.pending) {
    resumed.push_back(service.submit(request, id));
  }

  // Operands for the verifier kinds, drawn from the graph itself so they
  // validate (an edgeless graph degrades to structured kInvalidArgument):
  // the first 8 edges {u, v}, u < v, in ascending (u, v) order.
  std::vector<std::pair<Vertex, Vertex>> edge_operand;
  for (Vertex u = 0; u < n && edge_operand.size() < 8; ++u) {
    for (const HalfEdge he : dg.neighbors(u)) {
      if (he.to > u && edge_operand.size() < 8) edge_operand.emplace_back(u, he.to);
    }
  }
  const auto [ex, ey] = edge_operand.empty() ? std::pair<Vertex, Vertex>{0, 0}
                                             : edge_operand.front();

  std::vector<std::shared_ptr<QueryTicket>> tickets;
  tickets.reserve(opt.queries);
  for (std::size_t q = 0; q < opt.queries; ++q) {
    QueryRequest req;
    req.seed = split(opt.seed, 0xfeed + q);
    if (q == 0) {
      req.kind = QueryKind::kMinCut;
      req.budget.deadline_ms = 1;
      req.budget.max_supersteps = 2;
    } else {
      req.kind = static_cast<QueryKind>(q % kQueryKindCount);
      req.s = 0;
      req.t = static_cast<Vertex>(n - 1);
      req.x = ex;
      req.y = ey;
      if (req.kind == QueryKind::kVerifySpanningSubgraph ||
          req.kind == QueryKind::kVerifyCut || req.kind == QueryKind::kVerifyStCut) {
        req.edges = edge_operand;
      }
    }
    tickets.push_back(service.submit(std::move(req)));
  }
  service.drain();

  for (const QueryLogEntry& e : service.log()) {
    if (e.ok) {
      std::printf("query %3llu %-26s ok    value=%-10llu verdict=%s attempts=%u "
                  "supersteps=%llu rounds=%llu bits=%llu wall=%lluus\n",
                  static_cast<unsigned long long>(e.id), query_kind_name(e.kind),
                  static_cast<unsigned long long>(e.value), e.verdict ? "yes" : "no",
                  e.attempts, static_cast<unsigned long long>(e.supersteps),
                  static_cast<unsigned long long>(e.rounds),
                  static_cast<unsigned long long>(e.bits),
                  static_cast<unsigned long long>(e.wall_us));
    } else {
      std::printf("query %3llu %-26s ERROR %s at superstep %llu after %u attempt(s)\n",
                  static_cast<unsigned long long>(e.id), query_kind_name(e.kind),
                  query_error_name(e.error), static_cast<unsigned long long>(e.supersteps),
                  e.attempts);
    }
  }
  const ServiceStats s = service.stats();
  std::printf("serve: submitted=%llu completed=%llu failed=%llu rejected=%llu "
              "attempts=%llu kills=%llu retries=%llu\n",
              static_cast<unsigned long long>(s.submitted),
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.rejected_overload),
              static_cast<unsigned long long>(s.attempts),
              static_cast<unsigned long long>(s.kills),
              static_cast<unsigned long long>(s.retries));
  if (!opt.query_log.empty()) {
    if (service.write_query_log_json(opt.query_log)) {
      std::fprintf(stderr, "query log -> %s\n", opt.query_log.c_str());
    } else {
      std::fprintf(stderr, "cannot write query log to '%s'\n", opt.query_log.c_str());
      return 1;
    }
  }
  // Every outcome above is structured — a crash/abort is the only failure
  // mode this mode can't report, and reaching here means there was none.
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // --stream-ingest changes only how dg is built. Without it the global
  // Graph g backs dg and is the sequential reference --verify checks
  // against; with it no g exists.
  std::optional<Graph> g;
  std::optional<DistributedGraph> dg;
  if (opt.stream_ingest) {
    dg.emplace(stream_graph(opt));
  } else {
    g = make_graph(opt);
    kmmex::require_machines(opt.k, g->num_vertices(), "--k");
    if (opt.algo == "mst") {
      Rng wrng(split(opt.seed, 0x3e16));
      g = with_unique_weights(with_random_weights(*g, wrng, 1'000'000));
    }
    dg.emplace(*g, VertexPartition::random(g->num_vertices(), opt.k, split(opt.seed, 0x9a97)));
  }
  if (opt.serve) return run_serve(opt, *dg);
  const std::size_t n = dg->num_vertices();
  std::printf("graph=%s n=%zu m=%zu%s | k=%u seed=%llu\n", opt.graph.c_str(), n,
              dg->num_edges(), g ? "" : " (stream-ingest)", opt.k,
              static_cast<unsigned long long>(opt.seed));
  if (!g) {
    std::printf("max shard bytes=%zu budget=%llu/machine\n", dg->max_shard_bytes(),
                static_cast<unsigned long long>(opt.mem_budget));
  }

  ClusterConfig ccfg = ClusterConfig::for_graph(n, opt.k);
  if (opt.bandwidth != 0) ccfg.bandwidth_bits = opt.bandwidth;
  Cluster cluster(ccfg);
  std::printf("bandwidth=%llu bits/link/round\n",
              static_cast<unsigned long long>(cluster.bandwidth_bits()));

  // The sinks live in main's scope, outliving every Runtime of the run;
  // the files are written when obs goes out of scope (any return path).
  kmmex::ObsScope obs(opt.metrics_out.empty() ? nullptr : opt.metrics_out.c_str(),
                      opt.trace_out.empty() ? nullptr : opt.trace_out.c_str(),
                      opt.algo.c_str());

  const RuntimeConfig runtime{opt.threads, obs.sink()};
  BoruvkaConfig acfg{runtime};
  acfg.seed = split(opt.seed, 0xa190);
  acfg.single_coordinator = opt.coordinator;
  acfg.merge_rule = opt.coinflip ? MergeRule::kCoinFlip : MergeRule::kDrr;
  if (opt.threads != 1) {
    std::printf("runtime threads: %u requested -> %u effective\n", opt.threads,
                resolve_threads(opt.threads, opt.k));
  }

  // Fault plane: seeded schedule + recovery machinery for the algorithms
  // that recover (conn, mst and flood: checkpointable programs that roll a
  // crashed machine back and replay it).
  // Corruption profiles are meant to be *caught*: run them with --verify.
  std::optional<FaultSchedule> fault_schedule;
  std::optional<FaultPlane> fault_plane;
  if (opt.fault_profile != "none") {
    if (opt.algo != "conn" && opt.algo != "mst" && opt.algo != "flood") {
      std::fprintf(stderr,
                   "error: --fault-profile supports --algo conn|mst|flood (the "
                   "algorithms that recover), got '%s'\n",
                   opt.algo.c_str());
      return 2;
    }
    fault_schedule.emplace(opt.fault_seed, *FaultProfile::find(opt.fault_profile));
    FaultPlaneConfig fpc;
    fpc.checkpoint_every = opt.checkpoint_every;
    fault_plane.emplace(*fault_schedule, fpc);
    acfg.fault = &*fault_plane;
    std::printf("fault profile=%s seed=%llu checkpoint-every=%u\n",
                opt.fault_profile.c_str(),
                static_cast<unsigned long long>(opt.fault_seed), opt.checkpoint_every);
  }
  // Durable plane (parse() admits it for conn|mst|flood only, and never
  // together with --fault-profile).
  std::optional<DurableRun> durable;
  if (!opt.durable_dir.empty()) {
    durable.emplace(opt);
    const std::uint64_t version =
        opt.algo == "flood" ? FloodProgram::kStateVersion : BoruvkaEngine::kStateVersion;
    const std::size_t m = g ? g->num_edges() : opt.m != 0 ? opt.m : 3 * opt.n;
    if (!open_durable(opt, *durable, version,
                      durable_fingerprint(opt, g ? &*g : nullptr, n, m))) {
      return 1;
    }
    acfg.fault = &durable->plane;
  }
  const DurableRun* durable_run = durable ? &*durable : nullptr;

  // Checks against the sequential reference run only when g exists.
  const bool verify = opt.verify && g.has_value();
  if (opt.algo == "leader") {
    const auto res = elect_leader(cluster, LeaderElectionConfig{runtime, acfg.seed});
    std::printf("leader: machine %u\n", res.leader);
    print_stats("leader", res.stats);
  } else if (opt.algo == "conn") {
    const auto res = connected_components(cluster, *dg, acfg);
    std::printf("components=%llu phases=%zu forest_edges=%zu converged=%s\n",
                static_cast<unsigned long long>(res.num_components), res.phases.size(),
                res.forest_edges().size(), res.converged ? "yes" : "no");
    print_stats("conn", res.stats);
    print_fault_stats(fault_plane ? &*fault_plane : nullptr);
    print_durable_stats(opt, durable_run);
    if (verify) {
      const bool ok = canonical_labels(res.labels) == ref::component_labels(*g);
      std::printf("verify: %s\n", ok ? "ok" : "MISMATCH");
      return ok ? 0 : 1;
    }
  } else if (opt.algo == "mst") {
    const auto res = minimum_spanning_forest(cluster, *dg, acfg);
    Weight total = 0;
    for (const auto& e : res.mst_edges()) total += e.w;
    std::printf("mst_edges=%zu total_weight=%llu phases=%zu\n", res.mst_edges().size(),
                static_cast<unsigned long long>(total), res.phases.size());
    print_stats("mst", res.stats);
    print_fault_stats(fault_plane ? &*fault_plane : nullptr);
    print_durable_stats(opt, durable_run);
    if (verify) {
      const bool ok = total == ref::msf_weight(*g);
      std::printf("verify: %s\n", ok ? "ok" : "MISMATCH");
      return ok ? 0 : 1;
    }
  } else if (opt.algo == "flood") {
    FloodingConfig fcfg{runtime};
    fcfg.fault = acfg.fault;
    const FloodingResult res = flooding_connectivity(cluster, *dg, fcfg);
    std::printf("components=%llu supersteps=%llu converged=%s\n",
                static_cast<unsigned long long>(res.num_components),
                static_cast<unsigned long long>(res.supersteps), res.converged ? "yes" : "no");
    print_stats("flood", res.stats);
    print_durable_stats(opt, durable_run);
    print_fault_stats(fault_plane ? &*fault_plane : nullptr);
    const std::vector<Label>& labels = res.labels;
    if (verify) {
      // Flooding's contract is exact: labels[v] == smallest vertex id in
      // v's component, so the referee compares raw labels (canonicalizing
      // would erase a uniformly-propagated tampered label). Out-of-range
      // labels are a mismatch by definition — range-check before use.
      const auto expect = ref::component_labels(*g);
      bool ok = labels.size() == expect.size();
      for (std::size_t v = 0; ok && v < expect.size(); ++v) {
        ok = labels[v] < labels.size() && labels[v] == expect[v];
      }
      std::printf("verify: %s\n", ok ? "ok" : "MISMATCH");
      return ok ? 0 : 1;
    }
  } else if (opt.algo == "referee") {
    const auto res = referee_connectivity(cluster, *dg, RefereeConfig{runtime});
    std::printf("components=%llu\n", static_cast<unsigned long long>(res.num_components));
    print_stats("referee", res.stats);
  } else if (opt.algo == "mincut") {
    MinCutConfig mcfg;
    mcfg.seed = acfg.seed;
    mcfg.connectivity = BoruvkaConfig{runtime};
    const auto res = approximate_min_cut(cluster, *dg, mcfg);
    std::printf("estimate=%llu disconnect_level=%d connected=%s\n",
                static_cast<unsigned long long>(res.estimate), res.disconnect_level,
                res.graph_connected ? "yes" : "no");
    print_stats("mincut", res.stats);
    if (verify && n <= 512) {
      std::printf("exact (Stoer-Wagner): %llu\n",
                  static_cast<unsigned long long>(ref::stoer_wagner_min_cut(*g)));
    }
  } else if (opt.algo == "2ec") {
    const auto res = two_edge_connectivity(cluster, *dg, acfg);
    std::printf("two_edge_connected=%s certificate_edges=%zu\n",
                res.two_edge_connected ? "yes" : "no", res.certificate_edges);
    print_stats("2ec", res.stats);
    if (verify) {
      const bool ok = res.two_edge_connected == ref::is_two_edge_connected(*g);
      std::printf("verify: %s\n", ok ? "ok" : "MISMATCH");
      return ok ? 0 : 1;
    }
  } else if (opt.algo == "bipartite") {
    const auto res = verify_bipartiteness(cluster, *dg, acfg);
    std::printf("bipartite=%s\n", res.ok ? "yes" : "no");
    print_stats("bipartite", res.stats);
    if (verify) {
      const bool ok = res.ok == ref::is_bipartite(*g);
      std::printf("verify: %s\n", ok ? "ok" : "MISMATCH");
      return ok ? 0 : 1;
    }
  } else {
    usage(argv[0]);
  }
  if (opt.verify && !g) {
    std::printf("verify: skipped (--stream-ingest never materializes the global graph)\n");
  }
  return 0;
}

// csrplus command-line tool.
//
// Operates on SNAP-style edge lists (or this library's binary graph format)
// without writing any code:
//
//   csrplus stats <graph>
//       Print node/edge counts and degree statistics.
//
//   csrplus stats
//       (no graph) Print the observability registry snapshot as JSON — the
//       same document `--stats-out=` writes. Mostly useful for inspecting
//       metric names, units and help strings; see docs/observability.md.
//
//   csrplus convert <graph.txt> <graph.csrg>
//       Convert a text edge list into the fast binary format.
//
//   csrplus query <graph> <node> [<node> ...]
//       Multi-source CoSimRank: print the top-k most similar nodes for each
//       query (after a one-off precomputation; --method= picks the engine).
//
//   csrplus serve <graph>
//       Concurrent serving stress demo: spin up a QueryService over the
//       engine and hammer it from --clients threads, each issuing
//       --requests random multi-source requests of --qsize queries. Prints
//       throughput, latency percentiles and admission/deadline outcomes.
//
//   csrplus serve <graph> --listen=HOST:PORT
//       Real socket server: expose the QueryService over TCP using the
//       length-prefixed binary protocol (docs/wire-protocol.md). Runs until
//       SIGINT/SIGTERM, then drains connections and shuts down cleanly.
//
//   csrplus serve --graphs=NAME=PATH[,NAME=PATH...] --listen=HOST:PORT
//       Multi-graph socket server: one service::EngineRegistry tenant per
//       named graph, each with its own engine, column-cache slice and
//       admission budget. Clients pick a tenant with --graph=NAME (wire v3
//       graph_id); requests without a graph go to the first-listed tenant.
//
//   csrplus client --server=HOST:PORT [--graph=NAME] [<node> ...]
//       Talk to a running socket server. With query nodes, print the top-k
//       most similar nodes per query in exactly the `csrplus query` output
//       format (responses are bit-identical to an in-process query by the
//       column-independence contract). With no nodes, ping the server and
//       print "pong". --graph targets one tenant of a --graphs server.
//
//   csrplus pair <graph> <a> <b>
//       Single-pair CoSimRank score.
//
//   csrplus precompute <graph> <out.cspc>
//       Run the CSR+ precomputation once and persist the full factor state
//       (U, Sigma, V, P, Z + parameters + graph fingerprint) as a versioned
//       artifact. Later `query --artifact=` calls skip the SVD entirely.
//
//   csrplus artifact-info <file.cspc>
//       Print an artifact's header (version, rank, n, c, eps, fingerprint)
//       and verify every section checksum. Exits nonzero if the file is
//       corrupt, truncated, or from a newer format version.
//
// Common flags (before the subcommand arguments):
//   --rank=R        target low rank (default 16)
//   --damping=C     damping factor (default 0.6)
//   --topk=K        results per query (default 10)
//   --threads=N     kernel thread count, 0 = ambient default (default 0)
//   --method=M      query engine: csr+ (default), csr-ni, csr-it, csr-rls,
//                   cosimmate, rp-cosim, dynamic
//   --precision=T   (query/serve/pair, csr+ only) serving tier: f64 (default,
//                   exact doubles) or f32 (factors quantised to float, SIMD
//                   f32 kernels; bounded accuracy loss — see docs)
//   --symmetrize    add the reverse of every edge when loading text input
//   --artifact=P    (query/serve, csr+ only) warm-start from a precompute
//                   artifact; its graph fingerprint must match the graph
//   --clients=N     (serve) concurrent client threads (default 8)
//   --requests=R    (serve) requests per client (default 32)
//   --qsize=Q       (serve) query nodes per request (default 8)
//   --deadline-ms=D (serve) per-request deadline, 0 = none (default 0)
//   --quality=Q     (serve/client) request quality class: exact (default),
//                   approximate, or best-effort (docs/serving-tiers.md)
//   --shed-depth=N  (serve) enable the approximate RP-CoSim tier and shed
//                   best-effort traffic to it when the queue depth reaches
//                   N at batch assembly; 0 = tiering off (default 0)
//   --shed-resume=N (serve) hysteresis: stop shedding once the observed
//                   depth is back at or below N (default 1)
//   --shed-headroom-ms=D  (serve) also shed best-effort requests whose
//                   remaining deadline is below D ms; 0 = off (default 0)
//   --approx-samples=D    (serve) RP-CoSim sketch width d for the
//                   approximate tier (default 32)
//   --no-coalesce   (serve) disable micro-batching (serialized A/B arm)
//   --cache-mb=M    (serve) column-cache capacity in MiB, 0 = off
//                   (default 64)
//   --no-cache      (serve) disable the column cache entirely
//   --listen=H:P    (serve) run a real socket server on H:P instead of the
//                   in-process stress demo (port 0 = ephemeral)
//   --net-workers=N (serve --listen) epoll worker threads (default 2)
//   --graphs=SPEC   (serve --listen) multi-graph tenancy: NAME=PATH pairs,
//                   comma separated; --cache-mb is split evenly across
//                   tenants and --tenant-budget-mb applies to each
//   --tenant-budget-mb=M  (serve) per-tenant admission byte budget for
//                   in-flight requests; 0 = unlimited (default 0)
//   --server=H:P    (client) server address to connect to
//   --graph=NAME    (client) target tenant on a --graphs server; empty =
//                   the server's default tenant
//   --stats-out=P   after the command finishes, write the stats registry
//                   snapshot (counters/gauges/histograms) to P as JSON
//   --trace-out=P   enable span tracing for the whole run and write a Chrome
//                   trace (load in chrome://tracing or Perfetto) to P
//   --version       print the library version and exit
//
// Graphs ending in ".csrg" are read as binary, anything else as a SNAP text
// edge list.

#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "csrplus.h"

namespace {

using namespace csrplus;
using linalg::Index;

struct CliOptions {
  Index rank = 16;
  double damping = 0.6;
  Index topk = 10;
  int threads = 0;  // kernel thread count; 0 = ambient default
  bool symmetrize = false;
  eval::Method method = eval::Method::kCsrPlus;
  core::Precision precision = core::Precision::kF64;  // csr+ serving tier
  std::string artifact;   // warm-start path for `query` / `serve`
  // How --artifact is brought into memory: checksummed heap load (verify)
  // or zero-copy mmap with lazy section verification (mmap).
  core::LoadMode artifact_mode = core::LoadMode::kHeapVerified;
  std::string stats_out;  // write SnapshotJson here after the command
  std::string trace_out;  // enable tracing; write DumpTraceJson here
  int clients = 8;        // serve: concurrent client threads
  int requests = 32;      // serve: requests per client
  Index qsize = 8;        // serve: query nodes per request
  int deadline_ms = 0;    // serve: per-request deadline (0 = none)
  // Serving-tier knobs (docs/serving-tiers.md).
  service::QualityClass quality = service::QualityClass::kExact;
  int shed_depth = 0;        // serve: shed trigger depth; 0 = tiering off
  int shed_resume = 1;       // serve: shed resume depth (hysteresis)
  int shed_headroom_ms = 0;  // serve: deadline-headroom shed threshold
  Index approx_samples = 32; // serve: RP-CoSim tier sketch width d
  bool no_coalesce = false;  // serve: disable micro-batching
  int cache_mb = 64;         // serve: column-cache capacity (MiB); 0 = off
  bool no_cache = false;     // serve: disable the column cache
  std::string listen;        // serve: socket mode listen address
  int net_workers = 2;       // serve --listen: epoll worker threads
  std::string graphs;        // serve: multi-graph NAME=PATH,... spec
  int tenant_budget_mb = 0;  // serve: per-tenant admission budget (MiB)
  std::string server;        // client: server address
  std::string graph;         // client: target tenant name (wire graph_id)
  bool show_version = false;
  std::vector<std::string> positional;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: csrplus [--rank=R] [--damping=C] [--topk=K] "
               "[--threads=N] [--method=M] [--symmetrize]\n"
               "               [--precision=f64|f32] [--artifact=P] "
               "[--artifact-mode=verify|mmap]\n"
               "               [--stats-out=P] [--trace-out=P] "
               "[--version] <command> ...\n"
               "commands:\n"
               "  stats <graph>                  graph statistics\n"
               "  stats                          observability snapshot JSON\n"
               "  convert <in.txt> <out.csrg>    edge list -> binary\n"
               "  query <graph> <node> [...]     top-k similar per query\n"
               "  pair <graph> <a> <b>           single-pair score\n"
               "  precompute <graph> <out.cspc>  persist CSR+ factors\n"
               "  artifact-info <file.cspc>      inspect/verify an artifact\n"
               "  serve <graph>                  concurrent serving stress "
               "demo\n"
               "                                 [--clients=N] [--requests=R] "
               "[--qsize=Q]\n"
               "                                 [--deadline-ms=D] "
               "[--no-coalesce]\n"
               "                                 [--cache-mb=M] "
               "[--no-cache]\n"
               "                                 [--quality=Q] "
               "[--shed-depth=N] [--shed-resume=N]\n"
               "                                 [--shed-headroom-ms=D] "
               "[--approx-samples=D]\n"
               "                                 [--listen=H:P] "
               "[--net-workers=N]\n"
               "                                 [--tenant-budget-mb=M]\n"
               "  serve --graphs=N=P[,N=P..] --listen=H:P\n"
               "                                 multi-graph socket server "
               "(one tenant per name)\n"
               "  client --server=H:P [<node>..]  query (or ping) a socket "
               "server [--quality=Q]\n"
               "                                 [--graph=NAME]\n");
}

bool ParseMethod(const std::string& name, eval::Method* method) {
  if (name == "csr+" || name == "csrplus") {
    *method = eval::Method::kCsrPlus;
  } else if (name == "csr-ni") {
    *method = eval::Method::kCsrNi;
  } else if (name == "csr-it") {
    *method = eval::Method::kCsrIt;
  } else if (name == "csr-rls") {
    *method = eval::Method::kCsrRls;
  } else if (name == "cosimmate") {
    *method = eval::Method::kCoSimMate;
  } else if (name == "rp-cosim") {
    *method = eval::Method::kRpCoSim;
  } else if (name == "dynamic" || name == "csr+dyn") {
    *method = eval::Method::kDynamic;
  } else {
    return false;
  }
  return true;
}

bool ParseQuality(const std::string& name, service::QualityClass* quality) {
  if (name == "exact") {
    *quality = service::QualityClass::kExact;
  } else if (name == "approximate" || name == "approx") {
    *quality = service::QualityClass::kApproximate;
  } else if (name == "best-effort") {
    *quality = service::QualityClass::kBestEffort;
  } else {
    return false;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--rank=")) {
      options->rank = std::atoll(arg.c_str() + 7);
    } else if (StartsWith(arg, "--damping=")) {
      options->damping = std::atof(arg.c_str() + 10);
    } else if (StartsWith(arg, "--topk=")) {
      options->topk = std::atoll(arg.c_str() + 7);
    } else if (StartsWith(arg, "--threads=")) {
      options->threads = std::atoi(arg.c_str() + 10);
    } else if (arg == "--symmetrize") {
      options->symmetrize = true;
    } else if (StartsWith(arg, "--method=")) {
      if (!ParseMethod(arg.substr(9), &options->method)) {
        std::fprintf(stderr, "unknown method: %s\n", arg.c_str() + 9);
        return false;
      }
    } else if (StartsWith(arg, "--precision=")) {
      const std::string tier = arg.substr(12);
      if (tier == "f64") {
        options->precision = core::Precision::kF64;
      } else if (tier == "f32") {
        options->precision = core::Precision::kF32;
      } else {
        std::fprintf(stderr, "unknown precision: %s (want f64 or f32)\n",
                     tier.c_str());
        return false;
      }
    } else if (StartsWith(arg, "--clients=")) {
      options->clients = std::atoi(arg.c_str() + 10);
    } else if (StartsWith(arg, "--requests=")) {
      options->requests = std::atoi(arg.c_str() + 11);
    } else if (StartsWith(arg, "--qsize=")) {
      options->qsize = std::atoll(arg.c_str() + 8);
    } else if (StartsWith(arg, "--deadline-ms=")) {
      options->deadline_ms = std::atoi(arg.c_str() + 14);
    } else if (StartsWith(arg, "--quality=")) {
      if (!ParseQuality(arg.substr(10), &options->quality)) {
        std::fprintf(stderr,
                     "unknown quality: %s (want exact, approximate or "
                     "best-effort)\n",
                     arg.c_str() + 10);
        return false;
      }
    } else if (StartsWith(arg, "--shed-depth=")) {
      options->shed_depth = std::atoi(arg.c_str() + 13);
    } else if (StartsWith(arg, "--shed-resume=")) {
      options->shed_resume = std::atoi(arg.c_str() + 14);
    } else if (StartsWith(arg, "--shed-headroom-ms=")) {
      options->shed_headroom_ms = std::atoi(arg.c_str() + 19);
    } else if (StartsWith(arg, "--approx-samples=")) {
      options->approx_samples = std::atoll(arg.c_str() + 17);
    } else if (arg == "--no-coalesce") {
      options->no_coalesce = true;
    } else if (StartsWith(arg, "--cache-mb=")) {
      options->cache_mb = std::atoi(arg.c_str() + 11);
    } else if (arg == "--no-cache") {
      options->no_cache = true;
    } else if (StartsWith(arg, "--listen=")) {
      options->listen = arg.substr(9);
    } else if (StartsWith(arg, "--net-workers=")) {
      options->net_workers = std::atoi(arg.c_str() + 14);
    } else if (StartsWith(arg, "--graphs=")) {
      options->graphs = arg.substr(9);
    } else if (StartsWith(arg, "--tenant-budget-mb=")) {
      options->tenant_budget_mb = std::atoi(arg.c_str() + 19);
    } else if (StartsWith(arg, "--server=")) {
      options->server = arg.substr(9);
    } else if (StartsWith(arg, "--graph=")) {
      options->graph = arg.substr(8);
    } else if (arg == "--version") {
      options->show_version = true;
    } else if (StartsWith(arg, "--artifact=")) {
      options->artifact = arg.substr(11);
    } else if (StartsWith(arg, "--artifact-mode=")) {
      const std::string mode = arg.substr(16);
      if (mode == "verify" || mode == "heap") {
        options->artifact_mode = core::LoadMode::kHeapVerified;
      } else if (mode == "mmap") {
        options->artifact_mode = core::LoadMode::kMapped;
      } else {
        std::fprintf(stderr,
                     "unknown artifact mode: %s (want verify or mmap)\n",
                     mode.c_str());
        return false;
      }
    } else if (StartsWith(arg, "--stats-out=")) {
      options->stats_out = arg.substr(12);
    } else if (StartsWith(arg, "--trace-out=")) {
      options->trace_out = arg.substr(12);
    } else if (StartsWith(arg, "--")) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    } else {
      options->positional.push_back(arg);
    }
  }
  return options->show_version || !options->positional.empty();
}

/// Loaded graph plus the original<->compact node-id mapping (identity for
/// binary inputs, which are already canonical).
struct LoadedGraph {
  graph::Graph graph;
  std::vector<int64_t> original_ids;  // empty == identity mapping

  int64_t ToOriginal(Index compact) const {
    return original_ids.empty() ? compact
                                : original_ids[static_cast<std::size_t>(compact)];
  }
  Result<Index> ToCompact(int64_t original) const {
    if (original_ids.empty()) {
      if (original < 0 || original >= graph.num_nodes()) {
        return Status::InvalidArgument("node id " + std::to_string(original) +
                                       " out of range");
      }
      return static_cast<Index>(original);
    }
    for (std::size_t i = 0; i < original_ids.size(); ++i) {
      if (original_ids[i] == original) return static_cast<Index>(i);
    }
    return Status::NotFound("node id " + std::to_string(original) +
                            " does not appear in the graph");
  }
};

Result<LoadedGraph> LoadGraph(const std::string& path,
                              const CliOptions& options) {
  LoadedGraph loaded;
  if (path.size() > 5 && path.substr(path.size() - 5) == ".csrg") {
    CSR_ASSIGN_OR_RETURN(loaded.graph, graph::LoadBinary(path));
    return loaded;
  }
  graph::EdgeListOptions edge_options;
  edge_options.symmetrize = options.symmetrize;
  CSR_ASSIGN_OR_RETURN(
      loaded.graph,
      graph::LoadSnapEdgeList(path, edge_options, &loaded.original_ids));
  return loaded;
}

int RunStats(const CliOptions& options) {
  if (options.positional.size() == 1) {
    // Bare `stats`: dump the observability registry snapshot. On a fresh
    // process this shows the callback gauges plus whatever static
    // registration already ran — handy for discovering metric names.
    std::printf("%s", obs::StatsRegistry::Global().SnapshotJson().c_str());
    return 0;
  }
  if (options.positional.size() != 2) {
    PrintUsage();
    return 2;
  }
  auto g = LoadGraph(options.positional[1], options);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", graph::ToString(graph::ComputeStats(g->graph)).c_str());
  return 0;
}

int RunConvert(const CliOptions& options) {
  if (options.positional.size() != 3) {
    PrintUsage();
    return 2;
  }
  auto g = LoadGraph(options.positional[1], options);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  Status saved = graph::SaveBinary(g->graph, options.positional[2]);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (n=%ld m=%ld)\n", options.positional[2].c_str(),
              static_cast<long>(g->graph.num_nodes()),
              static_cast<long>(g->graph.num_edges()));
  if (!g->original_ids.empty()) {
    std::fprintf(stderr,
                 "note: node ids were compacted to [0, n) in first-seen "
                 "order; binary queries use compact ids\n");
  }
  return 0;
}

Result<core::CsrPlusEngine> BuildEngine(const graph::Graph& g,
                                        const CliOptions& options) {
  core::CsrPlusOptions engine_options;
  engine_options.rank = std::min<Index>(options.rank, g.num_nodes());
  engine_options.damping = options.damping;
  engine_options.precision = options.precision;
  WallTimer timer;
  auto engine = core::CsrPlusEngine::Precompute(g, engine_options);
  if (engine.ok()) {
    std::fprintf(stderr, "precomputed rank-%ld CSR+ state (%s tier) in %s\n",
                 static_cast<long>(engine->rank()),
                 core::PrecisionName(engine->serving_precision()),
                 FormatSeconds(timer.ElapsedSeconds()).c_str());
  }
  return engine;
}

/// Warm start: restore the engine from a precompute artifact, verifying its
/// embedded fingerprint against the graph we are about to serve.
Result<core::CsrPlusEngine> LoadEngineFromArtifact(const graph::Graph& g,
                                                   const CliOptions& options) {
  core::LoadOptions load_options;
  load_options.expected_fingerprint =
      core::FingerprintTransition(graph::ColumnNormalizedTransition(g));
  load_options.mode = options.artifact_mode;
  WallTimer timer;
  auto engine =
      core::CsrPlusEngine::LoadPrecompute(options.artifact, load_options);
  if (engine.ok()) {
    // Artifacts always store double factors; the serving tier is applied
    // here, quantising U/Z once at load time.
    CSR_RETURN_IF_ERROR(engine->SetServingPrecision(options.precision));
    std::fprintf(stderr,
                 "warm-started rank-%ld CSR+ state (%s tier, %s load) "
                 "from %s in %s\n",
                 static_cast<long>(engine->rank()),
                 core::PrecisionName(engine->serving_precision()),
                 core::LoadModeName(load_options.mode),
                 options.artifact.c_str(),
                 FormatSeconds(timer.ElapsedSeconds()).c_str());
  }
  return engine;
}

/// A type-erased engine plus whatever storage must outlive it (the baseline
/// adapters hold a pointer to the transition matrix rather than a copy).
struct EngineBox {
  std::unique_ptr<linalg::CsrMatrix> transition;  // null for CSR+
  std::unique_ptr<core::QueryEngine> engine;
  // Non-owning view of `engine` when it is a CSR+ engine, so commands can
  // run the deferred mmap section verification before declaring success.
  core::CsrPlusEngine* csrplus = nullptr;
};

/// Settles the lazy checksum verification of an mmap-loaded engine. Heap
/// loads and non-CSR+ engines return 0 immediately; a mapped engine whose
/// backing file was modified after mapping fails here with exit 1, which is
/// what lets the CI corruption check drive the mmap path end to end.
int FinishMappedVerification(const EngineBox& box) {
  if (box.csrplus == nullptr || !box.csrplus->is_mapped()) return 0;
  Status verified = box.csrplus->VerifyMappedSections();
  if (!verified.ok()) {
    std::fprintf(stderr, "error: %s\n", verified.ToString().c_str());
    return 1;
  }
  return 0;
}

Result<EngineBox> BuildAnyEngine(const graph::Graph& g,
                                 const CliOptions& options) {
  EngineBox box;
  if (options.method == eval::Method::kCsrPlus) {
    auto engine = options.artifact.empty()
                      ? BuildEngine(g, options)
                      : LoadEngineFromArtifact(g, options);
    if (!engine.ok()) return engine.status();
    auto owned = std::make_unique<core::CsrPlusEngine>(std::move(*engine));
    box.csrplus = owned.get();
    box.engine = std::move(owned);
    return box;
  }
  if (!options.artifact.empty()) {
    return Status::InvalidArgument(
        "--artifact is only supported with --method=csr+");
  }
  if (options.precision != core::Precision::kF64) {
    return Status::InvalidArgument(
        "--precision=f32 is only supported with --method=csr+");
  }
  box.transition = std::make_unique<linalg::CsrMatrix>(
      graph::ColumnNormalizedTransition(g));
  eval::RunConfig config;
  config.rank = std::min<Index>(options.rank, g.num_nodes());
  config.damping = options.damping;
  WallTimer timer;
  CSR_ASSIGN_OR_RETURN(
      box.engine, eval::CreateEngine(options.method, *box.transition, config));
  std::fprintf(stderr, "built %s engine in %s\n",
               std::string(box.engine->Name()).c_str(),
               FormatSeconds(timer.ElapsedSeconds()).c_str());
  return box;
}

int RunQuery(const CliOptions& options) {
  if (options.positional.size() < 3) {
    PrintUsage();
    return 2;
  }
  auto g = LoadGraph(options.positional[1], options);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  std::vector<Index> queries;
  for (std::size_t i = 2; i < options.positional.size(); ++i) {
    auto compact = g->ToCompact(std::atoll(options.positional[i].c_str()));
    if (!compact.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   compact.status().ToString().c_str());
      return 1;
    }
    queries.push_back(*compact);
  }
  auto box = BuildAnyEngine(g->graph, options);
  if (!box.ok()) {
    std::fprintf(stderr, "error: %s\n", box.status().ToString().c_str());
    return 1;
  }
  // Generic dispatch through the QueryEngine interface: one top-k search
  // over the whole query set (fused on CSR+, block + selection elsewhere).
  const core::QueryEngine& engine = *box->engine;
  auto lists = engine.TopKQuery(queries, options.topk);
  if (!lists.ok()) {
    std::fprintf(stderr, "error: %s\n", lists.status().ToString().c_str());
    return 1;
  }
  for (std::size_t j = 0; j < queries.size(); ++j) {
    std::printf("query %ld:\n", static_cast<long>(g->ToOriginal(queries[j])));
    for (const auto& sn : (*lists)[j]) {
      std::printf("  %8ld  %.6f\n", static_cast<long>(g->ToOriginal(sn.node)),
                  sn.score);
    }
  }
  return FinishMappedVerification(*box);
}

/// The CLI's method names map onto the registry's engine kinds 1:1.
service::EngineKind ToEngineKind(eval::Method method) {
  switch (method) {
    case eval::Method::kCsrPlus:
      return service::EngineKind::kCsrPlus;
    case eval::Method::kCsrNi:
      return service::EngineKind::kCsrNi;
    case eval::Method::kCsrIt:
      return service::EngineKind::kCsrIt;
    case eval::Method::kCsrRls:
      return service::EngineKind::kCsrRls;
    case eval::Method::kCoSimMate:
      return service::EngineKind::kCoSimMate;
    case eval::Method::kRpCoSim:
      return service::EngineKind::kRpCoSim;
    case eval::Method::kDynamic:
      return service::EngineKind::kDynamic;
  }
  return service::EngineKind::kCsrPlus;
}

/// Prints the end-of-run cache summary shared by both serve modes.
void PrintCacheSummary(const cache::ColumnCache* column_cache) {
  if (column_cache == nullptr) return;
  const cache::ColumnCacheStats cs = column_cache->Stats();
  if (cs.hits + cs.misses == 0) {
    // EvaluateBatch never probed: the engine reported StateFingerprint 0
    // (it cannot vouch for its state), so the cache stayed pass-through.
    std::printf("  cache: pass-through (engine has no state fingerprint)\n");
  } else {
    std::printf("  cache: %.0f%% hit rate (%lld hits, %lld misses), "
                "%lld columns resident (%s)\n",
                100.0 * cs.hit_rate(), static_cast<long long>(cs.hits),
                static_cast<long long>(cs.misses),
                static_cast<long long>(cs.resident_columns),
                FormatBytes(cs.resident_bytes).c_str());
  }
}

/// Starts `server`, prints the listen line and blocks in sigwait until
/// SIGINT/SIGTERM, then shuts the server down. Preconditions handled by the
/// caller: signals already blocked (so every thread spawned below inherits
/// the mask and sigwait gets the signal).
int ServeUntilSignal(net::Server* server, const sigset_t* sigs) {
  Status started = server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  // Scripts (and the CI smoke test) wait for this line before connecting.
  std::printf("listening on %s\n", server->address().c_str());
  std::fflush(stdout);
  int sig = 0;
  sigwait(sigs, &sig);
  std::fprintf(stderr, "received signal %d, shutting down\n", sig);
  server->Shutdown();
  return 0;
}

/// Per-tenant wiring between the wire protocol and one served graph: the
/// compact-id index (text inputs compact sparse original ids at load time;
/// binary .csrg inputs are identity-mapped and skip the hooks) plus the
/// routing entry the server dispatches to. Addresses must stay stable for
/// the server's lifetime, so RunServe* keeps these behind unique_ptr.
struct TenantWiring {
  std::string name;
  std::vector<int64_t> original_ids;  // empty == identity mapping
  std::unordered_map<int64_t, Index> compact_index;
  net::ServerOptions::Route route;
};

/// Fills `wiring->route` for a tenant: its service plus the id translation
/// hooks so socket clients speak the same ids as `csrplus query` (and get
/// the same bytes back). ToCompact is a linear scan, fine for a one-shot
/// CLI query but not per-request — build a hash index once.
void WireTenant(service::QueryService* service, TenantWiring* wiring) {
  wiring->route.service = service;
  if (wiring->original_ids.empty()) return;
  wiring->compact_index.reserve(wiring->original_ids.size());
  for (std::size_t i = 0; i < wiring->original_ids.size(); ++i) {
    wiring->compact_index[wiring->original_ids[i]] = static_cast<Index>(i);
  }
  TenantWiring* w = wiring;
  wiring->route.to_internal = [w](int64_t original) -> Result<Index> {
    auto it = w->compact_index.find(original);
    if (it == w->compact_index.end()) {
      return Status::NotFound("node id " + std::to_string(original) +
                              " does not appear in graph '" + w->name + "'");
    }
    return it->second;
  };
  wiring->route.to_external = [w](Index compact) {
    return w->original_ids[static_cast<std::size_t>(compact)];
  };
}

/// `serve --listen`: run the socket front end over a registry until
/// SIGINT/SIGTERM. Every request is routed by its wire graph_id (empty =
/// default tenant), including in single-graph mode, where the lone tenant
/// is also reachable by name.
int RunServeSocket(const CliOptions& options, service::EngineRegistry* registry,
                   std::vector<std::unique_ptr<TenantWiring>>* wirings,
                   const sigset_t* sigs) {
  auto host_port = net::ParseHostPort(options.listen);
  if (!host_port.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 host_port.status().ToString().c_str());
    return 2;
  }
  net::ServerOptions server_options;
  server_options.host = host_port->first;
  server_options.port = host_port->second;
  server_options.num_workers = std::max(1, options.net_workers);
  std::unordered_map<std::string, const net::ServerOptions::Route*> routes;
  for (const auto& wiring : *wirings) {
    routes.emplace(wiring->name, &wiring->route);
  }
  const std::string default_name = registry->default_tenant();
  server_options.router =
      [registry, routes = std::move(routes),
       default_name](const std::string& graph_id)
      -> const net::ServerOptions::Route* {
    // Route() resolves the default tenant and bumps the per-tenant request
    // counter; the map adds the wire-id translation on top.
    if (registry->Route(graph_id) == nullptr) return nullptr;
    const auto it = routes.find(graph_id.empty() ? default_name : graph_id);
    return it == routes.end() ? nullptr : it->second;
  };
  net::Server server(nullptr, server_options);
  const int code = ServeUntilSignal(&server, sigs);
  registry->Shutdown();
  for (const auto& wiring : *wirings) {
    if (wirings->size() > 1) std::printf("tenant %s:\n", wiring->name.c_str());
    PrintCacheSummary(registry->TenantCache(wiring->name));
  }
  return code;
}

/// `serve --graphs=a=p1,b=p2 --listen=H:P`: the multi-tenant socket server.
/// One registry tenant per named graph; --cache-mb is split evenly into
/// per-tenant cache slices and --tenant-budget-mb caps each tenant's
/// in-flight request bytes independently (budget isolation).
int RunServeMulti(const CliOptions& options, const sigset_t* sigs) {
  if (options.positional.size() != 1) {
    PrintUsage();
    return 2;
  }
  if (options.listen.empty()) {
    std::fprintf(stderr, "error: --graphs requires --listen=HOST:PORT\n");
    return 2;
  }
  if (!options.artifact.empty() || options.shed_depth > 0) {
    std::fprintf(stderr,
                 "error: --artifact and --shed-depth are not supported with "
                 "--graphs\n");
    return 2;
  }
  // Parse the NAME=PATH,... spec.
  std::vector<std::pair<std::string, std::string>> specs;
  std::size_t start = 0;
  while (start <= options.graphs.size()) {
    std::size_t end = options.graphs.find(',', start);
    if (end == std::string::npos) end = options.graphs.size();
    const std::string item = options.graphs.substr(start, end - start);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
      std::fprintf(stderr, "error: bad --graphs entry '%s' (want NAME=PATH)\n",
                   item.c_str());
      return 2;
    }
    specs.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    start = end + 1;
  }

  service::EngineRegistry registry;
  std::vector<std::unique_ptr<TenantWiring>> wirings;
  const int64_t cache_total =
      (!options.no_cache && options.cache_mb > 0)
          ? static_cast<int64_t>(options.cache_mb) << 20
          : 0;
  for (const auto& [name, path] : specs) {
    auto g = LoadGraph(path, options);
    if (!g.ok()) {
      std::fprintf(stderr, "error: graph '%s': %s\n", name.c_str(),
                   g.status().ToString().c_str());
      return 1;
    }
    service::TenantOptions tenant_options;
    tenant_options.kind = ToEngineKind(options.method);
    tenant_options.config.rank =
        std::min<Index>(options.rank, g->graph.num_nodes());
    tenant_options.config.damping = options.damping;
    tenant_options.config.precision = options.precision;
    tenant_options.service.coalesce = !options.no_coalesce;
    tenant_options.service.max_batch_queries = std::max<Index>(
        tenant_options.service.max_batch_queries, options.qsize);
    tenant_options.service.max_outstanding_bytes =
        static_cast<int64_t>(options.tenant_budget_mb) << 20;
    tenant_options.cache_capacity_bytes =
        cache_total / static_cast<int64_t>(specs.size());
    WallTimer timer;
    Status added = registry.AddTenant(
        name, graph::ColumnNormalizedTransition(g->graph), tenant_options);
    if (!added.ok()) {
      std::fprintf(stderr, "error: graph '%s': %s\n", name.c_str(),
                   added.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "tenant %s: n=%ld m=%ld built in %s\n", name.c_str(),
                 static_cast<long>(g->graph.num_nodes()),
                 static_cast<long>(g->graph.num_edges()),
                 FormatSeconds(timer.ElapsedSeconds()).c_str());
    auto wiring = std::make_unique<TenantWiring>();
    wiring->name = name;
    wiring->original_ids = std::move(g->original_ids);
    WireTenant(registry.Find(name), wiring.get());
    wirings.push_back(std::move(wiring));
  }
  return RunServeSocket(options, &registry, &wirings, sigs);
}

int RunServe(const CliOptions& options) {
  // Socket mode waits for SIGINT/SIGTERM via sigwait; block the signals
  // before any thread (pool workers, dispatcher, epoll workers) is spawned
  // so they all inherit the mask and the signal lands in sigwait.
  sigset_t sigs;
  sigemptyset(&sigs);
  const bool socket_mode = !options.listen.empty();
  if (socket_mode) {
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
  }
  if (!options.graphs.empty()) return RunServeMulti(options, &sigs);
  if (options.positional.size() != 2) {
    PrintUsage();
    return 2;
  }
  auto g = LoadGraph(options.positional[1], options);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  auto box = BuildAnyEngine(g->graph, options);
  if (!box.ok()) {
    std::fprintf(stderr, "error: %s\n", box.status().ToString().c_str());
    return 1;
  }
  const Index n = box->engine->NumNodes();
  const Index qsize = std::min<Index>(std::max<Index>(options.qsize, 1), n);
  // Clients draw from a hot set (skewed access is what makes serving-time
  // coalescing pay: overlapping requests dedup inside the micro-batch).
  const Index hot = std::min<Index>(n, std::max<Index>(4 * qsize, 32));

  service::ServiceOptions service_options;
  service_options.coalesce = !options.no_coalesce;
  service_options.max_outstanding_bytes =
      static_cast<int64_t>(options.tenant_budget_mb) << 20;
  // Submit rejects requests wider than max_batch_queries (they could never
  // be batched); let --qsize raise the cap so large stress requests and
  // socket clients sized to --qsize stay admissible.
  service_options.max_batch_queries =
      std::max<Index>(service_options.max_batch_queries, qsize);

  // Approximate serving tier (docs/serving-tiers.md): a hardened RP-CoSim
  // engine over the same graph. The service sheds best-effort traffic to it
  // once the admission queue reaches --shed-depth. Declared before the
  // service so it outlives it.
  std::unique_ptr<linalg::CsrMatrix> approx_transition;
  std::unique_ptr<baselines::RpCosimEngine> approx_engine;
  if (options.shed_depth > 0) {
    const linalg::CsrMatrix* transition = box->transition.get();
    if (transition == nullptr) {
      approx_transition = std::make_unique<linalg::CsrMatrix>(
          graph::ColumnNormalizedTransition(g->graph));
      transition = approx_transition.get();
    }
    baselines::RpCoSimOptions rp_options;
    rp_options.damping = options.damping;
    rp_options.num_samples = std::max<Index>(options.approx_samples, 1);
    approx_engine =
        std::make_unique<baselines::RpCosimEngine>(transition, rp_options);
    WallTimer approx_timer;
    Status hardened = approx_engine->PrecomputeSketch();
    if (!hardened.ok()) {
      std::fprintf(stderr, "error: %s\n", hardened.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "approximate tier: %s (d=%ld, advertised error bound %.3g) "
                 "sketched in %s; shedding at depth >= %d, resuming <= %d\n",
                 std::string(approx_engine->Name()).c_str(),
                 static_cast<long>(rp_options.num_samples),
                 approx_engine->Accuracy().error_bound,
                 FormatSeconds(approx_timer.ElapsedSeconds()).c_str(),
                 options.shed_depth, options.shed_resume);
    service_options.approximate_engine = approx_engine.get();
    service_options.shed_trigger_depth = options.shed_depth;
    service_options.shed_resume_depth = options.shed_resume;
    service_options.shed_headroom_micros =
        static_cast<uint64_t>(options.shed_headroom_ms) * 1000;
  }

  // Single-graph serving still goes through the registry (the lone tenant is
  // named "default"), so the column cache becomes the tenant's own slice and
  // socket clients can address the graph by name. Column cache: on by
  // default for engines that can vouch for their state (StateFingerprint
  // != 0); --no-cache or --cache-mb=0 turns it off.
  static constexpr char kDefaultGraph[] = "default";
  service::EngineRegistry registry;
  service::TenantOptions tenant_options;
  tenant_options.service = service_options;
  tenant_options.cache_capacity_bytes =
      (!options.no_cache && options.cache_mb > 0)
          ? static_cast<int64_t>(options.cache_mb) << 20
          : 0;
  // The box keeps its raw CsrPlusEngine view for FinishMappedVerification;
  // ownership of the type-erased engine moves to the registry tenant.
  Status added = registry.AddTenantWithEngine(
      kDefaultGraph,
      std::shared_ptr<const core::QueryEngine>(std::move(box->engine)),
      tenant_options);
  if (!added.ok()) {
    std::fprintf(stderr, "error: %s\n", added.ToString().c_str());
    return 1;
  }
  service::QueryService* service = registry.Find(kDefaultGraph);

  if (socket_mode) {
    std::vector<std::unique_ptr<TenantWiring>> wirings;
    auto wiring = std::make_unique<TenantWiring>();
    wiring->name = kDefaultGraph;
    wiring->original_ids = std::move(g->original_ids);
    WireTenant(service, wiring.get());
    wirings.push_back(std::move(wiring));
    const int code = RunServeSocket(options, &registry, &wirings, &sigs);
    const int verify_code = FinishMappedVerification(*box);
    return code != 0 ? code : verify_code;
  }

  std::mutex agg_mu;
  std::vector<uint64_t> latencies_us;
  int ok = 0, deadline = 0, rejected = 0, other = 0;
  int served_exact = 0, served_approx = 0;
  double sum_batch_requests = 0.0;

  WallTimer timer;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(options.clients));
  for (int c = 0; c < options.clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0x5E41ull * 2654435761ull + static_cast<uint64_t>(c));
      for (int r = 0; r < options.requests; ++r) {
        service::QueryRequest request;
        request.tag = "client-" + std::to_string(c);
        request.top_k = options.topk;
        request.quality = options.quality;
        request.timeout_micros =
            static_cast<uint64_t>(options.deadline_ms) * 1000;
        while (static_cast<Index>(request.queries.size()) < qsize) {
          const Index q = static_cast<Index>(rng.Below(
              static_cast<uint64_t>(hot)));
          if (std::find(request.queries.begin(), request.queries.end(), q) ==
              request.queries.end()) {
            request.queries.push_back(q);
          }
        }
        service::QueryResponse response = service->Query(std::move(request));
        std::lock_guard<std::mutex> lk(agg_mu);
        if (response.status.ok()) {
          ++ok;
          latencies_us.push_back(response.total_micros);
          sum_batch_requests += response.batch_requests;
          if (response.served_tier == service::ServedTier::kApproximate) {
            ++served_approx;
          } else {
            ++served_exact;
          }
        } else if (response.status.IsDeadlineExceeded()) {
          ++deadline;
        } else if (response.status.IsResourceExhausted()) {
          ++rejected;
        } else {
          ++other;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double seconds = timer.ElapsedSeconds();
  registry.Shutdown();

  const int total = options.clients * options.requests;
  std::printf("served %d requests (%d clients x %d) in %s\n", total,
              options.clients, options.requests,
              FormatSeconds(seconds).c_str());
  std::printf("  ok=%d deadline=%d rejected=%d other=%d\n", ok, deadline,
              rejected, other);
  if (approx_engine != nullptr) {
    std::printf("  tier mix (%s requests): exact=%d approximate=%d\n",
                service::QualityClassName(options.quality), served_exact,
                served_approx);
  }
  if (ok > 0) {
    std::printf("  throughput: %.1f req/s, avg batch size %.2f requests\n",
                static_cast<double>(ok) / seconds,
                sum_batch_requests / static_cast<double>(ok));
    std::sort(latencies_us.begin(), latencies_us.end());
    const auto pct = [&](double p) {
      const std::size_t i = static_cast<std::size_t>(
          p * static_cast<double>(latencies_us.size() - 1));
      return latencies_us[i];
    };
    std::printf("  latency us: p50=%llu p95=%llu p99=%llu max=%llu\n",
                static_cast<unsigned long long>(pct(0.50)),
                static_cast<unsigned long long>(pct(0.95)),
                static_cast<unsigned long long>(pct(0.99)),
                static_cast<unsigned long long>(latencies_us.back()));
  }
  PrintCacheSummary(registry.TenantCache(kDefaultGraph));
  if (other != 0) return 1;
  return FinishMappedVerification(*box);
}

int RunClient(const CliOptions& options) {
  if (options.server.empty()) {
    std::fprintf(stderr, "error: client requires --server=HOST:PORT\n");
    PrintUsage();
    return 2;
  }
  auto client = net::Client::Connect(options.server);
  if (!client.ok()) {
    std::fprintf(stderr, "error: %s\n", client.status().ToString().c_str());
    return 1;
  }
  if (options.positional.size() == 1) {
    Status pinged = client->Ping();
    if (!pinged.ok()) {
      std::fprintf(stderr, "error: %s\n", pinged.ToString().c_str());
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }
  if (options.topk <= 0) {
    std::fprintf(stderr, "error: client queries need --topk >= 1\n");
    return 2;
  }
  net::WireRequest request;
  request.method = net::Method::kQuery;
  request.top_k = static_cast<int32_t>(options.topk);
  request.quality = options.quality;
  request.graph_id = options.graph;  // empty = the server's default tenant
  request.deadline_micros = static_cast<uint64_t>(options.deadline_ms) * 1000;
  for (std::size_t i = 1; i < options.positional.size(); ++i) {
    request.queries.push_back(std::atoll(options.positional[i].c_str()));
  }
  auto response = client->Call(request);
  if (!response.ok()) {
    std::fprintf(stderr, "error: %s\n", response.status().ToString().c_str());
    return 1;
  }
  if (!response->ok()) {
    std::fprintf(stderr, "error: %s\n",
                 response->ToStatus().ToString().c_str());
    return 1;
  }
  if (response->topk.size() != request.queries.size()) {
    std::fprintf(stderr, "error: server returned %zu top-k columns for %zu "
                 "queries\n", response->topk.size(), request.queries.size());
    return 1;
  }
  // Tier echo goes to stderr: stdout must stay byte-identical to `csrplus
  // query` (the CI socket smoke test diffs the two).
  std::fprintf(stderr, "served by the %s tier\n",
               service::ServedTierName(response->served_tier));
  // Same output format as `csrplus query` — the CI smoke test diffs the
  // two. (Binary .csrg graphs have an identity id mapping, so the raw ids
  // here match RunQuery's ToOriginal output.)
  for (std::size_t j = 0; j < request.queries.size(); ++j) {
    std::printf("query %ld:\n", static_cast<long>(request.queries[j]));
    for (const auto& sn : response->topk[j]) {
      std::printf("  %8ld  %.6f\n", static_cast<long>(sn.node), sn.score);
    }
  }
  return 0;
}

int RunPair(const CliOptions& options) {
  if (options.positional.size() != 4) {
    PrintUsage();
    return 2;
  }
  auto g = LoadGraph(options.positional[1], options);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  auto a = g->ToCompact(std::atoll(options.positional[2].c_str()));
  auto b = g->ToCompact(std::atoll(options.positional[3].c_str()));
  if (!a.ok() || !b.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 (!a.ok() ? a.status() : b.status()).ToString().c_str());
    return 1;
  }
  auto engine = BuildEngine(g->graph, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  auto score = engine->SinglePairQuery(*a, *b);
  if (!score.ok()) {
    std::fprintf(stderr, "error: %s\n", score.status().ToString().c_str());
    return 1;
  }
  std::printf("%.8f\n", *score);
  return 0;
}

int RunPrecompute(const CliOptions& options) {
  if (options.positional.size() != 3) {
    PrintUsage();
    return 2;
  }
  auto g = LoadGraph(options.positional[1], options);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  auto engine = BuildEngine(g->graph, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  Status saved = engine->SavePrecompute(options.positional[2]);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (n=%ld r=%ld c=%.3f)\n", options.positional[2].c_str(),
              static_cast<long>(engine->num_nodes()),
              static_cast<long>(engine->rank()), engine->damping());
  return 0;
}

int RunArtifactInfo(const CliOptions& options) {
  if (options.positional.size() != 2) {
    PrintUsage();
    return 2;
  }
  const std::string& path = options.positional[1];
  auto info = core::precompute_io::ReadArtifactInfo(path);
  if (!info.ok()) {
    std::fprintf(stderr, "error: %s\n", info.status().ToString().c_str());
    return 1;
  }
  std::printf("artifact:     %s\n", path.c_str());
  std::printf("format:       v%u\n", info->version);
  std::printf("rank:         %ld\n", static_cast<long>(info->rank));
  std::printf("nodes:        %ld\n", static_cast<long>(info->num_nodes));
  std::printf("damping:      %g\n", info->damping);
  std::printf("epsilon:      %g\n", info->epsilon);
  std::printf("fingerprint:  n=%ld nnz=%ld hash=%016llx\n",
              static_cast<long>(info->fingerprint.num_nodes),
              static_cast<long>(info->fingerprint.nnz),
              static_cast<unsigned long long>(info->fingerprint.content_hash));
  std::printf("file bytes:   %ld\n", static_cast<long>(info->file_bytes));
  if (info->builder_version != 0) {
    std::printf("built by:     csrplus %llu.%llu\n",
                static_cast<unsigned long long>(info->builder_version >> 32),
                static_cast<unsigned long long>(info->builder_version &
                                                0xFFFFFFFFULL));
  } else {
    std::printf("built by:     (pre-trailer artifact)\n");
  }
  // The header only proves itself; a full load verifies every section
  // checksum so a flipped payload byte also fails here with exit 1. Both
  // load modes run, so artifact-info doubles as the CI corruption check
  // for the heap AND the mmap read paths.
  auto engine = core::CsrPlusEngine::LoadPrecompute(path, core::LoadOptions{});
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::printf("sections:     all checksums OK\n");
  core::LoadOptions mapped_options;
  mapped_options.mode = core::LoadMode::kMapped;
  mapped_options.background_verify = false;
  auto mapped = core::CsrPlusEngine::LoadPrecompute(path, mapped_options);
  if (!mapped.ok()) {
    std::fprintf(stderr, "error: %s\n", mapped.status().ToString().c_str());
    return 1;
  }
  Status mapped_verified = mapped->VerifyMappedSections();
  if (!mapped_verified.ok()) {
    std::fprintf(stderr, "error: %s\n", mapped_verified.ToString().c_str());
    return 1;
  }
  std::printf("mmap:         mapped load + section verify OK\n");
  return 0;
}

int WriteTextFile(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return 1;
  }
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  if (std::fclose(f) != 0 || !ok) {
    std::fprintf(stderr, "error: short write to %s\n", path.c_str());
    return 1;
  }
  return 0;
}

/// Emits --stats-out / --trace-out after the command body ran. Observability
/// output failures do not mask a successful command exit code distinction:
/// the command's own code wins unless it succeeded and the dump failed.
int FlushObsOutputs(const CliOptions& options, int command_code) {
  int code = command_code;
  if (!options.stats_out.empty()) {
    const int rc =
        WriteTextFile(options.stats_out,
                      obs::StatsRegistry::Global().SnapshotJson());
    if (rc == 0) {
      std::fprintf(stderr, "wrote stats snapshot to %s\n",
                   options.stats_out.c_str());
    } else if (code == 0) {
      code = rc;
    }
  }
  if (!options.trace_out.empty()) {
    const int rc = WriteTextFile(options.trace_out, obs::DumpTraceJson());
    if (rc == 0) {
      std::fprintf(stderr, "wrote trace to %s\n", options.trace_out.c_str());
    } else if (code == 0) {
      code = rc;
    }
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin the observability epoch to process start so snapshot uptime_us
  // brackets the whole run (phase coverage is measured against it).
  obs::Init();
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }
  if (options.show_version) {
    std::printf("%s\n", VersionString());
    if (options.positional.empty()) return 0;
  }
  if (options.threads > 0) SetNumThreads(options.threads);
  if (!options.trace_out.empty()) obs::SetTracingEnabled(true);
  const std::string& command = options.positional[0];
  int code;
  if (command == "stats") {
    code = RunStats(options);
  } else if (command == "convert") {
    code = RunConvert(options);
  } else if (command == "query") {
    code = RunQuery(options);
  } else if (command == "pair") {
    code = RunPair(options);
  } else if (command == "precompute") {
    code = RunPrecompute(options);
  } else if (command == "artifact-info") {
    code = RunArtifactInfo(options);
  } else if (command == "serve") {
    code = RunServe(options);
  } else if (command == "client") {
    code = RunClient(options);
  } else {
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    PrintUsage();
    return 2;
  }
  return FlushObsOutputs(options, code);
}

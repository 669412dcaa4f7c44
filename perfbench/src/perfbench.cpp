/// \file perfbench/src/perfbench.cpp
/// \brief The repo benchmark: four closed-loop workloads over the public
///        API, each checked byte-for-byte against the rebuild oracle.
///
///   i2a_perfbench --workload W --seed S --seconds T --trace 0|1
///                 --scratch DIR [--spans FILE]
///
/// A run repeats fixed-size *rounds* of its workload until `--seconds`
/// have passed. Every round starts from fresh builders over the same
/// seeded input, so the counts a round produces repeat exactly across
/// runs with the same seed. Each round has four phases:
///
///   write    the closed-loop writer: ingest() the round's batches, each
///            after the previous acknowledgement (serve-mixed: with two
///            reader threads querying concurrently; background mode
///            counts through drain()).
///   read     pin + BFS queries (serve-mixed: the concurrent readers;
///            elsewhere a closed-loop reader on the final state).
///   restore  make the acknowledged state queryable again after the
///            writer is dropped: recover() from the WAL (ingest-durable),
///            otherwise a fresh builder ingesting the acknowledged edges
///            as one batch, the only restore path without a log.
///   build    the one-shot oracle build_adjacency over the acknowledged
///            edges, timed, then the correctness gate.
///
/// With `--trace 1`, rounds alternate untraced / traced. Traced rounds
/// record spans around each call into a layer's public function and
/// time the per-layer shadow calls (incidence + SpGEMM on each batch the
/// builder just took, Wal::append on a shadow log, checkpoint load and
/// WAL scan before recover()); untraced rounds record nothing extra. The
/// end-to-end metrics come from untraced rounds only; the traced rounds'
/// copy of them gives the tracing overhead.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "algebra/pairs.hpp"
#include "graph/algorithms/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/incidence.hpp"
#include "stream/adjacency_builder.hpp"
#include "stream/checkpoint.hpp"
#include "stream/pinned_snapshot.hpp"
#include "stream/sharded_builder.hpp"
#include "stream/wal.hpp"
#include "util/io.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

#include "harness.hpp"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#if !defined(__OPTIMIZE__) || !defined(NDEBUG) || \
    defined(I2A_CHECK_INVARIANTS) || defined(I2A_FAILPOINTS)
#define PERFBENCH_UNOPTIMISED 1
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace i2a;
namespace fs = std::filesystem;
using PT = algebra::PlusTimes<double>;
using MM = algebra::MaxMin<double>;
using Batch = std::span<const graph::Edge>;

// Span names: "<module>.<public function>". The module is the layer.
constexpr const char* kRound = "perfbench.round";
constexpr const char* kQuery = "perfbench.query";
constexpr const char* kRestore = "perfbench.restore";
constexpr const char* kIngest = "stream/adjacency_builder.ingest";
constexpr const char* kShardedIngest = "stream/sharded_builder.ingest";
constexpr const char* kDrain = "stream/adjacency_builder.drain";
constexpr const char* kRecover = "stream/adjacency_builder.recover";
constexpr const char* kIncidence = "graph/incidence.incidence_arrays";
constexpr const char* kSpgemm = "sparse/spgemm.adjacency_array";
constexpr const char* kBuild = "graph/incidence.build_adjacency";
constexpr const char* kMaterialize = "sparse/merge.materialize";
constexpr const char* kWalAppend = "stream/wal.append";
constexpr const char* kWalScan = "stream/wal.replay_wal";
constexpr const char* kCkptLoad = "stream/checkpoint.load_newest_checkpoint";
constexpr const char* kPin = "stream/pinned_snapshot.snapshot";
constexpr const char* kTraverse = "graph/bfs.bfs_levels";

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;
  std::string spans;
};

/// One set of end-to-end observations. Untraced and traced rounds fill
/// separate instances. A latency's median is taken over every sample of
/// the run. Its tail is taken per round (the highest percentile with ten
/// of the round's samples beyond it) and the median across rounds is
/// reported: over a whole run the rule would land on its rarest outliers,
/// which repeat badly from run to run. Rates are taken per round and the
/// median across rounds is reported, so that a round with a rare stall
/// (a checkpoint fsync that waits on the disk) does not move the run's
/// figure.
struct EndToEnd {
  std::vector<double> ack_ms;    ///< the current round's samples
  std::vector<double> query_ms;  ///< the current round's samples
  std::vector<double> ack_all, query_all;
  std::vector<Summary> ack_rounds, query_rounds;
  // The current round's write time (in ingest() + drain()), acked edges,
  // read window and queries; run_rounds turns them into per-round rates.
  double write_s = 0.0;
  std::uint64_t edges = 0;
  double query_window_s = 0.0;
  std::uint64_t queries = 0;
  std::vector<double> ingest_edges_per_s, queries_per_s;  ///< one per round
  std::vector<double> build_edges_per_s;  ///< one per round
  std::vector<double> recover_s;          ///< one per round
  int rounds = 0;
};

/// Per-layer counts from traced rounds (per-layer times come from the
/// spans). Every vector holds one value per traced round unless noted.
struct LayerCounts {
  std::vector<double> compactions, merged_entries, amplification, drain_s;
  std::vector<double> backpressure, levels_max, materialize_ms;
  std::vector<double> out_nnz;
  std::vector<double> rows_touched_frac;  ///< one per SpGEMM call
  std::vector<double> wal_bytes_per_edge;
  std::vector<double> ckpt_count, ckpt_bytes, replayed, truncated;
  std::vector<double> runs_pinned, rows_reached;  ///< one per query
  std::vector<double> ingest_other_ms;  ///< one per batch: ingest − staging
};

/// Operations attempted and failed, with the first few failure notes.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    ++failed;
    if (notes.size() < 16) notes.push_back(what);
  }
};

/// Everything one run accumulates.
struct Run {
  Config cfg;
  EndToEnd untraced, traced;
  LayerCounts layers;
  Outcome outcome;
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<Lane>> lanes;  ///< 0 = writer, then readers
  std::vector<std::pair<std::string, double>> facts;  ///< run context

  Lane* lane(std::size_t i) {
    while (lanes.size() <= i) {
      lanes.push_back(std::make_unique<Lane>(
          static_cast<std::int32_t>(lanes.size())));
    }
    return lanes[i].get();
  }
};

/// The per-round view the phases share.
struct Round {
  std::int32_t index;
  bool traced;
  Run& run;
  EndToEnd& e2e;
  Lane* lane;  ///< writer lane; null in untraced rounds
};

// --------------------------------------------------------------------------
// Inputs

/// R-MAT (Graph500 quadrant probabilities) over 2^scale vertices with
/// `edge_factor` edges per vertex, generated on the pool.
std::vector<graph::Edge> rmat_edges(int scale, index_t edge_factor,
                                    std::uint64_t seed,
                                    util::ThreadPool* pool) {
  return graph::gen::rmat(scale, edge_factor, 0.57, 0.19, 0.19, seed, pool)
      .edges();
}

std::vector<Batch> split(const std::vector<graph::Edge>& edges,
                         std::size_t per_batch, std::size_t count) {
  std::vector<Batch> out;
  for (std::size_t b = 0; b < count; ++b) {
    out.emplace_back(edges.data() + b * per_batch, per_batch);
  }
  return out;
}

graph::Graph graph_of(index_t n, Batch edges) {
  graph::Graph g(n);
  g.edges().assign(edges.begin(), edges.end());
  return g;
}

/// BFS sources: the sources of edges already ingested, so each query
/// starts at a vertex with out-edges.
std::vector<index_t> sources_of(Batch edges) {
  std::vector<index_t> out;
  out.reserve(edges.size());
  for (const graph::Edge& e : edges) out.push_back(e.src);
  return out;
}

std::uint64_t levels_hash(const std::vector<index_t>& levels) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (index_t v : levels) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ULL;
  }
  return h;
}

double reached(const std::vector<index_t>& levels) {
  return static_cast<double>(
      std::count_if(levels.begin(), levels.end(),
                    [](index_t l) { return l >= 0; }));
}

// --------------------------------------------------------------------------
// Phases shared by the workloads

/// The traced shadow of a builder's staging: incidence assembly and the
/// ⊕.⊗ product on the batch the builder just took, each in its own span.
/// Returns the staged time in ms.
double shadow_stage(Round& r, index_t n, Batch batch, std::int64_t id,
                    util::ThreadPool* pool) {
  const graph::Graph g = graph_of(n, batch);
  const PT p;
  const std::int64_t t0 = now_ns();
  graph::IncidencePair<double> inc;
  {
    Scope s(r.lane, kIncidence, id, r.index);
    inc = graph::incidence_arrays(g, p, pool);
  }
  sparse::Csr<double> delta;
  {
    Scope s(r.lane, kSpgemm, id, r.index);
    delta = graph::adjacency_array(p, inc, sparse::SpGemmAlgo::kAuto, pool);
  }
  const double staged_ms = ms_between(t0, now_ns());
  index_t touched = 0;
  for (index_t i = 0; i < delta.nrows(); ++i) touched += delta.row_nnz(i) > 0;
  r.run.layers.rows_touched_frac.push_back(static_cast<double>(touched) /
                                           static_cast<double>(n));
  r.run.layers.out_nnz.back() += static_cast<double>(delta.nnz());
  return staged_ms;
}

/// Ingest a round's first batch unsampled. The ladder merges on every
/// second ingest, and a merge costs as much as staging or more, so
/// acknowledgements are bimodal. With an even number of batches sampled,
/// half merge and the median falls on the gap between the two modes,
/// which moves from run to run. With the first one unsampled, the 2k-1
/// sampled acks hold k merging ones, and the median falls among the
/// cheapest merging acks, which repeat well.
template <typename Builder>
void prime(Round& r, Builder& b, Batch first) {
  b.ingest(first);
  r.run.outcome.check(true, "ingest");
}

/// Closed-loop writer: ingest batches [0, batches.size()), each after the
/// previous acknowledgement. `after(i)` runs untimed after batch i.
template <typename Builder>
void write_batches(Round& r, Builder& b, const std::vector<Batch>& batches,
                   index_t n, util::ThreadPool* pool, const char* span_name,
                   const std::function<void(std::size_t)>& after = {}) {
  if (r.traced) r.run.layers.out_nnz.push_back(0.0);
  double levels_max = 0.0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    const std::int64_t t0 = now_ns();
    {
      Scope s(r.lane, span_name, id, r.index);
      b.ingest(batches[i]);
    }
    const std::int64_t t1 = now_ns();
    r.run.outcome.check(true, "ingest");
    r.e2e.ack_ms.push_back(ms_between(t0, t1));
    r.e2e.write_s += ms_between(t0, t1) * 1e-3;
    r.e2e.edges += batches[i].size();
    if (r.traced) {
      r.run.layers.ingest_other_ms.push_back(
          ms_between(t0, t1) - shadow_stage(r, n, batches[i], id, pool));
      levels_max = std::max(
          levels_max, static_cast<double>(b.snapshot().num_runs()));
    }
    if (after) after(i);
  }
  const std::int64_t t0 = now_ns();
  {
    Scope s(r.lane, kDrain, -1, r.index);
    b.drain();
  }
  const double drain_s = ms_between(t0, now_ns()) * 1e-3;
  r.e2e.write_s += drain_s;
  if (r.traced) {
    const auto st = b.stats();
    LayerCounts& L = r.run.layers;
    L.compactions.push_back(static_cast<double>(st.compactions));
    L.merged_entries.push_back(static_cast<double>(st.merged_entries));
    L.backpressure.push_back(static_cast<double>(st.backpressure_events));
    L.drain_s.push_back(drain_s);
    L.levels_max.push_back(levels_max);
    L.ckpt_count.push_back(static_cast<double>(st.checkpoints));
  }
}

/// Materialize the builder's final pin (timed as the merge layer) and
/// hold it to the oracle, byte for byte.
template <typename Builder>
void check_final(Round& r, const Builder& b, const sparse::Csr<double>& oracle,
                 util::ThreadPool* pool, const char* what) {
  const auto snap = b.snapshot();
  const std::int64_t t0 = now_ns();
  sparse::Csr<double> a;
  {
    Scope s(r.lane, kMaterialize, -1, r.index);
    a = snap.materialize(pool);
  }
  if (r.traced) {
    LayerCounts& L = r.run.layers;
    L.materialize_ms.push_back(ms_between(t0, now_ns()));
    const double written = static_cast<double>(b.stats().delta_entries) +
                           L.merged_entries.back();
    L.amplification.push_back(a.nnz() > 0
                                  ? written / static_cast<double>(a.nnz())
                                  : 0.0);
  }
  r.run.outcome.check(same_bytes(a, oracle), what);
}

/// One pin + BFS query, timed end to end and, on a traced lane, per
/// layer. `counts` (traced only) must belong to the calling thread.
template <typename Builder>
std::vector<index_t> query(Lane* lane, std::int32_t round, const Builder& b,
                           index_t src, std::int64_t id, EndToEnd& e2e,
                           LayerCounts* counts, std::uint64_t* epoch) {
  const std::int64_t t0 = now_ns();
  std::vector<index_t> levels;
  std::size_t runs = 0;
  {
    Scope q(lane, kQuery, id, round);
    stream::PinnedSnapshot<PT> snap = [&] {
      Scope s(lane, kPin, id, round);
      return b.snapshot();
    }();
    Scope s(lane, kTraverse, id, round);
    levels = graph::bfs_levels(snap, src);
    runs = snap.num_runs();
    *epoch = snap.batches();
  }
  e2e.query_ms.push_back(ms_between(t0, now_ns()));
  ++e2e.queries;
  if (counts) {
    counts->runs_pinned.push_back(static_cast<double>(runs));
    counts->rows_reached.push_back(reached(levels));
  }
  return levels;
}

/// Closed-loop reader on the final state: `count` queries from sources
/// with out-edges; the first is held to BFS over the oracle.
template <typename Builder>
void read_back(Round& r, const Builder& b, const std::vector<index_t>& sources,
               const sparse::Csr<double>& oracle, int count) {
  util::Xoshiro256 rng(r.run.cfg.seed ^ 0x5eedULL);
  const std::int64_t t0 = now_ns();
  for (int q = 0; q < count; ++q) {
    const index_t src = sources[static_cast<std::size_t>(
        rng.between(0, static_cast<index_t>(sources.size()) - 1))];
    std::uint64_t epoch = 0;
    const auto levels = query(r.lane, r.index, b, src, q, r.e2e,
                              r.traced ? &r.run.layers : nullptr, &epoch);
    if (q == 0) {
      r.run.outcome.check(
          levels == graph::bfs_levels(oracle, src, PT{}.zero()),
          "read-back query differs from BFS over the oracle");
    } else {
      ++r.run.outcome.attempted;
    }
  }
  r.e2e.query_window_s += ms_between(t0, now_ns()) * 1e-3;
}

/// Restore without a log: a fresh builder ingests the acknowledged edges
/// as one batch; the state is back when a snapshot of it can be pinned.
template <typename Make>
void restore_by_reingest(Round& r, Batch acked, const Make& make) {
  const std::int64_t t0 = now_ns();
  {
    Scope s(r.lane, kRestore, -1, r.index);
    auto b = make();
    b->ingest(acked);
    b->drain();
    (void)b->snapshot();
  }
  r.e2e.recover_s.push_back(ms_between(t0, now_ns()) * 1e-3);
  r.run.outcome.check(true, "restore");
}

/// The one-shot oracle over the acknowledged edges, built and timed
/// `kBuildReps` times (the builds are short next to a round).
sparse::Csr<double> build_oracle(Round& r, index_t n, Batch acked,
                                 util::ThreadPool* pool) {
  constexpr int kBuildReps = 3;
  const graph::Graph g = graph_of(n, acked);
  sparse::Csr<double> a;
  for (int rep = 0; rep < kBuildReps; ++rep) {
    const std::int64_t t0 = now_ns();
    {
      Scope s(r.lane, kBuild, rep, r.index);
      a = graph::build_adjacency(g, PT{}, sparse::SpGemmAlgo::kAuto, pool);
    }
    const double secs = ms_between(t0, now_ns()) * 1e-3;
    r.e2e.build_edges_per_s.push_back(static_cast<double>(acked.size()) /
                                      secs);
    r.run.outcome.check(true, "build");
  }
  return a;
}

/// A scratch directory that is empty when made and gone when dropped,
/// on every exit path.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::uint64_t bytes_matching(const std::string& dir, const std::string& prefix) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      total += entry.file_size();
    }
  }
  return total;
}

/// Repeat set-up `reps` times (the median is reported) and keep the last.
template <typename Setup>
auto timed_setup(Run& run, int reps, const Setup& setup) {
  for (int i = 1; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    { auto discard = setup(); }
    run.setup_s.push_back(ms_between(t0, now_ns()) * 1e-3);
  }
  const std::int64_t t0 = now_ns();
  auto kept = setup();
  run.setup_s.push_back(ms_between(t0, now_ns()) * 1e-3);
  return kept;
}

/// Run rounds for `--seconds`, counted from the end of set-up; trace mode
/// alternates untraced and traced rounds. A throwing round counts as a
/// failed operation and ends the run.
template <typename Body>
void run_rounds(Run& run, const Body& body) {
  const std::int64_t deadline_ns =
      now_ns() + static_cast<std::int64_t>(run.cfg.seconds * 1e9);
  for (std::int32_t i = 0;; ++i) {
    const bool traced = run.cfg.trace && i % 2 == 1;
    EndToEnd& e2e = traced ? run.traced : run.untraced;
    Round r{i, traced, run, e2e, traced ? run.lane(0) : nullptr};
    try {
      Scope s(r.lane, kRound, i, i);
      body(r);
    } catch (const std::exception& ex) {
      run.outcome.fail(std::string("round threw: ") + ex.what());
      return;
    }
    ++e2e.rounds;
    if (e2e.write_s > 0) {
      e2e.ingest_edges_per_s.push_back(static_cast<double>(e2e.edges) /
                                       e2e.write_s);
    }
    if (e2e.query_window_s > 0) {
      e2e.queries_per_s.push_back(static_cast<double>(e2e.queries) /
                                  e2e.query_window_s);
    }
    e2e.write_s = e2e.query_window_s = 0.0;
    e2e.edges = e2e.queries = 0;
    for (auto [round, all, rounds] :
         {std::tuple{&e2e.ack_ms, &e2e.ack_all, &e2e.ack_rounds},
          std::tuple{&e2e.query_ms, &e2e.query_all, &e2e.query_rounds}}) {
      all->insert(all->end(), round->begin(), round->end());
      rounds->push_back(summarize(*round));
      round->clear();
    }
    const bool both = !run.cfg.trace || (run.untraced.rounds > 0 &&
                                         run.traced.rounds > 0);
    if (now_ns() >= deadline_ns && both) return;
  }
}

// --------------------------------------------------------------------------
// Workloads

/// ingest-hypersparse: n = 2^20, 256-edge R-MAT batches into one inline
/// builder, no WAL. Each batch touches ≪ n rows, so per-batch Θ(n) work
/// dominates.
void ingest_hypersparse(Run& run) {
  constexpr int kScale = 20;
  constexpr std::size_t kBatchEdges = 256;
  constexpr std::size_t kBatches = 64;
  constexpr int kQueries = 40;
  const index_t n = index_t{1} << kScale;
  // The writer runs alone: the per-batch Θ(n) walks are memory-bound, and
  // a pool did not make batches faster but made runs far less steady.
  std::vector<graph::Edge> edges = timed_setup(run, 5, [&] {
    auto x = rmat_edges(kScale, 1, run.cfg.seed, nullptr);
    x.resize(kBatchEdges * kBatches);
    stream::AdjacencyBuilder<PT> warm(n, PT{}, stream::Options{});
    return x;
  });
  const auto batches = split(edges, kBatchEdges, kBatches);
  const std::vector<Batch> timed(batches.begin() + 1, batches.end());
  const Batch acked(edges);
  const auto sources = sources_of(acked);
  const stream::Options opts;
  run.facts = {{"threads.writer", 1},
               {"threads.pool", 0},
               {"n", static_cast<double>(n)},
               {"batch_edges", kBatchEdges},
               {"batches_per_round", kBatches}};
  run_rounds(run, [&](Round& r) {
    const auto oracle = build_oracle(r, n, acked, nullptr);
    stream::AdjacencyBuilder<PT> b(n, PT{}, opts);
    prime(r, b, batches.front());
    write_batches(r, b, timed, n, nullptr, kIngest);
    check_final(r, b, oracle, nullptr, "final adjacency differs from oracle");
    read_back(r, b, sources, oracle, kQueries);
    restore_by_reingest(r, acked, [&] {
      return std::make_unique<stream::AdjacencyBuilder<PT>>(n, PT{}, opts);
    });
  });
}

/// ingest-durable: n = 2^12, 512-edge batches written to the WAL, with
/// periodic checkpoints; after the last acknowledgement the builder is
/// dropped and recover() timed.
void ingest_durable(Run& run) {
  constexpr int kScale = 12;
  constexpr std::size_t kBatchEdges = 512;
  constexpr std::size_t kBatches = 64;
  constexpr index_t kEdgeFactor = kBatchEdges * kBatches >> kScale;
  constexpr std::uint64_t kCheckpointEvery = 18;  // 3 land, 10 batches replay
  // The WAL is written on every batch but not fsynced (kNone: a killed
  // process loses nothing, a power cut may). With an fsync per batch the
  // acknowledgement measured the VM's shared disk, whose fsync latency
  // swung threefold within a minute, past every bound the benchmark can
  // hold. Checkpoints still fsync, three times a round.
  constexpr auto kDurability = stream::Durability::kNone;
  constexpr int kQueries = 32;
  const index_t n = index_t{1} << kScale;
  // No pool: the writer runs alone and checkpoints run inline on it, so
  // they land on fixed acknowledgements instead of racing the writer (a
  // queued checkpoint would also hold up a pooled staging chunk).
  util::ThreadPool* const pool = nullptr;
  ScratchDir scratch(run.cfg.scratch);
  std::vector<graph::Edge> edges = timed_setup(run, 5, [&] {
    auto x = rmat_edges(kScale, kEdgeFactor, run.cfg.seed, pool);
    ScratchDir probe(scratch.path() + "/setup");
    stream::Options o;
    o.wal_dir = probe.path();
    o.durability = kDurability;
    stream::AdjacencyBuilder<PT> warm(n, PT{}, o);
    return x;
  });
  const auto batches = split(edges, kBatchEdges, kBatches);
  const std::vector<Batch> timed(batches.begin() + 1, batches.end());
  const Batch acked(edges);
  const auto sources = sources_of(acked);
  const stream::WalManifest manifest{stream::algebra_tag<PT>(),
                                     static_cast<std::uint64_t>(n), 1, 0};
  run.facts = {{"threads.writer", 1},
               {"threads.pool", 0},
               {"n", static_cast<double>(n)},
               {"batch_edges", kBatchEdges},
               {"batches_per_round", kBatches},
               {"checkpoint_every", kCheckpointEvery}};
  run_rounds(run, [&](Round& r) {
    const auto oracle = build_oracle(r, n, acked, pool);
    ScratchDir dir(scratch.path() + "/round");
    stream::Options opts;
    opts.pool = pool;
    opts.wal_dir = dir.path();
    opts.durability = kDurability;
    opts.checkpoint_every = kCheckpointEvery;
    {
      std::optional<ScratchDir> shadow_dir;
      std::optional<stream::Wal> shadow;
      if (r.traced) {
        shadow_dir.emplace(scratch.path() + "/shadow-wal");
        shadow.emplace(shadow_dir->path(), manifest, opts.durability,
                       opts.wal_segment_bytes, 0, 0);
      }
      stream::AdjacencyBuilder<PT> b(n, PT{}, opts);
      prime(r, b, batches.front());
      if (shadow) shadow->append(1, batches.front());
      write_batches(r, b, timed, n, pool, kIngest, [&](std::size_t i) {
        if (!shadow) return;
        Scope s(r.lane, kWalAppend, static_cast<std::int64_t>(i), r.index);
        shadow->append(i + 2, timed[i]);
      });
      check_final(r, b, oracle, pool, "final adjacency differs from oracle");
      if (shadow) {
        shadow->close();
        r.run.layers.wal_bytes_per_edge.push_back(
            static_cast<double>(bytes_matching(shadow_dir->path(), "wal-")) /
            static_cast<double>(acked.size()));
        r.run.layers.ckpt_bytes.push_back(
            static_cast<double>(bytes_matching(dir.path(), "checkpoint-")));
      }
    }  // the writer is dropped here
    if (r.traced) {
      std::uint64_t start_epoch = 0;
      {
        Scope s(r.lane, kCkptLoad, -1, r.index);
        if (auto c = stream::load_newest_checkpoint<double>(dir.path(),
                                                            manifest)) {
          start_epoch = c->epoch;
        }
      }
      stream::WalReplayStats st;
      {
        Scope s(r.lane, kWalScan, -1, r.index);
        st = stream::replay_wal(dir.path(), manifest, start_epoch,
                                [](std::uint64_t, const auto&) {});
      }
      r.run.layers.replayed.push_back(static_cast<double>(st.batches_replayed));
      r.run.layers.truncated.push_back(
          static_cast<double>(st.tail_bytes_truncated));
    }
    const std::int64_t t0 = now_ns();
    std::optional<stream::AdjacencyBuilder<PT>> rec;
    {
      Scope s(r.lane, kRecover, -1, r.index);
      rec.emplace(stream::AdjacencyBuilder<PT>::recover(n, PT{}, opts));
    }
    r.e2e.recover_s.push_back(ms_between(t0, now_ns()) * 1e-3);
    r.run.outcome.check(rec->stats().batches == kBatches &&
                            same_bytes(rec->adjacency(), oracle),
                        "recover() differs from the acknowledged prefix");
    read_back(r, *rec, sources, oracle, kQueries);
    rec->drain();
  });
}

/// serve-mixed: n = 2^16, a 2-shard builder with background compaction on
/// a 1-worker pool; one writer streams 1024-edge batches while two reader
/// threads loop pin + BFS.
void serve_mixed(Run& run) {
  constexpr int kScale = 16;
  constexpr std::size_t kBatchEdges = 1024;
  constexpr std::size_t kBatches = 192;
  constexpr std::size_t kWarmBatches = 16;  ///< ingested before readers start
  constexpr std::size_t kReaders = 2;
  constexpr std::size_t kShards = 2;
  constexpr std::uint64_t kSampleEvery = 97;
  constexpr std::size_t kSamplesPerReader = 2;
  const index_t n = index_t{1} << kScale;
  using Sharded = stream::ShardedBuilder<PT>;
  struct Inputs {
    std::unique_ptr<util::ThreadPool> pool;
    std::vector<graph::Edge> edges;
  };
  Inputs in = timed_setup(run, 5, [&] {
    Inputs x{std::make_unique<util::ThreadPool>(2), {}};  // one worker
    x.edges = rmat_edges(kScale, 4, run.cfg.seed, x.pool.get());
    x.edges.resize(kBatchEdges * kBatches);
    Sharded warm(n, kShards, PT{}, stream::Options{});
    return x;
  });
  util::ThreadPool* pool = in.pool.get();
  const auto batches = split(in.edges, kBatchEdges, kBatches);
  const Batch acked(in.edges);
  const auto sources = sources_of(acked.first(kWarmBatches * kBatchEdges));
  stream::Options opts;
  opts.pool = pool;
  opts.compaction = stream::Compaction::kBackground;
  run.facts = {{"threads.writer", 1},
               {"threads.readers", kReaders},
               {"threads.pool_workers", static_cast<double>(pool->size() - 1)},
               {"shards", kShards},
               {"n", static_cast<double>(n)},
               {"batch_edges", kBatchEdges},
               {"batches_per_round", kBatches}};
  struct Sample {
    std::uint64_t epoch;
    index_t src;
    std::uint64_t hash;
  };
  run_rounds(run, [&](Round& r) {
    const auto oracle = build_oracle(r, n, acked, pool);
    Sharded b(n, kShards, PT{}, opts);
    std::vector<EndToEnd> reader_e2e(kReaders);
    std::vector<std::vector<Sample>> samples(kReaders);
    std::vector<LayerCounts> reader_layers(kReaders);
    std::vector<std::string> reader_errors(kReaders);
    std::vector<Lane*> reader_lanes(kReaders, nullptr);
    for (std::size_t k = 0; r.traced && k < kReaders; ++k) {
      reader_lanes[k] = r.run.lane(1 + k);
    }
    std::int64_t window_start = 0;
    std::atomic<bool> stop{false};
    auto reader = [&](std::size_t k) {
      LayerCounts* counts = r.traced ? &reader_layers[k] : nullptr;
      util::Xoshiro256 rng(r.run.cfg.seed * 31 + k);
      try {
        for (std::int64_t q = 0; !stop.load(std::memory_order_acquire); ++q) {
          const index_t src = sources[static_cast<std::size_t>(
              rng.between(0, static_cast<index_t>(sources.size()) - 1))];
          std::uint64_t epoch = 0;
          const auto levels = query(reader_lanes[k], r.index, b, src, q,
                                    reader_e2e[k], counts, &epoch);
          if (q % kSampleEvery == 0 &&
              samples[k].size() < kSamplesPerReader) {
            samples[k].push_back({epoch, src, levels_hash(levels)});
          }
        }
      } catch (const std::exception& ex) {
        reader_errors[k] = ex.what();
      }
    };
    {
      // On every path out of the write phase the readers are told to stop
      // (stop_all is destroyed first) and then joined.
      std::vector<std::jthread> readers;
      struct StopAll {
        std::atomic<bool>& stop;
        ~StopAll() { stop.store(true, std::memory_order_release); }
      } stop_all{stop};
      write_batches(r, b, batches, n, pool, kShardedIngest,
                    [&](std::size_t i) {
                      if (i + 1 != kWarmBatches) return;
                      window_start = now_ns();
                      for (std::size_t k = 0; k < kReaders; ++k) {
                        readers.emplace_back(reader, k);
                      }
                    });
    }
    r.e2e.query_window_s += ms_between(window_start, now_ns()) * 1e-3;
    for (std::size_t k = 0; k < kReaders; ++k) {
      if (!reader_errors[k].empty()) {
        r.run.outcome.fail("reader threw: " + reader_errors[k]);
      }
      const EndToEnd& m = reader_e2e[k];
      r.e2e.query_ms.insert(r.e2e.query_ms.end(), m.query_ms.begin(),
                            m.query_ms.end());
      r.e2e.queries += m.queries;
      r.run.outcome.attempted += m.queries;
      LayerCounts& L = r.run.layers;
      const LayerCounts& RL = reader_layers[k];
      L.runs_pinned.insert(L.runs_pinned.end(), RL.runs_pinned.begin(),
                           RL.runs_pinned.end());
      L.rows_reached.insert(L.rows_reached.end(), RL.rows_reached.begin(),
                            RL.rows_reached.end());
    }
    check_final(r, b, oracle, pool, "final adjacency differs from oracle");
    // Sampled queries against BFS over the rebuild of the prefix they
    // pinned — outside every timed region.
    for (const auto& per_reader : samples) {
      for (const Sample& s : per_reader) {
        const auto prefix = graph::build_adjacency(
            graph_of(n, acked.first(s.epoch * kBatchEdges)), PT{},
            sparse::SpGemmAlgo::kAuto, pool);
        if (levels_hash(graph::bfs_levels(prefix, s.src, PT{}.zero())) !=
            s.hash) {
          r.run.outcome.fail("serve query differs from BFS over its prefix");
        }
      }
    }
    restore_by_reingest(r, acked, [&] {
      return std::make_unique<Sharded>(n, kShards, PT{}, opts);
    });
  });
}

/// construct-oneshot: build_adjacency of R-MAT scale 18, edge factor 16
/// under plus.times and max.min. The streamed leg ingests the same edges
/// in n/2-edge batches, so batch ≫ touched rows and Θ(n) is amortised.
void construct_oneshot(Run& run) {
  constexpr int kScale = 18;
  constexpr index_t kEdgeFactor = 16;
  constexpr int kQueries = 24;
  constexpr std::size_t kThreads = 4;  ///< writer + 3 pool workers
  const index_t n = index_t{1} << kScale;
  struct Inputs {
    std::unique_ptr<util::ThreadPool> pool;
    std::vector<graph::Edge> edges;
  };
  Inputs in = timed_setup(run, 3, [&] {
    Inputs x{std::make_unique<util::ThreadPool>(kThreads), {}};
    x.edges = rmat_edges(kScale, kEdgeFactor, run.cfg.seed, x.pool.get());
    return x;
  });
  util::ThreadPool* pool = in.pool.get();
  const std::size_t batch_edges = static_cast<std::size_t>(n) / 2;
  const auto batches = split(in.edges, batch_edges,
                             in.edges.size() / batch_edges);
  const std::vector<Batch> timed(batches.begin() + 1, batches.end());
  const Batch acked(in.edges);
  const auto sources = sources_of(acked);
  const graph::Graph g = graph_of(n, acked);
  stream::Options opts;
  opts.pool = pool;
  run.facts = {{"threads.writer", 1},
               {"threads.pool", static_cast<double>(pool->size())},
               {"n", static_cast<double>(n)},
               {"edges", static_cast<double>(acked.size())},
               {"batch_edges", static_cast<double>(batch_edges)}};
  run_rounds(run, [&](Round& r) {
    // One-shot builds under both pairs. Traced rounds call the two
    // halves of build_adjacency separately so each gets its own span.
    const auto build = [&](auto pair, std::int64_t id) {
      using P = decltype(pair);
      Scope s(r.lane, kBuild, id, r.index);
      if (!r.traced) {
        return graph::build_adjacency(g, pair, sparse::SpGemmAlgo::kAuto,
                                      pool);
      }
      graph::IncidencePair<double> inc;
      {
        Scope si(r.lane, kIncidence, id, r.index);
        inc = graph::incidence_arrays(g, pair, pool);
      }
      Scope sp(r.lane, kSpgemm, id, r.index);
      return graph::adjacency_array<P>(pair, inc, sparse::SpGemmAlgo::kAuto,
                                       pool);
    };
    const std::int64_t t0 = now_ns();
    const auto a_pt = build(PT{}, 0);
    const auto a_mm = build(MM{}, 1);
    const double secs = ms_between(t0, now_ns()) * 1e-3;
    r.e2e.build_edges_per_s.push_back(2.0 * static_cast<double>(acked.size()) /
                                      secs);
    r.run.outcome.check(true, "build plus.times");
    r.run.outcome.check(true, "build max.min");
    if (r.traced) {
      r.run.layers.out_nnz.push_back(static_cast<double>(a_pt.nnz() +
                                                         a_mm.nnz()));
      for (const auto* a : {&a_pt, &a_mm}) {
        index_t touched = 0;
        for (index_t i = 0; i < n; ++i) touched += a->row_nnz(i) > 0;
        r.run.layers.rows_touched_frac.push_back(static_cast<double>(touched) /
                                                 static_cast<double>(n));
      }
    }
    // Every incidence entry is 1, so max.min folds parallel edges to 1 on
    // exactly the plus.times pattern.
    r.run.outcome.check(
        a_mm.row_ptr() == a_pt.row_ptr() && a_mm.cols() == a_pt.cols() &&
            std::all_of(a_mm.vals().begin(), a_mm.vals().end(),
                        [](double v) { return v == 1.0; }),
        "max.min build disagrees with the plus.times pattern");
    {
      stream::AdjacencyBuilder<PT> b(n, PT{}, opts);
      Round stream_round{r.index, false, r.run, r.e2e, r.lane};
      prime(stream_round, b, batches.front());
      write_batches(stream_round, b, timed, n, pool, kIngest);
      if (r.traced) {
        const auto st = b.stats();
        LayerCounts& L = r.run.layers;
        L.compactions.push_back(static_cast<double>(st.compactions));
        L.merged_entries.push_back(static_cast<double>(st.merged_entries));
        L.backpressure.push_back(static_cast<double>(st.backpressure_events));
        L.levels_max.push_back(static_cast<double>(b.num_levels()));
      }
      check_final(r, b, a_pt, pool,
                  "streamed adjacency differs from build_adjacency");
      read_back(r, b, sources, a_pt, kQueries);
    }
    restore_by_reingest(r, acked, [&] {
      return std::make_unique<stream::AdjacencyBuilder<PT>>(n, PT{}, opts);
    });
  });
}

// --------------------------------------------------------------------------
// Result

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// The run's median over all samples; the tail, its percentile and the
/// sample count as medians of the per-round summaries.
Summary latency(const std::vector<double>& all,
                const std::vector<Summary>& rounds) {
  std::vector<double> tail, pct, n;
  for (const Summary& s : rounds) {
    tail.push_back(s.tail);
    pct.push_back(s.tail_pct);
    n.push_back(static_cast<double>(s.n));
  }
  return Summary{median(all), median(tail), median(pct),
                 static_cast<std::size_t>(median(n))};
}

/// The end-to-end metrics of one set of rounds.
void end_to_end(const Run& run, const EndToEnd& e, Metrics& m) {
  const Summary ack = latency(e.ack_all, e.ack_rounds);
  const Summary q = latency(e.query_all, e.query_rounds);
  m.set("ingest_edges_per_s", median(e.ingest_edges_per_s), "edges/s");
  m.set("ack_p50_ms", ack.p50, "ms");
  m.set("ack_tail_ms", ack.tail, "ms");
  m.set("query_p50_ms", q.p50, "ms");
  m.set("query_tail_ms", q.tail, "ms");
  m.set("queries_per_s", median(e.queries_per_s), "1/s");
  m.set("build_edges_per_s", median(e.build_edges_per_s), "edges/s");
  m.set("recover_s", median(e.recover_s), "s");
  m.set("setup_s", median(run.setup_s), "s");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
}

void per_layer(const Run& run, Metrics& m) {
  std::vector<const Lane*> lanes;
  for (const auto& l : run.lanes) lanes.push_back(l.get());
  const LayerCounts& L = run.layers;
  const double rounds = std::max(1, run.traced.rounds);
  const auto busy_s = [&](const char* name) {
    return sum(span_ms(lanes, name)) * 1e-3 / rounds;
  };
  const auto p50_ms = [&](const char* name) {
    return median(span_ms(lanes, name));
  };
  m.set("incidence.busy_s", busy_s(kIncidence), "s");
  m.set("incidence.ms_p50", p50_ms(kIncidence), "ms");
  m.set("spgemm.busy_s", busy_s(kSpgemm), "s");
  m.set("spgemm.ms_p50", p50_ms(kSpgemm), "ms");
  m.set("spgemm.out_nnz", median(L.out_nnz), "count");
  m.set("stage.rows_touched_frac", mean(L.rows_touched_frac), "frac");
  m.set("ladder.compactions", median(L.compactions), "count");
  m.set("ladder.merged_entries", median(L.merged_entries), "count");
  m.set("ladder.merge_amplification", median(L.amplification), "ratio");
  m.set("ladder.levels_max", max_of(L.levels_max), "count");
  m.set("backpressure_events", median(L.backpressure), "count");
  m.set("drain_s", median(L.drain_s), "s");
  m.set("ingest.other_ms", median(L.ingest_other_ms), "ms");
  m.set("merge.materialize_ms", median(L.materialize_ms), "ms");
  const Summary wal = summarize(span_ms(lanes, kWalAppend));
  m.set("wal.append_ms_p50", wal.p50, "ms");
  m.set("wal.append_ms_tail", wal.tail, "ms");
  m.set("wal.bytes_per_edge", median(L.wal_bytes_per_edge), "B/edge");
  m.set("checkpoint.count", median(L.ckpt_count), "count");
  m.set("checkpoint.bytes", median(L.ckpt_bytes), "B");
  m.set("recover.checkpoint_load_s", p50_ms(kCkptLoad) * 1e-3, "s");
  m.set("recover.scan_s", p50_ms(kWalScan) * 1e-3, "s");
  m.set("recover.batches_replayed", median(L.replayed), "count");
  m.set("recover.tail_bytes_truncated", median(L.truncated), "B");
  m.set("query.pin_us", p50_ms(kPin) * 1e3, "us");
  m.set("query.runs_pinned", mean(L.runs_pinned), "count");
  m.set("query.traverse_ms", p50_ms(kTraverse), "ms");
  m.set("query.rows_reached", mean(L.rows_reached), "count");
  const double base = median(run.untraced.ack_all);
  m.set("trace.overhead_frac",
        base > 0 ? median(run.traced.ack_all) / base - 1.0 : 0.0,
        "frac");
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, vu] : m.values()) {
    if (out.size() > 1) out += ",";
    out += quoted(name) + ":{\"value\":" + number(vu.first) +
           ",\"unit\":" + quoted(vu.second) + "}";
  }
  return out + "}";
}

/// One JSON line: `correct`, `attempted`, `failed` and `metrics` (what
/// run.py prints as the result) plus what run.py records beside them
/// (sample counts, the traced copy of the end-to-end metrics, notes).
std::string result_json(const Run& run) {
  Metrics e2e, traced_e2e, layers;
  end_to_end(run, run.untraced, e2e);
  if (run.cfg.trace) {
    end_to_end(run, run.traced, traced_e2e);
    per_layer(run, layers);
  }
  const Summary ack = latency(run.untraced.ack_all, run.untraced.ack_rounds);
  const Summary q =
      latency(run.untraced.query_all, run.untraced.query_rounds);
  const Outcome& o = run.outcome;
  std::string out = "{\"correct\":";
  out += o.failed == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(o.attempted);
  out += ",\"failed\":" + std::to_string(o.failed);
  out += ",\"metrics\":" + metrics_json(run.cfg.trace ? layers : e2e);
  out += ",\"end_to_end\":" + metrics_json(e2e);
  if (run.cfg.trace) out += ",\"traced_end_to_end\":" + metrics_json(traced_e2e);
  out += ",\"detail\":{\"failed_ops_frac\":" +
         number(o.attempted ? static_cast<double>(o.failed) /
                                  static_cast<double>(o.attempted)
                            : 0.0);
  out += ",\"ack_tail_pct\":" + number(ack.tail_pct) +
         ",\"ack_samples_per_round\":" + std::to_string(ack.n);
  out += ",\"query_tail_pct\":" + number(q.tail_pct) +
         ",\"query_samples_per_round\":" + std::to_string(q.n);
  out += ",\"rounds_untraced\":" + std::to_string(run.untraced.rounds) +
         ",\"rounds_traced\":" + std::to_string(run.traced.rounds);
  for (const auto& [k, v] : run.facts) out += "," + quoted(k) + ":" + number(v);
  out += "},\"build\":{\"compiler\":" + quoted(__VERSION__) +
         ",\"cxx_flags\":" + quoted(PERFBENCH_CXX_FLAGS) +
         ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE) + "}";
  out += ",\"notes\":[";
  for (std::size_t i = 0; i < o.notes.size(); ++i) {
    out += (i ? "," : "") + quoted(o.notes[i]);
  }
  return out + "]}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "i2a_perfbench: %s\nusage: i2a_perfbench --workload "
               "{ingest-hypersparse|ingest-durable|serve-mixed|"
               "construct-oneshot} --seed N --seconds S --trace 0|1 "
               "--scratch DIR [--spans FILE]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifdef PERFBENCH_UNOPTIMISED
  std::fprintf(stderr,
               "i2a_perfbench: refusing to measure an unoptimised build "
               "(needs -O2 or higher, NDEBUG, no invariant checks or "
               "failpoints)\n");
  return 3;
#endif
#ifdef __GLIBC__
  // Keep freed memory in the process: large blocks come from the heaps
  // rather than from mmap, and the heaps never shrink, so rounds after the
  // first reuse pages that are already mapped. Otherwise each large CSR
  // is a fresh mmap, and the page faults it takes cost a VM's hypervisor
  // more or less from run to run; that, not the library, set most of the
  // spread between runs.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
#endif
  Run run;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      run.cfg.workload = val;
    } else if (key == "--seed" || key == "--seconds") {
      try {
        if (key == "--seed") run.cfg.seed = std::stoull(val);
        if (key == "--seconds") run.cfg.seconds = std::stod(val);
      } catch (const std::exception&) {
        return usage(("bad number for " + key).c_str());
      }
    } else if (key == "--trace") {
      run.cfg.trace = val == "1";
    } else if (key == "--scratch") {
      run.cfg.scratch = val;
    } else if (key == "--spans") {
      run.cfg.spans = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (run.cfg.scratch.empty()) return usage("--scratch is required");
  void (*workload)(Run&) = nullptr;
  if (run.cfg.workload == "ingest-hypersparse") workload = ingest_hypersparse;
  if (run.cfg.workload == "ingest-durable") workload = ingest_durable;
  if (run.cfg.workload == "serve-mixed") workload = serve_mixed;
  if (run.cfg.workload == "construct-oneshot") workload = construct_oneshot;
  if (workload == nullptr) return usage("unknown workload");

  try {
    workload(run);
  } catch (const std::exception& ex) {
    run.outcome.fail(std::string("set-up threw: ") + ex.what());
  }
  if (run.cfg.trace && !run.cfg.spans.empty()) {
    std::vector<const Lane*> lanes;
    for (const auto& l : run.lanes) lanes.push_back(l.get());
    if (!write_spans(run.cfg.spans, lanes, run.cfg.workload)) {
      run.outcome.fail("could not write spans to " + run.cfg.spans);
    }
  }
  std::printf("%s\n", result_json(run).c_str());
  return run.outcome.failed == 0 ? 0 : 1;
}

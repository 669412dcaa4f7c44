/// \file bench_stream.cpp
/// \brief PERF4: streaming adjacency maintenance. Measures sustained
///        batch-ingest throughput (edges/s) through
///        `stream::AdjacencyBuilder`'s compaction ladder and the merge
///        amplification it pays, against the naive serving strategy the
///        builder exists to beat: rebuilding the full adjacency from the
///        concatenated edge list after every batch.
///
/// Counters:
///   merge_amplification — maintenance entries written (per-batch deltas
///       + every ladder compaction + the snapshot merges) divided by the
///       final adjacency nnz: how many times the stream path touches an
///       entry that a one-shot build writes once.
///   final_nnz — size of the maintained array (sanity anchor).
///
/// `BM_StreamServe` and `BM_RebuildPerBatch` are the apples-to-apples
/// pair: both produce a queryable adjacency array after *every* batch.
/// The acceptance bar is stream ≤ rebuild for ≥ 8 batches; the committed
/// BENCH_stream.json records the margin.

#include "bench_common.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

#include "algebra/pairs.hpp"
#include "graph/generators.hpp"
#include "graph/incidence.hpp"
#include "sparse/merge.hpp"
#include "stream/adjacency_builder.hpp"
#include "util/io.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace i2a;

constexpr int kScale = 12;          // 4096 vertices
constexpr index_t kEdgeFactor = 8;  // 32768 edges

std::vector<std::span<const graph::Edge>> split_batches(
    const std::vector<graph::Edge>& edges, index_t nbatches) {
  std::vector<std::span<const graph::Edge>> out;
  const std::size_t per =
      (edges.size() + static_cast<std::size_t>(nbatches) - 1) /
      static_cast<std::size_t>(nbatches);
  for (std::size_t lo = 0; lo < edges.size(); lo += per) {
    const std::size_t hi = std::min(edges.size(), lo + per);
    out.emplace_back(edges.data() + lo, hi - lo);
  }
  return out;
}

/// Ingest the whole stream, snapshot once at the end — the pure
/// maintenance rate with queries amortized away.
void BM_StreamIngest(benchmark::State& state) {
  const auto g = bench::rmat_graph(kScale, kEdgeFactor, 42);
  const auto batches = split_batches(g.edges(), state.range(0));
  const algebra::PlusTimes<double> p;
  std::uint64_t written = 0;
  std::uint64_t final_nnz = 0;
  for (auto _ : state) {
    stream::AdjacencyBuilder<algebra::PlusTimes<double>> b(g.num_vertices(),
                                                           p, {});
    for (const auto& batch : batches) b.ingest(batch);
    const auto a = b.adjacency();
    benchmark::DoNotOptimize(a.nnz());
    written += b.stats().delta_entries + b.stats().merged_entries +
               static_cast<std::uint64_t>(a.nnz());
    final_nnz = static_cast<std::uint64_t>(a.nnz());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.edges().size()));
  state.counters["merge_amplification"] =
      static_cast<double>(written) /
      (static_cast<double>(final_nnz) *
       static_cast<double>(state.iterations()));
  state.counters["final_nnz"] = static_cast<double>(final_nnz);
}
BENCHMARK(BM_StreamIngest)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

/// Ingest and snapshot after every batch — a query served per batch,
/// the maintained-array counterpart of BM_RebuildPerBatch.
void BM_StreamServe(benchmark::State& state) {
  const auto g = bench::rmat_graph(kScale, kEdgeFactor, 42);
  const auto batches = split_batches(g.edges(), state.range(0));
  const algebra::PlusTimes<double> p;
  std::uint64_t written = 0;
  std::uint64_t final_nnz = 0;
  for (auto _ : state) {
    stream::AdjacencyBuilder<algebra::PlusTimes<double>> b(g.num_vertices(),
                                                           p, {});
    std::uint64_t serve_writes = 0;
    for (const auto& batch : batches) {
      b.ingest(batch);
      const auto a = b.adjacency();
      benchmark::DoNotOptimize(a.nnz());
      serve_writes += static_cast<std::uint64_t>(a.nnz());
      final_nnz = static_cast<std::uint64_t>(a.nnz());
    }
    written +=
        b.stats().delta_entries + b.stats().merged_entries + serve_writes;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.edges().size()));
  state.counters["merge_amplification"] =
      static_cast<double>(written) /
      (static_cast<double>(final_nnz) *
       static_cast<double>(state.iterations()));
  state.counters["final_nnz"] = static_cast<double>(final_nnz);
}
BENCHMARK(BM_StreamServe)->Arg(8)->Arg(32)->Arg(128);

/// The acknowledged-durability tax (DESIGN.md §12): the BM_StreamIngest
/// workload at 64 batches with the write-ahead log in each durability
/// mode. Arg 0 is the in-memory baseline (no WAL — the pre-durability
/// path, bit for bit), 1 = Durability::kNone (append to page cache,
/// never fsync), 2 = kAsync (fsync only on segment rotation and close),
/// 3 = kFsyncEachBatch (fsync before ingest returns: acknowledged ⇒
/// durable). The committed BENCH_stream.json records what each
/// acknowledgement level costs over the in-memory builder; wal_bytes is
/// the log volume written per run.
void BM_IngestDurable(benchmark::State& state) {
  const auto g = bench::rmat_graph(kScale, kEdgeFactor, 42);
  const auto batches = split_batches(g.edges(), 64);
  const algebra::PlusTimes<double> p;
  const auto mode = static_cast<int>(state.range(0));
  std::uint64_t wal_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir;
    stream::Options opts;
    if (mode != 0) {
      dir = "/tmp/i2a-bench-wal-XXXXXX";
      if (::mkdtemp(dir.data()) == nullptr) {
        state.SkipWithError("mkdtemp failed");
        break;
      }
      opts.wal_dir = dir;
      opts.durability = mode == 1   ? stream::Durability::kNone
                        : mode == 2 ? stream::Durability::kAsync
                                    : stream::Durability::kFsyncEachBatch;
    }
    state.ResumeTiming();
    {
      stream::AdjacencyBuilder<algebra::PlusTimes<double>> b(g.num_vertices(),
                                                             p, opts);
      for (const auto& batch : batches) b.ingest(batch);
      benchmark::DoNotOptimize(b.adjacency().nnz());
    }
    state.PauseTiming();
    if (mode != 0) {
      for (const auto& name : util::list_dir(dir)) {
        const std::string path = dir + "/" + name;
        struct stat st {};
        if (::stat(path.c_str(), &st) == 0) {
          wal_bytes += static_cast<std::uint64_t>(st.st_size);
        }
        util::remove_file(path);
      }
      ::rmdir(dir.c_str());
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.edges().size()));
  state.counters["wal_bytes"] =
      static_cast<double>(wal_bytes) /
      std::max(1.0, static_cast<double>(state.iterations()));
}
BENCHMARK(BM_IngestDurable)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

/// The baseline the builder replaces: after every batch, rebuild the
/// adjacency from scratch over all edges seen so far (incidence assembly
/// + SpGEMM over the whole prefix, every time).
void BM_RebuildPerBatch(benchmark::State& state) {
  const auto g = bench::rmat_graph(kScale, kEdgeFactor, 42);
  const auto batches = split_batches(g.edges(), state.range(0));
  const algebra::PlusTimes<double> p;
  for (auto _ : state) {
    graph::Graph prefix(g.num_vertices());
    prefix.edges().reserve(g.edges().size());
    for (const auto& batch : batches) {
      for (const auto& e : batch) prefix.edges().push_back(e);
      const auto a = graph::build_adjacency(prefix, p);
      benchmark::DoNotOptimize(a.nnz());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.edges().size()));
}
BENCHMARK(BM_RebuildPerBatch)->Arg(8)->Arg(32)->Arg(128);

/// The ladder's k-way merges alone, on the ingest-hypersparse round
/// shape: 64 batches of 256 R-MAT edges, each folded to a delta outside
/// the timed loop, settled by the builder's policy (merge the longest
/// suffix in which each run weighs at most the runs after it). The
/// iteration time also copies each delta in; `merge_ms_per_round` and
/// `ns_per_merged_entry` time the `merge_add_k` calls alone, the latter
/// per entry the merges write. Args: log2 n, pool threads (0 = serial).
void BM_LadderMerge(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  const index_t n = index_t{1} << scale;
  constexpr std::size_t kBatches = 64;
  constexpr std::size_t kBatchEdges = 256;
  const auto g = graph::gen::rmat(
      scale, std::max<index_t>(1, index_t{kBatches * kBatchEdges} >> scale),
      0.57, 0.19, 0.19, 2);
  const algebra::PlusTimes<double> p;
  using Run = std::pair<sparse::HyperCsr<double>, std::uint64_t>;
  std::vector<sparse::HyperCsr<double>> deltas;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::span<const graph::Edge> batch(
        g.edges().data() + b * kBatchEdges, kBatchEdges);
    deltas.push_back(
        graph::fold_adjacency(p, batch, n, graph::unweighted_draw(p)));
  }
  std::unique_ptr<util::ThreadPool> pool;
  if (state.range(1) > 0) {
    pool = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(state.range(1)));
  }
  const auto add = [](const double& x, const double& y) { return x + y; };
  std::uint64_t merged = 0;
  double merge_s = 0.0;
  for (auto _ : state) {
    std::vector<Run> runs;
    for (const auto& d : deltas) {
      runs.emplace_back(d, 1);
      for (;;) {
        std::size_t lo = runs.size() - 1;
        std::uint64_t tail = runs[lo].second;
        while (lo > 0 && runs[lo - 1].second <= tail) {
          tail += runs[--lo].second;
        }
        if (runs.size() - lo < 2) break;
        std::vector<const sparse::HyperCsr<double>*> group;
        for (std::size_t i = lo; i < runs.size(); ++i) {
          group.push_back(&runs[i].first);
        }
        const util::Timer t;
        auto m = sparse::merge_add_k(group, add, pool.get());
        merge_s += t.seconds();
        merged += static_cast<std::uint64_t>(m.nnz());
        runs.resize(lo + 1);
        runs[lo] = Run{std::move(m), tail};
      }
    }
    benchmark::DoNotOptimize(runs.data());
  }
  const auto rounds = static_cast<double>(state.iterations());
  state.counters["merge_ms_per_round"] = merge_s * 1e3 / rounds;
  state.counters["ns_per_merged_entry"] =
      merge_s * 1e9 / static_cast<double>(merged);
  state.counters["merged_entries_per_round"] =
      static_cast<double>(merged) / rounds;
}
BENCHMARK(BM_LadderMerge)
    ->Args({20, 0})
    ->Args({16, 0})
    ->Args({16, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return i2a::bench::run_benchmarks_json(argc, argv, "BENCH_stream.json");
}

/// \file test_stream.cpp
/// \brief Streaming differential suite: AdjacencyBuilder's maintained
///        array must be *byte-identical* to the oracle — concatenate all
///        batches and rebuild from scratch with `build_adjacency` /
///        `adjacency_array` — across batch sizes {1, 7, 1024}, pool
///        sizes {serial, 1, 4, 8}, and the min.+ / +.* / max.min
///        algebras, plus builder-specific edge cases (empty batches,
///        endpoint validation, ladder shape, prefix snapshots).
///
/// Weighted workloads draw integer weights so the +.* fold stays exact
/// in FP — any fold-order divergence shows up as a byte diff instead of
/// hiding inside reassociation noise; min/max folds are exact on any
/// doubles.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "algebra/pairs.hpp"
#include "graph/generators.hpp"
#include "graph/incidence.hpp"
#include "stream/adjacency_builder.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

using i2a::test::csr_bitwise_equal;

/// Shared stream workload: a dense-ish multigraph (parallel edges and
/// self-loops included — the paper's hard cases) with small-integer
/// weights.
graph::Graph stream_graph(index_t n, index_t m, std::uint64_t seed) {
  auto g = graph::gen::random_multigraph(n, m, seed);
  util::Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (auto& e : g.edges()) {
    e.weight = static_cast<double>(1 + rng.next() % 9);
  }
  return g;
}

/// Feed `g`'s edge list to a builder in `batch_size` slices and check the
/// final snapshot byte-equals the from-scratch oracle.
template <typename P>
void run_differential(const P& p, stream::Weighting weighting,
                      const graph::Graph& g, index_t batch_size,
                      util::ThreadPool* pool,
                      const sparse::Csr<typename P::value_type>& oracle) {
  stream::AdjacencyBuilder<P> builder(
      g.num_vertices(), p, {.weighting = weighting, .pool = pool});
  const auto& edges = g.edges();
  for (std::size_t lo = 0; lo < edges.size();
       lo += static_cast<std::size_t>(batch_size)) {
    const std::size_t hi =
        std::min(edges.size(), lo + static_cast<std::size_t>(batch_size));
    builder.ingest(std::span<const graph::Edge>(edges.data() + lo, hi - lo));
  }
  CHECK_EQ(builder.stats().edges, edges.size());
  CHECK(csr_bitwise_equal(builder.adjacency(), oracle));
  // The ladder never holds more than log2(batches) + 1 live runs.
  const auto batches = static_cast<double>(builder.stats().batches);
  CHECK(builder.num_levels() <=
        static_cast<index_t>(std::log2(batches > 0 ? batches : 1)) + 1);
}

void test_streaming_differential() {
  const index_t n = 48;
  const index_t m = 1500;
  const auto g = stream_graph(n, m, 2026);

  // Serial oracles, built once per algebra with the batch path's exact
  // construction entry points.
  const algebra::PlusTimes<double> plus_times;
  const algebra::MinPlus<double> min_plus;
  const algebra::MaxMin<double> max_min;
  const auto oracle_pt = graph::build_adjacency(g, plus_times);
  const auto oracle_mp = graph::adjacency_array(
      min_plus, graph::weighted_incidence_arrays(g, min_plus));
  const auto oracle_mm = graph::adjacency_array(
      max_min, graph::weighted_incidence_arrays(g, max_min));

  const index_t batch_sizes[] = {1, 7, 1024};
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(nullptr);  // serial
  for (const std::size_t t : {1u, 4u, 8u}) {
    pools.push_back(std::make_unique<util::ThreadPool>(t));
  }
  for (const index_t bs : batch_sizes) {
    for (const auto& pool : pools) {
      run_differential(plus_times, stream::Weighting::kUnweighted, g, bs,
                       pool.get(), oracle_pt);
      run_differential(min_plus, stream::Weighting::kWeighted, g, bs,
                       pool.get(), oracle_mp);
      run_differential(max_min, stream::Weighting::kWeighted, g, bs,
                       pool.get(), oracle_mm);
    }
  }
}

void test_prefix_snapshots() {
  // A snapshot after every batch must equal the rebuild of exactly the
  // edges ingested so far — the "maintained, not rebuilt" contract is
  // about *every* prefix, not just the final state.
  const auto g = stream_graph(32, 400, 4242);
  const algebra::MinPlus<double> p;
  util::ThreadPool pool(4);
  stream::AdjacencyBuilder<algebra::MinPlus<double>> builder(
      g.num_vertices(), p,
      {.weighting = stream::Weighting::kWeighted, .pool = &pool});
  const auto& edges = g.edges();
  const std::size_t batch = 37;
  graph::Graph prefix(g.num_vertices());
  for (std::size_t lo = 0; lo < edges.size(); lo += batch) {
    const std::size_t hi = std::min(edges.size(), lo + batch);
    builder.ingest(std::span<const graph::Edge>(edges.data() + lo, hi - lo));
    for (std::size_t i = lo; i < hi; ++i) {
      prefix.add_edge(edges[i].src, edges[i].dst, edges[i].weight);
    }
    const auto oracle = graph::adjacency_array(
        p, graph::weighted_incidence_arrays(prefix, p));
    CHECK(csr_bitwise_equal(builder.adjacency(), oracle));
  }
}

void test_empty_and_tiny_batches() {
  const algebra::PlusTimes<double> p;
  stream::AdjacencyBuilder<algebra::PlusTimes<double>> builder(5, p, {});
  // Snapshot before any ingest: the all-n empty adjacency.
  const auto empty = builder.adjacency();
  CHECK_EQ(empty.nrows(), 5);
  CHECK_EQ(empty.ncols(), 5);
  CHECK_EQ(empty.nnz(), 0);
  // Empty batches are ⊕-identities: counted, but no ladder churn.
  builder.ingest(std::vector<graph::Edge>{});
  CHECK_EQ(builder.stats().batches, 1u);
  CHECK_EQ(builder.num_levels(), 0);
  builder.ingest(std::vector<graph::Edge>{{0, 1, 2.0}});
  builder.ingest(std::vector<graph::Edge>{});
  builder.ingest(std::vector<graph::Edge>{{1, 2, 3.0}, {0, 1, 1.0}});
  graph::Graph all(5);
  all.add_edge(0, 1, 2.0);
  all.add_edge(1, 2, 3.0);
  all.add_edge(0, 1, 1.0);
  CHECK(csr_bitwise_equal(builder.adjacency(), graph::build_adjacency(all, p)));
  CHECK_EQ(builder.stats().edges, 3u);
}

void test_ingest_validation() {
  const algebra::PlusTimes<double> p;
  stream::AdjacencyBuilder<algebra::PlusTimes<double>> builder(3, p, {});
  builder.ingest(std::vector<graph::Edge>{{0, 2, 1.0}});
  const auto before = builder.adjacency();
  const auto stats_before = builder.stats();
  // A batch with any out-of-range endpoint is rejected whole: no state
  // change, no partial ingest.
  for (const auto& bad : {graph::Edge{0, 3, 1.0}, graph::Edge{-1, 0, 1.0},
                          graph::Edge{3, 0, 1.0}, graph::Edge{0, -1, 1.0}}) {
    bool threw = false;
    try {
      builder.ingest(std::vector<graph::Edge>{{0, 1, 1.0}, bad});
    } catch (const std::out_of_range&) {
      threw = true;
    }
    CHECK(threw);
  }
  CHECK(csr_bitwise_equal(builder.adjacency(), before));
  CHECK_EQ(builder.stats().batches, stats_before.batches);
  CHECK_EQ(builder.stats().edges, stats_before.edges);
}

void test_stats_untouched_when_merge_throws() {
  // An operator pair whose ⊕ throws (supported at the merge layer) must
  // not leave stats claiming a batch the ladder never received.
  struct Boom {};
  struct ThrowingPlusTimes {
    using value_type = double;
    static constexpr std::string_view name() { return "+.* (throwing)"; }
    double zero() const { return 0.0; }
    double one() const { return 1.0; }
    double add(double, double) const { throw Boom{}; }
    double mul(double a, double b) const { return a * b; }
  };
  stream::AdjacencyBuilder<ThrowingPlusTimes> builder(3, ThrowingPlusTimes{},
                                                      {});
  // Batch 1 lands at level 0 without ⊕ ever firing (distinct edges, no
  // compaction).
  builder.ingest(std::vector<graph::Edge>{{0, 1, 1.0}});
  CHECK_EQ(builder.stats().batches, 1u);
  // Batch 2 triggers the level-0 carry, whose merge folds (0,1) with
  // (0,1) and throws.
  bool threw = false;
  try {
    builder.ingest(std::vector<graph::Edge>{{0, 1, 1.0}});
  } catch (const Boom&) {
    threw = true;
  }
  CHECK(threw);
  CHECK_EQ(builder.stats().batches, 1u);
  CHECK_EQ(builder.stats().edges, 1u);
  CHECK_EQ(builder.stats().compactions, 0u);
}

void test_self_loops_and_parallel_edges_stream() {
  // The theorem's hard cases arriving incrementally: parallel edges
  // split across batches must still fold to one entry, and a self-loop
  // must land on the diagonal.
  const algebra::MinPlus<double> p;
  stream::AdjacencyBuilder<algebra::MinPlus<double>> builder(
      4, p, {.weighting = stream::Weighting::kWeighted});
  builder.ingest(std::vector<graph::Edge>{{0, 1, 5.0}, {2, 2, 1.0}});
  builder.ingest(std::vector<graph::Edge>{{0, 1, 3.0}});
  builder.ingest(std::vector<graph::Edge>{{0, 1, 8.0}});
  const auto a = builder.adjacency();
  CHECK_EQ(a.nnz(), 2);
  CHECK_EQ(a.at(0, 1, -1.0), 3.0);  // min over the three parallel edges
  CHECK_EQ(a.at(2, 2, -1.0), 1.0);  // self-loop on the diagonal
}

void test_concurrent_ingest_snapshot() {
  // The builder is thread-compatible: any thread may call it when a
  // mutex orders the handoff (the header contract). One writer ingests,
  // two readers snapshot under the same mutex, and a noise thread
  // drives the shared pool concurrently with the builder's own pool
  // use. Under the TSan CI leg this pins that external serialization
  // plus the pool's internal synchronization are sufficient
  // happens-before for cross-thread builder use — every snapshot must
  // still byte-equal the prefix oracle for its batch count.
  const auto g = stream_graph(32, 600, 7171);
  const algebra::MinPlus<double> p;
  const std::size_t batch = 15;
  const auto& edges = g.edges();

  // Prefix oracles, index k = number of batches ingested.
  std::vector<sparse::Csr<double>> oracles;
  {
    graph::Graph prefix(g.num_vertices());
    oracles.push_back(graph::adjacency_array(
        p, graph::weighted_incidence_arrays(prefix, p)));
    for (std::size_t lo = 0; lo < edges.size(); lo += batch) {
      const std::size_t hi = std::min(edges.size(), lo + batch);
      for (std::size_t i = lo; i < hi; ++i) {
        prefix.add_edge(edges[i].src, edges[i].dst, edges[i].weight);
      }
      oracles.push_back(graph::adjacency_array(
          p, graph::weighted_incidence_arrays(prefix, p)));
    }
  }

  util::ThreadPool pool(4);
  stream::AdjacencyBuilder<algebra::MinPlus<double>> builder(
      g.num_vertices(), p,
      {.weighting = stream::Weighting::kWeighted, .pool = &pool});
  std::mutex mu;            // orders every builder call
  std::size_t batches_done = 0;  // guarded by mu
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (std::size_t lo = 0; lo < edges.size(); lo += batch) {
      const std::size_t hi = std::min(edges.size(), lo + batch);
      std::lock_guard<std::mutex> lock(mu);
      builder.ingest(
          std::span<const graph::Edge>(edges.data() + lo, hi - lo));
      ++batches_done;
    }
    done.store(true);
  });

  struct Observed {
    std::size_t k;
    sparse::Csr<double> snap;
  };
  std::vector<std::vector<Observed>> observed(2);
  std::vector<std::thread> readers;
  readers.reserve(observed.size());
  for (std::size_t t = 0; t < observed.size(); ++t) {
    readers.emplace_back([&, t] {
      do {
        Observed o;
        {
          std::lock_guard<std::mutex> lock(mu);
          o.k = batches_done;
          o.snap = builder.adjacency();
        }
        observed[t].push_back(std::move(o));
      } while (!done.load());
    });
  }
  std::thread noise([&] {  // independent pool traffic, no builder access
    while (!done.load()) {
      std::atomic<index_t> sum{0};
      pool.parallel_for(256, [&](index_t lo, index_t hi) {
        sum.fetch_add(hi - lo);
      });
      if (sum.load() != 256) std::abort();  // CHECK is main-thread-only
    }
  });
  writer.join();
  for (auto& r : readers) r.join();
  noise.join();

  for (const auto& per_reader : observed) {
    CHECK(!per_reader.empty());
    for (const auto& o : per_reader) {
      CHECK(o.k < oracles.size());
      CHECK(csr_bitwise_equal(o.snap, oracles[o.k]));
    }
  }
  CHECK(csr_bitwise_equal(builder.adjacency(), oracles.back()));
}

/// The n-independence trap: a builder over 2^62 vertices ingests small
/// batches (ids < 1024) and must fold, row for row, exactly like a
/// builder over 1024 vertices fed the same batches — k ∈ {1, 4} ×
/// inline and background compaction, no WAL, no BFS, no materialize.
/// Any Θ(n) allocation left on the ingest, snapshot or fold path asks
/// for 2^62 + 1 index entries, past `vector::max_size()`, and throws
/// `std::length_error` before a byte is touched.
void test_n_independent_ingest() {
  using PT = algebra::PlusTimes<double>;
  const index_t huge = index_t{1} << 62;
  const index_t small = 1024;
  util::Xoshiro256 rng(0x7a11ULL);
  std::vector<std::vector<graph::Edge>> batches(24);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (b == 5) continue;  // an empty batch rides along
    const std::size_t m = 1 + rng.next() % 64;
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t r = rng.next();
      batches[b].push_back(
          {static_cast<index_t>(r % 3 == 0 ? 17 : r % small),
           static_cast<index_t>((r >> 20) % small),
           static_cast<double>(1 + (r >> 40) % 9)});
    }
  }
  const auto rows_agree = [&](const stream::PinnedSnapshot<PT>& big,
                              const stream::PinnedSnapshot<PT>& ref) {
    auto sb = big.row_scratch();
    auto sr = ref.row_scratch();
    bool ok = true;
    for (index_t r = 0; r < small; ++r) {
      std::vector<std::pair<index_t, double>> a;
      std::vector<std::pair<index_t, double>> b;
      big.fold_row(r, sb,
                   [&](index_t c, const double& v) { a.emplace_back(c, v); });
      ref.fold_row(r, sr,
                   [&](index_t c, const double& v) { b.emplace_back(c, v); });
      ok = ok && a == b;
    }
    // Rows past the small builder's range are stored by no run.
    for (const index_t r : {small, huge / 2, huge - 1}) {
      big.fold_row(r, sb, [&](index_t, const double&) { ok = false; });
    }
    return ok;
  };
  util::ThreadPool pool(3);
  for (const std::size_t shards : {1u, 4u}) {
    for (const auto mode :
         {stream::Compaction::kInline, stream::Compaction::kBackground}) {
      const stream::Options opts{
          .weighting = stream::Weighting::kWeighted,
          .pool = mode == stream::Compaction::kBackground ? &pool : nullptr,
          .compaction = mode};
      bool threw = false;
      try {
        stream::AdjacencyBuilder<PT> big(huge, shards, PT{}, opts);
        stream::AdjacencyBuilder<PT> ref(small, shards, PT{}, opts);
        for (const auto& batch : batches) {
          big.ingest(batch);
          ref.ingest(batch);
          CHECK(rows_agree(big.snapshot(), ref.snapshot()));
        }
        big.drain();
        ref.drain();
        CHECK(rows_agree(big.snapshot(), ref.snapshot()));
        const auto bs = big.stats();
        const auto rs = ref.stats();
        CHECK_EQ(bs.batches, rs.batches);
        CHECK_EQ(bs.edges, rs.edges);
        CHECK_EQ(bs.delta_entries, rs.delta_entries);
        if (mode == stream::Compaction::kInline) {
          // Background merge groupings depend on task timing.
          CHECK_EQ(bs.compactions, rs.compactions);
          CHECK_EQ(bs.merged_entries, rs.merged_entries);
        }
      } catch (const std::length_error&) {
        threw = true;
      }
      CHECK(!threw);
    }
  }
}

}  // namespace

int main() {
  test_streaming_differential();
  test_prefix_snapshots();
  test_empty_and_tiny_batches();
  test_ingest_validation();
  test_stats_untouched_when_merge_throws();
  test_self_loops_and_parallel_edges_stream();
  test_concurrent_ingest_snapshot();
  test_n_independent_ingest();
  return TEST_MAIN_RESULT();
}

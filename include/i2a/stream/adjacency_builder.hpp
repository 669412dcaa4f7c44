#pragma once
/// \file stream/adjacency_builder.hpp
/// \brief The streaming builder: ingest edge batches, keep
///        A = Eᵀout ⊕.⊗ Ein current over k ≥ 1 row-sharded ladders,
///        serve lock-free epoch-pinned snapshots to readers while the
///        writer appends and compacts, and optionally log every batch
///        for crash recovery.
///
/// The paper states Theorem II.1 for a static edge list; a serving
/// system sees edges in batches *and queries between them*. Because the
/// theorem's per-(i,j) value is a ⊕-fold over parallel edges and ⊕ is
/// associative, the fold can be computed incrementally: stage each
/// batch's *delta* adjacency, keep the deltas as immutable refcounted
/// runs, and ⊕-merge them — lazily for queries, eagerly for compaction
/// (sparse/merge.hpp). Age order is preserved end to end, so every
/// snapshot is byte-identical to a full rebuild from the concatenated
/// prefix of batches it covers.
///
/// **Per-batch cost tracks the batch, not n.** Each incidence row holds
/// exactly one nonzero, so a delta needs no product: staging is the
/// direct per-edge fold (`graph::fold_adjacency` — sort the batch by
/// (src, dst), fold each group's Eout(e,src) ⊗ Ein(e,dst) terms in edge
/// order, which is the fold order of every SpGEMM kernel, so the bytes
/// equal `build_adjacency`'s). Runs are `sparse::HyperCsr`: a hypersparse
/// run stores only its non-empty rows, and the merge walks the union of
/// the runs' stored rows. So stage, prepare/merge and commit cost
/// O(batch log batch + merged entries) whatever the vertex count — a
/// builder over 2^62 vertices ingests like one over 1024
/// (test_stream's n-independence trap). A run whose rows reach a fixed
/// share of n stores every row instead (the small-n case keeps O(1) row
/// lookup). Only `adjacency()`/`materialize()` and checkpoint writes
/// expand runs to the n + 1-pointer `Csr`.
///
/// **Run-list ladder.** Each ladder keeps a list of immutable runs,
/// oldest first, each covering a consecutive interval of batches — the
/// logarithmic-method / LSM shape expressed as a list instead of
/// fixed-power-of-two slots, so compaction can happen asynchronously.
/// After appending a batch's delta (weight 1), the *compaction policy*
/// merges the maximal balanced suffix: the longest tail of runs in which
/// every run's weight is ≤ the combined weight of the runs after it.
/// Settled run weights are therefore super-increasing, which bounds live
/// runs by log₂(batches) + 1 and rewrites each stored entry O(log
/// batches) times total — the same amortized O(nnz · log batches)
/// maintenance as the PR 4 binary-counter ladder, with identical bytes.
///
/// **Row sharding.** Theorem II.1 makes A(i,:) the ⊕-fold of exactly
/// the edges whose source is i, so hash-partitioning source vertices
/// across k ladders partitions the fold by row: sharding is exact, and
/// the plain builder is simply k = 1 (which stages the caller's span
/// with no routing copy). A ladder's runs hold only the rows it owns, so
/// a snapshot is the concatenation of every ladder's pinned run list;
/// per row, all contributing runs come from the one owning ladder in
/// batch-age order, so the bytes do not depend on k (pinned per prefix
/// by test_sharded_differential). The shard hash is a splitmix64-style
/// finalizer, not `src % k`: generator vertex ids are dense, and
/// real-world id schemes stripe (hubs at round numbers, region
/// prefixes), so a plain modulus can systematically starve shards
/// (DESIGN.md §9).
///
/// **Concurrency model (the serving core).** Single writer, any number
/// of readers. Each ladder has its own mutex and its own background
/// compaction chain; one coordination mutex orders (commit to every
/// ladder) against (read every ladder), so a snapshot or `stats()`
/// always sees every ladder at the same epoch:
///
///   * `snapshot()` — callable from ANY thread at ANY time, concurrent
///     with ingest and compaction. It takes the locks only to copy
///     O(k log batches) shared_ptrs plus the epoch counter, then the
///     reader traverses its `PinnedSnapshot` with no further
///     synchronization. Retired runs are reclaimed when the last
///     snapshot pinning them drops (refcount = epoch drain).
///   * `ingest()` — one thread at a time (external serialization; any
///     thread may be the writer when a mutex orders the handoff). The
///     expensive work — routing, delta staging, inline merges — runs
///     without any lock; the commit is k O(log batches) splices under
///     the coordination lock.
///   * Compaction — `Compaction::kInline` (default) merges synchronously
///     inside `ingest`; `Compaction::kBackground` only *schedules* the
///     merge as a detached `ThreadPool::submit` task: the task replaces
///     the merged group under its ladder's lock when done and
///     re-schedules itself while more suffixes qualify. Readers are
///     never blocked by a merge in either mode: every merge works on
///     private run handles and commits by pointer splice under the lock.
///
/// **Failure model (DESIGN.md §10; swept by tests/test_failpoints.cpp).**
/// Every fallible step is classified, and each class has one documented
/// delivery rule:
///
///   * *Strong guarantee on ingest.* Anything that throws out of
///     `ingest()` — batch validation, delta staging (the per-edge
///     fold), in inline mode the compaction merges themselves, and
///     the WAL append — leaves the builder exactly as before the call:
///     same runs, same stats, same epoch on every ladder; snapshots
///     never see a torn batch. Ingest is two-phase: every ladder is
///     *prepared* on private state first (inline compaction settles a
///     private copy of the run list), then all ladders *commit* with
///     noexcept splices under the coordination lock.
///   * *Deferred errors from background compaction.* A background merge
///     failure (⊕ may throw; so may allocation) cannot be thrown at the
///     writer synchronously — the batch that scheduled it was already
///     consumed. The failure is queued on its ladder; that compaction
///     chain parks. Each queued failure is delivered **exactly once**,
///     at the next `drain()` or `ingest()` (whichever comes first;
///     ingest rethrows before consuming its batch). `snapshot()` stays
///     non-throwing — it *peeks* the oldest pending failure into
///     `PinnedSnapshot::pending_error()` without consuming it, so
///     readers can observe degraded freshness while the writer still
///     gets its exactly-once delivery.
///   * *Absorbed degradation.* A failed `ThreadPool::submit` of a
///     compaction task (queue allocation) falls back to running the
///     merge inline on the writer thread — counted in
///     `Stats::backpressure_events`, never thrown: the batch is already
///     published and scheduling is a quality-of-service concern, not a
///     correctness one.
///
/// **Backpressure.** In background mode an unbounded writer can outrun
/// the compactor, growing the run list (and every reader's per-row merge
/// fan-in) without bound. `max_pending_merges` caps the debt of each
/// ladder: after each publish, if the number of merges the policy still
/// owes exceeds the cap, `ingest` stalls: it waits out the in-flight
/// task (whose splice usually replans the chain and clears the debt)
/// and, if still over budget, claims the compaction token and settles
/// the ladder inline before returning — the writer pays the merge cost
/// the background lane deferred. Each such stall increments
/// `Stats::backpressure_events`; `Stats::pending_merges` is the live
/// debt. The default is unbounded (PR 7 behavior).
///
/// **Durability (DESIGN.md §12).** A builder with a `wal_dir` owns one
/// WAL for all its ladders: each batch is logged once, un-routed, and
/// the deterministic shard hash re-routes it identically on replay. The
/// manifest records k, so recovery refuses a directory written under a
/// different sharding; k = 1 writes the same bytes whichever name built
/// it.
///
/// Canonical-run postconditions (`I2A_ENSURES`) hold for every run the
/// ladder ever exposes, whether an inline merge, a background-task
/// merge, or a per-batch delta produced it — the Debug/
/// `I2A_CHECK_INVARIANTS` CI legs execute the background path too.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "core/types.hpp"
#include "graph/graph.hpp"
#include "graph/incidence.hpp"
#include "sparse/csr.hpp"
#include "sparse/hypercsr.hpp"
#include "sparse/merge.hpp"
#include "stream/checkpoint.hpp"
#include "stream/pinned_snapshot.hpp"
#include "stream/wal.hpp"
#include "util/contract.hpp"
#include "util/failpoint.hpp"
#include "util/io.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace i2a::stream {

/// How a batch's incidence entries are drawn — the two draws the
/// batch-construction entry points share with staging
/// (`graph::unweighted_draw` / `graph::weighted_draw`).
enum class Weighting {
  kUnweighted,  ///< every incidence entry is 1: A(i,j) folds edge counts
  kWeighted,    ///< Ein carries w(e), Eout carries ⊗-identity: A(i,j)
                ///< folds edge weights (min.+ SSSP-ready, etc.)
};

/// Where ladder compactions run (see the file comment's concurrency
/// model).
enum class Compaction {
  kInline,      ///< merge synchronously inside ingest (PR 4 semantics)
  kBackground,  ///< schedule merges as detached ThreadPool tasks
};

/// `max_pending_merges` value meaning "no backpressure" (the default).
inline constexpr std::size_t kUnboundedPendingMerges =
    static_cast<std::size_t>(-1);

/// Construction options for `AdjacencyBuilder`, meant to be spelled
/// with designated initializers. The first block configures staging and
/// compaction; the second configures the durability subsystem
/// (DESIGN.md §12) — all of it inert while `wal_dir` is empty.
struct Options {
  Weighting weighting = Weighting::kUnweighted;
  /// Runs inline merges and `adjacency()` chunked, and hosts background
  /// compactions and checkpoints. Staging is batch-sized and serial.
  util::ThreadPool* pool = nullptr;
  Compaction compaction = Compaction::kInline;
  std::size_t max_pending_merges = kUnboundedPendingMerges;

  /// Directory for WAL segments + checkpoints. Empty = in-memory only
  /// (no logging, no recovery — the pre-durability behavior, bit for
  /// bit). A fresh builder refuses a directory that already holds
  /// durable state: that data is recoverable, so constructing over it
  /// would be silent data loss — use `recover()` instead.
  std::string wal_dir{};
  /// When an acknowledged batch is durable (see stream/wal.hpp).
  Durability durability = Durability::kFsyncEachBatch;
  /// WAL segment rotation threshold.
  std::uint64_t wal_segment_bytes = 64ULL << 20;
  /// Write a run-level checkpoint every this many batches via the
  /// background pool (0 = never). Checkpoints bound replay time and let
  /// fully-covered WAL segments retire.
  std::uint64_t checkpoint_every = 0;
};

/// Maintains A over a batched edge stream for one operator pair, row-
/// sharded over k ≥ 1 ladders. Writer calls (`ingest`) must be
/// externally serialized; `snapshot`, `adjacency`, `stats`,
/// `num_levels` and `drain` are safe from any thread concurrently with
/// the writer and with background compaction (pinned under TSan by
/// test_serve). The ladder regroups the ⊕-fold across batches and the
/// per-batch delta is a ⊕.⊗ fold, so the pair must declare the complete
/// `Semiring` contract.
template <typename P>
  requires algebra::Semiring<P>
class AdjacencyBuilder {
 public:
  using value_type = typename P::value_type;

  /// Maintenance-cost accounting, the bench counters. `batches` is the
  /// epoch all ladders share; every other counter sums over ladders.
  struct Stats {
    std::uint64_t batches = 0;          ///< ingested batches (incl. empty)
    std::uint64_t edges = 0;            ///< ingested edges
    std::uint64_t compactions = 0;      ///< ladder k-way merges run
    std::uint64_t delta_entries = 0;    ///< nnz across per-batch deltas
    std::uint64_t merged_entries = 0;   ///< nnz written by compactions
    std::uint64_t pending_merges = 0;   ///< merges the policy still owes
                                        ///< (computed at stats() time)
    std::uint64_t backpressure_events = 0;  ///< over-budget writer stalls
                                            ///< + submit-failure fallbacks
    std::uint64_t checkpoints = 0;      ///< durable checkpoints written
  };

  /// A one-ladder builder (k = 1). A non-empty `opts.wal_dir` attaches
  /// a fresh WAL (segment 0, epoch 0); the directory must not already
  /// hold durable state (use `recover()`). `opts.max_pending_merges`
  /// bounds each ladder's background-compaction debt (see the file
  /// comment's backpressure section); ignored in inline mode, where the
  /// ladder settles every ingest anyway.
  AdjacencyBuilder(index_t num_vertices, P p, const Options& opts)
      : AdjacencyBuilder(num_vertices, 1, std::move(p), opts) {}

  /// A builder over `num_shards` row-sharded ladders; same contract.
  AdjacencyBuilder(index_t num_vertices, std::size_t num_shards, P p,
                   const Options& opts)
      : AdjacencyBuilder(Open::kFresh, num_vertices, num_shards,
                         std::move(p), opts) {}

  /// Rebuild a builder from the durable state in `opts.wal_dir`: load
  /// the newest fully-valid checkpoint (if any), replay the WAL suffix
  /// through the normal publish path — repairing a torn tail in the
  /// last segment — and attach a fresh segment for new batches. Refuses
  /// mismatched durable state (wrong algebra instantiation, vertex
  /// count, shard count, or weighting) with `RecoveryError`; throws
  /// `RecoveryError` on mid-log corruption or a broken epoch chain.
  /// Idempotent: recovering an already-recovered directory replays the
  /// identical batch sequence. An empty (or absent) directory yields a
  /// fresh builder at epoch 0. Cost counters other than `batches` and
  /// `edges` restart at zero for the checkpointed prefix.
  static AdjacencyBuilder recover(index_t num_vertices, P p,
                                  const Options& opts) {
    return recover(num_vertices, 1, std::move(p), opts);
  }

  /// Sharded recovery: `num_shards` must match the recorded manifest.
  static AdjacencyBuilder recover(index_t num_vertices,
                                  std::size_t num_shards, P p,
                                  const Options& opts) {
    return AdjacencyBuilder(Open::kRecover, num_vertices, num_shards,
                            std::move(p), opts);
  }

  // Ladders have one owner: copying would alias the mutable run lists.
  // Moves keep the builder returnable from `recover`.
  AdjacencyBuilder(const AdjacencyBuilder&) = delete;
  AdjacencyBuilder& operator=(const AdjacencyBuilder&) = delete;
  AdjacencyBuilder(AdjacencyBuilder&&) noexcept = default;
  AdjacencyBuilder& operator=(AdjacencyBuilder&&) noexcept = default;

  /// Destruction settles first: any in-flight background compaction or
  /// checkpoint completes (the tasks own their ladder via shared_ptr and
  /// the pool must outlive the builder, as for all pool users), so no
  /// task ever observes a dead builder and no error can arrive after
  /// the check below. A queued background failure that nothing drained
  /// is then an asserted contract violation in checked builds — the
  /// owner must either `drain()` (deliver) or `dismiss_pending_errors()`
  /// (explicitly discard) before destruction; silently dropping a
  /// failure is not an option the API offers anymore.
  ~AdjacencyBuilder() {
    for (const auto& lad : ladders_) {  // empty when moved-from
      util::MutexLock lock(lad->mu);
      wait_settled_locked(lad);
      I2A_ASSERT(lad->errors.empty(),
                 "AdjacencyBuilder destroyed with undelivered background "
                 "errors; drain() or dismiss_pending_errors() first");
    }
  }

  /// Settle in-flight background work, then acknowledge-and-discard
  /// every queued background failure without rethrowing. Returns the
  /// number discarded. This is the explicit escape hatch the destructor
  /// contract points at: "I know this builder may hold failures and I
  /// am choosing not to look".
  std::size_t dismiss_pending_errors() noexcept {
    std::size_t n = 0;
    for (const auto& lad : ladders_) {
      util::MutexLock lock(lad->mu);
      wait_settled_locked(lad);
      n += lad->errors.size();
      lad->errors.clear();
    }
    return n;
  }

  index_t num_vertices() const { return n_; }
  std::size_t num_shards() const { return ladders_.size(); }

  /// Which ladder owns source vertex `src` (and adjacency row `src`).
  std::size_t shard_of(index_t src) const {
    auto x = static_cast<std::uint64_t>(src);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x % ladders_.size());
  }

  /// Maintenance stats, read under the coordination lock so `batches`
  /// and the per-ladder sums always describe one and the same epoch.
  Stats stats() const I2A_EXCLUDES(*mu_) {
    Stats total;
    util::MutexLock coord(*mu_);
    for (const auto& lad : ladders_) {
      util::MutexLock lock(lad->mu);
      const Stats& s = lad->stats;
      total.batches = s.batches;
      total.edges += s.edges;
      total.compactions += s.compactions;
      total.delta_entries += s.delta_entries;
      total.merged_entries += s.merged_entries;
      total.pending_merges +=
          static_cast<std::uint64_t>(pending_merges_locked(lad));
      total.backpressure_events += s.backpressure_events;
      total.checkpoints += s.checkpoints;
    }
    return total;
  }

  /// Live runs over all ladders — what a snapshot pins. Per ladder
  /// ≤ log₂(batches) + 1 whenever it is settled — always after an
  /// inline-mode `ingest`, and after `drain()` in background mode
  /// (mid-flight the count may transiently exceed the bound while
  /// appends outpace the in-flight merge).
  index_t num_levels() const {
    std::size_t runs = 0;
    for (const auto& lad : ladders_) {
      util::MutexLock lock(lad->mu);
      runs += lad->runs.size();
    }
    return static_cast<index_t>(runs);
  }

  /// Ingest one batch: rethrow any pending background-merge failure
  /// (before touching the batch), validate and route it to its ladders,
  /// stage and prepare every ladder's publish (no lock held), log it to
  /// the WAL (durable builders only), commit every ladder under the
  /// coordination lock, and apply backpressure if configured. Every
  /// ladder commits every batch — ladders a batch sends no edges to
  /// publish an empty delta — which keeps their epochs in lockstep.
  ///
  /// Strong guarantee: if this throws — validation, a pending deferred
  /// error, staging, a WAL append (which rolls its own bytes back), or
  /// an inline-mode merge — the batch was not consumed and the builder
  /// (runs, stats, epoch, log) is unchanged. Under
  /// `Durability::kFsyncEachBatch` a normal return additionally means
  /// the batch is on stable storage (the acknowledged-durability
  /// contract the crash harness holds recovery to).
  void ingest(std::span<const graph::Edge> batch) I2A_EXCLUDES(*mu_) {
    rethrow_pending_error();
    for (const graph::Edge& e : batch) {
      if (e.src < 0 || e.src >= n_ || e.dst < 0 || e.dst >= n_) {
        throw std::out_of_range(
            "AdjacencyBuilder::ingest: edge endpoint out of range");
      }
    }
    // Route: one ladder stages the caller's span as is; k > 1 ladders
    // each stage their own share, copied out once.
    const std::size_t k = ladders_.size();
    std::vector<std::vector<graph::Edge>> parts;
    if (k > 1) {
      parts.resize(k);
      for (const graph::Edge& e : batch) parts[shard_of(e.src)].push_back(e);
    }
    const auto share = [&](std::size_t s) {
      return k > 1 ? std::span<const graph::Edge>(parts[s]) : batch;
    };
    // Phase 1: stage + prepare, all fallible work. Nothing is consumed
    // until every ladder has a Prepared in hand.
    std::vector<Prepared> preps;
    preps.reserve(k);
    for (std::size_t s = 0; s < k; ++s) {
      preps.push_back(
          prepare_publish(ladders_[s], stage(share(s)), share(s).size()));
    }
    std::vector<std::function<void()>> tasks(k);
    // The WAL append is the last fallible step: its strong guarantee
    // (rollback on failure) extends the un-torn property across the log
    // and the ladders together, and once it succeeded every ladder
    // commits — so a crash mid-commit recovers the whole batch.
    if (wal_) wal_->append(current_epoch() + 1, batch);
    // Phase 2: commit every ladder — noexcept each — atomically with
    // respect to snapshot() and stats(). The compaction tasks the
    // commits planned are submitted after the lock drops, so no merge
    // ever runs under it.
    {
      util::MutexLock coord(*mu_);
      for (std::size_t s = 0; s < k; ++s) {
        tasks[s] = commit_publish(ladders_[s], std::move(preps[s]));
      }
    }
    for (std::size_t s = 0; s < k; ++s) {
      submit_compaction(ladders_[s], std::move(tasks[s]));
    }
    maybe_checkpoint();
    for (const auto& lad : ladders_) maybe_backpressure(lad);
  }

  /// Edge-list convenience overload.
  void ingest(const std::vector<graph::Edge>& batch) {
    ingest(std::span<const graph::Edge>(batch.data(), batch.size()));
  }

  /// Pin every ladder's run list (ladder order, oldest first within a
  /// ladder) into one snapshot: O(k log batches) shared_ptr copies under
  /// the locks, then the returned snapshot is traversed with no further
  /// synchronization. Rows are disjoint across ladders, so the read
  /// paths fold each row from exactly its owning ladder's runs. Never
  /// throws past allocation: a pending background failure is *peeked*
  /// (not consumed) into the snapshot's `pending_error()`. See
  /// stream/pinned_snapshot.hpp.
  PinnedSnapshot<P> snapshot() const I2A_EXCLUDES(*mu_) {
    std::vector<std::shared_ptr<const Matrix>> pins;
    std::uint64_t epoch = 0;
    std::exception_ptr pending;
    {
      util::MutexLock coord(*mu_);
      for (const auto& lad : ladders_) {
        util::MutexLock lock(lad->mu);
        pins.reserve(pins.size() + lad->runs.size());
        for (const Run& run : lad->runs) pins.push_back(run.array);
        epoch = lad->stats.batches;
        if (!pending && !lad->errors.empty()) pending = lad->errors.front();
      }
    }
    return PinnedSnapshot<P>(n_, p_, epoch, std::move(pins), pending);
  }

  /// Materialized snapshot of the maintained adjacency array: one k-way
  /// ⊕-merge of the live runs, oldest first. Byte-identical to
  /// `build_adjacency` / `adjacency_array` over the concatenation of
  /// every ingested batch.
  sparse::Csr<value_type> adjacency() const {
    return snapshot().materialize(opts_.pool);
  }

  /// Block until no background compaction or checkpoint is in flight
  /// and no further one is scheduled (no-op in inline mode), then
  /// rethrow the oldest still-undelivered background failure of the
  /// first ladder holding one, if any — each queued failure is
  /// delivered exactly once across `drain()` and `ingest()`.
  void drain() const {
    for (const auto& lad : ladders_) {
      util::MutexLock lock(lad->mu);
      wait_settled_locked(lad);
    }
    rethrow_pending_error();
  }

 private:
  /// The run storage: only the rows a run holds, whatever n is
  /// (sparse/hypercsr.hpp).
  using Matrix = sparse::HyperCsr<value_type>;

  /// One immutable ladder run: the ⊕-fold of `weight` consecutive
  /// non-empty batches.
  struct Run {
    std::shared_ptr<const Matrix> array;
    std::uint64_t weight;
  };

  /// One shard's ladder state. Refcounted so background compaction tasks
  /// can outlive the builder object itself; `mu` guards every member,
  /// and the `I2A_GUARDED_BY` annotations make `-Wthread-safety` prove
  /// it on every access path (writer, reader pin, background task).
  struct Ladder {
    mutable util::Mutex mu;
    util::CondVar cv;             ///< signaled when a compaction settles
    /// Run list, oldest first, consecutive intervals.
    std::vector<Run> runs I2A_GUARDED_BY(mu);
    Stats stats I2A_GUARDED_BY(mu);
    /// True while a compaction holds the token.
    bool compacting I2A_GUARDED_BY(mu) = false;
    /// True while a background checkpoint is in flight (at most one; the
    /// builder parks its checkpoint token on ladder 0, so drain and
    /// destruction wait on it through the same cv).
    bool checkpointing I2A_GUARDED_BY(mu) = false;
    /// Failed background merges, oldest first; each entry is delivered
    /// exactly once (drain / ingest pop, snapshot peeks).
    std::vector<std::exception_ptr> errors I2A_GUARDED_BY(mu);
  };

  /// The staged-but-uncommitted half of a publish. `prepare_publish` does
  /// everything that can throw; `commit_publish` consumes the result with
  /// no fallible step before the batch counts as ingested — which is what
  /// lets `ingest` prepare every ladder first and then commit them all
  /// under one lock without risking a torn cross-ladder epoch.
  struct Prepared {
    bool inline_mode = false;
    std::vector<Run> runs;  ///< inline mode: the fully settled new list
    std::uint64_t compactions = 0;
    std::uint64_t merged_entries = 0;
    /// Background mode: the delta to append (capacity already reserved).
    std::shared_ptr<const Matrix> delta;
    std::uint64_t delta_nnz = 0;
    std::size_t batch_edges = 0;
  };

  enum class Open { kFresh, kRecover };

  /// The one real constructor. `kFresh` attaches a new WAL to an empty
  /// directory; `kRecover` first restores the newest checkpoint into
  /// every ladder and replays the WAL suffix through `ingest` — with no
  /// WAL attached yet, so replay logs nothing twice and schedules no
  /// checkpoint — then attaches a fresh segment.
  AdjacencyBuilder(Open open, index_t num_vertices, std::size_t num_shards,
                   P p, const Options& opts)
      : n_(num_vertices), p_(std::move(p)), opts_(opts),
        mu_(std::make_unique<util::Mutex>()) {
    if (num_vertices < 0) {
      throw std::invalid_argument("AdjacencyBuilder: negative vertex count");
    }
    if (num_shards == 0) {
      throw std::invalid_argument("AdjacencyBuilder: zero shards");
    }
    if (open == Open::kRecover && opts_.wal_dir.empty()) {
      throw std::invalid_argument("AdjacencyBuilder::recover: empty wal_dir");
    }
    if (opts_.compaction == Compaction::kBackground && opts_.pool == nullptr) {
      // No pool means nothing can host the task; degrade to inline
      // rather than silently never compacting.
      opts_.compaction = Compaction::kInline;
    }
    ladders_.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      ladders_.push_back(std::make_shared<Ladder>());
    }
    if (opts_.wal_dir.empty()) return;
    manifest_ = WalManifest{algebra_tag<P>(), static_cast<std::uint64_t>(n_),
                            static_cast<std::uint32_t>(num_shards),
                            static_cast<std::uint32_t>(opts_.weighting)};
    util::ensure_dir(opts_.wal_dir);
    std::uint64_t seqno = 0;
    if (open == Open::kFresh) {
      require_no_durable_state(opts_.wal_dir);
    } else {
      std::uint64_t start_epoch = 0;
      if (auto ckpt =
              load_newest_checkpoint<value_type>(opts_.wal_dir, manifest_)) {
        start_epoch = ckpt->epoch;
        for (std::size_t s = 0; s < num_shards; ++s) {
          Ladder& lad = *ladders_[s];
          util::MutexLock lock(lad.mu);
          for (CheckpointRun<value_type>& r : ckpt->shards[s]) {
            lad.runs.push_back(Run{std::move(r.run), r.weight});
          }
          lad.stats.batches = ckpt->epoch;
          lad.stats.edges = ckpt->edges[s];
        }
      }
      const WalReplayStats rstats = replay_wal(
          opts_.wal_dir, manifest_, start_epoch,
          [this](std::uint64_t, const std::vector<graph::Edge>& edges) {
            // Injection site: one evaluation per replayed batch, so the
            // sweep can kill recovery itself mid-replay and prove a
            // second recover() of the same directory still succeeds.
            I2A_FAILPOINT("recover.replay");
            ingest(edges);
          });
      seqno = rstats.any_segment ? rstats.last_seqno + 1 : 0;
    }
    wal_.emplace(opts_.wal_dir, manifest_, opts_.durability,
                 opts_.wal_segment_bytes, seqno, current_epoch());
  }

  /// The epoch: every ladder commits every batch, so ladder 0's batch
  /// counter is the builder's.
  std::uint64_t current_epoch() const {
    const std::shared_ptr<Ladder>& lad = ladders_.front();
    util::MutexLock lock(lad->mu);
    return lad->stats.batches;
  }

  /// If a checkpoint boundary was just crossed and none is in flight,
  /// pin every ladder's run list + counters and dispatch the background
  /// checkpoint task. Writer-thread-only, so no commit can interleave
  /// and every ladder is captured at the same epoch. Failures surface
  /// through ladder 0's deferred-error queue (never synchronously from
  /// ingest): the batch is already committed, so the strong-guarantee
  /// channel is closed — same classification as a background-merge
  /// failure.
  void maybe_checkpoint() {
    if (!wal_ || opts_.checkpoint_every == 0) return;
    const std::shared_ptr<Ladder>& lad0 = ladders_.front();
    std::uint64_t epoch = 0;
    {
      util::MutexLock lock(lad0->mu);
      epoch = lad0->stats.batches;
      if (epoch == 0 || epoch % opts_.checkpoint_every != 0) return;
      if (lad0->checkpointing) return;  // one in flight; skip boundary
    }
    const std::size_t k = ladders_.size();
    std::vector<std::vector<CheckpointRun<value_type>>> shard_runs(k);
    std::vector<std::uint64_t> edges(k, 0);
    for (std::size_t s = 0; s < k; ++s) {
      const std::shared_ptr<Ladder>& lad = ladders_[s];
      util::MutexLock lock(lad->mu);
      shard_runs[s].reserve(lad->runs.size());
      for (const Run& r : lad->runs) {
        shard_runs[s].push_back(CheckpointRun<value_type>{r.array, r.weight});
      }
      edges[s] = lad->stats.edges;
    }
    {
      util::MutexLock lock(lad0->mu);
      lad0->checkpointing = true;  // the last fallible step was above
    }
    dispatch_checkpoint(lad0, opts_.pool, opts_.wal_dir, manifest_, epoch,
                        std::move(shard_runs), std::move(edges),
                        wal_->seqno());
  }

  /// Build and hand off the checkpoint task. `lad` must already hold
  /// the checkpoint token; the task clears it, signals the cv, bumps
  /// `stats.checkpoints` on success, and queues failures as deferred
  /// errors. A failed submit runs the task inline (absorbed, counted in
  /// `backpressure_events`, like the compaction-submit fallback).
  /// Static and `this`-free: the task may outlive the builder object
  /// (it shares the ladder), and the WAL is referenced only through
  /// captured values (dir + active seqno).
  static void dispatch_checkpoint(
      std::shared_ptr<Ladder> lad, util::ThreadPool* pool, std::string dir,
      WalManifest manifest, std::uint64_t epoch,
      std::vector<std::vector<CheckpointRun<value_type>>> shard_runs,
      std::vector<std::uint64_t> edges, std::uint64_t active_seqno)
      I2A_EXCLUDES(lad->mu) {
    auto task = [lad, dir = std::move(dir), manifest = std::move(manifest),
                 epoch, shard_runs = std::move(shard_runs),
                 edges = std::move(edges), active_seqno]() {
      std::exception_ptr failure;
      try {
        write_checkpoint<value_type>(dir, manifest, epoch, shard_runs, edges);
        gc_checkpoints(dir, epoch);
        Wal::retire_segments(dir, epoch, active_seqno);
      } catch (...) {
        failure = std::current_exception();
      }
      {
        util::MutexLock lock(lad->mu);
        if (failure) {
          try {
            lad->errors.push_back(failure);
          } catch (...) {
            // Reporting itself failed on allocation (prepare reserves a
            // spare slot to make this a corner of a corner). The token
            // release below must still happen, so the failure is
            // dropped here — the checkpoint file was already cleaned
            // up, so no durable state is inconsistent.
          }
        } else {
          ++lad->stats.checkpoints;
        }
        lad->checkpointing = false;
      }
      lad->cv.notify_all();
    };
    bool fallback = (pool == nullptr);
    if (pool != nullptr) {
      try {
        auto backup = task;  // submit may consume its argument on throw
        pool->submit(std::move(backup));
      } catch (...) {
        fallback = true;
        util::MutexLock lock(lad->mu);
        ++lad->stats.backpressure_events;
      }
    }
    if (fallback) task();  // the task body delivers its own failures
  }

  /// Pop and rethrow the oldest queued failure of the first ladder
  /// holding one.
  void rethrow_pending_error() const {
    for (const auto& lad : ladders_) {
      std::exception_ptr err;
      {
        util::MutexLock lock(lad->mu);
        if (lad->errors.empty()) continue;
        err = lad->errors.front();
        lad->errors.erase(lad->errors.begin());
      }
      std::rethrow_exception(err);
    }
  }

  /// Block until `lad` has no compaction or checkpoint in flight.
  static void wait_settled_locked(const std::shared_ptr<Ladder>& lad)
      I2A_REQUIRES(lad->mu) {
    while (lad->compacting || lad->checkpointing) lad->cv.wait(lad->mu);
  }

  /// Build a ladder's share of a batch as a delta adjacency with the
  /// direct per-edge fold (`graph::fold_adjacency`: sort the share by
  /// (src, dst), fold each group in edge order — the incidence + SpGEMM
  /// bytes at O(m log m), holding only the touched rows). No ladder
  /// state is touched, so staging runs lock-free, for every ladder
  /// before any commits. Returns nullptr for an empty share (the
  /// ⊕-identity contribution).
  std::shared_ptr<const Matrix> stage(
      std::span<const graph::Edge> edges) const {
    if (edges.empty()) return nullptr;
    // Injection site: the whole staging pipeline for a non-empty batch.
    // A fire here (or in the fold's own site downstream) leaves the
    // ladder untouched — ingest's strong guarantee.
    I2A_FAILPOINT("builder.stage.batch");
    Matrix delta =
        opts_.weighting == Weighting::kWeighted
            ? graph::fold_adjacency(p_, edges, n_,
                                    graph::weighted_draw(p_, edges))
            : graph::fold_adjacency(p_, edges, n_,
                                    graph::unweighted_draw(p_));
    I2A_ENSURES(delta.is_canonical(),
                "AdjacencyBuilder: staged delta not canonical");
    return std::make_shared<const Matrix>(std::move(delta));
  }

  /// Phase 1 of a publish: everything fallible. Inline mode settles the
  /// whole ladder on a private copy of the run list (cheap shared_ptr
  /// copies — concurrent readers keep pinning the old list mid-merge,
  /// and a throwing ⊕ leaves runs and stats untouched). Background mode
  /// only reserves the capacity `commit_publish` will need, so the
  /// commit's push_back cannot throw.
  Prepared prepare_publish(
      const std::shared_ptr<Ladder>& lad,
      std::shared_ptr<const Matrix> delta,
      std::size_t batch_edges) const I2A_EXCLUDES(lad->mu) {
    Prepared prep;
    prep.batch_edges = batch_edges;
    prep.delta_nnz = static_cast<std::uint64_t>(delta ? delta->nnz() : 0);
    if (opts_.compaction == Compaction::kInline) {
      prep.inline_mode = true;
      {
        util::MutexLock lock(lad->mu);
        prep.runs = lad->runs;
      }
      if (delta) prep.runs.push_back(Run{std::move(delta), 1});
      settle_runs(prep.runs, prep.compactions, prep.merged_entries);
    } else {
      prep.delta = std::move(delta);
      util::MutexLock lock(lad->mu);
      lad->runs.reserve(lad->runs.size() + 1);
      // One spare error slot, so a background task's failure report
      // cannot itself die on allocation in the common case.
      lad->errors.reserve(lad->errors.size() + 1);
    }
    return prep;
  }

  /// Phase 2 of a publish: consume a `Prepared` with no fallible step
  /// before the batch is committed. Inline mode is a splice + stat bumps
  /// under the ladder lock. Background mode appends the delta (capacity
  /// reserved), bumps stats, then *tries* to plan the compaction task
  /// and returns it for `submit_compaction` — a failed plan parks the
  /// chain (replanned on the next publish); in no case does a
  /// scheduling failure un-ingest the batch.
  // NOLINTNEXTLINE(bugprone-exception-escape): every fallible step ran
  // in prepare_publish (capacities reserved, merges settled on private
  // state); what remains is pointer splices, counter bumps, and the
  // absorb boundary documented in DESIGN.md §10. The lint rule
  // `commit-noexcept` (tools/lint/) enforces that commit-phase
  // functions keep this declaration.
  std::function<void()> commit_publish(const std::shared_ptr<Ladder>& lad,
                                       Prepared&& prep) noexcept
      I2A_EXCLUDES(lad->mu) {
    util::MutexLock lock(lad->mu);
    if (prep.inline_mode) {
      lad->runs = std::move(prep.runs);
    } else if (prep.delta) {
      lad->runs.push_back(Run{std::move(prep.delta), 1});
    }
    ++lad->stats.batches;
    lad->stats.edges += prep.batch_edges;
    lad->stats.delta_entries += prep.delta_nnz;
    lad->stats.compactions += prep.compactions;
    lad->stats.merged_entries += prep.merged_entries;
    if (prep.inline_mode) return nullptr;
    try {
      return plan_task_locked(lad, opts_.pool, p_);
    } catch (...) {
      // Planning allocates (group copy, std::function). On failure the
      // token was never taken; the chain parks until the next publish
      // replans. The batch itself is already committed.
      return nullptr;
    }
  }

  /// Hand a planned compaction task to the pool; a failed submit runs
  /// it inline on this thread instead (an absorbed degradation, counted
  /// in `backpressure_events`).
  // NOLINTNEXTLINE(bugprone-exception-escape): the submit and the
  // fallback run are each caught; the task body reports its own
  // failures through the error queue.
  void submit_compaction(const std::shared_ptr<Ladder>& lad,
                         std::function<void()>&& task) noexcept
      I2A_EXCLUDES(lad->mu) {
    if (!task) return;
    bool fallback = false;
    try {
      // Injection site: handing the compaction task to the pool. A fire
      // (or a real queue-allocation failure) must not lose the merge:
      // it runs inline below instead.
      I2A_FAILPOINT("builder.background.submit");
      auto backup = task;  // submit may consume its argument even on throw
      opts_.pool->submit(std::move(backup));
    } catch (...) {
      fallback = true;
    }
    if (fallback) {
      {
        util::MutexLock lock(lad->mu);
        ++lad->stats.backpressure_events;
      }
      try {
        task();  // the task body handles its own failures (error queue)
      } catch (...) {
        // Only reachable if the task's own failure *reporting* failed on
        // allocation (prepare reserves a slot to prevent exactly this);
        // there is no channel left, and this function is noexcept.
      }
    }
  }

  /// Post-publish backpressure (background mode with a bounded
  /// `max_pending_merges` only): if the ladder's compaction debt exceeds
  /// the cap, the writer stalls — every such stall is a
  /// `backpressure_events` tick, the observable "the bound bit" signal.
  /// Usually waiting out the in-flight task is enough (the chain replans
  /// as it splices); if the debt is still over budget after the wait
  /// (parked chain, cascade), claim the compaction token and settle the
  /// ladder on this thread. A merge failure here is recorded in the
  /// deferred-error queue (the batch is already consumed, so the
  /// strong-guarantee channel is closed); the old run list stays.
  void maybe_backpressure(const std::shared_ptr<Ladder>& lad)
      I2A_EXCLUDES(lad->mu) {
    if (opts_.compaction != Compaction::kBackground) return;
    if (opts_.max_pending_merges == kUnboundedPendingMerges) return;
    util::MutexLock lock(lad->mu);
    if (pending_merges_locked(lad) <= opts_.max_pending_merges) return;
    ++lad->stats.backpressure_events;
    while (lad->compacting) lad->cv.wait(lad->mu);
    if (pending_merges_locked(lad) <= opts_.max_pending_merges) return;
    lad->compacting = true;
    std::vector<Run> runs = lad->runs;
    lock.unlock();
    std::uint64_t compactions = 0;
    std::uint64_t merged_entries = 0;
    // The settle runs unlocked on a private copy; success/failure is
    // recorded and applied under one relock below, so no lock
    // transition sits on an exceptional edge (the thread-safety
    // analysis does not model unwinding).
    std::exception_ptr failure;
    try {
      settle_runs(runs, compactions, merged_entries);
    } catch (...) {
      failure = std::current_exception();
    }
    lock.lock();
    if (!failure) {
      lad->runs = std::move(runs);
      lad->stats.compactions += compactions;
      lad->stats.merged_entries += merged_entries;
    } else {
      // Partial settle progress is discarded (private copy); the failure
      // is delivered exactly once via drain()/the next ingest().
      lad->errors.push_back(failure);
    }
    lad->compacting = false;
    lock.unlock();
    lad->cv.notify_all();
  }

  /// How many merges the compaction policy still owes on a ladder's run
  /// list — simulated on the weights alone (no data touched). Caller
  /// holds the ladder lock.
  static std::size_t pending_merges_locked(const std::shared_ptr<Ladder>& lad)
      I2A_REQUIRES(lad->mu) {
    std::vector<std::uint64_t> w;
    w.reserve(lad->runs.size());
    for (const Run& r : lad->runs) w.push_back(r.weight);
    std::size_t merges = 0;
    for (auto [lo, hi] = plan_suffix(w); hi > lo;
         std::tie(lo, hi) = plan_suffix(w)) {
      std::uint64_t sum = 0;
      for (std::size_t i = lo; i < hi; ++i) sum += w[i];
      w.erase(w.begin() + static_cast<std::ptrdiff_t>(lo + 1),
              w.begin() + static_cast<std::ptrdiff_t>(hi));
      w[lo] = sum;
      ++merges;
    }
    return merges;
  }

  /// Run the compaction policy to a fixed point on a private run list,
  /// accumulating stat deltas. Throws on merge failure (callers decide
  /// the delivery channel); the list is then mid-settle but private.
  void settle_runs(std::vector<Run>& runs, std::uint64_t& compactions,
                   std::uint64_t& merged_entries) const {
    for (auto [lo, hi] = plan_suffix(runs); hi > lo;
         std::tie(lo, hi) = plan_suffix(runs)) {
      Run merged = merge_group(runs, lo, hi, p_, opts_.pool);
      // Injection site: between a finished merge and its splice — the
      // point where a failure has already paid the merge cost but must
      // still not corrupt the published list.
      I2A_FAILPOINT("builder.ladder.splice");
      merged_entries += static_cast<std::uint64_t>(merged.array->nnz());
      ++compactions;
      runs.erase(runs.begin() + static_cast<std::ptrdiff_t>(lo + 1),
                 runs.begin() + static_cast<std::ptrdiff_t>(hi));
      runs[lo] = std::move(merged);
    }
  }

  static std::uint64_t weight_of(const Run& r) { return r.weight; }
  static std::uint64_t weight_of(std::uint64_t w) { return w; }

  /// The compaction policy: merge the maximal *balanced* suffix — the
  /// longest tail in which every run's weight is ≤ the combined weight
  /// of the runs after it. Returns [lo, hi) over `runs`, empty (hi ==
  /// lo) when nothing qualifies. Settled lists are super-increasing ⇒
  /// ≤ log₂(total weight) + 1 runs, and each entry is remerged O(log)
  /// times — the logarithmic method, async-friendly. Works on the run
  /// list or on a bare weight list (the pending-merges simulation).
  template <typename RunsVec>
  static std::pair<std::size_t, std::size_t> plan_suffix(
      const RunsVec& runs) {
    if (runs.size() < 2) return {0, 0};
    std::size_t lo = runs.size() - 1;
    std::uint64_t tail = weight_of(runs[lo]);
    while (lo > 0 && weight_of(runs[lo - 1]) <= tail) {
      tail += weight_of(runs[lo - 1]);
      --lo;
    }
    if (runs.size() - lo < 2) return {0, 0};
    return {lo, runs.size()};
  }

  /// k-way ⊕-merge of runs[lo, hi), oldest first. Background tasks call
  /// this with pool == nullptr: the merge is pool-size invariant, and a
  /// detached task must not fan back into the pool it occupies.
  static Run merge_group(const std::vector<Run>& runs, std::size_t lo,
                         std::size_t hi, const P& p,
                         util::ThreadPool* pool) {
    std::vector<const Matrix*> group;
    group.reserve(hi - lo);
    std::uint64_t weight = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      group.push_back(runs[i].array.get());
      weight += runs[i].weight;
    }
    auto merged = sparse::merge_add_k(
        group,
        [&p](const value_type& x, const value_type& y) {
          return p.add(x, y);
        },
        pool);
    I2A_ENSURES(merged.is_canonical(),
                "AdjacencyBuilder: compaction produced non-canonical run");
    return Run{std::make_shared<const Matrix>(std::move(merged)), weight};
  }

  /// Under the ladder lock: if no merge is in flight and a suffix
  /// qualifies, mark one in flight and return the task that performs it.
  /// The task owns the ladder via shared_ptr (it may outlive the
  /// builder), captures the group's run handles by value (the runs are
  /// immutable; list indices stay valid because the writer only appends
  /// and only this task replaces), and re-plans on completion so carry
  /// chains keep compacting without writer involvement. All allocation
  /// happens *before* the token is taken, so a throw from here leaves
  /// the ladder unclaimed.
  static std::function<void()> plan_task_locked(std::shared_ptr<Ladder> lad,
                                                util::ThreadPool* pool, P p)
      I2A_REQUIRES(lad->mu) {
    if (lad->compacting) return nullptr;
    const auto [lo, hi] = plan_suffix(lad->runs);
    if (hi <= lo) return nullptr;
    std::vector<Run> group(lad->runs.begin() + static_cast<std::ptrdiff_t>(lo),
                           lad->runs.begin() + static_cast<std::ptrdiff_t>(hi));
    std::function<void()> task =
        [lad, pool, p = std::move(p),
         group = std::move(group), lo, hi]() mutable {
      // The merge runs unlocked; its outcome is committed under one
      // locked scope below so no lock operation sits on an exceptional
      // edge (the thread-safety analysis does not model unwinding).
      Run merged{};
      std::exception_ptr failure;
      try {
        merged = merge_group(group, 0, group.size(), p, nullptr);
        // Injection site: the background twin of the inline splice site —
        // the merge succeeded, the commit under the lock has not happened.
        I2A_FAILPOINT("builder.ladder.splice");
      } catch (...) {
        failure = std::current_exception();
      }
      std::function<void()> next;
      {
        util::MutexLock lock(lad->mu);
        if (!failure) {
          lad->runs.erase(
              lad->runs.begin() + static_cast<std::ptrdiff_t>(lo + 1),
              lad->runs.begin() + static_cast<std::ptrdiff_t>(hi));
          lad->runs[lo] = std::move(merged);
          ++lad->stats.compactions;
          lad->stats.merged_entries +=
              static_cast<std::uint64_t>(lad->runs[lo].array->nnz());
          lad->compacting = false;
          try {
            next = plan_task_locked(lad, pool, p);
          } catch (...) {
            // Replanning failed to allocate: the chain parks (token free),
            // the next publish replans. Nothing to report — no work lost.
          }
        } else {
          // The chain parks; the failure is delivered exactly once via
          // drain()/the next ingest(). (This push_back is the one spot
          // where reporting can itself fail on allocation — prepare
          // reserves a spare slot to keep that a corner of a corner; an
          // escape here lands in the pool's submit-error slot, never
          // std::terminate.)
          lad->errors.push_back(failure);
          lad->compacting = false;
        }
        lad->cv.notify_all();
      }
      if (next) {
        try {
          pool->submit(std::move(next));
        } catch (...) {
          // Re-chain submit failed: release the token the replan took
          // and park — the next publish replans the same suffix.
          util::MutexLock lock(lad->mu);
          lad->compacting = false;
          lad->cv.notify_all();
        }
      }
    };
    lad->compacting = true;  // only after every fallible step above
    return task;
  }

  index_t n_;
  P p_;
  /// As given, except that background compaction without a pool has
  /// degraded to inline.
  Options opts_;
  /// The coordination lock: orders (commit to every ladder) against
  /// (pin / read every ladder), so snapshots and stats see every ladder
  /// at one epoch. Always outermost — taken before any `Ladder::mu`,
  /// never the reverse (DESIGN.md §11). Heap-held so the builder stays
  /// movable.
  std::unique_ptr<util::Mutex> mu_;
  /// The shard ladders, indexed by `shard_of`.
  std::vector<std::shared_ptr<Ladder>> ladders_;
  // Durability (inert unless wal_ is engaged; writer-thread-only, like
  // every other ingest-path member).
  WalManifest manifest_;
  std::optional<Wal> wal_;
};

}  // namespace i2a::stream

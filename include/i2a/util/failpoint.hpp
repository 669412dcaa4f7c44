#pragma once
/// \file util/failpoint.hpp
/// \brief Failure injection: named, compile-time-erasable failpoints for
///        exercising every fallible site in the serving path
///        deterministically (DESIGN.md §10).
///
/// A *failpoint* is a named site in library code — `I2A_FAILPOINT(
/// "merge.output.alloc")` — that normally does nothing, but can be
/// *armed* by a test to throw on a chosen schedule: the next evaluation,
/// the nth evaluation, every evaluation, or a seeded coin flip per
/// evaluation. Sites stand in for the real failures that are hard to
/// provoke on demand (allocation failure mid-compaction, a throwing ⊕
/// deep inside a background merge), so the exception-safety guarantees
/// the streaming API documents can be swept exhaustively instead of
/// trusted (tests/test_failpoints.cpp).
///
/// **Zero cost when off.** The macro compiles to nothing unless the
/// build defines `I2A_FAILPOINTS` (CMake option of the same name; the CI
/// fault-injection leg turns it on, Release builds leave it off). The
/// registry class itself always compiles — tests reference it in both
/// configurations — but without the macro no library code ever calls
/// into it, so a Release binary carries no registry lookups, no strings,
/// and no mutex on any hot path.
///
/// **Registration is evaluation.** A site enters the registry the first
/// time control flow reaches it, armed or not. The injection sweep
/// therefore runs one clean warm-up workload to populate the registry,
/// asserts the site set matches the documented list (drift in either
/// direction fails the test), then arms each site in turn.
///
/// **Schedules** (`FailpointRegistry::Schedule`):
///   * `once()` / `nth(n)` — fire on the (n+1)ᵗʰ evaluation after
///     arming, then auto-disarm: one fire, exactly where you aimed.
///   * `always()` — fire on every evaluation until disarmed (the
///     "every carry re-chain throws" soak).
///   * `probabilistic(p, seed)` — fire each evaluation with probability
///     p, driven by a per-site splitmix64 stream seeded by the caller:
///     the same seed replays the same fire pattern for a fixed
///     evaluation order.
///
/// Each schedule chooses what to throw: `Kind::kError` throws
/// `FailpointError` (an ordinary library failure, e.g. a throwing ⊕),
/// `Kind::kBadAlloc` throws `std::bad_alloc` (an allocation failure at
/// the site). Arming/disarming is scoped with RAII (`ScopedFailpoint`)
/// so a failing CHECK can never leak an armed site into the next test.
///
/// Thread safety: every registry operation takes one internal mutex.
/// Sites are evaluated from worker threads (background compaction) and
/// armed from the test thread; the mutex is the entire story. The throw
/// itself happens after the lock is released.

#include <cstdint>
#include <map>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

#if defined(I2A_FAILPOINTS) && I2A_FAILPOINTS
#define I2A_FAILPOINTS_ENABLED 1
#else
#define I2A_FAILPOINTS_ENABLED 0
#endif

namespace i2a::util {

/// What an armed failpoint throws in `Kind::kError` mode. Derived from
/// std::runtime_error so generic catch sites treat it exactly like the
/// real failure it stands in for.
struct FailpointError final : std::runtime_error {
  explicit FailpointError(const std::string& site)
      : std::runtime_error("i2a: failpoint '" + site + "' fired") {}
};

/// Process-wide failpoint registry: site bookkeeping, arming, and the
/// fire decision. One instance per process (`instance()`).
class FailpointRegistry {
 public:
  /// What a fire throws.
  enum class Kind {
    kError,     ///< FailpointError — a library-level failure (e.g. ⊕ throws)
    kBadAlloc,  ///< std::bad_alloc — an allocation failure at the site
  };

  /// When an armed site fires. Build via the static factories; pass to
  /// `arm` or the `ScopedFailpoint` constructor.
  struct Schedule {
    /// Fire on the next evaluation, then auto-disarm.
    static Schedule once(Kind kind = Kind::kError) { return nth(0, kind); }
    /// Fire on evaluation index `n` (0-based, counted from arming), then
    /// auto-disarm.
    static Schedule nth(std::uint64_t n, Kind kind = Kind::kError) {
      Schedule s;
      s.mode_ = Mode::kNth;
      s.nth_ = n;
      s.kind_ = kind;
      return s;
    }
    /// Fire on every evaluation until disarmed.
    static Schedule always(Kind kind = Kind::kError) {
      Schedule s;
      s.mode_ = Mode::kAlways;
      s.kind_ = kind;
      return s;
    }
    /// Fire each evaluation with probability `p`, from a splitmix64
    /// stream seeded with `seed` — same seed, same evaluation order,
    /// same fire pattern.
    static Schedule probabilistic(double p, std::uint64_t seed,
                                  Kind kind = Kind::kError) {
      Schedule s;
      s.mode_ = Mode::kProbabilistic;
      s.probability_ = p;
      s.prng_ = seed;
      s.kind_ = kind;
      return s;
    }

   private:
    friend class FailpointRegistry;
    enum class Mode { kDisarmed, kNth, kAlways, kProbabilistic };
    Mode mode_ = Mode::kDisarmed;
    Kind kind_ = Kind::kError;
    std::uint64_t nth_ = 0;
    std::uint64_t prng_ = 0;
    double probability_ = 0.0;
  };

  static FailpointRegistry& instance() {
    static FailpointRegistry reg;
    return reg;
  }

  /// Site evaluation — what `I2A_FAILPOINT(name)` expands to in
  /// failpoint builds. Registers the site on first reach; throws per the
  /// armed schedule, after releasing the registry lock.
  void hit(const char* name) I2A_EXCLUDES(mu_) {
    Kind kind = Kind::kError;
    bool fire = false;
    {
      MutexLock lock(mu_);
      Site& site = sites_[name];  // registration on first evaluation
      ++site.evaluations;
      Schedule& sched = site.schedule;
      switch (sched.mode_) {
        case Schedule::Mode::kDisarmed:
          break;
        case Schedule::Mode::kNth:
          if (site.armed_evaluations++ == sched.nth_) {
            fire = true;
            sched.mode_ = Schedule::Mode::kDisarmed;  // one fire, auto-disarm
          }
          break;
        case Schedule::Mode::kAlways:
          ++site.armed_evaluations;
          fire = true;
          break;
        case Schedule::Mode::kProbabilistic: {
          ++site.armed_evaluations;
          const std::uint64_t draw = splitmix64(sched.prng_);
          fire = static_cast<double>(draw >> 11) * 0x1.0p-53 <
                 sched.probability_;
          break;
        }
      }
      if (fire) {
        ++site.fired;
        ++fired_;
        kind = sched.kind_;
      }
    }
    if (fire) {
      if (kind == Kind::kBadAlloc) throw std::bad_alloc();
      throw FailpointError(name);
    }
  }

  /// Arm `name` with `schedule`. The site need not have been evaluated
  /// yet (arming registers it), so tests can arm before the first pass
  /// through the code under test.
  void arm(const std::string& name, Schedule schedule) I2A_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    Site& site = sites_[name];
    site.schedule = schedule;
    site.armed_evaluations = 0;
  }

  /// Disarm `name`: clears the schedule, keeps registration + counters.
  void disarm(const std::string& name) I2A_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const auto it = sites_.find(name);
    if (it != sites_.end()) it->second.schedule = Schedule{};
  }

  /// Opaque snapshot of a site's armed schedule and its progress
  /// (evaluations counted since arming), captured by `exchange` and
  /// reinstated by `restore`. Lets nested `ScopedFailpoint`s on the same
  /// site compose: last-wins while the inner scope lives, the outer
  /// schedule resumes — including a partially-counted nth() — on unwind.
  struct ArmedState {
    Schedule schedule;
    std::uint64_t armed_evaluations = 0;
  };

  /// Arm `name` with `schedule` and return the state it displaced.
  ArmedState exchange(const std::string& name, Schedule schedule)
      I2A_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    Site& site = sites_[name];
    const ArmedState prior{site.schedule, site.armed_evaluations};
    site.schedule = schedule;
    site.armed_evaluations = 0;
    return prior;
  }

  /// Reinstate a state captured by `exchange`. A site that was never
  /// registered is ignored (cannot happen via ScopedFailpoint, whose
  /// constructor registers it).
  void restore(const std::string& name, const ArmedState& prior)
      I2A_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const auto it = sites_.find(name);
    if (it == sites_.end()) return;
    it->second.schedule = prior.schedule;
    it->second.armed_evaluations = prior.armed_evaluations;
  }

  void disarm_all() I2A_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    for (auto& [name, site] : sites_) site.schedule = Schedule{};
  }

  /// Every registered site name, sorted (std::map order). A site is
  /// registered by evaluation or by arming.
  std::vector<std::string> sites() const I2A_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    std::vector<std::string> out;
    out.reserve(sites_.size());
    for (const auto& [name, site] : sites_) out.push_back(name);
    return out;
  }

  /// Total fires across all sites since process start (see
  /// `failpoints_fired_total`).
  std::uint64_t fired() const I2A_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return fired_;
  }

  /// Per-site counters, for tests asserting exact delivery counts.
  std::uint64_t fired(const std::string& name) const I2A_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const auto it = sites_.find(name);
    return it == sites_.end() ? 0 : it->second.fired;
  }
  std::uint64_t evaluations(const std::string& name) const
      I2A_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const auto it = sites_.find(name);
    return it == sites_.end() ? 0 : it->second.evaluations;
  }

 private:
  struct Site {
    Schedule schedule;
    std::uint64_t evaluations = 0;        ///< lifetime reaches of the site
    std::uint64_t armed_evaluations = 0;  ///< reaches since last arm
    std::uint64_t fired = 0;              ///< lifetime fires
  };

  static std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  mutable Mutex mu_;
  std::map<std::string, Site> sites_ I2A_GUARDED_BY(mu_);
  std::uint64_t fired_ I2A_GUARDED_BY(mu_) = 0;
};

/// RAII arm/disarm: the site is armed for exactly this scope, so an
/// early return or a throwing CHECK cannot leak an armed failpoint into
/// unrelated code.
///
/// Nesting two scopes on the *same* site is defined as last-wins with
/// restore-on-unwind: the inner scope's schedule replaces the outer one
/// for its lifetime (the outer schedule is paused, its fire-progress
/// frozen), and when the inner scope unwinds the outer schedule resumes
/// exactly where it left off. A non-nested scope restores the disarmed
/// state, i.e. behaves as before.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string name, FailpointRegistry::Schedule schedule)
      : name_(std::move(name)),
        prior_(FailpointRegistry::instance().exchange(name_, schedule)) {}
  // NOLINTNEXTLINE(bugprone-exception-escape): restore only assigns into
  // an existing map entry (find + assign), which cannot throw; the
  // lookup allocates nothing.
  ~ScopedFailpoint() { FailpointRegistry::instance().restore(name_, prior_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  FailpointRegistry::ArmedState prior_;
};

/// Snapshot of the global fire counter — the process-wide injected-
/// failure count; 0 when failpoints are compiled out (so the count is
/// meaningful — and zero — in production builds).
inline std::uint64_t failpoints_fired_total() {
#if I2A_FAILPOINTS_ENABLED
  return FailpointRegistry::instance().fired();
#else
  return 0;
#endif
}

}  // namespace i2a::util

/// The site macro. In failpoint builds, evaluates the named site (may
/// throw per the armed schedule); otherwise compiles to nothing — no
/// registry call, no string, no lock.
#if I2A_FAILPOINTS_ENABLED
#define I2A_FAILPOINT(name) ::i2a::util::FailpointRegistry::instance().hit(name)
#else
#define I2A_FAILPOINT(name) static_cast<void>(0)
#endif

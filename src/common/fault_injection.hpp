// Deterministic fault injection for the durability and service layers.
//
// A fault *point* is a named site in the code (a WAL write, an fsync, an
// allocation on the synchronous delta path, a refinement task start) that
// asks the process-wide injector "should this call fail?" before doing the
// real work.  Disarmed, a compiled-in check costs one relaxed atomic load;
// builds configured with -DGAPART_FAULT_INJECTION=OFF compile the check out
// entirely (GAPART_FAULT_POINT folds to `false`), so production binaries pay
// exactly nothing.
//
// Decisions are deterministic: every site keeps a call counter, and in
// probability mode the verdict for call #n at site s is a pure hash of
// (seed, s, n).  A single-threaded test therefore sees the exact same fault
// schedule for the same seed, and a concurrent run's schedule is
// reproducible per site up to thread interleaving of the counter
// increments.  Nth-call mode (`arm_nth`) fails exactly one call at one site
// — the surgical tool for "the second fsync of the checkpoint dies"
// regression tests.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace gapart {

enum class FaultSite : int {
  kWalAppend = 0,     ///< WAL record write()
  kWalFsync,          ///< WAL / checkpoint fsync
  kFileWrite,         ///< graph/partition/checkpoint stream writes (io.cpp)
  kDeltaAlloc,        ///< allocations on the synchronous delta path
  kTaskStart,         ///< background refinement task start
  kTransportSend,     ///< replication link down: send fails (partition)
  kTransportDrop,     ///< replication frame silently dropped in flight
  kTransportDup,      ///< replication frame delivered twice
  kTransportReorder,  ///< replication frame overtakes its predecessor
  kTransportTruncate, ///< replication frame cut short (CRC must catch it)
  kCount_,            ///< sentinel, keep last
};

constexpr int kNumFaultSites = static_cast<int>(FaultSite::kCount_);

const char* fault_site_name(FaultSite site);

class FaultInjector {
 public:
  /// The process-wide injector every GAPART_FAULT_POINT consults.
  static FaultInjector& instance();

  /// Probability mode: every check at every site fails independently with
  /// `probability`, decided by hash(seed, site, per-site call index).
  void arm(std::uint64_t seed, double probability);

  /// Nth-call mode: exactly the `nth` check (1-based) at `site` fails.
  void arm_nth(FaultSite site, std::uint64_t nth);

  /// Stops injecting.  Counters are kept until reset_counts().
  void disarm();

  bool armed() const;

  /// The injection decision for one call at `site`.  Also counts the call
  /// (checked, and injected when it fails) while armed.
  bool should_fail(FaultSite site);

  struct SiteCounts {
    std::uint64_t checked = 0;
    std::uint64_t injected = 0;
  };
  SiteCounts counts(FaultSite site) const;
  std::uint64_t total_checked() const;
  std::uint64_t total_injected() const;
  void reset_counts();

 private:
  FaultInjector() = default;

  enum class Mode : int { kOff = 0, kProbability, kNth };

  struct AtomicCounts {
    std::atomic<std::uint64_t> checked{0};
    std::atomic<std::uint64_t> injected{0};
  };

  std::atomic<Mode> mode_{Mode::kOff};
  std::uint64_t seed_ = 0;
  double probability_ = 0.0;
  FaultSite nth_site_ = FaultSite::kWalAppend;
  std::uint64_t nth_ = 0;
  std::array<AtomicCounts, kNumFaultSites> counts_{};
};

/// RAII arm/disarm for tests: restores the disarmed state (and clears the
/// counters) on scope exit even when the test throws.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection(std::uint64_t seed, double probability);
  ScopedFaultInjection(FaultSite site, std::uint64_t nth);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace gapart

// The seam itself.  `GAPART_FAULT_POINT(site)` evaluates to true when the
// injector decides this call fails; the call site reacts (throw IoError,
// throw bad_alloc, abandon the task).  Compiled out to a constant false —
// zero code, zero branches — when GAPART_FAULT_INJECTION is not defined.
#ifdef GAPART_FAULT_INJECTION
#define GAPART_FAULT_POINT(site) \
  (::gapart::FaultInjector::instance().should_fail(site))
#else
#define GAPART_FAULT_POINT(site) (false)
#endif

// High-volume policy query front end — ROADMAP item 1's serving leg.
//
// A PolicyServer owns the *current* published snapshot (policy + provenance
// + a monotonically increasing version) and answers batched "evaluate policy
// at state x" queries against it. Queries ride the same pipeline the solver
// already uses: AsgPolicy::evaluate_batch / evaluate_gather, which — when
// the server is configured with a device — go through the
// parallel::DeviceDispatcher admission queue (coalesced batches,
// backpressure, CPU fallback). Nothing below the server is serving-specific.
//
// Hot swap (the zero-downtime contract): the published snapshot is a
// shared_ptr behind a mutex that guards nothing but the pointer. publish()
// builds the incoming snapshot completely off to the side — grids
// compressed, kernels bound, device attached — and only then swaps the
// pointer under the lock; no lock is held while either snapshot is being
// built or torn down. Readers pin the snapshot with one locked pointer copy
// per query, so
//   * a query never observes a half-built snapshot (publication is the
//     pointer swap, after full construction),
//   * a query never mixes two snapshots (it holds one pointer for its whole
//     batch — the returned version tags which one), and
//   * the old snapshot dies only when its last in-flight query drops the
//     pin (double buffering degenerates to refcounting; the dispatcher
//     destructor then drains any still-queued device batches).
// The swap-under-load stress test (tests/serve/) and bench_serve's
// swap-under-load proof enforce all three.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "core/policy.hpp"
#include "parallel/device_dispatcher.hpp"
#include "serve/snapshot.hpp"

namespace hddm::serve {

struct ServerOptions {
  /// Route queries through the batched device-offload pipeline: each
  /// published policy gets the standard hybrid-node setup
  /// (AsgPolicy::attach_default_device) before publication.
  bool attach_device = false;
  kernels::KernelKind device_kernel = kernels::KernelKind::SimGpu;
  parallel::DispatcherOptions offload;
};

/// Monotonic serving counters (relaxed telemetry, like DispatcherStats).
struct ServerStats {
  std::uint64_t queries = 0;  ///< evaluate_batch / evaluate_gather calls served
  std::uint64_t points = 0;   ///< evaluation points those calls carried
  std::uint64_t swaps = 0;    ///< snapshots published (initial publish included)
};

class PolicyServer {
 public:
  /// One published generation. Immutable after publication; queries pin it
  /// by shared_ptr for their whole batch.
  struct Snapshot {
    std::shared_ptr<core::AsgPolicy> policy;
    SnapshotMeta meta;
    std::uint64_t version = 0;  ///< 1, 2, ... in publication order
  };

  explicit PolicyServer(ServerOptions options = {});

  /// Publishes a new policy: finishes construction (device attach) off-line,
  /// then atomically replaces the current snapshot. In-flight queries keep
  /// the old one alive until they complete. Returns the new version.
  std::uint64_t publish(std::shared_ptr<core::AsgPolicy> policy, SnapshotMeta meta = {});

  /// Loads a snapshot file (full validation + ISA revalidation, see
  /// load_snapshot) and publishes it. Returns the new version.
  std::uint64_t load_and_publish(const std::string& path);

  /// True once a snapshot has been published; querying before that throws.
  [[nodiscard]] bool ready() const { return current() != nullptr; }

  /// The currently published snapshot (nullptr before the first publish).
  /// One locked pointer copy; safe from any thread.
  [[nodiscard]] std::shared_ptr<const Snapshot> current() const;

  /// Batched query against the current snapshot: xs holds npoints rows of
  /// the state dimension, out npoints rows of ndofs. Returns the version of
  /// the snapshot that served *every* point of this call (the torn-read
  /// oracle of the stress tests). Thread-safe; the swap seam locks only for
  /// the pointer copy.
  std::uint64_t evaluate_batch(int z, std::span<const double> xs, std::span<double> out,
                               std::size_t npoints) const;

  /// Gathered query across shocks (see PolicyEvaluator::evaluate_gather for
  /// layout and stride semantics). Same single-snapshot guarantee.
  std::uint64_t evaluate_gather(std::span<const core::GatherRequest> requests,
                                std::span<const double> xs, std::size_t npoints,
                                std::span<double> out, std::size_t out_stride) const;

  [[nodiscard]] ServerStats stats() const {
    return {queries_.load(std::memory_order_relaxed), points_.load(std::memory_order_relaxed),
            swaps_.load(std::memory_order_relaxed)};
  }

  /// Offload counters of the *current* snapshot's dispatcher (zeros without
  /// an attached device) — per-generation, reset by design at each swap.
  [[nodiscard]] parallel::DispatcherStats device_stats() const;

  [[nodiscard]] const ServerOptions& options() const { return opts_; }

 private:
  [[nodiscard]] std::shared_ptr<const Snapshot> pinned_or_throw() const;

  ServerOptions opts_;

  // The swap seam: the lock covers only the pointer copy, never snapshot
  // construction or destruction. (std::atomic<std::shared_ptr> would do the
  // same, but libstdc++ implements it with a lock ThreadSanitizer cannot see.)
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> snapshot_;
  std::atomic<std::uint64_t> next_version_{1};

  mutable std::atomic<std::uint64_t> queries_{0};
  mutable std::atomic<std::uint64_t> points_{0};
  std::atomic<std::uint64_t> swaps_{0};
};

}  // namespace hddm::serve

// Span and counter recording for the traced benchmark run.
//
// Spans are recorded by the benchmark's own decorators around calls into
// the library's public functions; the library itself is not instrumented.
// Each thread appends to its own in-memory buffer (a mutex is taken only the
// first time a thread records), and the buffers are read once all recording
// threads have quiesced. fold() turns the spans into a per-name table with
// self time: a span's duration minus the part of its interval that its
// child spans cover.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace perfbench {

/// What a span times. The prefix before the dot names the repo module.
enum class SpanKind : std::uint8_t {
  Step,        ///< core: one TimeIterationDriver::step call
  RankRun,     ///< cluster: one rank's run_distributed_time_iteration call
  SolvePoint,  ///< solver: one DynamicModel::solve_point call
  Warm,        ///< kernels: PolicyEvaluator::evaluate_batch (warm starts)
  Gather,      ///< kernels: evaluate_gather or evaluate (values)
  Grad,        ///< kernels: evaluate_gather_with_gradient
  Analytic,    ///< core: any evaluation of the analytic iteration-0 policy
  Synthetic,   ///< tests only
};
inline constexpr std::size_t kSpanKinds = 8;
std::string_view span_name(SpanKind kind);

/// Counters recorded at the same boundaries as the spans.
enum class Counter : std::uint8_t {
  PointSolves,
  FailedSolves,
  NewtonIterations,
  JacobianRefreshes,
  GatherRequests,
  GradRequests,
  Visits,  ///< requests x grid points of the shock each request walks
};
inline constexpr std::size_t kCounters = 7;

/// One finished span. `parent` indexes the same vector (-1: root).
struct Span {
  SpanKind kind = SpanKind::Synthetic;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int32_t thread = 0;
  [[nodiscard]] double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Per-name aggregate of fold().
struct LayerRow {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
using LayerTable = std::array<LayerRow, kSpanKinds>;

/// Self-time fold: for every span, its duration minus the measure of the
/// union of its children's intervals (clipped to its own interval), so a
/// parent whose children ran on several threads at once is not charged
/// negative time.
LayerTable fold(const std::vector<Span>& spans);

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Drops all recorded spans and counters and starts recording (or not).
  void reset(bool enabled);
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Spans opened on a thread with no open span of its own take this span
  /// as parent (how pool-worker spans attach to the step that forked them).
  void set_root(std::int64_t id) { root_.store(id); }

  /// Opens a span on the calling thread; returns its id.
  std::int64_t open(SpanKind kind);
  /// Closes the innermost open span of the calling thread.
  void close();
  void add(Counter counter, std::uint64_t n);

  /// All spans (parents re-indexed into the returned vector) and counter
  /// sums. Call only while no thread is recording.
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::array<std::uint64_t, kCounters> counters() const;

 private:
  struct Buffer {
    std::int32_t thread = 0;
    std::vector<Span> spans;
    std::vector<std::int64_t> open;  // ids of this thread's open spans
    std::array<std::uint64_t, kCounters> counters{};
  };
  Buffer& local();
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }

  bool enabled_ = false;
  std::uint64_t generation_ = 0;
  Clock::time_point epoch_ = Clock::now();
  std::atomic<std::int64_t> root_{-1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// The process-wide tracer the decorators record into.
Tracer& tracer();

/// RAII span on tracer() — a no-op when tracing is off.
class Scope {
 public:
  explicit Scope(SpanKind kind) : on_(tracer().enabled()) {
    if (on_) tracer().open(kind);
  }
  ~Scope() {
    if (on_) tracer().close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool on_;
};

}  // namespace perfbench

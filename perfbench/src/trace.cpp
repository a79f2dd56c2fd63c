#include "trace.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

std::string_view span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::Step: return "core.step";
    case SpanKind::RankRun: return "cluster.rank_run";
    case SpanKind::SolvePoint: return "solver.solve_point";
    case SpanKind::Warm: return "kernels.warm";
    case SpanKind::Gather: return "kernels.gather";
    case SpanKind::Grad: return "kernels.grad";
    case SpanKind::Analytic: return "core.initial_policy";
    case SpanKind::Synthetic: return "synthetic";
  }
  return "?";
}

LayerTable fold(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0) children[static_cast<std::size_t>(spans[i].parent)].push_back(i);

  LayerTable table{};
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    iv.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;

    LayerRow& row = table[static_cast<std::size_t>(s.kind)];
    row.calls += 1;
    row.total_s += s.seconds();
    row.self_s += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return table;
}

namespace {
struct LocalSlot {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local LocalSlot t_slot;
constexpr int kIdShift = 32;
}  // namespace

void Tracer::reset(bool enabled) {
  const std::lock_guard lock(mu_);
  buffers_.clear();
  ++generation_;
  root_.store(-1);
  epoch_ = Clock::now();
  enabled_ = enabled;
}

Tracer::Buffer& Tracer::local() {
  if (t_slot.generation != generation_ || t_slot.buffer == nullptr) {
    const std::lock_guard lock(mu_);
    auto buf = std::make_unique<Buffer>();
    buf->thread = static_cast<std::int32_t>(buffers_.size());
    buf->spans.reserve(1 << 12);
    t_slot.buffer = buf.get();
    t_slot.generation = generation_;
    buffers_.push_back(std::move(buf));
  }
  return *static_cast<Buffer*>(t_slot.buffer);
}

std::int64_t Tracer::open(SpanKind kind) {
  Buffer& b = local();
  Span s;
  s.kind = kind;
  s.parent = b.open.empty() ? root_.load(std::memory_order_relaxed) : b.open.back();
  s.thread = b.thread;
  const auto id = (static_cast<std::int64_t>(b.thread) << kIdShift) |
                  static_cast<std::int64_t>(b.spans.size());
  b.open.push_back(id);
  s.start_ns = now_ns();
  b.spans.push_back(s);
  return id;
}

void Tracer::close() {
  const std::int64_t t = now_ns();
  Buffer& b = local();
  const auto index = static_cast<std::size_t>(b.open.back() & ((std::int64_t{1} << kIdShift) - 1));
  b.open.pop_back();
  b.spans[index].end_ns = t;
}

void Tracer::add(Counter counter, std::uint64_t n) {
  local().counters[static_cast<std::size_t>(counter)] += n;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard lock(mu_);
  std::vector<std::int64_t> offset(buffers_.size(), 0);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    offset[i] = total;
    total += static_cast<std::int64_t>(buffers_[i]->spans.size());
  }
  std::vector<Span> out;
  out.reserve(static_cast<std::size_t>(total));
  for (const auto& buf : buffers_) {
    for (Span s : buf->spans) {
      if (s.parent >= 0)
        s.parent = offset[static_cast<std::size_t>(s.parent >> kIdShift)] +
                   (s.parent & ((std::int64_t{1} << kIdShift) - 1));
      out.push_back(s);
    }
  }
  return out;
}

std::array<std::uint64_t, kCounters> Tracer::counters() const {
  const std::lock_guard lock(mu_);
  std::array<std::uint64_t, kCounters> sum{};
  for (const auto& buf : buffers_)
    for (std::size_t c = 0; c < kCounters; ++c) sum[c] += buf->counters[c];
  return sum;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

}  // namespace perfbench

// Self-tests of the benchmark harness:
//   1. the self-time fold on a synthetic span tree (nested children on one
//      thread, overlapping children on several threads, a child reaching
//      past its parent);
//   2. the decorators change nothing: two olg-d4 steps driven with and
//      without TimedModel/TimedEvaluator give bitwise-identical surpluses.
#include <cstdio>
#include <cstring>
#include <vector>

#include "decorators.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void test_fold() {
  using perfbench::Span;
  using perfbench::SpanKind;
  auto span = [](SpanKind k, std::int64_t s, std::int64_t e, std::int64_t parent, int thread) {
    Span sp;
    sp.kind = k;
    sp.start_ns = s;
    sp.end_ns = e;
    sp.parent = parent;
    sp.thread = thread;
    return sp;
  };
  const std::int64_t ms = 1000000;
  std::vector<Span> spans = {
      // 0: step [0, 100) ms on thread 0
      span(SpanKind::Step, 0, 100 * ms, -1, 0),
      // 1, 2: solves on two threads overlapping in [20, 40); union [10, 60)
      span(SpanKind::SolvePoint, 10 * ms, 40 * ms, 0, 1),
      span(SpanKind::SolvePoint, 20 * ms, 60 * ms, 0, 2),
      // 3, 4: gathers nested in solve 1 (sequential, 5 + 10 ms)
      span(SpanKind::Gather, 12 * ms, 17 * ms, 1, 1),
      span(SpanKind::Gather, 20 * ms, 30 * ms, 1, 1),
      // 5: a gradient gather in solve 2 reaching 10 ms past its parent
      span(SpanKind::Grad, 50 * ms, 70 * ms, 2, 2),
      // 6: a root span of its own with no children
      span(SpanKind::Synthetic, 200 * ms, 203 * ms, -1, 3),
  };
  const perfbench::LayerTable t = perfbench::fold(spans);
  auto row = [&](SpanKind k) { return t[static_cast<std::size_t>(k)]; };
  expect(row(SpanKind::Step).calls == 1, "fold: step calls");
  expect(near(row(SpanKind::Step).total_s, 0.100), "fold: step total");
  expect(near(row(SpanKind::Step).self_s, 0.050), "fold: step self = 100 - union(10..60)");
  expect(row(SpanKind::SolvePoint).calls == 2, "fold: solve calls");
  expect(near(row(SpanKind::SolvePoint).total_s, 0.070), "fold: solve total");
  expect(near(row(SpanKind::SolvePoint).self_s, 0.070 - 0.015 - 0.010),
         "fold: solve self = 70 - 15 nested - 10 clipped");
  expect(near(row(SpanKind::Gather).self_s, 0.015), "fold: gather self");
  expect(near(row(SpanKind::Grad).self_s, 0.020), "fold: grad self");
  expect(near(row(SpanKind::Synthetic).self_s, 0.003), "fold: lone root self");

  // The recorder itself: nesting on one thread links parents.
  perfbench::tracer().reset(true);
  {
    const perfbench::Scope outer(SpanKind::Step);
    const perfbench::Scope inner(SpanKind::Gather);
  }
  const std::vector<Span> rec = perfbench::tracer().spans();
  perfbench::tracer().reset(false);
  expect(rec.size() == 2 && rec[0].parent == -1 && rec[1].parent == 0,
         "tracer: nested scope records its parent");
}

/// Two steps from the analytic policy; returns every shock's surpluses.
std::vector<double> two_steps(bool decorated) {
  const auto model = perfbench::make_olg_d4();
  const perfbench::TimedModel timed_model(*model, false);
  const hddm::core::DynamicModel& m =
      decorated ? static_cast<const hddm::core::DynamicModel&>(timed_model) : *model;
  hddm::core::TimeIterationDriver driver(m, perfbench::olg_d4_options());
  const hddm::core::InitialPolicyEvaluator initial(m);
  perfbench::tracer().reset(decorated);
  std::shared_ptr<hddm::core::AsgPolicy> policy;
  const hddm::core::PolicyEvaluator* p_next = &initial;
  for (int it = 0; it < 2; ++it) {
    hddm::core::IterationStats stats;
    const perfbench::TimedEvaluator timed(*p_next);
    policy = driver.step(decorated ? static_cast<const hddm::core::PolicyEvaluator&>(timed)
                                   : *p_next,
                         stats);
    p_next = policy.get();
  }
  perfbench::tracer().reset(false);
  std::vector<double> all;
  for (int z = 0; z < policy->num_shocks(); ++z) {
    const auto& s = policy->grid(z).dense().surplus;
    all.insert(all.end(), s.begin(), s.end());
  }
  return all;
}

void test_decorators_bitwise() {
  const std::vector<double> plain = two_steps(false);
  const std::vector<double> decorated = two_steps(true);
  expect(!plain.empty() && plain.size() == decorated.size() &&
             std::memcmp(plain.data(), decorated.data(), plain.size() * sizeof(double)) == 0,
         "decorators: olg-d4 surpluses differ bitwise with the decorators on");
}

}  // namespace

int main() {
  test_fold();
  test_decorators_bitwise();
  std::printf("perfbench selftest: %s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

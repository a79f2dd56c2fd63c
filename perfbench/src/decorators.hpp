// Timing decorators around the library's public model and policy
// interfaces. They forward every call unchanged to the wrapped object, so a
// solve driven through them computes bit-for-bit what it computes without
// them; when tracer() is on they record one span per call plus counters.
#pragma once

#include "core/model.hpp"
#include "core/policy.hpp"
#include "trace.hpp"

namespace perfbench {

/// PolicyEvaluator decorator: warm-start batches, value gathers and
/// gradient gathers each get a span and request / visit counts. Hiding the
/// wrapped AsgPolicy from TimeIterationDriver::step's dynamic_cast is a side
/// effect: the step's gather counters then read zero, so callers take them
/// from the inner policy's gather_stats() instead.
class TimedEvaluator final : public hddm::core::PolicyEvaluator {
 public:
  explicit TimedEvaluator(const hddm::core::PolicyEvaluator& inner);

  [[nodiscard]] int num_shocks() const override { return inner_.num_shocks(); }
  [[nodiscard]] int ndofs() const override { return inner_.ndofs(); }
  void evaluate(int z, std::span<const double> x_unit, std::span<double> out) const override;
  void evaluate_batch(int z, std::span<const double> xs, std::span<double> out,
                      std::size_t npoints) const override;
  void evaluate_gather(std::span<const hddm::core::GatherRequest> requests,
                       std::span<const double> xs, std::size_t npoints, std::span<double> out,
                       std::size_t out_stride) const override;
  void evaluate_gather_with_gradient(std::span<const hddm::core::GatherRequest> requests,
                                     std::span<const double> xs, std::size_t npoints,
                                     std::span<double> values, std::size_t value_stride,
                                     std::span<double> grads,
                                     std::size_t grad_stride) const override;

 private:
  /// The span kind of a call: grid-kernel work, or the analytic policy.
  [[nodiscard]] SpanKind kind(SpanKind grid_kind) const;
  /// Grid points walked per evaluation of shock z (0 for non-grid policies).
  [[nodiscard]] std::uint64_t nno(int z) const;
  [[nodiscard]] std::uint64_t visits(std::span<const hddm::core::GatherRequest> requests) const;

  const hddm::core::PolicyEvaluator& inner_;
  const hddm::core::AsgPolicy* asg_;
};

/// DynamicModel decorator: one span per solve_point plus solve, failure,
/// Newton-iteration and Jacobian-refresh counts. With `wrap_p_next` the
/// p_next each solve receives is wrapped in a TimedEvaluator — the way to
/// see gathers inside drivers that build p_next themselves (the cluster).
class TimedModel final : public hddm::core::DynamicModel {
 public:
  TimedModel(const hddm::core::DynamicModel& inner, bool wrap_p_next)
      : inner_(inner), wrap_(wrap_p_next) {}

  [[nodiscard]] int state_dim() const override { return inner_.state_dim(); }
  [[nodiscard]] int num_shocks() const override { return inner_.num_shocks(); }
  [[nodiscard]] int ndofs() const override { return inner_.ndofs(); }
  [[nodiscard]] const hddm::sg::BoxDomain& domain() const override { return inner_.domain(); }
  [[nodiscard]] int indicator_dofs() const override { return inner_.indicator_dofs(); }
  [[nodiscard]] std::vector<double> initial_policy(int z,
                                                   std::span<const double> x_unit) const override {
    return inner_.initial_policy(z, x_unit);
  }
  [[nodiscard]] hddm::core::PointSolveResult solve_point(
      int z, std::span<const double> x_unit, const hddm::core::PolicyEvaluator& p_next,
      std::span<const double> warm_start) const override;
  [[nodiscard]] double equilibrium_residual(int z, std::span<const double> x_unit,
                                            const hddm::core::PolicyEvaluator& p) const override {
    return inner_.equilibrium_residual(z, x_unit, p);
  }

 private:
  const hddm::core::DynamicModel& inner_;
  bool wrap_;
};

}  // namespace perfbench

#include "decorators.hpp"

#include "trace.hpp"

namespace perfbench {

using hddm::core::GatherRequest;

TimedEvaluator::TimedEvaluator(const hddm::core::PolicyEvaluator& inner)
    : inner_(inner), asg_(dynamic_cast<const hddm::core::AsgPolicy*>(&inner)) {}

SpanKind TimedEvaluator::kind(SpanKind grid_kind) const {
  return asg_ != nullptr ? grid_kind : SpanKind::Analytic;
}

std::uint64_t TimedEvaluator::nno(int z) const {
  return asg_ != nullptr ? asg_->grid(z).num_points() : 0;
}

std::uint64_t TimedEvaluator::visits(std::span<const GatherRequest> requests) const {
  if (asg_ == nullptr) return 0;
  std::uint64_t v = 0;
  for (const GatherRequest& r : requests) v += nno(r.z);
  return v;
}

void TimedEvaluator::evaluate(int z, std::span<const double> x_unit, std::span<double> out) const {
  const Scope span(kind(SpanKind::Gather));
  inner_.evaluate(z, x_unit, out);
  if (tracer().enabled()) {
    tracer().add(Counter::GatherRequests, 1);
    tracer().add(Counter::Visits, nno(z));
  }
}

void TimedEvaluator::evaluate_batch(int z, std::span<const double> xs, std::span<double> out,
                                    std::size_t npoints) const {
  const Scope span(kind(SpanKind::Warm));
  inner_.evaluate_batch(z, xs, out, npoints);
  if (tracer().enabled()) tracer().add(Counter::Visits, npoints * nno(z));
}

void TimedEvaluator::evaluate_gather(std::span<const GatherRequest> requests,
                                     std::span<const double> xs, std::size_t npoints,
                                     std::span<double> out, std::size_t out_stride) const {
  const Scope span(kind(SpanKind::Gather));
  inner_.evaluate_gather(requests, xs, npoints, out, out_stride);
  if (tracer().enabled()) {
    tracer().add(Counter::GatherRequests, requests.size());
    tracer().add(Counter::Visits, visits(requests));
  }
}

void TimedEvaluator::evaluate_gather_with_gradient(std::span<const GatherRequest> requests,
                                                   std::span<const double> xs,
                                                   std::size_t npoints, std::span<double> values,
                                                   std::size_t value_stride,
                                                   std::span<double> grads,
                                                   std::size_t grad_stride) const {
  const Scope span(kind(SpanKind::Grad));
  inner_.evaluate_gather_with_gradient(requests, xs, npoints, values, value_stride, grads,
                                       grad_stride);
  if (tracer().enabled()) {
    tracer().add(Counter::GradRequests, requests.size());
    tracer().add(Counter::Visits, visits(requests));
  }
}

hddm::core::PointSolveResult TimedModel::solve_point(int z, std::span<const double> x_unit,
                                                     const hddm::core::PolicyEvaluator& p_next,
                                                     std::span<const double> warm_start) const {
  const Scope span(SpanKind::SolvePoint);
  hddm::core::PointSolveResult res;
  if (wrap_) {
    const TimedEvaluator timed(p_next);
    res = inner_.solve_point(z, x_unit, timed, warm_start);
  } else {
    res = inner_.solve_point(z, x_unit, p_next, warm_start);
  }
  if (tracer().enabled()) {
    tracer().add(Counter::PointSolves, 1);
    tracer().add(Counter::FailedSolves, res.converged ? 0 : 1);
    tracer().add(Counter::NewtonIterations, static_cast<std::uint64_t>(res.solver_iterations));
    tracer().add(Counter::JacobianRefreshes,
                 static_cast<std::uint64_t>(res.jacobian.analytic_refreshes +
                                            res.jacobian.fd_refreshes));
  }
  return res;
}

}  // namespace perfbench

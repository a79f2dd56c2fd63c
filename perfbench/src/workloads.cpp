#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <stop_token>
#include <thread>

#include "benchlib/sysinfo.hpp"
#include "cluster/distributed_ti.hpp"
#include "cluster/sim_comm.hpp"
#include "decorators.hpp"
#include "irbc/irbc_model.hpp"
#include "kernels/kernel_api.hpp"
#include "olg/calibration.hpp"
#include "olg/olg_model.hpp"
#include "serve/policy_server.hpp"
#include "serve/snapshot.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace core = hddm::core;
namespace cluster = hddm::cluster;
namespace serve = hddm::serve;
namespace sg = hddm::sg;
using Clock = std::chrono::steady_clock;

namespace {

// ---- fixed sizes -----------------------------------------------------------

constexpr std::size_t kPoolThreads = 3;  // + the calling thread = 4 executors
constexpr int kClusterRanks = 4;
constexpr int kSetupReps = 9;            // set-ups per run; setup_s is their median
constexpr double kWarmupSeconds = 2.0;   // untimed steps before the first timed solve
constexpr double kSolveShare = 0.6;      // of --seconds spent on repeated solves; the rest serves
constexpr int kReaders = 3;              // closed-loop query threads
constexpr std::size_t kQueryPoints = 32;
constexpr std::uint64_t kMinQueries = 1500;  // so p99 has >= 10 samples beyond it
constexpr auto kPublishPeriod = std::chrono::milliseconds(200);
constexpr std::uint64_t kSampleEvery = 64;   // every 64th response is re-checked
constexpr int kEulerPoints = 16000;          // off-grid points for euler_error

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double median(const std::vector<double>& v) { return hddm::util::percentile(v, 0.5); }

/// User + system CPU seconds of every thread of the process so far.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- workloads -------------------------------------------------------------

enum class Driver { SingleNode, Cluster };

struct Workload {
  std::string name;
  std::string model_label;
  Driver driver = Driver::SingleNode;
  std::function<std::unique_ptr<core::DynamicModel>()> make_model;
  core::TimeIterationOptions options;
};

std::unique_ptr<core::DynamicModel> make_irbc_n8() {
  hddm::irbc::IrbcCalibration cal;
  cal.countries = 8;  // d = 8; max_shock_bits = 4 gives Ns = 16
  return std::make_unique<hddm::irbc::IrbcModel>(cal);
}

core::TimeIterationOptions irbc_n8_options() {
  core::TimeIterationOptions o;
  o.base_level = 2;
  o.refine_epsilon = 0.01;
  o.max_level = 4;
  o.tolerance = 1e-4;
  o.max_iterations = 100;
  o.threads = kPoolThreads;
  return o;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"olg-d4", "olg reduced_calibration(5,2,2)", Driver::SingleNode, make_olg_d4,
       olg_d4_options()},
      {"irbc-n8", "irbc countries=8", Driver::SingleNode, make_irbc_n8, irbc_n8_options()},
      {"irbc-n8-cluster", "irbc countries=8", Driver::Cluster, make_irbc_n8,
       irbc_n8_options()},
  };
  return all;
}

// ---- solving ---------------------------------------------------------------

/// The counts a converged solve must reproduce exactly, traced or not.
struct SolveCounts {
  int iterations = 0;
  std::uint64_t points = 0;        ///< grid points of the final policy
  std::uint64_t point_solves = 0;  ///< solve_point calls over all steps
  std::uint64_t failed = 0;        ///< solves that did not converge
  bool operator==(const SolveCounts&) const = default;
};

struct Solve {
  SolveCounts counts;
  bool converged = false;
  double seconds = 0.0;
  double cpu_seconds = 0.0;  // every thread of the process, set-up excluded
  std::shared_ptr<core::AsgPolicy> policy;
  std::vector<core::IterationStats> history;  // cluster: rank 0's
  // traced runs only
  std::vector<Span> spans;
  std::array<std::uint64_t, kCounters> counters{};
  core::GatherStats gathers;  // summed per-step deltas of every p_next
  std::vector<double> rank_seconds;
};

SolveCounts counts_from_history(const std::vector<core::IterationStats>& history,
                                const core::AsgPolicy& policy) {
  SolveCounts c;
  c.iterations = static_cast<int>(history.size());
  c.points = policy.total_points();
  for (const auto& s : history) {
    c.point_solves += s.total_points;
    c.failed += s.solver_failures;
  }
  return c;
}

/// True when both policies hold the same grids with bitwise-equal surpluses.
bool same_surpluses(const core::AsgPolicy& a, const core::AsgPolicy& b) {
  if (a.num_shocks() != b.num_shocks()) return false;
  for (int z = 0; z < a.num_shocks(); ++z) {
    const sg::DenseGridData& da = a.grid(z).dense();
    const sg::DenseGridData& db = b.grid(z).dense();
    if (da.pairs != db.pairs || da.surplus.size() != db.surplus.size() ||
        std::memcmp(da.surplus.data(), db.surplus.data(), da.surplus.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

/// Untraced single-node solve: the library's own TimeIterationDriver::run().
Solve solve_single(const core::DynamicModel& model, const core::TimeIterationOptions& opts) {
  core::TimeIterationDriver driver(model, opts);
  const auto t0 = Clock::now();
  core::TimeIterationResult r = driver.run();
  Solve out;
  out.seconds = since(t0);
  out.converged = r.converged;
  out.policy = std::move(r.policy);
  out.history = std::move(r.history);
  out.counts = counts_from_history(out.history, *out.policy);
  return out;
}

/// Traced single-node solve: drives TimeIterationDriver::step with run()'s
/// exact stopping rule, the model and every p_next wrapped in decorators.
Solve solve_single_traced(const core::DynamicModel& model, const core::TimeIterationOptions& opts) {
  const TimedModel timed_model(model, /*wrap_p_next=*/false);
  core::TimeIterationDriver driver(timed_model, opts);
  const core::InitialPolicyEvaluator initial(timed_model);
  const core::PolicyEvaluator* p_next = &initial;
  std::shared_ptr<core::AsgPolicy> current;

  Solve out;
  tracer().reset(true);
  const auto t0 = Clock::now();
  for (int it = 0; it < opts.max_iterations; ++it) {
    core::IterationStats stats;
    stats.iteration = it;
    const TimedEvaluator timed(*p_next);
    const auto* inner = dynamic_cast<const core::AsgPolicy*>(p_next);
    const core::GatherStats before = inner ? inner->gather_stats() : core::GatherStats{};

    tracer().set_root(tracer().open(SpanKind::Step));
    std::shared_ptr<core::AsgPolicy> next = driver.step(timed, stats);
    tracer().close();
    tracer().set_root(-1);

    if (inner) {
      const core::GatherStats d = inner->gather_stats().since(before);
      out.gathers.gathers += d.gathers;
      out.gathers.fastpath_gathers += d.fastpath_gathers;
    }
    out.history.push_back(stats);
    current = std::move(next);
    p_next = current.get();
    if (it > 0 && stats.policy_change_linf < opts.tolerance) {
      out.converged = true;
      break;
    }
  }
  out.seconds = since(t0);
  out.spans = tracer().spans();
  out.counters = tracer().counters();
  tracer().reset(false);

  out.policy = std::move(current);
  out.counts.iterations = static_cast<int>(out.history.size());
  out.counts.points = out.policy->total_points();
  out.counts.point_solves = out.counters[static_cast<std::size_t>(Counter::PointSolves)];
  out.counts.failed = out.counters[static_cast<std::size_t>(Counter::FailedSolves)];
  return out;
}

cluster::DistributedOptions cluster_options(const core::TimeIterationOptions& o) {
  cluster::DistributedOptions d;
  d.base_level = o.base_level;
  d.refine_epsilon = o.refine_epsilon;
  d.max_level = o.max_level;
  d.max_iterations = o.max_iterations;
  d.tolerance = o.tolerance;
  d.kernel = o.kernel;
  return d;
}

/// Cluster solve: timed calls to run_distributed_time_iteration on every
/// rank. Untraced, failures are summed over all ranks' histories (each rank
/// reports only its own); traced, they come from the model decorator.
Solve solve_cluster(const core::DynamicModel& model, const core::TimeIterationOptions& opts,
                    bool traced) {
  const cluster::DistributedOptions dopts = cluster_options(opts);
  const TimedModel timed_model(model, /*wrap_p_next=*/true);
  const core::DynamicModel& m = traced ? static_cast<const core::DynamicModel&>(timed_model) : model;
  std::vector<cluster::DistributedResult> results(kClusterRanks);

  Solve out;
  out.rank_seconds.assign(kClusterRanks, 0.0);
  tracer().reset(traced);
  const auto t0 = Clock::now();
  cluster::SimCluster::run(kClusterRanks, [&](cluster::SimComm world) {
    const auto r0 = Clock::now();
    const auto rank = static_cast<std::size_t>(world.rank());
    {
      const Scope span(SpanKind::RankRun);
      results[rank] = cluster::run_distributed_time_iteration(world, m, dopts);
    }
    out.rank_seconds[rank] = since(r0);
  });
  out.seconds = since(t0);
  if (traced) {
    out.spans = tracer().spans();
    out.counters = tracer().counters();
  }
  tracer().reset(false);

  out.converged = true;
  for (const auto& r : results)
    out.converged = out.converged && r.converged && r.history.size() == results[0].history.size();
  out.policy = results[0].policy;
  out.history = results[0].history;
  out.counts = counts_from_history(out.history, *out.policy);
  out.counts.failed = 0;
  for (const auto& r : results)
    for (const auto& s : r.history) out.counts.failed += s.solver_failures;
  if (traced) {
    out.counts.point_solves = out.counters[static_cast<std::size_t>(Counter::PointSolves)];
    out.counts.failed = out.counters[static_cast<std::size_t>(Counter::FailedSolves)];
  }
  return out;
}

Solve solve(const Workload& w, const core::DynamicModel& model, bool traced) {
  const double cpu0 = cpu_seconds();
  Solve s = w.driver == Driver::Cluster ? solve_cluster(model, w.options, traced)
            : traced                     ? solve_single_traced(model, w.options)
                                         : solve_single(model, w.options);
  s.cpu_seconds = cpu_seconds() - cpu0;
  return s;
}

/// Untimed single-node steps of the workload's model for kWarmupSeconds, so
/// the timed solves start on busy cores with warm allocator arenas rather
/// than on cores that were idle during the build and set-up.
void warm_up(const Workload& w, const core::DynamicModel& model) {
  core::TimeIterationDriver driver(model, w.options);
  const core::InitialPolicyEvaluator initial(model);
  std::shared_ptr<core::AsgPolicy> policy;
  const auto t0 = Clock::now();
  while (since(t0) < kWarmupSeconds) {
    core::IterationStats stats;
    policy = driver.step(policy ? static_cast<const core::PolicyEvaluator&>(*policy) : initial,
                         stats);
  }
}

/// Median of kSetupReps constructions of the solve side: model (economy
/// included) and, for the single-node driver, the TimeIterationDriver.
double solve_setup_seconds(const Workload& w) {
  std::vector<double> t;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    const auto model = w.make_model();
    std::unique_ptr<core::TimeIterationDriver> driver;
    if (w.driver == Driver::SingleNode)
      driver = std::make_unique<core::TimeIterationDriver>(*model, w.options);
    t.push_back(since(t0));
  }
  return median(t);
}

/// Radical inverse of n in base b: the n-th point of a 1-D van der Corput
/// sequence, one coordinate of a Halton point.
double radical_inverse(std::uint64_t n, std::uint64_t b) {
  double r = 0.0;
  double f = 1.0 / static_cast<double>(b);
  for (; n > 0; n /= b, f /= static_cast<double>(b)) r += f * static_cast<double>(n % b);
  return r;
}

/// Geometric mean of the equilibrium residuals of `policy` at kEulerPoints
/// off-grid points spread evenly over the shocks — the mean log Euler error
/// of the economics literature, mapped back to a residual. The residuals are
/// heavy-tailed (on olg-d4 the largest is ~2000x the median, at infeasible
/// box corners), so an arithmetic mean would follow a few draws of the seed.
/// The points are a Halton sequence shifted modulo 1 by a seeded random
/// offset per dimension: every seed gets its own points, and the
/// low-discrepancy sequence keeps the seed-to-seed spread of the estimate
/// below that of independent uniform draws.
double euler_error(const core::DynamicModel& model, const core::PolicyEvaluator& policy,
                   std::uint64_t seed) {
  static constexpr std::uint64_t kPrimes[] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37};
  const auto d = static_cast<std::size_t>(model.state_dim());
  if (d > std::size(kPrimes)) throw std::invalid_argument("euler_error: state_dim too large");
  hddm::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xE11E);
  std::vector<double> shift(d);
  for (double& u : shift) u = rng.uniform();

  const int ns = model.num_shocks();
  const int per_shock = std::max(1, kEulerPoints / ns);
  std::vector<double> x(d);
  double log_sum = 0.0;
  for (int k = 0; k < per_shock; ++k) {
    for (std::size_t t = 0; t < d; ++t) {
      const double h = radical_inverse(static_cast<std::uint64_t>(k) + 1, kPrimes[t]) + shift[t];
      x[t] = h - std::floor(h);
    }
    for (int z = 0; z < ns; ++z)
      log_sum += std::log(std::max(model.equilibrium_residual(z, x, policy), 1e-300));
  }
  return std::exp(log_sum / static_cast<double>(ns * per_shock));
}

// ---- serving ---------------------------------------------------------------

struct Sample {
  int z = 0;
  std::vector<double> xs, out;
  std::uint64_t version = 0;
};

struct ServeReport {
  std::vector<double> setup_s;  // one first load_and_publish per fresh server
  std::vector<double> latency_us;
  std::vector<double> publish_ms;
  double elapsed_s = 0.0;
  std::uint64_t queries = 0, points = 0, failed_queries = 0, failed_publishes = 0;
  double visits = 0.0;  // points x grid points of the queried shock
  std::uint64_t bytes = 0;
  hddm::kernels::KernelKind kernel = hddm::kernels::KernelKind::Gold;
  std::vector<std::string> errors;
};

/// Saves `policy` as a snapshot, loads it into fresh servers kSetupReps
/// times (set-up), then runs kReaders closed-loop query threads for
/// `seconds` beside one writer that re-publishes the same file every
/// kPublishPeriod, and checks every served response it sampled bitwise
/// against an independently loaded copy.
ServeReport serve_phase(const core::AsgPolicy& policy, const Workload& w, const std::string& path,
                        std::uint64_t seed, double seconds) {
  ServeReport rep;
  serve::SnapshotMeta meta;
  meta.model = w.name;
  meta.params = w.model_label;
  serve::save_snapshot(policy, meta, path);
  rep.bytes = std::filesystem::file_size(path);

  std::unique_ptr<serve::PolicyServer> server;
  for (int r = 0; r < kSetupReps; ++r) {
    auto fresh = std::make_unique<serve::PolicyServer>();
    const auto t0 = Clock::now();
    fresh->load_and_publish(path);
    rep.setup_s.push_back(since(t0));
    server = std::move(fresh);
  }
  rep.kernel = server->current()->policy->kernel_kind();
  const std::vector<std::uint32_t> nno = policy.points_per_shock();
  const int ns = policy.num_shocks();
  const auto d = static_cast<std::size_t>(policy.grid(0).dense().dim);
  const auto nd = static_cast<std::size_t>(policy.ndofs());

  std::mutex mu;  // guards published, rep.publish_ms, rep.failed_publishes
  std::set<std::uint64_t> published{server->current()->version};
  std::condition_variable_any cv;
  // jthreads: a throw below still stops and joins every thread before the
  // state they use goes away.
  std::jthread writer([&](const std::stop_token& stop) {
    auto next = Clock::now() + kPublishPeriod;
    for (;;) {
      {
        std::unique_lock lock(mu);
        cv.wait_until(lock, stop, next, [] { return false; });
      }
      if (stop.stop_requested()) return;
      const auto t0 = Clock::now();
      try {
        const std::uint64_t v = server->load_and_publish(path);
        const double ms = since(t0) * 1e3;
        const std::lock_guard lock(mu);
        published.insert(v);
        rep.publish_ms.push_back(ms);
      } catch (const std::exception&) {
        const std::lock_guard lock(mu);
        ++rep.failed_publishes;
      }
      next += kPublishPeriod;
    }
  });

  struct ReaderLog {
    std::vector<double> latency_us;
    std::vector<Sample> samples;
    std::set<std::uint64_t> versions;
    std::uint64_t failed = 0;
    double visits = 0.0;
  };
  std::vector<ReaderLog> logs(kReaders);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  std::vector<std::jthread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ReaderLog& log = logs[static_cast<std::size_t>(r)];
      hddm::util::Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(r) + 1);
      std::vector<double> xs(kQueryPoints * d), out(kQueryPoints * nd);
      for (std::uint64_t q = 0;; ++q) {
        if (q >= kMinQueries / kReaders && Clock::now() >= deadline) break;
        const int z = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(ns)));
        for (double& xi : xs) xi = rng.uniform();
        const auto t0 = Clock::now();
        std::uint64_t version = 0;
        try {
          version = server->evaluate_batch(z, xs, out, kQueryPoints);
        } catch (const std::exception&) {
          ++log.failed;
          continue;
        }
        log.latency_us.push_back(since(t0) * 1e6);
        log.versions.insert(version);
        log.visits += static_cast<double>(kQueryPoints) * nno[static_cast<std::size_t>(z)];
        if (q % kSampleEvery == 0) log.samples.push_back({z, xs, out, version});
      }
    });
  }
  for (auto& t : readers) t.join();
  rep.elapsed_s = since(start);
  writer.request_stop();
  writer.join();

  const serve::LoadedSnapshot reference = serve::load_snapshot(path);
  if (reference.kernel != rep.kernel)
    rep.errors.push_back("serve: independent load chose another kernel than the server");
  std::vector<double> check(kQueryPoints * nd);
  std::size_t samples = 0, differing = 0, unpublished = 0;
  for (const ReaderLog& log : logs) {
    rep.latency_us.insert(rep.latency_us.end(), log.latency_us.begin(), log.latency_us.end());
    rep.failed_queries += log.failed;
    rep.visits += log.visits;
    for (const std::uint64_t v : log.versions) unpublished += published.count(v) == 0 ? 1 : 0;
    for (const Sample& s : log.samples) {
      reference.policy->evaluate_batch(s.z, s.xs, check, kQueryPoints);
      ++samples;
      if (std::memcmp(check.data(), s.out.data(), check.size() * sizeof(double)) != 0)
        ++differing;
    }
  }
  if (differing > 0)
    rep.errors.push_back("serve: " + std::to_string(differing) + " of " +
                         std::to_string(samples) +
                         " sampled responses differ from the independent load");
  if (unpublished > 0)
    rep.errors.push_back("serve: " + std::to_string(unpublished) +
                         " versions that served queries were never published");
  rep.queries = rep.latency_us.size();
  rep.points = rep.queries * kQueryPoints;
  if (rep.failed_queries > 0) rep.errors.push_back("serve: queries threw");
  if (rep.failed_publishes > 0) rep.errors.push_back("serve: load_and_publish threw");
  if (rep.publish_ms.empty()) rep.errors.push_back("serve: no publish ran beside the readers");
  std::filesystem::remove(path);
  return rep;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string fmt(double v, int digits = 4) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

/// The per-layer metrics of a traced run: the traced solve `t`, the mean
/// time of the untraced solves around it, and the serve phase.
void add_layer_metrics(RunResult& res, const Workload& w, const Solve& t, double untraced_s,
                       const ServeReport& sv) {
  auto add = [&](const std::string& name, double value, const std::string& unit) {
    res.metrics.push_back({name, value, unit});
  };
  const LayerTable table = fold(t.spans);
  auto row = [&](SpanKind k) { return table[static_cast<std::size_t>(k)]; };
  auto count = [&](Counter k) {
    return static_cast<double>(t.counters[static_cast<std::size_t>(k)]);
  };
  const bool single = w.driver == Driver::SingleNode;

  double step_s = 0.0, solve_phase_s = 0.0, hier_s = 0.0;
  for (const auto& s : t.history) {
    step_s += s.seconds;
    solve_phase_s += s.solve_seconds;
    hier_s += s.hierarchize_seconds;
  }
  // Pool work: every span a worker opened directly under a step.
  double busy_s = 0.0;
  if (single)
    for (const Span& s : t.spans)
      if (s.parent >= 0 && t.spans[static_cast<std::size_t>(s.parent)].kind == SpanKind::Step)
        busy_s += s.seconds();
  const double executors = static_cast<double>(kPoolThreads + 1);
  const double capacity = executors * solve_phase_s;

  const double kernel_s = row(SpanKind::Gather).total_s + row(SpanKind::Grad).total_s +
                          row(SpanKind::Warm).total_s;
  add("kernels.gather_s", row(SpanKind::Gather).total_s, "s");
  add("kernels.grad_s", row(SpanKind::Grad).total_s, "s");
  add("kernels.warm_s", row(SpanKind::Warm).total_s, "s");
  add("kernels.gather_requests", count(Counter::GatherRequests), "count");
  add("kernels.grad_requests", count(Counter::GradRequests), "count");
  add("kernels.visits", count(Counter::Visits), "count");
  add("kernels.ns_per_visit",
      count(Counter::Visits) > 0 ? kernel_s * 1e9 / count(Counter::Visits) : 0.0, "ns");
  add("kernels.fastpath_share",
      t.gathers.gathers > 0 ? static_cast<double>(t.gathers.fastpath_gathers) /
                                  static_cast<double>(t.gathers.gathers)
                            : 0.0,
      "ratio");
  add("sparse_grid.hierarchize_s", hier_s, "s");
  add("solver.self_s", row(SpanKind::SolvePoint).self_s, "s");
  add("solver.point_solves", count(Counter::PointSolves), "count");
  add("solver.failed", count(Counter::FailedSolves), "count");
  add("solver.newton_iterations", count(Counter::NewtonIterations), "count");
  add("solver.jacobian_refreshes", count(Counter::JacobianRefreshes), "count");
  add("parallel.busy_s", busy_s, "s");
  add("parallel.idle_s", single ? capacity - busy_s : 0.0, "s");
  add("parallel.utilization", capacity > 0.0 ? busy_s / capacity : 0.0, "ratio");
  add("core.step_s", step_s, "s");
  add("core.solve_phase_s", solve_phase_s, "s");
  add("core.other_s", single ? step_s - solve_phase_s - hier_s : 0.0, "s");
  add("core.iterations", t.counts.iterations, "count");
  add("core.points", static_cast<double>(t.counts.points), "count");
  double rank_step = 0.0;
  for (const double s : t.rank_seconds) rank_step += s;
  const double ranks = single ? 1.0 : static_cast<double>(kClusterRanks);
  const double rank_busy = single ? 0.0 : row(SpanKind::SolvePoint).total_s / ranks;
  add("cluster.rank_step_s", rank_step / ranks, "s");
  add("cluster.rank_busy_s", rank_busy, "s");
  add("cluster.rank_wait_s", single ? 0.0 : rank_step / ranks - rank_busy, "s");

  double query_ns = 0.0;
  for (const double us : sv.latency_us) query_ns += us * 1e3;
  add("serve.ns_per_visit", sv.visits > 0.0 ? query_ns / sv.visits : 0.0, "ns");
  add("serve.queries", static_cast<double>(sv.queries), "count");
  add("serve.points", static_cast<double>(sv.points), "count");
  add("serve.publish_count", static_cast<double>(sv.publish_ms.size()), "count");
  add("serve.publish_p50_ms", hddm::util::percentile(sv.publish_ms, 0.5), "ms");
  add("serve.publish_max_ms",
      sv.publish_ms.empty() ? 0.0 : *std::max_element(sv.publish_ms.begin(), sv.publish_ms.end()),
      "ms");
  add("serve.snapshot_load_s", median(sv.setup_s), "s");
  add("serve.snapshot_bytes", static_cast<double>(sv.bytes), "bytes");

  add("trace.overhead_s", t.seconds - untraced_s, "s");
  add("trace.overhead_share", (t.seconds - untraced_s) / untraced_s, "ratio");
  res.notes.push_back("trace: traced solve " + fmt(t.seconds) + " s vs untraced " +
                      fmt(untraced_s) + " s (mean of the solves before and after), " +
                      std::to_string(t.spans.size()) + " spans");
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    if (table[k].calls == 0) continue;
    res.notes.push_back("layer " + std::string(span_name(static_cast<SpanKind>(k))) +
                        ": calls " + std::to_string(table[k].calls) + ", total " +
                        fmt(table[k].total_s) + " s, self " + fmt(table[k].self_s) + " s");
  }
}

}  // namespace

std::unique_ptr<core::DynamicModel> make_olg_d4() {
  return std::make_unique<hddm::olg::OlgModel>(
      hddm::olg::build_economy(hddm::olg::reduced_calibration(5, 2, 2)));
}

core::TimeIterationOptions olg_d4_options() {
  core::TimeIterationOptions o;
  o.base_level = 2;
  o.refine_epsilon = 0.03;
  o.max_level = 7;
  o.tolerance = 1e-4;
  o.max_iterations = 100;
  o.threads = kPoolThreads;
  return o;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.push_back(w.name);
  return names;
}

RunResult run_workload(const RunOptions& ro) {
  const Workload& w = find_workload(ro.workload);
  RunResult res;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) res.errors.push_back(what);
  };
  const std::string path = ro.workdir + "/" + w.name + ".hsnap";

  const auto build = hddm::benchlib::build_info();
  res.labels = {
      {"workload", w.name},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"best_supported_kernel",
       std::string(hddm::kernels::kernel_name(hddm::kernels::best_supported_kernel()))},
      {"solve_kernel", std::string(hddm::kernels::kernel_name(w.options.kernel))},
      {"compiler", build.compiler},
      {"build_type", build.build_type},
      {"git_sha", build.git_sha},
  };

  const double solve_setup = solve_setup_seconds(w);
  const auto model = w.make_model();
  warm_up(w, *model);

  // Solve phase: untraced solves to tolerance, repeated while the run's
  // solve share of --seconds lasts. The traced run solves untraced, traced,
  // untraced instead, so drift during the run cancels out of the overhead.
  std::vector<Solve> solves;
  std::optional<Solve> traced;
  if (ro.trace) {
    solves.push_back(solve(w, *model, /*traced=*/false));
    traced = solve(w, *model, /*traced=*/true);
    solves.push_back(solve(w, *model, /*traced=*/false));
  } else {
    const auto solve_start = Clock::now();
    do {
      solves.push_back(solve(w, *model, /*traced=*/false));
    } while (since(solve_start) < kSolveShare * ro.seconds);
  }
  std::vector<double> solve_s, solve_cpu_s;
  for (const Solve& s : solves) {
    solve_s.push_back(s.seconds);
    solve_cpu_s.push_back(s.cpu_seconds);
    res.failed += s.converged ? 0 : 1;
    check(s.converged, "solve: did not converge within max_iterations");
    check(s.counts == solves.front().counts, "solve: counts differ between repeated solves");
    check(same_surpluses(*s.policy, *solves.front().policy),
          "solve: surpluses differ bitwise between repeated solves");
  }
  res.attempted += solves.size();
  const Solve& first = solves.front();
  const SolveCounts& c = first.counts;
  res.notes.push_back("solve: " + std::to_string(solves.size()) + " untraced solve(s), " +
                      std::to_string(c.iterations) + " iterations, " + std::to_string(c.points) +
                      " points, " + std::to_string(c.point_solves) + " point solves, " +
                      std::to_string(c.failed) + " failed");
  std::string times;
  for (std::size_t i = 0; i < solve_s.size(); ++i)
    times += ' ' + fmt(solve_s[i]) + '/' + fmt(solve_cpu_s[i]);
  res.notes.push_back("solve wall/cpu seconds:" + times);

  if (traced) {
    res.attempted += 1;
    res.failed += traced->converged ? 0 : 1;
    check(traced->converged, "traced solve: did not converge");
    const SolveCounts& t = traced->counts;
    check(t == c, "traced solve: counts differ from the untraced solve (iterations " +
                      std::to_string(t.iterations) + "/" + std::to_string(c.iterations) +
                      ", points " + std::to_string(t.points) + "/" + std::to_string(c.points) +
                      ", point solves " + std::to_string(t.point_solves) + "/" +
                      std::to_string(c.point_solves) + ", failed " + std::to_string(t.failed) +
                      "/" + std::to_string(c.failed) + ")");
    check(same_surpluses(*traced->policy, *first.policy),
          "traced solve: surpluses differ bitwise from the untraced solve");
  }

  const double euler = ro.trace ? 0.0 : euler_error(*model, *first.policy, ro.seed);
  if (!ro.trace) check(std::isfinite(euler) && euler > 0.0, "euler_error is not finite");

  // Taken before serving: the serve phase's peak depends on how many retired
  // snapshot generations the readers happen to pin at once.
  const double rss_mb = peak_rss_mb();

  const double serve_seconds = std::max(1.0, (1.0 - kSolveShare) * ro.seconds);
  ServeReport sv = serve_phase(*first.policy, w, path, ro.seed, serve_seconds);
  res.errors.insert(res.errors.end(), sv.errors.begin(), sv.errors.end());
  res.attempted += sv.queries + sv.failed_queries + sv.publish_ms.size() + sv.failed_publishes;
  res.failed += sv.failed_queries + sv.failed_publishes;
  res.labels.emplace_back("serve_kernel", std::string(hddm::kernels::kernel_name(sv.kernel)));
  // The reported tail percentile must leave at least ten samples beyond it.
  check(static_cast<double>(sv.latency_us.size()) * 0.01 >= 10.0,
        "serve: too few queries for a p99");
  res.notes.push_back("serve: " + std::to_string(sv.queries) + " queries of " +
                      std::to_string(kQueryPoints) + " points from " + std::to_string(kReaders) +
                      " closed-loop readers in " + fmt(sv.elapsed_s) + " s, " +
                      std::to_string(sv.publish_ms.size()) + " publishes beside them, kernel " +
                      std::string(hddm::kernels::kernel_name(sv.kernel)));

  if (!ro.trace) {
    res.metrics = {
        {"time_to_tol_s", median(solve_s), "s"},
        {"setup_s", solve_setup + median(sv.setup_s), "s"},
        {"failed_share", static_cast<double>(c.failed) / static_cast<double>(c.point_solves),
         "ratio"},
        {"euler_error", euler, "ratio"},
        {"points_per_s", static_cast<double>(sv.points) / sv.elapsed_s, "1/s"},
        {"query_p50_us", hddm::util::percentile(sv.latency_us, 0.50), "us"},
        {"query_p99_us", hddm::util::percentile(sv.latency_us, 0.99), "us"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    add_layer_metrics(res, w, *traced, median(solve_s), sv);
  }

  res.correct = res.errors.empty();
  return res;
}

}  // namespace perfbench

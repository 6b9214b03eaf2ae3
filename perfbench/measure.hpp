// Workloads and the measured run of the benchmark (see perfbench.cpp).
//
// One run = one single-threaded harness::Cluster driven from outside
// through public calls only: construction, start(), scheduler(),
// replica(i), client(i) and snapshot(). A sampling event the benchmark
// schedules every kSampleStep of simulated time reads the client
// counters (for outage and request ages) and ticks the benchmark's own
// harness::SafetyChecker, so every simulated figure is a function of
// (workload, seed) alone — never of how the run is chopped into host
// windows.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/client/stats.hpp"
#include "src/harness/cluster.hpp"
#include "src/obs/trace.hpp"

namespace perfbench {

using eesmr::sim::Duration;

/// Simulated sampling grid for client counters (outage, request ages).
constexpr Duration kSampleStep = eesmr::sim::milliseconds(1);
/// Safety-checker cadence: four hop bounds, as Cluster::run_for ticks.
constexpr int kCheckerEverySamples = 40;
/// KV-digest cross-check cadence.
constexpr int kDigestEverySamples = 1000;
/// Simulated time every run continues after the clients' last submission.
constexpr Duration kDrain = eesmr::sim::seconds(2);
/// Hard end of a run whose clients never exhaust their budgets.
constexpr Duration kCap = eesmr::sim::seconds(90);
/// Simulated length of one host window; kKernelUnitsPerWindow reference
/// kernel units and one set-up sample run between windows.
constexpr Duration kHostWindow = eesmr::sim::milliseconds(500);
constexpr int kKernelUnitsPerWindow = 2;
// The drain is set at a sampling point inside a window, so a window no
// longer than the drain never overshoots the end of the run.
static_assert(kHostWindow <= kDrain);

struct Workload {
  std::string name;
  /// Everything but the seed.
  eesmr::harness::ClusterConfig cfg;
  /// Independent clusters per run, seeded from the run's seed; their
  /// requests, energy and counters are pooled (outage: the longest).
  int clusters = 1;
  /// Summary of the configuration, printed with the results.
  std::string config_note;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);
eesmr::harness::ClusterConfig config_for(const Workload& w, std::uint64_t seed);

/// One named figure with its unit and the number of samples behind it.
struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 1;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

/// Everything the simulation produced that must repeat exactly for one
/// (workload, seed): end-to-end simulated metrics, per-layer counters and
/// the final KV digests.
struct SimOutcome {
  Metrics end_to_end;
  Metrics layers;
  std::vector<std::pair<std::string, std::uint64_t>> events_by_kind;
  std::vector<std::string> kv_digests;
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t unanswered = 0;

  /// Canonical text of every field, for exact comparison between runs.
  [[nodiscard]] std::string fingerprint() const;
};

/// Host-side split of a traced run.
struct TraceSplit {
  double total_s = 0;  ///< wall-clock of the stepped run, snapshot excluded
  std::map<std::string, double> kind_s;  ///< per scheduler event kind
  double checker_s = 0;   ///< safety-checker ticks and KV-digest checks
  std::uint64_t checks = 0;  ///< safety-checker ticks
  double sampler_s = 0;   ///< the benchmark's sampling events, net of checks
  /// Identifying each stepped event's kind (the tracing's own cost).
  double stepping_s = 0;
  /// Every request's lifecycle, per phase name: submit-relative times of
  /// the requests that reached the phase, and the ages at the end of
  /// their run of those that did not.
  std::map<std::string, eesmr::client::LatencyHistogram> phase_reached;
  std::map<std::string, std::vector<Duration>> phase_unreached_age;
  Metrics unit_costs;  ///< ns per call, measured on the run's own chain
};

struct RunRecord {
  SimOutcome sim;
  double run_s = 0;     ///< host time of the simulated run
  double kernel_s = 0;  ///< host time of the interleaved kernel units
  /// Cluster::snapshot() + RunResult::summarize(), summed over clusters
  /// (part of run_s in untraced runs, outside trace.total_s in traced ones).
  double snapshot_s = 0;
  int kernel_units = 0;
  /// Set-up samples taken between windows, in seconds and in units of
  /// the reference kernel run just before each of them.
  std::vector<double> setup_s;
  std::vector<double> setup_units;
  std::string failure;  ///< non-empty on a correctness failure
  TraceSplit trace;     ///< traced runs only
};

struct RunMode {
  /// Step event by event, split host time by kind, sample request
  /// lifecycles and measure unit costs.
  bool traced = false;
  /// Receives the per-kind host slices of a traced run (may be null).
  eesmr::obs::Tracer* split_tracer = nullptr;
  /// Host window, at most kHostWindow; the self-test varies it to show the
  /// simulated figures do not depend on it.
  Duration window = kHostWindow;
};

RunRecord run_workload(const Workload& w, std::uint64_t seed,
                       const RunMode& mode);

/// Seconds of one Cluster construction + start() (the set-up cost).
double time_setup(const Workload& w, std::uint64_t seed);

/// Wall-clock seconds of `units` reference-kernel units.
double time_kernel(int units);

/// `reached` plus one sample per unreached age, each raised to just above
/// the slowest reached sample, so every unreached request ranks after
/// every reached one.
eesmr::client::LatencyHistogram with_unreached(
    eesmr::client::LatencyHistogram reached,
    const std::vector<Duration>& unreached_age);

/// Lower median of `v`; 0 when empty.
double median(std::vector<double> v);

}  // namespace perfbench

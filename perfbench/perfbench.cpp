// perfbench: one benchmark for the simulated system (energy, latency,
// goodput, outage) and for the simulator itself (host cost per run).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//   perfbench --selftest
//
// Each workload runs as single-threaded harness::Clusters, one after the
// other, seeded from --seed (measure.cpp has the three configurations;
// only eesmr-agg-chase pools several clusters per run). The last line
// of standard output is one JSON object:
//   {"correct": true, "attempted": R, "failed": 0, "metrics": {...}}
// where R counts the simulated runs made and every run passed the
// correctness gate; a failing gate prints the reason on stderr and exits
// 1 without a result.
//
// --trace 0 reports the end-to-end metrics:
//   setup_s            Cluster construction + start(), one sample between
//                      each two host windows; median, in seconds at the
//                      reference speed (each sample divided by the
//                      kernel unit timed just before it, times 1 ms),
//                      because raw host seconds on a shared machine drift
//                      by up to 2x between runs (raw: host.setup_raw_s)
//   host_cost          host time of the run / host time of one
//                      reference-kernel unit, kernel units interleaved
//                      between fixed simulated windows; median over runs
//   peak_rss_mb        host peak resident set of the process
//   goodput_rps        accepted requests per simulated second of activity
//   latency_p50_ms,    simulated submit->accept, nearest rank over every
//   latency_p99_ms     submitted request; an unanswered request counts as
//                      its age at the end of the run (never below the
//                      slowest answered one), so it ranks after them
//   answered_frac      share of submitted requests answered by the end of
//                      the drain that follows the clients' last
//                      submission (its complement, failed_frac, is
//                      printed in the table and reported per layer)
//   energy_per_req_mj  counted-replica energy / accepted requests
//   outage_ms          longest simulated interval with requests pending
//                      and no new acceptance, sampled every 1 ms
// Simulated metrics are exact functions of (workload, seed); the runs of
// one invocation must agree on them bit for bit.
//
// --trace 1 runs the workload untraced for half of --seconds (at least
// once), then once stepped event by event, and reports the per-layer
// metrics: scheduler, network, codec,
// crypto, SMR, protocol, client, checkpoint and energy counters, the
// traced host split by event kind with its unattributed remainder, the
// tracing overhead, the phases of every request and unit costs measured on
// the run's own committed chain. The split is also written as a Chrome
// trace (--trace-out) that opens in Perfetto.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "measure.hpp"

using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

/// Nominal host time of one reference-kernel unit: setup_s is reported
/// as seconds on a machine that runs a unit in exactly this long.
constexpr double kReferenceUnitS = 1e-3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  bool selftest = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = std::stoi(value());
    } else if (k == "--trace-out") {
      a.trace_out = value();
    } else if (k == "--selftest") {
      a.selftest = true;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  return a;
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

const Metric& find(const Metrics& m, const std::string& name) {
  for (const auto& [n, metric] : m) {
    if (n == name) return metric;
  }
  throw std::out_of_range("no metric " + name);
}

void print_table(const std::string& title, const Metrics& m) {
  std::printf("%s\n", title.c_str());
  for (const auto& [name, metric] : m) {
    std::printf("  %-40s %16.6g %-9s n=%llu\n", name.c_str(), metric.value,
                metric.unit.c_str(),
                static_cast<unsigned long long>(metric.samples));
  }
}

void print_result(int attempted, const Metrics& m) {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(attempted) +
                    ", \"failed\": 0, \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    out += (i == 0 ? "" : ", ") + std::string("\"") + m[i].first +
           "\": {\"value\": " + number(m[i].second.value) + ", \"unit\": \"" +
           m[i].second.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double unit_s(const RunRecord& r) {
  return r.kernel_s / static_cast<double>(r.kernel_units);
}

/// Host cost of a run in reference-kernel units.
double host_cost(const RunRecord& r, double run_s) {
  return run_s / unit_s(r);
}

[[noreturn]] void fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: CORRECTNESS FAILURE: %s\n", why.c_str());
  std::exit(1);
}

void require_ok(const RunRecord& r) {
  if (!r.failure.empty()) fail(r.failure);
}

/// Untraced runs of `w` until `seconds` of wall-clock have passed and at
/// least `min_runs` ran. Every run must pass the correctness gate and
/// repeat the first run's simulated metrics exactly.
std::vector<RunRecord> untraced_runs(const Workload& w, std::uint64_t seed,
                                     double seconds, std::size_t min_runs) {
  const auto t0 = Clock::now();
  std::vector<RunRecord> runs;
  while (runs.size() < min_runs ||
         std::chrono::duration<double>(Clock::now() - t0).count() < seconds) {
    runs.push_back(run_workload(w, seed, RunMode{}));
    require_ok(runs.back());
    if (runs.back().sim.fingerprint() != runs.front().sim.fingerprint()) {
      fail("two runs of seed " + std::to_string(seed) +
           " produced different simulated metrics");
    }
  }
  return runs;
}

int run_end_to_end(const Workload& w, const Args& a) {
  time_kernel(20);  // warm caches and clocks before anything is timed
  const std::vector<RunRecord> runs = untraced_runs(w, a.seed, a.seconds, 2);
  std::vector<double> costs;
  std::vector<double> setup;
  for (const RunRecord& r : runs) {
    costs.push_back(host_cost(r, r.run_s));
    setup.insert(setup.end(), r.setup_units.begin(), r.setup_units.end());
  }

  Metrics m;
  const auto n = static_cast<std::uint64_t>(runs.size());
  m.push_back({"setup_s",
               {median(setup) * kReferenceUnitS, "s", setup.size()}});
  m.push_back({"host_cost", {median(costs), "x_ref", n}});
  m.push_back({"peak_rss_mb", {peak_rss_mb(), "MB", 1}});
  for (const auto& entry : runs.front().sim.end_to_end) m.push_back(entry);

  std::vector<double> run_s;
  for (const RunRecord& r : runs) run_s.push_back(r.run_s);
  std::printf("workload %s seed %llu: %s\n", w.name.c_str(),
              static_cast<unsigned long long>(a.seed), w.config_note.c_str());
  std::printf("  requests: %llu submitted, %llu accepted, %llu unanswered; "
              "%zu runs, median host %.3f s\n",
              static_cast<unsigned long long>(runs.front().sim.submitted),
              static_cast<unsigned long long>(runs.front().sim.accepted),
              static_cast<unsigned long long>(runs.front().sim.unanswered),
              runs.size(), median(run_s));
  print_table("end-to-end metrics", m);
  // Share unanswered after the drain: the complement of answered_frac,
  // printed for reading; the gated figure is answered_frac because this
  // one is 0 on a healthy workload.
  std::printf("  %-40s %16.6g %-9s n=%llu\n", "failed_frac",
              1.0 - find(m, "answered_frac").value, "fraction",
              static_cast<unsigned long long>(find(m, "answered_frac").samples));
  print_result(static_cast<int>(runs.size()), m);
  return 0;
}

int run_layers(const Workload& w, const Args& a) {
  time_kernel(20);
  // Half the time for untraced runs, the rest for one traced run.
  const std::vector<RunRecord> plain = untraced_runs(w, a.seed, a.seconds / 2, 1);
  const RunRecord& base = plain.front();
  std::vector<double> plain_costs;
  std::vector<double> plain_run_s;
  std::vector<double> raw_setup;
  std::vector<double> plain_snapshot_s;
  for (const RunRecord& r : plain) {
    plain_snapshot_s.push_back(r.snapshot_s);
    plain_costs.push_back(host_cost(r, r.run_s));
    plain_run_s.push_back(r.run_s);
    raw_setup.insert(raw_setup.end(), r.setup_s.begin(), r.setup_s.end());
  }

  eesmr::obs::Tracer split_tracer;
  split_tracer.open_epoch("perfbench " + w.name + " seed " +
                          std::to_string(a.seed) + " host split");
  RunMode traced;
  traced.traced = true;
  traced.split_tracer = &split_tracer;
  const RunRecord tr = run_workload(w, a.seed, traced);
  require_ok(tr);
  if (tr.sim.fingerprint() != base.sim.fingerprint()) {
    fail("traced and untraced runs produced different simulated metrics");
  }

  // Scheduler counters first, then the traced host split by event kind,
  // then the other layers' counters.
  const TraceSplit& s = tr.trace;
  const auto is_sim = [](const std::string& name) {
    return name.rfind("sim.", 0) == 0;
  };
  Metrics m;
  for (const auto& entry : tr.sim.layers) {
    if (is_sim(entry.first)) m.push_back(entry);
  }
  double kinds_s = 0;
  for (const auto& [kind, secs] : s.kind_s) kinds_s += secs;
  const double events = find(m, "sim.events").value;
  m.push_back({"sim.ns_per_event", {kinds_s * 1e9 / std::max(events, 1.0), "ns",
                                    static_cast<std::uint64_t>(events)}});
  const std::string prefix = "sim.events.";
  double listed_s = 0;
  for (const auto& [name, metric] : tr.sim.layers) {
    if (name.rfind(prefix, 0) != 0 || name == "sim.events.other") continue;
    const auto it = s.kind_s.find(name.substr(prefix.size()));
    const double secs = it != s.kind_s.end() ? it->second : 0.0;
    listed_s += secs;
    m.push_back({"sim.host_share." + name.substr(prefix.size()),
                 {secs / s.total_s, "fraction",
                  static_cast<std::uint64_t>(metric.value)}});
  }
  m.push_back({"sim.host_share.other",
               {(kinds_s - listed_s) / s.total_s, "fraction", 1}});
  const double unattributed = s.total_s - kinds_s - s.checker_s -
                              s.sampler_s - s.stepping_s;
  m.push_back({"sim.host_share.unattributed",
               {unattributed / s.total_s, "fraction", 1}});
  for (const auto& entry : tr.sim.layers) {
    if (!is_sim(entry.first)) m.push_back(entry);
  }

  // Everything the traced run cost, its snapshot included.
  const double traced_cost = host_cost(tr, s.total_s + tr.snapshot_s);
  const double plain_cost = median(plain_costs);
  const auto n_plain = static_cast<std::uint64_t>(plain.size());
  m.push_back({"harness.checker_host_share", {s.checker_s / s.total_s, "fraction", s.checks}});
  m.push_back({"harness.sampler_host_share", {s.sampler_s / s.total_s, "fraction", 1}});
  m.push_back({"obs.stepping_host_share", {s.stepping_s / s.total_s, "fraction", 1}});
  // From the untraced runs: in the traced run every request's energy
  // attribution is exported too, which is tracing cost.
  m.push_back({"obs.snapshot_ms", {median(plain_snapshot_s) * 1e3, "ms", n_plain}});
  m.push_back({"obs.tracing_overhead",
               {traced_cost / plain_cost, "x", n_plain + 1}});
  m.push_back({"host.run_s", {median(plain_run_s), "s", n_plain}});
  m.push_back({"host.setup_raw_s",
               {median(raw_setup), "s", raw_setup.size()}});
  m.push_back({"host.traced_run_s", {s.total_s + tr.snapshot_s, "s", 1}});
  m.push_back({"host.kernel_unit_ms",
               {unit_s(base) * 1e3, "ms", static_cast<std::uint64_t>(base.kernel_units)}});

  // Requests that never reached a phase rank after those that did, at
  // their age, as in latency_p50_ms/latency_p99_ms.
  for (const char* phase : {"pooled", "proposed", "committed", "replied", "accepted"}) {
    const auto reached = s.phase_reached.find(phase);
    const auto unreached = s.phase_unreached_age.find(phase);
    const eesmr::client::LatencyHistogram h = with_unreached(
        reached != s.phase_reached.end() ? reached->second
                                         : eesmr::client::LatencyHistogram{},
        unreached != s.phase_unreached_age.end() ? unreached->second
                                                 : std::vector<Duration>{});
    const auto n = static_cast<std::uint64_t>(h.count());
    m.push_back({std::string("proto.phase_ms.") + phase + ".p50",
                 {eesmr::sim::to_milliseconds(h.p50()), "ms", n}});
    m.push_back({std::string("proto.phase_ms.") + phase + ".p99",
                 {eesmr::sim::to_milliseconds(h.p99()), "ms", n}});
  }
  const double unit_ns = unit_s(tr) * 1e9;
  for (const auto& [name, metric] : s.unit_costs) {
    m.push_back({name, metric});
    const std::string base_name = name.substr(0, name.size() - 3);  // drop _ns
    m.push_back({base_name + "_uref", {metric.value / unit_ns * 1e6, "uref", metric.samples}});
  }

  if (!a.trace_out.empty()) {
    eesmr::exp::Json events = eesmr::exp::Json::array();
    split_tracer.append_chrome(events, 1);
    std::ofstream out(a.trace_out);
    out << eesmr::obs::Tracer::chrome_document(std::move(events)).dump() << "\n";
    std::fprintf(stderr, "perfbench: host split trace written to %s\n",
                 a.trace_out.c_str());
  }

  std::printf("workload %s seed %llu (traced): %s\n", w.name.c_str(),
              static_cast<unsigned long long>(a.seed), w.config_note.c_str());
  std::printf("  traced host %.3f s = events %.3f + checker %.3f + sampler "
              "%.3f + stepping %.3f + unattributed %.3f; then snapshot with "
              "trace export %.3f s\n",
              s.total_s, kinds_s, s.checker_s, s.sampler_s, s.stepping_s,
              unattributed, tr.snapshot_s);
  print_table("per-layer metrics", m);
  print_result(static_cast<int>(plain.size()) + 1, m);
  return 0;
}

/// Benchmark self-tests; returns the number of failed checks.
int selftest() {
  int failed = 0;
  const auto check = [&failed](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failed;
  };
  const std::uint64_t seed = 1;
  std::map<std::string, double> failed_frac;
  for (const Workload& w : workloads()) {
    const RunRecord r = run_workload(w, seed, RunMode{});
    check(r.failure.empty(), w.name + " passes the correctness gate " + r.failure);
    const double frac = find(r.sim.layers, "client.failed_frac").value;
    failed_frac[w.name] = frac;
    check(r.sim.unanswered == r.sim.submitted - r.sim.accepted,
          w.name + ": unanswered = submitted - accepted (" +
              std::to_string(r.sim.unanswered) + ")");
  }
  const double chase = failed_frac["eesmr-agg-chase"];
  for (const auto& [name, frac] : failed_frac) {
    if (name == "eesmr-agg-chase") continue;
    check(chase > frac + 0.2,
          "failed_frac: eesmr-agg-chase " + number(chase) + " far above " +
              name + " " + number(frac));
  }

  // Outage (and every other simulated figure) must not depend on how
  // the run is chopped into host windows.
  const Workload& ring = *find_workload("eesmr-ring-open");
  std::string first;
  static_assert(eesmr::sim::milliseconds(130) <= kHostWindow);
  for (const Duration window : {eesmr::sim::milliseconds(40),
                                eesmr::sim::milliseconds(130), kHostWindow}) {
    RunMode mode;
    mode.window = window;
    const RunRecord r = run_workload(ring, seed, mode);
    const std::string fp = r.sim.fingerprint();
    if (first.empty()) first = fp;
    check(fp == first, "eesmr-ring-open window " +
                           number(eesmr::sim::to_milliseconds(window)) +
                           " ms: same outage_ms (" +
                           number(find(r.sim.end_to_end, "outage_ms").value) +
                           ") and simulated metrics as window 40 ms");
  }
  return failed;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.selftest) return selftest() == 0 ? 0 : 1;
    const Workload* w = find_workload(a.workload);
    if (w == nullptr) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   a.workload.c_str());
      return 2;
    }
    if (a.trace != 0 && a.trace != 1) {
      std::fprintf(stderr, "perfbench: --trace takes 0 or 1\n");
      return 2;
    }
    return a.trace == 0 ? run_end_to_end(*w, a) : run_layers(*w, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}

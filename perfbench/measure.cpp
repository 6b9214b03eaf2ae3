#include "measure.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "kernel.hpp"
#include "src/harness/checkers.hpp"
#include "src/smr/app.hpp"

namespace perfbench {

using namespace eesmr;
using harness::ClusterConfig;
using Clock = std::chrono::steady_clock;

namespace {

/// Scheduler kind tag of the benchmark's own sampling events (short, so
/// fired_by_kind() copies it without allocating).
const char* const kSampleKind = "pb_sample";

/// Event kinds reported one by one; every other tag is summed as "other".
const std::vector<std::string>& reported_kinds() {
  static const std::vector<std::string> kinds = {
      "net_deliver",  "commit_timer", "channel_timeout", "client_arrival",
      "blame_timer",  "round_timer",  "view_change",     "state_transfer_timer",
      "control",      "adversary"};
  return kinds;
}

/// Crypto call sites (src/smr/replica.cpp site_of, plus client sites).
const std::vector<std::string>& crypto_sites() {
  static const std::vector<std::string> sites = {
      "proposal", "vote",  "view_change", "checkpoint",
      "request",  "reply", "sync",        "state_transfer"};
  return sites;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string hex(const Bytes& b) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t c : b) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 15]);
  }
  return out;
}

ClusterConfig base_config() {
  ClusterConfig c;
  c.n = 7;
  c.f = 3;
  c.hop_delay = sim::milliseconds(10);
  c.adversarial_delays = false;  // uniform random delay up to the bound
  c.medium = energy::Medium::kBle;
  c.scheme = crypto::SchemeId::kRsa1024;
  c.simulated_keys = true;
  c.clients = 2;
  c.workload.gen.kind = client::GenSpec::Kind::kKv;
  c.workload.gen.kv_keys = 1024;
  c.workload.gen.kv_read_fraction = 0.5;
  return c;
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;
  // Every workload: n=7, f=3, BLE, 10 ms hop bound with uniform random
  // delay, simulated RSA-1024 keys, two KV clients (50% reads over 1024
  // keys). Client budgets stay below Client::kMaxStoredResults so every
  // unanswered request can be identified.
  {
    // The quorum-certificate baseline the paper compares against: vote
    // tallies, QC verification and BlockStore ancestry hashing do the
    // work, and without checkpoints the log (and peak RSS) grows.
    Workload w;
    w.name = "synchs-mesh-closed";
    w.cfg = base_config();
    w.cfg.protocol = harness::Protocol::kSyncHotStuff;
    w.cfg.batch_size = 16;
    w.cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
    w.cfg.workload.outstanding = 4;
    w.cfg.workload.max_requests = 1500;
    w.config_note =
        "SyncHotStuff n=7 f=3 full mesh, BLE, 10 ms hop bound, simulated "
        "RSA-1024, 2 closed-loop KV clients x 4 outstanding x 1500 "
        "requests, batch 16, individual certs, no checkpoints, 2 s drain";
    out.push_back(std::move(w));
  }
  {
    // The paper's steady state on a partial hypergraph: flood relaying
    // and the commit path do the work; tally crypto is nearly idle.
    Workload w;
    w.name = "eesmr-ring-open";
    w.cfg = base_config();
    w.cfg.protocol = harness::Protocol::kEesmr;
    w.cfg.k = 4;  // f+1 k-cast ring
    w.cfg.batch_size = 64;
    w.cfg.checkpoint_interval = 64;
    w.cfg.workload.mode = client::WorkloadSpec::Mode::kOpenLoop;
    w.cfg.workload.rate_per_sec = 100.0;
    w.cfg.workload.max_requests = 2000;
    w.config_note =
        "EESMR n=7 f=3 k=4 k-cast ring, BLE, 10 ms hop bound, simulated "
        "RSA-1024, 2 open-loop Poisson KV clients x 100 rps x 2000 "
        "requests (50% reads, 1024 keys), batch 64, checkpoints every 64 "
        "commands, 2 s drain";
    out.push_back(std::move(w));
  }
  {
    // Aggregate shares and pairings, recovery, retransmission and the
    // fault path. Known defect: once the first leader crashes the
    // cluster never leaves view 1, because EesmrReplica::send_blame
    // (src/eesmr/eesmr.cpp:313) signs kBlame with the directory key while
    // verify_msg checks certificate-bound types against an aggregate
    // share, so every blame is rejected; the stall shows as failed_frac
    // and outage_ms. The chase starts at 5 s and a run pools 8 clusters:
    // starting at 1 s leaves ~200 accepted requests per cluster, and the
    // per-request figures then spread ~20% from seed to seed.
    Workload w;
    w.name = "eesmr-agg-chase";
    w.cfg = base_config();
    w.cfg.protocol = harness::Protocol::kEesmr;
    w.cfg.cert_scheme = smr::CertScheme::kAggregate;
    w.cfg.batch_size = 64;
    w.cfg.checkpoint_interval = 64;
    w.cfg.client_retry = sim::milliseconds(500);
    w.cfg.adversary.chase_leader.period = sim::seconds(2);
    w.cfg.adversary.chase_leader.from_time = sim::seconds(5);
    w.cfg.workload.mode = client::WorkloadSpec::Mode::kOpenLoop;
    w.cfg.workload.rate_per_sec = 100.0;
    w.cfg.workload.max_requests = 800;
    w.clusters = 8;
    w.config_note =
        "EESMR n=7 f=3 full mesh, aggregate certificates, chase-the-leader "
        "crash every 2 s from 5 s, BLE, 10 ms hop bound, simulated "
        "RSA-1024, 2 open-loop Poisson KV clients x 100 rps x 800 requests, "
        "500 ms client retry, batch 64, checkpoints every 64 commands, 2 s "
        "drain; 8 clusters per run";
    out.push_back(std::move(w));
  }
  return out;
}

/// Drives one Cluster on the fixed simulated sampling grid. The sampling
/// event reads only public counters and never changes the simulation.
class Sampler {
 public:
  Sampler(harness::Cluster& cluster, const Workload& w)
      : cluster_(cluster),
        sched_(cluster.scheduler()),
        w_(w),
        end_(kCap),
        submit_grid_(cluster.client_count()) {}

  void arm() {
    sched_.at(sched_.now(), kSampleKind, [this] { sample(); });
  }

  [[nodiscard]] bool stopped() const { return stopped_; }
  [[nodiscard]] sim::SimTime end() const { return end_; }
  [[nodiscard]] double checker_s() const { return checker_s_; }
  [[nodiscard]] std::uint64_t checks() const { return checks_; }
  [[nodiscard]] const std::string& failure() const { return failure_; }
  [[nodiscard]] std::uint64_t violations() const {
    return safety_.violations();
  }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] sim::Duration outage() const { return outage_; }
  [[nodiscard]] sim::SimTime last_change() const { return last_change_; }

  /// Submit time of client `ci`'s request `req_id`, rounded up to the
  /// sampling grid: the first grid point at which it had been submitted.
  [[nodiscard]] sim::SimTime submit_grid_time(std::size_t ci,
                                              std::uint64_t req_id) const {
    return submit_grid_.at(ci).at(req_id - 1);
  }

  /// Safety tick, plus the KV digest cross-check when `digests` is set
  /// (both run once more at the end).
  void check(bool digests) {
    ++checks_;
    const auto t0 = Clock::now();
    std::uint64_t min_lwm = std::numeric_limits<std::uint64_t>::max();
    const std::size_t n = cluster_.config().n;
    for (std::size_t i = 0; i < n; ++i) {
      const smr::ReplicaBase& r = cluster_.replica(static_cast<NodeId>(i));
      safety_.observe(static_cast<NodeId>(i), r.log());
      min_lwm = std::min(min_lwm, r.low_water_mark());
    }
    if (min_lwm != std::numeric_limits<std::uint64_t>::max() && min_lwm > 0) {
      safety_.prune_below(min_lwm);
    }
    if (digests) check_digests();
    checker_s_ += seconds_since(t0);
  }

 private:
  void check_digests() {
    std::map<std::uint64_t, std::pair<NodeId, Bytes>> by_height;
    for (std::size_t i = 0; i < cluster_.config().n; ++i) {
      const smr::ReplicaBase& r = cluster_.replica(static_cast<NodeId>(i));
      if (r.app() == nullptr) continue;
      const auto [it, fresh] = by_height.try_emplace(
          r.committed_height(), static_cast<NodeId>(i),
          r.app()->state_digest());
      if (!fresh && it->second.second != r.app()->state_digest() &&
          failure_.empty()) {
        failure_ = "KV state digests of replicas " +
                   std::to_string(it->second.first) + " and " +
                   std::to_string(i) + " differ at height " +
                   std::to_string(it->first);
      }
    }
  }

  void sample() {
    const sim::SimTime g = sched_.now();
    ++samples_;
    std::uint64_t accepted = 0;
    std::uint64_t pending = 0;
    std::uint64_t submitted = 0;
    bool budgets_done = true;
    for (std::size_t i = 0; i < cluster_.client_count(); ++i) {
      const client::Client& c = cluster_.client(i);
      submit_grid_[i].resize(c.submitted(), g);
      submitted += c.submitted();
      accepted += c.accepted();
      pending += c.outstanding();
      if (c.submitted() < w_.cfg.workload.max_requests) budgets_done = false;
    }
    if (accepted != last_accepted_ || submitted != last_submitted_) {
      last_change_ = g;
    }
    if (accepted > last_accepted_ || pending == 0) {
      progress_at_ = g;
    } else {
      outage_ = std::max(outage_, g - progress_at_);
    }
    last_accepted_ = accepted;
    last_submitted_ = submitted;
    if (!budgets_done_ && budgets_done) {
      budgets_done_ = true;
      end_ = std::min<sim::SimTime>(end_, g + kDrain);
    }
    if (samples_ % kCheckerEverySamples == 0) {
      check(samples_ % kDigestEverySamples == 0);
    }
    if (g >= end_) {
      stopped_ = true;
      return;
    }
    sched_.after(kSampleStep, kSampleKind, [this] { sample(); });
  }

  harness::Cluster& cluster_;
  sim::Scheduler& sched_;
  const Workload& w_;
  harness::SafetyChecker safety_;
  sim::SimTime end_;
  bool stopped_ = false;
  bool budgets_done_ = false;
  std::uint64_t samples_ = 0;
  std::uint64_t last_accepted_ = 0;
  std::uint64_t last_submitted_ = 0;
  sim::SimTime last_change_ = 0;
  sim::SimTime progress_at_ = 0;
  sim::Duration outage_ = 0;
  double checker_s_ = 0;
  std::uint64_t checks_ = 0;
  std::string failure_;
  /// Per client, submit_grid_time() of each request id (id 1 first).
  std::vector<std::vector<sim::SimTime>> submit_grid_;
};

void put(Metrics& m, const std::string& name, double value,
         const std::string& unit, std::uint64_t samples = 1) {
  m.push_back({name, Metric{value, unit, samples}});
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Raw sums over the clusters of one run; every simulated metric is
/// derived from these once all clusters ran.
struct Tally {
  client::LatencyHistogram answered;
  std::vector<sim::Duration> unanswered_age;
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dropped = 0;
  std::uint64_t state_transfers = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t checkpoints = 0;      ///< max over replicas and clusters
  std::uint64_t max_store = 0;
  std::uint64_t max_retained = 0;
  std::uint64_t applied = 0;          ///< commands executed, top replica
  std::uint64_t blocks = 0;           ///< blocks committed, top replica
  std::uint64_t samples = 0;
  sim::Duration max_recovery = 0;
  sim::Duration outage = 0;           ///< longest over the clusters
  double active_s = 0;
  double energy_mj = 0;
  std::map<energy::Category, double> energy_by_cat;
  std::map<std::string, std::uint64_t> kinds;  ///< raw tags, sampler excluded
  std::map<std::pair<std::string, std::string>, std::uint64_t> crypto;
  std::uint64_t tally_verifies = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t encoded = 0;
  std::uint64_t decoded = 0;
  std::uint64_t copy_saved = 0;
  std::vector<std::string> digests;

  void absorb(harness::Cluster& cluster, const Sampler& sampler,
              const harness::RunResult& r);
};

void Tally::absorb(harness::Cluster& cluster, const Sampler& sampler,
                   const harness::RunResult& r) {
  answered.merge(r.latency);
  for (std::size_t ci = 0; ci < cluster.client_count(); ++ci) {
    const client::Client& c = cluster.client(ci);
    if (c.accepted() > client::Client::kMaxStoredResults) {
      throw std::runtime_error(
          "workload accepts more requests per client than Client::results() "
          "keeps; unanswered requests could not be identified");
    }
    for (std::uint64_t id = 1; id <= c.submitted(); ++id) {
      if (c.results().count(id) > 0) continue;
      unanswered_age.push_back(sampler.end() -
                               sampler.submit_grid_time(ci, id));
    }
  }
  submitted += r.requests_submitted;
  accepted += r.requests_accepted;
  retransmissions += r.request_retransmissions;
  transmissions += r.transmissions;
  bytes += r.bytes_transmitted;
  dropped += r.requests_dropped;
  state_transfers += r.state_transfers;
  view_changes += r.view_changes;
  samples += sampler.samples();
  max_recovery = std::max(max_recovery, r.max_recovery_latency);
  outage = std::max(outage, sampler.outage());
  active_s += sim::to_seconds(
      sampler.last_change() > 0 ? sampler.last_change() : sampler.end());
  max_retained = std::max<std::uint64_t>(max_retained, r.max_retained_log());

  std::size_t top = 0;
  for (std::size_t i = 0; i < r.footprints.size(); ++i) {
    const harness::ReplicaFootprint& fp = r.footprints[i];
    if (fp.committed_blocks > r.footprints[top].committed_blocks) top = i;
    max_store = std::max<std::uint64_t>(max_store, fp.store_blocks);
    checkpoints = std::max(checkpoints, fp.checkpoints_taken);
  }
  const auto* kv = dynamic_cast<const smr::KvStore*>(
      cluster.replica(static_cast<NodeId>(top)).app());
  applied += kv != nullptr ? kv->applied() : 0;
  blocks += r.footprints[top].committed_blocks;

  energy_mj += r.total_energy_mj();
  for (std::size_t i = 0; i < r.meters.size(); ++i) {
    if (!r.correct[i] || !r.counted[i]) continue;
    for (std::uint8_t c = 0;
         c <= static_cast<std::uint8_t>(energy::Category::kAttest); ++c) {
      const auto cat = static_cast<energy::Category>(c);
      energy_by_cat[cat] += r.meters[i].millijoules(cat);
    }
  }
  for (const auto& [kind, count] : r.prof.sched_events) {
    if (kind != kSampleKind) kinds[kind] += count;
  }
  for (const auto& [key, count] : r.prof.crypto_ops) {
    crypto[{key[1], key[2]}] += count;
    if (key[0] == "replica" && key[1] == "verify" &&
        (key[2] == "vote" || key[2] == "checkpoint")) {
      tally_verifies += count;
    }
  }
  cache_hits += r.prof.pipeline.sig_cache_hits;
  copy_saved += r.prof.pipeline.bytes_copy_saved;
  for (const auto& [key, n] : r.prof.codec_bytes) {
    (key[1] == "encode" ? encoded : decoded) += n;
  }
  for (std::size_t i = 0; i < cluster.config().n; ++i) {
    const smr::ReplicaBase& rep = cluster.replica(static_cast<NodeId>(i));
    digests.push_back(std::to_string(rep.committed_height()) + ":" +
                      (rep.app() != nullptr ? hex(rep.app()->state_digest())
                                            : std::string("-")));
  }
}

SimOutcome derive(const Tally& t) {
  SimOutcome o;
  o.submitted = t.submitted;
  o.accepted = t.accepted;
  o.unanswered = t.unanswered_age.size();
  o.kv_digests = t.digests;
  for (const auto& [kind, count] : t.kinds) o.events_by_kind.push_back({kind, count});

  // An unanswered request counts as its age at the end of its run, and
  // ranks after every answered one.
  const client::LatencyHistogram all =
      with_unreached(t.answered, t.unanswered_age);
  const double acc = static_cast<double>(t.accepted);
  const double sub = static_cast<double>(t.submitted);

  put(o.end_to_end, "goodput_rps", ratio(acc, t.active_s), "1/s", t.accepted);
  put(o.end_to_end, "latency_p50_ms", sim::to_milliseconds(all.quantile(0.50)),
      "ms", t.submitted);
  put(o.end_to_end, "latency_p99_ms", sim::to_milliseconds(all.quantile(0.99)),
      "ms", t.submitted);
  put(o.end_to_end, "answered_frac", ratio(acc, sub), "fraction", t.submitted);
  put(o.end_to_end, "energy_per_req_mj", t.energy_mj / std::max(acc, 1.0), "mJ",
      t.accepted);
  put(o.end_to_end, "outage_ms", sim::to_milliseconds(t.outage), "ms",
      t.samples);

  // Scheduler events by kind (the benchmark's own sampling tag excluded).
  std::uint64_t events = 0;
  std::map<std::string, std::uint64_t> kinds;
  for (const auto& [kind, count] : t.kinds) {
    events += count;
    const bool listed = std::find(reported_kinds().begin(),
                                  reported_kinds().end(),
                                  kind) != reported_kinds().end();
    kinds[listed ? kind : "other"] += count;
  }
  put(o.layers, "sim.events", static_cast<double>(events), "count");
  for (const std::string& k : reported_kinds()) {
    put(o.layers, "sim.events." + k, static_cast<double>(kinds[k]), "count");
  }
  put(o.layers, "sim.events.other", static_cast<double>(kinds["other"]),
      "count");

  put(o.layers, "net.transmissions_per_req",
      ratio(static_cast<double>(t.transmissions), acc), "count", t.accepted);
  put(o.layers, "net.bytes_per_req", ratio(static_cast<double>(t.bytes), acc),
      "B", t.accepted);
  put(o.layers, "net.deliveries_per_tx",
      ratio(static_cast<double>(kinds["net_deliver"]),
            static_cast<double>(t.transmissions)),
      "count", t.transmissions);

  put(o.layers, "codec.encode_bytes_per_req",
      ratio(static_cast<double>(t.encoded), acc), "B", t.accepted);
  put(o.layers, "codec.decode_bytes_per_req",
      ratio(static_cast<double>(t.decoded), acc), "B", t.accepted);
  put(o.layers, "codec.copy_saved_bytes", static_cast<double>(t.copy_saved),
      "B");

  for (const std::string op : {"sign", "verify"}) {
    for (const std::string& site : crypto_sites()) {
      const auto it = t.crypto.find({op, site});
      const double n = it != t.crypto.end() ? static_cast<double>(it->second) : 0;
      put(o.layers,
          "crypto." + std::string(op == "sign" ? "signs" : "verifies") +
              "_per_req." + site,
          ratio(n, acc), "count", t.accepted);
    }
  }
  const double hits = static_cast<double>(t.cache_hits);
  put(o.layers, "crypto.sig_cache_hit_ratio",
      ratio(hits, hits + static_cast<double>(t.tally_verifies)), "fraction",
      t.cache_hits + t.tally_verifies);

  put(o.layers, "smr.reqs_per_block",
      ratio(static_cast<double>(t.applied), static_cast<double>(t.blocks)),
      "count", t.blocks);
  put(o.layers, "smr.max_store_blocks", static_cast<double>(t.max_store),
      "count");
  put(o.layers, "smr.mempool_dropped", static_cast<double>(t.dropped), "count");
  put(o.layers, "proto.view_changes", static_cast<double>(t.view_changes),
      "count");
  put(o.layers, "client.failed_frac",
      ratio(static_cast<double>(o.unanswered), sub), "fraction", t.submitted);
  put(o.layers, "client.retransmissions_per_req",
      ratio(static_cast<double>(t.retransmissions), sub), "count", t.submitted);
  put(o.layers, "ckpt.taken", static_cast<double>(t.checkpoints), "count");
  put(o.layers, "ckpt.state_transfers", static_cast<double>(t.state_transfers),
      "count");
  put(o.layers, "ckpt.max_recovery_ms", sim::to_milliseconds(t.max_recovery),
      "ms");
  put(o.layers, "ckpt.max_retained_log", static_cast<double>(t.max_retained),
      "count");
  for (const auto& [cat, mj] : t.energy_by_cat) {
    put(o.layers,
        std::string("energy.mj_per_req.") + energy::category_name(cat),
        mj / std::max(acc, 1.0), "mJ", t.accepted);
  }
  return o;
}

/// Keeps the timed unit-cost loops from being optimised away.
volatile std::uint64_t g_sink = 0;

/// Median ns per call of `fn` (which makes `calls` calls), over five
/// batches of at least 5 ms each.
double ns_per_call(const std::function<void()>& fn, std::size_t calls) {
  if (calls == 0) return 0;
  std::vector<double> per_call;
  for (int batch = 0; batch < 5; ++batch) {
    std::size_t n = 0;
    const auto t0 = Clock::now();
    double elapsed = 0;
    do {
      fn();
      n += calls;
      elapsed = seconds_since(t0);
    } while (elapsed < 5e-3);
    per_call.push_back(elapsed * 1e9 / static_cast<double>(n));
  }
  return median(per_call);
}

/// Unit costs on the run's own committed chain (replica 0).
Metrics unit_costs(harness::Cluster& cluster) {
  Metrics m;
  const smr::ReplicaBase& r0 = cluster.replica(0);
  const std::vector<smr::Block>& log = r0.log();
  const std::size_t first = log.size() > 256 ? log.size() - 256 : 0;
  std::vector<smr::Block> blocks(log.begin() + static_cast<std::ptrdiff_t>(first),
                                 log.end());
  std::vector<Bytes> encoded;
  std::vector<Bytes> wires;
  std::vector<smr::Msg> msgs;
  const crypto::Keyring& keys = *r0.config().keyring;
  for (const smr::Block& b : blocks) {
    encoded.push_back(b.encode());
    smr::Msg msg;
    msg.type = smr::MsgType::kPropose;
    msg.view = b.view;
    msg.round = b.round;
    msg.author = b.proposer == kNoNode ? 0 : b.proposer;
    msg.data = encoded.back();
    msg.sig = keys.signer(msg.author).sign(msg.preimage());
    wires.push_back(msg.encode());
    msgs.push_back(std::move(msg));
  }
  std::uint64_t sink = 0;
  put(m, "smr.block_hash_ns", ns_per_call([&] {
        for (const smr::Block& b : blocks) sink += b.hash()[0];
      }, blocks.size()), "ns", blocks.size());
  put(m, "codec.block_decode_ns", ns_per_call([&] {
        for (const Bytes& e : encoded) sink += smr::Block::decode(e).height;
      }, encoded.size()), "ns", encoded.size());
  put(m, "codec.msg_decode_ns", ns_per_call([&] {
        for (const Bytes& wire : wires) sink += smr::Msg::decode(wire).round;
      }, wires.size()), "ns", wires.size());
  std::vector<Bytes> preimages;
  for (const smr::Msg& msg : msgs) preimages.push_back(msg.preimage());
  put(m, "crypto.sign_ns", ns_per_call([&] {
        for (std::size_t i = 0; i < msgs.size(); ++i) {
          sink += keys.signer(msgs[i].author).sign(preimages[i])[0];
        }
      }, msgs.size()), "ns", msgs.size());
  put(m, "crypto.verify_ns", ns_per_call([&] {
        for (std::size_t i = 0; i < msgs.size(); ++i) {
          sink += keys.verify(msgs[i].author, preimages[i], msgs[i].sig) ? 1 : 0;
        }
      }, msgs.size()), "ns", msgs.size());
  // Ancestry walk from the committed tip down to the store's root.
  const smr::BlockStore& store = r0.store();
  const bool rooted = !log.empty() && store.contains(log.front().hash());
  const smr::BlockHash root =
      rooted ? log.front().hash() : smr::genesis_hash();
  const std::uint64_t walked =
      r0.committed_height() - (rooted ? log.front().height : 0);
  const smr::BlockHash tip = r0.committed_tip();
  put(m, "smr.chain_extends_ns", ns_per_call([&] {
        sink += store.extends(tip, root) ? 1 : 0;
      }, 1), "ns", walked);
  g_sink = sink;
  return m;
}

/// The kind whose fired count grew between two fired_by_kind() vectors
/// (both sorted by name); empty if none.
std::string grown_kind(
    const std::vector<std::pair<std::string, std::uint64_t>>& before,
    const std::vector<std::pair<std::string, std::uint64_t>>& after) {
  std::size_t j = 0;
  for (const auto& [kind, count] : after) {
    while (j < before.size() && before[j].first < kind) ++j;
    const std::uint64_t prev =
        j < before.size() && before[j].first == kind ? before[j].second : 0;
    if (count > prev) return kind;
  }
  return "";
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

ClusterConfig config_for(const Workload& w, std::uint64_t seed) {
  ClusterConfig c = w.cfg;
  c.seed = seed;
  return c;
}

client::LatencyHistogram with_unreached(
    client::LatencyHistogram reached,
    const std::vector<sim::Duration>& unreached_age) {
  const sim::Duration floor = reached.max() + 1;
  for (const sim::Duration age : unreached_age) {
    reached.add(std::max(age, floor));
  }
  return reached;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>((v.size() - 1) / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

std::string SimOutcome::fingerprint() const {
  std::ostringstream out;
  out.precision(17);
  for (const auto& [name, m] : end_to_end) out << name << '=' << m.value << ';';
  for (const auto& [name, m] : layers) out << name << '=' << m.value << ';';
  for (const auto& [kind, count] : events_by_kind) out << kind << '#' << count << ';';
  for (const std::string& d : kv_digests) out << d << ';';
  out << submitted << '/' << accepted << '/' << unanswered;
  return out.str();
}

double time_kernel(int units) {
  const auto t0 = Clock::now();
  for (int i = 0; i < units; ++i) {
    if (reference_kernel_unit() != reference_kernel_checksum()) {
      throw std::runtime_error("reference kernel checksum mismatch");
    }
  }
  return seconds_since(t0);
}

double time_setup(const Workload& w, std::uint64_t seed) {
  const ClusterConfig cfg = config_for(w, seed);
  const auto t0 = Clock::now();
  auto cluster = std::make_unique<harness::Cluster>(cfg);
  cluster->start();
  const double s = seconds_since(t0);
  cluster.reset();
  return s;
}

RunRecord run_workload(const Workload& w, std::uint64_t seed,
                       const RunMode& mode) {
  const sim::Duration window = mode.window;
  RunRecord rec;
  TraceSplit& split = rec.trace;
  Tally tally;
  // Between two host windows: the reference kernel units, and one
  // set-up of a fresh cluster, so set-up samples see the same machine
  // conditions as the run. Returns the host time spent.
  const auto between_windows = [&] {
    const auto t0 = Clock::now();
    const double kernel_s = time_kernel(kKernelUnitsPerWindow);
    rec.kernel_s += kernel_s;
    rec.kernel_units += kKernelUnitsPerWindow;
    const double setup_s = time_setup(w, seed);
    rec.setup_s.push_back(setup_s);
    rec.setup_units.push_back(setup_s * kKernelUnitsPerWindow / kernel_s);
    return seconds_since(t0);
  };
  // Traced runs lay their per-kind slices on one host time line that
  // excludes the work between windows.
  double host_line_s = 0;
  std::map<std::string, double> window_s;
  const auto flush_slices = [&](int cluster, sim::SimTime sim_end) {
    if (mode.split_tracer != nullptr) {
      double at_us = host_line_s * 1e6;
      for (const auto& [kind, s] : window_s) {
        mode.split_tracer->complete(
            static_cast<sim::SimTime>(at_us), 0, "host", kind,
            std::max<sim::SimTime>(1, static_cast<sim::SimTime>(s * 1e6)),
            {{"host_ms", exp::Json(s * 1e3)},
             {"cluster", exp::Json(cluster)},
             {"sim_window_end_ms", exp::Json(sim::to_milliseconds(sim_end))}});
        at_us += s * 1e6;
      }
    }
    for (const auto& [kind, s] : window_s) host_line_s += s;
    window_s.clear();
  };

  for (int j = 0; j < w.clusters; ++j) {
    ClusterConfig cfg =
        config_for(w, j == 0 ? seed : sim::derive_seed(seed, j));
    obs::Tracer flow_tracer;
    if (mode.traced) {
      cfg.tracer = &flow_tracer;
      // Every request: the phase figures then cover the whole run,
      // steady state and stalls alike.
      cfg.trace_requests =
          cfg.clients * static_cast<std::size_t>(cfg.workload.max_requests);
    }
    harness::Cluster cluster(cfg);
    cluster.start();
    sim::Scheduler& sched = cluster.scheduler();
    Sampler sampler(cluster, w);
    sampler.arm();

    const auto run_start = Clock::now();
    double outside_run_s = 0;
    if (!mode.traced) {
      while (!sampler.stopped()) {
        const sim::SimTime target =
            std::min<sim::SimTime>(sched.now() + window, sampler.end());
        const auto t0 = Clock::now();
        sched.run_until(target);
        rec.run_s += seconds_since(t0);
        between_windows();
      }
    } else {
      // Step one event at a time and credit its host time to its kind
      // tag. Safety checks inside the sampling events go to the
      // checker, the rest of those events to the sampler.
      auto fired = sched.fired_by_kind();
      sim::SimTime next_window = window;
      while (!sampler.stopped()) {
        const double checker_before = sampler.checker_s();
        const auto t0 = Clock::now();
        sched.run(1);
        const double dt = seconds_since(t0);
        const auto b0 = Clock::now();
        auto now_fired = sched.fired_by_kind();
        const std::string kind = grown_kind(fired, now_fired);
        fired = std::move(now_fired);
        const double bookkeeping = seconds_since(b0);
        split.stepping_s += bookkeeping;
        window_s["stepping"] += bookkeeping;
        if (kind == kSampleKind) {
          const double check_s = sampler.checker_s() - checker_before;
          split.checker_s += check_s;
          split.sampler_s += dt - check_s;
          window_s["checker"] += check_s;
          window_s["sampler"] += dt - check_s;
        } else {
          split.kind_s[kind] += dt;
          window_s[kind] += dt;
        }
        if (sched.now() >= next_window) {
          flush_slices(j, sched.now());
          next_window += window;
          outside_run_s += between_windows();
        }
      }
      // Events at exactly the end instant, queued after the last sample.
      const auto t0 = Clock::now();
      sched.run_until(sampler.end());
      split.kind_s["end_flush"] += seconds_since(t0);
      window_s["end_flush"] += seconds_since(t0);
    }

    // Final checks, then the snapshot the figures come from.
    const double checker_before = sampler.checker_s();
    sampler.check(true);
    const auto s0 = Clock::now();
    const harness::RunResult result = cluster.snapshot();
    const harness::RunSummary summary = result.summarize();
    const double snap_s = seconds_since(s0);
    rec.snapshot_s += snap_s;
    if (mode.traced) {
      // The split covers the stepped run and its checks; the snapshot,
      // which here also exports every request's trace, stays outside.
      const double final_check_s = sampler.checker_s() - checker_before;
      split.checker_s += final_check_s;
      window_s["checker"] += final_check_s;
      flush_slices(j, sched.now());
      split.checks += sampler.checks();
      split.total_s += seconds_since(run_start) - outside_run_s - snap_s;
    } else {
      rec.run_s += snap_s;
    }

    if (rec.failure.empty()) {
      if (!result.safety_ok() || !summary.safety_ok) {
        rec.failure = "safety violation in the final committed logs";
      } else if (sampler.violations() > 0) {
        rec.failure = "safety checker: " + std::to_string(sampler.violations()) +
                      " conflicting commits";
      } else if (!sampler.failure().empty()) {
        rec.failure = sampler.failure();
      }
    }
    tally.absorb(cluster, sampler, result);

    if (mode.traced) {
      // Request lifecycles from the flow events: first time each
      // lifecycle event was seen, relative to the submission.
      std::map<std::uint64_t, std::map<std::string, sim::SimTime>> flows;
      for (const obs::TraceEvent& ev : flow_tracer.events()) {
        if (ev.ph == 's' || ev.ph == 't' || ev.ph == 'f') {
          flows[ev.id].try_emplace(ev.name, ev.ts);
        }
      }
      static const std::vector<std::pair<std::string, std::string>> phases = {
          {"pooled", "pooled"},    {"proposed", "propose"},
          {"committed", "commit"}, {"replied", "reply"},
          {"accepted", "accept"}};
      for (const auto& [id, first] : flows) {
        const auto submit = first.find("submit");
        if (submit == first.end()) continue;
        for (const auto& [phase, event] : phases) {
          const auto it = first.find(event);
          if (it != first.end()) {
            split.phase_reached[phase].add(it->second - submit->second);
          } else {
            split.phase_unreached_age[phase].push_back(sampler.end() -
                                                       submit->second);
          }
        }
      }
      if (j == 0) split.unit_costs = unit_costs(cluster);
    }
  }
  rec.sim = derive(tally);
  return rec;
}

}  // namespace perfbench

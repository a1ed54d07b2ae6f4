// perfbench: the repository's end-to-end benchmark. One process runs one
// workload for a fixed wall-clock budget through the public APIs of np,
// monitor, sdmmon, crypto, net and attack, checks every output, and prints
// its metrics (tracing off) or its per-layer split (tracing on). The last
// stdout line is one JSON object; see perfbench/README.md for the metric
// definitions and why each workload exists.
//
//   perfbench --workload fwd-min|cm-attack|reprogram --seed N --seconds S
//             --trace 0|1 [--keys DIR] [--spans-out FILE] [--quick]
//
// Every loop is closed with one caller thread: the serial engine takes one
// packet at a time and the parallel engine is bounded by its 256-packet
// window, so a slow host phase lowers throughput instead of growing a
// queue. Timings are built from the best time of each position of a
// replayed sequence (see BestTimes).
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>

#include "attack/attack.hpp"
#include "crypto/cert.hpp"
#include "crypto/rsa.hpp"
#include "monitor/analysis.hpp"
#include "monitor/compiled_graph.hpp"
#include "net/apps.hpp"
#include "np/compiled_program.hpp"
#include "np/dispatch.hpp"
#include "np/mpsoc.hpp"
#include "np/parallel_mpsoc.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "sdmmon/entities.hpp"
#include "sdmmon/package.hpp"
#include "sdmmon/workload.hpp"
#include "util/bytes.hpp"

namespace {

using namespace sdmmon;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kCores = 4;
constexpr std::size_t kWorkers = 2;  // caller + 2 workers <= 4 vCPUs
constexpr std::uint32_t kObsSamplePeriod = 64;
constexpr auto kSegmentDeadline = std::chrono::seconds(5);
// Protocol clock for installs, inside the operator certificate's window.
constexpr std::uint64_t kNow = 1'700'000'000;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Nearest-rank quantile; reorders `v`. 0 for an empty sample.
double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

// Mean of the two middle values for an even count.
double median(std::vector<double> v) {
  if (v.size() % 2 == 1 || v.empty()) return quantile(v, 0.5);
  const double hi = quantile(v, 0.5);
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2));
  return (lo + hi) / 2.0;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return ratio(sum, static_cast<double>(v.size()));
}

// ---------------------------------------------------------------------
// End-to-end timings. Co-tenants on a shared host slow a timed operation
// down, never speed it up, and on a 4-vCPU guest they do so by up to 2x
// for seconds at a time, on one vCPU or all. Medians over a run moved
// 10-30% between runs of the same code. Every workload replays a fixed
// sequence (packet pool, package rotation) many times, so each position
// keeps the fastest time it was served in, and the metrics are built from
// those: the cost of each operation when nothing else ran.
// ---------------------------------------------------------------------

class BestTimes {
 public:
  explicit BestTimes(std::size_t positions) : ns_(positions, kUnset) {}

  void note(std::size_t position, std::int64_t ns) {
    ns_[position] = std::min(ns_[position], ns);
  }

  /// Best times, in `unit_ns` units, of the positions served at least
  /// once and accepted by `keep`.
  template <class Keep>
  std::vector<double> values(double unit_ns, Keep keep) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < ns_.size(); ++i) {
      if (ns_[i] != kUnset && keep(i)) {
        out.push_back(static_cast<double>(ns_[i]) / unit_ns);
      }
    }
    return out;
  }
  std::vector<double> values(double unit_ns) const {
    return values(unit_ns, [](std::size_t) { return true; });
  }
  /// Thousands of packets per second through the positions served at
  /// least once, each position `packets` packets, at their best times.
  double kpps(std::size_t packets) const {
    const std::vector<double> ns = values(1.0);
    double total = 0.0;
    for (double x : ns) total += x;
    return ratio(static_cast<double>(ns.size() * packets) * 1e6, total);
  }

 private:
  static constexpr std::int64_t kUnset = INT64_MAX;
  std::vector<std::int64_t> ns_;
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// Failure accounting: every checked operation counts as attempted.
// ---------------------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> causes;

  void check(bool ok, const char* cause) {
    ++attempted;
    if (!ok) {
      ++failed;
      ++causes[cause];
    }
  }
};

// ---------------------------------------------------------------------
// Spans (traced runs only): kept in a fixed-capacity buffer, written at
// exit. A span is one call into a layer's public function; its parent is
// the segment or install that caused it, its tag the packet or install id.
// ---------------------------------------------------------------------

class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

  /// Record a finished span; returns its id (0 once the buffer is full).
  std::uint32_t add(const char* name, std::int64_t start, std::int64_t end,
                    std::uint32_t parent, std::uint64_t tag) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return 0;
    }
    spans_.push_back({name, start, end, parent, tag});
    return static_cast<std::uint32_t>(spans_.size());
  }
  /// Open a parent span now; close() sets its end.
  std::uint32_t open(const char* name, std::uint32_t parent,
                     std::uint64_t tag) {
    const std::int64_t t = now_ns();
    return add(name, t, t, parent, tag);
  }
  void close(std::uint32_t id) {
    if (id != 0) spans_[id - 1].end = now_ns();
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i + 1 << ",\"parent\":" << s.parent
          << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
          << ",\"end_ns\":" << s.end << ",\"tag\":" << s.tag << "}\n";
    }
    out << "{\"dropped\":" << dropped_ << "}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    std::uint32_t parent;
    std::uint64_t tag;
  };
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------
// Deadline on parallel segments. A wedged ParallelMpsoc never returns from
// submit()/flush(), so the one sleeping watchdog thread reports the miss
// and ends the process itself instead of letting the run hang.
// ---------------------------------------------------------------------

class Watchdog {
 public:
  Watchdog() : thread_([this] { main(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(std::string what) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      what_ = std::move(what);
      deadline_ = Clock::now() + kSegmentDeadline;
      armed_ = true;
      ++generation_;
    }
    cv_.notify_all();
  }
  void disarm() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = false;
  }

 private:
  void main() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      if (!armed_) {
        cv_.wait(lock, [&] { return stop_ || armed_; });
        continue;
      }
      const std::uint64_t gen = generation_;
      if (cv_.wait_until(lock, deadline_, [&] {
            return stop_ || !armed_ || generation_ != gen;
          })) {
        continue;
      }
      std::printf("FAIL deadline: %s did not finish within %lld s\n",
                  what_.c_str(),
                  static_cast<long long>(kSegmentDeadline.count()));
      std::printf("fail_pct: run aborted (parallel segment missed its "
                  "deadline)\n");
      std::fflush(stdout);
      std::_Exit(3);
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool stop_ = false;
  std::uint64_t generation_ = 0;
  Clock::time_point deadline_;
  std::string what_;
  std::thread thread_;  // last: starts after the state it reads exists
};

// ---------------------------------------------------------------------
// Co-tenant load slows one vCPU at a time, so the caller thread moves to
// the next vCPU before each round of work: every run samples all vCPUs
// alike instead of whichever one the scheduler left it on. Engine workers
// are created unpinned and keep the full mask.
// ---------------------------------------------------------------------

class CallerAffinity {
 public:
  CallerAffinity() {
    CPU_ZERO(&all_);
    if (pthread_getaffinity_np(pthread_self(), sizeof all_, &all_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
  }

  /// Pin the caller to the next allowed vCPU (no-op on a single vCPU).
  void pin_next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  }
  /// Restore the full mask (threads created now inherit it).
  void unpin() {
    if (!cpus_.empty()) {
      pthread_setaffinity_np(pthread_self(), sizeof all_, &all_);
    }
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------------
// Committed test keys (perfbench/keys): no key generation at run time.
// ---------------------------------------------------------------------

crypto::RsaKeyPair load_key(const std::string& dir, const char* role) {
  const std::string path = dir + "/" + role + ".key";
  std::ifstream in(path);
  std::string hex;
  if (!(in >> hex)) throw std::runtime_error("cannot read key " + path);
  crypto::RsaKeyPair pair;
  pair.priv = crypto::RsaPrivateKey::deserialize(util::from_hex(hex));
  pair.pub = pair.priv.public_key();
  return pair;
}

struct Keys {
  crypto::RsaKeyPair manufacturer;
  crypto::RsaKeyPair op;
  crypto::RsaKeyPair device;

  explicit Keys(const std::string& dir)
      : manufacturer(load_key(dir, "manufacturer")),
        op(load_key(dir, "operator")),
        device(load_key(dir, "device")) {}
};

bool same_stats(const np::MpsocStats& a, const np::MpsocStats& b) {
  return a.packets == b.packets && a.forwarded == b.forwarded &&
         a.dropped == b.dropped && a.attacks_detected == b.attacks_detected &&
         a.traps == b.traps && a.instructions == b.instructions &&
         a.healthy_cores == b.healthy_cores &&
         a.quarantined_cores == b.quarantined_cores &&
         a.undispatched == b.undispatched && a.violations == b.violations &&
         a.quarantine_events == b.quarantine_events &&
         a.reinstalls == b.reinstalls;
}

bool benign_ok(const np::PacketResult& r) {
  return r.outcome != np::PacketOutcome::AttackDetected &&
         r.outcome != np::PacketOutcome::Trapped;
}

// ---------------------------------------------------------------------
// Packet kits: the traffic mixes and the engines they run through.
// ---------------------------------------------------------------------

struct Traffic {
  const char* name;
  isa::Program program;
  protocol::MixedWorkloadConfig mix;
  np::RecoveryConfig recovery;
};

// Smallest packets: 16-byte UDP payloads over 64 flows, no attacks.
protocol::MixedWorkloadConfig fwd_mix(std::uint64_t seed) {
  protocol::MixedWorkloadConfig mix;
  mix.seed = seed;
  mix.flows = 64;
  mix.min_payload = 16;
  mix.max_payload = 16;
  return mix;
}

Traffic fwd_traffic(std::uint64_t seed) {
  return {"fwd", net::build_ipv4_forward(), fwd_mix(mix_seed(seed, 1)), {}};
}

Traffic cm_traffic(std::uint64_t seed) {
  Traffic t{"cm", net::build_ipv4_cm(), {}, {}};
  t.mix.seed = mix_seed(seed, 2);
  t.mix.attack_rate = 0.02;
  t.mix.flows = 64;
  t.mix.min_payload = 16;
  t.mix.max_payload = 512;
  t.mix.attack_packet =
      attack::craft_cm_overflow(attack::marker_shellcode()).packet;
  // Every detection re-images the core and no core ever quarantines, so
  // the mix stays stationary for the whole run.
  t.recovery.policy = np::RecoveryPolicy::ReinstallLastGood;
  t.recovery.violation_threshold = 1;
  t.recovery.max_reinstalls = static_cast<std::size_t>(-1);
  return t;
}

/// Exact counts over the first pass through the packet pool: a pure
/// function of the seed, so two runs of one seed must print them equal.
struct ExactCounts {
  std::uint64_t packets = 0;
  std::uint64_t instructions = 0;
  std::uint64_t detections = 0;
  std::uint64_t reinstalls = 0;
  std::uint64_t trace_dispatches = 0;
  std::uint64_t side_exits = 0;
  double ambiguity = 0.0;
  double width_p50 = 0.0;
};

/// Per-layer samples of a traced packet kit.
struct LayerSamples {
  std::vector<double> engine_self_ns;     // engine - core pass, benign
  std::vector<double> engine_recover_ns;  // engine - core, reinstalling attacks
  std::vector<double> raw_exec_ns;        // raw pass, benign
  std::vector<double> monitor_self_ns;    // core - raw pass, benign
  double raw_ns_total = 0.0;
  double raw_instr_total = 0.0;
  std::vector<double> submit_ms;  // time inside submit() per segment
  std::vector<double> flush_ms;   // time inside flush() per segment
};

// Packets per parallel chunk: one parallel-engine window, closed by
// flush(). Within a chunk no reorder-buffer slot is reused; between chunks
// the caller sleeps kChunkGap, so a worker that published its last slot
// has long finished with it before the slot is planned again (see
// perfbench/README.md, "Parallel deadline").
constexpr std::size_t kChunk = 256;
constexpr auto kChunkGap = std::chrono::microseconds(500);
// Layer passes run in blocks so each pass finds its own engine's state
// in cache, as the engine pass does in an ordinary segment.
constexpr std::size_t kLayerBlock = 64;

/// One traffic mix through the serial engine (timed per packet) and, in a
/// later phase, the same packet sequence through the parallel engine. The
/// serial engine's aggregate_stats() after each segment is kept, so each
/// parallel segment is checked against the serial engine at the same point
/// of the sequence.
class PacketKit {
 public:
  PacketKit(Traffic traffic, std::size_t pool_size, std::size_t segment,
            bool parallel, SpanLog* spans)
      : traffic_(std::move(traffic)),
        segment_(segment),
        parallel_(parallel),
        spans_(spans),
        pool_(protocol::MixedWorkload(traffic_.mix).generate(0, pool_size)),
        best_packet_(pool_size),
        best_chunk_(pool_size / kChunk),
        best_traced_seg_(pool_size / segment),
        best_plain_seg_(pool_size / segment),
        best_w1_seg_(pool_size / segment) {
    hash_ = std::make_unique<monitor::MerkleTreeHash>(
        static_cast<std::uint32_t>(mix_seed(traffic_.mix.seed, 7)));
    artifacts_ = np::validate_install_config(
        traffic_.program, monitor::extract_graph(traffic_.program, *hash_),
        *hash_);
    first_widths_.reserve(pool_size);
    serial_ = make_serial(serial_registry_);
    if (parallel_) start_parallel(kWorkers);
    if (spans_ != nullptr) {
      layer_engine_ = make_serial(layer_registry_);
      core_engine_ = make_serial(core_registry_);
      raw_cores_ = std::make_unique<np::Core[]>(kCores);
      for (std::size_t c = 0; c < kCores; ++c) {
        raw_cores_[c].load_program(traffic_.program, artifacts_.code);
      }
    }
  }

  const char* name() const { return traffic_.name; }
  bool parallel() const { return parallel_; }

  /// One timed serial segment, every packet checked and, untraced, its
  /// service time kept if it is the position's best. Traced runs alternate
  /// span-recording and plain pool passes, so both cover the same packets,
  /// and follow each segment with a layer pass.
  void serial_segment(Tally& tally) {
    const bool tracing = spans_ != nullptr;
    const bool traced =
        tracing && serial_segments_ / (pool_.size() / segment_) % 2 == 0;
    const std::uint32_t seg_span =
        traced ? spans_->open("segment", 0, serial_segments_) : 0;
    const std::size_t position = cursor_ / segment_;
    const std::int64_t start = now_ns();
    for (std::size_t n = 0; n < segment_; ++n) {
      const protocol::WorkItem& item = pool_[cursor_];
      const std::int64_t t0 = now_ns();
      const np::PacketResult r =
          serial_->process_packet(item.packet, item.flow_key);
      const std::int64_t t1 = now_ns();
      if (traced) {
        spans_->add("np.Mpsoc.process_packet", t0, t1, seg_span,
                    serial_packets_);
      }
      if (!tracing) best_packet_.note(cursor_, t1 - t0);
      if (item.attack) {
        tally.check(r.outcome == np::PacketOutcome::AttackDetected,
                    "attack packet not detected");
      } else {
        tally.check(benign_ok(r), "benign packet detected or trapped");
      }
      note_first_pass(r);
      ++serial_packets_;
      advance();
    }
    const std::int64_t ns = now_ns() - start;
    if (traced) spans_->close(seg_span);
    // The serial engine's stats here are what the parallel engine must
    // show after the same segment.
    if (parallel_) snapshots_.push_back(serial_->aggregate_stats());
    if (tracing) {
      (traced ? best_traced_seg_ : best_plain_seg_).note(position, ns);
      layer_segment(tally);
    }
    ++serial_segments_;
  }

  /// One timed parallel segment: kChunk-packet chunks through submit(),
  /// each closed by flush() under the watchdog's deadline, then checked
  /// against the serial engine's stats at the same point of the sequence.
  void parallel_segment(Tally& tally, Watchdog& watchdog,
                        const char* workload) {
    const bool traced =
        spans_ != nullptr && par_segments_ / (pool_.size() / segment_) % 2 == 0;
    const std::uint32_t seg_span =
        traced ? spans_->open("parallel.segment", 0, par_segments_) : 0;
    const std::size_t position = par_cursor_ / segment_;
    std::int64_t par_ns = 0, submit_ns = 0, flush_ns = 0;
    for (std::size_t done = 0; done < segment_; done += kChunk) {
      std::this_thread::sleep_for(kChunkGap);
      const std::size_t chunk = par_cursor_ / kChunk;
      const std::int64_t ns = parallel_chunk(watchdog, workload, traced,
                                             seg_span, submit_ns, flush_ns);
      if (spans_ == nullptr) best_chunk_.note(chunk, ns);
      par_ns += ns;
    }
    if (traced) spans_->close(seg_span);

    if (traced) {
      layers_.submit_ms.push_back(static_cast<double>(submit_ns) / 1e6);
      layers_.flush_ms.push_back(static_cast<double>(flush_ns) / 1e6);
    } else if (spans_ != nullptr && par_->num_workers() == 1) {
      best_w1_seg_.note(position, par_ns);
    }
    par_packets_ += segment_;
    tally.attempted += segment_;
    tally.check(same_stats(snapshots_[par_segments_], par_->aggregate_stats()),
                "serial and parallel aggregate_stats differ");
    ++par_segments_;
    // Pools hold a whole number of segments, so the first pool pass ends
    // on a segment boundary.
    if (par_cursor_ == 0 && !exact_epochs_ && exact_) {
      exact_epochs_ = par_->speculation_rollbacks();
    }
  }

  /// The parallel engine has served every segment the serial engine did,
  /// so the next one would have nothing to be checked against.
  bool parallel_caught_up() const {
    return par_segments_ == snapshots_.size();
  }

  /// Replace the parallel engine with a fresh one running `workers`
  /// workers, from the start of the packet sequence.
  void restart_parallel(std::size_t workers) {
    epochs_before_restart_ += par_->speculation_rollbacks();
    par_.reset();
    par_cursor_ = 0;
    par_segments_ = 0;
    start_parallel(workers);
  }

  double pkt_kpps() const { return best_packet_.kpps(1); }
  double par_kpps() const { return best_chunk_.kpps(kChunk); }
  /// Traced runs: kpps of span-recording, plain and workers=1 segments.
  double traced_kpps() const { return best_traced_seg_.kpps(segment_); }
  double plain_kpps() const { return best_plain_seg_.kpps(segment_); }
  double w1_kpps() const { return best_w1_seg_.kpps(segment_); }
  /// Best service times in us of the benign (or attack) pool packets.
  std::vector<double> service_us(bool attack) const {
    return best_packet_.values(
        1e3, [&](std::size_t i) { return pool_[i].attack == attack; });
  }
  std::size_t pool_size() const { return pool_.size(); }
  std::size_t pool_attacks() const {
    return static_cast<std::size_t>(
        std::count_if(pool_.begin(), pool_.end(),
                      [](const protocol::WorkItem& i) { return i.attack; }));
  }

  // Results.
  std::optional<ExactCounts> exact_;
  std::optional<std::uint64_t> exact_epochs_;
  LayerSamples layers_;
  std::uint64_t serial_packets_ = 0;
  std::uint64_t par_packets_ = 0;

  double steals() const {
    return counter(obs::names::kParallelShardSteals);
  }
  double replayed() const {
    return counter(obs::names::kParallelReplayedPackets);
  }
  double rollback_bytes() const {
    return counter(obs::names::kParallelRollbackBytes);
  }
  double epochs() const {
    return static_cast<double>(epochs_before_restart_ +
                               (par_ ? par_->speculation_rollbacks() : 0));
  }

 private:
  double counter(const char* name) const {
    return par_registry_
               ? static_cast<double>(par_registry_->counter(name).value())
               : 0.0;
  }

  std::unique_ptr<np::Mpsoc> make_serial(std::unique_ptr<obs::Registry>& reg) {
    auto soc = std::make_unique<np::Mpsoc>(kCores, np::DispatchPolicy::FlowHash,
                                           traffic_.recovery);
    soc->install_all(traffic_.program, artifacts_, *hash_);
    reg = std::make_unique<obs::Registry>();
    soc->enable_obs(*reg, 0, kObsSamplePeriod);
    return soc;
  }

  void start_parallel(std::size_t workers) {
    np::ParallelConfig config;
    config.workers = workers;
    config.batch_size = kChunk;
    par_ = std::make_unique<np::ParallelMpsoc>(
        kCores, np::DispatchPolicy::FlowHash, traffic_.recovery, config);
    par_->install_all(traffic_.program, artifacts_, *hash_);
    // One registry across restarts, so the rollback counters accumulate.
    if (!par_registry_) par_registry_ = std::make_unique<obs::Registry>();
    par_->enable_obs(*par_registry_, 1, kObsSamplePeriod);
  }

  /// The next kChunk packets of the sequence through the parallel engine
  /// under the watchdog's deadline; returns the chunk's ns, submit()
  /// through flush().
  std::int64_t parallel_chunk(Watchdog& watchdog, const char* workload,
                              bool traced, std::uint32_t parent,
                              std::int64_t& submit_ns, std::int64_t& flush_ns) {
    watchdog.arm(std::string("workload ") + workload + ", " + name() +
                 " parallel segment " + std::to_string(par_segments_) +
                 " chunk " + std::to_string(par_chunks_));
    const std::int64_t start = now_ns();
    for (std::size_t n = 0; n < kChunk; ++n) {
      const protocol::WorkItem& item = pool_[par_cursor_];
      if (traced) {
        const std::int64_t s0 = now_ns();
        par_->submit(item.packet, item.flow_key);
        submit_ns += now_ns() - s0;
      } else {
        par_->submit(item.packet, item.flow_key);
      }
      par_cursor_ = (par_cursor_ + 1) % pool_.size();
    }
    const std::int64_t f0 = now_ns();
    par_->flush();
    const std::int64_t end = now_ns();
    watchdog.disarm();
    if (traced) {
      flush_ns += end - f0;
      spans_->add("np.ParallelMpsoc.submit", start, f0, parent, par_chunks_);
      spans_->add("np.ParallelMpsoc.flush", f0, end, parent, par_chunks_);
    }
    ++par_chunks_;
    return end - start;
  }

  /// Layer passes over the same packets, one block at a time: the engine
  /// (Mpsoc), one layer down (MonitoredCore on the core dispatch picks),
  /// and the raw Core running the installed CompiledProgram.
  void layer_segment(Tally& tally) {
    const std::uint32_t seg_span = spans_->open("layers", 0, serial_segments_);
    for (std::size_t done = 0; done < segment_; done += kLayerBlock) {
      std::size_t index[kLayerBlock];
      std::size_t core[kLayerBlock];
      np::PacketResult re[kLayerBlock];
      double engine_ns[kLayerBlock];
      bool reinstalled[kLayerBlock];
      for (std::size_t i = 0; i < kLayerBlock; ++i) {
        index[i] = layer_cursor_;
        layer_cursor_ = (layer_cursor_ + 1) % pool_.size();
        const protocol::WorkItem& item = pool_[index[i]];
        std::size_t rr = 0;
        core[i] = np::pick_dispatch_core(np::DispatchPolicy::FlowHash,
                                         all_cores_, item.flow_key, rr,
                                         [](std::size_t) { return 0; });
        const std::uint64_t before = layer_engine_->aggregate_stats().reinstalls;
        const std::int64_t t0 = now_ns();
        re[i] = layer_engine_->process_packet(item.packet, item.flow_key);
        const std::int64_t t1 = now_ns();
        spans_->add("np.Mpsoc.process_packet", t0, t1, seg_span,
                    layer_index_ + i);
        engine_ns[i] = static_cast<double>(t1 - t0);
        reinstalled[i] = layer_engine_->aggregate_stats().reinstalls > before;
      }
      double core_ns[kLayerBlock];
      for (std::size_t i = 0; i < kLayerBlock; ++i) {
        const protocol::WorkItem& item = pool_[index[i]];
        const std::int64_t t0 = now_ns();
        const np::PacketResult rc =
            core_engine_->core(core[i]).process_packet(item.packet);
        const std::int64_t t1 = now_ns();
        spans_->add("np.MonitoredCore.process_packet", t0, t1, seg_span,
                    layer_index_ + i);
        core_ns[i] = static_cast<double>(t1 - t0);
        if (item.attack) {
          tally.check(re[i].outcome == np::PacketOutcome::AttackDetected &&
                          rc.outcome == np::PacketOutcome::AttackDetected,
                      "attack packet not detected (layer pass)");
          if (reinstalled[i]) {
            layers_.engine_recover_ns.push_back(engine_ns[i] - core_ns[i]);
          }
        } else {
          tally.check(benign_ok(re[i]) && re[i].outcome == rc.outcome &&
                          re[i].output == rc.output,
                      "engine and core passes disagree on a benign packet");
          layers_.engine_self_ns.push_back(engine_ns[i] - core_ns[i]);
          layers_.raw_instr_total += static_cast<double>(rc.instructions);
        }
      }
      for (std::size_t i = 0; i < kLayerBlock; ++i) {
        const protocol::WorkItem& item = pool_[index[i]];
        if (item.attack) continue;
        np::Core& raw = raw_cores_[core[i]];
        const std::int64_t t0 = now_ns();
        raw.soft_reset();
        raw.deliver_packet(item.packet);
        raw.run();
        const std::int64_t t1 = now_ns();
        spans_->add("np.Core.run", t0, t1, seg_span, layer_index_ + i);
        tally.check(re[i].outcome != np::PacketOutcome::Forwarded ||
                        (raw.has_output() && raw.output() == re[i].output),
                    "raw core output differs from the engine's");
        const double raw_ns = static_cast<double>(t1 - t0);
        layers_.raw_exec_ns.push_back(raw_ns);
        layers_.monitor_self_ns.push_back(core_ns[i] - raw_ns);
        layers_.raw_ns_total += raw_ns;
      }
      layer_index_ += kLayerBlock;
    }
    spans_->close(seg_span);
  }

  void note_first_pass(const np::PacketResult& r) {
    if (exact_) return;
    first_.packets += 1;
    first_.instructions += r.instructions;
    first_.trace_dispatches += r.trace_dispatches;
    first_.side_exits += r.trace_side_exits;
    first_widths_.push_back(static_cast<double>(r.monitor_width));
  }

  void advance() {
    cursor_ = (cursor_ + 1) % pool_.size();
    if (cursor_ != 0 || exact_) return;
    // First pass complete: freeze the exact counts.
    const np::MpsocStats s = serial_->aggregate_stats();
    first_.detections = s.attacks_detected;
    first_.reinstalls = s.reinstalls;
    std::uint64_t checked = 0, accum = 0;
    for (std::size_t c = 0; c < kCores; ++c) {
      const monitor::MonitorStats& m = serial_->core(c).monitor().stats();
      checked += m.instructions_checked;
      accum += m.state_size_accum;
    }
    first_.ambiguity =
        ratio(static_cast<double>(accum), static_cast<double>(checked));
    first_.width_p50 = median(first_widths_);
    first_widths_ = {};
    exact_ = first_;
  }

  Traffic traffic_;
  std::size_t segment_;
  bool parallel_;
  SpanLog* spans_;
  std::vector<protocol::WorkItem> pool_;
  BestTimes best_packet_;  // per pool position, serial engine
  BestTimes best_chunk_;   // per kChunk-aligned pool chunk, parallel engine
  // Per pool segment, traced runs only.
  BestTimes best_traced_seg_, best_plain_seg_, best_w1_seg_;
  std::unique_ptr<monitor::MerkleTreeHash> hash_;
  np::InstallArtifacts artifacts_;
  std::unique_ptr<obs::Registry> serial_registry_, par_registry_;
  std::unique_ptr<np::Mpsoc> serial_;
  std::unique_ptr<np::ParallelMpsoc> par_;
  std::uint64_t epochs_before_restart_ = 0;
  std::size_t cursor_ = 0;      // serial engine's place in the pool
  std::size_t par_cursor_ = 0;  // parallel engine's
  std::vector<np::MpsocStats> snapshots_;  // serial stats per segment
  std::uint64_t serial_segments_ = 0;
  std::size_t par_segments_ = 0;
  std::uint64_t par_chunks_ = 0;
  ExactCounts first_;
  std::vector<double> first_widths_;
  // Traced layer passes.
  std::unique_ptr<obs::Registry> layer_registry_, core_registry_;
  std::unique_ptr<np::Mpsoc> layer_engine_, core_engine_;
  std::unique_ptr<np::Core[]> raw_cores_;
  std::size_t layer_cursor_ = 0;
  std::uint64_t layer_index_ = 0;
  const std::vector<std::size_t> all_cores_{0, 1, 2, 3};
};

// ---------------------------------------------------------------------
// Reprogram kit: one NetworkProcessorDevice (4 cores, RSA-2048) repeating
// sealed install -> untimed packet burst -> fast switch back.
// ---------------------------------------------------------------------

struct InstallStages {
  std::vector<double> decode_ms, cert_ms, open_ms, graph_check_ms,
      graph_compile_ms, program_compile_ms, stage_ms;
};

class ReprogramKit {
 public:
  // Packages sealed in set-up; a fresh device object replays them, since
  // the device rejects a sequence number it has already seen.
  static constexpr std::size_t kApps = 4;
  static constexpr std::size_t kPackages = 2 * kApps;
  static constexpr std::size_t kBurst = 128;

  ReprogramKit(const Keys& keys, std::uint64_t seed, SpanLog* spans)
      : keys_(keys), spans_(spans) {
    const crypto::Certificate cert = crypto::issue_certificate(
        "perfbench-operator", crypto::CertRole::NetworkOperator, 1, 0,
        4'000'000'000ull, keys_.op.pub, "perfbench-manufacturer",
        keys_.manufacturer.priv);
    const isa::Program apps[kApps] = {
        net::build_ipv4_forward(), net::build_udp_echo(),
        net::build_firewall({8003, 8017, 8042}), net::build_flow_stats()};
    crypto::Drbg drbg("perfbench/seal");  // the seed drives only hash params
    for (std::size_t i = 0; i < kPackages; ++i) {
      protocol::PackagePayload payload;
      payload.binary = apps[i % kApps];
      payload.hash_param = static_cast<std::uint32_t>(mix_seed(seed, 100 + i));
      payload.graph = monitor::extract_graph(
          payload.binary, monitor::MerkleTreeHash(payload.hash_param));
      payload.sequence = i + 1;
      names_.push_back(payload.binary.name);
      wires_.push_back(protocol::seal_package(payload, keys_.op.priv, cert,
                                              keys_.device.pub, drbg)
                           .serialize());
    }
    burst_ = protocol::MixedWorkload(fwd_mix(mix_seed(seed, 3)))
                 .generate(0, 1024);
    if (spans_ != nullptr) {
      stage_soc_ = std::make_unique<np::Mpsoc>(kCores);
    }
  }

  void step(Tally& tally) {
    if (!device_ || next_ == kPackages) {
      device_ = std::make_unique<protocol::NetworkProcessorDevice>(
          "perfbench-np", keys_.device, keys_.manufacturer.pub, kCores);
      next_ = 0;
    }
    const std::size_t index = next_++;
    const util::Bytes& wire = wires_[index];
    const std::uint64_t id = installs_;

    const std::int64_t t0 = now_ns();
    const protocol::InstallStatus status = device_->install_bytes(wire, kNow);
    const std::int64_t t1 = now_ns();
    tally.check(status == protocol::InstallStatus::Ok, "install not ok");
    const double install_ms = static_cast<double>(t1 - t0) / 1e6;
    best_install_.note(index, t1 - t0);
    std::uint32_t install_span = 0;
    if (spans_ != nullptr) {
      install_span = spans_->add("protocol.NetworkProcessorDevice.install_bytes",
                                 t0, t1, 0, id);
      const double staged_ms = staged_install(wire, tally, id);
      gap_pct_.push_back(100.0 * (install_ms - staged_ms) / install_ms);
    }

    for (std::size_t n = 0; n < kBurst; ++n) {
      const protocol::WorkItem& item = burst_[burst_cursor_];
      burst_cursor_ = (burst_cursor_ + 1) % burst_.size();
      tally.check(benign_ok(device_->process_packet(item.packet, item.flow_key)),
                  "benign packet detected or trapped (burst)");
    }

    // Fast switch back to the app installed before this one (or this one,
    // right after a fresh device).
    const std::size_t back = index == 0 ? 0 : index - 1;
    const std::int64_t s0 = now_ns();
    const bool switched = device_->switch_to(names_[back]);
    const std::int64_t s1 = now_ns();
    tally.check(switched, "switch_to failed");
    best_switch_.note(index, s1 - s0);
    if (spans_ != nullptr) {
      spans_->add("protocol.NetworkProcessorDevice.switch_to", s0, s1,
                  install_span, id);
    }
    ++installs_;
  }

  // Per package of the rotation: every app weighs the same in the means,
  // although their texts and graphs differ in size.
  BestTimes best_install_{kPackages};
  BestTimes best_switch_{kPackages};
  InstallStages stages_;
  std::vector<double> gap_pct_;  // device install vs its staged calls
  std::uint64_t installs_ = 0;

 private:
  /// The device pipeline's public stages, called in order on the same wire
  /// bytes, each timed as its own span; returns their summed ms.
  double staged_install(const util::Bytes& wire_bytes, Tally& tally,
                        std::uint64_t id) {
    const std::uint32_t parent = spans_->open("install.staged", 0, id);
    auto span = [&](const char* name, std::vector<double>& out,
                    std::int64_t a, std::int64_t b) {
      spans_->add(name, a, b, parent, id);
      out.push_back(static_cast<double>(b - a) / 1e6);
    };
    const std::int64_t t0 = now_ns();
    const protocol::WirePackage wire =
        protocol::WirePackage::deserialize(wire_bytes);
    const std::int64_t t1 = now_ns();
    const crypto::CertStatus cert = crypto::verify_certificate(
        wire.operator_cert, keys_.manufacturer.pub, kNow,
        crypto::CertRole::NetworkOperator);
    const std::int64_t t2 = now_ns();
    protocol::OpenResult opened = protocol::open_package(
        wire, keys_.device.priv, wire.operator_cert.subject_key);
    const std::int64_t t3 = now_ns();
    const bool ok = cert == crypto::CertStatus::Ok &&
                    opened.status == protocol::OpenStatus::Ok;
    tally.check(ok, "staged install rejected the package");
    if (!ok) {
      spans_->close(parent);
      return 0.0;
    }
    const protocol::PackagePayload& p = *opened.payload;
    const monitor::MerkleTreeHash hash(p.hash_param);
    const bool graph_ok = monitor::extract_graph(p.binary, hash) == p.graph;
    const std::int64_t t4 = now_ns();
    auto graph = monitor::CompiledGraph::compile(p.graph);
    const std::int64_t t5 = now_ns();
    auto code = np::CompiledProgram::compile(p.binary, hash);
    const std::int64_t t6 = now_ns();
    stage_soc_->install_all(p.binary, np::InstallArtifacts{graph, code}, hash);
    const std::int64_t t7 = now_ns();
    tally.check(graph_ok, "staged install graph mismatch");
    span("sdmmon.WirePackage.deserialize", stages_.decode_ms, t0, t1);
    span("crypto.verify_certificate", stages_.cert_ms, t1, t2);
    span("sdmmon.open_package", stages_.open_ms, t2, t3);
    span("monitor.extract_graph", stages_.graph_check_ms, t3, t4);
    span("monitor.CompiledGraph.compile", stages_.graph_compile_ms, t4, t5);
    span("np.CompiledProgram.compile", stages_.program_compile_ms, t5, t6);
    span("np.Mpsoc.install_all", stages_.stage_ms, t6, t7);
    spans_->close(parent);
    return static_cast<double>(t7 - t0) / 1e6;
  }

  const Keys& keys_;
  SpanLog* spans_;
  std::vector<util::Bytes> wires_;
  std::vector<std::string> names_;
  std::vector<protocol::WorkItem> burst_;
  std::size_t burst_cursor_ = 0;
  std::unique_ptr<protocol::NetworkProcessorDevice> device_;
  std::size_t next_ = 0;
  std::unique_ptr<np::Mpsoc> stage_soc_;
};

// ---------------------------------------------------------------------
// Workloads. Each has a main kit and, because every run must report every
// end-to-end metric, small complement kits for the metrics its main kit
// cannot produce. Complements run on their own engine and device objects
// between main segments, so they never touch the main kit's engines.
// ---------------------------------------------------------------------

struct Workload {
  explicit Workload(const std::string& keys_dir) : keys(keys_dir) {}

  Keys keys;
  std::string name;
  std::unique_ptr<PacketKit> packets;  // pkt/par/latency source
  std::unique_ptr<PacketKit> attacks;  // recover_us source when packets has none
  std::unique_ptr<ReprogramKit> reprogram;
  int reprogram_steps = 1;  // per round

  PacketKit& attack_kit() { return attacks ? *attacks : *packets; }
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& keys_dir,
                                        SpanLog* spans) {
  auto w = std::make_unique<Workload>(keys_dir);
  w->name = name;
  // Pools stay small enough for a core's L2 together with the engine, so
  // timings do not depend on co-tenants' use of the shared L3: with an
  // 8192-packet cm pool, runs of unchanged code spread 2-3x wider. The
  // attack complement's segments are long, so most attack packets find
  // the caches warm after the other kits' work.
  auto kit = [&](Traffic t, std::size_t segment, std::size_t pool,
                 bool parallel) {
    return std::make_unique<PacketKit>(std::move(t), pool, segment, parallel,
                                       spans);
  };
  if (name == "fwd-min") {
    w->packets = kit(fwd_traffic(seed), 1024, 4096, true);
    w->attacks = kit(cm_traffic(seed), 1024, 2048, false);
  } else if (name == "cm-attack") {
    w->packets = kit(cm_traffic(seed), 512, 2048, true);
  } else if (name == "reprogram") {
    w->packets = kit(fwd_traffic(seed), 1024, 4096, true);
    w->attacks = kit(cm_traffic(seed), 1024, 2048, false);
    w->reprogram_steps = 4;
  } else {
    return nullptr;
  }
  w->reprogram = std::make_unique<ReprogramKit>(w->keys, seed, spans);
  return w;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_exact(const PacketKit& kit) {
  if (!kit.exact_) {
    std::printf("exact[%s]: first pool pass not completed\n", kit.name());
    return;
  }
  const ExactCounts& e = *kit.exact_;
  const std::string epochs =
      kit.exact_epochs_ ? std::to_string(*kit.exact_epochs_) : "n/a";
  std::printf(
      "exact[%s]: packets=%llu instructions=%llu detections=%llu "
      "reinstalls=%llu epochs=%s trace_dispatches=%llu side_exits=%llu "
      "ambiguity=%.9f width_p50=%.0f\n",
      kit.name(), static_cast<unsigned long long>(e.packets),
      static_cast<unsigned long long>(e.instructions),
      static_cast<unsigned long long>(e.detections),
      static_cast<unsigned long long>(e.reinstalls),
      kit.parallel() ? epochs.c_str() : "n/a",
      static_cast<unsigned long long>(e.trace_dispatches),
      static_cast<unsigned long long>(e.side_exits), e.ambiguity, e.width_p50);
}

/// Best-time sample counts: pool positions and how often each was served.
void print_samples(const PacketKit& kit) {
  const double pool = static_cast<double>(kit.pool_size());
  std::printf("samples[%s]: pool %zu packets (%zu benign, %zu attack), "
              "served %.1f times serially, %.1f in parallel\n",
              kit.name(), kit.pool_size(), kit.pool_size() - kit.pool_attacks(),
              kit.pool_attacks(),
              static_cast<double>(kit.serial_packets_) / pool,
              static_cast<double>(kit.par_packets_) / pool);
}

/// VmHWM of this process image. Not getrusage's ru_maxrss: that survives
/// execve, so under a larger launcher (python) it reads the launcher's.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  std::string keys = "perfbench/keys";
  std::string spans_out;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--quick") {
      o.quick = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (a == "--trace") o.trace = std::strcmp(v, "0") != 0;
    else if (a == "--keys") o.keys = v;
    else if (a == "--spans-out") o.spans_out = v;
    else return false;
  }
  return !o.workload.empty() && o.seconds > 0;
}

int run(const Options& opt) {
  std::unique_ptr<SpanLog> spans;
  if (opt.trace) spans = std::make_unique<SpanLog>(1u << 18);

  // Set-up (keys, traffic pools, engines, sealed packages), repeated: half
  // the set-ups before the timed phase, the last of which runs, and half
  // after it, so the median spans the run's host conditions.
  const int setups = opt.quick ? 1 : 4;
  std::vector<double> setup_s;
  auto set_up = [&] {
    const std::int64_t t0 = now_ns();
    auto w = make_workload(opt.workload, opt.seed, opt.keys, spans.get());
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return w;
  };
  std::unique_ptr<Workload> w;
  for (int i = 0; i < setups; ++i) {
    w.reset();
    w = set_up();
    if (!w) {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
  }

  Tally tally;
  Watchdog watchdog;
  CallerAffinity affinity;
  PacketKit& pk = *w->packets;
  const std::int64_t start = now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(opt.seconds * 1e9);

  // Serial phase: two thirds of the budget. The parallel engine's workers
  // sleep meanwhile; running its segments between serial ones slowed the
  // serial engine by up to 1.7x for seconds at a time.
  std::uint64_t rounds = 0;
  while (now_ns() - start < budget * 2 / 3 || rounds < 2) {
    affinity.pin_next();
    pk.serial_segment(tally);
    if (w->attacks) w->attacks->serial_segment(tally);
    for (int s = 0; s < w->reprogram_steps; ++s) w->reprogram->step(tally);
    ++rounds;
  }
  // Parallel phase: the same packet sequence through fresh parallel
  // engines. An engine that catches up with the serial one is replaced, so
  // every parallel segment is checked and no serial work runs between
  // them. A traced run gives its last sixth to workers=1.
  auto parallel_phase = [&](std::int64_t until, std::size_t workers) {
    for (int n = 0; now_ns() - start < until || n < 2; ++n) {
      if (n == 0 || pk.parallel_caught_up()) {
        affinity.unpin();  // the new workers inherit the caller's mask
        pk.restart_parallel(workers);
      }
      affinity.pin_next();
      pk.parallel_segment(tally, watchdog, w->name.c_str());
    }
  };
  if (opt.trace) parallel_phase(budget * 5 / 6, kWorkers);
  parallel_phase(budget, opt.trace ? 1 : kWorkers);
  const double elapsed = static_cast<double>(now_ns() - start) / 1e9;

  PacketKit& ak = w->attack_kit();
  ReprogramKit& rk = *w->reprogram;
  std::printf("workload %s seed %llu: %llu rounds in %.2f s\n",
              w->name.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(rounds), elapsed);
  print_exact(pk);
  if (&ak != &pk) print_exact(ak);
  print_samples(pk);
  if (&ak != &pk) print_samples(ak);
  std::printf("samples[install]: %llu installs and switches over %zu "
              "packages\n",
              static_cast<unsigned long long>(rk.installs_),
              ReprogramKit::kPackages);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    std::vector<double> benign_us = pk.service_us(false);
    metrics = {
        {"pkt_kpps", pk.pkt_kpps(), "kpps"},
        {"par_kpps", pk.par_kpps(), "kpps"},
        {"lat_p50_us", median(pk.service_us(false)), "us"},
        {"lat_p99_us", quantile(benign_us, 0.99), "us"},
        {"recover_us", median(ak.service_us(true)), "us"},
        {"install_ms", mean(rk.best_install_.values(1e6)), "ms"},
        {"switch_us", mean(rk.best_switch_.values(1e3)), "us"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
    };
  } else {
    const LayerSamples& L = pk.layers_;
    const LayerSamples& A = ak.layers_;
    const ExactCounts e = pk.exact_.value_or(ExactCounts{});
    const double pkts = static_cast<double>(e.packets);
    const double replayed = pk.replayed();
    const double epochs = pk.epochs();
    const InstallStages& st = rk.stages_;
    const double plain = pk.plain_kpps();
    metrics = {
        {"engine.self_ns", median(L.engine_self_ns), "ns"},
        {"engine.recover_us", median(A.engine_recover_ns) / 1e3, "us"},
        {"core.exec_ns", median(L.raw_exec_ns), "ns"},
        {"core.instr_per_pkt", ratio(static_cast<double>(e.instructions), pkts), "count"},
        {"core.ns_per_instr", ratio(L.raw_ns_total, L.raw_instr_total), "ns"},
        {"core.trace_dispatch_per_pkt", ratio(static_cast<double>(e.trace_dispatches), pkts), "count"},
        {"core.side_exit_rate", ratio(static_cast<double>(e.side_exits), static_cast<double>(e.trace_dispatches)), "ratio"},
        {"monitor.self_ns", median(L.monitor_self_ns), "ns"},
        {"monitor.ambiguity", e.ambiguity, "count"},
        {"monitor.width_p50", e.width_p50, "count"},
        {"recovery.detect_per_kpkt", 1e3 * ratio(static_cast<double>(e.detections), pkts), "count"},
        {"recovery.reinstall_per_kpkt", 1e3 * ratio(static_cast<double>(e.reinstalls), pkts), "count"},
        {"parallel.w1_ratio", ratio(pk.w1_kpps(), plain), "ratio"},
        {"parallel.submit_wait_ms", median(L.submit_ms), "ms"},
        {"parallel.flush_ms", median(L.flush_ms), "ms"},
        {"parallel.epochs_per_kpkt", 1e3 * ratio(static_cast<double>(pk.exact_epochs_.value_or(0)), pkts), "count"},
        {"parallel.replayed_per_epoch", ratio(replayed, epochs), "count"},
        {"parallel.bytes_per_replayed", ratio(pk.rollback_bytes(), replayed), "B"},
        {"parallel.steals_per_kpkt", 1e3 * ratio(pk.steals(), static_cast<double>(pk.par_packets_)), "count"},
        {"install.decode_ms", median(st.decode_ms), "ms"},
        {"crypto.cert_ms", median(st.cert_ms), "ms"},
        {"crypto.open_ms", median(st.open_ms), "ms"},
        {"monitor.graph_check_ms", median(st.graph_check_ms), "ms"},
        {"monitor.graph_compile_ms", median(st.graph_compile_ms), "ms"},
        {"np.program_compile_ms", median(st.program_compile_ms), "ms"},
        {"np.stage_ms", median(st.stage_ms), "ms"},
        {"install.gap_pct", median(rk.gap_pct_), "%"},
        {"trace.overhead_pct", 100.0 * ratio(plain - pk.traced_kpps(), plain), "%"},
    };
  }

  w.reset();
  affinity.unpin();
  for (int i = 0; i < setups; ++i) set_up();
  if (!opt.trace) metrics.push_back({"setup_s", median(setup_s), "s"});

  for (const Metric& m : metrics) {
    std::printf("%-30s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("fail_pct %.6f (%llu of %llu operations)\n",
              100.0 * ratio(static_cast<double>(tally.failed),
                            static_cast<double>(tally.attempted)),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  for (const auto& [cause, count] : tally.causes) {
    std::printf("  failure: %s x%llu\n", cause.c_str(),
                static_cast<unsigned long long>(count));
  }
  if (spans && !opt.spans_out.empty() && !spans->write(opt.spans_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", opt.spans_out.c_str());
    return 1;
  }
  print_result(tally, metrics);
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fwd-min|cm-attack|reprogram "
                 "--seed N --seconds S --trace 0|1 [--keys DIR] "
                 "[--spans-out FILE] [--quick]\n");
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

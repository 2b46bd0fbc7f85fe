// Time-to-verdict benchmark: runs one workload's grid of paper verdicts
// (protocol executions through exec::Runner, then the CR / Sb testers),
// checks every verdict against the paper, and reports end-to-end metrics
// (untraced run) or per-layer metrics (traced run).
//
// All timing happens here, around calls into the program's public
// interfaces.  The traced run wraps the protocol, party, adversary,
// functionality and ensemble interfaces in timing decorators; the
// decorators forward every call unchanged, which the benchmark checks by
// comparing sample digests of traced and untraced campaigns.
//
//   perfbench --workload=W --seed=S --seconds=T --trace=0|1 [--commit=C]
//   perfbench --workload=W --seed=S --setup-only
//
// README.md describes the workloads, the metrics and which layer metric
// should move which end-to-end metric.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/adversaries.h"
#include "core/registry.h"
#include "crypto/group.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/vss.h"
#include "dist/ensembles.h"
#include "exec/runner.h"
#include "layers.h"
#include "net/transport.h"
#include "net/wire.h"
#include "net/worker.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "testers/cr_tester.h"
#include "testers/sb_tester.h"

namespace {

using namespace simulcast;
using perfbench::Layer;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// ---------------------------------------------------------------------------
// Timing decorators (traced run only).

perfbench::LayerClock g_clock;
std::atomic<std::uint64_t> g_protocol_calls{0};

class Span {
 public:
  explicit Span(Layer layer) { g_clock.open(layer, now_ns()); }
  ~Span() { g_clock.close(now_ns()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

/// A span of protocol code, counted in protocols.calls.
class ProtocolSpan : public Span {
 public:
  explicit ProtocolSpan(Layer layer) : Span(layer) {
    g_protocol_calls.fetch_add(1, std::memory_order_relaxed);
  }
};

class TimedParty final : public sim::Party {
 public:
  explicit TimedParty(std::unique_ptr<sim::Party> inner) : inner_(std::move(inner)) {}

  void begin(sim::PartyContext& ctx) override {
    const ProtocolSpan span(Layer::kParty);
    inner_->begin(ctx);
  }
  void on_round(sim::Round round, const sim::Inbox& inbox, sim::PartyContext& ctx) override {
    const ProtocolSpan span(Layer::kParty);
    inner_->on_round(round, inbox, ctx);
  }
  void finish(const sim::Inbox& inbox, sim::PartyContext& ctx) override {
    const ProtocolSpan span(Layer::kParty);
    inner_->finish(inbox, ctx);
  }
  [[nodiscard]] BitVec output() const override {
    const ProtocolSpan span(Layer::kParty);
    return inner_->output();
  }

 private:
  std::unique_ptr<sim::Party> inner_;
};

class TimedFunctionality final : public sim::TrustedFunctionality {
 public:
  explicit TimedFunctionality(std::unique_ptr<sim::TrustedFunctionality> inner)
      : inner_(std::move(inner)) {}

  void on_round(sim::Round round, const sim::Inbox& inbox, crypto::HmacDrbg& drbg,
                sim::FunctionalitySender& sender) override {
    const ProtocolSpan span(Layer::kFunctionality);
    inner_->on_round(round, inbox, drbg, sender);
  }

 private:
  std::unique_ptr<sim::TrustedFunctionality> inner_;
};

/// Keeps the wrapped protocol's name, so process-transport workers (which
/// resolve their protocol by registry name) run the same machine.  The
/// protocol's queries count as party time but not as protocols.calls; on
/// the process transport they are the only party work left in this process.
class TimedProtocol final : public sim::ParallelBroadcastProtocol {
 public:
  explicit TimedProtocol(const sim::ParallelBroadcastProtocol& inner) : inner_(&inner) {}

  [[nodiscard]] std::string name() const override {
    const Span span(Layer::kParty);
    return inner_->name();
  }
  [[nodiscard]] std::size_t rounds(std::size_t n) const override {
    const Span span(Layer::kParty);
    return inner_->rounds(n);
  }
  [[nodiscard]] std::size_t max_corruptions(std::size_t n) const override {
    const Span span(Layer::kParty);
    return inner_->max_corruptions(n);
  }
  [[nodiscard]] std::unique_ptr<sim::Party> make_party(
      sim::PartyId id, bool input, const sim::ProtocolParams& params) const override {
    const ProtocolSpan span(Layer::kParty);
    std::unique_ptr<sim::Party> party = inner_->make_party(id, input, params);
    if (party == nullptr) return nullptr;
    return std::make_unique<TimedParty>(std::move(party));
  }
  [[nodiscard]] std::unique_ptr<sim::TrustedFunctionality> make_functionality(
      const sim::ProtocolParams& params) const override {
    const Span span(Layer::kFunctionality);
    std::unique_ptr<sim::TrustedFunctionality> f = inner_->make_functionality(params);
    if (f == nullptr) return nullptr;
    g_protocol_calls.fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<TimedFunctionality>(std::move(f));
  }

 private:
  const sim::ParallelBroadcastProtocol* inner_;
};

class TimedAdversary final : public sim::Adversary {
 public:
  explicit TimedAdversary(std::unique_ptr<sim::Adversary> inner) : inner_(std::move(inner)) {}

  void setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) override {
    const Span span(Layer::kAdversary);
    inner_->setup(info, drbg);
  }
  void on_round(sim::Round round, const sim::AdversaryView& view,
                sim::AdversarySender& sender) override {
    const Span span(Layer::kAdversary);
    inner_->on_round(round, view, sender);
  }
  [[nodiscard]] Bytes output() const override {
    const Span span(Layer::kAdversary);
    return inner_->output();
  }

 private:
  std::unique_ptr<sim::Adversary> inner_;
};

adversary::AdversaryFactory timed(adversary::AdversaryFactory factory) {
  return [factory = std::move(factory)]() -> std::unique_ptr<sim::Adversary> {
    const Span span(Layer::kAdversary);
    return std::make_unique<TimedAdversary>(factory());
  };
}

class TimedEnsemble final : public dist::InputEnsemble {
 public:
  explicit TimedEnsemble(const dist::InputEnsemble& inner) : inner_(&inner) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::size_t bits() const override { return inner_->bits(); }
  [[nodiscard]] BitVec sample(stats::Rng& rng) const override {
    const Span span(Layer::kSample);
    return inner_->sample(rng);
  }
  [[nodiscard]] std::optional<stats::ExactDist> exact() const override {
    return inner_->exact();
  }

 private:
  const dist::InputEnsemble* inner_;
};

// ---------------------------------------------------------------------------
// Workloads.

enum class Expect { kViolated, kIndependent, kSimulatable };

const char* expect_name(Expect e) {
  switch (e) {
    case Expect::kViolated: return "VIOLATED";
    case Expect::kIndependent: return "independent";
    case Expect::kSimulatable: return "simulatable";
  }
  return "?";
}

/// One verdict cell: a Runner batch judged by test_cr, or a test_sb call.
struct Cell {
  std::size_t protocol = 0;  ///< index into Workload::protocols
  std::size_t ensemble = 0;  ///< index into Workload::ensembles
  bool sb = false;
  std::size_t samples = 0;   ///< per-cell constant (README.md says where each comes from)
  Expect expect = Expect::kIndependent;
  std::uint64_t seed = 0;    ///< derived from the run's --seed and the cell index
};

struct Workload {
  std::string name;
  std::size_t n = 0;
  std::size_t threads = 1;
  net::TransportKind transport = net::TransportKind::kInProcess;
  /// Empty: no corruption, silent adversary, and every execution must
  /// announce W = x consistently.  Otherwise the passive adversary runs
  /// these parties and consistency is a verdict cell of its own.
  std::vector<sim::PartyId> corrupted;
  std::vector<std::unique_ptr<sim::ParallelBroadcastProtocol>> protocols;
  std::vector<std::unique_ptr<TimedProtocol>> timed_protocols;
  std::vector<std::unique_ptr<dist::InputEnsemble>> ensembles;
  std::vector<std::unique_ptr<TimedEnsemble>> timed_ensembles;
  std::vector<Cell> cells;
};

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  std::vector<std::string> protocol_names;
  const auto add_cell = [&](std::size_t p, std::size_t e, bool sb, std::size_t samples,
                            Expect expect) {
    w.cells.push_back({p, e, sb, samples, expect, mix(seed ^ mix(w.cells.size()))});
  };
  if (name == "cr-n4") {
    // E2's grid (bench_e2_cr_impossibility): every registered protocol but
    // seq-broadcast-ds x {copy, even-parity, uniform}, 1500 executions each.
    w.n = 4;
    w.threads = 2;
    for (const std::string& p : core::protocol_names())
      if (p != "seq-broadcast-ds") protocol_names.push_back(p);
    w.ensembles.push_back(std::make_unique<dist::NoisyCopyEnsemble>(4, 0.0));
    w.ensembles.push_back(std::make_unique<dist::EvenParityEnsemble>(4));
    w.ensembles.push_back(dist::make_uniform(4));
    for (std::size_t p = 0; p < protocol_names.size(); ++p) {
      add_cell(p, 0, false, 1500, Expect::kViolated);
      add_cell(p, 1, false, 1500, Expect::kViolated);
      add_cell(p, 2, false, 1500, Expect::kIndependent);
    }
  } else if (name == "vss-n16") {
    // No bench_e* experiment runs this grid or the process one below; their counts keep
    // a campaign at a few seconds, so a run holds several.
    w.n = 16;
    w.threads = 1;
    w.corrupted = {2, 9};
    protocol_names = core::simultaneous_protocol_names();
    w.ensembles.push_back(dist::make_uniform(16));
    for (std::size_t p = 0; p < protocol_names.size(); ++p) {
      add_cell(p, 0, false, 120, Expect::kIndependent);
      add_cell(p, 0, true, 60, Expect::kSimulatable);
    }
  } else if (name == "process-n4") {
    w.n = 4;
    w.threads = 1;
    w.transport = net::TransportKind::kProcess;
    protocol_names = {"gennaro"};
    w.ensembles.push_back(dist::make_uniform(4));
    add_cell(0, 0, false, 300, Expect::kIndependent);
  } else {
    throw UsageError("unknown workload '" + name + "'");
  }
  for (const std::string& p : protocol_names) {
    w.protocols.push_back(core::make_protocol(p));
    w.timed_protocols.push_back(std::make_unique<TimedProtocol>(*w.protocols.back()));
  }
  for (const auto& e : w.ensembles)
    w.timed_ensembles.push_back(std::make_unique<TimedEnsemble>(*e));
  return w;
}

testers::RunSpec make_spec(const Workload& w, std::size_t protocol, bool traced) {
  testers::RunSpec spec;
  spec.protocol = traced ? static_cast<const sim::ParallelBroadcastProtocol*>(
                               w.timed_protocols[protocol].get())
                         : w.protocols[protocol].get();
  spec.params.n = w.n;
  spec.corrupted = w.corrupted;
  // The passive adversary runs the honest machines of the corrupted
  // parties through spec.protocol, so in the traced run their work is
  // protocol time nested inside adversary spans.
  adversary::AdversaryFactory factory = w.corrupted.empty()
                                            ? adversary::silent_factory()
                                            : adversary::passive_factory(*spec.protocol,
                                                                         spec.params);
  spec.adversary = traced ? timed(std::move(factory)) : std::move(factory);
  return spec;
}

// ---------------------------------------------------------------------------
// One campaign: every cell of the workload, first input to last verdict.

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

void fnv(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  fnv(h, bits);
}

std::uint64_t counter_value(const char* name) {
  return obs::Metrics::global().counter(name).value();
}

struct Campaign {
  double ttv_s = 0.0;       ///< first input sampled to last verdict
  double calls_s = 0.0;     ///< inside Runner and tester calls
  std::size_t attempted = 0;
  std::size_t failed = 0;   ///< threw, quarantined, or (all-honest) inconsistent or W != x
  std::size_t cells = 0;
  std::size_t wrong = 0;    ///< verdict cells that disagree with the paper
  std::vector<std::string> problems;
  std::uint64_t digest = kFnvOffset;  ///< over every (x, W, consistent) and Sb verdict
  // Exact counts.  Traffic is summed over the samples of the Runner
  // batches (test_sb returns no samples); protocol calls and the obs
  // counters cover every execution.
  std::size_t sampled = 0;
  std::size_t rounds = 0;
  std::size_t messages = 0;
  std::size_t wire_bytes = 0;
  std::uint64_t protocol_calls = 0;
  std::uint64_t spawned = 0;
  std::uint64_t frames = 0;
  std::uint64_t bytes_on_wire = 0;
  std::array<double, perfbench::kLayers> layers{};
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

Campaign run_campaign(const Workload& w, std::uint64_t run_seed, bool traced) {
  Campaign c;
  if (traced) g_clock.reset();
  const std::uint64_t calls0 = g_protocol_calls.load();
  const std::uint64_t spawned0 = counter_value("proc.spawned");
  const std::uint64_t frames0 = counter_value("net.frames");
  const std::uint64_t wire0 = counter_value("net.bytes_on_wire");
  const std::int64_t start = now_ns();
  std::int64_t calls_ns = 0;
  const auto open_region = [&](Layer layer) {
    const std::int64_t t = now_ns();
    if (traced) g_clock.open_region(layer, t);
    return t;
  };
  const auto close_region = [&](std::int64_t t0, std::size_t threads) {
    const std::int64_t t = now_ns();
    if (traced) g_clock.close_region(t, threads);
    calls_ns += t - t0;
  };

  const exec::Runner runner(w.threads);
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const Cell& cell = w.cells[i];
    const testers::RunSpec spec = make_spec(w, cell.protocol, traced);
    const dist::InputEnsemble& ensemble =
        traced ? static_cast<const dist::InputEnsemble&>(*w.timed_ensembles[cell.ensemble])
               : *w.ensembles[cell.ensemble];
    const std::string label = w.protocols[cell.protocol]->name() + " x " +
                              w.ensembles[cell.ensemble]->name() + (cell.sb ? " (Sb)" : " (CR)");
    const std::string reproduce = " [cell " + std::to_string(i) + ", cell seed " + hex(cell.seed) +
                                  "; reproduce: python3 perfbench/run.py --workload " + w.name +
                                  " --seed " + std::to_string(run_seed) + "]";
    fnv(c.digest, std::uint64_t{i});
    std::string got;
    if (cell.sb) {
      testers::SbOptions options;
      options.samples = cell.samples;
      const std::uint64_t quarantined0 = counter_value("exec.quarantined");
      const std::int64_t t0 = open_region(Layer::kSim);
      const testers::SbVerdict v = testers::test_sb(spec, ensemble, options, cell.seed);
      close_region(t0, std::min(w.threads, cell.samples));
      const std::size_t lost = counter_value("exec.quarantined") - quarantined0;
      c.attempted += 2 * cell.samples;
      c.failed += lost;
      if (lost > 0)
        c.problems.push_back(label + ": " + std::to_string(lost) + " executions quarantined" +
                             reproduce);
      fnv(c.digest, std::uint64_t{v.secure});
      fnv(c.digest, v.tv_joint);
      fnv(c.digest, v.max_distinguisher_gap);
      fnv(c.digest, v.radius);
      got = v.secure ? "simulatable" : "NOT simulatable";
    } else {
      std::int64_t t0 = open_region(Layer::kSim);
      const exec::BatchResult batch = runner.run_batch(spec, ensemble, cell.samples, cell.seed);
      close_region(t0, batch.report.threads);
      t0 = open_region(Layer::kEval);
      const testers::CrVerdict v = testers::test_cr(batch.samples, spec.corrupted);
      close_region(t0, 1);

      c.attempted += cell.samples;
      std::vector<bool> lost(cell.samples, false);
      for (const exec::QuarantineRecord& q : batch.report.quarantine) {
        lost[q.rep] = true;
        ++c.failed;
        c.problems.push_back(label + ": repetition " + std::to_string(q.rep) +
                             " (execution seed " + hex(q.seed) + ") failed: " + q.reason +
                             reproduce);
      }
      bool consistent = true;
      for (std::size_t rep = 0; rep < batch.samples.size(); ++rep) {
        const exec::Sample& s = batch.samples[rep];
        fnv(c.digest, s.inputs.packed());
        fnv(c.digest, s.announced.packed());
        fnv(c.digest, std::uint64_t{s.consistent});
        if (lost[rep]) continue;
        c.rounds += s.rounds;
        c.messages += s.traffic.messages;
        c.wire_bytes += s.traffic.wire_bytes;
        ++c.sampled;
        consistent = consistent && s.consistent;
        if (w.corrupted.empty() && (!s.consistent || s.announced != s.inputs)) {
          ++c.failed;
          c.problems.push_back(label + ": repetition " + std::to_string(rep) +
                               (s.consistent ? " announced W=" + s.announced.to_string() +
                                                   " for x=" + s.inputs.to_string()
                                             : " has inconsistent honest outputs") +
                               reproduce);
        }
      }
      if (!w.corrupted.empty()) {
        ++c.cells;
        if (!consistent) {
          ++c.wrong;
          c.problems.push_back(label + ": expected consistent honest outputs, got inconsistent" +
                               reproduce);
        }
      }
      got = v.independent ? "independent" : "VIOLATED";
      if (got != expect_name(cell.expect))
        got += " (max gap " + std::to_string(v.max_gap) + ", radius " +
               std::to_string(v.radius) + ", worst P" + std::to_string(v.worst.party) + " / " +
               v.worst.predicate + ")";
    }
    ++c.cells;
    if (got != expect_name(cell.expect)) {
      ++c.wrong;
      c.problems.push_back(label + ": expected " + expect_name(cell.expect) + ", got " + got +
                           reproduce);
    }
  }
  c.ttv_s = seconds_between(start, now_ns());
  c.calls_s = static_cast<double>(calls_ns) * 1e-9;
  c.protocol_calls = g_protocol_calls.load() - calls0;
  c.spawned = counter_value("proc.spawned") - spawned0;
  c.frames = counter_value("net.frames") - frames0;
  c.bytes_on_wire = counter_value("net.bytes_on_wire") - wire0;
  if (traced) c.layers = g_clock.seconds();
  return c;
}

/// One execution per protocol (with the workload's transport, adversary
/// and first ensemble) plus the objects and lazy tables they touch.
void warm_up(const Workload& w) {
  const exec::Runner runner(w.threads);
  for (std::size_t p = 0; p < w.protocols.size(); ++p) {
    const exec::BatchResult batch =
        runner.run_batch(make_spec(w, p, false), *w.ensembles.front(), 1, mix(p));
    if (batch.samples.size() != 1 || !batch.report.quarantine.empty())
      throw std::runtime_error("warm-up execution failed for " + w.protocols[p]->name());
  }
}

// ---------------------------------------------------------------------------
// Kernel probes: ns per call of the layers' inner loops, at the workload's n.

template <typename T>
void keep(T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

template <typename Body>
double ns_per_call(std::size_t calls, Body&& body) {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < calls; ++i) body(i);
    reps.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(calls));
  }
  return median(reps);
}

std::map<std::string, double> kernel_probes(std::size_t n) {
  std::map<std::string, double> out;
  out["crypto.drbg_new_ns"] = ns_per_call(2000, [](std::size_t i) {
    crypto::HmacDrbg drbg(i, "party:0");
    keep(drbg);
  });
  crypto::HmacDrbg drbg(7, "perfbench");
  out["crypto.drbg_u64_ns"] = ns_per_call(20000, [&](std::size_t) {
    std::uint64_t v = drbg.next_u64();
    keep(v);
  });
  Bytes block(64, 0xab);
  out["crypto.sha256_64B_ns"] = ns_per_call(20000, [&](std::size_t i) {
    block[0] = static_cast<std::uint8_t>(i);
    crypto::Digest d = crypto::sha256(block);
    keep(d);
  });
  const crypto::SchnorrGroup& group = crypto::SchnorrGroup::standard();
  const std::uint64_t base = group.exp_g(crypto::Zq(12345, group.q()));
  out["crypto.group_exp_ns"] = ns_per_call(2000, [&](std::size_t i) {
    std::uint64_t v = group.exp(base, crypto::Zq(0x5DEECE66DULL * (i + 1), group.q()));
    keep(v);
  });
  const crypto::PedersenVss vss;
  const crypto::PedersenDeal deal = vss.deal(crypto::Zq(1, group.q()), (n - 1) / 2, n, drbg);
  for (const crypto::PedersenShare& share : deal.shares)
    if (!vss.verify_share(deal.commitments, share))
      throw std::runtime_error("probe: an honest Pedersen share was rejected");
  out["crypto.pedersen_verify_ns"] = ns_per_call(500, [&](std::size_t i) {
    bool ok = vss.verify_share(deal.commitments, deal.shares[i % n]);
    keep(ok);
  });
  sim::Message message;
  message.from = 1;
  message.to = 2;
  message.round = 3;
  message.tag = "perfbench";
  message.payload = Bytes(64, 0x5a);
  Bytes frame;
  net::encode_message(message, frame);
  const sim::Message decoded = net::decode_message(frame);
  if (frame.size() != net::encoded_size(message) || decoded.tag != message.tag ||
      decoded.payload != message.payload)
    throw std::runtime_error("probe: the wire codec did not round-trip its frame");
  out["net.encode_ns"] = ns_per_call(20000, [&](std::size_t) {
    frame.clear();
    net::encode_message(message, frame);
    keep(frame);
  });
  out["net.decode_ns"] = ns_per_call(20000, [&](std::size_t) {
    sim::Message m = net::decode_message(frame);
    keep(m);
  });
  return out;
}

// ---------------------------------------------------------------------------
// Reporting.

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) break;
      std::string model = line.substr(colon + 1);
      model.erase(0, model.find_first_not_of(' '));
      return model;
    }
  }
  return "unknown";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Peak resident set of this process image.  VmHWM, not getrusage's
/// ru_maxrss: the latter keeps the high-water mark of the parent that
/// forked us (run.py) across exec.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s --workload=cr-n4|vss-n16|process-n4 --seed=N "
               "(--setup-only | --seconds=S --trace=0|1 [--commit=C])\n",
               program);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The process transport re-executes this binary as a per-party worker.
  if (const int worker_rc = net::maybe_worker_main(argc, argv); worker_rc >= 0) return worker_rc;

  std::map<std::string, std::string> args;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      setup_only = true;
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return usage(argv[0]);
    const std::string key = arg.substr(2, eq - 2);
    if (key != "workload" && key != "seed" && key != "seconds" && key != "trace" &&
        key != "commit")
      return usage(argv[0]);
    args[key] = arg.substr(eq + 1);
  }
  if (args.count("workload") == 0 || args.count("seed") == 0) return usage(argv[0]);
  if (!setup_only && (args.count("seconds") == 0 || args.count("trace") == 0))
    return usage(argv[0]);

  try {
    const std::uint64_t seed = std::stoull(args["seed"]);
    Workload w = make_workload(args["workload"], seed);

    // Failures are counted per execution, with reproducer seeds, instead of
    // aborting the batch (also inside test_sb, which builds its own Runners).
    exec::BatchOptions options;
    options.quarantine = true;
    exec::set_default_batch_options(options);
    exec::set_default_threads(w.threads);
    net::set_default_transport_kind(w.transport);
    warm_up(w);
    std::printf("setup_end_ns=%" PRId64 "\n", now_ns());
    std::fflush(stdout);
    if (setup_only) return 0;

    const double budget_s = std::stod(args["seconds"]);
    const bool trace = args["trace"] == "1";
    char host[256] = {};
    gethostname(host, sizeof host - 1);
    std::printf(
        "provenance: {\"host\": %s, \"nproc\": %ld, \"cpu\": %s, \"compiler\": %s, "
        "\"build_type\": %s, \"flags\": %s, \"commit\": %s, \"workload\": %s, "
        "\"threads\": %zu, \"transport\": %s, \"seed\": %" PRIu64 ", \"seconds\": %s, "
        "\"trace\": %d}\n",
        obs::Json::quote(host).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
        obs::Json::quote(cpu_model()).c_str(), obs::Json::quote(PERFBENCH_COMPILER).c_str(),
        obs::Json::quote(PERFBENCH_BUILD_TYPE).c_str(),
        obs::Json::quote(PERFBENCH_CXX_FLAGS).c_str(),
        obs::Json::quote(args.count("commit") != 0 ? args["commit"] : "unknown").c_str(),
        obs::Json::quote(w.name).c_str(), w.threads,
        obs::Json::quote(net::transport_kind_name(w.transport)).c_str(), seed,
        obs::Json::number(budget_s).c_str(), trace ? 1 : 0);

    std::map<std::string, double> probes;
    if (trace) probes = kernel_probes(w.n);

    std::vector<Campaign> plain;
    std::vector<Campaign> traced;
    const std::int64_t loop_start = now_ns();
    do {
      plain.push_back(run_campaign(w, seed, false));
      if (trace) traced.push_back(run_campaign(w, seed, true));
    } while (seconds_between(loop_start, now_ns()) < budget_s);

    // Verdict gate and non-perturbation checks.
    const Campaign& first = plain.front();
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t wrong = 0;
    std::vector<std::string> problems;
    for (const std::vector<Campaign>* runs : {&plain, &traced}) {
      for (const Campaign& c : *runs) {
        attempted += c.attempted;
        failed += c.failed;
        wrong += c.wrong;
        problems.insert(problems.end(), c.problems.begin(), c.problems.end());
        if (c.digest != first.digest)
          problems.push_back("sample digest " + hex(c.digest) + " of a " +
                             (runs == &traced ? "traced" : "repeated untraced") +
                             " campaign differs from " + hex(first.digest));
      }
    }
    if (w.transport == net::TransportKind::kProcess) {
      net::set_default_transport_kind(net::TransportKind::kInProcess);
      const Campaign inproc = run_campaign(w, seed, false);
      if (inproc.digest != first.digest)
        problems.push_back("process-transport sample digest " + hex(first.digest) +
                           " differs from the in-process digest " + hex(inproc.digest));
      else
        std::printf("%s: process and in-process sample digests match (%s)\n", w.name.c_str(),
                    hex(first.digest).c_str());
    }
    std::printf("%s: sample digest %s over %zu untraced and %zu traced campaigns\n",
                w.name.c_str(), hex(first.digest).c_str(), plain.size(), traced.size());
    const bool correct = wrong == 0 && failed == 0 && problems.empty();
    for (std::size_t i = 0; i < problems.size() && i < 20; ++i)
      std::printf("FAILED %s: %s\n", w.name.c_str(), problems[i].c_str());

    std::vector<Metric> metrics;
    const auto ttv = [](const std::vector<Campaign>& runs) {
      std::vector<double> v;
      for (const Campaign& c : runs) v.push_back(c.ttv_s);
      return median(v);
    };
    const double execs = static_cast<double>(first.attempted);
    if (!trace) {
      std::vector<double> rates;
      for (const Campaign& c : plain)
        rates.push_back(static_cast<double>(c.attempted - c.failed) / c.calls_s);
      metrics.push_back({"time_to_verdict_s", ttv(plain), "s"});
      metrics.push_back({"exec_per_s", median(rates), "1/s"});
      for (const Metric& m : metrics)
        std::printf("%s: %s = %.6g %s (median of %zu campaigns)\n", w.name.c_str(),
                    m.name.c_str(), m.value, m.unit.c_str(), plain.size());
      metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
      std::printf("%s: peak_rss_mb = %.6g MB\n", w.name.c_str(), metrics.back().value);
      std::printf("%s: campaign times_s =", w.name.c_str());
      for (const Campaign& c : plain) std::printf(" %.4f", c.ttv_s);
      std::printf("\n%s: verdicts_wrong = %zu (of %zu cells per campaign, %zu campaigns)\n",
                  w.name.c_str(), wrong, first.cells, plain.size());
      std::printf("%s: exec_failed = %zu (of %zu executions attempted)\n", w.name.c_str(), failed,
                  attempted);
    } else {
      // The breakdown of the median traced campaign, so its parts add up.
      std::vector<const Campaign*> order;
      for (const Campaign& c : traced) order.push_back(&c);
      std::sort(order.begin(), order.end(),
                [](const Campaign* a, const Campaign* b) { return a->ttv_s < b->ttv_s; });
      const Campaign& mid = *order[(order.size() - 1) / 2];
      for (std::size_t l = 0; l < perfbench::kLayers; ++l)
        metrics.push_back({perfbench::kLayerMetric[l], mid.layers[l], "s"});
      metrics.push_back({"other_s", perfbench::other_seconds(mid.ttv_s, mid.layers), "s"});
      metrics.push_back({"trace.time_to_verdict_s", mid.ttv_s, "s"});
      metrics.push_back({"trace.overhead_s", ttv(traced) - ttv(plain), "s"});
      const double sampled = static_cast<double>(mid.sampled);
      metrics.push_back({"exec.executions", execs, "count"});
      metrics.push_back({"sim.rounds", static_cast<double>(mid.rounds) / sampled, "count/exec"});
      metrics.push_back(
          {"sim.messages", static_cast<double>(mid.messages) / sampled, "count/exec"});
      metrics.push_back(
          {"sim.wire_bytes", static_cast<double>(mid.wire_bytes) / sampled, "B/exec"});
      metrics.push_back(
          {"protocols.calls", static_cast<double>(mid.protocol_calls) / execs, "count/exec"});
      metrics.push_back({"proc.spawned", static_cast<double>(mid.spawned) / execs, "count/exec"});
      metrics.push_back({"net.frames", static_cast<double>(mid.frames) / execs, "count/exec"});
      metrics.push_back(
          {"net.bytes_on_wire", static_cast<double>(mid.bytes_on_wire) / execs, "B/exec"});
      for (const auto& [name, ns] : probes) metrics.push_back({name, ns, "ns"});
      for (const Metric& m : metrics)
        std::printf("%s: %s = %.6g %s\n", w.name.c_str(), m.name.c_str(), m.value,
                    m.unit.c_str());
    }

    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      json += (i == 0 ? "" : ", ") + obs::Json::quote(metrics[i].name) +
              ": {\"value\": " + obs::Json::number(metrics[i].value) +
              ", \"unit\": " + obs::Json::quote(metrics[i].unit) + "}";
    }
    std::printf("%s}}\n", json.c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

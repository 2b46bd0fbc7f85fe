#include "exec/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "base/error.h"
#include "broadcast/parallel_broadcast.h"
#include "core/registry.h"
#include "core/report.h"
#include "core/session.h"
#include "crypto/commitment.h"
#include "obs/metrics.h"
#include "obs/records.h"
#include "obs/trace.h"
#include "testers/cr_tester.h"
#include "testers/gstarstar_tester.h"
#include "testers/sb_tester.h"

namespace simulcast::exec {
namespace {

bool same_sample(const Sample& a, const Sample& b) {
  return a.inputs == b.inputs && a.announced == b.announced && a.consistent == b.consistent &&
         a.adversary_output == b.adversary_output && a.rounds == b.rounds &&
         a.traffic.messages == b.traffic.messages &&
         a.traffic.point_to_point == b.traffic.point_to_point &&
         a.traffic.broadcasts == b.traffic.broadcasts &&
         a.traffic.wire_bytes == b.traffic.wire_bytes &&
         a.traffic.wire_delivered_bytes == b.traffic.wire_delivered_bytes &&
         a.traffic.dropped == b.traffic.dropped && a.traffic.delayed == b.traffic.delayed &&
         a.traffic.blocked == b.traffic.blocked && a.traffic.crashed == b.traffic.crashed;
}

RunSpec spec_for(const sim::ParallelBroadcastProtocol& proto, std::size_t n) {
  static const crypto::HashCommitmentScheme scheme;
  RunSpec spec;
  spec.protocol = &proto;
  spec.params.n = n;
  spec.params.commitments = &scheme;
  spec.adversary = adversary::silent_factory();
  return spec;
}

// The engine's contract: for every registered protocol, the sample vector is
// byte-identical whether the batch ran serially or sharded across a pool.
TEST(Runner, ParallelMatchesSerialForAllProtocols) {
  const auto ens = dist::make_uniform(4);
  for (const std::string& name : core::protocol_names()) {
    const auto proto = core::make_protocol(name);
    const RunSpec spec = spec_for(*proto, 4);
    // seq-broadcast-ds signs everything; a handful of executions suffices.
    const std::size_t count = name == "seq-broadcast-ds" ? 3 : 10;
    const auto serial = Runner(1).run_batch(spec, *ens, count, 7).samples;
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      const auto parallel = Runner(threads).run_batch(spec, *ens, count, 7).samples;
      ASSERT_EQ(serial.size(), parallel.size()) << name;
      for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_TRUE(same_sample(serial[i], parallel[i])) << name << " rep " << i;
    }
  }
}

TEST(Runner, ParallelMatchesSerialFixedInput) {
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 4);
  const BitVec input = BitVec::from_string("1010");
  const auto serial = Runner(1).run_batch(spec, input, 16, 11).samples;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto parallel = Runner(threads).run_batch(spec, input, 16, 11).samples;
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_TRUE(same_sample(serial[i], parallel[i])) << "rep " << i;
  }
}

TEST(Runner, BatchReportAggregatesTraffic) {
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  const auto batch = Runner(2).run_batch(spec, *ens, 12, 3);
  EXPECT_EQ(batch.report.executions, 12u);
  EXPECT_EQ(batch.report.threads, 2u);
  EXPECT_GT(batch.report.wall_seconds, 0.0);
  EXPECT_GT(batch.report.throughput, 0.0);
  std::size_t messages = 0;
  std::size_t rounds = 0;
  for (const Sample& s : batch.samples) {
    messages += s.traffic.messages;
    rounds += s.rounds;
  }
  EXPECT_EQ(batch.report.traffic.messages, messages);
  EXPECT_EQ(batch.report.total_rounds, rounds);
  EXPECT_GT(messages, 0u);
}

// The pool clamps to the batch size; the report must record the workers
// that actually ran, not the requested width.
TEST(Runner, BatchReportThreadsRecordsActualWorkers) {
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  const auto clamped = Runner(16).run_batch(spec, *ens, 4, 3);
  EXPECT_EQ(clamped.report.threads, 4u);  // 16 requested, only 4 executions
  const auto serial = Runner(1).run_batch(spec, *ens, 4, 3);
  EXPECT_EQ(serial.report.threads, 1u);
}

// run_batch times its phases: sampling (input drawing) and execution are
// both nonzero for an ensemble batch, and wall_seconds is the execution
// phase.  Evaluation stays zero until a tester harness accumulates into it.
TEST(Runner, BatchReportCarriesPhaseBreakdown) {
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  const auto batch = Runner(2).run_batch(spec, *ens, 16, 3);
  EXPECT_GT(batch.report.phases.sampling, 0.0);
  EXPECT_GT(batch.report.phases.execution, 0.0);
  EXPECT_DOUBLE_EQ(batch.report.phases.execution, batch.report.wall_seconds);
  EXPECT_DOUBLE_EQ(batch.report.phases.evaluation, 0.0);
}

/// The record a driver would emit, stripped of wall-clock noise: timing
/// fields zeroed and latency histograms (named *_us) dropped, leaving only
/// the quantities the determinism contract pins.
obs::ExperimentRecord canonical_record(const BatchReport& report) {
  obs::ExperimentRecord rec;
  rec.id = "test/trace-determinism";
  rec.reproduced = true;
  rec.perf.report = report;
  rec.perf.report.threads = 1;  // the pool width is allowed to differ
  rec.perf.report.wall_seconds = 0.0;
  rec.perf.report.throughput = 0.0;
  rec.perf.report.phases = {};
  rec.metrics = obs::Metrics::global().snapshot();
  auto& hists = rec.metrics.histograms;
  hists.erase(std::remove_if(hists.begin(), hists.end(),
                             [](const obs::HistogramSnapshot& h) {
                               return h.name.size() >= 3 &&
                                      h.name.compare(h.name.size() - 3, 3, "_us") == 0;
                             }),
              hists.end());
  return rec;
}

// The observability determinism contract (DESIGN.md section 8): tracing
// only observes, so the sample vector AND the canonicalized record JSON
// are byte-identical with tracing on or off, at every thread count.  Under
// the sanitize label this also runs the trace buffers through TSan.
TEST(Runner, TracingNeverPerturbsSamplesOrRecords) {
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  constexpr std::size_t kReps = 24;

  ASSERT_EQ(unsetenv("SIMULCAST_TRACE"), 0);
  obs::set_default_trace_path("");
  obs::clear_trace();
  ASSERT_FALSE(obs::trace_enabled());
  obs::Metrics::global().reset();
  const auto baseline = Runner(1).run_batch(spec, *ens, kReps, 7);
  const std::string baseline_json = obs::to_json(canonical_record(baseline.report));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    obs::set_default_trace_path("trace-on");  // flips the flag; nothing is written
    obs::clear_trace();
    ASSERT_TRUE(obs::trace_enabled());
    obs::Metrics::global().reset();
    const auto traced = Runner(threads).run_batch(spec, *ens, kReps, 7);
    const std::string traced_json = obs::to_json(canonical_record(traced.report));
    const std::vector<obs::TraceEvent> events = obs::drain_trace();
    obs::set_default_trace_path("");

    EXPECT_FALSE(events.empty()) << "traced run must actually record spans";
    ASSERT_EQ(baseline.samples.size(), traced.samples.size()) << threads;
    for (std::size_t i = 0; i < baseline.samples.size(); ++i)
      EXPECT_TRUE(same_sample(baseline.samples[i], traced.samples[i]))
          << "threads " << threads << " rep " << i;
    EXPECT_EQ(baseline_json, traced_json) << "threads " << threads;
  }
}

// Fault injection rides the same determinism contract: a nontrivial
// FaultPlan (drops + delays + a crash + a partition) yields identical
// samples — outputs AND per-execution fault counts — for one seed at
// threads {1, 2, 8}, with tracing on and off.  Under the sanitize label
// this runs the fault path (DRBG draws, crash bookkeeping, partition
// filters) through TSan across a real pool.
TEST(Runner, FaultInjectionDeterministicAcrossThreadsAndTracing) {
  const auto proto = core::make_protocol("gennaro");
  RunSpec spec = spec_for(*proto, 5);
  spec.faults.drop_probability = 0.1;
  spec.faults.max_delay = 1;
  spec.faults.crashes.push_back({2, 1});
  spec.faults.partitions.push_back({{0, 1}, 1, 3});
  const auto ens = dist::make_uniform(5);
  constexpr std::size_t kReps = 24;

  ASSERT_EQ(unsetenv("SIMULCAST_TRACE"), 0);
  obs::set_default_trace_path("");
  obs::clear_trace();
  const auto baseline = Runner(1).run_batch(spec, *ens, kReps, 13);
  std::size_t faults_seen = 0;
  for (const Sample& s : baseline.samples)
    faults_seen += s.traffic.dropped + s.traffic.delayed + s.traffic.blocked + s.traffic.crashed;
  EXPECT_GT(faults_seen, 0u) << "the plan must actually inject faults";

  for (const bool tracing : {false, true}) {
    obs::set_default_trace_path(tracing ? "trace-on" : "");
    obs::clear_trace();
    ASSERT_EQ(obs::trace_enabled(), tracing);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      const auto rerun = Runner(threads).run_batch(spec, *ens, kReps, 13);
      ASSERT_EQ(baseline.samples.size(), rerun.samples.size());
      for (std::size_t i = 0; i < baseline.samples.size(); ++i)
        EXPECT_TRUE(same_sample(baseline.samples[i], rerun.samples[i]))
            << "tracing " << tracing << " threads " << threads << " rep " << i;
      EXPECT_EQ(baseline.report.traffic.dropped, rerun.report.traffic.dropped);
      EXPECT_EQ(baseline.report.traffic.delayed, rerun.report.traffic.delayed);
      EXPECT_EQ(baseline.report.traffic.blocked, rerun.report.traffic.blocked);
      EXPECT_EQ(baseline.report.traffic.crashed, rerun.report.traffic.crashed);
    }
    (void)obs::drain_trace();
  }
  obs::set_default_trace_path("");
}

// An empty RunSpec plan falls back to the process default; an installed
// default must reach every execution and clear cleanly.
TEST(Runner, DefaultFaultPlanReachesBatches) {
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);

  sim::FaultPlan plan;
  plan.crashes.push_back({1, 0});
  set_default_fault_plan(plan);
  const auto faulty = Runner(1).run_batch(spec, *ens, 4, 5);
  set_default_fault_plan({});
  EXPECT_EQ(faulty.report.traffic.crashed, 4u) << "party 1 crashes once per execution";

  const auto clean = Runner(1).run_batch(spec, *ens, 4, 5);
  EXPECT_EQ(clean.report.traffic.crashed, 0u);
  EXPECT_TRUE(default_fault_plan().empty());
}

// Garbage in SIMULCAST_THREADS must abort loudly (exit 2), never silently
// truncate ("4abc" -> 4) or fall back to serial ("abc" -> 1).
TEST(EnvThreadsDeathTest, RejectsMalformedValues) {
  set_default_threads(0);  // route default_threads() through the env lookup
  for (const char* bad : {"4abc", "abc", "-2", "0"}) {
    ASSERT_EQ(setenv("SIMULCAST_THREADS", bad, 1), 0);
    EXPECT_EXIT((void)default_threads(), testing::ExitedWithCode(2), "SIMULCAST_THREADS")
        << bad;
  }
  ASSERT_EQ(setenv("SIMULCAST_THREADS", "3", 1), 0);
  EXPECT_EQ(default_threads(), 3u);
  ASSERT_EQ(unsetenv("SIMULCAST_THREADS"), 0);
}

/// A protocol whose machines cannot be built: exercises exception flow out
/// of worker threads.
class ThrowingProtocol final : public sim::ParallelBroadcastProtocol {
 public:
  [[nodiscard]] std::string name() const override { return "throwing"; }
  [[nodiscard]] std::size_t rounds(std::size_t) const override { return 1; }
  [[nodiscard]] std::unique_ptr<sim::Party> make_party(sim::PartyId, bool,
                                                       const sim::ProtocolParams&) const override {
    throw ProtocolError("throwing protocol: make_party");
  }
};

// A throwing execution must propagate out of the pool (first exception wins)
// and must not deadlock the join, at any thread count.
TEST(Runner, ExceptionPropagatesWithoutDeadlock) {
  const ThrowingProtocol proto;
  RunSpec spec;
  spec.protocol = &proto;
  spec.params.n = 4;
  spec.adversary = adversary::silent_factory();
  const BitVec input(4);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    EXPECT_THROW((void)Runner(threads).run_batch(spec, input, 64, 1), ProtocolError);
  }
}

TEST(Runner, Validation) {
  const auto proto = core::make_protocol("gennaro");
  const auto ens = dist::make_uniform(4);
  RunSpec null_spec;
  EXPECT_THROW((void)Runner(2).run_batch(null_spec, *ens, 1, 1), UsageError);
  RunSpec spec = spec_for(*proto, 5);
  EXPECT_THROW((void)Runner(2).run_batch(spec, *ens, 1, 1), UsageError);  // width 4 != n 5
  EXPECT_THROW((void)Runner(2).run_batch(spec, BitVec(4), 1, 1), UsageError);
  EXPECT_THROW((void)Runner(2).run_batch(spec, {BitVec(5)}, {1, 2}), UsageError);  // 1 input, 2 seeds
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), 8, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  parallel_for(0, 8, [&](std::size_t) { FAIL() << "body called for empty range"; });
}

TEST(ParallelFor, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for(hits.size(), 16, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(DefaultThreads, OverrideAndClear) {
  set_default_threads(5);
  EXPECT_EQ(default_threads(), 5u);
  EXPECT_EQ(Runner().threads(), 5u);
  EXPECT_EQ(Runner(3).threads(), 3u);
  set_default_threads(0);  // back to env / serial
}

// Session-level sweeps ride the same engine: a sharded batch must equal the
// one-at-a-time Session calls, and a single Session run is the execution a
// bare sim::run_execution with the same seed computes (the batch of one
// runs its seed as given).
TEST(SessionBatch, MatchesSerialSessions) {
  const core::Session session("gennaro", 4);
  std::vector<BitVec> inputs;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 8; ++i) {
    inputs.push_back(BitVec(4, i & 0xF));
    seeds.push_back(1000 + i);
  }
  const std::vector<core::SessionResult> batch = session.run_batch_seeded(
      inputs, seeds, {1}, adversary::copy_last_factory(0), 4);
  ASSERT_EQ(batch.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const core::SessionResult one =
        session.run_with_adversary(inputs[i], {1}, adversary::copy_last_factory(0), seeds[i]);
    EXPECT_EQ(batch[i].announced, one.announced) << i;
    EXPECT_EQ(batch[i].consistent, one.consistent) << i;
    EXPECT_EQ(batch[i].correct, one.correct) << i;
    EXPECT_EQ(batch[i].rounds, one.rounds) << i;
    EXPECT_EQ(batch[i].traffic.messages, one.traffic.messages) << i;
    EXPECT_EQ(batch[i].traffic.point_to_point, one.traffic.point_to_point) << i;
    EXPECT_EQ(batch[i].traffic.broadcasts, one.traffic.broadcasts) << i;
    EXPECT_EQ(batch[i].traffic.wire_bytes, one.traffic.wire_bytes) << i;
    EXPECT_EQ(batch[i].traffic.wire_delivered_bytes, one.traffic.wire_delivered_bytes) << i;
  }
  sim::ExecutionConfig config;
  config.seed = seeds[5];
  config.corrupted = {1};
  const std::unique_ptr<sim::Adversary> adv = adversary::copy_last_factory(0)();
  const sim::ExecutionResult bare =
      sim::run_execution(session.protocol(), session.params(), inputs[5], *adv, config);
  EXPECT_EQ(bare.rounds, batch[5].rounds);
  EXPECT_EQ(bare.traffic.wire_bytes, batch[5].traffic.wire_bytes);
  EXPECT_EQ(broadcast::extract_announced(bare, {1}).w, batch[5].announced);
}

// The engine owns the accounting.  A driver-shaped sequence — an ensemble
// batch with its CR verdict, an Sb test, a G** test and one Session run —
// must land in the process report exactly as often as the exec.executions
// counter ticks, with test_sb contributing both of its worlds (2 x S), at
// every pool width.
TEST(ProcessReport, CountsEveryExecutionOfADriverSequence) {
  constexpr std::size_t kSbSamples = 24;
  const auto proto = core::make_protocol("gennaro");
  const auto ens = dist::make_uniform(4);
  const obs::Counter& executions = obs::Metrics::global().counter("exec.executions");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    set_default_threads(threads);
    const BatchReport before = process_report();
    const std::uint64_t counted_before = executions.value();

    const RunSpec spec = spec_for(*proto, 4);
    const BatchResult batch = Runner().run_batch(spec, *ens, 40, 3);
    (void)testers::test_cr(batch.samples, spec.corrupted);
    const BatchReport after_cr = process_report();
    EXPECT_EQ(after_cr.completed - before.completed, 40u);
    EXPECT_GT(after_cr.phases.evaluation, before.phases.evaluation) << "test_cr time accounted";

    RunSpec passive = spec;
    passive.corrupted = {3};
    passive.adversary = adversary::passive_factory(*proto, passive.params);
    testers::SbOptions sb;
    sb.samples = kSbSamples;
    (void)testers::test_sb(passive, *ens, sb, 5);
    const BatchReport after_sb = process_report();
    EXPECT_EQ(after_sb.completed - after_cr.completed, 2 * kSbSamples);

    testers::GssOptions gss;
    gss.samples_per_input = 6;
    const testers::GssVerdict gss_verdict = testers::test_gstarstar(passive, gss, 7);
    const BatchReport after_gss = process_report();
    EXPECT_EQ(after_gss.completed - after_sb.completed, gss_verdict.executions);

    const core::Session session("gennaro", 4);
    (void)session.run(BitVec::from_string("1010"), 9);
    const BatchReport after = process_report();
    EXPECT_EQ(after.completed - after_gss.completed, 1u);

    EXPECT_EQ(after.completed - before.completed, executions.value() - counted_before)
        << "threads=" << threads;
    EXPECT_EQ(after.executions - before.executions, after.completed - before.completed);
    EXPECT_EQ(after.traffic.messages - before.traffic.messages,
              (after.traffic.point_to_point - before.traffic.point_to_point) +
                  (after.traffic.broadcasts - before.traffic.broadcasts));
  }
  set_default_threads(0);
}

// A legacy batch (default options) reports full resilience accounting:
// every slot completed, nothing quarantined, not partial.
TEST(Runner, LegacyBatchReportsFullCompletion) {
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  const auto batch = Runner(2).run_batch(spec, *ens, 6, 3);
  EXPECT_EQ(batch.report.completed, batch.report.executions);
  EXPECT_FALSE(batch.report.partial);
  EXPECT_TRUE(batch.report.quarantine.empty());
}

// Throughput's 0/0 guard: coarse clocks can measure wall_seconds == 0.0 for
// a tiny batch, and inf/NaN would poison the JSON sink (non-finite doubles
// serialize as null).  Both the engine's helper and merge must report
// 0, never a non-finite value.
TEST(SafeThroughput, ZeroWallClockReportsZeroNotInf) {
  EXPECT_DOUBLE_EQ(safe_throughput(100, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_throughput(0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_throughput(10, 2.0), 5.0);
  EXPECT_TRUE(std::isfinite(safe_throughput(1, 1e-300)));

  BatchReport a;
  a.executions = 50;
  a.completed = 50;
  a.wall_seconds = 0.0;
  BatchReport b;
  b.executions = 50;
  b.completed = 50;
  b.wall_seconds = 0.0;
  const BatchReport merged = merge(a, b);
  EXPECT_EQ(merged.executions, 100u);
  EXPECT_DOUBLE_EQ(merged.throughput, 0.0);
  EXPECT_TRUE(std::isfinite(merged.throughput));
}

// merge() must combine the v4 resilience accounting, not drop it: completed
// adds, partial ORs, quarantine concatenates.
TEST(Merge, CombinesResilienceAccounting) {
  BatchReport a;
  a.executions = 10;
  a.completed = 9;
  a.partial = false;
  a.quarantine.push_back({3, 77, "timeout: stuck"});
  BatchReport b;
  b.executions = 10;
  b.completed = 6;
  b.partial = true;
  const BatchReport merged = merge(a, b);
  EXPECT_EQ(merged.completed, 15u);
  EXPECT_TRUE(merged.partial);
  ASSERT_EQ(merged.quarantine.size(), 1u);
  EXPECT_EQ(merged.quarantine[0].rep, 3u);
  EXPECT_EQ(merged.quarantine[0].seed, 77u);
}

// A repeated knob must exit 2 with the usage line: silently last-winning on
// "--threads=2 --threads=8" hides which of two contradictory widths the
// campaign actually ran with.  Same rule for every knob class, including
// the resilience ones.
TEST(ConfigureThreadsDeathTest, DuplicateKnobExitsWithUsage) {
  const auto run = [](std::vector<const char*> args) {
    args.insert(args.begin(), "driver");
    (void)configure_threads(static_cast<int>(args.size()), const_cast<char**>(args.data()));
  };
  EXPECT_EXIT(run({"--threads=2", "--threads=8"}), testing::ExitedWithCode(2),
              "duplicate argument '--threads'");
  EXPECT_EXIT(run({"--json=a.json", "--json=b.json"}), testing::ExitedWithCode(2),
              "duplicate argument '--json'");
  EXPECT_EXIT(run({"--retries=1", "--retries=2"}), testing::ExitedWithCode(2),
              "duplicate argument '--retries'");
  EXPECT_EXIT(run({"--resume", "--checkpoint=c.ckpt", "--resume"}), testing::ExitedWithCode(2),
              "duplicate argument '--resume'");
  // Different knobs on one line stay legal (exercised in the child so the
  // installed defaults don't leak into this process).
  EXPECT_EXIT(
      {
        run({"--threads=2", "--json=a.json"});
        std::exit(42);
      },
      testing::ExitedWithCode(42), "");
}

TEST(ConfigureThreadsDeathTest, ResumeRequiresCheckpoint) {
  const auto run = [](std::vector<const char*> args) {
    args.insert(args.begin(), "driver");
    (void)configure_threads(static_cast<int>(args.size()), const_cast<char**>(args.data()));
  };
  EXPECT_EXIT(run({"--resume"}), testing::ExitedWithCode(2), "--resume requires --checkpoint");
}

// Every malformed or unknown argument exits 2 with a message naming it,
// never a silent default or an uncaught-exception abort.
struct RejectedArgument {
  const char* name;
  const char* arg;
  const char* message;
};

class ConfigureThreadsRejectsDeathTest : public testing::TestWithParam<RejectedArgument> {};

TEST_P(ConfigureThreadsRejectsDeathTest, ExitsTwoNamingTheProblem) {
  const RejectedArgument& row = GetParam();
  const auto run = [&row] {
    std::vector<const char*> args = {"driver", row.arg};
    (void)configure_threads(static_cast<int>(args.size()), const_cast<char**>(args.data()));
  };
  EXPECT_EXIT(run(), testing::ExitedWithCode(2), row.message);
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, ConfigureThreadsRejectsDeathTest,
    testing::Values(
        RejectedArgument{"misspelled_knob", "--thread=4", "unrecognized argument '--thread=4'"},
        RejectedArgument{"positional", "extra", "unrecognized argument 'extra'"},
        RejectedArgument{"threads_zero", "--threads=0", "--threads must be a positive integer"},
        RejectedArgument{"threads_trailing_garbage", "--threads=4x",
                         "--threads must be a positive integer"},
        RejectedArgument{"net_timeout_below_a_millisecond", "--net-timeout=0.0001",
                         "--net-timeout must be a positive number"},
        RejectedArgument{"net_timeout_not_a_number", "--net-timeout=soon",
                         "--net-timeout must be a positive number"},
        RejectedArgument{"unknown_transport", "--transport=tcp", "unknown transport 'tcp'"},
        RejectedArgument{"removed_socket_transport", "--transport=socket",
                         "transport 'socket' was removed"},
        RejectedArgument{"empty_json_path", "--json=", "--json needs a file or directory path"},
        RejectedArgument{"status_interval_zero", "--status-interval=0",
                         "--status-interval must be a positive number"},
        RejectedArgument{"drop_above_one", "--drop=1.5", "--drop must be a probability"},
        RejectedArgument{"delay_negative", "--delay=-1", "--delay must be a round count"},
        RejectedArgument{"crash_without_round", "--crash=3", "expected party@round"},
        RejectedArgument{"empty_checkpoint_path", "--checkpoint=",
                         "--checkpoint needs a file or directory path"},
        RejectedArgument{"rep_timeout_zero", "--rep-timeout=0",
                         "--rep-timeout must be a positive number"},
        RejectedArgument{"retries_negative", "--retries=-1", "--retries must be an integer"},
        RejectedArgument{"stop_after_zero", "--stop-after=0",
                         "--stop-after must be a positive repetition count"}),
    [](const testing::TestParamInfo<RejectedArgument>& param_info) {
      return param_info.param.name;
    });

// One repetition path: with quarantine on, a repetition that succeeds runs
// through the same success tail as a quarantine-off repetition, so the
// samples, the batch report and the per-execution counters agree exactly
// for every registered protocol.
class QuarantineParityTest : public testing::TestWithParam<std::string> {};

TEST_P(QuarantineParityTest, SuccessfulRepetitionsMatchTheThrowingPath) {
  const auto proto = core::make_protocol(GetParam());
  const RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  // seq-broadcast-ds signs everything; a handful of executions suffices.
  const std::size_t count = GetParam() == "seq-broadcast-ds" ? 3 : 8;
  const obs::Counter& executions = obs::Metrics::global().counter("exec.executions");
  const obs::Counter& inconsistent = obs::Metrics::global().counter("exec.inconsistent");

  const std::uint64_t executions_before = executions.value();
  const std::uint64_t inconsistent_before = inconsistent.value();
  const BatchResult plain = Runner(2).run_batch(spec, *ens, count, 5);
  const std::uint64_t plain_executions = executions.value() - executions_before;
  const std::uint64_t plain_inconsistent = inconsistent.value() - inconsistent_before;

  BatchOptions options;
  options.quarantine = true;
  Runner guarded_runner(2);
  guarded_runner.set_options(options);
  const BatchResult guarded = guarded_runner.run_batch(spec, *ens, count, 5);

  ASSERT_EQ(plain.samples.size(), guarded.samples.size());
  for (std::size_t i = 0; i < plain.samples.size(); ++i)
    EXPECT_TRUE(same_sample(plain.samples[i], guarded.samples[i])) << "rep " << i;
  EXPECT_EQ(plain_executions, count);
  EXPECT_EQ(executions.value() - executions_before - plain_executions, count);
  EXPECT_EQ(inconsistent.value() - inconsistent_before - plain_inconsistent, plain_inconsistent);
  EXPECT_EQ(guarded.report.executions, plain.report.executions);
  EXPECT_EQ(guarded.report.completed, count);
  EXPECT_EQ(plain.report.completed, count);
  EXPECT_EQ(guarded.report.total_rounds, plain.report.total_rounds);
  EXPECT_EQ(guarded.report.traffic.messages, plain.report.traffic.messages);
  EXPECT_EQ(guarded.report.traffic.wire_bytes, plain.report.traffic.wire_bytes);
  EXPECT_TRUE(guarded.report.quarantine.empty());
  EXPECT_FALSE(guarded.report.partial);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, QuarantineParityTest,
                         testing::ValuesIn(core::protocol_names()),
                         [](const testing::TestParamInfo<std::string>& param_info) {
                           std::string s = param_info.param;
                           for (char& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

// parallel_for's documented error contract: when several workers throw, the
// FIRST CAPTURED EXCEPTION BY WORKER INDEX is rethrown.  A barrier inside
// the body makes every worker throw on the same round (each of the 4
// workers holds exactly one of the 4 indices, so none can finish early),
// turning the usually racy multi-throw case deterministic: the rethrown
// message must be worker 0's, which runs on trace lane 1.
TEST(ParallelFor, FirstExceptionByWorkerIndexWins) {
  constexpr std::size_t kWorkers = 4;
  std::atomic<std::size_t> arrived{0};
  try {
    parallel_for(kWorkers, kWorkers, [&](std::size_t) {
      arrived.fetch_add(1);
      while (arrived.load() < kWorkers) std::this_thread::yield();
      throw std::runtime_error("boom from lane " + std::to_string(obs::thread_lane()));
    });
    FAIL() << "parallel_for must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom from lane 1");
  }
}

// ScopedPhase accounts its elapsed time even when the timed body throws —
// phase totals must not silently lose the time spent in failed work.
TEST(ScopedPhase, AccumulatesElapsedWhenBodyThrows) {
  double slot = 0.0;
  EXPECT_THROW(
      {
        const ScopedPhase timer(slot);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        throw std::runtime_error("phase body failed");
      },
      std::runtime_error);
  EXPECT_GT(slot, 0.0);
}

}  // namespace
}  // namespace simulcast::exec

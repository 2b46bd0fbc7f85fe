// The parallel deterministic experiment engine.
//
// Every quantity this repository measures is estimated from N independent
// protocol executions, and one execution is a pure function of
// (protocol, adversary, inputs, seed).  The Runner exploits exactly that
// purity: it shards the N repetitions across a fixed pool of threads while
// deriving each repetition's seed the same way the serial loops always did
// (`master.fork(label, rep)`), and writes each repetition's Sample into a
// pre-sized slot.  Output order and values are therefore bit-identical for
// every thread count, including the serial fallback at threads <= 1 — the
// schedule decides only *when* a slot is filled, never *what* goes in it.
//
// Seeding contract (documented in DESIGN.md section 6):
//   - ensemble batches draw all inputs up front from `master.fork("inputs")`
//     in repetition order, so the input stream is consumed exactly as the
//     historical serial loop consumed it;
//   - repetition r executes with seed `master.fork("exec", r)()` (ensemble
//     batches) or `master.fork("exec-fixed", r)()` (fixed-input batches);
//   - Rng::fork never advances the parent, so preforking all seeds first is
//     observationally identical to forking lazily inside the loop.
//
// There is no work stealing: workers pull repetition indices from a single
// atomic dispenser, which keeps the pool trivially exception-safe (a failed
// worker parks, the rest drain, join always completes) at the cost of one
// relaxed fetch_add per repetition — noise next to a protocol execution.
#pragma once

#include <chrono>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "adversary/adversaries.h"
#include "dist/ensembles.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "stats/rng.h"

namespace simulcast::exec {

/// Everything needed to run one (protocol, adversary, corruption) triple.
/// (Exposed to testers as testers::RunSpec; the fields predate the engine.)
struct RunSpec {
  const sim::ParallelBroadcastProtocol* protocol = nullptr;
  sim::ProtocolParams params;
  std::vector<sim::PartyId> corrupted;
  adversary::AdversaryFactory adversary;
  Bytes auxiliary_input;
  bool private_channels = true;
  /// Fault plan applied to every execution of the batch (sim/faults.h).
  /// An empty plan falls back to the process-wide default_fault_plan(),
  /// so the --drop/--delay/--crash knobs reach every driver unchanged.
  sim::FaultPlan faults;
};

/// One execution's observables.
struct Sample {
  BitVec inputs;           ///< x as drawn (or fixed)
  BitVec announced;        ///< W (Definition 3.1); zeroed when inconsistent
  bool consistent = false; ///< honest outputs agreed
  Bytes adversary_output;
  std::size_t rounds = 0;      ///< rounds this execution ran
  sim::TrafficStats traffic;   ///< this execution's traffic
};

/// Reproducer for one quarantined repetition: everything needed to replay
/// the failure in isolation (`rep` + `seed` pin the execution exactly; the
/// reason says what the engine saw).  Follows the one-line reproducer
/// convention of tests/props/prop.h.
struct QuarantineRecord {
  std::size_t rep = 0;        ///< slot index within the batch
  std::uint64_t seed = 0;     ///< the execution seed handed to run_execution
  std::string reason;         ///< deterministic failure description
};

/// Campaign-resilience knobs for one batch.  The defaults reproduce the
/// legacy engine exactly: no checkpointing, no watchdog, and a throwing
/// repetition aborts the batch (first exception out of parallel_for).
/// `Runner()` snapshots `default_batch_options()` at construction, which is
/// how the --checkpoint/--resume/--rep-timeout/--retries knobs reach every
/// driver, tester and Session sweep without per-caller wiring.
struct BatchOptions {
  /// Checkpoint sidecar location ("" = checkpointing off).  A path ending
  /// in ".ckpt" names the file exactly (single-batch campaigns); anything
  /// else is a directory receiving one ckpt_<identity-hash>.ckpt per batch,
  /// so multi-batch drivers checkpoint each batch independently.
  std::string checkpoint_path;
  /// Load the checkpoint (verifying its identity tuple), restore completed
  /// slots verbatim and execute only the rest.  By the purity contract the
  /// final samples are bit-identical to an uninterrupted run.
  bool resume = false;
  /// Per-repetition wall-clock deadline in seconds (0 = no watchdog).  An
  /// expired repetition is abandoned at its next round boundary and
  /// quarantined; the batch keeps going.
  double rep_timeout = 0.0;
  /// Bounded retries (exponential backoff) for repetitions failing with
  /// transient errors (std::bad_alloc, I/O).  Only consulted when
  /// `quarantine` is on.
  int retries = 0;
  /// Capture failing repetitions as QuarantineRecords (reproducer seed into
  /// the experiment record) instead of aborting the batch.  Off by default:
  /// the legacy contract — exceptions propagate — is what the existing
  /// tests and callers rely on.  configure_threads turns it on whenever
  /// --retries or --rep-timeout is given.
  bool quarantine = false;
  /// Checkpoint flush cadence in completed slots (also flushed at shutdown
  /// and on batch completion, so a graceful stop never loses work).
  std::size_t checkpoint_every = 16;
};

/// Process-wide default BatchOptions (what Runner() snapshots); installed
/// by the --checkpoint/--resume/--rep-timeout/--retries knobs.
[[nodiscard]] const BatchOptions& default_batch_options();

/// Installs `options` as the process-wide default (a default-constructed
/// value clears it).  Not thread-safe: call from main before spawning
/// batches, which is what configure_threads does.
void set_default_batch_options(BatchOptions options);

/// Recognizes and applies one resilience knob — --checkpoint=PATH,
/// --resume, --rep-timeout=S, --retries=N, --stop-after=K — installing it
/// into the process-default BatchOptions (or arming the stop-after
/// counter).  Returns false when `arg` is none of them; exits 2 on a
/// malformed value.  configure_threads routes every argument through this;
/// examples/explore's hand-rolled parser reuses it.
bool apply_resilience_knob(const std::string& arg);

/// ---- graceful shutdown -------------------------------------------------
/// SIGINT/SIGTERM flip a cooperative stop flag; workers drain at the next
/// slot boundary, the engine flushes a checkpoint for every in-flight
/// batch, and core::finish_experiment emits a partial record.  A second
/// SIGINT restores the default disposition (an insistent ^C^C still kills).

/// True once a graceful stop was requested (signal, stop-after trigger, or
/// request_shutdown()).
[[nodiscard]] bool shutdown_requested();

/// Requests a graceful stop — exactly what the signal handler does.
void request_shutdown();

/// Clears the stop flag and the stop-after trigger, re-arming the process
/// for the next campaign (used by resume loops and tests).
void clear_shutdown();

/// Installs the SIGINT/SIGTERM handlers (idempotent).  configure_threads
/// calls this, so every driver exits cleanly on ^C with a flushed partial
/// record plus the checkpoint needed to resume.
void install_signal_handlers();

/// Arms a deterministic self-interrupt: request_shutdown() fires after
/// `completed` repetitions finish process-wide (0 disarms).  Drives the
/// --stop-after knob — the same cooperative stop path as a signal, at a
/// reproducible point, which is what the resume smoke and the interrupt
/// property tests exercise.
void set_stop_after(std::size_t completed);

/// Executions-per-second with the 0/0 guard: tiny batches on coarse clocks
/// can measure wall_seconds == 0.0, and inf/NaN would poison the JSON sink
/// (non-finite doubles serialize as null).  Shared by the engine and
/// merge so no throughput is ever computed unguarded.
[[nodiscard]] double safe_throughput(std::size_t executions, double wall_seconds);

/// Per-phase wall-clock breakdown: where the time actually went.
/// `sampling` and `execution` are stamped by the Runner per batch;
/// `evaluation` is tester time, accumulated into the process report by
/// EvaluationPhase (a batch's own report always reads 0 there).
struct PhaseSeconds {
  double sampling = 0.0;    ///< drawing inputs from the ensemble (serial)
  double execution = 0.0;   ///< the sharded protocol-execution region
  double evaluation = 0.0;  ///< tester evaluation over the collected samples
};

/// Per-batch accounting: aggregated traffic plus wall-clock/throughput
/// counters for the whole batch (the substrate every scaling experiment
/// reports against).
struct BatchReport {
  std::size_t executions = 0;
  std::size_t threads = 1;       ///< workers that actually ran (pool clamped to batch size)
  double wall_seconds = 0.0;     ///< wall-clock time of the sharded region
  double throughput = 0.0;       ///< executions per second
  std::size_t total_rounds = 0;  ///< sum of per-execution round counts
  sim::TrafficStats traffic;     ///< sums over all executions
  PhaseSeconds phases;           ///< per-phase wall-clock breakdown
  // Campaign-resilience accounting (schema v4).  For a legacy batch:
  // completed == executions, quarantine empty, partial false.
  std::size_t completed = 0;     ///< slots that finished (run, or restored on resume)
  bool partial = false;          ///< a graceful stop left pending slots behind
  std::vector<QuarantineRecord> quarantine;  ///< reproducers for failed reps
  /// Campaign correlation id: the checkpoint identity digest of this batch
  /// (exec/checkpoint.h), stable across thread counts, interrupt/resume and
  /// processes.  The same id rides trace spans, log events, status
  /// heartbeats and record metadata (obs/log.h).
  std::uint64_t campaign = 0;
};

struct BatchResult {
  std::vector<Sample> samples;
  BatchReport report;
};

/// Process-wide default pool width: the last set_default_threads() value if
/// any, else the SIMULCAST_THREADS environment variable, else 1 (serial).
/// Results never depend on the value; only wall-clock does.
[[nodiscard]] std::size_t default_threads();

/// Installs `threads` as the process-wide default (0 clears the override,
/// falling back to SIMULCAST_THREADS / 1).
void set_default_threads(std::size_t threads);

/// Scans argv for the uniform knobs every bench driver and example exposes
/// — --threads=N, --transport=inproc|process (installed as the
/// process-default net transport backend), --json=PATH, --trace=PATH, the
/// telemetry knobs --log=PATH (structured event log, obs/log.h),
/// --status=PATH and --status-interval=S (heartbeat stream, obs/status.h),
/// the fault knobs --drop=P,
/// --delay=R, --crash=party@round[,party@round...] (combined into one
/// process-default FaultPlan), and the resilience knobs --checkpoint=PATH,
/// --resume, --rep-timeout=S, --retries=N, --stop-after=K (installed as the
/// process-default BatchOptions) — installs them as the process defaults
/// when present, installs the SIGINT/SIGTERM graceful-shutdown handlers,
/// and returns the effective thread default.
/// Parsing is strict: any other argument exits 2 with a usage line (a
/// silently ignored flag hides a mistyped knob), except arguments matching
/// one of the `pass_through` prefixes, which are left for the caller's own
/// parser (the micro benches pass {"--benchmark_"}).  A repeated knob also
/// exits 2: silently last-winning on "--threads=2 --threads=8" hides which
/// of two contradictory widths the campaign actually ran with.
std::size_t configure_threads(int argc, char** argv,
                              std::initializer_list<std::string_view> pass_through = {});

/// Process-wide JSON sink path: the last set_default_json_path() value if
/// any, else the SIMULCAST_JSON environment variable, else "" (disabled).
/// A path ending in ".json" names the output file exactly; anything else is
/// a directory that receives one BENCH_<id>.json per experiment (obs/sink.h).
[[nodiscard]] std::string default_json_path();

/// Installs `path` as the process-wide JSON sink (empty re-enables the
/// SIMULCAST_JSON fallback).  Not thread-safe: call from main before
/// spawning batches, which is what configure_threads does.
void set_default_json_path(std::string path);

/// Process-wide default fault plan, empty unless set: the fallback every
/// batch uses when its RunSpec carries an empty plan.  How the
/// --drop/--delay/--crash knobs reach all drivers without per-driver wiring.
[[nodiscard]] const sim::FaultPlan& default_fault_plan();

/// Installs `plan` as the process-wide default (an empty plan clears it).
/// Not thread-safe: call from main before spawning batches, which is what
/// configure_threads does.
void set_default_fault_plan(sim::FaultPlan plan);

/// Scoped phase timer: adds the elapsed wall-clock seconds of its lifetime
/// into `slot` on destruction (slots are the PhaseSeconds fields).  A
/// non-null `trace_name` additionally records the lifetime as a trace span
/// when tracing is on (obs/trace.h).
class ScopedPhase {
 public:
  explicit ScopedPhase(double& slot, const char* trace_name = nullptr)
      : slot_(slot), span_(trace_name), start_(std::chrono::steady_clock::now()) {}
  ~ScopedPhase() {
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start_;
    slot_ += elapsed.count();
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  double& slot_;
  obs::TraceSpan span_;
  std::chrono::steady_clock::time_point start_;
};

/// Sums two reports: counts, traffic, clocks and phases add, `partial` ORs,
/// quarantines concatenate, threads is the widest pool, and throughput is
/// recomputed from the sums.
[[nodiscard]] BatchReport merge(BatchReport a, const BatchReport& b);

/// Every batch completed in this process (a batch that throws is not),
/// merged, plus the evaluation time EvaluationPhase scopes accounted.
/// core::finish_experiment makes it the record's perf block.  Thread-safe.
[[nodiscard]] BatchReport process_report();

/// Scoped timer adding its lifetime to the process report's
/// phases.evaluation (plus an "evaluation" trace span).  The testers open
/// one around their statistics; do not nest (the inner time counts twice).
class EvaluationPhase {
 public:
  EvaluationPhase() : span_("evaluation"), start_(std::chrono::steady_clock::now()) {}
  ~EvaluationPhase();
  EvaluationPhase(const EvaluationPhase&) = delete;
  EvaluationPhase& operator=(const EvaluationPhase&) = delete;

 private:
  obs::TraceSpan span_;
  std::chrono::steady_clock::time_point start_;
};

/// Runs body(i) for every i in [0, count) on up to `threads` workers and
/// returns once all indices completed.  If any body throws, remaining
/// indices are abandoned, all workers join, and the first captured
/// exception (by worker index) is rethrown — the pool cannot deadlock on a
/// throwing body.  threads <= 1 runs inline with zero thread overhead.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

/// The engine.  A Runner is a configuration object (pool width), cheap to
/// construct; threads are spawned per batch so idle Runners hold nothing.
class Runner {
 public:
  /// `threads` = 0 means "use default_threads() at construction time".
  /// The resilience knobs snapshot default_batch_options() the same way;
  /// set_options() overrides them for this Runner (tests, embedders).
  explicit Runner(std::size_t threads = 0);

  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

  [[nodiscard]] const BatchOptions& options() const noexcept { return options_; }
  Runner& set_options(BatchOptions options) {
    options_ = std::move(options);
    return *this;
  }

  /// Runs `count` executions with inputs drawn from `ensemble` (drawn
  /// serially up front, in repetition order, from master.fork("inputs")).
  [[nodiscard]] BatchResult run_batch(const RunSpec& spec, const dist::InputEnsemble& ensemble,
                                      std::size_t count, std::uint64_t seed) const;

  /// Runs `count` executions with the same fixed input vector.
  [[nodiscard]] BatchResult run_batch(const RunSpec& spec, const BitVec& input,
                                      std::size_t count, std::uint64_t seed) const;

  /// Fully prepared batch: caller supplies one input vector and one seed
  /// per repetition (how Session sweeps and ValueBroadcast's per-bit
  /// sessions ride the engine without changing their seed derivations).
  [[nodiscard]] BatchResult run_batch(const RunSpec& spec, const std::vector<BitVec>& inputs,
                                      const std::vector<std::uint64_t>& seeds) const;

 private:
  std::size_t threads_;
  BatchOptions options_;
};

}  // namespace simulcast::exec

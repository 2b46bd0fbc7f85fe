#include "exec/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "base/error.h"
#include "broadcast/parallel_broadcast.h"
#include "exec/checkpoint.h"
#include "net/transport.h"
#include "net/worker.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/status.h"
#include "obs/trace.h"

namespace simulcast::exec {

namespace {

std::atomic<std::size_t> g_default_threads_override{0};

std::string& json_path_override() {
  static std::string path;
  return path;
}

sim::FaultPlan& fault_plan_override() {
  static sim::FaultPlan plan;
  return plan;
}

BatchOptions& batch_options_override() {
  static BatchOptions options;
  return options;
}

// The process report (process_report()); one mutex lets concurrent batches
// and testers add to it.
std::mutex g_process_report_mutex;
BatchReport g_process_report;

void account(const BatchReport& report) {
  const std::lock_guard<std::mutex> lock(g_process_report_mutex);
  g_process_report = merge(std::move(g_process_report), report);
}

// Graceful-shutdown state.  The stop flag is an atomic<bool> (lock-free on
// every target we build for) so the signal handler's store is
// async-signal-safe; everything else is ordinary cross-thread state touched
// only outside handlers.
std::atomic<bool> g_shutdown{false};
std::atomic<std::size_t> g_stop_after{0};
std::atomic<std::size_t> g_stop_after_completed{0};

void shutdown_signal_handler(int sig) {
  g_shutdown.store(true, std::memory_order_relaxed);
  // Restore the default disposition so an insistent second ^C kills the
  // process the old-fashioned way instead of being swallowed.
  std::signal(sig, SIG_DFL);
}

/// Feeds the --stop-after trigger: called once per actually-executed
/// repetition, process-wide.  Disarmed (the common case) it is one relaxed
/// load.
void note_completed_repetition() {
  const std::size_t target = g_stop_after.load(std::memory_order_relaxed);
  if (target == 0) return;
  if (g_stop_after_completed.fetch_add(1, std::memory_order_relaxed) + 1 >= target) {
    request_shutdown();
  }
}

std::size_t env_threads() {
  const char* env = std::getenv("SIMULCAST_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || value <= 0) {
    // Same loud failure as --threads: silently running 4 threads for
    // SIMULCAST_THREADS=4abc (or 1 for "abc") hides a mistyped knob.
    std::fprintf(stderr, "error: SIMULCAST_THREADS must be a positive integer, got '%s'\n", env);
    std::exit(2);
  }
  return static_cast<std::size_t>(value);
}

Sample run_one(const RunSpec& spec, const BitVec& input, std::uint64_t exec_seed,
               std::chrono::steady_clock::time_point deadline = {}) {
  sim::ExecutionConfig config;
  config.seed = exec_seed;
  config.corrupted = spec.corrupted;
  config.auxiliary_input = spec.auxiliary_input;
  config.private_channels = spec.private_channels;
  config.faults = spec.faults.empty() ? default_fault_plan() : spec.faults;
  config.deadline = deadline;

  const std::unique_ptr<sim::Adversary> adv = spec.adversary();
  const sim::ExecutionResult result =
      sim::run_execution(*spec.protocol, spec.params, input, *adv, config);
  const broadcast::Announced announced = broadcast::extract_announced(result, spec.corrupted);

  Sample s;
  s.inputs = input;
  s.announced = announced.consistent ? announced.w : BitVec(spec.params.n);
  s.consistent = announced.consistent;
  s.adversary_output = result.adversary_output;
  s.rounds = result.rounds;
  s.traffic = result.traffic;
  return s;
}

/// The engine's registry feeds.  Registered once (function-local statics),
/// recorded per repetition from whatever worker ran it — the histograms
/// ISSUE'd as rounds-per-execution and repetition latency, plus the
/// execution counters.
void record_repetition_metrics(const Sample& s, std::uint64_t elapsed_us) {
  static obs::Counter& executions = obs::Metrics::global().counter("exec.executions");
  static obs::Counter& inconsistent = obs::Metrics::global().counter("exec.inconsistent");
  static obs::Histogram& rounds =
      obs::Metrics::global().histogram("exec.rounds_per_execution", 0, 64, 64);
  static obs::Histogram& latency =
      obs::Metrics::global().histogram("exec.repetition_us", 0, 20000, 40);
  executions.add(1);
  if (!s.consistent) inconsistent.add(1);
  rounds.record(s.rounds);
  latency.record(elapsed_us);
}

/// The batch's identity tuple (exec/checkpoint.h): what a resume verifies
/// before trusting a sidecar file.  The stream hash covers every
/// (input, seed) pair in slot order, so two batches agree only when every
/// repetition is the same pure function application.
CampaignIdentity compute_identity(const RunSpec& spec,
                                  const std::function<const BitVec&(std::size_t)>& input_for,
                                  const std::vector<std::uint64_t>& seeds) {
  CampaignIdentity identity;
  identity.protocol = spec.protocol->name();
  identity.n = spec.params.n;
  identity.count = seeds.size();

  IdentityHash config_hash;
  config_hash.mix(static_cast<std::uint64_t>(spec.params.k));
  config_hash.mix(static_cast<std::uint64_t>(spec.corrupted.size()));
  for (const sim::PartyId id : spec.corrupted) config_hash.mix(static_cast<std::uint64_t>(id));
  config_hash.mix(spec.auxiliary_input);
  config_hash.mix(static_cast<std::uint64_t>(spec.private_channels ? 1 : 0));
  identity.config_hash = config_hash.value();

  const sim::FaultPlan& plan = spec.faults.empty() ? default_fault_plan() : spec.faults;
  IdentityHash fault_hash;
  fault_hash.mix(plan.drop_probability);
  fault_hash.mix(static_cast<std::uint64_t>(plan.max_delay));
  fault_hash.mix(static_cast<std::uint64_t>(plan.crashes.size()));
  for (const sim::CrashFault& crash : plan.crashes) {
    fault_hash.mix(static_cast<std::uint64_t>(crash.party));
    fault_hash.mix(static_cast<std::uint64_t>(crash.round));
  }
  fault_hash.mix(static_cast<std::uint64_t>(plan.partitions.size()));
  for (const sim::Partition& partition : plan.partitions) {
    fault_hash.mix(static_cast<std::uint64_t>(partition.side.size()));
    for (const sim::PartyId id : partition.side) fault_hash.mix(static_cast<std::uint64_t>(id));
    fault_hash.mix(static_cast<std::uint64_t>(partition.from));
    fault_hash.mix(static_cast<std::uint64_t>(partition.until));
  }
  identity.fault_hash = fault_hash.value();

  IdentityHash stream_hash;
  for (std::size_t rep = 0; rep < seeds.size(); ++rep) {
    stream_hash.mix(input_for(rep));
    stream_hash.mix(seeds[rep]);
  }
  identity.stream_hash = stream_hash.value();
  return identity;
}

/// One resilient repetition: watchdog deadline per attempt, bounded retry
/// with exponential backoff for transient errors, everything else (and
/// retry exhaustion) reported as a quarantine reason.  Returns true and
/// fills `sample` on success.  `rep` and `retry_count` feed telemetry only
/// (log events, heartbeat retry totals).
bool attempt_repetition(const RunSpec& spec, const BitVec& input, std::uint64_t exec_seed,
                        const BatchOptions& options, std::size_t rep,
                        std::atomic<std::size_t>& retry_count, Sample& sample,
                        std::string& reason) {
  const int max_attempts = options.retries < 0 ? 1 : options.retries + 1;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    // Each attempt gets a fresh wall-clock budget: a retry that inherited an
    // already-burned deadline could never succeed.
    std::chrono::steady_clock::time_point deadline{};
    if (options.rep_timeout > 0.0) {
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(options.rep_timeout));
    }
    try {
      sample = run_one(spec, input, exec_seed, deadline);
      return true;
    } catch (const TimeoutError& e) {
      // A stuck repetition is deterministic under the purity contract:
      // retrying it would stick again.  Quarantine immediately.
      reason = std::string("timeout: ") + e.what();
      if (obs::log_enabled())
        obs::log_event(obs::LogLevel::kWarn, "rep-watchdog", {{"rep", rep}, {"seed", exec_seed}},
                       reason);
      return false;
    } catch (const std::bad_alloc&) {
      reason = "transient: std::bad_alloc";
    } catch (const std::ios_base::failure& e) {
      reason = std::string("transient: I/O failure: ") + e.what();
    } catch (const std::system_error& e) {
      reason = std::string("transient: system error: ") + e.what();
    } catch (const std::exception& e) {
      reason = std::string("deterministic: ") + e.what();
      return false;
    }
    if (attempt + 1 < max_attempts) {
      retry_count.fetch_add(1, std::memory_order_relaxed);
      obs::Metrics::global().counter("exec.retries").add(1);
      if (obs::log_enabled())
        obs::log_event(obs::LogLevel::kInfo, "rep-retry",
                       {{"rep", rep}, {"attempt", static_cast<std::uint64_t>(attempt + 1)}},
                       reason);
      // 1ms, 2ms, 4ms, ... capped at 64ms: enough to let a transient
      // resource squeeze clear without stalling the whole worker pool.
      std::this_thread::sleep_for(std::chrono::milliseconds(1LL << std::min(attempt, 6)));
    }
  }
  reason = "transient failure persisted after " + std::to_string(max_attempts) +
           " attempts; last: " + reason;
  return false;
}

/// Shards the prepared repetitions, fills the slots, and accounts the batch.
/// With default BatchOptions this is the legacy engine bit for bit; the
/// resilience features (checkpoint/resume, watchdog, retry/quarantine,
/// graceful-stop drain) each activate only when their knob is set — except
/// the stop flag, which always drains so ^C works for every driver.
BatchResult run_prepared(const RunSpec& spec, std::size_t threads, const BatchOptions& options,
                         const std::function<const BitVec&(std::size_t)>& input_for,
                         const std::vector<std::uint64_t>& seeds, double sampling_seconds = 0.0) {
  const std::size_t count = seeds.size();
  BatchResult out;
  out.samples.resize(count);
  out.report.executions = count;
  out.report.phases.sampling = sampling_seconds;
  // parallel_for clamps the pool to the batch size; report the worker count
  // that actually ran, not the requested width (a 4-rep batch at
  // --threads=16 runs 4-wide).
  const std::size_t requested = threads < 1 ? 1 : threads;
  out.report.threads = count == 0 ? 1 : std::min(requested, count);

  // Per-slot lifecycle, shared between workers and the checkpoint flusher.
  // The release store after a slot's sample is written / acquire load before
  // it is read is what publishes the Sample across threads (TSan-checked by
  // the robustness suites).
  constexpr char kPending = 0, kDone = 1, kQuarantined = 2;
  std::vector<std::atomic<char>> status(count);

  std::mutex quarantine_mutex;
  std::vector<QuarantineRecord> quarantined;

  const bool checkpointing = !options.checkpoint_path.empty();
  if (options.resume && !checkpointing) {
    throw UsageError("exec::Runner: --resume requires a --checkpoint path");
  }

  // The identity digest doubles as the batch's campaign correlation id
  // (obs/log.h), so it is computed for every batch now, not only for
  // checkpointed ones — the hash is O(count) and vanishes next to running
  // the repetitions.
  const CampaignIdentity identity = compute_identity(spec, input_for, seeds);
  const std::uint64_t campaign = identity.digest();
  out.report.campaign = campaign;
  obs::set_current_campaign(campaign);
  obs::note_campaign(campaign);

  // Live progress published for the status reporter (and the heartbeat's
  // retry totals).  Relaxed is enough: heartbeats are approximate, the
  // authoritative accounting below reads the slot states.
  std::atomic<std::size_t> completed_count{0};
  std::atomic<std::size_t> quarantined_count{0};
  std::atomic<std::size_t> retried_count{0};
  std::atomic<std::uint64_t> last_exec_id{0};
  std::size_t restored = 0;

  std::string checkpoint_file;
  double prior_elapsed = 0.0;
  if (checkpointing) {
    checkpoint_file = resolve_checkpoint_path(options.checkpoint_path, identity);
    if (options.resume) {
      if (std::optional<CheckpointData> loaded = load_checkpoint(checkpoint_file)) {
        if (loaded->identity != identity) {
          throw UsageError(
              "exec::Runner: checkpoint identity mismatch — refusing to resume\n"
              "  checkpoint: " +
              loaded->identity.describe() + "\n  this batch: " + identity.describe());
        }
        prior_elapsed = loaded->elapsed_seconds;
        for (SlotRecord& record : loaded->slots) {
          out.samples[record.slot] = std::move(record.sample);
          status[record.slot].store(kDone, std::memory_order_relaxed);
          ++restored;
        }
        for (QuarantineRecord& record : loaded->quarantined) {
          status[record.rep].store(kQuarantined, std::memory_order_relaxed);
          quarantined.push_back(std::move(record));
        }
        completed_count.store(restored, std::memory_order_relaxed);
        quarantined_count.store(quarantined.size(), std::memory_order_relaxed);
        obs::Metrics::global().counter("exec.restored_slots").add(restored);
        if (obs::log_enabled())
          obs::log_event(obs::LogLevel::kInfo, "checkpoint-resume",
                         {{"restored", restored}, {"quarantined", quarantined.size()}},
                         checkpoint_file);
      }
      // No file: a fresh campaign run with --resume already on its command
      // line — the normal way to launch "run until done, however many
      // interruptions it takes" loops.
    }
  }

  std::mutex flush_mutex;
  std::atomic<std::size_t> finished_this_run{0};
  const auto exec_start = std::chrono::steady_clock::now();
  const auto flush_checkpoint = [&] {
    const std::lock_guard<std::mutex> lock(flush_mutex);
    CheckpointData data;
    data.identity = identity;
    const std::chrono::duration<double> so_far = std::chrono::steady_clock::now() - exec_start;
    data.elapsed_seconds = prior_elapsed + so_far.count();
    for (std::size_t rep = 0; rep < count; ++rep) {
      if (status[rep].load(std::memory_order_acquire) == kDone) {
        data.slots.push_back({rep, out.samples[rep]});
      }
    }
    {
      const std::lock_guard<std::mutex> qlock(quarantine_mutex);
      data.quarantined = quarantined;
    }
    write_checkpoint(checkpoint_file, data);
    if (obs::log_enabled())
      obs::log_event(obs::LogLevel::kDebug, "checkpoint-flush",
                     {{"slots", data.slots.size()}, {"quarantined", data.quarantined.size()}},
                     checkpoint_file);
  };

  if (obs::log_enabled())
    obs::log_event(obs::LogLevel::kInfo, "batch-begin",
                   {{"reps", count}, {"threads", out.report.threads}, {"restored", restored}});
  // One heartbeat reporter per batch when a status sink is configured.  It
  // only reads the atomics above and the metrics registry; destroyed (with
  // a final beat) before the batch report is sealed.
  std::optional<obs::StatusReporter> reporter;
  if (obs::status_enabled() && count > 0) {
    obs::StatusBatchInfo info;
    info.campaign = campaign;
    info.total = count;
    info.restored = restored;
    info.completed = &completed_count;
    info.attempted = &finished_this_run;
    info.quarantined = &quarantined_count;
    info.retried = &retried_count;
    info.last_exec = &last_exec_id;
    info.throughput_guard = &safe_throughput;
    reporter.emplace(info, obs::default_status_path(), obs::default_status_interval());
  }

  {
    const ScopedPhase timer(out.report.phases.execution, "execution");
    parallel_for(count, threads, [&](std::size_t rep) {
      if (status[rep].load(std::memory_order_relaxed) != kPending) return;  // restored
      if (shutdown_requested()) return;  // drain: leave the slot pending
      // Pure function of (campaign, rep): the same execution carries the
      // same id across thread counts, resume and processes.
      const std::uint64_t exec_id = obs::exec_correlation_id(campaign, rep);
      obs::set_current_exec(exec_id);
      obs::TraceSpan span("rep");
      span.arg("campaign", campaign);
      span.arg("exec", exec_id);
      span.arg("rep", rep);
      const auto start = std::chrono::steady_clock::now();
      bool ok = true;
      std::string reason;
      if (options.quarantine) {
        ok = attempt_repetition(spec, input_for(rep), seeds[rep], options, rep, retried_count,
                                out.samples[rep], reason);
      } else {
        // Without quarantine a throwing repetition aborts the batch through
        // parallel_for's first-by-worker-index rethrow.
        out.samples[rep] = run_one(spec, input_for(rep), seeds[rep]);
      }
      if (ok) {
        const auto elapsed = std::chrono::steady_clock::now() - start;
        record_repetition_metrics(
            out.samples[rep],
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count()));
        span.arg("rounds", out.samples[rep].rounds);
        status[rep].store(kDone, std::memory_order_release);
        completed_count.fetch_add(1, std::memory_order_relaxed);
      } else {
        {
          const std::lock_guard<std::mutex> lock(quarantine_mutex);
          quarantined.push_back({rep, seeds[rep], reason});
        }
        status[rep].store(kQuarantined, std::memory_order_release);
        quarantined_count.fetch_add(1, std::memory_order_relaxed);
        obs::Metrics::global().counter("exec.quarantined").add(1);
        if (obs::log_enabled())
          obs::log_event(obs::LogLevel::kWarn, "rep-quarantine",
                         {{"rep", rep}, {"seed", seeds[rep]}}, reason);
      }
      last_exec_id.store(exec_id, std::memory_order_relaxed);
      obs::set_current_exec(0);
      note_completed_repetition();
      const std::size_t done_now = finished_this_run.fetch_add(1, std::memory_order_relaxed) + 1;
      if (checkpointing && options.checkpoint_every > 0 &&
          done_now % options.checkpoint_every == 0) {
        // Outside the repetition try/catch on purpose: a checkpoint that
        // cannot be written must abort the batch loudly, not quarantine an
        // innocent repetition.
        flush_checkpoint();
      }
    });
  }
  // Account prior attempts' execution time after the timer closed, keeping
  // the wall_seconds == phases.execution invariant for resumed batches.
  out.report.phases.execution += prior_elapsed;

  std::size_t done = 0, pending = 0;
  for (std::size_t rep = 0; rep < count; ++rep) {
    const char state = status[rep].load(std::memory_order_acquire);
    if (state == kDone) {
      ++done;
      continue;
    }
    if (state == kPending) ++pending;
    // Give abandoned and quarantined slots a well-formed shape (the drawn
    // input, an all-zero W, consistent=false) so downstream testers can
    // index every sample without tripping on empty BitVecs.
    Sample& s = out.samples[rep];
    s.inputs = input_for(rep);
    s.announced = BitVec(spec.params.n);
    s.consistent = false;
  }
  // Final heartbeat (and TTY line cleanup) before the report is sealed.
  reporter.reset();

  std::sort(quarantined.begin(), quarantined.end(),
            [](const QuarantineRecord& a, const QuarantineRecord& b) { return a.rep < b.rep; });

  out.report.completed = done;
  out.report.partial = pending > 0;
  out.report.quarantine = std::move(quarantined);
  out.report.wall_seconds = out.report.phases.execution;
  out.report.throughput = safe_throughput(done, out.report.wall_seconds);
  for (const Sample& s : out.samples) {
    out.report.total_rounds += s.rounds;
    out.report.traffic += s.traffic;
  }

  if (obs::log_enabled()) {
    if (out.report.partial)
      obs::log_event(obs::LogLevel::kWarn, "shutdown-drain",
                     {{"completed", done}, {"pending", pending}});
    else
      obs::log_event(obs::LogLevel::kInfo, "batch-end",
                     {{"completed", done}, {"quarantined", out.report.quarantine.size()}});
  }

  if (checkpointing) {
    if (out.report.partial) {
      flush_checkpoint();  // final flush so an interrupted batch can resume
    } else {
      remove_checkpoint(checkpoint_file);  // campaign complete: nothing to resume
    }
  }
  if (out.report.partial) {
    // A drained batch may never reach finish_experiment (the driver decides
    // what to do after a graceful stop); land every configured telemetry
    // sink on disk now so the interrupt loses no observability either.
    obs::flush_sinks();
  }
  obs::set_current_campaign(0);
  account(out.report);
  return out;
}

std::vector<std::uint64_t> fork_seeds(std::uint64_t seed, std::string_view label,
                                      std::size_t count) {
  const stats::Rng master(seed);
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t rep = 0; rep < count; ++rep) seeds[rep] = master.fork(label, rep)();
  return seeds;
}

}  // namespace

std::size_t default_threads() {
  const std::size_t override_value = g_default_threads_override.load(std::memory_order_relaxed);
  return override_value != 0 ? override_value : env_threads();
}

void set_default_threads(std::size_t threads) {
  g_default_threads_override.store(threads, std::memory_order_relaxed);
}

std::string default_json_path() {
  if (!json_path_override().empty()) return json_path_override();
  const char* env = std::getenv("SIMULCAST_JSON");
  return env == nullptr ? std::string() : std::string(env);
}

void set_default_json_path(std::string path) {
  json_path_override() = std::move(path);
}

const sim::FaultPlan& default_fault_plan() {
  return fault_plan_override();
}

void set_default_fault_plan(sim::FaultPlan plan) {
  fault_plan_override() = std::move(plan);
}

const BatchOptions& default_batch_options() {
  return batch_options_override();
}

void set_default_batch_options(BatchOptions options) {
  batch_options_override() = std::move(options);
}

bool shutdown_requested() {
  return g_shutdown.load(std::memory_order_relaxed);
}

void request_shutdown() {
  g_shutdown.store(true, std::memory_order_relaxed);
}

void clear_shutdown() {
  g_shutdown.store(false, std::memory_order_relaxed);
  g_stop_after.store(0, std::memory_order_relaxed);
  g_stop_after_completed.store(0, std::memory_order_relaxed);
}

void install_signal_handlers() {
  static bool installed = false;  // main-thread only, like every CLI setter here
  if (installed) return;
  installed = true;
  std::signal(SIGINT, shutdown_signal_handler);
  std::signal(SIGTERM, shutdown_signal_handler);
}

void set_stop_after(std::size_t completed) {
  g_stop_after_completed.store(0, std::memory_order_relaxed);
  g_stop_after.store(completed, std::memory_order_relaxed);
}

double safe_throughput(std::size_t executions, double wall_seconds) {
  return wall_seconds > 0.0 ? static_cast<double>(executions) / wall_seconds : 0.0;
}

BatchReport merge(BatchReport a, const BatchReport& b) {
  a.executions += b.executions;
  a.threads = std::max(a.threads, b.threads);
  a.wall_seconds += b.wall_seconds;
  a.completed += b.completed;
  a.partial = a.partial || b.partial;
  a.quarantine.insert(a.quarantine.end(), b.quarantine.begin(), b.quarantine.end());
  a.throughput = safe_throughput(a.completed, a.wall_seconds);
  a.total_rounds += b.total_rounds;
  a.traffic += b.traffic;
  a.phases.sampling += b.phases.sampling;
  a.phases.execution += b.phases.execution;
  a.phases.evaluation += b.phases.evaluation;
  // A merged report spans several campaigns; keep the first batch's id as
  // the representative (metadata.campaigns in the record lists them all).
  if (a.campaign == 0) a.campaign = b.campaign;
  return a;
}

BatchReport process_report() {
  const std::lock_guard<std::mutex> lock(g_process_report_mutex);
  return g_process_report;
}

EvaluationPhase::~EvaluationPhase() {
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start_;
  const std::lock_guard<std::mutex> lock(g_process_report_mutex);
  g_process_report.phases.evaluation += elapsed.count();
}

bool apply_resilience_knob(const std::string& arg) {
  BatchOptions options = default_batch_options();
  if (arg.rfind("--checkpoint=", 0) == 0) {
    const std::string path = arg.substr(13);
    if (path.empty()) {
      std::fprintf(stderr, "error: --checkpoint needs a file or directory path\n");
      std::exit(2);
    }
    options.checkpoint_path = path;
  } else if (arg == "--resume") {
    options.resume = true;
  } else if (arg.rfind("--rep-timeout=", 0) == 0) {
    char* end = nullptr;
    const double seconds = std::strtod(arg.c_str() + 14, &end);
    if (end == arg.c_str() + 14 || *end != '\0' || !(seconds > 0.0)) {
      std::fprintf(stderr, "error: --rep-timeout must be a positive number of seconds, got '%s'\n",
                   arg.c_str() + 14);
      std::exit(2);
    }
    options.rep_timeout = seconds;
    options.quarantine = true;  // a watchdog without quarantine would abort the batch
  } else if (arg.rfind("--retries=", 0) == 0) {
    char* end = nullptr;
    const long retries = std::strtol(arg.c_str() + 10, &end, 10);
    if (end == arg.c_str() + 10 || *end != '\0' || retries < 0) {
      std::fprintf(stderr, "error: --retries must be an integer >= 0, got '%s'\n",
                   arg.c_str() + 10);
      std::exit(2);
    }
    options.retries = static_cast<int>(retries);
    options.quarantine = true;
  } else if (arg.rfind("--stop-after=", 0) == 0) {
    char* end = nullptr;
    const long completed = std::strtol(arg.c_str() + 13, &end, 10);
    if (end == arg.c_str() + 13 || *end != '\0' || completed <= 0) {
      std::fprintf(stderr, "error: --stop-after must be a positive repetition count, got '%s'\n",
                   arg.c_str() + 13);
      std::exit(2);
    }
    set_stop_after(static_cast<std::size_t>(completed));
    return true;
  } else {
    return false;
  }
  set_default_batch_options(std::move(options));
  return true;
}

std::size_t configure_threads(int argc, char** argv,
                              std::initializer_list<std::string_view> pass_through) {
  // Process-transport worker dispatch: a driver re-exec'd as a per-party
  // worker (net/worker.h) must never fall through into its own campaign.
  // Every driver calls configure_threads first thing in main, so this is
  // the one chokepoint covering all of them.
  if (const int worker_rc = net::maybe_worker_main(argc, argv); worker_rc >= 0)
    std::exit(worker_rc);
  sim::FaultPlan plan = default_fault_plan();
  bool plan_changed = false;
  std::set<std::string> seen_knobs;
  const char* const program = argc > 0 ? argv[0] : "driver";
  const auto usage_exit = [program](const std::string& detail) {
    std::fprintf(stderr,
                 "error: %s\n"
                 "usage: %s [--threads=N] [--transport=inproc|process] "
                 "[--net-timeout=S] [--json=PATH] "
                 "[--trace=PATH] [--log=PATH] [--status=PATH] [--status-interval=S] "
                 "[--drop=P] [--delay=R] [--crash=party@round,...] "
                 "[--checkpoint=PATH] [--resume] [--rep-timeout=S] [--retries=N] "
                 "[--stop-after=K]\n",
                 detail.c_str(), program);
    std::exit(2);
  };
  // Once per recognized knob: "--threads=2 --threads=8" silently last-winning
  // hides which of two contradictory values the campaign actually ran with.
  const auto check_duplicate = [&](const std::string& arg) {
    const std::string knob = arg.substr(0, arg.find('='));
    if (!seen_knobs.insert(knob).second) {
      usage_exit("duplicate argument '" + knob + "'");
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      check_duplicate(arg);
      char* end = nullptr;
      const long value = std::strtol(arg.c_str() + 10, &end, 10);
      if (value <= 0 || end == nullptr || *end != '\0') {
        // This is the drivers' CLI knob: a clean usage exit beats an
        // uncaught UsageError aborting the whole bench.
        std::fprintf(stderr, "error: --threads must be a positive integer, got '%s'\n",
                     arg.c_str() + 10);
        std::exit(2);
      }
      set_default_threads(static_cast<std::size_t>(value));
    } else if (arg.rfind("--transport=", 0) == 0) {
      check_duplicate(arg);
      try {
        net::set_default_transport_kind(net::parse_transport_kind(arg.substr(12)));
      } catch (const UsageError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
      }
    } else if (arg.rfind("--net-timeout=", 0) == 0) {
      check_duplicate(arg);
      // Fractional seconds are first-class (--net-timeout=0.5): negative
      // handshake tests want sub-second stall detection, and the process
      // coordinator keeps the deadline in milliseconds anyway.
      char* end = nullptr;
      const double seconds = std::strtod(arg.c_str() + 14, &end);
      const double ms = seconds * 1000.0;
      if (end == arg.c_str() + 14 || *end != '\0' || !std::isfinite(seconds) || !(ms >= 1.0)) {
        std::fprintf(stderr,
                     "error: --net-timeout must be a positive number of seconds (>= 0.001), "
                     "got '%s'\n",
                     arg.c_str() + 14);
        std::exit(2);
      }
      net::set_default_net_timeout(std::chrono::milliseconds(static_cast<long>(ms)));
    } else if (arg.rfind("--json=", 0) == 0) {
      check_duplicate(arg);
      const std::string path = arg.substr(7);
      if (path.empty()) {
        std::fprintf(stderr, "error: --json needs a file or directory path\n");
        std::exit(2);
      }
      set_default_json_path(path);
    } else if (arg.rfind("--trace=", 0) == 0) {
      check_duplicate(arg);
      const std::string path = arg.substr(8);
      if (path.empty()) {
        std::fprintf(stderr, "error: --trace needs a file or directory path\n");
        std::exit(2);
      }
      obs::set_default_trace_path(path);
    } else if (arg.rfind("--log=", 0) == 0) {
      check_duplicate(arg);
      const std::string path = arg.substr(6);
      if (path.empty()) {
        std::fprintf(stderr, "error: --log needs a file path\n");
        std::exit(2);
      }
      obs::set_default_log_path(path);
    } else if (arg.rfind("--status=", 0) == 0) {
      check_duplicate(arg);
      const std::string path = arg.substr(9);
      if (path.empty()) {
        std::fprintf(stderr, "error: --status needs a file path\n");
        std::exit(2);
      }
      obs::set_default_status_path(path);
    } else if (arg.rfind("--status-interval=", 0) == 0) {
      check_duplicate(arg);
      char* end = nullptr;
      const double seconds = std::strtod(arg.c_str() + 18, &end);
      if (end == arg.c_str() + 18 || *end != '\0' || !(seconds > 0.0)) {
        std::fprintf(stderr,
                     "error: --status-interval must be a positive number of seconds, got '%s'\n",
                     arg.c_str() + 18);
        std::exit(2);
      }
      obs::set_default_status_interval(seconds);
    } else if (arg.rfind("--drop=", 0) == 0) {
      check_duplicate(arg);
      char* end = nullptr;
      const double p = std::strtod(arg.c_str() + 7, &end);
      if (end == arg.c_str() + 7 || *end != '\0' || !(p >= 0.0 && p <= 1.0)) {
        std::fprintf(stderr, "error: --drop must be a probability in [0, 1], got '%s'\n",
                     arg.c_str() + 7);
        std::exit(2);
      }
      plan.drop_probability = p;
      plan_changed = true;
    } else if (arg.rfind("--delay=", 0) == 0) {
      check_duplicate(arg);
      char* end = nullptr;
      const long rounds = std::strtol(arg.c_str() + 8, &end, 10);
      if (end == arg.c_str() + 8 || *end != '\0' || rounds < 0) {
        std::fprintf(stderr, "error: --delay must be a round count >= 0, got '%s'\n",
                     arg.c_str() + 8);
        std::exit(2);
      }
      plan.max_delay = static_cast<std::size_t>(rounds);
      plan_changed = true;
    } else if (arg.rfind("--crash=", 0) == 0) {
      check_duplicate(arg);
      try {
        plan.crashes = sim::parse_crash_schedule(arg.substr(8));
      } catch (const UsageError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
      }
      plan_changed = true;
    } else if (arg.rfind("--checkpoint=", 0) == 0 || arg == "--resume" ||
               arg.rfind("--rep-timeout=", 0) == 0 || arg.rfind("--retries=", 0) == 0 ||
               arg.rfind("--stop-after=", 0) == 0) {
      check_duplicate(arg);
      apply_resilience_knob(arg);
    } else {
      bool passed = false;
      for (const std::string_view prefix : pass_through)
        passed = passed || arg.rfind(prefix, 0) == 0;
      if (!passed) {
        // Strict by design: a silently ignored "--thread=4" runs the whole
        // experiment serially while the user believes otherwise.
        usage_exit("unrecognized argument '" + arg + "'");
      }
    }
  }
  if (plan_changed) set_default_fault_plan(std::move(plan));
  if (default_batch_options().resume && default_batch_options().checkpoint_path.empty()) {
    usage_exit("--resume requires --checkpoint=PATH (nowhere to load the checkpoint from)");
  }
  install_signal_handlers();
  return default_threads();
}

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t workers = std::min(threads < 1 ? 1 : threads, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      // Lane w+1 for every pool's worker w (the main thread is lane 0), so
      // repeated batches merge into stable per-worker trace lanes.
      obs::set_thread_lane(static_cast<std::uint32_t>(w + 1));
      try {
        while (!failed.load(std::memory_order_relaxed)) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= count) break;
          body(i);
        }
      } catch (...) {
        errors[w] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

Runner::Runner(std::size_t threads)
    : threads_(threads == 0 ? default_threads() : threads), options_(default_batch_options()) {}

BatchResult Runner::run_batch(const RunSpec& spec, const dist::InputEnsemble& ensemble,
                              std::size_t count, std::uint64_t seed) const {
  if (spec.protocol == nullptr) throw UsageError("exec::Runner: null protocol");
  if (ensemble.bits() != spec.params.n) throw UsageError("exec::Runner: ensemble width != n");
  const stats::Rng master(seed);
  stats::Rng input_rng = master.fork("inputs");
  std::vector<BitVec> inputs;
  inputs.reserve(count);
  double sampling_seconds = 0.0;
  {
    const ScopedPhase timer(sampling_seconds, "sampling");
    for (std::size_t rep = 0; rep < count; ++rep) inputs.push_back(ensemble.sample(input_rng));
  }
  return run_prepared(spec, threads_, options_,
                      [&inputs](std::size_t rep) -> const BitVec& { return inputs[rep]; },
                      fork_seeds(seed, "exec", count), sampling_seconds);
}

BatchResult Runner::run_batch(const RunSpec& spec, const BitVec& input, std::size_t count,
                              std::uint64_t seed) const {
  if (spec.protocol == nullptr) throw UsageError("exec::Runner: null protocol");
  if (input.size() != spec.params.n) throw UsageError("exec::Runner: input width != n");
  return run_prepared(spec, threads_, options_,
                      [&input](std::size_t) -> const BitVec& { return input; },
                      fork_seeds(seed, "exec-fixed", count));
}

BatchResult Runner::run_batch(const RunSpec& spec, const std::vector<BitVec>& inputs,
                              const std::vector<std::uint64_t>& seeds) const {
  if (spec.protocol == nullptr) throw UsageError("exec::Runner: null protocol");
  if (inputs.size() != seeds.size())
    throw UsageError("exec::Runner: inputs.size() != seeds.size()");
  for (const BitVec& input : inputs)
    if (input.size() != spec.params.n) throw UsageError("exec::Runner: input width != n");
  return run_prepared(spec, threads_, options_,
                      [&inputs](std::size_t rep) -> const BitVec& { return inputs[rep]; }, seeds);
}

}  // namespace simulcast::exec

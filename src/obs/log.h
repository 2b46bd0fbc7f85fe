// Structured event log (obs::Log): leveled, ring-buffered JSONL events for
// the load-bearing moments of a campaign — retries, quarantines, watchdog
// fires, checkpoint flushes, worker deaths, injected faults.
//
// The log is the narrative twin of the trace: traces answer "where did the
// time go", the log answers "what happened".  Events are recorded into
// per-thread ring buffers (registered process-wide, surviving thread exit,
// exactly like the trace buffers) and merged timestamp-sorted at flush
// time into an append-mode JSONL file, one object per line, so a crashed
// or interrupted campaign still leaves its story on disk and `tail -f` /
// `jq` work unmodified.  Unlike the trace sink the log path always names a
// file: appending across batches is the point, there is no per-experiment
// fan-out.
//
// Every event carries the correlation ids of its context: the *campaign
// id* (the checkpoint identity digest of the running batch — stable across
// interrupt/resume and across processes computing the same work unit) and
// the *execution id* (a per-repetition mix of campaign and rep).  The same
// ids ride trace span args, status heartbeats and record metadata, so the
// three artifacts of one run join on them (DESIGN.md section 13).
//
// Determinism contract (DESIGN.md section 8): logging only observes.  No
// RNG, seed or sample value is touched, so every output of the repository
// is bit-identical with the log sink on or off, at every thread count
// (pinned by tests/obs/telemetry_test.cpp).
//
// Concurrency contract: record from any thread; merge (drain_log /
// flush_log) only while no worker is recording — the engine's parallel_for
// join provides the happens-before edge, as with tracing.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace simulcast::obs {

enum class LogLevel : std::uint8_t { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// "debug" | "info" | "warn" | "error".
[[nodiscard]] std::string_view log_level_name(LogLevel level);

/// A numeric event attribute.  Keys must be string literals (or otherwise
/// outlive the log), mirroring TraceArg.
struct LogArg {
  const char* key;
  std::uint64_t value;
};

/// One buffered event.  `event` must be a string literal; `detail` is an
/// owned free-text payload (log sites are cold, the copy is fine).
struct LogRecord {
  static constexpr std::size_t kMaxArgs = 4;

  const char* event = nullptr;
  LogLevel level = LogLevel::kInfo;
  std::uint32_t lane = 0;       ///< recording thread's trace lane
  std::uint64_t ts_us = 0;      ///< microseconds since the trace epoch
  std::uint64_t campaign = 0;   ///< 0 = outside any batch
  std::uint64_t exec = 0;       ///< 0 = outside any repetition
  std::array<const char*, kMaxArgs> arg_keys{};
  std::array<std::uint64_t, kMaxArgs> arg_values{};
  std::uint8_t arg_count = 0;
  std::string detail;           ///< free text (quarantine reason, path, ...)
};

namespace detail {
extern std::atomic<bool> g_log_enabled;
}  // namespace detail

/// True when a log sink is configured.  Relaxed load — the entire cost of
/// a log site with logging off (plus building any detail string, so guard
/// string construction with this at hot-ish sites).
[[nodiscard]] inline bool log_enabled() {
  return detail::g_log_enabled.load(std::memory_order_relaxed);
}

/// Process-wide log sink path: the last set_default_log_path() value if
/// any, else the SIMULCAST_LOG environment variable, else "" (disabled).
/// Always a file path (JSONL, opened in append mode at flush).
[[nodiscard]] std::string default_log_path();

/// Installs `path` as the log sink (empty re-enables the SIMULCAST_LOG
/// fallback) and flips log_enabled() accordingly.  Not thread-safe: call
/// from main before spawning batches (exec::configure_threads does).
void set_default_log_path(std::string path);

/// Records one event into the calling thread's ring buffer, stamping the
/// timestamp, lane and current correlation ids.  No-op when logging is
/// off or `event` is null.  At capacity the oldest buffered event of this
/// thread is overwritten and obs.log_dropped_events is incremented.
void log_event(LogLevel level, const char* event, std::initializer_list<LogArg> args = {},
               std::string detail = {});

// --- correlation ids -----------------------------------------------------

/// The campaign id of the batch currently running (process-wide; batches
/// are sequential).  0 = no batch.  Set by exec::Runner at batch start.
void set_current_campaign(std::uint64_t id);
[[nodiscard]] std::uint64_t current_campaign();

/// The execution id of the repetition this thread is running (0 between
/// repetitions).  Set by the Runner worker around each repetition.
void set_current_exec(std::uint64_t id);
[[nodiscard]] std::uint64_t current_exec();

/// Mixes (campaign, rep) into a per-execution correlation id.  Pure
/// function of its inputs, so an execution keeps its id across resume,
/// thread counts and processes.  Never returns 0.
[[nodiscard]] std::uint64_t exec_correlation_id(std::uint64_t campaign, std::uint64_t rep);

/// Fixed-width lower-case 16-hex rendering — the wire form of an id
/// (matches exec::CampaignIdentity::digest()'s checkpoint filename form).
[[nodiscard]] std::string correlation_hex(std::uint64_t id);

/// Upper bound on the campaigns kept for record metadata.  Tester sweeps
/// launch thousands of tiny probe batches; only the first
/// kCampaignListCap ids (in deterministic batch order) make it into
/// metadata.campaigns so the correlation list cannot dwarf the record.
inline constexpr std::size_t kCampaignListCap = 32;

/// Registers a campaign id for the experiment record's metadata.campaigns
/// list.  Deduplicated, order-preserving (first-seen order = batch order),
/// capped at kCampaignListCap entries.
void note_campaign(std::uint64_t id);
[[nodiscard]] std::vector<std::uint64_t> campaigns_seen();
void clear_campaigns();

// --- draining and sinks --------------------------------------------------

/// Merges every thread's ring into one timestamp-sorted vector and clears
/// the rings.  Call only while no worker thread is recording.
[[nodiscard]] std::vector<LogRecord> drain_log();

/// Discards all buffered events without rendering them.
void clear_log();

/// Renders one record as a single JSONL line (no trailing newline):
/// {"ts_us":..,"level":"..","event":"..","lane":..,"campaign":"16hex"|null,
///  "exec":"16hex"|null, <args...>, "detail":".."?}
[[nodiscard]] std::string log_line(const LogRecord& record);

/// Drains the buffers and appends one line per event to `path` (parent
/// directories created).  Throws UsageError when the file cannot be
/// written.  Returns `path`.
std::string flush_log(const std::string& path);

/// flush_log to the configured sink; returns "" (draining nothing) when no
/// sink is configured.
std::string flush_log();

/// Registers a named flusher invoked by flush_sinks(); re-registering a
/// name replaces the previous flusher.  The log and status sinks register
/// themselves; the graceful-shutdown drain path and finish_experiment call
/// flush_sinks() so no configured sink is left unwritten on interrupt.
void register_sink_flush(const char* name, std::function<void()> fn);
void flush_sinks();

}  // namespace simulcast::obs

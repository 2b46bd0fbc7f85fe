#include "obs/log.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <utility>

#include "base/error.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"  // trace epoch + lane: log and trace timestamps must be comparable

namespace simulcast::obs {

namespace detail {
std::atomic<bool> g_log_enabled{[] {
  const char* env = std::getenv("SIMULCAST_LOG");
  return env != nullptr && *env != '\0';
}()};
}  // namespace detail

namespace {

/// Per-thread ring capacity.  A long campaign with logging on keeps the
/// newest events (the ring overwrites the oldest); the loss is counted in
/// obs.log_dropped_events, never silent.
constexpr std::size_t kRingCapacity = 1u << 16;

struct ThreadRing {
  std::vector<LogRecord> records;  // grows to kRingCapacity, then wraps
  std::size_t head = 0;            // oldest entry once wrapped

  void push(LogRecord record) {
    if (records.size() < kRingCapacity) {
      records.push_back(std::move(record));
      return;
    }
    records[head] = std::move(record);
    head = (head + 1) % kRingCapacity;
    Metrics::global().counter("obs.log_dropped_events").add(1);
  }

  void drain_into(std::vector<LogRecord>& out) {
    for (std::size_t i = 0; i < records.size(); ++i)
      out.push_back(std::move(records[(head + i) % records.size()]));
    records.clear();
    head = 0;
  }
};

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

/// Owns every thread's ring; entries outlive their threads so the merge
/// sees events from workers that already exited (trace.cpp idiom).
std::vector<std::shared_ptr<ThreadRing>>& registry() {
  static std::vector<std::shared_ptr<ThreadRing>> rings;
  return rings;
}

ThreadRing& local_ring() {
  thread_local std::shared_ptr<ThreadRing> ring = [] {
    auto fresh = std::make_shared<ThreadRing>();
    const std::lock_guard<std::mutex> lock(registry_mutex());
    registry().push_back(fresh);
    return fresh;
  }();
  return *ring;
}

std::string& log_path_override() {
  static std::string path;
  return path;
}

std::atomic<std::uint64_t> g_current_campaign{0};
thread_local std::uint64_t t_current_exec = 0;

std::mutex& campaigns_mutex() {
  static std::mutex m;
  return m;
}

std::vector<std::uint64_t>& campaigns_list() {
  static std::vector<std::uint64_t> ids;
  return ids;
}

struct SinkFlusher {
  std::string name;
  std::function<void()> fn;
};

std::mutex& sinks_mutex() {
  static std::mutex m;
  return m;
}

std::vector<SinkFlusher>& sinks() {
  static std::vector<SinkFlusher> entries;
  return entries;
}

void ensure_log_sink_registered() {
  static const bool registered = [] {
    register_sink_flush("log", [] { (void)flush_log(); });
    return true;
  }();
  (void)registered;
}

}  // namespace

std::string_view log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "info";
}

std::string default_log_path() {
  if (!log_path_override().empty()) return log_path_override();
  const char* env = std::getenv("SIMULCAST_LOG");
  return env == nullptr ? std::string() : std::string(env);
}

void set_default_log_path(std::string path) {
  log_path_override() = std::move(path);
  detail::g_log_enabled.store(!default_log_path().empty(), std::memory_order_relaxed);
  ensure_log_sink_registered();
}

void log_event(LogLevel level, const char* event, std::initializer_list<LogArg> args,
               std::string detail_text) {
  if (event == nullptr || !log_enabled()) return;
  ensure_log_sink_registered();
  LogRecord record;
  record.event = event;
  record.level = level;
  record.lane = thread_lane();
  record.ts_us = detail::trace_now_us();
  record.campaign = current_campaign();
  record.exec = current_exec();
  for (const LogArg& arg : args) {
    if (record.arg_count >= LogRecord::kMaxArgs) break;
    record.arg_keys[record.arg_count] = arg.key;
    record.arg_values[record.arg_count] = arg.value;
    ++record.arg_count;
  }
  record.detail = std::move(detail_text);
  local_ring().push(std::move(record));
}

void set_current_campaign(std::uint64_t id) {
  g_current_campaign.store(id, std::memory_order_relaxed);
}

std::uint64_t current_campaign() {
  return g_current_campaign.load(std::memory_order_relaxed);
}

void set_current_exec(std::uint64_t id) {
  t_current_exec = id;
}

std::uint64_t current_exec() {
  return t_current_exec;
}

std::uint64_t exec_correlation_id(std::uint64_t campaign, std::uint64_t rep) {
  // SplitMix64 finalizer over campaign ^ golden-ratio-striped rep: cheap,
  // well-mixed, and a pure function of its inputs so the id survives
  // resume and recomputation in another process.
  std::uint64_t x = campaign ^ (rep * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

std::string correlation_hex(std::uint64_t id) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 0; i < 16; ++i) out[15 - i] = digits[(id >> (4 * i)) & 0xf];
  return out;
}

void note_campaign(std::uint64_t id) {
  if (id == 0) return;
  const std::lock_guard<std::mutex> lock(campaigns_mutex());
  auto& ids = campaigns_list();
  // Tester sweeps can launch thousands of tiny probe batches; listing each
  // in record metadata would dwarf the record itself.  Keep the first
  // kCampaignListCap ids (batch order is deterministic, so capped lists
  // still compare bit-identical across runs).
  if (ids.size() >= kCampaignListCap) return;
  if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
}

std::vector<std::uint64_t> campaigns_seen() {
  const std::lock_guard<std::mutex> lock(campaigns_mutex());
  return campaigns_list();
}

void clear_campaigns() {
  const std::lock_guard<std::mutex> lock(campaigns_mutex());
  campaigns_list().clear();
}

std::vector<LogRecord> drain_log() {
  std::vector<LogRecord> out;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex());
    for (const std::shared_ptr<ThreadRing>& ring : registry()) ring->drain_into(out);
  }
  std::stable_sort(out.begin(), out.end(), [](const LogRecord& a, const LogRecord& b) {
    return a.ts_us != b.ts_us ? a.ts_us < b.ts_us : a.lane < b.lane;
  });
  return out;
}

void clear_log() {
  (void)drain_log();
}

std::string log_line(const LogRecord& record) {
  std::string line = "{\"ts_us\":" + Json::number(record.ts_us);
  line += ",\"level\":" + Json::quote(log_level_name(record.level));
  line += ",\"event\":" + Json::quote(record.event == nullptr ? "" : record.event);
  line += ",\"lane\":" + Json::number(std::uint64_t{record.lane});
  line += ",\"campaign\":";
  line += record.campaign == 0 ? "null" : Json::quote(correlation_hex(record.campaign));
  line += ",\"exec\":";
  line += record.exec == 0 ? "null" : Json::quote(correlation_hex(record.exec));
  for (std::uint8_t a = 0; a < record.arg_count; ++a) {
    line += ',';
    line += Json::quote(record.arg_keys[a]);
    line += ':';
    line += Json::number(record.arg_values[a]);
  }
  if (!record.detail.empty()) line += ",\"detail\":" + Json::quote(record.detail);
  line += "}";
  return line;
}

std::string flush_log(const std::string& path) {
  if (path.empty()) throw UsageError("obs::flush_log: empty path");
  const std::vector<LogRecord> records = drain_log();
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path target(path);
  if (target.has_parent_path()) fs::create_directories(target.parent_path(), ec);
  if (ec) throw UsageError("obs::flush_log: cannot create '" + path + "': " + ec.message());
  std::ofstream out(target, std::ios::app);
  for (const LogRecord& record : records) out << log_line(record) << '\n';
  out.flush();
  if (!out) throw UsageError("obs::flush_log: cannot write '" + path + "'");
  return path;
}

std::string flush_log() {
  const std::string path = default_log_path();
  if (path.empty()) return {};
  return flush_log(path);
}

void register_sink_flush(const char* name, std::function<void()> fn) {
  const std::lock_guard<std::mutex> lock(sinks_mutex());
  for (SinkFlusher& entry : sinks()) {
    if (entry.name == name) {
      entry.fn = std::move(fn);
      return;
    }
  }
  sinks().push_back({name, std::move(fn)});
}

void flush_sinks() {
  // Copy under the lock, invoke outside it: a flusher may register.
  std::vector<SinkFlusher> copy;
  {
    const std::lock_guard<std::mutex> lock(sinks_mutex());
    copy = sinks();
  }
  for (const SinkFlusher& entry : copy)
    if (entry.fn) entry.fn();
}

}  // namespace simulcast::obs

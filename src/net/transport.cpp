#include "net/transport.h"

#include <atomic>
#include <string>

#include "base/error.h"

namespace simulcast::net {

namespace {

// Relaxed atomic so concurrent Runner workers constructing ExecutionConfigs
// read the knob without synchronization; it is written only from main
// before batches start (same contract as every exec:: process default).
std::atomic<TransportKind> g_default_kind{TransportKind::kInProcess};

// Milliseconds, not a duration: std::atomic<std::chrono::milliseconds> is
// not guaranteed lock-free and the knob is read on every blocking wait.
std::atomic<long> g_net_timeout_ms{30000};

}  // namespace

std::string_view transport_kind_name(TransportKind kind) noexcept {
  return kind == TransportKind::kProcess ? "process" : "inproc";
}

TransportKind parse_transport_kind(std::string_view text) {
  if (text == "inproc") return TransportKind::kInProcess;
  if (text == "process") return TransportKind::kProcess;
  if (text == "socket")
    throw UsageError("transport 'socket' was removed; use --transport=process for real "
                     "kernel sockets between isolated parties (expected inproc|process)");
  throw UsageError("unknown transport '" + std::string(text) + "' (expected inproc|process)");
}

TransportKind default_transport_kind() noexcept {
  return g_default_kind.load(std::memory_order_relaxed);
}

void set_default_transport_kind(TransportKind kind) noexcept {
  g_default_kind.store(kind, std::memory_order_relaxed);
}

std::chrono::milliseconds default_net_timeout() noexcept {
  return std::chrono::milliseconds(g_net_timeout_ms.load(std::memory_order_relaxed));
}

void set_default_net_timeout(std::chrono::milliseconds timeout) noexcept {
  g_net_timeout_ms.store(timeout.count(), std::memory_order_relaxed);
}

}  // namespace simulcast::net

// The --transport= and --net-timeout= knobs.
//
// The round scheduler (sim/network.cpp) owns the messages between rounds:
// one slot-indexed mailbox per delivery slot, where a submit is a vector
// push and a collect is a vector move, so delivery order is submission
// order (DESIGN.md section 11).  What the knob chooses is where the honest
// party *machines* run:
//
//   - kInProcess (the default): every machine is an object in the
//     scheduler's process.  The fast path.
//   - kProcess: every honest machine runs in its own worker process under
//     a per-execution coordinator (net/procs.h); each round's deliveries
//     and outboxes cross a kernel socketpair in the net/wire.h encoding.
//
// Samples and verdicts are identical on both: the backend changes where
// party code runs and how its bytes move, never what an execution
// computes.  "Bytes on wire" is priced the same way on both — every
// scheduled message is charged encoded_size() bytes — so the net.frames /
// net.bytes_on_wire counters (recorded by the scheduler) are pure
// functions of the traffic.
#pragma once

#include <chrono>
#include <string_view>

namespace simulcast::net {

enum class TransportKind {
  kInProcess,  ///< every machine in the scheduler's process (default)
  kProcess,    ///< per-party worker processes under a coordinator (net/procs.h)
};

/// "inproc" / "process" — the spelling of the --transport= knob.
[[nodiscard]] std::string_view transport_kind_name(TransportKind kind) noexcept;

/// Parses a --transport= value; throws UsageError on anything else.  The
/// removed loopback-TCP backend ("socket") draws a message pointing at
/// "process", the one wire path.
[[nodiscard]] TransportKind parse_transport_kind(std::string_view text);

/// Process-wide default backend, TransportKind::kInProcess unless the
/// --transport= knob (exec::configure_threads) installed another.  Read by
/// sim::ExecutionConfig's default member initializer, so every execution
/// that does not explicitly pick a backend follows the knob.
[[nodiscard]] TransportKind default_transport_kind() noexcept;

/// Installs the process-wide default.  Not thread-safe: call from main
/// before spawning batches, which is what configure_threads does.
void set_default_transport_kind(TransportKind kind) noexcept;

/// Stall deadline for every blocking network wait: the process
/// coordinator's handshake and reply reads abandon the execution
/// (ProtocolError) after this long without progress.  Defaults to 30
/// seconds; the --net-timeout=S knob (exec::configure_threads, fractional
/// seconds accepted) shortens it so tests fail in seconds, not minutes.
/// Chaos-resilient channels treat this as a ceiling and derive tighter
/// adaptive deadlines from observed round-trip times (net/worker.h
/// stall_deadline()).  Relaxed atomic, same write-from-main contract as
/// the transport-kind default.
[[nodiscard]] std::chrono::milliseconds default_net_timeout() noexcept;
void set_default_net_timeout(std::chrono::milliseconds timeout) noexcept;

}  // namespace simulcast::net

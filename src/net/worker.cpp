#include "net/worker.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <system_error>

#include "base/error.h"
#include "net/transport.h"

namespace simulcast::net {

namespace {

WorkerLoop g_worker_loop = nullptr;

[[noreturn]] void throw_sys(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// Loads the little-endian u32 length prefix of a control frame.
std::uint32_t load_len(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

void store_len(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

}  // namespace

std::string_view proc_frame_name(ProcFrame type) noexcept {
  switch (type) {
    case ProcFrame::kHello: return "hello";
    case ProcFrame::kBegin: return "begin";
    case ProcFrame::kRound: return "round";
    case ProcFrame::kFinish: return "finish";
    case ProcFrame::kAck: return "ack";
    case ProcFrame::kOut: return "out";
    case ProcFrame::kFailed: return "failed";
    case ProcFrame::kOutput: return "output";
  }
  return "unknown";
}

void encode_worker_hello(const WorkerHello& hello, Bytes& out) {
  ByteWriter w(std::move(out));
  w.u32(kProcMagic);
  w.u8(kProcVersion);
  w.u64(hello.n);
  w.u64(hello.slot);
  w.u64(hello.k);
  w.u64(hello.seed);
  w.u64(hello.rounds);
  w.u8(hello.input ? 1 : 0);
  w.u8(hello.spectator ? 1 : 0);
  w.u8(hello.kill_enabled ? 1 : 0);
  w.u64(hello.kill_round);
  w.u64(hello.fault_digest);
  w.str(hello.protocol);
  w.str(hello.commitments);
  out = w.take();
}

WorkerHello decode_worker_hello(const Bytes& body) {
  ByteReader r(body);
  if (r.u32() != kProcMagic) throw ProtocolError("worker hello: bad magic");
  const std::uint8_t version = r.u8();
  if (version != kProcVersion)
    throw ProtocolError("worker hello: protocol version " + std::to_string(version) +
                        " != " + std::to_string(kProcVersion));
  WorkerHello hello;
  hello.n = r.u64();
  hello.slot = r.u64();
  hello.k = r.u64();
  hello.seed = r.u64();
  hello.rounds = r.u64();
  hello.input = r.u8() != 0;
  hello.spectator = r.u8() != 0;
  hello.kill_enabled = r.u8() != 0;
  hello.kill_round = r.u64();
  hello.fault_digest = r.u64();
  hello.protocol = r.str();
  hello.commitments = r.str();
  if (!r.done()) throw ProtocolError("worker hello: trailing bytes");
  return hello;
}

void encode_worker_ack(const WorkerAck& ack, Bytes& out) {
  ByteWriter w(std::move(out));
  w.u32(kProcMagic);
  w.u8(kProcVersion);
  w.u64(ack.slot);
  w.u64(ack.fault_digest);
  out = w.take();
}

WorkerAck decode_worker_ack(const Bytes& body) {
  ByteReader r(body);
  if (r.u32() != kProcMagic) throw ProtocolError("worker ack: bad magic");
  const std::uint8_t version = r.u8();
  if (version != kProcVersion)
    throw ProtocolError("worker ack: protocol version " + std::to_string(version) +
                        " != " + std::to_string(kProcVersion));
  WorkerAck ack;
  ack.slot = r.u64();
  ack.fault_digest = r.u64();
  if (!r.done()) throw ProtocolError("worker ack: trailing bytes");
  return ack;
}

bool WorkerChannel::send_all(const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t rc = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      throw_sys("WorkerChannel: send");
    }
    sent += static_cast<std::size_t>(rc);
  }
  return true;
}

bool WorkerChannel::write_frame(ProcFrame type, const Bytes& body) {
  std::uint8_t header[5];
  store_len(header, static_cast<std::uint32_t>(body.size() + 1));
  header[4] = static_cast<std::uint8_t>(type);
  // Two short writes instead of one coalesced buffer: control frames are
  // cold (a handful per party per round), clarity wins.
  if (!send_all(header, sizeof header)) return false;
  return body.empty() || send_all(body.data(), body.size());
}

WorkerChannel::Status WorkerChannel::read_frame(ProcFrame& type, Bytes& body,
                                                std::chrono::milliseconds deadline) {
  const auto give_up = std::chrono::steady_clock::now() + deadline;
  for (;;) {
    // A complete frame already reassembled?
    const std::size_t have = inbuf_.size() - inbuf_head_;
    if (have >= 4) {
      const std::uint32_t len = load_len(inbuf_.data() + inbuf_head_);
      if (len < 1 || len > kMaxProcFrame) {
        const std::string claimed =
            have >= 5 ? std::string(proc_frame_name(
                            static_cast<ProcFrame>(inbuf_[inbuf_head_ + 4])))
                      : "unreadable";
        throw ProtocolError("WorkerChannel[" + label_ + "]: " + claimed +
                            " frame declares body length " + std::to_string(len) +
                            " outside [1, " + std::to_string(kMaxProcFrame) + "]");
      }
      if (have >= 4 + static_cast<std::size_t>(len)) {
        const std::uint8_t* frame = inbuf_.data() + inbuf_head_ + 4;
        type = static_cast<ProcFrame>(frame[0]);
        body.assign(frame + 1, frame + len);
        inbuf_head_ += 4 + len;
        if (inbuf_head_ == inbuf_.size()) {
          inbuf_.clear();
          inbuf_head_ = 0;
        }
        return Status::kOk;
      }
    }

    const auto now = std::chrono::steady_clock::now();
    if (now >= give_up) return Status::kTimeout;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(give_up - now);
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()) + 1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_sys("WorkerChannel: poll");
    }
    if (rc == 0) return Status::kTimeout;

    std::uint8_t chunk[4096];
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      if (errno == ECONNRESET) return Status::kEof;
      throw_sys("WorkerChannel: recv");
    }
    if (got == 0) return Status::kEof;
    inbuf_.insert(inbuf_.end(), chunk, chunk + got);
  }
}

void set_worker_loop(WorkerLoop loop) noexcept { g_worker_loop = loop; }

int maybe_worker_main(int argc, char** argv) {
  int fd = -1;
  bool mute = false;
  long timeout_ms = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind(kWorkerFdFlag, 0) == 0) {
      fd = std::atoi(argv[i] + std::strlen(kWorkerFdFlag));
    } else if (arg.rfind(kWorkerTimeoutFlag, 0) == 0) {
      timeout_ms = std::atol(argv[i] + std::strlen(kWorkerTimeoutFlag));
    } else if (arg == kWorkerMuteFlag) {
      mute = true;
    }
  }
  if (fd < 0) return -1;  // not a worker invocation

  if (mute) {
    // The connects-but-never-handshakes negative case: hold the channel
    // open and say nothing until the coordinator gives up and kills us.
    for (;;) ::pause();
  }
  if (timeout_ms > 0) set_default_net_timeout(std::chrono::milliseconds(timeout_ms));

  try {
    WorkerChannel channel(fd);
    ProcFrame type{};
    Bytes body;
    const auto status = channel.read_frame(type, body, default_net_timeout());
    if (status != WorkerChannel::Status::kOk) return 3;
    if (type != ProcFrame::kHello) return 3;
    const WorkerHello hello = decode_worker_hello(body);
    // Generic shape checks; exiting without an ack is the rejection
    // signal the coordinator turns into ProtocolError.
    if (hello.n == 0 || hello.n > 64 || hello.slot >= hello.n) return 3;
    if (g_worker_loop == nullptr) return 4;
    return g_worker_loop(channel, hello);
  } catch (const ProtocolError&) {
    return 3;
  } catch (...) {
    return 4;
  }
}

}  // namespace simulcast::net

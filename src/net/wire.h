// The wire format: a flat, length-prefixed binary framing of sim::Message,
// spoken between the process coordinator and its workers (net/worker.h)
// and used to price scheduled traffic (the net.* counters in sim/network.cpp).
//
// One frame is
//
//   u32 frame_len   -- bytes following this field (little-endian, as is
//                      every integer below)
//   u8  version     -- kWireVersion; a decoder rejects anything else
//   u64 from
//   u64 to          -- party id, sim::kBroadcast or sim::kFunctionality
//   u64 round
//   u32 tag_len     -- followed by tag_len raw tag bytes
//   u32 payload_len -- followed by payload_len raw payload bytes
//   u32 crc         -- CRC32C over every byte between frame_len and here
//
// and frame_len must equal the exact size of the fields it covers —
// a frame with slack or overrun bytes is rejected, so garbage cannot hide
// inside a "valid" length prefix.  The CRC32C trailer (version 2) is
// verified *before* any field is interpreted, so a bit-flipped frame —
// the chaos layer's corruption model (net/chaos.h) — always surfaces as
// ChecksumError, never as a field-level parse of garbage; resilient
// channels catch exactly that type, count the reject and wait for a
// retransmit.  Commitment and opening payloads need no
// special casing: protocols already canonicalize them into Message::payload
// through base/bytes.h's length-prefixed ByteWriter, so the frame treats
// every payload as opaque bytes.
//
// Serialization is zero-copy in the sense that matters on the hot path:
// WireWriter appends frames directly into a caller-owned (reusable) Bytes
// buffer with no intermediate allocation, and WireReader decodes from a
// borrowed span, copying each field exactly once into the resulting
// Message.  encoded_size() prices a frame without materializing it, which
// is how the scheduler's net.* counters and TrafficStats account true wire
// bytes without paying for serialization.
//
// Decoding errors (truncation, version mismatch, length inconsistencies)
// throw simulcast::ProtocolError — malformed traffic is an adversarial
// condition, never a crash.
#pragma once

#include <cstdint>
#include <cstring>

#include "base/bytes.h"
#include "sim/message.h"

namespace simulcast::net {

/// Bumped on any frame-layout change; a decoder rejects other versions.
/// v2: the CRC32C integrity trailer.
inline constexpr std::uint8_t kWireVersion = 2;

/// Fixed bytes of a frame beyond the tag and payload: the u32 length
/// prefix, the version byte, three u64 header fields, two u32 lengths and
/// the u32 CRC32C trailer.
inline constexpr std::size_t kFrameOverhead = 4 + 1 + 3 * 8 + 2 * 4 + 4;

/// CRC32C (Castagnoli) over `size` bytes, software table implementation.
/// `seed` chains multi-buffer computations (pass a previous return value).
[[nodiscard]] std::uint32_t crc32c(const std::uint8_t* data, std::size_t size,
                                   std::uint32_t seed = 0) noexcept;

/// Exact on-wire size of `m`'s frame, length prefix included.
[[nodiscard]] inline std::size_t encoded_size(const sim::Message& m) noexcept {
  return kFrameOverhead + m.tag.size() + m.payload.size();
}

/// Appends frames to a caller-owned buffer.  The buffer is only ever
/// grown; callers reuse one buffer across frames (and clear() between
/// batches) so steady-state encoding allocates nothing.
class WireWriter {
 public:
  explicit WireWriter(Bytes& out) : out_(out) {}

  /// Appends one complete frame for `m`.
  void message(const sim::Message& m);

  [[nodiscard]] const Bytes& data() const noexcept { return out_; }

 private:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void raw(const void* data, std::size_t size);

  Bytes& out_;
};

/// Decodes frames from a borrowed byte span.  The reader never copies the
/// input; each message() call consumes exactly one frame.  Throws
/// ProtocolError on truncated, mis-versioned or length-inconsistent input.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit WireReader(const Bytes& buffer) : WireReader(buffer.data(), buffer.size()) {}

  /// Decodes the next frame into a Message.
  [[nodiscard]] sim::Message message();

  /// Bytes consumed so far.
  [[nodiscard]] std::size_t offset() const noexcept { return pos_; }
  /// True when the whole span has been consumed.
  [[nodiscard]] bool done() const noexcept { return pos_ == size_; }

 private:
  void need(std::size_t count) const;
  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Convenience single-frame helpers built on the writer/reader.
void encode_message(const sim::Message& m, Bytes& out);
[[nodiscard]] sim::Message decode_message(const Bytes& frame);

}  // namespace simulcast::net

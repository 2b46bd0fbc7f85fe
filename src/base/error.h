// Error hierarchy for the simulcast library.
//
// All library errors derive from simulcast::Error (itself a
// std::runtime_error) so callers can catch the whole library with one
// handler while still distinguishing protocol violations from misuse.
#pragma once

#include <stdexcept>
#include <string>

namespace simulcast {

/// Base class of every exception thrown by the library.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A cryptographic check failed (bad commitment opening, invalid VSS share,
/// signature rejection).  These are adversarial conditions, not bugs.
class CryptoError : public Error {
 public:
  using Error::Error;
};

/// A protocol-level violation observed during execution: malformed message,
/// consistency failure between honest parties, missing output.
class ProtocolError : public Error {
 public:
  using Error::Error;
};

/// A frame failed its integrity check (net/wire.h CRC32C trailer).  A
/// subclass of ProtocolError so every handler treats it as malformed
/// traffic; the distinct type lets tests tell a checksum reject from a
/// field-level parse error.
class ChecksumError : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

/// API misuse by the caller (bad parameters, wrong phase).
class UsageError : public Error {
 public:
  using Error::Error;
};

/// A cooperative watchdog deadline expired (exec::BatchOptions::rep_timeout):
/// the round scheduler abandoned the execution at a safe boundary.  The
/// engine quarantines the repetition instead of aborting the batch.
class TimeoutError : public Error {
 public:
  using Error::Error;
};

}  // namespace simulcast

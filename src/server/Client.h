//===- server/Client.h - pdgc-serve client connection -----------*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal synchronous client for the pdgc-serve protocol, shared by
/// `pdgc-loadgen` and the server tests. One `ClientConnection` is one TCP
/// connection doing frame-at-a-time request/response; errors are typed
/// (`TransportError`) rather than thrown, because under chaos testing a
/// dropped connection is an *expected* event the caller counts and
/// retries, not an exception.
///
/// `callWithRetry` implements the protocol's client half of load
/// shedding: on REJECTED it sleeps the server's `retry-after-ms` hint
/// scaled by exponential backoff with deterministic per-attempt jitter,
/// reconnecting as needed. That is the loop that turns an overloaded
/// server's fast rejections into smoothed client-side latency instead of
/// a retry stampede.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_SERVER_CLIENT_H
#define PDGC_SERVER_CLIENT_H

#include "server/Protocol.h"

#include <cstdint>
#include <string>

namespace pdgc {
namespace server {

/// What went wrong at the byte layer (Protocol-level problems come back
/// as parse failures instead).
enum class TransportError {
  None = 0,
  ConnectFailed,
  SendFailed,
  RecvFailed,   ///< Truncated, oversized, or failed frame read.
  BadResponse,  ///< Frame arrived but did not parse as a response.
};

const char *transportErrorName(TransportError E);

class ClientConnection {
public:
  ClientConnection() = default;
  ~ClientConnection();

  ClientConnection(const ClientConnection &) = delete;
  ClientConnection &operator=(const ClientConnection &) = delete;

  /// Connects to 127.0.0.1:\p Port. Returns false on refusal.
  bool connect(std::uint16_t Port);

  bool connected() const { return Fd >= 0; }
  void close();

  /// Sends \p Req and blocks for the response. On failure the connection
  /// is closed and the error is reported; \p Out is untouched.
  TransportError call(const Request &Req, Response &Out);

  /// call() plus the shedding contract: REJECTED responses are retried
  /// up to \p MaxAttempts times with exponential backoff seeded from the
  /// server's retry-after hint; dropped connections are re-dialed when
  /// \p RetryTransport (the chaos-mode setting) is true. \p Seed makes
  /// the backoff jitter deterministic per client. \p MaxElapsedMs is the
  /// retry policy's overall wall-clock budget, honored across redials
  /// and backoff sleeps (each sleep is clipped to what remains): a
  /// crash-looping or quarantine-rejecting server then costs a bounded
  /// wait, not MaxAttempts full backoffs. 0 = attempts alone bound the
  /// loop. No backoff follows the last attempt: its answer returns
  /// at once.
  TransportError callWithRetry(const Request &Req, Response &Out,
                               std::uint16_t Port, unsigned MaxAttempts,
                               bool RetryTransport, std::uint64_t Seed,
                               unsigned *Retries = nullptr,
                               unsigned MaxElapsedMs = 0);

private:
  int Fd = -1;
};

} // namespace server
} // namespace pdgc

#endif // PDGC_SERVER_CLIENT_H

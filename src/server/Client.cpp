//===- server/Client.cpp - pdgc-serve client connection --------------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"

#include "server/FrameCodec.h"

#include <chrono>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace pdgc;
using namespace pdgc::server;

const char *server::transportErrorName(TransportError E) {
  switch (E) {
  case TransportError::None:
    return "none";
  case TransportError::ConnectFailed:
    return "connect-failed";
  case TransportError::SendFailed:
    return "send-failed";
  case TransportError::RecvFailed:
    return "recv-failed";
  case TransportError::BadResponse:
    return "bad-response";
  }
  return "none";
}

ClientConnection::~ClientConnection() { close(); }

void ClientConnection::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

bool ClientConnection::connect(std::uint16_t Port) {
  // A signal may interrupt connect() (EINTR audit: tests arm timer
  // signals; servers reap children). POSIX leaves the old socket
  // connecting asynchronously after EINTR, so retry on a *fresh* socket
  // rather than re-calling connect() on the same fd (that would report
  // EALREADY, not progress).
  for (int Tries = 0; Tries != 4; ++Tries) {
    close();
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Port);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) ==
        0) {
      int One = 1;
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
      return true;
    }
    if (errno != EINTR)
      break;
  }
  close();
  return false;
}

TransportError ClientConnection::call(const Request &Req, Response &Out) {
  if (Fd < 0)
    return TransportError::ConnectFailed;
  if (!writeFrame(Fd, serializeRequest(Req))) {
    close();
    return TransportError::SendFailed;
  }
  std::string Payload;
  if (readFrame(Fd, Payload) != FrameResult::Ok) {
    close();
    return TransportError::RecvFailed;
  }
  Response R;
  std::string Error;
  if (!parseResponse(Payload, R, Error)) {
    close();
    return TransportError::BadResponse;
  }
  Out = std::move(R);
  return TransportError::None;
}

TransportError ClientConnection::callWithRetry(
    const Request &Req, Response &Out, std::uint16_t Port,
    unsigned MaxAttempts, bool RetryTransport, std::uint64_t Seed,
    unsigned *Retries, unsigned MaxElapsedMs) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point Start = Clock::now();
  // Remaining wall budget in ms; ~0ull means unbounded (the policy's
  // MaxElapsedMs == 0). Every backoff sleep is clipped to it, so the
  // loop can never owe more sleep than the budget allows.
  auto RemainingMs = [&]() -> std::uint64_t {
    if (MaxElapsedMs == 0)
      return ~0ull;
    std::uint64_t Spent = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              Start)
            .count());
    return Spent >= MaxElapsedMs ? 0 : MaxElapsedMs - Spent;
  };
  // Sleeps before the attempt after \p Attempt; after the last attempt
  // nothing follows, so there is nothing to wait for.
  auto BackoffClipped = [&](unsigned Attempt, std::uint64_t SleepMs) {
    if (Attempt + 1 >= MaxAttempts)
      return;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min(SleepMs, RemainingMs())));
  };

  TransportError Last = TransportError::ConnectFailed;
  for (unsigned Attempt = 0; Attempt < MaxAttempts; ++Attempt) {
    if (Attempt != 0 && RemainingMs() == 0)
      return Last; // the retry policy's wall budget is spent
    if (Attempt != 0 && Retries)
      ++*Retries;
    if (!connected() && !connect(Port)) {
      Last = TransportError::ConnectFailed;
      if (!RetryTransport)
        return Last;
      // The server may be mid-overload or mid-accept-fault; back off
      // like a shed request would.
      BackoffClipped(Attempt, 5u << std::min(Attempt, 6u));
      continue;
    }
    Last = call(Req, Out);
    if (Last == TransportError::None) {
      if (Out.Status != ResponseStatus::Rejected)
        return TransportError::None;
      // Shed: honor the server's hint, doubled per attempt, with a
      // deterministic jitter so a fleet of clients does not stampede
      // back in lockstep.
      unsigned Base = Out.RetryAfterMs ? Out.RetryAfterMs : 10;
      std::uint64_t H = Seed * 0x9E3779B97F4A7C15ull + Attempt + 1;
      H ^= H >> 33;
      unsigned Jitter = static_cast<unsigned>(H % (Base + 1));
      unsigned SleepMs = std::min(
          Base * (1u << std::min(Attempt, 6u)) + Jitter, 2000u);
      BackoffClipped(Attempt, SleepMs);
      continue;
    }
    if (!RetryTransport)
      return Last;
    BackoffClipped(Attempt, 5u << std::min(Attempt, 6u));
  }
  return Last;
}

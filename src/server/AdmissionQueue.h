//===- server/AdmissionQueue.h - Bounded queue with load shedding -*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The admission-control heart of pdgc-serve: a bounded MPMC queue whose
/// producers never block. `tryPush` either admits the item or answers
/// *now* with `Shed` (the caller turns that into REJECTED plus a
/// retry-after hint) — queuing unboundedly is exactly the failure mode a
/// loaded service must not have, because memory, latency, and deadline
/// debt all grow with the backlog.
///
/// Shedding uses high/low watermark hysteresis rather than a single
/// threshold: once depth reaches the high watermark the queue sheds
/// *until depth falls back to the low watermark*, not until one slot
/// frees up. A single threshold flaps — admit one, shed one, admit one —
/// which keeps the queue pinned at its worst-case latency; hysteresis
/// converts an overload episode into one burst of fast rejections
/// followed by recovery headroom.
///
/// `close()` flips the queue into drain mode: producers get `Closed`
/// (REJECTED, "draining"), consumers keep popping until the backlog is
/// empty and then `pop` returns false. That is precisely the SIGTERM
/// contract — stop admitting, finish what was promised.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_SERVER_ADMISSIONQUEUE_H
#define PDGC_SERVER_ADMISSIONQUEUE_H

#include "support/ThreadAnnotations.h"

#include <deque>

namespace pdgc {
namespace server {

/// tryPush verdicts.
enum class Admission {
  Admitted, ///< Item enqueued.
  Shed,     ///< Over the high watermark (or still above low): rejected.
  Closed,   ///< Queue is draining/closed: rejected.
};

template <typename T> class AdmissionQueue {
public:
  /// \p CapacityIn is the high watermark (and the hard bound); \p LowIn
  /// is the depth shedding stops at. Low >= Capacity degenerates to a
  /// single-threshold bound.
  AdmissionQueue(std::size_t CapacityIn, std::size_t LowIn)
      : Capacity(CapacityIn ? CapacityIn : 1),
        Low(LowIn < this->Capacity ? LowIn : this->Capacity - 1) {}

  Admission tryPush(T Item) {
    MutexLock Lock(Mu);
    if (IsClosed)
      return Admission::Closed;
    if (Shedding) {
      if (Items.size() > Low)
        return Admission::Shed;
      Shedding = false; // Recovered to the low watermark; admit again.
    } else if (Items.size() >= Capacity) {
      Shedding = true;
      return Admission::Shed;
    }
    Items.push_back(std::move(Item));
    Available.notify_one();
    return Admission::Admitted;
  }

  /// Blocks until an item is available (true) or the queue is closed and
  /// empty (false).
  bool pop(T &Out) {
    MutexLock Lock(Mu);
    while (!IsClosed && Items.empty())
      Available.wait(Lock);
    if (Items.empty())
      return false;
    Out = std::move(Items.front());
    Items.pop_front();
    return true;
  }

  /// Stops admitting; wakes every blocked consumer so they can drain the
  /// backlog and exit.
  void close() {
    MutexLock Lock(Mu);
    IsClosed = true;
    Available.notify_all();
  }

  bool closed() const {
    MutexLock Lock(Mu);
    return IsClosed;
  }

  std::size_t depth() const {
    MutexLock Lock(Mu);
    return Items.size();
  }

  /// True while the hysteresis has the queue in shed mode.
  bool shedding() const {
    MutexLock Lock(Mu);
    return Shedding;
  }

  std::size_t capacity() const { return Capacity; }

private:
  const std::size_t Capacity;
  const std::size_t Low;
  mutable Mutex Mu;
  CondVar Available;
  std::deque<T> Items PDGC_GUARDED_BY(Mu);
  bool IsClosed PDGC_GUARDED_BY(Mu) = false;
  bool Shedding PDGC_GUARDED_BY(Mu) = false;
};

} // namespace server
} // namespace pdgc

#endif // PDGC_SERVER_ADMISSIONQUEUE_H

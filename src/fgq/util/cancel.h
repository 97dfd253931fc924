#ifndef FGQ_UTIL_CANCEL_H_
#define FGQ_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include "fgq/util/status.h"

/// \file cancel.h
/// Cooperative cancellation and deadlines.
///
/// Mengel-style lower bounds say some query classes are unavoidably
/// expensive, so a serving layer must be able to *cut off* a hopeless
/// request rather than assume fast evaluation. CancelToken is the
/// mechanism: a cheap, copyable handle on shared cancellation state that
/// the long-running evaluation loops (backtracking oracle, semijoin
/// sweeps, enumerator preprocessing) poll at loop boundaries. A token can
/// be cancelled explicitly (shutdown, load shedding) or trip on a wall-
/// clock deadline; once tripped it stays tripped, so every subsequent
/// check observes the same terminal reason.
///
/// A default-constructed token is *inert*: it has no shared state, never
/// trips, and checks compile down to a null test — algorithms pay nothing
/// when no caller asked for cancellation.

namespace fgq {

/// Copyable handle on shared cancellation state; copies observe the same
/// cancellation. Thread-safe.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// An inert token: never cancelled, checks are free.
  CancelToken() = default;

  /// A token that trips only via Cancel().
  static CancelToken Cancellable() { return CancelToken(Clock::time_point{}, false); }

  /// A token that trips when `deadline` passes (or via Cancel()).
  static CancelToken WithDeadline(Clock::time_point deadline) {
    return CancelToken(deadline, true);
  }

  /// A token that trips `timeout` from now (or via Cancel()).
  template <typename Rep, typename Period>
  static CancelToken WithTimeout(std::chrono::duration<Rep, Period> timeout) {
    return WithDeadline(Clock::now() +
                        std::chrono::duration_cast<Clock::duration>(timeout));
  }

  /// True when this token can ever trip (i.e. is not inert).
  bool cancellable() const { return state_ != nullptr; }

  /// True when `o` is a copy of this token (shares its state). Inert
  /// tokens share nothing, so two inert tokens are not the same.
  bool SameStateAs(const CancelToken& o) const {
    return state_ != nullptr && state_ == o.state_;
  }

  /// Trips the token explicitly. No-op on an inert token.
  void Cancel() const {
    if (state_ == nullptr) return;
    Reason expected = Reason::kNone;
    state_->reason.compare_exchange_strong(expected, Reason::kCancelled,
                                           std::memory_order_relaxed);
  }

  /// True once the token has tripped (explicit cancel or deadline). The
  /// deadline clock is read on the first call and then every
  /// `kClockStride`-th call; once observed expired the result is latched.
  bool cancelled() const {
    if (state_ == nullptr) return false;
    if (state_->reason.load(std::memory_order_relaxed) != Reason::kNone) {
      return true;
    }
    if (!state_->has_deadline) return false;
    if (state_->ticks.fetch_add(1, std::memory_order_relaxed) %
            kClockStride !=
        0) {
      return false;
    }
    return DeadlinePassed();
  }

  /// OK while the token has not tripped; afterwards DeadlineExceeded or
  /// Cancelled, mentioning `where` (e.g. "full reduction") when given.
  /// Unlike cancelled() it reads the deadline clock on every call: phase
  /// boundaries and batched polls (one per thousands of rows or ops) call
  /// it, so a deadline shows at the first such poll after it passes.
  Status Check(const char* where = nullptr) const {
    if (state_ == nullptr) return Status::OK();
    if (state_->reason.load(std::memory_order_relaxed) == Reason::kNone &&
        !(state_->has_deadline && DeadlinePassed())) {
      return Status::OK();
    }
    std::string msg = state_->reason.load(std::memory_order_relaxed) ==
                              Reason::kDeadlineExceeded
                          ? "deadline exceeded"
                          : "request cancelled";
    if (where != nullptr) {
      msg += " during ";
      msg += where;
    }
    if (state_->reason.load(std::memory_order_relaxed) ==
        Reason::kDeadlineExceeded) {
      return Status::DeadlineExceeded(std::move(msg));
    }
    return Status::Cancelled(std::move(msg));
  }

 private:
  enum class Reason : int { kNone = 0, kCancelled, kDeadlineExceeded };

  struct State {
    std::atomic<Reason> reason{Reason::kNone};
    bool has_deadline = false;
    Clock::time_point deadline{};
    /// Amortizes clock reads across cancelled() calls; shared by all
    /// copies, which only makes deadline observation more frequent.
    mutable std::atomic<uint64_t> ticks{0};
  };

  /// Reads the clock; latches kDeadlineExceeded once the deadline passed.
  bool DeadlinePassed() const {
    if (Clock::now() < state_->deadline) return false;
    Reason expected = Reason::kNone;
    state_->reason.compare_exchange_strong(expected, Reason::kDeadlineExceeded,
                                           std::memory_order_relaxed);
    return true;
  }

  /// Clock reads happen on 1 out of kClockStride checks. The first check
  /// always reads the clock, so an already-expired deadline trips on the
  /// very first poll.
  static constexpr uint64_t kClockStride = 32;

  CancelToken(Clock::time_point deadline, bool has_deadline)
      : state_(std::make_shared<State>()) {
    state_->has_deadline = has_deadline;
    state_->deadline = deadline;
  }

  std::shared_ptr<State> state_;
};

}  // namespace fgq

#endif  // FGQ_UTIL_CANCEL_H_

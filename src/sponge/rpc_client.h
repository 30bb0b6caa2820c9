#ifndef SPONGEFILES_SPONGE_RPC_CLIENT_H_
#define SPONGEFILES_SPONGE_RPC_CLIENT_H_

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace spongefiles::sponge {

// Client-side hardening for remote sponge operations. The paper's cascade
// degrades gracefully only if a sick server cannot stall the client: a
// clean crash already surfaces as UNAVAILABLE, but a hung or slow server
// would park the spilling task forever. Every remote call therefore runs
// under a deadline with bounded retries, exponential backoff, and seeded
// jitter; a per-server health scoreboard acts as a circuit breaker that
// ejects servers from allocation and reads until a half-open probe
// succeeds, so SpongeFile falls down the cascade (local pool -> remote ->
// disk -> DFS) instead of hanging. A read the hardening gives up on reports
// the chunk lost, and the framework re-runs the owning task.

// Per-attempt deadline on a remote sponge operation. Generous next to the
// ~10 ms a healthy chunk write takes, tight next to task runtimes.
inline constexpr Duration kRpcDeadline = Millis(500);
// Attempts per logical call (1 original + retries).
inline constexpr int kRpcMaxAttempts = 3;
// Exponential backoff between attempts, with deterministic jitter drawn
// from the environment's seeded Rng.
inline constexpr Duration kBackoffBase = Millis(10);
inline constexpr double kBackoffMultiplier = 2.0;
inline constexpr Duration kBackoffMax = Seconds(2);
inline constexpr double kJitterFraction = 0.5;

// Per-server health scoreboard shared by every SpongeFile in an
// environment (like a client library's shared channel state). States per
// server: closed (healthy), open (ejected until cooldown expires), and
// half-open (one probe in flight).
class HealthBoard {
 public:
  explicit HealthBoard(sim::Engine* engine) : engine_(engine) {}

  HealthBoard(const HealthBoard&) = delete;
  HealthBoard& operator=(const HealthBoard&) = delete;

  // Gate before issuing a request to `node`. Closed: true. Open: false
  // until the cooldown elapses, then true exactly once (the half-open
  // probe) — every true MUST be followed by RecordSuccess or
  // RecordFailure for that node, or the probe slot stays taken.
  bool AllowRequest(size_t node);

  // Any definitive response from the server (including "pool full"): the
  // server is alive. Closes the breaker and resets the failure streak.
  void RecordSuccess(size_t node);

  // A timeout or UNAVAILABLE. Trips the breaker at kBreakerThreshold (3)
  // consecutive failures; a failed half-open probe re-arms the cooldown.
  void RecordFailure(size_t node);

  // Open or half-open (no probe budget available without AllowRequest).
  bool IsOpen(size_t node) const;

  uint64_t trips() const { return trips_; }
  uint64_t recoveries() const { return recoveries_; }

 private:
  struct ServerHealth {
    int consecutive_failures = 0;
    bool open = false;
    bool probing = false;
    SimTime open_until = 0;
  };

  ServerHealth& StateFor(size_t node);

  sim::Engine* engine_;
  std::vector<ServerHealth> health_;
  uint64_t trips_ = 0;
  uint64_t recoveries_ = 0;
};

// The message CallWithDeadline stamps on a deadline-expired status;
// IsRpcTimeout distinguishes a timeout from other UNAVAILABLE causes
// (telemetry and spill-decision labeling only — retry behaviour treats
// them identically).
inline constexpr const char kRpcDeadlineMessage[] = "rpc deadline exceeded";

inline bool IsRpcTimeout(const Status& status) {
  return status.code() == StatusCode::kUnavailable &&
         status.message() == kRpcDeadlineMessage;
}

namespace internal_rpc {

// Uniform view over the two remote-call return shapes (Status and
// Result<T>): extract the status, construct the deadline-expired value.
template <typename T>
struct CallTraits;

template <>
struct CallTraits<Status> {
  static Status Timeout() { return Unavailable(kRpcDeadlineMessage); }
  static const Status& StatusOf(const Status& value) { return value; }
};

template <typename T>
struct CallTraits<Result<T>> {
  static Result<T> Timeout() {
    return Status(StatusCode::kUnavailable, kRpcDeadlineMessage);
  }
  static const Status& StatusOf(const Result<T>& value) {
    return value.status();
  }
};

// Telemetry hooks (defined in rpc_client.cc so the counters are created
// once, not per template instantiation).
void CountTimeout();
void CountRetry();
void CountBackoff(Duration slept);

// Where a deadline-guarded call meets the detached runner that carries its
// operation. It lives in the caller's frame. The caller parks on a
// cancellable engine timer, its deadline; the runner reaches the
// rendezvous through a back-pointer in the runner's own frame. When the
// caller stops waiting it nulls that back-pointer, so a late answer is
// dropped; the runner withdraws its back-pointer before it answers.
// Neither side touches the other from a destructor, so the teardown pass
// may destroy the frames in any order.
template <typename T>
struct Rendezvous {
  explicit Rendezvous(sim::Engine* e) : engine(e) {}
  // The runner holds its address.
  Rendezvous(const Rendezvous&) = delete;
  Rendezvous& operator=(const Rendezvous&) = delete;

  // Parks the caller until Settle or until `deadline` has passed.
  auto Wait(Duration deadline) {
    struct Awaiter {
      Rendezvous* rv;
      Duration deadline;
      bool await_ready() const { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        rv->caller = h;
        rv->timer =
            rv->engine->ScheduleTimer(rv->engine->now() + deadline, h);
      }
      void await_resume() const {}
    };
    return Awaiter{this, deadline};
  }

  // Keeps the answer and wakes the caller through the same-instant ring.
  // If the deadline has already fired, the caller is queued there and
  // finds the answer when it resumes: an answer that lands in the
  // deadline's instant before the caller runs still wins.
  void Settle(T value) {
    result = std::move(value);
    if (engine->CancelTimer(timer)) {
      engine->ScheduleHandle(engine->now(), caller);
    }
  }

  // The caller stops waiting: the runner may not reach this frame any more.
  void Leave() {
    if (link != nullptr) *link = nullptr;
  }

  sim::Engine* engine;
  std::coroutine_handle<> caller;
  sim::TimerId timer = 0;
  std::optional<T> result;
  // The runner's back-pointer while it is still running.
  Rendezvous** link = nullptr;
};

// CallWithDeadline's runner: runs `op` to completion — the simulated
// server cannot tell its client gave up — and hands the answer over if
// the caller is still waiting.
template <typename T>
sim::Task<> RunToAnswer(Rendezvous<T>* rv, sim::Task<T> op) {
  rv->link = &rv;
  T value = co_await op;
  if (rv == nullptr) co_return;  // the caller timed out and left
  rv->link = nullptr;
  rv->Settle(std::move(value));
}

}  // namespace internal_rpc

// Runs `op` against a budget of `deadline` (> 0) of simulated time. If the
// deadline fires first, returns UNAVAILABLE ("rpc deadline exceeded") and
// sets *timed_out; the operation itself keeps running detached — the
// simulated server cannot tell its client gave up — and its eventual
// result is discarded. The engine's teardown pass reclaims ops that never
// finish (e.g. parked on a hung server). The deadline is an engine timer,
// cancelled when the answer arrives; no coroutine sleeps it out.
template <typename T>
sim::Task<T> CallWithDeadline(sim::Engine* engine, Duration deadline,
                              sim::Task<T> op, bool* timed_out = nullptr) {
  internal_rpc::Rendezvous<T> rv(engine);
  engine->Spawn(internal_rpc::RunToAnswer(&rv, std::move(op)));
  co_await rv.Wait(deadline);
  rv.Leave();
  if (rv.result.has_value()) {
    if (timed_out != nullptr) *timed_out = false;
    co_return std::move(*rv.result);
  }
  if (timed_out != nullptr) *timed_out = true;
  internal_rpc::CountTimeout();
  co_return internal_rpc::CallTraits<T>::Timeout();
}

// A remote call with the full client-side hardening: per-attempt deadline,
// bounded retries with exponential backoff and seeded jitter, and health
// accounting on `board`. `make_op` creates a fresh operation Task per
// attempt (an abandoned attempt keeps running detached and cannot be
// re-awaited). Only transport-class failures (timeout, UNAVAILABLE) are
// retried; a definitive server answer — success, pool full, ownership
// mismatch — returns immediately and counts as proof of health. Callers
// gate the *first* attempt with board->AllowRequest; retries stop early if
// the breaker opens mid-call.
//
// TOOLCHAIN CONSTRAINT: a factory passed as a temporary lambda must capture
// only trivially-destructible state (pointers, references, handles). GCC 12
// miscompiles non-trivially-destructible temporaries that are arguments
// inside a co_await full-expression — their cleanup funclet runs on a
// corrupted copy. Hoist the lambda into a named local if it must own a
// string, Status, or container.
template <typename T, typename Factory>
sim::Task<T> HardenedCall(sim::Engine* engine, HealthBoard* board, Rng* rng,
                          size_t node, Factory make_op) {
  Duration backoff = kBackoffBase;
  for (int attempt = 1;; ++attempt) {
    bool timed_out = false;
    // Named local (not a temporary argument) — see the constraint above;
    // Task's destructor is non-trivial.
    sim::Task<T> op = make_op();
    T value = co_await CallWithDeadline<T>(engine, kRpcDeadline,
                                           std::move(op), &timed_out);
    const Status& status = internal_rpc::CallTraits<T>::StatusOf(value);
    if (!timed_out && status.code() != StatusCode::kUnavailable) {
      board->RecordSuccess(node);
      co_return value;
    }
    board->RecordFailure(node);
    if (attempt >= kRpcMaxAttempts || board->IsOpen(node)) co_return value;
    internal_rpc::CountRetry();
    double jitter = kJitterFraction * rng->NextDouble();
    Duration sleep = static_cast<Duration>(
        static_cast<double>(backoff) * (1.0 + jitter));
    internal_rpc::CountBackoff(sleep);
    co_await engine->Delay(sleep);
    backoff = std::min<Duration>(
        static_cast<Duration>(static_cast<double>(backoff) *
                              kBackoffMultiplier),
        kBackoffMax);
  }
}

}  // namespace spongefiles::sponge

#endif  // SPONGEFILES_SPONGE_RPC_CLIENT_H_

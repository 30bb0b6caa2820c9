#include "sponge/rpc_client.h"

#include "obs/metrics.h"

namespace spongefiles::sponge {

namespace internal_rpc {

void CountTimeout() {
  static obs::Counter* const timeouts =
      obs::Registry::Default().counter("sponge.rpc.timeouts");
  timeouts->Increment();
}

void CountRetry() {
  static obs::Counter* const retries =
      obs::Registry::Default().counter("sponge.rpc.retries");
  retries->Increment();
}

void CountBackoff(Duration slept) {
  static obs::Counter* const backoff_us =
      obs::Registry::Default().counter("sponge.rpc.backoff_us");
  backoff_us->Increment(static_cast<uint64_t>(slept));
}

}  // namespace internal_rpc

namespace {

// Circuit breaker: this many consecutive failures open the breaker for
// kBreakerCooldown, after which a single half-open probe is let through;
// success closes the breaker, failure re-arms the cooldown.
constexpr int kBreakerThreshold = 3;
constexpr Duration kBreakerCooldown = Seconds(5);

obs::Counter* BreakerCounter(const char* event) {
  static obs::Registry& registry = obs::Registry::Default();
  static obs::Counter* const trip =
      registry.counter("sponge.rpc.breaker", {{"event", "trip"}});
  static obs::Counter* const recover =
      registry.counter("sponge.rpc.breaker", {{"event", "recover"}});
  return event[0] == 't' ? trip : recover;
}

}  // namespace

HealthBoard::ServerHealth& HealthBoard::StateFor(size_t node) {
  if (node >= health_.size()) health_.resize(node + 1);
  return health_[node];
}

bool HealthBoard::AllowRequest(size_t node) {
  ServerHealth& state = StateFor(node);
  if (!state.open) return true;
  if (engine_->now() < state.open_until) return false;
  if (state.probing) return false;
  state.probing = true;
  return true;
}

void HealthBoard::RecordSuccess(size_t node) {
  ServerHealth& state = StateFor(node);
  state.consecutive_failures = 0;
  if (state.open) {
    state.open = false;
    state.probing = false;
    ++recoveries_;
    BreakerCounter("recover")->Increment();
  }
}

void HealthBoard::RecordFailure(size_t node) {
  ServerHealth& state = StateFor(node);
  ++state.consecutive_failures;
  if (state.open) {
    // A failed half-open probe (or a straggling in-flight call): re-arm
    // the cooldown; the server stays ejected.
    state.probing = false;
    state.open_until = engine_->now() + kBreakerCooldown;
    return;
  }
  if (state.consecutive_failures >= kBreakerThreshold) {
    state.open = true;
    state.probing = false;
    state.open_until = engine_->now() + kBreakerCooldown;
    ++trips_;
    BreakerCounter("trip")->Increment();
  }
}

bool HealthBoard::IsOpen(size_t node) const {
  if (node >= health_.size()) return false;
  return health_[node].open;
}

}  // namespace spongefiles::sponge

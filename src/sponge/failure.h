#ifndef SPONGEFILES_SPONGE_FAILURE_H_
#define SPONGEFILES_SPONGE_FAILURE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/units.h"
#include "sponge/sponge_env.h"

namespace spongefiles::sponge {

// The paper's failure analysis (section 4.3): a task whose spilled data is
// spread over N machines fails if any of them fails during its runtime t.
// Machine failures are modeled as a Poisson process, giving
//   P = 1 - exp(-N * t / MTTF).
double TaskFailureProbability(int num_machines, Duration task_runtime,
                              Duration mttf);

// The fault vocabulary the injector speaks. Crashes are the paper's
// fail-stop model; the rest are gray failures — the machine stays up but
// misbehaves — which is what the client-side hardening (rpc_client.h)
// exists to survive.
enum class FaultKind {
  kCrash,            // fail-stop: pool contents lost, RPCs UNAVAILABLE
  kHang,             // RPCs park unanswered until the hang clears
  kRpcDelay,         // every RPC gains server-side processing delay
  kDiskSlowdown,     // disk accesses take `severity` times longer
  kLinkDegradation,  // NIC at `severity` of nominal bandwidth + latency
  kTrackerOutage,    // every tracker shard: queries fail, polling stops
  kTrackerStale,     // every shard pauses polling; queries serve aging lists
  kBitRot,           // one random in-pool chunk byte flips
  // Sharded-tracker gray failures; FaultEvent.node carries the RACK.
  kTrackerShardOutage,  // one rack's shard: queries fail, polling stops
  kTrackerShardStale,   // one rack's shard pauses polling
  kGossipPartition,     // one shard stops exchanging digests
  // Local-SSD gray failures (no-ops on nodes without an SSD).
  kSsdSlowdown,  // SSD accesses take `severity` times longer
  kSsdWear,      // endurance exhausted: writes fail, reads still work
};

// Every fault kind, in declaration order. Kept next to the enum so adding
// a kind updates both (the round-trip test catches a missed entry).
// ScheduleChaos draws kinds from this list by index, so its order is part
// of every chaos schedule.
inline constexpr FaultKind kAllFaultKinds[] = {
    FaultKind::kCrash,
    FaultKind::kHang,
    FaultKind::kRpcDelay,
    FaultKind::kDiskSlowdown,
    FaultKind::kLinkDegradation,
    FaultKind::kTrackerOutage,
    FaultKind::kTrackerStale,
    FaultKind::kBitRot,
    FaultKind::kTrackerShardOutage,
    FaultKind::kTrackerShardStale,
    FaultKind::kGossipPartition,
    FaultKind::kSsdSlowdown,
    FaultKind::kSsdWear,
};

const char* FaultKindName(FaultKind kind);

// Inverse of FaultKindName (fault schedules read back from logs/configs);
// INVALID_ARGUMENT for an unknown name.
Result<FaultKind> FaultKindFromName(std::string_view name);

// One scheduled fault, recorded so tests can assert determinism and logs
// can explain a run. `severity` is the slowdown factor (kDiskSlowdown),
// the bandwidth fraction (kLinkDegradation), or unused.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  size_t node = 0;
  SimTime at = 0;
  Duration duration = 0;  // downtime / hang length / degradation window
  double severity = 0.0;

  bool operator==(const FaultEvent& other) const {
    return kind == other.kind && node == other.node && at == other.at &&
           duration == other.duration && severity == other.severity;
  }
};

// Knobs for ScheduleChaos: a randomized fault schedule drawn from the
// injector's seeded Rng, uniformly over [start, horizon] and over every
// fault kind (kAllFaultKinds), each fault's window (downtime, hang,
// slowdown) uniformly from [kChaosMinDuration, kChaosMaxDuration) in
// failure.cc. Per-shard tracker faults reuse the node draw's rack and
// degrade gracefully on single-rack clusters, where the one shard IS the
// tracker; SSD faults are no-ops on SSD-less nodes.
struct ChaosOptions {
  SimTime start = 0;
  SimTime horizon = 0;
  size_t num_faults = 8;
  // When set, chaos crashes are fail-stop (the node never restarts) —
  // the paper's failure model and what the replication subsystem is built
  // to survive. Off, crashed nodes restart after the drawn span.
  bool fail_stop_crashes = false;
};

// Injects machine failures into a SpongeEnv: either scheduled
// deterministically (tests) or drawn from the seeded Rng (the failure
// experiment and the chaos test). All randomness is consumed at schedule
// time, never at fire time, so two injectors with the same seed and the
// same schedule calls produce identical fault timelines regardless of
// what the workload does in between.
class FailureInjector {
 public:
  FailureInjector(SpongeEnv* env, uint64_t seed)
      : env_(env), rng_(seed) {}

  // Crashes `node` at absolute simulated time `at` (optionally restarting
  // it `downtime` later, with an empty pool — sponge servers are
  // stateless).
  void ScheduleCrash(size_t node, SimTime at, Duration downtime = 0);

  // Hangs `node`'s sponge server at `at` for `duration`: requests park
  // unanswered (clients' deadlines fire); the machine itself stays alive.
  void ScheduleHang(size_t node, SimTime at, Duration duration);

  // Adds `extra` of server-side delay to every RPC on `node` during the
  // window (an overloaded host or GC-pausing process).
  void ScheduleRpcDelay(size_t node, SimTime at, Duration extra,
                        Duration duration);

  // Multiplies `node`'s disk access times by `factor` during the window.
  void ScheduleDiskSlowdown(size_t node, SimTime at, double factor,
                            Duration duration);

  // Multiplies `node`'s SSD access times by `factor` during the window
  // (thermal throttling, a congested controller). No-op without an SSD.
  void ScheduleSsdSlowdown(size_t node, SimTime at, double factor,
                           Duration duration);

  // Wears out `node`'s SSD for the window: writes fail UNAVAILABLE (the
  // cascade falls through to disk), reads of stored chunks still succeed.
  void ScheduleSsdWear(size_t node, SimTime at, Duration duration);

  // Degrades `node`'s NIC to `bandwidth_factor` of nominal and adds
  // `extra_latency` per transfer during the window.
  void ScheduleLinkDegradation(size_t node, SimTime at,
                               double bandwidth_factor,
                               Duration extra_latency, Duration duration);

  // Tracker outage (every shard): queries fail UNAVAILABLE, polling stops.
  void ScheduleTrackerOutage(SimTime at, Duration duration);

  // Staleness spike (every shard): polling pauses; queries keep serving
  // the aging list.
  void ScheduleTrackerStale(SimTime at, Duration duration);

  // Single-shard outage: only `rack`'s queries fail; other racks keep
  // their remote-memory visibility (minus this rack, once its gossiped
  // digest ages out).
  void ScheduleTrackerShardOutage(size_t rack, SimTime at, Duration duration);

  // Single-shard staleness spike: only `rack`'s polling pauses.
  void ScheduleTrackerShardStale(size_t rack, SimTime at, Duration duration);

  // Gossip partition: `rack`'s shard exchanges no digests during the
  // window; cross-rack visibility ages out both ways and heals after.
  void ScheduleGossipPartition(size_t rack, SimTime at, Duration duration);

  // Flips one byte of one allocated chunk in `node`'s pool at `at` (both
  // picks pre-drawn from the seeded Rng; no-op on an empty pool). Reads of
  // the victim chunk fail their checksum and report the chunk lost.
  void ScheduleBitRot(size_t node, SimTime at);

  // Draws a randomized schedule of `options.num_faults` faults over every
  // kind, uniformly over nodes and [start, horizon]. Returns the number
  // scheduled.
  size_t ScheduleChaos(const ChaosOptions& options);

  // Draws exponential inter-failure times per node with the given MTTF and
  // schedules crashes up to `horizon`. Returns the number scheduled.
  size_t SchedulePoissonCrashes(Duration mttf, SimTime horizon,
                                Duration downtime = 0);

  size_t crashes_injected() const { return crashes_; }

  // Every fault scheduled so far, in schedule-call order (not fire order).
  const std::vector<FaultEvent>& schedule() const { return schedule_; }

 private:
  void Record(FaultKind kind, size_t node, SimTime at, Duration duration,
              double severity = 0.0);

  SpongeEnv* env_;
  Rng rng_;
  size_t crashes_ = 0;
  std::vector<FaultEvent> schedule_;
};

}  // namespace spongefiles::sponge

#endif  // SPONGEFILES_SPONGE_FAILURE_H_

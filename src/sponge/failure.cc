#include "sponge/failure.h"

#include <cmath>
#include <iterator>
#include <string>
#include <utility>

#include "sim/task.h"

namespace spongefiles::sponge {

double TaskFailureProbability(int num_machines, Duration task_runtime,
                              Duration mttf) {
  if (num_machines <= 0 || task_runtime <= 0) return 0.0;
  double exponent = -static_cast<double>(num_machines) *
                    static_cast<double>(task_runtime) /
                    static_cast<double>(mttf);
  return 1.0 - std::exp(exponent);
}

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kHang: return "hang";
    case FaultKind::kRpcDelay: return "rpc-delay";
    case FaultKind::kDiskSlowdown: return "disk-slowdown";
    case FaultKind::kLinkDegradation: return "link-degradation";
    case FaultKind::kTrackerOutage: return "tracker-outage";
    case FaultKind::kTrackerStale: return "tracker-stale";
    case FaultKind::kBitRot: return "bit-rot";
    case FaultKind::kTrackerShardOutage: return "tracker-shard-outage";
    case FaultKind::kTrackerShardStale: return "tracker-shard-stale";
    case FaultKind::kGossipPartition: return "gossip-partition";
    case FaultKind::kSsdSlowdown: return "ssd-slowdown";
    case FaultKind::kSsdWear: return "ssd-wear";
  }
  return "?";
}

Result<FaultKind> FaultKindFromName(std::string_view name) {
  for (FaultKind kind : kAllFaultKinds) {
    if (name == FaultKindName(kind)) return kind;
  }
  return InvalidArgument("unknown fault kind: " + std::string(name));
}

namespace {

// Each chaos fault's window is drawn uniformly from
// [kChaosMinDuration, kChaosMaxDuration).
constexpr Duration kChaosMinDuration = Millis(200);
constexpr Duration kChaosMaxDuration = Seconds(5);

sim::Task<> CrashAt(SpongeEnv* env, size_t node, Duration downtime) {
  env->CrashNode(node);
  if (downtime > 0) {
    co_await env->engine()->Delay(downtime);
    env->RestartNode(node);
  }
  co_return;
}

// One fault window, spawned at `at`: `apply(true)` when it opens,
// `apply(false)` when it closes `duration` later. An `apply` that returns
// false had nothing to act on (an SSD fault on an SSD-less node), and the
// window ends at once.
template <typename Apply>
void SpawnWindow(sim::Engine* engine, SimTime at, Duration duration,
                 Apply apply) {
  auto window = [](sim::Engine* eng, Duration length,
                   Apply toggle) -> sim::Task<> {
    if (!toggle(true)) co_return;
    co_await eng->Delay(length);
    toggle(false);
  };
  engine->SpawnAt(at, window(engine, duration, std::move(apply)));
}

// `slot_pick` / `byte_pick` were drawn at schedule time; reducing them
// modulo the live pool state at fire time keeps the schedule itself (and
// hence every Rng draw) independent of workload timing.
sim::Task<> BitRotAt(SpongeEnv* env, size_t node, uint64_t slot_pick,
                     uint64_t byte_pick) {
  SpongeServer& server = env->server(node);
  if (server.alive()) {
    auto allocated = server.pool().AllocatedChunks();
    if (!allocated.empty()) {
      ChunkHandle victim = allocated[slot_pick % allocated.size()].first;
      ByteRuns* data = server.pool().chunk_data(victim);
      if (data != nullptr && data->size() > 0) {
        data->CorruptByte(byte_pick % data->size());
      }
    }
  }
  co_return;
}

}  // namespace

void FailureInjector::Record(FaultKind kind, size_t node, SimTime at,
                             Duration duration, double severity) {
  schedule_.push_back({kind, node, at, duration, severity});
}

void FailureInjector::ScheduleCrash(size_t node, SimTime at,
                                    Duration downtime) {
  ++crashes_;
  Record(FaultKind::kCrash, node, at, downtime);
  env_->engine()->SpawnAt(at, CrashAt(env_, node, downtime));
}

void FailureInjector::ScheduleHang(size_t node, SimTime at,
                                   Duration duration) {
  Record(FaultKind::kHang, node, at, duration);
  SpongeServer* server = &env_->server(node);
  SpawnWindow(env_->engine(), at, duration, [server](bool on) {
    server->SetHung(on);
    return true;
  });
}

void FailureInjector::ScheduleRpcDelay(size_t node, SimTime at,
                                       Duration extra, Duration duration) {
  Record(FaultKind::kRpcDelay, node, at, duration,
         static_cast<double>(extra));
  SpongeServer* server = &env_->server(node);
  SpawnWindow(env_->engine(), at, duration, [server, extra](bool on) {
    server->set_rpc_extra_delay(on ? extra : 0);
    return true;
  });
}

void FailureInjector::ScheduleDiskSlowdown(size_t node, SimTime at,
                                           double factor,
                                           Duration duration) {
  Record(FaultKind::kDiskSlowdown, node, at, duration, factor);
  cluster::Disk* disk = &env_->cluster()->node(node).disk();
  SpawnWindow(env_->engine(), at, duration, [disk, factor](bool on) {
    disk->SetSlowdown(on ? factor : 1.0);
    return true;
  });
}

void FailureInjector::ScheduleSsdSlowdown(size_t node, SimTime at,
                                          double factor, Duration duration) {
  Record(FaultKind::kSsdSlowdown, node, at, duration, factor);
  cluster::Node* machine = &env_->cluster()->node(node);
  SpawnWindow(env_->engine(), at, duration, [machine, factor](bool on) {
    if (!machine->has_ssd()) return false;
    machine->ssd().SetSlowdown(on ? factor : 1.0);
    return true;
  });
}

void FailureInjector::ScheduleSsdWear(size_t node, SimTime at,
                                      Duration duration) {
  Record(FaultKind::kSsdWear, node, at, duration);
  cluster::Node* machine = &env_->cluster()->node(node);
  SpawnWindow(env_->engine(), at, duration, [machine](bool on) {
    if (!machine->has_ssd()) return false;
    machine->ssd().SetWorn(on);
    return true;
  });
}

void FailureInjector::ScheduleLinkDegradation(size_t node, SimTime at,
                                              double bandwidth_factor,
                                              Duration extra_latency,
                                              Duration duration) {
  Record(FaultKind::kLinkDegradation, node, at, duration, bandwidth_factor);
  cluster::Network* network = &env_->cluster()->network();
  SpawnWindow(env_->engine(), at, duration,
              [network, node, bandwidth_factor, extra_latency](bool on) {
                if (on) {
                  network->DegradeLink(node, bandwidth_factor, extra_latency);
                } else {
                  network->RestoreLink(node);
                }
                return true;
              });
}

void FailureInjector::ScheduleTrackerOutage(SimTime at, Duration duration) {
  Record(FaultKind::kTrackerOutage, 0, at, duration);
  MemoryTracker* tracker = &env_->tracker();
  SpawnWindow(env_->engine(), at, duration, [tracker](bool on) {
    tracker->SetDown(on);
    return true;
  });
}

void FailureInjector::ScheduleTrackerStale(SimTime at, Duration duration) {
  Record(FaultKind::kTrackerStale, 0, at, duration);
  MemoryTracker* tracker = &env_->tracker();
  SpawnWindow(env_->engine(), at, duration, [tracker](bool on) {
    tracker->SetPollPaused(on);
    return true;
  });
}

void FailureInjector::ScheduleTrackerShardOutage(size_t rack, SimTime at,
                                                 Duration duration) {
  Record(FaultKind::kTrackerShardOutage, rack, at, duration);
  MemoryTracker* tracker = &env_->tracker();
  SpawnWindow(env_->engine(), at, duration, [tracker, rack](bool on) {
    tracker->SetShardDown(rack, on);
    return true;
  });
}

void FailureInjector::ScheduleTrackerShardStale(size_t rack, SimTime at,
                                                Duration duration) {
  Record(FaultKind::kTrackerShardStale, rack, at, duration);
  MemoryTracker* tracker = &env_->tracker();
  SpawnWindow(env_->engine(), at, duration, [tracker, rack](bool on) {
    tracker->SetShardPollPaused(rack, on);
    return true;
  });
}

void FailureInjector::ScheduleGossipPartition(size_t rack, SimTime at,
                                              Duration duration) {
  Record(FaultKind::kGossipPartition, rack, at, duration);
  MemoryTracker* tracker = &env_->tracker();
  SpawnWindow(env_->engine(), at, duration, [tracker, rack](bool on) {
    tracker->SetGossipPartitioned(rack, on);
    return true;
  });
}

void FailureInjector::ScheduleBitRot(size_t node, SimTime at) {
  uint64_t slot_pick = rng_.Next();
  uint64_t byte_pick = rng_.Next();
  Record(FaultKind::kBitRot, node, at, 0);
  env_->engine()->SpawnAt(at, BitRotAt(env_, node, slot_pick, byte_pick));
}

size_t FailureInjector::ScheduleChaos(const ChaosOptions& options) {
  if (options.horizon <= options.start) return 0;

  size_t num_nodes = env_->cluster()->size();
  size_t scheduled = 0;
  for (size_t i = 0; i < options.num_faults; ++i) {
    FaultKind kind = kAllFaultKinds[rng_.Uniform(std::size(kAllFaultKinds))];
    size_t node = rng_.Uniform(num_nodes);
    SimTime at = options.start +
                 static_cast<SimTime>(rng_.Uniform(static_cast<uint64_t>(
                     options.horizon - options.start)));
    Duration span =
        kChaosMinDuration + static_cast<Duration>(rng_.Uniform(
                                static_cast<uint64_t>(kChaosMaxDuration -
                                                      kChaosMinDuration)));
    switch (kind) {
      case FaultKind::kCrash:
        ScheduleCrash(node, at,
                      options.fail_stop_crashes ? 0 : /*downtime=*/span);
        break;
      case FaultKind::kHang:
        ScheduleHang(node, at, span);
        break;
      case FaultKind::kRpcDelay:
        // Delay drawn between 10% and 110% of the span: sometimes under,
        // sometimes over a typical client deadline.
        ScheduleRpcDelay(node, at,
                         static_cast<Duration>(
                             static_cast<double>(span) *
                             (0.1 + rng_.NextDouble())),
                         span);
        break;
      case FaultKind::kDiskSlowdown:
        ScheduleDiskSlowdown(node, at, 2.0 + 8.0 * rng_.NextDouble(), span);
        break;
      case FaultKind::kLinkDegradation:
        ScheduleLinkDegradation(node, at, 0.05 + 0.45 * rng_.NextDouble(),
                                Micros(100), span);
        break;
      case FaultKind::kTrackerOutage:
        ScheduleTrackerOutage(at, span);
        break;
      case FaultKind::kTrackerStale:
        ScheduleTrackerStale(at, span);
        break;
      case FaultKind::kBitRot:
        ScheduleBitRot(node, at);
        break;
      // Shard faults reuse the node draw (so every kind consumes the same
      // Rng sequence) and target the drawn node's rack.
      case FaultKind::kTrackerShardOutage:
        ScheduleTrackerShardOutage(env_->cluster()->rack_of(node), at, span);
        break;
      case FaultKind::kTrackerShardStale:
        ScheduleTrackerShardStale(env_->cluster()->rack_of(node), at, span);
        break;
      case FaultKind::kGossipPartition:
        ScheduleGossipPartition(env_->cluster()->rack_of(node), at, span);
        break;
      case FaultKind::kSsdSlowdown:
        ScheduleSsdSlowdown(node, at, 2.0 + 8.0 * rng_.NextDouble(), span);
        break;
      case FaultKind::kSsdWear:
        ScheduleSsdWear(node, at, span);
        break;
    }
    ++scheduled;
  }
  return scheduled;
}

size_t FailureInjector::SchedulePoissonCrashes(Duration mttf, SimTime horizon,
                                               Duration downtime) {
  size_t scheduled = 0;
  for (size_t node = 0; node < env_->cluster()->size(); ++node) {
    SimTime t = env_->engine()->now();
    while (true) {
      t += static_cast<Duration>(
          rng_.Exponential(static_cast<double>(mttf)));
      if (t > horizon) break;
      ScheduleCrash(node, t, downtime);
      ++scheduled;
    }
  }
  return scheduled;
}

}  // namespace spongefiles::sponge

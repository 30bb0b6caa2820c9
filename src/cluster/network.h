#ifndef SPONGEFILES_CLUSTER_NETWORK_H_
#define SPONGEFILES_CLUSTER_NETWORK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace spongefiles::cluster {

// Network timing model. Every node has a full-duplex NIC (independent
// transmit and receive pipes); the rack switch is non-blocking, matching the
// paper's assumption that in-rack bandwidth is plentiful. Loopback traffic
// (task talking to the sponge server on the same node over a local socket)
// does not touch the NIC; it pays IPC copy bandwidth plus per-message
// overhead — this is what separates the 7 ms "local sponge server" column
// of Table 1 from the 1 ms shared-memory column.
struct NetworkConfig {
  double bandwidth = 125.0 * 1024 * 1024;  // 1 Gb Ethernet, bytes/second
  Duration latency = Micros(300);          // one-way message latency
  double ipc_bandwidth = 160.0 * 1024 * 1024;  // local-socket copy rate
  Duration ipc_overhead = Micros(400);     // syscalls + context switches
  // Off-rack links are typically oversubscribed (the paper's reason for
  // restricting remote spilling to the local rack). When > 0, every
  // cross-rack transfer is serialized through its racks' shared
  // uplink/downlink pipes at this rate; 0 models a non-blocking core.
  double cross_rack_bandwidth = 0;
  Duration cross_rack_latency = Micros(200);  // extra hop latency
};

class Network {
 public:
  // `racks[i]` is node i's rack; empty means everything on one rack.
  Network(sim::Engine* engine, size_t num_nodes, const NetworkConfig& config,
          std::vector<size_t> racks = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Moves `bytes` from node `src` to node `dst`, occupying src's transmit
  // pipe and dst's receive pipe for the duration. src == dst uses the IPC
  // (local socket) path.
  sim::Task<> Transfer(size_t src, size_t dst, uint64_t bytes);

  // A small request/response exchange (control messages): two one-way
  // latencies plus the payload transfer times.
  sim::Task<> Rpc(size_t src, size_t dst, uint64_t request_bytes,
                  uint64_t response_bytes);

  // Gray-failure injection: degrades `node`'s NIC. Transfers touching the
  // node run at `bandwidth_factor` of nominal rate (0 < factor <= 1) with
  // `extra_latency` added per message — a flapping link, or loss forcing
  // retransmits, seen as lower goodput and fatter tails. IPC traffic is
  // unaffected (it never leaves the host).
  void DegradeLink(size_t node, double bandwidth_factor,
                   Duration extra_latency);
  void RestoreLink(size_t node);

  const NetworkConfig& config() const { return config_; }

  // Total bytes moved.
  uint64_t bytes_transferred() const { return bytes_transferred_; }

  // Background-repair traffic accounting (re-replication after a sponge
  // server death). The bytes already went through Transfer and paid their
  // simulated time there; this tags them so operators — and the
  // bench_recovery budget gate — can tell repair load apart from
  // foreground spill traffic, per rack uplink.
  void NoteRepairTraffic(size_t src, size_t dst, uint64_t bytes);
  uint64_t repair_bytes() const { return repair_bytes_; }
  uint64_t rack_repair_uplink_bytes(size_t rack) const {
    return repair_uplink_bytes_[rack];
  }

  size_t num_racks() const { return uplink_.size(); }
  size_t rack_of(size_t node) const { return racks_[node]; }

  // Per-rack core-link accounting, charged only when the core is metered
  // (cross_rack_bandwidth > 0): bytes that crossed the rack boundary in
  // each direction, and the cumulative wire time the shared pipe was held.
  // Busy time over elapsed time is the rack's core-link utilization.
  uint64_t rack_uplink_bytes(size_t rack) const {
    return uplink_bytes_[rack];
  }
  uint64_t rack_downlink_bytes(size_t rack) const {
    return downlink_bytes_[rack];
  }
  Duration rack_uplink_busy(size_t rack) const { return uplink_busy_[rack]; }
  Duration rack_downlink_busy(size_t rack) const {
    return downlink_busy_[rack];
  }

 private:
  sim::Engine* engine_;
  NetworkConfig config_;
  std::vector<size_t> racks_;
  std::vector<std::unique_ptr<sim::Semaphore>> tx_;
  std::vector<std::unique_ptr<sim::Semaphore>> rx_;
  // Per-rack shared uplink (outbound) and downlink (inbound) pipes.
  std::vector<std::unique_ptr<sim::Semaphore>> uplink_;
  std::vector<std::unique_ptr<sim::Semaphore>> downlink_;
  // Metered-core accounting per rack (see accessors above).
  std::vector<uint64_t> uplink_bytes_;
  std::vector<uint64_t> downlink_bytes_;
  std::vector<Duration> uplink_busy_;
  std::vector<Duration> downlink_busy_;
  // Per-node NIC degradation (gray failures); 1.0 / 0 means healthy.
  std::vector<double> link_factor_;
  std::vector<Duration> link_extra_latency_;
  uint64_t bytes_transferred_ = 0;
  uint64_t cross_rack_bytes_ = 0;
  uint64_t repair_bytes_ = 0;
  std::vector<uint64_t> repair_uplink_bytes_;  // per source rack

 public:
  uint64_t cross_rack_bytes() const { return cross_rack_bytes_; }
};

}  // namespace spongefiles::cluster

#endif  // SPONGEFILES_CLUSTER_NETWORK_H_

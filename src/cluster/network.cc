#include "cluster/network.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace spongefiles::cluster {

namespace {

obs::Counter* NetBytesCounter(const char* path) {
  static obs::Registry& registry = obs::Registry::Default();
  static obs::Counter* const ipc =
      registry.counter("cluster.net.bytes", {{"path", "ipc"}});
  static obs::Counter* const rack =
      registry.counter("cluster.net.bytes", {{"path", "rack"}});
  static obs::Counter* const cross =
      registry.counter("cluster.net.bytes", {{"path", "cross-rack"}});
  if (path[0] == 'i') return ipc;
  return path[0] == 'r' ? rack : cross;
}

}  // namespace

Network::Network(sim::Engine* engine, size_t num_nodes,
                 const NetworkConfig& config, std::vector<size_t> racks)
    : engine_(engine), config_(config), racks_(std::move(racks)) {
  if (racks_.empty()) racks_.assign(num_nodes, 0);
  SPONGE_CHECK(racks_.size() == num_nodes);
  tx_.reserve(num_nodes);
  rx_.reserve(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    tx_.push_back(std::make_unique<sim::Semaphore>(engine, 1));
    rx_.push_back(std::make_unique<sim::Semaphore>(engine, 1));
  }
  link_factor_.assign(num_nodes, 1.0);
  link_extra_latency_.assign(num_nodes, 0);
  size_t num_racks =
      1 + *std::max_element(racks_.begin(), racks_.end());
  for (size_t r = 0; r < num_racks; ++r) {
    uplink_.push_back(std::make_unique<sim::Semaphore>(engine, 1));
    downlink_.push_back(std::make_unique<sim::Semaphore>(engine, 1));
  }
  uplink_bytes_.assign(num_racks, 0);
  downlink_bytes_.assign(num_racks, 0);
  uplink_busy_.assign(num_racks, 0);
  downlink_busy_.assign(num_racks, 0);
  repair_uplink_bytes_.assign(num_racks, 0);
}

void Network::NoteRepairTraffic(size_t src, size_t dst, uint64_t bytes) {
  SPONGE_CHECK(src < racks_.size() && dst < racks_.size());
  static obs::Counter* const repair_counter =
      obs::Registry::Default().counter("cluster.net.repair.bytes");
  repair_counter->Increment(bytes);
  repair_bytes_ += bytes;
  repair_uplink_bytes_[racks_[src]] += bytes;
}

sim::Task<> Network::Transfer(size_t src, size_t dst, uint64_t bytes) {
  SPONGE_CHECK(src < tx_.size() && dst < rx_.size());
  bytes_transferred_ += bytes;
  if (src == dst) {
    // Local socket: copies through the kernel, no NIC involvement.
    NetBytesCounter("ipc")->Increment(bytes);
    co_await engine_->Delay(config_.ipc_overhead +
                            TransferTime(bytes, config_.ipc_bandwidth));
    co_return;
  }
  const bool cross_rack = racks_[src] != racks_[dst];
  const bool metered_core = cross_rack && config_.cross_rack_bandwidth > 0;
  NetBytesCounter(cross_rack ? "cross-rack" : "rack")->Increment(bytes);

  // The span covers pipe acquisition (queueing on the NIC and, for a
  // metered core, the shared rack uplink/downlink) plus the wire time.
  obs::SpanGuard span(&obs::Tracer::Default(), engine_, src, 0, "net",
                      "net.transfer");
  span.Arg("dst", static_cast<uint64_t>(dst));
  span.Arg("bytes", bytes);

  // Hold the sender's transmit pipe, then the receiver's receive pipe,
  // then (for a metered core) the racks' shared uplink and downlink.
  // The acquisition order is consistent and uplink/downlink are distinct
  // resource families, so this cannot deadlock.
  co_await tx_[src]->Acquire();
  co_await rx_[dst]->Acquire();
  // A degraded endpoint caps the whole path: the wire clocks at the
  // slower NIC and pays both ends' extra latency.
  double degrade = std::min(link_factor_[src], link_factor_[dst]);
  double rate = config_.bandwidth * degrade;
  Duration latency = config_.latency + link_extra_latency_[src] +
                     link_extra_latency_[dst];
  if (metered_core) {
    co_await uplink_[racks_[src]]->Acquire();
    co_await downlink_[racks_[dst]]->Acquire();
    rate = std::min(rate, config_.cross_rack_bandwidth);
    latency += config_.cross_rack_latency;
    cross_rack_bytes_ += bytes;
    uplink_bytes_[racks_[src]] += bytes;
    downlink_bytes_[racks_[dst]] += bytes;
    Duration wire = TransferTime(bytes, rate);
    uplink_busy_[racks_[src]] += wire;
    downlink_busy_[racks_[dst]] += wire;
  }
  co_await engine_->Delay(latency + TransferTime(bytes, rate));
  if (metered_core) {
    downlink_[racks_[dst]]->Release();
    uplink_[racks_[src]]->Release();
  }
  rx_[dst]->Release();
  tx_[src]->Release();
}

sim::Task<> Network::Rpc(size_t src, size_t dst, uint64_t request_bytes,
                         uint64_t response_bytes) {
  co_await Transfer(src, dst, request_bytes);
  co_await Transfer(dst, src, response_bytes);
}

void Network::DegradeLink(size_t node, double bandwidth_factor,
                          Duration extra_latency) {
  SPONGE_CHECK(node < link_factor_.size());
  SPONGE_CHECK(bandwidth_factor > 0 && bandwidth_factor <= 1.0)
      << "bandwidth_factor must be in (0, 1]: " << bandwidth_factor;
  link_factor_[node] = bandwidth_factor;
  link_extra_latency_[node] = extra_latency < 0 ? 0 : extra_latency;
}

void Network::RestoreLink(size_t node) {
  SPONGE_CHECK(node < link_factor_.size());
  link_factor_[node] = 1.0;
  link_extra_latency_[node] = 0;
}

}  // namespace spongefiles::cluster

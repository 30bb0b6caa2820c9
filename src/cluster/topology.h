#ifndef SPONGEFILES_CLUSTER_TOPOLOGY_H_
#define SPONGEFILES_CLUSTER_TOPOLOGY_H_

#include <cstddef>

#include "cluster/cluster.h"
#include "cluster/network.h"
#include "cluster/node.h"

namespace spongefiles::cluster {

// Datacenter-shaped cluster description: `num_racks` racks of
// `nodes_per_rack` nodes each, every rack behind a shared uplink into a
// non-blocking core. The uplink is provisioned at the rack's aggregate NIC
// bandwidth divided by `oversubscription` — the classic 4:1..10:1 ratios
// that make cross-rack spilling expensive and motivated the paper's
// rack-local restriction in the first place.
struct TopologyConfig {
  size_t num_racks = 16;
  size_t nodes_per_rack = 32;
  // Aggregate rack NIC bandwidth over uplink bandwidth. 4.0 means a rack
  // of 32 1 Gb nodes shares an 8 Gb/s uplink. <= 1 models a full-bisection
  // (non-oversubscribed, but still metered) core; 0 disables core metering
  // entirely (infinite fabric, cross-rack pays only the extra hop latency).
  double oversubscription = 4.0;
  NodeConfig node;
  // Edge (in-rack) parameters; cross_rack_bandwidth is derived from
  // `oversubscription` and overwritten by MakeClusterConfig.
  NetworkConfig network;
};

// Expands the rack-level description into the flat ClusterConfig the
// Cluster constructor consumes, deriving cross_rack_bandwidth from the
// oversubscription ratio.
ClusterConfig MakeClusterConfig(const TopologyConfig& topo);

}  // namespace spongefiles::cluster

#endif  // SPONGEFILES_CLUSTER_TOPOLOGY_H_

#ifndef SPONGEFILES_CLUSTER_CLUSTER_H_
#define SPONGEFILES_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/network.h"
#include "cluster/node.h"
#include "sim/engine.h"

namespace spongefiles::cluster {

// A rack-organized collection of worker nodes sharing a network. Matches
// the paper's setup: the 30-node testbed is a single rack; multi-rack
// layouts exist so the "spill within the rack only" policy has something
// to be tested against.
struct ClusterConfig {
  size_t num_nodes = 30;
  size_t nodes_per_rack = 40;
  NodeConfig node;
  NetworkConfig network;
};

class Cluster {
 public:
  Cluster(sim::Engine* engine, const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Engine* engine() { return engine_; }
  Network& network() { return *network_; }

  size_t size() const { return nodes_.size(); }
  Node& node(size_t i) { return *nodes_[i]; }
  const Node& node(size_t i) const { return *nodes_[i]; }

  // All node ids in the same rack as `node_id` (including itself).
  std::vector<size_t> RackPeers(size_t node_id) const;

  bool SameRack(size_t a, size_t b) const {
    return nodes_[a]->rack() == nodes_[b]->rack();
  }

  size_t rack_of(size_t node_id) const { return nodes_[node_id]->rack(); }
  size_t num_racks() const {
    return nodes_.empty() ? 0 : nodes_.back()->rack() + 1;
  }

  const ClusterConfig& config() const { return config_; }

 private:
  sim::Engine* engine_;
  ClusterConfig config_;
  std::unique_ptr<Network> network_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace spongefiles::cluster

#endif  // SPONGEFILES_CLUSTER_CLUSTER_H_

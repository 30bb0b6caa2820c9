#ifndef SPONGEFILES_CLUSTER_DFS_H_
#define SPONGEFILES_CLUSTER_DFS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "sim/task.h"

namespace spongefiles::cluster {

// A minimal HDFS-like distributed filesystem: files are sequences of
// fixed-size blocks placed round-robin across the cluster's local
// filesystems. It serves two purposes in the reproduction:
//   * storing job input datasets (map tasks read their splits from it, with
//     Hadoop-style locality: a split is read from the local disk when a
//     replica is local, otherwise fetched over the network), and
//   * the last-resort spill target in the SpongeFile allocation cascade.
class Dfs {
 public:
  static constexpr uint64_t kBlockSize = 128ull * 1024 * 1024;

  explicit Dfs(Cluster* cluster) : cluster_(cluster) {}

  Dfs(const Dfs&) = delete;
  Dfs& operator=(const Dfs&) = delete;

  // Creates a file of `size` bytes with blocks placed round-robin starting
  // at a deterministic node derived from the name. The block payloads are
  // synthesized by readers; the DFS charges IO and tracks placement.
  Status CreateFile(const std::string& name, uint64_t size);

  // Appends one block of `bytes` (<= kBlockSize) to `name` from `writer`,
  // creating the file when needed. Used by the spill path; charges a
  // network transfer when the chosen storage node is remote, plus the
  // storage node's write path.
  sim::Task<Status> AppendBlock(std::string name, size_t writer,
                                uint64_t bytes);

  // Reads `bytes` at `offset` of `name` into `reader`'s memory, charging
  // disk IO at each owning node and network transfer for non-local blocks.
  sim::Task<Status> Read(std::string name, size_t reader,
                         uint64_t offset, uint64_t bytes);

  // Deletes the file, releasing space on every owning node.
  Status Delete(const std::string& name);

  Result<uint64_t> Size(const std::string& name) const;

  // Node holding the block covering `offset`, or NOT_FOUND.
  Result<size_t> BlockLocation(const std::string& name,
                               uint64_t offset) const;

  bool Exists(const std::string& name) const {
    return files_.contains(name);
  }

 private:
  struct Block {
    size_t node;
    uint64_t local_file_id;
    // File offset one past this block's last byte. Ends never decrease
    // along a file, so the block covering an offset is a binary search.
    uint64_t end;
  };
  struct File {
    std::vector<Block> blocks;

    uint64_t size() const { return blocks.empty() ? 0 : blocks.back().end; }
    // Index of the first block ending past `offset`: the block covering it,
    // or blocks.size() when offset >= size().
    size_t BlockAt(uint64_t offset) const;
    uint64_t BlockStart(size_t i) const {
      return i == 0 ? 0 : blocks[i - 1].end;
    }
  };

  // Adds one block of `bytes` on `node`, backed by a local file there.
  Status PlaceBlock(File* file, const std::string& name, size_t node,
                    uint64_t bytes);

  Cluster* cluster_;
  std::unordered_map<std::string, File> files_;
  size_t next_node_ = 0;
};

}  // namespace spongefiles::cluster

#endif  // SPONGEFILES_CLUSTER_DFS_H_

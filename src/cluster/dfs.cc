#include "cluster/dfs.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace spongefiles::cluster {

namespace {

obs::Counter* DfsBytesCounter(bool is_write) {
  static obs::Counter* const read = obs::Registry::Default().counter(
      "cluster.dfs.bytes", {{"op", "read"}});
  static obs::Counter* const write = obs::Registry::Default().counter(
      "cluster.dfs.bytes", {{"op", "write"}});
  return is_write ? write : read;
}

uint64_t NameHash(const std::string& name) {
  uint64_t h = 14695981039346656037ull;
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}
}  // namespace

Status Dfs::PlaceBlock(File* file, const std::string& name, size_t node,
                       uint64_t bytes) {
  LocalFs& fs = cluster_->node(node).fs();
  auto created =
      fs.Create(name + ".blk" + std::to_string(file->blocks.size()));
  if (!created.ok()) return created.status();
  file->blocks.push_back(Block{node, *created, bytes});
  file->size += bytes;
  return Status::OK();
}

Status Dfs::CreateFile(const std::string& name, uint64_t size) {
  if (files_.contains(name)) {
    return FailedPrecondition("DFS file exists: " + name);
  }
  File file;
  size_t node = NameHash(name) % cluster_->size();
  uint64_t remaining = size;
  while (remaining > 0) {
    uint64_t block = std::min(remaining, kBlockSize);
    RETURN_IF_ERROR(PlaceBlock(&file, name, node, block));
    // Pre-existing data occupies disk space without charging IO time.
    Block& placed = file.blocks.back();
    LocalFs& fs = cluster_->node(placed.node).fs();
    RETURN_IF_ERROR(fs.Truncate(placed.local_file_id, block));
    remaining -= block;
    node = (node + 1) % cluster_->size();
  }
  files_[name] = std::move(file);
  return Status::OK();
}

sim::Task<Status> Dfs::AppendBlock(std::string name, size_t writer,
                                   uint64_t bytes) {
  if (bytes > kBlockSize) {
    co_return InvalidArgument("block larger than DFS block size");
  }
  obs::SpanGuard span(&obs::Tracer::Default(), cluster_->engine(), writer, 0,
                      "dfs", "dfs.append");
  span.Arg("bytes", bytes);
  DfsBytesCounter(/*is_write=*/true)->Increment(bytes);
  File& file = files_[name];  // creates on first append
  // Hadoop writes the first replica locally when the writer is a datanode
  // with space; otherwise the namenode picks a node that can hold the
  // block.
  size_t preferred = file.blocks.empty()
                         ? writer
                         : (file.blocks.back().node + 1) % cluster_->size();
  size_t target = preferred;
  bool found = false;
  for (size_t i = 0; i < cluster_->size(); ++i) {
    size_t candidate = (preferred + i) % cluster_->size();
    if (cluster_->node(candidate).fs().free_space() >= bytes) {
      target = candidate;
      found = true;
      break;
    }
  }
  if (!found) co_return ResourceExhausted("DFS out of space");
  Status placed = PlaceBlock(&file, name, target, bytes);
  if (!placed.ok()) co_return placed;
  Block& block = file.blocks.back();
  if (target != writer) {
    co_await cluster_->network().Transfer(writer, target, bytes);
  }
  LocalFs& fs = cluster_->node(target).fs();
  Status appended = co_await fs.Append(block.local_file_id, bytes);
  co_return appended;
}

sim::Task<Status> Dfs::Read(std::string name, size_t reader,
                            uint64_t offset, uint64_t bytes) {
  auto it = files_.find(name);
  if (it == files_.end()) co_return NotFound("no DFS file: " + name);
  const File& file = it->second;
  if (offset + bytes > file.size) co_return OutOfRange("DFS read past EOF");
  obs::SpanGuard span(&obs::Tracer::Default(), cluster_->engine(), reader, 0,
                      "dfs", "dfs.read");
  span.Arg("bytes", bytes);
  DfsBytesCounter(/*is_write=*/false)->Increment(bytes);

  uint64_t pos = 0;
  for (const Block& block : file.blocks) {
    uint64_t block_end = pos + block.size;
    if (block_end > offset && pos < offset + bytes) {
      uint64_t lo = std::max(pos, offset);
      uint64_t hi = std::min(block_end, offset + bytes);
      uint64_t chunk = hi - lo;
      LocalFs& fs = cluster_->node(block.node).fs();
      Status read = co_await fs.Read(block.local_file_id, lo - pos, chunk);
      if (!read.ok()) co_return read;
      if (block.node != reader) {
        co_await cluster_->network().Transfer(block.node, reader, chunk);
      }
    }
    pos = block_end;
    if (pos >= offset + bytes) break;
  }
  co_return Status::OK();
}

Status Dfs::Delete(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) return NotFound("no DFS file: " + name);
  for (const Block& block : it->second.blocks) {
    (void)cluster_->node(block.node).fs().Delete(block.local_file_id);
  }
  files_.erase(it);
  return Status::OK();
}

Result<uint64_t> Dfs::Size(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) return NotFound("no DFS file: " + name);
  return it->second.size;
}

Result<size_t> Dfs::BlockLocation(const std::string& name,
                                  uint64_t offset) const {
  auto it = files_.find(name);
  if (it == files_.end()) return NotFound("no DFS file: " + name);
  uint64_t pos = 0;
  for (const Block& block : it->second.blocks) {
    if (offset < pos + block.size) return block.node;
    pos += block.size;
  }
  return OutOfRange("offset past EOF");
}

}  // namespace spongefiles::cluster

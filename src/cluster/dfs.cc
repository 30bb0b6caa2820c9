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
  file->blocks.push_back(Block{node, *created, file->size() + bytes});
  return Status::OK();
}

size_t Dfs::File::BlockAt(uint64_t offset) const {
  auto covering = std::upper_bound(
      blocks.begin(), blocks.end(), offset,
      [](uint64_t off, const Block& block) { return off < block.end; });
  return static_cast<size_t>(covering - blocks.begin());
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
  if (offset + bytes > file.size()) co_return OutOfRange("DFS read past EOF");
  obs::SpanGuard span(&obs::Tracer::Default(), cluster_->engine(), reader, 0,
                      "dfs", "dfs.read");
  span.Arg("bytes", bytes);
  DfsBytesCounter(/*is_write=*/false)->Increment(bytes);

  // Start at the block covering `offset`: every earlier one ends at or
  // before it.
  const uint64_t end = offset + bytes;
  for (size_t i = file.BlockAt(offset); i < file.blocks.size(); ++i) {
    const Block& block = file.blocks[i];
    const uint64_t start = file.BlockStart(i);
    if (start >= end) break;
    uint64_t lo = std::max(start, offset);
    uint64_t chunk = std::min(block.end, end) - lo;
    LocalFs& fs = cluster_->node(block.node).fs();
    Status read = co_await fs.Read(block.local_file_id, lo - start, chunk);
    if (!read.ok()) co_return read;
    if (block.node != reader) {
      co_await cluster_->network().Transfer(block.node, reader, chunk);
    }
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
  return it->second.size();
}

Result<size_t> Dfs::BlockLocation(const std::string& name,
                                  uint64_t offset) const {
  auto it = files_.find(name);
  if (it == files_.end()) return NotFound("no DFS file: " + name);
  const File& file = it->second;
  size_t i = file.BlockAt(offset);
  if (i == file.blocks.size()) return OutOfRange("offset past EOF");
  return file.blocks[i].node;
}

}  // namespace spongefiles::cluster

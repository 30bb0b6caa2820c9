#include "sponge/task_registry.h"

#include <algorithm>

namespace spongefiles::sponge {

uint64_t ReplicaDirectory::Register(uint64_t owner_task, uint64_t size,
                                    uint64_t checksum) {
  uint64_t id = next_id_++;
  ReplicatedChunk& entry = chunks_[id];
  entry.chunk_id = id;
  entry.owner_task = owner_task;
  entry.size = size;
  entry.checksum = checksum;
  return id;
}

void ReplicaDirectory::AddLocation(uint64_t chunk_id,
                                   const ReplicaLocation& location) {
  auto it = chunks_.find(chunk_id);
  if (it == chunks_.end()) return;
  for (const ReplicaLocation& held : it->second.locations) {
    if (held.node == location.node && held.handle == location.handle) return;
  }
  it->second.locations.push_back(location);
}

void ReplicaDirectory::DropLocation(uint64_t chunk_id, size_t node) {
  auto it = chunks_.find(chunk_id);
  if (it == chunks_.end()) return;
  auto& locations = it->second.locations;
  locations.erase(std::remove_if(locations.begin(), locations.end(),
                                 [node](const ReplicaLocation& location) {
                                   return location.node == node;
                                 }),
                  locations.end());
}

void ReplicaDirectory::Forget(uint64_t chunk_id) { chunks_.erase(chunk_id); }

const ReplicatedChunk* ReplicaDirectory::Find(uint64_t chunk_id) const {
  auto it = chunks_.find(chunk_id);
  return it == chunks_.end() ? nullptr : &it->second;
}

std::vector<uint64_t> ReplicaDirectory::ChunksOn(size_t node) const {
  std::vector<uint64_t> ids;
  for (const auto& [id, entry] : chunks_) {
    for (const ReplicaLocation& location : entry.locations) {
      if (location.node == node) {
        ids.push_back(id);
        break;
      }
    }
  }
  return ids;
}

uint64_t TaskRegistry::Register(size_t node) {
  uint64_t id = next_id_++;
  tasks_[id] = node;
  return id;
}

void TaskRegistry::Deregister(uint64_t task_id) { tasks_.erase(task_id); }

bool TaskRegistry::IsAliveOn(uint64_t task_id, size_t node) const {
  auto it = tasks_.find(task_id);
  return it != tasks_.end() && it->second == node;
}

Result<size_t> TaskRegistry::NodeOf(uint64_t task_id) const {
  auto it = tasks_.find(task_id);
  if (it == tasks_.end()) return NotFound("task not alive");
  return it->second;
}

}  // namespace spongefiles::sponge

// Quickstart: the SpongeFile API on a small simulated cluster.
//
// Builds a 4-node rack, spills 12 MB through a SpongeFile whose local pool
// only holds 4 MB (forcing remote-memory chunks), reads it back verifying
// integrity, and prints where every chunk landed.

#include <cstdio>
#include <string>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "common/checksum.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sponge/sponge_env.h"
#include "sponge/sponge_file.h"

using namespace spongefiles;

namespace {

sim::Task<> Demo(sim::Engine* engine, sponge::SpongeEnv* env) {
  // Every spilling task registers so sponge servers can track liveness.
  sponge::TaskContext task = env->StartTask(/*node=*/0);
  sponge::SpongeFile file(env, &task, "quickstart-spill");

  // Write 12 MB of patterned data.
  std::string block(1 << 16, '\0');
  for (size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<char>(i * 131 % 251);
  }
  Checksum written;
  SimTime start = engine->now();
  for (int i = 0; i < 192; ++i) {  // 192 x 64 KB = 12 MB
    written.Update(Slice(block));
    Status status = co_await file.AppendBytes(Slice(block));
    if (!status.ok()) {
      std::printf("append failed: %s\n", status.ToString().c_str());
      co_return;
    }
  }
  (void)co_await file.Close();
  std::printf("wrote %s in %s (simulated)\n",
              FormatBytes(file.size()).c_str(),
              FormatDuration(engine->now() - start).c_str());

  // Read it back sequentially (with prefetch) and verify integrity.
  start = engine->now();
  Checksum read_back;
  uint64_t bytes = 0;
  while (true) {
    auto chunk = co_await file.ReadNext();
    if (!chunk.ok()) {
      std::printf("read failed: %s\n", chunk.status().ToString().c_str());
      co_return;
    }
    if (chunk->empty()) break;
    auto data = chunk->ToBytes();
    read_back.Update(Slice(data));
    bytes += data.size();
  }
  std::printf("read %s back in %s; checksums %s\n",
              FormatBytes(bytes).c_str(),
              FormatDuration(engine->now() - start).c_str(),
              written.digest() == read_back.digest() ? "MATCH" : "DIFFER");

  const auto& stats = file.stats();
  std::printf(
      "chunk placement: %llu local memory, %llu remote memory, %llu local "
      "disk, %llu DFS\n",
      static_cast<unsigned long long>(stats.chunks_local_memory),
      static_cast<unsigned long long>(stats.chunks_remote_memory),
      static_cast<unsigned long long>(stats.chunks_local_disk),
      static_cast<unsigned long long>(stats.chunks_dfs));

  co_await file.Delete();
  env->EndTask(task);
  std::printf("deleted; node 0 sponge pool free again: %s\n",
              FormatBytes(env->server(0).free_bytes()).c_str());
}

}  // namespace

int main() {
  sim::Engine engine;
  cluster::ClusterConfig cc;
  cc.num_nodes = 4;
  cc.node.sponge_memory = MiB(4);  // tiny pool: forces remote spilling
  cluster::Cluster cluster(&engine, cc);
  cluster::Dfs dfs(&cluster);
  sponge::SpongeEnv env(&cluster, &dfs, sponge::SpongeConfig{});

  // Prime the memory tracker once so remote allocation has a free list.
  engine.Spawn(env.tracker().PollOnce());
  engine.Run();

  engine.Spawn(Demo(&engine, &env));
  engine.Run();
  return 0;
}

// The paper's core architectural argument against kernel-level remote
// paging (sections 1 and 5): paging moves one page (a few KB) per network
// round trip, because the kernel cannot know which pages a task needs
// next; SpongeFiles move megabyte chunks with prefetch, because the
// application knows its access pattern is strictly sequential.
//
// This bench spills and reads back 256 MB through both models on the same
// simulated network and reports effective throughput.

#include <cstdio>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "common/table.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sponge/sponge_env.h"
#include "sponge/sponge_file.h"

#include "bench_util.h"

using namespace spongefiles;

namespace {

constexpr uint64_t kTotal = 256ull * 1024 * 1024;

// Kernel-style remote paging: synchronous, one page per round trip (the
// kernel blocks the faulting thread until the page arrives).
Duration RemotePagingTime(uint64_t page_size) {
  sim::Engine engine;
  cluster::ClusterConfig cc;
  cc.num_nodes = 2;
  cluster::Cluster cluster(&engine, cc);
  auto run = [&]() -> sim::Task<> {
    // Page-out whole region, then page it back in, one page at a time.
    for (int direction = 0; direction < 2; ++direction) {
      size_t src = direction == 0 ? 0 : 1;
      size_t dst = 1 - src;
      for (uint64_t off = 0; off < kTotal; off += page_size) {
        // Request (page fault message) + the page itself.
        co_await cluster.network().Transfer(src, dst, 64);
        co_await cluster.network().Transfer(dst, src, page_size);
      }
    }
  };
  engine.Spawn(run());
  engine.Run();
  return engine.now();
}

// SpongeFile spilling of the same volume to remote memory (async writes,
// prefetched reads).
Duration SpongeFileTime(uint64_t chunk_size) {
  sim::Engine engine;
  cluster::ClusterConfig cc;
  cc.num_nodes = 2;
  cc.node.sponge_memory = 2 * kTotal;
  cluster::Cluster cluster(&engine, cc);
  cluster::Dfs dfs(&cluster);
  sponge::SpongeConfig config;
  config.chunk_size = chunk_size;
  sponge::SpongeEnv env(&cluster, &dfs, config);
  // Force everything remote: drain node 0's pool.
  sponge::ChunkOwner hog{999, 0};
  while (env.server(0).pool().Allocate(hog).ok()) {
  }
  engine.Spawn(env.tracker().PollOnce());
  engine.Run();

  sponge::TaskContext task = env.StartTask(0);
  sponge::SpongeFile file(&env, &task, "spill");
  auto run = [&]() -> sim::Task<> {
    ByteRuns data;
    data.AppendZeros(kTotal);
    (void)co_await file.Append(std::move(data));
    (void)co_await file.Close();
    while (true) {
      auto chunk = co_await file.ReadNext();
      if (!chunk.ok() || chunk->empty()) break;
    }
  };
  engine.Spawn(run());
  engine.Run();
  return engine.now();
}

std::string Throughput(Duration d) {
  double mb_per_s = 2.0 * kTotal / kMiB / ToSeconds(d);
  return StrFormat("%.0f MB/s", mb_per_s);
}

}  // namespace

int main(int argc, char** argv) {
  auto obs_options = spongefiles::bench::ParseObsFlags(argc, argv);
  std::printf(
      "Remote paging vs SpongeFiles: move %s out and back over the same "
      "1 Gb network\n\n",
      FormatBytes(kTotal).c_str());

  AsciiTable table({"mechanism", "granularity", "total time",
                    "effective throughput"});
  for (uint64_t page : {KiB(4), KiB(16), KiB(64)}) {
    Duration t = RemotePagingTime(page);
    table.AddRow({"kernel remote paging", FormatBytes(page),
                  FormatDuration(t), Throughput(t)});
  }
  for (uint64_t chunk : {MiB(1), MiB(4)}) {
    Duration t = SpongeFileTime(chunk);
    table.AddRow({"SpongeFile chunks", FormatBytes(chunk),
                  FormatDuration(t), Throughput(t)});
  }
  table.Print();
  std::printf(
      "\n4 KB pages pay a round-trip latency per page and cannot overlap; "
      "1 MB sequential chunks amortize the latency and prefetch/async "
      "writes hide it — the paper's case for an application-level "
      "abstraction.\n");
  spongefiles::bench::WriteObsOutputs(obs_options);
  return 0;
}

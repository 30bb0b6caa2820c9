// Table 1: the cost of spilling a 1 MB buffer to six media.
//
//   | medium                                   | paper (ms) |
//   | local shared memory                      |          1 |
//   | local memory via local sponge server     |          7 |
//   | remote memory over the network           |          9 |
//   | disk                                     |         25 |
//   | disk with background IO                  |        174 |
//   | disk with background IO + memory pressure|        499 |
//
// The memory cases spill through a SpongeFile (synchronous writes so the
// raw per-buffer cost is visible). The disk cases follow the paper's
// methodology: each 1 MB buffer is written at a random offset, defeating
// the buffer cache (the paper seeks before every write for exactly that
// reason), so they are timed against the raw disk. Background IO is two
// grep-style tasks streaming their own files; memory pressure removes the
// OS's ability to batch IO, so the background readers lose readahead
// (small requests) and the spill writes lose coalescing (they fragment),
// multiplying seeks.

#include <cstdio>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "common/random.h"
#include "common/table.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sponge/sponge_env.h"
#include "sponge/sponge_file.h"

#include "bench_util.h"

using namespace spongefiles;

namespace {

constexpr int kIterations = 2000;  // paper used 10,000; average converges

struct MicroEnv {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cluster::Dfs> dfs;
  std::unique_ptr<sponge::SpongeEnv> env;

  explicit MicroEnv(uint64_t local_sponge, sponge::SpongeConfig config) {
    cluster::ClusterConfig cc;
    cc.num_nodes = 2;
    cc.node.sponge_memory = GiB(4);
    cluster_ = std::make_unique<cluster::Cluster>(&engine, cc);
    dfs = std::make_unique<cluster::Dfs>(cluster_.get());
    config.async_write = false;  // measure the raw synchronous cost
    config.prefetch = false;
    env = std::make_unique<sponge::SpongeEnv>(cluster_.get(), dfs.get(),
                                              config);
    // Shrink node 0's pool by pre-allocating it when the case needs the
    // spill to go remote.
    if (local_sponge == 0) {
      sponge::ChunkOwner hog{9999, 0};
      while (env->server(0).pool().Allocate(hog).ok()) {
      }
      // Those allocations are set-up, not a timed spill: drop the lock
      // wait they left behind, so the first remote spill pays only its
      // own chunk's cost.
      (void)env->server(0).pool().TakeLockWait();
    }
    engine.Spawn(env->tracker().PollOnce());
    engine.Run();
  }
};

// Average simulated time to spill one 1 MB buffer through a SpongeFile.
double MemorySpillMs(uint64_t local_sponge, bool direct_local) {
  sponge::SpongeConfig config;
  config.direct_local_access = direct_local;
  MicroEnv micro(local_sponge, config);
  sponge::TaskContext task = micro.env->StartTask(0);
  Duration total = 0;
  auto run = [&]() -> sim::Task<> {
    for (int i = 0; i < kIterations; ++i) {
      sponge::SpongeFile file(micro.env.get(), &task,
                              "micro" + std::to_string(i));
      ByteRuns buffer;
      buffer.AppendZeros(MiB(1));
      SimTime start = micro.engine.now();
      (void)co_await file.Append(std::move(buffer));
      (void)co_await file.Close();
      total += micro.engine.now() - start;
      co_await file.Delete();
    }
  };
  micro.engine.Spawn(run());
  micro.engine.Run();
  micro.env->EndTask(task);
  return ToMillis(total) / kIterations;
}

// A background task endlessly streaming its own file off the disk.
sim::Task<> BackgroundReader(sim::Engine* engine, cluster::Disk* disk,
                             uint64_t stream, uint64_t request_bytes,
                             const bool* stop) {
  uint64_t offset = 0;
  while (!*stop) {
    // lint: status-ok(Disk::Read is an awaiter with no result; the index name-collides with DfsClient::Read)
    co_await disk->Read(stream, offset, request_bytes);
    offset += request_bytes;
    co_await engine->Delay(Micros(100));  // brief compute between reads
  }
}

// Average time to write one 1 MB buffer at a random disk offset, with
// `background_readers` competing streams. `write_fragment` models the loss
// of write coalescing under memory pressure (the 1 MB buffer reaches the
// disk as several smaller requests).
double DiskSpillMs(int background_readers, uint64_t reader_request,
                   uint64_t write_fragment) {
  sim::Engine engine;
  cluster::Disk disk(&engine, cluster::DiskConfig{});
  bool stop = false;
  for (int i = 0; i < background_readers; ++i) {
    engine.Spawn(BackgroundReader(&engine, &disk, 100 + i, reader_request,
                                  &stop));
  }
  Duration total = 0;
  auto run = [&]() -> sim::Task<> {
    Rng rng(7);
    for (int i = 0; i < kIterations; ++i) {
      uint64_t offset = rng.Uniform(GiB(100) / MiB(1)) * MiB(1);
      SimTime start = engine.now();
      for (uint64_t done = 0; done < MiB(1); done += write_fragment) {
        // lint: status-ok(Disk::Write is an awaiter with no result; the index name-collides with Ssd::Write)
        co_await disk.Write(1, offset + done, write_fragment);
      }
      total += engine.now() - start;
    }
    stop = true;
  };
  engine.Spawn(run());
  engine.Run();
  return ToMillis(total) / kIterations;
}

}  // namespace

int main(int argc, char** argv) {
  auto obs_options = spongefiles::bench::ParseObsFlags(argc, argv);
  std::printf(
      "Table 1: spilling a 1 MB buffer to different media "
      "(%d iterations each)\n\n",
      kIterations);

  double shared = MemorySpillMs(GiB(4), /*direct_local=*/true);
  double via_server = MemorySpillMs(GiB(4), /*direct_local=*/false);
  double remote = MemorySpillMs(/*local_sponge=*/0, /*direct_local=*/true);
  double disk_alone = DiskSpillMs(0, 0, MiB(1));
  double disk_bg = DiskSpillMs(2, MiB(4), MiB(1));
  double disk_bg_pressure = DiskSpillMs(2, KiB(256), KiB(96));

  AsciiTable table({"Spill medium", "measured (ms)", "paper (ms)"});
  table.AddRow({"Local shared memory", StrFormat("%.1f", shared), "1"});
  table.AddRow({"Local memory (local sponge server)",
                StrFormat("%.1f", via_server), "7"});
  table.AddRow({"Remote memory, over the network",
                StrFormat("%.1f", remote), "9"});
  table.AddRow({"Disk", StrFormat("%.1f", disk_alone), "25"});
  table.AddRow({"Disk with background IO", StrFormat("%.1f", disk_bg),
                "174"});
  table.AddRow({"Disk with background IO and memory pressure",
                StrFormat("%.1f", disk_bg_pressure), "499"});
  table.Print();

  std::printf(
      "\nshape check: memory media ~1-10 ms; disk 1 order slower; "
      "contention adds another order (%.0fx -> %.0fx solo disk).\n",
      disk_bg / disk_alone, disk_bg_pressure / disk_alone);
  spongefiles::bench::WriteObsOutputs(obs_options);
  return 0;
}

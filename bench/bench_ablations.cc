// Ablations of the design choices DESIGN.md calls out:
//   1. chunk size: setup-cost amortization vs internal fragmentation
//      (the paper picked 1 MB);
//   2. memory-tracker staleness: longer poll periods mean more bounced
//      allocations and disk fallbacks under concurrent spilling;
//   3. affinity: how many distinct machines hold a task's chunks (its
//      failure footprint), with and without preferring already-used
//      servers;
//   4. read prefetch and asynchronous writes: overlap of IO with the
//      task's computation.

#include <cstdio>
#include <set>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "common/table.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sponge/failure.h"
#include "sponge/sponge_env.h"
#include "sponge/sponge_file.h"

#include "bench_util.h"

using namespace spongefiles;

namespace {

struct Rig {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cluster::Dfs> dfs;
  std::unique_ptr<sponge::SpongeEnv> env;

  Rig(size_t nodes, uint64_t sponge_per_node, sponge::SpongeConfig config,
      Duration tracker_poll = Seconds(1)) {
    cluster::ClusterConfig cc;
    cc.num_nodes = nodes;
    cc.node.sponge_memory = sponge_per_node;
    cluster_ = std::make_unique<cluster::Cluster>(&engine, cc);
    dfs = std::make_unique<cluster::Dfs>(cluster_.get());
    sponge::MemoryTrackerConfig tracker_config;
    tracker_config.poll_period = tracker_poll;
    env = std::make_unique<sponge::SpongeEnv>(
        cluster_.get(), dfs.get(), config, sponge::SpongeServerConfig{},
        tracker_config);
    engine.Spawn(env->tracker().PollOnce());
    engine.Run();
  }
};

void ChunkSizeSweep() {
  std::printf("1. chunk size (spill 64 MB + 300 KB to remote memory)\n");
  AsciiTable table({"chunk size", "write time", "frag bytes", "chunks"});
  for (uint64_t chunk : {KiB(64), KiB(256), MiB(1), MiB(4), MiB(16)}) {
    sponge::SpongeConfig config;
    config.chunk_size = chunk;
    Rig rig(4, GiB(1), config);
    // Local pool full: everything goes remote, exposing per-chunk setup.
    sponge::ChunkOwner hog{999, 0};
    while (rig.env->server(0).pool().Allocate(hog).ok()) {
    }
    sponge::TaskContext task = rig.env->StartTask(0);
    sponge::SpongeFile file(rig.env.get(), &task, "sweep");
    Duration elapsed = 0;
    auto run = [&]() -> sim::Task<> {
      SimTime start = rig.engine.now();
      ByteRuns data;
      data.AppendZeros(MiB(64) + 300 * kKiB);
      (void)co_await file.Append(std::move(data));
      (void)co_await file.Close();
      elapsed = rig.engine.now() - start;
    };
    rig.engine.Spawn(run());
    rig.engine.Run();
    table.AddRow({FormatBytes(chunk), FormatDuration(elapsed),
                  FormatBytes(file.stats().fragmentation_bytes),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        file.stats().total_chunks()))});
  }
  table.Print();
  std::printf(
      "   small chunks pay per-chunk round trips; huge chunks waste the "
      "partial tail. 1 MB balances both (the paper's choice).\n\n");
}

void StalenessSweep() {
  std::printf(
      "2. tracker staleness (8 tasks racing to spill 48 MB each into a "
      "nearly-full rack)\n");
  AsciiTable table({"poll period", "stale retries", "disk chunks",
                    "memory chunks"});
  for (Duration poll : {Millis(100), Seconds(1), Seconds(10), Seconds(30)}) {
    sponge::SpongeConfig config;
    // Local pools are tiny; the rack fills up as the staggered tasks
    // arrive, so late tasks live or die by the freshness of their list.
    Rig rig(8, MiB(24), config, poll);
    rig.env->tracker().Start();
    uint64_t stale = 0;
    uint64_t disk_chunks = 0;
    uint64_t memory_chunks = 0;
    sim::WaitGroup wg(&rig.engine);
    std::vector<std::unique_ptr<sponge::TaskContext>> tasks;
    std::vector<std::unique_ptr<sponge::SpongeFile>> files;
    for (int t = 0; t < 8; ++t) {
      tasks.push_back(std::make_unique<sponge::TaskContext>(
          rig.env->StartTask(static_cast<size_t>(t))));
      files.push_back(std::make_unique<sponge::SpongeFile>(
          rig.env.get(), tasks.back().get(),
          "race" + std::to_string(t)));
    }
    wg.Add(8);
    auto spill = [&](int t) -> sim::Task<> {
      // Staggered arrivals: each task's snapshot is up to `poll` stale
      // with respect to the spills already in flight.
      co_await rig.engine.Delay(Seconds(2) * t);
      ByteRuns data;
      data.AppendZeros(MiB(48));
      (void)co_await files[static_cast<size_t>(t)]->Append(std::move(data));
      (void)co_await files[static_cast<size_t>(t)]->Close();
      wg.Done();
    };
    for (int t = 0; t < 8; ++t) rig.engine.Spawn(spill(t));
    bool done = false;
    auto wait_all = [&]() -> sim::Task<> {
      co_await wg.Wait();
      done = true;
    };
    rig.engine.Spawn(wait_all());
    while (!done) rig.engine.RunUntil(rig.engine.now() + Seconds(1));
    for (const auto& file : files) {
      stale += file->stats().stale_list_retries;
      disk_chunks += file->stats().chunks_local_disk + file->stats().chunks_dfs;
      memory_chunks += file->stats().chunks_local_memory +
                       file->stats().chunks_remote_memory;
    }
    rig.env->StopServices();
    table.AddRow({FormatDuration(poll), StrFormat("%llu", (unsigned long long)stale),
                  StrFormat("%llu", (unsigned long long)disk_chunks),
                  StrFormat("%llu", (unsigned long long)memory_chunks)});
  }
  table.Print();
  std::printf(
      "   staler views bounce off full servers more often (wasted RPCs); "
      "walking the rest of the list still finds whatever memory exists, so "
      "placement only degrades to disk when the rack is truly full — the "
      "paper's argument for cheap 1 s polling with relaxed consistency.\n\n");
}

void AffinityAblation() {
  std::printf("3. affinity (failure footprint of one 24 MB spill)\n");
  AsciiTable table({"affinity", "distinct remote nodes", "P(fail), t=120min"});
  for (bool affinity : {true, false}) {
    sponge::SpongeConfig config;
    config.affinity = affinity;
    Rig rig(16, MiB(8), config);
    sponge::ChunkOwner hog{999, 0};
    while (rig.env->server(0).pool().Allocate(hog).ok()) {
    }
    sponge::TaskContext task = rig.env->StartTask(0);
    // Pig-style spilling: the task writes many small SpongeFiles (bag
    // chunks). Each file queries the tracker afresh, so without the
    // task-level affinity preference the chunks scatter across the rack.
    auto run = [&]() -> sim::Task<> {
      for (int i = 0; i < 24; ++i) {
        sponge::SpongeFile file(rig.env.get(), &task,
                                "aff" + std::to_string(i));
        ByteRuns data;
        data.AppendZeros(MiB(1));
        (void)co_await file.Append(std::move(data));
        (void)co_await file.Close();
        co_await rig.engine.Delay(Seconds(2));  // tracker re-polls between
      }
    };
    rig.env->tracker().Start();
    bool finished = false;
    auto wrapper = [&]() -> sim::Task<> {
      co_await run();
      finished = true;
    };
    rig.engine.Spawn(wrapper());
    while (!finished) rig.engine.RunUntil(rig.engine.now() + Seconds(1));
    rig.env->StopServices();
    std::set<size_t> nodes;
    for (size_t n = 1; n < 16; ++n) {
      if (!rig.env->server(n).pool().AllocatedChunks().empty()) {
        nodes.insert(n);
      }
    }
    const Duration mttf = Minutes(100.0 * 30 * 24 * 60);
    table.AddRow(
        {affinity ? "on" : "off", StrFormat("%zu", nodes.size()),
         StrFormat("%.2e",
                   sponge::TaskFailureProbability(
                       static_cast<int>(nodes.size()) + 1, Minutes(120),
                       mttf))});
  }
  table.Print();
  std::printf(
      "   affinity concentrates a task's chunks on fewer machines, "
      "shrinking the failure probability (section 3.1.1).\n\n");
}

void OverlapAblation() {
  std::printf(
      "4. prefetch / async writes (48 MB remote spill, 8 ms compute per "
      "MB)\n");
  AsciiTable table({"config", "write phase", "read phase"});
  for (int mode = 0; mode < 2; ++mode) {
    sponge::SpongeConfig config;
    config.prefetch = mode == 1;
    config.async_write = mode == 1;
    Rig rig(8, MiB(16), config);
    sponge::ChunkOwner hog{999, 0};
    while (rig.env->server(0).pool().Allocate(hog).ok()) {
    }
    sponge::TaskContext task = rig.env->StartTask(0);
    sponge::SpongeFile file(rig.env.get(), &task, "ovl");
    Duration write_time = 0;
    Duration read_time = 0;
    auto run = [&]() -> sim::Task<> {
      SimTime start = rig.engine.now();
      for (int i = 0; i < 48; ++i) {
        ByteRuns data;
        data.AppendZeros(MiB(1));
        (void)co_await file.Append(std::move(data));
        co_await rig.engine.Delay(Millis(8));  // producer's computation
      }
      (void)co_await file.Close();
      write_time = rig.engine.now() - start;
      start = rig.engine.now();
      while (true) {
        auto chunk = co_await file.ReadNext();
        if (!chunk.ok() || chunk->empty()) break;
        co_await rig.engine.Delay(Millis(8));  // consumer's computation
      }
      read_time = rig.engine.now() - start;
    };
    rig.engine.Spawn(run());
    rig.engine.Run();
    table.AddRow({mode == 1 ? "prefetch + async writes" : "synchronous",
                  FormatDuration(write_time), FormatDuration(read_time)});
  }
  table.Print();
  std::printf(
      "   overlapping transfers with computation hides most of the remote "
      "memory latency (section 3.1.2).\n");
}

void RackRestrictionAblation() {
  std::printf(
      "5. rack-local spilling (2 racks, 4:1 oversubscribed core)\n");
  AsciiTable table({"policy", "spill 64 MB", "cross-rack bytes",
                    "chunks on disk"});
  for (bool allow_cross_rack : {false, true}) {
    sim::Engine engine;
    cluster::ClusterConfig cc;
    cc.num_nodes = 8;
    cc.nodes_per_rack = 4;
    cc.node.sponge_memory = MiB(16);
    cc.network.cross_rack_bandwidth = cc.network.bandwidth / 4;
    cluster::Cluster cluster(&engine, cc);
    cluster::Dfs dfs(&cluster);
    sponge::SpongeConfig config;
    config.allow_cross_rack = allow_cross_rack;
    sponge::SpongeEnv env(&cluster, &dfs, config);
    // Rack 0 is entirely full, so remote-memory demand must leave it.
    for (size_t n = 0; n < 4; ++n) {
      while (env.server(n).pool().Allocate(
                 sponge::ChunkOwner{999, n}).ok()) {
      }
    }
    engine.Spawn(env.tracker().PollOnce());
    engine.Run();
    sponge::TaskContext task = env.StartTask(0);
    sponge::SpongeFile file(&env, &task, "xrack");
    Duration elapsed = 0;
    auto run = [&]() -> sim::Task<> {
      SimTime start = engine.now();
      ByteRuns data;
      data.AppendZeros(MiB(64));
      (void)co_await file.Append(std::move(data));
      (void)co_await file.Close();
      elapsed = engine.now() - start;
    };
    engine.Spawn(run());
    engine.Run();
    table.AddRow(
        {allow_cross_rack ? "cross-rack rung" : "rack-local only (paper)",
         FormatDuration(elapsed),
         FormatBytes(cluster.network().cross_rack_bytes()),
         StrFormat("%llu", static_cast<unsigned long long>(
                               file.stats().chunks_local_disk +
                               file.stats().chunks_dfs))});
  }
  table.Print();
  std::printf(
      "   with an oversubscribed core, shipping chunks off-rack is slower "
      "than the local disk the policy falls back to — and it would also "
      "congest everyone else's off-rack traffic (section 3.1.1).\n");
}

}  // namespace

int main(int argc, char** argv) {
  auto obs_options = spongefiles::bench::ParseObsFlags(argc, argv);
  std::printf("Ablations of SpongeFile design choices\n\n");
  ChunkSizeSweep();
  StalenessSweep();
  AffinityAblation();
  OverlapAblation();
  RackRestrictionAblation();
  spongefiles::bench::WriteObsOutputs(obs_options);
  return 0;
}

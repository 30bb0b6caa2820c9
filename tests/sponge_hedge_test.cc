// Hedged remote reads under slow-server gray faults: a server that answers
// every RPC, just slowly (overload, GC pauses), used to ride the retry
// ladder straight into the circuit breaker — three timed-out reads ejected
// the server and the chunk was declared lost, forcing a whole task retry.
// With hedging enabled the client instead duplicates the read after the
// server's observed latency tail and takes whichever copy settles first,
// so a slow-but-alive server never trips the breaker and a delay spike
// that clears mid-read is absorbed by the hedge.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "common/checksum.h"
#include "common/random.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "sponge/failure.h"
#include "sponge/sponge_env.h"
#include "sponge/sponge_file.h"

namespace spongefiles::sponge {
namespace {

struct HedgeCounters {
  uint64_t trips;
  uint64_t timeouts;
  uint64_t issued;
  uint64_t won;

  static HedgeCounters Snapshot() {
    obs::Registry& registry = obs::Registry::Default();
    return {
        registry.counter("sponge.rpc.breaker", {{"event", "trip"}})->value(),
        registry.counter("sponge.rpc.timeouts")->value(),
        registry.counter("sponge.read.hedge.issued")->value(),
        registry.counter("sponge.read.hedge.won")->value(),
    };
  }
};

// A 4-node rack with node 0's pool pre-filled so every chunk this test
// writes lands in *remote* memory — the only path hedged reads cover.
struct HedgeFixture {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cluster::Dfs> dfs;
  std::unique_ptr<SpongeEnv> env;
  TaskContext task;

  explicit HedgeFixture(SpongeConfig config) {
    cluster::ClusterConfig cc;
    cc.num_nodes = 4;
    cc.node.sponge_memory = MiB(4);
    cluster_ = std::make_unique<cluster::Cluster>(&engine, cc);
    dfs = std::make_unique<cluster::Dfs>(cluster_.get());
    env = std::make_unique<SpongeEnv>(cluster_.get(), dfs.get(), config);
    task = env->StartTask(0);
    for (int i = 0; i < 4; ++i) {
      (void)env->server(0).pool().Allocate(ChunkOwner{999, 0});
    }
    engine.Spawn(env->tracker().PollOnce());
    engine.Run();
  }

  // The remote server the written chunks landed on (affinity packs them
  // onto one peer).
  size_t RemoteHost(uint64_t writer_task_id) {
    for (size_t n = 1; n < cluster_->size(); ++n) {
      for (const auto& [handle, owner] :
           env->server(n).pool().AllocatedChunks()) {
        if (owner.task_id == writer_task_id) return n;
      }
    }
    ADD_FAILURE() << "no remote chunks found";
    return 1;
  }
};

std::string RandomData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (auto& c : out) c = static_cast<char>(rng.Uniform(256));
  return out;
}

// Writes `data` through `file`, closes it, and returns the node hosting
// the remote chunks.
size_t WriteRemote(HedgeFixture* f, SpongeFile* file,
                   const std::string& data) {
  Status status;
  auto write = [&]() -> sim::Task<> {
    status = co_await file->AppendBytes(Slice(data));
    if (status.ok()) status = co_await file->Close();
  };
  f->engine.Spawn(write());
  f->engine.Run();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(file->stats().chunks_remote_memory, 0u);
  return f->RemoteHost(f->task.task_id);
}

struct ReadBack {
  Status status;
  uint64_t bytes = 0;
  uint64_t checksum = 0;
};

ReadBack ReadAll(HedgeFixture* f, SpongeFile* file) {
  ReadBack result;
  auto read = [&]() -> sim::Task<> {
    Checksum sum;
    while (true) {
      auto chunk = co_await file->ReadNext();
      if (!chunk.ok()) {
        result.status = chunk.status();
        co_return;
      }
      if (chunk->empty()) break;
      auto bytes = chunk->ToBytes();
      sum.Update(Slice(bytes));
      result.bytes += bytes.size();
    }
    result.checksum = sum.digest();
  };
  f->engine.Spawn(read());
  f->engine.Run();
  return result;
}

TEST(SpongeHedgeTest, SlowServerDoesNotTripBreakerWithHedging) {
  // The remote host answers every read 800 ms late — past the 500 ms RPC
  // deadline, so the hardened path would time out, retry, and eject it.
  // The hedged path waits the reads out (they are slow, not dead): the
  // file reads back intact, zero timeouts, zero breaker trips.
  SpongeConfig config;
  config.rpc.hedge_reads = true;
  HedgeFixture f(config);
  SpongeFile file(f.env.get(), &f.task, "slow");
  std::string data = RandomData(4 * MiB(1), 7);
  size_t host = WriteRemote(&f, &file, data);

  FailureInjector injector(f.env.get(), 1);
  injector.ScheduleRpcDelay(host, f.engine.now(), Millis(800), Seconds(30));

  HedgeCounters before = HedgeCounters::Snapshot();
  ReadBack got = ReadAll(&f, &file);
  HedgeCounters after = HedgeCounters::Snapshot();

  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.bytes, data.size());
  EXPECT_EQ(got.checksum, Checksum::Of(Slice(data)));
  EXPECT_EQ(after.trips - before.trips, 0u);
  EXPECT_EQ(after.timeouts - before.timeouts, 0u);
  // Each 800 ms read sailed past the hedge delay, so duplicates went out
  // (to the same slow server, so the primaries still won the races).
  EXPECT_GT(after.issued - before.issued, 0u);
}

TEST(SpongeHedgeTest, SlowServerTripsBreakerWithoutHedging) {
  // Control for the test above: the identical fault on the hardened
  // (non-hedged) path rides deadline -> retry -> breaker, and the read
  // comes back UNAVAILABLE (chunk lost; the framework's task retry is
  // what recovers it).
  SpongeConfig config;
  config.rpc.hedge_reads = false;
  HedgeFixture f(config);
  SpongeFile file(f.env.get(), &f.task, "slow");
  std::string data = RandomData(4 * MiB(1), 7);
  size_t host = WriteRemote(&f, &file, data);

  FailureInjector injector(f.env.get(), 1);
  injector.ScheduleRpcDelay(host, f.engine.now(), Millis(800), Seconds(30));

  HedgeCounters before = HedgeCounters::Snapshot();
  ReadBack got = ReadAll(&f, &file);
  HedgeCounters after = HedgeCounters::Snapshot();

  EXPECT_FALSE(got.status.ok());
  EXPECT_EQ(got.status.code(), StatusCode::kUnavailable)
      << got.status.ToString();
  EXPECT_GT(after.trips - before.trips, 0u);
  EXPECT_EQ(after.issued - before.issued, 0u);
}

TEST(SpongeHedgeTest, HedgeWinsWhenDelaySpikeClears) {
  // A 100 ms delay spike of 1 s per RPC: the first read is issued inside
  // the window and crawls, but its hedge fires at the 150 ms floor —
  // after the spike has cleared — and settles first.
  SpongeConfig config;
  config.rpc.hedge_reads = true;
  config.rpc.hedge_min_delay = Millis(150);
  HedgeFixture f(config);
  SpongeFile file(f.env.get(), &f.task, "spike");
  std::string data = RandomData(4 * MiB(1), 11);
  size_t host = WriteRemote(&f, &file, data);

  FailureInjector injector(f.env.get(), 1);
  injector.ScheduleRpcDelay(host, f.engine.now(), Seconds(1), Millis(100));

  HedgeCounters before = HedgeCounters::Snapshot();
  ReadBack got = ReadAll(&f, &file);
  HedgeCounters after = HedgeCounters::Snapshot();

  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.checksum, Checksum::Of(Slice(data)));
  EXPECT_GT(after.issued - before.issued, 0u);
  EXPECT_GT(after.won - before.won, 0u);
  EXPECT_EQ(after.trips - before.trips, 0u);
}

}  // namespace
}  // namespace spongefiles::sponge

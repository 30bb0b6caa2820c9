#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "common/checksum.h"
#include "common/random.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sponge/failure.h"
#include "sponge/memory_tracker.h"
#include "sponge/rpc_client.h"
#include "sponge/sponge_env.h"
#include "sponge/sponge_file.h"
#include "sponge/sponge_server.h"

namespace spongefiles::sponge {
namespace {

struct ServicesFixture {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cluster::Dfs> dfs;
  std::unique_ptr<SpongeEnv> env;

  explicit ServicesFixture(SpongeServerConfig server_config = {},
                           MemoryTrackerConfig tracker_config = {},
                           uint64_t sponge_per_node = MiB(4)) {
    cluster::ClusterConfig cc;
    cc.num_nodes = 4;
    cc.node.sponge_memory = sponge_per_node;
    cluster_ = std::make_unique<cluster::Cluster>(&engine, cc);
    dfs = std::make_unique<cluster::Dfs>(cluster_.get());
    env = std::make_unique<SpongeEnv>(cluster_.get(), dfs.get(),
                                      SpongeConfig{}, server_config,
                                      tracker_config);
  }
};

TEST(TaskRegistryTest, RegisterAndLiveness) {
  TaskRegistry registry;
  uint64_t id = registry.Register(3);
  EXPECT_TRUE(registry.IsAliveOn(id, 3));
  EXPECT_FALSE(registry.IsAliveOn(id, 2));
  EXPECT_EQ(*registry.NodeOf(id), 3u);
  registry.Deregister(id);
  EXPECT_FALSE(registry.IsAliveOn(id, 3));
  EXPECT_FALSE(registry.NodeOf(id).ok());
}

TEST(TaskRegistryTest, IdsNeverZeroAndUnique) {
  TaskRegistry registry;
  uint64_t a = registry.Register(0);
  uint64_t b = registry.Register(0);
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(MemoryTrackerTest, PollBuildsSortedFreeList) {
  ServicesFixture f;
  // Consume chunks so free space differs per node.
  (void)f.env->server(1).pool().Allocate(ChunkOwner{1, 1});
  (void)f.env->server(1).pool().Allocate(ChunkOwner{1, 1});
  (void)f.env->server(2).pool().Allocate(ChunkOwner{1, 2});
  f.engine.Spawn(f.env->tracker().PollOnce());
  f.engine.Run();
  const auto& list = f.env->tracker().snapshot();
  ASSERT_EQ(list.size(), 4u);
  for (size_t i = 1; i < list.size(); ++i) {
    EXPECT_GE(list[i - 1].free_bytes, list[i].free_bytes);
  }
}

TEST(MemoryTrackerTest, SnapshotGoesStaleUntilNextPoll) {
  ServicesFixture f;
  f.engine.Spawn(f.env->tracker().PollOnce());
  f.engine.Run();
  uint64_t before = f.env->tracker().snapshot()[0].free_bytes;
  // Consume memory: the snapshot must NOT change until re-polled.
  (void)f.env->server(0).pool().Allocate(ChunkOwner{1, 0});
  for (const auto& entry : f.env->tracker().snapshot()) {
    if (entry.node == 0) {
      EXPECT_EQ(entry.free_bytes, before);
    }
  }
  f.engine.Spawn(f.env->tracker().PollOnce());
  f.engine.Run();
  bool updated = false;
  for (const auto& entry : f.env->tracker().snapshot()) {
    if (entry.node == 0) updated = entry.free_bytes < before;
  }
  EXPECT_TRUE(updated);
}

TEST(MemoryTrackerTest, PeriodicLoopKeepsPolling) {
  MemoryTrackerConfig tracker_config;
  tracker_config.poll_period = Seconds(1);
  ServicesFixture f(SpongeServerConfig{}, tracker_config);
  f.env->tracker().Start();
  f.engine.RunUntil(Seconds(5.5));
  EXPECT_GE(f.env->tracker().polls_completed(), 5u);
  f.env->StopServices();
  f.engine.Run();
}

TEST(MemoryTrackerTest, DeadServersExcludedFromList) {
  ServicesFixture f;
  f.env->CrashNode(2);
  f.engine.Spawn(f.env->tracker().PollOnce());
  f.engine.Run();
  for (const auto& entry : f.env->tracker().snapshot()) {
    EXPECT_NE(entry.node, 2u);
  }
}

TEST(SpongeServerTest, RemoteAllocateWriteReadFree) {
  ServicesFixture f;
  TaskContext task = f.env->StartTask(0);
  ChunkOwner owner{task.task_id, 0};
  Status status;
  uint64_t got_size = 0;
  auto run = [&]() -> sim::Task<> {
    SpongeServer& server = f.env->server(1);
    auto handle = co_await server.RemoteAllocate(0, owner);
    if (!handle.ok()) {
      status = handle.status();
      co_return;
    }
    ByteRuns data;
    data.AppendZeros(MiB(1));
    status = co_await server.RemoteWrite(0, *handle, owner, std::move(data));
    if (!status.ok()) co_return;
    auto read = co_await server.RemoteRead(0, *handle, owner);
    if (!read.ok()) {
      status = read.status();
      co_return;
    }
    got_size = read->size();
    status = co_await server.RemoteFree(0, *handle, owner);
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(got_size, MiB(1));
  EXPECT_EQ(f.env->server(1).free_bytes(), MiB(4));
  EXPECT_EQ(f.env->server(1).remote_allocations(), 1u);
}

TEST(SpongeServerTest, WrongOwnerCannotTouchChunk) {
  ServicesFixture f;
  ChunkOwner owner{77, 0};
  ChunkOwner thief{78, 2};
  Status status;
  auto run = [&]() -> sim::Task<> {
    SpongeServer& server = f.env->server(1);
    auto handle = co_await server.RemoteAllocate(0, owner);
    auto read = co_await server.RemoteRead(2, *handle, thief);
    status = read.status();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SpongeServerTest, GcReclaimsOrphanedLocalChunks) {
  ServicesFixture f;
  TaskContext task = f.env->StartTask(1);
  ChunkOwner owner{task.task_id, 1};
  (void)f.env->server(1).pool().Allocate(owner);
  (void)f.env->server(1).pool().Allocate(owner);
  // The task dies without freeing its chunks.
  f.env->EndTask(task);
  uint64_t reclaimed = 0;
  auto run = [&]() -> sim::Task<> {
    reclaimed = co_await f.env->server(1).GcSweep();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  EXPECT_EQ(reclaimed, 2u);
  EXPECT_EQ(f.env->server(1).free_bytes(), MiB(4));
}

TEST(SpongeServerTest, GcChecksRemoteOwnersViaPeerServer) {
  ServicesFixture f;
  // Task on node 0 holding a chunk on node 2, then dies.
  TaskContext dead = f.env->StartTask(0);
  TaskContext alive = f.env->StartTask(0);
  (void)f.env->server(2).pool().Allocate(ChunkOwner{dead.task_id, 0});
  (void)f.env->server(2).pool().Allocate(ChunkOwner{alive.task_id, 0});
  f.env->EndTask(dead);
  uint64_t reclaimed = 0;
  auto run = [&]() -> sim::Task<> {
    reclaimed = co_await f.env->server(2).GcSweep();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  EXPECT_EQ(reclaimed, 1u);
  // The live task's chunk survives.
  EXPECT_EQ(f.env->server(2).pool().AllocatedChunks().size(), 1u);
}

TEST(SpongeServerTest, PeriodicGcLoopCleansUpAfterDeadTask) {
  SpongeServerConfig server_config;
  server_config.gc_period = Seconds(10);
  ServicesFixture f(server_config);
  TaskContext task = f.env->StartTask(1);
  (void)f.env->server(1).pool().Allocate(ChunkOwner{task.task_id, 1});
  f.env->StartServices();
  f.env->EndTask(task);
  f.engine.RunUntil(Seconds(25));
  EXPECT_EQ(f.env->server(1).pool().AllocatedChunks().size(), 0u);
  f.env->StopServices();
  f.engine.Run();
}

TEST(SpongeServerTest, CrashedServerRejectsRemoteOps) {
  ServicesFixture f;
  f.env->CrashNode(1);
  Status status;
  auto run = [&]() -> sim::Task<> {
    auto handle = co_await f.env->server(1).RemoteAllocate(0,
                                                           ChunkOwner{5, 0});
    status = handle.status();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  f.env->RestartNode(1);
  // Stateless restart: empty pool, fully available again.
  EXPECT_EQ(f.env->server(1).free_bytes(), MiB(4));
}

TEST(FailureModelTest, ProbabilityFormula) {
  // With MTTF = 100 months and a 2-hour task on 1 machine the failure
  // probability is tiny (the paper's argument for why spreading spills is
  // safe).
  Duration mttf = Minutes(100.0 * 30 * 24 * 60);
  double p1 = TaskFailureProbability(1, Minutes(120), mttf);
  EXPECT_LT(p1, 1e-4);
  // Spreading over 30 machines stays small.
  double p30 = TaskFailureProbability(30, Minutes(120), mttf);
  EXPECT_LT(p30, 1e-2);
  EXPECT_GT(p30, p1);
  // Monotone in every argument.
  EXPECT_GT(TaskFailureProbability(30, Minutes(240), mttf), p30);
  EXPECT_EQ(TaskFailureProbability(0, Minutes(60), mttf), 0.0);
  // Sanity: N*t/MTTF = ln(2) gives exactly 0.5.
  double half = TaskFailureProbability(
      1, static_cast<Duration>(0.6931471805599453 * kSecond), Seconds(1));
  EXPECT_NEAR(half, 0.5, 1e-6);
}

TEST(FailureInjectorTest, ScheduledCrashAndRestart) {
  ServicesFixture f;
  FailureInjector injector(f.env.get(), 1);
  injector.ScheduleCrash(2, Seconds(5), /*downtime=*/Seconds(10));
  f.engine.RunUntil(Seconds(6));
  EXPECT_FALSE(f.env->server(2).alive());
  f.engine.RunUntil(Seconds(16));
  EXPECT_TRUE(f.env->server(2).alive());
}

TEST(FailureInjectorTest, PoissonCrashCountMatchesRate) {
  ServicesFixture f;
  FailureInjector injector(f.env.get(), 7);
  // MTTF = 1 hour, horizon = 10 hours, 4 nodes: expect ~40 crashes.
  size_t n = injector.SchedulePoissonCrashes(Minutes(60), Minutes(600),
                                             Seconds(1));
  EXPECT_GT(n, 20u);
  EXPECT_LT(n, 70u);
}

TEST(FailureInjectorTest, PoissonScheduleIsDeterministicPerSeed) {
  // All randomness is consumed at schedule time, so two injectors with the
  // same seed produce identical fault timelines — the property the chaos
  // test's determinism check rests on.
  ServicesFixture f;
  FailureInjector a(f.env.get(), 99);
  FailureInjector b(f.env.get(), 99);
  FailureInjector other(f.env.get(), 100);
  size_t na = a.SchedulePoissonCrashes(Minutes(60), Minutes(600), Seconds(1));
  size_t nb = b.SchedulePoissonCrashes(Minutes(60), Minutes(600), Seconds(1));
  size_t nc =
      other.SchedulePoissonCrashes(Minutes(60), Minutes(600), Seconds(1));
  EXPECT_EQ(na, nb);
  ASSERT_FALSE(a.schedule().empty());
  EXPECT_TRUE(a.schedule() == b.schedule());
  EXPECT_FALSE(nc == na && other.schedule() == a.schedule());
}

TEST(FailureInjectorTest, ChaosScheduleIsDeterministicPerSeed) {
  ServicesFixture f;
  FailureInjector a(f.env.get(), 5);
  FailureInjector b(f.env.get(), 5);
  ChaosOptions options;
  options.horizon = Seconds(60);
  options.num_faults = 16;
  EXPECT_EQ(a.ScheduleChaos(options), 16u);
  EXPECT_EQ(b.ScheduleChaos(options), 16u);
  EXPECT_TRUE(a.schedule() == b.schedule());
  // The schedule spans more than one fault kind.
  bool mixed = false;
  for (const FaultEvent& event : a.schedule()) {
    if (event.kind != a.schedule()[0].kind) mixed = true;
    EXPECT_GE(event.at, options.start);
    EXPECT_LE(event.at, options.horizon);
    EXPECT_LT(event.node, 4u);
  }
  EXPECT_TRUE(mixed);
  // The drawn schedule itself is pinned: FNV-1a over every event's kind,
  // node, time, span and severity bits. The order of the kinds the draw
  // picks from is part of it.
  uint64_t digest = 14695981039346656037ull;
  auto mix = [&digest](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (word >> (8 * i)) & 0xff;
      digest *= 1099511628211ull;
    }
  };
  for (const FaultEvent& event : a.schedule()) {
    uint64_t severity_bits = 0;
    std::memcpy(&severity_bits, &event.severity, sizeof(severity_bits));
    mix(static_cast<uint64_t>(event.kind));
    mix(event.node);
    mix(static_cast<uint64_t>(event.at));
    mix(static_cast<uint64_t>(event.duration));
    mix(severity_bits);
  }
  EXPECT_EQ(digest, 8898693526142505208ull);
}

TEST(FailureInjectorTest, CrashMidAsyncRemoteWriteFallsDownCascade) {
  // A file spills asynchronously; every remote peer crashes while those
  // writes are still in flight. The hardened client turns the lost
  // servers into bounced candidates, the cascade falls through to disk,
  // and Close() still commits every byte.
  sim::Engine engine;
  cluster::ClusterConfig cc;
  cc.num_nodes = 4;
  cc.node.sponge_memory = MiB(4);
  // A slow NIC keeps the remote writes on the wire (a ~1 s transfer per
  // chunk) while the local-socket appends finish in milliseconds, so the
  // crashes below are guaranteed to land before any remote commit.
  cc.network.bandwidth = 1.0 * 1024 * 1024;
  cluster::Cluster cluster(&engine, cc);
  cluster::Dfs dfs(&cluster);
  SpongeConfig config;
  config.async_write = true;
  SpongeEnv env(&cluster, &dfs, config);
  engine.Spawn(env.tracker().PollOnce());
  engine.Run();

  TaskContext task = env.StartTask(0);
  SpongeFile file(&env, &task, "survivor");
  Rng rng(3);
  Checksum written;
  Checksum read_back;
  uint64_t read_bytes = 0;
  Status status;
  auto run = [&]() -> sim::Task<> {
    ByteRuns data;
    for (int i = 0; i < 7; ++i) {
      std::string block(MiB(1), '\0');
      for (auto& c : block) c = static_cast<char>(rng.Uniform(256));
      written.Update(Slice(block));
      data.AppendLiteral(Slice(block));
    }
    status = co_await file.Append(std::move(data));
    if (!status.ok()) co_return;
    // No simulated time passes between Append returning and the crashes:
    // every in-flight remote write is now doomed.
    env.CrashNode(1);
    env.CrashNode(2);
    env.CrashNode(3);
    status = co_await file.Close();
    if (!status.ok()) co_return;
    while (true) {
      auto chunk = co_await file.ReadNext();
      if (!chunk.ok()) {
        status = chunk.status();
        co_return;
      }
      if (chunk->empty()) break;
      auto bytes = chunk->ToBytes();
      read_back.Update(Slice(bytes));
      read_bytes += bytes.size();
    }
    co_await file.Delete();
  };
  engine.Spawn(run());
  engine.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(read_bytes, MiB(7));
  EXPECT_EQ(read_back.digest(), written.digest());
  EXPECT_TRUE(env.server(0).pool().AllocatedChunks().empty());
}

TEST(RpcHardeningTest, HungServerTripsBreakerThenRecovers) {
  // A hung server answers nothing: each attempt times out, the breaker
  // trips after the configured streak, and once the hang clears a
  // half-open probe readmits the server.
  ServicesFixture f;
  FailureInjector injector(f.env.get(), 1);
  injector.ScheduleHang(/*node=*/1, /*at=*/Millis(1),
                        /*duration=*/Seconds(30));
  ChunkOwner owner{91, 0};
  auto run = [&]() -> sim::Task<> {
    co_await f.engine.Delay(Millis(10));  // the hang is now active
    auto first = co_await HardenedCall<Result<ChunkHandle>>(
        &f.engine, &f.env->health(), &f.env->rpc_rng(), 1,
        [&]() { return f.env->server(1).RemoteAllocate(0, owner); });
    EXPECT_FALSE(first.ok());
    EXPECT_TRUE(IsRpcTimeout(first.status())) << first.status().ToString();
    EXPECT_TRUE(f.env->health().IsOpen(1));
    EXPECT_EQ(f.env->health().trips(), 1u);
    // Mid-cooldown the breaker sheds requests without touching the wire.
    EXPECT_FALSE(f.env->health().AllowRequest(1));
    co_await f.engine.Delay(Seconds(40));  // hang cleared, cooldown over
    EXPECT_TRUE(f.env->health().AllowRequest(1));  // the half-open probe
    auto probe = co_await HardenedCall<Result<ChunkHandle>>(
        &f.engine, &f.env->health(), &f.env->rpc_rng(), 1,
        [&]() { return f.env->server(1).RemoteAllocate(0, owner); });
    EXPECT_TRUE(probe.ok()) << probe.status().ToString();
    EXPECT_FALSE(f.env->health().IsOpen(1));
    EXPECT_EQ(f.env->health().recoveries(), 1u);
  };
  f.engine.Spawn(run());
  f.engine.Run();
}

// An operation that answers `after` from its start, marking its own
// completion and the destruction of its frame.
sim::Task<Status> AnswerAfter(sim::Engine* engine, Duration after,
                              bool* finished) {
  co_await engine->Delay(after);
  *finished = true;
  co_return Status::OK();
}

struct FrameProbe {
  bool* destroyed;
  ~FrameProbe() { *destroyed = true; }
};

// A hung server: the operation parks with no wake-up pending, ever.
sim::Task<Status> HangForever(sim::Engine* engine, bool* destroyed) {
  FrameProbe probe{destroyed};
  sim::Event never(engine);
  co_await never.Wait();
  co_return Status::OK();
}

TEST(CallWithDeadlineTest, AnswerInTheDeadlineInstantWins) {
  // The runner starts after the caller has armed its deadline, so the
  // answer's wake-up at exactly start + deadline pops after the timer.
  // The timer queues the caller on the same-instant ring, the answer lands
  // before the caller runs, and the answer wins.
  sim::Engine engine;
  bool finished = false;
  bool timed_out = true;
  Status got = Unavailable("unset");
  SimTime returned_at = -1;
  auto caller = [&]() -> sim::Task<> {
    sim::Task<Status> op = AnswerAfter(&engine, kRpcDeadline, &finished);
    got = co_await CallWithDeadline<Status>(&engine, kRpcDeadline,
                                            std::move(op), &timed_out);
    returned_at = engine.now();
  };
  engine.Spawn(caller());
  engine.Run();
  EXPECT_TRUE(got.ok()) << got.ToString();
  EXPECT_FALSE(timed_out);
  EXPECT_TRUE(finished);
  EXPECT_EQ(returned_at, kRpcDeadline);
  EXPECT_EQ(engine.detached_live(), 0u);
}

TEST(CallWithDeadlineTest, LateAnswerAfterTimeoutIsDropped) {
  // The caller gives up at the deadline and its frame is gone before the
  // runner gets its answer; the runner must drop the answer without
  // touching the caller's memory (ASan would report a use after free).
  sim::Engine engine;
  bool finished = false;
  bool timed_out = false;
  Status got;
  SimTime returned_at = -1;
  auto caller = [&]() -> sim::Task<> {
    sim::Task<Status> op =
        AnswerAfter(&engine, kRpcDeadline + Millis(1), &finished);
    got = co_await CallWithDeadline<Status>(&engine, kRpcDeadline,
                                            std::move(op), &timed_out);
    returned_at = engine.now();
  };
  engine.Spawn(caller());
  engine.RunUntil(kRpcDeadline);
  EXPECT_TRUE(timed_out);
  EXPECT_TRUE(IsRpcTimeout(got)) << got.ToString();
  EXPECT_EQ(returned_at, kRpcDeadline);
  EXPECT_FALSE(finished);
  EXPECT_EQ(engine.detached_live(), 1u);  // only the runner is left
  engine.Run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(engine.now(), kRpcDeadline + Millis(1));
  EXPECT_EQ(engine.detached_live(), 0u);
}

TEST(CallWithDeadlineTest, RunnerParkedOnHungServerIsReclaimedAtTeardown) {
  sim::Engine engine;
  bool destroyed = false;
  bool timed_out = false;
  auto caller = [&]() -> sim::Task<> {
    sim::Task<Status> op = HangForever(&engine, &destroyed);
    Status got = co_await CallWithDeadline<Status>(&engine, kRpcDeadline,
                                                   std::move(op), &timed_out);
    EXPECT_TRUE(IsRpcTimeout(got)) << got.ToString();
  };
  engine.Spawn(caller());
  engine.Run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(engine.now(), kRpcDeadline);
  // The caller has returned; the runner stays parked on the hung server
  // until the teardown pass destroys it (LSan checks nothing leaks).
  EXPECT_EQ(engine.detached_live(), 1u);
  EXPECT_FALSE(destroyed);
  EXPECT_EQ(engine.DrainDetached(), 1u);
  EXPECT_TRUE(destroyed);
}

TEST(BitRotTest, CorruptedChunkReadsAsUnavailable) {
  // Bit rot flips one stored byte; the read-side checksum catches it and
  // reports the chunk lost instead of returning silently wrong data.
  ServicesFixture f;
  f.engine.Spawn(f.env->tracker().PollOnce());
  f.engine.Run();
  TaskContext task = f.env->StartTask(0);
  SpongeFile file(f.env.get(), &task, "rotted");
  FailureInjector injector(f.env.get(), 8);
  Status status;
  Status read_status;
  auto run = [&]() -> sim::Task<> {
    ByteRuns data;
    data.AppendZeros(MiB(2));
    status = co_await file.Append(std::move(data));
    if (!status.ok()) co_return;
    status = co_await file.Close();
    if (!status.ok()) co_return;
    injector.ScheduleBitRot(/*node=*/0, f.engine.now() + Millis(1));
    co_await f.engine.Delay(Millis(2));
    while (true) {
      auto chunk = co_await file.ReadNext();
      if (!chunk.ok()) {
        read_status = chunk.status();
        co_return;
      }
      if (chunk->empty()) break;
    }
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(read_status.code(), StatusCode::kUnavailable);
  EXPECT_NE(read_status.message().find("checksum"), std::string::npos)
      << read_status.ToString();
}

}  // namespace
}  // namespace spongefiles::sponge

// Chunk replication & crash recovery (the robustness tentpole's unit
// tier): replica placement is rack-diverse and directory-tracked, reads
// fail over to the replica when the primary is lost (crash, corruption),
// a losing attempt's replicas are reclaimed by the ordinary dead-task GC,
// and the tracker-driven repair loop restores the two-copy invariant after
// a replica holder dies — including the race where the owning task commits
// (and deregisters) while repair is in flight.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "common/checksum.h"
#include "common/random.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "sponge/failure.h"
#include "sponge/repair.h"
#include "sponge/sponge_env.h"
#include "sponge/sponge_file.h"

namespace spongefiles::sponge {
namespace {

// An 8-node, 2-rack cluster with small pools and replication on. No
// background services run unless a test starts them, so sweeps and repair
// happen exactly when the test says.
struct ReplicationFixture {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cluster::Dfs> dfs;
  std::unique_ptr<SpongeEnv> env;
  TaskContext task;

  explicit ReplicationFixture(SpongeConfig config = DefaultConfig()) {
    cluster::ClusterConfig cc;
    cc.num_nodes = 8;
    cc.nodes_per_rack = 4;
    cc.node.sponge_memory = MiB(4);
    cluster_ = std::make_unique<cluster::Cluster>(&engine, cc);
    dfs = std::make_unique<cluster::Dfs>(cluster_.get());
    env = std::make_unique<SpongeEnv>(cluster_.get(), dfs.get(), config);
    task = env->StartTask(0);
    // Prime the tracker (one poll + one gossip exchange) so queries see
    // both racks.
    engine.Spawn(env->tracker().PollOnce());
    engine.Run();
  }

  static SpongeConfig DefaultConfig() {
    SpongeConfig config;
    config.replication.enabled = true;
    return config;
  }

  // Hooks death detection up to the repair service the way StartServices
  // does, without starting the poll/GC loops.
  void WireRepair() {
    RepairService* repair = &env->repair();
    env->tracker().SetDeathListener(
        [repair](size_t node) { repair->NotifyServerDeath(node); });
  }

  // One tracker poll round (death detection fires here), then drain.
  void PollTracker() {
    engine.Spawn(env->tracker().PollOnce());
    engine.Run();
  }

  // GC-sweeps every server and returns the surviving allocated-chunk count.
  uint64_t SweepAll() {
    uint64_t remaining = 0;
    auto sweep = [](SpongeEnv* e, uint64_t* out) -> sim::Task<> {
      *out = co_await e->SweepAll();
    };
    engine.Spawn(sweep(env.get(), &remaining));
    engine.Run();
    return remaining;
  }
};

std::string RandomData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (auto& c : out) c = static_cast<char>(rng.Uniform(256));
  return out;
}

Status WriteAndClose(sim::Engine* engine, SpongeFile* file,
                     const std::string& data) {
  Status status;
  auto run = [](SpongeFile* f, const std::string* d,
                Status* out) -> sim::Task<> {
    *out = co_await f->AppendBytes(Slice(*d));
    if (out->ok()) *out = co_await f->Close();
  };
  engine->Spawn(run(file, &data, &status));
  engine->Run();
  return status;
}

// Reads the whole file back; returns OK and fills `checksum` on success.
Status ReadBack(sim::Engine* engine, SpongeFile* file, uint64_t* checksum,
                uint64_t* bytes) {
  Status status;
  auto run = [](SpongeFile* f, Status* out, uint64_t* sum_out,
                uint64_t* bytes_out) -> sim::Task<> {
    Checksum sum;
    while (true) {
      auto chunk = co_await f->ReadNext();
      if (!chunk.ok()) {
        *out = chunk.status();
        co_return;
      }
      if (chunk->empty()) break;
      auto raw = chunk->ToBytes();
      sum.Update(Slice(raw));
      *bytes_out += raw.size();
    }
    *sum_out = sum.digest();
    *out = Status::OK();
  };
  engine->Spawn(run(file, &status, checksum, bytes));
  engine->Run();
  return status;
}

// Corrupts one byte of every pool chunk on `node` owned by `task_id` with
// the given replica mark. Returns how many chunks were hit.
size_t CorruptOwnedChunks(SpongeEnv* env, size_t node, uint64_t task_id,
                          bool replica) {
  size_t hit = 0;
  for (auto& [handle, owner] : env->server(node).pool().AllocatedChunks()) {
    if (owner.task_id != task_id || owner.replica != replica) continue;
    ByteRuns* data = env->server(node).pool().chunk_data(handle);
    if (data != nullptr && data->size() > 0) {
      data->CorruptByte(0);
      ++hit;
    }
  }
  return hit;
}

TEST(SpongeReplicationTest, ReplicasAreRackDiverseAndTracked) {
  ReplicationFixture f;
  SpongeFile file(f.env.get(), &f.task, "diverse");
  ASSERT_TRUE(WriteAndClose(&f.engine, &file, RandomData(MiB(2), 7)).ok());

  EXPECT_EQ(file.stats().chunks_replicated, 2u);
  EXPECT_EQ(file.stats().bytes_replicated, MiB(2));
  ASSERT_EQ(f.env->replicas().size(), 2u);
  for (const auto& [id, entry] : f.env->replicas().chunks()) {
    ASSERT_EQ(entry.locations.size(), 2u);
    const ReplicaLocation& primary = entry.locations[0];
    const ReplicaLocation& replica = entry.locations[1];
    EXPECT_FALSE(primary.owner.replica);
    EXPECT_TRUE(replica.owner.replica);
    EXPECT_EQ(replica.owner.task_id, f.task.task_id);
    // Both racks have free pools, so the rack-diverse pass must win.
    EXPECT_NE(f.cluster_->rack_of(primary.node),
              f.cluster_->rack_of(replica.node));
  }

  auto cleanup = [](SpongeFile* sf) -> sim::Task<> { co_await sf->Delete(); };
  f.engine.Spawn(cleanup(&file));
  f.engine.Run();
  // Delete released both copies and forgot the directory entries.
  EXPECT_EQ(f.env->replicas().size(), 0u);
  EXPECT_EQ(f.SweepAll(), 0u);
}

TEST(SpongeReplicationTest, FailoverServesReplicaAfterPrimaryCrash) {
  ReplicationFixture f;
  SpongeFile file(f.env.get(), &f.task, "failover");
  std::string data = RandomData(3 * MiB(1) + 12345, 21);
  ASSERT_TRUE(WriteAndClose(&f.engine, &file, data).ok());
  ASSERT_EQ(file.stats().chunks_replicated, 4u);

  obs::Counter* won = obs::Registry::Default().counter(
      "sponge.read.failover.won");
  uint64_t won_before = won->value();

  // Fail-stop crash of the node holding every primary (the task's own
  // pool): local reads find the slots gone and must fail over.
  f.env->CrashNode(0);
  uint64_t checksum = 0;
  uint64_t bytes = 0;
  Status read = ReadBack(&f.engine, &file, &checksum, &bytes);
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_EQ(bytes, data.size());
  EXPECT_EQ(checksum, Checksum::Of(Slice(data)));
  EXPECT_EQ(file.stats().replica_failovers, 4u);
  EXPECT_EQ(won->value() - won_before, 4u);
}

TEST(SpongeReplicationTest, CorruptedPrimaryFailsOverAndReplicaIsVerified) {
  ReplicationFixture f;
  SpongeFile file(f.env.get(), &f.task, "bitrot");
  std::string data = RandomData(MiB(1), 33);
  ASSERT_TRUE(WriteAndClose(&f.engine, &file, data).ok());
  ASSERT_EQ(file.stats().chunks_replicated, 1u);

  // Corrupt the primary copy only: the read detects the mismatch, fails
  // over, and the replica (verified against the same checksum) serves it.
  ASSERT_EQ(CorruptOwnedChunks(f.env.get(), 0, f.task.task_id,
                               /*replica=*/false),
            1u);
  uint64_t checksum = 0;
  uint64_t bytes = 0;
  Status read = ReadBack(&f.engine, &file, &checksum, &bytes);
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_EQ(checksum, Checksum::Of(Slice(data)));
  EXPECT_EQ(file.stats().replica_failovers, 1u);
}

TEST(SpongeReplicationTest, CorruptingEveryCopyExhaustsFailover) {
  ReplicationFixture f;
  SpongeFile file(f.env.get(), &f.task, "allbad");
  ASSERT_TRUE(WriteAndClose(&f.engine, &file, RandomData(MiB(1), 34)).ok());
  ASSERT_EQ(f.env->replicas().size(), 1u);

  // Corrupt the primary and the replica: failover must not "rescue" the
  // read with bad bytes — the chunk is reported lost.
  ASSERT_EQ(CorruptOwnedChunks(f.env.get(), 0, f.task.task_id,
                               /*replica=*/false),
            1u);
  size_t replicas_hit = 0;
  for (size_t n = 1; n < f.cluster_->size(); ++n) {
    replicas_hit += CorruptOwnedChunks(f.env.get(), n, f.task.task_id,
                                       /*replica=*/true);
  }
  ASSERT_EQ(replicas_hit, 1u);

  obs::Counter* exhausted = obs::Registry::Default().counter(
      "sponge.read.failover.exhausted");
  uint64_t exhausted_before = exhausted->value();
  uint64_t checksum = 0;
  uint64_t bytes = 0;
  Status read = ReadBack(&f.engine, &file, &checksum, &bytes);
  EXPECT_EQ(read.code(), StatusCode::kUnavailable);
  EXPECT_EQ(exhausted->value() - exhausted_before, 1u);
}

TEST(SpongeReplicationTest, LosingAttemptReplicasReclaimedByGc) {
  ReplicationFixture f;
  // A second attempt that spills (with replicas), then loses the race:
  // it deregisters without Delete. GC must reclaim primaries AND replicas
  // (they share the attempt's task id).
  TaskContext loser = f.env->StartTask(1);
  auto file = std::make_unique<SpongeFile>(f.env.get(), &loser, "loser");
  ASSERT_TRUE(WriteAndClose(&f.engine, file.get(), RandomData(MiB(2), 5))
                  .ok());
  ASSERT_EQ(f.env->replicas().size(), 2u);
  f.env->EndTask(loser);

  EXPECT_EQ(f.SweepAll(), 0u);
}

TEST(SpongeReplicationTest, RepairRestoresTwoCopiesAfterHolderDeath) {
  ReplicationFixture f;
  f.WireRepair();
  SpongeFile file(f.env.get(), &f.task, "repair");
  std::string data = RandomData(MiB(1), 55);
  ASSERT_TRUE(WriteAndClose(&f.engine, &file, data).ok());
  ASSERT_EQ(f.env->replicas().size(), 1u);
  const ReplicatedChunk& entry = f.env->replicas().chunks().begin()->second;
  uint64_t chunk_id = entry.chunk_id;
  size_t holder = entry.locations[1].node;

  // Fail-stop crash of the replica holder. The next tracker poll detects
  // it, drops the dead location, and re-replicates from the survivor.
  f.env->CrashNode(holder);
  f.PollTracker();

  const ReplicatedChunk* repaired = f.env->replicas().Find(chunk_id);
  ASSERT_NE(repaired, nullptr);
  ASSERT_EQ(repaired->locations.size(), 2u);
  EXPECT_NE(repaired->locations[1].node, holder);
  EXPECT_TRUE(repaired->locations[1].owner.replica);
  EXPECT_EQ(f.env->repair().repairs_completed(), 1u);
  EXPECT_EQ(f.env->repair().repair_bytes(), MiB(1));
  EXPECT_GT(f.env->repair().active_time(), 0);

  // The repaired copy is real: crash the primary too and read through it.
  f.env->CrashNode(0);
  uint64_t checksum = 0;
  uint64_t bytes = 0;
  Status read = ReadBack(&f.engine, &file, &checksum, &bytes);
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_EQ(checksum, Checksum::Of(Slice(data)));
  EXPECT_EQ(file.stats().replica_failovers, 1u);
}

TEST(SpongeReplicationTest, RepairRacingGcOnCommittingTask) {
  ReplicationFixture f;
  f.WireRepair();
  TaskContext committer = f.env->StartTask(2);
  auto file = std::make_unique<SpongeFile>(f.env.get(), &committer, "race");
  ASSERT_TRUE(WriteAndClose(&f.engine, file.get(), RandomData(MiB(1), 66))
                  .ok());
  ASSERT_EQ(f.env->replicas().size(), 1u);
  size_t holder = f.env->replicas().chunks().begin()->second.locations[1].node;

  // The holder dies AND the owning task commits (deregisters without
  // Delete — the GC owns its chunks now) before repair runs. Repair must
  // notice the dead owner, drop the entry instead of copying for a ghost,
  // and leave nothing for the sweep to find.
  f.env->CrashNode(holder);
  f.env->EndTask(committer);
  f.PollTracker();

  EXPECT_GE(f.env->repair().entries_dropped(), 1u);
  EXPECT_EQ(f.env->repair().repairs_completed(), 0u);
  EXPECT_EQ(f.env->replicas().size(), 0u);
  EXPECT_EQ(f.SweepAll(), 0u);
}

TEST(SpongeReplicationTest, ReplicationSkippedUnderPressure) {
  SpongeConfig config = ReplicationFixture::DefaultConfig();
  // An impossible pressure gate: no candidate ever qualifies, so every
  // chunk stays single-copy (best-effort, never an error).
  config.replication.min_free_fraction = 2.0;
  ReplicationFixture f(config);
  SpongeFile file(f.env.get(), &f.task, "pressure");
  obs::Counter* skipped = obs::Registry::Default().counter(
      "sponge.replica.skipped");
  uint64_t skipped_before = skipped->value();
  ASSERT_TRUE(WriteAndClose(&f.engine, &file, RandomData(MiB(2), 9)).ok());
  EXPECT_EQ(file.stats().chunks_replicated, 0u);
  EXPECT_EQ(f.env->replicas().size(), 0u);
  EXPECT_EQ(skipped->value() - skipped_before, 2u);
}

TEST(FaultKindTest, NamesRoundTripAndAreUnique) {
  std::set<std::string> names;
  for (FaultKind kind : kAllFaultKinds) {
    std::string name = FaultKindName(kind);
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    Result<FaultKind> back = FaultKindFromName(name);
    ASSERT_TRUE(back.ok()) << name;
    EXPECT_EQ(*back, kind);
  }
  // Every enumerator is in kAllFaultKinds (the switch in FaultKindName has
  // no default, so a new kind breaks the build; this breaks the array).
  EXPECT_EQ(names.size(), std::size(kAllFaultKinds));
  EXPECT_FALSE(FaultKindFromName("not-a-fault").ok());
}

}  // namespace
}  // namespace spongefiles::sponge

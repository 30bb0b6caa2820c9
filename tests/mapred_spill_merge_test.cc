#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dfs.h"
#include "common/units.h"
#include "mapred/merger.h"
#include "mapred/spill.h"
#include "sim/engine.h"
#include "sponge/sponge_env.h"

namespace spongefiles::mapred {
namespace {

struct MrFixture {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cluster::Dfs> dfs;
  std::unique_ptr<sponge::SpongeEnv> env;
  sponge::TaskContext task;

  MrFixture() {
    cluster::ClusterConfig cc;
    cc.num_nodes = 4;
    cc.node.sponge_memory = MiB(8);
    cluster_ = std::make_unique<cluster::Cluster>(&engine, cc);
    dfs = std::make_unique<cluster::Dfs>(cluster_.get());
    env = std::make_unique<sponge::SpongeEnv>(cluster_.get(), dfs.get(),
                                              sponge::SpongeConfig{});
    task = env->StartTask(0);
    auto prime = [](sponge::MemoryTracker* t) -> sim::Task<> {
      co_await t->PollOnce();
    };
    engine.Spawn(prime(&env->tracker()));
    engine.Run();
  }
};

Record MakeRecord(const std::string& key, double number, uint64_t size) {
  Record r;
  r.key = key;
  r.number = number;
  r.size = size;
  return r;
}

// Collects all records from a source.
sim::Task<> Drain(RecordSource* source, std::vector<Record>* out,
                  Status* status) {
  Record record;
  while (true) {
    auto has = co_await source->Next(&record);
    if (!has.ok()) {
      *status = has.status();
      co_return;
    }
    if (!*has) break;
    out->push_back(record);
  }
  *status = Status::OK();
}

TEST(SpillFileTest, DiskSpillRoundTrip) {
  MrFixture f;
  DiskSpiller spiller(&f.engine, &f.cluster_->node(0).fs(), "t");
  std::vector<Record> got;
  Status status;
  auto run = [&]() -> sim::Task<> {
    auto file = spiller.Create("run0");
    ByteRuns wire;
    for (int i = 0; i < 100; ++i) {
      SerializeRecord(MakeRecord("k" + std::to_string(i), i, 5000), &wire);
    }
    (void)co_await (*file)->Append(std::move(wire));
    (void)co_await (*file)->Close();
    SpillFileSource source(std::move(*file));
    co_await Drain(&source, &got, &status);
    co_await source.Done();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(got.size(), 100u);
  EXPECT_EQ(got[7].key, "k7");
  EXPECT_EQ(spiller.stats().bytes_spilled, 100u * 5000);
  // Deleted on Done: no space leaked.
  EXPECT_EQ(f.cluster_->node(0).fs().used(), 0u);
}

TEST(SpillFileTest, SpongeSpillRoundTripAndStats) {
  MrFixture f;
  SpongeSpiller spiller(f.env.get(), &f.task, "t");
  std::vector<Record> got;
  Status status;
  auto run = [&]() -> sim::Task<> {
    auto file = spiller.Create("run0");
    ByteRuns wire;
    for (int i = 0; i < 1000; ++i) {
      SerializeRecord(MakeRecord("k", i, 5000), &wire);
    }
    (void)co_await (*file)->Append(std::move(wire));
    (void)co_await (*file)->Close();
    SpillFileSource source(std::move(*file));
    co_await Drain(&source, &got, &status);
    co_await source.Done();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(got.size(), 1000u);
  EXPECT_EQ(spiller.stats().bytes_spilled, 1000u * 5000);
  // ~5 MB through 1 MB chunks.
  EXPECT_EQ(spiller.stats().sponge_chunks, 5u);
  EXPECT_GT(spiller.stats().sponge_chunks_local, 0u);
  // Everything freed after Done().
  EXPECT_EQ(f.env->server(0).free_bytes(), MiB(8));
}

TEST(SpillFileTest, MemorySpillRewindable) {
  MrFixture f;
  Status status;
  std::vector<Record> first;
  std::vector<Record> second;
  auto run = [&]() -> sim::Task<> {
    MemorySpillFile file(&f.engine);
    ByteRuns wire;
    for (int i = 0; i < 10; ++i) {
      SerializeRecord(MakeRecord("k" + std::to_string(i), i, 200), &wire);
    }
    (void)co_await file.Append(std::move(wire));
    (void)co_await file.Close();
    while (true) {
      auto chunk = co_await file.ReadNext();
      if (chunk->empty()) break;
      RecordParser p;
      p.Feed(*chunk);
      Record r;
      while (p.Next(&r)) first.push_back(r);
    }
    EXPECT_TRUE(file.Rewind().ok());
    while (true) {
      auto chunk = co_await file.ReadNext();
      if (chunk->empty()) break;
      RecordParser p;
      p.Feed(*chunk);
      Record r;
      while (p.Next(&r)) second.push_back(r);
    }
    status = Status::OK();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(first.size(), 10u);
  EXPECT_EQ(first.size(), second.size());
}

// Readers hold their own cursor: two interleaved readers of one disk spill
// file and a rewound memory spill file all return the same 1 MiB chunks,
// including chunks that cut literal and zero runs mid-way.
TEST(SpillFileTest, ReadersAndRewindReturnIdenticalChunks) {
  MrFixture f;
  DiskSpiller spiller(&f.engine, &f.cluster_->node(0).fs(), "t");
  struct Chunk {
    uint64_t size;
    uint64_t checksum;
    bool operator==(const Chunk&) const = default;
  };
  std::vector<Chunk> reader_a, reader_b, memory_first, memory_second;
  Status status;
  auto run = [&]() -> sim::Task<> {
    auto disk = spiller.Create("run0");
    MemorySpillFile memory(&f.engine);
    for (int i = 0; i < 7; ++i) {
      ByteRuns piece;
      std::string literal(3000 + 977 * i, static_cast<char>('a' + i));
      piece.AppendLiteral(Slice(literal));
      piece.AppendZeros(kMiB / 2 + 4099 * i);
      (void)co_await (*disk)->Append(piece);
      (void)co_await memory.Append(std::move(piece));
    }
    (void)co_await (*disk)->Close();
    (void)co_await memory.Close();

    auto read_all = [](auto* source, std::vector<Chunk>* out) -> sim::Task<> {
      while (true) {
        auto chunk = co_await source->ReadNext();
        if (!chunk.ok() || chunk->empty()) break;
        out->push_back({chunk->size(), chunk->Checksum64()});
      }
    };
    auto a = (*disk)->OpenReader();
    auto b = (*disk)->OpenReader();
    // Interleave the two readers chunk by chunk.
    while (true) {
      auto from_a = co_await (*a)->ReadNext();
      auto from_b = co_await (*b)->ReadNext();
      if (!from_a.ok() || !from_b.ok()) {
        status = !from_a.ok() ? from_a.status() : from_b.status();
        co_return;
      }
      if (from_a->empty() && from_b->empty()) break;
      reader_a.push_back({from_a->size(), from_a->Checksum64()});
      reader_b.push_back({from_b->size(), from_b->Checksum64()});
    }
    co_await read_all(&memory, &memory_first);
    EXPECT_TRUE(memory.Rewind().ok());
    co_await read_all(&memory, &memory_second);
    co_await (*disk)->Delete();
    status = Status::OK();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(reader_a.size(), 4u);  // ~3.7 MiB in 1 MiB reads
  EXPECT_EQ(reader_a, reader_b);
  EXPECT_EQ(memory_first, reader_a);
  EXPECT_EQ(memory_second, reader_a);
}

TEST(MergeTest, TwoSortedRunsMergeInOrder) {
  MrFixture f;
  Status status;
  std::vector<Record> got;
  auto run = [&]() -> sim::Task<> {
    std::vector<std::unique_ptr<RecordSource>> inputs;
    inputs.push_back(std::make_unique<VectorSource>(std::vector<Record>{
        MakeRecord("a", 1, 50), MakeRecord("c", 3, 50),
        MakeRecord("e", 5, 50)}));
    inputs.push_back(std::make_unique<VectorSource>(std::vector<Record>{
        MakeRecord("b", 2, 50), MakeRecord("d", 4, 50)}));
    MergeStream merge(std::move(inputs));
    co_await Drain(&merge, &got, &status);
    co_await merge.Done();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok());
  ASSERT_EQ(got.size(), 5u);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(got[i - 1].key, got[i].key);
  }
  EXPECT_EQ(got[0].key, "a");
  EXPECT_EQ(got[4].key, "e");
}

TEST(MergeTest, ManyRunsWithDuplicateKeys) {
  MrFixture f;
  Status status;
  std::vector<Record> got;
  auto run = [&]() -> sim::Task<> {
    std::vector<std::unique_ptr<RecordSource>> inputs;
    for (int s = 0; s < 8; ++s) {
      std::vector<Record> records;
      for (int k = 0; k < 20; ++k) {
        records.push_back(
            MakeRecord("key" + std::to_string(k / 2 * 2), s * 100 + k, 80));
      }
      std::sort(records.begin(), records.end(),
                [](const Record& a, const Record& b) { return a.key < b.key; });
      inputs.push_back(std::make_unique<VectorSource>(std::move(records)));
    }
    MergeStream merge(std::move(inputs));
    co_await Drain(&merge, &got, &status);
    co_await merge.Done();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok());
  ASSERT_EQ(got.size(), 160u);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(got[i - 1].key, got[i].key);
  }
}

TEST(MergeTest, EmptyInputsHandled) {
  MrFixture f;
  Status status;
  std::vector<Record> got;
  auto run = [&]() -> sim::Task<> {
    std::vector<std::unique_ptr<RecordSource>> inputs;
    inputs.push_back(std::make_unique<VectorSource>(std::vector<Record>{}));
    inputs.push_back(std::make_unique<VectorSource>(
        std::vector<Record>{MakeRecord("z", 1, 50)}));
    MergeStream merge(std::move(inputs));
    co_await Drain(&merge, &got, &status);
    co_await merge.Done();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(got.size(), 1u);
}

TEST(MergeTest, WriteSortedRunSpillsAndReadsBack) {
  MrFixture f;
  DiskSpiller spiller(&f.engine, &f.cluster_->node(0).fs(), "wsr");
  Status status;
  std::vector<Record> got;
  auto run = [&]() -> sim::Task<> {
    std::vector<Record> records;
    for (int i = 0; i < 500; ++i) {
      records.push_back(MakeRecord("k" + std::to_string(i), i, 3000));
    }
    std::sort(records.begin(), records.end(),
              [](const Record& a, const Record& b) { return a.key < b.key; });
    std::vector<Record> expected = records;
    VectorSource source(std::move(records));
    auto file = co_await WriteSortedRun(&spiller, "run", &source);
    if (!file.ok()) {
      status = file.status();
      co_return;
    }
    EXPECT_EQ((*file)->size(), 500u * 3000);
    SpillFileSource reader(std::move(*file));
    co_await Drain(&reader, &got, &status);
    co_await reader.Done();
    EXPECT_EQ(got.size(), expected.size());
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
}

}  // namespace
}  // namespace spongefiles::mapred

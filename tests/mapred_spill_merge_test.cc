#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
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
    engine.Spawn(env->tracker().PollOnce());
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

// Readers hold their own cursor: two interleaved readers of one disk spill
// file and a memory spill file all return the same 1 MiB chunks,
// including chunks that cut literal and zero runs mid-way.
TEST(SpillFileTest, ReadersReturnIdenticalChunks) {
  MrFixture f;
  DiskSpiller spiller(&f.engine, &f.cluster_->node(0).fs(), "t");
  struct Chunk {
    uint64_t size;
    uint64_t checksum;
    bool operator==(const Chunk&) const = default;
  };
  std::vector<Chunk> reader_a, reader_b, memory_chunks;
  Status status;
  auto run = [&]() -> sim::Task<> {
    auto disk = spiller.CreateDiskFile("run0");
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
      auto from_a = co_await a.ReadNext();
      auto from_b = co_await b.ReadNext();
      if (!from_a.ok() || !from_b.ok()) {
        status = !from_a.ok() ? from_a.status() : from_b.status();
        co_return;
      }
      if (from_a->empty() && from_b->empty()) break;
      reader_a.push_back({from_a->size(), from_a->Checksum64()});
      reader_b.push_back({from_b->size(), from_b->Checksum64()});
    }
    co_await read_all(&memory, &memory_chunks);
    co_await (*disk)->Delete();
    status = Status::OK();
  };
  f.engine.Spawn(run());
  f.engine.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(reader_a.size(), 4u);  // ~3.7 MiB in 1 MiB reads
  EXPECT_EQ(reader_a, reader_b);
  EXPECT_EQ(memory_chunks, reader_a);
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

// (input index, simulated time) of every ReadNext, in call order.
using ReadLog = std::vector<std::pair<size_t, SimTime>>;

// A spill file that logs its reads.
class LoggedFile : public SpillFile {
 public:
  LoggedFile(sim::Engine* engine, size_t input,
             std::unique_ptr<SpillFile> inner, ReadLog* log)
      : engine_(engine), input_(input), inner_(std::move(inner)), log_(log) {}

  sim::Task<Status> Append(ByteRuns data) override {
    co_return co_await inner_->Append(std::move(data));
  }
  sim::Task<Status> Close() override { co_return co_await inner_->Close(); }
  sim::Task<Result<ByteRuns>> ReadNext() override {
    log_->push_back({input_, engine_->now()});
    co_return co_await inner_->ReadNext();
  }
  sim::Task<> Delete() override { co_await inner_->Delete(); }
  uint64_t size() const override { return inner_->size(); }

 private:
  sim::Engine* engine_;
  size_t input_;
  std::unique_ptr<SpillFile> inner_;
  ReadLog* log_;
};

// Three sorted inputs with interleaved keys, read back in 37-byte chunks at
// 1 MiB/s: every 100-byte record spans two or more reads, each taking
// simulated time.
sim::Task<std::vector<std::unique_ptr<RecordSource>>> SplitInputs(
    sim::Engine* engine, ReadLog* log) {
  std::vector<std::unique_ptr<RecordSource>> inputs;
  for (size_t s = 0; s < 3; ++s) {
    auto file = std::make_unique<LoggedFile>(
        engine, s,
        std::make_unique<MemorySpillFile>(engine, /*read_unit=*/37,
                                          /*memory_bandwidth=*/1 << 20),
        log);
    ByteRuns wire;
    for (int i = 0; i < 20; ++i) {
      int k = 3 * i + static_cast<int>(s);
      SerializeRecord(MakeRecord("k" + std::to_string(100 + k), k, 100),
                      &wire);
    }
    (void)co_await file->Append(std::move(wire));
    (void)co_await file->Close();
    inputs.push_back(std::make_unique<SpillFileSource>(std::move(file)));
  }
  co_return inputs;
}

// The coroutine-per-record merge MergeStream replaced: pop the least head,
// refill its input, then hand the head out (here: record it and spend
// 5 us on it).
sim::Task<Status> ReferenceMerge(
    std::vector<std::unique_ptr<RecordSource>> inputs, sim::Engine* engine,
    std::vector<Record>* out) {
  std::vector<Record> heads(inputs.size());
  std::vector<bool> live(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto has = co_await inputs[i]->Next(&heads[i]);
    if (!has.ok()) co_return has.status();
    live[i] = *has;
  }
  while (true) {
    size_t best = inputs.size();
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (!live[i]) continue;
      if (best == inputs.size() || heads[i].key < heads[best].key) best = i;
    }
    if (best == inputs.size()) break;
    Record record = heads[best];
    auto has = co_await inputs[best]->Next(&heads[best]);
    if (!has.ok()) co_return has.status();
    live[best] = *has;
    out->push_back(std::move(record));
    co_await engine->Delay(Micros(5));
  }
  for (auto& input : inputs) co_await input->Done();
  co_return Status::OK();
}

enum class Puller { kReference, kTryNextFill, kNext };

struct MergeRun {
  std::vector<Record> records;
  ReadLog reads;
  Status status;
};

MergeRun RunSplitMerge(Puller puller) {
  sim::Engine engine;
  MergeRun out;
  auto run = [&]() -> sim::Task<> {
    auto inputs = co_await SplitInputs(&engine, &out.reads);
    if (puller == Puller::kReference) {
      out.status =
          co_await ReferenceMerge(std::move(inputs), &engine, &out.records);
      co_return;
    }
    MergeStream merge(std::move(inputs));
    Record record;
    while (true) {
      if (puller == Puller::kTryNextFill) {
        if (!merge.TryNext(&record)) {
          auto more = co_await merge.Fill();
          if (!more.ok()) {
            out.status = more.status();
            co_return;
          }
          if (*more) continue;
          break;
        }
      } else {
        auto has = co_await merge.Next(&record);
        if (!has.ok()) {
          out.status = has.status();
          co_return;
        }
        if (!*has) break;
      }
      out.records.push_back(record);
      co_await engine.Delay(Micros(5));
    }
    co_await merge.Done();
  };
  engine.Spawn(run());
  engine.Run();
  return out;
}

// Pins refill-before-hand-out: a merge that handed a head out before
// reading its input's next chunk would let the consumer's 5 us land
// before that read and shift every later read's time.
TEST(MergeTest, PullsReadEveryChunkWhenACoroutineMergeWould) {
  MergeRun reference = RunSplitMerge(Puller::kReference);
  MergeRun pulled = RunSplitMerge(Puller::kTryNextFill);
  MergeRun awaited = RunSplitMerge(Puller::kNext);
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
  ASSERT_TRUE(pulled.status.ok()) << pulled.status.ToString();
  ASSERT_TRUE(awaited.status.ok()) << awaited.status.ToString();

  ASSERT_EQ(reference.records.size(), 60u);
  for (size_t i = 0; i < reference.records.size(); ++i) {
    EXPECT_EQ(reference.records[i].key, "k" + std::to_string(100 + i));
  }
  EXPECT_EQ(pulled.records, reference.records);
  EXPECT_EQ(awaited.records, reference.records);

  // Every record spans two or more reads.
  EXPECT_GE(reference.reads.size(), 2 * reference.records.size());
  EXPECT_EQ(pulled.reads, reference.reads);
  EXPECT_EQ(awaited.reads, reference.reads);
}

}  // namespace
}  // namespace spongefiles::mapred

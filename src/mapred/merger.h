#ifndef SPONGEFILES_MAPRED_MERGER_H_
#define SPONGEFILES_MAPRED_MERGER_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "mapred/record.h"
#include "mapred/spill.h"
#include "sim/task.h"

namespace spongefiles::mapred {

// A stream of records in key order.
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  // Produces the next record. Returns false at end of stream.
  virtual sim::Task<Result<bool>> Next(Record* out) = 0;

  // Releases backing storage (deletes the underlying spill file).
  virtual sim::Task<> Done() = 0;
};

// Streams a (sorted) spill file, parsing records chunk by chunk.
class SpillFileSource : public RecordSource {
 public:
  explicit SpillFileSource(std::unique_ptr<SpillFile> file)
      : file_(std::move(file)) {}

  sim::Task<Result<bool>> Next(Record* out) override;
  sim::Task<> Done() override;

  SpillFile* file() { return file_.get(); }

 private:
  std::unique_ptr<SpillFile> file_;
  RecordParser parser_;
  bool exhausted_ = false;
};

// Streams an in-memory vector of records (already sorted by the caller).
class VectorSource : public RecordSource {
 public:
  explicit VectorSource(std::vector<Record> records)
      : records_(std::move(records)) {}

  sim::Task<Result<bool>> Next(Record* out) override;
  sim::Task<> Done() override;

 private:
  std::vector<Record> records_;
  size_t next_ = 0;
};

// K-way merge of sorted sources into one sorted stream. This is the
// operation whose disk incarnation ruins performance under spilling: k
// concurrent file streams on one spindle seek on every switch, which is
// why Hadoop caps k at io.sort.factor and pays multiple rounds instead.
class MergeStream : public RecordSource {
 public:
  struct Head {
    Record record;
    size_t input;
  };

  explicit MergeStream(std::vector<std::unique_ptr<RecordSource>> inputs)
      : inputs_(std::move(inputs)) {}

  sim::Task<Result<bool>> Next(Record* out) override;
  sim::Task<> Done() override;

 private:

  sim::Task<Status> Prime();

  std::vector<std::unique_ptr<RecordSource>> inputs_;
  // Min-heap by key over the current head of each non-exhausted input.
  std::vector<Head> heap_;
  bool primed_ = false;
};

// Drains `source` into a freshly created spill file named `name`,
// serializing records in order. Returns the closed file.
sim::Task<Result<std::unique_ptr<SpillFile>>> WriteSortedRun(
    Spiller* spiller, std::string name, RecordSource* source);

}  // namespace spongefiles::mapred

#endif  // SPONGEFILES_MAPRED_MERGER_H_

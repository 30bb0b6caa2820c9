#ifndef SPONGEFILES_MAPRED_MERGER_H_
#define SPONGEFILES_MAPRED_MERGER_H_

#include <coroutine>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "mapred/record.h"
#include "mapred/spill.h"
#include "sim/task.h"

namespace spongefiles::mapred {

// A stream of records in key order, pulled synchronously. TryNext hands
// out the next record when it is already in memory; when it returns false
// the caller awaits Fill, which loads the next chunk (simulated I/O) and
// returns false only at end of stream. Only chunk loads suspend: a record
// costs no coroutine frame.
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  // Produces the next record if one is ready without I/O.
  virtual bool TryNext(Record* out) = 0;

  // Loads more input after TryNext returned false. Returns false at end of
  // stream.
  virtual sim::Task<Result<bool>> Fill() = 0;

  // Releases backing storage (deletes the underlying spill file).
  virtual sim::Task<> Done() = 0;

  // Awaitable over the pair: produces the next record, filling as needed,
  // and yields Result<bool> (false at end of stream). Ready at once when
  // TryNext has a record; only a miss starts a coroutine, which runs Fill
  // and TryNext until a record or the end arrives.
  auto Next(Record* out) {
    struct [[nodiscard]] Awaiter {
      RecordSource* source;
      Record* out;
      std::optional<sim::Task<Result<bool>>> refill;
      bool await_ready() { return source->TryNext(out); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
        refill.emplace(source->FillUntilNext(out));
        return refill->operator co_await().await_suspend(h);
      }
      Result<bool> await_resume() {
        if (!refill) return true;
        return refill->operator co_await().await_resume();
      }
    };
    return Awaiter{this, out, std::nullopt};
  }

 private:
  sim::Task<Result<bool>> FillUntilNext(Record* out);
};

// Streams a (sorted) spill file, parsing records chunk by chunk.
class SpillFileSource : public RecordSource {
 public:
  explicit SpillFileSource(std::unique_ptr<SpillFile> file)
      : file_(std::move(file)) {}

  bool TryNext(Record* out) override { return parser_.Next(out); }
  sim::Task<Result<bool>> Fill() override;
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

  bool TryNext(Record* out) override;
  sim::Task<Result<bool>> Fill() override;
  sim::Task<> Done() override;

 private:
  std::vector<Record> records_;
  size_t next_ = 0;
};

// K-way merge of sorted sources into one sorted stream. This is the
// operation whose disk incarnation ruins performance under spilling: k
// concurrent file streams on one spindle seek on every switch, which is
// why Hadoop caps k at io.sort.factor and pays multiple rounds instead.
//
// Refill before hand-out: a popped head is handed out only after its input
// has produced its successor, exactly when a coroutine-per-record merge
// would have read it. When that refill needs I/O, TryNext stashes the head
// and returns false; Fill performs the refill and the next TryNext hands
// the stashed head out. So every input chunk is read at the same simulated
// instant, whatever the consumer does with the record.
class MergeStream : public RecordSource {
 public:
  struct Head {
    Record record;
    size_t input;
  };

  explicit MergeStream(std::vector<std::unique_ptr<RecordSource>> inputs)
      : inputs_(std::move(inputs)) {}

  bool TryNext(Record* out) override;
  sim::Task<Result<bool>> Fill() override;
  sim::Task<> Done() override;

 private:
  // Loads each input's first record (in input order) and builds the heap.
  sim::Task<Status> Prime();

  std::vector<std::unique_ptr<RecordSource>> inputs_;
  // Min-heap by key over the current head of each non-exhausted input.
  // While `stashed_`, the popped head waits at the back, outside the heap,
  // for its input's Fill.
  std::vector<Head> heap_;
  // A popped head whose input has refilled: the next TryNext returns it.
  Record ready_;
  bool has_ready_ = false;
  bool stashed_ = false;
  bool primed_ = false;
  // Refill target, swapped into the heap so record buffers are reused.
  Record refill_;
};

// Drains `source` into `file`, serializing records in order, and closes
// it.
sim::Task<Status> WriteRun(SpillFile* file, RecordSource* source);

// WriteRun into a freshly created spill file named `name`. Returns the
// closed file.
sim::Task<Result<std::unique_ptr<SpillFile>>> WriteSortedRun(
    Spiller* spiller, std::string name, RecordSource* source);

}  // namespace spongefiles::mapred

#endif  // SPONGEFILES_MAPRED_MERGER_H_

#ifndef SPONGEFILES_MAPRED_RECORD_H_
#define SPONGEFILES_MAPRED_RECORD_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/byte_runs.h"
#include "common/status.h"

namespace spongefiles::mapred {

// The key/value record flowing through map and reduce. Fields are the
// small, semantically meaningful columns (domain, language, anchortext
// term, ...); `number` carries numeric columns (spam score, the median
// job's values); `size` is the record's logical serialized size — real web
// rows carry kilobytes of metadata the queries never touch, represented
// here as zero filler so capacities and IO times stay faithful without the
// RAM cost (see DESIGN.md).
struct Record {
  std::string key;
  double number = 0;
  std::vector<std::string> fields;
  uint64_t size = 0;

  bool operator==(const Record& other) const {
    return key == other.key && number == other.number &&
           fields == other.fields && size == other.size;
  }
};

// Serialized bytes of the header (everything except the filler).
uint64_t RecordHeaderSize(const Record& record);

// Appends the record's wire form to `out`: a literal header followed by
// zero filler up to max(record.size, header size).
void SerializeRecord(const Record& record, ByteRuns* out);

// Total wire size of `record` (header plus filler).
uint64_t SerializedSize(const Record& record);

// Sorts `records` by `less` into exactly the order std::sort gives them
// (std::sort's moves depend only on its comparison outcomes, so sorting
// indices replays them), then moves each record into place once. Records
// carry strings and a vector, so moving them inside the sort dominated its
// cost.
template <typename Less>
void SortRecords(std::vector<Record>* records, Less less) {
  std::vector<Record>& r = *records;
  std::vector<size_t> order(r.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return less(r[a], r[b]); });
  // Position i receives record order[i]: follow each cycle of the
  // permutation once, marking placed positions with order[j] = j.
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == i) continue;
    Record held = std::move(r[i]);
    size_t j = i;
    while (order[j] != i) {
      size_t from = order[j];
      r[j] = std::move(r[from]);
      order[j] = j;
      j = from;
    }
    r[j] = std::move(held);
    order[j] = j;
  }
}

// Incremental parser over a stream of serialized chunks. Records may span
// chunk boundaries; Feed() chunks in order and drain with Next().
//
// Zero-copy: fed chunks are shared, not flattened — each record's header
// is parsed in place (copied into a reused scratch buffer only when a
// chunk boundary splits it); the zero filler, which dominates the logical
// volume, is skipped via a ByteRuns::Cursor and never materialized on the
// host.
class RecordParser {
 public:
  RecordParser() = default;

  void Feed(ByteRuns chunk);

  // Parses the next record into `out`. Returns true on success, false when
  // more data is needed. Corrupt input is a CHECK failure (the stream is
  // produced by SerializeRecord).
  bool Next(Record* out);

  // Bytes buffered but not yet consumed.
  uint64_t pending_bytes() const { return cursor_.available(); }

 private:
  ByteRuns pending_;
  ByteRuns::Cursor cursor_{&pending_};
  std::vector<uint8_t> scratch_;  // header bytes of the record under parse
};

}  // namespace spongefiles::mapred

#endif  // SPONGEFILES_MAPRED_RECORD_H_

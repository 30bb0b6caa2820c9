#ifndef SPONGEFILES_MAPRED_RECORD_H_
#define SPONGEFILES_MAPRED_RECORD_H_

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

// Incremental parser over a stream of serialized chunks. Records may span
// chunk boundaries; Feed() chunks in order and drain with Next().
//
// Zero-copy: fed chunks are shared, not flattened — only each record's
// header bytes are ever copied out (into a reused scratch buffer); the
// zero filler, which dominates the logical volume, is skipped via a
// ByteRuns::Cursor and never materialized on the host.
class RecordParser {
 public:
  RecordParser() = default;

  void Feed(const ByteRuns& chunk);

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

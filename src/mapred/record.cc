#include "mapred/record.h"

#include <cstring>

#include "common/logging.h"

namespace spongefiles::mapred {

namespace {

// Wire format (little endian):
//   u32 header_len   (bytes of header, including this field)
//   u64 total_len    (header_len + filler)
//   u16 key_len, key bytes
//   f64 number
//   u16 nfields, then per field: u32 len, bytes
// followed by (total_len - header_len) zero bytes of filler.

template <typename T>
uint8_t* PutRaw(uint8_t* out, T value) {
  std::memcpy(out, &value, sizeof(T));
  return out + sizeof(T);
}

template <typename T>
T GetRaw(const uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

// Encodes `record`'s header (exactly RecordHeaderSize(record) bytes,
// already validated to fit) into `out`. Returns one past the last byte.
uint8_t* EncodeHeader(const Record& record, uint64_t header_len,
                      uint8_t* out) {
  uint64_t total_len = std::max<uint64_t>(record.size, header_len);
  out = PutRaw<uint32_t>(out, static_cast<uint32_t>(header_len));
  out = PutRaw<uint64_t>(out, total_len);
  out = PutRaw<uint16_t>(out, static_cast<uint16_t>(record.key.size()));
  std::memcpy(out, record.key.data(), record.key.size());
  out += record.key.size();
  out = PutRaw<double>(out, record.number);
  out = PutRaw<uint16_t>(out, static_cast<uint16_t>(record.fields.size()));
  for (const std::string& field : record.fields) {
    out = PutRaw<uint32_t>(out, static_cast<uint32_t>(field.size()));
    std::memcpy(out, field.data(), field.size());
    out += field.size();
  }
  return out;
}

}  // namespace

uint64_t RecordHeaderSize(const Record& record) {
  uint64_t n = 4 + 8 + 2 + record.key.size() + 8 + 2;
  for (const std::string& field : record.fields) n += 4 + field.size();
  return n;
}

uint64_t SerializedSize(const Record& record) {
  return std::max<uint64_t>(record.size, RecordHeaderSize(record));
}

void SerializeRecord(const Record& record, ByteRuns* out) {
  SPONGE_CHECK(record.key.size() <= 0xffff) << "key too long";
  SPONGE_CHECK(record.fields.size() <= 0xffff) << "too many fields";
  const uint64_t header_len = RecordHeaderSize(record);
  // Encode on the stack — this is the hottest serialization line in the
  // spill path (one call per record), and the header is a few dozen bytes
  // for every workload we generate. Oversized keys/fields fall back to a
  // heap scratch buffer.
  uint8_t stack_buf[320];
  std::vector<uint8_t> heap_buf;
  uint8_t* buf = stack_buf;
  if (header_len > sizeof(stack_buf)) {
    heap_buf.resize(header_len);
    buf = heap_buf.data();
  }
  uint8_t* end = EncodeHeader(record, header_len, buf);
  SPONGE_CHECK(static_cast<uint64_t>(end - buf) == header_len)
      << "header length mismatch";
  out->AppendLiteral(Slice(buf, header_len));
  out->AppendZeros(std::max<uint64_t>(record.size, header_len) - header_len);
}

namespace {

// Decodes a header whose bytes start at `p` (12-byte length prefix
// included) into `out`. Returns the decoded header length.
uint64_t ParseHeader(const uint8_t* p, Record* out) {
  const uint8_t* cursor = p + 12;
  uint16_t key_len = GetRaw<uint16_t>(cursor);
  cursor += 2;
  out->key.assign(reinterpret_cast<const char*>(cursor), key_len);
  cursor += key_len;
  out->number = GetRaw<double>(cursor);
  cursor += 8;
  uint16_t nfields = GetRaw<uint16_t>(cursor);
  cursor += 2;
  // Assign in place: a record reused across Next() calls keeps its
  // strings' capacity.
  out->fields.resize(nfields);
  for (std::string& field : out->fields) {
    uint32_t len = GetRaw<uint32_t>(cursor);
    cursor += 4;
    field.assign(reinterpret_cast<const char*>(cursor), len);
    cursor += len;
  }
  return static_cast<uint64_t>(cursor - p);
}

}  // namespace

void RecordParser::Feed(ByteRuns chunk) {
  // Drop what Next() consumed, take over the new chunk's runs, and rebuild
  // the cursor (mutation invalidates it). No payload byte is copied.
  pending_.TrimPrefix(cursor_.position());
  pending_.Append(std::move(chunk));
  cursor_ = ByteRuns::Cursor(&pending_);
}

bool RecordParser::Next(Record* out) {
  if (cursor_.available() < 12) return false;
  // Headers are parsed in place when they lie in one literal run (they are
  // written as one), and copied out only when a chunk boundary splits one.
  uint8_t lens_copy[12];
  const uint8_t* lens = cursor_.View(12);
  if (lens == nullptr) {
    cursor_.Peek(12, lens_copy);
    lens = lens_copy;
  }
  uint32_t header_len = GetRaw<uint32_t>(lens);
  uint64_t total_len = GetRaw<uint64_t>(lens + 4);
  SPONGE_CHECK(header_len >= 24 && total_len >= header_len)
      << "corrupt record header";
  if (cursor_.available() < total_len) return false;
  // Only the header's bytes are materialized; Skip() walks over the filler
  // without touching it.
  const uint8_t* header = cursor_.View(header_len);
  if (header == nullptr) {
    scratch_.resize(header_len);
    cursor_.Peek(header_len, scratch_.data());
    header = scratch_.data();
  }
  SPONGE_CHECK(ParseHeader(header, out) == header_len)
      << "header length mismatch";
  out->size = total_len;
  cursor_.Skip(total_len);
  return true;
}

}  // namespace spongefiles::mapred

#include "common/byte_runs.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/checksum.h"
#include "common/logging.h"

namespace spongefiles {

namespace {
constexpr uint64_t kMergeLiteralThreshold = 64 * 1024;
// Run offsets and lengths, and buffer sizes, are 32-bit.
constexpr uint64_t kMaxLiteral = UINT32_MAX;
}  // namespace

ByteRuns::BufferRef ByteRuns::BufferRef::Make(Slice data, uint64_t capacity) {
  assert(data.size() <= capacity && capacity <= kMaxLiteral);
  BufferRef ref;
  ref.buffer_ = new (::operator new(sizeof(Buffer) + capacity))
      Buffer{1, static_cast<uint32_t>(data.size()),
             static_cast<uint32_t>(capacity)};
  std::memcpy(ref.buffer_->bytes(), data.data(), data.size());
  return ref;
}

ByteRuns::ByteRuns(const ByteRuns& other)
    : runs_(other.runs_),
      size_(other.size_),
      physical_size_(other.physical_size_),
      checksum_(other.checksum_),
      checksum_valid_(other.checksum_valid_) {}

ByteRuns& ByteRuns::operator=(const ByteRuns& other) {
  if (this != &other) {
    ByteRuns copy(other);
    *this = std::move(copy);
  }
  return *this;
}

void ByteRuns::AppendLiteral(Slice data) {
  if (data.empty()) return;
  SPONGE_CHECK(data.size() <= kMaxLiteral)
      << "literal of " << data.size() << " bytes";
  InvalidateChecksum();
  size_ += data.size();
  physical_size_ += data.size();
  // Small appends share the last run's buffer when that run's literal
  // bytes end exactly at the buffer's size. Writing past the size is safe
  // even while shared: the new bytes lie beyond every existing view. If
  // another handle wrote there first, the run no longer ends at the size
  // and the bytes get a fresh buffer instead.
  if (!runs_.empty() && runs_.back().length > 0 &&
      runs_.back().offset + runs_.back().length ==
          runs_.back().buffer->size) {
    Run& last = runs_.back();
    Buffer& buffer = *last.buffer;
    const bool fits = buffer.capacity - buffer.size >= data.size();
    if (last.zeros == 0) {
      // A literal directly after another extends it, keeping the run list
      // short when callers write record-at-a-time.
      if (last.length < kMergeLiteralThreshold) {
        if (fits) {
          std::memcpy(buffer.bytes() + buffer.size, data.data(), data.size());
          buffer.size += static_cast<uint32_t>(data.size());
        } else {
          // A buffer never reallocates: the run's bytes (under the merge
          // threshold) move to a fresh buffer that grows geometrically.
          const uint64_t length = last.length + data.size();
          SPONGE_CHECK(length <= kMaxLiteral)
              << "literal run of " << length << " bytes";
          const uint64_t grown =
              last.length + std::max<uint64_t>(last.length, data.size());
          BufferRef moved = BufferRef::Make(
              Slice(last.data(), last.length),
              std::min(kMaxLiteral, std::max(grown, kLiteralCapacity)));
          std::memcpy(moved->bytes() + last.length, data.data(), data.size());
          moved->size = static_cast<uint32_t>(length);
          last.buffer = std::move(moved);
          last.offset = 0;
        }
        last.length += static_cast<uint32_t>(data.size());
        return;
      }
    } else if (fits) {
      // Header packing: the next record's header after the previous
      // record's filler starts a run of its own, but in the same buffer
      // while it has spare capacity. Copy-on-write stays per run:
      // MutableRun copies only the mutated run's own view.
      Run run;
      run.buffer = last.buffer;
      run.offset = buffer.size;
      run.length = static_cast<uint32_t>(data.size());
      std::memcpy(buffer.bytes() + buffer.size, data.data(), data.size());
      buffer.size += run.length;
      runs_.push_back(std::move(run));
      return;
    }
  }
  Run run;
  run.length = static_cast<uint32_t>(data.size());
  run.buffer =
      BufferRef::Make(data, std::max<uint64_t>(data.size(), kLiteralCapacity));
  runs_.push_back(std::move(run));
}

void ByteRuns::AppendZeros(uint64_t n) {
  if (n == 0) return;
  InvalidateChecksum();
  size_ += n;
  if (runs_.empty()) runs_.emplace_back();
  runs_.back().zeros += n;
}

void ByteRuns::Append(const ByteRuns& other) {
  if (other.empty()) return;
  if (&other == this) {
    // Self-append: snapshot the descriptors first so the loop below does
    // not walk a vector it is growing.
    ByteRuns copy(other);
    Append(copy);
    return;
  }
  InvalidateChecksum();
  for (const Run& run : other.runs_) {
    if (run.length == 0) {
      AppendZeros(run.zeros);
      continue;
    }
    // Zero-copy hand-off: share the buffer, O(1) per run.
    runs_.push_back(run);
    size_ += run.size();
    physical_size_ += run.length;
  }
}

void ByteRuns::Append(ByteRuns&& other) {
  if (&other == this) {
    Append(static_cast<const ByteRuns&>(other));
    return;
  }
  if (runs_.empty()) {
    *this = std::move(other);
  } else if (!other.empty()) {
    InvalidateChecksum();
    for (Run& run : other.runs_) {
      if (run.length == 0) {
        AppendZeros(run.zeros);
        continue;
      }
      size_ += run.size();
      physical_size_ += run.length;
      runs_.push_back(std::move(run));
    }
  }
  other.Clear();
}

void ByteRuns::Run::CopyOut(uint64_t from, uint64_t n, uint8_t* out) const {
  if (from < length) {
    uint64_t literal = std::min(n, length - from);
    std::memcpy(out, data() + from, literal);
    out += literal;
    n -= literal;
  }
  std::memset(out, 0, n);
}

void ByteRuns::Read(uint64_t offset, uint64_t n, uint8_t* out) const {
  assert(offset + n <= size_);
  uint64_t run_start = 0;
  size_t i = 0;
  // Skip to the run containing `offset`.
  while (i < runs_.size() && run_start + runs_[i].size() <= offset) {
    run_start += runs_[i].size();
    ++i;
  }
  uint64_t produced = 0;
  while (produced < n) {
    assert(i < runs_.size());
    const Run& run = runs_[i];
    uint64_t in_run_offset = offset + produced - run_start;
    uint64_t take = std::min<uint64_t>(run.size() - in_run_offset,
                                       n - produced);
    run.CopyOut(in_run_offset, take, out + produced);
    produced += take;
    run_start += run.size();
    ++i;
  }
}

ByteRuns::Run ByteRuns::Piece(const Run& run, uint64_t from, uint64_t n) {
  Run piece;
  if (from < run.length) {
    piece.buffer = run.buffer;
    piece.offset = run.offset + static_cast<uint32_t>(from);
    piece.length = static_cast<uint32_t>(std::min(n, run.length - from));
  }
  piece.zeros = n - piece.length;
  return piece;
}

ByteRuns ByteRuns::SplitPrefix(uint64_t n) {
  assert(n <= size_);
  ByteRuns prefix;
  if (n == 0) return prefix;
  InvalidateChecksum();
  // Whole runs move to the prefix; a run cut in two ends up shared between
  // the prefix and the remainder (no byte is copied).
  size_t whole = 0;
  uint64_t taken = 0;
  while (taken < n && runs_[whole].size() <= n - taken) {
    taken += runs_[whole].size();
    ++whole;
  }
  prefix.runs_.reserve(whole + (taken < n ? 1 : 0));
  for (size_t i = 0; i < whole; ++i) {
    prefix.physical_size_ += runs_[i].length;
    prefix.runs_.push_back(std::move(runs_[i]));
  }
  if (taken < n) {
    Run& run = runs_[whole];
    uint64_t cut = n - taken;
    prefix.runs_.push_back(Piece(run, 0, cut));
    prefix.physical_size_ += prefix.runs_.back().length;
    run = Piece(run, cut, run.size() - cut);
  }
  runs_.erase(runs_.begin(), runs_.begin() + static_cast<long>(whole));
  size_ -= n;
  prefix.size_ = n;
  physical_size_ -= prefix.physical_size_;
  return prefix;
}

void ByteRuns::TrimPrefix(uint64_t n) {
  assert(n <= size_);
  if (n == 0) return;
  InvalidateChecksum();
  size_ -= n;
  size_t drop = 0;
  while (n > 0) {
    Run& run = runs_[drop];
    if (run.size() <= n) {
      n -= run.size();
      physical_size_ -= run.length;
      ++drop;
    } else {
      uint64_t length = run.length;
      run = Piece(run, n, run.size() - n);
      physical_size_ -= length - run.length;
      n = 0;
    }
  }
  runs_.erase(runs_.begin(), runs_.begin() + static_cast<long>(drop));
}

void ByteRuns::Cursor::Peek(uint64_t n, uint8_t* out) const {
  assert(n <= available());
  size_t i = run_index_;
  uint64_t in_run = run_offset_;
  uint64_t produced = 0;
  while (produced < n) {
    const Run& run = runs_->runs_[i];
    uint64_t take = std::min<uint64_t>(run.size() - in_run, n - produced);
    run.CopyOut(in_run, take, out + produced);
    produced += take;
    ++i;
    in_run = 0;
  }
}

const uint8_t* ByteRuns::Cursor::View(uint64_t n) const {
  assert(n <= available());
  if (n == 0) return nullptr;
  const Run& run = runs_->runs_[run_index_];
  if (run_offset_ + n > run.length) return nullptr;
  return run.data() + run_offset_;
}

void ByteRuns::Cursor::Skip(uint64_t n) {
  assert(n <= available());
  position_ += n;
  while (n > 0) {
    uint64_t left = runs_->runs_[run_index_].size() - run_offset_;
    if (left <= n) {
      n -= left;
      ++run_index_;
      run_offset_ = 0;
    } else {
      run_offset_ += n;
      n = 0;
    }
  }
}

ByteRuns ByteRuns::Cursor::Take(uint64_t n) {
  assert(n <= available());
  ByteRuns out;
  // Count the pieces first so the run vector is allocated once.
  size_t pieces = 0;
  for (uint64_t need = n > 0 ? n + run_offset_ : 0; need > 0; ++pieces) {
    need -= std::min(need, runs_->runs_[run_index_ + pieces].size());
  }
  out.runs_.reserve(pieces);
  position_ += n;
  while (n > 0) {
    const Run& run = runs_->runs_[run_index_];
    uint64_t take = std::min<uint64_t>(run.size() - run_offset_, n);
    out.runs_.push_back(Piece(run, run_offset_, take));
    out.physical_size_ += out.runs_.back().length;
    out.size_ += take;
    n -= take;
    if (run_offset_ + take == run.size()) {
      ++run_index_;
      run_offset_ = 0;
    } else {
      run_offset_ += take;
    }
  }
  return out;
}

ByteRuns ByteRuns::SubRange(uint64_t offset, uint64_t n) const {
  assert(offset + n <= size_);
  Cursor cursor(this);
  cursor.Skip(offset);
  return cursor.Take(n);
}

ByteRuns::Run& ByteRuns::MutableRun(size_t i) {
  Run& run = runs_[i];
  assert(run.length > 0);
  // One reference means this run holds the only reference anywhere (any
  // other run — in this handle or another — would hold its own), so
  // in-place mutation cannot be observed elsewhere.
  if (run.buffer->refs != 1) {
    run.buffer = BufferRef::Make(Slice(run.data(), run.length), run.length);
    run.offset = 0;
  }
  return run;
}

uint64_t ByteRuns::Checksum64() const {
  if (checksum_valid_) return checksum_;
  Checksum checksum;
  for (const Run& run : runs_) {
    if (run.length > 0) checksum.Update(Slice(run.data(), run.length));
    if (run.zeros > 0) checksum.UpdateZeros(run.zeros);
  }
  checksum_ = checksum.digest();
  checksum_valid_ = true;
  return checksum_;
}

void ByteRuns::CorruptByte(uint64_t offset) {
  assert(offset < size_);
  InvalidateChecksum();
  uint64_t run_start = 0;
  size_t i = 0;
  while (offset >= run_start + runs_[i].size()) {
    run_start += runs_[i].size();
    ++i;
  }
  uint64_t in_run = offset - run_start;
  if (in_run < runs_[i].length) {
    // Copy-on-write: readers that fetched this chunk before the fault
    // keep the pristine bytes, exactly as if the store had deep-copied.
    MutableRun(i).mutable_data()[in_run] ^= 0xFF;
    return;
  }
  // The byte is in the zero tail: the run keeps the zeros before it, and
  // a new run holds a one-byte literal 0xFF and the zeros after it.
  Run& run = runs_[i];
  uint64_t before = in_run - run.length;
  Run flip;
  const uint8_t flipped = 0xFF;
  flip.buffer = BufferRef::Make(Slice(&flipped, 1), 1);
  flip.length = 1;
  flip.zeros = run.zeros - before - 1;
  run.zeros = before;
  physical_size_ += 1;
  if (run.size() == 0) {
    run = std::move(flip);
  } else {
    runs_.insert(runs_.begin() + static_cast<long>(i) + 1, std::move(flip));
  }
}

void ByteRuns::Clear() {
  runs_.clear();
  size_ = 0;
  physical_size_ = 0;
  InvalidateChecksum();
}

std::vector<uint8_t> ByteRuns::ToBytes() const {
  std::vector<uint8_t> out(size_);
  if (size_ > 0) Read(0, size_, out.data());
  return out;
}

}  // namespace spongefiles

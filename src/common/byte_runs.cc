#include "common/byte_runs.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/checksum.h"

namespace spongefiles {

namespace {
// A zero run is represented as a null buffer with length > 0. Literal runs
// with length 0 never appear in runs_.
constexpr uint64_t kMergeLiteralThreshold = 64 * 1024;
// Capacity reserved for a fresh literal buffer, so the next few record
// headers can be packed into it (see AppendLiteral). 512 bytes holds
// several headers and keeps peak RSS flat; larger reservations raised it.
constexpr uint64_t kLiteralBufferReserve = 512;
}  // namespace

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
  InvalidateChecksum();
  size_ += data.size();
  physical_size_ += data.size();
  // Merge small literal appends into the previous literal run to keep the
  // run list short when callers write record-at-a-time. Growing a buffer is
  // safe even while shared: the new bytes lie beyond every existing view,
  // and views address by offset, so a reallocation moves no one's range.
  // The run must still end exactly at the buffer's end — if another handle
  // extended the buffer first, this run no longer does and gets a fresh
  // buffer instead.
  if (!runs_.empty() && runs_.back().is_literal() &&
      runs_.back().length < kMergeLiteralThreshold &&
      runs_.back().offset + runs_.back().length ==
          runs_.back().buffer->size()) {
    Run& last = runs_.back();
    last.buffer->insert(last.buffer->end(), data.data(),
                        data.data() + data.size());
    last.length += data.size();
    return;
  }
  Run run;
  run.length = data.size();
  // Header packing: a literal after a zero filler run (the next record's
  // header after the previous record's filler) gets its own run, but in
  // the previous literal's buffer when that run still ends at the buffer's
  // end and the buffer has spare capacity — the same grow-at-the-end rule
  // as above, without a reallocation. Copy-on-write stays per run:
  // MutableRun copies only the mutated run's own view.
  if (runs_.size() >= 2 && !runs_.back().is_literal()) {
    const Run& prev = runs_[runs_.size() - 2];
    if (prev.is_literal() &&
        prev.offset + prev.length == prev.buffer->size() &&
        prev.buffer->capacity() - prev.buffer->size() >= data.size()) {
      run.buffer = prev.buffer;
      run.offset = run.buffer->size();
      run.buffer->insert(run.buffer->end(), data.data(),
                         data.data() + data.size());
      runs_.push_back(std::move(run));
      return;
    }
  }
  run.buffer = std::make_shared<Buffer>();
  run.buffer->reserve(std::max<uint64_t>(data.size(), kLiteralBufferReserve));
  run.buffer->assign(data.data(), data.data() + data.size());
  runs_.push_back(std::move(run));
}

void ByteRuns::AppendZeros(uint64_t n) {
  if (n == 0) return;
  InvalidateChecksum();
  size_ += n;
  if (!runs_.empty() && !runs_.back().is_literal()) {
    runs_.back().length += n;
    return;
  }
  Run run;
  run.length = n;
  runs_.push_back(std::move(run));
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
    if (!run.is_literal()) {
      AppendZeros(run.length);
      continue;
    }
    // Zero-copy hand-off: share the buffer, O(1) per run.
    runs_.push_back(run);
    size_ += run.length;
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
      if (!run.is_literal()) {
        AppendZeros(run.length);
        continue;
      }
      size_ += run.length;
      physical_size_ += run.length;
      runs_.push_back(std::move(run));
    }
  }
  other.Clear();
}

void ByteRuns::Read(uint64_t offset, uint64_t n, uint8_t* out) const {
  assert(offset + n <= size_);
  uint64_t run_start = 0;
  size_t i = 0;
  // Skip to the run containing `offset`.
  while (i < runs_.size() && run_start + runs_[i].length <= offset) {
    run_start += runs_[i].length;
    ++i;
  }
  uint64_t produced = 0;
  while (produced < n) {
    assert(i < runs_.size());
    const Run& run = runs_[i];
    uint64_t in_run_offset = offset + produced - run_start;
    uint64_t take = std::min<uint64_t>(run.length - in_run_offset,
                                       n - produced);
    if (run.is_literal()) {
      std::memcpy(out + produced, run.data() + in_run_offset, take);
    } else {
      std::memset(out + produced, 0, take);
    }
    produced += take;
    run_start += run.length;
    ++i;
  }
}

ByteRuns ByteRuns::SplitPrefix(uint64_t n) {
  assert(n <= size_);
  ByteRuns prefix;
  if (n == 0) return prefix;
  InvalidateChecksum();
  std::vector<Run> remainder;
  uint64_t taken = 0;
  uint64_t prefix_physical = 0;
  for (size_t i = 0; i < runs_.size(); ++i) {
    Run& run = runs_[i];
    if (taken >= n) {
      remainder.push_back(std::move(run));
      continue;
    }
    uint64_t need = n - taken;
    if (run.length <= need) {
      taken += run.length;
      if (run.is_literal()) prefix_physical += run.length;
      prefix.runs_.push_back(std::move(run));
    } else {
      // Cut this run in two; a literal ends up shared between the prefix
      // and the remainder (no byte is copied).
      Run head = run;
      head.length = need;
      Run rest = std::move(run);
      rest.offset += need;  // harmless on zero runs (offset unused)
      rest.length -= need;
      if (head.is_literal()) prefix_physical += head.length;
      prefix.runs_.push_back(std::move(head));
      remainder.push_back(std::move(rest));
      taken = n;
    }
  }
  runs_ = std::move(remainder);
  size_ -= n;
  prefix.size_ = n;
  prefix.physical_size_ = prefix_physical;
  physical_size_ -= prefix_physical;
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
    if (run.length <= n) {
      n -= run.length;
      if (run.is_literal()) physical_size_ -= run.length;
      ++drop;
    } else {
      if (run.is_literal()) {
        run.offset += n;
        physical_size_ -= n;
      }
      run.length -= n;
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
    uint64_t take = std::min<uint64_t>(run.length - in_run, n - produced);
    if (run.is_literal()) {
      std::memcpy(out + produced, run.data() + in_run, take);
    } else {
      std::memset(out + produced, 0, take);
    }
    produced += take;
    ++i;
    in_run = 0;
  }
}

const uint8_t* ByteRuns::Cursor::View(uint64_t n) const {
  assert(n <= available());
  if (n == 0) return nullptr;
  const Run& run = runs_->runs_[run_index_];
  if (!run.is_literal() || run.length - run_offset_ < n) return nullptr;
  return run.data() + run_offset_;
}

void ByteRuns::Cursor::Skip(uint64_t n) {
  assert(n <= available());
  position_ += n;
  while (n > 0) {
    const Run& run = runs_->runs_[run_index_];
    uint64_t left = run.length - run_offset_;
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
    need -= std::min(need, runs_->runs_[run_index_ + pieces].length);
  }
  out.runs_.reserve(pieces);
  position_ += n;
  while (n > 0) {
    const Run& run = runs_->runs_[run_index_];
    out.runs_.push_back(run);
    Run& piece = out.runs_.back();
    piece.length = std::min<uint64_t>(run.length - run_offset_, n);
    if (run.is_literal()) {
      piece.offset = run.offset + run_offset_;
      out.physical_size_ += piece.length;
    }
    out.size_ += piece.length;
    n -= piece.length;
    if (run_offset_ + piece.length == run.length) {
      ++run_index_;
      run_offset_ = 0;
    } else {
      run_offset_ += piece.length;
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
  assert(run.is_literal());
  // use_count() == 1 means this run holds the only reference anywhere (any
  // other run — in this handle or another — would hold its own shared_ptr),
  // so in-place mutation cannot be observed elsewhere.
  if (run.buffer.use_count() != 1) {
    run.buffer = std::make_shared<Buffer>(run.data(),
                                          run.data() + run.length);
    run.offset = 0;
  }
  return run;
}

void ByteRuns::TransformLiterals(
    const std::function<void(uint64_t, uint8_t*, uint64_t)>& fn) {
  InvalidateChecksum();
  uint64_t offset = 0;
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (runs_[i].is_literal() && runs_[i].length > 0) {
      Run& run = MutableRun(i);
      fn(offset, run.mutable_data(), run.length);
    }
    offset += runs_[i].length;
  }
}

uint64_t ByteRuns::Checksum64() const {
  if (checksum_valid_) return checksum_;
  Checksum checksum;
  for (const Run& run : runs_) {
    if (run.is_literal()) {
      checksum.Update(Slice(run.data(), run.length));
    } else {
      checksum.UpdateZeros(run.length);
    }
  }
  checksum_ = checksum.digest();
  checksum_valid_ = true;
  return checksum_;
}

void ByteRuns::CorruptByte(uint64_t offset) {
  assert(offset < size_);
  InvalidateChecksum();
  uint64_t run_start = 0;
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (offset >= run_start + runs_[i].length) {
      run_start += runs_[i].length;
      continue;
    }
    uint64_t in_run = offset - run_start;
    if (runs_[i].is_literal()) {
      // Copy-on-write: readers that fetched this chunk before the fault
      // keep the pristine bytes, exactly as if the store had deep-copied.
      MutableRun(i).mutable_data()[in_run] ^= 0xFF;
      return;
    }
    // Split the zero run around a one-byte literal 0xFF.
    Run& run = runs_[i];
    uint64_t before = in_run;
    uint64_t after = run.length - in_run - 1;
    std::vector<Run> patched;
    if (before > 0) {
      Run pre;
      pre.length = before;
      patched.push_back(std::move(pre));
    }
    Run flip;
    flip.buffer = std::make_shared<Buffer>(1, 0xFF);
    flip.length = 1;
    patched.push_back(std::move(flip));
    if (after > 0) {
      Run post;
      post.length = after;
      patched.push_back(std::move(post));
    }
    runs_.erase(runs_.begin() + static_cast<long>(i));
    runs_.insert(runs_.begin() + static_cast<long>(i),
                 std::make_move_iterator(patched.begin()),
                 std::make_move_iterator(patched.end()));
    physical_size_ += 1;
    return;
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

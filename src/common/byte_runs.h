#ifndef SPONGEFILES_COMMON_BYTE_RUNS_H_
#define SPONGEFILES_COMMON_BYTE_RUNS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/slice.h"

namespace spongefiles {

// A logical byte sequence stored as a list of runs. Each run is some
// literal bytes followed by a zero tail:
//
//  * the literal bytes are real (record headers, keys, and all
//    byte-exactness tests), and
//  * the zero tail carries only a length (bulk payloads in the macro
//    benchmarks, where a 10 GB spill must not occupy 10 GB of RAM).
//
// Either part may be empty, not both. A serialized record — header, then
// zero filler — is one run.
//
// All size accounting in the library uses the *logical* size, so capacities,
// chunk counts and transfer times are identical to a fully-materialized run.
//
// Zero-copy data plane: literal bytes live in ref-counted buffers shared
// between handles. Copying a ByteRuns, Append(other), SubRange and
// SplitPrefix are O(runs) pointer operations that never touch the payload;
// the byte movement they used to perform remains *simulated* (callers still
// charge transfer time), it just no longer happens on the host. The only
// mutating entry point into literal bytes, CorruptByte, copies on write
// when the underlying buffer is shared, so mutating one handle can never
// change the bytes another handle observes.
//
// Ownership rules (see DESIGN.md "Performance engineering"):
//  * a buffer's existing bytes are immutable while more than one run
//    references the buffer; in-place mutation requires sole ownership,
//  * a buffer may *grow* at the end even while shared (appended bytes are
//    beyond every existing run's view, so no observable range changes),
//  * physical_size() counts the literal bytes this handle references;
//    buffers shared between handles are counted once per handle.
class ByteRuns {
 public:
  ByteRuns() = default;

  // ByteRuns is copyable (chunks get handed between buffers) and movable.
  // A copy shares the literal buffers (O(runs)).
  ByteRuns(const ByteRuns& other);
  ByteRuns& operator=(const ByteRuns& other);
  ByteRuns(ByteRuns&&) = default;
  ByteRuns& operator=(ByteRuns&&) = default;

  // Appends real bytes. Small appends share buffers: a literal directly
  // after another extends it, and a literal after a zero tail is packed
  // into the buffer of that run's literal bytes when it still has room
  // (record headers around their filler share one allocation).
  void AppendLiteral(Slice data);

  // Appends `n` logical zero bytes without materializing them: the last
  // run's zero tail grows.
  void AppendZeros(uint64_t n);

  // Appends all of `other` by sharing its buffers.
  void Append(const ByteRuns& other);
  // Same, but takes over `other`'s run descriptors instead of copying them
  // (no reference-count traffic); `other` is left empty.
  void Append(ByteRuns&& other);

  // Copies logical bytes [offset, offset + n) into `out`. Zero tails read
  // back as 0x00. Requires offset + n <= size().
  void Read(uint64_t offset, uint64_t n, uint8_t* out) const;

  // Splits off and returns the first `n` logical bytes, leaving the
  // remainder in place. Requires n <= size(). A run cut in two ends up
  // shared between the prefix and the remainder.
  ByteRuns SplitPrefix(uint64_t n);

  // Drops the first `n` logical bytes in place: SplitPrefix for consumers
  // that do not want the prefix. O(run descriptors), no byte is touched.
  // Requires n <= size().
  void TrimPrefix(uint64_t n);

  // Returns logical bytes [offset, offset + n) as a new ByteRuns sharing
  // this handle's buffers (zero tails stay unmaterialized). Requires
  // offset + n <= size(). Walks the run list from the start, so it is
  // O(runs before offset + n); a reader that slices a sequence front to
  // back should hold a Cursor and call Take() instead.
  ByteRuns SubRange(uint64_t offset, uint64_t n) const;

  // FNV-1a 64 over the logical content. Zero tails are folded in O(log n)
  // per run, so checksumming an unmaterialized multi-gigabyte payload is
  // cheap; the digest still equals Checksum::Of over ToBytes(). The digest
  // is memoized per handle and rides along on copies; any mutation
  // invalidates it.
  uint64_t Checksum64() const;

  // Fault injection (bit rot): flips the byte at logical `offset`. A
  // solely-owned literal byte is xor-flipped in place; a shared literal
  // run is copied-on-write first (handles holding earlier reads keep the
  // pristine bytes); a run whose zero tail holds the byte is split in two,
  // the second starting with a new one-byte literal.
  // Requires offset < size(). The logical size is unchanged, the content —
  // and hence Checksum64() — is not.
  void CorruptByte(uint64_t offset);

  void Clear();

  // Logical size in bytes.
  uint64_t size() const { return size_; }

  // Literal bytes this handle references (zero tails excluded). Shared
  // buffers count once per referencing handle; a split or sub-range pair
  // reports the bytes each side can see, not the (single) backing
  // allocation.
  uint64_t physical_size() const { return physical_size_; }

  bool empty() const { return size_ == 0; }

  // Materializes the whole logical content. Intended for tests.
  std::vector<uint8_t> ToBytes() const;

  // Streaming front-to-back consumer. Unlike Read(), which rescans the run
  // list from the start on every call, a Cursor remembers which run it is
  // in, so a parse loop over a many-run sequence is O(1) amortized per run
  // — and Skip() never materializes the bytes it passes over (skipping a
  // gigabyte zero tail costs nothing). Any mutation of the underlying
  // ByteRuns invalidates the cursor; construct a fresh one after feeding
  // more data.
  class Cursor {
   public:
    explicit Cursor(const ByteRuns* runs) : runs_(runs) {}

    // Bytes between the cursor and the end of the sequence.
    uint64_t available() const { return runs_->size() - position_; }

    // Logical bytes consumed so far (== the Skip() total).
    uint64_t position() const { return position_; }

    // Copies the `n` bytes at the cursor into `out` without consuming them
    // (n <= available()).
    void Peek(uint64_t n, uint8_t* out) const;

    // The `n` bytes at the cursor in place (n <= available()) when they
    // lie within one run's literal bytes, else nullptr (use Peek). The
    // pointer is
    // valid only until the next append to any handle sharing the buffer,
    // which may reallocate it.
    const uint8_t* View(uint64_t n) const;

    // Consumes `n` bytes (n <= available()).
    void Skip(uint64_t n);

    // Consumes `n` bytes (n <= available()) and returns them as a new
    // ByteRuns sharing the underlying buffers, exactly as SubRange at
    // position() would, but without rescanning the runs already passed.
    ByteRuns Take(uint64_t n);

   private:
    const ByteRuns* runs_;
    size_t run_index_ = 0;
    uint64_t run_offset_ = 0;  // consumed within runs_[run_index_]
    uint64_t position_ = 0;
  };

 private:
  friend struct ByteRunsTestPeer;  // inspects buffer sharing in tests

  using Buffer = std::vector<uint8_t>;
  using BufferRef = std::shared_ptr<Buffer>;

  struct Run {
    // Literal bytes [offset, offset + length) of the shared `buffer`, then
    // `zeros` logical zero bytes. `buffer` is null exactly when length is
    // 0; length + zeros is never 0.
    BufferRef buffer;
    uint64_t offset = 0;
    uint64_t length = 0;
    uint64_t zeros = 0;

    uint64_t size() const { return length + zeros; }
    const uint8_t* data() const { return buffer->data() + offset; }
    uint8_t* mutable_data() { return buffer->data() + offset; }
    // Copies `n` logical bytes starting at `from` into `out`.
    void CopyOut(uint64_t from, uint64_t n, uint8_t* out) const;
  };

  // Logical bytes [from, from + n) of `run` as a run of their own, sharing
  // its buffer when they include literal bytes (n > 0, from + n <=
  // run.size()).
  static Run Piece(const Run& run, uint64_t from, uint64_t n);

  // Ensures runs_[i]'s literal bytes are solely owned (copy-on-write) and
  // returns the run. Requires runs_[i].length > 0.
  Run& MutableRun(size_t i);

  void InvalidateChecksum() { checksum_valid_ = false; }

  std::vector<Run> runs_;
  uint64_t size_ = 0;
  uint64_t physical_size_ = 0;
  // Memoized Checksum64 (content-derived, so copies may share it).
  mutable uint64_t checksum_ = 0;
  mutable bool checksum_valid_ = false;
};

}  // namespace spongefiles

#endif  // SPONGEFILES_COMMON_BYTE_RUNS_H_

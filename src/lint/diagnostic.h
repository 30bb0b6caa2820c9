#ifndef SPONGEFILES_LINT_DIAGNOSTIC_H_
#define SPONGEFILES_LINT_DIAGNOSTIC_H_

#include <string>
#include <vector>

namespace spongefiles::lint {

// The check catalogue. Each check has a stable short id used both in
// diagnostic output ("file:12: [ref] ...") and in waiver comments: a
// diagnostic from check `x` is suppressed by a comment carrying the lint
// marker followed by `x-ok(reason)`, placed on the flagged line or the
// line directly above. (The marker is spelled out in DESIGN.md; writing
// it verbatim here would make this header waive itself.)
enum class Check {
  kCoroRef,         // coroutine-frame escape via reference/view parameter
  kDeterminism,     // wall clock / ambient randomness / environment reads
  kUnorderedIter,   // unordered-container iteration feeding ordered output
  kLockAcrossAwait, // co_await while holding a sim::Mutex
  kUncheckedStatus, // Status / Result return value discarded
  kBannedHeader,    // <thread>, <mutex>, <random>, ... outside allowlist
  kBadWaiver,       // a waiver with no reason, or for an unknown check
  kOrphanWaiver,    // a waiver that no longer matches any diagnostic
};

// Stable short id ("ref", "det", "iter", "lock", "status", "header",
// "waiver", "orphan"); the waiver tag is this id
// plus "-ok". kBadWaiver and kOrphanWaiver are not themselves waivable.
const char* CheckId(Check check);

// Parses a check id back; returns false for unknown ids.
bool CheckFromId(const std::string& id, Check* out);

struct Diagnostic {
  Check check;
  std::string file;
  int line = 0;
  std::string message;
  bool waived = false;          // true if a matching waiver covered it
  std::string waiver_reason;    // the reason text when waived

  // "file:line: [id] message" (with a trailing waiver note when waived).
  std::string ToString() const;
};

// Output of analyzing one file.
struct FileReport {
  std::string file;
  std::vector<Diagnostic> diagnostics;

  size_t unwaived() const {
    size_t n = 0;
    for (const auto& d : diagnostics) {
      if (!d.waived) ++n;
    }
    return n;
  }
};

}  // namespace spongefiles::lint

#endif  // SPONGEFILES_LINT_DIAGNOSTIC_H_

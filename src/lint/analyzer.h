#ifndef SPONGEFILES_LINT_ANALYZER_H_
#define SPONGEFILES_LINT_ANALYZER_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/diagnostic.h"
#include "lint/token.h"

namespace spongefiles::lint {

// Tuning knobs for the checks. The defaults encode this repository's
// conventions (sim::Task coroutines, sim::Mutex locks, the seeded Rng in
// common/random as the only randomness gateway); tests override them to
// exercise the machinery in isolation.
struct AnalyzerOptions {
  // Type names treated as awaitable coroutine return types for the
  // coroutine-frame-escape check (matched on the unqualified name).
  std::vector<std::string> awaitable_types = {"Task"};

  // Parameter type names that are non-owning views into caller storage.
  // Passed by value they are exactly as dangerous as a T& when the
  // coroutine outlives its caller's frame.
  std::vector<std::string> view_types = {"string_view", "Slice", "span"};

  // Identifiers whose mere mention is a determinism hazard.
  std::vector<std::string> banned_idents = {
      "system_clock",     "steady_clock",        "high_resolution_clock",
      "random_device",    "mt19937",             "mt19937_64",
      "default_random_engine", "minstd_rand",
  };

  // Free functions that read ambient time/randomness/environment; flagged
  // only in call position (`name(`) in an expression context, so a method
  // or member named `time` does not trip it.
  std::vector<std::string> banned_calls = {
      "time", "rand", "srand", "getenv", "gettimeofday", "clock", "localtime",
  };

  // Headers whose inclusion is banned outside the allowlist.
  std::vector<std::string> banned_headers = {
      "thread", "mutex", "shared_mutex", "condition_variable",
      "random", "ctime",  "future",
  };

  // Path substrings exempt from the determinism and banned-header checks
  // (the seeded-randomness gateway lives here).
  std::vector<std::string> allowlist = {"common/random"};

  // Method names that acquire / release a lock for the
  // lock-across-suspension check. Semaphore::Acquire is deliberately NOT
  // listed: holding a simulated resource (disk queue, network link)
  // across simulated time is the simulator's job; holding a Mutex across
  // a suspension point is how coroutine deadlocks start.
  std::vector<std::string> lock_acquire = {"Lock"};
  std::vector<std::string> lock_release = {"Unlock"};

  // Ordering-sensitive sinks: iterating an unordered container is only
  // flagged when the loop body hits one of these (appends to a sequence,
  // emits output, awaits, destroys, schedules).
  std::vector<std::string> sink_idents = {
      "push_back", "emplace_back", "append", "Append", "Push",  "Spawn",
      "ScheduleHandle", "destroy", "co_await", "Set", "Increment", "Observe",
  };
  std::vector<std::string> sink_puncts = {"<<", "+="};
};

// Names harvested from a first pass over one or more files; the analyzer
// consults it for cross-file checks (unchecked Status calls, iteration
// over unordered members returned by accessors declared elsewhere). The
// index is name-based — deliberately over-approximate; waivers handle the
// rare collision.
struct SymbolIndex {
  // Functions declared to return Status / Result<...> / StatusCode.
  std::set<std::string> status_functions;
  // Functions declared to return Task<Status> / Task<Result<...>>.
  std::set<std::string> awaitable_status_functions;
  // Variables, members, parameters, and accessor functions whose declared
  // type involves unordered_map / unordered_set.
  std::set<std::string> unordered_names;
  // Quoted #include targets, for include-closure scoping by the driver.
  std::vector<std::string> quoted_includes;

  void Merge(const SymbolIndex& other);
};

// Pass 1: harvest declarations from a lexed file.
SymbolIndex IndexSymbols(const LexResult& lex);

// Pass 2: run every check over a lexed file. `path` is used for
// diagnostics and allowlist matching (match it repo-relative).
FileReport AnalyzeFile(const std::string& path, const LexResult& lex,
                       const SymbolIndex& index, const AnalyzerOptions& opts);

// Convenience for tests and single-file use: lex, self-index, analyze.
FileReport AnalyzeSource(const std::string& path, std::string_view source,
                         const AnalyzerOptions& opts = AnalyzerOptions());

}  // namespace spongefiles::lint

#endif  // SPONGEFILES_LINT_ANALYZER_H_

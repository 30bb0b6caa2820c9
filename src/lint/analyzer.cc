#include "lint/analyzer.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <utility>

#include "lint/lexer.h"

namespace spongefiles::lint {

const char* CheckId(Check check) {
  switch (check) {
    case Check::kCoroRef: return "ref";
    case Check::kDeterminism: return "det";
    case Check::kUnorderedIter: return "iter";
    case Check::kLockAcrossAwait: return "lock";
    case Check::kUncheckedStatus: return "status";
    case Check::kBannedHeader: return "header";
    case Check::kBadWaiver: return "waiver";
    case Check::kOrphanWaiver: return "orphan";
  }
  return "?";
}

bool CheckFromId(const std::string& id, Check* out) {
  // kBadWaiver and kOrphanWaiver are deliberately absent: a waiver cannot
  // waive the waiver machinery.
  static const std::pair<const char*, Check> kIds[] = {
      {"ref", Check::kCoroRef},        {"det", Check::kDeterminism},
      {"iter", Check::kUnorderedIter}, {"lock", Check::kLockAcrossAwait},
      {"status", Check::kUncheckedStatus}, {"header", Check::kBannedHeader},
  };
  for (const auto& [name, check] : kIds) {
    if (id == name) {
      *out = check;
      return true;
    }
  }
  return false;
}

std::string Diagnostic::ToString() const {
  std::string s = file + ":" + std::to_string(line) + ": [" +
                  CheckId(check) + "] " + message;
  if (waived) s += " (waived: " + waiver_reason + ")";
  return s;
}

void SymbolIndex::Merge(const SymbolIndex& other) {
  status_functions.insert(other.status_functions.begin(),
                          other.status_functions.end());
  awaitable_status_functions.insert(other.awaitable_status_functions.begin(),
                                    other.awaitable_status_functions.end());
  unordered_names.insert(other.unordered_names.begin(),
                         other.unordered_names.end());
  quoted_includes.insert(quoted_includes.end(), other.quoted_includes.begin(),
                         other.quoted_includes.end());
}

namespace {

using Tokens = std::vector<Token>;

bool Contains(const std::vector<std::string>& xs, const std::string& x) {
  return std::find(xs.begin(), xs.end(), x) != xs.end();
}

// Returns the index just past the `>` matching the `<` at `i`. A `>>`
// token closes two levels (template context). Falls off the end of the
// token stream gracefully on malformed input.
size_t SkipAngles(const Tokens& toks, size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.punct("<")) {
      ++depth;
    } else if (t.punct(">")) {
      if (--depth == 0) return i + 1;
    } else if (t.punct(">>")) {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (t.punct(";") || t.punct("{")) {
      // A `<` that was a comparison, not a template bracket.
      return i;
    }
  }
  return i;
}

// `i` points at `(`; returns the index of the matching `)`.
size_t MatchParen(const Tokens& toks, size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (toks[i].punct("(")) ++depth;
    if (toks[i].punct(")") && --depth == 0) return i;
  }
  return toks.size() - 1;
}

// `i` points at `{`; returns the index of the matching `}`.
size_t MatchBrace(const Tokens& toks, size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (toks[i].punct("{")) ++depth;
    if (toks[i].punct("}") && --depth == 0) return i;
  }
  return toks.size() - 1;
}

// `i` points at `)`; returns the index of the matching `(` searching
// backwards, or npos-like 0 on malformed input.
size_t MatchParenBackward(const Tokens& toks, size_t i) {
  int depth = 0;
  for (;; --i) {
    if (toks[i].punct(")")) ++depth;
    if (toks[i].punct("(") && --depth == 0) return i;
    if (i == 0) return 0;
  }
}

// Parses `ident (:: ident | . ident | -> ident)*` starting at `i`.
// Returns the number of tokens consumed (0 if `i` is not an identifier)
// and fills `last` with the final identifier.
size_t ParseChain(const Tokens& toks, size_t i, std::string* last) {
  if (i >= toks.size() || toks[i].kind != TokenKind::kIdentifier) return 0;
  size_t start = i;
  *last = toks[i].text;
  ++i;
  while (i + 1 < toks.size() &&
         (toks[i].punct("::") || toks[i].punct(".") || toks[i].punct("->")) &&
         toks[i + 1].kind == TokenKind::kIdentifier) {
    *last = toks[i + 1].text;
    i += 2;
  }
  return i - start;
}

// One parsed waiver entry: a `<tag>-ok(reason)` clause following the
// waiver marker in a comment.
struct Waiver {
  Check check;
  std::string reason;
  mutable bool used = false;
};

class Analyzer {
 public:
  Analyzer(const std::string& path, const LexResult& lex,
           const SymbolIndex& index, const AnalyzerOptions& opts)
      : path_(path), toks_(lex.tokens), comments_(lex.comments),
        index_(index), opts_(opts) {}

  FileReport Run() {
    ParseWaivers();
    CheckCoroutineRefParams();
    CheckDeterminism();
    CheckBannedHeaders();
    CheckUnorderedIteration();
    CheckLockAcrossAwait();
    CheckUncheckedStatus();
    ApplyWaivers();
    ReportOrphanWaivers();
    std::stable_sort(report_.diagnostics.begin(), report_.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       return a.line < b.line;
                     });
    report_.file = path_;
    return std::move(report_);
  }

 private:
  void Diag(Check check, int line, std::string message) {
    report_.diagnostics.push_back(
        Diagnostic{check, path_, line, std::move(message), false, ""});
  }

  bool PathAllowed() const {
    for (const auto& sub : opts_.allowlist) {
      if (path_.find(sub) != std::string::npos) return true;
    }
    return false;
  }

  // ---- waivers ----------------------------------------------------------

  void ParseWaivers() {
    for (const Comment& c : comments_) {
      size_t at = c.text.find("lint:");
      if (at == std::string::npos) continue;
      size_t pos = at + 5;
      bool any = false;
      while (pos < c.text.size()) {
        while (pos < c.text.size() &&
               (c.text[pos] == ' ' || c.text[pos] == ',')) {
          ++pos;
        }
        size_t tag_begin = pos;
        while (pos < c.text.size() &&
               (std::isalnum(static_cast<unsigned char>(c.text[pos])) ||
                c.text[pos] == '-' || c.text[pos] == '_')) {
          ++pos;
        }
        std::string tag = c.text.substr(tag_begin, pos - tag_begin);
        if (tag.empty()) break;
        any = true;
        std::string reason;
        if (pos < c.text.size() && c.text[pos] == '(') {
          size_t close = c.text.find(')', pos);
          if (close == std::string::npos) close = c.text.size();
          reason = c.text.substr(pos + 1, close - pos - 1);
          pos = std::min(close + 1, c.text.size());
        }
        if (tag.size() < 4 || tag.substr(tag.size() - 3) != "-ok") {
          Diag(Check::kBadWaiver, c.line,
               "malformed waiver '" + tag +
                   "': expected '<check>-ok(reason)'");
          continue;
        }
        Check check;
        std::string id = tag.substr(0, tag.size() - 3);
        if (!CheckFromId(id, &check)) {
          Diag(Check::kBadWaiver, c.line,
               "waiver for unknown check '" + id + "'");
          continue;
        }
        if (reason.empty()) {
          Diag(Check::kBadWaiver, c.line,
               "waiver '" + tag + "' has no reason; write '" + tag +
                   "(why this is safe)'");
          continue;
        }
        waivers_[c.line].push_back(Waiver{check, reason});
      }
      if (!any) {
        Diag(Check::kBadWaiver, c.line, "empty 'lint:' waiver comment");
      }
    }
  }

  void ApplyWaivers() {
    for (Diagnostic& d : report_.diagnostics) {
      if (d.check == Check::kBadWaiver) continue;
      for (int line : {d.line, d.line - 1}) {
        auto it = waivers_.find(line);
        if (it == waivers_.end()) continue;
        for (const Waiver& w : it->second) {
          if (w.check == d.check) {
            d.waived = true;
            d.waiver_reason = w.reason;
            w.used = true;
            break;
          }
        }
        if (d.waived) break;
      }
    }
  }

  // ---- check 1: coroutine-frame escapes ---------------------------------

  bool IsAwaitableType(const std::string& name) const {
    return Contains(opts_.awaitable_types, name);
  }

  void CheckCoroutineRefParams() {
    for (size_t i = 0; i + 1 < toks_.size(); ++i) {
      const Token& t = toks_[i];
      // Function declarations/definitions returning Task<...>.
      if (t.kind == TokenKind::kIdentifier && IsAwaitableType(t.text) &&
          toks_[i + 1].punct("<")) {
        if (i > 0 && (toks_[i - 1].punct(".") || toks_[i - 1].punct("->"))) {
          continue;  // member access, not a type
        }
        size_t j = SkipAngles(toks_, i + 1);
        std::string name;
        size_t consumed = ParseChain(toks_, j, &name);
        if (consumed > 0 && j + consumed < toks_.size() &&
            toks_[j + consumed].punct("(")) {
          CheckParamList(j + consumed, name);
        }
      }
      // Lambdas with a trailing `-> Task<...>` return type.
      if (t.punct("->") && i > 0 && toks_[i - 1].punct(")")) {
        size_t k = i + 1;
        while (k + 1 < toks_.size() &&
               toks_[k].kind == TokenKind::kIdentifier &&
               toks_[k + 1].punct("::")) {
          k += 2;
        }
        if (k < toks_.size() && toks_[k].kind == TokenKind::kIdentifier &&
            IsAwaitableType(toks_[k].text) && k + 1 < toks_.size() &&
            toks_[k + 1].punct("<")) {
          size_t open = MatchParenBackward(toks_, i - 1);
          CheckParamList(open, "<lambda>");
        }
      }
    }
  }

  void CheckParamList(size_t open, const std::string& fn) {
    size_t close = MatchParen(toks_, open);
    size_t param_begin = open + 1;
    int angle = 0, paren = 0, brace = 0, bracket = 0;
    for (size_t i = open + 1; i <= close && i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.punct("<")) ++angle;
      if (t.punct(">")) angle = std::max(0, angle - 1);
      if (t.punct(">>")) angle = std::max(0, angle - 2);
      if (t.punct("(")) ++paren;
      if (t.punct(")")) --paren;
      if (t.punct("{")) ++brace;
      if (t.punct("}")) --brace;
      if (t.punct("[")) ++bracket;
      if (t.punct("]")) --bracket;
      bool at_end = (i == close);
      bool at_comma = t.punct(",") && angle == 0 && paren == 0 &&
                      brace == 0 && bracket == 0;
      if (at_end || at_comma) {
        CheckOneParam(param_begin, i, fn);
        param_begin = i + 1;
      }
    }
  }

  void CheckOneParam(size_t begin, size_t end, const std::string& fn) {
    if (begin >= end) return;
    // Param name: the last identifier before a default-argument `=`.
    std::string name = "<unnamed>";
    size_t value_end = end;
    for (size_t i = begin; i < end; ++i) {
      if (toks_[i].punct("=")) {
        value_end = i;
        break;
      }
    }
    for (size_t i = begin; i < value_end; ++i) {
      if (toks_[i].kind == TokenKind::kIdentifier) name = toks_[i].text;
    }
    // Only the top level of the declarator: a `&` nested inside template
    // arguments (e.g. the call signature of a by-value std::function) does
    // not make the parameter itself a reference.
    int depth = 0;
    for (size_t i = begin; i < value_end; ++i) {
      const Token& t = toks_[i];
      if (t.punct("<") || t.punct("(") || t.punct("{") || t.punct("[")) ++depth;
      if (t.punct(">") || t.punct(")") || t.punct("}") || t.punct("]")) --depth;
      if (t.punct(">>")) depth -= 2;
      if (depth > 0) continue;
      if (t.punct("&")) {
        Diag(Check::kCoroRef, t.line,
             "coroutine '" + fn + "' takes reference parameter '" + name +
                 "'; a frame that outlives its caller dangles — pass by "
                 "value, or waive with // lint: ref-ok(reason)");
        return;
      }
      if (t.kind == TokenKind::kIdentifier && Contains(opts_.view_types, t.text)) {
        Diag(Check::kCoroRef, t.line,
             "coroutine '" + fn + "' takes view parameter '" + name + "' (" +
                 t.text + "); the viewed storage must outlive the frame — "
                 "copy it, or waive with // lint: ref-ok(reason)");
        return;
      }
    }
  }

  // ---- check 2: determinism hazards -------------------------------------

  void CheckDeterminism() {
    if (PathAllowed()) return;
    for (size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (Contains(opts_.banned_idents, t.text)) {
        Diag(Check::kDeterminism, t.line,
             "'" + t.text + "' breaks reproducibility; all time comes from "
                 "sim::Engine::now() and all randomness from a seeded Rng");
        continue;
      }
      if (Contains(opts_.banned_calls, t.text) && i + 1 < toks_.size() &&
          toks_[i + 1].punct("(") && InExpressionContext(i)) {
        Diag(Check::kDeterminism, t.line,
             "call to '" + t.text + "()' reads ambient state; route it "
                 "through the simulation environment");
      }
    }
  }

  // True when the token at `i` begins an expression (so `name(` is a call
  // of the global function, not a declaration `Duration name(...)` or a
  // member access `x.name(`).
  bool InExpressionContext(size_t i) const {
    if (i == 0) return true;
    const Token& p = toks_[i - 1];
    if (p.punct("::")) {
      return i >= 2 && toks_[i - 2].ident("std");
    }
    if (p.kind == TokenKind::kPunct) {
      static const char* kDecl[] = {".", "->", "&", "*"};
      for (const char* d : kDecl) {
        if (p.text == d) return false;
      }
      return true;
    }
    if (p.kind == TokenKind::kIdentifier) {
      static const char* kExprKeywords[] = {"return", "co_return", "co_await",
                                            "co_yield", "else", "do"};
      for (const char* k : kExprKeywords) {
        if (p.text == k) return true;
      }
      return false;  // likely a declaration: `Foo time(...)`
    }
    return true;
  }

  // ---- check 5: banned headers ------------------------------------------

  void CheckBannedHeaders() {
    if (PathAllowed()) return;
    for (const Token& t : toks_) {
      if (t.kind != TokenKind::kPreprocessor) continue;
      std::string header = IncludeTarget(t.text, '<', '>');
      if (header.empty()) continue;
      if (!Contains(opts_.banned_headers, header)) continue;
      Diag(Check::kBannedHeader, t.line,
           "#include <" + header + "> is banned here; the simulator is "
               "single-threaded and deterministic (allowed only under: " +
               (opts_.allowlist.empty() ? std::string("nothing")
                                        : opts_.allowlist.front()) + ")");
    }
  }

  static std::string IncludeTarget(const std::string& directive, char open,
                                   char close) {
    size_t pos = directive.find('#');
    if (pos == std::string::npos) return "";
    ++pos;
    while (pos < directive.size() && std::isspace(
               static_cast<unsigned char>(directive[pos]))) {
      ++pos;
    }
    if (directive.compare(pos, 7, "include") != 0) return "";
    size_t lt = directive.find(open, pos);
    if (lt == std::string::npos) return "";
    size_t gt = directive.find(close, lt + 1);
    if (gt == std::string::npos) return "";
    return directive.substr(lt + 1, gt - lt - 1);
  }

  // ---- check 3: unordered iteration -------------------------------------

  void CheckUnorderedIteration() {
    for (size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (!toks_[i].ident("for") || !toks_[i + 1].punct("(")) continue;
      size_t open = i + 1;
      size_t close = MatchParen(toks_, open);
      // Range-for: a top-level `:` inside the header.
      size_t colon = 0;
      int depth = 0;
      for (size_t j = open + 1; j < close; ++j) {
        if (toks_[j].punct("(") || toks_[j].punct("[") || toks_[j].punct("{"))
          ++depth;
        if (toks_[j].punct(")") || toks_[j].punct("]") || toks_[j].punct("}"))
          --depth;
        if (depth == 0 && toks_[j].punct(":")) {
          colon = j;
          break;
        }
      }
      if (colon == 0) continue;
      std::string container;
      for (size_t j = colon + 1; j < close; ++j) {
        if (toks_[j].kind == TokenKind::kIdentifier &&
            index_.unordered_names.count(toks_[j].text) > 0) {
          container = toks_[j].text;
          break;
        }
      }
      if (container.empty()) continue;
      size_t body_begin, body_end;
      if (close + 1 < toks_.size() && toks_[close + 1].punct("{")) {
        body_begin = close + 2;
        body_end = MatchBrace(toks_, close + 1);
      } else {
        body_begin = close + 1;
        body_end = body_begin;
        while (body_end < toks_.size() && !toks_[body_end].punct(";"))
          ++body_end;
      }
      for (size_t j = body_begin; j < body_end; ++j) {
        const Token& t = toks_[j];
        bool sink =
            (t.kind == TokenKind::kIdentifier &&
             Contains(opts_.sink_idents, t.text)) ||
            (t.kind == TokenKind::kPunct && Contains(opts_.sink_puncts, t.text));
        if (sink) {
          Diag(Check::kUnorderedIter, toks_[i].line,
               "iteration over unordered container '" + container +
                   "' reaches ordering-sensitive '" + t.text +
                   "' (line " + std::to_string(t.line) +
                   "); hash order is not deterministic across "
                   "implementations — iterate a sorted copy, or waive with "
                   "// lint: iter-ok(reason)");
          break;
        }
      }
    }
  }

  // ---- check 4: lock held across a suspension point ---------------------

  void CheckLockAcrossAwait() {
    struct Held {
      std::string name;
      int depth;
      int line;
    };
    std::vector<Held> held;
    int depth = 0;
    for (size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.punct("{")) ++depth;
      if (t.punct("}")) {
        --depth;
        while (!held.empty() && held.back().depth > depth) held.pop_back();
      }
      if (t.kind != TokenKind::kIdentifier) continue;
      if (t.text == "co_await") {
        // Does this statement acquire a lock, or suspend while holding one?
        size_t stmt_end = i;
        while (stmt_end < toks_.size() && !toks_[stmt_end].punct(";") &&
               !toks_[stmt_end].punct("{") && !toks_[stmt_end].punct("}")) {
          ++stmt_end;
        }
        bool acquires = false;
        for (size_t j = i + 1; j + 1 < stmt_end; ++j) {
          if (toks_[j].kind == TokenKind::kIdentifier &&
              Contains(opts_.lock_acquire, toks_[j].text) &&
              toks_[j + 1].punct("(")) {
            std::string obj = "<lock>";
            if (j >= 2 && (toks_[j - 1].punct(".") || toks_[j - 1].punct("->")) &&
                toks_[j - 2].kind == TokenKind::kIdentifier) {
              obj = toks_[j - 2].text;
            }
            held.push_back(Held{obj, depth, t.line});
            acquires = true;
            break;
          }
        }
        if (!acquires && !held.empty()) {
          Diag(Check::kLockAcrossAwait, t.line,
               "co_await while holding lock '" + held.back().name +
                   "' (acquired line " + std::to_string(held.back().line) +
                   "); a suspended holder can deadlock every waiter — "
                   "release first, or waive with // lint: lock-ok(reason)");
        }
        i = stmt_end > i ? stmt_end - 1 : i;
        continue;
      }
      if (Contains(opts_.lock_release, t.text) && i + 1 < toks_.size() &&
          toks_[i + 1].punct("(")) {
        std::string obj;
        if (i >= 2 && (toks_[i - 1].punct(".") || toks_[i - 1].punct("->")) &&
            toks_[i - 2].kind == TokenKind::kIdentifier) {
          obj = toks_[i - 2].text;
        }
        for (size_t k = held.size(); k > 0; --k) {
          if (obj.empty() || held[k - 1].name == obj) {
            held.erase(held.begin() + static_cast<long>(k - 1));
            break;
          }
        }
      }
    }
  }

  // ---- check 6: unchecked Status / Result -------------------------------

  void CheckUncheckedStatus() {
    bool at_start = true;
    for (size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.punct(";") || t.punct("{") || t.punct("}") ||
          t.kind == TokenKind::kPreprocessor) {
        at_start = true;
        continue;
      }
      if (!at_start) continue;
      if (t.kind == TokenKind::kIdentifier) {
        if (t.text == "if" || t.text == "while" || t.text == "for" ||
            t.text == "switch" || t.text == "catch") {
          size_t j = i + 1;
          if (j < toks_.size() && toks_[j].ident("constexpr")) ++j;
          if (j < toks_.size() && toks_[j].punct("(")) {
            i = MatchParen(toks_, j);
          }
          continue;  // what follows the header is a statement start
        }
        if (t.text == "else" || t.text == "do" || t.text == "try") continue;
        if (t.text == "case" || t.text == "default" || t.text == "public" ||
            t.text == "private" || t.text == "protected") {
          while (i + 1 < toks_.size() && !toks_[i].punct(":")) ++i;
          continue;
        }
        bool awaited = false;
        size_t j = i;
        if (t.text == "co_await") {
          awaited = true;
          ++j;
        }
        std::string callee;
        size_t consumed = ParseChain(toks_, j, &callee);
        if (consumed > 0 && j + consumed < toks_.size() &&
            toks_[j + consumed].punct("(")) {
          size_t close = MatchParen(toks_, j + consumed);
          if (close + 1 < toks_.size() && toks_[close + 1].punct(";")) {
            if (awaited &&
                index_.awaitable_status_functions.count(callee) > 0) {
              Diag(Check::kUncheckedStatus, t.line,
                   "result of co_await '" + callee +
                       "' (awaitable Status) is discarded; check it or "
                       "cast to (void)");
            } else if (!awaited && index_.status_functions.count(callee) > 0) {
              Diag(Check::kUncheckedStatus, t.line,
                   "return value of '" + callee +
                       "' (Status/Result) is discarded; check it or cast "
                       "to (void)");
            }
          }
          i = close;
        }
      }
      at_start = false;
    }
  }

  // ---- orphan waivers ---------------------------------------------------

  void ReportOrphanWaivers() {
    for (const auto& [line, ws] : waivers_) {
      for (const Waiver& w : ws) {
        if (w.used) continue;
        Diag(Check::kOrphanWaiver, line,
             std::string("waiver '") + CheckId(w.check) +
                 "-ok' matches no diagnostic on this or the next line; "
                 "delete it");
      }
    }
  }

  const std::string& path_;
  const Tokens& toks_;
  const std::vector<Comment>& comments_;
  const SymbolIndex& index_;
  const AnalyzerOptions& opts_;
  std::map<int, std::vector<Waiver>> waivers_;
  FileReport report_;
};

}  // namespace

SymbolIndex IndexSymbols(const LexResult& lex) {
  SymbolIndex out;
  const Tokens& toks = lex.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];

    // Skip template parameter lists: `template <class T>` must not harvest
    // a class named T.
    if (t.ident("template") && i + 1 < toks.size() &&
        toks[i + 1].punct("<")) {
      i = SkipAngles(toks, i + 1) - 1;
      continue;
    }

    if (t.kind == TokenKind::kPreprocessor) {
      // Quoted includes, for include-closure scoping.
      size_t q1 = t.text.find('"');
      if (t.text.find("include") != std::string::npos &&
          q1 != std::string::npos) {
        size_t q2 = t.text.find('"', q1 + 1);
        if (q2 != std::string::npos) {
          out.quoted_includes.push_back(t.text.substr(q1 + 1, q2 - q1 - 1));
        }
      }
      continue;
    }
    if (t.kind != TokenKind::kIdentifier) continue;

    // Declarations of unordered containers (and accessors returning them).
    if (t.text == "unordered_map" || t.text == "unordered_set" ||
        t.text == "unordered_multimap" || t.text == "unordered_multiset") {
      if (i + 1 >= toks.size() || !toks[i + 1].punct("<")) continue;
      size_t j = SkipAngles(toks, i + 1);
      if (j < toks.size() && toks[j].punct("::")) continue;  // ::iterator
      while (j < toks.size() &&
             (toks[j].punct("&") || toks[j].punct("*") ||
              toks[j].ident("const"))) {
        ++j;
      }
      if (j < toks.size() && toks[j].kind == TokenKind::kIdentifier) {
        out.unordered_names.insert(toks[j].text);
      }
      continue;
    }

    // Functions returning Status / StatusCode / Result<...>.
    bool is_status = t.text == "Status" || t.text == "StatusCode";
    bool is_result = t.text == "Result" && i + 1 < toks.size() &&
                     toks[i + 1].punct("<");
    if (is_status || is_result) {
      if (i > 0) {
        const Token& p = toks[i - 1];
        if (p.ident("return") || p.ident("co_return") ||
            p.ident("co_await") || p.ident("new") || p.ident("throw") ||
            p.punct("=") || p.punct("(") || p.punct(",") || p.punct("<") ||
            p.punct(".") || p.punct("->")) {
          continue;  // expression use, not a declaration
        }
      }
      size_t j = is_result ? SkipAngles(toks, i + 1) : i + 1;
      std::string name;
      size_t consumed = ParseChain(toks, j, &name);
      if (consumed > 0 && j + consumed < toks.size() &&
          toks[j + consumed].punct("(") && name != "operator") {
        out.status_functions.insert(name);
      }
      continue;
    }

    // Functions returning Task<Status> / Task<Result<...>>.
    if (t.text == "Task" && i + 1 < toks.size() && toks[i + 1].punct("<")) {
      size_t j = SkipAngles(toks, i + 1);
      bool carries_status = false;
      for (size_t k = i + 2; k + 1 < j; ++k) {
        if (toks[k].ident("Status") || toks[k].ident("Result")) {
          carries_status = true;
          break;
        }
      }
      if (!carries_status) continue;
      std::string name;
      size_t consumed = ParseChain(toks, j, &name);
      if (consumed > 0 && j + consumed < toks.size() &&
          toks[j + consumed].punct("(") && name != "operator") {
        out.awaitable_status_functions.insert(name);
      }
      continue;
    }

  }
  return out;
}

FileReport AnalyzeFile(const std::string& path, const LexResult& lex,
                       const SymbolIndex& index, const AnalyzerOptions& opts) {
  return Analyzer(path, lex, index, opts).Run();
}

FileReport AnalyzeSource(const std::string& path, std::string_view source,
                         const AnalyzerOptions& opts) {
  LexResult lex = Lex(source);
  SymbolIndex index = IndexSymbols(lex);
  return AnalyzeFile(path, lex, index, opts);
}

}  // namespace spongefiles::lint

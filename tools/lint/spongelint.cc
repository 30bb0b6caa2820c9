// spongelint — self-hosted static analysis for the SpongeFiles tree.
//
// Walks the given directories (default: src bench tests), tokenizes every
// C++ file with the lexer in src/lint, and runs the coroutine-safety and
// determinism checks from src/lint/analyzer.h. Unwaived diagnostics make
// the exit status non-zero, which is how the `lint_repo` ctest fails.
//
// Usage:
//   spongelint [--root DIR] [--compile-commands FILE] [--verbose]
//              [--format=text|json] [dirs...]
//
// --format=json emits one JSON object on stdout with per-diagnostic
// records (stable check id, file, line, message, waived, waiver_reason)
// for CI to consume; the exit status contract is unchanged (non-zero iff
// any unwaived diagnostic).
//
// --compile-commands points at a CMake-exported compile_commands.json;
// its -I roots are used to resolve quoted #includes so the cross-file
// symbol index (Status-returning functions, unordered members) is scoped
// to each file's include closure instead of every name in the repo.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/analyzer.h"
#include "lint/compile_commands.h"
#include "lint/lexer.h"

namespace fs = std::filesystem;
using spongefiles::lint::AnalyzerOptions;
using spongefiles::lint::CompileCommands;
using spongefiles::lint::Diagnostic;
using spongefiles::lint::FileReport;
using spongefiles::lint::LexResult;
using spongefiles::lint::SymbolIndex;

namespace {

bool IsCxxFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

std::string ReadFileOrDie(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "spongelint: cannot read %s\n", p.c_str());
    std::exit(2);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct FileUnit {
  std::string rel;   // root-relative path, used in diagnostics
  fs::path abs;      // absolute path, used for include resolution
  LexResult lex;
  SymbolIndex index;
};

// Resolves one quoted include against the includer's directory, then each
// include root; returns the canonical hit or "".
std::string ResolveInclude(const std::string& quoted, const fs::path& includer,
                           const std::vector<fs::path>& roots,
                           const std::set<std::string>& known) {
  std::vector<fs::path> candidates;
  candidates.push_back(includer.parent_path() / quoted);
  for (const auto& root : roots) candidates.push_back(root / quoted);
  for (const auto& c : candidates) {
    std::error_code ec;
    fs::path canon = fs::weakly_canonical(c, ec);
    if (ec) continue;
    auto it = known.find(canon.string());
    if (it != known.end()) return *it;
  }
  return "";
}

// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::string compile_commands_path;
  bool verbose = false;
  bool json = false;
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--compile-commands" && i + 1 < argc) {
      compile_commands_path = argv[++i];
    } else if (arg.rfind("--format", 0) == 0) {
      std::string fmt;
      if (arg.rfind("--format=", 0) == 0) {
        fmt = arg.substr(9);
      } else if (arg == "--format" && i + 1 < argc) {
        fmt = argv[++i];
      }
      if (fmt != "text" && fmt != "json") {
        std::fprintf(stderr, "spongelint: unknown format '%s'\n", fmt.c_str());
        return 2;
      }
      json = fmt == "json";
    } else if (arg == "--verbose" || arg == "-v") {
      verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: spongelint [--root DIR] [--compile-commands FILE] "
          "[--verbose] [--format=text|json] [dirs...]\n");
      return 0;
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.empty()) dirs = {"src", "bench", "tests"};

  std::error_code ec;
  root = fs::weakly_canonical(root, ec);

  // Include roots: the compile database's -I dirs when available, else
  // the repository convention (src/ is the include root).
  std::vector<fs::path> include_roots;
  if (!compile_commands_path.empty()) {
    auto db = CompileCommands::Load(compile_commands_path);
    if (db.ok()) {
      for (const auto& dir : db->AllIncludeDirs()) {
        include_roots.emplace_back(dir);
      }
    } else {
      std::fprintf(stderr, "spongelint: warning: %s\n",
                   db.status().ToString().c_str());
    }
  }
  if (include_roots.empty()) {
    include_roots.push_back(root / "src");
    include_roots.push_back(root);
  }

  // Collect files, sorted for deterministic output.
  std::vector<fs::path> files;
  for (const auto& dir : dirs) {
    fs::path base = dir;
    if (base.is_relative()) base = root / base;
    if (fs::is_regular_file(base)) {
      files.push_back(base);
      continue;
    }
    if (!fs::is_directory(base)) {
      std::fprintf(stderr, "spongelint: no such directory: %s\n",
                   base.c_str());
      return 2;
    }
    for (const auto& e : fs::recursive_directory_iterator(base)) {
      if (e.is_regular_file() && IsCxxFile(e.path())) {
        files.push_back(e.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Pass 1: lex and index every file.
  std::vector<FileUnit> units;
  std::set<std::string> known_paths;
  for (const auto& f : files) {
    FileUnit u;
    u.abs = fs::weakly_canonical(f, ec);
    u.rel = fs::relative(u.abs, root, ec).string();
    if (u.rel.empty() || u.rel.rfind("..", 0) == 0) u.rel = u.abs.string();
    u.lex = spongefiles::lint::Lex(ReadFileOrDie(u.abs));
    u.index = spongefiles::lint::IndexSymbols(u.lex);
    known_paths.insert(u.abs.string());
    units.push_back(std::move(u));
  }

  // Include graph over the analyzed set (quoted includes only; system
  // headers are not project files).
  std::map<std::string, std::vector<std::string>> edges;
  std::map<std::string, const FileUnit*> by_abs;
  for (const auto& u : units) by_abs[u.abs.string()] = &u;
  for (const auto& u : units) {
    for (const auto& inc : u.index.quoted_includes) {
      std::string hit = ResolveInclude(inc, u.abs, include_roots, known_paths);
      if (!hit.empty()) edges[u.abs.string()].push_back(hit);
    }
  }

  // Pass 2: analyze each file against the symbol index of its include
  // closure (self + transitively included project files).
  AnalyzerOptions opts;
  size_t total = 0, waived = 0, files_with_findings = 0;
  std::vector<Diagnostic> all_diags;
  for (const auto& u : units) {
    SymbolIndex scoped;
    std::set<std::string> visited;
    std::vector<std::string> frontier = {u.abs.string()};
    while (!frontier.empty()) {
      std::string cur = frontier.back();
      frontier.pop_back();
      if (!visited.insert(cur).second) continue;
      auto it = by_abs.find(cur);
      if (it == by_abs.end()) continue;
      scoped.Merge(it->second->index);
      auto eit = edges.find(cur);
      if (eit != edges.end()) {
        for (const auto& next : eit->second) frontier.push_back(next);
      }
    }
    FileReport report =
        spongefiles::lint::AnalyzeFile(u.rel, u.lex, scoped, opts);
    bool printed = false;
    for (const Diagnostic& d : report.diagnostics) {
      if (d.waived) {
        ++waived;
        if (verbose && !json) std::printf("%s\n", d.ToString().c_str());
      } else {
        ++total;
        printed = true;
        if (!json) std::printf("%s\n", d.ToString().c_str());
      }
      if (json) all_diags.push_back(d);
    }
    if (printed) ++files_with_findings;
  }

  if (json) {
    std::printf("{\n  \"files\": %zu,\n  \"unwaived\": %zu,\n"
                "  \"waived\": %zu,\n  \"diagnostics\": [",
                units.size(), total, waived);
    for (size_t i = 0; i < all_diags.size(); ++i) {
      const Diagnostic& d = all_diags[i];
      std::printf(
          "%s\n    {\"check\": \"%s\", \"file\": \"%s\", \"line\": %d, "
          "\"message\": \"%s\", \"waived\": %s, \"waiver_reason\": \"%s\"}",
          i == 0 ? "" : ",", spongefiles::lint::CheckId(d.check),
          JsonEscape(d.file).c_str(), d.line, JsonEscape(d.message).c_str(),
          d.waived ? "true" : "false", JsonEscape(d.waiver_reason).c_str());
    }
    std::printf("%s]\n}\n", all_diags.empty() ? "" : "\n  ");
  } else {
    std::printf(
        "spongelint: %zu files, %zu unwaived diagnostic%s in %zu file%s, "
        "%zu waived\n",
        units.size(), total, total == 1 ? "" : "s", files_with_findings,
        files_with_findings == 1 ? "" : "s", waived);
  }
  return total == 0 ? 0 : 1;
}

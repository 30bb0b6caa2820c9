#include "common/text_file.h"

#include <cstdio>

namespace spongefiles {

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Internal("cannot open " + path);
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  int closed = std::fclose(f);
  if (written != text.size()) return Internal("short write to " + path);
  if (closed != 0) return Internal("cannot flush " + path);
  return Status::OK();
}

}  // namespace spongefiles

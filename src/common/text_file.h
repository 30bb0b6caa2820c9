#ifndef SPONGEFILES_COMMON_TEXT_FILE_H_
#define SPONGEFILES_COMMON_TEXT_FILE_H_

#include <string>

#include "common/status.h"

namespace spongefiles {

// Writes `text` to `path`, replacing the file. Fails unless every byte
// was written and the close, which flushes the buffered tail, succeeded.
Status WriteTextFile(const std::string& path, const std::string& text);

}  // namespace spongefiles

#endif  // SPONGEFILES_COMMON_TEXT_FILE_H_

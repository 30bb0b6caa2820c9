#ifndef SPONGEFILES_MAPRED_SYMBOL_H_
#define SPONGEFILES_MAPRED_SYMBOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>

namespace spongefiles::mapred {

// A record field's text, interned: a Symbol is a 4-byte id into one table
// that lives as long as the process and stores each distinct text once,
// with its length. Field vocabularies are closed (domains, languages,
// anchortext terms, quantile labels), so the table stays small while a
// record's field array shrinks from 32 bytes per field to 4.
//
// Ids are handed out in first-intern order, which depends on everything
// that ran before. Equality and hashing may use them; nothing that orders,
// prints or digests fields may. Order symbols by view().
//
// The table is not thread-safe: the simulator runs on one thread.
class Symbol {
 public:
  Symbol() = default;  // the empty text
  // Interning constructors, implicit so a text reads as a field value.
  Symbol(std::string_view text);  // NOLINT: implicit by design
  Symbol(const char* text) : Symbol(std::string_view(text)) {}  // NOLINT
  Symbol(const std::string& text)  // NOLINT
      : Symbol(std::string_view(text)) {}

  uint32_t id() const { return id_; }
  std::string_view view() const;
  const std::string& str() const;
  const char* c_str() const { return str().c_str(); }
  size_t size() const { return view().size(); }
  bool empty() const { return id_ == 0; }

  friend bool operator==(Symbol a, Symbol b) { return a.id_ == b.id_; }
  friend bool operator==(Symbol a, std::string_view b) {
    return a.view() == b;
  }
  friend bool operator==(Symbol a, const char* b) { return a.view() == b; }
  friend bool operator==(Symbol a, const std::string& b) {
    return a.view() == b;
  }

 private:
  uint32_t id_ = 0;
};

std::ostream& operator<<(std::ostream& os, Symbol symbol);

namespace symbol_internal {
// The table's texts by id (id 0 is ""), re-pointed whenever it grows.
extern const std::string_view* views;
}  // namespace symbol_internal

inline std::string_view Symbol::view() const {
  return symbol_internal::views[id_];
}

}  // namespace spongefiles::mapred

template <>
struct std::hash<spongefiles::mapred::Symbol> {
  size_t operator()(spongefiles::mapred::Symbol symbol) const {
    return symbol.id();
  }
};

#endif  // SPONGEFILES_MAPRED_SYMBOL_H_

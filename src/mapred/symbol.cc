#include "mapred/symbol.h"

#include <cstring>
#include <deque>
#include <vector>

#include "common/logging.h"

namespace spongefiles::mapred {

namespace symbol_internal {
namespace {
constinit const std::string_view kEmptyOnly[1] = {};
}  // namespace
const std::string_view* views = kEmptyOnly;
}  // namespace symbol_internal

namespace {

uint64_t Load64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t Load32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Mix(uint64_t x) {  // splitmix64's finalizer
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// A nonempty text's probe key: its length and two words loaded from its
// first and last bytes. Up to 16 bytes the (overlapping) loads cover every
// byte, so equal keys mean equal texts without reading the stored copy;
// every text the workloads intern is that short.
struct Key {
  uint64_t head;
  uint64_t tail;
  uint32_t len;
};

constexpr uint32_t kInlineLen = 16;

Key MakeKey(std::string_view text) {
  const char* p = text.data();
  const size_t n = text.size();
  Key key{0, 0, static_cast<uint32_t>(n)};
  if (n >= 8) {
    key.head = Load64(p);
    key.tail = Load64(p + n - 8);
  } else if (n >= 4) {
    key.head = Load32(p);
    key.tail = Load32(p + n - 4);
  } else {
    key.head = static_cast<uint8_t>(p[0]) |
               static_cast<uint64_t>(static_cast<uint8_t>(p[n / 2])) << 8 |
               static_cast<uint64_t>(static_cast<uint8_t>(p[n - 1])) << 16;
  }
  return key;
}

uint64_t Hash(const Key& key, std::string_view text) {
  uint64_t h = Mix(key.head ^ key.len);
  h = Mix(h ^ key.tail);
  // Longer texts also hash their middle.
  for (size_t i = 8; i + 8 < text.size(); i += 8) {
    h = Mix(h ^ Load64(&text[i]));
  }
  return h;
}

// The interning table: texts by id, plus an open-addressing index whose
// slots carry each text's key, so a lookup of a short text touches one
// slot and no stored text.
class Table {
 public:
  Table() {
    texts_.emplace_back();
    views_.emplace_back();
    slots_.resize(1024);
    Publish();
  }

  uint32_t Intern(std::string_view text) {
    if (text.empty()) return 0;
    const Key key = MakeKey(text);
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key, text) & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.key.len == 0) return Add(text, key, i);
      if (slot.key.head == key.head && slot.key.tail == key.tail &&
          slot.key.len == key.len &&
          (key.len <= kInlineLen || views_[slot.id] == text)) {
        return slot.id;
      }
    }
  }

  const std::string& text(uint32_t id) const { return texts_[id]; }

 private:
  struct Slot {
    Key key{0, 0, 0};  // len 0: free
    uint32_t id = 0;
  };

  uint32_t Add(std::string_view text, const Key& key, size_t slot) {
    SPONGE_CHECK(views_.size() < UINT32_MAX) << "symbol table full";
    const uint32_t id = static_cast<uint32_t>(views_.size());
    views_.push_back(texts_.emplace_back(text));
    slots_[slot] = Slot{key, id};
    // Keep at most half the slots used, so probe runs stay short.
    if (2 * views_.size() > slots_.size()) Grow();
    Publish();
    return id;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(2 * old.size(), Slot{});
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.key.len == 0) continue;
      size_t i = Hash(slot.key, views_[slot.id]) & mask;
      while (slots_[i].key.len != 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  void Publish() { symbol_internal::views = views_.data(); }

  std::deque<std::string> texts_;  // stable addresses: views_ point here
  std::vector<std::string_view> views_;
  std::vector<Slot> slots_;  // a power of two
};

// Built on first use and never destroyed, so symbols held in statics stay
// readable during exit.
Table& GetTable() {
  static Table* table = new Table();
  return *table;
}

}  // namespace

Symbol::Symbol(std::string_view text) : id_(GetTable().Intern(text)) {}

const std::string& Symbol::str() const { return GetTable().text(id_); }

std::ostream& operator<<(std::ostream& os, Symbol symbol) {
  return os << symbol.view();
}

}  // namespace spongefiles::mapred

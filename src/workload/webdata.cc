#include "workload/webdata.h"

#include <algorithm>
#include <charconv>
#include <string_view>

namespace spongefiles::workload {

namespace {
constexpr uint64_t kSplitBytes = cluster::Dfs::kBlockSize;  // 128 MB

// "term<rank>" of every rank below `vocabulary`, interned. A term's text
// depends only on its rank and symbols live as long as the process, so
// one table serves every dataset, and a dataset after the first interns
// nothing (a benchmark run builds one per replay).
const std::vector<mapred::Symbol>& TermSymbols(size_t vocabulary) {
  static std::vector<mapred::Symbol> terms;
  char term[32] = "term";
  for (size_t rank = terms.size(); rank < vocabulary; ++rank) {
    char* end = std::to_chars(term + 4, term + sizeof(term), rank).ptr;
    terms.emplace_back(std::string_view(term, end - term));
  }
  return terms;
}
}  // namespace

std::string WebDataset::DomainName(size_t rank) {
  return "domain" + std::to_string(rank) + ".com";
}

std::string WebDataset::LanguageName(size_t index) {
  if (index == 0) return "english";
  static const char* kNames[] = {"french",  "german",   "spanish",
                                 "italian", "japanese", "korean",
                                 "arabic",  "hindi",    "dutch"};
  if (index - 1 < sizeof(kNames) / sizeof(kNames[0])) {
    return kNames[index - 1];
  }
  return "lang" + std::to_string(index);
}

WebDataset::WebDataset(cluster::Dfs* dfs, std::string name,
                       const WebDatasetConfig& config)
    : dfs_(dfs),
      name_(std::move(name)),
      config_(config),
      term_symbols_(TermSymbols(config.vocabulary)) {
  domain_sampler_ = std::make_shared<ZipfSampler>(config.num_domains,
                                                  config.domain_zipf);
  term_sampler_ =
      std::make_shared<ZipfSampler>(config.vocabulary, config.term_zipf);
  for (size_t rank = 0; rank < config.num_domains; ++rank) {
    domain_symbols_.emplace_back(DomainName(rank));
  }
  for (size_t index = 0; index < config.num_languages; ++index) {
    language_symbols_.emplace_back(LanguageName(index));
  }
  records_per_split_ = kSplitBytes / config.record_size;
  uint64_t total_records = config.total_bytes / config.record_size;
  num_splits_ = static_cast<size_t>(
      (total_records + records_per_split_ - 1) / records_per_split_);
  (void)dfs_->CreateFile(name_, static_cast<uint64_t>(num_splits_) *
                                    kSplitBytes);
}

std::vector<mapred::Record> WebDataset::GenerateSplit(size_t index) const {
  Rng rng(config_.seed * 1000003 + index);
  std::vector<mapred::Record> records;
  records.reserve(records_per_split_);
  for (uint64_t i = 0; i < records_per_split_; ++i) {
    mapred::Record page;
    size_t domain = domain_sampler_->Sample(rng);
    size_t language;
    if (rng.NextDouble() < config_.english_fraction) {
      language = 0;
    } else {
      language = 1 + rng.Uniform(config_.num_languages - 1);
    }
    page.fields.reserve(2 + config_.terms_per_page);
    page.fields.push_back(domain_symbols_[domain]);
    page.fields.push_back(language_symbols_[language]);
    for (size_t t = 0; t < config_.terms_per_page; ++t) {
      page.fields.push_back(term_symbols_[term_sampler_->Sample(rng)]);
    }
    page.number = rng.NextDouble();  // spam score
    page.size = config_.record_size;
    records.push_back(std::move(page));
  }
  return records;
}

std::vector<mapred::InputSplit> WebDataset::Splits() {
  std::vector<mapred::InputSplit> splits;
  splits.reserve(num_splits_);
  for (size_t s = 0; s < num_splits_; ++s) {
    mapred::InputSplit split;
    split.dfs_file = name_;
    split.offset = s * kSplitBytes;
    split.bytes = kSplitBytes;
    const WebDataset* self = this;
    split.generate = [self, s]() { return self->GenerateSplit(s); };
    splits.push_back(std::move(split));
  }
  return splits;
}

NumbersDataset::NumbersDataset(cluster::Dfs* dfs, std::string name,
                               const NumbersDatasetConfig& config)
    : dfs_(dfs), name_(std::move(name)), config_(config) {
  records_per_split_ = kSplitBytes / config.record_size;
  num_splits_ = static_cast<size_t>(
      (config.count + records_per_split_ - 1) / records_per_split_);
  (void)dfs_->CreateFile(name_, static_cast<uint64_t>(num_splits_) *
                                    kSplitBytes);
}

std::vector<mapred::InputSplit> NumbersDataset::Splits() {
  std::vector<mapred::InputSplit> splits;
  splits.reserve(num_splits_);
  for (size_t s = 0; s < num_splits_; ++s) {
    mapred::InputSplit split;
    split.dfs_file = name_;
    split.offset = s * kSplitBytes;
    split.bytes = kSplitBytes;
    uint64_t first = s * records_per_split_;
    uint64_t last = std::min(config_.count, first + records_per_split_);
    uint64_t record_size = config_.record_size;
    uint64_t count = config_.count;
    uint64_t seed = config_.seed;
    split.generate = [first, last, record_size, count, seed]() {
      std::vector<mapred::Record> records;
      records.reserve(last - first);
      // A value permutation via an affine bijection modulo a prime
      // p >= count, with cycle walking back into [0, count): every value
      // 0..count-1 appears exactly once, in scattered order. Falls back to
      // the identity for counts beyond the prime.
      constexpr uint64_t kPrime = 1000003;
      const uint64_t a = 48271 + seed % 1000;  // < p, nonzero
      const uint64_t c = seed % kPrime;
      for (uint64_t i = first; i < last; ++i) {
        mapred::Record r;
        uint64_t x = i;
        if (count <= kPrime) {
          do {
            x = static_cast<uint64_t>(
                (static_cast<unsigned __int128>(x) * a + c) % kPrime);
          } while (x >= count);
        }
        r.number = static_cast<double>(x);
        r.size = record_size;
        records.push_back(std::move(r));
      }
      return records;
    };
    splits.push_back(std::move(split));
  }
  return splits;
}

ScanDataset::ScanDataset(cluster::Dfs* dfs, std::string name,
                         uint64_t total_bytes)
    : name_(std::move(name)), total_bytes_(total_bytes) {
  (void)dfs->CreateFile(name_, total_bytes);
}

std::vector<mapred::InputSplit> ScanDataset::Splits() {
  std::vector<mapred::InputSplit> splits;
  uint64_t offset = 0;
  while (offset < total_bytes_) {
    mapred::InputSplit split;
    split.dfs_file = name_;
    split.offset = offset;
    split.bytes = std::min(kSplitBytes, total_bytes_ - offset);
    splits.push_back(std::move(split));
    offset += split.bytes;
  }
  return splits;
}

}  // namespace spongefiles::workload

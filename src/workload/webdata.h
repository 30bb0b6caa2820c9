#ifndef SPONGEFILES_WORKLOAD_WEBDATA_H_
#define SPONGEFILES_WORKLOAD_WEBDATA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/dfs.h"
#include "common/random.h"
#include "mapred/job.h"

namespace spongefiles::workload {

// Synthetic stand-in for the paper's 10 GB web-crawl sample: complete
// samples of 100 domains with the largest domain scaled up to its real
// size (~30% of the data), a skewed language mix dominated by English,
// Zipf-distributed anchortext terms, and uniform spam scores. Each page
// record carries `record_size` logical bytes (URL + metadata + anchortext
// of a real crawl row).
//
// Record layout: fields[0] = domain, fields[1] = language,
// fields[2..] = anchortext terms, number = spam score in [0, 1).
struct WebDatasetConfig {
  uint64_t total_bytes = 10ull * 1024 * 1024 * 1024;
  uint64_t record_size = 10ull * 1024;
  size_t num_domains = 100;
  double domain_zipf = 1.3;  // rank-1 domain holds ~30% of the pages
  // Language mix: english dominates (the straggling anchortext group).
  double english_fraction = 0.6;
  size_t num_languages = 10;
  size_t vocabulary = 20000;
  double term_zipf = 1.0;
  size_t terms_per_page = 6;
  uint64_t seed = 2014;
};

// An InputFormat whose splits deterministically synthesize page records;
// the backing DFS file provides IO timing and map placement.
class WebDataset : public mapred::InputFormat {
 public:
  // Creates the DFS file `name` (total_bytes) and prepares split metadata.
  WebDataset(cluster::Dfs* dfs, std::string name,
             const WebDatasetConfig& config);

  std::vector<mapred::InputSplit> Splits() override;

  // Name of the rank-`rank` domain (rank 0 is the giant one).
  static std::string DomainName(size_t rank);
  static std::string LanguageName(size_t index);  // 0 is "english"

  const WebDatasetConfig& config() const { return config_; }
  uint64_t records_per_split() const { return records_per_split_; }
  size_t num_splits() const { return num_splits_; }

  // Generates one split's records (used by Splits(); exposed for tests).
  std::vector<mapred::Record> GenerateSplit(size_t index) const;

 private:
  cluster::Dfs* dfs_;
  std::string name_;
  WebDatasetConfig config_;
  std::shared_ptr<ZipfSampler> domain_sampler_;
  std::shared_ptr<ZipfSampler> term_sampler_;
  // DomainName and LanguageName of every rank and index, interned once.
  std::vector<mapred::Symbol> domain_symbols_;
  std::vector<mapred::Symbol> language_symbols_;
  // "term<rank>" by Zipf rank, at least `vocabulary` long; one table shared
  // by every dataset, living as long as the process.
  const std::vector<mapred::Symbol>& term_symbols_;
  uint64_t records_per_split_ = 0;
  size_t num_splits_ = 0;
};

// The median job's input: `count` numbers, each carried by a record of
// `record_size` logical bytes. Values are a deterministic permutation so
// the exact median is known: with count = 2k+1 values 0..2k, the median is
// k.
struct NumbersDatasetConfig {
  uint64_t count = 1000001;
  uint64_t record_size = 10ull * 1024;
  uint64_t seed = 99;
};

class NumbersDataset : public mapred::InputFormat {
 public:
  NumbersDataset(cluster::Dfs* dfs, std::string name,
                 const NumbersDatasetConfig& config);

  std::vector<mapred::InputSplit> Splits() override;

  double expected_median() const {
    return static_cast<double>((config_.count - 1) / 2);
  }
  const NumbersDatasetConfig& config() const { return config_; }

 private:
  cluster::Dfs* dfs_;
  std::string name_;
  NumbersDatasetConfig config_;
  uint64_t records_per_split_ = 0;
  size_t num_splits_ = 0;
};

// A pure scan input for the background grep job: `total_bytes` of data,
// no records (the map function only reads).
class ScanDataset : public mapred::InputFormat {
 public:
  ScanDataset(cluster::Dfs* dfs, std::string name, uint64_t total_bytes);

  std::vector<mapred::InputSplit> Splits() override;

 private:
  std::string name_;
  uint64_t total_bytes_;
};

}  // namespace spongefiles::workload

#endif  // SPONGEFILES_WORKLOAD_WEBDATA_H_

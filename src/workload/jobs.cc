#include "workload/jobs.h"

namespace spongefiles::workload {

namespace {

// The classic MapReduce exact-median plan: the map phase emits each value
// as its own (zero-padded, hence lexicographically numeric) key, the
// framework's sort/merge delivers values to the single reduce task in
// order, and the reducer streams to the middle element. The total count
// comes from the map phase's record counter (a stock Hadoop feature), so
// no reduce-side buffering is needed — the only spilling is the
// framework's own shuffle/merge spilling, which is exactly what Table 2
// reports (spilled bytes ~= input bytes for the SpongeFile run).
class StreamingMedianReducer : public mapred::Reducer {
 public:
  explicit StreamingMedianReducer(uint64_t total_count)
      : target_((total_count == 0 ? 0 : total_count - 1) / 2) {}

  sim::Task<Status> StartKey(std::string key) override {
    (void)key;
    co_return Status::OK();
  }
  bool AddValue(mapred::Record value) override {
    if (index_ == target_) median_ = value.number;
    ++index_;
    return false;
  }
  sim::Task<Status> FinishKey() override { co_return Status::OK(); }
  sim::Task<Status> Finish() override {
    mapred::Record out;
    out.key = "median";
    out.number = median_;
    ctx_->output->push_back(std::move(out));
    co_return Status::OK();
  }

 private:
  uint64_t target_;
  uint64_t index_ = 0;
  double median_ = 0;
};

std::string PaddedKey(double number) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020llu",
                static_cast<unsigned long long>(number));
  return buf;
}

}  // namespace

mapred::JobConfig MakeMedianJob(NumbersDataset* input,
                                mapred::SpillMode spill_mode) {
  mapred::JobConfig config;
  config.name = "median";
  config.input = input;
  config.num_reducers = 1;
  config.spill_mode = spill_mode;
  config.map_fn = [](mapred::Record in, std::vector<mapred::Record>* out) {
    in.key = PaddedKey(in.number);
    out->push_back(std::move(in));
  };
  uint64_t count = input->config().count;
  config.reducer_factory = [count] {
    return std::make_unique<StreamingMedianReducer>(count);
  };
  return config;
}

mapred::JobConfig MakeAnchortextJob(WebDataset* input,
                                    mapred::SpillMode spill_mode, size_t k,
                                    int num_reducers,
                                    uint64_t projected_size) {
  pig::GroupByQuery query;
  query.name = "frequent-anchortext";
  query.input = input;
  query.num_reducers = num_reducers;
  query.spill_mode = spill_mode;
  query.group_key = [](const mapred::Record& page) {
    return page.fields[1];  // language
  };
  query.project = [projected_size](const mapred::Record& page) {
    // Keep only the anchortext terms; drop the bulky crawl metadata.
    mapred::Record out;
    out.fields.assign(page.fields.begin() + 2, page.fields.end());
    out.size = projected_size;
    return out;
  };
  query.udf_factory = [k] { return std::make_unique<pig::TopKUdf>(k); };
  mapred::JobConfig config = pig::Compile(query);
  // Pig's interpreted tuple pipeline costs far more CPU per record than
  // the raw MapReduce path; with realistic per-tuple costs the SpongeFile
  // prefetch/async machinery gets computation to overlap transfers with
  // (section 3.1.2).
  config.map_cpu_per_record = Micros(30);
  config.reduce_cpu_per_record = Micros(60);
  // English is by far the largest group; give it a reduce of its own (the
  // paper's straggling reduce) and spread the rest.
  config.partitioner = [](const mapred::Record& record, int reducers) {
    if (record.key == "english") return size_t{0};
    uint64_t h = 1469598103934665603ull;
    for (char c : record.key) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
    if (reducers <= 1) return size_t{0};
    return static_cast<size_t>(
        1 + h % static_cast<uint64_t>(reducers - 1));
  };
  return config;
}

mapred::JobConfig MakeSpamQuantilesJob(WebDataset* input,
                                       mapred::SpillMode spill_mode,
                                       int num_reducers) {
  pig::GroupByQuery query;
  query.name = "spam-quantiles";
  query.input = input;
  query.num_reducers = num_reducers;
  query.spill_mode = spill_mode;
  query.group_key = [](const mapred::Record& page) {
    return page.fields[0];  // domain
  };
  // Deliberately no projection: the full crawl row rides along.
  query.udf_factory = [] {
    return std::make_unique<pig::SpamQuantilesUdf>();
  };
  mapred::JobConfig config = pig::Compile(query);
  config.map_cpu_per_record = Micros(30);
  config.reduce_cpu_per_record = Micros(60);
  std::string giant = WebDataset::DomainName(0);
  config.partitioner = [giant](const mapred::Record& record, int reducers) {
    if (record.key == giant) return size_t{0};
    uint64_t h = 1469598103934665603ull;
    for (char c : record.key) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
    if (reducers <= 1) return size_t{0};
    return static_cast<size_t>(
        1 + h % static_cast<uint64_t>(reducers - 1));
  };
  return config;
}

mapred::JobConfig MakeGrepJob(ScanDataset* input,
                              std::shared_ptr<bool> cancel,
                              double task_cpu_seconds) {
  mapred::JobConfig config;
  config.name = "grep";
  config.input = input;
  config.map_fn = [](const mapred::Record&, std::vector<mapred::Record>*) {};
  config.cancel = std::move(cancel);
  // The per-task CPU comes from scanning its 128 MB split.
  config.map_scan_bandwidth =
      128.0 * 1024 * 1024 / task_cpu_seconds;
  return config;
}

}  // namespace spongefiles::workload

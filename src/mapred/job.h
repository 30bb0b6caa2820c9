#ifndef SPONGEFILES_MAPRED_JOB_H_
#define SPONGEFILES_MAPRED_JOB_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "mapred/record.h"
#include "mapred/spill.h"
#include "sim/engine.h"
#include "sim/task.h"
#include "sponge/sponge_env.h"

namespace spongefiles::mapred {

// Batches simulated CPU time so a million-record pass does not cost a
// million engine events: debt accumulates and is slept off in >= 1 ms
// slices.
class CpuMeter {
 public:
  explicit CpuMeter(sim::Engine* engine) : engine_(engine) {}

  // Awaitable: adds `cost` to the debt. Ready at once (no suspension, no
  // coroutine frame) while the debt stays under 1 ms; once it reaches
  // 1 ms the caller sleeps off the whole debt in one engine event.
  auto Charge(Duration cost) {
    struct [[nodiscard]] Awaiter {
      CpuMeter* meter;
      bool await_ready() const { return meter->debt_ < kMillisecond; }
      void await_suspend(std::coroutine_handle<> h) {
        sim::Engine* engine = meter->engine_;
        engine->ScheduleHandle(engine->now() + meter->debt_, h);
        meter->debt_ = 0;
      }
      void await_resume() const {}
    };
    debt_ += cost;
    total_ += cost;
    return Awaiter{this};
  }
  sim::Task<> Flush();

  Duration total_charged() const { return total_; }

 private:
  sim::Engine* engine_;
  Duration debt_ = 0;
  Duration total_ = 0;
};

// One parallel slice of a job's input. `generate` deterministically
// synthesizes the split's records (the DFS provides read timing; record
// payloads come from the workload generators — see DESIGN.md).
struct InputSplit {
  std::string dfs_file;
  uint64_t offset = 0;
  uint64_t bytes = 0;
  std::function<std::vector<Record>()> generate;
};

class InputFormat {
 public:
  virtual ~InputFormat() = default;
  virtual std::vector<InputSplit> Splits() = 0;
};

// A map function consumes its input row: the task hands each record over
// by value (moved), so a map that forwards the row moves it into `out`
// instead of copying it. A function taking `const Record&` still fits.
using MapFn = std::function<void(Record in, std::vector<Record>* out)>;

// Everything a reducer may touch while running: the task's spiller (Pig
// bags spill through it, so their spills land on whatever medium the
// experiment selects), CPU meter, memory budget, and the job output sink.
struct ReduceContext {
  sim::Engine* engine = nullptr;
  Spiller* spiller = nullptr;
  sponge::TaskContext* task = nullptr;
  CpuMeter* cpu = nullptr;
  std::vector<Record>* output = nullptr;
  uint64_t heap_bytes = 0;
};

// Streaming reduce interface: values of one key arrive one at a time
// between StartKey and FinishKey. Holistic functions (median, quantiles,
// top-k) buffer internally — through a spillable DataBag in the Pig layer.
class Reducer {
 public:
  virtual ~Reducer() = default;

  virtual sim::Task<Status> Start(ReduceContext* ctx) {
    ctx_ = ctx;
    co_return Status::OK();
  }
  virtual sim::Task<Status> StartKey(std::string key) = 0;
  // Adds one value of the current key without suspending. Returns true
  // when the reducer is now over its memory budget; the caller then
  // awaits Spill() before the next value. Only that slow path costs a
  // coroutine frame (the DataBag::Push pattern).
  virtual bool AddValue(Record value) = 0;
  virtual sim::Task<Status> Spill() { co_return Status::OK(); }
  virtual sim::Task<Status> FinishKey() = 0;
  virtual sim::Task<Status> Finish() { co_return Status::OK(); }

 protected:
  ReduceContext* ctx_ = nullptr;
};

// Speculative execution (Hadoop's backup tasks, the tail-latency half of
// the paper's recovery story): the JobTracker samples every attempt's
// progress each check_period and launches a backup for a task whose best
// attempt lags the wave's median progress by kLagFactor (2x, at most
// kMaxBackupsPerTask = 1 backup per task; both in job_tracker.cc),
// provided the attempt has run at least min_attempt_age (young tasks have
// noisy progress) and a slot is free on some other node. First attempt to
// commit wins; the loser is killed and deregistered, so its sponge chunks
// are reclaimed by the ordinary dead-task GC.
struct SpeculationConfig {
  bool enabled = false;
  Duration check_period = Seconds(1);
  Duration min_attempt_age = Seconds(5);
};

struct JobConfig {
  std::string name = "job";
  InputFormat* input = nullptr;
  MapFn map_fn;  // null: identity map
  std::function<std::unique_ptr<Reducer>()> reducer_factory;  // null: map-only
  int num_reducers = 1;
  SpillMode spill_mode = SpillMode::kDisk;
  std::function<size_t(const Record&, int)> partitioner;  // default: key hash

  // Hadoop knobs from section 2.1.2 (logical bytes).
  uint64_t io_sort_mb = 128ull * 1024 * 1024;       // map sort buffer
  double shuffle_buffer_fraction = 0.70;            // of reduce heap
  double reduce_retain_fraction = 0.0;              // kept in memory after merge
  // Per-job reduce JVM heap; 0 uses the node's slot default. (Figure 6's
  // "no spilling" configuration gives the single reduce a 12 GB heap.)
  uint64_t reduce_heap_bytes = 0;

  // CPU cost model.
  Duration map_cpu_per_record = Micros(2);
  double map_scan_bandwidth = 500.0 * 1024 * 1024;  // input bytes/second
  Duration reduce_cpu_per_record = Micros(2);

  int max_attempts = 4;
  SpeculationConfig speculation;
  // Per-job reduce pinning: partition -> node (benches use this to place
  // the straggling reduce deterministically). Part of the job, not the
  // shared tracker, so concurrent jobs cannot inherit each other's pins.
  std::vector<std::pair<size_t, size_t>> reduce_pins;
  // Delay scheduling (the locality technique the paper's production
  // clusters run): a map task waits up to this long for a slot on the
  // node holding its DFS block before accepting any free slot elsewhere
  // (paying a remote block read). 0 disables relaxation: tasks always
  // run data-local.
  Duration locality_wait = Seconds(5.0);
  // Cooperative cancellation: when *cancel becomes true, unstarted tasks
  // are skipped and running ones abort at their next checkpoint (used to
  // stop the background contention job once the measured job finishes).
  std::shared_ptr<bool> cancel;

  bool cancelled() const { return cancel != nullptr && *cancel; }
};

struct TaskStats {
  size_t node = 0;
  Duration runtime = 0;
  uint64_t input_bytes = 0;
  uint64_t input_records = 0;
  SpillStats spill;
  int attempts = 1;        // attempts launched for the logical task
  bool completed = true;   // false: cancelled
  bool data_local = true;  // ran on its preferred node (a map: its block's)
  bool speculative = false;  // a backup attempt produced this result
};

struct JobResult {
  Duration runtime = 0;
  std::vector<TaskStats> map_tasks;
  std::vector<TaskStats> reduce_tasks;
  std::vector<Record> output;

  // The longest-running reduce task (the straggler whose runtime dominates
  // the job, per section 4.2.3). Null for map-only jobs.
  const TaskStats* straggler() const;
};

}  // namespace spongefiles::mapred

#endif  // SPONGEFILES_MAPRED_JOB_H_

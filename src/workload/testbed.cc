#include "workload/testbed.h"

#include <algorithm>

#include "common/logging.h"

namespace spongefiles::workload {

namespace {

sim::Task<> SweepInto(sponge::SpongeEnv* env,
                      std::shared_ptr<std::optional<uint64_t>> leaked) {
  *leaked = co_await env->SweepAll();
}

}  // namespace

Testbed::Testbed(const TestbedConfig& config) {
  cluster::ClusterConfig cc;
  cc.num_nodes = config.num_nodes;
  cc.nodes_per_rack = config.nodes_per_rack;
  if (config.oversubscription > 0) {
    cc.network.cross_rack_bandwidth =
        static_cast<double>(config.nodes_per_rack) * cc.network.bandwidth /
        config.oversubscription;
  }
  cc.node.physical_memory = config.node_memory;
  cc.node.map_slots = 2;
  cc.node.reduce_slots = 1;
  cc.node.heap_per_slot = config.heap_per_slot;
  cc.node.sponge_memory = config.sponge_memory;
  cc.node.pinned_memory = config.pinned_memory;
  cc.node.ssd = config.ssd;
  cluster_ = std::make_unique<cluster::Cluster>(&engine_, cc);
  dfs_ = std::make_unique<cluster::Dfs>(cluster_.get());
  env_ = std::make_unique<sponge::SpongeEnv>(cluster_.get(), dfs_.get(),
                                             config.sponge);
  tracker_ = std::make_unique<mapred::JobTracker>(env_.get(), dfs_.get());
  // Tracker polls and GC loops run for the testbed's lifetime; the 10 ms
  // run lets the first poll build the free list before any job runs.
  env_->StartServices();
  engine_.RunUntil(engine_.now() + Millis(10));
}

Testbed::~Testbed() {
  // Reclaim the service loops (tracker polls, GC sweeps) and any frames
  // parked on hung servers while the cluster objects they reference are
  // still alive; the engine member itself is destroyed last.
  engine_.DrainDetached();
}

Result<mapred::JobResult> Testbed::RunJob(
    mapred::JobConfig config, std::optional<mapred::JobConfig> background,
    std::vector<mapred::TaskStats>* background_tasks) {
  Result<mapred::JobResult> result = mapred::JobResult{};
  bool main_done = false;
  bool background_done = !background.has_value();

  std::shared_ptr<bool> background_cancel;
  if (background.has_value()) {
    if (!background->cancel) {
      background->cancel = std::make_shared<bool>(false);
    }
    background_cancel = background->cancel;
  }

  auto run_main = [](Testbed* bed, mapred::JobConfig job,
                     Result<mapred::JobResult>* out, bool* done,
                     std::shared_ptr<bool> cancel_background) -> sim::Task<> {
    *out = co_await bed->tracker().Run(std::move(job));
    *done = true;
    if (cancel_background != nullptr) *cancel_background = true;
  };
  auto run_background = [](Testbed* bed, mapred::JobConfig job,
                           std::vector<mapred::TaskStats>* tasks,
                           bool* done) -> sim::Task<> {
    auto finished = co_await bed->tracker().Run(std::move(job));
    if (finished.ok() && tasks != nullptr) {
      for (auto& stats : finished->map_tasks) {
        if (stats.completed) tasks->push_back(stats);
      }
    }
    *done = true;
  };

  engine_.Spawn(run_main(this, std::move(config), &result, &main_done,
                         background_cancel));
  if (background.has_value()) {
    // Submitted right after the measured job, so its tasks fill whatever
    // slots the measured job leaves idle.
    engine_.Spawn(run_background(this, std::move(*background),
                                 background_tasks, &background_done));
  }
  // The sponge services (tracker polls, GC sweeps) run forever, so the
  // event queue never drains; advance time until both jobs finish.
  const SimTime deadline = engine_.now() + Minutes(24 * 60.0);
  while (!(main_done && background_done)) {
    SPONGE_CHECK(engine_.now() < deadline) << "job exceeded one day";
    engine_.RunUntil(engine_.now() + Seconds(10));
  }
  return result;
}

std::optional<uint64_t> Testbed::SettleAndSweep(SimTime settle_at) {
  engine_.RunUntil(settle_at);
  // Shared with the sweep: an unfinished one still holds it when this
  // returns.
  auto leaked = std::make_shared<std::optional<uint64_t>>();
  engine_.Spawn(SweepInto(env_.get(), leaked));
  engine_.RunUntil(engine_.now() + Seconds(10));
  return *leaked;
}

ChaosMedianRun RunChaosMedian(const TestbedConfig& bed_config,
                              const sponge::ChaosOptions& chaos,
                              uint64_t seed) {
  Testbed bed(bed_config);
  NumbersDatasetConfig data;
  data.count = 50001;
  NumbersDataset numbers(&bed.dfs(), "nums", data);
  sponge::FailureInjector injector(&bed.env(), seed);
  injector.ScheduleChaos(chaos);

  auto job = MakeMedianJob(&numbers, mapred::SpillMode::kSponge);
  job.speculation.enabled = true;
  job.speculation.check_period = Seconds(1);
  job.speculation.min_attempt_age = Seconds(3);
  auto result = bed.RunJob(std::move(job));

  ChaosMedianRun run;
  run.status = result.status();
  if (!result.ok()) return run;
  run.runtime = result->runtime;
  run.output = result->output;
  run.correct = run.output.size() == 1 &&
                run.output[0].number == numbers.expected_median();
  run.schedule = injector.schedule();
  for (const auto& task : result->map_tasks) {
    run.spilled_bytes += task.spill.bytes_spilled;
  }
  for (const auto& task : result->reduce_tasks) {
    run.spilled_bytes += task.spill.bytes_spilled;
  }
  run.leaked_chunks = bed.SettleAndSweep(
      std::max(bed.engine().now(), chaos.horizon) + Seconds(10));
  run.events = bed.engine().events_processed();
  run.now = bed.engine().now();
  return run;
}

}  // namespace spongefiles::workload

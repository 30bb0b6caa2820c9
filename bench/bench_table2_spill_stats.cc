// Table 2: statistics about the straggling reduce task of each job when
// spilling to SpongeFiles, plus the section-4.2.3 fragmentation analysis.
//
//   | job                 | input  | spilled | chunks | (paper)
//   | Median              | 10 GB  | 10.3 GB | 10527  |
//   | Frequent Anchortext | 2.5 GB |  7.2 GB |  7383  |
//   | Spam Quantiles      | 3 GB   | 10.2 GB | 10478  |
//
// Internal fragmentation (chunk slots larger than the bytes stored in
// them) must stay well below 1%.
//
// The bench also cross-checks the observability subsystem: the registry's
// per-medium sponge.spill.bytes counters must agree exactly with the
// SpillStats the tasks themselves accumulated.

#include <cstdio>

#include "bench_util.h"

using namespace spongefiles;
using namespace spongefiles::bench;

int main(int argc, char** argv) {
  ObsOptions obs_options = ParseObsFlags(argc, argv);
  std::printf(
      "Table 2: straggling reduce task statistics (SpongeFile spilling, "
      "16 GB nodes)\n\n");

  AsciiTable table({"Job", "Input", "Spilled", "Chunks", "frag %",
                    "paper (in/spill/chunks)"});
  const char* paper[] = {"10 GB / 10.3 GB / 10527",
                         "2.5 GB / 7.2 GB / 7383",
                         "3 GB / 10.2 GB / 10478"};
  int row = 0;
  double max_frag = 0;
  mapred::SpillStats all_jobs;  // summed over every task of every job
  bool answers_exact = true;     // every job finished with the right answer
  for (MacroJob job : {MacroJob::kMedian, MacroJob::kAnchortext,
                       MacroJob::kSpamQuantiles}) {
    MacroOptions options;
    MacroRun run = RunMacro(job, mapred::SpillMode::kSponge, options);
    answers_exact = answers_exact && run.correct;
    all_jobs.Add(run.total_spill);
    const auto& spill = run.straggler.spill;
    uint64_t memory_chunks =
        spill.sponge_chunks_local + spill.sponge_chunks_remote;
    double frag = memory_chunks == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(spill.fragmentation_bytes) /
                            static_cast<double>(memory_chunks * MiB(1));
    max_frag = std::max(max_frag, frag);
    table.AddRow({MacroJobName(job),
                  FormatBytes(run.straggler.input_bytes),
                  FormatBytes(spill.bytes_spilled),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(
                                spill.sponge_chunks)),
                  StrFormat("%.3f", frag), paper[row]});
    ++row;
  }
  table.Print();
  std::printf(
      "\nfragmentation check: %.3f%% worst case — the paper reports well "
      "below 1%% for 1 MB chunks.\n",
      max_frag);

  // Baseline contrast: the Median straggler spilling to disk instead. Its
  // 10 GB of dirty spill data on one node crosses the write-back threshold,
  // so this run exercises the disk write path the sponge runs above never
  // touch — the cluster.disk.bytes{op=write} counter reports the IO that
  // SpongeFiles kept off the disks.
  obs::Registry& registry = obs::Registry::Default();
  obs::Counter* disk_writes =
      registry.counter("cluster.disk.bytes", {{"op", "write"}});
  uint64_t disk_write_bytes_before = disk_writes->value();
  {
    MacroOptions options;
    MacroRun run = RunMacro(MacroJob::kMedian, mapred::SpillMode::kDisk,
                            options);
    all_jobs.Add(run.total_spill);  // adds zero sponge bytes
    std::printf(
        "\ndisk-spill baseline (Median): straggler spilled %s to local "
        "disk;\n  disks absorbed %s of write-back (vs none in the sponge "
        "runs above).\n",
        FormatBytes(run.straggler.spill.bytes_spilled).c_str(),
        FormatBytes(disk_writes->value() - disk_write_bytes_before).c_str());
  }

  // Cross-check the metrics registry against the tasks' own accounting.
  // Both sides count logical bytes on the same store path, so they must
  // match to the byte (no failed or cancelled tasks in this bench).
  struct {
    const char* medium;
    uint64_t expected;
  } media[] = {
      {"local-memory", all_jobs.sponge_bytes_local},
      {"remote-memory", all_jobs.sponge_bytes_remote},
      {"local-disk", all_jobs.sponge_bytes_disk},
      {"dfs", all_jobs.sponge_bytes_dfs},
  };
  bool agree = true;
  std::printf("\nmetrics cross-check (sponge.spill.bytes vs task stats):\n");
  for (const auto& m : media) {
    uint64_t counted =
        registry.counter("sponge.spill.bytes", {{"medium", m.medium}})
            ->value();
    bool ok = counted == m.expected;
    agree = agree && ok;
    std::printf("  %-14s registry=%llu tasks=%llu %s\n", m.medium,
                static_cast<unsigned long long>(counted),
                static_cast<unsigned long long>(m.expected),
                ok ? "OK" : "MISMATCH");
  }
  std::printf("metrics cross-check: %s\n", agree ? "PASS" : "FAIL");
  std::printf("job answers: %s\n",
              answers_exact ? "exact" : "WRONG (or a job failed)");

  WriteObsOutputs(obs_options);
  return agree && answers_exact ? 0 : 1;
}

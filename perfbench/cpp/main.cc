// Benchmark program: runs one workload in this process and prints one JSON
// line with its counts, checks and metrics.
//
//   cape_perfbench --workload analyst|serve|outofcore --seed N
//                  --seconds S --trace 0|1 --work-dir DIR
//
// With --trace 1 spans are recorded around every call into a layer, the
// per-layer metrics are derived from them, and the spans are written to
// DIR/trace-<workload>-<seed>.jsonl at exit. Exit status: 0 when every
// check passed, 1 when a check failed, 2 when the run could not complete.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"
#include "common/thread_pool.h"

namespace {

using perfbench::Options;

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      options->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--work-dir") {
      options->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() && options->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload analyst|serve|outofcore --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  // Start the shared worker pool now: its first use reads the CPU count
  // from /sys, which would otherwise land inside a timed phase's IO delta.
  cape::ThreadPool::Global();
  perfbench::Tracer tracer(options.trace);
  perfbench::Report report;
  try {
    if (options.workload == "analyst") {
      perfbench::RunAnalyst(options, &tracer, &report);
    } else if (options.workload == "serve") {
      perfbench::RunServe(options, &tracer, &report);
    } else if (options.workload == "outofcore") {
      perfbench::RunOutOfCore(options, &tracer, &report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
    if (tracer.enabled()) {
      perfbench::LayerMetricsFromSpans(tracer, &report);
      tracer.Write(options.work_dir + "/trace-" + options.workload + "-" +
                   std::to_string(options.seed) + ".jsonl");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", options.workload.c_str(), e.what());
    return 2;
  }
  for (const std::string& failure : report.failed_checks()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct() ? 0 : 1;
}

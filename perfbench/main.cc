// End-to-end benchmark of secure query serving. One process drives the
// program's public API for one workload and prints, as its last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <query_stream|subject_batch|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--data-dir <dir>]
//
// perfbench/run.py builds this binary and selects the metrics BENCHMARK.json
// names for the mode (end-to-end with --trace 0, per-layer with --trace 1).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string data_dir = ".bench_build/perfbench-data";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--data-dir") {
      data_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  perfbench::Report report;
  int rc = 0;
  if (args.workload == "query_stream") {
    rc = perfbench::RunQueryStream(args, &report);
  } else if (args.workload == "subject_batch") {
    rc = perfbench::RunSubjectBatch(args, &report);
  } else if (args.workload == "serve_mixed") {
    rc = perfbench::RunServeMixed(args, data_dir, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  std::printf("%s\n%s\n", report.DetailJson().c_str(),
              report.ResultJson().c_str());
  return 0;
}

// The benchmark's workloads. Each builds its inputs from args.seed, runs
// for args.seconds, checks every answer, fills `out`, and returns a process
// exit code (non-zero only when it could not run at all).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

int RunQueryStream(const Args& args, Report* out);
int RunSubjectBatch(const Args& args, Report* out);
int RunServeMixed(const Args& args, const std::string& data_dir, Report* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

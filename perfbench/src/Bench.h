//===- Bench.h - the cjpack end-to-end benchmark ---------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workloads, set-up, the measured loops, and the traced per-layer
/// probes. README.md in this directory explains each workload and
/// metric.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  /// Record spans and emit the per-layer metrics. Only the traced
  /// binary, which also counts allocations, sets this.
  bool Traced = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string SpansPath;
};

/// True when \p Name is one of the workloads.
bool isWorkload(const std::string &Name);

/// Runs one workload in the current directory, which receives the
/// archive files and the server socket. Prints progress lines and, as
/// the last line of standard output, the result document. Returns the
/// process exit code: 0 when a result was printed.
int runBenchmark(const RunOptions &Options);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H

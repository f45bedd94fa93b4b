//===- main.cpp - perfbench entry point -----------------------------------===//
//
// Part of cjpack. MIT license.
//
//   perfbench --workload NAME --seed N --seconds S [--spans FILE]
//
// Built twice: perfbench (end-to-end metrics) and perfbench_traced
// (PERFBENCH_TRACED: spans, allocation counts, and per-layer metrics).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

int main(int Argc, char **Argv) {
  perfbench::RunOptions Opt;
  Opt.Traced = PERFBENCH_TRACED;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc) {
      fprintf(stderr, "perfbench: missing value for %s\n", A.c_str());
      return 2;
    }
    const char *V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      Opt.Workload = V;
    } else if (A == "--seed") {
      Opt.Seed = std::strtoull(V, &End, 10);
    } else if (A == "--seconds") {
      Opt.Seconds = std::strtod(V, &End);
    } else if (A == "--spans") {
      Opt.SpansPath = V;
    } else {
      fprintf(stderr, "perfbench: unknown option %s\n", A.c_str());
      return 2;
    }
    if (End && (*End != '\0' || End == V)) {
      fprintf(stderr, "perfbench: bad number for %s: %s\n", A.c_str(), V);
      return 2;
    }
  }
  if (!perfbench::isWorkload(Opt.Workload) || !(Opt.Seconds > 0)) {
    fprintf(stderr, "usage: perfbench --workload "
                    "bulk-serial|bulk-sharded|serve-fetch --seed N "
                    "--seconds S [--spans FILE]\n");
    return 2;
  }
  return perfbench::runBenchmark(Opt);
}

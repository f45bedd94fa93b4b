//===- Harness.h - measurement plumbing for the cjpack benchmark -*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces of the benchmark that do not know about cjpack's codec:
/// percentile selection, the span recorder and its self-time rule,
/// allocation counters, cache hit/miss classification, and the result
/// report the runner prints as its last line.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "serve/ArchiveCache.h"
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary fixed origin.
double nowSec();

/// Median of \p Samples (mean of the two middle values for even counts).
/// Requires a non-empty input.
double median(std::vector<double> Samples);

/// Index of the nearest-rank percentile \p PerMille (500 = p50,
/// 990 = p99) in a sorted sample of size \p N: the smallest rank with
/// at least PerMille/1000 of the samples at or below it. Integer
/// arithmetic, so p99 of 1000 samples is exactly rank 990. Requires
/// N > 0 and 0 < PerMille <= 1000.
size_t percentileIndex(size_t N, unsigned PerMille);

/// Samples strictly above the percentile's rank. A reported percentile
/// needs at least MinSamplesBeyond of them.
inline size_t samplesBeyond(size_t N, unsigned PerMille) {
  return N - 1 - percentileIndex(N, PerMille);
}
inline constexpr size_t MinSamplesBeyond = 10;

/// Nearest-rank percentile of \p Samples. Requires a non-empty input.
double percentile(std::vector<double> Samples, unsigned PerMille);

/// One timed interval. Parent is an index into the recorder's spans,
/// or -1 for a root.
struct Span {
  std::string Name;
  double Start = 0;
  double End = 0;
  int32_t Parent = -1;
};

/// Records nested spans from one thread into memory. A disabled
/// recorder records nothing and costs one branch per span.
class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Opens a span under the innermost open span; returns its id
  /// (-1 when disabled).
  int32_t begin(std::string_view Name);
  /// Closes span \p Id, which must be the innermost open span.
  void end(int32_t Id);

  const std::vector<Span> &spans() const { return Spans; }

  /// Appends an already-closed span (tests build trees this way).
  int32_t add(Span S);

  /// Per span: its duration minus the part of its interval that its
  /// child spans cover (overlapping children are counted once).
  std::vector<double> selfTimes() const;

  /// Total self time per span name, in seconds.
  std::map<std::string, double> selfTimeByName() const;

  /// Writes every span, with its self time, as a JSON array.
  bool writeJson(const std::string &Path) const;

private:
  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

/// Closes a span when the scope ends.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &R, std::string_view Name)
      : Rec(R), Id(R.begin(Name)) {}
  ~ScopedSpan() { Rec.end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder &Rec;
  int32_t Id;
};

/// Allocation counters. They move only in the traced binary, whose
/// counting operator new calls noteAllocation; elsewhere they stay 0.
struct AllocCounts {
  uint64_t Count = 0;
  uint64_t Bytes = 0;
};
AllocCounts allocCounts();
void noteAllocation(size_t Bytes) noexcept;

/// What one unpack-class request did to the archive cache, read from
/// the stats before and after it (exact with a single client).
enum class FetchOutcome { Hit, Miss, Unclassified };
FetchOutcome classifyFetch(const cjpack::serve::CacheStats &Before,
                           const cjpack::serve::CacheStats &After);

/// Metric names: 1..64 of [A-Za-z0-9_.-], starting with a letter or
/// digit.
bool isValidMetricName(std::string_view Name);

/// Peak resident set size of this process in MB.
double peakRssMb();

/// The result line: correctness, operation counts, and named metrics.
class Report {
public:
  /// Adds metric \p Name. An invalid name or a non-finite value marks
  /// the report incorrect instead of printing a bad document.
  void metric(const std::string &Name, double Value, const std::string &Unit);

  /// Counts one operation; a failed one also prints \p What to stderr.
  void operation(bool Ok, const std::string &What = {});

  bool correct() const { return Correct && Failed == 0 && Attempted > 0; }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  void markIncorrect(const std::string &Why);

  /// The one-line JSON document.
  std::string json() const;

private:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Entry> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Correct = true;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H

//===- Harness.cpp - measurement plumbing for the cjpack benchmark --------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

namespace perfbench {

double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> Samples) {
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : (Samples[N / 2 - 1] + Samples[N / 2]) / 2;
}

size_t percentileIndex(size_t N, unsigned PerMille) {
  size_t Rank = (N * PerMille + 999) / 1000; // ceil(N * q), 1-based
  return Rank == 0 ? 0 : Rank - 1;
}

double percentile(std::vector<double> Samples, unsigned PerMille) {
  size_t K = percentileIndex(Samples.size(), PerMille);
  std::nth_element(Samples.begin(), Samples.begin() + K, Samples.end());
  return Samples[K];
}

int32_t SpanRecorder::begin(std::string_view Name) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = std::string(Name);
  S.Parent = Open.empty() ? -1 : Open.back();
  Spans.push_back(std::move(S));
  auto Id = static_cast<int32_t>(Spans.size() - 1);
  Open.push_back(Id);
  Spans.back().Start = nowSec();
  return Id;
}

void SpanRecorder::end(int32_t Id) {
  if (Id < 0)
    return;
  Spans[static_cast<size_t>(Id)].End = nowSec();
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

int32_t SpanRecorder::add(Span S) {
  Spans.push_back(std::move(S));
  return static_cast<int32_t>(Spans.size() - 1);
}

std::vector<double> SpanRecorder::selfTimes() const {
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[static_cast<size_t>(S.Parent)].emplace_back(S.Start, S.End);

  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &P = Spans[I];
    auto &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    // Length of the union of the children's intervals, clipped to P.
    double Covered = 0;
    double RunStart = 0, RunEnd = 0;
    bool InRun = false;
    for (auto [S, E] : Kids) {
      S = std::max(S, P.Start);
      E = std::min(E, P.End);
      if (E <= S)
        continue;
      if (InRun && S <= RunEnd) {
        RunEnd = std::max(RunEnd, E);
        continue;
      }
      if (InRun)
        Covered += RunEnd - RunStart;
      RunStart = S;
      RunEnd = E;
      InRun = true;
    }
    if (InRun)
      Covered += RunEnd - RunStart;
    Self[I] = (P.End - P.Start) - Covered;
  }
  return Self;
}

std::map<std::string, double> SpanRecorder::selfTimeByName() const {
  std::map<std::string, double> Out;
  std::vector<double> Self = selfTimes();
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Name] += Self[I];
  return Out;
}

bool SpanRecorder::writeJson(const std::string &Path) const {
  FILE *F = fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<double> Self = selfTimes();
  double Origin = Spans.empty() ? 0 : Spans.front().Start;
  fputs("[\n", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    fprintf(F,
            "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
            "\"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f}%s\n",
            I, S.Name.c_str(), S.Parent, S.Start - Origin, S.End - Origin,
            Self[I], I + 1 < Spans.size() ? "," : "");
  }
  fputs("]\n", F);
  return fclose(F) == 0;
}

namespace {
std::atomic<uint64_t> AllocCount{0};
std::atomic<uint64_t> AllocBytes{0};
} // namespace

AllocCounts allocCounts() {
  return {AllocCount.load(std::memory_order_relaxed),
          AllocBytes.load(std::memory_order_relaxed)};
}

void noteAllocation(size_t Bytes) noexcept {
  AllocCount.fetch_add(1, std::memory_order_relaxed);
  AllocBytes.fetch_add(Bytes, std::memory_order_relaxed);
}

FetchOutcome classifyFetch(const cjpack::serve::CacheStats &Before,
                           const cjpack::serve::CacheStats &After) {
  uint64_t Hits = After.Hits - Before.Hits;
  uint64_t Misses = After.Misses - Before.Misses;
  if (Hits == 1 && Misses == 0)
    return FetchOutcome::Hit;
  if (Hits == 0 && Misses == 1)
    return FetchOutcome::Miss;
  return FetchOutcome::Unclassified;
}

bool isValidMetricName(std::string_view Name) {
  if (Name.empty() || Name.size() > 64)
    return false;
  auto Alnum = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
           (C >= '0' && C <= '9');
  };
  if (!Alnum(Name.front()))
    return false;
  return std::all_of(Name.begin(), Name.end(), [&](char C) {
    return Alnum(C) || C == '_' || C == '.' || C == '-';
  });
}

double peakRssMb() {
  rusage Ru{};
  getrusage(RUSAGE_SELF, &Ru);
  return static_cast<double>(Ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  if (!isValidMetricName(Name) || !std::isfinite(Value)) {
    markIncorrect("bad metric '" + Name + "'");
    return;
  }
  Metrics.push_back({Name, Value, Unit});
}

void Report::operation(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    fprintf(stderr, "perfbench: failed: %s\n", What.c_str());
  }
}

void Report::markIncorrect(const std::string &Why) {
  Correct = false;
  fprintf(stderr, "perfbench: incorrect: %s\n", Why.c_str());
}

std::string Report::json() const {
  std::string Out = "{\"correct\": ";
  Out += correct() ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Entry &M = Metrics[I];
    char Buf[64];
    auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), M.Value);
    (void)Ec;
    Out += I ? ", " : "";
    Out += "\"" + M.Name + "\": {\"value\": " + std::string(Buf, End) +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

} // namespace perfbench

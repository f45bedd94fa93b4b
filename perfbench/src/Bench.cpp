//===- Bench.cpp - the cjpack end-to-end benchmark ------------------------===//
//
// Part of cjpack. MIT license.
//
// One run: set up the workload's corpus and archives (timed apart as
// setup_s), run one untimed warm-up pass, then spend the measured
// seconds on timed pack/unpack passes and on closed-loop unpack-class
// requests through an in-process cjpackd. Every output is checked
// against reference bytes; a mismatch is a failed operation. The
// traced run then calls each layer's public functions from outside,
// with spans around the calls, to split the work per layer.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Harness.h"
#include "classfile/Reader.h"
#include "classfile/Transform.h"
#include "classfile/Writer.h"
#include "corpus/Corpus.h"
#include "corpus/Rng.h"
#include "pack/ArchiveReader.h"
#include "pack/Packer.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "zip/Jar.h"
#include "zip/Zlib.h"
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sched.h>
#include <unordered_map>
#include <zlib.h>

using namespace cjpack;
using namespace cjpack::serve;

namespace perfbench {
namespace {

/// A workload: a corpus, how it is packed, and the fetch traffic.
struct WorkloadSpec {
  const char *Name;
  unsigned Classes;        ///< scaleBenchmark corpus size
  unsigned ClassesPerUnit; ///< classes per archive
  unsigned Shards;         ///< PackOptions::Shards of the timed passes
  /// Worker threads of the timed passes. Never above 2: with 4 threads
  /// on a 4-core machine the first sharded pass of a process sometimes
  /// ran in a slow mode 3-5x longer.
  unsigned Threads;
  /// The timed passes write v3 (indexed) archives, which are also the
  /// archives served. Otherwise the served archives are a v3 repack.
  bool Indexed;
  unsigned UnitsPerPass;  ///< archives packed and unpacked per pass
  double PassShare;       ///< share of the seconds spent on passes
  /// Fetch mix: 0 sends uniform requests over every class of every
  /// archive (all cache hits once warm). Otherwise nine requests in ten
  /// go to this many hot archives and every tenth goes round-robin
  /// through the rest.
  unsigned HotArchives;
  unsigned CachedArchives; ///< cache capacity in archives (0: all)
};

const WorkloadSpec Workloads[] = {
    {"bulk-serial", 1000, 1000, 1, 1, false, 1, 0.7, 0, 0},
    {"bulk-sharded", 1000, 1000, 4, 2, false, 1, 0.7, 0, 0},
    {"serve-fetch", 2048, 64, 2, 1, true, 8, 0.3, 4, 8},
};

/// Classes per shard of the served repack of the bulk corpus, so that
/// a cache miss costs one small shard as in serve-fetch.
constexpr unsigned ServedShardClasses = 64;
/// Threads that pack the served archives during set-up (the bytes do
/// not depend on it) and that handle server requests.
constexpr unsigned SetupThreads = 2;
constexpr unsigned ServerThreads = 2;
/// Set-up repetitions; setup_s is their median.
constexpr unsigned SetupReps = 3;
/// Timed pack/unpack passes per run, at least.
constexpr size_t MinPasses = 3;
/// Fetch samples per run, at least: p99 then has >= 10 beyond it.
constexpr size_t MinFetchSamples = 1000;
/// Length of one batch of fetches between timed passes.
constexpr double FetchBatchSec = 0.5;
/// Cold fetches the traced run forces on workloads whose mix has none.
constexpr size_t ForcedMisses = 1000;
/// Fresh readers the traced run opens for the reader probes.
constexpr size_t ReaderSamples = 64;

const WorkloadSpec *findWorkload(const std::string &Name) {
  for (const WorkloadSpec &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

/// One archive's worth of the corpus.
struct Unit {
  std::vector<NamedClass> Raw;     ///< as generated, debug info kept
  std::vector<ClassFile> Prepared; ///< stripped + canonical models
  std::vector<std::string> Names;  ///< internal class names
  /// writeClassFile of each prepared model, by internal name: what
  /// unpacking must restore byte for byte (§12).
  std::unordered_map<std::string, std::vector<uint8_t>> Reference;
  size_t RawBytes = 0;
  size_t SjarBytes = 0; ///< stripped jar of the same classes
  std::vector<uint8_t> Served; ///< v3 archive the server reads
  std::string ServedPath;
  /// Archive in the timed passes' format: the served archive when that
  /// is the same format, else the warm-up pass's output. Every pass
  /// must reproduce it.
  std::vector<uint8_t> Expected;
};

PackOptions passOptions(const WorkloadSpec &W) {
  PackOptions O;
  O.Shards = W.Shards;
  O.Threads = W.Threads;
  O.RandomAccessIndex = W.Indexed;
  return O;
}

UnpackOptions unpackOptions(const WorkloadSpec &W) {
  UnpackOptions O;
  O.Threads = W.Threads;
  return O;
}

bool writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  return static_cast<bool>(Out);
}

/// Generates the corpus, prepares it, measures the stripped-jar
/// baseline, and packs and writes the served archives.
Expected<std::vector<Unit>> setUp(const WorkloadSpec &W, uint64_t Seed) {
  CorpusSpec Spec = scaleBenchmark(W.Classes);
  Spec.Seed = Seed;
  std::vector<NamedClass> All = generateCorpus(Spec);
  if (All.size() != W.Classes)
    return Error::failure("corpus has " + std::to_string(All.size()) + " classes");

  std::vector<Unit> Units(W.Classes / W.ClassesPerUnit);
  for (size_t I = 0; I < All.size(); ++I)
    Units[I / W.ClassesPerUnit].Raw.push_back(std::move(All[I]));

  for (size_t K = 0; K < Units.size(); ++K) {
    Unit &U = Units[K];
    std::vector<NamedClass> Stripped;
    for (const NamedClass &C : U.Raw) {
      auto CF = parseClassFile(C.Data);
      if (!CF)
        return Error::failure(C.Name + ": " + CF.message());
      if (auto E = prepareForPacking(*CF))
        return Error::failure(C.Name + ": " + E.message());
      std::string Name(CF->thisClassName());
      Stripped.push_back({Name + ".class", writeClassFile(*CF)});
      U.Names.push_back(Name);
      U.RawBytes += C.Data.size();
      U.Prepared.push_back(std::move(*CF));
    }
    U.SjarBytes = buildJar(Stripped).size();
    for (size_t I = 0; I < Stripped.size(); ++I)
      U.Reference.emplace(U.Names[I], std::move(Stripped[I].Data));
    if (U.Reference.size() != U.Names.size())
      return Error::failure("duplicate class names in unit " + std::to_string(K));

    PackOptions Served = passOptions(W);
    Served.Threads = SetupThreads;
    if (!W.Indexed) {
      Served.RandomAccessIndex = true;
      Served.Shards = static_cast<unsigned>(
          (U.Prepared.size() + ServedShardClasses - 1) / ServedShardClasses);
    }
    auto Packed = packClasses(U.Prepared, Served);
    if (!Packed)
      return Error::failure("served pack: " + Packed.message());
    U.Served = std::move(Packed->Archive);
    if (W.Indexed)
      U.Expected = U.Served;
    U.ServedPath = "archive-" + std::to_string(K) + ".cjp";
    if (!writeFile(U.ServedPath, U.Served))
      return Error::failure("cannot write " + U.ServedPath);
  }
  return Units;
}

/// True when \p Restored is exactly \p U's reference classes.
bool matchesReference(const std::vector<NamedClass> &Restored,
                      const Unit &U) {
  if (Restored.size() != U.Reference.size())
    return false;
  for (const NamedClass &C : Restored) {
    std::string_view Name(C.Name);
    if (!Name.ends_with(".class"))
      return false;
    Name.remove_suffix(6);
    auto It = U.Reference.find(std::string(Name));
    if (It == U.Reference.end() || It->second != C.Data)
      return false;
  }
  return true;
}

/// Throughput of one pass.
struct PassRate {
  double PackMBs = 0;
  double UnpackMBs = 0;
};

/// Packs (packClassBytes) and unpacks (unpackAnyArchive) units
/// [First, First + Count) modulo the unit count, checking each result.
PassRate runPass(const WorkloadSpec &W, std::vector<Unit> &Units,
                 size_t First, size_t Count, Report &Rep,
                 SpanRecorder &Rec) {
  ScopedSpan PassSpan(Rec, "bench.pass");
  double PackSec = 0, UnpackSec = 0;
  size_t PackBytes = 0, UnpackBytes = 0;
  for (size_t I = 0; I < Count; ++I) {
    Unit &U = Units[(First + I) % Units.size()];
    double T0 = nowSec();
    Expected<PackResult> Packed = [&] {
      ScopedSpan S(Rec, "bench.pack");
      return packClassBytes(U.Raw, passOptions(W));
    }();
    double T1 = nowSec();
    if (!Packed) {
      Rep.operation(false, "pack: " + Packed.message());
      continue;
    }
    if (U.Expected.empty())
      U.Expected = Packed->Archive;
    Rep.operation(Packed->Archive == U.Expected,
                  "pack output differs from the reference archive");
    PackSec += T1 - T0;
    PackBytes += U.RawBytes;

    double T2 = nowSec();
    auto Restored = [&] {
      ScopedSpan S(Rec, "bench.unpack");
      return unpackAnyArchive(Packed->Archive, unpackOptions(W));
    }();
    double T3 = nowSec();
    if (!Restored) {
      Rep.operation(false, "unpack: " + Restored.message());
      continue;
    }
    bool Ok = [&] {
      ScopedSpan S(Rec, "bench.check");
      return matchesReference(*Restored, U);
    }();
    Rep.operation(Ok, "unpacked classes differ from the reference bytes");
    UnpackSec += T3 - T2;
    for (const NamedClass &C : *Restored)
      UnpackBytes += C.Data.size();
  }
  PassRate R;
  if (PackSec > 0)
    R.PackMBs = static_cast<double>(PackBytes) / 1e6 / PackSec;
  if (UnpackSec > 0)
    R.UnpackMBs = static_cast<double>(UnpackBytes) / 1e6 / UnpackSec;
  return R;
}

struct FetchRequest {
  size_t Unit = 0;
  size_t Class = 0;
};

/// The seeded request sequence of a workload's fetch mix.
class RequestMix {
public:
  RequestMix(const WorkloadSpec &W, const std::vector<Unit> &Units,
             uint64_t Seed)
      : W(W), Units(Units), R(Seed ^ 0x6a09e667f3bcc908ull) {}

  FetchRequest next() {
    FetchRequest Q;
    if (W.HotArchives == 0)
      Q.Unit = R.below(Units.size());
    else if (I % 10 == 9)
      Q.Unit = W.HotArchives + Cold++ % (Units.size() - W.HotArchives);
    else
      Q.Unit = R.below(W.HotArchives);
    ++I;
    Q.Class = R.below(Units[Q.Unit].Names.size());
    return Q;
  }

private:
  const WorkloadSpec &W;
  const std::vector<Unit> &Units;
  Rng R;
  uint64_t I = 0;
  uint64_t Cold = 0;
};

/// Latency samples of the fetch loop, split by cache outcome when
/// traced.
struct FetchSamples {
  std::vector<double> AllMs;
  std::vector<double> HitMs;
  std::vector<double> MissMs;
  std::vector<FetchRequest> Hits; ///< hit requests, for the replay
  double WallSec = 0;
  uint64_t Evictions = 0;
};

/// One unpack-class round trip; checks the body against the reference.
bool fetchOnce(Client &C, const Unit &U, size_t Class) {
  const std::string &Name = U.Names[Class];
  auto R = C.call(Opcode::UnpackClass, {U.ServedPath, Name});
  return R && R->St == Status::Ok && R->Body == U.Reference.at(Name);
}

/// Sends closed-loop requests for \p Seconds, appending to \p Out.
void fetchBatch(Server &Srv, Client &C, const std::vector<Unit> &Units,
                RequestMix &Mix, double Seconds, FetchSamples &Out,
                Report &Rep, SpanRecorder &Rec) {
  CacheStats First = Srv.cache().stats();
  double Start = nowSec();
  while (nowSec() - Start < Seconds) {
    FetchRequest Q = Mix.next();
    CacheStats Before;
    if (Rec.enabled())
      Before = Srv.cache().stats();
    double T0 = nowSec();
    bool Ok = [&] {
      ScopedSpan S(Rec, "serve.fetch");
      return fetchOnce(C, Units[Q.Unit], Q.Class);
    }();
    double Ms = (nowSec() - T0) * 1e3;
    if (Ok)
      Rep.operation(true);
    else
      Rep.operation(false, "fetch " + Units[Q.Unit].Names[Q.Class]);
    Out.AllMs.push_back(Ms);
    if (Rec.enabled()) {
      FetchOutcome O = classifyFetch(Before, Srv.cache().stats());
      if (O == FetchOutcome::Hit) {
        Out.HitMs.push_back(Ms);
        Out.Hits.push_back(Q);
      } else if (O == FetchOutcome::Miss) {
        Out.MissMs.push_back(Ms);
      }
    }
  }
  Out.WallSec += nowSec() - Start;
  Out.Evictions += Srv.cache().stats().Evictions - First.Evictions;
}

/// Pins the calling thread, and the threads it creates from then on,
/// to one CPU; restore() undoes it for the calling thread.
class CpuPin {
public:
  CpuPin() {
    Ok = sched_getaffinity(0, sizeof(All), &All) == 0;
    CPU_ZERO(&One);
    int Cpu = sched_getcpu();
    CPU_SET(Cpu < 0 ? 0 : Cpu, &One);
  }
  void pin() {
    if (Ok)
      sched_setaffinity(0, sizeof(One), &One);
  }
  void restore() {
    if (Ok)
      sched_setaffinity(0, sizeof(All), &All);
  }

private:
  cpu_set_t All;
  cpu_set_t One;
  bool Ok = false;
};

/// Loads archive models for the unpack probes (v3 through the reader).
Expected<std::vector<ClassFile>> unpackModels(std::span<const uint8_t> Archive,
                                              unsigned Threads) {
  if (Archive.size() > 4 && Archive[4] == FormatVersionIndexed) {
    auto Rd = PackedArchiveReader::open(Archive.data(), Archive.size());
    if (!Rd)
      return Rd.takeError();
    return Rd->unpackAll();
  }
  return unpackClasses(Archive, Threads);
}

/// Per-layer probes of the codec: calls each layer's public functions
/// from outside, with spans around them, over the workload's own corpus
/// and archives.
void codecProbes(const WorkloadSpec &W, std::vector<Unit> &Units,
                 Report &Rep, SpanRecorder &Rec, uint64_t Seed) {
  // classfile: parse, prepare, canonicalize again, write.
  std::vector<std::vector<ClassFile>> Models(Units.size());
  for (size_t K = 0; K < Units.size(); ++K) {
    for (const NamedClass &Raw : Units[K].Raw) {
      Expected<ClassFile> CF = [&] {
        ScopedSpan S(Rec, "classfile.parse");
        return parseClassFile(Raw.Data);
      }();
      if (!CF) {
        Rep.operation(false, "parse: " + CF.message());
        continue;
      }
      Error E = [&] {
        ScopedSpan S(Rec, "classfile.prepare");
        return prepareForPacking(*CF);
      }();
      Rep.operation(!E, "prepare " + Raw.Name);
      Models[K].push_back(std::move(*CF));
    }
  }
  AllocCounts A0 = allocCounts();
  for (auto &Ms : Models)
    for (ClassFile &M : Ms) {
      ScopedSpan S(Rec, "classfile.canon");
      if (auto E = canonicalizeConstantPool(M))
        Rep.operation(false, "canonicalize: " + E.message());
    }
  Rep.metric("classfile.canon_allocs",
             static_cast<double>(allocCounts().Count - A0.Count), "count");
  for (size_t K = 0; K < Units.size(); ++K)
    for (const ClassFile &M : Models[K]) {
      std::vector<uint8_t> Bytes = [&] {
        ScopedSpan S(Rec, "classfile.write");
        return writeClassFile(M);
      }();
      auto It = Units[K].Reference.find(std::string(M.thisClassName()));
      Rep.operation(It != Units[K].Reference.end() && It->second == Bytes,
                    "re-canonicalized class differs from its reference");
    }

  // pack / coder / support: phases, shards, tallies; store backend;
  // unpack with and without inflate; zlib alone over the store bytes.
  double ModelSec = 0, EmitSec = 0, DeflateSec = 0, PhaseWall = 0,
         ShardSum = 0, ShardMax = 0;
  size_t ShardCount = 0;
  uint64_t Refs = 0, Defs = 0, EncodeAllocs = 0, EncodeBytes = 0,
           DecodeAllocs = 0;
  for (size_t K = 0; K < Units.size(); ++K) {
    PackOptions O = passOptions(W);
    auto Z = [&] {
      ScopedSpan S(Rec, "pack.packClasses");
      return packClasses(Models[K], O);
    }();
    O.CompressStreams = false;
    A0 = allocCounts();
    auto St = [&] {
      ScopedSpan S(Rec, "pack.encode_store");
      return packClasses(Models[K], O);
    }();
    AllocCounts A1 = allocCounts();
    if (!Z || !St) {
      Rep.operation(false, "probe pack failed");
      continue;
    }
    EncodeAllocs += A1.Count - A0.Count;
    EncodeBytes += A1.Bytes - A0.Bytes;
    const PhaseTimes &P = Z->Trace.Phases;
    ModelSec += P.ModelSec;
    EmitSec += P.EmitSec;
    DeflateSec += P.DeflateSec;
    unsigned Workers = std::min<unsigned>(
        W.Threads, static_cast<unsigned>(Z->Trace.Shards.size()));
    PhaseWall += std::max(1u, Workers) * (P.ModelSec + P.EmitSec);
    for (const ShardTimes &Sh : Z->Trace.Shards) {
      double T = Sh.ModelSec + Sh.EmitSec;
      ShardSum += T;
      ShardMax = std::max(ShardMax, T);
      ++ShardCount;
    }
    Refs += Z->Trace.Coder.totalRefs();
    Defs += Z->Trace.Coder.totalDefs();

    A0 = allocCounts();
    auto Dz = [&] {
      ScopedSpan S(Rec, "pack.unpack_models");
      return unpackModels(Z->Archive, W.Threads);
    }();
    DecodeAllocs += allocCounts().Count - A0.Count;
    auto Ds = [&] {
      ScopedSpan S(Rec, "pack.unpack_store");
      return unpackModels(St->Archive, W.Threads);
    }();
    Rep.operation(Dz && Ds && Dz->size() == Models[K].size() &&
                      Ds->size() == Models[K].size(),
                  "probe unpack failed");

    std::vector<uint8_t> Deflated = [&] {
      ScopedSpan S(Rec, "zip.deflate");
      return deflateBytes(St->Archive);
    }();
    auto Inflated = [&] {
      ScopedSpan S(Rec, "zip.inflate");
      return inflateBytes(Deflated, St->Archive.size(), St->Archive.size());
    }();
    Rep.operation(Inflated && *Inflated == St->Archive, "zlib round trip");
  }
  Rep.metric("pack.model_s", ModelSec, "s");
  Rep.metric("pack.emit_s", EmitSec, "s");
  Rep.metric("pack.deflate_s", DeflateSec, "s");
  Rep.metric("pack.encode_allocs", static_cast<double>(EncodeAllocs),
             "count");
  Rep.metric("pack.encode_alloc_mb", static_cast<double>(EncodeBytes) / 1e6,
             "MB");
  Rep.metric("pack.decode_allocs", static_cast<double>(DecodeAllocs), "count");
  Rep.metric("pack.shard_max_s", ShardMax, "s");
  Rep.metric("pack.shard_mean_s", ShardCount ? ShardSum / ShardCount : 0,
             "s");
  Rep.metric("support.pool_efficiency",
             PhaseWall > 0 ? ShardSum / PhaseWall : 0, "ratio");
  Rep.metric("coder.refs", static_cast<double>(Refs), "count");
  Rep.metric("coder.defs", static_cast<double>(Defs), "count");

  // The lazy reader over the served archives: open, first class into a
  // cold shard, the same class again from the decoded shard.
  Rng R(Seed ^ 0xbb67ae8584caa73bull);
  std::vector<double> OpenMs, FirstMs, HotMs, InflatedKb;
  for (size_t I = 0; I < ReaderSamples; ++I) {
    const Unit &U = Units[I % Units.size()];
    const std::string &Name = U.Names[R.below(U.Names.size())];
    double T0 = nowSec();
    auto Rd = [&] {
      ScopedSpan S(Rec, "pack.reader_open");
      return PackedArchiveReader::open(U.Served);
    }();
    double T1 = nowSec();
    if (!Rd) {
      Rep.operation(false, "reader open: " + Rd.message());
      continue;
    }
    auto First = [&] {
      ScopedSpan S(Rec, "pack.reader_first");
      return Rd->unpackClass(Name);
    }();
    double T2 = nowSec();
    auto Again = [&] {
      ScopedSpan S(Rec, "pack.reader_hot");
      return Rd->unpackClass(Name);
    }();
    double T3 = nowSec();
    Rep.operation(First && Again &&
                      writeClassFile(*Again) == U.Reference.at(Name),
                  "reader unpackClass " + Name);
    OpenMs.push_back((T1 - T0) * 1e3);
    FirstMs.push_back((T2 - T1) * 1e3);
    HotMs.push_back((T3 - T2) * 1e3);
    InflatedKb.push_back(static_cast<double>(Rd->inflatedBytes()) / 1e3);
  }
  if (OpenMs.empty()) {
    Rep.markIncorrect("no reader samples");
    return;
  }
  Rep.metric("pack.reader_open_ms", median(OpenMs), "ms");
  Rep.metric("pack.reader_first_ms", median(FirstMs), "ms");
  Rep.metric("pack.reader_hot_ms", median(HotMs), "ms");
  Rep.metric("pack.reader_inflated_kb", median(InflatedKb), "kB");

  // Layer times are the self time of the spans around each call.
  std::map<std::string, double> Self = Rec.selfTimeByName();
  for (const char *Layer :
       {"classfile.parse", "classfile.prepare", "classfile.canon",
        "classfile.write", "pack.encode_store", "pack.unpack_models",
        "pack.unpack_store", "zip.deflate", "zip.inflate"})
    Rep.metric(std::string(Layer) + "_s", Self[Layer], "s");
}

/// Per-layer probes of the server, from the measured fetches plus
/// forced misses and an in-process replay.
void serveProbes(std::vector<Unit> &Units, Server &Srv, Client &C,
                 FetchSamples &Fetch, Report &Rep, SpanRecorder &Rec,
                 uint64_t Seed) {
  // The counts describe the measured mix.
  uint64_t Hits = Fetch.HitMs.size();
  uint64_t Misses = Fetch.MissMs.size();
  Rep.metric("serve.hits", static_cast<double>(Hits), "count");
  Rep.metric("serve.misses", static_cast<double>(Misses), "count");
  Rep.metric("serve.evictions", static_cast<double>(Fetch.Evictions),
             "count");
  Rep.metric("serve.hit_ratio",
             Hits + Misses ? static_cast<double>(Hits) /
                                 static_cast<double>(Hits + Misses)
                           : 0,
             "ratio");

  // The same hit requests replayed in-process: cache get, unpackClass,
  // writeClassFile. The difference to the socket is the protocol.
  std::vector<double> ReplayMs;
  for (const FetchRequest &Q : Fetch.Hits) {
    if (ReplayMs.size() == 4000)
      break;
    const Unit &U = Units[Q.Unit];
    const std::string &Name = U.Names[Q.Class];
    double T0 = nowSec();
    bool Ok = [&] {
      ScopedSpan S(Rec, "serve.replay");
      auto Arch = Srv.cache().get(U.ServedPath);
      if (!Arch)
        return false;
      auto CF = (*Arch)->Reader.unpackClass(Name);
      return CF && writeClassFile(*CF) == U.Reference.at(Name);
    }();
    ReplayMs.push_back((nowSec() - T0) * 1e3);
    Rep.operation(Ok, "replay " + Name);
  }

  // A mix without misses gets forced cold fetches, each after a cache
  // flush, so the miss latency is measured on every workload. They run
  // after the replay, which needs the warm cache.
  if (Fetch.MissMs.empty()) {
    Rng R(Seed ^ 0x3c6ef372fe94f82bull);
    for (size_t I = 0; I < ForcedMisses; ++I) {
      auto Fl = C.call(Opcode::CacheFlush);
      const Unit &U = Units[I % Units.size()];
      size_t Class = R.below(U.Names.size());
      CacheStats B = Srv.cache().stats();
      double T0 = nowSec();
      bool Ok = [&] {
        ScopedSpan S(Rec, "serve.fetch_cold");
        return fetchOnce(C, U, Class);
      }();
      double Ms = (nowSec() - T0) * 1e3;
      Rep.operation(Fl && Fl->St == Status::Ok && Ok, "cold fetch");
      if (classifyFetch(B, Srv.cache().stats()) == FetchOutcome::Miss)
        Fetch.MissMs.push_back(Ms);
    }
  }

  if (Fetch.HitMs.empty() || Fetch.MissMs.empty() || ReplayMs.empty()) {
    Rep.markIncorrect("fetch samples missing a hit or miss class");
    return;
  }
  Rep.metric("serve.hit_p50_ms", percentile(Fetch.HitMs, 500), "ms");
  Rep.metric("serve.hit_p99_ms", percentile(Fetch.HitMs, 990), "ms");
  Rep.metric("serve.miss_p50_ms", percentile(Fetch.MissMs, 500), "ms");
  Rep.metric("serve.miss_p99_ms", percentile(Fetch.MissMs, 990), "ms");
  Rep.metric("serve.overhead_ms",
             percentile(Fetch.HitMs, 500) - percentile(ReplayMs, 500), "ms");
  printf("perfbench: traced fetch samples: %zu hits, %zu misses, %zu "
         "replays\n",
         Fetch.HitMs.size(), Fetch.MissMs.size(), ReplayMs.size());
}

} // namespace

bool isWorkload(const std::string &Name) { return findWorkload(Name); }

int runBenchmark(const RunOptions &Opt) {
  const WorkloadSpec *WP = findWorkload(Opt.Workload);
  if (!WP) {
    fprintf(stderr, "perfbench: unknown workload '%s'\n",
            Opt.Workload.c_str());
    return 2;
  }
  const WorkloadSpec &W = *WP;

  // Archive bytes, and so size_pct_sjar, depend on the zlib actually
  // running; refuse to measure with a library other than the header's.
  printf("perfbench: workload=%s seed=%llu seconds=%g traced=%d "
         "zlib_header=%s zlib_runtime=%s\n",
         W.Name, static_cast<unsigned long long>(Opt.Seed), Opt.Seconds,
         Opt.Traced ? 1 : 0, ZLIB_VERSION, zlibVersion());
  if (std::string(ZLIB_VERSION) != zlibVersion()) {
    fprintf(stderr, "perfbench: zlib mismatch: built against %s, running %s\n",
            ZLIB_VERSION, zlibVersion());
    return 3;
  }

  Report Rep;
  SpanRecorder Rec(Opt.Traced);

  // Set-up, repeated; its median is setup_s and the last one is used.
  std::vector<double> SetupSec;
  std::vector<Unit> Units;
  for (unsigned I = 0; I < SetupReps; ++I) {
    Units.clear();
    double T0 = nowSec();
    auto U = setUp(W, Opt.Seed);
    SetupSec.push_back(nowSec() - T0);
    if (!U) {
      fprintf(stderr, "perfbench: set-up failed: %s\n", U.message().c_str());
      return 1;
    }
    Units = std::move(*U);
  }

  // One untimed warm-up pass: the first pass of a process can run in a
  // slow mode.
  runPass(W, Units, 0, W.UnitsPerPass, Rep, Rec);
  for (const Unit &U : Units)
    if (U.Expected.empty()) {
      fprintf(stderr, "perfbench: warm-up pack failed\n");
      return 1;
    }

  // The server: one connection, closed loop, at most 2 handler threads.
  // Client and server threads share one CPU: with one request in
  // flight nothing runs in parallel, and wake-ups across CPUs made the
  // latency of identical runs differ by up to 50%.
  size_t MaxServed = 0, TotalServed = 0;
  for (const Unit &U : Units) {
    MaxServed = std::max(MaxServed, U.Served.size());
    TotalServed += U.Served.size();
  }
  ServerConfig SC;
  SC.UnixSocketPath = "cjpackd.sock";
  SC.Threads = ServerThreads;
  SC.CacheBytes = W.CachedArchives ? W.CachedArchives * MaxServed
                                   : 2 * TotalServed;
  CpuPin Pin;
  Pin.pin();
  auto Srv = Server::start(SC);
  if (!Srv) {
    fprintf(stderr, "perfbench: server: %s\n", Srv.message().c_str());
    return 1;
  }
  {
    auto Conn = Client::connectUnix(SC.UnixSocketPath);
    if (!Conn) {
      fprintf(stderr, "perfbench: connect: %s\n", Conn.message().c_str());
      (*Srv)->requestStop();
      (*Srv)->wait();
      return 1;
    }

    // Warm-up: every class of every hot archive once, which decodes
    // their shards, then one round through the cold set to fill the
    // cache to its steady state.
    size_t HotUnits = W.HotArchives ? W.HotArchives : Units.size();
    for (size_t K = 0; K < HotUnits; ++K)
      for (size_t I = 0; I < Units[K].Names.size(); ++I)
        Rep.operation(fetchOnce(*Conn, Units[K], I), "warm-up fetch");
    RequestMix Mix(W, Units, Opt.Seed);
    if (W.HotArchives)
      for (size_t I = 0; I < 10 * (Units.size() - W.HotArchives); ++I) {
        FetchRequest Q = Mix.next();
        Rep.operation(fetchOnce(*Conn, Units[Q.Unit], Q.Class),
                      "warm-up fetch");
      }

    // Timed passes and fetch batches alternate, each kept to its share
    // of the measured time, so both sample the whole run: the speed of
    // this shared host drifts over tens of seconds.
    std::vector<double> PackRates, UnpackRates;
    FetchSamples Fetch;
    double PassSec = 0;
    for (size_t P = 1; PackRates.size() < MinPasses ||
                       Fetch.AllMs.size() < MinFetchSamples ||
                       PassSec + Fetch.WallSec < Opt.Seconds;) {
      bool PassDue = PassSec * (1 - W.PassShare) <=
                     Fetch.WallSec * W.PassShare;
      if (PassDue && (PackRates.size() < MinPasses ||
                      Fetch.AllMs.size() >= MinFetchSamples)) {
        Pin.restore();
        double T0 = nowSec();
        PassRate R = runPass(W, Units, P * W.UnitsPerPass, W.UnitsPerPass,
                             Rep, Rec);
        PassSec += nowSec() - T0;
        Pin.pin();
        if (R.PackMBs <= 0 || R.UnpackMBs <= 0) {
          fprintf(stderr, "perfbench: pass %zu failed\n", P);
          break;
        }
        PackRates.push_back(R.PackMBs);
        UnpackRates.push_back(R.UnpackMBs);
        ++P;
      } else {
        fetchBatch(**Srv, *Conn, Units, Mix, FetchBatchSec, Fetch, Rep, Rec);
      }
    }

    if (!PackRates.empty() && !Fetch.AllMs.empty()) {
      size_t ArchiveBytes = 0, SjarBytes = 0;
      for (const Unit &U : Units) {
        ArchiveBytes += U.Expected.size();
        SjarBytes += U.SjarBytes;
      }
      Rep.metric("pack_mb_s", median(PackRates), "MB/s");
      Rep.metric("unpack_mb_s", median(UnpackRates), "MB/s");
      Rep.metric("size_pct_sjar",
                 100.0 * static_cast<double>(ArchiveBytes) /
                     static_cast<double>(SjarBytes),
                 "%");
      Rep.metric("fetch_p50_ms", percentile(Fetch.AllMs, 500), "ms");
      Rep.metric("fetch_p99_ms", percentile(Fetch.AllMs, 990), "ms");
      Rep.metric("fetch_rps",
                 static_cast<double>(Fetch.AllMs.size()) / Fetch.WallSec,
                 "1/s");
      Rep.metric("setup_s", median(SetupSec), "s");
      Rep.metric("peak_rss_mb", peakRssMb(), "MB");
      printf("perfbench: %zu timed passes (pack MB/s min %.4g max %.4g), "
             "%zu fetch samples (%zu beyond p99), %u set-ups\n",
             PackRates.size(),
             *std::min_element(PackRates.begin(), PackRates.end()),
             *std::max_element(PackRates.begin(), PackRates.end()),
             Fetch.AllMs.size(), samplesBeyond(Fetch.AllMs.size(), 990),
             SetupReps);
      if (Opt.Traced) {
        Pin.restore();
        codecProbes(W, Units, Rep, Rec, Opt.Seed);
        Pin.pin();
        serveProbes(Units, **Srv, *Conn, Fetch, Rep, Rec, Opt.Seed);
      }
    } else {
      Rep.markIncorrect("no timed pass or fetch completed");
    }
  }
  (*Srv)->requestStop();
  (*Srv)->wait();
  Pin.restore();
  for (const Unit &U : Units)
    ::remove(U.ServedPath.c_str());

  if (Opt.Traced && !Opt.SpansPath.empty() && !Rec.writeJson(Opt.SpansPath))
    Rep.markIncorrect("cannot write spans to " + Opt.SpansPath);
  printf("%s\n", Rep.json().c_str());
  fflush(stdout);
  return 0;
}

} // namespace perfbench

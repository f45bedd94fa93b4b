//===- RefCoder.cpp - reference-encoding schemes (§5.1) -------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "coder/RefCoder.h"
#include "mtf/MtfQueue.h"
#include "support/VarInt.h"
#include <algorithm>
#include <cassert>
#include <map>
#include <vector>

using namespace cjpack;

const char *cjpack::refSchemeName(RefScheme S) {
  switch (S) {
  case RefScheme::Simple: return "Simple";
  case RefScheme::Basic: return "Basic";
  case RefScheme::Freq: return "Freq";
  case RefScheme::Cache: return "Cache";
  case RefScheme::MtfBasic: return "MTF Basic";
  case RefScheme::MtfTransients: return "MTF Transients";
  case RefScheme::MtfContext: return "MTF Context";
  case RefScheme::MtfTransientsContext: return "MTF Trans+Ctx";
  }
  return "?";
}

bool cjpack::refSchemeNeedsStats(RefScheme S) {
  return S == RefScheme::Freq || S == RefScheme::Cache ||
         S == RefScheme::MtfTransients ||
         S == RefScheme::MtfTransientsContext;
}

bool cjpack::refSchemeSupportsPreload(RefScheme S) {
  return S != RefScheme::Freq && S != RefScheme::Cache;
}

uint32_t RefStats::rankOf(uint32_t Pool, uint32_t Object) const {
  buildRanks();
  auto It = Ranks.find({Pool, Object});
  return It == Ranks.end() ? 0 : It->second;
}

void RefStats::buildRanks() const {
  if (RanksBuilt)
    return;
  RanksBuilt = true;
  // Per pool, sort recurring objects by descending count (ties by id for
  // determinism) and assign ranks starting at 1.
  std::map<uint32_t, std::vector<std::pair<uint32_t, uint32_t>>> PerPool;
  for (const auto &[Key, Count] : Counts)
    if (Count > 1)
      PerPool[Key.first].push_back({Count, Key.second});
  for (auto &[Pool, Items] : PerPool) {
    std::sort(Items.begin(), Items.end(),
              [](const auto &A, const auto &B) {
                if (A.first != B.first)
                  return A.first > B.first;
                return A.second < B.second;
              });
    uint32_t Rank = 1;
    for (const auto &[Count, Object] : Items)
      Ranks[{Pool, Object}] = Rank++;
  }
}

namespace {

//===----------------------------------------------------------------------===//
// Simple / Basic: fixed sequential ids
//===----------------------------------------------------------------------===//

class FixedIdEncoder final : public RefEncoder {
public:
  explicit FixedIdEncoder(bool TwoByte) : TwoByte(TwoByte) {}

  bool encode(uint32_t Pool, uint32_t, uint32_t Object,
              ByteWriter &W) override {
    auto &P = Pools[Pool];
    auto It = P.Ids.find(Object);
    if (It == P.Ids.end()) {
      write(W, 0);
      P.Ids.emplace(Object, ++P.NextId);
      return true;
    }
    write(W, It->second);
    return false;
  }

  bool preload(uint32_t Pool, uint32_t Object) override {
    auto &P = Pools[Pool];
    if (!P.Ids.count(Object))
      P.Ids.emplace(Object, ++P.NextId);
    return true;
  }

private:
  void write(ByteWriter &W, uint32_t V) {
    if (TwoByte) {
      assert(V <= 0xFFFF && "Simple scheme id overflow");
      W.writeU2(static_cast<uint16_t>(V));
    } else {
      writeVarUInt(W, V);
    }
  }

  struct PoolState {
    std::map<uint32_t, uint32_t> Ids;
    uint32_t NextId = 0;
  };
  std::map<uint32_t, PoolState> Pools;
  bool TwoByte;
};

class FixedIdDecoder final : public RefDecoder {
public:
  explicit FixedIdDecoder(bool TwoByte) : TwoByte(TwoByte) {}

  std::optional<uint32_t> decode(uint32_t Pool, uint32_t,
                                 ByteReader &R) override {
    uint32_t V = TwoByte ? R.readU2()
                         : static_cast<uint32_t>(readVarUInt(R));
    auto &P = Pools[Pool];
    if (V == 0)
      return std::nullopt;
    if (V > P.Objects.size())
      return CorruptRef;
    return P.Objects[V - 1];
  }

  void registerNew(uint32_t Pool, uint32_t, uint32_t Object) override {
    Pools[Pool].Objects.push_back(Object);
  }

  bool preload(uint32_t Pool, uint32_t Object) override {
    // The preload table repeats objects (shared packages, <init>, ...);
    // the encoder dedupes by id map, so dedupe here too.
    auto &Objects = Pools[Pool].Objects;
    if (std::find(Objects.begin(), Objects.end(), Object) ==
        Objects.end())
      Objects.push_back(Object);
    return true;
  }

private:
  struct PoolState {
    std::vector<uint32_t> Objects; ///< id-1 -> object
  };
  std::map<uint32_t, PoolState> Pools;
  bool TwoByte;
};

//===----------------------------------------------------------------------===//
// Freq: frequency-ranked ids, shared transient id 0
//===----------------------------------------------------------------------===//

class FreqEncoder final : public RefEncoder {
public:
  explicit FreqEncoder(const RefStats &Stats) : Stats(Stats) {}

  bool encode(uint32_t Pool, uint32_t, uint32_t Object,
              ByteWriter &W) override {
    if (Stats.isTransient(Pool, Object)) {
      writeVarUInt(W, 0);
      return true;
    }
    uint32_t Rank = Stats.rankOf(Pool, Object);
    assert(Rank > 0 && "recurring object without a rank");
    writeVarUInt(W, Rank);
    return Seen.insert(Pool, Object);
  }

private:
  const RefStats &Stats;
  SeenObjects Seen;
};

class FreqDecoder final : public RefDecoder {
public:
  std::optional<uint32_t> decode(uint32_t Pool, uint32_t,
                                 ByteReader &R) override {
    uint32_t V = static_cast<uint32_t>(readVarUInt(R));
    if (V == 0) {
      Pending[Pool] = 0; // transient: learn nothing
      return std::nullopt;
    }
    auto &Bind = Bindings[Pool];
    auto It = Bind.find(V);
    if (It != Bind.end())
      return It->second;
    Pending[Pool] = V;
    return std::nullopt;
  }

  void registerNew(uint32_t Pool, uint32_t, uint32_t Object) override {
    // Definitions nest (a new field ref decodes a class ref inside it),
    // so pending state is tracked per pool.
    auto It = Pending.find(Pool);
    assert(It != Pending.end() && "registerNew without a pending decode");
    if (It->second != 0)
      Bindings[Pool][It->second] = Object;
    Pending.erase(It);
  }

private:
  std::map<uint32_t, std::map<uint32_t, uint32_t>> Bindings;
  std::map<uint32_t, uint32_t> Pending; ///< pool -> pending id (0 = none)
};

//===----------------------------------------------------------------------===//
// Cache: Freq augmented with a 16-entry move-to-front cache
//===----------------------------------------------------------------------===//

constexpr size_t CacheSize = 16;

class CacheEncoder final : public RefEncoder {
public:
  explicit CacheEncoder(const RefStats &Stats) : Stats(Stats) {}

  bool encode(uint32_t Pool, uint32_t, uint32_t Object,
              ByteWriter &W) override {
    std::vector<uint32_t> &Cache = Caches[Pool];
    auto Hit = std::find(Cache.begin(), Cache.end(), Object);
    if (Hit != Cache.end()) {
      size_t Pos = static_cast<size_t>(Hit - Cache.begin());
      writeVarUInt(W, Pos);
      Cache.erase(Hit);
      Cache.insert(Cache.begin(), Object);
      return false;
    }
    if (Stats.isTransient(Pool, Object)) {
      writeVarUInt(W, CacheSize); // rank 0 + offset
      return true;
    }
    uint32_t Rank = Stats.rankOf(Pool, Object);
    assert(Rank > 0 && "recurring object without a rank");
    writeVarUInt(W, Rank + CacheSize);
    Cache.insert(Cache.begin(), Object);
    if (Cache.size() > CacheSize)
      Cache.pop_back();
    return Seen.insert(Pool, Object);
  }

private:
  const RefStats &Stats;
  std::map<uint32_t, std::vector<uint32_t>> Caches;
  SeenObjects Seen;
};

class CacheDecoder final : public RefDecoder {
public:
  std::optional<uint32_t> decode(uint32_t Pool, uint32_t,
                                 ByteReader &R) override {
    uint32_t V = static_cast<uint32_t>(readVarUInt(R));
    auto &P = Pools[Pool];
    if (V < CacheSize) {
      if (V >= P.Cache.size())
        return CorruptRef;
      uint32_t Object = P.Cache[V];
      P.Cache.erase(P.Cache.begin() + V);
      P.Cache.insert(P.Cache.begin(), Object);
      return Object;
    }
    if (V == CacheSize) {
      Pending[Pool] = 0; // transient: learn nothing
      return std::nullopt;
    }
    uint32_t Id = V - CacheSize;
    auto It = P.Bindings.find(Id);
    if (It != P.Bindings.end()) {
      cacheFront(P, It->second);
      return It->second;
    }
    Pending[Pool] = Id;
    return std::nullopt;
  }

  void registerNew(uint32_t Pool, uint32_t, uint32_t Object) override {
    // Per-pool pending state: definitions nest across pools.
    auto It = Pending.find(Pool);
    assert(It != Pending.end() && "registerNew without a pending decode");
    if (It->second != 0) {
      auto &P = Pools[Pool];
      P.Bindings[It->second] = Object;
      cacheFront(P, Object);
    }
    Pending.erase(It);
  }

private:
  struct PoolState {
    std::vector<uint32_t> Cache;
    std::map<uint32_t, uint32_t> Bindings;
  };

  void cacheFront(PoolState &P, uint32_t Object) {
    P.Cache.insert(P.Cache.begin(), Object);
    if (P.Cache.size() > CacheSize)
      P.Cache.pop_back();
  }

  std::map<uint32_t, PoolState> Pools;
  std::map<uint32_t, uint32_t> Pending; ///< pool -> freq id (0 = transient)
};

//===----------------------------------------------------------------------===//
// The move-to-front family
//===----------------------------------------------------------------------===//

/// Shared machinery for the four MTF variants. Context variants keep one
/// queue per (Pool, Sub) and a per-pool first-seen history so a queue
/// materializing late can be seeded with every object it "might see".
/// Non-context variants collapse Sub to zero. Pools and Subs are small
/// dense ids, so both index vectors.
class MtfState {
public:
  explicit MtfState(bool UseContext) : UseContext(UseContext) {}

  MtfQueue &queue(uint32_t Pool, uint32_t Sub) {
    if (!UseContext)
      Sub = 0;
    PoolState &P = pool(Pool);
    if (Sub >= P.Queues.size())
      P.Queues.resize(size_t{Sub} + 1);
    std::optional<MtfQueue> &Q = P.Queues[Sub];
    if (!Q) {
      Q.emplace();
      for (uint32_t Object : P.History)
        Q->pushFront(Object);
    }
    return *Q;
  }

  /// Marks \p Object as seen in \p Pool; true on its first occurrence.
  bool firstSight(uint32_t Pool, uint32_t Object) {
    return Seen.insert(Pool, Object);
  }

  /// Records a first occurrence of a persistent object: remembers it in
  /// the history and pushes it onto every materialized queue.
  void addPersistent(uint32_t Pool, uint32_t Object) {
    PoolState &P = pool(Pool);
    P.History.push_back(Object);
    for (std::optional<MtfQueue> &Q : P.Queues)
      if (Q)
        Q->pushFront(Object);
  }

  /// The shared body of RefEncoder/RefDecoder::preload.
  void preload(uint32_t Pool, uint32_t Object) {
    if (firstSight(Pool, Object))
      addPersistent(Pool, Object);
  }

private:
  struct PoolState {
    std::vector<std::optional<MtfQueue>> Queues; ///< by Sub, made lazily
    std::vector<uint32_t> History; ///< persistent objects, oldest first
  };

  PoolState &pool(uint32_t Pool) {
    if (Pool >= Pools.size())
      Pools.resize(size_t{Pool} + 1);
    return Pools[Pool];
  }

  std::vector<PoolState> Pools;
  SeenObjects Seen;
  bool UseContext;
};

class MtfEncoder final : public RefEncoder {
public:
  MtfEncoder(bool Transients, bool Context, const RefStats *Stats)
      : State(Context), Stats(Stats), Transients(Transients) {
    assert((!Transients || Stats) && "transients need a stats pre-pass");
  }

  bool encode(uint32_t Pool, uint32_t Sub, uint32_t Object,
              ByteWriter &W) override {
    // Touch the queue first so creation/seeding order matches decode.
    MtfQueue &Q = State.queue(Pool, Sub);
    unsigned Base = Transients ? 2 : 1;
    if (State.firstSight(Pool, Object)) {
      if (Transients && Stats->isTransient(Pool, Object)) {
        writeVarUInt(W, 1);
      } else {
        writeVarUInt(W, 0);
        State.addPersistent(Pool, Object);
      }
      return true;
    }
    auto Pos = Q.use(Object);
    assert(Pos && "seen persistent object missing from context queue");
    writeVarUInt(W, *Pos + Base);
    return false;
  }

  bool preload(uint32_t Pool, uint32_t Object) override {
    State.preload(Pool, Object);
    return true;
  }

private:
  MtfState State;
  const RefStats *Stats;
  bool Transients;
};

class MtfDecoder final : public RefDecoder {
public:
  MtfDecoder(bool Transients, bool Context)
      : State(Context), Transients(Transients) {}

  std::optional<uint32_t> decode(uint32_t Pool, uint32_t Sub,
                                 ByteReader &R) override {
    MtfQueue &Q = State.queue(Pool, Sub);
    uint32_t V = static_cast<uint32_t>(readVarUInt(R));
    unsigned Base = Transients ? 2 : 1;
    if (V == 0) {
      Pending[Pool] = false;
      return std::nullopt;
    }
    if (Transients && V == 1) {
      Pending[Pool] = true;
      return std::nullopt;
    }
    return Q.useAt(V - Base).value_or(CorruptRef);
  }

  void registerNew(uint32_t Pool, uint32_t, uint32_t Object) override {
    // Per-pool pending state: definitions nest across pools.
    auto It = Pending.find(Pool);
    assert(It != Pending.end() && "registerNew without a pending decode");
    bool WasTransient = It->second;
    Pending.erase(It);
    if (!WasTransient)
      State.addPersistent(Pool, Object);
  }

  bool preload(uint32_t Pool, uint32_t Object) override {
    State.preload(Pool, Object);
    return true;
  }

private:
  MtfState State;
  bool Transients;
  std::map<uint32_t, bool> Pending; ///< pool -> pending was-transient
};

} // namespace

std::unique_ptr<RefEncoder> cjpack::makeRefEncoder(RefScheme S,
                                                   const RefStats *Stats) {
  switch (S) {
  case RefScheme::Simple:
    return std::make_unique<FixedIdEncoder>(/*TwoByte=*/true);
  case RefScheme::Basic:
    return std::make_unique<FixedIdEncoder>(/*TwoByte=*/false);
  case RefScheme::Freq:
    assert(Stats && "Freq needs stats");
    return std::make_unique<FreqEncoder>(*Stats);
  case RefScheme::Cache:
    assert(Stats && "Cache needs stats");
    return std::make_unique<CacheEncoder>(*Stats);
  case RefScheme::MtfBasic:
    return std::make_unique<MtfEncoder>(false, false, Stats);
  case RefScheme::MtfTransients:
    return std::make_unique<MtfEncoder>(true, false, Stats);
  case RefScheme::MtfContext:
    return std::make_unique<MtfEncoder>(false, true, Stats);
  case RefScheme::MtfTransientsContext:
    return std::make_unique<MtfEncoder>(true, true, Stats);
  }
  return nullptr;
}

std::unique_ptr<RefDecoder> cjpack::makeRefDecoder(RefScheme S) {
  switch (S) {
  case RefScheme::Simple:
    return std::make_unique<FixedIdDecoder>(/*TwoByte=*/true);
  case RefScheme::Basic:
    return std::make_unique<FixedIdDecoder>(/*TwoByte=*/false);
  case RefScheme::Freq:
    return std::make_unique<FreqDecoder>();
  case RefScheme::Cache:
    return std::make_unique<CacheDecoder>();
  case RefScheme::MtfBasic:
    return std::make_unique<MtfDecoder>(false, false);
  case RefScheme::MtfTransients:
    return std::make_unique<MtfDecoder>(true, false);
  case RefScheme::MtfContext:
    return std::make_unique<MtfDecoder>(false, true);
  case RefScheme::MtfTransientsContext:
    return std::make_unique<MtfDecoder>(true, true);
  }
  return nullptr;
}

//===- ArchiveIndex.cpp - per-class index of a v3 archive -----------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/ArchiveIndex.h"
#include "pack/Container.h"
#include "support/VarInt.h"
#include <set>
#include <utility>

using namespace cjpack;

const ArchiveIndex::ClassEntry *
ArchiveIndex::find(const std::string &Name) const {
  auto It = ByName.find(Name);
  return It == ByName.end() ? nullptr : &Classes[It->second];
}

Error ArchiveIndex::buildLookup() {
  ByName.clear();
  for (size_t I = 0; I < Classes.size(); ++I)
    if (!ByName.emplace(Classes[I].Name, I).second)
      return makeError(ErrorCode::Corrupt,
                       "index: duplicate class name '" + Classes[I].Name +
                           "'");
  return Error::success();
}

std::vector<uint8_t> ArchiveIndex::serialize() const {
  ByteWriter W;
  writeVarUInt(W, Shards.size());
  writeVarUInt(W, Classes.size());
  for (const ShardExtent &S : Shards) {
    writeVarUInt(W, S.Offset);
    writeVarUInt(W, S.Length);
  }
  for (const ClassEntry &C : Classes) {
    writeVarUInt(W, C.Name.size());
    W.writeString(C.Name);
    writeVarUInt(W, C.Shard);
    writeVarUInt(W, C.Ordinal);
  }
  return W.take();
}

Expected<ArchiveIndex>
ArchiveIndex::deserialize(ByteReader &R, const DecodeLimits &Limits) {
  ArchiveIndex Index;
  uint64_t ShardCount = readVarUInt(R);
  uint64_t ClassCount = readVarUInt(R);
  if (R.hasError() || ShardCount == 0 || ShardCount > MaxShards)
    return makeError(ErrorCode::Corrupt,
                     "index: implausible shard count at byte " +
                         std::to_string(R.position()));
  if (ClassCount > Limits.MaxClasses)
    return makeError(ErrorCode::LimitExceeded,
                     "index: class count over limit");
  // Each class entry costs at least four bytes (name length, one name
  // byte, shard, ordinal), so a count the frame cannot hold is corrupt
  // before anything is reserved.
  if (ClassCount * 4 > R.remaining())
    return makeError(ErrorCode::Corrupt,
                     "index: class count exceeds frame size");

  Index.Shards.resize(static_cast<size_t>(ShardCount));
  uint64_t Next = 0;
  for (ShardExtent &S : Index.Shards) {
    S.Offset = readVarUInt(R);
    S.Length = readVarUInt(R);
    if (R.hasError())
      return R.takeError("index");
    // Extents must tile the blob region exactly from offset zero; any
    // overlap, gap, or misordering shows up as an offset that is not
    // the running sum of the preceding lengths.
    if (S.Offset != Next)
      return makeError(ErrorCode::Corrupt,
                       "index: shard extents overlap or leave a gap at "
                       "byte " +
                           std::to_string(R.position()));
    if (S.Length > Limits.MaxStreamBytes * NumStreams)
      return makeError(ErrorCode::LimitExceeded,
                       "index: shard blob length over limit");
    Next += S.Length;
  }

  Index.Classes.reserve(static_cast<size_t>(ClassCount));
  std::set<std::pair<uint32_t, uint32_t>> Slots;
  for (uint64_t I = 0; I < ClassCount; ++I) {
    ClassEntry C;
    uint64_t NameLen = readVarUInt(R);
    if (R.hasError() || NameLen == 0 || NameLen > Limits.MaxStringBytes)
      return makeError(R.hasError() ? R.errorCode()
                                    : NameLen == 0 ? ErrorCode::Corrupt
                                                   : ErrorCode::LimitExceeded,
                       "index: implausible class name length at byte " +
                           std::to_string(R.position()));
    C.Name = R.readString(static_cast<size_t>(NameLen));
    uint64_t Shard = readVarUInt(R);
    uint64_t Ordinal = readVarUInt(R);
    if (R.hasError())
      return R.takeError("index");
    if (Shard >= ShardCount)
      return makeError(ErrorCode::Corrupt,
                       "index: class entry names shard " +
                           std::to_string(Shard) + " of " +
                           std::to_string(ShardCount));
    if (Ordinal > Limits.MaxClasses)
      return makeError(ErrorCode::LimitExceeded,
                       "index: class ordinal over limit");
    C.Shard = static_cast<uint32_t>(Shard);
    C.Ordinal = static_cast<uint32_t>(Ordinal);
    if (!Slots.emplace(C.Shard, C.Ordinal).second)
      return makeError(ErrorCode::Corrupt,
                       "index: duplicate class slot in shard " +
                           std::to_string(Shard));
    Index.Classes.push_back(std::move(C));
  }

  if (!R.atEnd())
    return makeError(ErrorCode::Corrupt,
                     "index: trailing bytes after class entries");
  if (auto E = Index.buildLookup())
    return E;
  return Index;
}

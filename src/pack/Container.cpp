//===- Container.cpp - the packed archive container -----------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/Container.h"
#include "pack/Packer.h"
#include "support/VarInt.h"

using namespace cjpack;

namespace {

constexpr uint32_t ArchiveMagic = 0x434A504Bu; // "CJPK"

Error errorAt(ErrorCode Code, const std::string &What, const ByteReader &R) {
  return makeError(Code, What + " at byte " + std::to_string(R.position()));
}

} // namespace

void cjpack::writeArchiveHeader(ByteWriter &W, uint8_t Version,
                                const PackOptions &Options) {
  W.writeU4(ArchiveMagic);
  W.writeU1(Version);
  W.writeU1(static_cast<uint8_t>(Options.Scheme));
  uint8_t Flags = 0;
  if (Options.CollapseOpcodes)
    Flags |= 1;
  if (Options.CompressStreams)
    Flags |= 2;
  if (Options.PreloadStandardRefs)
    Flags |= 4;
  // Bits 3..5 advertise the whole-archive backend choice; zlib (the
  // default) maps to 0, keeping historical archives bit-identical.
  if (Options.CompressStreams)
    Flags |= static_cast<uint8_t>(
        (Options.StreamBackends ? ArchiveBackendMixed
                                : archiveBackendCode(Options.Backend))
        << BackendFlagShift);
  W.writeU1(Flags);
}

Expected<ArchiveHeader> cjpack::readArchiveHeader(ByteReader &R,
                                                  const char *Context) {
  std::string Ctx = Context;
  if (R.readU4() != ArchiveMagic)
    return makeError(R.hasError() ? ErrorCode::Truncated : ErrorCode::Corrupt,
                     Ctx + ": bad magic");
  ArchiveHeader H;
  H.Version = R.readU1();
  uint8_t Scheme = R.readU1();
  H.Flags = R.readU1();
  if (R.hasError())
    return makeError(ErrorCode::Truncated,
                     Ctx + ": truncated archive header");
  if (H.Version < FormatVersionSerial || H.Version > FormatVersionIndexed)
    return makeError(ErrorCode::VersionMismatch,
                     Ctx + ": unsupported format version " +
                         std::to_string(H.Version));
  if (Scheme > static_cast<uint8_t>(RefScheme::MtfTransientsContext))
    return makeError(ErrorCode::Corrupt, Ctx + ": unknown reference scheme");
  H.Scheme = static_cast<RefScheme>(Scheme);
  if (((H.Flags >> BackendFlagShift) & BackendFlagMask) > ArchiveBackendMixed)
    return makeError(ErrorCode::Corrupt,
                     Ctx + ": unknown archive backend code");
  return H;
}

void cjpack::writeStreamDirectory(ByteWriter &W,
                                  std::span<const StreamSet> Shards,
                                  const BackendPlan &Plan,
                                  StreamSizes *Sizes) {
  assert(!Shards.empty() && "a directory holds at least one shard");
  std::vector<uint8_t> Joined;
  for (unsigned I = 0; I < NumStreams; ++I) {
    StreamId Id = static_cast<StreamId>(I);
    std::span<const uint8_t> Raw = Shards[0].raw(Id);
    if (Shards.size() > 1) {
      Joined.clear();
      for (const StreamSet &S : Shards)
        Joined.insert(Joined.end(), S.raw(Id).begin(), S.raw(Id).end());
      Raw = Joined;
    }
    // Keep the planned backend's output only when strictly smaller
    // than raw (the historical zlib rule, now per backend), else store.
    BackendId Backend = Plan.Stream[I];
    std::vector<uint8_t> Compressed;
    if (Backend != BackendId::Store && !Raw.empty())
      Compressed = allBackends()[static_cast<uint8_t>(Backend)].Compress(Raw);
    if (Compressed.empty() || Compressed.size() >= Raw.size())
      Backend = BackendId::Store;
    std::span<const uint8_t> Stored =
        Backend == BackendId::Store ? Raw : Compressed;
    size_t Start = W.size();
    W.writeU1(static_cast<uint8_t>(I));
    W.writeU1(static_cast<uint8_t>(Backend));
    for (const StreamSet &S : Shards)
      writeVarUInt(W, S.raw(Id).size());
    writeVarUInt(W, Stored.size());
    W.writeBytes(Stored);
    if (Sizes) {
      Sizes->Raw[I] += Raw.size();
      Sizes->Packed[I] += W.size() - Start;
    }
  }
}

Expected<StreamDirectory>
cjpack::frameStreamDirectory(ByteReader &R, size_t ShardCount,
                             const DecodeLimits &Limits) {
  // A read past the end is Truncated and a malformed varint Corrupt;
  // either is checked before the value it produced is judged.
  auto Cut = [&R] {
    return errorAt(R.errorCode(),
                   "streams: stream directory cut off or malformed", R);
  };
  StreamDirectory Dir;
  for (unsigned I = 0; I < NumStreams; ++I) {
    StreamEntry &E = Dir[I];
    size_t Start = R.position();
    uint8_t Id = R.readU1();
    E.Method = R.readU1();
    if (R.hasError())
      return Cut();
    // Streams are written in id order; accepting any in-range id would
    // let a corrupt header leave another stream's reader unpopulated.
    if (Id != I)
      return errorAt(ErrorCode::Corrupt, "streams: out-of-order stream id",
                     R);
    if (!findBackend(E.Method))
      return errorAt(ErrorCode::Corrupt,
                     "streams: unknown compression backend", R);
    // Validate before inflate: the declared raw lengths drive the
    // output allocation, so an absurd value must fail here, not OOM.
    E.ShardRaw.resize(ShardCount);
    for (size_t &Len : E.ShardRaw) {
      uint64_t Declared = readVarUInt(R);
      if (R.hasError())
        return Cut();
      if (Declared > Limits.MaxStreamBytes - E.RawTotal)
        return errorAt(ErrorCode::LimitExceeded,
                       "streams: stream length over limit", R);
      Len = static_cast<size_t>(Declared);
      E.RawTotal += Len;
    }
    uint64_t StoredLen = readVarUInt(R);
    if (R.hasError())
      return Cut();
    if (E.Method == static_cast<uint8_t>(BackendId::Store) &&
        StoredLen != E.RawTotal)
      return errorAt(ErrorCode::Corrupt, "streams: stored size mismatch", R);
    E.Stored = R.readSpan(static_cast<size_t>(StoredLen));
    if (R.hasError())
      return Cut();
    E.WireBytes = R.position() - Start;
  }
  if (!R.atEnd())
    return errorAt(ErrorCode::Corrupt,
                   "streams: trailing bytes after stream directory", R);
  return Dir;
}

Error cjpack::readStreamDirectory(ByteReader &R, std::span<StreamSet> Shards,
                                  const DecodeLimits &Limits,
                                  DecodeBudget *Budget) {
  auto Dir = frameStreamDirectory(R, Shards.size(), Limits);
  if (!Dir)
    return Dir.takeError();
  for (unsigned I = 0; I < NumStreams; ++I) {
    const StreamEntry &E = (*Dir)[I];
    StreamId Id = static_cast<StreamId>(I);
    std::vector<uint8_t> Joined;
    if (E.Method == static_cast<uint8_t>(BackendId::Store)) {
      Joined.assign(E.Stored.begin(), E.Stored.end());
    } else {
      // The declared raw length caps the backend's output, and the
      // result must match it: a wrong method byte shows up here.
      if (Budget)
        if (auto Err = Budget->chargeInflate(E.RawTotal, "streams"))
          return Err;
      auto Raw = findBackend(E.Method)->Decompress(E.Stored, E.RawTotal);
      if (!Raw)
        return Raw.takeError();
      if (Raw->size() != E.RawTotal)
        return makeError(ErrorCode::Corrupt, "streams: stream size mismatch");
      Joined = std::move(*Raw);
    }
    if (Shards.size() == 1) {
      Shards[0].adopt(Id, std::move(Joined));
      continue;
    }
    const uint8_t *Slice = Joined.data();
    for (size_t K = 0; K < Shards.size(); ++K) {
      Shards[K].adopt(Id, std::vector<uint8_t>(Slice, Slice + E.ShardRaw[K]));
      Slice += E.ShardRaw[K];
    }
  }
  return Error::success();
}

ByteReader ArchiveFrames::blob(const uint8_t *Archive, size_t K) const {
  const ArchiveIndex::ShardExtent &E = Index.Shards[K];
  size_t Offset = BlobBase + static_cast<size_t>(E.Offset);
  ByteReader R(Archive, Offset + static_cast<size_t>(E.Length));
  R.skip(Offset);
  return R;
}

Expected<ArchiveFrames> cjpack::readArchiveFrames(ByteReader &R,
                                                  uint8_t Version,
                                                  const DecodeLimits &Limits,
                                                  DecodeBudget *Budget) {
  ArchiveFrames F;
  if (Version == FormatVersionIndexed) {
    size_t Start = R.position();
    uint64_t IndexLen = readVarUInt(R);
    if (R.hasError())
      return R.takeError("index");
    if (IndexLen > R.remaining())
      return makeError(ErrorCode::Truncated,
                       "index: frame extends past end of archive");
    if (IndexLen > Limits.MaxStreamBytes)
      return makeError(ErrorCode::LimitExceeded,
                       "index: frame length over limit");
    ByteReader IndexR(R.readSpan(static_cast<size_t>(IndexLen)));
    auto Index = ArchiveIndex::deserialize(IndexR, Limits);
    if (!Index)
      return Index.takeError();
    F.Index = std::move(*Index);
    F.IndexBytes = R.position() - Start;
    F.ShardCount = F.Index.Shards.size();
  }
  if (Version != FormatVersionSerial) {
    size_t Start = R.position();
    auto Dict = SharedDictionary::deserialize(R, Limits, Budget);
    if (!Dict)
      return Dict.takeError();
    F.Dict = std::move(*Dict);
    F.DictionaryBytes = R.position() - Start;
  }
  if (Version == FormatVersionSharded) {
    size_t Start = R.position();
    uint64_t Count = readVarUInt(R);
    if (R.hasError())
      return errorAt(R.errorCode(), "streams: shard count cut off", R);
    if (Count == 0 || Count > MaxShards)
      return errorAt(ErrorCode::Corrupt, "streams: implausible shard count",
                     R);
    F.ShardCount = static_cast<size_t>(Count);
    F.CountBytes = R.position() - Start;
  }
  if (Version == FormatVersionIndexed) {
    // The index already proved the extents contiguous from zero.
    F.BlobBase = R.position();
    uint64_t BlobBytes = F.Index.blobBytes();
    if (BlobBytes > R.remaining())
      return makeError(ErrorCode::Truncated,
                       "index: shard blobs extend past end of archive");
    if (BlobBytes < R.remaining())
      return makeError(ErrorCode::Corrupt,
                       "index: trailing bytes after shard blobs");
  }
  return F;
}

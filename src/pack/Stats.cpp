//===- Stats.cpp - archive inspection without decoding --------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/Stats.h"
#include "pack/Container.h"

using namespace cjpack;

namespace {

/// Adds the framing of one stream directory to \p Stats, through the
/// same framing step the decoder runs before it inflates anything.
Error statDirectory(ByteReader &R, size_t ShardCount,
                    const DecodeLimits &Limits, ArchiveStats &Stats) {
  auto Dir = frameStreamDirectory(R, ShardCount, Limits);
  if (!Dir)
    return Dir.takeError();
  for (unsigned I = 0; I < NumStreams; ++I) {
    const StreamEntry &E = (*Dir)[I];
    // Accumulating (not assigning) rolls the per-stream totals up
    // across the shard blobs of a version-3 archive.
    Stats.Sizes.Raw[I] += E.RawTotal;
    Stats.Sizes.Packed[I] += E.WireBytes;
    Stats.BackendPacked[E.Method] += E.WireBytes;
    Stats.BackendStreams[E.Method] += 1;
  }
  return Error::success();
}

} // namespace

Expected<ArchiveStats>
cjpack::statPackedArchive(const std::vector<uint8_t> &Archive,
                          const DecodeLimits &Limits) {
  ByteReader R(Archive);
  auto Header = readArchiveHeader(R, "stats");
  if (!Header)
    return Header.takeError();
  ArchiveStats Stats;
  Stats.ArchiveBytes = Archive.size();
  Stats.Version = Header->Version;
  Stats.Scheme = Header->Scheme;
  Stats.CollapseOpcodes = (Header->Flags & 1) != 0;
  Stats.CompressStreams = (Header->Flags & 2) != 0;
  Stats.PreloadStandardRefs = (Header->Flags & 4) != 0;
  Stats.BackendCode = (Header->Flags >> BackendFlagShift) & BackendFlagMask;
  auto Frames = readArchiveFrames(R, Stats.Version, Limits);
  if (!Frames)
    return Frames.takeError();
  // The shard-count varint is container framing, charged to the header
  // so the per-stream packed sizes still sum to the payload.
  Stats.HeaderBytes = ArchiveHeaderBytes + Frames->CountBytes;
  Stats.IndexBytes = Frames->IndexBytes;
  Stats.IndexedClasses = Frames->Index.Classes.size();
  Stats.Shards = Frames->ShardCount;
  Stats.DictionaryBytes = Frames->DictionaryBytes;
  Stats.DictionaryEntries = Frames->Dict.entryCount();

  if (Stats.Version != FormatVersionIndexed) {
    if (auto E = statDirectory(R, Stats.Shards, Limits, Stats))
      return E;
    return Stats;
  }
  // The index is authoritative for the blob extents; each blob must
  // hold exactly one complete directory.
  for (size_t K = 0; K < Stats.Shards; ++K) {
    ByteReader Blob = Frames->blob(Archive.data(), K);
    if (auto E = statDirectory(Blob, 1, Limits, Stats))
      return E;
  }
  return Stats;
}

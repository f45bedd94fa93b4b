//===- Container.h - the packed archive container --------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of the packed archive's framing, shared by every
/// surface that writes or reads it (packClasses, unpackClasses,
/// PackedArchiveReader, statPackedArchive), so no two of them can
/// disagree about what an archive is. The paper ships each separated
/// stream through zlib on its own (§4, §6); the list of those streams,
/// the stream directory, is the whole container:
///
///   v1: header | directory (1 shard)
///   v2: header | dictionary | varint shard count | directory (N shards)
///   v3: header | varint index length | index | dictionary
///       | one directory (1 shard) per shard blob
///
/// A directory holds, per stream in id order: id byte, method byte, one
/// varint raw length per shard, varint stored length, stored bytes. The
/// shards' slices of a stream are concatenated and compressed as one
/// unit, so sharding does not fragment the compressor's context, and the
/// per-shard lengths slice them back out. The directory ends its input:
/// bytes after it are Corrupt, and input that ends inside it is
/// Truncated, with archive-absolute offsets.
///
/// The versioning rule: any change to the byte layout bumps the version,
/// and decoders reject versions they do not know with a typed
/// VersionMismatch error.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_PACK_CONTAINER_H
#define CJPACK_PACK_CONTAINER_H

#include "coder/RefCoder.h"
#include "pack/ArchiveIndex.h"
#include "pack/Dictionary.h"
#include "pack/Streams.h"
#include <array>
#include <span>

namespace cjpack {

struct PackOptions;

/// Wire-format versions, written in the archive header after the magic.
/// Version 1 is written for one shard, version 2 for more, and version 3
/// (PackOptions::RandomAccessIndex) for random access by class name.
inline constexpr uint8_t FormatVersionSerial = 1;
inline constexpr uint8_t FormatVersionSharded = 2;
inline constexpr uint8_t FormatVersionIndexed = 3;

/// Upper bound on shards per archive; a header claiming more is corrupt.
inline constexpr size_t MaxShards = 4096;

/// The archive header: magic "CJPK", then these fields.
inline constexpr size_t ArchiveHeaderBytes = 7;
struct ArchiveHeader {
  uint8_t Version = 0;
  RefScheme Scheme = RefScheme::MtfTransientsContext;
  /// Bit 0 collapse opcodes, bit 1 compress streams, bit 2 standard
  /// preload, bits 3..5 the advisory backend code (Backend.h).
  uint8_t Flags = 0;
};

/// Writes the header of a \p Version archive packed with \p Options.
void writeArchiveHeader(ByteWriter &W, uint8_t Version,
                        const PackOptions &Options);

/// Reads and validates the header: magic, a known version, scheme and
/// backend code. Callers reject the known versions they do not decode.
/// \p Context prefixes the error messages.
Expected<ArchiveHeader> readArchiveHeader(ByteReader &R,
                                          const char *Context);

/// Writes the stream directory of \p Shards (one or more). Each stream
/// is stored by its planned backend when that strictly shrinks it, else
/// as is. \p Sizes, when non-null, is charged per stream the raw bytes
/// and the entry's wire bytes (header included, so the per-stream packed
/// sizes sum to the directory size).
void writeStreamDirectory(ByteWriter &W, std::span<const StreamSet> Shards,
                          const BackendPlan &Plan, StreamSizes *Sizes);

/// One directory entry, framed and validated but not decoded.
struct StreamEntry {
  uint8_t Method = 0;
  std::vector<size_t> ShardRaw; ///< declared raw length per shard
  size_t RawTotal = 0;
  std::span<const uint8_t> Stored;
  size_t WireBytes = 0; ///< entry header plus stored bytes
};

using StreamDirectory = std::array<StreamEntry, NumStreams>;

/// Frames a whole directory of \p ShardCount shards without inflating
/// anything: ids in order, known method bytes, declared lengths within
/// \p Limits, stored-as-is sizes that match, and nothing after the last
/// entry. The stats walk stops here; readStreamDirectory goes on.
Expected<StreamDirectory>
frameStreamDirectory(ByteReader &R, size_t ShardCount,
                     const DecodeLimits &Limits = {});

/// Frames, decodes and slices a directory into \p Shards, whose size is
/// the shard count. \p Budget, when non-null, is charged for every byte
/// of decompressor output, so a caller decoding many directories of one
/// archive (the lazy reader) shares one decompression-bomb bound.
Error readStreamDirectory(ByteReader &R, std::span<StreamSet> Shards,
                          const DecodeLimits &Limits = {},
                          DecodeBudget *Budget = nullptr);

/// What lies between the header and the stream directories: nothing
/// in version 1; the dictionary and the shard count in version 2; the
/// index and the dictionary in version 3, whose shard blobs must then
/// tile the rest of the archive exactly.
struct ArchiveFrames {
  SharedDictionary Dict;
  size_t DictionaryBytes = 0;
  size_t ShardCount = 1;
  /// The version-2 shard-count varint: framing no stream owns.
  size_t CountBytes = 0;
  ArchiveIndex Index;
  /// Index length prefix plus index frame: every byte that exists only
  /// for random access.
  size_t IndexBytes = 0;
  /// Archive offset of the first version-3 shard blob.
  size_t BlobBase = 0;

  /// A reader over version-3 shard \p K's blob of \p Archive that
  /// reports archive-absolute offsets.
  ByteReader blob(const uint8_t *Archive, size_t K) const;
};

/// Reads the frames of a \p Version archive after its header. \p Budget,
/// when non-null, is charged for a compressed dictionary.
Expected<ArchiveFrames> readArchiveFrames(ByteReader &R, uint8_t Version,
                                          const DecodeLimits &Limits = {},
                                          DecodeBudget *Budget = nullptr);

} // namespace cjpack

#endif // CJPACK_PACK_CONTAINER_H

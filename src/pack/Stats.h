//===- Stats.h - archive inspection without decoding -----------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reads the composition of a packed archive straight off the wire: per
/// stream the raw and stored byte counts from the stream directory, plus
/// the header, index, and dictionary framing, without inflating or
/// decoding any stream payload. The accounting obeys a sum identity
/// checked by tests: HeaderBytes + IndexBytes + DictionaryBytes +
/// sum(Sizes.Packed) == ArchiveBytes, and it matches the StreamSizes
/// the encoder reported when the archive was produced.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_PACK_STATS_H
#define CJPACK_PACK_STATS_H

#include "coder/RefCoder.h"
#include "pack/Streams.h"
#include "support/DecodeLimits.h"
#include "support/Error.h"
#include <cstdint>
#include <vector>

namespace cjpack {

/// Wire-level composition of one packed archive.
struct ArchiveStats {
  /// Format version byte (FormatVersionSerial, FormatVersionSharded,
  /// or FormatVersionIndexed).
  uint8_t Version = 0;
  /// Reference-encoding scheme recorded in the header.
  RefScheme Scheme = RefScheme::MtfTransientsContext;
  /// Header option flags, decoded.
  bool CollapseOpcodes = false;
  bool CompressStreams = false;
  bool PreloadStandardRefs = false;
  /// Whole-archive backend code from flags bits 3..5 (advisory; see
  /// archiveBackendCodeName for the printable form).
  uint8_t BackendCode = 0;
  /// Shard count (1 for version-1 archives).
  size_t Shards = 1;
  /// Fixed header bytes, plus the shard-count varint for version 2 —
  /// framing not attributable to any stream.
  size_t HeaderBytes = 0;
  /// Version-3 archives: the per-class index frame including its length
  /// prefix — every byte that exists only for random access — and the
  /// class entries it addresses (0 for versions 1/2).
  size_t IndexBytes = 0;
  size_t IndexedClasses = 0;
  /// Serialized shared-dictionary frame (versions 2/3; 0 for version 1)
  /// and the definitions it carries.
  size_t DictionaryBytes = 0;
  size_t DictionaryEntries = 0;
  /// Whole-archive size, for ratio math.
  size_t ArchiveBytes = 0;
  /// Per-stream accounting. Raw is the declared pre-compression size,
  /// Packed is the stored size plus that stream's directory header, so
  /// packed sizes sum to the archive payload. Items is always zero:
  /// item counts are encoder telemetry, not wire data.
  StreamSizes Sizes;
  /// Per-backend accounting, keyed by wire method byte: packed bytes
  /// (stored + directory header, so sum(BackendPacked) ==
  /// Sizes.totalPacked()) and the number of stream directory entries
  /// that used each backend.
  std::array<size_t, NumBackends> BackendPacked{};
  std::array<size_t, NumBackends> BackendStreams{};
};

/// Parses the composition of \p Archive. Frames it with the decoder's
/// own header, frame and directory readers (Container.h), so it fails
/// with the decoder's typed Error on any malformed or truncated framing,
/// including trailing bytes after the last stream, but it never inflates
/// or decodes stream contents, so it is cheap even for large archives.
Expected<ArchiveStats> statPackedArchive(const std::vector<uint8_t> &Archive,
                                         const DecodeLimits &Limits = {});

} // namespace cjpack

#endif // CJPACK_PACK_STATS_H

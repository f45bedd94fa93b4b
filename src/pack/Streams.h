//===- Streams.h - separated wire streams (§4, §7) -------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The packed format separates dissimilar data into independent byte
/// streams — opcodes, register numbers, integer constants, each kind of
/// reference, string lengths, string characters — and compresses each
/// on its own (§4, §7, [EEF+97]). StreamSet is one shard's set of those
/// streams, written by the encoder and read by the decoder; the stream
/// directory that frames them on the wire, for every format version, is
/// in Container.h. Every stream carries a reporting category so the
/// Table 6 composition columns (Strings/Opcodes/Ints/Refs/Misc) fall out
/// of the per-stream packed sizes.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_PACK_STREAMS_H
#define CJPACK_PACK_STREAMS_H

#include "pack/Backend.h"
#include "support/ByteBuffer.h"
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace cjpack {

/// The separated streams of the packed format.
enum class StreamId : uint8_t {
  Counts,           ///< structure counts, versions, lengths, misc headers
  Flags,            ///< access flags (with attribute-presence bits, §4)
  Registers,        ///< local-variable numbers from bytecode
  BranchOffsets,    ///< relative branch/switch targets
  IntConsts,        ///< bipush/sipush/iinc/ldc-int/switch keys/const fields
  FloatConsts,      ///< float constant raw bits
  LongConsts,       ///< long constant raw bits
  DoubleConsts,     ///< double constant raw bits
  Opcodes,          ///< opcode stream (with collapse/ldc pseudo-opcodes)
  PackageRefs,      ///< references to package names
  SimpleNameRefs,   ///< references to simple class names
  ClassRefs,        ///< references to ClassRef objects
  FieldNameRefs,    ///< references to field names
  MethodNameRefs,   ///< references to method names
  FieldRefs,        ///< references to FieldRef objects
  MethodRefs,       ///< references to MethodRef objects
  StringConstRefs,  ///< references to string constants
  StringLengths,    ///< lengths of all newly defined strings
  NameChars,        ///< characters of member names
  ClassNameChars,   ///< characters of package + simple class names
  StringConstChars, ///< characters of string constants
};

inline constexpr unsigned NumStreams =
    static_cast<unsigned>(StreamId::StringConstChars) + 1;

/// Reporting categories for Table 6's composition columns.
enum class StreamCategory : uint8_t { Strings, Opcodes, Ints, Refs, Misc };

inline constexpr unsigned NumStreamCategories =
    static_cast<unsigned>(StreamCategory::Misc) + 1;

/// Category of \p Id. The switch is exhaustive with no default, so adding
/// a StreamId enumerator without classifying it breaks the -Werror build
/// (-Wswitch), and the static_asserts below keep the classification in
/// sync with NumStreams.
constexpr StreamCategory streamCategory(StreamId Id) {
  switch (Id) {
  case StreamId::StringLengths:
  case StreamId::NameChars:
  case StreamId::ClassNameChars:
  case StreamId::StringConstChars:
    return StreamCategory::Strings;
  case StreamId::Opcodes:
    return StreamCategory::Opcodes;
  case StreamId::IntConsts:
    return StreamCategory::Ints;
  case StreamId::PackageRefs:
  case StreamId::SimpleNameRefs:
  case StreamId::ClassRefs:
  case StreamId::FieldNameRefs:
  case StreamId::MethodNameRefs:
  case StreamId::FieldRefs:
  case StreamId::MethodRefs:
  case StreamId::StringConstRefs:
    return StreamCategory::Refs;
  case StreamId::Counts:
  case StreamId::Flags:
  case StreamId::Registers:
  case StreamId::BranchOffsets:
  case StreamId::FloatConsts:
  case StreamId::LongConsts:
  case StreamId::DoubleConsts:
    return StreamCategory::Misc;
  }
  return StreamCategory::Misc; // unreachable for in-range ids
}

/// Printable name of \p Id; exhaustive like streamCategory.
constexpr const char *streamName(StreamId Id) {
  switch (Id) {
  case StreamId::Counts: return "Counts";
  case StreamId::Flags: return "Flags";
  case StreamId::Registers: return "Registers";
  case StreamId::BranchOffsets: return "BranchOffsets";
  case StreamId::IntConsts: return "IntConsts";
  case StreamId::FloatConsts: return "FloatConsts";
  case StreamId::LongConsts: return "LongConsts";
  case StreamId::DoubleConsts: return "DoubleConsts";
  case StreamId::Opcodes: return "Opcodes";
  case StreamId::PackageRefs: return "PackageRefs";
  case StreamId::SimpleNameRefs: return "SimpleNameRefs";
  case StreamId::ClassRefs: return "ClassRefs";
  case StreamId::FieldNameRefs: return "FieldNameRefs";
  case StreamId::MethodNameRefs: return "MethodNameRefs";
  case StreamId::FieldRefs: return "FieldRefs";
  case StreamId::MethodRefs: return "MethodRefs";
  case StreamId::StringConstRefs: return "StringConstRefs";
  case StreamId::StringLengths: return "StringLengths";
  case StreamId::NameChars: return "NameChars";
  case StreamId::ClassNameChars: return "ClassNameChars";
  case StreamId::StringConstChars: return "StringConstChars";
  }
  return "?"; // unreachable for in-range ids
}

constexpr const char *streamCategoryName(StreamCategory C) {
  switch (C) {
  case StreamCategory::Strings: return "Strings";
  case StreamCategory::Opcodes: return "Opcodes";
  case StreamCategory::Ints: return "Ints";
  case StreamCategory::Refs: return "Refs";
  case StreamCategory::Misc: return "Misc";
  }
  return "?"; // unreachable for in-range categories
}

namespace detail {

/// True when every in-range StreamId has a real name (not the
/// out-of-range sentinel).
constexpr bool allStreamsNamed() {
  for (unsigned I = 0; I < NumStreams; ++I) {
    const char *Name = streamName(static_cast<StreamId>(I));
    if (Name[0] == '?' || Name[0] == '\0')
      return false;
  }
  return true;
}

/// Number of streams classified into \p C.
constexpr unsigned streamsInCategory(StreamCategory C) {
  unsigned N = 0;
  for (unsigned I = 0; I < NumStreams; ++I)
    if (streamCategory(static_cast<StreamId>(I)) == C)
      ++N;
  return N;
}

} // namespace detail

static_assert(detail::allStreamsNamed(),
              "every StreamId needs a printable name");
static_assert(detail::streamsInCategory(StreamCategory::Strings) == 4 &&
                  detail::streamsInCategory(StreamCategory::Opcodes) == 1 &&
                  detail::streamsInCategory(StreamCategory::Ints) == 1 &&
                  detail::streamsInCategory(StreamCategory::Refs) == 8 &&
                  detail::streamsInCategory(StreamCategory::Misc) == 7,
              "stream category composition changed; update Table 6 "
              "reporting and these expected counts");
static_assert(detail::streamsInCategory(StreamCategory::Strings) +
                      detail::streamsInCategory(StreamCategory::Opcodes) +
                      detail::streamsInCategory(StreamCategory::Ints) +
                      detail::streamsInCategory(StreamCategory::Refs) +
                      detail::streamsInCategory(StreamCategory::Misc) ==
                  NumStreams,
              "every stream must land in exactly one category");

/// Which compression backend each stream's final stage uses. The
/// directory writer keeps the "compress only if strictly smaller, else
/// store" fallback per stream, so a plan is a preference, not a
/// guarantee — the wire method byte records what actually happened.
struct BackendPlan {
  std::array<BackendId, NumStreams> Stream;

  BackendPlan() { Stream.fill(BackendId::Zlib); }

  static BackendPlan uniform(BackendId Id) {
    BackendPlan P;
    P.Stream.fill(Id);
    return P;
  }
};

/// Per-stream raw and packed byte counts, summed by the directory writer
/// over every directory of an archive, plus item counts (varints,
/// strings, fixed-width values written to the stream) recorded by the
/// encoder's emitting pass.
struct StreamSizes {
  std::array<size_t, NumStreams> Raw{};
  std::array<size_t, NumStreams> Packed{};
  std::array<uint64_t, NumStreams> Items{};

  size_t totalRaw() const;
  size_t totalPacked() const;
  size_t packedOf(StreamCategory C) const;
  uint64_t totalItems() const;
};

/// A set of named byte streams being written or read.
class StreamSet {
public:
  /// Writer side: the sink for \p Id.
  ByteWriter &out(StreamId Id) {
    return Writers[static_cast<unsigned>(Id)];
  }

  /// Reader side: the source for \p Id (valid after adopt).
  ByteReader &in(StreamId Id) {
    auto &Slot = Readers[static_cast<unsigned>(Id)];
    assert(Slot && "stream not read");
    return *Slot;
  }

  /// Writer side: the finished raw bytes of \p Id.
  const std::vector<uint8_t> &raw(StreamId Id) const {
    return Writers[static_cast<unsigned>(Id)].data();
  }

  /// Reader side: installs \p Bytes as the full contents of \p Id.
  void adopt(StreamId Id, std::vector<uint8_t> Bytes);

private:
  std::array<ByteWriter, NumStreams> Writers;
  std::array<std::vector<uint8_t>, NumStreams> Buffers;
  std::array<std::unique_ptr<ByteReader>, NumStreams> Readers;
};

} // namespace cjpack

#endif // CJPACK_PACK_STREAMS_H

//===- test_streams.cpp - stream directory tests --------------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// One writer and one reader frame the streams of every format version
// (Container.h): one shard for version 1 and each version-3 blob, N
// shards for version 2. The tests run at both shard counts.
//
//===----------------------------------------------------------------------===//

#include "corpus/Rng.h"
#include "pack/Container.h"
#include "support/VarInt.h"
#include <gtest/gtest.h>

using namespace cjpack;

namespace {

BackendPlan planFor(bool Compress) {
  return BackendPlan::uniform(Compress ? BackendId::Zlib : BackendId::Store);
}

std::vector<uint8_t> writeDirectory(const std::vector<StreamSet> &Shards,
                                    bool Compress, StreamSizes *Sizes) {
  ByteWriter W;
  writeStreamDirectory(W, Shards, planFor(Compress), Sizes);
  return W.take();
}

std::vector<uint8_t> fillStreams(StreamSet &S) {
  // Write recognizable content into a few streams.
  for (int I = 0; I < 1000; ++I) {
    writeVarUInt(S.out(StreamId::Counts), static_cast<uint64_t>(I));
    S.out(StreamId::Opcodes).writeU1(static_cast<uint8_t>(I % 7));
  }
  S.out(StreamId::NameChars).writeString("the quick brown fox");
  std::vector<uint8_t> Expected = {1, 2, 3, 4, 5};
  S.out(StreamId::Registers).writeBytes(Expected);
  return Expected;
}

/// \p Count shards, each filled by fillStreams.
std::vector<StreamSet> filledShards(size_t Count) {
  std::vector<StreamSet> Shards(Count);
  for (StreamSet &S : Shards)
    fillStreams(S);
  return Shards;
}

constexpr size_t ShardCounts[] = {1, 3};

} // namespace

TEST(StreamSet, SerializeDeserializeRoundTrip) {
  for (size_t Count : ShardCounts) {
    for (bool Compress : {true, false}) {
      std::vector<StreamSet> Shards = filledShards(Count);
      std::vector<uint8_t> Regs = {1, 2, 3, 4, 5};
      StreamSizes Sizes;
      std::vector<uint8_t> Bytes = writeDirectory(Shards, Compress, &Sizes);

      std::vector<StreamSet> Got(Count);
      ByteReader R(Bytes);
      ASSERT_FALSE(static_cast<bool>(readStreamDirectory(R, Got)))
          << Count << " " << Compress;
      EXPECT_TRUE(R.atEnd());
      for (StreamSet &S : Got) {
        for (int I = 0; I < 1000; ++I) {
          EXPECT_EQ(readVarUInt(S.in(StreamId::Counts)),
                    static_cast<uint64_t>(I));
          EXPECT_EQ(S.in(StreamId::Opcodes).readU1(), I % 7);
        }
        EXPECT_EQ(S.in(StreamId::NameChars).readString(19),
                  "the quick brown fox");
        EXPECT_EQ(S.in(StreamId::Registers).readBytes(5), Regs);
        EXPECT_TRUE(S.in(StreamId::Registers).atEnd());
      }
    }
  }
}

TEST(StreamSet, CompressionShrinksRedundantStreams) {
  for (size_t Count : ShardCounts) {
    std::vector<StreamSet> Shards(Count);
    for (StreamSet &S : Shards)
      for (int I = 0; I < 5000; ++I)
        S.out(StreamId::Opcodes).writeU1(static_cast<uint8_t>(I % 3));
    StreamSizes Plain, Packed;
    size_t Raw = writeDirectory(Shards, false, &Plain).size();
    size_t Comp = writeDirectory(Shards, true, &Packed).size();
    EXPECT_LT(Comp, Raw / 5) << Count;
    EXPECT_EQ(Plain.Raw[static_cast<unsigned>(StreamId::Opcodes)],
              5000u * Count);
    EXPECT_LT(Packed.Packed[static_cast<unsigned>(StreamId::Opcodes)],
              200u);
  }
}

TEST(StreamSet, IncompressibleStreamsAreStored) {
  for (size_t Count : ShardCounts) {
    std::vector<StreamSet> Shards(Count);
    Rng R(9);
    for (StreamSet &S : Shards)
      for (int I = 0; I < 4096; ++I)
        S.out(StreamId::DoubleConsts).writeU1(static_cast<uint8_t>(R.next()));
    StreamSizes Sizes;
    std::vector<uint8_t> Bytes = writeDirectory(Shards, true, &Sizes);
    unsigned Idx = static_cast<unsigned>(StreamId::DoubleConsts);
    // Stored verbatim: packed ≈ raw + small header.
    EXPECT_GE(Sizes.Packed[Idx], Sizes.Raw[Idx]);
    EXPECT_LE(Sizes.Packed[Idx], Sizes.Raw[Idx] + 16);
    std::vector<StreamSet> Got(Count);
    ByteReader Rd(Bytes);
    ASSERT_FALSE(static_cast<bool>(readStreamDirectory(Rd, Got))) << Count;
  }
}

TEST(StreamSet, SizesSumToSerializedBytes) {
  for (size_t Count : ShardCounts) {
    StreamSizes Sizes;
    std::vector<uint8_t> Bytes =
        writeDirectory(filledShards(Count), true, &Sizes);
    EXPECT_EQ(Sizes.totalPacked(), Bytes.size());
    size_t ByCategory = 0;
    for (StreamCategory C :
         {StreamCategory::Strings, StreamCategory::Opcodes,
          StreamCategory::Ints, StreamCategory::Refs, StreamCategory::Misc})
      ByCategory += Sizes.packedOf(C);
    EXPECT_EQ(ByCategory, Bytes.size());

    // The framing step reports the same per-entry wire bytes.
    ByteReader R(Bytes);
    auto Dir = frameStreamDirectory(R, Count);
    ASSERT_TRUE(static_cast<bool>(Dir)) << Dir.message();
    for (unsigned I = 0; I < NumStreams; ++I) {
      EXPECT_EQ((*Dir)[I].WireBytes, Sizes.Packed[I]);
      EXPECT_EQ((*Dir)[I].RawTotal, Sizes.Raw[I]);
    }
  }
}

TEST(StreamSet, DeserializeRejectsCorruption) {
  for (size_t Count : ShardCounts) {
    std::vector<uint8_t> Bytes =
        writeDirectory(filledShards(Count), true, nullptr);
    // Truncation at several depths, every one of them inside an entry.
    for (size_t Cut : {size_t(1), Bytes.size() / 3, Bytes.size() - 1}) {
      std::vector<uint8_t> Short(Bytes.begin(),
                                 Bytes.begin() + static_cast<long>(Cut));
      std::vector<StreamSet> Got(Count);
      ByteReader R(Short);
      Error E = readStreamDirectory(R, Got);
      ASSERT_TRUE(static_cast<bool>(E)) << Count << " " << Cut;
      EXPECT_EQ(E.code(), ErrorCode::Truncated) << E.message();
    }
    // Bad stream id in the first header byte.
    std::vector<uint8_t> Bad = Bytes;
    Bad[0] = 0xEE;
    std::vector<StreamSet> Got(Count);
    ByteReader R(Bad);
    Error E = readStreamDirectory(R, Got);
    ASSERT_TRUE(static_cast<bool>(E)) << Count;
    EXPECT_EQ(E.code(), ErrorCode::Corrupt) << E.message();
    // Bytes after the last entry.
    std::vector<uint8_t> Long = Bytes;
    Long.push_back(0);
    ByteReader LongR(Long);
    Error Trailing = readStreamDirectory(LongR, Got);
    ASSERT_TRUE(static_cast<bool>(Trailing)) << Count;
    EXPECT_EQ(Trailing.code(), ErrorCode::Corrupt) << Trailing.message();
  }
}

TEST(StreamSet, EveryStreamHasNameAndCategory) {
  for (unsigned I = 0; I < NumStreams; ++I) {
    StreamId Id = static_cast<StreamId>(I);
    EXPECT_STRNE(streamName(Id), "?");
    EXPECT_STRNE(streamCategoryName(streamCategory(Id)), "?");
  }
}

namespace {

/// Three shards with distinct content, one stream populated only by the
/// middle shard, and everything else empty.
std::vector<StreamSet> makeShardSets() {
  std::vector<StreamSet> Shards(3);
  for (size_t K = 0; K < Shards.size(); ++K) {
    for (int I = 0; I < 200 * (static_cast<int>(K) + 1); ++I)
      Shards[K].out(StreamId::Opcodes)
          .writeU1(static_cast<uint8_t>(I % 11 + static_cast<int>(K)));
    Shards[K].out(StreamId::NameChars)
        .writeString("shard" + std::to_string(K));
  }
  Shards[1].out(StreamId::Registers).writeBytes({9, 8, 7});
  return Shards;
}

/// The version-2 framing after the header: an empty dictionary frame,
/// the shard count, then the directory, which starts at \p *DirStart.
std::vector<uint8_t> writeSharded(const std::vector<StreamSet> &Shards,
                                  bool Compress, StreamSizes *Sizes,
                                  size_t *DirStart) {
  ByteWriter W;
  SharedDictionary().serialize(W, Compress);
  writeVarUInt(W, Shards.size());
  *DirStart = W.size();
  writeStreamDirectory(W, Shards, planFor(Compress), Sizes);
  return W.take();
}

Expected<std::vector<StreamSet>> readSharded(ByteReader &R) {
  auto Frames = readArchiveFrames(R, FormatVersionSharded);
  if (!Frames)
    return Frames.takeError();
  std::vector<StreamSet> Shards(Frames->ShardCount);
  if (auto E = readStreamDirectory(R, Shards))
    return E;
  return Shards;
}

} // namespace

TEST(ShardedStreams, RoundTripsThroughSerialization) {
  for (bool Compress : {true, false}) {
    std::vector<StreamSet> Shards = makeShardSets();
    StreamSizes Sizes;
    size_t DirStart = 0;
    std::vector<uint8_t> Bytes =
        writeSharded(Shards, Compress, &Sizes, &DirStart);

    ByteReader R(Bytes);
    auto Got = readSharded(R);
    ASSERT_TRUE(static_cast<bool>(Got)) << Got.message();
    EXPECT_TRUE(R.atEnd());
    ASSERT_EQ(Got->size(), Shards.size());
    for (size_t K = 0; K < Shards.size(); ++K)
      for (unsigned I = 0; I < NumStreams; ++I) {
        StreamId Id = static_cast<StreamId>(I);
        const std::vector<uint8_t> &Raw = Shards[K].raw(Id);
        EXPECT_EQ((*Got)[K].in(Id).readBytes(Raw.size()), Raw);
        EXPECT_TRUE((*Got)[K].in(Id).atEnd());
      }
    // Accounting covers the directory: everything but the dictionary
    // frame and the shard-count varint.
    EXPECT_EQ(DirStart + Sizes.totalPacked(), Bytes.size()) << Compress;
  }
}

TEST(ShardedStreams, GroupedCompressionSharesContextAcrossShards) {
  // The same incompressible bytes in every shard: per-shard deflate
  // stores four verbatim copies, the grouped directory compresses the
  // repeats as back-references into the first shard's slice.
  Rng Random(11);
  std::vector<uint8_t> Noise;
  for (int I = 0; I < 3000; ++I)
    Noise.push_back(static_cast<uint8_t>(Random.next()));
  std::vector<StreamSet> Shards(4);
  size_t PerShardTotal = 0;
  for (StreamSet &S : Shards) {
    S.out(StreamId::Opcodes).writeBytes(Noise);
    ByteWriter W;
    writeStreamDirectory(W, {&S, 1}, planFor(true), nullptr);
    PerShardTotal += W.size();
  }
  std::vector<uint8_t> Grouped = writeDirectory(Shards, true, nullptr);
  EXPECT_LT(Grouped.size(), PerShardTotal / 2);
}

TEST(ShardedStreams, RejectsImplausibleShardCounts) {
  for (uint64_t Count : {uint64_t(0), uint64_t(MaxShards + 1)}) {
    ByteWriter W;
    SharedDictionary().serialize(W, false);
    writeVarUInt(W, Count);
    std::vector<uint8_t> Bytes = W.take();
    ByteReader R(Bytes);
    auto Got = readArchiveFrames(R, FormatVersionSharded);
    ASSERT_FALSE(static_cast<bool>(Got)) << Count;
    EXPECT_EQ(Got.code(), ErrorCode::Corrupt) << Got.message();
  }
}

TEST(ShardedStreams, RejectsCorruption) {
  size_t DirStart = 0;
  std::vector<uint8_t> Bytes =
      writeSharded(makeShardSets(), true, nullptr, &DirStart);
  // Truncation at several depths, from the shard count on.
  for (size_t Cut : {DirStart - 1, Bytes.size() / 3, Bytes.size() - 1}) {
    std::vector<uint8_t> Short(Bytes.begin(),
                               Bytes.begin() + static_cast<long>(Cut));
    ByteReader R(Short);
    auto Got = readSharded(R);
    ASSERT_FALSE(static_cast<bool>(Got)) << Cut;
    EXPECT_EQ(Got.code(), ErrorCode::Truncated) << Got.message();
  }
  // Bad stream id in the first header byte after the shard count.
  std::vector<uint8_t> Bad = Bytes;
  Bad[DirStart] = 0xEE;
  ByteReader R(Bad);
  auto Got = readSharded(R);
  ASSERT_FALSE(static_cast<bool>(Got));
  EXPECT_EQ(Got.code(), ErrorCode::Corrupt) << Got.message();
}

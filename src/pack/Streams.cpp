//===- Streams.cpp - separated wire streams (§4, §7) ----------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/Streams.h"

using namespace cjpack;

size_t StreamSizes::totalRaw() const {
  size_t Total = 0;
  for (size_t S : Raw)
    Total += S;
  return Total;
}

size_t StreamSizes::totalPacked() const {
  size_t Total = 0;
  for (size_t S : Packed)
    Total += S;
  return Total;
}

size_t StreamSizes::packedOf(StreamCategory C) const {
  size_t Total = 0;
  for (unsigned I = 0; I < NumStreams; ++I)
    if (streamCategory(static_cast<StreamId>(I)) == C)
      Total += Packed[I];
  return Total;
}

uint64_t StreamSizes::totalItems() const {
  uint64_t Total = 0;
  for (uint64_t N : Items)
    Total += N;
  return Total;
}

void StreamSet::adopt(StreamId Id, std::vector<uint8_t> Bytes) {
  unsigned I = static_cast<unsigned>(Id);
  Buffers[I] = std::move(Bytes);
  Readers[I] = std::make_unique<ByteReader>(Buffers[I]);
}

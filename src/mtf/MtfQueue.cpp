//===- MtfQueue.cpp - move-to-front queue over a Fenwick tree -------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mtf/MtfQueue.h"
#include <algorithm>
#include <bit>

using namespace cjpack;

void MtfQueue::pushFront(uint32_t Value) {
  if (Value >= StampOf.size())
    StampOf.resize(size_t{Value} + 1, 0);
  else if (StampOf[Value] != 0)
    return;
  toFront(Value);
}

std::optional<size_t> MtfQueue::use(uint32_t Value) {
  if (Value >= StampOf.size() || StampOf[Value] == 0)
    return std::nullopt;
  size_t Pos = Live - prefix(StampOf[Value]);
  unlink(Value);
  toFront(Value);
  return Pos;
}

std::optional<uint32_t> MtfQueue::useAt(size_t Pos) {
  if (Pos >= Live)
    return std::nullopt;
  // Descend to the smallest stamp whose prefix count reaches the rank
  // (1 = oldest) of the element at Pos.
  uint32_t Rank = Live - static_cast<uint32_t>(Pos);
  uint32_t Stamp = 0;
  for (size_t Step = Tree.size() - 1; Step != 0; Step >>= 1) {
    size_t Next = Stamp + Step;
    if (Next < Tree.size() && Tree[Next] < Rank) {
      Stamp = static_cast<uint32_t>(Next);
      Rank -= Tree[Next];
    }
  }
  uint32_t Value = Slot[Stamp + 1];
  unlink(Value);
  toFront(Value);
  return Value;
}

void MtfQueue::toFront(uint32_t Value) {
  if (Slot.size() >= Tree.size())
    renumber();
  uint32_t Stamp = static_cast<uint32_t>(Slot.size());
  Slot.push_back(Value);
  StampOf[Value] = Stamp;
  add(Stamp, 1);
  ++Live;
}

void MtfQueue::unlink(uint32_t Value) {
  add(StampOf[Value], -1);
  StampOf[Value] = 0;
  --Live;
}

uint32_t MtfQueue::prefix(uint32_t Stamp) const {
  uint32_t Sum = 0;
  for (; Stamp != 0; Stamp &= Stamp - 1)
    Sum += Tree[Stamp];
  return Sum;
}

void MtfQueue::add(uint32_t Stamp, int32_t Delta) {
  for (; Stamp < Tree.size(); Stamp += Stamp & -Stamp)
    Tree[Stamp] += static_cast<uint32_t>(Delta);
}

void MtfQueue::renumber() {
  // Slots whose element has since moved on hold stale entries; the live
  // ones keep their relative order.
  uint32_t Kept = 0;
  for (size_t S = 1; S < Slot.size(); ++S) {
    uint32_t Value = Slot[S];
    if (StampOf[Value] == S) {
      Slot[++Kept] = Value;
      StampOf[Value] = Kept;
    }
  }
  Slot.resize(size_t{Kept} + 1);
  // At least as many free stamps as live ones: the next renumbering is
  // at least Live operations away.
  size_t Cap = std::bit_ceil(std::max<size_t>(2 * size_t{Kept}, 16));
  Tree.assign(Cap + 1, 0);
  for (uint32_t S = 1; S <= Kept; ++S)
    Tree[S] = 1;
  for (size_t S = 1; S <= Cap; ++S) {
    size_t Parent = S + (S & -S);
    if (Parent <= Cap)
      Tree[Parent] += Tree[S];
  }
}

//===- test_mtf.cpp - move-to-front queue tests ---------------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "corpus/Rng.h"
#include "mtf/MtfQueue.h"
#include <algorithm>
#include <gtest/gtest.h>
#include <optional>
#include <vector>

using namespace cjpack;

namespace {

/// The obvious move-to-front list: the back of the vector is the front
/// of the queue, so finding and moving a recent element is cheap.
class NaiveMtf {
public:
  size_t size() const { return Order.size(); }

  void pushFront(uint32_t Value) {
    if (!find(Value))
      Order.push_back(Value);
  }

  std::optional<size_t> use(uint32_t Value) {
    std::optional<size_t> Pos = find(Value);
    if (Pos)
      moveToFront(*Pos);
    return Pos;
  }

  std::optional<uint32_t> useAt(size_t Pos) {
    if (Pos >= Order.size())
      return std::nullopt;
    uint32_t Value = at(Pos);
    moveToFront(Pos);
    return Value;
  }

  uint32_t at(size_t Pos) const { return Order[Order.size() - 1 - Pos]; }

private:
  std::optional<size_t> find(uint32_t Value) const {
    auto It = std::find(Order.rbegin(), Order.rend(), Value);
    if (It == Order.rend())
      return std::nullopt;
    return static_cast<size_t>(It - Order.rbegin());
  }

  void moveToFront(size_t Pos) {
    auto It = Order.end() - 1 - static_cast<ptrdiff_t>(Pos);
    std::rotate(It, It + 1, Order.end());
  }

  std::vector<uint32_t> Order;
};

/// Drives MtfQueue and NaiveMtf with one seeded sequence mixing every
/// operation, including the misses (absent ids, positions past the end,
/// repeated pushes), over \p N distinct ids drawn sparsely from
/// [0, 2N). Most operations take a fresh stamp, and a queue of N ids
/// renumbers its stamps after at most 3N of them, so the 12N + 200
/// operations cross several renumberings.
void runDifferential(uint32_t N, uint64_t Seed) {
  Rng R(Seed);
  std::vector<uint32_t> Ids(2 * size_t{N});
  for (uint32_t I = 0; I < Ids.size(); ++I)
    Ids[I] = I;
  for (size_t I = Ids.size(); I > 1; --I)
    std::swap(Ids[I - 1], Ids[R.below(I)]);
  Ids.resize(N);

  MtfQueue Q;
  NaiveMtf Model;
  size_t Pushed = 0;
  size_t Ops = 12 * size_t{N} + 200;
  for (size_t Step = 0; Step < Ops; ++Step) {
    unsigned P = static_cast<unsigned>(R.below(100));
    if (Pushed < N && (Model.size() == 0 || P < 20)) {
      uint32_t V = Ids[Pushed++];
      Q.pushFront(V);
      Model.pushFront(V);
    } else if (P < 25) {
      // Pushing a present id changes nothing.
      uint32_t V = Model.at(R.below(Model.size()));
      Q.pushFront(V);
      Model.pushFront(V);
    } else if (P < 60) {
      // Mostly hot ids near the front, sometimes anywhere, sometimes an
      // id not (yet) in the queue.
      uint32_t V;
      if (P < 30 && Pushed < N)
        V = Ids[Pushed + R.below(N - Pushed)];
      else if (P < 40)
        V = Model.at(R.below(Model.size()));
      else
        V = Model.at(R.zipf(Model.size()));
      ASSERT_EQ(Q.use(V), Model.use(V)) << "use(" << V << ") step " << Step;
    } else {
      size_t Pos;
      if (P < 63)
        Pos = Model.size() + R.below(3);
      else if (P < 75)
        Pos = R.below(Model.size());
      else
        Pos = R.zipf(Model.size());
      ASSERT_EQ(Q.useAt(Pos), Model.useAt(Pos))
          << "useAt(" << Pos << ") step " << Step;
    }
    ASSERT_EQ(Q.size(), Model.size());
  }
  // Cycle the oldest element to the front size() times: visits the
  // whole order.
  for (size_t I = 0; I < Model.size(); ++I)
    ASSERT_EQ(Q.useAt(Q.size() - 1), Model.useAt(Model.size() - 1));
}

} // namespace

TEST(MtfQueue, InsertFrontAndAccess) {
  MtfQueue Q;
  for (uint32_t V = 0; V < 10; ++V)
    Q.pushFront(V);
  ASSERT_EQ(Q.size(), 10u);
  // Front is the most recently inserted; using the elements in front
  // order leaves each next one at the same depth.
  for (uint32_t I = 0; I < 10; ++I)
    EXPECT_EQ(Q.use(9 - I), I);
}

TEST(MtfQueue, MoveToFront) {
  MtfQueue Q;
  for (uint32_t V = 0; V < 5; ++V)
    Q.pushFront(V);    // 4 3 2 1 0
  EXPECT_EQ(Q.useAt(3), 1u); // 1 4 3 2 0
  EXPECT_EQ(Q.use(1), 0u);
  EXPECT_EQ(Q.use(4), 1u);   // 4 1 3 2 0
  EXPECT_EQ(Q.useAt(4), 0u); // 0 4 1 3 2
  EXPECT_EQ(Q.use(2), 4u);
}

TEST(MtfQueue, MissesLeaveTheQueueUnchanged) {
  MtfQueue Q;
  EXPECT_FALSE(Q.useAt(0).has_value());
  EXPECT_FALSE(Q.use(3).has_value());
  Q.pushFront(5);
  Q.pushFront(9); // 9 5
  EXPECT_FALSE(Q.use(3).has_value());
  EXPECT_FALSE(Q.use(1000).has_value());
  EXPECT_FALSE(Q.useAt(2).has_value());
  Q.pushFront(5); // already present: stays put
  EXPECT_EQ(Q.size(), 2u);
  EXPECT_EQ(Q.use(5), 1u);
}

TEST(MtfQueue, MatchesNaiveModelUnderRandomWorkload) {
  uint64_t Seed = 1;
  for (uint32_t N : {1u, 2u, 3u, 8u, 15u, 16u, 17u, 33u, 100u, 1000u, 4096u,
                     16384u}) {
    SCOPED_TRACE(testing::Message() << "N=" << N << " seed=" << Seed);
    runDifferential(N, Seed++);
    if (HasFatalFailure())
      return;
  }
}

TEST(MtfQueue, EncoderDecoderSymmetry) {
  // Drive an encoder-side queue and a decoder-side queue with the same
  // reference stream; decoder must reproduce the values.
  MtfQueue Enc, Dec;
  Rng R(99);
  std::vector<uint32_t> Universe;
  for (uint32_t V = 100; V < 160; ++V)
    Universe.push_back(V);
  for (int Step = 0; Step < 5000; ++Step) {
    uint32_t V = Universe[R.zipf(Universe.size())];
    auto Pos = Enc.use(V);
    if (!Pos) {
      Enc.pushFront(V);
      Dec.pushFront(V);
    } else {
      ASSERT_EQ(Dec.useAt(*Pos), V);
    }
  }
}

/// MTF behaviour yields small indices for skewed access patterns — the
/// property §5 relies on.
TEST(MtfQueue, SkewedAccessYieldsSmallIndices) {
  MtfQueue Q;
  Rng R(7);
  for (uint32_t V = 0; V < 1000; ++V)
    Q.pushFront(V);
  uint64_t Sum = 0;
  unsigned N = 2000;
  for (unsigned I = 0; I < N; ++I) {
    uint32_t V = 999 - static_cast<uint32_t>(R.zipf(8)); // hot set of 8
    Sum += *Q.use(V);
  }
  // Hot items stay near the front: average index must be far below a
  // uniform baseline (~500).
  EXPECT_LT(Sum / N, 20u);
}

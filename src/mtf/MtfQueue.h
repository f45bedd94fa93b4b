//===- MtfQueue.h - move-to-front queue over a Fenwick tree ----*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The move-to-front queue of §5. Only the sequence of positions reaches
/// the wire, so the queue is free to use any structure that produces the
/// same positions; the paper used Pugh's distance-annotated skiplist,
/// this one uses three flat arrays.
///
/// Every element carries a stamp that grows each time it moves to the
/// front, so the queue order is the descending stamp order. A Fenwick
/// tree over stamps counts the live ones: an element's position is the
/// number of live stamps above its own, and the element at a position is
/// found by a descent over the tree. When the stamps run out they are
/// renumbered densely in order, which costs O(n) once per at least n
/// operations. Each operation is therefore O(log n) plus an amortised
/// O(1), whatever positions a (possibly hostile) archive asks for.
///
/// Element ids index a dense array, so they should be small: the coders
/// pass first-occurrence object ids.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_MTF_MTFQUEUE_H
#define CJPACK_MTF_MTFQUEUE_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace cjpack {

/// Move-to-front queue of element ids; the front is position 0.
class MtfQueue {
public:
  size_t size() const { return Live; }

  /// Inserts \p Value at the front. No-op if already present.
  void pushFront(uint32_t Value);

  /// Compressor: if \p Value is present, returns its current position
  /// and moves it to the front; otherwise returns nullopt and leaves the
  /// queue unchanged.
  std::optional<size_t> use(uint32_t Value);

  /// Decompressor: returns the value at \p Pos and moves it to the
  /// front, or nullopt (queue unchanged) when \p Pos >= size().
  std::optional<uint32_t> useAt(size_t Pos);

private:
  /// Gives \p Value (absent from the tree) the newest stamp.
  void toFront(uint32_t Value);
  /// Takes \p Value's stamp out of the tree.
  void unlink(uint32_t Value);
  /// Number of live stamps in [1, Stamp].
  uint32_t prefix(uint32_t Stamp) const;
  void add(uint32_t Stamp, int32_t Delta);
  /// Renumbers the live stamps 1..Live in order and resizes the tree.
  void renumber();

  std::vector<uint32_t> StampOf; ///< element -> stamp; 0 = absent
  std::vector<uint32_t> Slot;    ///< stamp -> element; next stamp = size
  std::vector<uint32_t> Tree;    ///< Fenwick tree, 1-based, power-of-two
  uint32_t Live = 0;
};

} // namespace cjpack

#endif // CJPACK_MTF_MTFQUEUE_H

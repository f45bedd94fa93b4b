//===- ByteBuffer.h - Big-endian byte readers and writers ------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ByteWriter appends big-endian integers and raw bytes to a growable
/// buffer; ByteReader consumes them from a span. Java classfiles are
/// big-endian throughout, so these are the primitives under the classfile
/// parser/writer and the packed wire format.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_SUPPORT_BYTEBUFFER_H
#define CJPACK_SUPPORT_BYTEBUFFER_H

#include "support/Error.h"
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cjpack {

/// Growable big-endian byte sink.
class ByteWriter {
public:
  void writeU1(uint8_t V) { Bytes.push_back(V); }

  void writeU2(uint16_t V) {
    Bytes.push_back(static_cast<uint8_t>(V >> 8));
    Bytes.push_back(static_cast<uint8_t>(V));
  }

  void writeU4(uint32_t V) {
    writeU2(static_cast<uint16_t>(V >> 16));
    writeU2(static_cast<uint16_t>(V));
  }

  void writeU8(uint64_t V) {
    writeU4(static_cast<uint32_t>(V >> 32));
    writeU4(static_cast<uint32_t>(V));
  }

  void writeBytes(const uint8_t *Data, size_t Len) {
    Bytes.insert(Bytes.end(), Data, Data + Len);
  }

  void writeBytes(const std::vector<uint8_t> &Data) {
    Bytes.insert(Bytes.end(), Data.begin(), Data.end());
  }

  void writeBytes(std::span<const uint8_t> Data) {
    Bytes.insert(Bytes.end(), Data.begin(), Data.end());
  }

  void writeString(std::string_view S) {
    writeBytes(reinterpret_cast<const uint8_t *>(S.data()), S.size());
  }

  /// Patches a previously written big-endian u2 at absolute offset \p At.
  void patchU2(size_t At, uint16_t V) {
    assert(At + 2 <= Bytes.size() && "patch out of range");
    Bytes[At] = static_cast<uint8_t>(V >> 8);
    Bytes[At + 1] = static_cast<uint8_t>(V);
  }

  /// Patches a previously written big-endian u4 at absolute offset \p At.
  void patchU4(size_t At, uint32_t V) {
    assert(At + 4 <= Bytes.size() && "patch out of range");
    Bytes[At] = static_cast<uint8_t>(V >> 24);
    Bytes[At + 1] = static_cast<uint8_t>(V >> 16);
    Bytes[At + 2] = static_cast<uint8_t>(V >> 8);
    Bytes[At + 3] = static_cast<uint8_t>(V);
  }

  size_t size() const { return Bytes.size(); }
  const std::vector<uint8_t> &data() const { return Bytes; }
  std::vector<uint8_t> take() { return std::move(Bytes); }
  /// Empties the sink but keeps its capacity, for reuse.
  void clear() { Bytes.clear(); }

private:
  std::vector<uint8_t> Bytes;
};

/// Bounds-checked big-endian byte source over non-owned memory.
///
/// All read methods report overruns via hasError() rather than asserting so
/// that malformed input files are a recoverable error, not a crash.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Len) : Data(Data), Len(Len) {}
  explicit ByteReader(const std::vector<uint8_t> &Buf)
      : Data(Buf.data()), Len(Buf.size()) {}
  explicit ByteReader(std::span<const uint8_t> Buf)
      : Data(Buf.data()), Len(Buf.size()) {}

  uint8_t readU1() {
    if (!require(1))
      return 0;
    return Data[Pos++];
  }

  uint16_t readU2() {
    if (!require(2))
      return 0;
    uint16_t V = static_cast<uint16_t>(Data[Pos] << 8 | Data[Pos + 1]);
    Pos += 2;
    return V;
  }

  uint32_t readU4() {
    if (!require(4))
      return 0;
    uint32_t V = static_cast<uint32_t>(Data[Pos]) << 24 |
                 static_cast<uint32_t>(Data[Pos + 1]) << 16 |
                 static_cast<uint32_t>(Data[Pos + 2]) << 8 |
                 static_cast<uint32_t>(Data[Pos + 3]);
    Pos += 4;
    return V;
  }

  uint64_t readU8() {
    uint64_t Hi = readU4();
    return Hi << 32 | readU4();
  }

  /// Reads \p N raw bytes; returns an empty vector (and sets the error
  /// flag) on overrun.
  std::vector<uint8_t> readBytes(size_t N) {
    if (!require(N))
      return {};
    std::vector<uint8_t> Out(Data + Pos, Data + Pos + N);
    Pos += N;
    return Out;
  }

  /// Reads \p N raw bytes as a borrowed view of the underlying buffer
  /// (no copy); empty + error flag on overrun. The view is valid as
  /// long as the buffer this reader was constructed over.
  std::span<const uint8_t> readSpan(size_t N) {
    if (!require(N))
      return {};
    std::span<const uint8_t> Out(Data + Pos, N);
    Pos += N;
    return Out;
  }

  /// Reads \p N bytes as a borrowed string view (no copy); same
  /// lifetime rule as readSpan.
  std::string_view readStringView(size_t N) {
    if (!require(N))
      return {};
    std::string_view Out(reinterpret_cast<const char *>(Data + Pos), N);
    Pos += N;
    return Out;
  }

  /// Reads \p N bytes as a string.
  std::string readString(size_t N) {
    if (!require(N))
      return {};
    std::string Out(reinterpret_cast<const char *>(Data + Pos), N);
    Pos += N;
    return Out;
  }

  bool skip(size_t N) {
    if (!require(N))
      return false;
    Pos += N;
    return true;
  }

  size_t position() const { return Pos; }
  size_t remaining() const { return Len - Pos; }
  bool atEnd() const { return Pos == Len; }
  bool hasError() const { return Overrun || Malformed; }

  /// Marks the stream corrupt (e.g. a non-canonical varint). Reads keep
  /// returning zeros; hasError()/takeError() report the failure.
  void flagMalformed() { Malformed = true; }

  /// Classification of the failure: Truncated for overruns, Corrupt for
  /// malformed encodings. Only meaningful when hasError().
  ErrorCode errorCode() const {
    return Malformed ? ErrorCode::Corrupt : ErrorCode::Truncated;
  }

  /// Produces a typed Error, with the byte offset of the failure, if any
  /// read overran the buffer or hit a malformed encoding.
  Error takeError(const char *Context) const {
    if (Malformed)
      return makeError(ErrorCode::Corrupt,
                       std::string(Context) + ": malformed input at byte " +
                           std::to_string(Pos));
    if (!Overrun)
      return Error::success();
    return makeError(ErrorCode::Truncated,
                     std::string(Context) + ": truncated input");
  }

private:
  bool require(size_t N) {
    if (Len - Pos < N) {
      Overrun = true;
      Pos = Len;
      return false;
    }
    return true;
  }

  const uint8_t *Data;
  size_t Len;
  size_t Pos = 0;
  bool Overrun = false;
  bool Malformed = false;
};

} // namespace cjpack

#endif // CJPACK_SUPPORT_BYTEBUFFER_H

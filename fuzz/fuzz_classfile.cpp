//===- fuzz_classfile.cpp - fuzz the classfile parser ---------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Parses arbitrary bytes as a classfile; on success, decodes every Code
// attribute's bytecode and round-trips the file through the writer to
// exercise the full parse/encode surface on near-valid inputs.
//
// Then prepares the class for packing (strip + pool canonicalization).
// When that succeeds, the result must be a fixed point: canonicalizing
// again succeeds, takes the early exit (the pool and every attribute's
// bytes stay where they are) and writes the same bytes. Pools that keep
// MethodHandle, Dynamic or InvokeDynamic entries are exempt from the
// early exit and the bytes check: those entries sort by raw pool index,
// which canonicalization itself renumbers.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Instruction.h"
#include "classfile/ClassFile.h"
#include "classfile/Reader.h"
#include "classfile/Transform.h"
#include "classfile/Writer.h"
#include <cstdlib>

using namespace cjpack;

namespace {

/// Where the pool's entries and every attribute's bytes live.
std::vector<const void *> storageOf(const ClassFile &CF) {
  std::vector<const void *> Out{&CF.CP.entry(1)};
  auto Add = [&](const std::vector<AttributeInfo> &Attrs) {
    for (const AttributeInfo &A : Attrs)
      Out.push_back(A.Bytes.data());
  };
  Add(CF.Attributes);
  for (const MemberInfo &F : CF.Fields)
    Add(F.Attributes);
  for (const MemberInfo &M : CF.Methods)
    Add(M.Attributes);
  return Out;
}

bool sortsByRawIndex(const ConstantPool &CP) {
  for (uint16_t I = 1; I < CP.count(); ++I) {
    CpTag T = CP.entry(I).Tag;
    if (T == CpTag::MethodHandle || T == CpTag::Dynamic ||
        T == CpTag::InvokeDynamic)
      return true;
  }
  return false;
}

void checkCanonicalFixedPoint(ClassFile CF) {
  if (prepareForPacking(CF))
    return;
  std::vector<uint8_t> Once = writeClassFile(CF);
  std::vector<const void *> Before = storageOf(CF);
  bool Exempt = sortsByRawIndex(CF.CP);
  if (canonicalizeConstantPool(CF))
    abort(); // a canonical class failed to canonicalize
  if (Exempt)
    return;
  if (storageOf(CF) != Before)
    abort(); // a canonical class was rebuilt
  if (writeClassFile(CF) != Once)
    abort(); // canonicalization is not idempotent
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::vector<uint8_t> Bytes(Data, Data + Size);
  auto CF = parseClassFile(Bytes);
  if (!CF)
    return 0;
  for (const MemberInfo &M : CF->Methods)
    for (const AttributeInfo &A : M.Attributes)
      if (A.Name == "Code") {
        auto Code = parseCodeAttribute(A, CF->CP);
        if (Code)
          (void)decodeCode(Code->Code);
      }
  (void)writeClassFile(*CF);
  checkCanonicalFixedPoint(std::move(*CF));
  return 0;
}

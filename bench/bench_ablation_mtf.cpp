//===- bench_ablation_mtf.cpp - §5 ablations on move-to-front -------------===//
//
// Part of cjpack. MIT license.
//
// Two experiments the paper runs in §5's prose:
//
//  1. zlib over MTF indices vs adaptive arithmetic coding of the same
//     indices (for virtual method references). The paper found the
//     arithmetic coder ~2% smaller — before counting its dictionary —
//     and not worth abandoning zlib for.
//
//  2. MTF-transforming the JVM opcode stream before zlib. The paper
//     found this much worse than zlib on the raw opcodes, because MTF
//     destroys the repeating patterns zlib exploits.
//
// Experiment 1 runs the codec's MtfQueue (a Fenwick tree over move
// stamps). Only its positions enter the results, and they are the same
// positions the paper's skiplist-based queue yields.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "bytecode/Instruction.h"
#include "coder/Arithmetic.h"
#include "mtf/MtfQueue.h"
#include "pack/Model.h"
#include "support/VarInt.h"
#include "zip/Zlib.h"
#include <cstdio>

using namespace cjpack;

namespace {

/// MTF index stream of virtual-method references across a benchmark
/// (0 = first occurrence, k+1 = position k).
std::vector<uint32_t> methodRefIndices(const BenchData &B) {
  Model M;
  MtfQueue Q;
  std::vector<uint32_t> Indices;
  for (const ClassFile &CF : B.Prepared) {
    for (const MemberInfo &Mem : CF.Methods) {
      const AttributeInfo *A = findAttribute(Mem.Attributes, "Code");
      if (!A)
        continue;
      auto Code = parseCodeAttribute(*A, CF.CP);
      if (!Code)
        continue;
      auto Insns = decodeCode(Code->Code);
      if (!Insns)
        continue;
      for (const Insn &I : *Insns) {
        if (I.Opcode != Op::InvokeVirtual)
          continue;
        const CpEntry &E = CF.CP.entry(I.CpIndex);
        const CpEntry &NT = CF.CP.entry(E.Ref2);
        MMethodRef Ref;
        auto Owner = M.internClassByInternalName(CF.CP.className(E.Ref1));
        auto Sig = M.internSignature(CF.CP.utf8(NT.Ref2));
        if (!Owner || !Sig)
          continue;
        Ref.Owner = *Owner;
        Ref.Name = M.internMethodName(CF.CP.utf8(NT.Ref1));
        Ref.Sig = std::move(*Sig);
        uint32_t Id = M.internMethodRef(Ref);
        auto Pos = Q.use(Id);
        if (!Pos)
          Q.pushFront(Id);
        Indices.push_back(Pos ? static_cast<uint32_t>(*Pos) + 1 : 0);
      }
    }
  }
  return Indices;
}

size_t zlibIndexBytes(const std::vector<uint32_t> &Indices) {
  ByteWriter W;
  for (uint32_t I : Indices)
    writeVarUInt(W, I);
  return deflateBytes(W.data()).size();
}

size_t arithmeticIndexBytes(const std::vector<uint32_t> &Indices) {
  uint32_t MaxSym = 1;
  for (uint32_t I : Indices)
    MaxSym = std::max(MaxSym, I + 1);
  AdaptiveModel Model(MaxSym);
  ArithmeticEncoder Enc;
  for (uint32_t I : Indices)
    Enc.encode(Model, I);
  return Enc.finish().size();
}

std::vector<uint8_t> mtfBytes(const std::vector<uint8_t> &Stream) {
  // Classic byte-wise move-to-front transform.
  std::vector<uint8_t> Order(256);
  for (int I = 0; I < 256; ++I)
    Order[I] = static_cast<uint8_t>(I);
  std::vector<uint8_t> Out;
  Out.reserve(Stream.size());
  for (uint8_t B : Stream) {
    size_t Pos = 0;
    while (Order[Pos] != B)
      ++Pos;
    Out.push_back(static_cast<uint8_t>(Pos));
    Order.erase(Order.begin() + static_cast<long>(Pos));
    Order.insert(Order.begin(), B);
  }
  return Out;
}

} // namespace

int main() {
  printf("Ablation (par. 5): move-to-front encoding choices\n");
  printf("scale=%.2f\n\n", benchScale());

  printf("1. Virtual-method-reference MTF indices: zlib vs arithmetic\n");
  printf("%-16s %10s %12s %12s %8s\n", "Benchmark", "refs",
         "zlib(B)", "arith(B)", "arith/zlib");
  for (const char *Name : {"rt", "javac", "swingall", "jess"}) {
    BenchData B = loadBench(paperBenchmark(Name, benchScale()));
    std::vector<uint32_t> Indices = methodRefIndices(B);
    if (Indices.empty())
      continue;
    size_t Z = zlibIndexBytes(Indices);
    size_t A = arithmeticIndexBytes(Indices);
    printf("%-16s %10zu %12zu %12zu %7s\n", Name, Indices.size(), Z, A,
           pct(A, Z).c_str());
    fflush(stdout);
  }
  printf("Paper shape: arithmetic coding is within a few percent of\n"
         "zlib (the paper saw zlib ~2%% larger on rt.jar) — not worth a\n"
         "custom decoder.\n\n");

  printf("2. Opcode stream: zlib direct vs MTF-then-zlib\n");
  printf("%-16s %10s %12s %12s %10s\n", "Benchmark", "opcodes",
         "zlib(B)", "mtf+zlib(B)", "mtf/plain");
  for (const char *Name : {"javac", "mpegaudio", "jess"}) {
    BenchData B = loadBench(paperBenchmark(Name, benchScale()));
    RawCodeStreams Raw = extractRawCodeStreams(B.Prepared);
    size_t Plain = deflateBytes(Raw.Opcodes).size();
    size_t Mtf = deflateBytes(mtfBytes(Raw.Opcodes)).size();
    printf("%-16s %10zu %12zu %12zu %9s\n", Name, Raw.Opcodes.size(),
           Plain, Mtf, pct(Mtf, Plain).c_str());
    fflush(stdout);
  }
  printf("Paper shape: MTF destroys opcode digram patterns; the\n"
         "MTF-transformed stream compresses notably worse.\n");
  return 0;
}

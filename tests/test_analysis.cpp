//===- test_analysis.cpp - flow analysis / verifier tests -----------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers the CFG builder and the worklist verifier on hand-assembled
// method bodies with known defects (each diagnostic kind, at the right
// offset), the legal-but-tricky cases (overlapping handler ranges,
// long/double slot discipline), the differential guarantees (FlowState
// equals the linear stack state on branch-free code; the corpus
// generator and the full pack/unpack round trip are verifier-clean), and
// hostile input.
//
//===----------------------------------------------------------------------===//

#include "analysis/FlowState.h"
#include "analysis/Verifier.h"
#include "bytecode/Instruction.h"
#include "classfile/Reader.h"
#include "classfile/Writer.h"
#include "corpus/Corpus.h"
#include "pack/Packer.h"
#include <gtest/gtest.h>

using namespace cjpack;
using namespace cjpack::analysis;

namespace {

uint8_t byteOf(Op O) { return static_cast<uint8_t>(O); }

/// One synthetic method body to analyze.
struct MethodSpec {
  std::string Desc = "()V";
  uint16_t MaxStack = 4;
  uint16_t MaxLocals = 4;
  std::vector<uint8_t> Code;
  std::vector<ExceptionTableEntry> Table;
};

/// Wraps \p S into a minimal one-method classfile.
ClassFile makeClass(const MethodSpec &S) {
  ClassFile CF;
  CF.ThisClass = CF.CP.addClass("T");
  CF.SuperClass = CF.CP.addClass("java/lang/Object");
  MemberInfo M;
  M.AccessFlags = AccStatic;
  M.NameIndex = CF.CP.addUtf8("test");
  M.DescriptorIndex = CF.CP.addUtf8(S.Desc);
  CodeAttribute Code;
  Code.MaxStack = S.MaxStack;
  Code.MaxLocals = S.MaxLocals;
  Code.Code = S.Code;
  Code.ExceptionTable = S.Table;
  M.Attributes.push_back(encodeCodeAttribute(Code, CF.CP));
  CF.Methods.push_back(std::move(M));
  return CF;
}

/// Analyzes the single method of \p S.
MethodAnalysis analyze(const MethodSpec &S) {
  ClassFile CF = makeClass(S);
  return analyzeMethod(CF, CF.Methods[0], "T.test" + S.Desc);
}

/// Number of diagnostics of kind \p K in \p Diags.
size_t countKind(const std::vector<Diagnostic> &Diags, DiagKind K) {
  size_t N = 0;
  for (const Diagnostic &D : Diags)
    N += D.Kind == K;
  return N;
}

/// First diagnostic of kind \p K, or nullptr.
const Diagnostic *findKind(const std::vector<Diagnostic> &Diags, DiagKind K) {
  for (const Diagnostic &D : Diags)
    if (D.Kind == K)
      return &D;
  return nullptr;
}

TEST(Verifier, CleanStraightLineMethod) {
  MethodSpec S;
  S.Desc = "()I";
  S.Code = {byteOf(Op::IConst0), byteOf(Op::IStore0), byteOf(Op::ILoad0),
            byteOf(Op::IReturn)};
  MethodAnalysis A = analyze(S);
  ASSERT_TRUE(A.Decoded);
  EXPECT_TRUE(A.Diags.empty())
      << formatDiagnostic(A.Diags.front());
  ASSERT_EQ(A.Graph.Blocks.size(), 1u);
  ASSERT_TRUE(A.BlockEntry[0].has_value());
  EXPECT_TRUE(A.BlockEntry[0]->Stack.empty());
}

TEST(Verifier, ParametersSeedTheEntryFrame) {
  MethodSpec S;
  S.Desc = "(IJ)J"; // int in slot 0, long in slots 1-2
  S.MaxLocals = 3;
  S.Code = {byteOf(Op::LLoad), 1, byteOf(Op::LReturn)};
  MethodAnalysis A = analyze(S);
  ASSERT_TRUE(A.Decoded);
  EXPECT_TRUE(A.Diags.empty())
      << formatDiagnostic(A.Diags.front());
  ASSERT_TRUE(A.BlockEntry[0].has_value());
  const Frame &F = A.BlockEntry[0].value();
  ASSERT_EQ(F.Locals.size(), 3u);
  EXPECT_EQ(F.Locals[0], AType::Int);
  EXPECT_EQ(F.Locals[1], AType::Long);
  EXPECT_EQ(F.Locals[2], AType::Long2);
}

TEST(Verifier, StackUnderflowAtJoin) {
  // Both paths into the join at offset 5 arrive with an empty stack; the
  // pop there underflows.
  MethodSpec S;
  S.Code = {byteOf(Op::IConst0),
            byteOf(Op::IfEq), 0, 4, // 1: ifeq -> 5
            byteOf(Op::Nop),        // 4
            byteOf(Op::Pop),        // 5: join, stack empty
            byteOf(Op::Return)};
  MethodAnalysis A = analyze(S);
  const Diagnostic *D = findKind(A.Diags, DiagKind::StackUnderflow);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Offset, 5u);
}

TEST(Verifier, MergeDepthMismatchAtJoin) {
  // The branch edge reaches offset 6 with an empty stack, the
  // fallthrough with one int.
  MethodSpec S;
  S.MaxStack = 2;
  S.Code = {byteOf(Op::IConst0),
            byteOf(Op::IfEq), 0, 5, // 1: ifeq -> 6
            byteOf(Op::IConst1),    // 4
            byteOf(Op::Nop),        // 5
            byteOf(Op::Return)};    // 6: join at depth 0 vs 1
  MethodAnalysis A = analyze(S);
  EXPECT_EQ(countKind(A.Diags, DiagKind::MergeDepthMismatch), 1u);
}

TEST(Verifier, DepthAgreeingJoinIsClean) {
  // Same shape, but both paths arrive at depth 1 with the same type.
  MethodSpec S;
  S.Desc = "()I";
  S.MaxStack = 2;
  S.Code = {byteOf(Op::IConst0),
            byteOf(Op::IConst1),
            byteOf(Op::IfEq), 0, 4, // 2: ifeq -> 6
            byteOf(Op::Nop),        // 5
            byteOf(Op::IReturn)};   // 6: join, one int either way
  MethodAnalysis A = analyze(S);
  EXPECT_TRUE(A.Diags.empty())
      << formatDiagnostic(A.Diags.front());
}

TEST(Verifier, TypeClashAtMergedUse) {
  // One path leaves an int on the stack, the other a null reference;
  // the merged slot is Top, so areturn cannot type it.
  MethodSpec S;
  S.Desc = "()Ljava/lang/Object;";
  S.MaxStack = 2;
  S.Code = {byteOf(Op::IConst0),
            byteOf(Op::IfEq), 0, 7,    // 1: ifeq -> 8
            byteOf(Op::AConstNull),    // 4
            byteOf(Op::Goto), 0, 4,    // 5: goto -> 9
            byteOf(Op::IConst1),       // 8
            byteOf(Op::AReturn)};      // 9: join, Ref vs Int
  MethodAnalysis A = analyze(S);
  EXPECT_EQ(countKind(A.Diags, DiagKind::InvalidBranchTarget), 0u);
  const Diagnostic *D = findKind(A.Diags, DiagKind::TypeClash);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Offset, 9u);
}

TEST(Verifier, LongSlotDisciplineClean) {
  MethodSpec S;
  S.Desc = "()J";
  S.MaxStack = 2;
  S.MaxLocals = 2;
  S.Code = {byteOf(Op::LConst0), byteOf(Op::LStore0), byteOf(Op::LLoad0),
            byteOf(Op::LReturn)};
  MethodAnalysis A = analyze(S);
  EXPECT_TRUE(A.Diags.empty())
      << formatDiagnostic(A.Diags.front());
}

TEST(Verifier, PopSplittingLongIsClash) {
  MethodSpec S;
  S.MaxStack = 2;
  S.Code = {byteOf(Op::LConst0), byteOf(Op::Pop), byteOf(Op::Return)};
  MethodAnalysis A = analyze(S);
  const Diagnostic *D = findKind(A.Diags, DiagKind::TypeClash);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Offset, 1u);
}

TEST(Verifier, StoreTearingLongLocalIsBadLocal) {
  // istore_1 lands on the second half of the long in slots 0-1; the
  // following lload_0 must not see a whole long any more.
  MethodSpec S;
  S.Desc = "()J";
  S.MaxStack = 2;
  S.MaxLocals = 2;
  S.Code = {byteOf(Op::LConst0), byteOf(Op::LStore0),
            byteOf(Op::IConst0), byteOf(Op::IStore1),
            byteOf(Op::LLoad0),  byteOf(Op::LReturn)};
  MethodAnalysis A = analyze(S);
  const Diagnostic *D = findKind(A.Diags, DiagKind::BadLocal);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Offset, 4u);
}

TEST(Verifier, Dup2RoundTripsLong) {
  MethodSpec S;
  S.Desc = "()J";
  S.MaxStack = 4;
  S.MaxLocals = 2;
  S.Code = {byteOf(Op::LConst0), byteOf(Op::Dup2), byteOf(Op::LStore0),
            byteOf(Op::LReturn)};
  MethodAnalysis A = analyze(S);
  EXPECT_TRUE(A.Diags.empty())
      << formatDiagnostic(A.Diags.front());
}

TEST(Verifier, StackOverflowBeyondMaxStack) {
  MethodSpec S;
  S.MaxStack = 1;
  S.Code = {byteOf(Op::IConst0), byteOf(Op::IConst1), byteOf(Op::Pop),
            byteOf(Op::Pop), byteOf(Op::Return)};
  MethodAnalysis A = analyze(S);
  const Diagnostic *D = findKind(A.Diags, DiagKind::StackOverflow);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Offset, 1u);
}

TEST(Verifier, FallOffEnd) {
  MethodSpec S;
  S.Code = {byteOf(Op::IConst0), byteOf(Op::IStore0)};
  MethodAnalysis A = analyze(S);
  EXPECT_EQ(countKind(A.Diags, DiagKind::FallOffEnd), 1u);
}

TEST(Verifier, UnreachableCode) {
  MethodSpec S;
  S.Code = {byteOf(Op::Return), byteOf(Op::Nop), byteOf(Op::Return)};
  MethodAnalysis A = analyze(S);
  const Diagnostic *D = findKind(A.Diags, DiagKind::UnreachableCode);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Offset, 1u);
}

TEST(Verifier, InvalidBranchTarget) {
  // Target 3 is the middle of the ifeq operand bytes.
  MethodSpec S;
  S.Code = {byteOf(Op::IConst0), byteOf(Op::IfEq), 0, 2,
            byteOf(Op::Return)};
  MethodAnalysis A = analyze(S);
  EXPECT_EQ(countKind(A.Diags, DiagKind::InvalidBranchTarget), 1u);
}

TEST(Verifier, OverlappingHandlerRangesAreLegal) {
  // Two handlers protect overlapping prefixes of the body; both handler
  // blocks must be reachable through exception edges and the method must
  // verify clean.
  MethodSpec S;
  S.MaxStack = 1;
  S.MaxLocals = 3;
  S.Code = {byteOf(Op::IConst0),           // 0
            byteOf(Op::IStore0),           // 1
            byteOf(Op::Goto), 0, 8,        // 2: goto -> 10
            byteOf(Op::AStore1),           // 5: handler 1
            byteOf(Op::Goto), 0, 4,        // 6: goto -> 10
            byteOf(Op::AStore2),           // 9: handler 2
            byteOf(Op::Return)};           // 10
  S.Table = {{0, 2, 5, 0}, {1, 2, 9, 0}};
  MethodAnalysis A = analyze(S);
  ASSERT_TRUE(A.Decoded);
  EXPECT_TRUE(A.Diags.empty())
      << formatDiagnostic(A.Diags.front());
  EXPECT_EQ(A.Graph.ValidHandlers.size(), 2u);
  // Both handler entries got a frame with the thrown reference on it.
  for (uint32_t Off : {5u, 9u}) {
    uint32_t B = A.Graph.blockAtOffset(Off);
    ASSERT_NE(B, NoBlock);
    ASSERT_TRUE(A.BlockEntry[B].has_value());
    ASSERT_EQ(A.BlockEntry[B]->Stack.size(), 1u);
    EXPECT_EQ(A.BlockEntry[B]->Stack[0], AType::Ref);
  }
}

TEST(Verifier, HandlerSeesLocalsFromMidRange) {
  // Slot 0 is only an int from offset 1 onward; the handler entry state
  // must merge the before (Top) and after (Int) views to Top, so loading
  // it in the handler is a defect.
  MethodSpec S;
  S.Desc = "()I";
  S.MaxStack = 1;
  S.MaxLocals = 1;
  S.Code = {byteOf(Op::IConst0),    // 0
            byteOf(Op::IStore0),    // 1
            byteOf(Op::ILoad0),     // 2
            byteOf(Op::IReturn),    // 3
            byteOf(Op::Pop),        // 4: handler, drop the throwable
            byteOf(Op::ILoad0),     // 5: local 0 not assigned on all paths
            byteOf(Op::IReturn)};   // 6
  S.Table = {{0, 4, 4, 0}};
  MethodAnalysis A = analyze(S);
  const Diagnostic *D = findKind(A.Diags, DiagKind::BadLocal);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Offset, 5u);
}

TEST(Verifier, InvalidHandlerRangeReversed) {
  MethodSpec S;
  S.Code = {byteOf(Op::Nop), byteOf(Op::Nop), byteOf(Op::Return)};
  S.Table = {{2, 1, 0, 0}}; // start after end
  MethodAnalysis A = analyze(S);
  EXPECT_EQ(countKind(A.Diags, DiagKind::InvalidHandlerRange), 1u);
  EXPECT_TRUE(A.Graph.ValidHandlers.empty());
}

TEST(Verifier, InvalidHandlerPcMidInstruction) {
  MethodSpec S;
  S.MaxStack = 2;
  S.Code = {byteOf(Op::IConst0), byteOf(Op::SiPush), 0, 1,
            byteOf(Op::Pop2), byteOf(Op::Return)};
  S.Table = {{0, 4, 2, 0}}; // handler pc inside the sipush
  MethodAnalysis A = analyze(S);
  EXPECT_EQ(countKind(A.Diags, DiagKind::InvalidHandlerRange), 1u);
}

TEST(Verifier, JsrRetSubroutineIsTolerated) {
  // jsr pushes a return address the subroutine stores and ret consumes.
  // The lenient analysis must not flag this legacy pattern.
  MethodSpec S;
  S.MaxStack = 1;
  S.MaxLocals = 1;
  S.Code = {byteOf(Op::Jsr), 0, 4,   // 0: jsr -> 4
            byteOf(Op::Return),      // 3
            byteOf(Op::AStore0),     // 4: store the return address
            byteOf(Op::Ret), 0};     // 5: ret 0
  MethodAnalysis A = analyze(S);
  ASSERT_TRUE(A.Decoded);
  EXPECT_TRUE(A.Diags.empty())
      << formatDiagnostic(A.Diags.front());
}

TEST(Verifier, MalformedCodeOnTruncatedBytecode) {
  MethodSpec S;
  S.Code = {byteOf(Op::SiPush)}; // operand bytes missing
  MethodAnalysis A = analyze(S);
  EXPECT_FALSE(A.Decoded);
  EXPECT_EQ(countKind(A.Diags, DiagKind::MalformedCode), 1u);
}

TEST(Verifier, GarbageBytesNeverCrash) {
  std::vector<uint8_t> Garbage = {0xCA, 0xFE, 0xBA, 0xBE, 0x00, 0x03,
                                  0x00, 0x2D, 0xFF, 0xFF};
  VerifyResult R = verifyClassBytes(Garbage);
  EXPECT_FALSE(R.clean());
  EXPECT_EQ(countKind(R.Diags, DiagKind::MalformedCode), 1u);
}

TEST(Verifier, DiagnosticFormatting) {
  Diagnostic D;
  D.Kind = DiagKind::StackUnderflow;
  D.Method = "T.test()V";
  D.Offset = 5;
  D.Message = "pop from an empty stack";
  std::string Text = formatDiagnostic(D);
  EXPECT_NE(Text.find("stack-underflow"), std::string::npos);
  EXPECT_NE(Text.find("T.test()V"), std::string::npos);
  EXPECT_NE(Text.find('5'), std::string::npos);
}

//===--------------------------------------------------------------------===//
// Differential: FlowState vs. the linear stack state on branch-free code
//===--------------------------------------------------------------------===//

// On code with no branches, no switches, and no handlers, the
// merge-correct FlowState must agree with the paper's linear stack
// state at every instruction — the flow analysis only ever changes
// predictions at join points. The linear state of straight-line code is
// just each instruction's declared effect, written out here by hand:
// the top two stack types before each instruction.
TEST(FlowStateDifferential, MatchesLinearStackStateOnStraightLine) {
  constexpr VType I = VType::Int, J = VType::Long, A = VType::Ref,
                  U = VType::Unknown;
  struct Body {
    std::vector<uint8_t> Code;
    std::vector<std::pair<VType, VType>> Tops; ///< (top, second) per insn
  };
  std::vector<Body> Bodies = {
      {{byteOf(Op::IConst0), byteOf(Op::IConst1), byteOf(Op::IAdd),
        byteOf(Op::IStore0), byteOf(Op::ILoad0), byteOf(Op::I2L),
        byteOf(Op::LStore1), byteOf(Op::LLoad1), byteOf(Op::L2I),
        byteOf(Op::IReturn)},
       {{U, U}, {I, U}, {I, I}, {I, U}, {U, U}, {I, U}, {J, U}, {U, U},
        {J, U}, {I, U}}},
      {{byteOf(Op::LConst0), byteOf(Op::LConst1), byteOf(Op::LAdd),
        byteOf(Op::Dup2), byteOf(Op::LStore0), byteOf(Op::LReturn)},
       {{U, U}, {J, U}, {J, J}, {J, U}, {J, J}, {J, U}}},
      {{byteOf(Op::BiPush), 40, byteOf(Op::SiPush), 1, 0, byteOf(Op::IAdd),
        byteOf(Op::I2B), byteOf(Op::IReturn)},
       {{U, U}, {I, U}, {I, I}, {I, U}, {I, U}}},
      {{byteOf(Op::AConstNull), byteOf(Op::Dup), byteOf(Op::Pop),
        byteOf(Op::AReturn)},
       {{U, U}, {A, U}, {A, A}, {A, U}}},
  };
  for (const Body &B : Bodies) {
    auto Insns = decodeCode(B.Code);
    ASSERT_TRUE(static_cast<bool>(Insns));
    ASSERT_EQ(Insns->size(), B.Tops.size());
    FlowState Flow;
    Flow.startMethod();
    for (size_t K = 0; K < Insns->size(); ++K) {
      const Insn &Ins = (*Insns)[K];
      auto [Top, Second] = B.Tops[K];
      Flow.enterInsn(Ins.Offset);
      EXPECT_TRUE(Flow.isKnown()) << "offset " << Ins.Offset;
      EXPECT_EQ(Flow.top(0), Top) << "offset " << Ins.Offset;
      EXPECT_EQ(Flow.top(1), Second) << "offset " << Ins.Offset;
      EXPECT_EQ(Flow.contextId(), static_cast<unsigned>(Top) * 7 +
                                      static_cast<unsigned>(Second))
          << "offset " << Ins.Offset;
      Flow.apply(Ins, nullptr);
    }
  }
}

// At a forward join whose incoming depths disagree, FlowState must
// degrade to unknown (the paper's linear pass simply keeps the
// fallthrough view; the two are allowed to differ here — this pins the
// FlowState behavior).
TEST(FlowStateDifferential, ConflictingJoinDegradesToUnknown) {
  std::vector<uint8_t> Body = {
      byteOf(Op::IConst0),
      byteOf(Op::IfEq), 0, 5, // 1: ifeq -> 6
      byteOf(Op::IConst1),    // 4
      byteOf(Op::Nop),        // 5
      byteOf(Op::Return)};    // 6: depth 0 vs depth 1
  auto Insns = decodeCode(Body);
  ASSERT_TRUE(static_cast<bool>(Insns));
  FlowState Flow;
  Flow.startMethod();
  for (const Insn &I : *Insns) {
    Flow.enterInsn(I.Offset);
    if (I.Offset == 6) {
      EXPECT_FALSE(Flow.isKnown());
    }
    Flow.apply(I, nullptr);
  }
}

// At a depth-agreeing join, FlowState stays known and merges types
// slotwise.
TEST(FlowStateDifferential, AgreeingJoinStaysKnown) {
  std::vector<uint8_t> Body = {
      byteOf(Op::IConst0),
      byteOf(Op::IConst1),
      byteOf(Op::IfEq), 0, 4, // 2: ifeq -> 6
      byteOf(Op::Nop),        // 5
      byteOf(Op::IReturn)};   // 6: one int on both paths
  auto Insns = decodeCode(Body);
  ASSERT_TRUE(static_cast<bool>(Insns));
  FlowState Flow;
  Flow.startMethod();
  for (const Insn &I : *Insns) {
    Flow.enterInsn(I.Offset);
    if (I.Offset == 6) {
      EXPECT_TRUE(Flow.isKnown());
      EXPECT_EQ(Flow.top(0), VType::Int);
    }
    Flow.apply(I, nullptr);
  }
}

//===--------------------------------------------------------------------===//
// Corpus and round-trip sweeps
//===--------------------------------------------------------------------===//

CorpusSpec sweepSpec(uint64_t Seed, CodeStyle Style) {
  CorpusSpec Spec;
  Spec.Name = "analysis-sweep";
  Spec.Seed = Seed;
  Spec.NumClasses = 12;
  Spec.NumPackages = 2;
  Spec.MeanStatements = 14;
  Spec.Code = Style;
  return Spec;
}

// Every class the corpus generator emits must be verifier-clean: the
// benchmarks only exercise the packer honestly if their bodies would
// pass a real JVM's checks.
TEST(VerifySweep, GeneratedCorpusIsClean) {
  unsigned TotalMethods = 0;
  for (CodeStyle Style :
       {CodeStyle::Balanced, CodeStyle::Numeric, CodeStyle::StringHeavy}) {
    for (uint64_t Seed : {1u, 17u}) {
      for (const NamedClass &C : generateCorpus(sweepSpec(Seed, Style))) {
        VerifyResult R = verifyClassBytes(C.Data);
        TotalMethods += R.MethodsAnalyzed; // interfaces contribute none
        EXPECT_TRUE(R.clean())
            << C.Name << ": " << formatDiagnostic(R.Diags.front());
      }
    }
  }
  EXPECT_GT(TotalMethods, 100u);
}

// Decoder-reconstructed classes must verify exactly as clean as the
// originals: packing must not manufacture or mask defects.
TEST(VerifySweep, RoundTripIsClean) {
  std::vector<NamedClass> Classes =
      generateCorpus(sweepSpec(5, CodeStyle::Balanced));
  auto Packed = packClassBytes(Classes, {});
  ASSERT_TRUE(static_cast<bool>(Packed));
  auto Restored = unpackArchive(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Restored));
  ASSERT_EQ(Restored->size(), Classes.size());
  for (const NamedClass &C : *Restored) {
    VerifyResult R = verifyClassBytes(C.Data);
    EXPECT_TRUE(R.clean())
        << C.Name << ": " << formatDiagnostic(R.Diags.front());
  }
}

} // namespace

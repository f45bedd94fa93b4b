//===- test_canonicalize.cpp - constant-pool canonicalization tests -------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pool canonicalization against a naive reference: the string-key
// implementation it replaced, kept here verbatim (apart from a bounds
// guard) as the oracle. Both must give the same writeClassFile bytes,
// or the same error, on the corpus styles (fresh and already
// canonical), on hand-built hostile pools, on canonical pools whose
// code would not re-encode to the same bytes, and on random pools. Also
// covered: the early exit for canonical classes, the decoded-code entry
// point that unpacking uses, and the ConstantPool lookup table.
//
//===----------------------------------------------------------------------===//

#include "HostileClasses.h"
#include "bytecode/Instruction.h"
#include "classfile/Reader.h"
#include "classfile/Transform.h"
#include "classfile/Writer.h"
#include "corpus/Corpus.h"
#include "pack/Packer.h"
#include "support/ByteBuffer.h"
#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <gtest/gtest.h>

using namespace cjpack;

namespace naive {
namespace {


/// One method's decoded Code attribute, kept so bytecode constant-pool
/// operands can be renumbered and the attribute re-encoded.
struct DecodedMethod {
  MemberInfo *Member = nullptr;
  AttributeInfo *Attr = nullptr;
  CodeAttribute Code;
  std::vector<Insn> Insns;
};

/// Sort keys placing entries in the canonical §2/§9 order.
enum class CpGroup : uint8_t {
  LdcConst,   ///< int/float/string referenced by a one-byte ldc
  OtherConst, ///< remaining int/float/string
  WideConst,  ///< long/double
  ClassEntry,
  MemberRef,
  NameType,
  Text,       ///< Utf8, sorted by content
  Other,
};

class PoolCanonicalizer {
public:
  explicit PoolCanonicalizer(ClassFile &CF) : CF(CF) {}

  Error run() {
    if (auto E = decodeMethods())
      return E;
    markRoots();
    closeOverReferences();
    if (auto E = assignNewIndices())
      return E;
    rebuildPool();
    remapStructure();
    return Error::success();
  }

private:
  Error decodeMethods() {
    for (MemberInfo &M : CF.Methods) {
      for (AttributeInfo &A : M.Attributes) {
        if (A.Name != "Code")
          continue;
        auto Code = parseCodeAttribute(A, CF.CP);
        if (!Code)
          return Code.takeError();
        auto Insns = decodeCode(Code->Code);
        if (!Insns)
          return Insns.takeError();
        DecodedMethod D;
        D.Member = &M;
        D.Attr = &A;
        D.Code = std::move(*Code);
        D.Insns = std::move(*Insns);
        Methods.push_back(std::move(D));
      }
    }
    return Error::success();
  }

  void mark(uint16_t Index) {
    if (Index != 0)
      Reachable.insert(Index);
  }

  void markRoots() {
    mark(CF.ThisClass);
    mark(CF.SuperClass);
    for (uint16_t I : CF.Interfaces)
      mark(I);
    auto MarkMember = [&](const MemberInfo &M) {
      mark(M.NameIndex);
      mark(M.DescriptorIndex);
      for (const AttributeInfo &A : M.Attributes) {
        if (A.Name == "ConstantValue" && A.Bytes.size() == 2) {
          ByteReader R(A.Bytes);
          mark(R.readU2());
        } else if (A.Name == "Exceptions") {
          ByteReader R(A.Bytes);
          uint16_t N = R.readU2();
          for (uint16_t K = 0; K < N; ++K)
            mark(R.readU2());
        }
      }
    };
    for (const MemberInfo &F : CF.Fields)
      MarkMember(F);
    for (const MemberInfo &M : CF.Methods)
      MarkMember(M);
    for (const DecodedMethod &D : Methods) {
      for (const ExceptionTableEntry &E : D.Code.ExceptionTable)
        mark(E.CatchType);
      for (const Insn &I : D.Insns) {
        if (I.hasCpOperand()) {
          mark(I.CpIndex);
          if (I.Opcode == Op::Ldc)
            LdcReferenced.insert(I.CpIndex);
        }
      }
    }
  }

  void closeOverReferences() {
    std::vector<uint16_t> Work(Reachable.begin(), Reachable.end());
    while (!Work.empty()) {
      uint16_t Index = Work.back();
      Work.pop_back();
      if (!CF.CP.isValidIndex(Index))
        continue;
      const CpEntry &E = CF.CP.entry(Index);
      auto Visit = [&](uint16_t Ref) {
        if (Ref != 0 && Reachable.insert(Ref).second)
          Work.push_back(Ref);
      };
      switch (E.Tag) {
      case CpTag::Class:
      case CpTag::String:
      case CpTag::MethodType:
      case CpTag::Module:
      case CpTag::Package:
      case CpTag::MethodHandle:
        Visit(E.Ref1);
        break;
      case CpTag::FieldRef:
      case CpTag::MethodRef:
      case CpTag::InterfaceMethodRef:
      case CpTag::NameAndType:
      case CpTag::Dynamic:
      case CpTag::InvokeDynamic:
        Visit(E.Ref1);
        Visit(E.Ref2);
        break;
      default:
        break;
      }
    }
  }

  CpGroup groupOf(uint16_t Index, const CpEntry &E) const {
    switch (E.Tag) {
    case CpTag::Integer:
    case CpTag::Float:
    case CpTag::String:
      return LdcReferenced.count(Index) ? CpGroup::LdcConst
                                        : CpGroup::OtherConst;
    case CpTag::Long:
    case CpTag::Double:
      return CpGroup::WideConst;
    case CpTag::Class:
      return CpGroup::ClassEntry;
    case CpTag::FieldRef:
    case CpTag::MethodRef:
    case CpTag::InterfaceMethodRef:
      return CpGroup::MemberRef;
    case CpTag::NameAndType:
      return CpGroup::NameType;
    case CpTag::Utf8:
      return CpGroup::Text;
    default:
      return CpGroup::Other;
    }
  }

  /// A within-group sort key: tag first, then content. References sort
  /// by the *content* they denote so equal pools sort identically
  /// regardless of original numbering.
  std::string sortKey(const CpEntry &E) const {
    std::string Key;
    Key.push_back(static_cast<char>(E.Tag));
    auto AppendU64 = [&](uint64_t V) {
      for (int Shift = 56; Shift >= 0; Shift -= 8)
        Key.push_back(static_cast<char>(V >> Shift));
    };
    auto Utf8At = [&](uint16_t Ref) -> std::string_view {
      if (!CF.CP.isValidIndex(Ref) || CF.CP.entry(Ref).Tag != CpTag::Utf8)
        return {};
      return CF.CP.utf8(Ref);
    };
    switch (E.Tag) {
    case CpTag::Utf8:
      Key += E.Text;
      break;
    case CpTag::Integer:
    case CpTag::Float:
    case CpTag::Long:
    case CpTag::Double:
      AppendU64(E.Bits);
      break;
    case CpTag::Class:
    case CpTag::MethodType:
    case CpTag::Module:
    case CpTag::Package:
      Key += Utf8At(E.Ref1);
      break;
    case CpTag::String:
      Key += Utf8At(E.Ref1);
      break;
    case CpTag::NameAndType:
      Key += Utf8At(E.Ref1);
      Key.push_back('\0');
      Key += Utf8At(E.Ref2);
      break;
    case CpTag::FieldRef:
    case CpTag::MethodRef:
    case CpTag::InterfaceMethodRef: {
      // (Guarded: the production code read these slots unchecked and
      // reported the dangling index afterwards.)
      CpEntry None;
      const CpEntry &C =
          CF.CP.isValidIndex(E.Ref1) ? CF.CP.entry(E.Ref1) : None;
      if (C.Tag == CpTag::Class)
        Key += Utf8At(C.Ref1);
      Key.push_back('\0');
      const CpEntry &NT =
          CF.CP.isValidIndex(E.Ref2) ? CF.CP.entry(E.Ref2) : None;
      if (NT.Tag == CpTag::NameAndType) {
        Key += Utf8At(NT.Ref1);
        Key.push_back('\0');
        Key += Utf8At(NT.Ref2);
      }
      break;
    }
    default:
      AppendU64(E.Ref1);
      AppendU64(E.Ref2);
      break;
    }
    return Key;
  }

  Error assignNewIndices() {
    // Attribute names must live in the pool; synthesize Utf8 entries for
    // any not already reachable so they participate in the sorted block.
    std::set<std::string, std::less<>> AttrNames;
    auto Collect = [&](const std::vector<AttributeInfo> &Attrs) {
      for (const AttributeInfo &A : Attrs)
        AttrNames.emplace(A.Name);
    };
    Collect(CF.Attributes);
    for (const MemberInfo &F : CF.Fields)
      Collect(F.Attributes);
    for (const MemberInfo &M : CF.Methods)
      Collect(M.Attributes);
    for (const DecodedMethod &D : Methods)
      Collect(D.Code.Attributes);
    std::set<std::string, std::less<>> ReachableTexts;
    for (uint16_t I : Reachable)
      if (CF.CP.isValidIndex(I) && CF.CP.entry(I).Tag == CpTag::Utf8)
        ReachableTexts.emplace(CF.CP.utf8(I));
    for (const std::string &Name : AttrNames)
      if (!ReachableTexts.count(Name))
        SynthesizedTexts.push_back(Name);

    struct Item {
      CpGroup Group;
      std::string Key;
      uint16_t OldIndex; ///< 0 for synthesized Utf8 entries
      const std::string *SynthText = nullptr;
    };
    std::vector<Item> Items;
    for (uint16_t I : Reachable) {
      if (!CF.CP.isValidIndex(I))
        return makeError(ErrorCode::Corrupt,
                         "canonicalize: dangling constant pool index " +
                             std::to_string(I));
      const CpEntry &E = CF.CP.entry(I);
      Items.push_back({groupOf(I, E), sortKey(E), I, nullptr});
    }
    for (const std::string &Text : SynthesizedTexts) {
      std::string Key;
      Key.push_back(static_cast<char>(CpTag::Utf8));
      Key += Text;
      Items.push_back({CpGroup::Text, std::move(Key), 0, &Text});
    }

    std::sort(Items.begin(), Items.end(), [](const Item &A, const Item &B) {
      if (A.Group != B.Group)
        return A.Group < B.Group;
      if (A.Key != B.Key)
        return A.Key < B.Key;
      return A.OldIndex < B.OldIndex;
    });

    uint16_t Next = 1;
    for (const Item &It : Items) {
      bool Wide =
          It.OldIndex != 0 && CF.CP.entry(It.OldIndex).isWide();
      if (It.OldIndex != 0)
        OldToNew[It.OldIndex] = Next;
      else
        SynthIndex[*It.SynthText] = Next;
      NewOrder.push_back(It.OldIndex == 0
                             ? std::pair<uint16_t, const std::string *>(
                                   0, It.SynthText)
                             : std::pair<uint16_t, const std::string *>(
                                   It.OldIndex, nullptr));
      Next = static_cast<uint16_t>(Next + (Wide ? 2 : 1));
      if (Next == 0)
        return makeError(ErrorCode::LimitExceeded,
                         "canonicalize: constant pool overflow");
    }

    for (uint16_t I : LdcReferenced)
      if (OldToNew[I] > 255)
        return makeError(ErrorCode::Corrupt,
                         "canonicalize: cannot keep ldc constant below "
                         "index 256");
    return Error::success();
  }

  uint16_t remap(uint16_t Old) const {
    if (Old == 0)
      return 0;
    auto It = OldToNew.find(Old);
    assert(It != OldToNew.end() && "remapping an unreachable cp index");
    return It->second;
  }

  void rebuildPool() {
    // The replacement pool must share the class's arena: copied entries
    // keep views into it, and the synthesized texts below are interned
    // into it (SynthesizedTexts itself dies with this canonicalizer).
    CF.arena();
    ConstantPool NewCP(CF.CP.arenaPtr());
    for (const auto &[OldIndex, SynthText] : NewOrder) {
      if (SynthText) {
        CpEntry E;
        E.Tag = CpTag::Utf8;
        E.Text = CF.arena().internString(*SynthText);
        NewCP.appendRaw(std::move(E));
        continue;
      }
      CpEntry E = CF.CP.entry(OldIndex);
      switch (E.Tag) {
      case CpTag::Class:
      case CpTag::String:
      case CpTag::MethodType:
      case CpTag::Module:
      case CpTag::Package:
      case CpTag::MethodHandle:
        E.Ref1 = remap(E.Ref1);
        break;
      case CpTag::FieldRef:
      case CpTag::MethodRef:
      case CpTag::InterfaceMethodRef:
      case CpTag::NameAndType:
      case CpTag::Dynamic:
      case CpTag::InvokeDynamic:
        E.Ref1 = remap(E.Ref1);
        E.Ref2 = remap(E.Ref2);
        break;
      default:
        break;
      }
      NewCP.appendRaw(std::move(E));
    }
    CF.CP = std::move(NewCP);
  }

  void remapStructure() {
    CF.ThisClass = remap(CF.ThisClass);
    CF.SuperClass = remap(CF.SuperClass);
    for (uint16_t &I : CF.Interfaces)
      I = remap(I);
    auto RemapMember = [&](MemberInfo &M) {
      M.NameIndex = remap(M.NameIndex);
      M.DescriptorIndex = remap(M.DescriptorIndex);
      for (AttributeInfo &A : M.Attributes) {
        if (A.Name == "ConstantValue" && A.Bytes.size() == 2) {
          ByteReader R(A.Bytes);
          uint16_t V = remap(R.readU2());
          ByteWriter W;
          W.writeU2(V);
          A.Bytes = CF.arena().copy(W.data());
        } else if (A.Name == "Exceptions") {
          ByteReader R(A.Bytes);
          uint16_t N = R.readU2();
          ByteWriter W;
          W.writeU2(N);
          for (uint16_t K = 0; K < N; ++K)
            W.writeU2(remap(R.readU2()));
          A.Bytes = CF.arena().copy(W.data());
        }
      }
    };
    for (MemberInfo &F : CF.Fields)
      RemapMember(F);
    for (MemberInfo &M : CF.Methods)
      RemapMember(M);
    for (DecodedMethod &D : Methods) {
      for (ExceptionTableEntry &E : D.Code.ExceptionTable)
        E.CatchType = remap(E.CatchType);
      for (Insn &I : D.Insns)
        if (I.hasCpOperand())
          I.CpIndex = remap(I.CpIndex);
      D.Code.Code = CF.arena().adopt(encodeCode(D.Insns));
      *D.Attr = encodeCodeAttribute(D.Code, CF.CP);
    }
  }

  ClassFile &CF;
  std::vector<DecodedMethod> Methods;
  std::set<uint16_t> Reachable;
  std::set<uint16_t> LdcReferenced;
  std::vector<std::string> SynthesizedTexts;
  std::map<uint16_t, uint16_t> OldToNew;
  std::map<std::string, uint16_t> SynthIndex;
  std::vector<std::pair<uint16_t, const std::string *>> NewOrder;
};


} // namespace

Error canonicalizeConstantPool(ClassFile &CF) {
  auto CheckRecognized =
      [&](const std::vector<AttributeInfo> &Attrs) -> Error {
    for (const AttributeInfo &A : Attrs)
      if (!isRecognizedAttribute(A.Name))
        return makeError("canonicalize: unrecognized attribute '" +
                         std::string(A.Name) + "' (strip first)");
    return Error::success();
  };
  if (auto E = CheckRecognized(CF.Attributes))
    return E;
  for (const MemberInfo &F : CF.Fields)
    if (auto E = CheckRecognized(F.Attributes))
      return E;
  for (const MemberInfo &M : CF.Methods)
    if (auto E = CheckRecognized(M.Attributes))
      return E;
  return PoolCanonicalizer(CF).run();
}

} // namespace naive

namespace {

using Canonicalizer = std::function<Error(ClassFile &)>;

/// What one canonicalizer made of a class.
struct Outcome {
  Error Err;
  std::vector<uint8_t> Bytes;
  ClassFile Result;
};

Outcome canonicalizeCopy(const ClassFile &CF, const Canonicalizer &Canon) {
  Outcome O;
  O.Result = CF;
  O.Err = Canon(O.Result);
  if (!O.Err)
    O.Bytes = writeClassFile(O.Result);
  return O;
}

Error fast(ClassFile &CF) { return canonicalizeConstantPool(CF); }

/// Expects the naive and the fast canonicalizer to agree on \p CF, and
/// again on their result. Returns the fast result, if it succeeded.
std::optional<ClassFile> expectAgree(const ClassFile &CF,
                                     const std::string &What,
                                     int Rounds = 2) {
  Outcome N = canonicalizeCopy(CF, naive::canonicalizeConstantPool);
  Outcome F = canonicalizeCopy(CF, fast);
  EXPECT_EQ(static_cast<bool>(N.Err), static_cast<bool>(F.Err))
      << What << ": naive says '"
      << (N.Err ? N.Err.message() : std::string("ok")) << "', fast says '"
      << (F.Err ? F.Err.message() : std::string("ok")) << "'";
  if (N.Err && F.Err) {
    EXPECT_EQ(N.Err.code(), F.Err.code()) << What;
    EXPECT_EQ(N.Err.message(), F.Err.message()) << What;
    return std::nullopt;
  }
  if (N.Err || F.Err)
    return std::nullopt;
  EXPECT_EQ(N.Bytes, F.Bytes) << What;
  if (Rounds > 1 && N.Bytes == F.Bytes)
    expectAgree(F.Result, What + " (again)", Rounds - 1);
  return std::move(F.Result);
}

CorpusSpec smallSpec(uint64_t Seed, CodeStyle Style) {
  CorpusSpec Spec;
  Spec.Name = "canon";
  Spec.Seed = Seed;
  Spec.NumClasses = 12;
  Spec.Code = Style;
  return Spec;
}

constexpr CodeStyle AllStyles[] = {CodeStyle::Balanced, CodeStyle::Numeric,
                                   CodeStyle::StringHeavy};

/// Everything that canonicalization could rewrite: the pool's storage
/// and every attribute's bytes.
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

/// The Code attribute bytes of \p CF, for mutation, with their decode.
struct CodeSite {
  AttributeInfo *Attr;
  CodeAttribute Header;
  std::vector<Insn> Insns;
};

std::vector<CodeSite> codeSites(ClassFile &CF) {
  std::vector<CodeSite> Out;
  for (MemberInfo &M : CF.Methods)
    for (AttributeInfo &A : M.Attributes)
      if (A.Name == "Code") {
        auto Header = parseCodeAttribute(A, CF.CP);
        EXPECT_TRUE(static_cast<bool>(Header));
        auto Insns = decodeCode(Header->Code);
        EXPECT_TRUE(static_cast<bool>(Insns));
        Out.push_back({&A, std::move(*Header), std::move(*Insns)});
      }
  return Out;
}

/// Replaces \p A's bytes with \p Bytes (kept alive by CF's arena).
void setBytes(ClassFile &CF, AttributeInfo &A, std::vector<uint8_t> Bytes) {
  A.Bytes = CF.arena().adopt(std::move(Bytes));
}

} // namespace

TEST(CanonicalizeOracle, CorpusStylesFreshAndCanonical) {
  for (CodeStyle Style : AllStyles) {
    std::vector<ClassFile> Classes =
        generateCorpusClasses(smallSpec(3, Style));
    for (ClassFile &CF : Classes) {
      std::string What(CF.thisClassName());
      stripDebugInfo(CF);
      std::optional<ClassFile> Canon = expectAgree(CF, What);
      ASSERT_TRUE(Canon.has_value()) << What;
      // Parsed back from bytes, as the packer sees prepared input.
      auto Parsed = parseClassFile(writeClassFile(*Canon));
      ASSERT_TRUE(static_cast<bool>(Parsed));
      expectAgree(*Parsed, What + " (parsed)");
    }
  }
}

TEST(CanonicalizeOracle, NestedCodeAttributesKept) {
  // Top-level debug attributes dropped, Code's own LineNumberTable and
  // LocalVariableTable kept: their names must be synthesized or found.
  std::vector<ClassFile> Classes =
      generateCorpusClasses(smallSpec(5, CodeStyle::Balanced));
  for (ClassFile &CF : Classes) {
    auto Drop = [](std::vector<AttributeInfo> &Attrs) {
      std::erase_if(Attrs, [](const AttributeInfo &A) {
        return !isRecognizedAttribute(A.Name);
      });
    };
    Drop(CF.Attributes);
    for (MemberInfo &F : CF.Fields)
      Drop(F.Attributes);
    for (MemberInfo &M : CF.Methods)
      Drop(M.Attributes);
    expectAgree(CF, std::string(CF.thisClassName()));
  }
}

TEST(CanonicalizeOracle, HostileShapes) {
  for (hostile::Shape &S : hostile::allShapes()) {
    expectAgree(S.CF, S.Name);
    // Written and parsed back: attribute names now sit unreachable at
    // the end of the pool instead of missing from it.
    auto Parsed = parseClassFile(writeClassFile(S.CF));
    ASSERT_TRUE(static_cast<bool>(Parsed)) << S.Name << Parsed.message();
    expectAgree(*Parsed, S.Name + " (parsed)");
  }
}

TEST(CanonicalizeOracle, HostileShapesFailAsExpected) {
  std::map<std::string, ErrorCode> Expected = {
      {"ldc_past_255", ErrorCode::Corrupt},
      {"dangling_past_pool", ErrorCode::Corrupt},
      {"dangling_class_name", ErrorCode::Corrupt},
      {"dangling_shadow_slot", ErrorCode::Corrupt},
      {"dangling_twice", ErrorCode::Corrupt},
  };
  for (hostile::Shape &S : hostile::allShapes()) {
    Error E = canonicalizeConstantPool(S.CF);
    auto It = Expected.find(S.Name);
    if (It == Expected.end()) {
      EXPECT_FALSE(static_cast<bool>(E)) << S.Name << ": " << E.message();
    } else {
      ASSERT_TRUE(static_cast<bool>(E)) << S.Name;
      EXPECT_EQ(E.code(), It->second) << S.Name;
    }
  }
}

TEST(CanonicalizeOracle, CanonicalPoolsWithNonNormalBytes) {
  // Canonical pools whose attributes would not re-encode to the same
  // bytes: the early exit must not keep what the full path rewrites.
  size_t Switches = 0, Interfaces = 0;
  for (CodeStyle Style : AllStyles) {
    std::vector<ClassFile> Classes =
        generateCorpusClasses(smallSpec(9, Style));
    for (ClassFile &CF : Classes) {
      ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
      std::string What(CF.thisClassName());
      for (size_t K = 0; K < codeSites(CF).size(); ++K) {
        // Trailing byte after the nested-attribute count.
        {
          ClassFile Copy = CF;
          AttributeInfo &A = *codeSites(Copy)[K].Attr;
          std::vector<uint8_t> Bytes(A.Bytes.begin(), A.Bytes.end());
          Bytes.push_back(0);
          setBytes(Copy, A, std::move(Bytes));
          expectAgree(Copy, What + " trailing byte");
        }
        // Non-zero bytes that the decoder skips.
        ClassFile Copy = CF;
        CodeSite Site = std::move(codeSites(Copy)[K]);
        std::vector<uint8_t> Bytes(Site.Attr->Bytes.begin(),
                                   Site.Attr->Bytes.end());
        bool Mutated = false;
        for (const Insn &I : Site.Insns) {
          size_t At = 8 + I.Offset; // code starts after stack, locals, length
          if (I.isSwitch() && (I.Offset + 1) % 4 != 0) {
            Bytes[At + 1] = 0xAA;
            Mutated = true;
            ++Switches;
          } else if (I.Opcode == Op::InvokeInterface) {
            Bytes[At + 4] = 0x01;
            Mutated = true;
            ++Interfaces;
          }
        }
        if (!Mutated)
          continue;
        setBytes(Copy, *Site.Attr, std::move(Bytes));
        expectAgree(Copy, What + " skipped bytes");
      }
      // An Exceptions attribute with a trailing byte.
      for (size_t MI = 0; MI < CF.Methods.size(); ++MI)
        for (size_t AI = 0; AI < CF.Methods[MI].Attributes.size(); ++AI)
          if (CF.Methods[MI].Attributes[AI].Name == "Exceptions") {
            ClassFile Copy = CF;
            AttributeInfo &A = Copy.Methods[MI].Attributes[AI];
            std::vector<uint8_t> Long(A.Bytes.begin(), A.Bytes.end());
            Long.push_back(7);
            setBytes(Copy, A, std::move(Long));
            expectAgree(Copy, What + " long Exceptions");
          }
    }
  }
  EXPECT_GT(Switches, 0u);
  EXPECT_GT(Interfaces, 0u);
}

TEST(CanonicalizeOracle, ShortAttributes) {
  for (std::vector<uint8_t> Bytes : {std::vector<uint8_t>{},
                                     std::vector<uint8_t>{0},
                                     std::vector<uint8_t>{0, 2, 0, 2}}) {
    ClassFile CF = hostile::wideConstants();
    MemberInfo &M = CF.Methods.back();
    M.Attributes.push_back({"Exceptions", CF.arena().adopt(Bytes)});
    CF.Fields.back().Attributes.push_back(
        {"ConstantValue", CF.arena().adopt(Bytes)});
    std::optional<ClassFile> Once =
        expectAgree(CF, "Exceptions of " + std::to_string(Bytes.size()));
    ASSERT_TRUE(Once.has_value());
  }
}

namespace {

/// A random class: a pool of every tag with mostly-valid references,
/// duplicates and unreachable entries, and methods whose code loads
/// and references random slots.
ClassFile randomClass(std::mt19937 &Rng) {
  auto Pick = [&](unsigned N) {
    return std::uniform_int_distribution<unsigned>(0, N - 1)(Rng);
  };
  using namespace std::string_view_literals;
  ClassFile CF = hostile::skeleton("r/A");
  const std::string_view Words[] = {
      "a"sv, "b"sv,  "ab"sv, "a\0"sv, "\xFF"sv, "I"sv,
      "()V"sv, "Code"sv, "Exceptions"sv, ""sv, "\0"sv, "java/lang/Object"sv};
  unsigned N = 8 + Pick(60);
  std::vector<uint16_t> Texts{1, 3};
  for (unsigned K = 0; K < N; ++K) {
    uint16_t Count = CF.CP.count();
    auto Ref = [&]() -> uint16_t {
      unsigned R = Pick(20);
      if (R == 0)
        return 0;
      if (R < 12)
        return Texts[Pick(static_cast<unsigned>(Texts.size()))];
      return static_cast<uint16_t>(1 + Pick(Count - 1));
    };
    switch (Pick(12)) {
    case 0:
    case 1: {
      std::string T(Words[Pick(12)]);
      if (Pick(3) == 0)
        T += static_cast<char>(Pick(256));
      Texts.push_back(hostile::utf8(CF, T));
      break;
    }
    case 2:
      hostile::raw(CF, Pick(2) ? CpTag::Integer : CpTag::Float, 0, 0, Pick(4));
      break;
    case 3:
      hostile::raw(CF, Pick(2) ? CpTag::Long : CpTag::Double, 0, 0, Pick(3));
      break;
    case 4:
      hostile::raw(CF, CpTag::Class, Ref());
      break;
    case 5:
      hostile::raw(CF, CpTag::String, Ref());
      break;
    case 6:
      hostile::raw(CF, CpTag::NameAndType, Ref(), Ref());
      break;
    case 7:
      hostile::raw(CF,
                   std::array{CpTag::FieldRef, CpTag::MethodRef,
                              CpTag::InterfaceMethodRef}[Pick(3)],
                   Ref(), Ref());
      break;
    case 8:
      hostile::raw(CF, CpTag::MethodHandle, Ref(), 0, 0,
                   static_cast<uint8_t>(1 + Pick(9)));
      break;
    case 9:
      hostile::raw(CF, std::array{CpTag::MethodType, CpTag::Module,
                                  CpTag::Package}[Pick(3)],
                   Ref());
      break;
    case 10:
      hostile::raw(CF, Pick(2) ? CpTag::Dynamic : CpTag::InvokeDynamic,
                   static_cast<uint16_t>(Pick(3)), Ref());
      break;
    default:
      break;
    }
  }
  uint16_t Count = CF.CP.count();
  auto Slot = [&]() { return static_cast<uint16_t>(1 + Pick(Count - 1)); };
  unsigned Methods = 1 + Pick(3);
  for (unsigned K = 0; K < Methods; ++K) {
    hostile::Code C;
    unsigned Len = Pick(12);
    for (unsigned J = 0; J < Len; ++J) {
      uint16_t S = Slot();
      switch (Pick(6)) {
      case 0:
        if (S <= 0xFF)
          C.ldc(S);
        break;
      case 1:
        C.ldcW(S);
        break;
      case 2:
        C.cp(Op::GetStatic, S).op(Op::Pop);
        break;
      case 3:
        C.cp(Op::InvokeInterface, S).u1(1).u1(0);
        break;
      case 4:
        C.cp(Op::New, S).op(Op::Pop);
        break;
      default:
        C.cp(Op::InvokeDynamic, S).u2(0).op(Op::Pop);
        break;
      }
    }
    std::vector<ExceptionTableEntry> Table;
    if (Pick(3) == 0)
      Table.push_back({0, 1, 0, Pick(2) ? Slot() : uint16_t(0)});
    hostile::method(CF, Pick(2) ? "m" : "n", std::move(C), std::move(Table));
    if (Pick(3) == 0) {
      ByteWriter W;
      W.writeU2(1);
      W.writeU2(Slot());
      CF.Methods.back().Attributes.push_back(
          {"Exceptions", CF.arena().adopt(W.take())});
    }
  }
  if (Pick(2)) {
    MemberInfo F;
    F.NameIndex = Slot();
    F.DescriptorIndex = Slot();
    ByteWriter W;
    W.writeU2(Slot());
    F.Attributes.push_back({"ConstantValue", CF.arena().adopt(W.take())});
    CF.Fields.push_back(std::move(F));
  }
  if (Pick(3) == 0)
    CF.Attributes.push_back({Pick(2) ? "Synthetic" : "Deprecated", {}});
  return CF;
}

} // namespace

TEST(CanonicalizeOracle, RandomPools) {
  std::mt19937 Rng(20240611);
  unsigned Agreed = 0;
  for (unsigned K = 0; K < 1500; ++K) {
    ClassFile CF = randomClass(Rng);
    if (expectAgree(CF, "random class " + std::to_string(K)))
      ++Agreed;
    if (::testing::Test::HasFailure())
      break;
  }
  // Most random classes dangle somewhere; enough must not.
  EXPECT_GT(Agreed, 100u);
}

TEST(Canonicalize, EarlyExitLeavesCanonicalClassAsItIs) {
  for (CodeStyle Style : AllStyles) {
    std::vector<ClassFile> Classes =
        generateCorpusClasses(smallSpec(21, Style));
    for (ClassFile &CF : Classes) {
      ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
      std::vector<uint8_t> Once = writeClassFile(CF);
      std::vector<const void *> Before = storageOf(CF);
      ASSERT_FALSE(static_cast<bool>(canonicalizeConstantPool(CF)));
      EXPECT_EQ(storageOf(CF), Before) << CF.thisClassName();
      EXPECT_EQ(writeClassFile(CF), Once);
    }
  }
}

TEST(Canonicalize, RenumberingRewritesStorage) {
  // The converse of the early exit: a class out of canonical order gets
  // a new pool and re-encoded code.
  ClassFile CF = hostile::duplicates();
  std::vector<const void *> Before = storageOf(CF);
  ASSERT_FALSE(static_cast<bool>(canonicalizeConstantPool(CF)));
  std::vector<const void *> After = storageOf(CF);
  EXPECT_NE(After[0], Before[0]);
  EXPECT_NE(After.back(), Before.back());
}

TEST(Canonicalize, DecodedEntryPointMatchesParsedEntryPoint) {
  for (CodeStyle Style : AllStyles) {
    std::vector<ClassFile> Classes =
        generateCorpusClasses(smallSpec(31, Style));
    for (ClassFile &CF : Classes) {
      stripDebugInfo(CF);
      ClassFile Parsed = CF;
      ASSERT_FALSE(static_cast<bool>(canonicalizeConstantPool(Parsed)));
      // The same class with its code handed over decoded and its Code
      // attributes emptied.
      DecodedCode Code;
      for (size_t MI = 0; MI < CF.Methods.size(); ++MI)
        for (size_t AI = 0; AI < CF.Methods[MI].Attributes.size(); ++AI) {
          AttributeInfo &A = CF.Methods[MI].Attributes[AI];
          if (A.Name != "Code")
            continue;
          auto Header = parseCodeAttribute(A, CF.CP);
          ASSERT_TRUE(static_cast<bool>(Header));
          DecodedCode::Body B;
          B.Method = static_cast<uint32_t>(MI);
          B.Attribute = static_cast<uint32_t>(AI);
          B.Begin = static_cast<uint32_t>(Code.Insns.size());
          ASSERT_FALSE(static_cast<bool>(decodeCode(Header->Code, Code.Insns)));
          B.End = static_cast<uint32_t>(Code.Insns.size());
          B.Header = std::move(*Header);
          Code.Bodies.push_back(std::move(B));
          A.Bytes = {};
        }
      ASSERT_FALSE(
          static_cast<bool>(canonicalizeConstantPool(CF, std::move(Code))));
      EXPECT_EQ(writeClassFile(CF), writeClassFile(Parsed))
          << CF.thisClassName();
    }
  }
}

TEST(Canonicalize, DecodedLdcPast255IsCorrupt) {
  // The decoded entry point takes ldc operands as the materializer
  // numbered them, which need not fit a byte; the check runs on the
  // final indices, both when the pool is already in order and when not.
  for (bool InOrder : {true, false}) {
    // In order: the Integers, the Class, then its Utf8 texts.
    ClassFile CF;
    for (unsigned K = 0; K < 300; ++K)
      hostile::raw(CF, CpTag::Integer, 0, 0, InOrder ? K : 299 - K);
    CF.ThisClass = hostile::raw(CF, CpTag::Class, 303);
    MemberInfo M;
    M.DescriptorIndex = hostile::utf8(CF, "()V");
    hostile::utf8(CF, "A");
    hostile::utf8(CF, "Code");
    M.NameIndex = hostile::utf8(CF, "m");
    M.Attributes.push_back({"Code", {}});
    CF.Methods.push_back(std::move(M));
    DecodedCode Code;
    uint32_t Offset = 0;
    for (uint16_t K = 1; K <= 300; ++K) {
      Insn I;
      I.Opcode = Op::Ldc;
      I.CpIndex = K;
      I.Offset = Offset;
      Offset += 2;
      Code.Insns.push_back(I);
    }
    DecodedCode::Body B;
    B.End = static_cast<uint32_t>(Code.Insns.size());
    Code.Bodies.push_back(B);
    Error E = canonicalizeConstantPool(CF, std::move(Code));
    ASSERT_TRUE(static_cast<bool>(E)) << InOrder;
    EXPECT_EQ(E.code(), ErrorCode::Corrupt);
  }
}

TEST(Canonicalize, ManyLdcStringsRoundTrip) {
  // 200 distinct strings, each loaded by a one-byte ldc: canonical
  // indices 1..200. The materialized pool puts each string's Utf8 next
  // to it, so the ldc range must be checked on the final indices, not on
  // the materialization order.
  ClassFile CF = hostile::skeleton("hostile/ManyStrings");
  hostile::Code C;
  for (unsigned K = 0; K < 200; ++K)
    C.ldcW(hostile::raw(CF, CpTag::String,
                        hostile::utf8(CF, "string" + std::to_string(K))));
  hostile::method(CF, "m", std::move(C));
  ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  // ldc_w operands below 256 are kept as written; rewrite them as ldc.
  ClassFile Prepared = CF;
  for (CodeSite &Site : codeSites(Prepared)) {
    for (Insn &I : Site.Insns)
      if (I.Opcode == Op::LdcW)
        I.Opcode = Op::Ldc;
    // Offsets shift by one per rewritten instruction.
    uint32_t Offset = 0;
    for (Insn &I : Site.Insns) {
      I.Offset = Offset;
      Offset += encodedLength(I, Offset);
    }
    ByteWriter Scratch;
    *Site.Attr = encodeCodeAttribute(Site.Header, Site.Insns, Prepared.CP,
                                     Scratch);
  }
  ASSERT_FALSE(static_cast<bool>(prepareForPacking(Prepared)));
  std::vector<uint8_t> Expected = writeClassFile(Prepared);
  auto Packed = packClasses({Prepared}, PackOptions());
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  auto Unpacked = unpackClasses(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Unpacked)) << Unpacked.message();
  ASSERT_EQ(Unpacked->size(), 1u);
  EXPECT_EQ(writeClassFile((*Unpacked)[0]), Expected);
}

TEST(ConstantPool, BuildersReturnFirstOfParsedDuplicates) {
  auto Parsed = parseClassFile(writeClassFile(hostile::duplicates()));
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  ConstantPool &CP = Parsed->CP;
  uint16_t Count = CP.count();
  // Pool layout from hostile::duplicates(): 5, 6 = "same"; 7, 8, 9 =
  // Class(5), Class(6), Class(5); 10, 11 = String(6), String(5); 12, 13
  // = Integer 7; 14 = "I"; 15, 16 = N&T(5, 14), N&T(6, 14); 17 =
  // FieldRef(7, 15).
  EXPECT_EQ(CP.addUtf8("same"), 5);
  EXPECT_EQ(CP.findUtf8("same"), 5);
  EXPECT_EQ(CP.addClass("same"), 7);
  EXPECT_EQ(CP.addString("same"), 11);
  EXPECT_EQ(CP.addInteger(7), 12);
  EXPECT_EQ(CP.addNameAndType("same", "I"), 15);
  EXPECT_EQ(CP.addRef(CpTag::FieldRef, "same", "same", "I"), 17);
  EXPECT_EQ(CP.count(), Count) << "every lookup hit an existing entry";
  // Equal to the second copy by content: Class(6) is entry 8.
  CpEntry E;
  E.Tag = CpTag::Class;
  E.Ref1 = 6;
  EXPECT_EQ(CP.find(E), 8);
}

TEST(ConstantPool, EqualityIsTagAndPayload) {
  ConstantPool CP;
  auto Entry = [](CpTag Tag, uint16_t Ref1, uint16_t Ref2, uint64_t Bits,
                  uint8_t Kind) {
    CpEntry E;
    E.Tag = Tag;
    E.Ref1 = Ref1;
    E.Ref2 = Ref2;
    E.Bits = Bits;
    E.RefKind = Kind;
    return E;
  };
  std::vector<CpEntry> Distinct = {
      Entry(CpTag::MethodHandle, 3, 0, 0, 5),
      Entry(CpTag::MethodHandle, 3, 0, 0, 6),
      Entry(CpTag::MethodHandle, 4, 0, 0, 6),
      Entry(CpTag::Dynamic, 3, 4, 0, 0),
      Entry(CpTag::InvokeDynamic, 3, 4, 0, 0),
      Entry(CpTag::InvokeDynamic, 4, 3, 0, 0),
      Entry(CpTag::Integer, 0, 0, 5, 0),
      Entry(CpTag::Float, 0, 0, 5, 0),
      Entry(CpTag::Long, 0, 0, 5, 0),
      Entry(CpTag::Double, 0, 0, 5, 0),
      Entry(CpTag::Module, 3, 0, 0, 0),
      Entry(CpTag::Package, 3, 0, 0, 0),
  };
  std::vector<uint16_t> Index;
  for (const CpEntry &E : Distinct)
    Index.push_back(CP.appendRaw(E));
  for (size_t K = 0; K < Distinct.size(); ++K)
    EXPECT_EQ(CP.find(Distinct[K]), Index[K]) << K;
  // Fields a tag does not use do not take part: a MethodHandle's Ref2,
  // an Integer's references.
  EXPECT_EQ(CP.find(Entry(CpTag::MethodHandle, 3, 9, 0, 5)), Index[0]);
  EXPECT_EQ(CP.find(Entry(CpTag::Integer, 1, 2, 5, 3)), Index[6]);
}

TEST(ConstantPool, LookupsOverBorrowedViews) {
  std::vector<uint8_t> Bytes = writeClassFile(hostile::textBytes());
  auto Parsed = parseClassFile(Bytes, DecodeLimits(), ParseMode::Borrowed);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  ConstantPool &CP = Parsed->CP;
  uint16_t Count = CP.count();
  const char *Begin = reinterpret_cast<const char *>(Bytes.data());
  size_t Found = 0;
  for (uint16_t I = 1; I < Count; ++I) {
    if (!CP.isValidIndex(I) || CP.entry(I).Tag != CpTag::Utf8)
      continue;
    std::string_view Text = CP.entry(I).Text;
    if (!Text.empty()) {
      ASSERT_GE(Text.data(), Begin);
      ASSERT_LT(Text.data(), Begin + Bytes.size()) << "a borrowed view";
    }
    // A lookup by an equal string elsewhere in memory finds the lowest
    // entry with that text.
    std::string Copy(Text);
    uint16_t Lowest = CP.findUtf8(Copy);
    ASSERT_NE(Lowest, 0);
    EXPECT_LE(Lowest, I);
    EXPECT_EQ(CP.entry(Lowest).Text, Text);
    EXPECT_EQ(CP.addUtf8(Copy), Lowest);
    ++Found;
  }
  EXPECT_GT(Found, 20u);
  EXPECT_EQ(CP.count(), Count);
  EXPECT_EQ(CP.findUtf8(std::string_view("a\0c", 3)), 0);
}

TEST(ConstantPool, LookupsSurviveManyRehashes) {
  ConstantPool CP;
  std::vector<uint16_t> Utf8s, Ints, Longs, Floats, Classes;
  for (unsigned K = 0; K < 6000; ++K) {
    Utf8s.push_back(CP.addUtf8("t" + std::to_string(K)));
    Ints.push_back(CP.addInteger(static_cast<int32_t>(K)));
    Floats.push_back(CP.addFloat(K)); // same bits as the Integer, other tag
    Longs.push_back(CP.addLong(K));
  }
  for (unsigned K = 0; K < 6000; K += 3)
    Classes.push_back(CP.addClass("t" + std::to_string(K)));
  uint16_t Count = CP.count();
  EXPECT_EQ(Count, 1 + 6000 * 5 + 2000);
  for (unsigned K = 0; K < 6000; ++K) {
    ASSERT_EQ(CP.addUtf8("t" + std::to_string(K)), Utf8s[K]);
    ASSERT_EQ(CP.addInteger(static_cast<int32_t>(K)), Ints[K]);
    ASSERT_EQ(CP.addFloat(K), Floats[K]);
    ASSERT_EQ(CP.addLong(K), Longs[K]);
    ASSERT_NE(Ints[K], Floats[K]);
  }
  for (unsigned K = 0; K < 6000; K += 3)
    ASSERT_EQ(CP.addClass("t" + std::to_string(K)), Classes[K / 3]);
  EXPECT_EQ(CP.count(), Count);
  EXPECT_EQ(CP.findUtf8("t6000"), 0);
  // A copy indexes on its own.
  ConstantPool Copy = CP;
  uint16_t New = Copy.addUtf8("only-in-copy");
  EXPECT_EQ(Copy.findUtf8("only-in-copy"), New);
  EXPECT_EQ(CP.findUtf8("only-in-copy"), 0);
}

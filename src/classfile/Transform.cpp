//===- Transform.cpp - Classfile preprocessing (§2, §9) -------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classfile/Transform.h"
#include "support/ByteBuffer.h"
#include <algorithm>
#include <cstring>
#include <numeric>

using namespace cjpack;

bool cjpack::isRecognizedAttribute(std::string_view Name) {
  return Name == "Code" || Name == "ConstantValue" || Name == "Exceptions" ||
         Name == "Synthetic" || Name == "Deprecated";
}

static bool isDebugAttribute(std::string_view Name) {
  return Name == "LineNumberTable" || Name == "LocalVariableTable" ||
         Name == "SourceFile";
}

/// The size of \p Code's attribute bytes as encodeCodeAttribute writes
/// them.
static size_t codeAttributeSize(const CodeAttribute &Code) {
  size_t Size = 12 + Code.Code.size() + 8 * Code.ExceptionTable.size();
  for (const AttributeInfo &A : Code.Attributes)
    Size += 6 + A.Bytes.size();
  return Size;
}

static void filterAttributes(std::vector<AttributeInfo> &Attrs,
                             bool DropUnrecognized) {
  std::erase_if(Attrs, [&](const AttributeInfo &A) {
    if (isDebugAttribute(A.Name))
      return true;
    return DropUnrecognized && !isRecognizedAttribute(A.Name);
  });
}

void cjpack::stripDebugInfo(ClassFile &CF, bool DropUnrecognized) {
  filterAttributes(CF.Attributes, DropUnrecognized);
  for (MemberInfo &F : CF.Fields)
    filterAttributes(F.Attributes, DropUnrecognized);
  for (MemberInfo &M : CF.Methods) {
    filterAttributes(M.Attributes, DropUnrecognized);
    for (AttributeInfo &A : M.Attributes) {
      if (A.Name != "Code")
        continue;
      // Rewrite the Code attribute with all nested attributes removed,
      // unless that would reproduce its bytes exactly.
      auto Code = parseCodeAttribute(A, CF.CP);
      if (!Code)
        continue; // malformed code is caught later by canonicalize
      if (Code->Attributes.empty() && A.Bytes.size() == codeAttributeSize(*Code))
        continue;
      Code->Attributes.clear();
      A = encodeCodeAttribute(*Code, CF.CP);
    }
  }
}

namespace {

/// The groups of the canonical §2/§9 order, in order.
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

/// Per-slot marks.
enum : uint8_t {
  Reached = 1,    ///< reachable from the class structure or its code
  LdcOperand = 2, ///< operand of a one-byte ldc
  AttrName = 4,   ///< an attribute name no reachable entry holds
};

/// One entry's place in the canonical order (DESIGN.md): group, then a
/// sort key that begins with the tag byte and compares unsigned, then
/// old index. The rest of the key is text pieces, compared as if
/// concatenated, or the integers (Hi, Lo); it is never built.
struct SortItem {
  CpGroup Group = CpGroup::Other;
  CpTag Tag = CpTag::None;
  uint8_t NumPieces = 0; ///< 0 when the key is (Hi, Lo)
  uint16_t Old = 0;      ///< 0 for a synthesized Utf8 entry (Pieces[0])
  uint64_t Hi = 0, Lo = 0;
  std::string_view Pieces[5];
};

constexpr std::string_view Nul("\0", 1);

/// Compares the keys of two entries with the same tag, so the same shape.
int compareKeys(const SortItem &A, const SortItem &B) {
  if (A.NumPieces == 0)
    return A.Hi != B.Hi ? (A.Hi < B.Hi ? -1 : 1)
                        : (A.Lo == B.Lo ? 0 : (A.Lo < B.Lo ? -1 : 1));
  unsigned PA = 0, PB = 0;
  size_t OA = 0, OB = 0;
  for (;;) {
    for (; PA < A.NumPieces && OA == A.Pieces[PA].size(); ++PA)
      OA = 0;
    for (; PB < B.NumPieces && OB == B.Pieces[PB].size(); ++PB)
      OB = 0;
    bool EndA = PA == A.NumPieces, EndB = PB == B.NumPieces;
    if (EndA || EndB)
      return EndA == EndB ? 0 : (EndA ? -1 : 1);
    size_t N = std::min(A.Pieces[PA].size() - OA, B.Pieces[PB].size() - OB);
    if (int C = std::memcmp(A.Pieces[PA].data() + OA,
                            B.Pieces[PB].data() + OB, N))
      return C;
    OA += N;
    OB += N;
  }
}

/// How many of Ref1, Ref2 an entry of kind \p Tag uses as pool indices.
/// Dynamic and InvokeDynamic's Ref1 is a bootstrap-method index, but it
/// is followed and renumbered like a pool index: the canonical bytes
/// depend on it.
unsigned numRefs(CpTag Tag) {
  switch (Tag) {
  case CpTag::Class:
  case CpTag::String:
  case CpTag::MethodType:
  case CpTag::Module:
  case CpTag::Package:
  case CpTag::MethodHandle:
    return 1;
  case CpTag::FieldRef:
  case CpTag::MethodRef:
  case CpTag::InterfaceMethodRef:
  case CpTag::NameAndType:
  case CpTag::Dynamic:
  case CpTag::InvokeDynamic:
    return 2;
  default:
    return 0;
  }
}

bool precedes(const SortItem &A, const SortItem &B) {
  if (A.Group != B.Group)
    return A.Group < B.Group;
  if (A.Tag != B.Tag)
    return A.Tag < B.Tag;
  if (int C = compareKeys(A, B))
    return C < 0;
  return A.Old < B.Old;
}

/// Garbage-collects and sorts one class's pool, renumbering every
/// reference. The class's code comes decoded in \p Code. When
/// \p Encoded, the Code attributes still hold their bytes, so a class
/// whose pool is already canonical, and whose attributes re-encode to
/// their bytes (\p NormalForm), is left exactly as it is; otherwise each
/// Code attribute is encoded once, with its final indices.
class PoolCanonicalizer {
public:
  PoolCanonicalizer(ClassFile &CF, DecodedCode &Code, bool Encoded,
                    bool NormalForm)
      : CF(CF), CP(CF.CP), Code(Code), Encoded(Encoded),
        NormalForm(NormalForm), Marks(CP.count(), 0) {}

  Error run() {
    markRoots();
    closeOverReferences();
    collectAttributeNames();
    if (auto E = collectItems())
      return E;
    if (NormalForm && isIdentity()) {
      if (auto E = checkLdc())
        return E;
      if (!Encoded)
        encodeCode();
      return Error::success();
    }
    std::vector<uint32_t> Order(Items.size());
    std::iota(Order.begin(), Order.end(), 0u);
    std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
      return precedes(Items[A], Items[B]);
    });
    if (auto E = assignNewIndices(Order))
      return E;
    if (auto E = checkLdc())
      return E;
    rebuildPool(Order);
    remapStructure();
    return Error::success();
  }

private:
  void mark(uint16_t Index) {
    if (Index == 0)
      return;
    if (Index >= Marks.size()) {
      OutOfRange = OutOfRange ? std::min(OutOfRange, Index) : Index;
    } else if (!(Marks[Index] & Reached)) {
      Marks[Index] |= Reached;
      Work.push_back(Index);
    }
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
        ByteReader R(A.Bytes);
        if (A.Name == "ConstantValue" && A.Bytes.size() == 2) {
          mark(R.readU2());
        } else if (A.Name == "Exceptions") {
          uint16_t N = R.readU2();
          for (uint16_t K = 0; K < N; ++K)
            mark(R.readU2());
          // Renumbering rewrites exactly 2 + 2N bytes.
          NormalForm = NormalForm && A.Bytes.size() == 2 + 2 * size_t(N);
        }
      }
    };
    for (const MemberInfo &F : CF.Fields)
      MarkMember(F);
    for (const MemberInfo &M : CF.Methods)
      MarkMember(M);
    for (const DecodedCode::Body &B : Code.Bodies)
      for (const ExceptionTableEntry &E : B.Header.ExceptionTable)
        mark(E.CatchType);
    for (const Insn &I : Code.Insns) {
      if (!I.hasCpOperand())
        continue;
      mark(I.CpIndex);
      if (I.Opcode == Op::Ldc && I.CpIndex != 0 && I.CpIndex < Marks.size())
        Marks[I.CpIndex] |= LdcOperand;
    }
  }

  void closeOverReferences() {
    while (!Work.empty()) {
      uint16_t Index = Work.back();
      Work.pop_back();
      if (!CP.isValidIndex(Index))
        continue;
      const CpEntry &E = CP.entry(Index);
      unsigned Refs = numRefs(E.Tag);
      if (Refs >= 1)
        mark(E.Ref1);
      if (Refs == 2)
        mark(E.Ref2);
    }
  }

  /// Attribute names must live in the pool. A name no reachable entry
  /// holds joins the sorted block as the pool's lowest entry with that
  /// text, if any, else as a synthesized Utf8 entry. Both land in the
  /// same place, and a canonical pool needs no synthesis.
  void collectAttributeNames() {
    std::vector<std::string_view> Names;
    auto Collect = [&](const std::vector<AttributeInfo> &Attrs) {
      for (const AttributeInfo &A : Attrs)
        Names.push_back(A.Name);
    };
    Collect(CF.Attributes);
    for (const MemberInfo &F : CF.Fields)
      Collect(F.Attributes);
    for (const MemberInfo &M : CF.Methods)
      Collect(M.Attributes);
    for (const DecodedCode::Body &B : Code.Bodies)
      Collect(B.Header.Attributes);
    std::sort(Names.begin(), Names.end());
    Names.erase(std::unique(Names.begin(), Names.end()), Names.end());
    for (std::string_view Name : Names) {
      uint16_t Lowest = CP.findUtf8(Name);
      if (Lowest == 0) {
        SynthTexts.push_back(Name);
        continue;
      }
      // The lowest copy may be unreachable while a higher one is not.
      bool HeldByReached = false;
      for (uint16_t I = Lowest; I < Marks.size() && !HeldByReached; ++I)
        HeldByReached = (Marks[I] & Reached) &&
                        CP.entry(I).Tag == CpTag::Utf8 &&
                        CP.entry(I).Text == Name;
      if (!HeldByReached)
        Marks[Lowest] |= AttrName;
    }
  }

  CpGroup groupOf(uint16_t Index, CpTag Tag) const {
    switch (Tag) {
    case CpTag::Integer:
    case CpTag::Float:
    case CpTag::String:
      return (Marks[Index] & LdcOperand) ? CpGroup::LdcConst
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

  const CpEntry *entryAt(uint16_t Ref) const {
    return CP.isValidIndex(Ref) ? &CP.entry(Ref) : nullptr;
  }

  std::string_view textAt(uint16_t Ref) const {
    const CpEntry *E = entryAt(Ref);
    return E && E->Tag == CpTag::Utf8 ? E->Text : std::string_view();
  }

  SortItem itemFor(uint16_t Index) const {
    const CpEntry &E = CP.entry(Index);
    SortItem It;
    It.Group = groupOf(Index, E.Tag);
    It.Tag = E.Tag;
    It.Old = Index;
    auto Key = [&](std::initializer_list<std::string_view> Pieces) {
      for (std::string_view P : Pieces)
        It.Pieces[It.NumPieces++] = P;
    };
    switch (E.Tag) {
    case CpTag::Utf8:
      Key({E.Text});
      break;
    case CpTag::Integer:
    case CpTag::Float:
    case CpTag::Long:
    case CpTag::Double:
      It.Hi = E.Bits;
      break;
    case CpTag::Class:
    case CpTag::String:
    case CpTag::MethodType:
    case CpTag::Module:
    case CpTag::Package:
      Key({textAt(E.Ref1)});
      break;
    case CpTag::NameAndType:
      Key({textAt(E.Ref1), Nul, textAt(E.Ref2)});
      break;
    case CpTag::FieldRef:
    case CpTag::MethodRef:
    case CpTag::InterfaceMethodRef: {
      const CpEntry *C = entryAt(E.Ref1), *NT = entryAt(E.Ref2);
      Key({C && C->Tag == CpTag::Class ? textAt(C->Ref1) : "", Nul});
      if (NT && NT->Tag == CpTag::NameAndType)
        Key({textAt(NT->Ref1), Nul, textAt(NT->Ref2)});
      break;
    }
    default: // the raw old indices
      It.Hi = E.Ref1;
      It.Lo = E.Ref2;
      break;
    }
    return It;
  }

  /// Builds the items in old-index order, synthesized names last.
  Error collectItems() {
    auto Dangling = [](uint32_t Index) {
      return makeError(ErrorCode::Corrupt,
                       "canonicalize: dangling constant pool index " +
                           std::to_string(Index));
    };
    Items.reserve(Marks.size() + SynthTexts.size());
    for (uint16_t I = 1; I < Marks.size(); ++I) {
      if (!(Marks[I] & (Reached | AttrName)))
        continue;
      if (!CP.isValidIndex(I))
        return Dangling(I);
      Items.push_back(itemFor(I));
    }
    if (OutOfRange)
      return Dangling(OutOfRange);
    for (std::string_view Text : SynthTexts) {
      SortItem It;
      It.Group = CpGroup::Text;
      It.Tag = CpTag::Utf8;
      It.Pieces[It.NumPieces++] = Text;
      Items.push_back(It);
    }
    return Error::success();
  }

  /// True if the canonical order renumbers nothing: nothing to
  /// synthesize, every slot kept, and the items already sorted.
  bool isIdentity() const {
    uint32_t Next = 1;
    for (size_t K = 0; K < Items.size(); ++K) {
      if (Items[K].Old != Next || (K && !precedes(Items[K - 1], Items[K])))
        return false;
      Next += CP.entry(Items[K].Old).isWide() ? 2 : 1;
    }
    return SynthTexts.empty() && Next == CP.count();
  }

  /// Checks the ldc operands' new indices (the old ones if OldToNew is
  /// unset).
  Error checkLdc() const {
    for (uint16_t I = 1; I < Marks.size(); ++I)
      if ((Marks[I] & LdcOperand) && (OldToNew.empty() ? I : OldToNew[I]) > 255)
        return makeError(ErrorCode::Corrupt,
                         "canonicalize: cannot keep ldc constant below "
                         "index 256");
    return Error::success();
  }

  Error assignNewIndices(const std::vector<uint32_t> &Order) {
    OldToNew.assign(CP.count(), 0);
    for (uint32_t K : Order) {
      uint16_t Old = Items[K].Old;
      if (Old != 0)
        OldToNew[Old] = static_cast<uint16_t>(NewCount);
      NewCount += Old != 0 && CP.entry(Old).isWide() ? 2 : 1;
      if (NewCount > 0xFFFF)
        return makeError(ErrorCode::LimitExceeded,
                         "canonicalize: constant pool overflow");
    }
    return Error::success();
  }

  uint16_t remap(uint16_t Old) const {
    assert((Old == 0 || OldToNew[Old] != 0) &&
           "remapping an unreachable cp index");
    return Old == 0 ? 0 : OldToNew[Old];
  }

  void rebuildPool(const std::vector<uint32_t> &Order) {
    // The replacement pool must share the class's arena: copied entries
    // keep views into it, and synthesized texts are interned into it.
    CF.arena();
    ConstantPool NewCP(CP.arenaPtr());
    NewCP.reserve(NewCount);
    for (uint32_t K : Order) {
      const SortItem &It = Items[K];
      CpEntry E;
      if (It.Old == 0) {
        E.Tag = CpTag::Utf8;
        E.Text = CF.arena().internString(It.Pieces[0]);
      } else {
        E = CP.entry(It.Old);
        unsigned Refs = numRefs(E.Tag);
        if (Refs >= 1)
          E.Ref1 = remap(E.Ref1);
        if (Refs == 2)
          E.Ref2 = remap(E.Ref2);
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
        ByteReader R(A.Bytes);
        Scratch.clear();
        if (A.Name == "ConstantValue" && A.Bytes.size() == 2) {
          Scratch.writeU2(remap(R.readU2()));
        } else if (A.Name == "Exceptions") {
          uint16_t N = R.readU2();
          Scratch.writeU2(N);
          for (uint16_t K = 0; K < N; ++K)
            Scratch.writeU2(remap(R.readU2()));
        } else {
          continue;
        }
        A.Bytes = CF.arena().copy(Scratch.data());
      }
    };
    for (MemberInfo &F : CF.Fields)
      RemapMember(F);
    for (MemberInfo &M : CF.Methods)
      RemapMember(M);
    for (DecodedCode::Body &B : Code.Bodies)
      for (ExceptionTableEntry &E : B.Header.ExceptionTable)
        E.CatchType = remap(E.CatchType);
    for (Insn &I : Code.Insns)
      if (I.hasCpOperand())
        I.CpIndex = remap(I.CpIndex);
    encodeCode();
  }

  /// Encodes every Code attribute from its instructions, with the
  /// indices they now hold.
  void encodeCode() {
    std::span<const Insn> Insns(Code.Insns);
    for (const DecodedCode::Body &B : Code.Bodies)
      CF.Methods[B.Method].Attributes[B.Attribute] = encodeCodeAttribute(
          B.Header, Insns.subspan(B.Begin, B.End - B.Begin), CF.CP,
          Scratch);
  }

  ClassFile &CF;
  /// The pool being canonicalized. CF.CP is replaced only at the end of
  /// rebuildPool, after which this is never read.
  const ConstantPool &CP;
  DecodedCode &Code;
  const bool Encoded;
  /// False if some attribute would not re-encode to its current bytes.
  bool NormalForm;
  std::vector<uint8_t> Marks; ///< per old slot
  std::vector<uint16_t> Work;
  uint16_t OutOfRange = 0; ///< least reached index past the pool, or 0
  std::vector<std::string_view> SynthTexts;
  std::vector<SortItem> Items;
  std::vector<uint16_t> OldToNew;
  uint32_t NewCount = 1; ///< the new constant_pool_count
  ByteWriter Scratch;
};

Error checkRecognized(const ClassFile &CF) {
  auto Check = [&](const std::vector<AttributeInfo> &Attrs) -> Error {
    for (const AttributeInfo &A : Attrs)
      if (!isRecognizedAttribute(A.Name))
        return makeError("canonicalize: unrecognized attribute '" +
                         std::string(A.Name) + "' (strip first)");
    return Error::success();
  };
  if (auto E = Check(CF.Attributes))
    return E;
  for (const MemberInfo &F : CF.Fields)
    if (auto E = Check(F.Attributes))
      return E;
  for (const MemberInfo &M : CF.Methods)
    if (auto E = Check(M.Attributes))
      return E;
  return Error::success();
}

} // namespace

Error cjpack::canonicalizeConstantPool(ClassFile &CF) {
  if (auto E = checkRecognized(CF))
    return E;
  DecodedCode Code;
  // Whether re-encoding every Code attribute would give its bytes back.
  bool NormalForm = true;
  for (size_t MI = 0; MI < CF.Methods.size(); ++MI) {
    const std::vector<AttributeInfo> &Attrs = CF.Methods[MI].Attributes;
    for (size_t AI = 0; AI < Attrs.size(); ++AI) {
      if (Attrs[AI].Name != "Code")
        continue;
      auto Header = parseCodeAttribute(Attrs[AI], CF.CP);
      if (!Header)
        return Header.takeError();
      DecodedCode::Body B;
      B.Method = static_cast<uint32_t>(MI);
      B.Attribute = static_cast<uint32_t>(AI);
      B.Begin = static_cast<uint32_t>(Code.Insns.size());
      if (auto E = decodeCode(Header->Code, Code.Insns))
        return E;
      B.End = static_cast<uint32_t>(Code.Insns.size());
      NormalForm = NormalForm && Header->Attributes.empty() &&
                   Attrs[AI].Bytes.size() == codeAttributeSize(*Header) &&
                   encodesIdentically(
                       Header->Code,
                       std::span<const Insn>(Code.Insns).subspan(B.Begin));
      B.Header = std::move(*Header);
      Code.Bodies.push_back(std::move(B));
    }
  }
  return PoolCanonicalizer(CF, Code, /*Encoded=*/true, NormalForm).run();
}

Error cjpack::canonicalizeConstantPool(ClassFile &CF, DecodedCode &&Code) {
  if (auto E = checkRecognized(CF))
    return E;
  return PoolCanonicalizer(CF, Code, /*Encoded=*/false, /*NormalForm=*/true)
      .run();
}

Error cjpack::prepareForPacking(ClassFile &CF) {
  stripDebugInfo(CF);
  return canonicalizeConstantPool(CF);
}

//===- Materialize.cpp - class records back to classfiles -----------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/Materialize.h"
#include "classfile/Transform.h"
#include "pack/Transcode.h"

using namespace cjpack;

namespace {

class Materializer {
public:
  explicit Materializer(const Model &M) : M(M) {}

  /// Runs once: the decoded code moves into canonicalization.
  Expected<ClassFile> run(const ClassRec &DC) {
    ClassFile CF;
    CF.MinorVersion = static_cast<uint16_t>(DC.MinorVersion);
    CF.MajorVersion = static_cast<uint16_t>(DC.MajorVersion);
    CF.AccessFlags = static_cast<uint16_t>(DC.Flags & 0xFFFF);

    // Materialize constants referenced by one-byte ldc first. The
    // canonical order does not depend on it, except for ties between
    // equal sort keys, which fall to the materialization order.
    size_t NumInsns = 0;
    for (const MethodRec &DM : DC.Methods) {
      if (!DM.Code)
        continue;
      NumInsns += DM.Code->Insns.size();
      for (size_t K = 0; K < DM.Code->Insns.size(); ++K)
        if (DM.Code->Insns[K].Opcode == Op::Ldc)
          addConst(CF, DM.Code->Operands[K]);
    }
    Code.Insns.reserve(NumInsns);

    CF.ThisClass = CF.CP.addClass(M.classRefInternalName(DC.ThisId));
    CF.SuperClass =
        DC.HasSuper ? CF.CP.addClass(M.classRefInternalName(DC.SuperId))
                    : 0;
    for (uint32_t Iface : DC.Interfaces)
      CF.Interfaces.push_back(
          CF.CP.addClass(M.classRefInternalName(Iface)));
    if (DC.Flags & PackedFlagSynthetic)
      CF.Attributes.push_back({"Synthetic", {}});
    if (DC.Flags & PackedFlagDeprecated)
      CF.Attributes.push_back({"Deprecated", {}});

    for (const FieldRec &F : DC.Fields)
      CF.Fields.push_back(materializeField(CF, F));
    for (const MethodRec &DM : DC.Methods)
      CF.Methods.push_back(materializeMethod(CF, DM));

    // Canonicalization sorts the pool (§9 puts ldc constants lowest)
    // and encodes each Code attribute once, with the final indices.
    if (auto E = canonicalizeConstantPool(CF, std::move(Code)))
      return E;
    return CF;
  }

private:
  uint16_t addConst(ClassFile &CF, const CodeOperand &C) {
    switch (C.Kind) {
    case ConstKind::Int:
      return CF.CP.addInteger(static_cast<int32_t>(C.IntValue));
    case ConstKind::Float:
      return CF.CP.addFloat(static_cast<uint32_t>(C.RawBits));
    case ConstKind::Long:
      return CF.CP.addLong(static_cast<int64_t>(C.RawBits));
    case ConstKind::Double:
      return CF.CP.addDouble(C.RawBits);
    case ConstKind::String:
      return CF.CP.addString(M.stringConst(C.Id));
    default:
      assert(false && "not a loadable constant");
      return 0;
    }
  }

  void addMemberMarkers(MemberInfo &MI, uint32_t Flags) {
    if (Flags & PackedFlagSynthetic)
      MI.Attributes.push_back({"Synthetic", {}});
    if (Flags & PackedFlagDeprecated)
      MI.Attributes.push_back({"Deprecated", {}});
  }

  MemberInfo materializeField(ClassFile &CF, const FieldRec &F) {
    const MFieldRef &Ref = M.fieldRef(F.RefId);
    MemberInfo MI;
    MI.AccessFlags = static_cast<uint16_t>(F.Flags & 0xFFFF);
    MI.NameIndex = CF.CP.addUtf8(M.fieldName(Ref.Name));
    MI.DescriptorIndex =
        CF.CP.addUtf8(printTypeDesc(M.classRefTypeDesc(Ref.Type)));
    if (F.Flags & PackedFlagAux0) {
      uint16_t CpIdx = addConst(CF, F.Const);
      ByteWriter W;
      W.writeU2(CpIdx);
      MI.Attributes.push_back({"ConstantValue", CF.arena().adopt(W.take())});
    }
    addMemberMarkers(MI, F.Flags);
    return MI;
  }

  MemberInfo materializeMethod(ClassFile &CF, const MethodRec &DM) {
    const MMethodRef &Ref = M.methodRef(DM.RefId);
    MemberInfo MI;
    MI.AccessFlags = static_cast<uint16_t>(DM.Flags & 0xFFFF);
    MI.NameIndex = CF.CP.addUtf8(M.methodName(Ref.Name));
    MI.DescriptorIndex = CF.CP.addUtf8(M.signatureDescriptor(Ref.Sig));
    if (DM.Code) {
      // A placeholder, filled in by canonicalization.
      DecodedCode::Body B;
      B.Method = static_cast<uint32_t>(CF.Methods.size());
      B.Attribute = static_cast<uint32_t>(MI.Attributes.size());
      B.Begin = static_cast<uint32_t>(Code.Insns.size());
      B.Header = materializeCode(CF, *DM.Code);
      B.End = static_cast<uint32_t>(Code.Insns.size());
      Code.Bodies.push_back(std::move(B));
      MI.Attributes.push_back({"Code", {}});
    }
    if (DM.Flags & PackedFlagAux1) {
      ByteWriter W;
      W.writeU2(static_cast<uint16_t>(DM.Exceptions.size()));
      for (uint32_t C : DM.Exceptions)
        W.writeU2(CF.CP.addClass(M.classRefInternalName(C)));
      MI.Attributes.push_back({"Exceptions", CF.arena().adopt(W.take())});
    }
    addMemberMarkers(MI, DM.Flags);
    return MI;
  }

  /// Appends \p DC's instructions to Code.Insns, their operands added to
  /// the pool, and returns the attribute's header.
  CodeAttribute materializeCode(ClassFile &CF, const CodeRec &DC) {
    CodeAttribute Header;
    Header.MaxStack = static_cast<uint16_t>(DC.MaxStack);
    Header.MaxLocals = static_cast<uint16_t>(DC.MaxLocals);

    for (size_t K = 0; K < DC.Insns.size(); ++K) {
      Insn &I = Code.Insns.emplace_back(DC.Insns[K]);
      const CodeOperand &C = DC.Operands[K];
      switch (C.Kind) {
      case ConstKind::None:
        break;
      case ConstKind::Int:
      case ConstKind::Float:
      case ConstKind::Long:
      case ConstKind::Double:
      case ConstKind::String:
        I.CpIndex = addConst(CF, C);
        break;
      case ConstKind::ClassTarget:
        I.CpIndex = CF.CP.addClass(M.classRefInternalName(C.Id));
        break;
      case ConstKind::Field: {
        const MFieldRef &R = M.fieldRef(C.Id);
        I.CpIndex = CF.CP.addRef(
            CpTag::FieldRef, M.classRefInternalName(R.Owner),
            M.fieldName(R.Name),
            printTypeDesc(M.classRefTypeDesc(R.Type)));
        break;
      }
      case ConstKind::Method: {
        const MMethodRef &R = M.methodRef(C.Id);
        CpTag Tag = I.Opcode == Op::InvokeInterface
                        ? CpTag::InterfaceMethodRef
                        : CpTag::MethodRef;
        I.CpIndex = CF.CP.addRef(Tag, M.classRefInternalName(R.Owner),
                                 M.methodName(R.Name),
                                 M.signatureDescriptor(R.Sig));
        break;
      }
      }
    }

    for (const CodeRec::Handler &E : DC.Table) {
      ExceptionTableEntry T;
      T.StartPc = static_cast<uint16_t>(E.StartPc);
      T.EndPc = static_cast<uint16_t>(E.EndPc);
      T.HandlerPc = static_cast<uint16_t>(E.HandlerPc);
      T.CatchType =
          E.HasCatch
              ? CF.CP.addClass(M.classRefInternalName(E.CatchClass))
              : 0;
      Header.ExceptionTable.push_back(T);
    }
    return Header;
  }

  const Model &M;
  DecodedCode Code;
};

} // namespace

Expected<ClassFile> cjpack::materializeClass(const Model &M,
                                             const ClassRec &Rec) {
  Materializer Mat(M);
  return Mat.run(Rec);
}

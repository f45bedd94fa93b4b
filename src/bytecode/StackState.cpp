//===- StackState.cpp - Approximate JVM stack state (§7.1) ----------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bytecode/StackState.h"
#include <cassert>

using namespace cjpack;

OpFamily cjpack::familyOf(Op O) {
  switch (O) {
  case Op::IAdd: case Op::LAdd: case Op::FAdd: case Op::DAdd:
    return OpFamily::Add;
  case Op::ISub: case Op::LSub: case Op::FSub: case Op::DSub:
    return OpFamily::Sub;
  case Op::IMul: case Op::LMul: case Op::FMul: case Op::DMul:
    return OpFamily::Mul;
  case Op::IDiv: case Op::LDiv: case Op::FDiv: case Op::DDiv:
    return OpFamily::Div;
  case Op::IRem: case Op::LRem: case Op::FRem: case Op::DRem:
    return OpFamily::Rem;
  case Op::INeg: case Op::LNeg: case Op::FNeg: case Op::DNeg:
    return OpFamily::Neg;
  case Op::IShl: case Op::LShl:
    return OpFamily::Shl;
  case Op::IShr: case Op::LShr:
    return OpFamily::Shr;
  case Op::IUShr: case Op::LUShr:
    return OpFamily::UShr;
  case Op::IAnd: case Op::LAnd:
    return OpFamily::And;
  case Op::IOr: case Op::LOr:
    return OpFamily::Or;
  case Op::IXor: case Op::LXor:
    return OpFamily::Xor;
  case Op::IStore: case Op::LStore: case Op::FStore: case Op::DStore:
  case Op::AStore:
    return OpFamily::Store;
  case Op::IStore0: case Op::LStore0: case Op::FStore0: case Op::DStore0:
  case Op::AStore0:
    return OpFamily::Store0;
  case Op::IStore1: case Op::LStore1: case Op::FStore1: case Op::DStore1:
  case Op::AStore1:
    return OpFamily::Store1;
  case Op::IStore2: case Op::LStore2: case Op::FStore2: case Op::DStore2:
  case Op::AStore2:
    return OpFamily::Store2;
  case Op::IStore3: case Op::LStore3: case Op::FStore3: case Op::DStore3:
  case Op::AStore3:
    return OpFamily::Store3;
  case Op::IReturn: case Op::LReturn: case Op::FReturn: case Op::DReturn:
  case Op::AReturn:
    return OpFamily::TypedReturn;
  default:
    return OpFamily::None;
  }
}

unsigned cjpack::familyKeyDepth(OpFamily F) {
  switch (F) {
  case OpFamily::Shl:
  case OpFamily::Shr:
  case OpFamily::UShr:
    return 1; // shift amount (always int) sits on top; the value selects
  default:
    return 0;
  }
}

std::optional<Op> cjpack::variantFor(OpFamily F, VType T) {
  // The i/l/f/d families are laid out contiguously in the opcode space in
  // that order; the store/return families in i/l/f/d/a order.
  auto Numeric4 = [&](Op Base) -> std::optional<Op> {
    switch (T) {
    case VType::Int:
      return Base;
    case VType::Long:
      return static_cast<Op>(static_cast<uint8_t>(Base) + 1);
    case VType::Float:
      return static_cast<Op>(static_cast<uint8_t>(Base) + 2);
    case VType::Double:
      return static_cast<Op>(static_cast<uint8_t>(Base) + 3);
    default:
      return std::nullopt;
    }
  };
  auto IntLong = [&](Op IVariant, Op LVariant) -> std::optional<Op> {
    if (T == VType::Int)
      return IVariant;
    if (T == VType::Long)
      return LVariant;
    return std::nullopt;
  };
  auto Typed5 = [&](Op Base, unsigned Stride) -> std::optional<Op> {
    unsigned K;
    switch (T) {
    case VType::Int: K = 0; break;
    case VType::Long: K = 1; break;
    case VType::Float: K = 2; break;
    case VType::Double: K = 3; break;
    case VType::Ref: K = 4; break;
    default:
      return std::nullopt;
    }
    return static_cast<Op>(static_cast<uint8_t>(Base) + K * Stride);
  };

  switch (F) {
  case OpFamily::None:
    return std::nullopt;
  case OpFamily::Add: return Numeric4(Op::IAdd);
  case OpFamily::Sub: return Numeric4(Op::ISub);
  case OpFamily::Mul: return Numeric4(Op::IMul);
  case OpFamily::Div: return Numeric4(Op::IDiv);
  case OpFamily::Rem: return Numeric4(Op::IRem);
  case OpFamily::Neg: return Numeric4(Op::INeg);
  case OpFamily::Shl: return IntLong(Op::IShl, Op::LShl);
  case OpFamily::Shr: return IntLong(Op::IShr, Op::LShr);
  case OpFamily::UShr: return IntLong(Op::IUShr, Op::LUShr);
  case OpFamily::And: return IntLong(Op::IAnd, Op::LAnd);
  case OpFamily::Or: return IntLong(Op::IOr, Op::LOr);
  case OpFamily::Xor: return IntLong(Op::IXor, Op::LXor);
  case OpFamily::Store: return Typed5(Op::IStore, 1);
  case OpFamily::Store0: return Typed5(Op::IStore0, 4);
  case OpFamily::Store1: return Typed5(Op::IStore1, 4);
  case OpFamily::Store2: return Typed5(Op::IStore2, 4);
  case OpFamily::Store3: return Typed5(Op::IStore3, 4);
  case OpFamily::TypedReturn: return Typed5(Op::IReturn, 1);
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// The shared per-instruction transfer function
//===----------------------------------------------------------------------===//

namespace {

static bool isCat2(VType T) { return T == VType::Long || T == VType::Double; }

static VType charType(char C) {
  switch (C) {
  case 'I': return VType::Int;
  case 'J': return VType::Long;
  case 'F': return VType::Float;
  case 'D': return VType::Double;
  case 'A': return VType::Ref;
  default:
    assert(false && "bad stack-effect character");
    return VType::Unknown;
  }
}

/// Mutable view over a stack vector with the pop/push primitives the
/// transfer function needs; any failed pop poisons the computation.
class StackOps {
public:
  explicit StackOps(std::vector<VType> &Stack) : Stack(Stack) {}

  bool popAny(VType &Out) {
    if (Stack.empty())
      return false;
    Out = Stack.back();
    Stack.pop_back();
    return true;
  }

  bool popType(VType Expected) {
    VType T;
    if (!popAny(T))
      return false;
    // A mismatch means the approximation diverged from the real types
    // (e.g. a join we could not model); the state must degrade.
    return T == Expected || T == VType::Unknown;
  }

  void push(VType T) { Stack.push_back(T); }

  /// Pops N stack units (cat2 values count as two units); fails when the
  /// unit boundary falls inside a cat2 value. Unknown counts as one unit.
  bool popUnits(unsigned Units, std::vector<VType> &Out) {
    while (Units > 0) {
      VType T;
      if (!popAny(T))
        return false;
      unsigned W = isCat2(T) ? 2 : 1;
      if (W > Units)
        return false;
      Units -= W;
      Out.push_back(T);
    }
    return true;
  }

  void pushGroup(const std::vector<VType> &G) {
    for (auto It = G.rbegin(); It != G.rend(); ++It)
      push(*It);
  }

private:
  std::vector<VType> &Stack;
};

/// The '*'-marked opcodes whose effect depends on operands.
static bool applySpecial(const Insn &I, const InsnTypes *Types,
                         StackOps S) {
  switch (I.Opcode) {
  case Op::Ldc:
  case Op::LdcW:
  case Op::Ldc2W:
    S.push(Types ? Types->ConstType : VType::Unknown);
    return true;
  case Op::Pop: {
    VType T;
    return S.popAny(T) && !isCat2(T);
  }
  case Op::Pop2: {
    std::vector<VType> G;
    return S.popUnits(2, G);
  }
  case Op::Dup: {
    VType T;
    if (!S.popAny(T) || isCat2(T))
      return false;
    S.push(T);
    S.push(T);
    return true;
  }
  case Op::DupX1: {
    VType V1, V2;
    if (!S.popAny(V1) || !S.popAny(V2) || isCat2(V1) || isCat2(V2))
      return false;
    S.push(V1);
    S.push(V2);
    S.push(V1);
    return true;
  }
  case Op::DupX2: {
    VType V1;
    if (!S.popAny(V1) || isCat2(V1))
      return false;
    std::vector<VType> G;
    if (!S.popUnits(2, G))
      return false;
    S.push(V1);
    S.pushGroup(G);
    S.push(V1);
    return true;
  }
  case Op::Dup2: {
    std::vector<VType> G;
    if (!S.popUnits(2, G))
      return false;
    S.pushGroup(G);
    S.pushGroup(G);
    return true;
  }
  case Op::Dup2X1: {
    std::vector<VType> G;
    VType V;
    if (!S.popUnits(2, G) || !S.popAny(V) || isCat2(V))
      return false;
    S.pushGroup(G);
    S.push(V);
    S.pushGroup(G);
    return true;
  }
  case Op::Dup2X2: {
    std::vector<VType> G1, G2;
    if (!S.popUnits(2, G1) || !S.popUnits(2, G2))
      return false;
    S.pushGroup(G1);
    S.pushGroup(G2);
    S.pushGroup(G1);
    return true;
  }
  case Op::Swap: {
    VType V1, V2;
    if (!S.popAny(V1) || !S.popAny(V2) || isCat2(V1) || isCat2(V2))
      return false;
    S.push(V1);
    S.push(V2);
    return true;
  }
  case Op::GetField:
  case Op::GetStatic: {
    if (I.Opcode == Op::GetField && !S.popType(VType::Ref))
      return false;
    if (!Types || Types->FieldType == VType::Unknown)
      return false;
    S.push(Types->FieldType);
    return true;
  }
  case Op::PutField:
  case Op::PutStatic: {
    if (!Types || Types->FieldType == VType::Unknown)
      return false;
    if (!S.popType(Types->FieldType))
      return false;
    return I.Opcode != Op::PutField || S.popType(VType::Ref);
  }
  case Op::InvokeVirtual:
  case Op::InvokeSpecial:
  case Op::InvokeStatic:
  case Op::InvokeInterface:
  case Op::InvokeDynamic: {
    if (!Types)
      return false;
    for (auto It = Types->ArgTypes.rbegin(); It != Types->ArgTypes.rend();
         ++It)
      if (!S.popType(*It))
        return false;
    if (I.Opcode != Op::InvokeStatic && I.Opcode != Op::InvokeDynamic &&
        !S.popType(VType::Ref))
      return false;
    if (Types->RetType != VType::Void)
      S.push(Types->RetType);
    return true;
  }
  case Op::MultiANewArray: {
    for (int32_t K = 0; K < I.Const; ++K)
      if (!S.popType(VType::Int))
        return false;
    S.push(VType::Ref);
    return true;
  }
  case Op::AThrow:
  case Op::Jsr:
  case Op::JsrW:
    // These invalidate the tracked state entirely.
    return false;
  default:
    assert(false && "applySpecial on a table-driven opcode");
    return false;
  }
}

} // namespace

bool cjpack::applyInsnStackEffect(const Insn &I, const InsnTypes *Types,
                                  std::vector<VType> &Stack) {
  const OpInfo &Info = opInfo(I.Opcode);
  StackOps S(Stack);
  if (Info.Pops[0] == '*' || Info.Pushes[0] == '*')
    return applySpecial(I, Types, S);
  // Pop the declared types, top of stack last in the string.
  const char *P = Info.Pops;
  size_t L = 0;
  while (P[L])
    ++L;
  for (size_t K = L; K > 0; --K)
    if (!S.popType(charType(P[K - 1])))
      return false;
  for (const char *Q = Info.Pushes; *Q; ++Q)
    S.push(charType(*Q));
  return true;
}

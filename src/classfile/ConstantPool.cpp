//===- ConstantPool.cpp - JVM classfile constant pool ---------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classfile/ConstantPool.h"
#include <algorithm>
#include <functional>

using namespace cjpack;

const char *cjpack::cpTagName(CpTag Tag) {
  switch (Tag) {
  case CpTag::None: return "None";
  case CpTag::Utf8: return "Utf8";
  case CpTag::Integer: return "Integer";
  case CpTag::Float: return "Float";
  case CpTag::Long: return "Long";
  case CpTag::Double: return "Double";
  case CpTag::Class: return "Class";
  case CpTag::String: return "String";
  case CpTag::FieldRef: return "FieldRef";
  case CpTag::MethodRef: return "MethodRef";
  case CpTag::InterfaceMethodRef: return "InterfaceMethodRef";
  case CpTag::NameAndType: return "NameAndType";
  case CpTag::MethodHandle: return "MethodHandle";
  case CpTag::MethodType: return "MethodType";
  case CpTag::Dynamic: return "Dynamic";
  case CpTag::InvokeDynamic: return "InvokeDynamic";
  case CpTag::Module: return "Module";
  case CpTag::Package: return "Package";
  }
  return "Invalid";
}

namespace {

/// What identifies an entry besides its tag (and, for Utf8, its text).
uint64_t payloadOf(const CpEntry &E) {
  switch (E.Tag) {
  case CpTag::Utf8:
    return 0;
  case CpTag::Integer:
  case CpTag::Float:
  case CpTag::Long:
  case CpTag::Double:
    return E.Bits;
  case CpTag::MethodHandle:
    return uint64_t(E.RefKind) << 16 | E.Ref1;
  default:
    return uint64_t(E.Ref1) << 16 | E.Ref2;
  }
}

bool sameContent(const CpEntry &A, const CpEntry &B) {
  return A.Tag == B.Tag && payloadOf(A) == payloadOf(B) &&
         (A.Tag != CpTag::Utf8 || A.Text == B.Text);
}

/// Hashes what sameContent compares; splitmix64's finalizer spreads it
/// over the low bits the table indexes by.
uint64_t hashEntry(const CpEntry &E) {
  uint64_t H = payloadOf(E) ^ uint64_t(E.Tag) << 56;
  if (E.Tag == CpTag::Utf8)
    H ^= std::hash<std::string_view>()(E.Text);
  H = (H ^ (H >> 30)) * 0xbf58476d1ce4e5b9ULL;
  H = (H ^ (H >> 27)) * 0x94d049bb133111ebULL;
  return H ^ (H >> 31);
}

} // namespace

uint16_t ConstantPool::push(CpEntry E) {
  uint16_t Index = count();
  Entries.push_back(std::move(E));
  if (Entries.back().isWide())
    Entries.emplace_back(); // shadow slot
  return Index;
}

uint16_t ConstantPool::appendRaw(CpEntry E) {
  uint16_t Index = push(std::move(E));
  if (Entries[Index].Tag == CpTag::None)
    return Index;
  reserveSlot();
  size_t P = slotFor(Entries[Index]);
  if (Slots[P] == 0) { // else a lower, equal entry keeps the slot
    Slots[P] = Index;
    ++SlotsUsed;
  }
  return Index;
}

void ConstantPool::reserve(size_t N) {
  Entries.reserve(N);
  growTable(N);
}

size_t ConstantPool::slotFor(const CpEntry &E) const {
  size_t Mask = Slots.size() - 1;
  size_t P = hashEntry(E) & Mask;
  while (Slots[P] != 0 && !sameContent(Entries[Slots[P]], E))
    P = (P + 1) & Mask;
  return P;
}

void ConstantPool::growTable(size_t MinUsed) {
  size_t Size = std::max<size_t>(Slots.size(), 64);
  while (Size < 2 * MinUsed)
    Size *= 2;
  if (Size == Slots.size())
    return;
  std::vector<uint16_t> Old(Size, 0);
  Old.swap(Slots);
  for (uint16_t Index : Old)
    if (Index != 0)
      Slots[slotFor(Entries[Index])] = Index;
}

uint16_t ConstantPool::find(const CpEntry &E) const {
  return Slots.empty() ? 0 : Slots[slotFor(E)];
}

uint16_t ConstantPool::findUtf8(std::string_view Text) const {
  CpEntry E;
  E.Tag = CpTag::Utf8;
  E.Text = Text;
  return find(E);
}

uint16_t ConstantPool::addKeyed(CpEntry E) {
  reserveSlot(); // so the slot found stays the one to fill
  size_t P = slotFor(E);
  if (Slots[P] != 0)
    return Slots[P];
  // The caller's Text view may be transient (a temporary, a buffer the
  // pool does not own); intern the copy that the entry will keep.
  if (E.Tag == CpTag::Utf8)
    E.Text = arena().internString(E.Text);
  Slots[P] = push(std::move(E));
  ++SlotsUsed;
  return Slots[P];
}

uint16_t ConstantPool::addUtf8(std::string_view Text) {
  CpEntry E;
  E.Tag = CpTag::Utf8;
  E.Text = Text;
  // A lookup hit returns the existing entry; only a genuinely new string
  // is interned into the arena (addKeyed copies E.Text before insert).
  return addKeyed(std::move(E));
}

uint16_t ConstantPool::addInteger(int32_t Value) {
  CpEntry E;
  E.Tag = CpTag::Integer;
  E.Bits = static_cast<uint32_t>(Value);
  return addKeyed(std::move(E));
}

uint16_t ConstantPool::addFloat(uint32_t RawBits) {
  CpEntry E;
  E.Tag = CpTag::Float;
  E.Bits = RawBits;
  return addKeyed(std::move(E));
}

uint16_t ConstantPool::addLong(int64_t Value) {
  CpEntry E;
  E.Tag = CpTag::Long;
  E.Bits = static_cast<uint64_t>(Value);
  return addKeyed(std::move(E));
}

uint16_t ConstantPool::addDouble(uint64_t RawBits) {
  CpEntry E;
  E.Tag = CpTag::Double;
  E.Bits = RawBits;
  return addKeyed(std::move(E));
}

uint16_t ConstantPool::addClass(std::string_view InternalName) {
  CpEntry E;
  E.Tag = CpTag::Class;
  E.Ref1 = addUtf8(InternalName);
  return addKeyed(std::move(E));
}

uint16_t ConstantPool::addString(std::string_view Value) {
  CpEntry E;
  E.Tag = CpTag::String;
  E.Ref1 = addUtf8(Value);
  return addKeyed(std::move(E));
}

uint16_t ConstantPool::addNameAndType(std::string_view Name,
                                      std::string_view Desc) {
  CpEntry E;
  E.Tag = CpTag::NameAndType;
  E.Ref1 = addUtf8(Name);
  E.Ref2 = addUtf8(Desc);
  return addKeyed(std::move(E));
}

uint16_t ConstantPool::addRef(CpTag Kind, std::string_view ClassName,
                              std::string_view Name, std::string_view Desc) {
  assert((Kind == CpTag::FieldRef || Kind == CpTag::MethodRef ||
          Kind == CpTag::InterfaceMethodRef) &&
         "addRef takes a member-reference tag");
  CpEntry E;
  E.Tag = Kind;
  E.Ref1 = addClass(ClassName);
  E.Ref2 = addNameAndType(Name, Desc);
  return addKeyed(std::move(E));
}

std::string_view ConstantPool::utf8(uint16_t Index) const {
  const CpEntry &E = entry(Index);
  assert(E.Tag == CpTag::Utf8 && "expected a Utf8 entry");
  return E.Text;
}

std::string_view ConstantPool::className(uint16_t Index) const {
  const CpEntry &E = entry(Index);
  assert(E.Tag == CpTag::Class && "expected a Class entry");
  return utf8(E.Ref1);
}

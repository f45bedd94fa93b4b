//===- Descriptor.cpp - JVM type descriptor parsing -----------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classfile/Descriptor.h"

using namespace cjpack;

/// Parses one type starting at Desc[Pos]; advances Pos past it.
static Expected<TypeDesc> parseOne(std::string_view Desc, size_t &Pos,
                                   bool AllowVoid) {
  TypeDesc T;
  while (Pos < Desc.size() && Desc[Pos] == '[') {
    ++T.Dims;
    ++Pos;
    if (T.Dims == 0) // overflowed uint8_t: 256+ dimensions is malformed
      return Error::failure("descriptor: too many array dimensions");
  }
  if (Pos >= Desc.size())
    return Error::failure("descriptor: truncated type in '" +
                          std::string(Desc) + "'");
  char C = Desc[Pos++];
  switch (C) {
  case 'B': case 'C': case 'D': case 'F': case 'I': case 'J': case 'S':
  case 'Z':
    T.Base = C;
    return T;
  case 'V':
    if (!AllowVoid || T.Dims != 0)
      return Error::failure("descriptor: void in illegal position");
    T.Base = 'V';
    return T;
  case 'L': {
    size_t End = Desc.find(';', Pos);
    if (End == std::string_view::npos)
      return Error::failure("descriptor: unterminated class name in '" +
                            std::string(Desc) + "'");
    T.Base = 'L';
    T.ClassName = std::string(Desc.substr(Pos, End - Pos));
    if (T.ClassName.empty())
      return Error::failure("descriptor: empty class name");
    Pos = End + 1;
    return T;
  }
  default:
    return Error::failure(std::string("descriptor: bad base type '") + C +
                          "' in '" + std::string(Desc) + "'");
  }
}

Expected<TypeDesc> cjpack::parseFieldDescriptor(std::string_view Desc) {
  size_t Pos = 0;
  auto T = parseOne(Desc, Pos, /*AllowVoid=*/false);
  if (!T)
    return T;
  if (Pos != Desc.size())
    return Error::failure("descriptor: trailing characters in '" +
                          std::string(Desc) + "'");
  return T;
}

Expected<MethodDesc> cjpack::parseMethodDescriptor(std::string_view Desc) {
  if (Desc.empty() || Desc[0] != '(')
    return Error::failure("descriptor: method descriptor must start with "
                          "'(': '" +
                          std::string(Desc) + "'");
  MethodDesc M;
  size_t Pos = 1;
  while (Pos < Desc.size() && Desc[Pos] != ')') {
    auto T = parseOne(Desc, Pos, /*AllowVoid=*/false);
    if (!T)
      return T.takeError();
    M.Params.push_back(std::move(*T));
  }
  if (Pos >= Desc.size())
    return Error::failure("descriptor: missing ')' in '" + std::string(Desc) +
                          "'");
  ++Pos; // consume ')'
  auto Ret = parseOne(Desc, Pos, /*AllowVoid=*/true);
  if (!Ret)
    return Ret.takeError();
  if (Pos != Desc.size())
    return Error::failure("descriptor: trailing characters in '" +
                          std::string(Desc) + "'");
  M.Ret = std::move(*Ret);
  return M;
}

std::string cjpack::printTypeDesc(const TypeDesc &T) {
  std::string Out(T.Dims, '[');
  if (T.Base == 'L') {
    Out += 'L';
    Out += T.ClassName;
    Out += ';';
  } else {
    Out += T.Base;
  }
  return Out;
}

std::string cjpack::printMethodDesc(const MethodDesc &M) {
  std::string Out = "(";
  for (const TypeDesc &P : M.Params)
    Out += printTypeDesc(P);
  Out += ')';
  Out += printTypeDesc(M.Ret);
  return Out;
}

VType cjpack::vtypeOf(uint8_t Dims, char Base) {
  if (Dims > 0 || Base == 'L')
    return VType::Ref;
  switch (Base) {
  case 'B': case 'C': case 'S': case 'Z': case 'I':
    return VType::Int;
  case 'J':
    return VType::Long;
  case 'F':
    return VType::Float;
  case 'D':
    return VType::Double;
  case 'V':
    return VType::Void;
  default:
    return VType::Unknown;
  }
}

VType cjpack::vtypeOfFieldDescriptor(std::string_view Desc) {
  auto T = parseFieldDescriptor(Desc);
  if (!T)
    return VType::Unknown;
  return vtypeOf(*T);
}

bool cjpack::vtypesOfMethodDescriptor(std::string_view Desc,
                                      std::vector<VType> &Args, VType &Ret) {
  auto M = parseMethodDescriptor(Desc);
  if (!M)
    return false;
  Args.clear();
  for (const TypeDesc &P : M->Params)
    Args.push_back(vtypeOf(P));
  Ret = vtypeOf(M->Ret);
  return true;
}

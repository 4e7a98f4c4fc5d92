#include "base/type.h"

#include "support/parse.h"

namespace rake {

std::string
to_string(ScalarType t)
{
    switch (t) {
      case ScalarType::Int8:
        return "i8";
      case ScalarType::UInt8:
        return "u8";
      case ScalarType::Int16:
        return "i16";
      case ScalarType::UInt16:
        return "u16";
      case ScalarType::Int32:
        return "i32";
      case ScalarType::UInt32:
        return "u32";
      case ScalarType::Int64:
        return "i64";
      case ScalarType::UInt64:
        return "u64";
    }
    RAKE_UNREACHABLE("bad ScalarType");
}

ScalarType
scalar_type_from_string(const std::string &s)
{
    if (s == "i8")
        return ScalarType::Int8;
    if (s == "u8")
        return ScalarType::UInt8;
    if (s == "i16")
        return ScalarType::Int16;
    if (s == "u16")
        return ScalarType::UInt16;
    if (s == "i32")
        return ScalarType::Int32;
    if (s == "u32")
        return ScalarType::UInt32;
    if (s == "i64")
        return ScalarType::Int64;
    if (s == "u64")
        return ScalarType::UInt64;
    throw UserError("unknown scalar type mnemonic: " + s);
}

std::string
to_string(const VecType &t)
{
    if (t.is_scalar())
        return to_string(t.elem);
    return to_string(t.elem) + "x" + std::to_string(t.lanes);
}

VecType
vec_type_from_string(const std::string &s)
{
    const size_t x = s.find('x');
    if (x == std::string::npos)
        return VecType(scalar_type_from_string(s), 1);
    return VecType(scalar_type_from_string(s.substr(0, x)),
                   static_cast<int>(parse_int(s.substr(x + 1),
                                              "lane count", 1, kMaxLanes)));
}

} // namespace rake

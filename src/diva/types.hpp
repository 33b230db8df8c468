#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "support/check.hpp"

namespace diva {

/// Identifier of a global variable (a shared data object).
using VarId = std::uint64_t;
inline constexpr VarId kInvalidVar = ~0ull;

/// Injective (variable, tree node) key of the strategy-wide tables that
/// hold per-(variable, tree node) state: variable ids stay below 2^32.
inline std::uint64_t varNodeKey(VarId x, std::int32_t node) {
  DIVA_CHECK(x >> 32 == 0);
  return x << 32 | static_cast<std::uint32_t>(node);
}

/// Immutable variable value. Copies of a value at different simulated
/// nodes share one host-memory buffer; the *simulated* size is
/// `value->size()` bytes and drives all bandwidth/congestion accounting.
using Bytes = std::vector<std::byte>;
using Value = std::shared_ptr<const Bytes>;

/// A zero-filled payload of `n` simulated bytes (synthetic workload data).
inline Value makeRawValue(std::size_t n) {
  return std::make_shared<const Bytes>(n);
}

/// Wrap a trivially copyable object as a variable value.
template <typename T>
Value makeValue(const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  auto buf = std::make_shared<Bytes>(sizeof(T));
  std::memcpy(buf->data(), &v, sizeof(T));
  return buf;
}

/// Extract a trivially copyable object from a variable value.
template <typename T>
T valueAs(const Value& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  DIVA_CHECK_MSG(v && v->size() == sizeof(T), "value size mismatch");
  T out;
  std::memcpy(&out, v->data(), sizeof(T));
  return out;
}

/// Wrap a vector of trivially copyable elements as a variable value.
template <typename T>
Value makeVecValue(const std::vector<T>& vec) {
  static_assert(std::is_trivially_copyable_v<T>);
  auto buf = std::make_shared<Bytes>(vec.size() * sizeof(T));
  if (!vec.empty()) std::memcpy(buf->data(), vec.data(), buf->size());
  return buf;
}

/// Extract a vector of trivially copyable elements from a variable value.
template <typename T>
std::vector<T> valueAsVec(const Value& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  DIVA_CHECK_MSG(v && v->size() % sizeof(T) == 0, "value size mismatch");
  std::vector<T> out(v->size() / sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), v->data(), v->size());
  return out;
}

}  // namespace diva

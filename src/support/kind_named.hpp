#pragma once

#include <optional>
#include <string>

namespace diva::support {

/// The kind whose keyword is `word`: the inverse of a kind→name table
/// (faultKindName, arrivalKindName, obs::catName) over kinds numbered
/// 0..last.
template <typename Kind>
std::optional<Kind> kindNamed(const std::string& word, Kind last,
                              const char* (*name)(Kind)) {
  for (int k = 0; k <= static_cast<int>(last); ++k)
    if (word == name(static_cast<Kind>(k))) return static_cast<Kind>(k);
  return std::nullopt;
}

}  // namespace diva::support

#ifndef HEDGEQ_UTIL_INTERNER_H_
#define HEDGEQ_UTIL_INTERNER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace hedgeq {

/// Dense integer id assigned to an interned string. Ids start at 0 and are
/// stable for the lifetime of the interner.
using InternId = uint32_t;

inline constexpr InternId kInvalidInternId = UINT32_MAX;

/// Bidirectional string <-> dense-id mapping. Used for element names
/// (the alphabet Sigma), variables (X) and substitution symbols (Z).
class Interner {
 public:
  Interner() = default;

  /// Returns the id of `name`, interning it if new.
  InternId Intern(std::string_view name);

  /// Returns the id of `name` if already interned.
  std::optional<InternId> Find(std::string_view name) const;

  /// Returns the string for an id. The id must be valid.
  const std::string& NameOf(InternId id) const;

  /// Number of interned strings; valid ids are [0, size()).
  size_t size() const { return names_.size(); }

 private:
  // Hashes std::string and std::string_view alike, so lookups of a view
  // (an element name read from the input, say) build no std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, InternId, NameHash, std::equal_to<>> ids_;
};

}  // namespace hedgeq

#endif  // HEDGEQ_UTIL_INTERNER_H_

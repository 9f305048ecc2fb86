#include "util/interner.h"

#include "util/check.h"

namespace hedgeq {

InternId Interner::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  InternId id = static_cast<InternId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

std::optional<InternId> Interner::Find(std::string_view name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

const std::string& Interner::NameOf(InternId id) const {
  HEDGEQ_CHECK(id < names_.size());
  return names_[id];
}

}  // namespace hedgeq

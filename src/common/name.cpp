#include "common/name.hpp"

#include <algorithm>
#include <cassert>

namespace gcopss {

Name Name::parse(std::string_view text) {
  std::vector<std::string> comps;
  comps.reserve(static_cast<std::size_t>(
                    std::count(text.begin(), text.end(), '/')) +
                1);
  std::size_t i = 0;
  if (!text.empty() && text.front() == '/') i = 1;
  std::size_t start = i;
  bool trailingSlash = false;
  for (; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '/') {
      if (i > start) {
        comps.emplace_back(text.substr(start, i - start));
        trailingSlash = false;
      } else if (i == text.size() && i > 1 && !comps.empty()) {
        trailingSlash = true;
      }
      start = i + 1;
    }
  }
  if (trailingSlash) comps.emplace_back(kAboveComponent);
  return Name(std::move(comps));
}

bool Name::isPrefixOf(const Name& other) const {
  if (size() > other.size()) return false;
  for (std::size_t i = 0; i < size(); ++i) {
    if (components_[i] != other.components_[i]) return false;
  }
  return true;
}

Name Name::parent() const {
  assert(!empty());
  return Name(std::vector<std::string>(components_.begin(), components_.end() - 1));
}

Name Name::prefix(std::size_t n) const {
  assert(n <= size());
  return Name(std::vector<std::string>(components_.begin(),
                                       components_.begin() + static_cast<long>(n)));
}

Name Name::append(std::string_view component) const {
  std::vector<std::string> comps = components_;
  comps.emplace_back(component);
  return Name(std::move(comps));
}

Name Name::append(const Name& suffix) const {
  std::vector<std::string> comps = components_;
  comps.insert(comps.end(), suffix.components_.begin(), suffix.components_.end());
  return Name(std::move(comps));
}

std::string Name::toString() const {
  if (components_.empty()) return "/";
  std::string out;
  for (const auto& c : components_) {
    out += '/';
    out += c;
  }
  return out;
}

std::uint64_t Name::computeHash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& c : components_) {
    h = fnv1a64(c, h);
    h = fnv1a64("/", h);
  }
  return h;
}

}  // namespace gcopss

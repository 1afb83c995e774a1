// qcap-lint-test: as=src/common/strings.cc
// Clean: common/strings.cc is the one home of the number grammar, so the
// from_chars call that fails elsewhere passes here.
#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace qcap {

std::optional<uint64_t> ParseUint(std::string_view token) {
  uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace qcap

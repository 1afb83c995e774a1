// Small string/formatting helpers shared by reports, benches, and tests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace qcap {

/// Joins \p parts with \p sep.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Splits \p s on every occurrence of \p sep (empty fields preserved;
/// splitting "" yields one empty field).
std::vector<std::string> Split(const std::string& s, char sep);

/// Strips leading and trailing ASCII whitespace.
std::string Trim(const std::string& s);

/// The one number grammar: every number read from text (journal, catalog,
/// fault plan, wire protocol, command line) goes through ParseUint or
/// ParseFiniteDouble. The whole token must be one decimal number: no
/// surrounding whitespace, no '+', no hex, no overflow. Range checks
/// (> 0, <= 65535, ...) stay with the caller.

/// Parses \p token as a uint64_t (digits only; "-1" is rejected).
std::optional<uint64_t> ParseUint(std::string_view token);

/// Parses \p token as a finite double (optional '-', digits, optional
/// fraction and exponent); "inf", "nan" and "1e400" are rejected.
std::optional<double> ParseFiniteDouble(std::string_view token);

/// Formats a double with \p precision fractional digits.
std::string FormatDouble(double v, int precision = 3);

/// Formats a fraction in [0,1] as a percentage, e.g. 0.254 -> "25.4%".
std::string FormatPercent(double v, int precision = 1);

/// Formats a byte count with binary units, e.g. "1.5 MiB".
std::string FormatBytes(double bytes);

/// Left-pads \p s with spaces to at least \p width characters.
std::string PadLeft(const std::string& s, size_t width);

/// Right-pads \p s with spaces to at least \p width characters.
std::string PadRight(const std::string& s, size_t width);

/// Escapes \p s for embedding in a JSON string literal: quote, backslash,
/// and every control character (U+0000..U+001F) per RFC 8259.
std::string JsonEscape(const std::string& s);

}  // namespace qcap

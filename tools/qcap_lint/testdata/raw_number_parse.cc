// qcap-lint-test: as=src/workload/fixture.cc
// Known-bad: ad-hoc number parsing outside common/strings.cc. Each idiom
// has its own grammar (atoi("12abc") is 12, stoull("-1") wraps), so every
// number must go through ParseUint / ParseFiniteDouble instead.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace qcap {

unsigned long long Count(const std::string& s) {
  return std::stoull(s);  // expect: raw-number-parse
}

double Cost(const std::string& s) {
  size_t used = 0;
  const double a = std::stod(s, &used);  // expect: raw-number-parse
  const double b = std::atof(s.c_str()) + atoi(s.c_str());  // expect: raw-number-parse, raw-number-parse
  return a + b + std::strtod(s.c_str(), nullptr);  // expect: raw-number-parse
}

bool Pair(const char* v, double* d, double* r) {
  return std::sscanf(v, "%lf:%lf", d, r) == 2;  // expect: raw-number-parse
}

bool Index(const char* first, const char* last, unsigned* out) {
  return std::from_chars(first, last, *out).ec == std::errc();  // expect: raw-number-parse
}

// A member named like a parser is not the libc one.
struct Reader {
  int atoi(const char* s) const { return s[0]; }
};

int Member(const Reader& r) { return r.atoi("7"); }

}  // namespace qcap

#pragma once

#include <string>
#include <vector>

namespace qcap_lint {

/// Rule identifiers. The id is what appears in diagnostics
/// (`[rule-id]`) and what `// qcap-lint: allow(<rule-id>)` names.
/// The authoritative rule table (rationale + examples) is docs/LINT.md.
inline constexpr const char* kAllRules[] = {
    "nondeterministic-call",   // rand/time/random_device/clock::now outside common/random
    "unseeded-rng",            // argless std engine construction
    "unordered-container",     // std::unordered_* in deterministic modules
    "hot-path-alloc",          // new/delete/malloc/... in a hot-path region
    "hot-path-growth",         // .push_back/.resize/... in a hot-path region
    "index-in-loop",           // ClassificationIndex constructed in a loop body
    "simd-guard",              // raw SIMD intrinsics outside common/simd*
    "raw-number-parse",        // sto*/ato*/strto*/sscanf/from_chars outside common/strings.cc
    "missing-pragma-once",     // header without #pragma once
    "using-namespace-header",  // using namespace at header scope
    "mutable-global",          // mutable namespace-scope variable
    "bad-directive",           // malformed or reasonless qcap-lint comment
    // Cross-TU rules (project.h); they need the whole tree, so LintContent
    // alone never produces them.
    "guarded-field-unlocked-access",  // GUARDED_BY field touched lock-free
    "lock-order",                     // cycle in the lock acquisition graph
    "layer-violation",                // include edge not in .qcap-layers
};

struct Finding {
  std::string file;   // path as given to the linter
  int line = 0;       // 1-based
  std::string rule;   // one of kAllRules
  std::string message;
};

struct FileResult {
  std::vector<Finding> findings;    // unsuppressed — these fail the build
  std::vector<Finding> suppressed;  // matched by an allow() with a reason
};

/// Lints one file's contents. `path` is used both for diagnostics and for
/// path-dependent rules (deterministic modules, the common/random exemption,
/// header-only rules); pass the repo-relative path.
FileResult LintContent(const std::string& path, const std::string& content);

/// True if `rule` is a known rule id.
bool IsKnownRule(const std::string& rule);

/// Routes findings produced outside LintContent (the cross-TU pass) through
/// a file's suppression directives: allow-file(rule) and line allow(rule)
/// comments apply exactly as they do to per-file findings. Does NOT re-emit
/// directive-syntax errors (LintContent already reports those once).
FileResult ApplySuppressions(const std::string& path,
                             const std::string& content,
                             std::vector<Finding> raw);

}  // namespace qcap_lint

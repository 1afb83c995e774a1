#include "lint.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "token.h"

namespace qcap_lint {

namespace {

// ---------------------------------------------------------------------------
// Path predicates
// ---------------------------------------------------------------------------

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsHeaderPath(const std::string& path) {
  return EndsWith(path, ".h") || EndsWith(path, ".hpp");
}

// common/random.* is the one sanctioned home for entropy: it wraps seeding
// behind qcap::Rng, so the determinism rules do not apply inside it.
bool IsRandomModule(const std::string& path) {
  return path.find("common/random.") != std::string::npos;
}

// common/simd.h and its kernel translation units (common/simd*.cc) are the
// one sanctioned home for raw vector intrinsics: everything else must go
// through the dispatch layer so every SIMD path keeps a bit-identical
// scalar fallback and the runtime CPUID gate.
bool IsSimdModule(const std::string& path) {
  return path.find("common/simd") != std::string::npos;
}

// common/strings.cc holds the one number grammar (ParseUint,
// ParseFiniteDouble): whole token, decimal, finite. Every other file reads
// numbers through it, so a second parser cannot quietly accept "-1" or
// "12abc".
bool IsNumberModule(const std::string& path) {
  return EndsWith(path, "common/strings.cc");
}

// Modules whose results must be bit-identical across runs and thread counts.
bool IsDeterministicModule(const std::string& path) {
  for (const char* dir : {"src/alloc/", "src/model/", "src/solver/",
                          "src/cluster/"}) {
    if (path.find(dir) != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// qcap-lint directives (comments)
// ---------------------------------------------------------------------------

struct Allow {
  int line = 0;         // line of the directive comment
  std::string rule;
};

struct Region {
  int begin = 0;
  int end = 0;  // 0 while unclosed
};

struct Directives {
  std::vector<Allow> line_allows;       // allow(rule): this line or the next
  std::set<std::string> file_allows;    // allow-file(rule)
  std::vector<Region> hot_paths;        // hot-path begin/end line ranges
  std::vector<Finding> errors;          // bad-directive findings
};

std::string Strip(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

Directives ParseDirectives(const std::string& path,
                           const std::vector<Token>& tokens) {
  Directives d;
  auto bad = [&](int line, const std::string& msg) {
    d.errors.push_back({path, line, "bad-directive", msg});
  };
  for (const Token& t : tokens) {
    if (t.kind != TokenKind::kComment) continue;
    const size_t pos = t.text.find("qcap-lint:");
    if (pos == std::string::npos) continue;
    const std::string body = Strip(t.text.substr(pos + 10));
    if (body == "hot-path begin") {
      if (!d.hot_paths.empty() && d.hot_paths.back().end == 0) {
        bad(t.line, "'hot-path begin' while a hot-path region is already open");
        continue;
      }
      d.hot_paths.push_back({t.line, 0});
      continue;
    }
    if (body == "hot-path end") {
      if (d.hot_paths.empty() || d.hot_paths.back().end != 0) {
        bad(t.line, "'hot-path end' without a matching 'hot-path begin'");
        continue;
      }
      d.hot_paths.back().end = t.line;
      continue;
    }
    const bool is_file = body.rfind("allow-file(", 0) == 0;
    const bool is_line = body.rfind("allow(", 0) == 0;
    if (is_file || is_line) {
      const size_t open = body.find('(');
      const size_t close = body.find(')', open);
      if (close == std::string::npos) {
        bad(t.line, "unterminated allow(...) directive");
        continue;
      }
      const std::string rule = Strip(body.substr(open + 1, close - open - 1));
      if (!IsKnownRule(rule)) {
        bad(t.line, "allow() names unknown rule '" + rule + "'");
        continue;
      }
      if (rule == "bad-directive") {
        bad(t.line, "rule 'bad-directive' cannot be suppressed");
        continue;
      }
      const std::string rest = Strip(body.substr(close + 1));
      if (rest.rfind("--", 0) != 0 || Strip(rest.substr(2)).empty()) {
        bad(t.line, "suppression of '" + rule +
                        "' is missing a reason (expected 'allow(" + rule +
                        ") -- <reason>')");
        continue;
      }
      if (is_file) {
        d.file_allows.insert(rule);
      } else {
        d.line_allows.push_back({t.line, rule});
      }
      continue;
    }
    bad(t.line, "unrecognized qcap-lint directive '" + body + "'");
  }
  if (!d.hot_paths.empty() && d.hot_paths.back().end == 0) {
    bad(d.hot_paths.back().begin, "'hot-path begin' is never closed");
    d.hot_paths.pop_back();
  }
  return d;
}

// ---------------------------------------------------------------------------
// Rule scanning
// ---------------------------------------------------------------------------

bool InSet(const std::string& s, std::initializer_list<const char*> set) {
  for (const char* v : set) {
    if (s == v) return true;
  }
  return false;
}

class Scanner {
 public:
  Scanner(const std::string& path, const std::vector<Token>& all,
          const Directives& directives, std::vector<Finding>* out)
      : path_(path), directives_(directives), out_(out) {
    for (const Token& t : all) {
      if (t.kind == TokenKind::kComment) continue;
      if (t.kind == TokenKind::kPreprocessor) {
        preprocessor_.push_back(t);
        continue;
      }
      code_.push_back(t);
    }
  }

  void Run() {
    const bool header = IsHeaderPath(path_);
    if (header) CheckPragmaOnce();
    const bool random_module = IsRandomModule(path_);
    const bool deterministic = IsDeterministicModule(path_);
    const bool simd_module = IsSimdModule(path_);
    const bool number_module = IsNumberModule(path_);
    if (deterministic) {
      for (const Token& t : preprocessor_) {
        if (t.text.find("#include") == 0 &&
            t.text.find("unordered_") != std::string::npos) {
          Report(t.line, "unordered-container",
                 "deterministic module includes a std::unordered_* header");
        }
      }
    }
    if (!simd_module) {
      for (const Token& t : preprocessor_) {
        if (t.text.find("#include") != 0) continue;
        for (const char* hdr :
             {"immintrin.h", "x86intrin.h", "emmintrin.h", "xmmintrin.h",
              "smmintrin.h", "tmmintrin.h", "pmmintrin.h", "nmmintrin.h",
              "wmmintrin.h", "avxintrin.h", "avx2intrin.h", "arm_neon.h"}) {
          if (t.text.find(hdr) != std::string::npos) {
            Report(t.line, "simd-guard",
                   std::string("intrinsics header <") + hdr +
                       "> included outside common/simd*; add the kernel to "
                       "the simd dispatch layer (with its bit-identical "
                       "scalar fallback) instead");
          }
        }
      }
    }
    for (size_t i = 0; i < code_.size(); ++i) {
      const Token& t = code_[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (!random_module) {
        CheckNondeterministicCall(i);
        CheckUnseededRng(i);
      }
      if (deterministic) CheckUnorderedContainer(i);
      if (!simd_module) CheckSimdGuard(i);
      if (!number_module) CheckRawNumberParse(i);
      if (InHotPath(t.line)) CheckHotPath(i);
      if (header && t.text == "using" && Next(i) == "namespace") {
        Report(t.line, "using-namespace-header",
               "'using namespace' in a header leaks into every includer");
      }
    }
    CheckIndexInLoop();
    CheckMutableGlobals();
  }

 private:
  std::string Prev(size_t i) const { return i == 0 ? "" : code_[i - 1].text; }
  std::string Next(size_t i) const {
    return i + 1 < code_.size() ? code_[i + 1].text : "";
  }
  std::string Next2(size_t i) const {
    return i + 2 < code_.size() ? code_[i + 2].text : "";
  }

  bool InHotPath(int line) const {
    for (const Region& r : directives_.hot_paths) {
      if (line > r.begin && line < r.end) return true;
    }
    return false;
  }

  void Report(int line, const std::string& rule, const std::string& message) {
    out_->push_back({path_, line, rule, message});
  }

  // `RandomAllocator random(99);` declares a variable named `random`; a
  // preceding identifier that is not a statement keyword marks a
  // declaration, not a call.
  bool IsDeclaredName(size_t i) const {
    return i > 0 && code_[i - 1].kind == TokenKind::kIdentifier &&
           !InSet(Prev(i), {"return", "co_return", "co_yield", "case", "else",
                            "do", "throw"});
  }

  void CheckPragmaOnce() {
    for (const Token& t : preprocessor_) {
      if (t.text.find("#pragma") == 0 &&
          t.text.find("once") != std::string::npos) {
        return;
      }
    }
    Report(1, "missing-pragma-once", "header is missing '#pragma once'");
  }

  void CheckNondeterministicCall(size_t i) {
    const std::string& name = code_[i].text;
    const std::string prev = Prev(i);
    const std::string next = Next(i);
    const bool member = prev == "." || prev == "->";
    const bool declaration = IsDeclaredName(i);
    auto flag = [&](const std::string& what) {
      Report(code_[i].line, "nondeterministic-call",
             what + " breaks run-to-run determinism; draw from qcap::Rng "
                    "(common/random.h) instead");
    };
    if (!member && !declaration && next == "(" &&
        InSet(name, {"rand", "srand", "random", "drand48", "lrand48",
                     "srand48"})) {
      flag(name + "()");
      return;
    }
    if (name == "random_device") {
      flag("std::random_device");
      return;
    }
    if (name == "now" && prev == "::" && next == "(") {
      flag("clock ::now()");
      return;
    }
    if (!member && next == "(" &&
        InSet(name, {"gettimeofday", "clock_gettime"})) {
      flag(name + "()");
      return;
    }
    // time()/clock(): only the no-argument / time(nullptr) libc idioms, so
    // declarations and members named `time` do not trip the rule.
    if (name == "time" && next == "(" && !member &&
        (prev == "::" || InSet(Next2(i), {"nullptr", "NULL", "0"}))) {
      flag("time()");
      return;
    }
    if (name == "clock" && next == "(" && !member &&
        (prev == "::" || Next2(i) == ")")) {
      flag("clock()");
    }
  }

  void CheckUnseededRng(size_t i) {
    static const std::set<std::string> kEngines = {
        "mt19937",      "mt19937_64", "minstd_rand", "minstd_rand0",
        "ranlux24",     "ranlux48",   "knuth_b",     "default_random_engine",
        "ranlux24_base", "ranlux48_base"};
    if (kEngines.count(code_[i].text) == 0) return;
    const std::string next = Next(i);
    auto flag = [&] {
      Report(code_[i].line, "unseeded-rng",
             "std::" + code_[i].text +
                 " constructed without an explicit seed; derive the seed "
                 "from the run's {seed, island_id} via qcap::Rng");
    };
    // `std::mt19937 rng;` or `std::mt19937 rng{};`
    if (i + 2 < code_.size() && code_[i + 1].kind == TokenKind::kIdentifier) {
      const std::string after = Next2(i);
      if (after == ";") {
        flag();
        return;
      }
      if ((after == "{" || after == "(") && i + 3 < code_.size()) {
        const std::string closer = after == "{" ? "}" : ")";
        if (code_[i + 3].text == closer) flag();
      }
      return;
    }
    // Temporary: `std::mt19937()` / `std::mt19937{}`.
    if ((next == "(" && Next2(i) == ")") || (next == "{" && Next2(i) == "}")) {
      flag();
    }
  }

  // Raw vector intrinsics and types outside the sanctioned simd modules.
  // Catches the x86 families (_mm*/__m128/__m256/__m512, __builtin_ia32_*)
  // and NEON (v*q_ prefixes are too noisy; the header include plus the
  // float32x4_t-style types cover real uses).
  void CheckSimdGuard(size_t i) {
    const std::string& name = code_[i].text;
    const bool intrinsic_call =
        name.rfind("_mm_", 0) == 0 || name.rfind("_mm256_", 0) == 0 ||
        name.rfind("_mm512_", 0) == 0 || name.rfind("__builtin_ia32_", 0) == 0;
    const bool vector_type = name.rfind("__m128", 0) == 0 ||
                             name.rfind("__m256", 0) == 0 ||
                             name.rfind("__m512", 0) == 0 ||
                             (name.find("x4_t") != std::string::npos &&
                              name.rfind("float", 0) == 0);
    if (!intrinsic_call && !vector_type) return;
    Report(code_[i].line, "simd-guard",
           "raw SIMD " + std::string(intrinsic_call ? "intrinsic '" : "type '") +
               name +
               "' outside common/simd*; route it through the dispatch layer "
               "so the scalar fallback and CPUID gate stay in one place");
  }

  // Text-to-number conversions outside common/strings.cc: the std::sto*,
  // ato*, strto* and sscanf families and std::from_chars.
  void CheckRawNumberParse(size_t i) {
    const std::string& name = code_[i].text;
    const std::string prev = Prev(i);
    if (Next(i) != "(" || prev == "." || prev == "->" || IsDeclaredName(i)) {
      return;
    }
    if (!InSet(name, {"stoi", "stol", "stoll", "stoul", "stoull", "stof",
                      "stod", "stold", "atoi", "atol", "atoll", "atof",
                      "strtol", "strtoll", "strtoul", "strtoull", "strtof",
                      "strtod", "strtold", "strtoimax", "strtoumax", "sscanf",
                      "from_chars"})) {
      return;
    }
    Report(code_[i].line, "raw-number-parse",
           name + "() parses a number outside common/strings.cc; use "
                  "ParseUint or ParseFiniteDouble (common/strings.h) so "
                  "every number is a whole, decimal, finite token");
  }

  void CheckUnorderedContainer(size_t i) {
    if (!InSet(code_[i].text, {"unordered_map", "unordered_set",
                               "unordered_multimap", "unordered_multiset"})) {
      return;
    }
    Report(code_[i].line, "unordered-container",
           "std::" + code_[i].text +
               " has nondeterministic iteration order; deterministic modules "
               "must use std::map/std::set (or annotate why order is never "
               "observed)");
  }

  void CheckHotPath(size_t i) {
    const std::string& name = code_[i].text;
    const std::string prev = Prev(i);
    const std::string next = Next(i);
    if (name == "new") {
      Report(code_[i].line, "hot-path-alloc",
             "'new' inside a hot-path region; preallocate scratch outside "
             "the region");
      return;
    }
    if (name == "delete" && prev != "=") {  // `= delete;` is not a deallocation
      Report(code_[i].line, "hot-path-alloc",
             "'delete' inside a hot-path region");
      return;
    }
    if (next == "(" &&
        InSet(name, {"malloc", "calloc", "realloc", "free", "strdup"})) {
      Report(code_[i].line, "hot-path-alloc",
             name + "() allocates inside a hot-path region");
      return;
    }
    if ((next == "(" || next == "<") &&
        InSet(name, {"make_unique", "make_shared"})) {
      Report(code_[i].line, "hot-path-alloc",
             name + "() allocates inside a hot-path region");
      return;
    }
    if ((prev == "." || prev == "->") && next == "(" &&
        InSet(name, {"push_back", "emplace_back", "emplace", "emplace_front",
                     "push_front", "insert", "resize", "reserve", "append"})) {
      Report(code_[i].line, "hot-path-growth",
             "." + name + "() may reallocate inside a hot-path region; reuse "
                          "steady-state capacity or annotate why it cannot "
                          "grow here");
    }
  }

  // ClassificationIndex construction inside any loop body. The index is
  // "build once per allocator call" by convention (CHANGES.md, PR 3);
  // rebuilding it per iteration silently reintroduces the O(U^2) setup cost.
  void CheckIndexInLoop() {
    struct Brace {
      bool is_loop;
    };
    std::vector<Brace> braces;
    int paren_depth = 0;
    // A loop header we have seen whose body has not started yet:
    // 0 = none, 1 = awaiting '(' (for/while), 2 = inside header parens,
    // 3 = awaiting body ('{' or statement), 4 = unbraced body until ';'.
    int pending = 0;
    int pending_paren_base = 0;
    int unbraced_loops = 0;
    auto in_loop = [&] {
      if (unbraced_loops > 0) return true;
      for (const Brace& b : braces) {
        if (b.is_loop) return true;
      }
      return false;
    };
    for (size_t i = 0; i < code_.size(); ++i) {
      const Token& t = code_[i];
      // A loop header just closed and this token is not '{' or ';': the
      // body is a single unbraced statement starting here, so this very
      // token is already inside the loop.
      if (pending == 3 &&
          !(t.kind == TokenKind::kPunct && (t.text == "{" || t.text == ";"))) {
        pending = 0;
        ++unbraced_loops;
      }
      if (t.kind == TokenKind::kIdentifier) {
        if (t.text == "for" || t.text == "while") {
          pending = 1;
          pending_paren_base = paren_depth;
        } else if (t.text == "do") {
          pending = 3;
        } else if (t.text == "ClassificationIndex" && in_loop()) {
          const std::string next = Next(i);
          const bool construction =
              next == "(" || next == "{" ||
              (i + 1 < code_.size() &&
               code_[i + 1].kind == TokenKind::kIdentifier &&
               InSet(Next2(i), {"(", "{", ";", "="}));
          if (construction) {
            Report(t.line, "index-in-loop",
                   "ClassificationIndex constructed inside a loop body; build "
                   "it once per allocator call and pass it through");
          }
        }
        continue;
      }
      if (t.kind != TokenKind::kPunct) continue;
      if (t.text == "(") {
        ++paren_depth;
        if (pending == 1) pending = 2;
      } else if (t.text == ")") {
        --paren_depth;
        if (pending == 2 && paren_depth == pending_paren_base) pending = 3;
      } else if (t.text == "{") {
        braces.push_back({pending == 3});
        pending = 0;
      } else if (t.text == "}") {
        if (!braces.empty()) braces.pop_back();
      } else if (t.text == ";") {
        // `do ... while(cond);` / `for (...);` empty body ends here.
        if (pending == 3) pending = 0;
        // Statement semicolons at depth 0 close one unbraced body;
        // semicolons inside a for-header (depth > 0) do not.
        if (unbraced_loops > 0 && paren_depth == 0) --unbraced_loops;
      }
    }
  }

  // Mutable namespace-scope variables. Token-level heuristic: at namespace
  // scope, a statement with an `=` initializer (or a plain `Type name;`
  // object definition) that is not const/constexpr and not a function or
  // type declaration is a mutable global.
  void CheckMutableGlobals() {
    size_t i = 0;
    std::vector<bool> scope_is_namespace;  // one entry per open brace
    auto at_namespace_scope = [&] {
      for (bool ns : scope_is_namespace) {
        if (!ns) return false;
      }
      return true;
    };
    std::vector<const Token*> stmt;
    bool stmt_has_eq = false;
    // Structural punctuation only: a string literal whose text is "{" (as in
    // the JSON writers' `out += "{";`) must not perturb brace tracking.
    auto is_punct = [&](const Token& t, const char* text) {
      return t.kind == TokenKind::kPunct && t.text == text;
    };
    auto skip_balanced = [&](const char* open, const char* close) {
      int depth = 0;
      for (; i < code_.size(); ++i) {
        if (is_punct(code_[i], open)) ++depth;
        if (is_punct(code_[i], close) && --depth == 0) {
          ++i;
          return;
        }
      }
    };
    auto analyze = [&] {
      if (stmt.size() < 2) return;
      bool skip = false;
      bool has_eq = false;
      bool has_paren = false;
      for (const Token* t : stmt) {
        if (t->kind == TokenKind::kIdentifier &&
            InSet(t->text,
                  {"using", "typedef", "template", "static_assert", "friend",
                   "extern", "namespace", "operator", "struct", "class",
                   "enum", "union", "concept", "requires", "asm", "const",
                   "constexpr", "constinit", "consteval"})) {
          skip = true;
          break;
        }
        if (t->kind == TokenKind::kPunct && t->text == "=") has_eq = true;
        if (t->kind == TokenKind::kPunct && t->text == "(") has_paren = true;
      }
      if (skip || has_paren) return;
      const Token& last = *stmt.back();
      const bool object_decl =
          has_eq || last.kind == TokenKind::kIdentifier || last.text == "]";
      if (!object_decl) return;
      if (stmt.front()->kind != TokenKind::kIdentifier) return;
      Report(stmt.front()->line, "mutable-global",
             "mutable namespace-scope variable '" +
                 (last.kind == TokenKind::kIdentifier ? last.text
                                                      : std::string("?")) +
                 "'; make it const/constexpr, function-local static, or "
                 "annotate why shared mutable state is required");
    };
    while (i < code_.size()) {
      const Token& t = code_[i];
      if (is_punct(t, "}")) {
        if (!scope_is_namespace.empty()) scope_is_namespace.pop_back();
        stmt.clear();
        stmt_has_eq = false;
        ++i;
        continue;
      }
      if (is_punct(t, ";")) {
        if (at_namespace_scope()) analyze();
        stmt.clear();
        stmt_has_eq = false;
        ++i;
        continue;
      }
      if (is_punct(t, "{")) {
        if (stmt_has_eq) {
          // Brace initializer of the statement under analysis: consume it and
          // keep collecting (`int g_arr[] = {1, 2};`).
          skip_balanced("{", "}");
          continue;
        }
        bool is_namespace = false;
        bool is_type = false;
        for (const Token* s : stmt) {
          if (s->text == "namespace") is_namespace = true;
          if (InSet(s->text, {"struct", "class", "enum", "union"})) {
            is_type = true;
          }
          if (s->text == "extern") is_namespace = true;  // extern "C" { ... }
        }
        if (is_namespace && !is_type) {
          scope_is_namespace.push_back(true);
          ++i;
        } else if (at_namespace_scope()) {
          // Function body, class body, initializer we are not tracking:
          // skip the block wholesale. A type definition is followed by `;`
          // (possibly with a declarator we conservatively ignore).
          skip_balanced("{", "}");
        } else {
          scope_is_namespace.push_back(false);
          ++i;
        }
        stmt.clear();
        stmt_has_eq = false;
        continue;
      }
      if (at_namespace_scope()) {
        stmt.push_back(&t);
        if (is_punct(t, "=")) stmt_has_eq = true;
        if (is_punct(t, "(")) {
          // Parenthesized declarator/decl: consume so commas and semicolons
          // inside default arguments do not end the statement early. The
          // '(' itself is already in stmt, marking this as a declaration
          // with parameters.
          skip_balanced("(", ")");
          continue;
        }
      }
      ++i;
    }
  }

  const std::string path_;
  const Directives& directives_;
  std::vector<Token> code_;
  std::vector<Token> preprocessor_;
  std::vector<Finding>* out_;
};

}  // namespace

bool IsKnownRule(const std::string& rule) {
  for (const char* r : kAllRules) {
    if (rule == r) return true;
  }
  return false;
}

namespace {

// Splits raw findings into (kept, suppressed) per the file's directives.
FileResult Filter(const Directives& directives, std::vector<Finding> raw) {
  FileResult result;
  for (Finding& f : raw) {
    bool allowed = directives.file_allows.count(f.rule) > 0;
    if (!allowed) {
      for (const Allow& a : directives.line_allows) {
        if (a.rule == f.rule && (f.line == a.line || f.line == a.line + 1)) {
          allowed = true;
          break;
        }
      }
    }
    (allowed ? result.suppressed : result.findings).push_back(std::move(f));
  }
  return result;
}

}  // namespace

FileResult LintContent(const std::string& path, const std::string& content) {
  const std::vector<Token> tokens = Lex(content);
  const Directives directives = ParseDirectives(path, tokens);

  std::vector<Finding> raw;
  Scanner(path, tokens, directives, &raw).Run();

  FileResult result = Filter(directives, std::move(raw));
  for (const Finding& e : directives.errors) result.findings.push_back(e);
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return a.line != b.line ? a.line < b.line : a.rule < b.rule;
            });
  return result;
}

FileResult ApplySuppressions(const std::string& path,
                             const std::string& content,
                             std::vector<Finding> raw) {
  const std::vector<Token> tokens = Lex(content);
  return Filter(ParseDirectives(path, tokens), std::move(raw));
}

}  // namespace qcap_lint

// Fixture-driven self-tests for qcap_lint.
//
// Every file in testdata/ is linted under the virtual path given by its
// `// qcap-lint-test: as=<path>` header (path-dependent rules need to see
// src/alloc/..., not testdata/...). Expected findings are encoded inline:
//   <bad code>  // expect: <rule-id>
// means "exactly one unsuppressed finding with that rule on this line", and
//   // expect-file: <rule-id>
// means "one finding with that rule anywhere in the fixture". The harness
// fails on missing AND on unexpected findings, so the fixtures pin both
// positive and negative behavior.
//
// Cross-TU fixtures: a fixture can hold several virtual files —
//   // qcap-lint-test: file=<path>
// starts a new file (lines below it count from 1 in that file) — and a
// layering DAG for the layer-violation rule:
//   // qcap-lint-test: layer <module>: <dep>...
// Each fixture is linted as its own little project: LintContent per file
// plus one LintProject over all of them.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "lint.h"
#include "project.h"
#include "token.h"

namespace qcap_lint {
namespace {

namespace fs = std::filesystem;

struct Section {
  std::string path;     // virtual path the linter sees
  std::string content;  // lines of this virtual file
};

struct Fixture {
  std::string file;  // on-disk name, for messages
  std::vector<Section> sections;  // [0] is the primary (as=) file
  std::string layer_text;         // accumulated `layer` directive lines
  // (virtual path, line within that file, rule)
  std::multiset<std::tuple<std::string, int, std::string>> expected;
  std::multiset<std::string> expected_anywhere;  // expect-file rules
};

std::string TestdataDir() { return QCAP_LINT_TESTDATA; }

std::string TrimTail(std::string s) {
  while (!s.empty() && (s.back() == ' ' || s.back() == '\r')) s.pop_back();
  return s;
}

std::vector<Fixture> LoadFixtures() {
  std::vector<Fixture> fixtures;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(TestdataDir())) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& p : paths) {
    Fixture fx;
    fx.file = p.filename().string();
    fx.sections.push_back({});
    std::ifstream in(p);
    std::ostringstream buf;
    buf << in.rdbuf();

    std::istringstream lines(buf.str());
    std::string line;
    int lineno = 0;  // within the current section
    while (std::getline(lines, line)) {
      const size_t as = line.find("qcap-lint-test: as=");
      if (as != std::string::npos) {
        fx.sections.front().path = TrimTail(line.substr(as + 19));
      }
      const size_t file_start = line.find("qcap-lint-test: file=");
      if (file_start != std::string::npos) {
        fx.sections.push_back({TrimTail(line.substr(file_start + 21)), ""});
        lineno = 0;  // the marker line belongs to no section
        continue;
      }
      const size_t layer = line.find("qcap-lint-test: layer ");
      if (layer != std::string::npos) {
        fx.layer_text += TrimTail(line.substr(layer + 22)) + "\n";
      }
      fx.sections.back().content += line + "\n";
      ++lineno;

      auto parse_rules = [&](size_t pos, auto&& add) {
        std::string rest = line.substr(pos);
        std::istringstream split(rest);
        std::string rule;
        while (std::getline(split, rule, ',')) {
          const size_t b = rule.find_first_not_of(" \t");
          const size_t e = rule.find_last_not_of(" \t\r");
          if (b != std::string::npos) add(rule.substr(b, e - b + 1));
        }
      };
      const size_t file_marker = line.find("// expect-file: ");
      if (file_marker != std::string::npos) {
        parse_rules(file_marker + 16,
                    [&](std::string r) { fx.expected_anywhere.insert(r); });
        continue;
      }
      const size_t marker = line.find("// expect: ");
      if (marker != std::string::npos) {
        parse_rules(marker + 11, [&](std::string r) {
          fx.expected.insert({fx.sections.back().path, lineno, r});
        });
      }
    }
    EXPECT_FALSE(fx.sections.front().path.empty())
        << fx.file << ": missing '// qcap-lint-test: as=<path>' header";
    fixtures.push_back(std::move(fx));
  }
  return fixtures;
}

// All unsuppressed findings for one fixture: the per-file pass on every
// virtual file plus one cross-TU pass over the whole set.
std::vector<Finding> LintFixture(const Fixture& fx) {
  std::vector<Finding> findings;
  std::vector<ProjectFile> project;
  for (const Section& s : fx.sections) {
    for (Finding& f : LintContent(s.path, s.content).findings) {
      findings.push_back(std::move(f));
    }
    project.push_back({s.path, s.content});
  }
  LayerConfig config;
  if (!fx.layer_text.empty()) {
    config = ParseLayerConfig("fixture-layers", fx.layer_text);
  }
  for (Finding& f : LintProject(project, config).findings) {
    findings.push_back(std::move(f));
  }
  return findings;
}

TEST(QcapLintFixtures, EveryFixtureMatchesItsExpectations) {
  const std::vector<Fixture> fixtures = LoadFixtures();
  ASSERT_GE(fixtures.size(), 24u) << "fixture corpus shrank";
  for (const Fixture& fx : fixtures) {
    SCOPED_TRACE(fx.file);
    auto expected = fx.expected;
    auto anywhere = fx.expected_anywhere;
    for (const Finding& f : LintFixture(fx)) {
      auto it = expected.find({f.file, f.line, f.rule});
      if (it != expected.end()) {
        expected.erase(it);
        continue;
      }
      auto any = anywhere.find(f.rule);
      if (any != anywhere.end()) {
        anywhere.erase(any);
        continue;
      }
      ADD_FAILURE() << fx.file << ": " << f.file << ":" << f.line
                    << ": unexpected finding [" << f.rule << "] " << f.message;
    }
    for (const auto& [path, line, rule] : expected) {
      ADD_FAILURE() << fx.file << ": " << path << ":" << line
                    << ": expected finding [" << rule
                    << "] was not produced";
    }
    for (const std::string& rule : anywhere) {
      ADD_FAILURE() << fx.file << ": expected file-level finding [" << rule
                    << "] was not produced";
    }
  }
}

TEST(QcapLintFixtures, CorpusCoversEveryRule) {
  std::set<std::string> covered;
  for (const Fixture& fx : LoadFixtures()) {
    for (const auto& [path, line, rule] : fx.expected) covered.insert(rule);
    for (const std::string& rule : fx.expected_anywhere) covered.insert(rule);
  }
  for (const char* rule : kAllRules) {
    EXPECT_TRUE(covered.count(rule))
        << "no fixture exercises rule [" << rule << "]";
  }
}

TEST(QcapLintFixtures, EachCrossTuRuleHasThreeFiringFixtures) {
  std::map<std::string, std::set<std::string>> firing;  // rule -> fixtures
  for (const Fixture& fx : LoadFixtures()) {
    for (const auto& [path, line, rule] : fx.expected) {
      firing[rule].insert(fx.file);
    }
    for (const std::string& rule : fx.expected_anywhere) {
      firing[rule].insert(fx.file);
    }
  }
  for (const char* rule : {"guarded-field-unlocked-access", "lock-order",
                           "layer-violation"}) {
    EXPECT_GE(firing[rule].size(), 3u)
        << "rule [" << rule << "] needs >= 3 firing fixtures";
  }
}

TEST(QcapLintSuppressions, TrailingAllowSuppressesSameLine) {
  const std::string code =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> MakeMap();  "
      "// qcap-lint: allow(unordered-container) -- lookup only\n";
  const FileResult r = LintContent("src/alloc/x.cc", code);
  // Line 1 (the include) is unsuppressed; line 2 is suppressed.
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].line, 1);
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].line, 2);
  EXPECT_EQ(r.suppressed[0].rule, "unordered-container");
}

TEST(QcapLintSuppressions, AllowFileSuppressesWholeFile) {
  const std::string code =
      "// qcap-lint: allow-file(nondeterministic-call) -- wall-clock bench\n"
      "#include <chrono>\n"
      "double Now() {\n"
      "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
      "}\n";
  const FileResult r = LintContent("src/cluster/x.cc", code);
  EXPECT_TRUE(r.findings.empty());
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "nondeterministic-call");
}

TEST(QcapLintRegions, HotPathRulesStopAtEnd) {
  const std::string code =
      "#include <vector>\n"
      "void F(std::vector<int>* v) {\n"
      "  // qcap-lint: hot-path begin\n"
      "  v->push_back(1);\n"
      "  // qcap-lint: hot-path end\n"
      "  v->push_back(2);\n"
      "}\n";
  const FileResult r = LintContent("src/alloc/x.cc", code);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].line, 4);
  EXPECT_EQ(r.findings[0].rule, "hot-path-growth");
}

TEST(QcapLintLexer, LiteralsAndCommentsDoNotLeakIntoCode) {
  // "rand(" in a string, a char, and a comment must not trip any rule.
  const std::string code =
      "const char* kDoc = \"call rand() here\";\n"
      "// rand() in a comment\n"
      "/* time(nullptr) in a block comment */\n"
      "const char c = '\\\\';\n";
  const FileResult r = LintContent("src/model/x.cc", code);
  EXPECT_TRUE(r.findings.empty()) << r.findings[0].message;
}

TEST(QcapLintLexer, RawStringsAreOpaque) {
  const std::string code =
      "const char* kJson = R\"(rand() and time(nullptr) and new int)\";\n";
  const FileResult r = LintContent("src/model/x.cc", code);
  EXPECT_TRUE(r.findings.empty());
}

TEST(QcapLintLexer, LineNumbersSurviveMultilineConstructs) {
  const std::vector<Token> tokens = Lex("/* a\nb\nc */\nint x;\n");
  ASSERT_EQ(tokens.size(), 4u);  // comment, int, x, ;
  EXPECT_EQ(tokens[0].kind, TokenKind::kComment);
  EXPECT_EQ(tokens[1].text, "int");
  EXPECT_EQ(tokens[1].line, 4);
}

TEST(QcapLintRandomModule, RngWrapperIsExempt) {
  const std::string code =
      "#include <random>\n"
      "namespace qcap {\n"
      "unsigned SeedFromEntropy() { return std::random_device{}(); }\n"
      "}\n";
  EXPECT_TRUE(LintContent("src/common/random.cc", code).findings.empty());
  EXPECT_FALSE(LintContent("src/common/strings.cc", code).findings.empty());
}

// The committed .qcap-layers, loaded the same way the CLI loads it.
LayerConfig RepoLayers() {
  const fs::path repo_root =
      fs::path(TestdataDir()).parent_path().parent_path().parent_path();
  const fs::path p = repo_root / ".qcap-layers";
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << p;
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseLayerConfig(p.string(), buf.str());
}

// Acceptance pin: an alloc -> net include must fail the lint against the
// real committed layering DAG, not just against a synthetic one.
TEST(QcapLintSeeded, AllocIncludingNetViolatesCommittedLayers) {
  const std::vector<ProjectFile> project = {
      {"src/alloc/evil.cc",
       "#include \"alloc/memetic.h\"\n#include \"net/frame.h\"\n"}};
  const ProjectResult r = LintProject(project, RepoLayers());
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "layer-violation");
  EXPECT_EQ(r.findings[0].line, 2);
}

// Acceptance pin: dropping the lock around a GUARDED_BY field is caught
// even when the annotation (header) and the access (.cc) are separate TUs.
TEST(QcapLintSeeded, GuardedFieldMissAcrossTusIsCaught) {
  const std::vector<ProjectFile> project = {
      {"src/net/thing.h",
       "#pragma once\n"
       "#include \"common/annotations.h\"\n"
       "class Thing {\n"
       " public:\n"
       "  int Get() const;\n"
       " private:\n"
       "  mutable Mutex lock_;\n"
       "  int value_ QCAP_GUARDED_BY(lock_) = 0;\n"
       "};\n"},
      {"src/net/thing.cc",
       "#include \"net/thing.h\"\n"
       "int Thing::Get() const { return value_; }\n"}};
  const ProjectResult r = LintProject(project, LayerConfig{});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "guarded-field-unlocked-access");
  EXPECT_EQ(r.findings[0].file, "src/net/thing.cc");
  EXPECT_EQ(r.findings[0].line, 2);
}

// Taking the lock (or declaring QCAP_REQUIRES) silences the rule — the
// negative half of the seeded pin above.
TEST(QcapLintSeeded, LockedAndRequiredAccessesAreClean) {
  const std::vector<ProjectFile> project = {
      {"src/net/thing.h",
       "#pragma once\n"
       "#include \"common/annotations.h\"\n"
       "class Thing {\n"
       " public:\n"
       "  int Get() const;\n"
       "  int GetLocked() const QCAP_REQUIRES(lock_);\n"
       " private:\n"
       "  mutable Mutex lock_;\n"
       "  int value_ QCAP_GUARDED_BY(lock_) = 0;\n"
       "};\n"},
      {"src/net/thing.cc",
       "#include \"net/thing.h\"\n"
       "int Thing::Get() const {\n"
       "  MutexLock guard(lock_);\n"
       "  return value_;\n"
       "}\n"
       "int Thing::GetLocked() const { return value_; }\n"}};
  const ProjectResult r = LintProject(project, LayerConfig{});
  EXPECT_TRUE(r.findings.empty())
      << r.findings[0].file << ":" << r.findings[0].line << ": "
      << r.findings[0].message;
}

}  // namespace
}  // namespace qcap_lint

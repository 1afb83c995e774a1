// qcap_lint — QCAP's determinism-and-convention static analyzer.
//
//   qcap_lint [--format=gcc|json] [--list-rules] <path>...
//
// Walks the given files/directories (*.h, *.hpp, *.cc, *.cpp) and enforces
// the project rules documented in docs/LINT.md. Exit code 0 means no
// unsuppressed findings; 1 means findings; 2 means usage or I/O error.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "lint.h"
#include "project.h"

namespace qcap_lint {
namespace {

namespace fs = std::filesystem;

bool LintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

// Directories that hold generated or deliberately-bad code.
bool SkippedDirectory(const std::string& name) {
  if (name.empty() || name[0] == '.') return true;
  return name == "CMakeFiles" || name == "testdata" ||
         name.rfind("build", 0) == 0;
}

void CollectFiles(const fs::path& root, std::vector<std::string>* out) {
  if (fs::is_regular_file(root)) {
    if (LintableExtension(root)) out->push_back(root.string());
    return;
  }
  for (auto it = fs::recursive_directory_iterator(root);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_directory()) {
      if (SkippedDirectory(it->path().filename().string())) {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (it->is_regular_file() && LintableExtension(it->path())) {
      out->push_back(it->path().string());
    }
  }
}

// Finds the `.qcap-layers` module DAG governing the linted roots by walking
// up from the first root (so `qcap_lint src tests` run from the repo root —
// or `qcap_lint /abs/repo/src` from anywhere — finds the repo's config).
// Returns an unloaded config when none exists, which disables layer checks.
LayerConfig FindLayerConfig(const std::vector<std::string>& roots) {
  fs::path dir = fs::absolute(roots.front());
  if (fs::is_regular_file(dir)) dir = dir.parent_path();
  for (; !dir.empty(); dir = dir.parent_path()) {
    const fs::path candidate = dir / ".qcap-layers";
    if (fs::is_regular_file(candidate)) {
      std::ifstream in(candidate, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      return ParseLayerConfig(candidate.string(), buf.str());
    }
    if (dir == dir.root_path()) break;
  }
  return LayerConfig{};
}

int Run(int argc, char** argv) {
  std::string format = "gcc";
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const char* r : kAllRules) std::cout << r << "\n";
      return 0;
    }
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "gcc" && format != "json") {
        std::cerr << "qcap_lint: unknown format '" << format << "'\n";
        return 2;
      }
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: qcap_lint [--format=gcc|json] [--list-rules] "
                   "<path>...\n";
      return 0;
    }
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "qcap_lint: unknown option '" << arg << "'\n";
      return 2;
    }
    roots.push_back(arg);
  }
  if (roots.empty()) {
    std::cerr << "usage: qcap_lint [--format=gcc|json] [--list-rules] "
                 "<path>...\n";
    return 2;
  }

  std::vector<std::string> files;
  for (const std::string& root : roots) {
    if (!fs::exists(root)) {
      std::cerr << "qcap_lint: no such file or directory: " << root << "\n";
      return 2;
    }
    CollectFiles(root, &files);
  }
  std::sort(files.begin(), files.end());

  std::vector<ProjectFile> project;
  project.reserve(files.size());
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::cerr << "qcap_lint: cannot read " << file << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    project.push_back({file, buf.str()});
  }

  std::vector<Finding> findings;
  size_t suppressed = 0;
  for (const ProjectFile& file : project) {
    FileResult result = LintContent(file.path, file.content);
    suppressed += result.suppressed.size();
    for (Finding& f : result.findings) findings.push_back(std::move(f));
  }
  ProjectResult cross = LintProject(project, FindLayerConfig(roots));
  suppressed += cross.suppressed.size();
  for (Finding& f : cross.findings) findings.push_back(std::move(f));
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.line != b.line ? a.line < b.line : a.rule < b.rule;
            });

  if (format == "json") {
    std::cout << "{\n  \"findings\": [";
    for (size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      std::cout << (i == 0 ? "\n" : ",\n")
                << "    {\"file\": \"" << qcap::JsonEscape(f.file)
                << "\", \"line\": " << f.line << ", \"rule\": \"" << f.rule
                << "\", \"message\": \"" << qcap::JsonEscape(f.message)
                << "\"}";
    }
    std::cout << (findings.empty() ? "" : "\n  ") << "],\n"
              << "  \"count\": " << findings.size() << ",\n"
              << "  \"suppressed\": " << suppressed << ",\n"
              << "  \"files_scanned\": " << files.size() << "\n}\n";
  } else {
    for (const Finding& f : findings) {
      std::cout << f.file << ":" << f.line << ": warning: " << f.message
                << " [" << f.rule << "]\n";
    }
    std::cerr << "qcap_lint: " << files.size() << " files, "
              << findings.size() << " finding(s), " << suppressed
              << " suppressed\n";
  }
  return findings.empty() ? 0 : 1;
}

}  // namespace
}  // namespace qcap_lint

int main(int argc, char** argv) { return qcap_lint::Run(argc, argv); }

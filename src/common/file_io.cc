#include "common/file_io.h"

#include <fstream>
#include <sstream>

namespace qcap {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!out) {
    return Status::Internal("write to '" + path + "' failed");
  }
  return Status::OK();
}

}  // namespace qcap

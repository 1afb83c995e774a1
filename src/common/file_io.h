// Whole-file read and write for the text formats (journals, catalogs).
#pragma once

#include <string>

#include "common/status.h"

namespace qcap {

/// Reads all of \p path; NotFound if it cannot be opened.
Result<std::string> ReadFile(const std::string& path);

/// Replaces the contents of \p path with \p data; Internal if the file
/// cannot be opened or the write fails.
Status WriteFile(const std::string& path, const std::string& data);

}  // namespace qcap

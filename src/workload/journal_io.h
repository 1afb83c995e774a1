// Journal persistence: serialize a query history to a line-based text
// format and back (the prototype's query-history store, Figure 3).
//
// Format (one record per line, UTF-8):
//   qcap-journal v1
//   <count>\t<cost>\t<R|U>\t<escaped text>\t<accesses>
// where accesses = table[:col1|col2...][@p1|p2...] joined with ';'.
// Tabs, backslashes, and newlines in the query text are escaped with
// backslashes. Timestamped executions are flattened to counts (segmenting
// information is not round-tripped).
#pragma once

#include <string>

#include "common/status.h"
#include "workload/journal.h"

namespace qcap {

/// Serializes \p journal.
std::string SerializeJournal(const QueryJournal& journal);

/// Parses a journal serialized by SerializeJournal. Each number must be a
/// whole decimal token (ParseUint / ParseFiniteDouble in common/strings.h):
/// <count> and every partition are unsigned integers with no sign, a
/// partition at most INT_MAX; <cost> is a finite double. Anything else,
/// such as "-1", "12abc", "nan" or "-inf", is InvalidArgument.
Result<QueryJournal> DeserializeJournal(const std::string& data);

/// Writes \p journal to \p path.
Status SaveJournal(const QueryJournal& journal, const std::string& path);

/// Reads a journal from \p path.
Result<QueryJournal> LoadJournal(const std::string& path);

}  // namespace qcap

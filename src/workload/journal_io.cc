#include "workload/journal_io.h"

#include <climits>
#include <cstdio>
#include <optional>
#include <sstream>

#include "common/file_io.h"
#include "common/strings.h"

namespace qcap {

namespace {

constexpr char kHeader[] = "qcap-journal v1";

std::string EscapeText(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

Result<std::string> UnescapeText(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\') {
      out.push_back(text[i]);
      continue;
    }
    if (i + 1 >= text.size()) {
      return Status::InvalidArgument("dangling escape in journal text");
    }
    switch (text[++i]) {
      case '\\': out.push_back('\\'); break;
      case 't': out.push_back('\t'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      default:
        return Status::InvalidArgument("unknown escape in journal text");
    }
  }
  return out;
}

std::string EncodeAccesses(const Query& q) {
  std::vector<std::string> parts;
  for (const auto& access : q.accesses) {
    std::string part = access.table;
    if (!access.columns.empty()) {
      std::vector<std::string> cols = access.columns;
      part += ":" + Join(cols, "|");
    }
    if (!access.partitions.empty()) {
      std::vector<std::string> ps;
      for (int p : access.partitions) ps.push_back(std::to_string(p));
      part += "@" + Join(ps, "|");
    }
    parts.push_back(std::move(part));
  }
  return Join(parts, ";");
}

Result<std::vector<TableAccess>> DecodeAccesses(const std::string& encoded) {
  std::vector<TableAccess> out;
  if (encoded.empty()) return out;
  for (const std::string& part : Split(encoded, ';')) {
    if (part.empty()) {
      return Status::InvalidArgument("empty access entry");
    }
    TableAccess access;
    std::string rest = part;
    const size_t at = rest.find('@');
    std::string partitions;
    if (at != std::string::npos) {
      partitions = rest.substr(at + 1);
      rest = rest.substr(0, at);
    }
    const size_t colon = rest.find(':');
    if (colon != std::string::npos) {
      for (const auto& col : Split(rest.substr(colon + 1), '|')) {
        if (col.empty()) {
          return Status::InvalidArgument("empty column in access entry");
        }
        access.columns.push_back(col);
      }
      rest = rest.substr(0, colon);
    }
    if (rest.empty()) {
      return Status::InvalidArgument("missing table in access entry");
    }
    access.table = rest;
    if (!partitions.empty()) {
      for (const auto& p : Split(partitions, '|')) {
        const std::optional<uint64_t> partition = ParseUint(p);
        if (!partition || *partition > uint64_t{INT_MAX}) {
          return Status::InvalidArgument("bad partition number '" + p + "'");
        }
        access.partitions.push_back(static_cast<int>(*partition));
      }
    }
    out.push_back(std::move(access));
  }
  return out;
}

}  // namespace

std::string SerializeJournal(const QueryJournal& journal) {
  std::string out = kHeader;
  out += "\n";
  const auto& queries = journal.queries();
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    out += std::to_string(journal.count(i));
    out += "\t";
    char cost[64];
    std::snprintf(cost, sizeof(cost), "%.17g", q.cost);
    out += cost;
    out += "\t";
    out += q.is_update ? "U" : "R";
    out += "\t";
    out += EscapeText(q.text);
    out += "\t";
    out += EncodeAccesses(q);
    out += "\n";
  }
  return out;
}

Result<QueryJournal> DeserializeJournal(const std::string& data) {
  std::istringstream in(data);
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    return Status::InvalidArgument("missing journal header");
  }
  QueryJournal journal;
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const std::vector<std::string> fields = Split(line, '\t');
    if (fields.size() != 5) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": expected 5 fields, got " +
                                     std::to_string(fields.size()));
    }
    const std::optional<uint64_t> count = ParseUint(fields[0]);
    const std::optional<double> cost = ParseFiniteDouble(fields[1]);
    if (!count || !cost) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": bad count or cost");
    }
    Query q;
    q.cost = *cost;
    if (fields[2] == "U") {
      q.is_update = true;
    } else if (fields[2] == "R") {
      q.is_update = false;
    } else {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": kind must be R or U");
    }
    QCAP_ASSIGN_OR_RETURN(q.text, UnescapeText(fields[3]));
    if (q.text.empty()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": empty query text");
    }
    QCAP_ASSIGN_OR_RETURN(q.accesses, DecodeAccesses(fields[4]));
    journal.Record(q, *count);
  }
  return journal;
}

Status SaveJournal(const QueryJournal& journal, const std::string& path) {
  return WriteFile(path, SerializeJournal(journal));
}

Result<QueryJournal> LoadJournal(const std::string& path) {
  QCAP_ASSIGN_OR_RETURN(const std::string data, ReadFile(path));
  return DeserializeJournal(data);
}

}  // namespace qcap

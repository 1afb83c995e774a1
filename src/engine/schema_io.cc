#include "engine/schema_io.h"

#include <cstdint>
#include <optional>
#include <sstream>

#include "common/file_io.h"
#include "common/strings.h"

namespace qcap::engine {

namespace {

Result<ColumnType> ParseType(const std::string& name) {
  if (name == "int32") return ColumnType::kInt32;
  if (name == "int64") return ColumnType::kInt64;
  if (name == "decimal") return ColumnType::kDecimal;
  if (name == "date") return ColumnType::kDate;
  if (name == "char") return ColumnType::kChar;
  if (name == "varchar") return ColumnType::kVarchar;
  return Status::InvalidArgument("unknown column type '" + name + "'");
}

const char* TypeToken(ColumnType type) {
  switch (type) {
    case ColumnType::kInt32: return "int32";
    case ColumnType::kInt64: return "int64";
    case ColumnType::kDecimal: return "decimal";
    case ColumnType::kDate: return "date";
    case ColumnType::kChar: return "char";
    case ColumnType::kVarchar: return "varchar";
  }
  return "int64";
}

bool NeedsWidth(ColumnType type) {
  return type == ColumnType::kChar || type == ColumnType::kVarchar;
}

}  // namespace

std::string SerializeCatalog(const Catalog& catalog) {
  std::string out = "# qcap schema\n";
  out += "scale " + std::to_string(catalog.scale_factor()) + "\n";
  for (const auto& table : catalog.tables()) {
    out += "table " + table.name + " " + std::to_string(table.base_rows) + "\n";
    for (const auto& col : table.columns) {
      out += "col " + col.name + " " + TypeToken(col.type);
      if (NeedsWidth(col.type)) {
        out += " " + std::to_string(col.declared_width);
      }
      if (col.primary_key) out += " pk";
      out += "\n";
    }
  }
  return out;
}

Result<Catalog> DeserializeCatalog(const std::string& text) {
  Catalog catalog;
  std::istringstream in(text);
  std::string line;
  size_t line_number = 0;
  TableDef pending;
  bool have_pending = false;
  double scale = 1.0;

  auto flush = [&]() -> Status {
    if (have_pending) {
      QCAP_RETURN_NOT_OK(catalog.AddTable(std::move(pending)));
      pending = TableDef{};
      have_pending = false;
    }
    return Status::OK();
  };

  while (std::getline(in, line)) {
    ++line_number;
    std::istringstream tokens(line);
    std::string keyword;
    if (!(tokens >> keyword) || keyword[0] == '#') continue;
    const std::string where = " (line " + std::to_string(line_number) + ")";
    std::string number;
    if (keyword == "scale") {
      const std::optional<double> factor =
          tokens >> number ? ParseFiniteDouble(number) : std::nullopt;
      if (!factor || *factor <= 0.0) {
        return Status::InvalidArgument("bad scale factor" + where);
      }
      scale = *factor;
    } else if (keyword == "table") {
      QCAP_RETURN_NOT_OK(flush());
      const std::optional<uint64_t> rows =
          tokens >> pending.name >> number ? ParseUint(number) : std::nullopt;
      if (!rows) {
        return Status::InvalidArgument("bad table line" + where);
      }
      pending.base_rows = *rows;
      have_pending = true;
    } else if (keyword == "col") {
      if (!have_pending) {
        return Status::InvalidArgument("col before any table" + where);
      }
      ColumnDef col;
      std::string type_name;
      if (!(tokens >> col.name >> type_name)) {
        return Status::InvalidArgument("bad col line" + where);
      }
      QCAP_ASSIGN_OR_RETURN(col.type, ParseType(type_name));
      std::string extra;
      if (NeedsWidth(col.type)) {
        const std::optional<uint64_t> width =
            tokens >> number ? ParseUint(number) : std::nullopt;
        if (!width || *width == 0 || *width > UINT32_MAX) {
          return Status::InvalidArgument("char/varchar needs a width" + where);
        }
        col.declared_width = static_cast<uint32_t>(*width);
      }
      while (tokens >> extra) {
        if (extra == "pk") {
          col.primary_key = true;
        } else {
          return Status::InvalidArgument("unexpected token '" + extra + "'" +
                                         where);
        }
      }
      pending.columns.push_back(std::move(col));
    } else {
      return Status::InvalidArgument("unknown keyword '" + keyword + "'" +
                                     where);
    }
  }
  QCAP_RETURN_NOT_OK(flush());
  if (catalog.NumTables() == 0) {
    return Status::InvalidArgument("schema defines no tables");
  }
  catalog.SetScaleFactor(scale);
  return catalog;
}

Status SaveCatalog(const Catalog& catalog, const std::string& path) {
  return WriteFile(path, SerializeCatalog(catalog));
}

Result<Catalog> LoadCatalog(const std::string& path) {
  QCAP_ASSIGN_OR_RETURN(const std::string text, ReadFile(path));
  return DeserializeCatalog(text);
}

}  // namespace qcap::engine

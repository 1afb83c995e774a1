// Schema catalog persistence: a simple line-based text format so schemas
// can be authored by hand and loaded by tools.
//
// Format (one entity per line, '#' comments allowed):
//   table <name> <base_rows> [scale_factor applies catalog-wide]
//   col   <name> <type> [width] [pk]
// where <type> is one of int32,int64,decimal,date,char,varchar (char and
// varchar require a width). Columns belong to the most recent table line.
// A catalog-wide "scale <factor>" line may appear anywhere.
#pragma once

#include <string>

#include "common/status.h"
#include "engine/catalog.h"

namespace qcap::engine {

/// Serializes \p catalog to the text format.
std::string SerializeCatalog(const Catalog& catalog);

/// Parses a catalog from the text format. Each number must be a whole
/// decimal token (ParseUint / ParseFiniteDouble in common/strings.h): rows
/// and widths are unsigned integers with no sign, a width in [1, 2^32 - 1];
/// the scale factor is a finite double > 0. Anything else, such as "-1" or
/// "10abc", is InvalidArgument.
Result<Catalog> DeserializeCatalog(const std::string& text);

/// Writes \p catalog to \p path.
Status SaveCatalog(const Catalog& catalog, const std::string& path);

/// Reads a catalog from \p path.
Result<Catalog> LoadCatalog(const std::string& path);

}  // namespace qcap::engine

#ifndef FGQ_DB_LOADER_H_
#define FGQ_DB_LOADER_H_

#include <string>

#include "fgq/db/database.h"
#include "fgq/db/value.h"
#include "fgq/util/status.h"

/// \file loader.h
/// Text ingestion for examples and ad-hoc experiments.
///
/// Format: one fact per line, `RelName<TAB>v1<TAB>v2...` (or
/// whitespace-separated). Values that parse as integers are used verbatim;
/// anything else is dictionary-encoded. Lines starting with '#' and blank
/// lines are skipped. Relation names must start with a letter or '_'.
///
/// Every error Status pinpoints its origin as `<source>:<line>: ...`,
/// where `<source>` is the file path (or the `source_name` label for
/// string input), so a bad line in a million-fact load is findable.

namespace fgq {

/// Parses facts from a string buffer into `db`, interning strings in
/// `dict`. Relations are created on first use with the arity of the first
/// fact; later facts with a different arity are an error. Every relation
/// the load touches ends as a sorted set (Relation::sorted(); duplicate
/// facts collapse). `source_name` labels error messages.
Status LoadFactsFromString(const std::string& text, Database* db,
                           Dictionary* dict,
                           const std::string& source_name = "<string>");

/// Reads a file and delegates to LoadFactsFromString, with `path` as the
/// error-message source label.
Status LoadFactsFromFile(const std::string& path, Database* db,
                         Dictionary* dict);

}  // namespace fgq

#endif  // FGQ_DB_LOADER_H_

#include "fgq/db/loader.h"

#include <cctype>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

namespace fgq {

namespace {

/// Integer fast path over a raw character range: accepts [-]digits and
/// clamps on overflow exactly like strtoll, without materializing a token
/// string. Returns false for anything else (which then gets interned).
bool ParseInteger(const char* begin, const char* end, Value* out) {
  if (begin == end) return false;
  const bool neg = *begin == '-';
  const char* p = neg ? begin + 1 : begin;
  if (p == end) return false;
  unsigned long long acc = 0;
  bool overflow = false;
  for (; p != end; ++p) {
    if (!std::isdigit(static_cast<unsigned char>(*p))) return false;
    if (acc > (ULLONG_MAX - 9) / 10) {
      overflow = true;
      continue;
    }
    acc = acc * 10 + static_cast<unsigned long long>(*p - '0');
  }
  const unsigned long long limit =
      neg ? static_cast<unsigned long long>(LLONG_MAX) + 1
          : static_cast<unsigned long long>(LLONG_MAX);
  if (overflow || acc > limit) {
    *out = neg ? LLONG_MIN : LLONG_MAX;
    return true;
  }
  if (neg) {
    *out = acc == limit ? LLONG_MIN : -static_cast<Value>(acc);
  } else {
    *out = static_cast<Value>(acc);
  }
  return true;
}

/// True for identifiers acceptable as relation names: leading letter or
/// underscore. Rejects stray data lines (e.g. a line of bare integers).
bool ValidRelationName(const char* begin) {
  unsigned char c = static_cast<unsigned char>(*begin);
  return std::isalpha(c) || *begin == '_';
}

std::string At(const std::string& source, size_t lineno) {
  return source + ":" + std::to_string(lineno) + ": ";
}

bool IsSpace(char c) { return c == ' ' || c == '\t' || c == '\r'; }

}  // namespace

Status LoadFactsFromString(const std::string& text, Database* db,
                           Dictionary* dict,
                           const std::string& source_name) {
  const char* p = text.data();
  const char* const text_end = p + text.size();
  size_t lineno = 0;

  // Consecutive facts usually target one relation: cache the last target to
  // skip the per-line name lookups, and reuse the row buffer across lines.
  std::string rel_name;
  std::string last_name;
  Relation* last_rel = nullptr;
  std::vector<Value> values;
  std::set<std::string> loaded;
  bool dict_reserved = false;

  while (p != text_end) {
    ++lineno;
    const char* line_end = p;
    while (line_end != text_end && *line_end != '\n') ++line_end;

    const char* t = p;
    p = line_end == text_end ? line_end : line_end + 1;
    while (t != line_end && IsSpace(*t)) ++t;
    if (t == line_end || *t == '#') continue;

    const char* name_begin = t;
    while (t != line_end && !IsSpace(*t)) ++t;
    if (!ValidRelationName(name_begin)) {
      return Status::ParseError(At(source_name, lineno) +
                                "malformed fact line: expected a relation "
                                "name, got '" +
                                std::string(name_begin, t) + "'");
    }
    rel_name.assign(name_begin, t);

    values.clear();
    while (true) {
      while (t != line_end && IsSpace(*t)) ++t;
      if (t == line_end) break;
      const char* tok_begin = t;
      while (t != line_end && !IsSpace(*t)) ++t;
      Value v;
      if (!ParseInteger(tok_begin, t, &v)) {
        if (!dict_reserved) {
          // First string of the load: size the dictionary for roughly one
          // string per remaining line so bulk loads stop rehashing.
          size_t lines = 1;
          for (const char* q = p; q != text_end; ++q) {
            if (*q == '\n') ++lines;
          }
          dict->Reserve(lines);
          dict_reserved = true;
        }
        v = dict->Intern(std::string(tok_begin, t));
      }
      values.push_back(v);
    }

    if (last_rel == nullptr || rel_name != last_name) {
      if (!db->Has(rel_name)) {
        db->PutRelation(Relation(rel_name, values.size()));
      }
      last_rel = db->FindMutable(rel_name).value();
      last_name = rel_name;
      loaded.insert(rel_name);
    }
    if (last_rel->arity() != values.size()) {
      return Status::ParseError(
          At(source_name, lineno) + "arity mismatch for relation '" +
          rel_name + "' (expected " + std::to_string(last_rel->arity()) +
          ", got " + std::to_string(values.size()) + ")");
    }
    last_rel->AddRow(values.data());
  }
  // Loaded relations are canonical sorted sets (relation.h, sorted()):
  // sorted once here, so preparation never sorts them again.
  for (const std::string& name : loaded) {
    db->FindMutable(name).value()->SortDedup();
  }
  return Status::OK();
}

Status LoadFactsFromFile(const std::string& path, Database* db,
                         Dictionary* dict) {
  std::ifstream f(path);
  if (!f) return Status::NotFound("cannot open '" + path + "'");
  std::stringstream buf;
  buf << f.rdbuf();
  return LoadFactsFromString(buf.str(), db, dict, path);
}

}  // namespace fgq

// Helpers shared by the quickview command-line tools.
#ifndef QUICKVIEW_TOOLS_TOOL_COMMON_H_
#define QUICKVIEW_TOOLS_TOOL_COMMON_H_

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/result.h"
#include "workload/bookrev_generator.h"

namespace quickview::tools {

/// Prints `status` to stderr; returns the tools' failure exit code.
inline int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Strict non-negative integer parse; false on junk or overflow (flag
/// values must not crash the process via std::stoi exceptions).
inline bool ParseCount(const char* text, long long max_value,
                       long long* out) {
  if (text == nullptr || *text == '\0') return false;
  long long value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    value = value * 10 + (*p - '0');
    if (value > max_value) return false;
  }
  *out = value;
  return true;
}

inline Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

/// The view text a --view flag names, or the built-in books/reviews view
/// when it names none.
inline Result<std::string> ReadViewText(const std::string& path) {
  if (path.empty()) return workload::BookRevView();
  return ReadFile(path);
}

}  // namespace quickview::tools

#endif  // QUICKVIEW_TOOLS_TOOL_COMMON_H_

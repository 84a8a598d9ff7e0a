// One analysis finding and its grep/IDE-friendly rendering — the record
// every rule emits and every output format (text, SARIF) consumes.
#pragma once

#include <string>

namespace mc::lint {

struct Finding {
  std::string file;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;
};

/// "file:line: [rule] message" — the grep/IDE-friendly format.
inline std::string format_finding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

}  // namespace mc::lint

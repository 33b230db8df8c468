#pragma once

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

#include "support/check.hpp"

namespace diva::support {

// ---------------------------------------------------------------------------
// The line-oriented text formats — graph, scenario and request trace
// (docs/workloads.md "Text formats") — read through one LineReader, so
// they share one rule each for:
//   - comments: '#' starts a comment anywhere on a line;
//   - blank and comment-only lines: skipped;
//   - values: the whole token must parse as the field's type ("4x" and
//     "1e309" are errors), and unsigned fields reject a leading '-';
//   - trailing tokens after a directive's arguments: an error;
//   - errors: CheckError whose message carries "<format> file line N: ".
// ---------------------------------------------------------------------------

class LineReader {
 public:
  /// `format` names the file kind in error prefixes ("graph", "scenario",
  /// "trace"). The text must outlive the reader.
  LineReader(std::string_view text, const char* format) : text_(text), format_(format) {}

  /// Advance to the next line that holds a token; false at end of text.
  bool next() {
    while (pos_ < text_.size()) {
      const std::size_t eol = std::min(text_.find('\n', pos_), text_.size());
      line_ = text_.substr(pos_, eol - pos_);
      line_ = line_.substr(0, line_.find('#'));
      pos_ = eol + 1;
      ++lineNo_;
      if (more()) return true;
    }
    return false;
  }

  /// True while the current line has a token left.
  bool more() {
    while (!line_.empty() && isSpace(line_.front())) line_.remove_prefix(1);
    return !line_.empty();
  }

  /// The next token; `what` names it in the error when there is none.
  std::string word(std::string_view what) {
    DIVA_CHECK_MSG(more(), where() << "missing " << what);
    return std::string(take());
  }

  /// The next token parsed as a T, consuming the whole token.
  template <typename T>
  T value(std::string_view what) {
    const std::string tok = word(what);
    const std::optional<T> v = parse<T>(tok);
    DIVA_CHECK_MSG(v, where() << "malformed " << what << " '" << tok << "'");
    return *v;
  }

  /// `tok` parsed as a T if the whole token is one. Unsigned types reject
  /// a leading '-', which istream extraction would silently wrap.
  template <typename T>
  static std::optional<T> parse(const std::string& tok) {
    if (std::is_unsigned_v<T> && tok.starts_with('-')) return std::nullopt;
    std::istringstream ts(tok);
    T v{};
    if (!(ts >> v) || !ts.eof()) return std::nullopt;
    return v;
  }

  /// Reject any token left on the line after `after`'s arguments.
  void end(std::string_view after) {
    DIVA_CHECK_MSG(!more(), where() << "unexpected trailing token '" << take()
                                    << "' after '" << after << "'");
  }

  /// The error prefix for the current line: "<format> file line N: ".
  std::string where() const {
    return std::string(format_) + " file line " + std::to_string(lineNo_) + ": ";
  }

  /// 1-based number of the current line.
  int line() const { return lineNo_; }

 private:
  static bool isSpace(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  }

  std::string_view take() {
    more();
    std::size_t n = 0;
    while (n < line_.size() && !isSpace(line_[n])) ++n;
    const std::string_view tok = line_.substr(0, n);
    line_.remove_prefix(n);
    return tok;
  }

  std::string_view text_;
  const char* format_;
  std::size_t pos_ = 0;
  std::string_view line_;  ///< unread rest of the current line, comment cut
  int lineNo_ = 0;
};

/// Read the file at `path` and return `parse(text)`. Errors name the
/// file: an unopenable path, and every CheckError `parse` throws,
/// prefixed with "<path>: " (the parsers also serve in-memory text,
/// whose errors carry only line numbers).
template <typename Parse>
auto parseTextFile(const std::string& path, const char* format, Parse&& parse) {
  std::ifstream in(path);
  if (!in.good())
    throw CheckError("cannot open " + std::string(format) + " file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse(text.str());
  } catch (const CheckError& e) {
    throw CheckError(path + ": " + e.what());
  }
}

/// Create `path` and fill it with `write(stream)`; CheckError naming the
/// `what` file if it cannot be opened or written.
template <typename Write>
void writeTextFile(const std::string& path, const char* what, Write&& write) {
  std::ofstream out(path);
  DIVA_CHECK_MSG(out.good(), "cannot open " << what << " file '" << path << "'");
  write(out);
  out.close();
  DIVA_CHECK_MSG(out.good(), "failed writing " << what << " file '" << path << "'");
}

}  // namespace diva::support

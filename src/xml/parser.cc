#include "xml/parser.h"

#include <cctype>
#include <string>
#include <string_view>

#include "common/fault_injection.h"

namespace xqtp::xml {

namespace {

/// ParseElement / ParseContent recurse once per nesting level; a
/// pathological document (one element per byte, all nested) must not
/// overflow the C++ stack. 1000 levels is far beyond real XML and well
/// inside the default 8 MiB stack.
constexpr int kMaxElementDepth = 1000;

/// Cursor over the input with line tracking for error messages.
class Cursor {
 public:
  explicit Cursor(std::string_view input) : input_(input) {}

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < input_.size() ? input_[pos_ + off] : '\0';
  }
  void Advance() {
    if (input_[pos_] == '\n') ++line_;
    ++pos_;
  }
  bool StartsWith(std::string_view s) const {
    return input_.substr(pos_, s.size()) == s;
  }
  void Skip(size_t n) {
    for (size_t i = 0; i < n && !AtEnd(); ++i) Advance();
  }
  /// Advances past the first occurrence of `s`; false if not found.
  bool SkipPast(std::string_view s) {
    size_t found = input_.find(s, pos_);
    if (found == std::string_view::npos) return false;
    while (pos_ < found + s.size()) Advance();
    return true;
  }
  int line() const { return line_; }

 private:
  std::string_view input_;
  size_t pos_ = 0;
  int line_ = 1;
};

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}
bool IsNameChar(char c) {
  return IsNameStart(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.';
}

/// The code point of a character reference body, "#" followed by decimal
/// digits or "#x" followed by hex digits; 0 when the body is empty or
/// ill-formed, or names no XML character: U+0000, a surrogate, or a code
/// point beyond U+10FFFF.
char32_t CharRef(std::string_view ent) {
  std::string_view digits = ent.substr(1);
  char32_t base = 10;
  if (!digits.empty() && digits[0] == 'x') {
    base = 16;
    digits.remove_prefix(1);
  }
  if (digits.empty()) return 0;
  char32_t code = 0;
  for (char c : digits) {
    char32_t d = 0;
    if (c >= '0' && c <= '9') {
      d = static_cast<char32_t>(c - '0');
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      d = static_cast<char32_t>(c - 'a' + 10);
    } else if (base == 16 && c >= 'A' && c <= 'F') {
      d = static_cast<char32_t>(c - 'A' + 10);
    } else {
      return 0;
    }
    code = code * base + d;
    if (code > 0x10FFFF) return 0;  // also stops the product overflowing
  }
  if (code >= 0xD800 && code <= 0xDFFF) return 0;
  return code;
}

/// Appends the UTF-8 encoding of code point `c` (at most U+10FFFF).
void AppendUtf8(char32_t c, std::string* out) {
  auto byte = [out](char32_t b) { out->push_back(static_cast<char>(b)); };
  if (c < 0x80) {
    byte(c);
    return;
  }
  if (c < 0x800) {
    byte(0xC0 | (c >> 6));
  } else if (c < 0x10000) {
    byte(0xE0 | (c >> 12));
    byte(0x80 | ((c >> 6) & 0x3F));
  } else {
    byte(0xF0 | (c >> 18));
    byte(0x80 | ((c >> 12) & 0x3F));
    byte(0x80 | ((c >> 6) & 0x3F));
  }
  byte(0x80 | (c & 0x3F));
}

class Parser {
 public:
  Parser(std::string_view input, StringInterner* interner)
      : cur_(input), builder_(interner) {}

  Result<std::unique_ptr<Document>> Run() {
    XQTP_RETURN_NOT_OK(ParseProlog());
    XQTP_RETURN_NOT_OK(ParseElement());
    XQTP_RETURN_NOT_OK(SkipMisc());
    if (!cur_.AtEnd()) return Err("trailing content after root element");
    return builder_.Finish();
  }

 private:
  Status Err(const std::string& msg) {
    return Status::InvalidArgument("XML parse error at line " +
                                   std::to_string(cur_.line()) + ": " + msg);
  }

  /// A node stores its value's length in 32 bits (xml/node.h).
  Status CheckValueSize(const std::string& value) {
    if (value.size() <= kMaxValueBytes) return Status::OK();
    return Status::ResourceExhausted(
        "XML text or attribute value of " + std::to_string(value.size()) +
        " bytes at line " + std::to_string(cur_.line()) +
        " exceeds the limit of " + std::to_string(kMaxValueBytes));
  }

  void SkipWhitespace() {
    while (!cur_.AtEnd() &&
           std::isspace(static_cast<unsigned char>(cur_.Peek()))) {
      cur_.Advance();
    }
  }

  /// Skips whitespace, comments, and PIs between top-level constructs.
  Status SkipMisc() {
    for (;;) {
      SkipWhitespace();
      if (cur_.StartsWith("<!--")) {
        if (!cur_.SkipPast("-->")) return Err("unterminated comment");
      } else if (cur_.StartsWith("<?")) {
        if (!cur_.SkipPast("?>")) return Err("unterminated PI");
      } else {
        return Status::OK();
      }
    }
  }

  Status ParseProlog() {
    XQTP_RETURN_NOT_OK(SkipMisc());
    if (cur_.StartsWith("<!DOCTYPE")) {
      if (!cur_.SkipPast(">")) return Err("unterminated DOCTYPE");
      return SkipMisc();
    }
    return Status::OK();
  }

  Result<std::string> ParseName() {
    if (cur_.AtEnd() || !IsNameStart(cur_.Peek())) {
      return Err("expected a name");
    }
    std::string name;
    while (!cur_.AtEnd() && IsNameChar(cur_.Peek())) {
      name.push_back(cur_.Peek());
      cur_.Advance();
    }
    return name;
  }

  /// Decodes one entity reference positioned on '&'.
  Status AppendEntity(std::string* out) {
    // Supported: lt gt amp quot apos and numeric references.
    cur_.Advance();  // '&'
    std::string ent;
    while (!cur_.AtEnd() && cur_.Peek() != ';') {
      ent.push_back(cur_.Peek());
      cur_.Advance();
    }
    if (cur_.AtEnd()) return Err("unterminated entity reference");
    cur_.Advance();  // ';'
    if (ent == "lt") {
      out->push_back('<');
    } else if (ent == "gt") {
      out->push_back('>');
    } else if (ent == "amp") {
      out->push_back('&');
    } else if (ent == "quot") {
      out->push_back('"');
    } else if (ent == "apos") {
      out->push_back('\'');
    } else if (!ent.empty() && ent[0] == '#') {
      char32_t code = CharRef(ent);
      if (code == 0) return Err("invalid character reference &" + ent + ";");
      AppendUtf8(code, out);
    } else {
      return Err("unknown entity &" + ent + ";");
    }
    return Status::OK();
  }

  Status ParseAttributes() {
    for (;;) {
      SkipWhitespace();
      if (cur_.AtEnd()) return Err("unterminated start tag");
      char c = cur_.Peek();
      if (c == '>' || c == '/') return Status::OK();
      XQTP_ASSIGN_OR_RETURN(std::string name, ParseName());
      // XML's "Unique Att Spec" well-formedness constraint.
      if (builder_.HasAttribute(name)) {
        return Err("duplicate attribute " + name);
      }
      SkipWhitespace();
      if (cur_.AtEnd() || cur_.Peek() != '=') return Err("expected '='");
      cur_.Advance();
      SkipWhitespace();
      if (cur_.AtEnd() || (cur_.Peek() != '"' && cur_.Peek() != '\'')) {
        return Err("expected quoted attribute value");
      }
      char quote = cur_.Peek();
      cur_.Advance();
      std::string value;
      while (!cur_.AtEnd() && cur_.Peek() != quote) {
        if (cur_.Peek() == '&') {
          XQTP_RETURN_NOT_OK(AppendEntity(&value));
        } else {
          value.push_back(cur_.Peek());
          cur_.Advance();
        }
      }
      if (cur_.AtEnd()) return Err("unterminated attribute value");
      cur_.Advance();  // closing quote
      XQTP_RETURN_NOT_OK(CheckValueSize(value));
      builder_.Attribute(name, value);
    }
  }

  Status ParseContent() {
    std::string text;
    auto flush = [&]() -> Status {
      if (!text.empty()) {
        XQTP_RETURN_NOT_OK(CheckValueSize(text));
        builder_.Text(text);
        text.clear();
      }
      return Status::OK();
    };
    for (;;) {
      if (cur_.AtEnd()) return Err("unterminated element content");
      char c = cur_.Peek();
      if (c == '<') {
        if (cur_.StartsWith("</")) return flush();
        if (cur_.StartsWith("<!--")) {
          XQTP_RETURN_NOT_OK(flush());
          if (!cur_.SkipPast("-->")) return Err("unterminated comment");
          continue;
        }
        if (cur_.StartsWith("<![CDATA[")) {
          cur_.Skip(9);
          while (!cur_.AtEnd() && !cur_.StartsWith("]]>")) {
            text.push_back(cur_.Peek());
            cur_.Advance();
          }
          if (cur_.AtEnd()) return Err("unterminated CDATA section");
          cur_.Skip(3);
          continue;
        }
        if (cur_.StartsWith("<?")) {
          XQTP_RETURN_NOT_OK(flush());
          if (!cur_.SkipPast("?>")) return Err("unterminated PI");
          continue;
        }
        XQTP_RETURN_NOT_OK(flush());
        XQTP_RETURN_NOT_OK(ParseElement());
      } else if (c == '&') {
        XQTP_RETURN_NOT_OK(AppendEntity(&text));
      } else {
        text.push_back(c);
        cur_.Advance();
      }
    }
  }

  Status ParseElement() {
    XQTP_FAULT_POINT("xml.parse.element");
    if (++depth_ > kMaxElementDepth) {
      return Status::ResourceExhausted(
          "XML element nesting depth " + std::to_string(depth_) +
          " exceeds the limit of " + std::to_string(kMaxElementDepth));
    }
    if (cur_.AtEnd() || cur_.Peek() != '<') return Err("expected '<'");
    cur_.Advance();
    XQTP_ASSIGN_OR_RETURN(std::string tag, ParseName());
    builder_.StartElement(tag);
    XQTP_RETURN_NOT_OK(ParseAttributes());
    if (cur_.Peek() == '/') {
      cur_.Advance();
      if (cur_.AtEnd() || cur_.Peek() != '>') return Err("expected '/>'");
      cur_.Advance();
      builder_.EndElement();
      --depth_;
      return Status::OK();
    }
    cur_.Advance();  // '>'
    XQTP_RETURN_NOT_OK(ParseContent());
    // Positioned on "</".
    cur_.Skip(2);
    XQTP_ASSIGN_OR_RETURN(std::string close, ParseName());
    if (close != tag) {
      return Err("mismatched end tag </" + close + ">, expected </" + tag +
                 ">");
    }
    SkipWhitespace();
    if (cur_.AtEnd() || cur_.Peek() != '>') return Err("expected '>'");
    cur_.Advance();
    builder_.EndElement();
    --depth_;
    return Status::OK();
  }

  Cursor cur_;
  DocumentBuilder builder_;
  int depth_ = 0;  ///< current element nesting depth (kMaxElementDepth cap)
};

}  // namespace

Result<std::unique_ptr<Document>> Parse(std::string_view input,
                                        StringInterner* interner) {
  Parser p(input, interner);
  return p.Run();
}

}  // namespace xqtp::xml

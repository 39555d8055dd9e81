#include "xquery/lexer.h"

#include <cctype>
#include <charconv>
#include <string>
#include <system_error>

namespace xqtp::xquery {

namespace {

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsNameChar(char c) {
  return IsNameStart(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.';
}

}  // namespace

Result<std::vector<Token>> Lex(std::string_view in) {
  std::vector<Token> out;
  size_t i = 0;
  int line = 1;
  auto err = [&](const std::string& msg) {
    return Status::InvalidArgument("XQuery lex error at line " +
                                   std::to_string(line) + ": " + msg);
  };
  auto push = [&](TokenKind k) {
    Token t;
    t.kind = k;
    t.line = line;
    out.push_back(std::move(t));
  };
  while (i < in.size()) {
    char c = in[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // XQuery comment: (: ... :), nestable.
    if (c == '(' && i + 1 < in.size() && in[i + 1] == ':') {
      int depth = 1;
      i += 2;
      while (i < in.size() && depth > 0) {
        if (in[i] == '\n') ++line;
        if (in[i] == '(' && i + 1 < in.size() && in[i + 1] == ':') {
          ++depth;
          i += 2;
        } else if (in[i] == ':' && i + 1 < in.size() && in[i + 1] == ')') {
          --depth;
          i += 2;
        } else {
          ++i;
        }
      }
      if (depth > 0) return err("unterminated comment");
      continue;
    }
    switch (c) {
      case '/':
        if (i + 1 < in.size() && in[i + 1] == '/') {
          push(TokenKind::kSlashSlash);
          i += 2;
        } else {
          push(TokenKind::kSlash);
          ++i;
        }
        continue;
      case '[':
        push(TokenKind::kLBracket);
        ++i;
        continue;
      case ']':
        push(TokenKind::kRBracket);
        ++i;
        continue;
      case '(':
        push(TokenKind::kLParen);
        ++i;
        continue;
      case ')':
        push(TokenKind::kRParen);
        ++i;
        continue;
      case ',':
        push(TokenKind::kComma);
        ++i;
        continue;
      case '@':
        push(TokenKind::kAt);
        ++i;
        continue;
      case '.':
        push(TokenKind::kDot);
        ++i;
        continue;
      case '*':
        push(TokenKind::kStar);
        ++i;
        continue;
      case '+':
        push(TokenKind::kPlus);
        ++i;
        continue;
      case '-':
        push(TokenKind::kMinus);
        ++i;
        continue;
      case '|':
        push(TokenKind::kBar);
        ++i;
        continue;
      case '=':
        push(TokenKind::kEq);
        ++i;
        continue;
      case '!':
        if (i + 1 < in.size() && in[i + 1] == '=') {
          push(TokenKind::kNe);
          i += 2;
          continue;
        }
        return err("unexpected '!'");
      case '<':
        if (i + 1 < in.size() && in[i + 1] == '=') {
          push(TokenKind::kLe);
          i += 2;
        } else {
          push(TokenKind::kLt);
          ++i;
        }
        continue;
      case '>':
        if (i + 1 < in.size() && in[i + 1] == '=') {
          push(TokenKind::kGe);
          i += 2;
        } else {
          push(TokenKind::kGt);
          ++i;
        }
        continue;
      case ':':
        if (i + 1 < in.size() && in[i + 1] == '=') {
          push(TokenKind::kColonEq);
          i += 2;
          continue;
        }
        if (i + 1 < in.size() && in[i + 1] == ':') {
          push(TokenKind::kAxisSep);
          i += 2;
          continue;
        }
        return err("unexpected ':'");
      case '$': {
        ++i;
        if (i >= in.size() || !IsNameStart(in[i])) {
          return err("expected variable name after '$'");
        }
        Token t;
        t.kind = TokenKind::kVariable;
        t.line = line;
        while (i < in.size() && IsNameChar(in[i])) t.text.push_back(in[i++]);
        out.push_back(std::move(t));
        continue;
      }
      case '"':
      case '\'': {
        char quote = c;
        ++i;
        Token t;
        t.kind = TokenKind::kString;
        t.line = line;
        while (i < in.size() && in[i] != quote) {
          if (in[i] == '\n') ++line;
          t.text.push_back(in[i++]);
        }
        if (i >= in.size()) return err("unterminated string literal");
        ++i;
        out.push_back(std::move(t));
        continue;
      }
      default:
        break;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < in.size() && std::isdigit(static_cast<unsigned char>(in[i])))
        ++i;
      bool is_decimal = false;
      if (i + 1 < in.size() && in[i] == '.' &&
          std::isdigit(static_cast<unsigned char>(in[i + 1]))) {
        is_decimal = true;
        ++i;
        while (i < in.size() &&
               std::isdigit(static_cast<unsigned char>(in[i])))
          ++i;
      }
      Token t;
      t.line = line;
      t.kind = is_decimal ? TokenKind::kDecimal : TokenKind::kInteger;
      const char* first = in.data() + start;
      const char* last = in.data() + i;
      const std::errc ec = is_decimal
                               ? std::from_chars(first, last, t.decimal).ec
                               : std::from_chars(first, last, t.integer).ec;
      if (ec != std::errc()) {
        return err("numeric literal out of range: " +
                   std::string(first, last));
      }
      out.push_back(std::move(t));
      continue;
    }
    if (IsNameStart(c)) {
      Token t;
      t.kind = TokenKind::kName;
      t.line = line;
      while (i < in.size() && IsNameChar(in[i])) t.text.push_back(in[i++]);
      // Prefixed name: name ':' name (but not '::' which is an axis sep).
      if (i + 1 < in.size() && in[i] == ':' && in[i + 1] != ':' &&
          IsNameStart(in[i + 1])) {
        t.text.push_back(in[i++]);
        while (i < in.size() && IsNameChar(in[i])) t.text.push_back(in[i++]);
      }
      out.push_back(std::move(t));
      continue;
    }
    return err(std::string("unexpected character '") + c + "'");
  }
  Token eof;
  eof.kind = TokenKind::kEof;
  eof.line = line;
  out.push_back(eof);
  return out;
}

}  // namespace xqtp::xquery

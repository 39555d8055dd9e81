#include "xml/serializer.h"

#include "xml/document.h"

namespace xqtp::xml {

std::string EscapeText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

namespace {

void SerializeTo(const Node* n, std::string* out) {
  switch (n->kind) {
    case NodeKind::kDocument:
      for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
        SerializeTo(c, out);
      }
      break;
    case NodeKind::kText:
      *out += EscapeText(n->Text());
      break;
    case NodeKind::kAttribute:
      *out += n->doc->interner()->NameOf(n->name);
      *out += "=\"";
      *out += EscapeText(n->Text());
      *out += '"';
      break;
    case NodeKind::kElement: {
      const std::string& tag = n->doc->interner()->NameOf(n->name);
      *out += '<';
      *out += tag;
      for (const Node* a : n->Attributes()) {
        *out += ' ';
        SerializeTo(a, out);
      }
      if (n->first_child == nullptr) {
        *out += "/>";
      } else {
        *out += '>';
        for (const Node* c = n->first_child; c != nullptr;
             c = c->next_sibling) {
          SerializeTo(c, out);
        }
        *out += "</";
        *out += tag;
        *out += '>';
      }
      break;
    }
  }
}

}  // namespace

std::string Serialize(const Node* node) {
  std::string out;
  SerializeTo(node, &out);
  return out;
}

}  // namespace xqtp::xml

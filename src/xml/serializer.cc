#include "xml/serializer.h"

#include "xml/document.h"

namespace xqtp::xml {

void AppendEscaped(std::string_view text, std::string* out) {
  // The characters between two escapes go in as one run.
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const char* entity;
    switch (text[i]) {
      case '&':
        entity = "&amp;";
        break;
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      case '"':
        entity = "&quot;";
        break;
      default:
        continue;
    }
    out->append(text.data() + run, i - run);
    out->append(entity);
    run = i + 1;
  }
  out->append(text.data() + run, text.size() - run);
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
      AppendEscaped(n->Text(), out);
      break;
    case NodeKind::kAttribute:
      *out += n->doc->interner()->NameOf(n->name);
      *out += "=\"";
      AppendEscaped(n->Text(), out);
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

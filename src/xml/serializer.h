// Serialization of nodes back to XML text (used by examples and tests).
#ifndef XQTP_XML_SERIALIZER_H_
#define XQTP_XML_SERIALIZER_H_

#include <string>
#include <string_view>

#include "xml/node.h"

namespace xqtp::xml {

/// Serializes a node (element, text, attribute, or whole document) to XML.
/// Attribute nodes serialize as name="value".
std::string Serialize(const Node* node);

/// Appends `text` to `out` with &, <, > and " escaped, for inclusion in
/// XML text or attribute values.
void AppendEscaped(std::string_view text, std::string* out);

}  // namespace xqtp::xml

#endif  // XQTP_XML_SERIALIZER_H_

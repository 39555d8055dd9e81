// Hand-written, non-validating XML parser for the fragment needed by the
// workloads: elements, attributes, character data, entity references for
// &lt; &gt; &amp; &quot; &apos;, numeric character references, comments
// and processing instructions (skipped). No DTDs, namespaces are kept as
// part of the name.
#ifndef XQTP_XML_PARSER_H_
#define XQTP_XML_PARSER_H_

#include <memory>
#include <string_view>

#include "common/status.h"
#include "xml/document.h"

namespace xqtp::xml {

/// Parses `input` into a Document whose names are interned in `interner`.
[[nodiscard]]
Result<std::unique_ptr<Document>> Parse(std::string_view input,
                                        StringInterner* interner);

}  // namespace xqtp::xml

#endif  // XQTP_XML_PARSER_H_

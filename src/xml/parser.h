// Minimal XML parser producing quickview DOM trees. Supports elements,
// attributes (converted to leading subelements, as the paper treats them),
// character data, CDATA, the five predefined entities, comments and
// processing instructions (skipped). No DTD/namespace processing.
// Element nesting is capped at kMaxNestingDepth: the parser and every
// recursive walk over a parsed document recurse once per level, and a
// document arrives from the network in one Insert frame.
#ifndef QUICKVIEW_XML_PARSER_H_
#define QUICKVIEW_XML_PARSER_H_

#include <memory>
#include <string_view>

#include "common/result.h"
#include "xml/dom.h"

namespace quickview::xml {

/// Deepest element nesting ParseXml accepts; the root element is level 1.
/// An attribute becomes a subelement one level below its element.
inline constexpr int kMaxNestingDepth = 1000;

/// Parses `input` into a Document whose Dewey ids start with
/// `root_component`. Returns ParseError with a byte offset on bad input,
/// and InvalidArgument when elements nest deeper than kMaxNestingDepth.
Result<std::shared_ptr<Document>> ParseXml(std::string_view input,
                                           uint32_t root_component = 1);

}  // namespace quickview::xml

#endif  // QUICKVIEW_XML_PARSER_H_

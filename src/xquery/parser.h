// Recursive-descent parser for the Appendix A grammar. Two entry points:
// ParseQuery for a view definition (function declarations + expression),
// and ParseKeywordQuery for the full "let $view := ... for $v in $view
// where $v ftcontains('k1' & 'k2') return $v" form of paper Fig 2.
// Nesting is capped at kMaxNestingDepth: the parser recurses once per
// level, and a view arrives from the network in one RegisterView frame.
#ifndef QUICKVIEW_XQUERY_PARSER_H_
#define QUICKVIEW_XQUERY_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "xquery/ast.h"

namespace quickview::xquery {

/// Deepest nesting either entry point accepts. Each enclosing construct
/// is one level: a parenthesized expression, an element constructor, a
/// predicate, a function call's argument list, a FLWOR, an if.
inline constexpr int kMaxNestingDepth = 1000;

/// Parses optional `declare function` declarations followed by the main
/// expression. Both entry points return ParseError on malformed input and
/// InvalidArgument when constructs nest deeper than kMaxNestingDepth.
Result<Query> ParseQuery(std::string_view input);

/// Parses a ranked keyword query over a view (Fig 2 shape). Keywords are
/// lowercased; '&' yields conjunctive semantics, '|' disjunctive.
Result<KeywordQuery> ParseKeywordQuery(std::string_view input);

}  // namespace quickview::xquery

#endif  // QUICKVIEW_XQUERY_PARSER_H_

#include "xquery/parser.h"

#include <cctype>

#include "common/strings.h"
#include "xml/tokenizer.h"
#include "xquery/lexer.h"

namespace quickview::xquery {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view input) : lexer_(input) {}

  Result<Query> ParseQueryModule() {
    Query query;
    QV_RETURN_IF_ERROR(ParseFunctionDecls(&query));
    QV_ASSIGN_OR_RETURN(query.body, ParseExprList());
    QV_RETURN_IF_ERROR(ExpectEnd());
    return query;
  }

  Result<KeywordQuery> ParseKeywordQueryModule() {
    KeywordQuery out;
    QV_RETURN_IF_ERROR(ParseFunctionDecls(&out.view));

    // let $view := <view expression>
    if (!(PeekIs(TokenKind::kIdent, "let"))) {
      return Error("keyword query must start with 'let $view := ...'");
    }
    lexer_.Next();
    QV_ASSIGN_OR_RETURN(Token view_var, Expect(TokenKind::kVariable));
    QV_RETURN_IF_ERROR(ExpectKind(TokenKind::kAssign));
    QV_ASSIGN_OR_RETURN(out.view.body, ParseSingle());

    // for $v in $view where $v ftcontains(...) return $v
    QV_RETURN_IF_ERROR(ExpectIdent("for"));
    QV_ASSIGN_OR_RETURN(Token loop_var, Expect(TokenKind::kVariable));
    QV_RETURN_IF_ERROR(ExpectIdent("in"));
    QV_ASSIGN_OR_RETURN(Token bound_var, Expect(TokenKind::kVariable));
    if (bound_var.text != view_var.text) {
      return Error("keyword query must iterate over $" + view_var.text);
    }
    QV_RETURN_IF_ERROR(ExpectIdent("where"));
    QV_ASSIGN_OR_RETURN(Token pred_var, Expect(TokenKind::kVariable));
    if (pred_var.text != loop_var.text) {
      return Error("ftcontains must apply to $" + loop_var.text);
    }
    QV_RETURN_IF_ERROR(ExpectIdent("ftcontains"));
    QV_RETURN_IF_ERROR(ExpectKind(TokenKind::kLParen));
    bool saw_amp = false;
    bool saw_pipe = false;
    // ftcontains() with no keywords is a trivially-true filter.
    while (!PeekIs(TokenKind::kRParen)) {
      QV_ASSIGN_OR_RETURN(Token kw, Expect(TokenKind::kString));
      // A quoted phrase may hold several terms; flatten via the tokenizer
      // so 'XML Search' behaves as two keywords.
      for (std::string& term : xml::Tokenize(kw.text)) {
        out.keywords.push_back(std::move(term));
      }
      if (PeekIs(TokenKind::kAmp)) {
        lexer_.Next();
        saw_amp = true;
        continue;
      }
      if (PeekIs(TokenKind::kPipe)) {
        lexer_.Next();
        saw_pipe = true;
        continue;
      }
      break;
    }
    if (saw_amp && saw_pipe) {
      return Error("mixing '&' and '|' in ftcontains is not supported");
    }
    out.conjunctive = !saw_pipe;
    QV_RETURN_IF_ERROR(ExpectKind(TokenKind::kRParen));
    QV_RETURN_IF_ERROR(ExpectIdent("return"));
    QV_ASSIGN_OR_RETURN(Token ret_var, Expect(TokenKind::kVariable));
    if (ret_var.text != loop_var.text) {
      return Error("keyword query must return $" + loop_var.text);
    }
    QV_RETURN_IF_ERROR(ExpectEnd());
    return out;
  }

 private:
  bool PeekIs(TokenKind kind) { return lexer_.Peek().kind == kind; }
  bool PeekIs(TokenKind kind, std::string_view text) {
    const Token& t = lexer_.Peek();
    return t.kind == kind && t.text == text;
  }

  Status Error(const std::string& message) {
    return Status::ParseError(message + " (at byte " +
                              std::to_string(lexer_.Peek().offset) + ")");
  }

  Result<Token> Expect(TokenKind kind) {
    if (!PeekIs(kind)) {
      return Error("expected " + TokenKindName(kind) + ", found " +
                   TokenKindName(lexer_.Peek().kind));
    }
    return lexer_.Next();
  }

  Status ExpectKind(TokenKind kind) { return Expect(kind).status(); }

  /// One nesting level (see kMaxNestingDepth) for the scope's lifetime.
  class Nesting {
   public:
    explicit Nesting(int* depth) : depth_(depth) { ++*depth_; }
    ~Nesting() { --*depth_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;
    bool too_deep() const { return *depth_ > kMaxNestingDepth; }

   private:
    int* depth_;
  };

  Status TooDeep() {
    return Status::InvalidArgument(
        "expression nesting deeper than " + std::to_string(kMaxNestingDepth) +
        " levels (at byte " + std::to_string(lexer_.Peek().offset) + ")");
  }

  Status ExpectIdent(std::string_view text) {
    if (!PeekIs(TokenKind::kIdent, text)) {
      return Error("expected '" + std::string(text) + "'");
    }
    lexer_.Next();
    return Status::OK();
  }

  Status ExpectEnd() {
    if (!PeekIs(TokenKind::kEnd) || !lexer_.Peek().text.empty()) {
      return Error("unexpected trailing input");
    }
    return Status::OK();
  }

  Status ParseFunctionDecls(Query* query) {
    while (PeekIs(TokenKind::kIdent, "declare")) {
      lexer_.Next();
      QV_RETURN_IF_ERROR(ExpectIdent("function"));
      FunctionDecl decl;
      QV_ASSIGN_OR_RETURN(Token name, Expect(TokenKind::kIdent));
      decl.name = name.text;
      QV_RETURN_IF_ERROR(ExpectKind(TokenKind::kLParen));
      if (!PeekIs(TokenKind::kRParen)) {
        while (true) {
          QV_ASSIGN_OR_RETURN(Token param, Expect(TokenKind::kVariable));
          decl.params.push_back(param.text);
          if (!PeekIs(TokenKind::kComma)) break;
          lexer_.Next();
        }
      }
      QV_RETURN_IF_ERROR(ExpectKind(TokenKind::kRParen));
      QV_RETURN_IF_ERROR(ExpectKind(TokenKind::kLBrace));
      QV_ASSIGN_OR_RETURN(decl.body, ParseExprList());
      QV_RETURN_IF_ERROR(ExpectKind(TokenKind::kRBrace));
      if (query->FindFunction(decl.name) != nullptr) {
        return Error("duplicate function '" + decl.name + "'");
      }
      query->functions.push_back(std::move(decl));
    }
    return Status::OK();
  }

  /// Expr (',' Expr)* — folds multiple items into a SequenceExpr.
  Result<ExprPtr> ParseExprList() {
    QV_ASSIGN_OR_RETURN(ExprPtr first, ParseSingle());
    if (!PeekIs(TokenKind::kComma)) return first;
    auto seq = std::make_unique<SequenceExpr>();
    seq->items.push_back(std::move(first));
    while (PeekIs(TokenKind::kComma)) {
      lexer_.Next();
      QV_ASSIGN_OR_RETURN(ExprPtr next, ParseSingle());
      seq->items.push_back(std::move(next));
    }
    return ExprPtr(std::move(seq));
  }

  Result<ExprPtr> ParseSingle() {
    const Token& t = lexer_.Peek();
    if (t.kind == TokenKind::kIdent && (t.text == "for" || t.text == "let")) {
      return ParseFlwor();
    }
    if (t.kind == TokenKind::kIdent && t.text == "if") return ParseIf();
    if (t.kind == TokenKind::kLt) return ParseElementCtor();
    return ParseComparison();
  }

  Result<ExprPtr> ParseFlwor() {
    Nesting nesting(&depth_);
    if (nesting.too_deep()) return TooDeep();
    auto flwor = std::make_unique<FlworExpr>();
    while (PeekIs(TokenKind::kIdent, "for") ||
           PeekIs(TokenKind::kIdent, "let")) {
      FlworClause clause;
      clause.is_let = lexer_.Next().text == "let";
      QV_ASSIGN_OR_RETURN(Token var, Expect(TokenKind::kVariable));
      clause.var = var.text;
      if (clause.is_let) {
        // Accept both ':=' (XQuery) and 'in' (the paper's grammar writes
        // LetClause with 'in').
        if (PeekIs(TokenKind::kAssign)) {
          lexer_.Next();
        } else {
          QV_RETURN_IF_ERROR(ExpectIdent("in"));
        }
      } else {
        QV_RETURN_IF_ERROR(ExpectIdent("in"));
      }
      // Usually a path expression, but let-clauses may bind constructed
      // content (e.g. let $view := <r>...</r>).
      QV_ASSIGN_OR_RETURN(clause.expr, ParseSingle());
      flwor->clauses.push_back(std::move(clause));
    }
    if (flwor->clauses.empty()) return Error("expected for/let clause");
    if (PeekIs(TokenKind::kIdent, "where")) {
      lexer_.Next();
      QV_ASSIGN_OR_RETURN(flwor->where, ParseComparison());
    }
    QV_RETURN_IF_ERROR(ExpectIdent("return"));
    QV_ASSIGN_OR_RETURN(flwor->ret, ParseSingle());
    return ExprPtr(std::move(flwor));
  }

  Result<ExprPtr> ParseIf() {
    Nesting nesting(&depth_);
    if (nesting.too_deep()) return TooDeep();
    QV_RETURN_IF_ERROR(ExpectIdent("if"));
    auto out = std::make_unique<IfExpr>();
    QV_ASSIGN_OR_RETURN(out->cond, ParseSingle());
    QV_RETURN_IF_ERROR(ExpectIdent("then"));
    QV_ASSIGN_OR_RETURN(out->then_branch, ParseSingle());
    QV_RETURN_IF_ERROR(ExpectIdent("else"));
    QV_ASSIGN_OR_RETURN(out->else_branch, ParseSingle());
    return ExprPtr(std::move(out));
  }

  Result<ExprPtr> ParseElementCtor() {
    Nesting nesting(&depth_);
    if (nesting.too_deep()) return TooDeep();
    QV_RETURN_IF_ERROR(ExpectKind(TokenKind::kLt));
    QV_ASSIGN_OR_RETURN(Token tag, Expect(TokenKind::kIdent));
    QV_RETURN_IF_ERROR(ExpectKind(TokenKind::kGt));
    auto ctor = std::make_unique<ElementCtorExpr>(tag.text);
    while (true) {
      std::string raw = lexer_.ReadRawContent();
      std::string trimmed = TrimCtorText(raw);
      if (!trimmed.empty()) {
        ctor->children.push_back(std::make_unique<LiteralExpr>(trimmed));
      }
      const Token& next = lexer_.Peek();
      if (next.kind == TokenKind::kLBrace) {
        lexer_.Next();
        QV_ASSIGN_OR_RETURN(ExprPtr child, ParseExprList());
        QV_RETURN_IF_ERROR(ExpectKind(TokenKind::kRBrace));
        ctor->children.push_back(std::move(child));
        continue;
      }
      if (next.kind == TokenKind::kLt) {
        if (lexer_.Peek(1).kind == TokenKind::kSlash) {
          lexer_.Next();  // '<'
          lexer_.Next();  // '/'
          QV_ASSIGN_OR_RETURN(Token end_tag, Expect(TokenKind::kIdent));
          if (end_tag.text != ctor->tag) {
            return Error("mismatched constructor end tag </" + end_tag.text +
                         ">");
          }
          QV_RETURN_IF_ERROR(ExpectKind(TokenKind::kGt));
          return ExprPtr(std::move(ctor));
        }
        QV_ASSIGN_OR_RETURN(ExprPtr child, ParseElementCtor());
        ctor->children.push_back(std::move(child));
        continue;
      }
      return Error("unterminated element constructor <" + ctor->tag + ">");
    }
  }

  /// Trims whitespace and drops separator-only runs (Fig 2 writes commas
  /// between constructor children).
  static std::string TrimCtorText(const std::string& raw) {
    size_t begin = 0;
    size_t end = raw.size();
    auto skippable = [](char c) {
      return std::isspace(static_cast<unsigned char>(c)) || c == ',';
    };
    while (begin < end && skippable(raw[begin])) ++begin;
    while (end > begin && skippable(raw[end - 1])) --end;
    return raw.substr(begin, end - begin);
  }

  Result<ExprPtr> ParseComparison() {
    QV_ASSIGN_OR_RETURN(ExprPtr left, ParsePathOrPrimary());
    const Token& t = lexer_.Peek();
    CompOp op;
    if (t.kind == TokenKind::kEq) {
      op = CompOp::kEq;
    } else if (t.kind == TokenKind::kLt) {
      // '<' here could open an element constructor in a return clause;
      // comparisons never have a constructor on the right, and a '<'
      // followed by IDENT '>' is ambiguous — the grammar resolves it in
      // favor of comparison only after a path expression, which is the
      // only left operand the grammar allows.
      op = CompOp::kLt;
    } else if (t.kind == TokenKind::kGt) {
      op = CompOp::kGt;
    } else {
      return left;
    }
    lexer_.Next();
    auto cmp = std::make_unique<ComparisonExpr>();
    cmp->left = std::move(left);
    cmp->op = op;
    QV_ASSIGN_OR_RETURN(cmp->right, ParsePathOrPrimary());
    return ExprPtr(std::move(cmp));
  }

  static bool IsReservedWord(const std::string& word) {
    static const char* const kReserved[] = {
        "for",    "let",  "where",   "return",   "if",        "then",
        "else",   "in",   "declare", "function", "ftcontains"};
    for (const char* r : kReserved) {
      if (word == r) return true;
    }
    return false;
  }

  /// Parses `[PredExpr]*` into `out`.
  Status ParsePredicates(std::vector<ExprPtr>* out) {
    while (PeekIs(TokenKind::kLBracket)) {
      Nesting nesting(&depth_);
      if (nesting.too_deep()) return TooDeep();
      lexer_.Next();
      QV_ASSIGN_OR_RETURN(ExprPtr pred, ParseComparison());
      QV_RETURN_IF_ERROR(ExpectKind(TokenKind::kRBracket));
      out->push_back(std::move(pred));
    }
    return Status::OK();
  }

  // Recursion below runs through ParsePathOrPrimary and ParsePrimary
  // once per nesting level. Their rarer branches live in separate
  // out-of-line functions: a sanitizer build gives every local of every
  // inlined branch its own stack slot, and kMaxNestingDepth levels must
  // still fit a default 8 MiB thread stack there.

  Result<ExprPtr> ParsePathOrPrimary() {
    // A bare tag (inside predicates: book[year > 1995]) abbreviates a
    // context-relative child step, ./tag.
    const bool bare_tag_path =
        PeekIs(TokenKind::kIdent) && !IsReservedWord(lexer_.Peek().text) &&
        lexer_.Peek().text != "fn:doc" &&
        lexer_.Peek(1).kind != TokenKind::kLParen;
    if (bare_tag_path) {
      return ParsePath(std::make_unique<ContextExpr>(), /*bare_tag=*/true);
    }
    QV_ASSIGN_OR_RETURN(ExprPtr source, ParsePrimary());
    if (source->kind == ExprKind::kLiteral) return source;
    const bool continues = PeekIs(TokenKind::kSlash) ||
                           PeekIs(TokenKind::kSlashSlash) ||
                           PeekIs(TokenKind::kLBracket);
    if (!continues) return source;
    if (source->kind != ExprKind::kDoc && source->kind != ExprKind::kVar &&
        source->kind != ExprKind::kContext) {
      return source;  // parenthesized subexpression etc.
    }
    return ParsePath(std::move(source), /*bare_tag=*/false);
  }

  /// The predicates and steps after `source`; a `bare_tag` path starts
  /// with an unslashed tag step.
  [[gnu::noinline]] Result<ExprPtr> ParsePath(ExprPtr source, bool bare_tag) {
    auto path = std::make_unique<PathExpr>();
    path->source = std::move(source);
    QV_RETURN_IF_ERROR(ParsePredicates(&path->predicates));
    if (bare_tag) {
      PathStepAst step;
      QV_ASSIGN_OR_RETURN(Token tag, Expect(TokenKind::kIdent));
      step.tag = tag.text;
      QV_RETURN_IF_ERROR(ParsePredicates(&step.predicates));
      path->steps.push_back(std::move(step));
    }
    while (PeekIs(TokenKind::kSlash) || PeekIs(TokenKind::kSlashSlash)) {
      PathStepAst step;
      step.descendant = lexer_.Next().kind == TokenKind::kSlashSlash;
      QV_ASSIGN_OR_RETURN(Token tag, Expect(TokenKind::kIdent));
      step.tag = tag.text;
      QV_RETURN_IF_ERROR(ParsePredicates(&step.predicates));
      path->steps.push_back(std::move(step));
    }
    // Collapse a bare source with no steps/predicates back to the source.
    if (path->steps.empty() && path->predicates.empty()) {
      return std::move(path->source);
    }
    return ExprPtr(std::move(path));
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = lexer_.Peek();
    switch (t.kind) {
      case TokenKind::kVariable: {
        Token var = lexer_.Next();
        return ExprPtr(std::make_unique<VarExpr>(var.text));
      }
      case TokenKind::kDot:
        lexer_.Next();
        return ExprPtr(std::make_unique<ContextExpr>());
      case TokenKind::kLParen: {
        Nesting nesting(&depth_);
        if (nesting.too_deep()) return TooDeep();
        lexer_.Next();
        if (PeekIs(TokenKind::kRParen)) {  // empty sequence ()
          lexer_.Next();
          return ExprPtr(std::make_unique<SequenceExpr>());
        }
        QV_ASSIGN_OR_RETURN(ExprPtr inner, ParseExprList());
        QV_RETURN_IF_ERROR(ExpectKind(TokenKind::kRParen));
        return inner;
      }
      default:
        return ParseLiteralOrCall();
    }
  }

  /// Literals, fn:doc() and function calls.
  [[gnu::noinline]] Result<ExprPtr> ParseLiteralOrCall() {
    const Token& t = lexer_.Peek();
    switch (t.kind) {
      case TokenKind::kString: {
        Token lit = lexer_.Next();
        return ExprPtr(std::make_unique<LiteralExpr>(lit.text));
      }
      case TokenKind::kNumber: {
        Token lit = lexer_.Next();
        return ExprPtr(std::make_unique<LiteralExpr>(lit.number, lit.text));
      }
      case TokenKind::kIdent: {
        if (t.text == "fn:doc") {
          lexer_.Next();
          QV_RETURN_IF_ERROR(ExpectKind(TokenKind::kLParen));
          const Token& name = lexer_.Peek();
          if (name.kind != TokenKind::kIdent &&
              name.kind != TokenKind::kString) {
            return Error("expected document name in fn:doc()");
          }
          std::string doc_name = lexer_.Next().text;
          QV_RETURN_IF_ERROR(ExpectKind(TokenKind::kRParen));
          return ExprPtr(std::make_unique<DocExpr>(std::move(doc_name)));
        }
        if (lexer_.Peek(1).kind == TokenKind::kLParen) {
          Nesting nesting(&depth_);
          if (nesting.too_deep()) return TooDeep();
          Token name = lexer_.Next();
          lexer_.Next();  // '('
          auto call = std::make_unique<FunctionCallExpr>(name.text);
          if (!PeekIs(TokenKind::kRParen)) {
            while (true) {
              QV_ASSIGN_OR_RETURN(ExprPtr arg, ParseComparison());
              call->args.push_back(std::move(arg));
              if (!PeekIs(TokenKind::kComma)) break;
              lexer_.Next();
            }
          }
          QV_RETURN_IF_ERROR(ExpectKind(TokenKind::kRParen));
          return ExprPtr(std::move(call));
        }
        return Error("unexpected identifier '" + t.text + "'");
      }
      default:
        return Error("unexpected token " + TokenKindName(t.kind));
    }
  }

  Lexer lexer_;
  /// Constructs currently open around the parse position.
  int depth_ = 0;
};

}  // namespace

Result<Query> ParseQuery(std::string_view input) {
  return Parser(input).ParseQueryModule();
}

Result<KeywordQuery> ParseKeywordQuery(std::string_view input) {
  return Parser(input).ParseKeywordQueryModule();
}

}  // namespace quickview::xquery

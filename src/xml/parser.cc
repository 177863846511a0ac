#include "xml/parser.h"

#include <cctype>
#include <string>

namespace quickview::xml {

namespace {

class Parser {
 public:
  Parser(std::string_view input, uint32_t root_component)
      : input_(input), doc_(std::make_shared<Document>(root_component)) {}

  Result<std::shared_ptr<Document>> Run() {
    SkipProlog();
    if (AtEnd() || Peek() != '<') {
      return Error("expected root element");
    }
    QV_RETURN_IF_ERROR(ParseElement(kInvalidNode, 1));
    SkipMisc();
    if (!AtEnd()) return Error("trailing content after root element");
    return doc_;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char PeekAt(size_t offset) const {
    return pos_ + offset < input_.size() ? input_[pos_ + offset] : '\0';
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at byte " + std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (!AtEnd() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  bool TryConsume(std::string_view token) {
    if (input_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  void SkipUntil(std::string_view token) {
    size_t found = input_.find(token, pos_);
    pos_ = found == std::string_view::npos ? input_.size()
                                           : found + token.size();
  }

  void SkipProlog() {
    SkipWhitespace();
    while (!AtEnd()) {
      if (TryConsume("<?")) {
        SkipUntil("?>");
      } else if (TryConsume("<!--")) {
        SkipUntil("-->");
      } else if (TryConsume("<!DOCTYPE")) {
        SkipUntil(">");
      } else {
        break;
      }
      SkipWhitespace();
    }
  }

  void SkipMisc() {
    SkipWhitespace();
    while (!AtEnd()) {
      if (TryConsume("<?")) {
        SkipUntil("?>");
      } else if (TryConsume("<!--")) {
        SkipUntil("-->");
      } else {
        break;
      }
      SkipWhitespace();
    }
  }

  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  }
  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':' || c == '-' || c == '.';
  }

  Result<std::string> ParseName() {
    if (AtEnd() || !IsNameStart(Peek())) return Error("expected name");
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    return std::string(input_.substr(start, pos_ - start));
  }

  /// Decodes predefined entities in `raw` into `out`.
  Status AppendDecoded(std::string_view raw, std::string* out) {
    size_t i = 0;
    while (i < raw.size()) {
      if (raw[i] != '&') {
        out->push_back(raw[i++]);
        continue;
      }
      size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) {
        return Status::ParseError("unterminated entity reference");
      }
      std::string_view entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "amp") {
        out->push_back('&');
      } else if (entity == "lt") {
        out->push_back('<');
      } else if (entity == "gt") {
        out->push_back('>');
      } else if (entity == "quot") {
        out->push_back('"');
      } else if (entity == "apos") {
        out->push_back('\'');
      } else if (!entity.empty() && entity[0] == '#') {
        uint32_t code = 0;
        if (entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X')) {
          for (size_t j = 2; j < entity.size(); ++j) {
            code = code * 16 +
                   static_cast<uint32_t>(
                       std::isdigit(static_cast<unsigned char>(entity[j]))
                           ? entity[j] - '0'
                           : std::tolower(entity[j]) - 'a' + 10);
          }
        } else {
          for (size_t j = 1; j < entity.size(); ++j) {
            code = code * 10 + static_cast<uint32_t>(entity[j] - '0');
          }
        }
        // ASCII only; others replaced with '?'.
        out->push_back(code < 128 ? static_cast<char>(code) : '?');
      } else {
        return Status::ParseError("unknown entity &" + std::string(entity) +
                                  ";");
      }
      i = semi + 1;
    }
    return Status::OK();
  }

  /// Parses the element at `pos_`, which sits `depth` levels deep.
  Status ParseElement(NodeIndex parent, int depth) {
    if (depth > kMaxNestingDepth) {
      return Status::InvalidArgument(
          "element nesting deeper than " + std::to_string(kMaxNestingDepth) +
          " levels at byte " + std::to_string(pos_));
    }
    if (!TryConsume("<")) return Error("expected '<'");
    QV_ASSIGN_OR_RETURN(std::string tag, ParseName());

    NodeIndex self = parent == kInvalidNode
                         ? doc_->CreateRoot(std::move(tag))
                         : doc_->AddChild(parent, std::move(tag));

    // Attributes become leading subelements (paper §2.1).
    while (true) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag");
      if (Peek() == '>' || Peek() == '/') break;
      QV_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      SkipWhitespace();
      if (!TryConsume("=")) return Error("expected '=' in attribute");
      SkipWhitespace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected quoted attribute value");
      }
      char quote = Peek();
      ++pos_;
      size_t start = pos_;
      while (!AtEnd() && Peek() != quote) ++pos_;
      if (AtEnd()) return Error("unterminated attribute value");
      std::string_view raw = input_.substr(start, pos_ - start);
      ++pos_;
      NodeIndex attr = doc_->AddChild(self, std::move(attr_name));
      QV_RETURN_IF_ERROR(AppendDecoded(raw, &doc_->node(attr).text));
    }

    if (TryConsume("/>")) return Status::OK();
    if (!TryConsume(">")) return Error("expected '>'");

    // Content: text, children, comments, CDATA, end tag.
    while (true) {
      if (AtEnd()) return Error("unterminated element");
      if (Peek() == '<') {
        if (TryConsume("<!--")) {
          SkipUntil("-->");
          continue;
        }
        if (TryConsume("<![CDATA[")) {
          size_t start = pos_;
          size_t end = input_.find("]]>", pos_);
          if (end == std::string_view::npos) {
            return Error("unterminated CDATA");
          }
          doc_->node(self).text.append(input_.substr(start, end - start));
          pos_ = end + 3;
          continue;
        }
        if (TryConsume("<?")) {
          SkipUntil("?>");
          continue;
        }
        if (PeekAt(1) == '/') {
          pos_ += 2;
          QV_ASSIGN_OR_RETURN(std::string end_tag, ParseName());
          SkipWhitespace();
          if (!TryConsume(">")) return Error("expected '>' in end tag");
          if (end_tag != doc_->node(self).tag) {
            return Error("mismatched end tag </" + end_tag + ">");
          }
          return Status::OK();
        }
        QV_RETURN_IF_ERROR(ParseElement(self, depth + 1));
        continue;
      }
      size_t start = pos_;
      while (!AtEnd() && Peek() != '<') ++pos_;
      std::string decoded;
      QV_RETURN_IF_ERROR(AppendDecoded(
          TrimText(input_.substr(start, pos_ - start)), &decoded));
      if (!decoded.empty()) {
        // Text runs separated by child elements join with one space.
        std::string& text = doc_->node(self).text;
        if (!text.empty()) text.push_back(' ');
        text.append(decoded);
      }
    }
  }

  /// Collapses pure-whitespace runs; keeps interior text as-is.
  static std::string_view TrimText(std::string_view text) {
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin]))) {
      ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1]))) {
      --end;
    }
    return text.substr(begin, end - begin);
  }

  std::string_view input_;
  size_t pos_ = 0;
  std::shared_ptr<Document> doc_;
};

}  // namespace

Result<std::shared_ptr<Document>> ParseXml(std::string_view input,
                                           uint32_t root_component) {
  return Parser(input, root_component).Run();
}

}  // namespace quickview::xml

// XML DOM for annotation contents (Dublin Core + user-defined tags).
#ifndef GRAPHITTI_XML_XML_NODE_H_
#define GRAPHITTI_XML_XML_NODE_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace graphitti {
namespace xml {

enum class XmlNodeType { kElement, kText, kComment, kCData };

/// One node of an XML tree. Elements own their children; text/comment/CDATA
/// nodes are leaves. The annotation store and a-graph reference individual
/// XML nodes, so nodes expose stable pre-order indexes via XmlDocument.
class XmlNode {
 public:
  static std::unique_ptr<XmlNode> Element(std::string tag);
  static std::unique_ptr<XmlNode> Text(std::string text);
  static std::unique_ptr<XmlNode> Comment(std::string text);
  static std::unique_ptr<XmlNode> CData(std::string text);

  XmlNodeType type() const { return type_; }
  bool is_element() const { return type_ == XmlNodeType::kElement; }
  bool is_text() const { return type_ == XmlNodeType::kText || type_ == XmlNodeType::kCData; }

  /// Element tag name, e.g. "dc:subject". Empty for non-elements.
  const std::string& tag() const { return tag_; }
  /// Text content for text/comment/CDATA nodes.
  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  // --- Attributes (elements only; insertion-ordered) ---
  const std::vector<std::pair<std::string, std::string>>& attributes() const {
    return attributes_;
  }
  /// Returns the attribute value or nullptr if absent.
  const std::string* FindAttribute(std::string_view name) const;
  void SetAttribute(std::string_view name, std::string_view value);
  /// Appends without the existing-name scan or value copy — for callers
  /// (the parser) that already checked for duplicates.
  void AppendAttribute(std::string name, std::string value);

  // --- Tree structure ---
  XmlNode* parent() const { return parent_; }
  const std::vector<std::unique_ptr<XmlNode>>& children() const { return children_; }
  /// Appends `child` and returns a borrowed pointer to it.
  XmlNode* AddChild(std::unique_ptr<XmlNode> child);
  /// Convenience: append <tag/> and return it.
  XmlNode* AddElement(std::string tag);
  /// Convenience: append a text node and return it.
  XmlNode* AddText(std::string text);
  /// Convenience: append <tag>text</tag> and return the element. Empty
  /// text adds no text node, as the parser never produces one, so the
  /// element serializes as <tag/> and survives a parse round trip.
  XmlNode* AddElementWithText(std::string tag, std::string text);

  /// First child element with the given tag, or nullptr.
  const XmlNode* FirstChildElement(std::string_view tag) const;
  XmlNode* FirstChildElement(std::string_view tag);
  /// All child elements with the given tag ("*" matches any).
  std::vector<const XmlNode*> ChildElements(std::string_view tag) const;

  /// Concatenated text of all descendant text nodes.
  std::string InnerText() const;
  /// InnerText appended into a caller-owned buffer (no temporaries).
  void AppendInnerText(std::string* out) const;

  /// Number of nodes in this subtree (including this node).
  size_t SubtreeSize() const;

  /// Deep copy.
  std::unique_ptr<XmlNode> Clone() const;

  /// Serializes this subtree. `pretty` adds indentation and newlines.
  std::string ToString(bool pretty = true) const;

 private:
  XmlNode(XmlNodeType type, std::string tag_or_text);

  void Serialize(std::string* out, int depth, bool pretty) const;

  XmlNodeType type_;
  std::string tag_;   // elements
  std::string text_;  // text/comment/cdata
  std::vector<std::pair<std::string, std::string>> attributes_;
  std::vector<std::unique_ptr<XmlNode>> children_;
  XmlNode* parent_ = nullptr;
};

/// Escapes &, <, > (and " when `in_attribute`) for serialization.
std::string EscapeXml(std::string_view raw, bool in_attribute = false);

/// An XML document: a single root element plus node-indexing helpers.
class XmlDocument {
 public:
  XmlDocument() = default;
  explicit XmlDocument(std::unique_ptr<XmlNode> root) : root_(std::move(root)) {}

  XmlDocument(XmlDocument&&) = default;
  XmlDocument& operator=(XmlDocument&&) = default;

  bool empty() const { return root_ == nullptr; }
  const XmlNode* root() const { return root_.get(); }
  XmlNode* root() { return root_.get(); }
  void set_root(std::unique_ptr<XmlNode> root) { root_ = std::move(root); }

  std::string ToString(bool pretty = true) const;

  /// Pre-order index of `node` within this document (root == 0), or -1 if the
  /// node does not belong to this document. Stable as long as the tree shape
  /// is unchanged; the a-graph uses these indexes to address XML nodes.
  int64_t PreOrderIndex(const XmlNode* node) const;

  /// Inverse of PreOrderIndex. Returns nullptr when out of range.
  const XmlNode* NodeAt(int64_t pre_order_index) const;

  /// Total node count.
  size_t size() const { return root_ ? root_->SubtreeSize() : 0; }

  XmlDocument Clone() const {
    return root_ ? XmlDocument(root_->Clone()) : XmlDocument();
  }

 private:
  std::unique_ptr<XmlNode> root_;
};

}  // namespace xml
}  // namespace graphitti

#endif  // GRAPHITTI_XML_XML_NODE_H_

#include "xml/xml_node.h"

namespace graphitti {
namespace xml {

XmlNode::XmlNode(XmlNodeType type, std::string tag_or_text) : type_(type) {
  if (type == XmlNodeType::kElement) {
    tag_ = std::move(tag_or_text);
  } else {
    text_ = std::move(tag_or_text);
  }
}

std::unique_ptr<XmlNode> XmlNode::Element(std::string tag) {
  return std::unique_ptr<XmlNode>(new XmlNode(XmlNodeType::kElement, std::move(tag)));
}
std::unique_ptr<XmlNode> XmlNode::Text(std::string text) {
  return std::unique_ptr<XmlNode>(new XmlNode(XmlNodeType::kText, std::move(text)));
}
std::unique_ptr<XmlNode> XmlNode::Comment(std::string text) {
  return std::unique_ptr<XmlNode>(new XmlNode(XmlNodeType::kComment, std::move(text)));
}
std::unique_ptr<XmlNode> XmlNode::CData(std::string text) {
  return std::unique_ptr<XmlNode>(new XmlNode(XmlNodeType::kCData, std::move(text)));
}

const std::string* XmlNode::FindAttribute(std::string_view name) const {
  for (const auto& [k, v] : attributes_) {
    if (k == name) return &v;
  }
  return nullptr;
}

void XmlNode::SetAttribute(std::string_view name, std::string_view value) {
  for (auto& [k, v] : attributes_) {
    if (k == name) {
      v = std::string(value);
      return;
    }
  }
  attributes_.emplace_back(std::string(name), std::string(value));
}

void XmlNode::AppendAttribute(std::string name, std::string value) {
  // Elements with attributes usually carry several (referent-refs have
  // 6+); one up-front reservation beats three vector doublings.
  if (attributes_.capacity() == 0) attributes_.reserve(4);
  attributes_.emplace_back(std::move(name), std::move(value));
}

XmlNode* XmlNode::AddChild(std::unique_ptr<XmlNode> child) {
  child->parent_ = this;
  children_.push_back(std::move(child));
  return children_.back().get();
}

XmlNode* XmlNode::AddElement(std::string tag) { return AddChild(Element(std::move(tag))); }

XmlNode* XmlNode::AddText(std::string text) { return AddChild(Text(std::move(text))); }

XmlNode* XmlNode::AddElementWithText(std::string tag, std::string text) {
  XmlNode* elem = AddElement(std::move(tag));
  if (!text.empty()) elem->AddText(std::move(text));
  return elem;
}

const XmlNode* XmlNode::FirstChildElement(std::string_view tag) const {
  for (const auto& child : children_) {
    if (child->is_element() && (tag == "*" || child->tag_ == tag)) return child.get();
  }
  return nullptr;
}

XmlNode* XmlNode::FirstChildElement(std::string_view tag) {
  return const_cast<XmlNode*>(
      static_cast<const XmlNode*>(this)->FirstChildElement(tag));
}

std::vector<const XmlNode*> XmlNode::ChildElements(std::string_view tag) const {
  std::vector<const XmlNode*> out;
  for (const auto& child : children_) {
    if (child->is_element() && (tag == "*" || child->tag_ == tag)) out.push_back(child.get());
  }
  return out;
}

std::string XmlNode::InnerText() const {
  // Fast path for the overwhelmingly common <tag>text</tag> shape.
  if (children_.size() == 1 && children_[0]->is_text()) return children_[0]->text_;
  std::string out;
  AppendInnerText(&out);
  return out;
}

void XmlNode::AppendInnerText(std::string* out) const {
  if (is_text()) out->append(text_);
  for (const auto& child : children_) child->AppendInnerText(out);
}

size_t XmlNode::SubtreeSize() const {
  size_t n = 1;
  for (const auto& child : children_) n += child->SubtreeSize();
  return n;
}

std::unique_ptr<XmlNode> XmlNode::Clone() const {
  std::unique_ptr<XmlNode> copy(new XmlNode(type_, is_element() ? tag_ : text_));
  copy->attributes_ = attributes_;
  for (const auto& child : children_) {
    copy->AddChild(child->Clone());
  }
  return copy;
}

std::string EscapeXml(std::string_view raw, bool in_attribute) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
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
        if (in_attribute) {
          out += "&quot;";
        } else {
          out.push_back(c);
        }
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

void XmlNode::Serialize(std::string* out, int depth, bool pretty) const {
  auto indent = [&]() {
    if (pretty) out->append(static_cast<size_t>(depth) * 2, ' ');
  };
  switch (type_) {
    case XmlNodeType::kText:
      indent();
      out->append(EscapeXml(text_));
      if (pretty) out->push_back('\n');
      return;
    case XmlNodeType::kComment:
      indent();
      out->append("<!--");
      out->append(text_);
      out->append("-->");
      if (pretty) out->push_back('\n');
      return;
    case XmlNodeType::kCData:
      indent();
      out->append("<![CDATA[");
      out->append(text_);
      out->append("]]>");
      if (pretty) out->push_back('\n');
      return;
    case XmlNodeType::kElement:
      break;
  }
  indent();
  out->push_back('<');
  out->append(tag_);
  for (const auto& [k, v] : attributes_) {
    out->push_back(' ');
    out->append(k);
    out->append("=\"");
    out->append(EscapeXml(v, /*in_attribute=*/true));
    out->push_back('"');
  }
  if (children_.empty()) {
    out->append("/>");
    if (pretty) out->push_back('\n');
    return;
  }
  // Inline a single text child: <tag>text</tag>.
  if (children_.size() == 1 && children_[0]->is_text()) {
    out->push_back('>');
    out->append(EscapeXml(children_[0]->text()));
    out->append("</");
    out->append(tag_);
    out->push_back('>');
    if (pretty) out->push_back('\n');
    return;
  }
  out->push_back('>');
  if (pretty) out->push_back('\n');
  for (const auto& child : children_) {
    child->Serialize(out, depth + 1, pretty);
  }
  indent();
  out->append("</");
  out->append(tag_);
  out->push_back('>');
  if (pretty) out->push_back('\n');
}

std::string XmlNode::ToString(bool pretty) const {
  std::string out;
  Serialize(&out, 0, pretty);
  return out;
}

std::string XmlDocument::ToString(bool pretty) const {
  return root_ ? root_->ToString(pretty) : std::string();
}

namespace {

// Pre-order walk; returns true when `target` found, accumulating index.
bool FindPreOrder(const XmlNode* node, const XmlNode* target, int64_t* counter) {
  if (node == target) return true;
  ++*counter;
  for (const auto& child : node->children()) {
    if (FindPreOrder(child.get(), target, counter)) return true;
  }
  return false;
}

const XmlNode* WalkTo(const XmlNode* node, int64_t* remaining) {
  if (*remaining == 0) return node;
  --*remaining;
  for (const auto& child : node->children()) {
    const XmlNode* found = WalkTo(child.get(), remaining);
    if (found != nullptr) return found;
  }
  return nullptr;
}

}  // namespace

int64_t XmlDocument::PreOrderIndex(const XmlNode* node) const {
  if (root_ == nullptr || node == nullptr) return -1;
  int64_t counter = 0;
  if (FindPreOrder(root_.get(), node, &counter)) return counter;
  return -1;
}

const XmlNode* XmlDocument::NodeAt(int64_t pre_order_index) const {
  if (root_ == nullptr || pre_order_index < 0) return nullptr;
  int64_t remaining = pre_order_index;
  return WalkTo(root_.get(), &remaining);
}

}  // namespace xml
}  // namespace graphitti

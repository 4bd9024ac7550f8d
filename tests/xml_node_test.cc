#include <gtest/gtest.h>

#include "xml/xml_node.h"
#include "xml/xml_parser.h"

namespace graphitti {
namespace xml {
namespace {

std::unique_ptr<XmlNode> MakeSample() {
  auto root = XmlNode::Element("annotation");
  root->SetAttribute("id", "7");
  root->AddElementWithText("dc:title", "Observation");
  XmlNode* body = root->AddElement("body");
  body->AddText("protease cleavage site");
  XmlNode* ref = root->AddElement("referent-ref");
  ref->SetAttribute("type", "interval");
  ref->SetAttribute("domain", "flu:seg4");
  return root;
}

TEST(XmlNodeTest, ElementBasics) {
  auto root = MakeSample();
  EXPECT_TRUE(root->is_element());
  EXPECT_EQ(root->tag(), "annotation");
  EXPECT_EQ(root->children().size(), 3u);
  ASSERT_NE(root->FindAttribute("id"), nullptr);
  EXPECT_EQ(*root->FindAttribute("id"), "7");
  EXPECT_EQ(root->FindAttribute("missing"), nullptr);
}

TEST(XmlNodeTest, SetAttributeOverwrites) {
  auto e = XmlNode::Element("x");
  e->SetAttribute("a", "1");
  e->SetAttribute("a", "2");
  EXPECT_EQ(*e->FindAttribute("a"), "2");
  EXPECT_EQ(e->attributes().size(), 1u);
}

TEST(XmlNodeTest, ParentPointersAreWired) {
  auto root = MakeSample();
  for (const auto& child : root->children()) {
    EXPECT_EQ(child->parent(), root.get());
  }
}

TEST(XmlNodeTest, FirstChildElementAndWildcards) {
  auto root = MakeSample();
  EXPECT_NE(root->FirstChildElement("body"), nullptr);
  EXPECT_EQ(root->FirstChildElement("nope"), nullptr);
  EXPECT_EQ(root->FirstChildElement("*")->tag(), "dc:title");
  EXPECT_EQ(root->ChildElements("*").size(), 3u);
}

TEST(XmlNodeTest, InnerTextConcatenatesDescendants) {
  auto root = MakeSample();
  EXPECT_EQ(root->InnerText(), "Observationprotease cleavage site");
}

TEST(XmlNodeTest, SubtreeSizeCountsAllNodes) {
  auto root = MakeSample();
  // annotation + dc:title + text + body + text + referent-ref = 6
  EXPECT_EQ(root->SubtreeSize(), 6u);
}

TEST(XmlNodeTest, CloneIsDeepAndIndependent) {
  auto root = MakeSample();
  auto copy = root->Clone();
  EXPECT_EQ(copy->ToString(), root->ToString());
  copy->SetAttribute("id", "99");
  EXPECT_EQ(*root->FindAttribute("id"), "7");
}

TEST(XmlNodeTest, EmptyTextElementSurvivesParseRoundTrip) {
  // The parser yields a childless element for <x></x>, so empty text must
  // not add a text node either: the serialized form stays fixed under
  // parse-then-serialize.
  auto root = XmlNode::Element("r");
  XmlNode* x = root->AddElementWithText("x", "");
  EXPECT_TRUE(x->children().empty());
  EXPECT_EQ(x->ToString(false), "<x/>");
  const std::string serialized = root->ToString(false);
  EXPECT_EQ(serialized, "<r><x/></r>");
  auto parsed = ParseXml(serialized);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ToString(false), serialized);
}

TEST(XmlNodeTest, SerializationEscapesSpecials) {
  auto e = XmlNode::Element("t");
  e->SetAttribute("a", "x\"<>&");
  e->AddText("a<b & c>d");
  std::string s = e->ToString(false);
  EXPECT_NE(s.find("&quot;"), std::string::npos);
  EXPECT_NE(s.find("&lt;b &amp; c&gt;"), std::string::npos);
}

TEST(XmlNodeTest, SelfClosingEmptyElement) {
  auto e = XmlNode::Element("empty");
  EXPECT_EQ(e->ToString(false), "<empty/>");
}

TEST(XmlNodeTest, SingleTextChildInlined) {
  auto e = XmlNode::Element("t");
  e->AddText("v");
  EXPECT_EQ(e->ToString(false), "<t>v</t>");
}

TEST(XmlNodeTest, CommentAndCDataSerialization) {
  auto e = XmlNode::Element("t");
  e->AddChild(XmlNode::Comment(" note "));
  e->AddChild(XmlNode::CData("<raw>&"));
  std::string s = e->ToString(false);
  EXPECT_NE(s.find("<!-- note -->"), std::string::npos);
  EXPECT_NE(s.find("<![CDATA[<raw>&]]>"), std::string::npos);
}

TEST(XmlDocumentTest, EmptyDocument) {
  XmlDocument doc;
  EXPECT_TRUE(doc.empty());
  EXPECT_EQ(doc.size(), 0u);
  EXPECT_EQ(doc.ToString(), "");
  EXPECT_EQ(doc.PreOrderIndex(nullptr), -1);
  EXPECT_EQ(doc.NodeAt(0), nullptr);
}

TEST(XmlDocumentTest, PreOrderIndexRoundTrip) {
  XmlDocument doc(MakeSample());
  // Every node's index maps back to the same node.
  for (int64_t i = 0; i < static_cast<int64_t>(doc.size()); ++i) {
    const XmlNode* n = doc.NodeAt(i);
    ASSERT_NE(n, nullptr) << "index " << i;
    EXPECT_EQ(doc.PreOrderIndex(n), i);
  }
  EXPECT_EQ(doc.NodeAt(static_cast<int64_t>(doc.size())), nullptr);
}

TEST(XmlDocumentTest, RootIsIndexZero) {
  XmlDocument doc(MakeSample());
  EXPECT_EQ(doc.PreOrderIndex(doc.root()), 0);
  EXPECT_EQ(doc.NodeAt(0), doc.root());
}

TEST(XmlDocumentTest, ForeignNodeHasNoIndex) {
  XmlDocument doc(MakeSample());
  auto other = XmlNode::Element("other");
  EXPECT_EQ(doc.PreOrderIndex(other.get()), -1);
}

TEST(XmlDocumentTest, CloneProducesEqualSerialization) {
  XmlDocument doc(MakeSample());
  XmlDocument copy = doc.Clone();
  EXPECT_EQ(copy.ToString(), doc.ToString());
}

TEST(EscapeXmlTest, AttributeVsTextMode) {
  EXPECT_EQ(EscapeXml("a\"b", false), "a\"b");
  EXPECT_EQ(EscapeXml("a\"b", true), "a&quot;b");
  EXPECT_EQ(EscapeXml("<&>", false), "&lt;&amp;&gt;");
}

}  // namespace
}  // namespace xml
}  // namespace graphitti

#include "annotation/annotation.h"

#include <cstdio>

#include "util/string_util.h"
#include "xml/xml_parser.h"

namespace graphitti {
namespace annotation {

const xml::XmlDocument& Content::dom() const {
  std::call_once(parsed_, [this] {
    util::Result<xml::XmlDocument> doc = xml::ParseXml(xml_);
    if (doc.ok()) dom_ = std::move(*doc);
  });
  return dom_;
}

AnnotationBuilder& AnnotationBuilder::Title(std::string v) {
  dc_.title = std::move(v);
  return *this;
}
AnnotationBuilder& AnnotationBuilder::Creator(std::string v) {
  dc_.creator = std::move(v);
  return *this;
}
AnnotationBuilder& AnnotationBuilder::Subject(std::string v) {
  dc_.subject = std::move(v);
  return *this;
}
AnnotationBuilder& AnnotationBuilder::Description(std::string v) {
  dc_.description = std::move(v);
  return *this;
}
AnnotationBuilder& AnnotationBuilder::Date(std::string v) {
  dc_.date = std::move(v);
  return *this;
}
AnnotationBuilder& AnnotationBuilder::Source(std::string v) {
  dc_.source = std::move(v);
  return *this;
}
AnnotationBuilder& AnnotationBuilder::DublinCoreFields(DublinCore dc) {
  dc_ = std::move(dc);
  return *this;
}

AnnotationBuilder& AnnotationBuilder::Body(std::string text) {
  body_ = std::move(text);
  return *this;
}

AnnotationBuilder& AnnotationBuilder::UserTag(std::string name, std::string value) {
  user_tags_.emplace_back(std::move(name), std::move(value));
  return *this;
}

AnnotationBuilder& AnnotationBuilder::MarkInterval(std::string domain, int64_t lo, int64_t hi,
                                                   uint64_t object_id) {
  marks_.emplace_back(
      substructure::Substructure::MakeInterval(std::move(domain), spatial::Interval(lo, hi)),
      object_id);
  return *this;
}

AnnotationBuilder& AnnotationBuilder::MarkIntervals(
    std::string domain, const std::vector<spatial::Interval>& intervals, uint64_t object_id) {
  for (const spatial::Interval& iv : intervals) {
    marks_.emplace_back(substructure::Substructure::MakeInterval(domain, iv), object_id);
  }
  return *this;
}

AnnotationBuilder& AnnotationBuilder::MarkRegion(std::string coordinate_system,
                                                 const spatial::Rect& rect,
                                                 uint64_t object_id) {
  marks_.emplace_back(
      substructure::Substructure::MakeRegion(std::move(coordinate_system), rect), object_id);
  return *this;
}

AnnotationBuilder& AnnotationBuilder::MarkBlockSet(std::string table,
                                                   std::vector<uint64_t> row_ids,
                                                   uint64_t object_id) {
  marks_.emplace_back(
      substructure::Substructure::MakeBlockSet(std::move(table), std::move(row_ids)),
      object_id);
  return *this;
}

AnnotationBuilder& AnnotationBuilder::MarkNodeSet(std::string graph_id,
                                                  std::vector<uint64_t> node_ids,
                                                  uint64_t object_id) {
  marks_.emplace_back(
      substructure::Substructure::MakeNodeSet(std::move(graph_id), std::move(node_ids)),
      object_id);
  return *this;
}

AnnotationBuilder& AnnotationBuilder::MarkClade(std::string tree_id,
                                                std::vector<uint64_t> leaf_ids,
                                                uint64_t object_id) {
  marks_.emplace_back(
      substructure::Substructure::MakeTreeClade(std::move(tree_id), std::move(leaf_ids)),
      object_id);
  return *this;
}

AnnotationBuilder& AnnotationBuilder::Mark(substructure::Substructure sub, uint64_t object_id) {
  marks_.emplace_back(std::move(sub), object_id);
  return *this;
}

AnnotationBuilder& AnnotationBuilder::OntologyReference(std::string ontology, std::string term) {
  ontology_refs_.push_back({std::move(ontology), std::move(term)});
  return *this;
}

util::Result<xml::XmlDocument> AnnotationBuilder::BuildContentXml(AnnotationId id) const {
  auto root = xml::XmlNode::Element("annotation");
  if (id != 0) root->SetAttribute("id", std::to_string(id));
  dc_.AppendTo(root.get());
  if (!body_.empty()) root->AddElementWithText("body", body_);
  for (const auto& [name, value] : user_tags_) {
    if (name.empty()) {
      return util::Status::InvalidArgument("user tag with empty name");
    }
    root->AddElementWithText("user:" + name, value);
  }
  for (const OntologyRef& ref : ontology_refs_) {
    xml::XmlNode* elem = root->AddElement("ontology-ref");
    elem->SetAttribute("ontology", ref.ontology);
    elem->SetAttribute("term", ref.term);
  }
  for (const auto& [sub, object_id] : marks_) {
    if (!sub.valid()) {
      return util::Status::InvalidArgument("invalid marked substructure: " + sub.ToString());
    }
    xml::XmlNode* elem = root->AddElement("referent-ref");
    elem->SetAttribute("type", substructure::SubTypeToString(sub.type()));
    elem->SetAttribute("domain", sub.domain());
    elem->SetAttribute("mark", sub.ToString());
    if (object_id != 0) elem->SetAttribute("object", std::to_string(object_id));
    // Machine-readable location attributes (lossless, unlike `mark`).
    switch (sub.type()) {
      case substructure::SubType::kInterval:
        elem->SetAttribute("lo", std::to_string(sub.interval().lo));
        elem->SetAttribute("hi", std::to_string(sub.interval().hi));
        break;
      case substructure::SubType::kRegion: {
        const spatial::Rect& r = sub.rect();
        elem->SetAttribute("dims", std::to_string(r.dims));
        std::string lo, hi;
        char buf[32];
        for (int d = 0; d < r.dims; ++d) {
          std::snprintf(buf, sizeof(buf), "%.17g", r.lo[static_cast<size_t>(d)]);
          lo += (d ? "," : "") + std::string(buf);
          std::snprintf(buf, sizeof(buf), "%.17g", r.hi[static_cast<size_t>(d)]);
          hi += (d ? "," : "") + std::string(buf);
        }
        elem->SetAttribute("lo", lo);
        elem->SetAttribute("hi", hi);
        break;
      }
      default: {
        std::string elems;
        for (size_t i = 0; i < sub.elements().size(); ++i) {
          if (i) elems += ',';
          elems += std::to_string(sub.elements()[i]);
        }
        elem->SetAttribute("elements", elems);
      }
    }
  }
  return xml::XmlDocument(std::move(root));
}

namespace {

util::Result<std::vector<uint64_t>> ParseIdList(const std::string& text) {
  std::vector<uint64_t> out;
  for (const std::string& part : util::Split(text, ',')) {
    int64_t v = 0;
    if (!util::ParseInt64(part, &v) || v < 0) {
      return util::Status::ParseError("bad id list element '" + part + "'");
    }
    out.push_back(static_cast<uint64_t>(v));
  }
  return out;
}

util::Result<std::vector<double>> ParseDoubleList(const std::string& text) {
  std::vector<double> out;
  for (const std::string& part : util::Split(text, ',')) {
    double v = 0;
    if (!util::ParseDouble(part, &v)) {
      return util::Status::ParseError("bad coordinate '" + part + "'");
    }
    out.push_back(v);
  }
  return out;
}

}  // namespace

util::Result<AnnotationBuilder> AnnotationBuilder::FromContentXml(const xml::XmlNode* root) {
  if (root == nullptr || root->tag() != "annotation") {
    return util::Status::InvalidArgument("expected an <annotation> root element");
  }
  AnnotationBuilder b;
  b.DublinCoreFields(DublinCore::FromXml(root));
  const xml::XmlNode* body = root->FirstChildElement("body");
  if (body != nullptr) b.Body(body->InnerText());

  for (const auto& child : root->children()) {
    if (!child->is_element()) continue;
    const std::string& tag = child->tag();
    if (util::StartsWith(tag, "user:")) {
      b.UserTag(tag.substr(5), child->InnerText());
    } else if (tag == "ontology-ref") {
      const std::string* onto = child->FindAttribute("ontology");
      const std::string* term = child->FindAttribute("term");
      if (onto == nullptr || term == nullptr) {
        return util::Status::ParseError("ontology-ref missing ontology/term attributes");
      }
      b.OntologyReference(*onto, *term);
    } else if (tag == "referent-ref") {
      const std::string* type = child->FindAttribute("type");
      const std::string* domain = child->FindAttribute("domain");
      if (type == nullptr || domain == nullptr) {
        return util::Status::ParseError("referent-ref missing type/domain attributes");
      }
      uint64_t object_id = 0;
      if (const std::string* obj = child->FindAttribute("object")) {
        int64_t v = 0;
        if (!util::ParseInt64(*obj, &v) || v < 0) {
          return util::Status::ParseError("bad object id '" + *obj + "'");
        }
        object_id = static_cast<uint64_t>(v);
      }
      if (*type == "interval") {
        const std::string* lo = child->FindAttribute("lo");
        const std::string* hi = child->FindAttribute("hi");
        int64_t lo_v = 0, hi_v = 0;
        if (lo == nullptr || hi == nullptr || !util::ParseInt64(*lo, &lo_v) ||
            !util::ParseInt64(*hi, &hi_v)) {
          return util::Status::ParseError("interval referent-ref missing lo/hi");
        }
        b.MarkInterval(*domain, lo_v, hi_v, object_id);
      } else if (*type == "region") {
        const std::string* dims_attr = child->FindAttribute("dims");
        const std::string* lo = child->FindAttribute("lo");
        const std::string* hi = child->FindAttribute("hi");
        int64_t dims = 0;
        if (dims_attr == nullptr || lo == nullptr || hi == nullptr ||
            !util::ParseInt64(*dims_attr, &dims) || dims < 1 ||
            dims > spatial::Rect::kMaxDims) {
          return util::Status::ParseError("region referent-ref missing dims/lo/hi");
        }
        GRAPHITTI_ASSIGN_OR_RETURN(std::vector<double> lo_v, ParseDoubleList(*lo));
        GRAPHITTI_ASSIGN_OR_RETURN(std::vector<double> hi_v, ParseDoubleList(*hi));
        if (lo_v.size() != static_cast<size_t>(dims) ||
            hi_v.size() != static_cast<size_t>(dims)) {
          return util::Status::ParseError("region coordinate arity mismatch");
        }
        spatial::Rect r;
        r.dims = static_cast<int>(dims);
        for (size_t d = 0; d < static_cast<size_t>(dims); ++d) {
          r.lo[d] = lo_v[d];
          r.hi[d] = hi_v[d];
        }
        b.MarkRegion(*domain, r, object_id);
      } else {
        const std::string* elements = child->FindAttribute("elements");
        if (elements == nullptr) {
          return util::Status::ParseError("set referent-ref missing elements attribute");
        }
        GRAPHITTI_ASSIGN_OR_RETURN(std::vector<uint64_t> ids, ParseIdList(*elements));
        if (*type == "node-set") {
          b.MarkNodeSet(*domain, std::move(ids), object_id);
        } else if (*type == "block-set") {
          b.MarkBlockSet(*domain, std::move(ids), object_id);
        } else if (*type == "tree-clade") {
          b.MarkClade(*domain, std::move(ids), object_id);
        } else {
          return util::Status::ParseError("unknown referent type '" + *type + "'");
        }
      }
    }
  }
  return b;
}

}  // namespace annotation
}  // namespace graphitti

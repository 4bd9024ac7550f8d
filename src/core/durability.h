// Internal WAL-record payload encoders, shared between the facade's append
// sites (core/graphitti.cc) and the recovery decoder (core/durability.cc).
// Payload layouts are documented next to each decoder in durability.cc;
// persist/wal.h owns the record framing and type tags.
#ifndef GRAPHITTI_CORE_DURABILITY_H_
#define GRAPHITTI_CORE_DURABILITY_H_

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "annotation/annotation_store.h"
#include "core/graphitti.h"
#include "relational/catalog.h"
#include "spatial/rect.h"

namespace graphitti {
namespace core {
namespace walrec {

/// One commit record for the annotations `builders[i]` just committed to
/// `store` as `ids[i]` (`builders` points at ids.size() builders).
std::string EncodeCommitBatch(const annotation::AnnotationStore& store,
                              const annotation::AnnotationBuilder* builders,
                              const std::vector<annotation::AnnotationId>& ids);
std::string EncodeRemove(annotation::AnnotationId id);
std::string EncodeObject(const ObjectInfo& info, const relational::Row& row);
std::string EncodeCreateTable(std::string_view name, const relational::Schema& schema);
std::string EncodeOntology(std::string_view name, std::string_view obo_text);
std::string EncodeCoordSystem(std::string_view name, int dims);
std::string EncodeDerivedCoordSystem(
    std::string_view name, std::string_view canonical,
    const std::array<double, spatial::Rect::kMaxDims>& scale,
    const std::array<double, spatial::Rect::kMaxDims>& offset);

}  // namespace walrec
}  // namespace core
}  // namespace graphitti

#endif  // GRAPHITTI_CORE_DURABILITY_H_

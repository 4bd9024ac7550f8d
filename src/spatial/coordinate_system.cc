#include "spatial/coordinate_system.h"

namespace graphitti {
namespace spatial {

Rect CoordinateSystem::ToCanonical(const Rect& local) const {
  Rect out;
  out.dims = local.dims;
  for (int d = 0; d < local.dims; ++d) {
    double a = local.lo[d] * scale[d] + offset[d];
    double b = local.hi[d] * scale[d] + offset[d];
    out.lo[d] = std::min(a, b);  // negative scales flip the axis
    out.hi[d] = std::max(a, b);
  }
  return out;
}

util::Status CoordinateSystemRegistry::ValidateCanonical(std::string_view name,
                                                        int dims) const {
  if (dims < 1 || dims > Rect::kMaxDims) {
    return util::Status::InvalidArgument("dims must be in [1," +
                                         std::to_string(Rect::kMaxDims) + "]");
  }
  if (Contains(name)) {
    return util::Status::AlreadyExists("coordinate system '" + std::string(name) +
                                       "' already registered");
  }
  return util::Status::OK();
}

util::Status CoordinateSystemRegistry::RegisterCanonical(std::string_view name, int dims) {
  GRAPHITTI_RETURN_NOT_OK(ValidateCanonical(name, dims));
  CoordinateSystem cs;
  cs.name = std::string(name);
  cs.canonical = cs.name;
  cs.dims = dims;
  systems_.emplace(cs.name, std::move(cs));
  return util::Status::OK();
}

util::Status CoordinateSystemRegistry::ValidateDerived(
    std::string_view name, std::string_view canonical,
    const std::array<double, Rect::kMaxDims>& scale) const {
  if (Contains(name)) {
    return util::Status::AlreadyExists("coordinate system '" + std::string(name) +
                                       "' already registered");
  }
  auto it = systems_.find(canonical);
  if (it == systems_.end()) {
    return util::Status::NotFound("canonical system '" + std::string(canonical) +
                                  "' not registered");
  }
  if (it->second.canonical != it->second.name) {
    return util::Status::InvalidArgument("'" + std::string(canonical) +
                                         "' is itself derived; chain transforms first");
  }
  for (int d = 0; d < it->second.dims; ++d) {
    if (scale[static_cast<size_t>(d)] == 0.0) {
      return util::Status::InvalidArgument("zero scale on axis " + std::to_string(d));
    }
  }
  return util::Status::OK();
}

util::Status CoordinateSystemRegistry::RegisterDerived(
    std::string_view name, std::string_view canonical,
    const std::array<double, Rect::kMaxDims>& scale,
    const std::array<double, Rect::kMaxDims>& offset) {
  GRAPHITTI_RETURN_NOT_OK(ValidateDerived(name, canonical, scale));
  CoordinateSystem cs;
  cs.name = std::string(name);
  cs.canonical = std::string(canonical);
  cs.dims = systems_.find(canonical)->second.dims;
  cs.scale = scale;
  cs.offset = offset;
  systems_.emplace(cs.name, std::move(cs));
  return util::Status::OK();
}

std::vector<CoordinateSystem> CoordinateSystemRegistry::All() const {
  std::vector<CoordinateSystem> out;
  for (const auto& [_, cs] : systems_) {
    if (cs.canonical == cs.name) out.push_back(cs);
  }
  for (const auto& [_, cs] : systems_) {
    if (cs.canonical != cs.name) out.push_back(cs);
  }
  return out;
}

util::Result<CoordinateSystem> CoordinateSystemRegistry::Get(std::string_view name) const {
  auto it = systems_.find(name);
  if (it == systems_.end()) {
    return util::Status::NotFound("coordinate system '" + std::string(name) +
                                  "' not registered");
  }
  return it->second;
}

util::Result<int> CoordinateSystemRegistry::Dims(std::string_view name) const {
  auto it = systems_.find(name);
  if (it == systems_.end()) {
    return util::Status::NotFound("coordinate system '" + std::string(name) +
                                  "' not registered");
  }
  return it->second.dims;
}

util::Result<std::pair<std::string, Rect>> CoordinateSystemRegistry::ToCanonical(
    std::string_view system, const Rect& local) const {
  GRAPHITTI_ASSIGN_OR_RETURN(CoordinateSystem cs, Get(system));
  if (local.dims != cs.dims) {
    return util::Status::InvalidArgument("rect dims " + std::to_string(local.dims) +
                                         " != system dims " + std::to_string(cs.dims));
  }
  return std::make_pair(cs.canonical, cs.ToCanonical(local));
}

}  // namespace spatial
}  // namespace graphitti

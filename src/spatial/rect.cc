#include "spatial/rect.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace graphitti {
namespace spatial {

std::optional<Rect> Rect::Intersect(const Rect& other) const {
  Rect out;
  out.dims = dims;
  for (int d = 0; d < dims; ++d) {
    out.lo[d] = std::max(lo[d], other.lo[d]);
    out.hi[d] = std::min(hi[d], other.hi[d]);
    if (out.lo[d] > out.hi[d]) return std::nullopt;
  }
  return out;
}

Rect Rect::Union(const Rect& other) const {
  Rect out;
  out.dims = dims;
  for (int d = 0; d < dims; ++d) {
    out.lo[d] = std::min(lo[d], other.lo[d]);
    out.hi[d] = std::max(hi[d], other.hi[d]);
  }
  return out;
}

double Rect::MinDistSq(const Rect& other) const {
  double dist = 0;
  for (int d = 0; d < dims; ++d) {
    double gap = 0;
    if (other.hi[d] < lo[d]) {
      gap = lo[d] - other.hi[d];
    } else if (other.lo[d] > hi[d]) {
      gap = other.lo[d] - hi[d];
    }
    dist += gap * gap;
  }
  return dist;
}

bool Rect::operator==(const Rect& other) const {
  if (dims != other.dims) return false;
  for (int d = 0; d < dims; ++d) {
    if (lo[d] != other.lo[d] || hi[d] != other.hi[d]) return false;
  }
  return true;
}

namespace {

// Appends `v` as printf's "%f" does: fixed notation, six decimals, which
// std::to_chars defines by reference to printf. The buffer holds the
// longest such text, -DBL_MAX's 317 characters.
void AppendFixed6(std::string* out, double v) {
  char buf[320];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 6);
  out->append(buf, r.ptr);
}

}  // namespace

std::string Rect::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Rect::AppendTo(std::string* out) const {
  out->push_back('[');
  for (int d = 0; d < dims; ++d) {
    if (d) out->append(" x ");
    out->push_back('(');
    AppendFixed6(out, lo[d]);
    out->push_back(',');
    AppendFixed6(out, hi[d]);
    out->push_back(')');
  }
  out->push_back(']');
}

}  // namespace spatial
}  // namespace graphitti

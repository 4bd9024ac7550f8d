// Axis-aligned rectangles/boxes for 2D and 3D substructures (image regions,
// 3D protein model regions).
#ifndef GRAPHITTI_SPATIAL_RECT_H_
#define GRAPHITTI_SPATIAL_RECT_H_

#include <array>
#include <optional>
#include <string>

namespace graphitti {
namespace spatial {

/// Axis-aligned box with up to 3 dimensions. 2D rects leave dimension 2 at
/// [0, 0]. All bounds are closed.
struct Rect {
  static constexpr int kMaxDims = 3;

  std::array<double, kMaxDims> lo = {0, 0, 0};
  std::array<double, kMaxDims> hi = {0, 0, 0};
  int dims = 2;

  static Rect Make2D(double x0, double y0, double x1, double y1) {
    Rect r;
    r.dims = 2;
    r.lo = {x0, y0, 0};
    r.hi = {x1, y1, 0};
    return r;
  }

  static Rect Make3D(double x0, double y0, double z0, double x1, double y1, double z1) {
    Rect r;
    r.dims = 3;
    r.lo = {x0, y0, z0};
    r.hi = {x1, y1, z1};
    return r;
  }

  /// A degenerate point box (for nearest-neighbour queries).
  static Rect Point2D(double x, double y) { return Make2D(x, y, x, y); }
  static Rect Point3D(double x, double y, double z) { return Make3D(x, y, z, x, y, z); }

  /// lo <= hi on every dimension; a NaN bound fails, since it compares
  /// false with everything (it would overlap every window and never equal
  /// itself).
  bool valid() const {
    for (int d = 0; d < dims; ++d) {
      if (!(lo[d] <= hi[d])) return false;
    }
    return true;
  }

  bool Overlaps(const Rect& other) const {
    for (int d = 0; d < dims; ++d) {
      if (lo[d] > other.hi[d] || other.lo[d] > hi[d]) return false;
    }
    return true;
  }

  bool Contains(const Rect& other) const {
    for (int d = 0; d < dims; ++d) {
      if (other.lo[d] < lo[d] || other.hi[d] > hi[d]) return false;
    }
    return true;
  }

  /// Intersection box, or nullopt when disjoint (boxes are convex, §II).
  std::optional<Rect> Intersect(const Rect& other) const;

  /// Smallest box covering both.
  Rect Union(const Rect& other) const;

  /// Hypervolume (area in 2D).
  double Volume() const {
    double v = 1;
    for (int d = 0; d < dims; ++d) v *= (hi[d] - lo[d]);
    return v;
  }

  /// Sum of edge lengths (R*-style margin).
  double Margin() const {
    double m = 0;
    for (int d = 0; d < dims; ++d) m += hi[d] - lo[d];
    return m;
  }

  /// Volume growth of Union(other) over this box.
  double Enlargement(const Rect& other) const {
    return Union(other).Volume() - Volume();
  }

  /// Squared minimum distance from this box to `other` (0 when overlapping).
  double MinDistSq(const Rect& other) const;

  bool operator==(const Rect& other) const;

  /// "[(lo,hi) x (lo,hi)]", one pair per dimension, each bound in printf's
  /// "%f" format (std::to_string's).
  std::string ToString() const;
  /// Appends ToString()'s text to `out` (the a-graph label path).
  void AppendTo(std::string* out) const;
};

}  // namespace spatial
}  // namespace graphitti

#endif  // GRAPHITTI_SPATIAL_RECT_H_

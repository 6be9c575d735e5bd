#include "src/obs/svg.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

#include "src/common/string_util.h"

namespace pdsp {
namespace obs {
namespace svg {

namespace {

constexpr double kMarginLeft = 58;
constexpr double kMarginRight = 14;
constexpr double kMarginTop = 28;
constexpr double kMarginBottom = 42;

const char* const kPalette[] = {
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
};

bool Finite(double v) { return std::isfinite(v); }

/// Pixel coordinate with a fixed, locale-independent format. Non-finite
/// values are coerced to 0 as a last line of defense — renderers are
/// expected to have filtered them already.
std::string Px(double v) {
  if (!Finite(v)) v = 0.0;
  return StrFormat("%.1f", v);
}

void FiniteMinMax(const std::vector<Series>& series, double* x_min,
                  double* x_max, double* y_min, double* y_max) {
  *x_min = *y_min = std::numeric_limits<double>::infinity();
  *x_max = *y_max = -std::numeric_limits<double>::infinity();
  for (const Series& s : series) {
    for (const auto& p : s.points) {
      if (!Finite(p.first) || !Finite(p.second)) continue;
      *x_min = std::min(*x_min, p.first);
      *x_max = std::max(*x_max, p.first);
      *y_min = std::min(*y_min, p.second);
      *y_max = std::max(*y_max, p.second);
    }
  }
}

std::string Placeholder(double width, double height,
                        const std::string& title) {
  Canvas canvas(width, height);
  canvas.Text(10, 18, title, 13, "start", "#111");
  canvas.Text(width / 2, height / 2, "(no data)", 12, "middle", "#999");
  return canvas.Finish();
}

}  // namespace

std::string EscapeText(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

const char* PaletteColor(size_t index) {
  return kPalette[index % (sizeof(kPalette) / sizeof(kPalette[0]))];
}

std::string ColorRamp(double t) {
  if (!Finite(t)) t = 0.0;
  t = std::min(1.0, std::max(0.0, t));
  // Light blue-gray -> saturated blue; perceptually monotone enough for a
  // throughput heatmap without pulling in a real colormap table.
  const int r = static_cast<int>(237 + t * (8 - 237));
  const int g = static_cast<int>(243 + t * (69 - 243));
  const int b = static_cast<int>(250 + t * (148 - 250));
  return StrFormat("#%02x%02x%02x", r, g, b);
}

std::vector<double> Ticks(double min_v, double max_v, int target) {
  if (!Finite(min_v) || !Finite(max_v) || max_v <= min_v) return {0.0};
  if (target < 2) target = 2;
  const double raw_step = (max_v - min_v) / target;
  const double mag = std::pow(10.0, std::floor(std::log10(raw_step)));
  double step = mag;
  for (double mult : {1.0, 2.0, 2.5, 5.0, 10.0}) {
    if (mag * mult >= raw_step) {
      step = mag * mult;
      break;
    }
  }
  std::vector<double> ticks;
  const double first = std::ceil(min_v / step) * step;
  for (double v = first; v <= max_v + step * 1e-9; v += step) {
    // Snap values like 1.4000000000000001 back onto the grid.
    ticks.push_back(std::round(v / step) * step);
  }
  if (ticks.empty()) ticks.push_back(min_v);
  return ticks;
}

std::string TickLabel(double v) {
  if (!Finite(v)) return "";
  const double a = std::fabs(v);
  if (a >= 1e6) return StrFormat("%.3gM", v / 1e6);
  if (a >= 1e4) return StrFormat("%.3gk", v / 1e3);
  std::string s = StrFormat("%.4g", v);
  return s;
}

LinearScale::LinearScale(double domain_min, double domain_max,
                         double range_min, double range_max)
    : d0_(domain_min), d1_(domain_max), r0_(range_min), r1_(range_max) {
  if (d1_ == d0_) d1_ = d0_ + 1.0;  // avoid division by zero
}

double LinearScale::operator()(double v) const {
  return r0_ + (v - d0_) / (d1_ - d0_) * (r1_ - r0_);
}

Canvas::Canvas(double width, double height) : width_(width), height_(height) {}

void Canvas::Rect(double x, double y, double w, double h,
                  const std::string& fill, double opacity,
                  const std::string& tooltip) {
  body_ += "<rect x=\"" + Px(x) + "\" y=\"" + Px(y) + "\" width=\"" + Px(w) +
           "\" height=\"" + Px(h) + "\" fill=\"" + fill + "\"";
  if (opacity < 1.0) {
    body_ += " fill-opacity=\"" + StrFormat("%.2f", opacity) + "\"";
  }
  if (tooltip.empty()) {
    body_ += "/>\n";
  } else {
    body_ += "><title>" + EscapeText(tooltip) + "</title></rect>\n";
  }
}

void Canvas::Line(double x1, double y1, double x2, double y2,
                  const std::string& stroke, double stroke_width) {
  body_ += "<line x1=\"" + Px(x1) + "\" y1=\"" + Px(y1) + "\" x2=\"" +
           Px(x2) + "\" y2=\"" + Px(y2) + "\" stroke=\"" + stroke +
           "\" stroke-width=\"" + Px(stroke_width) + "\"/>\n";
}

void Canvas::Polyline(const std::vector<std::pair<double, double>>& points,
                      const std::string& stroke, double stroke_width) {
  if (points.size() < 2) return;
  body_ += "<polyline fill=\"none\" stroke=\"" + stroke +
           "\" stroke-width=\"" + Px(stroke_width) + "\" points=\"";
  for (size_t i = 0; i < points.size(); ++i) {
    if (i != 0) body_ += " ";
    body_ += Px(points[i].first) + "," + Px(points[i].second);
  }
  body_ += "\"/>\n";
}

void Canvas::Circle(double cx, double cy, double r, const std::string& fill,
                    const std::string& tooltip) {
  body_ += "<circle cx=\"" + Px(cx) + "\" cy=\"" + Px(cy) + "\" r=\"" +
           Px(r) + "\" fill=\"" + fill + "\"";
  if (tooltip.empty()) {
    body_ += "/>\n";
  } else {
    body_ += "><title>" + EscapeText(tooltip) + "</title></circle>\n";
  }
}

void Canvas::Text(double x, double y, const std::string& text, double size,
                  const std::string& anchor, const std::string& fill,
                  double rotate_deg) {
  body_ += "<text x=\"" + Px(x) + "\" y=\"" + Px(y) + "\" font-size=\"" +
           Px(size) + "\" text-anchor=\"" + anchor + "\" fill=\"" + fill +
           "\" font-family=\"sans-serif\"";
  if (rotate_deg != 0.0) {
    body_ += " transform=\"rotate(" + Px(rotate_deg) + " " + Px(x) + " " +
             Px(y) + ")\"";
  }
  // Appended piecewise: `">" + std::string&&` trips GCC 12's -O3
  // -Werror=restrict false positive.
  body_.append(">").append(EscapeText(text)).append("</text>\n");
}

std::string Canvas::Finish() const {
  return "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" + Px(width_) +
         "\" height=\"" + Px(height_) + "\" viewBox=\"0 0 " + Px(width_) +
         " " + Px(height_) + "\">\n" + body_ + "</svg>";
}

std::string RenderLineChart(const LineChartSpec& spec) {
  double x_min, x_max, y_min, y_max;
  FiniteMinMax(spec.series, &x_min, &x_max, &y_min, &y_max);
  if (!Finite(x_min) || !Finite(y_min)) {
    return Placeholder(spec.width, spec.height, spec.title);
  }
  if (spec.y_from_zero) y_min = std::min(y_min, 0.0);
  if (y_max <= y_min) y_max = y_min + 1.0;
  if (x_max <= x_min) x_max = x_min + 1.0;

  Canvas canvas(spec.width, spec.height);
  const double plot_x0 = kMarginLeft;
  const double plot_x1 = spec.width - kMarginRight;
  const double plot_y0 = spec.height - kMarginBottom;  // bottom
  const double plot_y1 = kMarginTop;                   // top
  LinearScale sx(x_min, x_max, plot_x0, plot_x1);
  LinearScale sy(y_min, y_max, plot_y0, plot_y1);

  canvas.Text(8, 17, spec.title, 13, "start", "#111");

  for (double t : Ticks(y_min, y_max)) {
    const double y = sy(t);
    canvas.Line(plot_x0, y, plot_x1, y, "#e5e5e5");
    canvas.Text(plot_x0 - 6, y + 3.5, TickLabel(t), 10, "end", "#555");
  }
  for (double t : Ticks(x_min, x_max)) {
    const double x = sx(t);
    canvas.Line(x, plot_y0, x, plot_y0 + 4, "#888");
    canvas.Text(x, plot_y0 + 16, TickLabel(t), 10, "middle", "#555");
  }
  canvas.Line(plot_x0, plot_y0, plot_x1, plot_y0, "#888");
  canvas.Line(plot_x0, plot_y0, plot_x0, plot_y1, "#888");
  if (!spec.x_label.empty()) {
    canvas.Text((plot_x0 + plot_x1) / 2, spec.height - 8, spec.x_label, 11,
                "middle", "#333");
  }
  if (!spec.y_label.empty()) {
    canvas.Text(14, (plot_y0 + plot_y1) / 2, spec.y_label, 11, "middle",
                "#333", -90.0);
  }

  double legend_x = plot_x0 + 8;
  for (size_t i = 0; i < spec.series.size(); ++i) {
    const Series& s = spec.series[i];
    const std::string color =
        s.color.empty() ? PaletteColor(i) : s.color;
    std::vector<std::pair<double, double>> pts;
    for (const auto& p : s.points) {
      if (!Finite(p.first) || !Finite(p.second)) continue;
      pts.emplace_back(sx(p.first), sy(p.second));
    }
    std::sort(pts.begin(), pts.end());
    canvas.Polyline(pts, color);
    for (const auto& p : pts) canvas.Circle(p.first, p.second, 2.5, color);
    if (!s.label.empty()) {
      canvas.Rect(legend_x, plot_y1 - 14, 10, 10, color);
      canvas.Text(legend_x + 14, plot_y1 - 5, s.label, 10, "start", "#333");
      legend_x += 22 + 6.0 * s.label.size();
    }
  }
  return canvas.Finish();
}

std::string RenderStackedBars(const StackedBarSpec& spec) {
  double max_total = 0.0;
  bool any = false;
  for (const StackedBar& bar : spec.bars) {
    double total = 0.0;
    for (double part : bar.parts) {
      if (Finite(part) && part > 0.0) total += part;
    }
    if (total > 0.0) any = true;
    max_total = std::max(max_total, total);
  }
  if (!any || spec.bars.empty()) {
    return Placeholder(spec.width, spec.height, spec.title);
  }

  Canvas canvas(spec.width, spec.height);
  const double plot_x0 = kMarginLeft;
  const double plot_x1 = spec.width - kMarginRight;
  const double plot_y0 = spec.height - kMarginBottom;
  const double plot_y1 = kMarginTop + 14;  // leave room for the legend row
  LinearScale sy(0.0, max_total, plot_y0, plot_y1);

  canvas.Text(8, 17, spec.title, 13, "start", "#111");

  for (double t : Ticks(0.0, max_total)) {
    const double y = sy(t);
    canvas.Line(plot_x0, y, plot_x1, y, "#e5e5e5");
    canvas.Text(plot_x0 - 6, y + 3.5, TickLabel(t), 10, "end", "#555");
  }
  canvas.Line(plot_x0, plot_y0, plot_x1, plot_y0, "#888");
  canvas.Line(plot_x0, plot_y0, plot_x0, plot_y1, "#888");
  if (!spec.y_label.empty()) {
    canvas.Text(14, (plot_y0 + plot_y1) / 2, spec.y_label, 11, "middle",
                "#333", -90.0);
  }

  double legend_x = plot_x0 + 8;
  for (size_t p = 0; p < spec.part_labels.size(); ++p) {
    canvas.Rect(legend_x, kMarginTop - 6, 10, 10, PaletteColor(p));
    canvas.Text(legend_x + 14, kMarginTop + 3, spec.part_labels[p], 10,
                "start", "#333");
    legend_x += 22 + 6.0 * spec.part_labels[p].size();
  }

  const double band = (plot_x1 - plot_x0) / spec.bars.size();
  const double bar_w = std::min(band * 0.7, 46.0);
  for (size_t b = 0; b < spec.bars.size(); ++b) {
    const StackedBar& bar = spec.bars[b];
    const double x = plot_x0 + band * (b + 0.5) - bar_w / 2;
    double acc = 0.0;
    for (size_t p = 0; p < bar.parts.size(); ++p) {
      const double part = bar.parts[p];
      if (!Finite(part) || part <= 0.0) continue;
      const double y_top = sy(acc + part);
      const double y_bot = sy(acc);
      const std::string tip =
          bar.label + " / " +
          (p < spec.part_labels.size() ? spec.part_labels[p] : "part") +
          ": " + TickLabel(part);
      canvas.Rect(x, y_top, bar_w, y_bot - y_top, PaletteColor(p), 1.0, tip);
      acc += part;
    }
    canvas.Text(plot_x0 + band * (b + 0.5), plot_y0 + 14, bar.label, 9,
                "middle", "#555");
  }
  return canvas.Finish();
}

std::string RenderHeatmap(const HeatmapSpec& spec) {
  if (spec.row_labels.empty() || spec.col_labels.empty()) {
    return Placeholder(420, 160, spec.title);
  }
  double v_min = std::numeric_limits<double>::infinity();
  double v_max = -std::numeric_limits<double>::infinity();
  for (const HeatmapCell& c : spec.cells) {
    if (!Finite(c.value)) continue;
    v_min = std::min(v_min, c.value);
    v_max = std::max(v_max, c.value);
  }
  const bool have_values = Finite(v_min);
  if (have_values && v_max <= v_min) v_max = v_min + 1.0;

  // Row labels can be long cell labels; size the gutter to the longest.
  size_t label_len = 0;
  for (const std::string& r : spec.row_labels) {
    label_len = std::max(label_len, r.size());
  }
  const double left = 16 + 6.2 * static_cast<double>(label_len);
  const double top = 46;
  const double cs = spec.cell_size;
  const double width = left + cs * spec.col_labels.size() + 90;
  const double height = top + cs * spec.row_labels.size() + 16;

  Canvas canvas(width, height);
  canvas.Text(8, 17, spec.title, 13, "start", "#111");
  for (size_t c = 0; c < spec.col_labels.size(); ++c) {
    canvas.Text(left + cs * (c + 0.5), top - 6, spec.col_labels[c], 10,
                "middle", "#555");
  }
  for (size_t r = 0; r < spec.row_labels.size(); ++r) {
    canvas.Text(left - 6, top + cs * (r + 0.5) + 3.5, spec.row_labels[r], 10,
                "end", "#555");
  }
  for (const HeatmapCell& cell : spec.cells) {
    if (cell.row < 0 ||
        static_cast<size_t>(cell.row) >= spec.row_labels.size() ||
        cell.col < 0 ||
        static_cast<size_t>(cell.col) >= spec.col_labels.size()) {
      continue;
    }
    const double x = left + cs * cell.col;
    const double y = top + cs * cell.row;
    std::string fill = "#f4f4f4";
    if (have_values && Finite(cell.value)) {
      const double t = (cell.value - v_min) / (v_max - v_min);
      fill = ColorRamp(t);
    }
    canvas.Rect(x + 1, y + 1, cs - 2, cs - 2, fill, 1.0, cell.tooltip);
    if (cell.flagged) {
      // Straggler marker: red outline drawn as four edges (Canvas has no
      // stroked-rect primitive and this keeps it that way).
      canvas.Line(x + 1, y + 1, x + cs - 1, y + 1, "#d62728", 2.0);
      canvas.Line(x + 1, y + cs - 1, x + cs - 1, y + cs - 1, "#d62728", 2.0);
      canvas.Line(x + 1, y + 1, x + 1, y + cs - 1, "#d62728", 2.0);
      canvas.Line(x + cs - 1, y + 1, x + cs - 1, y + cs - 1, "#d62728", 2.0);
    }
  }
  if (have_values) {
    // Color key: min and max swatches right of the grid.
    const double kx = left + cs * spec.col_labels.size() + 12;
    canvas.Rect(kx, top, 12, 12, ColorRamp(0.0));
    canvas.Text(kx + 16, top + 10, TickLabel(v_min), 10, "start", "#555");
    canvas.Rect(kx, top + 18, 12, 12, ColorRamp(1.0));
    canvas.Text(kx + 16, top + 28, TickLabel(v_max), 10, "start", "#555");
  }
  return canvas.Finish();
}

namespace {

/// Trie node for flame-graph aggregation. Children are keyed by frame
/// label, so sibling order — and therefore the rendered SVG — is
/// deterministic regardless of input order.
struct FlameNode {
  double value = 0.0;
  std::map<std::string, FlameNode> children;
};

int FlameDepth(const FlameNode& node) {
  int deepest = 0;
  for (const auto& [name, child] : node.children) {
    (void)name;
    deepest = std::max(deepest, 1 + FlameDepth(child));
  }
  return deepest;
}

/// FNV-1a over the frame name: std::hash is not guaranteed stable across
/// implementations, and a frame should keep its color across reports.
size_t FrameColorIndex(const std::string& name) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return static_cast<size_t>(h);
}

void RenderFlameNode(Canvas* canvas, const std::string& name,
                     const FlameNode& node, double x, int depth,
                     double px_per_unit, double row_height, double top,
                     double total) {
  const double w = node.value * px_per_unit;
  if (w < 0.5) return;  // sub-pixel frames add bytes, not information
  const double y = top + depth * row_height;
  const double share = total > 0.0 ? node.value / total * 100.0 : 0.0;
  canvas->Rect(x, y, std::max(0.5, w - 0.6), row_height - 2,
               PaletteColor(FrameColorIndex(name)), 0.85,
               StrFormat("%s: %.4fs (%.1f%%)", name.c_str(), node.value,
                         share));
  if (w > 34) {
    const size_t max_chars = static_cast<size_t>((w - 8) / 6.2);
    const std::string label =
        name.size() > max_chars
            ? name.substr(0, max_chars > 2 ? max_chars - 2 : 0) + ".."
            : name;
    canvas->Text(x + 4, y + row_height - 6, label, 10, "start", "#222");
  }
  double child_x = x;
  for (const auto& [child_name, child] : node.children) {
    RenderFlameNode(canvas, child_name, child, child_x, depth + 1,
                    px_per_unit, row_height, top, total);
    child_x += child.value * px_per_unit;
  }
}

}  // namespace

std::string RenderFlameGraph(const FlameGraphSpec& spec) {
  FlameNode root;
  for (const auto& [stack, weight] : spec.stacks) {
    if (!Finite(weight) || weight <= 0.0 || stack.empty()) continue;
    root.value += weight;
    FlameNode* node = &root;
    for (const std::string& frame : Split(stack, ';')) {
      node = &node->children[frame.empty() ? std::string("(anon)") : frame];
      node->value += weight;
    }
  }
  if (root.value <= 0.0) {
    return Placeholder(spec.width, 120, spec.title);
  }
  const double row_height = spec.row_height > 4 ? spec.row_height : 18;
  const double top = 26;
  const double left = 8;
  const double plot_width = spec.width - left - 8;
  const int rows = 1 + FlameDepth(root);  // + synthetic root row
  Canvas canvas(spec.width, top + rows * row_height + 8);
  canvas.Text(10, 17, spec.title, 13, "start", "#111");
  RenderFlameNode(&canvas, spec.root_label, root, left, 0,
                  plot_width / root.value, row_height, top, root.value);
  return canvas.Finish();
}

}  // namespace svg
}  // namespace obs
}  // namespace pdsp

#include "wrapper/wrapper.hpp"

namespace disco::wrapper {

Value SubmitResult::bag() const {
  return table.has_value() ? Value::bag(vec::to_rows(*table)) : data;
}

BindingMap bindings_for(const algebra::LogicalPtr& expr,
                        const catalog::Catalog& catalog) {
  BindingMap out;
  for (const std::string& extent_name : algebra::extents(expr)) {
    const catalog::MetaExtent& extent = catalog.extent(extent_name);
    out[extent_name] = ExtentBinding{
        extent.map.source_relation(extent_name), &extent.map};
  }
  return out;
}

}  // namespace disco::wrapper

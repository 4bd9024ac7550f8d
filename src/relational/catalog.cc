#include "relational/catalog.h"

namespace graphitti {
namespace relational {

util::Status Catalog::ValidateCreateTable(std::string_view name) const {
  if (tables_.find(name) != tables_.end()) {
    return util::Status::AlreadyExists("table '" + std::string(name) + "' already exists");
  }
  return util::Status::OK();
}

util::Result<Table*> Catalog::CreateTable(std::string name, Schema schema) {
  GRAPHITTI_RETURN_NOT_OK(ValidateCreateTable(name));
  auto table = std::make_unique<Table>(name, std::move(schema));
  Table* ptr = table.get();
  tables_.emplace(std::move(name), std::move(table));
  return ptr;
}

Table* Catalog::GetTable(std::string_view name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Catalog::GetTable(std::string_view name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

size_t Catalog::TotalRows() const {
  size_t total = 0;
  for (const auto& [_, table] : tables_) total += table->size();
  return total;
}

Catalog Catalog::Clone() const {
  Catalog copy;
  for (const auto& [name, table] : tables_) {
    copy.tables_.emplace(name, table->Clone());
  }
  return copy;
}

}  // namespace relational
}  // namespace graphitti

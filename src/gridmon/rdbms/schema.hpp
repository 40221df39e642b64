#pragma once

/// \file schema.hpp
/// Table schemas: ordered, case-insensitively named, typed columns.

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "gridmon/ascii.hpp"

namespace gridmon::rdbms {

enum class ColumnType { Integer, Real, Text };

struct ColumnDef {
  std::string name;
  ColumnType type;
};

inline std::string sql_lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), ascii::to_lower);
  return out;
}

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnDef> cols) : cols_(std::move(cols)) {}

  const std::vector<ColumnDef>& columns() const noexcept { return cols_; }
  std::size_t column_count() const noexcept { return cols_.size(); }

  std::optional<std::size_t> index_of(const std::string& name) const {
    std::string want = sql_lower(name);
    for (std::size_t i = 0; i < cols_.size(); ++i) {
      if (sql_lower(cols_[i].name) == want) return i;
    }
    return std::nullopt;
  }

  const ColumnDef& column(std::size_t i) const { return cols_[i]; }

 private:
  std::vector<ColumnDef> cols_;
};

}  // namespace gridmon::rdbms

#include "pnm/data/scaler.hpp"

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <stdexcept>

namespace pnm {

void MinMaxScaler::fit(const Dataset& data) {
  data.validate();
  if (data.size() == 0) throw std::invalid_argument("MinMaxScaler::fit: empty dataset");
  const std::size_t nf = data.n_features();
  min_.assign(nf, std::numeric_limits<double>::infinity());
  max_.assign(nf, -std::numeric_limits<double>::infinity());
  for (const auto& row : data.x) {
    for (std::size_t f = 0; f < nf; ++f) {
      min_[f] = std::min(min_[f], row[f]);
      max_[f] = std::max(max_[f], row[f]);
    }
  }
}

void MinMaxScaler::transform(std::vector<double>& x) const {
  if (!fitted()) throw std::logic_error("MinMaxScaler: transform before fit");
  if (x.size() != min_.size()) throw std::invalid_argument("MinMaxScaler: feature mismatch");
  for (std::size_t f = 0; f < x.size(); ++f) {
    const double span = max_[f] - min_[f];
    const double v = span > 0.0 ? (x[f] - min_[f]) / span : 0.0;
    x[f] = std::clamp(v, 0.0, 1.0);
  }
}

Dataset MinMaxScaler::transform(const Dataset& data) const {
  Dataset out = data;
  for (auto& row : out.x) transform(row);
  return out;
}

void scale_split(DataSplit& split, MinMaxScaler& scaler) {
  scaler.fit(split.train);
  for (Dataset* part : {&split.train, &split.val, &split.test}) {
    for (std::vector<double>& row : part->x) scaler.transform(row);
  }
}

}  // namespace pnm

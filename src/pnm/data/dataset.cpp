#include "pnm/data/dataset.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace pnm {

void Dataset::validate() const {
  if (x.size() != y.size()) {
    throw std::invalid_argument("Dataset: feature/label count mismatch");
  }
  const std::size_t nf = n_features();
  for (const auto& row : x) {
    if (row.size() != nf) throw std::invalid_argument("Dataset: ragged feature rows");
    for (double v : row) {
      // NaN/inf features would silently poison scaling and training.
      if (!std::isfinite(v)) {
        throw std::invalid_argument("Dataset: non-finite feature value");
      }
    }
  }
  for (std::size_t label : y) {
    if (label >= n_classes) throw std::invalid_argument("Dataset: label out of range");
  }
}

std::vector<std::size_t> Dataset::class_histogram() const {
  std::vector<std::size_t> hist(n_classes, 0);
  for (std::size_t label : y) hist.at(label)++;
  return hist;
}

namespace {

/// The rows at `indices` (order preserved), moved out of `data`; the
/// indices must be distinct.
Dataset take_rows(Dataset& data, const std::vector<std::size_t>& indices,
                  const char* suffix) {
  Dataset out;
  out.name = data.name + suffix;
  out.n_classes = data.n_classes;
  out.x.reserve(indices.size());
  out.y.reserve(indices.size());
  for (std::size_t i : indices) {
    out.x.push_back(std::move(data.x[i]));
    out.y.push_back(data.y[i]);
  }
  return out;
}

}  // namespace

DataSplit stratified_split(Dataset data, double train_frac, double val_frac,
                           double test_frac, Rng& rng) {
  if (train_frac <= 0.0 || val_frac < 0.0 || test_frac < 0.0 ||
      train_frac + val_frac + test_frac > 1.0 + 1e-9) {
    throw std::invalid_argument("stratified_split: bad fractions");
  }
  data.validate();

  std::vector<std::vector<std::size_t>> per_class(data.n_classes);
  for (std::size_t i = 0; i < data.size(); ++i) per_class[data.y[i]].push_back(i);
  for (auto& idx : per_class) rng.shuffle(idx);

  std::vector<std::size_t> train_idx, val_idx, test_idx;
  for (const auto& idx : per_class) {
    const auto n = idx.size();
    const auto n_train = static_cast<std::size_t>(std::llround(train_frac * static_cast<double>(n)));
    const auto n_val = static_cast<std::size_t>(std::llround(val_frac * static_cast<double>(n)));
    auto n_test = static_cast<std::size_t>(std::llround(test_frac * static_cast<double>(n)));
    if (n_train + n_val + n_test > n) n_test = n - std::min(n, n_train + n_val);
    std::size_t p = 0;
    for (std::size_t k = 0; k < n_train && p < n; ++k) train_idx.push_back(idx[p++]);
    for (std::size_t k = 0; k < n_val && p < n; ++k) val_idx.push_back(idx[p++]);
    for (std::size_t k = 0; k < n_test && p < n; ++k) test_idx.push_back(idx[p++]);
  }
  rng.shuffle(train_idx);
  rng.shuffle(val_idx);
  rng.shuffle(test_idx);

  DataSplit split;
  split.train = take_rows(data, train_idx, "-train");
  split.val = take_rows(data, val_idx, "-val");
  split.test = take_rows(data, test_idx, "-test");
  return split;
}

Dataset subset(const Dataset& data, const std::vector<std::size_t>& indices) {
  Dataset out;
  out.name = data.name;
  out.n_classes = data.n_classes;
  out.x.reserve(indices.size());
  out.y.reserve(indices.size());
  for (std::size_t i : indices) {
    out.x.push_back(data.x.at(i));
    out.y.push_back(data.y.at(i));
  }
  return out;
}

}  // namespace pnm
